"""Closed-form multifractal spectrum functions of the constant solution.

The structure-function exponent of the constant solution is

    zeta_p = min{ p,  (p/3)(alpha - d/2) + (p/2)(ell(3/2) - ell(p/2)) },

concave and non-decreasing for h >= 0, with oblique asymptote of slope h
and intercept d - log2 m (m the multiplicity of the largest coefficient).
The raw branch is p s0(p) (s0 the critical W^{s,p} regularity, h its limit
as p -> inf) and is also the Besov exponent xi_p.
The companion rate/dimension pair

    R(a) = d + (3/2) ell(3/2) - (3/2) a,
    D(a) = d - gamma_a (a - ell(gamma_a)),     gamma_a = phi^{-1}(a),

controls where anomalous dissipation concentrates: R >= D with equality
exactly at a = phi(3/2), and the dissipation carrier has dimension
Delta = d - (3/2)(phi(3/2) - ell(3/2)).  ell, phi, D and the count m are
methods of ``RepeatedCoefficients``; the intercept is d - D(log2 max delta).

Both the clipped min{p, .} exponent and the raw branch are exposed; the
asymptote and the Frisch-Parisi consistency check need the raw branch.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .coefficients import RcmModel, _number, _numbers

__all__ = [
    "fixed_point_q",
    "cascade_rate",
    "s0",
    "holder_exponent",
    "zeta",
    "zeta_raw",
    "zeta_derivative",
    "asymptote",
    "rate_R",
    "dim_D",
    "dim_delta",
    "reference_zeta",
    "frisch_parisi_residual",
]


def fixed_point_q(model: RcmModel) -> float:
    """The constant fixed point of the backward recursion."""
    return -(model.alpha + model.d) / 3.0 - 0.5 * model.ell(1.5)


def cascade_rate(model: RcmModel) -> float:
    """alpha + 3q = -d - (3/2) ell(3/2), the per-generation log2 F drift."""
    return model.alpha + 3.0 * fixed_point_q(model)


def s0(model: RcmModel, p: float) -> float:
    """Critical regularity: the constant solution is in W^{s,p} iff s < s0(p)."""
    return ((model.alpha - model.d / 2) / 3
            + 0.5 * (model.ell(1.5) - model.ell(_numbers("p", p) / 2)))


def holder_exponent(model: RcmModel) -> float:
    """The critical Holder exponent h = lim_p s0(p)."""
    return s0(model, math.inf)


def _warn_if_h_outside_unit(model: RcmModel) -> None:
    h = holder_exponent(model)
    if not 0.0 < h < 1.0:
        warnings.warn(
            f"h = {h:.6g} outside (0, 1): the structure-function formula "
            "is only justified in that range", RuntimeWarning, stacklevel=3)


def zeta_raw(model: RcmModel, p) -> np.ndarray | float:
    """The unclipped branch (p/3)(alpha - d/2) + (p/2)(ell(3/2) - ell(p/2))."""
    p_arr = np.atleast_1d(_numbers("p", p))
    if not np.all((p_arr >= 0) & (p_arr < math.inf)):
        raise ValueError(f"p must be finite and >= 0, got {p_arr.tolist()}")
    out = (p_arr / 3) * (model.alpha - model.d / 2) \
        + (p_arr / 2) * (model.ell(1.5) - model.ell(p_arr / 2))
    return out if np.ndim(p) else float(out[0])


def zeta(model: RcmModel, p, check_h: bool = True) -> np.ndarray | float:
    """Structure-function exponents min{p, raw branch} on p >= 0."""
    if check_h:
        _warn_if_h_outside_unit(model)
    p = _numbers("p", p)
    raw = zeta_raw(model, p)
    return np.minimum(p, raw) if np.ndim(p) else min(p, raw)


def zeta_derivative(model: RcmModel, p: float) -> float:
    """Derivative of the raw branch: (alpha - d/2)/3 + ell(3/2)/2 - phi(p/2)/2."""
    return ((model.alpha - model.d / 2) / 3 + 0.5 * model.ell(1.5)
            - 0.5 * model.phi(_number("p", p) / 2))


def asymptote(model: RcmModel) -> tuple[float, float]:
    """(slope, intercept) of the oblique asymptote of the raw branch.

    Slope is the Holder exponent h; the intercept is d - log2 m with m the
    multiplicity of the largest coefficient.
    """
    return (holder_exponent(model),
            model.d - math.log2(model.coeffs.top_multiplicity(math.inf)))


# ---------------------------------------------------------------------------
# rate function and singularity dimension
# ---------------------------------------------------------------------------


def rate_R(model: RcmModel, a) -> np.ndarray | float:
    """The affine dissipation rate R(a) = d + (3/2) ell(3/2) - (3/2) a."""
    return model.d + 1.5 * model.ell(1.5) - 1.5 * _numbers("a", a)


def dim_D(model: RcmModel, a: float) -> float:
    """Hausdorff dimension of the level set with path-mean log-coefficient a."""
    return model.coeffs.dim_D(a)


def dim_delta(model: RcmModel) -> float:
    """Dimension of the anomalous-dissipation carrier:
    d - (3/2)(phi(3/2) - ell(3/2))."""
    return model.d - 1.5 * (model.phi(1.5) - model.ell(1.5))


# ---------------------------------------------------------------------------
# reference models
# ---------------------------------------------------------------------------


def reference_zeta(name: str, p, mu: float = 0.2, D: float = 2.8):
    """Closed-form exponents of the classical comparison models.

    k41:         p/3
    log_normal:  p/3 + (mu/18)(3p - p^2)
    beta:        p/3 + (3 - D)(1 - p/3)
    she_leveque: p/9 + 2 - 2 (2/3)^(p/3)
    """
    p = np.asarray(p, dtype=float)
    if name == "k41":
        return p / 3
    if name == "log_normal":
        return p / 3 + (mu / 18.0) * (3 * p - p**2)
    if name == "beta":
        return p / 3 + (3.0 - D) * (1 - p / 3)
    if name == "she_leveque":
        return p / 9 + 2 - 2 * (2.0 / 3.0) ** (p / 3)
    raise ValueError(f"unknown reference model {name!r}")


REFERENCE_MODELS = ("k41", "log_normal", "beta", "she_leveque")


def frisch_parisi_residual(model: RcmModel) -> float:
    """|Delta - (3 zeta'_3 + d - 1)|; vanishes when alpha = d/2 + 1."""
    return abs(dim_delta(model)
               - (3 * zeta_derivative(model, 3.0) + model.d - 1))
