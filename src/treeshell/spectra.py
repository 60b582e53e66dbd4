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
Delta = d - (3/2)(phi(3/2) - ell(3/2)).

Both the clipped min{p, .} exponent and the raw branch are exposed; the
asymptote and the Frisch-Parisi consistency check need the raw branch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import RcmModel, RepeatedCoefficients

__all__ = [
    "fixed_point_q",
    "cascade_rate",
    "s0",
    "holder_exponent",
    "zeta",
    "zeta_raw",
    "zeta_derivative",
    "zeta_derivative_at_zero",
    "asymptote",
    "max_delta_multiplicity",
    "rate_R",
    "dim_D",
    "dim_D_of_multiset",
    "dim_delta",
    "entropy_max_oracle",
    "reference_zeta",
    "frisch_parisi_residual",
    "SpectrumReport",
    "build_report",
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
            + 0.5 * (model.ell(1.5) - model.ell(p / 2)))


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
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any(p_arr < 0):
        raise ValueError("p must be >= 0")
    out = (p_arr / 3) * (model.alpha - model.d / 2) \
        + (p_arr / 2) * (model.ell(1.5) - model.ell(p_arr / 2))
    return out if np.ndim(p) else float(out[0])


def zeta(model: RcmModel, p, check_h: bool = True) -> np.ndarray | float:
    """Structure-function exponents min{p, raw branch} on p >= 0."""
    if check_h:
        _warn_if_h_outside_unit(model)
    raw = zeta_raw(model, p)
    return np.minimum(np.asarray(p, dtype=float), raw) if np.ndim(p) \
        else min(float(p), raw)


def zeta_derivative(model: RcmModel, p: float) -> float:
    """Derivative of the raw branch: (alpha - d/2)/3 + ell(3/2)/2 - phi(p/2)/2."""
    return ((model.alpha - model.d / 2) / 3 + 0.5 * model.ell(1.5)
            - 0.5 * model.phi(p / 2))


def zeta_derivative_at_zero(model: RcmModel) -> float:
    """Slope at p = 0: (alpha - d/2)/3 + (ell(3/2) - ell(0))/2."""
    return zeta_derivative(model, 0.0)


def max_delta_multiplicity(model: RcmModel) -> int:
    """Multiplicity of the largest coefficient in the multiset."""
    log2d = model.coeffs.log2_deltas
    return int(np.sum(log2d >= log2d.max() - 1e-12))


def asymptote(model: RcmModel) -> tuple[float, float]:
    """(slope, intercept) of the oblique asymptote of the raw branch.

    Slope is the Holder exponent h; the intercept is d - log2 m with m the
    multiplicity of the largest coefficient.
    """
    return holder_exponent(model), model.d - math.log2(max_delta_multiplicity(model))


# ---------------------------------------------------------------------------
# rate function and singularity dimension
# ---------------------------------------------------------------------------


def rate_R(model: RcmModel, a) -> np.ndarray | float:
    """The affine dissipation rate R(a) = d + (3/2) ell(3/2) - (3/2) a."""
    return model.d + 1.5 * model.ell(1.5) - 1.5 * np.asarray(a, dtype=float) \
        if np.ndim(a) else model.d + 1.5 * model.ell(1.5) - 1.5 * float(a)


def dim_D_of_multiset(coeffs: RepeatedCoefficients, a: float) -> float:
    """Constrained-entropy maximum for a coefficient multiset.

    The unconstrained maximum is log2 of the multiset size (the spatial
    dimension d when the multiset has N = 2**d entries).  Closed endpoints
    map to the degenerate compositions supported on the extreme value:
    D = log2(multiplicity).
    """
    log2_N = math.log2(coeffs.size)
    log2d = coeffs.log2_deltas
    lo, hi = coeffs.ell_neg_inf(), coeffs.ell_pos_inf()
    if coeffs.is_flat:
        if not math.isclose(a, lo, rel_tol=0, abs_tol=1e-12):
            raise ValueError("for a flat multiset D(a) is defined only at a = ell_0")
        return log2_N
    tol = 1e-12
    if math.isclose(a, lo, rel_tol=0, abs_tol=tol):
        return math.log2(np.sum(log2d <= lo + 1e-12))
    if math.isclose(a, hi, rel_tol=0, abs_tol=tol):
        return math.log2(np.sum(log2d >= hi - 1e-12))
    if not lo < a < hi:
        raise ValueError(f"a = {a} outside [{lo}, {hi}]")
    gamma = coeffs.phi_inverse(a)
    return log2_N - gamma * (a - coeffs.ell(gamma))


def dim_D(model: RcmModel, a: float) -> float:
    """Hausdorff dimension of the level set with path-mean log-coefficient a."""
    return dim_D_of_multiset(model.coeffs, a)


def dim_delta(model: RcmModel) -> float:
    """Dimension of the anomalous-dissipation carrier:
    d - (3/2)(phi(3/2) - ell(3/2))."""
    return model.d - 1.5 * (model.phi(1.5) - model.ell(1.5))


def entropy_max_oracle(coeffs: RepeatedCoefficients, a: float) -> float:
    """Brute-force companion of dim_D: maximise the entropy H(p) over the
    simplex slice sigma(p) = a by dense grid search plus eight rounds of
    local refinement.

    Supports multisets of size up to 4 (the slice has at most 2 free
    coordinates).  Independent of the Lagrange closed form on purpose.
    """
    n = coeffs.size
    if n > 4:
        raise ValueError("oracle restricted to multisets of size <= 4")
    grid = 2000 if n <= 3 else 240  # the n=4 mesh is two-dimensional
    w = coeffs.log2_deltas.astype(float)
    lo, hi = w.min(), w.max()
    if lo == hi:
        if not math.isclose(a, lo, abs_tol=1e-12):
            raise ValueError("infeasible constraint for a flat multiset")
        return math.log2(n)  # uniform point maximises H unconditionally

    if not lo - 1e-12 <= a <= hi + 1e-12:
        raise ValueError(f"infeasible constraint a = {a}")

    def entropy(p: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        return -t.sum(axis=-1)

    i_min, i_max = int(np.argmin(w)), int(np.argmax(w))
    free = [i for i in range(n) if i not in (i_min, i_max)]
    wa, wb = w[i_min], w[i_max]

    def solve(free_vals: np.ndarray) -> np.ndarray:
        """Fill the pinned pair from the two linear constraints; rows with
        any negative coordinate are marked infeasible with NaN."""
        m = free_vals.shape[0]
        p = np.full((m, n), np.nan)
        rest = free_vals.sum(axis=1)
        rhs1 = 1.0 - rest
        rhs2 = a - free_vals @ w[free]
        # p_a + p_b = rhs1, wa p_a + wb p_b = rhs2
        pb = (rhs2 - wa * rhs1) / (wb - wa)
        pa = rhs1 - pb
        ok = (pa >= -1e-15) & (pb >= -1e-15) & (rhs1 >= -1e-15)
        p[:, free] = free_vals
        p[:, i_min] = np.maximum(pa, 0.0)
        p[:, i_max] = np.maximum(pb, 0.0)
        p[~ok] = np.nan
        return p

    if not free:
        p = solve(np.zeros((1, 0)))
        if np.isnan(p).any():
            raise ValueError(f"infeasible constraint a = {a}")
        return float(entropy(p)[0])

    k = len(free)  # 1 or 2
    lo_box = np.zeros(k)
    hi_box = np.ones(k)
    best_p, best_h = None, -np.inf
    for _ in range(8):
        axes = [np.linspace(lo_box[i], hi_box[i], grid) for i in range(k)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
        p = solve(mesh)
        h = entropy(p)
        h[np.isnan(p).any(axis=1)] = -np.inf
        i_best = int(np.argmax(h))
        if h[i_best] > best_h:
            best_h = float(h[i_best])
            best_p = mesh[i_best]
        # shrink the box around the current best point
        span = (hi_box - lo_box) / (grid - 1)
        lo_box = np.maximum(best_p - 2 * span, 0.0)
        hi_box = np.minimum(best_p + 2 * span, 1.0)
        grid = max(grid // 2, 33)
    if best_h == -np.inf:
        raise ValueError(f"infeasible constraint a = {a}")
    return best_h


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


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Grid evaluation of the spectrum apparatus for one model."""

    p: np.ndarray
    zeta: np.ndarray
    zeta_raw: np.ndarray
    h: float
    asymptote_slope: float
    asymptote_intercept: float
    zeta_prime_zero: float
    delta: float
    concave: bool
    nondecreasing: bool
    a_grid: np.ndarray
    rate_R: np.ndarray
    dim_D: np.ndarray


def build_report(model: RcmModel, p_grid=None) -> SpectrumReport:
    """Evaluate zeta, R and D on grids: the default p-grid is [0, 20] step
    0.1, the a-grid 101 points across the sigma range; concavity and
    monotonicity are judged to 1e-9."""
    if p_grid is None:
        p_grid = np.arange(0.0, 20.0 + 1e-9, 0.1)
    p_grid = np.asarray(p_grid, dtype=float)
    z = zeta(model, p_grid, check_h=False)
    zr = zeta_raw(model, p_grid)
    slope, intercept = asymptote(model)

    d2 = np.diff(z, 2)
    d1 = np.diff(z)

    if model.is_flat:
        a_grid = np.array([model.coeffs.ell_zero()])
    else:
        lo, hi = model.coeffs.ell_neg_inf(), model.coeffs.ell_pos_inf()
        pad = (hi - lo) * 1e-6
        a_grid = np.linspace(lo + pad, hi - pad, 101)
    return SpectrumReport(
        p=p_grid, zeta=z, zeta_raw=zr,
        h=slope, asymptote_slope=slope, asymptote_intercept=intercept,
        zeta_prime_zero=zeta_derivative_at_zero(model),
        delta=dim_delta(model),
        concave=bool(np.all(d2 <= 1e-9)),
        nondecreasing=bool(np.all(d1 >= -1e-9)),
        a_grid=a_grid,
        rate_R=np.asarray(rate_R(model, a_grid)),
        dim_D=np.array([dim_D(model, float(a)) for a in a_grid]),
    )
