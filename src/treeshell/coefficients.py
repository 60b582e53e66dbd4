"""Coefficient schemes and the scalar spectrum functions built from them.

The repeated-coefficients scheme assigns the same multiset of N positive
weights to the offspring of every node; every closed-form spectrum quantity
of the model reduces to two scalar functions of that multiset:

- ``ell(s)``, the log2 of the s-power mean of the weights, and
- ``phi(gamma)``, the tilted mean of their log2, which is the derivative
  of ``s * ell(s)``.

Both are max-shifted like ``log2sumexp2``, the package's log-sum-exp in
base 2, so that arguments up to a few hundred neither overflow nor lose
the leading term; ``ell`` is also centred at the mean of log2 delta and
summed through ``expm1``/``log1p``, so it keeps its digits as s -> 0.
``phi`` is inverted by a safeguarded Newton iteration whose slope is ln 2
times the tilted variance.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .tree import TreeIndex

__all__ = [
    "RepeatedCoefficients",
    "GeneralCoefficients",
    "RcmModel",
    "lambda_family",
    "model_from_dict",
    "log2sumexp2",
]

_LN2 = math.log(2.0)


def log2sumexp2(x: np.ndarray, axis: int | None = None):
    """log2(sum 2**x), max-shifted.  ``axis=None`` reduces to a float, -inf
    for an empty or all -inf input.  ``axis`` may also name the last axis,
    along which every slice needs a finite entry; its rows are reduced
    column by column (``_row_reduction``), in numpy's own pairwise order,
    so the result has the bits of ``x.max(axis)`` and ``.sum(axis)``
    without their per-row loop overhead."""
    if axis is None:
        if x.size == 0:
            return -math.inf
        m = x.max()
        if m == -math.inf:
            return -math.inf
        return float(m + np.log2(np.exp2(x - m).sum()))
    if axis not in (-1, x.ndim - 1):
        raise ValueError(f"log2sumexp2 reduces the last axis, got axis={axis}")
    rows = x.reshape(-1, x.shape[-1])
    m = _reduce_rows(np.maximum, rows)
    shifted = rows - m[:, None]
    np.exp2(shifted, out=shifted)
    return (m + np.log2(_reduce_rows(np.add, shifted))).reshape(x.shape[:-1])


def _row_reduction(ufunc: np.ufunc, rows: np.ndarray, out: np.ndarray
                   ) -> list[tuple]:
    """The calls ``f(a, b, out=o)``, as tuples (f, a, b, o), that reduce the
    (P, N) array `rows` over its last axis into `out` (P,), with the bits of
    ``ufunc.reduce(rows, axis=1)``; `ufunc` is np.add or np.maximum, and
    `out` must not overlap `rows`.

    numpy's reduce runs one inner loop per row, about 20 ns each, which
    dominates at the tree's small N.  Here each step is one flat ufunc over
    whole columns, N - 1 of them, in numpy's own pairwise order: left to
    right for N < 8, ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) for N = 8.  A sum
    ends with + 0.0, since numpy's starts from it (an all -0.0 row sums to
    +0.0).  Rows of one entry, or of more than 8, keep ``ufunc.reduce``:
    the one has nothing to combine, the other's inner loop is no longer
    overhead-bound.  Building the calls once lets a kernel rerun them.
    """
    P, N = rows.shape
    if not 2 <= N <= 8:
        return [(ufunc.reduce, rows, 1, out)]
    col = [rows[:, k] for k in range(N)]
    if N == 8:
        t, u = np.empty(P), np.empty(P)
        steps = [(col[0], col[1], out), (col[2], col[3], t), (out, t, out),
                 (col[4], col[5], t), (col[6], col[7], u), (t, u, t),
                 (out, t, out)]
    else:
        steps = [(col[0], col[1], out)] + [(out, c, out) for c in col[2:]]
    if ufunc is np.add:
        steps.append((out, 0.0, out))
    return [(ufunc, a, b, o) for a, b, o in steps]


def _reduce_rows(ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(rows, axis=1)`` of a 2-D array, by ``_row_reduction``."""
    out = np.empty(len(rows))
    for f, a, b, o in _row_reduction(ufunc, rows, out):
        f(a, b, out=o)
    return out


@dataclass(frozen=True)
class RepeatedCoefficients:
    """The multiset {delta_w} of positive weights shared by every offspring set.

    The multiset may have any size >= 1; when used inside an
    :class:`RcmModel` its size must equal N = 2**d.  Weight number k is the
    one carried by child label k, which pins down the (otherwise free)
    labelling of the weights.
    """

    deltas: tuple[float, ...]
    log2_deltas: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, deltas: Sequence[float]):
        deltas = tuple(float(x) for x in deltas)
        if len(deltas) < 1:
            raise ValueError("need at least one coefficient")
        if any(not 0 < x < math.inf for x in deltas):
            raise ValueError("all coefficients must be strictly positive and finite")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "log2_deltas", np.log2(np.asarray(deltas)))

    @property
    def size(self) -> int:
        return len(self.deltas)

    @property
    def is_flat(self) -> bool:
        return min(self.deltas) == max(self.deltas)

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct values (ascending) and their multiplicities."""
        values, counts = np.unique(np.asarray(self.deltas), return_counts=True)
        return values, counts

    # -- the log-s-norm ell ------------------------------------------------

    def ell(self, s: float | np.ndarray) -> float | np.ndarray:
        """(1/s) log2( mean_w delta_w**s ); the mean mu of log2 delta at s=0.

        At finite s != 0 it is centred at mu and max-shifted: with
        t = s ln2, y = t (log2 delta - mu) and m = max y,
        ell = mu + (m + log1p(mean(expm1(y - m)))) / t, which neither
        overflows at large |s| nor cancels as s -> 0.  ``s`` may be a
        float or a numpy array; an array is evaluated element-wise, to the
        same bits as the scalar calls.
        """
        if isinstance(s, np.ndarray) and s.ndim:
            return self._ell_array(s.astype(float, copy=False))
        if s == 0:
            return self.ell_zero()
        if math.isinf(s):
            return self.ell_pos_inf() if s > 0 else self.ell_neg_inf()
        # the array path's formula without its masks, which would cost a
        # scalar call several times over; sum / size is np.mean's arithmetic
        mu = self.ell_zero()
        t = s * _LN2
        y = t * (self.log2_deltas - mu)
        m = y.max()
        mean = np.expm1(y - m).sum() / self.size
        return float(mu + (m + np.log1p(mean)) / t)

    def _ell_array(self, s: np.ndarray) -> np.ndarray:
        out = np.empty(s.shape)
        zero = s == 0
        inf = np.isinf(s)
        finite = ~(zero | inf)
        out[zero] = self.ell_zero()
        out[inf & (s > 0)] = self.ell_pos_inf()
        out[inf & (s < 0)] = self.ell_neg_inf()
        mu = self.ell_zero()
        t = s[finite] * _LN2
        y = t[:, None] * (self.log2_deltas - mu)
        m = y.max(axis=1)
        out[finite] = mu + (m + np.log1p(
            np.expm1(y - m[:, None]).sum(axis=1) / self.size)) / t
        return out

    def ell_zero(self) -> float:
        return float(self.log2_deltas.sum() / self.size)

    def ell_neg_inf(self) -> float:
        """Limit of ell at -infinity: log2 of the smallest coefficient."""
        return float(self.log2_deltas.min())

    def ell_pos_inf(self) -> float:
        """Limit of ell at +infinity: log2 of the largest coefficient."""
        return float(self.log2_deltas.max())

    # -- the tilted mean phi -------------------------------------------------

    def _tilted_moments(self, gamma: float) -> tuple[float, float]:
        """Mean and variance of log2 delta under the weights proportional to
        delta**gamma, both from one weights vector."""
        x = self.log2_deltas
        t = gamma * x
        w = np.exp2(t - t.max())
        w /= w.sum()
        m = w @ x
        return float(m), float(w @ (x - m) ** 2)

    def phi(self, gamma: float) -> float:
        """Tilted mean of log2 delta; equals d/ds (s ell_s) at s=gamma."""
        return self._tilted_moments(gamma)[0]

    def phi_derivative(self, gamma: float) -> float:
        """Variance of log2 delta under the tilted weights; > 0 iff non-flat.

        The tilt is in base 2, so the slope of phi is ln(2) times this
        value: the Newton slope of :meth:`phi_inverse`.
        """
        return self._tilted_moments(gamma)[1]

    def phi_inverse(self, a: float) -> float:
        """The gamma with phi(gamma) = a, by Newton's method kept inside a
        bracket (the safeguarded step ``rtsafe`` of *Numerical Recipes*).

        Requires a non-flat multiset and a strictly inside the open interval
        (log2 min delta, log2 max delta); phi is strictly increasing there.
        The bracket grows from [-1, 1] by doubling until it holds the root.
        Each iterate tightens it by the sign of phi - a, then takes the
        Newton step if that lands strictly inside and is at most half the
        step before last, and bisects otherwise.  The iteration stops when
        |phi - a| is within the rounding error of the computed tilted mean
        (N ulps of |mean| + sqrt(variance), a bound on its mean |log2
        delta|; below it the Newton steps only chase rounding noise), when
        the step is within a few ulps of gamma, or when the bracket can no
        longer be split, which happens once |gamma| passes about 8192 on
        near-flat multisets.
        """
        if self.is_flat:
            raise ValueError("phi is constant for a flat model, not invertible")
        lo_lim, hi_lim = self.ell_neg_inf(), self.ell_pos_inf()
        if not lo_lim < a < hi_lim:
            raise ValueError(
                f"target {a} outside the open range ({lo_lim}, {hi_lim}) of phi")
        lo, hi = -1.0, 1.0
        while self.phi(lo) >= a:
            lo *= 2.0
        while self.phi(hi) <= a:
            hi *= 2.0
        gamma = 0.5 * (lo + hi)
        step = step_before = hi - lo
        while True:
            mean, var = self._tilted_moments(gamma)
            miss = mean - a
            if abs(miss) <= self.size * math.ulp(abs(mean) + math.sqrt(var)):
                return gamma
            if miss < 0:
                lo = gamma
            else:
                hi = gamma
            step_before_last, step_before = step_before, step
            step = miss / (_LN2 * var) if var > 0 else math.inf
            new = gamma - step
            if not lo < new < hi or abs(step) > 0.5 * abs(step_before_last):
                new = 0.5 * (lo + hi)
                if not lo < new < hi:
                    return gamma  # the bracket is one ulp wide
                step = gamma - new
            if abs(step) <= 4 * math.ulp(gamma):
                return new
            gamma = new


@dataclass(frozen=True)
class GeneralCoefficients:
    """A deterministic bounded coefficient map on the whole tree.

    ``log2_of(generation, codes)`` returns the log2 weights of the
    generation-g nodes with the given packed codes, as one array; the root
    has weight 1.  Every row is checked against the declared band
    [log2_min, log2_max]; the band width L is the constant entering the
    generic existence bound.
    """

    arity: int
    log2_of: Callable[[int, np.ndarray], np.ndarray]
    log2_min: float
    log2_max: float

    def __post_init__(self):
        if self.arity < 2 or self.arity & (self.arity - 1):
            raise ValueError(f"arity must be a power of two >= 2, got {self.arity}")
        if not self.log2_min <= self.log2_max:
            raise ValueError("empty declared band")
        if not math.isfinite(self.log2_min) or not math.isfinite(self.log2_max):
            raise ValueError("declared band must be finite")

    @property
    def bound_L(self) -> float:
        return self.log2_max - self.log2_min

    def row_log2(self, generation: int, codes: np.ndarray) -> np.ndarray:
        """log2 coefficients for the nodes with the given packed codes."""
        if generation == 0:
            return np.zeros(len(codes))
        log2_values = np.asarray(self.log2_of(generation, codes), dtype=float)
        eps = 1e-12
        if not np.all((log2_values >= self.log2_min - eps)
                      & (log2_values <= self.log2_max + eps)):
            raise ValueError("coefficient outside its declared log2 band")
        return log2_values

    @classmethod
    def from_rcm(cls, model: "RcmModel") -> "GeneralCoefficients":
        """The RCM as a general map: the weight of a node is the delta of
        its last label."""
        log2d = model.coeffs.log2_deltas
        return cls(model.N, lambda generation, codes: log2d[codes % model.N],
                   float(log2d.min()), float(log2d.max()))


@dataclass(frozen=True)
class RcmModel:
    """Dimension d, exponent alpha, the repeated coefficient multiset and the
    forcing f.

    The single source of truth for every spectrum formula.  The node
    coefficient of a non-root node is the delta of its last label, so the
    interaction coefficient is ``c_j = delta_last(j) * 2**(alpha |j|)``.
    """

    d: int
    alpha: float
    coeffs: RepeatedCoefficients
    forcing: float = 1.0

    def __post_init__(self):
        if self.d < 1 or int(self.d) != self.d:
            raise ValueError("dimension d must be a positive integer")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 < self.forcing < math.inf:
            raise ValueError("forcing must be positive and finite")
        if self.coeffs.size != self.N:
            raise ValueError(
                f"need N = {self.N} coefficients, got {self.coeffs.size}")

    @classmethod
    def create(cls, d: int, alpha: float, deltas: Sequence[float],
               forcing: float = 1.0) -> "RcmModel":
        return cls(d, alpha, RepeatedCoefficients(deltas), forcing)

    @property
    def N(self) -> int:
        return 2**self.d

    @property
    def deltas(self) -> np.ndarray:
        return np.asarray(self.coeffs.deltas)

    @property
    def is_flat(self) -> bool:
        return self.coeffs.is_flat

    def ell(self, s: float | np.ndarray) -> float | np.ndarray:
        return self.coeffs.ell(s)

    def phi(self, gamma: float) -> float:
        return self.coeffs.phi(gamma)

    def coefficient_of(self, j: TreeIndex) -> float:
        """The weight d_j (1 at the root, delta of the last label otherwise)."""
        if j.is_root:
            return 1.0
        return self.coeffs.deltas[j.code % self.N]

    def path_log2_sum(self, j: TreeIndex) -> float:
        """Sum of log2 d_k over the ancestor chain of j (0 at the root)."""
        return sum(math.log2(self.coefficient_of(k)) for k in j.ancestors())

    def path_sum_rows(self, x0: float, const: float, c: float,
                      depth: int) -> Iterator[np.ndarray]:
        """Rows 0..depth of x_j = x_parent + const + c log2 d_j from x_root = x0,
        indexed by packed code and yielded one at a time (a caller that keeps
        only the last row holds two rows at most)."""
        row = np.array([float(x0)])
        log2d = self.coeffs.log2_deltas[None, :]
        for _ in range(depth):
            yield row
            row = (row[:, None] + const + c * log2d).ravel()
        yield row

    def to_dict(self) -> dict:
        return {"d": self.d, "alpha": self.alpha, "f": self.forcing,
                "deltas": list(self.coeffs.deltas)}

    def hash(self) -> str:
        """Short stable digest of the model configuration, for output headers."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def lambda_family(lam: float, d: int = 3, alpha: float | None = None,
                  forcing: float = 1.0) -> RcmModel:
    """The one-parameter comparison family with log2 deltas = lam * i.

    With d=3 this is the family used for the spectrum comparison figures,
    i = 0..7; lam = 0 is the flat model.  alpha defaults to the physical
    value d/2 + 1.
    """
    if alpha is None:
        alpha = d / 2 + 1
    # a lam that overflows gives inf or NaN deltas, which create() rejects
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.exp2(lam * np.arange(2**d))
    return RcmModel.create(d, alpha, deltas, forcing)


def _is_number(x) -> bool:
    """A real number from a config file; JSON's true and false are not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def model_from_dict(cfg: dict) -> RcmModel:
    """Build a model from a config mapping.

    Accepts either ``{"d", "alpha", "f", "deltas": [...]}`` or
    ``{"d", "alpha", "f", "lambda": x}`` for the lambda family.
    """
    d = cfg["d"]
    if not _is_number(d) or not float(d).is_integer():
        raise ValueError(f"'d' must be an integer, got {d!r}")
    d = int(d)
    alpha = float(cfg["alpha"])
    forcing = float(cfg.get("f", 1.0))
    if "deltas" in cfg:
        deltas = cfg["deltas"]
        if isinstance(deltas, str) or not isinstance(deltas, Sequence) or any(
                not _is_number(x) for x in deltas):
            raise ValueError(f"'deltas' must be a list of numbers, got {deltas!r}")
        return RcmModel.create(d, alpha, deltas, forcing)
    if "lambda" in cfg:
        return lambda_family(float(cfg["lambda"]), d=d, alpha=alpha,
                             forcing=forcing)
    raise ValueError("config needs either 'deltas' or 'lambda'")
