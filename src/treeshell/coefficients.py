"""Coefficient schemes and the scalar spectrum functions built from them.

The repeated-coefficients scheme assigns the same multiset of N positive
weights to the offspring of every node; every closed-form spectrum quantity
of the model reduces to two scalar functions of that multiset:

- ``ell(s)``, the log2 of the s-power mean of the weights, and
- ``phi(gamma)``, the tilted mean of their log2, which is the derivative
  of ``s * ell(s)``.

Both are read from one centre, the top value x_top towards which the tilt
2**(s log2 delta) grows: log2 max delta for an argument >= 0, log2 min
delta otherwise (``_sides``).  Every exponent is then <= 0, so no argument
overflows.  ``ell`` sums the distances to x_top through ``expm1``/``log1p``
in one formula for scalar and array s, which keeps its digits as s -> 0;
``phi`` and D(a) take them through ``exp2``, which keeps the tail weights'
relative accuracy at large gamma.  One helper, ``_tilted_moments``, gives
every phi-side quantity from one exp2, and ``phi_inverse`` runs Newton's
method on the logit of phi from its two-point closed form, in about four.

Every row sum of a 2-D array, over a parent's children or an atom's
distinct values, runs in one order: from the first entry, adding the rest
left to right by label, one flat ufunc call over a whole column at a time
(``_row_reduction`` and ``_column_sum``).  numpy's per-row reduce would
run one inner loop per row, about 20 ns each, which dominates at the
tree's small N, and its order is its own, pairwise from 8 entries on.  A
row of -0.0 sums to -0.0.  The sums over the multiset itself (``ell``,
``ell_zero``, the matmul of ``_tilted_moments``) keep numpy's order.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .tree import check_budget

__all__ = [
    "RepeatedCoefficients",
    "GeneralCoefficients",
    "RcmModel",
    "lambda_family",
    "model_from_dict",
    "log2sumexp2",
]

_LN2 = math.log(2.0)
_TINY, _HUGE = math.ulp(0.0), float(np.finfo(float).max)  # positive doubles


def log2sumexp2(x: np.ndarray, axis: int | None = None):
    """log2(sum 2**x), max-shifted.  ``axis=None`` reduces to a float, -inf
    for an empty or all -inf input, by numpy's sum, which is pairwise from
    8 entries on: it can differ from ``axis=-1`` in the last bit there.
    ``axis`` may also name the last axis, along which every slice needs a
    finite entry; its rows are reduced column by column, left to right
    (``_reduce_rows``), the row max included."""
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


def _row_reduction(ufunc: np.ufunc, rows: np.ndarray,
                   out: np.ndarray) -> list[tuple]:
    """The calls ``f(a, b, out=o)``, as tuples (f, a, b, o), that reduce the
    (P, N) array `rows` over its last axis into `out` (P,), left to right;
    `ufunc` is np.add or np.maximum, and `out` must not overlap `rows`.  A
    row of one entry is copied, by * 1.0.  Building the calls once lets a
    kernel rerun them on the rows as they are then."""
    col = [rows[:, k] for k in range(rows.shape[1])]
    if len(col) == 1:
        return [(np.multiply, col[0], 1.0, out)]
    return [(ufunc, col[0], col[1], out)] + [(ufunc, out, c, out)
                                             for c in col[2:]]


def _reduce_rows(ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array reduced by `ufunc`, by ``_row_reduction``."""
    out = np.empty(len(rows))
    for f, a, b, o in _row_reduction(ufunc, rows, out):
        f(a, b, out=o)
    return out


def _column_sum(counts: np.ndarray,
                term: Callable[[int, np.ndarray, np.ndarray], object]
                ) -> np.ndarray:
    """The row sums, left to right, of the (atoms, N) matrix whose column k
    is ``term(k, counts[k], out)``, formed one column at a time from the
    (N, atoms) array `counts` into one term buffer: no (atoms, N) float
    array is held."""
    N, size = counts.shape
    out = np.empty(size)
    term(0, counts[0], out)
    t = np.empty(size)
    for k in range(1, N):
        term(k, counts[k], t)
        out += t
    return out


def _path_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per column of ``counts`` (a (parts, atoms) array of compositions over
    the distinct ``values``), the sum of c_k log2 values_k by
    ``_column_sum``: the sum of log2 d along the path, or, over the
    multiplicities, the log2 of their product.  One order for every column
    gives one path the same sigma however many atoms are summed with it."""
    log2_values = np.log2(values)
    return _column_sum(counts, lambda k, c, out: np.multiply(
        c, log2_values[k], out=out))


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
        deltas = tuple(_number("delta", x) for x in deltas)
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

    # -- the top value x_top, the one centre of ell and phi -----------------

    @cached_property
    def _sides(self) -> tuple[tuple[float, np.ndarray, np.ndarray], ...]:
        """Per sign of the argument (>= 0, then < 0): x_top (log2 max delta,
        then log2 min delta), the distances |log2 delta - x_top| and the
        columns (1, x - x_min, x_max - x, distance**2) of ``_tilted_moments``."""
        x = self.log2_deltas
        above, below = x - x.min(), x.max() - x
        ones = np.ones_like(x)
        return ((float(x.max()), below,
                 np.column_stack([ones, above, below, below**2])),
                (float(x.min()), above,
                 np.column_stack([ones, above, below, above**2])))

    def _side(self, s: float) -> tuple[float, np.ndarray, np.ndarray]:
        """The ``_sides`` entry of a scalar argument; NaN has none."""
        if s != s:
            raise ValueError("the argument of ell and phi must not be NaN")
        return self._sides[int(s < 0)]

    # -- the log-s-norm ell ------------------------------------------------

    def ell(self, s: float | np.ndarray) -> float | np.ndarray:
        """(1/s) log2( mean_w delta_w**s ); the mean of log2 delta at s=0.

        At finite s != 0, with t = s ln2,
        ell = x_top + log1p(mean(expm1(-|t| distance))) / t.  ``s`` may be
        a float or a numpy array; an array is evaluated element-wise, to the
        same bits as the scalar calls.
        """
        if isinstance(s, np.ndarray) and s.ndim:
            s = s.astype(float, copy=False)
            if np.isnan(s).any():
                raise ValueError("the argument of ell and phi must not be NaN")
            out = np.full(s.shape, self.ell_zero())
            for (top, dist, _), sel in zip(self._sides, (s > 0, s < 0)):
                out[sel] = top
                sel &= np.isfinite(s)
                out[sel] = self._ell_finite(s[sel], top, dist)
            return out
        s = _number("s", s)
        top, dist, _ = self._side(s)
        if s == 0:
            return self.ell_zero()
        return top if math.isinf(s) else float(self._ell_finite(s, top, dist))

    def _ell_finite(self, s, top: float, dist: np.ndarray):
        """ell at finite s != 0, a float or a 1-D array of one sign; each row
        of the outer product sums in a 1-D sum's order, so an array entry has
        the bits of the scalar call, and sum / size is np.mean's arithmetic."""
        t = s * _LN2
        mean = np.expm1(np.multiply.outer(-abs(t), dist)).sum(axis=-1) / self.size
        return top + np.log1p(mean) / t

    def ell_zero(self) -> float:
        return float(self.log2_deltas.sum() / self.size)

    def ell_neg_inf(self) -> float:
        """Limit of ell at -infinity: log2 of the smallest coefficient."""
        return self._sides[1][0]

    def ell_pos_inf(self) -> float:
        """Limit of ell at +infinity: log2 of the largest coefficient."""
        return self._sides[0][0]

    # -- the tilted mean phi -------------------------------------------------

    def _tilted_moments(self, gamma: float
                        ) -> tuple[float, float, float, float, float]:
        """The tilt of log2 delta by the weights delta**gamma: x_top, S = sum
        2**(gamma (log2 delta - x_top)), phi - x_min, x_max - phi and the
        variance, from one exp2 and one matmul.

        Every weight is at most 1, and the top's is 1, so no gamma
        overflows; at gamma = +-inf only the top's is left.  The variance
        is the mean square distance to x_top less the square of its mean;
        the tilt towards x_top keeps the two apart.
        """
        top, dist, columns = self._side(gamma)
        weights = np.exp2(-abs(gamma) * dist) if abs(gamma) < math.inf \
            else (dist == 0) * 1.0  # 0 * inf would be NaN
        s, above, below, square = (weights @ columns).tolist()
        above, below = above / s, below / s
        var = square / s - (below if gamma >= 0 else above) ** 2
        return top, s, above, below, max(var, 0.0)

    def phi(self, gamma: float) -> float:
        """Tilted mean of log2 delta; equals d/ds (s ell_s) at s=gamma.  It
        is read as x_top less or plus its tilted mean distance to x_top."""
        gamma = _number("gamma", gamma)
        top, _, above, below, _ = self._tilted_moments(gamma)
        return top - below if gamma >= 0 else top + above

    def phi_inverse(self, a: float) -> float:
        """The gamma with phi(gamma) = a, by Newton's method on the logit
        L(gamma) = ln((phi - x_min) / (x_max - phi)), kept inside the bracket
        its iterates build.

        Requires a non-flat multiset and a strictly inside the open interval
        (x_min, x_max) = (log2 min delta, log2 max delta); phi is strictly
        increasing there.  L is linear in gamma for a two-valued multiset and
        asymptotically linear at both ends for any multiset, with slope
        ln2 var (1/(phi - x_min) + 1/(x_max - phi)).

        - Start: the two-point closed form gamma_0 = ln((a - x_min) / (x_max
          - a)) / (ln2 (x_max - x_min)), the ratio kept to positive doubles.
        - Safeguard: each iterate tightens the bracket (-inf, inf) by the
          sign of phi - a.  The Newton step is taken if it lands strictly
          inside; once both ends are finite it must also be at most half
          the step before last (the ``rtsafe`` rule of *Numerical
          Recipes*), and the iteration bisects otherwise.  While one end is
          still infinite it steps outward instead, by max(|gamma|, 1 /
          (ln2 (x_max - x_min))).
        - Stop: when |phi - a| is within the rounding error of the computed
          tilted mean, when the step is within a few ulps of gamma, or when
          the bracket can no longer be split.  The mean is computed as its
          distance from the nearer end of the range, so that error is N
          ulps of the distance + sqrt(variance); below it the Newton steps
          only chase rounding noise.
        """
        a = _number("a", a)
        if self.is_flat:
            raise ValueError("phi is constant for a flat model, not invertible")
        x_min, x_max = self.ell_neg_inf(), self.ell_pos_inf()
        if not x_min < a < x_max:
            raise ValueError(
                f"target {a} outside the open range ({x_min}, {x_max}) of phi")
        a_above, a_below = a - x_min, x_max - a
        target = math.log(min(max(a_above / a_below, _TINY), _HUGE))
        unit = _LN2 * (x_max - x_min)
        gamma = target / unit
        lo, hi = -math.inf, math.inf
        step = step_before = math.inf
        while True:
            _, _, above, below, var = self._tilted_moments(gamma)
            near = min(above, below)
            miss = above - a_above if above <= below else a_below - below
            if abs(miss) <= self.size * math.ulp(near + math.sqrt(var)):
                return gamma
            if miss < 0:
                lo = gamma
            else:
                hi = gamma
            step_before_last, step_before = step_before, step
            ratio = above / below if below > 0 else math.inf
            if var > 0 and 0 < ratio < math.inf:
                slope = _LN2 * var * (1 / above + 1 / below)
                step = (math.log(ratio) - target) / slope
            else:
                step = math.inf  # every weight but the top's underflowed
            new = gamma - step
            if math.isinf(lo) or math.isinf(hi):
                if not lo < new < hi:
                    new = gamma - math.copysign(max(abs(gamma), 1 / unit), miss)
                    step = gamma - new
            elif not lo < new < hi or abs(step) > 0.5 * abs(step_before_last):
                new = 0.5 * (lo + hi)
                if not lo < new < hi:
                    return gamma  # the bracket is one ulp wide
                step = gamma - new
            if abs(step) <= 4 * math.ulp(gamma):
                return new
            gamma = new

    def top_multiplicity(self, s: float) -> int:
        """How many weights sit exactly at the x_top of an argument s: at
        log2 of the largest delta for s >= 0, of the smallest otherwise."""
        return int(np.sum(self._side(s)[1] == 0))

    def dim_D(self, a: float) -> float:
        """The dimension D(a) of the level set where the path mean of log2
        delta is a, a constrained-entropy maximum: at most log2 size (d for
        N = 2**d entries), and log2 of an end's multiplicity at that end
        itself.  Inside, gamma = phi^{-1}(a) rejects a flat multiset and
        any a outside, and D = log2 S - gamma (a - x_top), S = sum_w 2**(gamma
        (log2 delta_w - x_top)) from ``_tilted_moments``: log2 size - gamma
        (a - ell(gamma)) as two terms >= 0, so the rounding of a - ell(gamma)
        is never multiplied by |gamma| (1e7 on near-flat multisets).  D is
        stationary in gamma: gamma's error enters at second order only."""
        a = _number("a", a)
        for s in (-1.0, 1.0):
            if a == self._side(s)[0]:
                return math.log2(self.top_multiplicity(s))
        gamma = self.phi_inverse(a)
        top, total, *_ = self._tilted_moments(gamma)
        return math.log2(total) - gamma * (a - top)


@dataclass(frozen=True)
class GeneralCoefficients:
    """A deterministic bounded coefficient map on the whole tree.

    ``log2_of(generation)`` returns the log2 weights of the generation
    either per node, ``arity**generation`` values by packed code, or as one
    row of ``arity`` values, by child label, shared by every parent; the
    root has weight 1.  A shared row is never tiled: numpy broadcasting
    carries it through the pull-back, whose rows then hold one value for
    the whole generation.  The pull-back adds a shared row to one-value
    children only, so a map that gives some generation per node gives
    every shallower one per node too, or ``pullback`` refuses it.
    Every row is checked against the declared band [log2_min, log2_max];
    the band width L is the constant entering the generic existence bound.
    """

    arity: int
    log2_of: Callable[[int], np.ndarray]
    log2_min: float
    log2_max: float

    def __post_init__(self):
        arity = _integer("arity", self.arity, 2)
        if arity & (arity - 1):
            raise ValueError(f"arity must be a power of two, got {arity}")
        object.__setattr__(self, "arity", arity)
        if not self.log2_min <= self.log2_max:
            raise ValueError("empty declared band")
        if not math.isfinite(self.log2_min) or not math.isfinite(self.log2_max):
            raise ValueError("declared band must be finite")

    def row_log2(self, generation: int) -> np.ndarray:
        """log2 coefficients of the generation: per node by packed code, or
        one row by child label shared by every parent, as ``log2_of`` gives
        them."""
        generation = _integer("generation", generation)
        if generation == 0:
            return np.zeros(1)
        log2_values = np.asarray(self.log2_of(generation), dtype=float)
        if log2_values.shape not in ((self.arity**generation,), (self.arity,)):
            raise ValueError(f"generation {generation} needs a row of "
                             f"{self.arity**generation} coefficients, or one "
                             f"of {self.arity} shared by every parent, got "
                             f"shape {log2_values.shape}")
        if not np.all((log2_values >= self.log2_min)
                      & (log2_values <= self.log2_max)):
            raise ValueError("coefficient outside its declared log2 band")
        return log2_values

    @classmethod
    def from_rcm(cls, model: "RcmModel") -> "GeneralCoefficients":
        """The RCM as a general map: the weight of a node is the delta of
        its last label, so every generation's row is the deltas themselves,
        shared by every parent."""
        log2d = model.coeffs.log2_deltas
        return cls(model.N, lambda generation: log2d,
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
        # d is stored as an int, so equal models hash alike; alpha and
        # forcing are checked as floats and stored as given, so no hash or
        # header changes
        object.__setattr__(self, "d", _integer("d", self.d, 1))
        if not 0 < _number("alpha", self.alpha) < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 < _number("forcing", self.forcing) < math.inf:
            raise ValueError("forcing must be positive and finite")
        size = self.coeffs.size
        # 2**d > size follows from d alone, so a huge d forms no 2**d
        if self.d >= size.bit_length() or size != self.N:
            raise ValueError(
                f"d = {self.d} needs 2**d coefficients, got {size}")

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

    def path_sum_rows(self, x0: float, const: float, c: float,
                      depth: int) -> Iterator[np.ndarray]:
        """Rows 0..depth of x_j = x_parent + const + c log2 d_j from x_root = x0,
        indexed by packed code and yielded one at a time (a caller that keeps
        only the last row holds two rows at most)."""
        depth = _integer("depth", depth)
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
    d = _integer("d", d, 1)
    check_budget("coefficients", 2, d)
    _number("lambda", lam)
    if alpha is None:
        alpha = d / 2 + 1
    # a lam that overflows gives inf or NaN deltas, which create() rejects
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.exp2(lam * np.arange(2**d))
    return RcmModel.create(d, alpha, deltas, forcing)


def _is_number(x) -> bool:
    """A real number from a config file; JSON's true and false are not.
    A float (numpy's too) skips the slower abstract check: a lambda-family
    multiset passes a million deltas through here."""
    return isinstance(x, float) or (isinstance(x, numbers.Real)
                                    and not isinstance(x, bool))


def _number(key: str, value) -> float:
    """The value of `key` as a float, if it is a number; every library
    scalar comes through here, so a bad one is always a ValueError."""
    if not _is_number(value):
        raise ValueError(f"'{key}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the double range
        raise ValueError(f"'{key}' is past the double range") from None


def _integer(key: str, value, least: int = 0) -> int:
    """The value of `key` as an int, if it is an integer >= `least`; an
    integral float passes, as a config file may write 2 as 2.0, and a bool
    does not, so every integer argument is refused by one ValueError."""
    # inf % 1 and NaN % 1 are NaN, truthy
    if not _is_number(value) or value % 1 or value < least:
        raise ValueError(f"'{key}' must be an integer >= {least}, "
                         f"got {value!r}")
    return int(value)


def _numbers(key: str, values) -> float | np.ndarray:
    """``_number`` of a scalar; anything else as a float array, where an
    integer past the double range is again a ValueError."""
    if not np.ndim(values):
        return _number(key, values)
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"'{key}' is past the double range") from None


def model_from_dict(cfg: dict) -> RcmModel:
    """Build a model from a config mapping.

    Accepts either ``{"d", "alpha", "f", "deltas": [...]}`` or
    ``{"d", "alpha", "f", "lambda": x}`` for the lambda family, not both.
    """
    d = cfg["d"]  # checked by the model, or the lambda family, it builds
    alpha = _number("alpha", cfg["alpha"])
    forcing = _number("f", cfg.get("f", 1.0))
    if "deltas" in cfg and "lambda" in cfg:
        raise ValueError("give the model by 'deltas' or by 'lambda', not both")
    if "deltas" in cfg:
        deltas = cfg["deltas"]
        if isinstance(deltas, str) or not isinstance(deltas, Sequence) or any(
                not _is_number(x) for x in deltas):
            raise ValueError(f"'deltas' must be a list of numbers, got {deltas!r}")
        return RcmModel.create(d, alpha, deltas, forcing)
    if "lambda" in cfg:
        return lambda_family(_number("lambda", cfg["lambda"]), d=d, alpha=alpha,
                             forcing=forcing)
    raise ValueError("config needs either 'deltas' or 'lambda'")
