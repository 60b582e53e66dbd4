"""Exact evaluation of the anomalous-dissipation fractions and their measure.

Every generation-n node carries a dissipation fraction

    log2 F_j = |j| (alpha + 3q) + (3/2) sum_{k <= j} log2 d_k,

and the fractions of a generation sum to one exactly.  The generation-n
measure mu_n puts mass F_j at the path mean sigma_j; grouping nodes by the
composition of distinct coefficient values along their path compresses the
2**(dn) nodes into a lattice of at most C(n + D - 1, D - 1) atoms with
multinomial multiplicities, read off one table of ln k! for k = 0..n.  The
lattice is one narrow unsigned column per distinct value, and every
per-atom sum (of log2 d along the path, of ln k! and of the log2
multiplicities) is formed a column at a time, left to right by value, so
no (atoms, D) float array is held.  All masses are accumulated by
``log2sumexp2``: they span 2**(-O(n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import (_LN2, RcmModel, _column_sum, _integer,
                           _path_sums, log2sumexp2)
from .spectra import cascade_rate, dim_D, rate_R
from .tree import check_budget

__all__ = [
    "DissipationMeasure",
    "measure",
    "ConcentrationCurve",
    "concentration_curve",
    "theoretical_tail_rate",
    "LlnReport",
    "lln_sample",
]


# ---------------------------------------------------------------------------
# the composition lattice
# ---------------------------------------------------------------------------


def _compositions_matrix(n: int, parts: int) -> np.ndarray:
    """All compositions of n into `parts` non-negative parts, as the columns
    of a (parts, atoms) C-order array of the smallest unsigned dtype that
    holds n (``np.min_scalar_type``: uint8 up to 255).

    Columns are in ascending lexicographic order of their parts (the last
    part is the remainder), except for two parts, where the first part
    descends from n to 0.  The lattice is built one part at a time: each
    prefix of the previous level, with remainder r, spawns r + 1 prefixes
    whose remainders run r..0.  A level's remainders are then one
    cumulative sum of -1 steps that jump to r at each group's start, taken
    modulo the dtype's range, which holds every true value; the new part
    is the old remainder less the new one.  Each part is repeated straight
    to its final length, once per completion of its prefix (C(r + m, m)
    for remainder r and m parts after the next), and the last level's
    part and remainder are written in place.
    """
    dtype = np.min_scalar_type(n)
    out = np.empty((parts, math.comb(n + parts - 1, parts - 1)), dtype)
    if parts == 1:
        out[0] = n
        return out
    if parts == 2:
        out[1] = np.arange(n + 1)
        out[0] = out[1, ::-1]
        return out
    rem = np.array([n], dtype)
    for k in range(1, parts):
        sizes = rem + np.intp(1)
        steps = np.full(int(sizes.sum()), np.iinfo(dtype).max, dtype)  # -1
        steps[0] = rem[0]
        steps[np.cumsum(sizes[:-1])] = rem[1:]
        new_rem = out[-1] if k == parts - 1 else np.empty(len(steps), dtype)
        np.cumsum(steps, dtype=dtype, out=new_rem)
        part = np.repeat(rem, sizes)
        part -= new_rem
        m = parts - 1 - k
        if m:
            completions = np.array([math.comb(r + m, m) for r in range(n + 1)])
            part = np.repeat(part, completions[new_rem])
        out[k - 1] = part
        rem = new_rem
    return out


# ln k! comes from math.lgamma up to this k and from a Stirling series
# above it; every n the benchmark runs (at most 400) reads lgamma alone
_EXACT_LN_FACTORIAL = 512
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def _ln_factorial(n: int) -> np.ndarray:
    """ln k! for k = 0..n.

    Above the cut-off, ln Gamma(z) at z = k + 1 is (z - 1/2) ln z - z +
    ln(2 pi)/2 + 1/(12 z) - 1/(360 z^3), whose next term is below 1/(1260
    z^5) < 1e-16; it rounds like ``math.lgamma``, within 2 ulps, and is one
    array expression where lgamma is one Python call per k.
    """
    cut = min(n, _EXACT_LN_FACTORIAL)
    exact = np.fromiter(map(math.lgamma, range(1, cut + 2)), float, cut + 1)
    if n == cut:
        return exact
    z = np.arange(cut + 2, n + 2, dtype=float)
    series = (z - 0.5) * np.log(z) - z + (
        _HALF_LN_2PI + (1.0 / 12.0 - 1.0 / (360.0 * z * z)) / z)
    return np.concatenate([exact, series])


def _log2_multinomial(n: int, counts: np.ndarray) -> np.ndarray:
    """log2 of n! / prod(counts!) per column of the (parts, atoms) array
    ``counts``, its ln k! summed by ``_column_sum``.  One part is the
    composition (n), whose multinomial is 1 with no table of n + 1 entries.
    """
    if len(counts) == 1:
        return np.zeros(counts.shape[1])
    ln_factorial = _ln_factorial(n)
    # every count is <= n, so "clip" never clips; it skips take's bounds
    # check, which costs 6x the lookup
    out = _column_sum(counts, lambda k, c, out: np.take(
        ln_factorial, c, out=out, mode="clip"))
    np.subtract(ln_factorial[n], out, out=out)
    out /= _LN2
    return out


@dataclass(frozen=True)
class DissipationMeasure:
    """The measure mu_n as composition-weighted atoms.

    ``log2_count`` is the exact number of generation-n nodes realising the
    atom's composition (multinomial times the product of value
    multiplicities); ``log2_node_F`` the common log2 F of those nodes;
    ``log2_mass = log2_count + log2_node_F``.
    """

    n: int
    values: np.ndarray        # distinct coefficient values, ascending
    multiplicities: np.ndarray
    # (atoms, len(values)) counts of each value along the atom's paths: the
    # transposed view of the (len(values), atoms) C-order lattice, of the
    # smallest unsigned dtype that holds n (uint8 up to n = 255)
    counts: np.ndarray
    sigma: np.ndarray
    log2_count: np.ndarray
    log2_node_F: np.ndarray
    log2_mass: np.ndarray

    @property
    def atoms(self) -> int:
        return len(self.sigma)

    def total_mass(self) -> float:
        return 2.0 ** log2sumexp2(self.log2_mass)

    def mass_in(self, lo: float, hi: float) -> float:
        """mu_n of the open interval (lo, hi); boundary atoms excluded."""
        sel = (self.sigma > lo) & (self.sigma < hi)
        return 2.0 ** log2sumexp2(self.log2_mass[sel])

    def tail_outside(self, lo: float, hi: float) -> float:
        """log2 mu_n of the complement of the open interval (lo, hi)."""
        sel = (self.sigma > lo) & (self.sigma < hi)
        return log2sumexp2(self.log2_mass[~sel])


def measure(model: RcmModel, n: int) -> DissipationMeasure:
    """Exact mu_n on the distinct-value composition lattice."""
    n = _integer("n", n, 1)
    values, mults = model.coeffs.distinct()
    parts = len(values)
    check_budget("atoms", math.comb(n + parts - 1, parts - 1))
    if n >= 2**63:  # only a flat model, one part, gets past the budget
        raise ValueError(f"n must fit in int64, got {n}")
    counts = _compositions_matrix(n, parts)
    log2_count = _log2_multinomial(n, counts)
    # with every multiplicity 1 the product adds +0.0, which changes no bit
    if np.any(mults != 1):
        log2_count += _path_sums(counts, mults)
    path = _path_sums(counts, values)
    log2_node_f = 1.5 * path
    log2_node_f += n * cascade_rate(model)
    sigma = np.divide(path, n, out=path)
    return DissipationMeasure(n, values, mults, counts.T, sigma, log2_count,
                              log2_node_f, log2_count + log2_node_f)


# ---------------------------------------------------------------------------
# concentration around phi(3/2)
# ---------------------------------------------------------------------------


def theoretical_tail_rate(model: RcmModel, lo: float, hi: float) -> float:
    """inf of R(a) - D(a) over the complement of (lo, hi) in the sigma range.

    R is affine and D concave, so R - D is convex with its zero at
    phi(3/2): on each closed complement segment, [a_min, min(lo, a_max)] or
    [max(hi, a_min), a_max], the infimum sits at the point nearest phi(3/2),
    a band edge itself if that is nearest, and is 0 when it holds phi(3/2).
    """
    cs = model.coeffs
    a_min, a_max = cs.ell_neg_inf(), cs.ell_pos_inf()
    segments = []
    if lo > a_min:
        segments.append((a_min, min(lo, a_max)))
    if hi < a_max:
        segments.append((max(hi, a_min), a_max))
    if not segments:
        raise ValueError("the interval covers the whole sigma range")
    center = model.phi(1.5)
    rates = []
    for x0, x1 in segments:
        if x0 <= center <= x1:
            rates.append(0.0)
        else:
            a = min(max(center, x0), x1)
            rates.append(rate_R(model, a) - dim_D(model, a))
    return float(min(rates))


@dataclass(frozen=True)
class ConcentrationCurve:
    """mu_n(B) along a run of generations, with empirical decay rates.

    ``point_rate`` is -(1/n) log2(1 - mu_n(B)) at each n; ``slope_rate`` the
    two-point slope of log2 tail between consecutive listed n (NaN first).
    The point rate carries the polynomial prefactor of the tail,
    O(log n / n); the slope rate cancels most of it.
    """

    interval: tuple[float, float]
    n: np.ndarray
    mass_in: np.ndarray
    log2_tail: np.ndarray
    point_rate: np.ndarray
    slope_rate: np.ndarray
    theoretical_rate: float


def concentration_curve(model: RcmModel, interval: tuple[float, float],
                        n_list: Sequence[int]) -> ConcentrationCurve:
    lo, hi = interval
    if not lo < hi:
        raise ValueError("empty interval")
    ns = sorted(_integer("n_list", n, 1) for n in n_list)
    if ns and ns[-1] >= 2**63:
        raise ValueError(f"generations must fit in int64, got {list(n_list)}")
    ns = np.asarray(ns, dtype=int)
    if np.any(ns[1:] == ns[:-1]):
        raise ValueError(f"repeated generation in {list(n_list)}")
    # before any lattice: it rejects a band that leaves no sigma outside
    rate = theoretical_tail_rate(model, lo, hi)
    masses, tails = [], []
    for n in ns:
        mu = measure(model, int(n))
        mass_in = mu.mass_in(lo, hi)
        # sum the smaller side from its atoms: a tail near 1 summed directly
        # would carry the rounding of a total mass near 1, so it is taken
        # as one minus the band's mass
        tails.append(math.log1p(-mass_in) / _LN2 if mass_in <= 0.5
                     else mu.tail_outside(lo, hi))
        masses.append(mass_in)
    tails_arr = np.asarray(tails)
    point = -tails_arr / ns
    slope = np.full(len(ns), np.nan)
    if len(ns) > 1:
        slope[1:] = -(tails_arr[1:] - tails_arr[:-1]) / (ns[1:] - ns[:-1])
    return ConcentrationCurve((lo, hi), ns, np.asarray(masses), tails_arr,
                              point, slope, rate)


# ---------------------------------------------------------------------------
# law of large numbers along random paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LlnReport:
    n: int
    samples: int
    sigma_mean: float
    sigma_std: float
    standard_error: float
    ell_zero: float
    log_ratio_rate_mean: float   # mean of (1/n) log2( F / volume )
    log_ratio_rate_limit: float  # -(3/2)(ell(3/2) - ell(0))


def lln_sample(model: RcmModel, n: int, samples: int,
               seed: int | Sequence[int] | None = 0) -> LlnReport:
    """Sample sigma at generation n along uniformly random paths, drawn
    from `seed`: None, an integer >= 0 or a sequence of them.

    A uniform point of the cube makes the coefficient labels i.i.d. uniform,
    so only the label counts matter; they are drawn directly from the
    multinomial law, never through float geometry."""
    n, samples = _integer("n", n, 1), _integer("samples", samples, 1)
    if seed is not None:
        seed = ([_integer("seed", s) for s in seed] if np.ndim(seed)
                else _integer("seed", seed))
    if n >= 2**63:  # numpy's multinomial takes n as an int64
        raise ValueError(f"n must fit in int64, got {n}")
    check_budget("values", samples * model.N)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, np.full(model.N, 1.0 / model.N), size=samples)
    sigma = counts @ model.coeffs.log2_deltas / n
    ell32 = model.ell(1.5)
    rates = 1.5 * (sigma - ell32)  # (1/n) log2 (F / vol) per path
    return LlnReport(
        n=n, samples=samples,
        sigma_mean=float(sigma.mean()),
        sigma_std=float(sigma.std(ddof=1)) if samples > 1 else 0.0,
        standard_error=float(model.coeffs.log2_deltas.std() / math.sqrt(n * samples)),
        ell_zero=model.coeffs.ell_zero(),
        log_ratio_rate_mean=float(rates.mean()),
        log_ratio_rate_limit=-1.5 * (ell32 - model.coeffs.ell_zero()),
    )
