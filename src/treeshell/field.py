"""Wavelet recomposition on a dyadic grid and the empirical structure function.

The field u(x) = sum_{|j| < M} u_j psi_j(x) is sampled at the centers of the
2**(dM) level-M cells.  With the default Haar mother (+1 on the first half,
-1 on the second, per axis in product form) every wavelet is piecewise
constant on level-(|j|+1) cells, so the sampled grid represents the
synthesized field exactly and grid means are exact integrals.  Each
generation's term, on the cells its wavelets vary on, takes the grid so far
by one add; a Haar term is written as two half-slices, so the add runs
along the cubes of the last axis, not the two cells of one cube.

A continuous triangular mother ("hat") is also available for scaling
studies; it keeps the supports and the common L2 norm but gives up
orthogonality and zero mean, so use it only where increments are involved.

The structure function S_p(2**-m) of a d = 1 field is the mean of
|u(x + 2**-m) - u(x)|^p over the 2**M - 2**(M - m) pairs of level-M cells,
and the least-squares slope of log2 S_p against -m estimates the scaling
exponent.  For the Haar field S_p is a sum over the tree, with no level-M
grid.  A pair straddles the midpoint of one node j of generation m - l,
l >= 1, across which j's ancestors are constant, and j's subtree is the
field scaled by the product w_j of kappa_i = 2**(q + 1/2) sqrt(delta_i)
along j's path.  Down the inner edges of j's children the increment is
w_j (A_l + B_l G(s)), G the depth-(M - m) field and s one of its cells, so

    sum_pairs |du|^p = sum_{l=1..m} (kappa_0^p + kappa_1^p)^(m-l)
                       sum_s |A_l + B_l G(s)|^p,

B_l = kappa_1 kappa_0^(l-1) - kappa_0 kappa_1^(l-1) and, with v0 = f 2**q,
A_l = v0 (sum_{e<l-1} (kappa_1 kappa_0^e + kappa_0 kappa_1^e) - 2): j's own
jump -2 v0 plus the wavelets of the two edges down to the pair.  The sums
over s take every row l at once on aligned 2**13-cell blocks of G, whose
sums are added in pairs: numpy's pairwise order over the row, so its bits,
with at most 0.85 MB of increments held within the cells budget.

Both routes to S_p take |du|^p by one power rule, ``_power_sums``: p = 1
sums |du| itself, p = 2, 3 and 4 are the products x x, (x x) x and
(x x)(x x), and any other p goes through pow.  S_1 and S_2 have the bits of
numpy's x**p; S_3 and S_4 can differ from them in the last digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import _integer, _number, _numbers, _path_sums
from .solution import ConstantSolution
from .spectra import s0
from .tree import check_budget, label_axes, label_path

__all__ = [
    "WaveletField",
    "synthesize",
    "StructureFunctionEstimate",
    "fit_window",
    "structure_function",
    "besov_epsilon",
    "LocalHolder",
    "local_holder",
]

MOTHERS = ("haar", "hat")
_BLOCK_CELLS = 2**13  # cells a block of the Haar tree sum; 2**k >= 128


@dataclass(frozen=True)
class WaveletField:
    """Grid samples of the recomposed constant solution."""

    solution: ConstantSolution
    depth: int                 # generations 0..depth-1 synthesized
    mother: str
    grid: np.ndarray           # shape (2**depth,) * dim, cell-center samples

    @property
    def dim(self) -> int:
        return self.solution.model.d

    @property
    def cells(self) -> int:
        return self.grid.size


def _mother_pattern(dim: int, block: int, mother: str) -> np.ndarray:
    """The mother wavelet sampled on a (block,)*dim sub-grid of one cube."""
    if mother == "haar":
        axis = np.where(np.arange(block) < block // 2, 1.0, -1.0)
    else:  # hat: sqrt(3) (1 - |2t - 1|) has unit L2 norm on [0,1)
        t = (np.arange(block) + 0.5) / block
        axis = math.sqrt(3.0) * (1.0 - np.abs(2.0 * t - 1.0))
    out = axis
    for _ in range(dim - 1):
        out = np.multiply.outer(out, axis)
    return out


def _generations(solution: ConstantSolution, depth: int, mother: str):
    """Yield the grid after adding each generation g = 0..depth-1.

    Generation g's term is formed on the cells its wavelets vary on, a
    (block,)*dim sub-grid of each generation-g cube: block 2 for Haar,
    whose wavelets are constant on level-(g + 1) cells, 2**(depth - g) for
    the hat.  Axis 2a indexes the cubes along axis a and axis 2a+1 the
    cells inside, so node values broadcast against the mother pattern and
    the grid so far (one cell a cube, or the hat's own block) broadcasts
    into the term, which becomes the new grid.  A Haar term, and the next
    node values of either mother, are written as the two halves of the last
    in-cube axis, so each operation runs along the 2**g cubes of the last
    axis rather than the 2 cells of one cube.  With the Haar mother the
    work is O(cells), with the hat O(depth * cells).
    """
    model = solution.model
    dim = model.d
    # with these new axes an array indexed by cube broadcasts over the cells
    # inside each cube, and one indexed by in-cube cell over the cubes
    cube_axes = tuple(range(1, 2 * dim, 2))
    cell_axes = tuple(range(0, 2 * dim, 2))
    grid = np.zeros((1,) * dim)
    q = solution.q
    # spatially-arranged node values, axis a of `vals` = cube index along axis a
    vals = np.full((1,) * dim, model.forcing * 2.0**q)
    # multiplier applied from parent to child, arranged in space
    child_factor = np.expand_dims(
        label_axes(2.0**q * np.sqrt(model.deltas), dim), cell_axes)

    for g in range(depth):
        block = 2 if mother == "haar" else 2 ** (depth - g)
        pattern = np.expand_dims(
            _mother_pattern(dim, block, mother) * 2.0 ** (dim * g / 2.0),
            cell_axes)
        by_cube = np.expand_dims(vals, cube_axes)
        grid = grid.reshape((2**g, grid.shape[0] >> g) * dim)
        if mother == "haar":
            term = np.empty((2**g, 2) * dim)
            for half in (0, 1):
                out = term[..., half]
                np.multiply(by_cube[..., 0], pattern[..., half], out=out)
                out += grid[..., 0]
        else:
            term = by_cube * pattern
            term += grid
        grid = term.reshape((2**g * block,) * dim)
        yield grid
        if g + 1 < depth:
            # split every cube axis in two for the next generation
            split = np.empty((2**g, 2) * dim)
            for half in (0, 1):
                np.multiply(by_cube[..., 0], child_factor[..., half],
                            out=split[..., half])
            vals = split.reshape((2 ** (g + 1),) * dim)


def synthesize(solution: ConstantSolution, depth: int = 16,
               mother: str = "haar") -> WaveletField:
    """Sample sum_{|j| < depth} u_j psi_j on the level-`depth` cell grid of
    the model's d-dimensional unit cube, one generation's term at a time."""
    depth = _integer("depth", depth)
    if mother not in MOTHERS:
        raise ValueError(f"mother must be one of {MOTHERS}")
    check_budget("cells", 2, depth * solution.model.d)
    grid = np.zeros((1,) * solution.model.d)
    for grid in _generations(solution, depth, mother):
        pass
    return WaveletField(solution, depth, mother, grid)


# ---------------------------------------------------------------------------
# structure function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureFunctionEstimate:
    p: np.ndarray
    m: np.ndarray                  # scales r = 2**-m
    log2_S: np.ndarray             # (len(p), len(m)); -inf marks empty/zero
    zeta_hat: np.ndarray
    fit_window: tuple[int, int]
    fit_residual: np.ndarray       # rms residual of the linear fit
    degenerate: np.ndarray         # True where S vanished and no fit exists


def fit_window(depth: int, m_range: tuple[int, int] | None = None
               ) -> tuple[int, int]:
    """The fit window [m_lo, m_hi] for a depth-`depth` field, checked to
    hold at least two scales, m_lo < m_hi, within 1..depth-1, since a slope
    fitted to one scale is no estimate; the default is [3, depth - 4] (so it
    needs depth >= 8)."""
    depth = _integer("depth", depth)
    if m_range is not None and np.shape(m_range) != (2,):
        raise ValueError(f"'m_range' must be a pair, got {m_range!r}")
    m_lo, m_hi = (3, depth - 4) if m_range is None else (
        _integer("m_range", m) for m in m_range)
    if not 1 <= m_lo < m_hi <= depth - 1:
        raise ValueError(f"fit window [{m_lo}, {m_hi}] has fewer than two "
                         f"scales or leaves 1..{depth - 1}")
    return m_lo, m_hi


def structure_function(solution: ConstantSolution, depth: int, p_grid,
                       m_range: tuple[int, int] | None = None,
                       mother: str = "haar") -> StructureFunctionEstimate:
    """S_p(2**-m) tables and fitted exponents of a d = 1 solution's
    depth-`depth` field.  The default fit window [3, depth - 4] avoids the
    synthesis cutoff and the O(1) outer scale.  The field is linear in the
    forcing f, so the tables are taken at f = 1, where they stay in the
    double range, and f^p enters as p log2 f added to log2 S_p; the fitted
    exponents do not depend on f."""
    if solution.model.d != 1:
        raise ValueError("the two-point increment average is defined for d = 1")
    depth = _integer("depth", depth)
    m_lo, m_hi = fit_window(depth, m_range)
    p_arr = np.atleast_1d(_numbers("p", p_grid))
    if not np.all((p_arr > 0) & (p_arr < math.inf)):
        raise ValueError(f"p must be finite and > 0, got {p_arr.tolist()}")
    check_budget("cells", 2, depth)
    model = solution.model
    unit = ConstantSolution(replace(model, forcing=1.0))
    if mother != "haar":
        est = _grid_structure_function(synthesize(unit, depth, mother),
                                       p_arr, m_lo, m_hi)
    else:
        est = _haar_structure_function(unit, depth, p_arr, m_lo, m_hi)
    return replace(est, log2_S=est.log2_S
                   + p_arr[:, None] * math.log2(model.forcing))


def _haar_structure_function(solution: ConstantSolution, depth: int,
                             p_arr: np.ndarray, m_lo: int, m_hi: int
                             ) -> StructureFunctionEstimate:
    """:func:`structure_function` of the Haar field by the tree sum of the
    module docstring, each G consumed as the Haar synthesis yields it."""
    v0 = solution.model.forcing * 2.0**solution.q
    k0, k1 = 2.0 ** (solution.q + 0.5) * np.sqrt(solution.model.coeffs.deltas)
    # kappa_1 kappa_0^e and kappa_0 kappa_1^e for e = l - 1 = 0..m_hi-1
    P, Q = k1 * k0 ** np.arange(m_hi), k0 * k1 ** np.arange(m_hi)
    A = v0 * (np.concatenate(([0.0], np.cumsum(P + Q)[:-1])) - 2.0)
    B = P - Q
    log2_S = np.full((len(p_arr), m_hi - m_lo + 1), -np.inf)
    for D, G in enumerate(_generations(solution, depth - m_lo, "haar"), 1):
        m = depth - D
        if m > m_hi:
            continue
        # an S_p past the double range is flagged degenerate by _fit
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _increment_power_sums(G, A[:m], B[:m], p_arr)
            for i, p in enumerate(p_arr):
                weights = (k0**p + k1**p) ** np.arange(m - 1, -1, -1.0)
                s = weights @ sums[i] / (2**depth - 2**D)
                log2_S[i, m - m_lo] = math.log2(s) if s > 0 else -math.inf
    return _fit(p_arr, m_lo, m_hi, log2_S)


def _increment_power_sums(G: np.ndarray, A: np.ndarray, B: np.ndarray,
                          p_arr: np.ndarray) -> np.ndarray:
    """(len(p), len(A)) sums over s of |A_l + B_l G(s)|^p, row l - 1 at the
    nodes of generation m - l, every row formed on one _BLOCK_CELLS block of
    G at a time: 2**k >= 128 cells, a subtree of numpy's pairwise sum over
    the 2**D-cell row, so the block sums added in pairs keep its bits."""
    block = min(len(G), _BLOCK_CELLS)
    incs = np.empty((len(A), block))
    powers = np.empty_like(incs)
    sums = np.empty((len(p_arr), len(A), len(G) // block))
    for b, cells in enumerate(G.reshape(-1, block)):
        np.multiply(B[:, None], cells, out=incs)
        incs += A[:, None]
        np.abs(incs, out=incs)
        for i, p in enumerate(p_arr):
            sums[i, :, b] = _power_sums(incs, p, powers)
    while sums.shape[-1] > 1:
        sums = sums[..., 0::2] + sums[..., 1::2]
    return sums[..., 0]


def _power_sums(x: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """Sums of x^p along the last axis of x >= 0, the powers formed in
    `out`, x's shape.  An integer p up to 4 is taken by products, a few
    times cheaper than pow: x itself for p = 1; x x, the bits of numpy's
    x**2, for p = 2; (x x) x and (x x)(x x), within 2 and 3 ulp of the
    rounded power, for p = 3 and 4."""
    if p == 1.0:
        return x.sum(axis=-1)
    if p in (2.0, 3.0, 4.0):
        np.multiply(x, x, out=out)
        if p == 3.0:
            out *= x
        elif p == 4.0:
            out *= out
    else:
        np.power(x, p, out=out)
    return out.sum(axis=-1)


def _grid_structure_function(field: WaveletField, p_arr: np.ndarray,
                             m_lo: int, m_hi: int
                             ) -> StructureFunctionEstimate:
    """:func:`structure_function` of any one-dimensional grid, as the mean
    over its increment pairs at each scale."""
    log2_S = np.full((len(p_arr), m_hi - m_lo + 1), -np.inf)
    grid = field.grid
    diffs = np.empty(len(grid))
    powers = np.empty_like(diffs)
    for k, m in enumerate(range(m_lo, m_hi + 1)):
        off = 2 ** (field.depth - m)
        x = diffs[:len(grid) - off]
        np.subtract(grid[off:], grid[:-off], out=x)
        np.abs(x, out=x)
        # an S_p past the double range is flagged degenerate by _fit
        with np.errstate(over="ignore"):
            for i, p in enumerate(p_arr):
                s = float(_power_sums(x, p, powers[:len(x)])) / len(x)
                log2_S[i, k] = math.log2(s) if s > 0 else -math.inf
    return _fit(p_arr, m_lo, m_hi, log2_S)


def _fit(p_arr: np.ndarray, m_lo: int, m_hi: int, log2_S: np.ndarray
         ) -> StructureFunctionEstimate:
    """Least-squares slopes of log2 S_p against -m; a row with an empty or
    zero S is degenerate and gets no fit."""
    ms = np.arange(m_lo, m_hi + 1)
    zeta_hat, resid = np.full((2, len(p_arr)), np.nan)
    degenerate = np.zeros(len(p_arr), dtype=bool)
    for i in range(len(p_arr)):
        y = log2_S[i]
        if not np.all(np.isfinite(y)):
            degenerate[i] = True
            continue
        coeffs, res = np.polyfit(ms, y, 1, full=True)[:2]
        zeta_hat[i] = -coeffs[0]
        resid[i] = math.sqrt(res[0] / len(ms)) if len(res) else 0.0
    return StructureFunctionEstimate(p_arr, ms, log2_S, zeta_hat,
                                     (m_lo, m_hi), resid, degenerate)


# ---------------------------------------------------------------------------
# closed-form scaling quantities and local regularity
# ---------------------------------------------------------------------------


def besov_epsilon(solution: ConstantSolution, s: float, p: float,
                  n_max: int) -> np.ndarray:
    """The Besov test sequence eps_n for generations 0..n_max, closed form.

    eps_n = 2**(ns) 2**(dn(1/2 - 1/p)) (sum_{|j|=n} |u_j|^p)**(1/p) collapses
    to f 2**q 2**((s - s0(p)) n); for p = inf the rate is s - h.
    """
    s, p = _number("s", s), _number("p", p)
    if not p > 0:
        raise ValueError(f"p must be positive or inf, got {p}")
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    n_max = _integer("n_max", n_max)
    m = solution.model
    n = np.arange(n_max + 1, dtype=float)
    return m.forcing * 2.0**solution.q * np.exp2((s - s0(m, p)) * n)


@dataclass(frozen=True)
class LocalHolder:
    estimate: float       # -d/2 - (1/n) log2 u_{x_n} at n = n_max
    closed_form: float    # (alpha - d/2)/3 + (ell(3/2) - sigma)/2
    sigma: float
    # sigma >= ell(3/2), or a flat model: s(x) <= 1/3 at alpha = 1 + d/2
    dissipating: bool


def local_holder(solution: ConstantSolution, point, n_max: int) -> LocalHolder:
    """Local regularity exponent of the recomposed field at a point of
    [0,1)**d, read off the generation-n_max node whose cube holds it.

    The labels along that node's path are the point's binary digits.
    Counted per distinct coefficient value, they are one column of
    ``measure``'s lattice, whose path sum of log2 d goes through the same
    column sum, so sigma, the sum over n_max, has the bits of the matching
    atom's; log2 u of the node is log2 f + q (n_max + 1) +
    sum / 2, as in ``log2_u_rows``.
    """
    m = solution.model
    coords = [_number("point", x) for x in point]
    if len(coords) != m.d:
        raise ValueError(f"expected a {m.d}-vector, got {len(coords)} coordinates")
    if not all(0.0 <= x < 1.0 for x in coords):
        raise ValueError(f"point must lie in [0,1)^d, got {coords}")
    n_max = _integer("n_max", n_max, 1)
    values, _ = m.coeffs.distinct()
    value_of_label = np.searchsorted(values, m.deltas)
    counts = np.bincount(value_of_label[label_path(coords, n_max) - 1],
                         minlength=len(values))
    path = float(_path_sums(counts[:, None], values)[0])
    sig = path / n_max
    log2_u = math.log2(m.forcing) + solution.q * (n_max + 1) + 0.5 * path
    estimate = -m.d / 2.0 - log2_u / n_max
    closed = (m.alpha - m.d / 2.0) / 3.0 + 0.5 * (m.ell(1.5) - sig)
    return LocalHolder(estimate, closed, sig, m.is_flat or sig >= m.ell(1.5))
