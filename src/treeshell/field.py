"""Wavelet recomposition on a dyadic grid and the empirical structure function.

The field u(x) = sum_{|j| < M} u_j psi_j(x) is sampled at the centers of the
2**(dM) level-M cells.  With the default Haar mother (+1 on the first half,
-1 on the second, per axis in product form) every wavelet is piecewise
constant on level-(|j|+1) cells, so the sampled grid represents the
synthesized field exactly and grid means are exact integrals.

A continuous triangular mother ("hat") is also available for scaling
studies; it keeps the supports and the common L2 norm but gives up
orthogonality and zero mean, so use it only where increments are involved.

The structure function S_p(r) at r = 2**(-m) averages |u(x) - u(y)|^p over
the two-point stencil y = x +- r (pairs leaving the cube are discarded); a
least-squares fit of log2 S_p against -m over the fit window estimates the
scaling exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dissipation import sigma_of
from .solution import ConstantSolution, ResourceLimitError
from .spectra import s0
from .tree import TreeIndex, path_of_point

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
# Budget on the synthesis grid.
_MAX_CELLS = 2**26


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

    def l2_norm(self) -> float:
        """Grid L2 norm; exact for the Haar mother."""
        return float(np.sqrt(np.mean(self.grid.astype(np.float64) ** 2)))


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


def synthesize(solution: ConstantSolution, depth: int = 16,
               mother: str = "haar") -> WaveletField:
    """Sample sum_{|j| < depth} u_j psi_j on the level-`depth` cell grid of
    the model's d-dimensional unit cube.

    The grid is kept at the coarsest level the wavelets added so far vary
    on: a Haar wavelet of generation g is constant on level-(g + 1) cells,
    so before generation g the grid is refined to that level by repeating
    each cell, while the hat varies down to the finest level from g = 0.
    For generation g the grid is reshaped so that axis 2a indexes the
    generation-g cubes along axis a and axis 2a+1 the cells inside; node
    values then broadcast against the mother pattern.  With the Haar
    mother the work is O(cells), with the hat O(depth * cells).
    """
    model = solution.model
    dim = model.d
    if mother not in MOTHERS:
        raise ValueError(f"mother must be one of {MOTHERS}")
    cells = (2**depth) ** dim
    if cells > _MAX_CELLS:
        raise ResourceLimitError(f"{cells} cells exceed the {_MAX_CELLS} budget")

    # levels below its cube down to which a generation-g wavelet varies
    below = 1 if mother == "haar" else depth
    # with these new axes an array indexed by cube broadcasts over the cells
    # inside each cube, and one indexed by in-cube cell over the cubes
    cube_axes = tuple(range(1, 2 * dim, 2))
    cell_axes = tuple(range(0, 2 * dim, 2))
    level = min(below, depth)
    grid = np.zeros((2**level,) * dim)
    q = solution.q
    # spatially-arranged node values, axis a of `vals` = cube index along axis a
    vals = np.full((1,) * dim, model.forcing * 2.0**q)
    # per-axis-bit multiplier applied from parent to child, shape (2,)*dim
    child_factor = np.empty((2,) * dim)
    for bits in range(model.N):
        idx = tuple((bits >> a) & 1 for a in range(dim))
        child_factor[idx] = 2.0**q * math.sqrt(model.coeffs.deltas[bits])

    for g in range(depth):
        target = min(g + below, depth)
        if target > level:
            fine = np.empty((2**target,) * dim)
            fine.reshape((2**level, 2 ** (target - level)) * dim)[...] = (
                np.expand_dims(grid, cube_axes))
            grid, level = fine, target
        block = 2 ** (level - g)
        pattern = _mother_pattern(dim, block, mother) * 2.0 ** (dim * g / 2.0)
        view = grid.reshape((2**g, block) * dim)
        view += np.expand_dims(vals, cube_axes) * np.expand_dims(pattern, cell_axes)
        if g + 1 < depth:
            # split every cube axis in two for the next generation
            vals = (np.expand_dims(vals, cube_axes)
                    * np.expand_dims(child_factor, cell_axes)
                    ).reshape((2 ** (g + 1),) * dim)
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
    """The fit window [m_lo, m_hi] for a depth-`depth` field, checked to lie
    in 1..depth-1; the default is [3, depth - 4] (so it needs depth >= 7)."""
    m_lo, m_hi = (3, depth - 4) if m_range is None else m_range
    if not 1 <= m_lo <= m_hi <= depth - 1:
        raise ValueError(
            f"fit window [{m_lo}, {m_hi}] empty or outside 1..{depth - 1}")
    return m_lo, m_hi


def structure_function(field: WaveletField, p_grid,
                       m_range: tuple[int, int] | None = None
                       ) -> StructureFunctionEstimate:
    """S_p(2**-m) tables and fitted exponents for a one-dimensional field.

    The default fit window is m in [3, depth - 4]: the upper end avoids the
    synthesis cutoff, the lower end the O(1) outer scale.  Each S_p is the
    mean over every increment pair of the grid at that scale.
    """
    if field.dim != 1:
        raise ValueError("the two-point increment average is defined for d = 1")
    M = field.depth
    m_lo, m_hi = fit_window(M, m_range)

    p_arr = np.atleast_1d(np.asarray(p_grid, dtype=float))
    ms = np.arange(m_lo, m_hi + 1)
    grid = field.grid
    log2_S = np.full((len(p_arr), len(ms)), -np.inf)
    # one increments buffer and one power buffer, sized for the finest scale;
    # p = 1 and p = 2 take the ufuncs ``diffs**p`` dispatches to, so S_p
    # keeps the bits of the plain power
    size = grid.size - 2 ** (M - m_hi)
    inc_buf, pow_buf = np.empty(size), np.empty(size)
    for k, m in enumerate(ms):
        off = 2 ** (M - int(m))
        diffs = inc_buf[:grid.size - off]
        np.subtract(grid[off:], grid[:-off], out=diffs)
        np.abs(diffs, out=diffs)
        powers = pow_buf[:len(diffs)]
        for i, p in enumerate(p_arr):
            if p == 1.0:
                powered = diffs
            elif p == 2.0:
                powered = np.square(diffs, out=powers)
            else:
                powered = np.power(diffs, p, out=powers)
            s = float(np.mean(powered))
            log2_S[i, k] = math.log2(s) if s > 0 else -math.inf

    zeta_hat = np.full(len(p_arr), np.nan)
    resid = np.full(len(p_arr), np.nan)
    degenerate = np.zeros(len(p_arr), dtype=bool)
    x = ms.astype(float)
    for i in range(len(p_arr)):
        y = log2_S[i]
        if not np.all(np.isfinite(y)):
            degenerate[i] = True
            continue
        coeffs, res = np.polyfit(x, y, 1, full=True)[:2]
        zeta_hat[i] = -coeffs[0]
        resid[i] = math.sqrt(res[0] / len(x)) if len(res) else 0.0
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
    if p <= 0:
        raise ValueError("p must be positive or inf")
    m = solution.model
    n = np.arange(n_max + 1, dtype=float)
    return m.forcing * 2.0**solution.q * np.exp2((s - s0(m, p)) * n)


@dataclass(frozen=True)
class LocalHolder:
    estimate: float       # -d/2 - (1/n) log2 u_{x_n} at n = n_max
    closed_form: float    # (alpha - d/2)/3 + (ell(3/2) - sigma)/2
    sigma: float
    dissipating: bool     # sigma >= ell(3/2), i.e. s(x) <= 1/3 at alpha = 1 + d/2


def local_holder(solution: ConstantSolution, point, n_max: int) -> LocalHolder:
    """Local regularity exponent of the recomposed field at a point.

    ``point`` may be a coordinate sequence in [0,1)**d or a ready-made
    :class:`TreeIndex` of generation >= 1 (useful for extreme paths).
    """
    m = solution.model
    if isinstance(point, TreeIndex):
        node = point
        n = node.generation
        if n < 1:
            raise ValueError("need a node of generation >= 1")
    else:
        n = n_max
        node = path_of_point(point, n, m.d)
    sig = sigma_of(m, node)
    estimate = -m.d / 2.0 - solution.log2_u(node) / n
    closed = (m.alpha - m.d / 2.0) / 3.0 + 0.5 * (m.ell(1.5) - sig)
    return LocalHolder(estimate, closed, sig, sig >= m.ell(1.5) - 1e-12)
