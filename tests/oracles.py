"""Brute-force reference implementations that the tests check fast paths
against.

Each oracle computes its quantity by a different route from the library
function it checks, and calls none of them: a grid search for the
Lagrange closed form of D(a), node-by-node enumeration for the
composition lattice of mu_n, per-generation node sums for the closed-form
Besov exponent, and the coefficient sum for the synthesized grid's L2
norm.  The enumeration finds its atoms among the nodes themselves and
matches them to the lattice's by composition row.  The CSV text oracle
formats one ``str`` per cell and joins whole rows, where the CLI formats a
chunk of rows with one ``%`` template.  The RK4 step oracle builds every
stage from whole-array expressions, with ``np.repeat`` for the parents and
``np.concatenate`` for the outflow, where the dynamics kernel writes each
stage into buffers it allocated once.  The flux oracle walks a ``set`` of
``TreeIndex`` nodes, checks prefix-closure node by node and forms each
boundary coefficient c_k from ``coefficient_of`` and 2^(alpha |k|), where
the dynamics reads c_k off its own coefficient array and takes the
subtree as a boolean mask over the state layout.  The pull-back row and
residual oracles reduce each parent's children with numpy's per-row
``max(axis=1)`` and ``sum(axis=1)``, where the library reduces whole
columns in the same pairwise order.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from treeshell.coefficients import (GeneralCoefficients, RcmModel,
                                    RepeatedCoefficients, log2sumexp2)
from treeshell.dissipation import DissipationMeasure
from treeshell.dynamics import TruncatedState, _system
from treeshell.solution import (ConstantSolution, PullbackRun,
                                ResourceLimitError, check_budget)
from treeshell.spectra import cascade_rate
from treeshell.tree import TreeIndex

# Budget on the nodes visited by the enumeration oracle.
_ENUMERATION_NODES = 2**24

_FLOAT = "%.17g"  # the CLI's 17 significant digits


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


def enumerate_log2_F(model: RcmModel, n: int) -> np.ndarray:
    """log2 F over all generation-n nodes, indexed by packed code."""
    check_budget("nodes", model.N**n)
    for row in model.path_sum_rows(0.0, cascade_rate(model), 1.5, n):
        pass  # keep only the deepest row
    return row


def measure_from_enumeration(model: RcmModel, n: int) -> DissipationMeasure:
    """Brute-force mu_n by visiting every generation-n node.

    Oracle counterpart of :func:`measure`: its atoms are the distinct
    compositions the nodes carry, in ascending lexicographic order, and
    counts, sigmas and masses are accumulated node by node.  Compare it with
    the lattice through :func:`match_atoms`.
    """
    if model.N**n > _ENUMERATION_NODES:
        raise ResourceLimitError(f"{model.N}**{n} nodes exceed the budget")
    values, mults = model.coeffs.distinct()
    parts = len(values)
    # which distinct value each child label carries
    label_value_idx = np.searchsorted(values, np.asarray(model.coeffs.deltas))

    counts = np.zeros((1, parts), dtype=np.int64)
    for _ in range(n):
        counts = np.repeat(counts, model.N, axis=0)
        idx = np.tile(label_value_idx, len(counts) // model.N)
        counts[np.arange(len(counts)), idx] += 1

    log2_f_nodes = enumerate_log2_F(model, n)
    atom_counts, inverse = np.unique(counts, axis=0, return_inverse=True)
    inverse = inverse.ravel()

    log2_vals = np.log2(values)
    sigma = (atom_counts @ log2_vals) / n
    n_atoms = len(atom_counts)
    log2_count = np.empty(n_atoms)
    log2_mass = np.empty(n_atoms)
    log2_node_f = np.empty(n_atoms)
    for i in range(n_atoms):
        sel = inverse == i
        log2_count[i] = math.log2(int(sel.sum()))
        log2_node_f[i] = log2_f_nodes[sel][0]
        log2_mass[i] = log2sumexp2(log2_f_nodes[sel])
    return DissipationMeasure(n, values, mults, atom_counts, sigma,
                              log2_count, log2_node_f, log2_mass)


def match_atoms(lattice: DissipationMeasure,
                enumerated: DissipationMeasure) -> np.ndarray:
    """For each lattice atom, the index of the enumerated atom with the same
    composition row; raises if the two atom sets differ."""
    index = {tuple(row): i for i, row in enumerate(enumerated.counts.tolist())}
    order = [index[tuple(row)] for row in lattice.counts.tolist()]
    if sorted(order) != list(range(enumerated.atoms)):
        raise AssertionError("the lattice and the enumeration differ in atoms")
    return np.array(order, dtype=np.int64)


def xi_from_generation_sums(solution: ConstantSolution, p: float) -> float:
    """xi estimated from node sums: d - pd/2 - slope of log2 sum |u_j|^p.

    The per-generation sums at generations n_hi = 14 // d (at least 1) and
    n_lo = max(0, n_hi - 4) are evaluated by brute-force enumeration from one
    row pass; their ratio is exactly geometric for the RCM, so they give the
    slope of the closed form ``spectra.zeta_raw`` to rounding accuracy.
    """
    m = solution.model
    n_hi = max(1, 14 // m.d)
    n_lo = max(0, n_hi - 4)
    rows = solution.log2_u_rows(n_hi)
    slope = ((log2sumexp2(p * rows[n_hi]) - log2sumexp2(p * rows[n_lo]))
             / (n_hi - n_lo))
    return m.d - p * m.d / 2.0 - slope


def coefficient_l2(solution: ConstantSolution, depth: int) -> float:
    """sqrt(sum u_j^2) over generations 0..depth-1, the ones a depth-`depth`
    field synthesizes."""
    total = 0.0
    for row in solution.log2_u_rows(depth - 1):
        total += float(np.exp2(2.0 * row).sum())
    return math.sqrt(total)


def csv_text_oracle(header_lines: list[str], columns: dict) -> str:
    """The text ``cli._write_csv`` writes: header lines, then one row per
    entry of the named columns (a scalar column repeats on every row);
    floats get 17 digits, the rest ``str``."""
    arrays = [np.asarray(col) for col in columns.values()]
    n_rows = max((len(a) for a in arrays if a.ndim), default=1)
    cells = []
    for a in arrays:
        fmt = _FLOAT.__mod__ if a.dtype.kind == "f" else str
        cells.append([fmt(a.item())] * n_rows if a.ndim == 0
                     else list(map(fmt, a.tolist())))
    rows = map(",".join, zip(*cells))
    return "\n".join([*header_lines, ",".join(columns), *rows]) + "\n"


def _rhs_core(model: RcmModel, system: tuple[np.ndarray, np.ndarray],
              values: np.ndarray) -> np.ndarray:
    """Right-hand side on a raw value array (RK4 stages may dip negative)."""
    c, weights = system
    N = model.N
    outflow = values * np.concatenate(
        [(c * values[1:]).reshape(-1, N).sum(axis=1), weights])
    out = np.empty_like(values)
    out[0] = model.forcing * model.forcing - outflow[0]
    out[1:] = c * np.repeat(values[:-len(weights)], N) ** 2 - outflow[1:]
    return out


def rk4_step_oracle(state: TruncatedState, dt: float
                    ) -> tuple[np.ndarray, float]:
    """One classical RK4 step from the state: the new values, with negative
    components clamped to zero, and the clamped mass."""
    system = _system(state.model, state.depth, state.closure)

    def deriv(values: np.ndarray) -> np.ndarray:
        return _rhs_core(state.model, system, values)

    v = state.values
    k1 = deriv(v)
    k2 = deriv(v + 0.5 * dt * k1)
    k3 = deriv(v + 0.5 * dt * k2)
    k4 = deriv(v + dt * k3)
    new = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(new)):
        raise FloatingPointError(f"non-finite state at t = {state.t + dt}")
    negative = new < 0
    clamp = float(-new[negative].sum()) if negative.any() else 0.0
    return np.maximum(new, 0.0), clamp


def flux_terms_oracle(model: RcmModel, subtree: Iterable[TreeIndex],
                      value_of: Callable[[TreeIndex], float]
                      ) -> tuple[float, list[tuple[TreeIndex, float]]]:
    """Input and boundary fluxes of a finite rooted subtree.

    ``subtree`` must be prefix-closed and contain the root; the boundary is
    the set of nodes outside it whose father lies inside.  Returns the input
    term and one ``(node, flux)`` pair per boundary node.  ``value_of`` may
    return arrays (one value per recorded time), giving the fluxes along a
    trajectory.
    """
    nodes = set(subtree)
    if not nodes:
        raise ValueError("the subtree is empty")
    root = next(iter(nodes))
    root = TreeIndex.root(root.arity)
    if root not in nodes:
        raise ValueError("the subtree must contain the root")
    for j in nodes:
        if not j.is_root and j.parent() not in nodes:
            raise ValueError(f"subtree is not prefix-closed at {j}")

    f = model.forcing
    input_term = 2.0 * f * f * value_of(root)
    boundary = []
    for j in nodes:
        for k in j.offspring():
            if k not in nodes:
                c_k = model.coefficient_of(k) * 2.0 ** (model.alpha * k.generation)
                boundary.append((k, 2.0 * c_k * value_of(j) ** 2 * value_of(k)))
    return input_term, boundary


def pull_row_oracle(coefficients: GeneralCoefficients, alpha: float, g: int,
                    children: np.ndarray) -> np.ndarray:
    """The generation-g row of the backward recursion from its children's."""
    log2d = coefficients.row_log2(g + 1, np.arange(len(children)))
    terms = (1.5 * log2d + children).reshape(-1, coefficients.arity)
    m = terms.max(axis=1, keepdims=True)
    lse = np.squeeze(m, 1) + np.log2(np.exp2(terms - m).sum(axis=1))
    return -0.5 * alpha - 0.5 * lse


def residual_max_oracle(run: PullbackRun) -> float:
    """Max |log2| of sum_k d_k**(3/2) 2**(x_k + 2 x_g + alpha) over the
    children k of every interior node g of the run."""
    worst = 0.0
    for g, children in enumerate(run.rows[1:]):
        log2d = run.coefficients.row_log2(g + 1, np.arange(len(children)))
        terms = (1.5 * log2d + children).reshape(-1, run.coefficients.arity)
        shifted = terms + (2.0 * run.rows[g] + run.alpha)[:, None]
        residual = np.log2(np.exp2(shifted).sum(axis=1))
        worst = max(worst, float(np.abs(residual).max()))
    return worst
