"""Brute-force reference implementations that the tests check fast paths
against.

Each oracle computes its quantity by a different route from the library
function it checks, and calls none of them: a grid search for the
Lagrange closed form of D(a), and a 40-digit bisection on the unshifted
tilt for the same D on any multiset, node-by-node enumeration for the
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
subtree as a boolean mask over the state layout.  Every row sum and row
max the oracles take goes through :func:`left_to_right`, numpy's
sequential ``accumulate`` along each row, where the library runs one
flat ufunc call per column in the same left-to-right order: the RK4
offspring sums, the log-sum-exp of a row and the pull-back's residual,
and the row lattice's sums.  The Haar tree sum oracle holds every row of
a scale's increments in one matrix, where the library takes them a
bounded block of rows at a time.  The row lattice oracle forms mu_n on an
(atoms, parts) int64 matrix of compositions read off their cut positions,
where the library sums the columns of a (parts, atoms) lattice of the
narrowest unsigned dtype one at a time; both read one table of ln k!.

The per-node forms walk one ``TreeIndex`` at a time: its exact dyadic cube
in ``Fraction`` arithmetic, the path of a point by repeated doubling of its
coordinates, and u_j, F_j, sigma_j, c_j and the stationarity residual at j
as Python sums over j's ancestor chain, where the library forms whole
generation rows, composition lattices and binary-digit arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from typing import Callable, Iterable, Iterator, Sequence

import mpmath as mp
import numpy as np

from treeshell.coefficients import (GeneralCoefficients, RcmModel,
                                    RepeatedCoefficients, log2sumexp2)
from treeshell.dissipation import DissipationMeasure, _ln_factorial
from treeshell.dynamics import TruncatedState, _system
from treeshell.field import _generations, _power_sums
from treeshell.solution import ConstantSolution, PullbackRun
from treeshell.spectra import cascade_rate
from treeshell.tree import ResourceLimitError, check_budget


# Budget on the nodes visited by the enumeration oracle.
_ENUMERATION_NODES = 2**24

_FLOAT = "%.17g"  # the CLI's 17 significant digits


def left_to_right(ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """The reduce of each row of a 2-D array by `ufunc` from its first
    entry, left to right: the last column of numpy's ``accumulate``."""
    return ufunc.accumulate(rows, axis=1)[:, -1]


def log2sumexp2_rows_oracle(rows: np.ndarray) -> np.ndarray:
    """log2 sum 2**x of each row of a 2-D array, shifted by the row max, the
    max and the sum each by :func:`left_to_right`."""
    m = left_to_right(np.maximum, rows)
    return m + np.log2(left_to_right(np.add, np.exp2(rows - m[:, None])))


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


def dim_D_mpmath(log2_deltas: Sequence[float], a: float) -> float:
    """D(a) at 40 digits, taking the floats log2 delta and a as exact.

    The tilt gamma solves g(gamma) = sum (x - a) 2**(gamma (x - a)) = 0, an
    increasing function, by bisection on a bracket doubled from the scale
    1 / (max x - min x); then D = log2 sum 2**(gamma (x - a)), the entropy
    of the tilted weights.  D is stationary in gamma, so 64 halvings of the
    bracket leave its error far below double precision.
    """
    with mp.workdps(40):
        x = [mp.mpf(float(v)) for v in log2_deltas]
        a = mp.mpf(float(a))
        if not min(x) < a < max(x):
            raise ValueError(f"a = {a} not inside the open range of log2 delta")
        ln2 = mp.log(2)

        def g(gamma):
            return mp.fsum((v - a) * mp.exp(gamma * ln2 * (v - a)) for v in x)

        hi = 1 / (max(x) - min(x))
        lo = -hi
        while g(lo) > 0:
            lo *= 2
        while g(hi) < 0:
            hi *= 2
        for _ in range(64):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        gamma = (lo + hi) / 2
        return float(mp.log(mp.fsum(mp.exp(gamma * ln2 * (v - a)) for v in x), 2))


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


def compositions_by_cuts(n: int, parts: int) -> np.ndarray:
    """The compositions of n into `parts` parts as the int64 rows of an
    (atoms, parts) matrix, by a loop over the cut positions, in the
    library's order: ascending lexicographic, except that two parts have
    the first part descending."""
    if parts == 1:
        return np.array([[n]], dtype=np.int64)
    if parts == 2:
        k = np.arange(n + 1, dtype=np.int64)
        return np.column_stack([n - k, k])
    rows = []
    for cuts in combinations_with_replacement(range(n + 1), parts - 1):
        prev, row = 0, []
        for c in cuts:
            row.append(c - prev)
            prev = c
        row.append(n - prev)
        rows.append(row)
    return np.asarray(rows, dtype=np.int64)


def measure_by_rows(model: RcmModel, n: int) -> DissipationMeasure:
    """mu_n on the (atoms, parts) int64 rows of :func:`compositions_by_cuts`:
    the path, ln k! and log2 multiplicity sums of whole rows, each by
    :func:`left_to_right`."""
    values, mults = model.coeffs.distinct()
    counts = compositions_by_cuts(n, len(values))
    path = left_to_right(np.add, counts * np.log2(values))
    ln_factorial = _ln_factorial(n)
    log2_count = (ln_factorial[n] - left_to_right(np.add, ln_factorial[counts])
                  ) / math.log(2.0)
    log2_count += left_to_right(np.add, counts * np.log2(mults))
    log2_node_f = n * cascade_rate(model) + 1.5 * path
    return DissipationMeasure(n, values, mults, counts, path / n, log2_count,
                              log2_node_f, log2_count + log2_node_f)


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
        [left_to_right(np.add, (c * values[1:]).reshape(-1, N)), weights])
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
                c_k = coefficient_of(model, k) * 2.0 ** (model.alpha * k.generation)
                boundary.append((k, 2.0 * c_k * value_of(j) ** 2 * value_of(k)))
    return input_term, boundary


def pull_row_oracle(coefficients: GeneralCoefficients, alpha: float, g: int,
                    children: np.ndarray) -> np.ndarray:
    """The generation-g row of the backward recursion from its children's."""
    log2d = coefficients.row_log2(g + 1)
    terms = (1.5 * log2d + children).reshape(-1, coefficients.arity)
    return -0.5 * alpha - 0.5 * log2sumexp2_rows_oracle(terms)


def haar_log2_S_oracle(solution: ConstantSolution, depth: int,
                       p_arr: np.ndarray, m_lo: int, m_hi: int) -> np.ndarray:
    """log2 S_p of the Haar tree sum with every row l of a scale's
    increments held at once, one (m, len(G)) matrix per scale, its powers
    taken by the library's power rule."""
    v0 = solution.model.forcing * 2.0**solution.q
    k0, k1 = 2.0 ** (solution.q + 0.5) * np.sqrt(solution.model.coeffs.deltas)
    P, Q = k1 * k0 ** np.arange(m_hi), k0 * k1 ** np.arange(m_hi)
    A = v0 * (np.concatenate(([0.0], np.cumsum(P + Q)[:-1])) - 2.0)
    B = P - Q
    log2_S = np.full((len(p_arr), m_hi - m_lo + 1), -np.inf)
    for D, G in enumerate(_generations(solution, depth - m_lo, "haar"), 1):
        m = depth - D
        if m > m_hi:
            continue
        incs = np.abs(A[:m, None] + B[:m, None] * G)
        for i, p in enumerate(p_arr):
            weights = (k0**p + k1**p) ** np.arange(m - 1, -1, -1.0)
            sums = _power_sums(incs, p, np.empty_like(incs))
            s = weights @ sums / (2**depth - 2**D)
            log2_S[i, m - m_lo] = math.log2(s) if s > 0 else -math.inf
    return log2_S


def residual_max_oracle(run: PullbackRun) -> float:
    """Max |log2| of sum_k d_k**(3/2) 2**(x_k + 2 x_g + alpha) over the
    children k of every interior node g of the run."""
    worst = 0.0
    for g, children in enumerate(run.rows[1:]):
        log2d = run.coefficients.row_log2(g + 1)
        terms = (1.5 * log2d + children).reshape(-1, run.coefficients.arity)
        shifted = terms + (2.0 * run.rows[g] + run.alpha)[:, None]
        residual = np.log2(left_to_right(np.add, np.exp2(shifted)))
        worst = max(worst, float(np.abs(residual).max()))
    return worst


# ---------------------------------------------------------------------------
# the tree node by node
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TreeIndex:
    """A node of the N-ary tree, stored as a packed label sequence.

    The packed form keeps ``d = log2(N)`` bits per label (label minus one),
    most significant label first, so the packed integer of a generation-n
    node is also its rank in ``0..N**n - 1`` within the generation.
    """

    arity: int
    generation: int
    code: int

    def __post_init__(self):
        n = self.arity
        if n < 2 or n & (n - 1):
            raise ValueError(f"arity must be a power of two >= 2, got {n}")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")
        if not 0 <= self.code < n**self.generation:
            raise ValueError("packed code out of range for generation")

    @classmethod
    def root(cls, arity: int) -> "TreeIndex":
        return cls(arity, 0, 0)

    @classmethod
    def from_labels(cls, labels: Sequence[int], arity: int) -> "TreeIndex":
        code = 0
        for lab in labels:
            if not 1 <= lab <= arity:
                raise ValueError(f"label {lab} outside 1..{arity}")
            code = code * arity + (lab - 1)
        return cls(arity, len(labels), code)

    @property
    def labels(self) -> tuple[int, ...]:
        out = []
        c = self.code
        for _ in range(self.generation):
            out.append(c % self.arity + 1)
            c //= self.arity
        return tuple(reversed(out))

    @property
    def is_root(self) -> bool:
        return self.generation == 0

    def parent(self) -> "TreeIndex":
        """The father node; the root has no father inside the tree."""
        if self.is_root:
            raise ValueError("the root has no parent")
        return TreeIndex(self.arity, self.generation - 1, self.code // self.arity)

    def child(self, label: int) -> "TreeIndex":
        if not 1 <= label <= self.arity:
            raise ValueError(f"label {label} outside 1..{self.arity}")
        return TreeIndex(self.arity, self.generation + 1,
                         self.code * self.arity + (label - 1))

    def offspring(self) -> list["TreeIndex"]:
        """The N children, in label order."""
        return [self.child(k) for k in range(1, self.arity + 1)]

    def append(self, other: "TreeIndex") -> "TreeIndex":
        """Concatenation of label words (the node ``jk``)."""
        if other.arity != self.arity:
            raise ValueError("mismatched arities")
        return TreeIndex(self.arity, self.generation + other.generation,
                         self.code * self.arity**other.generation + other.code)

    def is_prefix_of(self, other: "TreeIndex") -> bool:
        """The tree partial order: ``j <= k`` iff ``k`` extends ``j``."""
        if other.arity != self.arity or other.generation < self.generation:
            return False
        return other.code // self.arity ** (other.generation - self.generation) == self.code

    def ancestors(self) -> Iterator["TreeIndex"]:
        """The chain root = k_0 < k_1 < ... < k_n = self."""
        for g in range(self.generation + 1):
            yield TreeIndex(self.arity, g,
                            self.code // self.arity ** (self.generation - g))

    def cube(self) -> "DyadicCube":
        """The dyadic cube owned by this node, exact in dyadic rationals."""
        dim = self.arity.bit_length() - 1
        origin = [Fraction(0)] * dim
        side = Fraction(1)
        for lab in self.labels:
            side /= 2
            bits = lab - 1
            for axis in range(dim):
                if (bits >> axis) & 1:
                    origin[axis] += side
        return DyadicCube(tuple(origin), side)


@dataclass(frozen=True, slots=True)
class DyadicCube:
    """Half-open cube ``prod_a [origin_a, origin_a + side)`` with dyadic data."""

    origin: tuple[Fraction, ...]
    side: Fraction

    @property
    def dim(self) -> int:
        return len(self.origin)

    @property
    def volume(self) -> Fraction:
        return self.side**self.dim

    def center(self) -> tuple[float, ...]:
        return tuple(float(o + self.side / 2) for o in self.origin)


def path_of_point(point: Sequence[float], generation: int, dim: int) -> TreeIndex:
    """The generation-n node whose cube contains ``point``; doubling a binary
    float is exact, so the path is the exact binary expansion."""
    return next(islice(point_path(point, dim), generation, None))


def point_path(point: Sequence[float], dim: int) -> Iterator[TreeIndex]:
    """The nested sequence x_0 < x_1 < ... of nodes whose cubes contain x."""
    coords = [float(x) for x in point]
    if len(coords) != dim:
        raise ValueError(f"expected a {dim}-vector, got {len(coords)} coordinates")
    if any(not 0.0 <= x < 1.0 for x in coords):
        raise ValueError("point must lie in [0,1)^d")
    node = TreeIndex.root(2**dim)
    while True:
        yield node
        bits = 0
        for axis in range(dim):
            if coords[axis] >= 0.5:
                bits |= 1 << axis
                coords[axis] = 2.0 * coords[axis] - 1.0
            else:
                coords[axis] = 2.0 * coords[axis]
        node = node.child(bits + 1)


def coefficient_of(model: RcmModel, j: TreeIndex) -> float:
    """The weight d_j (1 at the root, delta of the last label otherwise)."""
    if j.is_root:
        return 1.0
    return model.coeffs.deltas[j.code % model.N]


def path_log2_sum(model: RcmModel, j: TreeIndex) -> float:
    """Sum of log2 d_k over the ancestor chain of j (0 at the root)."""
    return sum(math.log2(coefficient_of(model, k)) for k in j.ancestors())


def log2_u_of_node(solution: ConstantSolution, j: TreeIndex) -> float:
    """log2 u_j; the product of sqrt coefficients runs over the full
    ancestor chain (the root contributes nothing)."""
    return (math.log2(solution.model.forcing) + solution.q * (j.generation + 1)
            + 0.5 * path_log2_sum(solution.model, j))


def u_of_node(solution: ConstantSolution, j: TreeIndex) -> float:
    return 2.0 ** log2_u_of_node(solution, j)


def log2_F(model: RcmModel, j: TreeIndex) -> float:
    """log2 of the anomalous-dissipation fraction of the cube of j."""
    return j.generation * cascade_rate(model) + 1.5 * path_log2_sum(model, j)


def sigma_of(model: RcmModel, j: TreeIndex) -> float:
    """Path mean of log2 d over the ancestor chain; undefined at the root."""
    if j.is_root:
        raise ValueError("sigma is undefined at the root")
    return path_log2_sum(model, j) / j.generation


def stationarity_residual(solution: ConstantSolution, j: TreeIndex) -> float:
    """Relative residual of d_j u_par^2 = 2^alpha sum_k d_k u_j u_k at j."""
    m = solution.model
    u_par = m.forcing if j.is_root else u_of_node(solution, j.parent())
    lhs = coefficient_of(m, j) * u_par**2
    uj = u_of_node(solution, j)
    rhs = 2.0**m.alpha * sum(coefficient_of(m, k) * uj * u_of_node(solution, k)
                             for k in j.offspring())
    return abs(lhs - rhs) / lhs
