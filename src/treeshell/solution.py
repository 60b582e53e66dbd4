"""The constant componentwise solution and its norms.

For the repeated-coefficients scheme the stationarity recursion has a
constant fixed point in the per-node log-increment variable,

    q = -(alpha + d)/3 - ell(3/2)/2,

and the solution coefficients are ``u_j = f * 2**(q(|j|+1)) * prod sqrt(d_k)``
over the ancestor chain.  All node values are handled in the log2 domain:
they span hundreds of orders of magnitude across generations.

For general bounded coefficients there is no closed form; the pull-back
construction seeds an arbitrary value at a deep generation and runs the
stationarity recursion backwards, one generation row at a time.  Both
constructions meet the size budgets of ``tree`` before they allocate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (_LN2, GeneralCoefficients, RcmModel, _integer,
                           _number, _reduce_rows, log2sumexp2)
from .spectra import fixed_point_q, s0
from .tree import check_budget, tree_size

__all__ = [
    "ConstantSolution",
    "PullbackRun",
    "pullback",
    "DivergenceWitness",
    "divergence_witness",
]


@dataclass(frozen=True)
class ConstantSolution:
    """The unique finite-energy constant solution of an RCM."""

    model: RcmModel
    q: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "q", fixed_point_q(self.model))

    # -- node values ---------------------------------------------------------

    def log2_u_rows(self, depth: int) -> list[np.ndarray]:
        """log2 u row arrays for generations 0..depth: node j holds
        log2 f + q (|j| + 1) + (1/2) sum of log2 d_k over j's path."""
        depth = _integer("depth", depth)
        model = self.model
        tree_size(model.N, depth)
        return list(model.path_sum_rows(math.log2(model.forcing) + self.q,
                                        self.q, 0.5, depth))

    # -- recursion residual ----------------------------------------------------

    def recursion_residual(self) -> float:
        """Residual of the fixed-point equation at q (should vanish)."""
        m = self.model
        rhs = -0.5 * m.alpha - 0.5 * log2sumexp2(1.5 * m.coeffs.log2_deltas + self.q)
        return abs(self.q - rhs)

    # -- norms -------------------------------------------------------------------

    def sobolev_norm(self, s: float, p: float) -> float:
        """The W^{s,p} norm, or math.inf when s >= s0(p).

        Evaluated from the closed-form geometric series over generations,
        never by node enumeration.
        """
        s, p = _number("s", s), _number("p", p)
        if not 1 <= p < math.inf:
            raise ValueError("p must be finite and >= 1")
        if math.isnan(s):
            raise ValueError("s must be a number, got nan")
        m = self.model
        gap = s - s0(m, p)
        if gap >= 0:
            return math.inf
        # ||u||^p = f^p 2^{pq} sum_n 2^{p(s - s0) n}; expm1 keeps the
        # digits of 1 - 2^{p gap} as s -> s0(p)
        log2_norm_p = (p * math.log2(m.forcing) + p * self.q
                       - math.log2(-math.expm1(p * gap * _LN2)))
        return 2.0 ** (log2_norm_p / p)

    def energy(self) -> float:
        """Total energy sum u_j^2 (square of the W^{0,2} norm)."""
        e = self.sobolev_norm(0.0, 2.0)
        return e * e if math.isfinite(e) else math.inf


# ---------------------------------------------------------------------------
# pull-back construction for general bounded coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PullbackRun:
    """Backward construction of the solution candidate from depth-n data.

    ``rows[g]`` holds the generation-g values, indexed by packed code, or
    one value that stands for the whole generation: the boundary row
    ``rows[depth]`` is the seed alone, and a row pulled back from one-value
    children through a shared coefficient row (every row of ``from_rcm``)
    is one value again, so an RCM costs O(N depth), not O(N**depth).  The
    containment band [a, b] is the invariant interval of the backward map
    derived from the declared coefficient bounds; ``residual`` is
    ``residual_max()``.
    """

    coefficients: GeneralCoefficients
    alpha: float
    depth: int
    seed: float
    rows: list[np.ndarray]
    band: tuple[float, float]
    residual: float

    def residual_max(self) -> float:
        """Max |log2| of sum_k d_k**(3/2) 2**(x_k + 2 x_g + alpha) over the
        children k of every interior node g: the forward identity
        2**(-2 x_g - alpha) = sum_k d_k**(3/2) 2**x_k makes each sum one.
        ``pullback`` checks each row as it builds it."""
        return self.residual

    def summary(self) -> list[tuple[int, float, float, float]]:
        """(generation, min, max, mean) per row."""
        return [(g, float(r.min()), float(r.max()), float(r.mean()))
                for g, r in enumerate(self.rows)]


def _pull_row(coefficients: GeneralCoefficients, alpha: float, g: int,
              children: np.ndarray) -> tuple[np.ndarray, float]:
    """The generation-g row of the backward recursion from its children's,
    and the largest |log2| of its forward-identity sums (``residual_max``),
    both from one read of the generation-(g + 1) coefficients."""
    terms = np.multiply(1.5, coefficients.row_log2(g + 1))
    if len(terms) < len(children):
        raise ValueError(
            f"generation {g + 1} is one row shared by every parent, above a "
            "generation given per node: a map that gives some generation "
            "per node gives every shallower one per node too")
    terms += children
    terms = terms.reshape(-1, coefficients.arity)
    row = -0.5 * alpha - 0.5 * log2sumexp2(terms, axis=1)
    terms += (2.0 * row + alpha)[:, None]
    np.exp2(terms, out=terms)
    residual = np.log2(_reduce_rows(np.add, terms))
    return row, float(np.abs(residual).max())


def pullback_band(coefficients: GeneralCoefficients,
                  alpha: float) -> tuple[float, float]:
    """The invariant interval [a, b] of the backward recursion; the spatial
    dimension is log2 of the arity."""
    s, t = coefficients.log2_min, coefficients.log2_max
    dim = coefficients.arity.bit_length() - 1
    base = -(alpha + dim) / 3.0
    return base - t + 0.5 * s, base - s + 0.5 * t


def pullback(coefficients: GeneralCoefficients, alpha: float, depth: int,
             seed: float = 0.0) -> PullbackRun:
    """Run the backward recursion from constant seed data at generation depth.

    Rows are produced children-first; each parent only reads its own N
    children, so generation g costs one pass over N**(g+1) values, or over
    N when its coefficient row is shared and its children are one value.
    The seed row is that one value, and each row's terms are built in one
    buffer.  The same pass checks the new row against the forward
    identity.  A parent's log-sum-exp over its children, and its residual
    sum, run column by column, one flat ufunc per child label, left to
    right (``log2sumexp2``, ``_reduce_rows``): no per-parent reduce loop
    at small N.
    """
    depth = _integer("depth", depth, 1)
    alpha, seed = _number("alpha", alpha), _number("seed", seed)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not math.isfinite(seed):
        raise ValueError(f"seed must be finite, got {seed}")
    arity = coefficients.arity
    check_budget("pull-back nodes", arity, depth)

    rows: list[np.ndarray] = [np.empty(0)] * (depth + 1)
    rows[depth] = np.array([seed])
    worst = 0.0
    for g in range(depth - 1, -1, -1):
        rows[g], residual = _pull_row(coefficients, alpha, g, rows[g + 1])
        worst = np.maximum(worst, residual)  # max() would drop a NaN

    return PullbackRun(coefficients, alpha, depth, seed, rows,
                       pullback_band(coefficients, alpha), float(worst))


# ---------------------------------------------------------------------------
# the uniqueness mechanism, made quantitative
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceWitness:
    """The alternating offspring perturbation chain of the uniqueness proof.

    Any second solution whose q-coordinates differ by eps0 at some node
    forces, along a chain of offspring, perturbations eps_n = (-2)**n eps0;
    partial sums along the chain then grow like 2**(n-1) eps0 at even n and
    the perturbed node values blow up double-exponentially, violating every
    H^s bound.  Everything is tracked in the log2 domain.
    """

    eps0: float
    eps: np.ndarray               # signed perturbations along the chain
    lower_bounds: np.ndarray      # 2**n eps0 at every n; checked at even n
    partial_sums: np.ndarray
    log2_u_chain: np.ndarray      # log2 of the unperturbed chain values
    log2_u_perturbed: np.ndarray

    def even_growth_ok(self) -> bool:
        n = np.arange(len(self.eps))
        even = n % 2 == 0
        return bool(np.all(self.eps[even] >= self.lower_bounds[even]))

    def partial_sum_growth_ok(self) -> bool:
        n = np.arange(len(self.eps))
        even = n % 2 == 0
        bound = np.exp2(np.maximum(n - 1, 0).astype(float)) * self.eps0
        return bool(np.all(self.partial_sums[even] >= bound[even]))

    def violates_every_hs(self) -> bool:
        """Check u'_{j_n} >= 2**(lambda**n) numerically for even n, with
        lambda = 3/2 (any base in (1, 2) would do).

        The double-exponential wins over the chain's linear decay once
        2**n * eps0 passes lambda**n; the crossover generation depends on
        eps0 and is computed here, so the chain must be long enough to
        reach it.  Growth of this kind escapes every H^s ball.
        """
        if self.eps0 == 0:
            return False
        growth_base = 1.5
        # 2**n eps0 >= lambda**n needs n (1 - log2 lambda) >= log2(1/eps0);
        # add slack for the linear-in-n terms of log2 u along the chain.
        n_cross = (math.log2(1.0 / self.eps0) + 16.0) / (1.0 - math.log2(growth_base))
        n = np.arange(len(self.eps))
        even = (n % 2 == 0) & (n >= n_cross)
        if not even.any():
            raise ValueError(
                f"chain too short: need at least {math.ceil(n_cross)} steps "
                f"for eps0={self.eps0}")
        lhs = self.log2_u_perturbed[even]
        rhs = growth_base ** n[even].astype(float)
        return bool(np.all(lhs >= rhs))


def divergence_witness(solution: ConstantSolution, eps0: float,
                       steps: int = 60) -> DivergenceWitness:
    """Construct the perturbation chain seeded with eps0 at the root.

    The chain realises the proof's bounds with equality: giving all N
    offspring of chain node n the same perturbation -2*eps_n keeps the
    perturbed family on the stationarity constraint exactly.  eps0 = 0
    returns the all-zero chain (the constant solution itself).
    """
    eps0 = _number("eps0", eps0)
    if not 0 <= eps0 < math.inf:
        raise ValueError(f"eps0 must be finite and >= 0, got {eps0}")
    steps = _integer("steps", steps)
    if steps > 1000:
        raise ValueError(f"steps must be at most 1000, got {steps}: the "
                         "chain overflows double precision long before")
    m = solution.model
    n = np.arange(steps + 1)
    eps = eps0 * np.power(-2.0, n.astype(float))
    lower = eps0 * np.exp2(n.astype(float))
    partial = np.cumsum(eps)

    # chain through child label 1 at every step
    log2_d1 = float(m.coeffs.log2_deltas[0])
    log2_u = (math.log2(m.forcing) + solution.q * (n + 1.0)
              + 0.5 * log2_d1 * n)
    return DivergenceWitness(eps0, eps, lower, partial, log2_u,
                             log2_u + partial)
