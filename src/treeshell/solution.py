"""The constant componentwise solution and its norms.

For the repeated-coefficients scheme the stationarity recursion has a
constant fixed point in the per-node log-increment variable,

    q = -(alpha + d)/3 - ell(3/2)/2,

and the solution coefficients are ``u_j = f * 2**(q(|j|+1)) * prod sqrt(d_k)``
over the ancestor chain.  All node values are handled in the log2 domain:
they span hundreds of orders of magnitude across generations.

For general bounded coefficients there is no closed form; the pull-back
construction seeds an arbitrary value at a deep generation and runs the
stationarity recursion backwards, one generation row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (_LN2, GeneralCoefficients, RcmModel, _reduce_rows,
                           log2sumexp2)
from .spectra import fixed_point_q, s0
from .tree import TreeIndex

__all__ = [
    "ConstantSolution",
    "PullbackRun",
    "pullback",
    "DivergenceWitness",
    "divergence_witness",
    "ResourceLimitError",
]


class ResourceLimitError(RuntimeError):
    """A size would exceed its fixed memory or work budget."""


# Budgets by kind: generation rows and states ("nodes"), trajectories and lln
# label counts ("values"), fields, the lattice, the spectra table, the deepest
# pull-back row (all rows are kept) and one integration's steps times nodes.
_BUDGETS = {**dict.fromkeys(("nodes", "values", "cells"), 2**26),
            **dict.fromkeys(("atoms", "rows"), 2**22),
            "pull-back nodes": 2**24, "node-steps": 2**36}


def check_budget(kind: str, size: float) -> None:
    """Raise ResourceLimitError if `size` items of `kind` exceed their budget."""
    if size > _BUDGETS[kind]:
        raise ResourceLimitError(f"{size} {kind} exceed the {_BUDGETS[kind]} budget")


@dataclass(frozen=True)
class ConstantSolution:
    """The unique finite-energy constant solution of an RCM."""

    model: RcmModel
    q: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "q", fixed_point_q(self.model))

    # -- node values ---------------------------------------------------------

    def log2_u(self, j: TreeIndex) -> float:
        """log2 u_j; the product of sqrt coefficients runs over the full
        ancestor chain (the root contributes nothing)."""
        return (math.log2(self.model.forcing) + self.q * (j.generation + 1)
                + 0.5 * self.model.path_log2_sum(j))

    def u(self, j: TreeIndex) -> float:
        return 2.0 ** self.log2_u(j)

    def log2_u_rows(self, depth: int) -> list[np.ndarray]:
        """log2 u row arrays for generations 0..depth."""
        model = self.model
        check_budget("nodes", (model.N**(depth + 1) - 1) // (model.N - 1))
        return list(model.path_sum_rows(math.log2(model.forcing) + self.q,
                                        self.q, 0.5, depth))

    # -- recursion residuals ---------------------------------------------------

    def recursion_residual(self) -> float:
        """Residual of the fixed-point equation at q (should vanish)."""
        m = self.model
        rhs = -0.5 * m.alpha - 0.5 * log2sumexp2(1.5 * m.coeffs.log2_deltas + self.q)
        return abs(self.q - rhs)

    def stationarity_residual(self, j: TreeIndex) -> float:
        """Relative residual of d_j u_par^2 = 2^alpha sum_k d_k u_j u_k at j."""
        m = self.model
        parent = j.parent() if not j.is_root else None
        u_par = m.forcing if parent is None else self.u(parent)
        lhs = m.coefficient_of(j) * u_par**2
        uj = self.u(j)
        rhs = 2.0**m.alpha * sum(m.coefficient_of(k) * uj * self.u(k)
                                 for k in j.offspring())
        return abs(lhs - rhs) / lhs

    # -- norms -------------------------------------------------------------------

    def sobolev_norm(self, s: float, p: float) -> float:
        """The W^{s,p} norm, or math.inf when s >= s0(p).

        Evaluated from the closed-form geometric series over generations,
        never by node enumeration.
        """
        if not 1 <= p < math.inf:
            raise ValueError("p must be finite and >= 1")
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

    ``rows[g]`` holds the generation-g values, indexed by packed code; the
    boundary row ``rows[depth]`` is identically the seed.  The containment
    band [a, b] is the invariant interval of the backward map derived from
    the declared coefficient bounds.
    """

    coefficients: GeneralCoefficients
    alpha: float
    depth: int
    seed: float
    rows: list[np.ndarray]
    band: tuple[float, float]

    def in_band(self) -> bool:
        a, b = self.band
        return all(row.min() >= a - 1e-12 and row.max() <= b + 1e-12
                   for row in self.rows)

    def residual_max(self) -> float:
        """Max |log2| of sum_k d_k**(3/2) 2**(x_k + 2 x_g + alpha) over the
        children k of every interior node g: the forward identity
        2**(-2 x_g - alpha) = sum_k d_k**(3/2) 2**x_k makes each sum one."""
        worst = 0.0
        for g, children in enumerate(self.rows[1:]):
            shifted = (_child_terms(self.coefficients, g, children)
                       + (2.0 * self.rows[g] + self.alpha)[:, None])
            np.exp2(shifted, out=shifted)
            residual = np.log2(_reduce_rows(np.add, shifted))
            worst = max(worst, float(np.abs(residual).max()))
        return worst

    def summary(self) -> list[tuple[int, float, float, float]]:
        """(generation, min, max, mean) per row."""
        return [(g, float(r.min()), float(r.max()), float(r.mean()))
                for g, r in enumerate(self.rows)]


def _child_terms(coefficients: GeneralCoefficients, g: int,
                 children: np.ndarray) -> np.ndarray:
    """1.5 log2 d_k + x_k over the generation-(g + 1) row, one row of N
    children per generation-g parent."""
    log2d = coefficients.row_log2(g + 1, np.arange(len(children)))
    return (1.5 * log2d + children).reshape(-1, coefficients.arity)


def _pull_row(coefficients: GeneralCoefficients, alpha: float, g: int,
              children: np.ndarray) -> np.ndarray:
    """The generation-g row of the backward recursion from its children's."""
    terms = _child_terms(coefficients, g, children)
    return -0.5 * alpha - 0.5 * log2sumexp2(terms, axis=1)


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
    children, so generation g costs one pass over N**(g+1) values and the
    peak memory is the deepest row.  A parent's log-sum-exp over its
    children runs column by column, one flat ufunc per child label in
    numpy's own pairwise order (``log2sumexp2``): the bits of a per-row
    reduce, without its per-parent loop overhead at small N.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not math.isfinite(seed):
        raise ValueError(f"seed must be finite, got {seed}")
    arity = coefficients.arity
    check_budget("pull-back nodes", arity**depth)

    rows: list[np.ndarray] = [np.empty(0)] * (depth + 1)
    rows[depth] = np.full(arity**depth, float(seed))
    for g in range(depth - 1, -1, -1):
        rows[g] = _pull_row(coefficients, alpha, g, rows[g + 1])

    return PullbackRun(coefficients, alpha, depth, float(seed), rows,
                       pullback_band(coefficients, alpha))


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
    lower_bounds: np.ndarray      # 2**n eps0 at even n (0 elsewhere)
    partial_sums: np.ndarray
    log2_u_chain: np.ndarray      # log2 of the unperturbed chain values
    log2_u_perturbed: np.ndarray

    def even_growth_ok(self) -> bool:
        n = np.arange(len(self.eps))
        even = n % 2 == 0
        return bool(np.all(self.eps[even] >= self.lower_bounds[even] - 1e-9))

    def partial_sum_growth_ok(self) -> bool:
        n = np.arange(len(self.eps))
        even = n % 2 == 0
        bound = np.exp2(np.maximum(n - 1, 0).astype(float)) * self.eps0
        return bool(np.all(self.partial_sums[even] >= bound[even] - 1e-9))

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
    if eps0 < 0:
        raise ValueError("eps0 must be >= 0")
    if steps > 1000:
        raise ValueError("the chain overflows double precision long before "
                         "1000 steps; choose fewer")
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
