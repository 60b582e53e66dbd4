"""Time integration of the truncated tree model.

The state holds one non-negative value per node of generations 0..n, in
generation-major order.  The right-hand side of node j is

    v_j' = c_j v_par^2 - sum_children c_k v_j v_k,

with the forcing f standing in as the parent value of the root.  At the
truncation generation the missing offspring sum is closed either with
zeros (free truncation) or with the constant-solution values, which makes
the constant solution an exact equilibrium of the truncated system.

Generation-major order is a heap layout: node j sits at index
(N**|j| - 1)/(N - 1) + code(j), the parent of index i >= 1 is (i - 1) // N
and the children of index i are the block N i + 1 .. N i + N, so the
right-hand side needs no loop over generations.  A finite rooted subtree
is a boolean mask over the same layout; it is prefix-closed when every
node in it has its parent in it, and its boundary is the nodes outside it
whose parent lies inside.

Integration is a fixed-step classical 4-stage Runge-Kutta scheme; no
adaptivity, so residual tables are reproducible.  A run preallocates its
stage buffers once, and every step writes its stages into them in place,
on the bare value array.  Stiffness grows like
2**(alpha n): shrink dt with depth (guideline dt <= 0.1 * 2**(-alpha n)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import RcmModel, _row_reduction
from .solution import ConstantSolution, check_budget

__all__ = [
    "TruncatedState",
    "constant_values",
    "rhs",
    "step",
    "Trajectory",
    "integrate",
    "flux_terms",
    "EnergyBalance",
    "energy_balance",
]

CLOSURES = ("zero", "stationary")
_MAX_CLAMP_RATE = 1e-8


def _generation_start(N: int, generation: int) -> int:
    """Index of the first node of `generation` (at depth + 1: the size)."""
    return (N**generation - 1) // (N - 1)


def constant_values(solution: ConstantSolution, depth: int) -> np.ndarray:
    """The constant solution on generations 0..depth, in the state layout."""
    return np.concatenate([np.exp2(r) for r in solution.log2_u_rows(depth)])


@dataclass(frozen=True)
class TruncatedState:
    """Non-negative node values on generations 0..depth plus the closure mode."""

    model: RcmModel
    depth: int
    values: np.ndarray          # flat, generation-major, length sum N^g
    closure: str = "zero"
    t: float = 0.0

    def __post_init__(self):
        if self.closure not in CLOSURES:
            raise ValueError(f"closure must be one of {CLOSURES}")
        expected = _generation_start(self.model.N, self.depth + 1)
        if len(self.values) != expected:
            raise ValueError(f"state needs {expected} values, got {len(self.values)}")
        if not np.all(self.values >= 0):
            raise ValueError("componentwise states are non-negative")

    @property
    def slices(self) -> list[slice]:
        N = self.model.N
        return [slice(_generation_start(N, g), _generation_start(N, g + 1))
                for g in range(self.depth + 1)]

    def energy(self) -> float:
        return float(self.values @ self.values)

    @classmethod
    def zeros(cls, model: RcmModel, depth: int, closure: str = "zero"):
        size = _generation_start(model.N, depth + 1)
        check_budget("nodes", size)
        return cls(model, depth, np.zeros(size), closure)

    @classmethod
    def from_constant(cls, solution: ConstantSolution, depth: int,
                      closure: str = "stationary", scale: float = 1.0):
        return cls(solution.model, depth,
                   constant_values(solution, depth) * scale, closure)


def _system(model: RcmModel, depth: int, closure: str
            ) -> tuple[np.ndarray, np.ndarray]:
    """c_j of nodes 1.., and each truncation-generation node's outflow weight:
    zero, or the stationary sum_k c_k u_k over its truncated offspring,
    2**(alpha(depth+1) + q) * sum(delta^{3/2}) times its own u.
    """
    N = model.N
    gens = range(1, depth + 1)
    c = np.repeat([2.0 ** (model.alpha * g) for g in gens],
                  [N**g for g in gens]) \
        * np.tile(model.deltas, _generation_start(N, depth))
    if closure == "zero":
        return c, np.zeros(N**depth)
    solution = ConstantSolution(model)
    factor = 2.0 ** (model.alpha * (depth + 1) + solution.q) * float(
        np.sum(model.deltas**1.5))
    return c, factor * constant_values(solution, depth)[-N**depth:]


class _Rk4:
    """One run's RK4 stepper: the system and every buffer, built once.

    A stage reads its input buffer `x` through fixed views, the children as
    (parents, N) rows and the parents as a column, so a step allocates
    nothing.  The offspring sums are N flat ufunc calls over the columns
    of the child terms, built once by ``_row_reduction`` in numpy's own
    pairwise order: the bits of ``np.add.reduce(terms, 1)`` without its
    per-parent loop, which took over half of a stage at depth 7, d = 2.
    The closure weights sit in the tail of `sums` and f^2 in `inflow[0]`
    for the whole run.
    """

    def __init__(self, model: RcmModel, depth: int, closure: str):
        c, weights = _system(model, depth, closure)
        N, size = model.N, len(c) + 1
        parents = size - len(weights)
        self.coef = c.reshape(parents, N)
        self.sums = np.empty(size)
        self.sums[parents:] = weights
        self.inflow = np.empty(size)
        self.inflow[0] = model.forcing * model.forcing
        self.x = np.empty(size)
        self.children = self.x[1:].reshape(parents, N)
        self.parents = self.x[:parents, None]
        self.child_terms = self.inflow[1:].reshape(parents, N)
        self.sum_children = _row_reduction(np.add, self.child_terms,
                                           self.sums[:parents])
        self.square = np.empty((parents, 1))
        self.k = [np.empty(size) for _ in range(4)]
        self.out = np.empty(size)

    def _stage(self, k: np.ndarray) -> None:
        """k = the right-hand side at x (an RK4 stage may dip negative)."""
        terms = self.child_terms
        np.multiply(self.coef, self.children, terms)
        for f, a, b, o in self.sum_children:
            f(a, b, out=o)
        np.multiply(self.x, self.sums, k)
        np.multiply(self.parents, self.parents, self.square)
        np.multiply(self.coef, self.square, terms)
        np.subtract(self.inflow, k, k)

    def derivative(self, v: np.ndarray) -> np.ndarray:
        """The right-hand side at v, in the first stage buffer."""
        self.x[:] = v
        self._stage(self.k[0])
        return self.k[0]

    def advance(self, v: np.ndarray, dt: float, t: float
                ) -> tuple[np.ndarray, float, float]:
        """One classical RK4 step from v at time t.

        Returns the new values (in `out`, which v may be), the clamped
        mass and the largest new value before the clamp.  Negative
        components produced by the discrete step are clamped to zero (the
        exact dynamics cannot cross zero: v_j = 0 gives v_j' >= 0).
        """
        x, (k1, k2, k3, k4), out = self.x, self.k, self.out
        self.derivative(v)
        # numpy scalars: a Python float is converted again on every call
        half, whole = np.float64(0.5 * dt), np.float64(dt)
        np.multiply(k1, half, x)
        np.add(v, x, x)
        self._stage(k2)
        np.multiply(k2, half, x)
        np.add(v, x, x)
        self._stage(k3)
        np.multiply(k3, whole, x)
        np.add(v, x, x)
        self._stage(k4)
        # k1 + 2 k2 + 2 k3 + k4, summed left to right
        np.add(k2, k2, k2)
        np.add(k1, k2, k1)
        np.add(k3, k3, k3)
        np.add(k1, k3, k1)
        np.add(k1, k4, k1)
        np.multiply(k1, np.float64(dt / 6.0), k1)
        np.add(v, k1, out)
        lo, hi = np.minimum.reduce(out), np.maximum.reduce(out)
        if not -math.inf < lo <= hi < math.inf:
            raise FloatingPointError(f"non-finite state at t = {t + dt}")
        clamp = 0.0
        if lo <= 0:
            if lo < 0:
                clamp = float(-out[out < 0].sum())
            np.maximum(out, 0.0, out=out)  # also turns -0.0 into +0.0
        return out, clamp, float(hi)


def rhs(state: TruncatedState) -> np.ndarray:
    """Exact right-hand side of the truncated system."""
    return _Rk4(state.model, state.depth, state.closure).derivative(
        state.values)


def step(state: TruncatedState, dt: float) -> tuple[TruncatedState, float]:
    """One classical RK4 step; returns the new state and the clamp magnitude.

    The total clamped mass is reported so runs can be rejected when it
    matters.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    with np.errstate(over="ignore", invalid="ignore"):  # as in integrate
        new, clamp, _ = _Rk4(state.model, state.depth, state.closure).advance(
            state.values, dt, state.t)
    return replace(state, values=new, t=state.t + dt), clamp


@dataclass(frozen=True)
class Trajectory:
    model: RcmModel
    depth: int
    closure: str
    dt: float
    times: np.ndarray
    states: np.ndarray          # (records, nodes)
    clamp_total: float


def integrate(state: TruncatedState, dt: float, steps: int,
              record_every: int = 1) -> Trajectory:
    """Advance `steps` RK4 steps, recording every `record_every`-th state.

    The recorded trajectory must fit the values budget, and steps times
    nodes the node-steps budget; both are checked before the first step.  The
    exact dynamics cannot cross zero, so clamping should only mop up
    rounding noise; a run whose clamped mass per unit time exceeds
    _MAX_CLAMP_RATE times the state scale is rejected.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    rows, nodes = steps // record_every + 1, len(state.values)
    check_budget("values", rows * nodes)
    check_budget("node-steps", steps * nodes)
    kernel = _Rk4(state.model, state.depth, state.closure)
    times, records = np.empty(rows), np.empty((rows, nodes))
    v, t = state.values, state.t
    times[0], records[0] = t, v
    clamp_total = 0.0
    scale = float(np.abs(v).max())
    # `advance` raises on a non-finite step, so numpy's warnings about the
    # overflow that led there are noise; entered once per run, not per step
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            v, clamp, top = kernel.advance(v, dt, t)
            t += dt
            clamp_total += clamp
            scale = max(scale, top)
            if i % record_every == 0:
                times[i // record_every], records[i // record_every] = t, v
    if steps > 0 and scale > 0:
        rate = clamp_total / (steps * dt)
        if rate > _MAX_CLAMP_RATE * scale:
            raise RuntimeError(
                f"clamped mass rate {rate:.3e} exceeds {_MAX_CLAMP_RATE:.1e} "
                f"x state scale {scale:.3e}; decrease dt")
    return Trajectory(state.model, state.depth, state.closure, dt * record_every,
                      times, records, clamp_total)


# ---------------------------------------------------------------------------
# energy budget of a finite subtree along a trajectory
# ---------------------------------------------------------------------------


def flux_terms(model: RcmModel, depth: int, values: np.ndarray,
               subtree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Input and boundary outflows of a finite rooted subtree.

    ``subtree`` is a boolean mask over the state layout of generations
    0..depth; it must contain the root and be prefix-closed.  Returns the
    input 2 f^2 v_root and the outflow 2 c_k v_par^2 v_k of every boundary
    node k, at k's index and zero elsewhere.  A node of generation depth
    has no offspring in the layout, so its outflow is not counted.  At the
    constant solution the input equals the total outflow, and each
    normalised outflow is the dissipation fraction of its cube.  ``values``
    may carry a leading time axis, giving the fluxes along a trajectory.
    """
    mask = np.asarray(subtree)
    size = _generation_start(model.N, depth + 1)
    if mask.dtype != bool or mask.shape != (size,):
        raise ValueError(f"the subtree must be a boolean mask of {size} "
                         f"nodes, got {mask.dtype} of shape {mask.shape}")
    if not mask[0]:
        raise ValueError("the subtree must contain the root")
    parent = np.arange(size - 1) // model.N
    if np.any(mask[1:] & ~mask[parent]):
        raise ValueError("the subtree is not prefix-closed")
    c, _ = _system(model, depth, "zero")
    edge = np.flatnonzero(~mask[1:] & mask[parent])
    outflow = np.zeros(np.shape(values))
    outflow[..., edge + 1] = (2.0 * c[edge] * values[..., parent[edge]] ** 2
                              * values[..., edge + 1])
    f = model.forcing
    return 2.0 * f * f * values[..., 0], outflow


@dataclass(frozen=True)
class EnergyBalance:
    times: np.ndarray
    dE_dt: np.ndarray           # centered finite differences of sum_T v^2
    flux: np.ndarray            # 2 f^2 v_root - boundary outflow, same times
    max_residual: float
    max_relative_residual: float


def energy_balance(traj: Trajectory, subtree: np.ndarray) -> EnergyBalance:
    """Check d/dt sum_{j in T} v_j^2 against the flux formula along a run.

    T is a subtree mask as in `flux_terms`.  The derivative is taken by the
    centered 5-point finite difference on the recorded grid, whose O(dt^4)
    error stays far below the model identity being tested, so the run needs
    at least 5 records.  T must stay within depth-1 so its boundary is
    fully represented; under the zero closure a T whose boundary reaches
    the truncation generation is flagged.
    """
    states = traj.states
    if len(states) < 5:
        raise ValueError("the 5-point derivative needs at least 5 records, "
                         f"got {len(states)}")
    inflow, outflow = flux_terms(traj.model, traj.depth, states, subtree)
    mask = np.asarray(subtree)
    last = _generation_start(traj.model.N, traj.depth)
    if mask[last:].any():
        raise ValueError("T must stay within depth - 1")
    if traj.closure == "zero" and mask[
            _generation_start(traj.model.N, traj.depth - 1):last].any():
        warnings.warn("T touches the truncation boundary under the zero "
                      "closure; fluxes into absent offspring are dropped",
                      RuntimeWarning, stacklevel=2)

    energy = (states[:, mask] ** 2).sum(axis=1)
    outflow = outflow.sum(axis=1)
    flux = inflow - outflow

    dE = (-energy[4:] + 8 * energy[3:-1] - 8 * energy[1:-3] + energy[:-4]) \
        / (12 * traj.dt)
    inner = slice(2, -2)
    res = np.abs(dE - flux[inner])
    # normalise by the gross throughput: the net flux vanishes at equilibrium
    scale = max(float((np.abs(inflow) + np.abs(outflow)).max()), 1e-300)
    return EnergyBalance(traj.times[inner], dE, flux[inner],
                         float(res.max()), float(res.max()) / scale)
