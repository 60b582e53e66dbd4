"""Time integration of the truncated tree model.

The state holds one non-negative value per node of generations 0..n, in
generation-major order.  The right-hand side of node j is

    v_j' = c_j v_par^2 - sum_children c_k v_j v_k,

with the forcing f standing in as the parent value of the root.  At the
truncation generation the missing offspring sum is closed either with
zeros (free truncation) or with the constant-solution values, which makes
the constant solution an exact equilibrium of the truncated system.

The order is the heap layout of ``treeshell.tree``, which owns its
offsets and parent/child index rules, so the right-hand side needs no
loop over generations.  A finite rooted subtree
is a boolean mask over the same layout; it is prefix-closed when every
node in it has its parent in it, and its boundary is the nodes outside it
whose parent lies inside.

Integration is a fixed-step classical 4-stage Runge-Kutta scheme; no
adaptivity, so residual tables are reproducible.  A run builds one kernel
over three state buffers that steps by one prebuilt list of numpy calls:
a step copies nothing and allocates nothing until it clamps.  Stiffness
grows like 2**(alpha n): shrink dt with depth (guideline
dt <= 0.1 * 2**(-alpha n)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import RcmModel, _number, _row_reduction
from .solution import ConstantSolution
from .tree import check_budget, generation_start, tree_size

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


def constant_values(solution: ConstantSolution, depth: int) -> np.ndarray:
    """The constant solution on generations 0..depth, in the state layout."""
    return np.concatenate([np.exp2(r) for r in solution.log2_u_rows(depth)])


@dataclass(frozen=True)
class TruncatedState:
    """Finite non-negative node values on generations 0..depth plus the
    closure mode."""

    model: RcmModel
    depth: int
    values: np.ndarray          # flat, generation-major, length sum N^g
    closure: str = "zero"
    t: float = 0.0

    def __post_init__(self):
        if self.closure not in CLOSURES:
            raise ValueError(f"closure must be one of {CLOSURES}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        expected = tree_size(self.model.N, self.depth)
        if len(self.values) != expected:
            raise ValueError(f"state needs {expected} values, got {len(self.values)}")
        if not np.all((self.values >= 0) & (self.values < math.inf)):
            raise ValueError("componentwise states are finite and "
                             "non-negative")

    @classmethod
    def zeros(cls, model: RcmModel, depth: int, closure: str = "zero"):
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        return cls(model, depth, np.zeros(tree_size(model.N, depth)), closure)

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
        * np.tile(model.deltas, generation_start(N, depth))
    if closure == "zero":
        return c, np.zeros(N**depth)
    solution = ConstantSolution(model)
    factor = 2.0 ** (model.alpha * (depth + 1) + solution.q) * float(
        np.sum(model.deltas**1.5))
    return c, factor * np.exp2(solution.log2_u_rows(depth)[-1])


def _lines(n: int, skip: int = 0) -> np.ndarray:
    """n doubles whose entry `skip` starts a 64-byte cache line: numpy
    writes a new output twice as fast there on an AVX-512 Xeon (8 vs 17 us
    at 21,845 doubles), whose unaligned stores split lines."""
    raw = np.empty(n + 7)
    start = (-raw.ctypes.data // 8 - skip) % 8
    return raw[start:start + n]


class _Rk4:
    """One run's RK4 integrator: the system, three state buffers and a step
    as one prebuilt list of calls ``f(a, b, out)``.

    The buffers are the state `v`, stepped in place; `acc`, which gathers
    k1 + 2 k2 + 2 k3 + k4 left to right as each stage ends; and `k`, a
    stage's input, which its derivative overwrites: the child terms c_k
    y_k, their row sums (``_row_reduction``) and the parents' squares are
    formed before y * sums is written.  A sum of -0.0 terms stays -0.0 and
    enters k only as inflow - y * sum, where the inflow, f^2 or c y_par^2,
    is +0.0 or positive, so either zero gives the same k.  The inflow runs
    along the long axis, a label-major (N, parents) copy of the c_j times
    the parents' squares into the transposed child terms, so numpy's inner
    loop runs over the parents, not the N children.  Fresh outputs start on
    cache lines (``_lines``).  Every call is elementwise over fixed views
    of the node axis, which a leading batch axis would only widen.

    Stages 2 and 3 double their k in place (k + k) before it joins `acc`,
    and form the next input v + h k as v + (h/2) (2k).  Scaling by a power
    of two is exact, so (h/2) (2k) rounds like h k unless 2k overflows (h/2
    is dt/4 or dt/2, exact for dt >= 2**-1020; below, it may round by
    2**-1075).  If 2k overflows, so does the oracle's k1 + 2 k2 (+ 2 k3),
    and the step fails with the same ``FloatingPointError`` at the same t.
    """

    def __init__(self, model: RcmModel, depth: int, closure: str,
                 values: np.ndarray):
        c, weights = _system(model, depth, closure)
        N, size = model.N, len(c) + 1
        parents = size - len(weights)
        sums = _lines(size)
        sums[parents:] = weights
        del weights  # (N - 1)/N of a state, freed before the buffers
        self.v = np.array(values, dtype=float)
        self.acc, self.k, square = _lines(size), _lines(size), _lines(parents)
        inflow = _lines(size, 1)
        inflow[0] = model.forcing * model.forcing
        terms = inflow[1:].reshape(parents, N)
        coef_t = c.reshape(parents, N).T.copy()
        reduction = _row_reduction(np.add, terms, sums[:parents])

        def rhs_calls(y: np.ndarray, out: np.ndarray) -> list[tuple]:
            return [(np.multiply, c, y[1:], inflow[1:]), *reduction,
                    (np.multiply, y[:parents], y[:parents], square),
                    (np.multiply, y, sums, out),
                    (np.multiply, coef_t, square, terms.T),
                    (np.subtract, inflow, out, out)]

        self.first, self.again = rhs_calls(self.v, self.acc), rhs_calls(
            self.k, self.k)

    def derivative(self) -> np.ndarray:
        """The right-hand side at the state, in `acc`."""
        for f, a, b, o in self.first:
            f(a, b, o)
        return self.acc

    def run(self, t: float, dt: float, steps: int, record_every: int = 1,
            times: np.ndarray | None = None, records: np.ndarray | None = None
            ) -> tuple[float, float]:
        """`steps` classical RK4 steps of the state from time t, in place.

        Every `record_every`-th state and its time go to rows 1.. of
        `records` and `times`, when given.  Returns the clamped mass and
        the state scale: the largest value of the first state and of every
        new one before its clamp.  Negative components produced by the
        discrete step are clamped to zero (the exact dynamics cannot cross
        zero: v_j = 0 gives v_j' >= 0).
        """
        v, acc, k = self.v, self.acc, self.k
        add, multiply, maximum = np.add, np.multiply, np.maximum
        lowest, highest = np.minimum.reduce, np.maximum.reduce
        # numpy scalars: a Python float is converted again on every call
        half = np.float64(0.5 * dt)
        calls = [*self.first, (multiply, acc, half, k), (add, v, k, k)]
        for half_h in (half * 0.5, half):  # the next v + h k as v + (h/2) 2k
            calls += [*self.again, (add, k, k, k), (add, acc, k, acc),
                      (multiply, k, half_h, k), (add, v, k, k)]
        calls += [*self.again, (add, acc, k, acc),
                  (multiply, acc, np.float64(dt / 6.0), acc), (add, v, acc, v)]
        clamp_total, scale = 0.0, float(highest(v))
        for i in range(1, steps + 1):
            for f, a, b, o in calls:
                f(a, b, o)
            lo, hi = lowest(v), highest(v)
            if not -math.inf < lo <= hi < math.inf:
                raise FloatingPointError(f"non-finite state at t = {t + dt}")
            t += dt
            if lo <= 0:
                if lo < 0:
                    clamp_total += float(-v[v < 0].sum())
                maximum(v, 0.0, out=v)  # also turns -0.0 into +0.0
            if hi > scale:
                scale = float(hi)
            if records is not None and i % record_every == 0:
                times[i // record_every], records[i // record_every] = t, v
        return clamp_total, scale


def rhs(state: TruncatedState) -> np.ndarray:
    """Exact right-hand side of the truncated system."""
    return _Rk4(state.model, state.depth, state.closure,
                state.values).derivative()


def step(state: TruncatedState, dt: float) -> tuple[TruncatedState, float]:
    """One classical RK4 step; returns the new state and the clamp magnitude.

    The total clamped mass is reported so runs can be rejected when it
    matters.
    """
    dt = _number("dt", dt)
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    with np.errstate(over="ignore", invalid="ignore"):  # as in integrate
        kernel = _Rk4(state.model, state.depth, state.closure, state.values)
        clamp, _ = kernel.run(state.t, dt, 1)
    return replace(state, values=kernel.v, t=state.t + dt), clamp


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
    dt = _number("dt", dt)
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    rows, nodes = steps // record_every + 1, len(state.values)
    check_budget("values", rows * nodes)
    check_budget("node-steps", steps * nodes)
    times, records = np.empty(rows), np.empty((rows, nodes))
    times[0], records[0] = state.t, state.values
    # `run` raises on a non-finite step, so numpy's warnings about the
    # overflow that led there are noise, also where a coefficient or closure
    # weight overflows and the first step turns non-finite; entered once
    # per run, not per step
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _Rk4(state.model, state.depth, state.closure, state.values)
        clamp_total, scale = kernel.run(state.t, dt, steps, record_every,
                                        times, records)
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
    size = tree_size(model.N, depth)
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
    last = generation_start(traj.model.N, traj.depth)
    if mask[last:].any():
        raise ValueError("T must stay within depth - 1")
    if traj.closure == "zero" and mask[
            generation_start(traj.model.N, traj.depth - 1):last].any():
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
