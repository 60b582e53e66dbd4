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
right-hand side needs no loop over generations.

Integration is a fixed-step classical 4-stage Runge-Kutta scheme; no
adaptivity, so residual tables are reproducible.  Stiffness grows like
2**(alpha n): shrink dt with depth (guideline dt <= 0.1 * 2**(-alpha n)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .coefficients import RcmModel
from .dissipation import flux_terms
from .solution import ConstantSolution, check_budget
from .tree import TreeIndex

__all__ = [
    "TruncatedState",
    "constant_values",
    "rhs",
    "step",
    "Trajectory",
    "integrate",
    "EnergyBalance",
    "energy_balance",
]

CLOSURES = ("zero", "stationary")
_MAX_CLAMP_RATE = 1e-8


def _generation_start(N: int, generation: int) -> int:
    """Index of the first node of `generation` (at depth + 1: the size)."""
    return (N**generation - 1) // (N - 1)


def _state_index(j: TreeIndex) -> int:
    return _generation_start(j.arity, j.generation) + j.code


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
        if np.any(self.values < 0):
            raise ValueError("componentwise states are non-negative")

    @property
    def slices(self) -> list[slice]:
        N = self.model.N
        return [slice(_generation_start(N, g), _generation_start(N, g + 1))
                for g in range(self.depth + 1)]

    def value_of(self, j: TreeIndex) -> float:
        return float(self.values[_state_index(j)])

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


def rhs(state: TruncatedState) -> np.ndarray:
    """Exact right-hand side of the truncated system."""
    return _rhs_core(state.model,
                     _system(state.model, state.depth, state.closure),
                     state.values)


def step(state: TruncatedState, dt: float,
         system: tuple[np.ndarray, np.ndarray] | None = None
         ) -> tuple[TruncatedState, float]:
    """One classical RK4 step; returns the new state and the clamp magnitude.

    `system` (built here if None) is the state's precomputed coefficients.
    Negative components produced by the discrete step are clamped to zero
    (the exact dynamics cannot cross zero: v_j = 0 gives v_j' >= 0) and the
    total clamped mass is reported so runs can be rejected when it matters.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if system is None:
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
    return replace(state, values=np.maximum(new, 0.0), t=state.t + dt), clamp


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
    check_budget("values", (steps // record_every + 1) * len(state.values))
    check_budget("node-steps", steps * len(state.values))
    system = _system(state.model, state.depth, state.closure)
    times = [state.t]
    records = [state.values.copy()]
    clamp_total = 0.0
    scale = float(np.abs(state.values).max())
    current = state
    for i in range(steps):
        current, clamp = step(current, dt, system)
        clamp_total += clamp
        scale = max(scale, float(np.abs(current.values).max()))
        if (i + 1) % record_every == 0:
            times.append(current.t)
            records.append(current.values.copy())
    if steps > 0 and scale > 0:
        rate = clamp_total / (steps * dt)
        if rate > _MAX_CLAMP_RATE * scale:
            raise RuntimeError(
                f"clamped mass rate {rate:.3e} exceeds {_MAX_CLAMP_RATE:.1e} "
                f"x state scale {scale:.3e}; decrease dt")
    return Trajectory(state.model, state.depth, state.closure, dt * record_every,
                      np.asarray(times), np.asarray(records), clamp_total)


# ---------------------------------------------------------------------------
# energy budget of a finite subtree along a trajectory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBalance:
    times: np.ndarray
    dE_dt: np.ndarray           # centered finite differences of sum_T v^2
    flux: np.ndarray            # 2 f^2 v_root - boundary outflow, same times
    max_residual: float
    max_relative_residual: float


def energy_balance(traj: Trajectory,
                   subtree: Iterable[TreeIndex]) -> EnergyBalance:
    """Check d/dt sum_{j in T} v_j^2 against the flux formula along a run.

    The derivative is taken by the centered 5-point finite difference on
    the recorded grid, whose O(dt^4) error stays far below the model
    identity being tested.  T must stay within depth-1 so its boundary is
    fully represented; under the zero closure a T touching the truncation
    generation is flagged.
    """
    nodes = set(subtree)
    max_gen = max((j.generation for j in nodes), default=0)
    if max_gen > traj.depth - 1:
        raise ValueError("T must stay within depth - 1")
    states = traj.states
    fluxes = flux_terms(traj.model, nodes, lambda j: states[:, _state_index(j)])
    if traj.closure == "zero" and max_gen == traj.depth - 1:
        warnings.warn("T touches the truncation boundary under the zero "
                      "closure; fluxes into absent offspring are dropped",
                      RuntimeWarning, stacklevel=2)

    energy = sum(states[:, _state_index(j)] ** 2 for j in nodes)
    inflow, outflow = fluxes.input_term, fluxes.boundary_total
    flux = inflow - outflow

    dE = (-energy[4:] + 8 * energy[3:-1] - 8 * energy[1:-3] + energy[:-4]) \
        / (12 * traj.dt)
    inner = slice(2, -2)
    res = np.abs(dE - flux[inner])
    # normalise by the gross throughput: the net flux vanishes at equilibrium
    scale = max(float((np.abs(inflow) + np.abs(outflow)).max()), 1e-300)
    return EnergyBalance(traj.times[inner], dE, flux[inner],
                         float(res.max()), float(res.max()) / scale)

