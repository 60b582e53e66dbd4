import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from conftest import heap_index, random_rcm, same_bits, subtree_mask
from oracles import (TreeIndex, coefficient_of, flux_terms_oracle,
                     rk4_step_oracle, u_of_node)
from treeshell import ConstantSolution, RcmModel
from treeshell import dynamics as dyn
from treeshell.tree import generation_start


def gens(arity, depth):
    nodes = [TreeIndex.root(arity)]
    frontier = nodes[:]
    for _ in range(depth):
        frontier = [c for j in frontier for c in j.offspring()]
        nodes += frontier
    return nodes


class TestRhs:
    def test_constant_solution_is_stationary(self, d12):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 5, "stationary")
        r = dyn.rhs(st)
        assert np.abs(r).max() <= 1e-12 * st.values.max()

    def test_zero_state_feeds_only_the_root(self, d12):
        st = dyn.TruncatedState.zeros(d12, 3)
        r = dyn.rhs(st)
        assert r[0] == d12.forcing**2
        assert np.all(r[1:] == 0)

    def test_three_node_hand_computation(self, rng):
        # N=2, depth 1, zero closure: state (a, b, c)
        m = RcmModel.create(1, 1.5, [1.0, 2.0], forcing=1.3)
        a, b, c = rng.uniform(0.1, 1.0, 3)
        st = dyn.TruncatedState(m, 1, np.array([a, b, c]), "zero")
        r = dyn.rhs(st)
        root = 1.3**2 - 2**1.5 * (1.0 * a * b + 2.0 * a * c)
        left = 2**1.5 * 1.0 * 1.3**2 * 0 + 2**1.5 * 1.0 * a**2  # c_j v_par^2
        right = 2**1.5 * 2.0 * a**2
        assert r[0] == pytest.approx(root, abs=1e-14)
        assert r[1] == pytest.approx(left, abs=1e-14)
        assert r[2] == pytest.approx(right, abs=1e-14)

    def test_n4_hand_computation(self, rng):
        # N = 4 exercises the tile/repeat layout beyond the binary tree
        m = RcmModel.create(2, 2.0, [1.0, 2.0, 0.5, 1.5], forcing=0.7)
        vals = rng.uniform(0.1, 1.0, 1 + 4)
        st = dyn.TruncatedState(m, 1, vals, "zero")
        r = dyn.rhs(st)
        v0, kids = vals[0], vals[1:]
        deltas = np.array([1.0, 2.0, 0.5, 1.5])
        root = 0.7**2 - 2.0**2 * v0 * float(deltas @ kids)
        assert r[0] == pytest.approx(root, abs=1e-14)
        for lab in range(4):
            assert r[1 + lab] == pytest.approx(
                deltas[lab] * 2.0**2 * v0**2, abs=1e-14)

    def test_stationary_closure_uses_solution_children(self, d12):
        # at the boundary generation the closure reproduces the exact
        # offspring sum of the constant solution
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 2, "stationary")
        r_stat = dyn.rhs(st)
        st_zero = dyn.TruncatedState(d12, 2, st.values, "zero")
        r_zero = dyn.rhs(st_zero)
        # zero closure drops the boundary outflow, so it cannot be stationary
        assert np.abs(r_stat).max() <= 1e-12
        assert np.abs(r_zero[generation_start(d12.N, 2):]).min() > 0


def rhs_oracle(model, depth, closure, values):
    """c_j v_par^2 - sum_k c_k v_j v_k node by node, in the order of gens()."""
    nodes = gens(model.N, depth)
    v = dict(zip(nodes, values))
    sol = ConstantSolution(model)

    def c(j):
        return coefficient_of(model, j) * 2.0 ** (model.alpha * j.generation)

    out = []
    for j in nodes:
        v_par = model.forcing if j.is_root else v[j.parent()]
        inflow = c(j) * v_par**2
        if j.generation < depth:
            outflow = sum(c(k) * v[j] * v[k] for k in j.offspring())
        elif closure == "stationary":
            outflow = sum(c(k) * v[j] * u_of_node(sol, k) for k in j.offspring())
        else:
            outflow = 0.0
        out.append((inflow - outflow, inflow + outflow))
    return np.array(out).T


class TestFlatLayout:
    @pytest.mark.parametrize("closure", dyn.CLOSURES)
    def test_rhs_matches_per_node_oracle(self, rng, closure):
        from conftest import random_rcm

        for _ in range(4):
            m = random_rcm(rng)
            for depth in range(5):
                vals = rng.uniform(0.0, 2.0, len(gens(m.N, depth)))
                st = dyn.TruncatedState(m, depth, vals, closure)
                want, gross = rhs_oracle(m, depth, closure, vals)
                assert np.all(np.abs(dyn.rhs(st) - want) <= 1e-12 * gross)

    def test_integrate_builds_the_system_once(self, d12, monkeypatch):
        calls = []
        build = dyn._system

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(dyn, "_system", counting)
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 3)
        dyn.integrate(st, 1e-4, 25)
        assert len(calls) == 1

    def test_traced_peak_does_not_grow_with_the_steps(self, d12):
        # a run steps one state in place, so 2,000 steps peak within 1 KB
        # of 10 (about 11 KB here): a byte kept a step would exceed that
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 5)
        peaks = []
        for steps in (10, 10, 2000):  # the first run warms any cache
            tracemalloc.start()
            try:
                dyn.integrate(st, 1e-4, steps, record_every=steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1] + 1024

    def test_traced_peak_holds_seven_state_sizes(self):
        # a run holds the state, acc, k, the child terms, the offspring sums
        # and the c_j twice (one label-major copy), plus the parents'
        # squares: 7.25 state sizes at N = 4, beside its two records
        model = RcmModel.create(2, 2.0, [1.0, 2.0, 3.0, 5.0])
        st = dyn.TruncatedState.from_constant(ConstantSolution(model), 7,
                                              "zero")
        size = st.values.nbytes
        peaks = []
        for steps in (2, 10):  # the first run warms any cache
            tracemalloc.start()
            try:
                dyn.integrate(st, 1e-6, steps, record_every=steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - 2 * size < 7.5 * size

    def test_zeros_checks_the_budget_before_allocating(self, monkeypatch):
        from treeshell import ResourceLimitError, lambda_family

        def fail(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(np, "zeros", fail)
        with pytest.raises(ResourceLimitError):
            dyn.TruncatedState.zeros(lambda_family(0.2, d=3), 10)

    @pytest.mark.parametrize("d, depth, fits", [
        (1, 25, True), (1, 26, False), (2, 12, True), (2, 13, False),
        (3, 8, True), (3, 9, False)])
    def test_zeros_budget_counts_every_generation(self, monkeypatch, d, depth,
                                                  fits):
        # the state holds (N**(depth+1) - 1)/(N - 1) values, not N**depth
        from treeshell import ResourceLimitError

        class Allocated(Exception):
            pass

        def allocate(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(np, "zeros", allocate)
        model = RcmModel.create(d, 1.5, [1.0] * 2**d)
        with pytest.raises(Allocated if fits else ResourceLimitError):
            dyn.TruncatedState.zeros(model, depth)

    def test_integrate_checks_the_recorded_size_before_stepping(
            self, d12, monkeypatch):
        from treeshell import ResourceLimitError

        def fail(*args, **kwargs):
            raise AssertionError("stepped before the budget check")

        monkeypatch.setattr(dyn, "_Rk4", fail)
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 2)
        with pytest.raises(ResourceLimitError):
            dyn.integrate(st, 1e-12, 10**15)

    def test_integrate_checks_the_node_steps_before_stepping(
            self, d12, monkeypatch):
        # a sparse record fits the node budget, the steps do not
        from treeshell import ResourceLimitError

        def fail(*args, **kwargs):
            raise AssertionError("stepped before the budget check")

        monkeypatch.setattr(dyn, "_Rk4", fail)
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 2)
        with pytest.raises(ResourceLimitError, match="node-steps"):
            dyn.integrate(st, 1e-12, 10**15, record_every=10**9)

    def test_value_of_reads_the_heap_index(self, rng):
        # the tests' mask helper puts every node where the state holds it
        m = RcmModel.create(2, 2.0, [1.0, 2.0, 0.5, 1.5])
        vals = rng.uniform(0.0, 1.0, 21)
        assert [vals[heap_index(j)] for j in gens(4, 2)] == list(vals)
        sol = ConstantSolution(m)
        u = dyn.constant_values(sol, 2)
        for j in gens(4, 2):
            assert u[heap_index(j)] == pytest.approx(u_of_node(sol, j), rel=1e-12)
        assert np.array_equal(subtree_mask(gens(4, 1), 2), np.arange(21) < 5)


class TestStep:
    def test_fixed_point_drift(self, d12):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 4, "stationary")
        traj = dyn.integrate(st, 1e-4, 1000, record_every=1000)
        drift = np.abs(traj.states[-1] - st.values) / st.values
        assert drift.max() <= 1e-9
        assert traj.clamp_total == 0.0

    def test_zero_start_root_growth_rate(self, flat_d1):
        st = dyn.TruncatedState.zeros(flat_d1, 3)
        dt = 1e-5
        new, _ = dyn.step(st, dt)
        assert new.values[0] == pytest.approx(
            flat_d1.forcing**2 * dt, rel=1e-4)

    def test_blow_up_raises_without_numpy_warnings(self, d12):
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 3,
                                              "zero", scale=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="non-finite"):
                dyn.step(st, 1.0)
            with pytest.raises(FloatingPointError, match="non-finite"):
                dyn.integrate(st, 1.0, 3)

    def test_fourth_order_convergence(self, d12):
        sol = ConstantSolution(d12)
        base = dyn.TruncatedState.from_constant(sol, 3, "zero", scale=1.1)
        # reference: many tiny steps
        ref = base
        for _ in range(64):
            ref, _ = dyn.step(ref, 1e-3 / 64)
        one, _ = dyn.step(base, 1e-3)
        half1, _ = dyn.step(base, 5e-4)
        half2, _ = dyn.step(half1, 5e-4)
        err1 = np.abs(one.values - ref.values).max()
        err2 = np.abs(half2.values - ref.values).max()
        assert 10 < err1 / err2 < 24  # ~16 for a 4th-order scheme

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_aborts(self, d12):
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 4, "zero")
        with pytest.raises(FloatingPointError):
            cur = st
            for _ in range(200):
                cur, _ = dyn.step(cur, 50.0)

    def test_clamp_is_reported(self, d12):
        # a state decaying through zero at the boundary triggers the clamp
        st = dyn.TruncatedState.zeros(d12, 2)
        vals = st.values.copy()
        vals[0] = 1.0
        cur = dyn.TruncatedState(d12, 2, vals, "zero")
        total = 0.0
        for _ in range(50):
            cur, clamp = dyn.step(cur, 2e-2)
            total += clamp
        assert np.all(cur.values >= 0)

    def test_excessive_clamping_rejects_the_run(self):
        # an oversized step drives the root through zero hard but stays finite
        m = RcmModel.create(1, 1.5, [1.0, 2.0], forcing=1e-2)
        st = dyn.TruncatedState(m, 1, np.array([1.08, 0.0575, 0.133]), "zero")
        with pytest.raises(RuntimeError, match="clamp"):
            dyn.integrate(st, 0.45, 5)
        # the same steps one by one, without the run's check
        cur, clamp_total = st, 0.0
        for _ in range(5):
            cur, clamp = dyn.step(cur, 0.45)
            clamp_total += clamp
            assert np.isfinite(cur.values).all()
        assert clamp_total > 1.0

    def test_clean_runs_pass_the_clamp_check(self, d12):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 3, "stationary", scale=1.2)
        traj = dyn.integrate(st, 1e-4, 200)  # default clamp check active
        assert traj.clamp_total <= 1e-12

    def test_invalid_inputs(self, d12):
        st = dyn.TruncatedState.zeros(d12, 2)
        with pytest.raises(ValueError):
            dyn.step(st, 0.0)
        with pytest.raises(ValueError):
            dyn.step(st, math.nan)
        with pytest.raises(ValueError):
            dyn.TruncatedState(d12, 2, np.array([1.0] * 6 + [math.nan]))
        with pytest.raises(ValueError):
            dyn.TruncatedState(d12, 2, np.full(7, -1.0), "zero")
        # an inf value gave a NaN rhs, and integrate(st, dt, 0) kept the inf
        with pytest.raises(ValueError, match="finite and non-negative"):
            dyn.TruncatedState(d12, 2, np.array([1.0] * 6 + [math.inf]))
        with pytest.raises(ValueError):
            dyn.TruncatedState(d12, 2, np.zeros(5), "zero")
        with pytest.raises(ValueError):
            dyn.TruncatedState.zeros(d12, 2, closure="reflect")
        # depth -1 gave an empty state that integrate failed on in numpy,
        # and -3 a TypeError from np.zeros of a negative size
        for depth in (-1, -3):
            with pytest.raises(ValueError, match="depth must be >= 0"):
                dyn.TruncatedState.zeros(d12, depth)

    @pytest.mark.parametrize("depth", [-1, -2, -5])
    def test_zeros_rejects_a_negative_depth_before_sizing(self, d12,
                                                          monkeypatch, depth):
        def fail(*args, **kwargs):
            raise AssertionError("sized the state before the depth check")

        monkeypatch.setattr(dyn, "generation_start", fail)
        with pytest.raises(ValueError, match=f"depth must be >= 0, got {depth}"):
            dyn.TruncatedState.zeros(d12, depth)

    @pytest.mark.parametrize("dt, steps, record_every", [
        (1e-4, 10, 0), (1e-4, 10, -2), (1e-4, -1, 1), (0.0, 0, 1),
        (-1e-4, 0, 1), (math.nan, 10, 1), (math.nan, 0, 1)])
    def test_integrate_rejects_bad_arguments_first(self, d12, monkeypatch,
                                                   dt, steps, record_every):
        def fail(*args, **kwargs):
            raise AssertionError("sized or stepped before the argument check")

        st = dyn.TruncatedState.zeros(d12, 2)
        monkeypatch.setattr(dyn, "check_budget", fail)
        monkeypatch.setattr(dyn, "_Rk4", fail)
        with pytest.raises(ValueError):
            dyn.integrate(st, dt, steps, record_every)


def oracle_run(state, dt, steps, record_every):
    """integrate's times, records and clamp total from a loop of oracle
    steps; raises what integrate must raise."""
    times, records, clamp_total = [state.t], [state.values], 0.0
    scale = float(np.abs(state.values).max())
    current = state
    for i in range(1, steps + 1):
        values, clamp = rk4_step_oracle(current, dt)
        current = dyn.TruncatedState(state.model, state.depth, values,
                                     state.closure, current.t + dt)
        clamp_total += clamp
        scale = max(scale, float(values.max()))
        if i % record_every == 0:
            times.append(current.t)
            records.append(values)
    if steps > 0 and scale > 0:
        rate = clamp_total / (steps * dt)
        if rate > dyn._MAX_CLAMP_RATE * scale:
            raise RuntimeError(f"clamped mass rate {rate:.3e} exceeds "
                               f"{dyn._MAX_CLAMP_RATE:.1e} x state scale "
                               f"{scale:.3e}; decrease dt")
    return np.array(times), np.array(records), clamp_total


def start_state(seed, d, depth, closure, start):
    rng = np.random.default_rng(seed)
    model = random_rcm(rng, d_choices=(d,))
    if start == "zero":
        return model, dyn.TruncatedState.zeros(model, depth, closure)
    sol = ConstantSolution(model)
    if start in ("random", "negative zeros"):
        base = dyn.constant_values(sol, depth)
        values = (base * rng.uniform(0.0, 2.0, base.size)
                  * (rng.random(base.size) < 0.7))
        if start == "negative zeros":  # the deepest generation too
            values[values == 0] = -0.0
            values[-model.N**depth:] = -0.0
        return model, dyn.TruncatedState(model, depth, values, closure)
    scale = 1.0 if start == "constant" else float(rng.uniform(0.0, 2.0))
    return model, dyn.TruncatedState.from_constant(sol, depth, closure, scale)


class TestKernelAgainstOracle:
    """The RK4 kernel, step by step and over whole runs, gives the bits of
    the oracle step: same records, times and clamp total, or the same
    error."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(seed=hs.integers(0, 2**16), d=hs.sampled_from((1, 2, 3)),
           depth=hs.integers(0, 4), closure=hs.sampled_from(dyn.CLOSURES),
           start=hs.sampled_from(("zero", "constant", "perturbed", "random")),
           steps=hs.integers(1, 12),
           record_every=hs.sampled_from((1, 2, 3, 7)),
           log2_dt=hs.floats(-10.0, 1.5))
    @example(seed=0, d=1, depth=3, closure="stationary", start="random",
             steps=0, record_every=1, log2_dt=-4.0)
    @example(seed=0, d=2, depth=3, closure="stationary", start="constant",
             steps=12, record_every=1, log2_dt=-4.0)
    # dt large enough to clamp: within the rate bound, over it, non-finite
    @example(seed=29, d=2, depth=2, closure="zero", start="perturbed",
             steps=9, record_every=2, log2_dt=1.25)
    @example(seed=1, d=3, depth=0, closure="stationary", start="zero",
             steps=9, record_every=2, log2_dt=1.0)
    @example(seed=11, d=2, depth=2, closure="zero", start="random",
             steps=9, record_every=2, log2_dt=1.25)
    @example(seed=11, d=1, depth=2, closure="zero", start="random",
             steps=9, record_every=2, log2_dt=1.5)
    # -0.0 entries, some filling a parent's whole child row: the offspring
    # sums must give numpy's +0.0 there, sequentially (N = 2) and as a tree
    @example(seed=3, d=1, depth=4, closure="zero", start="negative zeros",
             steps=6, record_every=1, log2_dt=-4.0)
    @example(seed=3, d=3, depth=2, closure="stationary",
             start="negative zeros", steps=6, record_every=1, log2_dt=-4.0)
    # the sizes the kernel's layout is tuned for: bulk's d = 2, depth 7
    # (21,845 nodes), and d = 3, depth 4
    @example(seed=4, d=2, depth=7, closure="zero", start="random",
             steps=6, record_every=2, log2_dt=-3.0)
    @example(seed=6, d=3, depth=4, closure="stationary", start="perturbed",
             steps=8, record_every=3, log2_dt=-2.0)
    # dt = 2**-1074 for this seed's alpha: dt/2 and dt/6 round to zero
    @example(seed=5, d=2, depth=3, closure="zero", start="zero",
             steps=5, record_every=1, log2_dt=-1054.21)
    def test_integrate_matches_oracle_steps(self, seed, d, depth, closure,
                                            start, steps, record_every,
                                            log2_dt):
        model, state = start_state(seed, d, depth, closure, start)
        # log2_dt is relative to the stiffness scale 2**(-alpha (depth + 1))
        dt = 2.0 ** (log2_dt - model.alpha * (depth + 1))
        try:
            times, records, clamp_total = oracle_run(state, dt, steps,
                                                     record_every)
        except (FloatingPointError, RuntimeError) as e:
            with pytest.raises(type(e)) as got:
                dyn.integrate(state, dt, steps, record_every)
            assert str(got.value) == str(e)
            return
        traj = dyn.integrate(state, dt, steps, record_every)
        assert same_bits(traj.states, records)
        assert same_bits(traj.times, times)
        assert same_bits(traj.clamp_total, clamp_total)
        assert traj.dt == dt * record_every

    def test_clamping_steps_match_oracle(self):
        # the oversized steps of test_excessive_clamping_rejects_the_run
        m = RcmModel.create(1, 1.5, [1.0, 2.0], forcing=1e-2)
        cur = dyn.TruncatedState(m, 1, np.array([1.08, 0.0575, 0.133]),
                                 "zero")
        clamps = []
        for _ in range(5):
            want, want_clamp = rk4_step_oracle(cur, 0.45)
            cur, clamp = dyn.step(cur, 0.45)
            assert same_bits(cur.values, want)
            assert same_bits(clamp, want_clamp)
            clamps.append(clamp)
        assert any(c > 0 for c in clamps)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_doubled_stage_overflow_matches_oracle(self):
        # |k2| is within a factor 2 of the double maximum, so 2 k2
        # overflows while k2 does not: the kernel doubles k2 in place, the
        # oracle forms 2 * k2 in its sum, and both fail at the first step
        m = RcmModel.create(1, 1.5, [1.0, 2.0])
        st = dyn.TruncatedState(m, 1, np.array([1.0, 1.4e307, 1.4e307]),
                                "zero")
        dt = 1e-310
        k1 = dyn.rhs(st)
        x2 = dyn.TruncatedState(m, 1, st.values + 0.5 * dt * k1, "zero")
        k2 = np.abs(dyn.rhs(x2)).max()
        assert sys.float_info.max / 2 < k2 < sys.float_info.max
        with pytest.raises(FloatingPointError) as want:
            oracle_run(st, dt, 3, 1)
        with pytest.raises(FloatingPointError) as got:
            dyn.integrate(st, dt, 3)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"non-finite state at t = {dt}"


class TestEnergyBalance:
    def test_constant_solution_balances(self, d12):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 5, "stationary")
        traj = dyn.integrate(st, 1e-4, 200)
        eb = dyn.energy_balance(traj, subtree_mask(gens(2, 3), 5))
        assert eb.max_relative_residual <= 1e-9

    def test_random_state_balance(self, flat_d1, rng):
        sol = ConstantSolution(flat_d1)
        st = dyn.TruncatedState.from_constant(sol, 5, "zero")
        noisy = st.values * (1 + rng.uniform(-0.5, 0.5, st.values.size))
        traj = dyn.integrate(dyn.TruncatedState(flat_d1, 5, noisy, "zero"),
                             1e-4, 300)
        eb = dyn.energy_balance(traj, subtree_mask(gens(2, 3), 5))
        assert eb.max_relative_residual <= 1e-6
        # the root alone satisfies the same identity
        eb_root = dyn.energy_balance(traj, subtree_mask([TreeIndex.root(2)], 5))
        assert eb_root.max_relative_residual <= 1e-6

    def test_partition_independence_at_constant_solution(self, d12, rng):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 5, "stationary")
        traj = dyn.integrate(st, 1e-4, 50)
        ragged = {TreeIndex.root(2)}
        ragged.update(TreeIndex.root(2).offspring())
        ragged.update(TreeIndex.from_labels([1], 2).offspring())
        for T in (gens(2, 2), sorted(ragged, key=lambda j: j.code)):
            eb = dyn.energy_balance(traj, subtree_mask(T, 5))
            assert eb.max_relative_residual <= 1e-9

    def test_boundary_touching_flagged_under_zero_closure(self, d12):
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 3, "zero")
        traj = dyn.integrate(st, 1e-4, 20)
        with pytest.warns(RuntimeWarning):
            dyn.energy_balance(traj, subtree_mask(gens(2, 2), 3))

    def test_deep_subtree_rejected(self, d12):
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 3,
                                              "stationary")
        traj = dyn.integrate(st, 1e-4, 20)
        with pytest.raises(ValueError):
            dyn.energy_balance(traj, subtree_mask(gens(2, 3), 3))


    def test_short_trajectory_rejected(self, d12):
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 3,
                                              "stationary")
        traj = dyn.integrate(st, 1e-4, 3)
        with pytest.raises(ValueError, match="at least 5 records, got 4"):
            dyn.energy_balance(traj, subtree_mask(gens(2, 1), 3))


def random_subtree(rng, arity, depth):
    """A random prefix-closed mask over generations 0..depth whose nodes
    stay within depth - 1, so that its whole boundary is in the state."""
    size = (arity ** (depth + 1) - 1) // (arity - 1)
    mask = np.zeros(size, dtype=bool)
    mask[0] = True
    for i in range(1, (arity**depth - 1) // (arity - 1)):
        mask[i] = mask[(i - 1) // arity] and rng.random() < 0.6
    return mask


class TestFluxTerms:
    """The masked reductions against the set walk of ``flux_terms_oracle``."""

    @pytest.mark.parametrize("d, depth", [(1, 6), (2, 3), (3, 2)])
    def test_matches_the_set_walk(self, rng, d, depth):
        for trial in range(8):
            m = random_rcm(rng, d_choices=(d,))
            mask = random_subtree(rng, m.N, depth)
            size = len(mask)
            if trial % 2:
                values = dyn.constant_values(ConstantSolution(m), depth)
            else:  # a leading time axis of three records
                values = rng.uniform(0.1, 2.0, (3, size))
            inflow, outflow = dyn.flux_terms(m, depth, values, mask)
            nodes = [j for j in gens(m.N, depth) if mask[heap_index(j)]]
            want_in, boundary = flux_terms_oracle(
                m, nodes, lambda j: values[..., heap_index(j)])
            want = np.zeros(values.shape)
            for k, flux in boundary:
                want[..., heap_index(k)] = flux
            np.testing.assert_allclose(inflow, want_in, rtol=1e-12, atol=0)
            np.testing.assert_allclose(outflow, want, rtol=1e-12, atol=0)

    def test_mask_shape_and_dtype_rejected(self, d12):
        u = dyn.constant_values(ConstantSolution(d12), 3)
        mask = subtree_mask(gens(2, 1), 3)
        for bad in (mask[:-1], mask.astype(int), mask[None]):
            with pytest.raises(ValueError, match="boolean mask of 15 nodes"):
                dyn.flux_terms(d12, 3, u, bad)


class TestRelax:
    """The distance sum (v_j - u_j)^2 to the constant solution along a run,
    formed as ``simulate`` forms its distance_to_u column."""

    def test_start_at_solution_stays(self, d12):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 4, "stationary")
        traj = dyn.integrate(st, 1e-4, 500, record_every=50)
        dist = ((traj.states - dyn.constant_values(sol, 4)) ** 2).sum(axis=1)
        assert dist.max() <= 1e-9

    def test_perturbed_run_is_observational(self, d12):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 4, "stationary", scale=1.1)
        traj = dyn.integrate(st, 1e-4, 400, record_every=100)
        dist = ((traj.states - dyn.constant_values(sol, 4)) ** 2).sum(axis=1)
        assert len(traj.times) == len(dist) == 5
        assert dist[0] > 0  # no convergence asserted: conjecture-level

    def test_zero_start_root_rises(self, d12):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.zeros(d12, 3, "stationary")
        traj = dyn.integrate(st, 1e-4, 200)
        assert traj.states[-1][0] > traj.states[0][0]


class TestWideTree:
    def test_n4_stationary_closure_fixed_point(self, rng):
        m = RcmModel.create(2, 2.0, [1.0, 2.0, 0.5, 1.5], forcing=0.8)
        sol = ConstantSolution(m)
        st = dyn.TruncatedState.from_constant(sol, 3, "stationary")
        r = dyn.rhs(st)
        assert np.abs(r).max() <= 1e-12 * st.values.max()
        traj = dyn.integrate(st, 1e-5, 200)
        drift = np.abs(traj.states[-1] - st.values) / st.values
        assert drift.max() <= 1e-10
