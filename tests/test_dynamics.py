import numpy as np
import pytest

from treeshell import ConstantSolution, RcmModel, TreeIndex
from treeshell import dynamics as dyn


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
        assert np.abs(r_zero[st.slices[2]]).min() > 0


def rhs_oracle(model, depth, closure, values):
    """c_j v_par^2 - sum_k c_k v_j v_k node by node, in the order of gens()."""
    nodes = gens(model.N, depth)
    v = dict(zip(nodes, values))
    sol = ConstantSolution(model)

    def c(j):
        return model.coefficient_of(j) * 2.0 ** (model.alpha * j.generation)

    out = []
    for j in nodes:
        v_par = model.forcing if j.is_root else v[j.parent()]
        inflow = c(j) * v_par**2
        if j.generation < depth:
            outflow = sum(c(k) * v[j] * v[k] for k in j.offspring())
        elif closure == "stationary":
            outflow = sum(c(k) * v[j] * sol.u(k) for k in j.offspring())
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

        monkeypatch.setattr(dyn, "step", fail)
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 2)
        with pytest.raises(ResourceLimitError):
            dyn.integrate(st, 1e-12, 10**15)

    def test_integrate_checks_the_node_steps_before_stepping(
            self, d12, monkeypatch):
        # a sparse record fits the node budget, the steps do not
        from treeshell import ResourceLimitError

        def fail(*args, **kwargs):
            raise AssertionError("stepped before the budget check")

        monkeypatch.setattr(dyn, "step", fail)
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 2)
        with pytest.raises(ResourceLimitError, match="node-steps"):
            dyn.integrate(st, 1e-12, 10**15, record_every=10**9)

    def test_value_of_reads_the_heap_index(self, rng):
        m = RcmModel.create(2, 2.0, [1.0, 2.0, 0.5, 1.5])
        vals = rng.uniform(0.0, 1.0, 21)
        st = dyn.TruncatedState(m, 2, vals, "zero")
        assert [st.value_of(j) for j in gens(4, 2)] == list(vals)


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
        assert new.value_of(TreeIndex.root(2)) == pytest.approx(
            flat_d1.forcing**2 * dt, rel=1e-4)

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
            dyn.TruncatedState(d12, 2, np.full(7, -1.0), "zero")
        with pytest.raises(ValueError):
            dyn.TruncatedState(d12, 2, np.zeros(5), "zero")
        with pytest.raises(ValueError):
            dyn.TruncatedState.zeros(d12, 2, closure="reflect")


class TestEnergyBalance:
    def test_constant_solution_balances(self, d12):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 5, "stationary")
        traj = dyn.integrate(st, 1e-4, 200)
        eb = dyn.energy_balance(traj, gens(2, 3))
        assert eb.max_relative_residual <= 1e-9

    def test_random_state_balance(self, flat_d1, rng):
        sol = ConstantSolution(flat_d1)
        st = dyn.TruncatedState.from_constant(sol, 5, "zero")
        noisy = st.values * (1 + rng.uniform(-0.5, 0.5, st.values.size))
        traj = dyn.integrate(dyn.TruncatedState(flat_d1, 5, noisy, "zero"),
                             1e-4, 300)
        eb = dyn.energy_balance(traj, gens(2, 3))
        assert eb.max_relative_residual <= 1e-6
        # the root alone satisfies the same identity
        eb_root = dyn.energy_balance(traj, [TreeIndex.root(2)])
        assert eb_root.max_relative_residual <= 1e-6

    def test_partition_independence_at_constant_solution(self, d12, rng):
        sol = ConstantSolution(d12)
        st = dyn.TruncatedState.from_constant(sol, 5, "stationary")
        traj = dyn.integrate(st, 1e-4, 50)
        ragged = {TreeIndex.root(2)}
        ragged.update(TreeIndex.root(2).offspring())
        ragged.update(TreeIndex.from_labels([1], 2).offspring())
        for T in (gens(2, 2), sorted(ragged, key=lambda j: j.code)):
            eb = dyn.energy_balance(traj, T)
            assert eb.max_relative_residual <= 1e-9

    def test_boundary_touching_flagged_under_zero_closure(self, d12):
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 3, "zero")
        traj = dyn.integrate(st, 1e-4, 20)
        with pytest.warns(RuntimeWarning):
            dyn.energy_balance(traj, gens(2, 2))

    def test_deep_subtree_rejected(self, d12):
        st = dyn.TruncatedState.from_constant(ConstantSolution(d12), 3,
                                              "stationary")
        traj = dyn.integrate(st, 1e-4, 20)
        with pytest.raises(ValueError):
            dyn.energy_balance(traj, gens(2, 3))


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
