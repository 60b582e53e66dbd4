import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import run_capped, same_bits
from oracles import (TreeIndex, log2_u_of_node, pull_row_oracle,
                     residual_max_oracle, stationarity_residual, u_of_node)
from treeshell import (
    ConstantSolution,
    GeneralCoefficients,
    RcmModel,
    ResourceLimitError,
    divergence_witness,
    fixed_point_q,
    pullback,
    spectra,
)

# high-precision values (mpmath, 50 dps) for deltas=(1,2), d=1, alpha=3/2
Q_D12 = -1.1455839318132747
H_D12 = 0.14558393181327468
ELL32_D12 = 0.6245011969598827


def random_node(rng, arity, max_gen=10):
    g = int(rng.integers(1, max_gen + 1))
    return TreeIndex(arity, g, int(rng.integers(0, arity**g)))


class TestFixedPoint:
    def test_flat_d3(self, flat_d3):
        assert fixed_point_q(flat_d3) == pytest.approx(-11.0 / 6.0, abs=1e-15)

    def test_d12(self, d12):
        assert fixed_point_q(d12) == pytest.approx(Q_D12, abs=1e-14)
        assert fixed_point_q(d12) == pytest.approx(-(1.5 + 1) / 3 - ELL32_D12 / 2,
                                                   abs=1e-14)

    def test_recursion_residual(self, rng):
        from conftest import random_rcm
        for _ in range(20):
            sol = ConstantSolution(random_rcm(rng))
            assert sol.recursion_residual() <= 1e-12


class TestNodeValues:
    def test_flat_root_value(self, flat_d3):
        sol = ConstantSolution(flat_d3)
        assert u_of_node(sol, TreeIndex.root(8)) == pytest.approx(
            0.2806155120773432, abs=1e-15)
        # flat with f=1: u_j = 2^{q(|j|+1)}
        j = TreeIndex.from_labels([3, 5], 8)
        assert log2_u_of_node(sol, j) == pytest.approx(3 * sol.q, abs=1e-12)

    def test_stationarity_residual_random_nodes(self, rng):
        from conftest import random_rcm
        for _ in range(10):
            model = random_rcm(rng)
            sol = ConstantSolution(model)
            for _ in range(100):
                j = random_node(rng, model.N, max_gen=8)
                assert stationarity_residual(sol, j) <= 1e-12

    def test_rows_match_node_evaluation(self, d12_solution, rng):
        rows = d12_solution.log2_u_rows(6)
        for _ in range(30):
            j = random_node(rng, 2, max_gen=6)
            assert rows[j.generation][j.code] == pytest.approx(
                log2_u_of_node(d12_solution, j), abs=1e-12)

    @pytest.mark.parametrize("d, depth, fits", [
        (1, 25, True), (1, 26, False), (2, 12, True), (2, 13, False),
        (3, 8, True), (3, 9, False)])
    def test_rows_budget_counts_every_generation(self, monkeypatch, d, depth,
                                                 fits):
        # at d = 1 depth 26 and d = 2 depth 13 the last row alone fits the
        # 2**26 nodes budget and the whole (N**(depth+1) - 1)/(N - 1) does not
        from treeshell import RcmModel

        class Built(Exception):
            pass

        def build(*args, **kwargs):
            raise Built

        monkeypatch.setattr(RcmModel, "path_sum_rows", build)
        sol = ConstantSolution(RcmModel.create(d, 1.5, [1.0] * 2**d))
        with pytest.raises(Built if fits else ResourceLimitError):
            sol.log2_u_rows(depth)

    @pytest.mark.parametrize("depth", [-1, -3])
    def test_rows_reject_a_negative_depth(self, d12_solution, depth):
        with pytest.raises(ValueError, match=(
                f"^'depth' must be an integer >= 0, got {depth}$")):
            d12_solution.log2_u_rows(depth)

    def test_exact_autosimilarity(self, d12_solution, rng):
        # with the repeated multiset, u_{jk} u_root = u_j u_k exactly
        sol = d12_solution
        root = TreeIndex.root(2)
        for _ in range(50):
            j = random_node(rng, 2, 6)
            k = random_node(rng, 2, 6)
            lhs = log2_u_of_node(sol, j.append(k)) + log2_u_of_node(sol, root)
            rhs = log2_u_of_node(sol, j) + log2_u_of_node(sol, k)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSobolevNorm:
    def test_infinite_at_and_above_threshold(self, d12_solution):
        s0 = spectra.s0(d12_solution.model, 2.0)
        assert d12_solution.sobolev_norm(s0, 2.0) == math.inf
        assert d12_solution.sobolev_norm(s0 + 0.3, 2.0) == math.inf
        assert math.isfinite(d12_solution.sobolev_norm(s0 - 1e-6, 2.0))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_finite_an_ulp_below_threshold(self, d12_solution, p):
        # 1 - 2**(p gap) rounds to 0 there; expm1 keeps its digits
        s = math.nextafter(spectra.s0(d12_solution.model, p), -math.inf)
        norm = d12_solution.sobolev_norm(s, p)
        assert math.isfinite(norm) and norm > 0

    def test_flat_energy_closed_form(self, flat_d3):
        sol = ConstantSolution(flat_d3)
        # f^2 2^{2q} / (1 - 2^{-2 s0(2)}) with s0(2) = 1/3 (mpmath value)
        assert spectra.s0(flat_d3, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert sol.energy() == pytest.approx(0.21280179798991441, abs=1e-14)

    def test_energy_vs_deep_generation_sum(self, flat_d3):
        # flat rows collapse: sum_{|j|=n} u^2 = N^n 2^{2q(n+1)}
        sol = ConstantSolution(flat_d3)
        q, N = sol.q, flat_d3.N
        direct = sum(N**n * 2.0 ** (2 * q * (n + 1)) for n in range(61))
        assert direct == pytest.approx(sol.energy(), rel=1e-12)

    def test_truncated_sum_matches_brute_force(self, d12_solution):
        # closed-form partial sum vs node-by-node enumeration, N = 2
        sol = d12_solution
        m = sol.model
        for s, p in [(0.0, 2.0), (0.1, 2.0), (-0.2, 3.0), (0.05, 1.0)]:
            rows = sol.log2_u_rows(12)
            brute = sum(
                np.exp2(p * s * n + m.d * (p / 2 - 1) * n + p * rows[n]).sum()
                for n in range(13))
            ratio = 2.0 ** (p * (s - spectra.s0(m, p)))
            closed = (m.forcing**p * 2.0 ** (p * sol.q)
                      * (1 - ratio**13) / (1 - ratio))
            assert brute == pytest.approx(closed, rel=1e-12)

    def test_p_below_one_rejected(self, d12_solution):
        with pytest.raises(ValueError):
            d12_solution.sobolev_norm(0.0, 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected(self, d12_solution, p):
        # p = inf used to return NaN; besov_epsilon covers the Holder end
        with pytest.raises(ValueError):
            d12_solution.sobolev_norm(0.1, p)

    def test_nan_s_rejected(self, d12_solution):
        # used to return NaN
        with pytest.raises(ValueError):
            d12_solution.sobolev_norm(math.nan, 2.0)


class TestRegularityThresholds:
    def test_flat_thresholds_are_constant(self, flat_d3):
        sol = ConstantSolution(flat_d3)
        vals = [spectra.s0(flat_d3, p) for p in (1.0, 2.0, 3.0, 7.0, 50.0)]
        assert np.allclose(vals, (2.5 - 1.5) / 3, atol=1e-12)
        assert spectra.holder_exponent(flat_d3) == pytest.approx(vals[0], abs=1e-12)

    def test_d12_holder(self, d12_solution):
        assert spectra.holder_exponent(d12_solution.model) == pytest.approx(
            H_D12, abs=1e-13)

    def test_s0_nonincreasing_and_h_is_limit(self, d12_solution):
        ps = np.linspace(1, 400, 300)
        vals = np.array([spectra.s0(d12_solution.model, p) for p in ps])
        assert np.all(np.diff(vals) <= 1e-12)
        # s0(p) - h decays like (d - log2 m)/p; here d = 1, m = 1
        h = spectra.holder_exponent(d12_solution.model)
        assert vals[-1] - h == pytest.approx(1.0 / 400.0, rel=1e-6)

    def test_lambda_root_location(self):
        # bisection on h(lambda) for the d=3, alpha=5/2 family
        from treeshell import lambda_family

        def h(lam):
            return spectra.holder_exponent(lambda_family(lam))

        lo, hi = 0.1, 0.4
        assert h(lo) > 0 > h(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if h(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(0.23078465546925926, abs=1e-10)


class TestPullback:
    def test_flat_single_step_from_zero(self, flat_d3):
        run = pullback(GeneralCoefficients.from_rcm(flat_d3), 2.5,
                       depth=1, seed=0.0)
        assert run.rows[0][0] == pytest.approx(-(2.5 + 3) / 2, abs=1e-14)

    def test_flat_matches_scalar_iteration_oracle(self, flat_d3):
        # every row is constant; the backward map is x -> -(alpha+d)/2 - x/2
        depth = 6
        run = pullback(GeneralCoefficients.from_rcm(flat_d3), 2.5,
                       depth=depth, seed=0.4)
        x = 0.4
        for g in range(depth - 1, -1, -1):
            x = -(2.5 + 3) / 2 - x / 2
            row = run.rows[g]
            assert row.min() == row.max()
            assert row[0] == pytest.approx(x, abs=1e-12)
        # geometric convergence with ratio -1/2 toward -(alpha+d)/3
        q_star = -(2.5 + 3) / 3
        devs = [abs(run.rows[g][0] - q_star) for g in range(depth)]
        ratios = [devs[g] / devs[g + 1] for g in range(depth - 1)]
        assert np.allclose(ratios, 0.5, atol=1e-6)

    def test_rcm_seeded_at_q_is_exact_fixed_point(self, d12):
        sol = ConstantSolution(d12)
        run = pullback(GeneralCoefficients.from_rcm(d12), d12.alpha,
                       depth=8, seed=sol.q)
        for g in range(8):
            assert np.abs(run.rows[g] - sol.q).max() <= 1e-12
        assert run.residual_max() <= 1e-12

    def test_band_containment_for_general_coefficients(self, rng):
        # a genuinely node-dependent map inside a declared band
        lo, hi = -0.7, 0.9

        def log2_of(generation):
            u = np.array([hash((generation, c)) % 1000
                          for c in range(2**generation)]) / 1000.0
            return lo + (hi - lo) * u

        gc = GeneralCoefficients(2, log2_of, lo, hi)
        run = pullback(gc, alpha=1.5, depth=10, seed=0.0)
        a, b = run.band
        assert a == pytest.approx(-(1.5 + 1) / 3 - hi + lo / 2, abs=1e-14)
        assert b == pytest.approx(-(1.5 + 1) / 3 - lo + hi / 2, abs=1e-14)
        assert a <= 0.0 <= b  # the seed is inside
        assert all(a <= row.min() and row.max() <= b for row in run.rows)
        assert run.residual_max() <= 1e-12
        # the boundary row is the seed alone, standing for its generation
        assert np.all(run.rows[10] == 0.0)
        assert run.rows[10].shape == (1,)

    def test_depth_budget(self, d12):
        with pytest.raises(ResourceLimitError):
            pullback(GeneralCoefficients.from_rcm(d12), 1.5, depth=30)

    @pytest.mark.parametrize("x", [-1000.0, 1000.0])
    def test_residual_stays_small_far_from_the_band(self, d12, x):
        run = pullback(GeneralCoefficients.from_rcm(d12), d12.alpha,
                       depth=8, seed=x)
        assert run.residual_max() <= 1e-12

    def test_residual_sees_a_faulty_row_step(self, d12, monkeypatch):
        # the residual checks the forward identity, not the backward row
        # step that built the rows, so a shifted log-sum-exp shows in it
        from treeshell import solution

        exact = solution.log2sumexp2
        monkeypatch.setattr(solution, "log2sumexp2",
                            lambda x, axis=None: exact(x, axis) + 1e-9)
        run = pullback(GeneralCoefficients.from_rcm(d12), d12.alpha, depth=6)
        assert run.residual_max() > 1e-10

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf,
                                       10**400, "2"],
                             ids=["nan", "inf", "-inf", "huge-int", "str"])
    def test_alpha_must_be_a_finite_number(self, d12, alpha):
        # a non-finite alpha gave NaN rows with residual_max() == 0.0
        with pytest.raises(ValueError, match="alpha"):
            pullback(GeneralCoefficients.from_rcm(d12), alpha, depth=4)

    def test_residual_keeps_a_nan(self, d12, monkeypatch):
        # max(0.0, nan) is 0.0: a NaN residual must not read as exact
        from treeshell import solution

        exact = solution._pull_row

        def nan_at_2(coefficients, alpha, g, children):
            row, residual = exact(coefficients, alpha, g, children)
            return row, math.nan if g == 2 else residual

        monkeypatch.setattr(solution, "_pull_row", nan_at_2)
        run = pullback(GeneralCoefficients.from_rcm(d12), d12.alpha, depth=6)
        assert math.isnan(run.residual_max())

    def test_shared_row_above_per_node_rows_is_refused(self):
        # the pull-back adds a shared row to one-value children only
        gc = GeneralCoefficients(
            2, lambda g: np.zeros(2 if g < 3 else 2**g), -1.0, 1.0)
        # the refusal names the layout rule
        with pytest.raises(ValueError, match="generation 2 is one row shared "
                           r".* gives every shallower one per node too"):
            pullback(gc, 1.5, depth=5)

    def test_rcm_pullback_stores_one_value_a_row(self):
        # 1,398,101 nodes and a 22 MB peak when the deltas were tiled
        gc = GeneralCoefficients.from_rcm(
            RcmModel.create(2, 2.0, [1.0, 2.0, 3.0, 5.0]))
        tracemalloc.start()
        try:
            run = pullback(gc, 2.0, depth=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row.shape for row in run.rows] == [(1,)] * 11
        assert peak < 64 * 1024

    @pytest.mark.parametrize("depth", [1, 6])
    def test_each_coefficient_row_is_read_once(self, d12, monkeypatch, depth):
        # the residual comes from the pass that builds the rows
        calls = []
        row_log2 = GeneralCoefficients.row_log2

        def counted(self, generation):
            calls.append(generation)
            return row_log2(self, generation)

        monkeypatch.setattr(GeneralCoefficients, "row_log2", counted)
        run = pullback(GeneralCoefficients.from_rcm(d12), d12.alpha, depth)
        run.residual_max()
        assert sorted(calls) == list(range(1, depth + 1))


class TestHugeExponents:
    @pytest.mark.parametrize("call, message", [
        ("pullback(GeneralCoefficients.from_rcm(d12), 1.5, depth=BIG)",
         "ResourceLimitError: 2**BIG pull-back nodes exceed"),
        ("ConstantSolution(d12).log2_u_rows(BIG)",
         "ResourceLimitError: 2**BIG nodes exceed"),
        ("dynamics.TruncatedState.zeros(d12, BIG)",
         "ResourceLimitError: 2**BIG nodes exceed"),
        ("dynamics.TruncatedState(d12, BIG, np.zeros(3))",
         "ResourceLimitError: 2**BIG nodes exceed"),
        ("dynamics.flux_terms(d12, BIG, np.zeros(3), np.ones(3, bool))",
         "ResourceLimitError: 2**BIG nodes exceed"),
        ("field.synthesize(ConstantSolution(d12), BIG)",
         "ResourceLimitError: 2**BIG cells exceed"),
        ("field.structure_function(ConstantSolution(d12), BIG, [1.0], (3, 5))",
         "ResourceLimitError: 2**BIG cells exceed"),
        ("lambda_family(0.1, d=BIG)",
         "ResourceLimitError: 2**BIG coefficients exceed"),
        ("lambda_family(1e-7, d=27)",
         "ResourceLimitError: 2**27 coefficients exceed"),
        ("RcmModel.create(BIG, 1.5, [1.0, 2.0])",
         "ValueError: d = BIG needs 2**d coefficients, got 2")],
        ids=["pullback", "log2_u_rows", "zeros", "state", "flux_terms",
             "synthesize", "structure_function", "lambda_family",
             "lambda_family_d27", "RcmModel"])
    def test_a_huge_exponent_is_refused_before_its_size_exists(self, call,
                                                               message):
        # in a child with capped memory: each used to form the size, or
        # allocate it, without bound
        big = str(10**19)
        proc = run_capped(
            "import numpy as np\n"
            "from treeshell import *\n"
            "from treeshell import dynamics, field\n"
            "d12 = RcmModel.create(1, 1.5, [1.0, 2.0])\n"
            "try:\n"
            f"    {call.replace('BIG', big)}\n"
            "except (ValueError, ResourceLimitError) as e:\n"
            "    print(f'{type(e).__name__}: {e}')\n")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith(message.replace("BIG", big))


class TestPullbackAgainstOracle:
    """The column-wise pull-back gives the bits of the left-to-right row
    oracle."""

    @pytest.mark.parametrize("d, depth", [(1, 10), (2, 5), (3, 4)])
    @pytest.mark.parametrize("seed", [0.0, -30.0, 7.25])
    def test_rows_and_residual_same_bits(self, rng, d, depth, seed):
        N, lo, hi = 2**d, -1.25, 0.75
        tables = [rng.uniform(lo, hi, N**g) for g in range(depth + 1)]
        gc = GeneralCoefficients(N, lambda g: tables[g], lo, hi)
        alpha = float(rng.uniform(0.6, 6.0))
        run = pullback(gc, alpha, depth, seed)
        for g in range(depth):
            assert same_bits(run.rows[g],
                             pull_row_oracle(gc, alpha, g, run.rows[g + 1]))
        assert same_bits(run.residual_max(), residual_max_oracle(run))

    @pytest.mark.parametrize("d, depth", [(1, 10), (2, 5), (3, 4)])
    @pytest.mark.parametrize("seed", [0.0, -30.0, 7.25])
    def test_shared_rows_same_bits(self, rng, d, depth, seed):
        model = RcmModel.create(d, float(rng.uniform(0.6, 6.0)),
                                np.exp2(rng.uniform(-1.25, 0.75, 2**d)))
        gc = GeneralCoefficients.from_rcm(model)
        run = pullback(gc, model.alpha, depth, seed)
        for g in range(depth):
            assert same_bits(run.rows[g], pull_row_oracle(
                gc, model.alpha, g, run.rows[g + 1]))
        assert same_bits(run.residual_max(), residual_max_oracle(run))


class TestSharedRows:
    """A shared coefficient row gives the bits of the same map tiled out
    per node: every generation's values are equal, and so are the sums."""

    @pytest.mark.parametrize("d, depth", [(1, 10), (2, 5), (3, 4)])
    def test_shared_and_per_node_maps_agree(self, rng, d, depth):
        for _ in range(10):
            model = RcmModel.create(d, float(rng.uniform(0.6, 6.0)),
                                    np.exp2(rng.uniform(-3.0, 3.0, 2**d)))
            shared = GeneralCoefficients.from_rcm(model)
            per_node = GeneralCoefficients(
                model.N, lambda g: np.resize(shared.row_log2(g), model.N**g),
                shared.log2_min, shared.log2_max)
            seed = float(rng.uniform(-30.0, 30.0))
            one = pullback(shared, model.alpha, depth, seed)
            full = pullback(per_node, model.alpha, depth, seed)
            for row, want in zip(one.rows, full.rows):
                assert row.shape == (1,)
                assert same_bits(np.resize(row, len(want)), want)
            assert same_bits(one.residual_max(), full.residual_max())


class TestDivergenceWitness:
    def test_zero_perturbation_is_the_constant_solution(self, d12_solution):
        w = divergence_witness(d12_solution, 0.0, steps=20)
        assert np.all(w.eps == 0)
        assert np.all(w.log2_u_perturbed == w.log2_u_chain)

    def test_even_step_doubling(self, flat_d1_solution):
        w = divergence_witness(flat_d1_solution, 0.01, steps=60)
        assert w.even_growth_ok()
        n = np.arange(61)
        even = n % 2 == 0
        assert np.all(w.eps[even] >= np.exp2(n[even].astype(float)) * 0.01 - 1e-12)

    def test_partial_sum_growth(self, flat_d1_solution):
        w = divergence_witness(flat_d1_solution, 0.01, steps=60)
        assert w.partial_sum_growth_ok()

    def test_growth_checks_have_no_window(self, flat_d1_solution):
        # the chain is exact, so a witness 0.1% short of a bound fails it;
        # an absolute 1e-9 window accepted both at eps0 = 1e-12, n <= 10
        w = divergence_witness(flat_d1_solution, 1e-12, steps=10)
        n = np.arange(11)
        short = np.where(n % 2 == 0, 1 - 1e-3, 1.0)
        sum_bound = np.exp2(np.maximum(n - 1, 0).astype(float)) * w.eps0
        assert w.even_growth_ok() and w.partial_sum_growth_ok()
        assert not dataclasses.replace(w, eps=w.eps * short).even_growth_ok()
        assert not dataclasses.replace(
            w, partial_sums=sum_bound * short).partial_sum_growth_ok()

    def test_escapes_every_hs(self, d12_solution):
        w = divergence_witness(d12_solution, 0.01, steps=80)
        assert w.violates_every_hs()

    def test_chain_too_short_raises(self, d12_solution):
        w = divergence_witness(d12_solution, 1e-8, steps=40)
        with pytest.raises(ValueError):
            w.violates_every_hs()

    @pytest.mark.parametrize("eps0, steps", [
        (math.nan, 20), (math.inf, 20), (0.01, -1)],
        ids=["eps0 nan", "eps0 inf", "steps -1"])
    def test_invalid_argument_rejected(self, d12_solution, eps0, steps):
        # NaN or inf eps0 gave a NaN chain; negative steps an empty chain,
        # whose even_growth_ok() held vacuously
        with pytest.raises(ValueError):
            divergence_witness(d12_solution, eps0, steps)
