import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeshell import RcmModel, lambda_family
from treeshell import spectra
from treeshell.coefficients import RepeatedCoefficients

from oracles import dim_D_mpmath, entropy_max_oracle

# mpmath (50 dps) reference values for deltas=(1,2), d=1, alpha=3/2
DELTA_D12 = 0.8285576078854362
ZETA_PRIME0_D12 = 0.3955839318132747
PHI32_D12 = 0.7387961250362586


class TestZeta:
    def test_zeta3_is_min_three_alpha_minus_half_d(self, rng):
        from conftest import random_rcm
        for _ in range(30):
            m = random_rcm(rng, allow_flat=True)
            expected = min(3.0, m.alpha - m.d / 2)
            assert spectra.zeta(m, 3.0, check_h=False) == pytest.approx(
                expected, abs=1e-12)

    def test_flat_physical_alpha_gives_k41(self):
        for d in (1, 2, 3):
            m = RcmModel.create(d, d / 2 + 1, [1.7] * 2**d)
            p = np.arange(0.0, 20.0001, 0.25)
            assert np.abs(spectra.zeta(m, p, check_h=False) - p / 3).max() <= 1e-12

    def test_zeta_zero_is_zero(self, d12):
        assert spectra.zeta(d12, 0.0) == 0.0

    def test_negative_p_rejected(self, d12):
        with pytest.raises(ValueError):
            spectra.zeta(d12, -1.0)

    @pytest.mark.parametrize("fn", ["zeta", "zeta_raw"])
    @pytest.mark.parametrize("p", [math.nan, math.inf, [1.0, math.nan]],
                             ids=["nan", "inf", "array-with-nan"])
    def test_non_finite_p_rejected(self, d12, fn, p):
        # a NaN p passed the p < 0 check and gave a NaN exponent
        with pytest.raises(ValueError):
            getattr(spectra, fn)(d12, p)

    def test_warns_outside_unit_interval(self):
        m = lambda_family(0.5)  # h < 0 for this lambda
        with pytest.warns(RuntimeWarning):
            spectra.zeta(m, 2.0)

    def test_clipping_at_small_p(self):
        # steep raw branch: zeta = p near 0 when zeta'(0) > 1
        m = RcmModel.create(1, 6.0, [1.0, 2.0])
        assert spectra.zeta_derivative(m, 0.0) > 1
        assert spectra.zeta(m, 0.05, check_h=False) == pytest.approx(0.05)
        raw = spectra.zeta_raw(m, 0.05)
        assert raw > 0.05


class TestZetaDerivative:
    def test_flat_value(self, flat_d3):
        assert spectra.zeta_derivative(flat_d3, 0.0) == pytest.approx(
            1.0 / 3.0, abs=1e-14)

    def test_d12_value(self, d12):
        assert spectra.zeta_derivative(d12, 0.0) == pytest.approx(
            ZETA_PRIME0_D12, abs=1e-13)

    def test_matches_finite_difference_of_raw_branch(self, d12):
        h = 1e-4
        for p in (1e-4, 1.0, 3.0, 10.0):
            fd = (spectra.zeta_raw(d12, p + h) - spectra.zeta_raw(d12, max(p - h, 0.0))) \
                / (h + min(p, h))
            assert spectra.zeta_derivative(d12, p) == pytest.approx(fd, abs=1e-6)


class TestAsymptote:
    def test_flat_intercept_zero(self, flat_d3):
        slope, intercept = spectra.asymptote(flat_d3)
        assert slope == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert intercept == 0.0

    def test_lambda_family_intercept_three(self):
        for lam in (0.1, 0.2, 0.2307):
            _, intercept = spectra.asymptote(lambda_family(lam))
            assert intercept == 3.0

    def test_numeric_limit(self):
        # the raw branch approaches h p + intercept; by p = 200 the gap of
        # the lam = 0.2307 model is below 1e-6 (second-largest ratio 2^-0.2307)
        m = lambda_family(0.2307)
        slope, intercept = spectra.asymptote(m)
        gap = spectra.zeta_raw(m, 200.0) - slope * 200.0 - intercept
        assert abs(gap) <= 1e-6

    def test_exact_finite_p_gap(self):
        # gap = -log2(1 + sum_{w != max} (delta_w/delta_max)^{p/2} / m)
        for lam in (0.1, 0.2):
            m = lambda_family(lam)
            slope, intercept = spectra.asymptote(m)
            p = 200.0
            ratios = m.deltas / m.deltas.max()
            s = np.sum(np.sort(ratios)[:-1] ** (p / 2))
            expected = -math.log2(1.0 + s)
            gap = spectra.zeta_raw(m, p) - slope * p - intercept
            assert gap == pytest.approx(expected, abs=1e-9)

    def test_multiplicity_counting(self):
        m = RcmModel.create(2, 2.0, [1.0, 2.0, 2.0, 0.5])
        assert m.coeffs.top_multiplicity(math.inf) == 2
        _, intercept = spectra.asymptote(m)
        assert intercept == pytest.approx(2.0 - 1.0, abs=1e-14)

    def test_near_tie_is_not_a_tie(self):
        # log2 delta = (0, 1.4e-13): one weight at each end, however close,
        # so the intercept is d - log2 1
        m = RcmModel.create(1, 1.5, [1.0, 1.0 + 1e-13])
        assert m.coeffs.top_multiplicity(math.inf) == 1
        assert m.coeffs.top_multiplicity(-math.inf) == 1
        assert spectra.asymptote(m)[1] == 1.0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 3)),
           st.integers(0, 7), st.sampled_from((0.0, 1e-13, 1e-11)))
    def test_intercept_is_d_less_D_at_the_top_end(self, seed, d, repeats,
                                                   gap):
        # one multiplicity rule: the m of the intercept is the one D reads at
        # a = log2 max delta, also when the largest delta repeats exactly,
        # or nearly (1e-13 or 1e-11 below it in log2)
        from conftest import random_rcm
        m = random_rcm(np.random.default_rng(seed), allow_flat=True,
                       d_choices=(d,))
        deltas = m.deltas.copy()
        top = int(np.argmax(deltas))
        others = [i for i in range(len(deltas)) if i != top][:repeats]
        deltas[others] = deltas[top] * 2.0**-gap
        m = RcmModel.create(d, m.alpha, deltas, m.forcing)
        top_end = m.coeffs.ell_pos_inf()
        assert spectra.asymptote(m)[1] == m.d - spectra.dim_D(m, top_end)


class TestRateAndDimension:
    def test_flat_values(self, flat_d3):
        ell0 = flat_d3.coeffs.ell_zero()
        assert spectra.dim_D(flat_d3, ell0) == 3.0
        assert spectra.dim_delta(flat_d3) == pytest.approx(3.0, abs=1e-14)

    def test_d12_delta(self, d12):
        assert spectra.dim_delta(d12) == pytest.approx(DELTA_D12, abs=1e-13)
        # Delta coincides with D at the concentration point phi(3/2)
        assert spectra.dim_D(d12, d12.phi(1.5)) == pytest.approx(
            DELTA_D12, abs=1e-10)
        assert spectra.rate_R(d12, d12.phi(1.5)) == pytest.approx(
            DELTA_D12, abs=1e-13)

    def test_delta_strictly_below_d_iff_non_flat(self, rng):
        from conftest import random_rcm
        for _ in range(20):
            m = random_rcm(rng, allow_flat=True)
            if m.is_flat:
                assert spectra.dim_delta(m) == pytest.approx(m.d, abs=1e-12)
            else:
                assert spectra.dim_delta(m) < m.d - 1e-12

    def test_R_dominates_D_with_equality_only_at_phi32(self, d12):
        lo, hi = d12.coeffs.ell_neg_inf(), d12.coeffs.ell_pos_inf()
        a_star = d12.phi(1.5)
        grid = np.linspace(lo + 1e-6, hi - 1e-6, 1000)
        gaps = np.array([spectra.rate_R(d12, a) - spectra.dim_D(d12, a)
                         for a in grid])
        assert gaps.min() >= -1e-9
        near = np.abs(gaps) <= 1e-9
        spacing = grid[1] - grid[0]
        assert np.all(np.abs(grid[near] - a_star) <= spacing)
        # exact equality at the concentration point itself
        assert spectra.rate_R(d12, a_star) - spectra.dim_D(d12, a_star) \
            == pytest.approx(0.0, abs=1e-9)

    # log2 delta = c + spread * u with u_0 = 0, u_1 = 1: near-flat multisets
    # far from 0 are where D = log2 N - gamma (a - ell(gamma)) lost digits;
    # a spread down to 1e-14 puts every a within 1e-12 of an end, and c = 0
    # and c = -spread put an end at 0, where the logit start's ratio leaves
    # the doubles 1 ulp inside
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from((2, 4, 8)).flatmap(lambda n: st.tuples(
        st.one_of(st.sampled_from(("min 0", "max 0")), st.floats(-30.0, 30.0)),
        st.floats(-14.0, math.log10(60.0)),
        st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))))
    @example(("min 0", math.log10(60.0), []))  # 5e-324 / 60 rounds to 0
    @example(("max 0", math.log10(60.0), []))  # 60 / 5e-324 rounds to inf
    def test_dim_D_matches_mpmath(self, case):
        offset, log10_spread, inner = case
        spread = 10.0**log10_spread
        offset = {"min 0": 0.0, "max 0": -spread}.get(offset, offset)
        u = np.array([0.0, 1.0] + inner)
        c = RepeatedCoefficients(np.exp2(offset + spread * u))
        lo, hi = c.ell_neg_inf(), c.ell_pos_inf()
        fractions = (1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
                     1 - 1e-3, 1 - 1e-6)
        points = [lo + (hi - lo) * f for f in fractions]
        for k in (1, 2, 1000):  # k ulps inside each end
            above, below = lo, hi
            for _ in range(k):
                above = math.nextafter(above, hi)
                below = math.nextafter(below, lo)
            points += [above, below]
        for a in points:
            if lo < a < hi:
                want = dim_D_mpmath(c.log2_deltas, a)
                got = c.dim_D(a)
                assert abs(got - want) <= 1e-11, (c.log2_deltas.tolist(), a)

    @pytest.mark.parametrize("eps, f, want", [
        (1e-10, 1e-3, 0.0114078), (1e-13, 0.3, 0.881291)])
    def test_dim_D_inside_a_near_flat_range(self, eps, f, want):
        # the whole range is below 1e-12 wide, and D still follows the
        # tilt inside it
        c = RepeatedCoefficients([1.0, 1.0 + eps])
        lo, hi = c.ell_neg_inf(), c.ell_pos_inf()
        a = lo + (hi - lo) * f
        assert c.dim_D(a) == pytest.approx(want, abs=1e-6)
        assert abs(c.dim_D(a) - dim_D_mpmath(c.log2_deltas, a)) <= 1e-11

    def test_dim_D_is_an_end_multiplicity_only_at_the_end(self):
        c = RepeatedCoefficients([1.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-13])
        lo, hi = c.ell_neg_inf(), c.ell_pos_inf()
        assert c.dim_D(lo) == c.dim_D(hi) == 1.0
        # the midpoint is the untilted mean, where D = log2 4
        assert c.dim_D(0.5 * (lo + hi)) == pytest.approx(2.0, abs=1e-12)

    # the Legendre pair: zeta_raw(p) = p h(a) + d - D(a) at a = phi(p/2),
    # h(a) = (alpha - d/2)/3 + (ell(3/2) - a)/2 the local Holder exponent
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 3)),
           st.booleans(), st.floats(0.0, 20.0))
    def test_zeta_is_the_legendre_transform_of_D(self, seed, d, flat, p):
        from conftest import random_rcm
        m = random_rcm(np.random.default_rng(seed), d_choices=(d,))
        if flat:
            m = RcmModel.create(d, m.alpha, [m.deltas[0]] * 2**d, m.forcing)
        a = m.phi(p / 2)
        h = (m.alpha - m.d / 2) / 3 + (m.ell(1.5) - a) / 2
        got = p * h + m.d - spectra.dim_D(m, a)
        assert abs(got - spectra.zeta_raw(m, p)) <= 1e-11

    def test_endpoints_use_degenerate_compositions(self):
        m = RcmModel.create(2, 2.0, [1.0, 1.0, 2.0, 4.0])
        lo, hi = m.coeffs.ell_neg_inf(), m.coeffs.ell_pos_inf()
        assert spectra.dim_D(m, lo) == pytest.approx(1.0)   # log2(mult of min) = 1
        assert spectra.dim_D(m, hi) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            spectra.dim_D(m, hi + 0.1)


class TestEntropyOracle:
    def test_unconstrained_max_when_feasible(self):
        c = RepeatedCoefficients([1.0, 2.0])
        # sigma of the uniform point is 0.5, so the constrained max is H = 1
        assert entropy_max_oracle(c, 0.5) == pytest.approx(1.0, abs=1e-8)

    def test_matches_closed_form_at_phi32(self, d12):
        got = entropy_max_oracle(d12.coeffs, PHI32_D12)
        assert got == pytest.approx(DELTA_D12, abs=1e-5)

    def test_vertex_value(self):
        c = RepeatedCoefficients([1.0, 2.0])
        assert entropy_max_oracle(c, c.ell_pos_inf()) == pytest.approx(
            0.0, abs=1e-9)

    @pytest.mark.parametrize("deltas", [
        [1.0, 2.0],
        [1.0, 1.7, 3.1],
        [0.5, 1.0, 2.0, 2.0],
    ])
    def test_oracle_agrees_with_closed_form(self, deltas):
        c = RepeatedCoefficients(deltas)
        lo, hi = c.ell_neg_inf(), c.ell_pos_inf()
        for frac in np.linspace(0.08, 0.92, 8):
            a = lo + (hi - lo) * float(frac)
            closed = c.dim_D(a)
            grid = entropy_max_oracle(c, a)
            assert grid == pytest.approx(closed, abs=1e-5)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            entropy_max_oracle(RepeatedCoefficients([1.0] * 8), 0.0)


class TestReferenceModels:
    def test_all_pass_through_three_one(self):
        for name in spectra.REFERENCE_MODELS:
            assert spectra.reference_zeta(name, 3.0, mu=0.2, D=2.8) \
                == pytest.approx(1.0, abs=1e-14)

    def test_log_normal_hand_value(self):
        assert spectra.reference_zeta("log_normal", 6.0, mu=0.2) \
            == pytest.approx(1.8, abs=1e-14)

    def test_she_leveque_origin(self):
        assert spectra.reference_zeta("she_leveque", 0.0) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            spectra.reference_zeta("alpha_model", 1.0)


class TestFrischParisi:
    def test_flat_physical(self):
        for d in (1, 2, 3):
            m = RcmModel.create(d, d / 2 + 1, [1.0] * 2**d)
            assert spectra.frisch_parisi_residual(m) <= 1e-12

    def test_d12(self, d12):
        assert spectra.frisch_parisi_residual(d12) <= 1e-10

    def test_lambda_family(self):
        assert spectra.frisch_parisi_residual(lambda_family(0.2)) <= 1e-10

    def test_random_models_at_physical_alpha(self, rng):
        for _ in range(20):
            d = int(rng.choice([1, 2, 3]))
            deltas = np.exp(rng.uniform(-1, 1, 2**d))
            m = RcmModel.create(d, d / 2 + 1, deltas)
            assert spectra.frisch_parisi_residual(m) <= 1e-10


class TestShapeProperties:
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.2, 0.2307])
    def test_concavity_and_monotonicity(self, lam):
        m = lambda_family(lam)
        p = np.arange(0.0, 40.0001, 0.05)
        z = spectra.zeta(m, p, check_h=False)
        assert np.all(np.diff(z, 2) <= 1e-9)
        # every figure model satisfies the max/mean sufficient condition
        tilted = m.deltas**1.5
        assert tilted.max() / tilted.mean() < 2
        assert np.all(np.diff(z) >= -1e-9)

    def test_lam02_shape_and_rate_gap_on_grids(self, lam02):
        # zeta on [0, 20] step 0.1; R - D on 101 points across the sigma
        # range, padded by 1e-6 of its width
        p = np.arange(0.0, 20.0 + 1e-9, 0.1)
        z = spectra.zeta(lam02, p, check_h=False)
        assert z[0] == 0.0
        assert np.all(np.isfinite(z))
        assert np.all(np.diff(z, 2) <= 1e-9) and np.all(np.diff(z) >= -1e-9)
        lo, hi = lam02.coeffs.ell_neg_inf(), lam02.coeffs.ell_pos_inf()
        pad = (hi - lo) * 1e-6
        a = np.linspace(lo + pad, hi - pad, 101)
        D = np.array([spectra.dim_D(lam02, float(x)) for x in a])
        assert np.all(spectra.rate_R(lam02, a) - D >= -1e-9)

    def test_relabelling_invariance(self, rng):
        # spectra depend on the multiset only, not the label assignment
        deltas = np.exp(rng.uniform(-1, 1, 4))
        m1 = RcmModel.create(2, 2.0, deltas)
        m2 = RcmModel.create(2, 2.0, deltas[::-1])
        p = np.linspace(0, 10, 21)
        assert np.allclose(spectra.zeta(m1, p, check_h=False),
                           spectra.zeta(m2, p, check_h=False), atol=1e-12)
        assert spectra.dim_delta(m1) == pytest.approx(spectra.dim_delta(m2),
                                                      abs=1e-12)


def test_no_warning_inside_unit_interval(d12):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectra.zeta(d12, 2.0)  # h ~ 0.146, inside (0, 1): must stay silent


def test_flat_d3_shape_and_dimension(flat_d3):
    p = np.arange(0.0, 20.0 + 1e-9, 0.1)
    z = spectra.zeta(flat_d3, p, check_h=False)
    assert np.all(np.diff(z, 2) <= 1e-9) and np.all(np.diff(z) >= -1e-9)
    # a flat multiset has one level set, sigma = ell_0, of full dimension
    assert spectra.dim_D(flat_d3, flat_d3.coeffs.ell_zero()) == 3.0
