"""Property tests over generated inputs, beside the fixed-seed tests.

Examples are derandomized so every run checks the same inputs, and the
example counts are bounded to keep the suite fast.
"""

import math

import mpmath as mp
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import log2sumexp2_rows_oracle

from treeshell import GeneralCoefficients, RcmModel, pullback
from treeshell import dissipation as dp
from treeshell import spectra
from treeshell.coefficients import log2sumexp2

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

finite = st.floats(-1000.0, 1000.0)
entries = st.one_of(finite, st.just(-math.inf))


def mp_log2sumexp2(x):
    with mp.workdps(50):
        terms = [mp.power(2, mp.mpf(float(v))) for v in x if v != -math.inf]
        return float(mp.log(mp.fsum(terms), 2)) if terms else -math.inf


@st.composite
def models(draw):
    """Models drawn like the suite's random_rcm: alpha in (0.6, 6), forcing
    in (0.3, 3), log deltas in (-1.5, 1.5)."""
    d = draw(st.sampled_from((1, 2, 3)))
    alpha = draw(st.floats(0.6, 6.0))
    forcing = draw(st.floats(0.3, 3.0))
    log_deltas = draw(st.lists(st.floats(-1.5, 1.5), min_size=2**d,
                               max_size=2**d))
    return RcmModel.create(d, alpha, np.exp(log_deltas), forcing)


class TestLog2SumExp2:
    @SETTINGS
    @given(arrays(np.float64, st.integers(1, 30), elements=entries),
           st.sampled_from((0.0, -2000.0, 2000.0)))
    def test_matches_high_precision_reference(self, x, shift):
        # the shift moves 2**x out of double range unless the kernel rescales
        x = x + shift
        want = mp_log2sumexp2(x)
        got = log2sumexp2(x)
        if want == -math.inf:
            assert got == -math.inf
        else:
            assert abs(got - want) <= 1e-12 + 4 * math.ulp(want)

    def test_empty_input_is_minus_inf(self):
        assert log2sumexp2(np.empty(0)) == -math.inf

    @SETTINGS
    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 16)),
                  elements=entries))
    def test_rows_bit_equal_to_one_dimensional_calls(self, x):
        # every row needs a finite entry on the axis path
        x[:, 0] = np.where(np.isinf(x[:, 0]), 0.0, x[:, 0])
        got = log2sumexp2(x, axis=1)
        # each row as a 1-D log-sum-exp summed left to right, the order of
        # every row sum; numpy's own 1-D sum is in that order below 8 entries
        want = np.concatenate([log2sumexp2_rows_oracle(row[None])
                               for row in x])
        assert np.array_equal(got, want)
        if x.shape[1] < 8:
            assert np.array_equal(got, [log2sumexp2(row) for row in x])


class TestModelInvariants:
    @SETTINGS
    @given(models(), st.floats(-5.0, 5.0))
    def test_pullback_solves_the_recursion(self, m, seed):
        depth = {1: 8, 2: 4, 3: 3}[m.d]
        run = pullback(GeneralCoefficients.from_rcm(m), m.alpha, depth,
                       seed=seed)
        assert run.residual_max() <= 1e-12

    @SETTINGS
    @given(models(), st.integers(1, 40))
    def test_fractions_sum_to_one(self, m, n):
        n = {1: n, 2: min(n, 12), 3: min(n, 4)}[m.d]
        assert abs(dp.measure(m, n).total_mass() - 1.0) <= 1e-10

    @SETTINGS
    @given(models(), st.floats(-8.0, 8.0))
    def test_rate_dominates_dimension(self, m, gamma):
        a = m.phi(gamma)
        assert spectra.rate_R(m, a) >= spectra.dim_D(m, a) - 1e-9

    @SETTINGS
    @given(models())
    def test_zeta3(self, m):
        want = min(3.0, m.alpha - m.d / 2)
        assert abs(spectra.zeta(m, 3.0, check_h=False) - want) <= 1e-12


def sigma_range(m):
    return m.coeffs.ell_pos_inf() - m.coeffs.ell_neg_inf()


class TestLegendreStructure:
    """R - D and zeta on non-flat models (sigma range at least 1e-3)."""

    @SETTINGS
    @given(models())
    def test_rate_meets_dimension_at_phi_three_halves(self, m):
        assume(sigma_range(m) >= 1e-3)
        a = m.phi(1.5)
        assert abs(spectra.rate_R(m, a) - spectra.dim_D(m, a)) <= 1e-9

    @SETTINGS
    @given(models(), st.floats(-8.0, 8.0))
    def test_rate_exceeds_dimension_away_from_phi_three_halves(self, m, gamma):
        assume(sigma_range(m) >= 1e-3)
        a = m.phi(gamma)
        assume(abs(a - m.phi(1.5)) >= 0.05 * sigma_range(m))
        assert spectra.rate_R(m, a) - spectra.dim_D(m, a) > 0

    @SETTINGS
    @given(models())
    def test_zeta_is_concave(self, m):
        assume(sigma_range(m) >= 1e-3)
        z = spectra.zeta(m, np.linspace(0.0, 20.0, 201), check_h=False)
        assert np.all(z[2:] - 2 * z[1:-1] + z[:-2] <= 1e-9)
