import json
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_bits

from treeshell import (
    GeneralCoefficients,
    RcmModel,
    RepeatedCoefficients,
    TreeIndex,
    lambda_family,
    model_from_dict,
)
from treeshell.coefficients import _row_reduction, log2sumexp2

mp.mp.dps = 50


def ell_oracle(deltas, s):
    """High-precision evaluation of the log-s-norm, independent of the package."""
    ds = [mp.mpf(float(x)) for x in deltas]
    if s == 0:
        return float(sum(mp.log(x, 2) for x in ds) / len(ds))
    s = mp.mpf(s)
    return float(mp.log(sum(x**s for x in ds) / len(ds), 2) / s)


def phi_oracle(deltas, g):
    ds = [mp.mpf(float(x)) for x in deltas]
    w = [x ** mp.mpf(g) for x in ds]
    z = sum(w)
    return float(sum(wi / z * mp.log(x, 2) for wi, x in zip(w, ds)))


def phi_inverse_bisect(c, a):
    """The bisection phi_inverse of earlier versions, kept as the oracle of
    the Newton iteration: it bisects a grown bracket down to 1e-12."""
    if c.is_flat:
        raise ValueError("phi is constant for a flat model, not invertible")
    lo_lim, hi_lim = c.ell_neg_inf(), c.ell_pos_inf()
    if not lo_lim < a < hi_lim:
        raise ValueError(
            f"target {a} outside the open range ({lo_lim}, {hi_lim}) of phi")
    lo, hi = -1.0, 1.0
    while c.phi(lo) >= a:
        lo *= 2.0
    while c.phi(hi) <= a:
        hi *= 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is one ulp wide: |gamma| is too large
        if c.phi(mid) < a:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dim_from_gamma(c, a, gamma):
    """D(a) = log2 N - gamma (a - ell(gamma)), the formula of spectra.dim_D."""
    return math.log2(c.size) - gamma * (a - c.ell(gamma))


def inversion_cases(rng):
    """(kind, coeffs, targets) for the phi_inverse tests.

    Models drawn like random_rcm, near-flat multisets (log2 delta in
    [0, 1e-6]) and wide ones (log2 delta in [-29, 29]), at N = 2, 4, 8.
    Targets sit at fixed fractions of the phi range (1e-3 to 1 - 1e-3) and
    at phi of the benchmark's tilt grid, gamma = 0 included.
    """
    cases = []
    for kind, draw in (
            ("random_rcm", lambda n: np.exp(rng.uniform(-1.5, 1.5, size=n))),
            ("near_flat", lambda n: np.exp2(rng.uniform(0.0, 1e-6, size=n))),
            ("wide", lambda n: np.exp2(rng.uniform(-29.0, 29.0, size=n)))):
        for i in range(12):
            c = RepeatedCoefficients(draw(2 ** (1 + i % 3)))
            lo, hi = c.ell_neg_inf(), c.ell_pos_inf()
            targets = [lo + (hi - lo) * f for f in np.linspace(1e-3, 1 - 1e-3, 11)]
            targets += [c.phi(float(g)) for g in np.linspace(-8.0, 8.0, 9)]
            cases.append((kind, c, [float(a) for a in targets if lo < a < hi]))
    return cases


# ell near s = 0, where the plain form (1/s) log2 mean 2**(s log2 delta)
# loses about eps/|s| to cancellation (2e-13 at 1e-3); the centred form
# keeps every finite s to 1e-15, up to s = 0.5 and beyond
NEAR_ZERO_S = (-1e-12, 1e-12, 1e-9, math.nextafter(1e-8, 0.0),
               math.nextafter(1e-8, 1.0), 1e-7, 1e-5, 1e-4,
               -1e-3, 1e-3, 3e-3, 1e-2, 0.05, 0.1, 0.5)


class TestEll:
    def test_flat_is_zero(self):
        c = RepeatedCoefficients([1.0, 1.0, 1.0, 1.0])
        for s in (-5.0, -0.3, -1e-12, 0.0, 1e-6, 0.7, 12.0):
            assert c.ell(s) == 0.0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from((2, 4, 8)).flatmap(
        lambda n: st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
    def test_near_zero_matches_mpmath(self, log_deltas):
        deltas = np.exp(log_deltas)
        c = RepeatedCoefficients(deltas)
        for s in NEAR_ZERO_S:
            assert abs(c.ell(s) - ell_oracle(deltas, s)) <= 1e-15, s

    def test_array_matches_scalar_calls(self, rng):
        # zeta_raw's s = p/2 on the spectra p-grid, plus every branch
        s = np.concatenate([np.arange(0.0, 20.0 + 1e-9, 0.1) / 2,
                            [-0.0, 1e-12, -1e-5, 5e-4, -1e-3, 1e-3,
                             math.inf, -math.inf, -7.3, 250.0]])
        coeffs = [lambda_family(lam).coeffs for lam in (0.1, 0.2, 0.2307)]
        coeffs += [RepeatedCoefficients(np.exp(rng.uniform(-1.5, 1.5, size=2**d)))
                   for d in (1, 2, 3) for _ in range(5)]
        for c in coeffs:
            got = c.ell(s)
            assert got.shape == s.shape
            assert np.array_equal(got, [c.ell(float(v)) for v in s])

    def test_known_value(self):
        c = RepeatedCoefficients([1.0, 2.0])
        assert c.ell(1.0) == pytest.approx(math.log2(1.5), abs=1e-15)
        assert c.ell(0.0) == 0.5

    def test_matches_high_precision_oracle(self, rng):
        for _ in range(10):
            deltas = np.exp(rng.uniform(-2, 2, size=4))
            c = RepeatedCoefficients(deltas)
            for s in (-7.3, -1.0, -1e-3, 1e-3, 0.5, 1.5, 9.0):
                assert c.ell(s) == pytest.approx(ell_oracle(deltas, s), abs=1e-12)

    def test_large_arguments_do_not_overflow(self):
        c = RepeatedCoefficients([0.5, 1.0, 2.0, 4.0])
        assert c.ell(200.0) == pytest.approx(2.0, abs=0.05)
        assert c.ell(-200.0) == pytest.approx(-1.0, abs=0.05)
        assert math.isfinite(c.ell(400.0))

    def test_limits(self):
        c = RepeatedCoefficients([0.25, 1.0, 8.0, 2.0])
        assert c.ell_neg_inf() == -2.0
        assert c.ell_pos_inf() == 3.0

    def test_monotone_and_bounded(self, rng):
        deltas = np.exp(rng.uniform(-1, 1, size=8))
        c = RepeatedCoefficients(deltas)
        grid = np.linspace(-20, 20, 401)
        vals = np.array([c.ell(s) for s in grid])
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals.min() >= c.ell_neg_inf() - 1e-12
        assert vals.max() <= c.ell_pos_inf() + 1e-12

    def test_constant_iff_flat(self):
        flat = RepeatedCoefficients([2.0, 2.0])
        assert flat.ell(-3.0) == pytest.approx(flat.ell(5.0), abs=1e-14)
        skew = RepeatedCoefficients([1.0, 2.0])
        assert skew.ell(5.0) > skew.ell(-3.0)

    def test_s_ell_s_is_convex(self, rng):
        deltas = np.exp(rng.uniform(-1.5, 1.5, size=4))
        c = RepeatedCoefficients(deltas)
        grid = np.linspace(-20, 20, 801)
        vals = np.array([s * c.ell(s) for s in grid])
        assert np.all(np.diff(vals, 2) >= -1e-9)


class TestPhi:
    def test_phi_zero_is_ell_zero(self, rng):
        deltas = np.exp(rng.uniform(-1, 1, size=4))
        c = RepeatedCoefficients(deltas)
        assert c.phi(0.0) == pytest.approx(c.ell_zero(), abs=1e-14)

    def test_known_value(self):
        c = RepeatedCoefficients([1.0, 2.0])
        expected = 2**1.5 / (1 + 2**1.5)
        assert c.phi(1.5) == pytest.approx(expected, abs=1e-15)
        assert c.phi(1.5) == pytest.approx(phi_oracle([1.0, 2.0], 1.5), abs=1e-14)

    def test_flat_phi_is_constant(self):
        c = RepeatedCoefficients([3.0, 3.0])
        for g in (-10.0, 0.0, 10.0):
            assert c.phi(g) == pytest.approx(math.log2(3.0), abs=1e-14)

    def test_phi_is_derivative_of_s_ell_s(self, rng):
        deltas = np.exp(rng.uniform(-1, 1, size=8))
        c = RepeatedCoefficients(deltas)
        h = 1e-5
        for g in (-3.0, 0.0, 1.5, 6.0):
            fd = ((g + h) * c.ell(g + h) - (g - h) * c.ell(g - h)) / (2 * h)
            assert c.phi(g) == pytest.approx(fd, abs=1e-6)

    def test_large_gamma_stays_finite(self):
        c = RepeatedCoefficients([1.0, 2.0, 4.0, 8.0])
        assert c.phi(250.0) == pytest.approx(3.0, abs=1e-9)
        assert c.phi(-250.0) == pytest.approx(0.0, abs=1e-9)

    def test_strictly_increasing_iff_non_flat(self):
        skew = RepeatedCoefficients([1.0, 3.0])
        grid = np.linspace(-10, 10, 101)
        vals = np.array([skew.phi(g) for g in grid])
        assert np.all(np.diff(vals) > 0)
        flat = RepeatedCoefficients([3.0, 3.0])
        assert flat.phi(-4.0) == flat.phi(4.0)


class TestPhiInverse:
    def test_round_trip(self):
        c = RepeatedCoefficients([1.0, 2.0])
        assert c.phi_inverse(c.phi(1.5)) == pytest.approx(1.5, abs=1e-10)

    def test_ell_zero_maps_to_zero(self):
        c = RepeatedCoefficients([1.0, 2.0])
        assert c.phi_inverse(c.ell_zero()) == pytest.approx(0.0, abs=1e-10)

    def test_boundary_is_a_domain_error(self):
        c = RepeatedCoefficients([1.0, 2.0])
        with pytest.raises(ValueError):
            c.phi_inverse(c.ell_pos_inf())

    def test_flat_is_a_domain_error(self):
        with pytest.raises(ValueError):
            RepeatedCoefficients([1.0, 1.0]).phi_inverse(0.0)

    def test_round_trip_far_from_zero(self, rng):
        deltas = np.exp(rng.uniform(-1, 1, size=8))
        c = RepeatedCoefficients(deltas)
        for g in (-20.0, -2.0, 0.3, 8.0, 40.0):
            assert c.phi_inverse(c.phi(g)) == pytest.approx(g, abs=1e-8)

    def test_one_ulp_bracket_terminates(self):
        # near-flat multiset: the target needs gamma ~ -1.5e4, where one ulp
        # is wider than the 1e-12 bracket; run apart so a hang fails, not stalls
        import treeshell

        code = ("from treeshell import RcmModel, spectra\n"
                "m = RcmModel.create(1, 1.5, [1, 2**0.000292])\n"
                "lo, hi = m.coeffs.ell_neg_inf(), m.coeffs.ell_pos_inf()\n"
                "a = lo + (hi - lo) / 22\n"
                "g = m.coeffs.phi_inverse(a)\n"
                "print(repr(g), repr(m.phi(g) - a), repr(spectra.dim_D(m, a)))")
        src = os.path.dirname(os.path.dirname(treeshell.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=30, env=env)
        assert proc.returncode == 0, proc.stderr
        gamma, miss, dim = (float(x) for x in proc.stdout.split())
        assert -2e4 < gamma < -1e4
        assert abs(miss) <= 1e-15
        assert 0.0 < dim < 1.0

    def test_dimension_matches_bisection_oracle(self, rng):
        for kind, c, targets in inversion_cases(rng):
            for a in targets:
                want = dim_from_gamma(c, a, phi_inverse_bisect(c, a))
                got = dim_from_gamma(c, a, c.phi_inverse(a))
                assert abs(got - want) <= 1e-11, (kind, c.deltas, a)

    def test_residual_on_random_rcm_models(self, rng):
        for kind, c, _ in inversion_cases(rng):
            if kind != "random_rcm":
                continue
            lo, hi = c.ell_neg_inf(), c.ell_pos_inf()
            for f in np.linspace(1e-3, 1 - 1e-3, 101):
                a = float(lo + (hi - lo) * f)
                assert abs(c.phi(c.phi_inverse(a)) - a) <= 1e-14, (c.deltas, a)

    def test_two_point_closed_form(self):
        # log2 delta = (0, 1): phi(gamma) = 2**gamma / (1 + 2**gamma), so
        # gamma = log2(a / (1 - a)).  Above a ~ 0.98 one ulp of phi moves
        # gamma by more than 1e-14 (the slope ln2 a (1 - a) vanishes), so
        # the grid stops there.
        c = RepeatedCoefficients([1.0, 2.0])
        for a in np.linspace(1e-3, 0.98, 401):
            a = float(a)
            want = mp.log(mp.mpf(a) / (1 - mp.mpf(a)), 2)
            assert abs(c.phi_inverse(a) - want) <= 1e-13, a

    def test_evaluation_count(self, rng, monkeypatch):
        # every phi, phi_derivative and Newton evaluation goes through the
        # one tilted-moment helper, so counting it counts both methods' work
        calls = [0]
        moments = RepeatedCoefficients._tilted_moments

        def counted(self, gamma):
            calls[0] += 1
            return moments(self, gamma)

        monkeypatch.setattr(RepeatedCoefficients, "_tilted_moments", counted)
        per_inversion = {}
        for kind, c, targets in inversion_cases(rng):
            for a in targets:
                calls[0] = 0
                phi_inverse_bisect(c, a)
                oracle = calls[0]
                calls[0] = 0
                c.phi_inverse(a)
                assert calls[0] <= oracle, (kind, c.deltas, a)
                per_inversion.setdefault(kind, []).append(calls[0])
        # near-flat targets spend ~25 calls growing the bracket, as the
        # oracle does; the mean bound is for models of the random_rcm range
        assert np.mean(per_inversion["random_rcm"]) <= 12


class TestPhiDerivative:
    def test_flat_is_zero(self):
        assert RepeatedCoefficients([2.0, 2.0]).phi_derivative(1.0) == 0.0

    def test_hand_variance(self):
        # log2 deltas are {0, 1} with equal weights at gamma = 0
        c = RepeatedCoefficients([1.0, 2.0])
        assert c.phi_derivative(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_finite_difference_consistency(self, rng):
        # the tilt is in base 2, so d(phi)/d(gamma) = ln2 * bit-variance
        deltas = np.exp(rng.uniform(-1, 1, size=4))
        c = RepeatedCoefficients(deltas)
        h = 1e-5
        for g in (-2.0, 0.0, 1.5, 4.0):
            fd = (c.phi(g + h) - c.phi(g - h)) / (2 * h)
            assert c.phi_derivative(g) == pytest.approx(fd / math.log(2), abs=1e-6)
            assert c.phi_derivative(g) > 0


class TestModelTypes:
    def test_model_params_validation(self):
        assert RcmModel.create(3, 2.5, [1.0] * 8).N == 8
        with pytest.raises(ValueError):
            RcmModel.create(0, 2.5, [1.0])
        with pytest.raises(ValueError):
            RcmModel.create(1, -1.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            RcmModel.create(1, 1.0, [1.0, 1.0], forcing=0.0)

    def test_rcm_requires_matching_count(self):
        with pytest.raises(ValueError):
            RcmModel.create(2, 1.5, [1.0, 2.0])
        m = RcmModel.create(2, 1.5, [1.0, 2.0, 3.0, 4.0])
        assert m.N == 4 and not m.is_flat

    def test_positive_deltas_required(self):
        with pytest.raises(ValueError):
            RepeatedCoefficients([1.0, 0.0])

    @pytest.mark.parametrize("bad", [{"alpha": math.inf},
                                     {"forcing": math.inf},
                                     {"deltas": [1.0, math.inf]},
                                     {"deltas": [1.0, math.nan]}])
    def test_non_finite_values_rejected(self, bad):
        args = {"d": 1, "alpha": 1.5, "deltas": [1.0, 2.0], **bad}
        with pytest.raises(ValueError):
            RcmModel.create(**args)

    def test_coefficient_of_uses_last_label(self):
        m = RcmModel.create(1, 1.5, [1.0, 2.0])
        assert m.coefficient_of(TreeIndex.root(2)) == 1.0
        assert m.coefficient_of(TreeIndex.from_labels([1, 2], 2)) == 2.0
        assert m.coefficient_of(TreeIndex.from_labels([2, 1], 2)) == 1.0

    def test_lambda_family(self):
        m = lambda_family(0.2)
        assert m.d == 3 and m.alpha == 2.5
        assert np.allclose(np.log2(m.deltas), 0.2 * np.arange(8), atol=1e-14)
        assert lambda_family(0.0).is_flat

    def test_model_from_dict_both_forms(self):
        m1 = model_from_dict({"d": 1, "alpha": 1.5, "f": 2.0, "deltas": [1, 2]})
        assert m1.forcing == 2.0
        m2 = model_from_dict({"d": 3, "alpha": 2.5, "lambda": 0.1})
        assert m2.N == 8
        with pytest.raises(ValueError):
            model_from_dict({"d": 1, "alpha": 1.5})

    @pytest.mark.parametrize("deltas", ["12", {"1": 0, "2": 0}, 12,
                                        ["1", "2"], [True, 2], None],
                             ids=["str", "dict", "int", "str-items",
                                  "bool-item", "null"])
    def test_model_from_dict_needs_a_list_of_numbers(self, deltas):
        # a string would be read digit by digit, a mapping by its keys
        with pytest.raises(ValueError, match="'deltas' must be a list"):
            model_from_dict({"d": 1, "alpha": 1.5, "deltas": deltas})

    @pytest.mark.parametrize("d", [1.7, True, "2", None, math.nan, math.inf])
    def test_model_from_dict_needs_an_integer_d(self, d):
        # int() would run 1.7 as d = 1
        with pytest.raises(ValueError, match="'d' must be an integer"):
            model_from_dict({"d": d, "alpha": 2.0, "deltas": [1, 2, 3, 5]})

    @pytest.mark.parametrize("d", [2, 2.0])
    def test_model_from_dict_accepts_an_integral_d(self, d):
        m = model_from_dict({"d": d, "alpha": 2.0, "deltas": [1, 2, 3, 5]})
        assert m.d == 2 and type(m.d) is int

    def test_hash_is_stable_and_config_sensitive(self):
        a = RcmModel.create(1, 1.5, [1.0, 2.0]).hash()
        b = RcmModel.create(1, 1.5, [1.0, 2.0]).hash()
        c = RcmModel.create(1, 1.5, [1.0, 2.5]).hash()
        assert a == b != c
        json.dumps({"h": a})  # serialisable


class TestGeneralCoefficients:
    def test_band_checked_on_access(self):
        gc = GeneralCoefficients(2, lambda g, codes: np.full(len(codes), 2.0),
                                 log2_min=-1.0, log2_max=1.0)
        assert gc.bound_L == 2.0
        with pytest.raises(ValueError):
            gc.row_log2(1, np.arange(2))

    def test_root_is_one(self):
        gc = GeneralCoefficients(2, lambda g, codes: np.full(len(codes), 0.5),
                                 log2_min=-1.0, log2_max=1.0)
        assert np.array_equal(gc.row_log2(0, np.arange(1)), [0.0])

    @pytest.mark.parametrize("arity", [1, 3, 6])
    def test_arity_is_a_power_of_two(self, arity):
        with pytest.raises(ValueError):
            GeneralCoefficients(arity, lambda g, codes: np.zeros(len(codes)),
                                log2_min=-1.0, log2_max=1.0)

    def test_from_rcm_matches_model(self, d12):
        gc = GeneralCoefficients.from_rcm(d12)
        for labels in ([1], [2], [1, 2], [2, 1, 1]):
            j = TreeIndex.from_labels(labels, 2)
            got = gc.row_log2(j.generation, np.array([j.code]))
            assert got[0] == math.log2(d12.coefficient_of(j))
        row = gc.row_log2(2, np.arange(4))
        assert np.allclose(row, [0.0, 1.0, 0.0, 1.0])


class TestRowReduction:
    """The column-by-column reduction has the bits of numpy's per-row
    reduce at every width, signed zeros included."""

    @staticmethod
    def rows(rng, width):
        # magnitudes over 40 binades, so the summation order shows in the
        # last bits; then rows of -0.0, of mixed zeros and of a zero sum
        x = rng.standard_normal((64, width)) * np.exp2(
            rng.integers(-20, 20, (64, width)))
        x[0] = -0.0
        x[1] = rng.choice([0.0, -0.0], width)
        x[2, ::2] = 1.5
        x[2, 1::2] = -1.5
        return x

    @pytest.mark.parametrize("ufunc", [np.add, np.maximum],
                             ids=["add", "maximum"])
    @pytest.mark.parametrize("width", range(1, 17))
    def test_bits_of_numpy_reduce(self, rng, width, ufunc):
        x = self.rows(rng, width)
        out = np.empty(len(x))
        calls = _row_reduction(ufunc, x, out)
        for f, a, b, o in calls:
            f(a, b, out=o)
        assert same_bits(out, ufunc.reduce(x, axis=1))
        # built once, the calls read the rows as they are when rerun
        x[3:] = self.rows(rng, width)[3:]
        for f, a, b, o in calls:
            f(a, b, out=o)
        assert same_bits(out, ufunc.reduce(x, axis=1))

    def test_log2sumexp2_reduces_the_last_axis_only(self):
        x = np.zeros((2, 3))
        assert same_bits(log2sumexp2(x, axis=-1), np.full(2, np.log2(3.0)))
        with pytest.raises(ValueError, match="last axis"):
            log2sumexp2(x, axis=0)
