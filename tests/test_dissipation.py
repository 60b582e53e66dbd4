import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from treeshell import ConstantSolution, RcmModel, lambda_family
from treeshell import dissipation as dp
from treeshell import dynamics as dyn
from treeshell import spectra
from treeshell.tree import ResourceLimitError

from conftest import heap_index, random_rcm, same_bits, subtree_mask
from oracles import (TreeIndex, coefficient_of, compositions_by_cuts,
                     dim_D_mpmath, enumerate_log2_F, log2_F, match_atoms,
                     measure_by_rows, measure_from_enumeration, sigma_of,
                     u_of_node)

PHI32_D12 = 0.7387961250362586


def lse2(a):
    a = np.asarray(a, dtype=float)
    m = a.max()
    return m + np.log2(np.exp2(a - m).sum())


def grid_tail_rate(model, lo, hi, grid=4001):
    """inf[R - D] over the band's complement by a dense grid: the oracle of
    the closed form, sampling the same closed segments, both ends included."""
    cs = model.coeffs
    a_min, a_max = cs.ell_neg_inf(), cs.ell_pos_inf()
    cands = []
    if lo > a_min:
        cands.append(np.linspace(a_min, min(lo, a_max), grid))
    if hi < a_max:
        cands.append(np.linspace(max(hi, a_min), a_max, grid))
    a = np.concatenate(cands)
    vals = spectra.rate_R(model, a) \
        - np.array([spectra.dim_D(model, float(x)) for x in a])
    return float(vals.min())


def rate_gap_mpmath(model, a):
    """R(a) - D(a) at 40 digits, taking the floats log2 delta and a as
    exact: R from the power mean of 2**(3/2 log2 delta), D from
    ``dim_D_mpmath``."""
    x = model.coeffs.log2_deltas
    with mp.workdps(40):
        mean = mp.fsum(mp.power(2, 1.5 * mp.mpf(float(v))) for v in x) / len(x)
        rate = model.d + mp.log(mean, 2) - 1.5 * mp.mpf(float(a))
        return float(rate - dim_D_mpmath(x, a))


def band_around_phi32(model, below, above):
    c = model.phi(1.5)
    return c - below, c + above


class TestFractions:
    def test_flat_fraction_is_uniform(self, flat_d3):
        for n in (1, 3, 5):
            j = TreeIndex(8, n, 0)
            assert log2_F(flat_d3, j) == pytest.approx(-3.0 * n, abs=1e-12)

    def test_unit_sum_by_enumeration(self, d12):
        for n in range(1, 13):
            total = lse2(enumerate_log2_F(d12, n))
            assert abs(total) <= 1e-10

    def test_unit_sum_random_models(self, rng):
        from conftest import random_rcm
        for _ in range(10):
            m = random_rcm(rng, allow_flat=True, d_choices=(1, 2))
            total = lse2(enumerate_log2_F(m, 6))
            assert abs(total) <= 1e-10

    def test_rate_identity(self, d12, rng):
        # (1/n) log2 F_j + R(sigma_j) = 0 exactly
        for _ in range(50):
            n = int(rng.integers(1, 12))
            j = TreeIndex(2, n, int(rng.integers(0, 2**n)))
            lhs = log2_F(d12, j) / n + spectra.rate_R(d12, sigma_of(d12, j))
            assert abs(lhs) <= 1e-12

    def test_closed_form_matches_flux_definition(self, d12, rng):
        # dual route: F from the formula vs F from 2 c_j u_par^2 u_j / (2 f^2 u_root)
        sol = ConstantSolution(d12)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            j = TreeIndex(2, n, int(rng.integers(0, 2**n)))
            c_j = coefficient_of(d12, j) * 2.0 ** (d12.alpha * n)
            flux = 2 * c_j * u_of_node(sol, j.parent()) ** 2 * u_of_node(sol, j)
            denom = 2 * d12.forcing**2 * u_of_node(sol, TreeIndex.root(2))
            assert 2.0 ** log2_F(d12, j) == pytest.approx(flux / denom,
                                                          rel=1e-11)


class TestSigma:
    def test_flat_sigma_is_ell_zero(self, flat_d3, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            j = TreeIndex(8, n, int(rng.integers(0, 8**n)))
            assert sigma_of(flat_d3, j) == flat_d3.coeffs.ell_zero() == 0.0

    def test_hand_value(self, d12):
        j = TreeIndex.from_labels([2, 2, 2], 2)
        assert sigma_of(d12, j) == 1.0

    def test_root_rejected(self, d12):
        with pytest.raises(ValueError):
            sigma_of(d12, TreeIndex.root(2))

    def test_depends_only_on_composition(self, d12):
        a = TreeIndex.from_labels([1, 2, 2, 1], 2)
        b = TreeIndex.from_labels([2, 1, 1, 2], 2)
        assert sigma_of(d12, a) == sigma_of(d12, b)


class TestCompositionsMatrix:
    """The lattice is (parts, atoms), C-order, of the narrowest unsigned
    dtype holding n; its transpose is the oracle's (atoms, parts) rows."""

    @pytest.mark.parametrize("parts", range(1, 9))
    def test_matches_cut_loop_oracle(self, parts):
        for n in range(0, {1: 40, 2: 40, 3: 30, 4: 20}.get(parts, 10)):
            got = dp._compositions_matrix(n, parts)
            assert got.dtype == np.min_scalar_type(n) == np.uint8
            assert got.flags.c_contiguous
            assert np.array_equal(got.T, compositions_by_cuts(n, parts)), (
                n, parts)

    def test_two_parts_first_part_descends(self):
        assert dp._compositions_matrix(3, 2).tolist() == [
            [3, 2, 1, 0], [0, 1, 2, 3]]

    def test_bulk_sizes_match_oracle(self):
        for n, parts in ((100, 4), (16, 8)):
            got = dp._compositions_matrix(n, parts)
            assert got.shape == (parts, math.comb(n + parts - 1, parts - 1))
            assert np.array_equal(got.T, compositions_by_cuts(n, parts))

    @pytest.mark.parametrize("n, parts, dtype", [
        (255, 3, np.uint8), (256, 3, np.uint16), (255, 2, np.uint8),
        (256, 2, np.uint16), (65535, 2, np.uint16), (65536, 2, np.uint32),
        (2**40, 1, np.uint64)])
    def test_dtype_edges_hold_every_part(self, n, parts, dtype):
        # the remainders are a cumulative sum taken modulo the dtype's
        # range: at its edge every part must still come out exact
        got = dp._compositions_matrix(n, parts)
        assert got.dtype == dtype
        assert np.array_equal(got.T, compositions_by_cuts(n, parts))


class TestMeasure:
    def test_flat_collapses_to_one_atom(self, flat_d3):
        mu = dp.measure(flat_d3, 7)
        assert mu.atoms == 1
        assert mu.sigma[0] == 0.0
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_binomial_count(self, d12):
        mu = dp.measure(d12, 4)
        # composition (2, 2): C(4, 2) = 6 nodes
        i = int(np.where((mu.counts == [2, 2]).all(axis=1))[0][0])
        assert 2.0 ** mu.log2_count[i] == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("n", [16, 100, 400, 5000, 2**20])
    def test_log2_multinomial_matches_exact(self, n, rng):
        # two-part rows (every one up to n = 5000; past it, those with a part
        # below 600, across the Stirling cut-off, and 100 at random) and
        # random rows of 3, 4 and 8 parts by cut points
        groups = [dp._compositions_matrix(n, 2).T]
        if n > 5000:
            k = np.concatenate([np.arange(600), rng.integers(0, n + 1, 100)])
            groups[0] = groups[0][np.concatenate([k, n - k])]
        for parts in (3, 4, 8):
            cuts = np.sort(rng.integers(0, n + 1, size=(40, parts - 1)), axis=1)
            groups.append(np.diff(cuts, prepend=0, append=n, axis=1))
        with mp.workdps(50):
            ln_factorial = functools.lru_cache(None)(
                lambda k: mp.loggamma(k + 1))
            tol = 4 * math.ulp(float(ln_factorial(n) / mp.log(2)))
            for counts in groups:
                got = dp._log2_multinomial(n, counts.T)
                for row, value in zip(counts, got):
                    exact = (ln_factorial(n) - mp.fsum(
                        ln_factorial(int(c)) for c in row)) / mp.log(2)
                    assert abs(value - float(exact)) <= tol, row

    def test_total_mass_one_up_to_400(self, d12):
        for n in (1, 7, 50, 400):
            mu = dp.measure(d12, n)
            assert abs(lse2(mu.log2_mass)) <= 1e-10

    @pytest.mark.parametrize("deltas,d,n", [
        ([1.0, 2.0], 1, 12),
        ([1.0, 2.0, 2.0, 3.0], 2, 8),   # repeated value exercises multiplicity folding
        ([0.5, 1.0, 2.0, 4.0], 2, 8),
    ])
    def test_lattice_matches_enumeration_atomwise(self, deltas, d, n):
        m = RcmModel.create(d, d / 2 + 1, deltas)
        lat = dp.measure(m, n)
        enu = measure_from_enumeration(m, n)
        at = match_atoms(lat, enu)
        assert lat.atoms == enu.atoms
        assert np.array_equal(lat.counts, enu.counts[at])
        assert np.abs(lat.sigma - enu.sigma[at]).max() <= 1e-12
        assert np.abs(lat.log2_count - enu.log2_count[at]).max() <= 1e-12
        assert np.abs(lat.log2_mass - enu.log2_mass[at]).max() <= 1e-12

    def test_d12_measure_is_a_tilted_binomial(self, d12):
        # for deltas (1,2) the atom masses are exactly Binomial(n, phi(3/2)):
        # mass(k) = C(n,k) theta^k (1-theta)^(n-k); independent scipy oracle
        from scipy.stats import binom

        theta = d12.phi(1.5)
        for n in (5, 50, 200):
            mu = dp.measure(d12, n)
            k = mu.counts[:, 1]
            oracle = binom.pmf(k, n, theta)
            assert np.abs(2.0**mu.log2_mass - oracle).max() <= 1e-13

    def test_sigma_within_coefficient_range(self, lam02):
        mu = dp.measure(lam02, 20)
        assert mu.sigma.min() >= lam02.coeffs.ell_neg_inf() - 1e-12
        assert mu.sigma.max() <= lam02.coeffs.ell_pos_inf() + 1e-12

    def test_lattice_budget(self, lam02):
        with pytest.raises(ResourceLimitError):
            dp.measure(lam02, 400)  # 8 distinct values: C(407,7) atoms

    def test_relabelling_invariance(self, rng):
        # the measure depends on the multiset only
        deltas = np.exp(rng.uniform(-1, 1, 4))
        a = dp.measure(RcmModel.create(2, 2.0, deltas), 9)
        b = dp.measure(RcmModel.create(2, 2.0, deltas[::-1]), 9)
        assert np.array_equal(a.counts, b.counts)
        assert np.abs(a.log2_mass - b.log2_mass).max() <= 1e-12

    def test_interval_covering_range_rejected(self, d12):
        with pytest.raises(ValueError):
            dp.theoretical_tail_rate(d12, -1.0, 2.0)

    def test_stirling_sandwich(self, rng):
        # |(1/n) log2 multinomial - H| <= N log2(n+1) / n on random compositions
        for _ in range(50):
            N = int(rng.choice([2, 3, 4, 8]))
            n = int(rng.integers(2, 201))
            cuts = np.sort(rng.integers(0, n + 1, size=N - 1))
            counts = np.diff(np.concatenate([[0], cuts, [n]])).astype(np.int64)
            log2c = (gammaln(n + 1) - gammaln(counts + 1).sum()) / math.log(2)
            p = counts / n
            H = -np.sum(np.where(p > 0, p * np.log2(np.where(p > 0, p, 1)), 0))
            assert log2c / n <= H + 1e-12
            assert log2c / n >= H - N * math.log2(n + 1) / n - 1e-12


def _row_oracle_cases():
    rng = np.random.default_rng(34)
    for d, n in ((1, 300), (2, 40), (3, 9), (1, 57), (2, 23), (3, 12)):
        yield random_rcm(rng, d_choices=(d,)), n
    # repeated values: exact log2 multiplicities, then inexact ones (3 and
    # 5), whose products and sums round
    yield RcmModel.create(2, 2.0, [1.0, 2.0, 2.0, 3.0]), 60
    yield RcmModel.create(3, 2.5, [1, 1, 1, 1, 2, 2, 3, 5]), 20
    yield RcmModel.create(3, 2.5, [1, 1, 1, 2, 2, 2, 3, 3]), 40
    yield RcmModel.create(3, 2.5, [1, 1, 1, 2, 2, 2, 2, 2]), 300
    # more than 8 distinct values (numpy's row reduce, two row blocks), and
    # four repeated ones with multiplicities 3, 5, 6 and 2
    yield RcmModel.create(4, 3.0, np.exp(rng.uniform(-1, 1, 16))), 5
    yield RcmModel.create(4, 3.0, [1] * 3 + [2] * 5 + [3] * 6 + [4] * 2), 12
    # eight distinct values with inexact log2 multiplicities (3 and 2),
    # three row blocks of the multiplicity product
    yield RcmModel.create(4, 3.0, [1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
                                   7, 8]), 10
    yield RcmModel.create(3, 2.5, [1.5] * 8), 7
    yield RcmModel.create(1, 1.5, [0.7, 0.7]), 1000
    # n at each dtype edge: uint8 | uint16 | uint32
    for n in (255, 256, 65535, 65536):
        yield RcmModel.create(1, 1.5, [1.0, 3.0]), n
    for n in (255, 256):
        yield RcmModel.create(2, 2.0, [1.0, 2.0, 2.0, 3.0]), n


class TestMeasureColumns:
    """measure on the (parts, atoms) lattice of narrow columns against the
    (atoms, parts) int64 rows it replaced, field by field, to the bit."""

    @pytest.mark.parametrize("model, n", list(_row_oracle_cases()))
    def test_every_field_matches_the_row_oracle(self, model, n):
        got = dp.measure(model, n)
        want = measure_by_rows(model, n)
        assert got.n == want.n
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.multiplicities, want.multiplicities)
        assert got.counts.shape == want.counts.shape
        assert np.array_equal(got.counts, want.counts)
        for field in ("sigma", "log2_count", "log2_node_F", "log2_mass"):
            assert same_bits(getattr(got, field), getattr(want, field)), field

    @pytest.mark.parametrize("n", [16, 255, 256, 65536])
    def test_counts_are_the_transposed_narrow_lattice(self, n):
        model = lambda_family(0.2, d=3, alpha=2.5) if n == 16 \
            else RcmModel.create(1, 1.5, [1.0, 2.0])
        counts = dp.measure(model, n).counts
        assert counts.dtype == np.min_scalar_type(n)
        assert counts.T.flags.c_contiguous
        assert (counts.sum(axis=1) == n).all()

    def test_traced_peak_stays_below_ten_columns(self):
        # the (atoms, parts) int64 rows and their float copies peaked at
        # about 20 float64 columns of the atoms
        model = lambda_family(0.2, d=3, alpha=2.5)
        column = 8 * math.comb(16 + 7, 7)
        dp.measure(model, 16)
        tracemalloc.start()
        try:
            dp.measure(model, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * column

    def test_one_part_needs_no_factorial_table(self):
        # the lone composition (n) has multinomial 1: no table of n + 1
        # entries (8 TB here) is formed
        model = RcmModel.create(2, 2.0, [1.5] * 4)
        mu = dp.measure(model, 2**40)
        assert mu.atoms == 1 and mu.counts.tolist() == [[2**40]]
        assert mu.log2_count.tolist() == [2.0 * 2**40]
        assert mu.sigma[0] == pytest.approx(math.log2(1.5), rel=1e-15)
        with pytest.raises(ValueError, match="fit in int64"):
            dp.measure(model, 2**63)


class TestMassAndConcentration:
    def test_flat_interval_containing_ell0(self, flat_d3):
        mu = dp.measure(flat_d3, 9)
        assert mu.mass_in(-0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert mu.mass_in(0.5, 1.5) == 0.0

    def test_boundary_atoms_excluded(self, d12):
        mu = dp.measure(d12, 4)
        # sigma atoms are k/4; the open interval (0.25, 0.75) keeps k in {2}
        inside = mu.mass_in(0.25, 0.75)
        expected = 2.0 ** mu.log2_mass[(mu.sigma > 0.25) & (mu.sigma < 0.75)].item()
        assert inside == pytest.approx(expected, rel=1e-14)

    def test_mass_tends_to_one(self, d12):
        band = (PHI32_D12 - 0.1, PHI32_D12 + 0.1)
        curve = dp.concentration_curve(d12, band, [50, 100, 200, 400])
        assert np.all(np.diff(curve.mass_in) > 0)
        assert curve.mass_in[-1] > 0.9999
        assert 1 - curve.mass_in[-1] < 1 - curve.mass_in[0]

    def test_repeated_n_rejected_before_measuring(self, d12, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("measured before the n-list check")

        monkeypatch.setattr(dp, "measure", fail)
        with pytest.raises(ValueError):
            dp.concentration_curve(d12, (0.3, 1.5), [20, 20])

    def test_empirical_rates_against_theory(self, d12):
        # frozen behaviour measured with the exact lattice: the single-point
        # rate at n=400 overshoots inf[R-D] by ~24% (log n / n prefactor),
        # the curve-slope rate lands within ~10%
        band = (PHI32_D12 - 0.1, PHI32_D12 + 0.1)
        curve = dp.concentration_curve(d12, band, [200, 400])
        lam = curve.theoretical_rate
        assert lam == pytest.approx(0.0348796, abs=2e-4)
        assert abs(curve.point_rate[-1] - lam) / lam < 0.30
        assert abs(curve.slope_rate[-1] - lam) / lam < 0.15

    def test_theoretical_rate_positive_iff_band_interior(self, d12):
        band = (PHI32_D12 - 0.05, PHI32_D12 + 0.05)
        assert dp.theoretical_tail_rate(d12, *band) > 0

    def test_rate_gap_equals_binomial_kl(self, d12):
        # with deltas (1,2) the gap R - D reduces to the binomial relative
        # entropy a log2(a/theta) + (1-a) log2((1-a)/(1-theta)) at
        # theta = phi(3/2); an independent check of the phi-inverse route
        theta = d12.phi(1.5)
        for a in np.linspace(0.05, 0.95, 19):
            gap = spectra.rate_R(d12, a) - spectra.dim_D(d12, float(a))
            kl = a * math.log2(a / theta) \
                + (1 - a) * math.log2((1 - a) / (1 - theta))
            assert gap == pytest.approx(kl, abs=1e-10)


class TestTailRateClosedForm:
    # the full grid costs ~8000 dim_D calls; the README band keeps it, the
    # other cases use coarser grids, which still contain the segment ends
    @pytest.mark.parametrize("lam", [0.1, 0.2, 0.2307])
    def test_lambda_family_matches_grid(self, lam):
        m = lambda_family(lam, alpha=2.5)
        band = band_around_phi32(m, 0.1, 0.1)
        assert dp.theoretical_tail_rate(m, *band) \
            == grid_tail_rate(m, *band, grid=401)

    def test_readme_band_matches_full_grid(self, d12):
        band = band_around_phi32(d12, 0.1, 0.1)
        assert dp.theoretical_tail_rate(d12, *band) == grid_tail_rate(d12, *band)

    @pytest.mark.parametrize("below,above", [(0.1, 0.1), (0.3, 0.25)])
    def test_d2_matches_grid(self, below, above):
        m = RcmModel.create(2, 2.0, [1.0, 2.0, 3.0, 5.0])
        band = band_around_phi32(m, below, above)
        assert dp.theoretical_tail_rate(m, *band) \
            == grid_tail_rate(m, *band, grid=401)

    def test_random_models_match_grid(self, rng):
        from conftest import random_rcm
        for _ in range(20):
            m = random_rcm(rng)
            width = m.coeffs.ell_pos_inf() - m.coeffs.ell_neg_inf()
            band = band_around_phi32(m, rng.uniform(0.01, 0.3) * width,
                                     rng.uniform(0.01, 0.3) * width)
            assert dp.theoretical_tail_rate(m, *band) \
                == grid_tail_rate(m, *band, grid=101)

    @pytest.mark.parametrize("band", [
        (PHI32_D12 - 0.1, 5.0),
        (-5.0, PHI32_D12 + 0.1),
        (1e-12, 5.0),  # the lower segment is [0, 1e-12]
    ])
    def test_one_sided_and_edge_bands_match_grid(self, d12, band):
        assert dp.theoretical_tail_rate(d12, *band) \
            == grid_tail_rate(d12, *band, grid=401)

    @pytest.mark.parametrize("deltas, lower, f, want", [
        ((1.0, 2.0), True, 1e-12, 1.9367517953970184),
        ((1.0, 2.0), False, 1e-12, None),
        ((1.0, 2.0, 3.0, 5.0), True, 1e-10, None),
        ((1.0, 2.0, 3.0, 5.0), False, 1e-10, None),
        ((1.0, 1.0 + 1e-10), True, 1e-3, 0.98859224237)])
    def test_band_edge_near_a_range_end_is_the_edge(self, deltas, lower, f,
                                                    want):
        # the band's one edge sits a fraction f of the sigma range from an
        # end, inside (a_max - a_min) * 1e-9 in the first four cases; the
        # infimum is R - D at the edge itself, also on the last case's
        # near-flat range, which is below 1e-12 wide
        m = RcmModel.create(len(deltas).bit_length() - 1, 1.5, deltas)
        a_min, a_max = m.coeffs.ell_neg_inf(), m.coeffs.ell_pos_inf()
        edge = a_min + (a_max - a_min) * f if lower \
            else a_max - (a_max - a_min) * f
        band = (edge, 5.0) if lower else (-5.0, edge)
        got = dp.theoretical_tail_rate(m, *band)
        assert got == pytest.approx(rate_gap_mpmath(m, edge), abs=1e-12)
        if want is not None:
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("band", [(0.1, 0.3), (0.8, 5.0)])
    def test_band_excluding_phi32_has_rate_zero(self, d12, band):
        # the exact infimum is attained at phi(3/2); the grid only nears it
        assert dp.theoretical_tail_rate(d12, *band) == 0.0
        assert 0.0 <= grid_tail_rate(d12, *band) <= 1e-6


class TestLln:
    def test_flat_is_exact(self, flat_d3):
        rep = dp.lln_sample(flat_d3, 100, 50, seed=1)
        assert rep.sigma_mean == 0.0
        assert rep.log_ratio_rate_mean == pytest.approx(0.0, abs=1e-12)
        assert rep.log_ratio_rate_limit == 0.0

    def test_sample_mean_near_ell_zero(self, d12):
        rep = dp.lln_sample(d12, 10_000, 1000, seed=7)
        assert abs(rep.sigma_mean - rep.ell_zero) <= 3 * rep.standard_error

    def test_log_ratio_rate(self, d12):
        rep = dp.lln_sample(d12, 10_000, 1000, seed=7)
        assert rep.log_ratio_rate_limit < 0  # non-flat: density collapses
        assert abs(rep.log_ratio_rate_mean - rep.log_ratio_rate_limit) \
            <= 0.05 * abs(rep.log_ratio_rate_limit)

    def test_deterministic_given_seed(self, d12):
        a = dp.lln_sample(d12, 1000, 100, seed=3)
        b = dp.lln_sample(d12, 1000, 100, seed=3)
        assert a == b

    @pytest.mark.parametrize("n,samples", [(0, 10), (10, 0)])
    def test_empty_sample_rejected(self, d12, n, samples):
        with pytest.raises(ValueError):
            dp.lln_sample(d12, n, samples)

    def test_label_counts_are_checked_before_sampling(self, d12, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled before the budget check")

        monkeypatch.setattr(np.random, "default_rng", fail)
        # 2**25 + 1 samples of N = 2 labels: one count over 2**26
        with pytest.raises(ResourceLimitError,
                           match="67108866 values exceed the 67108864 budget"):
            dp.lln_sample(d12, 10, 2**25 + 1)


def generations_subtree(arity, depth):
    nodes = [TreeIndex.root(arity)]
    frontier = nodes[:]
    for _ in range(depth):
        frontier = [c for j in frontier for c in j.offspring()]
        nodes += frontier
    return nodes


class TestFluxTerms:
    """Boundary fluxes of subtree masks at the constant solution."""

    @staticmethod
    def fluxes(model, nodes, depth):
        u = dyn.constant_values(ConstantSolution(model), depth)
        return dyn.flux_terms(model, depth, u, subtree_mask(nodes, depth))

    def test_root_subtree_recovers_generation_one(self, d12):
        inflow, outflow = self.fluxes(d12, [TreeIndex.root(2)], 1)
        assert np.count_nonzero(outflow) == 2
        assert outflow.sum() == pytest.approx(inflow, rel=1e-12)
        assert (outflow / inflow).sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_generations(self, d12):
        for depth in (1, 3, 5):
            inflow, outflow = self.fluxes(d12, generations_subtree(2, depth),
                                          depth + 1)
            assert (outflow / inflow).sum() == pytest.approx(1.0, abs=1e-12)

    def test_ragged_random_subtree(self, d12, rng):
        nodes = {TreeIndex.root(2)}
        frontier = list(nodes)
        while len(nodes) < 100 and frontier:
            j = frontier.pop(int(rng.integers(0, len(frontier))))
            if rng.random() < 0.7:
                kids = j.offspring()
                nodes.update(kids)
                frontier.extend(kids)
        depth = max(j.generation for j in nodes) + 1
        inflow, outflow = self.fluxes(d12, nodes, depth)
        fractions = outflow / inflow
        assert fractions.sum() == pytest.approx(1.0, abs=1e-12)
        # partition property: boundary fractions equal the closed-form F
        boundary = [k for j in nodes for k in j.offspring() if k not in nodes]
        assert np.count_nonzero(outflow) == len(boundary)
        for k in boundary:
            assert fractions[heap_index(k)] == pytest.approx(
                2.0 ** log2_F(d12, k), rel=1e-11)

    def test_non_prefix_closed_rejected(self, d12):
        bad = [TreeIndex.root(2), TreeIndex.from_labels([1, 2], 2)]
        with pytest.raises(ValueError, match="not prefix-closed"):
            self.fluxes(d12, bad, 3)

    def test_missing_root_rejected(self, d12):
        with pytest.raises(ValueError, match="must contain the root"):
            self.fluxes(d12, [TreeIndex.from_labels([1], 2)], 2)


class TestWideTrees:
    def test_lattice_matches_enumeration_at_n8(self):
        # eight distinct values: every composition carries multiplicity one
        from treeshell import lambda_family

        m = lambda_family(0.2, alpha=2.5)
        lat = dp.measure(m, 4)
        enu = measure_from_enumeration(m, 4)
        at = match_atoms(lat, enu)
        assert lat.atoms == enu.atoms == 330
        assert np.array_equal(lat.counts, enu.counts[at])
        assert np.abs(lat.log2_mass - enu.log2_mass[at]).max() <= 1e-12
        assert lat.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_unit_mass_for_lambda_family(self):
        from treeshell import lambda_family

        m = lambda_family(0.1, alpha=2.5)
        for n in (1, 3, 6):
            assert dp.measure(m, n).total_mass() == pytest.approx(1.0, abs=1e-11)
