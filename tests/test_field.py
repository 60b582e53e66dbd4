import math
import sys
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshell import ConstantSolution, RcmModel, lambda_family
from treeshell import dissipation as dp
from treeshell import field as fd
from treeshell import spectra
from treeshell.tree import ResourceLimitError

from conftest import random_rcm, same_bits
from oracles import (TreeIndex, coefficient_l2, haar_log2_S_oracle,
                     log2_u_of_node, path_of_point, sigma_of, u_of_node,
                     xi_from_generation_sums)

H_D12 = 0.14558393181327468
# log2 S_p agreement of the Haar tree sum with the grid's direct mean
TREE_TOL = 1e-12


def synthesize_oracle(solution, depth, mother):
    """The wavelet sum by full-resolution accumulation, one generation at a
    time: the reference for the coarse-grid terms of ``synthesize``."""
    model = solution.model
    dim = model.d
    side = 2**depth
    grid = np.zeros((side,) * dim)
    q = solution.q
    vals = np.full((1,) * dim, model.forcing * 2.0**q)
    child_factor = np.empty((2,) * dim)
    for bits in range(model.N):
        idx = tuple((bits >> a) & 1 for a in range(dim))
        child_factor[idx] = 2.0**q * math.sqrt(model.coeffs.deltas[bits])
    for g in range(depth):
        block = side // 2**g
        pattern = fd._mother_pattern(dim, block, mother) * 2.0 ** (dim * g / 2.0)
        view = grid.reshape((2**g, block) * dim)
        expand_vals, expand_pat = vals, pattern
        for a in range(dim):
            expand_vals = np.expand_dims(expand_vals, 2 * a + 1)
            expand_pat = np.expand_dims(expand_pat, 2 * a)
        view += expand_vals * expand_pat
        vals_e, fact_e = vals, child_factor
        for a in range(dim):
            vals_e = np.expand_dims(vals_e, 2 * a + 1)
            fact_e = np.expand_dims(fact_e, 2 * a)
        vals = (vals_e * fact_e).reshape((2 ** (g + 1),) * dim)
    return grid


SYNTH_MODELS = [
    ([1.0, 2.0], 1, 11),
    ([1.0, 2.0, 0.5, 1.5], 2, 6),
    ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 3, 4),
]
# the depths past SYNTH_MODELS', where a Haar generation's half-slices run
# along up to 2**13, 2**7 and 2**4 cubes
DEEP_SYNTH_DEPTHS = [(1, 12, 14), (2, 7, 8), (3, 5, 5)]
# each a bool, a non-integer or a negative value
BAD_INTEGERS = [True, 2.5, -1, math.nan]


class TestSynthesize:
    def test_root_only_field_is_the_mother_step(self, d12_solution):
        wf = fd.synthesize(d12_solution, depth=1)
        amp = u_of_node(d12_solution, TreeIndex.root(2))
        assert np.array_equal(wf.grid, [amp, -amp])

    def test_zero_mean(self, d12_solution):
        wf = fd.synthesize(d12_solution, depth=12)
        assert abs(wf.grid.mean()) <= 1e-12

    def test_grid_l2_matches_coefficient_sum(self, d12_solution):
        # Haar wavelets are orthonormal and piecewise constant on the grid,
        # so the match is exact, far inside the 1% contract
        wf = fd.synthesize(d12_solution, depth=14)
        l2 = coefficient_l2(d12_solution, 14)
        grid_l2 = np.sqrt(np.mean(wf.grid**2))
        assert grid_l2 == pytest.approx(l2, rel=1e-12)
        assert grid_l2 == pytest.approx(l2, rel=0.01)

    def test_d3_smoke(self):
        m = lambda_family(0.2)
        sol = ConstantSolution(m)
        wf = fd.synthesize(sol, depth=7)
        assert wf.grid.shape == (128, 128, 128)
        assert np.sqrt(np.mean(wf.grid**2)) == pytest.approx(
            coefficient_l2(sol, 7), rel=1e-12)
        assert abs(wf.grid.mean()) <= 1e-12

    def test_memory_budget(self, d12_solution):
        with pytest.raises(ResourceLimitError):
            fd.synthesize(d12_solution, depth=30)

    def test_d2_matches_per_wavelet_oracle(self):
        # slow oracle: evaluate each product-Haar wavelet from its cube
        # geometry and sum; pins the fast synthesis to the cube labelling
        m = RcmModel.create(2, 2.0, [1.0, 2.0, 0.5, 1.5])
        sol = ConstantSolution(m)
        M = 3
        wf = fd.synthesize(sol, depth=M)
        side = 2**M
        xs = (np.arange(side) + 0.5) / side
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        grid = np.zeros((side, side))
        for g in range(M):
            for code in range(4**g):
                j = TreeIndex(4, g, code)
                cube = j.cube()
                o = [float(v) for v in cube.origin]
                s = float(cube.side)
                inside = (X >= o[0]) & (X < o[0] + s) \
                    & (Y >= o[1]) & (Y < o[1] + s)
                sign_x = np.where(X < o[0] + s / 2, 1.0, -1.0)
                sign_y = np.where(Y < o[1] + s / 2, 1.0, -1.0)
                grid += u_of_node(sol, j) * 2.0**g * sign_x * sign_y * inside
        assert np.abs(grid - wf.grid).max() <= 1e-12

    def test_hat_mother_is_continuous(self, d12_solution):
        wf = fd.synthesize(d12_solution, depth=12, mother="hat")
        jumps = np.abs(np.diff(wf.grid))
        # largest cell-to-cell jump shrinks with resolution for a continuous field
        wf2 = fd.synthesize(d12_solution, depth=14, mother="hat")
        assert np.abs(np.diff(wf2.grid)).max() < jumps.max()

    def test_unknown_mother(self, d12_solution):
        with pytest.raises(ValueError):
            fd.synthesize(d12_solution, depth=4, mother="daubechies")

    @pytest.mark.parametrize("depth", BAD_INTEGERS)
    def test_depth_must_be_a_non_negative_integer(self, d12_solution, depth):
        # -1 gave a one-cell field of depth -1, 2.5 a TypeError
        with pytest.raises(ValueError, match="'depth' must be an integer"):
            fd.synthesize(d12_solution, depth)

    @pytest.mark.parametrize("mother", fd.MOTHERS)
    @pytest.mark.parametrize("deltas,d,max_depth", SYNTH_MODELS)
    def test_grid_bytes_match_full_resolution_oracle(self, deltas, d,
                                                     max_depth, mother):
        sol = ConstantSolution(RcmModel.create(d, d / 2 + 1, deltas, 0.7))
        for depth in range(1, max_depth + 1):
            got = fd.synthesize(sol, depth, mother).grid
            want = synthesize_oracle(sol, depth, mother)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), depth

    @pytest.mark.parametrize("mother", fd.MOTHERS)
    @pytest.mark.parametrize("d, lo, hi", DEEP_SYNTH_DEPTHS)
    def test_grid_bytes_match_where_the_halves_run_long(self, d, lo, hi,
                                                        mother):
        deltas = next(m[0] for m in SYNTH_MODELS if m[1] == d)
        sol = ConstantSolution(RcmModel.create(d, d / 2 + 1, deltas, 0.7))
        for depth in range(lo, hi + 1):
            got = fd.synthesize(sol, depth, mother).grid
            want = synthesize_oracle(sol, depth, mother)
            assert got.tobytes() == want.tobytes(), depth

    @pytest.mark.parametrize("d, depth, mother, limit", [
        (1, 20, "haar", 2.1), (2, 10, "haar", 2.1), (3, 7, "haar", 2.1),
        (1, 20, "hat", 3.75)])
    def test_traced_peak_over_the_final_grid(self, d, depth, mother, limit):
        # each generation's term takes the grid so far by one add in
        # place: a Haar synthesis holds its last term, the grid before it and
        # the last node values (2x at d = 1), with no refined copy of the
        # coarse grid (3.02x, 2.52x, 2.26x and the hat's 4.00x with one)
        deltas = np.exp(np.linspace(-1.0, 1.0, 2**d))
        sol = ConstantSolution(RcmModel.create(d, d / 2 + 1, deltas))
        fd.synthesize(sol, 2, mother)
        tracemalloc.start()
        try:
            grid = fd.synthesize(sol, depth, mother).grid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * grid.nbytes


TREE_PS = [0.5, 1.0, 2.0, 2.5, 3.0, 4.0]


def direct_log2_S(solution, depth, ps, ms, mother="haar"):
    """log2 of the mean of |increment|^p over the synthesized grid."""
    grid = fd.synthesize(solution, depth, mother).grid
    out = np.empty((len(ps), len(ms)))
    for k, m in enumerate(ms):
        off = 2 ** (depth - int(m))
        diff = np.abs(grid[off:] - grid[:-off])
        for i, p in enumerate(ps):
            out[i, k] = math.log2(float(np.mean(diff**p)))
    return out


class TestStructureFunction:
    def test_zero_field_is_flagged(self, d12_solution):
        wf = fd.synthesize(d12_solution, depth=10)
        dead = fd.WaveletField(d12_solution, 10, "haar",
                               np.zeros_like(wf.grid))
        est = fd._grid_structure_function(dead, np.array([2.0]), 3, 6)
        assert est.degenerate[0]
        assert math.isnan(est.zeta_hat[0])

    def test_fit_recovers_exact_power_law(self, d12_solution):
        # a smooth field has S_p(r) ~ r^p; the estimator must recover p
        M = 12
        x = (np.arange(2**M) + 0.5) / 2**M
        field = fd.WaveletField(d12_solution, M, "haar",
                                np.cos(2 * np.pi * x))
        est = fd._grid_structure_function(field, np.array([2.0]), 6, 8)
        assert est.zeta_hat[0] == pytest.approx(2.0, abs=0.01)

    def test_haar_fits_at_m16_frozen_values(self, flat_d1_solution):
        # measured behaviour of the default estimator (Haar, window
        # [3, M-4]); the jump-dominated transient keeps these far below
        # min(p, xi_p) -- see the README's Known limitation section
        est = fd.structure_function(flat_d1_solution, 16, [1.0, 2.0, 3.0])
        assert est.fit_window == (3, 12)
        assert np.allclose(est.zeta_hat, [0.2703, 0.3821, 0.3125], atol=5e-3)

    def test_hat_flat_fits_within_ten_percent(self, flat_d1_solution):
        # with a continuous mother the same estimator does approach the
        # closed form: flat model within 5% at M=16 for p in {1,2,3}
        est = fd.structure_function(flat_d1_solution, 16, [1.0, 2.0, 3.0],
                                    mother="hat")
        targets = np.array([1.0 / 3, 2.0 / 3, 1.0])
        assert np.all(np.abs(est.zeta_hat - targets) / targets < 0.10)

    def test_requires_one_dimensional_field(self):
        sol = ConstantSolution(lambda_family(0.1))
        for mother in fd.MOTHERS:
            with pytest.raises(ValueError, match="defined for d = 1"):
                fd.structure_function(sol, 10, [2.0], mother=mother)

    def test_empty_window_rejected(self, d12_solution):
        with pytest.raises(ValueError):
            fd.structure_function(d12_solution, 8, [2.0], m_range=(5, 3))

    def test_cell_budget_checked_before_any_grid(self, d12_solution,
                                                 monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built a grid before the budget check")

        monkeypatch.setattr(fd, "_generations", fail)
        with pytest.raises(ResourceLimitError, match="67108864 budget"):
            fd.structure_function(d12_solution, 27, [2.0])

    @pytest.mark.parametrize("mother", fd.MOTHERS)
    def test_matches_direct_mean_of_powers(self, d12_solution, mother):
        # the hat's S_p averages the synthesized grid's increments, so it
        # gives the bits of the direct mean wherever both take x**p, every p
        # but 3 and 4, whose powers are products; the Haar tree sum takes
        # another route, and every row agrees to 1e-12 in log2 S_p
        M = 12
        est = fd.structure_function(d12_solution, M, TREE_PS,
                                    m_range=(1, M - 1), mother=mother)
        want = direct_log2_S(d12_solution, M, TREE_PS, est.m, mother)
        pow_rows = ~np.isin(TREE_PS, [3.0, 4.0])
        if mother == "hat":
            assert np.array_equal(est.log2_S[pow_rows], want[pow_rows])
        assert np.abs(est.log2_S - want).max() <= TREE_TOL

    @pytest.mark.parametrize("mother", fd.MOTHERS)
    def test_overflowing_p_is_flagged_without_warnings(self, d12_solution,
                                                       mother):
        # S_p with p = 1e300 leaves the double range: its row is degenerate,
        # and numpy's overflow and inf * 0 warnings stay inside the library
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = fd.structure_function(d12_solution, 12, [1e300, 2.0],
                                        mother=mother)
        assert est.degenerate.tolist() == [True, False]

    @pytest.mark.parametrize("depth", BAD_INTEGERS)
    def test_depth_must_be_an_integer(self, d12_solution, depth):
        with pytest.raises(ValueError, match="'depth' must be an integer"):
            fd.structure_function(d12_solution, depth, [2.0])

    @pytest.mark.parametrize("bad", BAD_INTEGERS)
    def test_fit_window_must_be_integers(self, d12_solution, bad):
        # a float window gave a TypeError from the row slices
        for window in ((bad, 9), (3, bad)):
            with pytest.raises(ValueError, match="'m_range' must be an"):
                fd.structure_function(d12_solution, 12, [2.0],
                                      m_range=window)

    @pytest.mark.parametrize("window", [5, (5,), (3, 6, 9), "36"])
    def test_fit_window_must_be_a_pair(self, d12_solution, window):
        # a bare 5 gave a TypeError from the unpacking
        with pytest.raises(ValueError, match="'m_range' must be a pair"):
            fd.structure_function(d12_solution, 12, [2.0], m_range=window)


class TestForcingFactorsOut:
    """S_p scales as f^p exactly, so zeta_hat and log2 S_p - p log2 f do not
    depend on f.  The tolerances were fixed before the first run: 1e-12 in
    zeta_hat, and 1e-9 in log2 S_p, where p log2 f reaches 7200 (ulp 9e-13)."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.floats(-900.0, 900.0), st.floats(-4.0, 4.0),
           st.sampled_from(fd.MOTHERS))
    def test_estimate_does_not_depend_on_f(self, log2_f, log2_delta, mother):
        deltas = [1.0, 2.0**log2_delta]
        ps = [1.0, 3.0, 8.0]
        unit = ConstantSolution(RcmModel.create(1, 1.5, deltas))
        forced = ConstantSolution(RcmModel.create(1, 1.5, deltas, 2.0**log2_f))
        want = fd.structure_function(unit, 10, ps, mother=mother)
        got = fd.structure_function(forced, 10, ps, mother=mother)
        shift = np.array(ps)[:, None] * math.log2(forced.model.forcing)
        assert np.abs(got.log2_S - shift - want.log2_S).max() <= 1e-9
        assert np.abs(got.zeta_hat - want.zeta_hat).max() <= 1e-12


class TestHaarTreeSum:
    """The Haar S_p summed over the tree against the direct mean of powers
    over the synthesized depth-M grid, at TREE_TOL in log2 S_p."""

    @pytest.mark.parametrize("M", [8, 12, 16])
    @pytest.mark.parametrize("deltas", [(1.0, 1.0), (1.0, 2.0), (1.0, 5.0),
                                        (5.0, 1.0)])
    def test_full_window_matches_direct_mean(self, deltas, M):
        sol = ConstantSolution(RcmModel.create(1, 1.5, list(deltas)))
        est = fd.structure_function(sol, M, TREE_PS, m_range=(1, M - 1))
        want = direct_log2_S(sol, M, TREE_PS, est.m)
        assert np.abs(est.log2_S - want).max() <= TREE_TOL

    def test_default_window_at_m20_matches_direct_mean(self, d12_solution):
        est = fd.structure_function(d12_solution, 20, TREE_PS)
        assert est.fit_window == (3, 16)
        want = direct_log2_S(d12_solution, 20, TREE_PS, est.m)
        assert np.abs(est.log2_S - want).max() <= TREE_TOL

    def test_builds_no_depth_m_grid(self, d12_solution, monkeypatch):
        # one refinement to depth M - m_lo feeds every scale; the depth-M
        # synthesis is never run
        depths = []
        generations = fd._generations

        def spy(solution, depth, mother):
            depths.append((depth, mother))
            return generations(solution, depth, mother)

        def fail(*args, **kwargs):
            raise AssertionError("synthesized the depth-M grid")

        monkeypatch.setattr(fd, "_generations", spy)
        monkeypatch.setattr(fd, "synthesize", fail)
        est = fd.structure_function(d12_solution, 14, [1.0, 2.0])
        assert depths == [(11, "haar")]
        assert np.all(np.isfinite(est.zeta_hat))

    def test_the_block_is_a_power_of_two_from_numpys_pairwise_leaf(self):
        # numpy sums 128 doubles or fewer in one unrolled leaf and halves a
        # longer row, so only such a block is a subtree of the row's sum
        block = fd._BLOCK_CELLS
        assert block >= 128 and block & (block - 1) == 0

    @pytest.mark.parametrize("block", [128, 256, 2**10, 2**17])
    @pytest.mark.parametrize("seed", range(4))
    def test_cell_blocks_keep_the_bits_of_the_whole_row(self, monkeypatch,
                                                        block, seed):
        # a small block spreads each scale's cells over several blocks, a
        # large one holds all of G: each row sum, its block sums added in
        # pairs, and the weighted sum over rows keep the bits of the
        # one-matrix form
        rng = np.random.default_rng(seed)
        model = RcmModel.create(1, float(rng.uniform(0.8, 3.0)),
                                np.exp(rng.uniform(-1.5, 1.5, 2)))
        sol = ConstantSolution(model)
        depth = int(rng.integers(8, 14))
        m_lo = int(rng.integers(1, 3))
        p_arr = np.concatenate((rng.uniform(0.2, 5.0, 3), [1.0, 2.0]))
        monkeypatch.setattr(fd, "_BLOCK_CELLS", block)
        est = fd._haar_structure_function(sol, depth, p_arr, m_lo, depth - 1)
        want = haar_log2_S_oracle(sol, depth, p_arr, m_lo, depth - 1)
        assert same_bits(est.log2_S, want)

    def test_a_scale_over_eight_cell_blocks_keeps_the_bits(self,
                                                           d12_solution):
        # at depth 19 with m_lo = 3 the deepest G has 2**16 cells, eight
        # blocks whose sums are added in three rounds of pairs
        assert 2**16 // fd._BLOCK_CELLS >= 8
        p_arr = np.array([1.0, 2.0, 3.0, 0.7])
        est = fd._haar_structure_function(d12_solution, 19, p_arr, 3, 15)
        want = haar_log2_S_oracle(d12_solution, 19, p_arr, 3, 15)
        assert same_bits(est.log2_S, want)

    def test_traced_peak_stays_within_a_few_deepest_fields(self,
                                                           d12_solution):
        # the one-matrix form peaks at 9.5x the deepest field's bytes at
        # depth 20; the blocks of rows at 4.5x, the cell blocks at 2.0x
        depth = 20
        deepest = 8 * 2 ** (depth - 3)
        fd.structure_function(d12_solution, depth, [1.0, 2.0, 3.0])
        tracemalloc.start()
        try:
            fd.structure_function(d12_solution, depth, [1.0, 2.0, 3.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * deepest

    def test_traced_peak_holds_one_increment_buffer(self, d12_solution):
        # a block's increments A + B G and their abs in two buffers peaked
        # at 4.51x the deepest field's bytes at depth 20; built in one, 3.51x;
        # on 2**13-cell blocks, 2.01x
        depth = 20
        deepest = 8 * 2 ** (depth - 3)
        fd.structure_function(d12_solution, depth, [1.0, 2.0, 3.0])
        tracemalloc.start()
        try:
            fd.structure_function(d12_solution, depth, [1.0, 2.0, 3.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.75 * deepest


def pow_log2_S(solution, depth, p_arr, m_lo, m_hi):
    """log2 S_p of the Haar tree sum as the library took it before its
    power rule: every power by numpy's x**p, one (m, len(G)) matrix of
    increments per scale."""
    v0 = solution.model.forcing * 2.0**solution.q
    k0, k1 = 2.0 ** (solution.q + 0.5) * np.sqrt(solution.model.coeffs.deltas)
    P, Q = k1 * k0 ** np.arange(m_hi), k0 * k1 ** np.arange(m_hi)
    A = v0 * (np.concatenate(([0.0], np.cumsum(P + Q)[:-1])) - 2.0)
    B = P - Q
    log2_S = np.full((len(p_arr), m_hi - m_lo + 1), -np.inf)
    for D, G in enumerate(fd._generations(solution, depth - m_lo, "haar"), 1):
        m = depth - D
        if m > m_hi:
            continue
        incs = np.abs(B[:m, None] * G + A[:m, None])
        for i, p in enumerate(p_arr):
            weights = (k0**p + k1**p) ** np.arange(m - 1, -1, -1.0)
            s = weights @ (incs**p).sum(axis=1) / (2**depth - 2**D)
            log2_S[i, m - m_lo] = math.log2(s) if s > 0 else -math.inf
    return log2_S


class TestPowerRule:
    """The powers of ``_power_sums`` against mpmath, and the S_p they give
    against numpy's x**p."""

    # ulps from the rounded power, fixed before the first run: the square
    # is rounded once, (x x) x carries two roundings and (x x)(x x) three
    ULPS = {1.0: 0, 2.0: 0, 3.0: 2, 4.0: 3}

    @pytest.mark.parametrize("p", sorted(ULPS))
    def test_products_within_fixed_ulps_of_mpmath(self, p):
        rng = np.random.default_rng(int(p))
        x = np.concatenate((10.0 ** rng.uniform(-300.0, 300.0, 2000),
                            [1e-300, 1e300, 1.0, 2.0**-537, 2.0**511]))
        with np.errstate(over="ignore"):  # past 1e308 the power is inf
            got = fd._power_sums(x[:, None], p, np.empty((len(x), 1)))
        biggest = mp.mpf(sys.float_info.max)
        with mp.workprec(300):  # every product of 4 doubles is exact
            for xi, ci in zip(x.tolist(), got.tolist()):
                exact = mp.mpf(xi) ** int(p)
                if exact > biggest:
                    assert ci == math.inf, xi
                    continue
                # the spacing of doubles at the exact power, subnormal or not
                exponent = max(mp.frexp(exact)[1] - 1, -1022) if exact else -1022
                spacing = mp.ldexp(1, exponent - 52)
                assert abs(mp.mpf(ci) - exact) <= (self.ULPS[p] + 0.5) * spacing, xi

    @pytest.mark.parametrize("seed", range(6))
    def test_pow_rows_keep_the_bits_of_numpy_powers(self, seed):
        # S_1, S_2 and a p that goes through np.power keep the bits of the
        # pow-based tree sum; depth 19 spreads a scale over cell blocks
        rng = np.random.default_rng(seed)
        sol = ConstantSolution(random_rcm(rng, allow_flat=True,
                                          d_choices=(1,)))
        depth = 19 if seed == 0 else int(rng.integers(8, 17))
        m_lo = int(rng.integers(1, 4))
        p_arr = np.array([1.0, 2.0, 3.0, 4.0, float(rng.uniform(0.2, 5.0))])
        got = fd._haar_structure_function(sol, depth, p_arr, m_lo, depth - 1)
        want = pow_log2_S(sol, depth, p_arr, m_lo, depth - 1)
        keep = [0, 1, 4]
        assert same_bits(got.log2_S[keep], want[keep])
        assert np.abs(got.log2_S - want).max() <= TREE_TOL


class TestXi:
    def test_flat_closed_form(self, flat_d1_solution):
        for p in (0.5, 1.0, 2.0, 3.0, 7.0):
            assert spectra.zeta_raw(flat_d1_solution.model, p) == pytest.approx(
                p / 3, abs=1e-14)

    def test_xi3_is_alpha_minus_half_d(self, rng):
        from conftest import random_rcm
        for _ in range(10):
            m = random_rcm(rng)
            assert spectra.zeta_raw(m, 3.0) == pytest.approx(m.alpha - m.d / 2,
                                                             abs=1e-12)

    def test_direct_generation_sums_match(self, d12_solution):
        for p in (1.0, 2.0, 3.0, 4.5):
            direct = xi_from_generation_sums(d12_solution, p)
            assert direct == pytest.approx(
                spectra.zeta_raw(d12_solution.model, p), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_generation_sums_match_in_higher_dimensions(self, d):
        deltas = {2: [1.0, 2.0, 3.0, 5.0], 3: lambda_family(0.2).coeffs.deltas}
        sol = ConstantSolution(RcmModel.create(d, d / 2 + 1, deltas[d]))
        for p in (1.0, 2.0, 3.0, 4.5):
            assert xi_from_generation_sums(sol, p) == pytest.approx(
                spectra.zeta_raw(sol.model, p), abs=1e-9)

    def test_cross_identity_with_s0(self, d12_solution):
        for p in np.linspace(0.25, 12, 48):
            assert spectra.zeta_raw(d12_solution.model, float(p)) == pytest.approx(
                p * spectra.s0(d12_solution.model, float(p)), abs=1e-12)


class TestBesovEpsilon:
    def test_flat_ratio(self, flat_d1_solution):
        eps = fd.besov_epsilon(flat_d1_solution, 0.0, 2.0, 10)
        ratios = eps[1:] / eps[:-1]
        assert np.allclose(ratios, 2.0 ** (-spectra.s0(flat_d1_solution.model, 2.0)),
                           atol=1e-12)

    def test_decay_below_threshold(self, d12_solution):
        s0 = spectra.s0(d12_solution.model, 3.0)
        eps = fd.besov_epsilon(d12_solution, s0 - 0.2, 3.0, 40)
        assert eps[-1] < eps[0] * 2.0 ** (-0.2 * 40 * 0.99)

    def test_infinity_variant_bounded_iff_below_h(self, d12_solution):
        h = spectra.holder_exponent(d12_solution.model)
        growing = fd.besov_epsilon(d12_solution, h + 1e-3, math.inf, 50)
        bounded = fd.besov_epsilon(d12_solution, h - 1e-3, math.inf, 50)
        at_h = fd.besov_epsilon(d12_solution, h, math.inf, 50)
        assert growing[-1] > growing[0]
        assert bounded[-1] < bounded[0]
        assert np.allclose(at_h, at_h[0], rtol=1e-9)

    def test_invalid_p(self, d12_solution):
        with pytest.raises(ValueError):
            fd.besov_epsilon(d12_solution, 0.0, -2.0, 5)

    @pytest.mark.parametrize("s, p, n_max", [
        (0.0, math.nan, 5), (math.nan, 2.0, 5), (math.inf, 2.0, 5),
        (0.0, 2.0, -1)], ids=["p nan", "s nan", "s inf", "n_max -1"])
    def test_invalid_argument_rejected(self, d12_solution, s, p, n_max):
        # each used to return NaN entries or an empty sequence
        with pytest.raises(ValueError):
            fd.besov_epsilon(d12_solution, s, p, n_max)

    @pytest.mark.parametrize("n_max", BAD_INTEGERS)
    def test_n_max_must_be_a_non_negative_integer(self, d12_solution, n_max):
        # 2.5 gave 4 entries and True gave 2
        with pytest.raises(ValueError, match="'n_max' must be an integer"):
            fd.besov_epsilon(d12_solution, 0.0, 2.0, n_max)


class TestLocalHolder:
    def test_flat_everywhere(self, flat_d1_solution):
        res = fd.local_holder(flat_d1_solution, [0.37], 30)
        assert res.closed_form == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.estimate == pytest.approx(1.0 / 3.0, abs=0.05)
        # flat at alpha = 1 + d/2 sits exactly on the dissipation threshold
        assert res.dissipating

    def test_near_flat_flag_is_exact(self):
        # log2 delta = (0, 1.4e-13): at x = 0 every label is the smaller
        # delta, so sigma = 0 < ell(3/2) = 7.2e-14 and x does not dissipate
        sol = ConstantSolution(RcmModel.create(1, 1.5, [1.0, 1.0 + 1e-13]))
        res = fd.local_holder(sol, [0.0], 30)
        assert res.sigma == 0.0 < sol.model.ell(1.5)
        assert not res.dissipating
        assert fd.local_holder(sol, [1.0 - 2.0**-30], 30).dissipating

    def test_extreme_path_gives_global_exponent(self, d12_solution):
        # 1 - 2**-40 has forty binary digits 1: every label is 2
        res = fd.local_holder(d12_solution, [1.0 - 2.0**-40], 40)
        assert res.sigma == 1.0
        assert res.closed_form == pytest.approx(H_D12, abs=1e-12)
        assert res.dissipating

    def test_random_points_bounded_below_by_h(self, d12_solution, rng):
        h = spectra.holder_exponent(d12_solution.model)
        for _ in range(30):
            res = fd.local_holder(d12_solution, [float(rng.random())], 20)
            assert res.closed_form >= h - 1e-12

    def test_estimate_converges_to_closed_form(self, d12_solution):
        x = [0.6180339887]
        coarse = fd.local_holder(d12_solution, x, 10)
        fine = fd.local_holder(d12_solution, x, 2000)
        # estimate = closed_form - (log2 f + q)/n exactly; converges like 1/n
        assert abs(fine.estimate - fine.closed_form) \
            < abs(coarse.estimate - coarse.closed_form)
        assert fine.estimate - fine.closed_form == pytest.approx(
            -d12_solution.q / 2000, abs=1e-9)


# (d, deltas) of the local-regularity checks; the first of each d has
# integer log2 deltas, so every path sum is exact
HOLDER_MODELS = [
    (1, [1.0, 2.0]), (1, [1.0, 3.0]),
    (2, [1.0, 2.0, 4.0, 8.0]), (2, [1.0, 2.0, 3.0, 5.0]),
    (3, [2.0**i for i in range(8)]), (3, [0.3, 1.7, 2.0, 0.9, 4.0, 1.1, 0.5, 3.3]),
]


def holder_points(rng, d):
    """Random points of [0,1)**d, then the corner points 0 and 1 - 2**-53."""
    yield from (rng.random(d).tolist() for _ in range(10))
    yield [0.0] * d
    yield [1.0 - 2.0**-53] * d


class TestLocalHolderPath:
    """local_holder's binary-digit path and lattice formulas against the
    per-node oracles and the composition lattice of ``measure``."""

    @pytest.mark.parametrize("d, deltas", HOLDER_MODELS)
    def test_sigma_is_the_measure_atom_sigma(self, rng, d, deltas):
        # the same composition gets the same sigma, to the bit, on every
        # model: both routes sum a path in one fixed order
        model = RcmModel.create(d, d / 2 + 1, deltas)
        sol = ConstantSolution(model)
        values, _ = model.coeffs.distinct()
        for n in (1, 5, 9):
            mu = dp.measure(model, n)
            sigma = dict(zip(map(tuple, mu.counts.tolist()), mu.sigma))
            for x in holder_points(rng, d):
                labels = path_of_point(x, n, d).labels
                used = [deltas[label - 1] for label in labels]
                composition = tuple(used.count(v) for v in values)
                got = fd.local_holder(sol, x, n).sigma
                assert same_bits(got, sigma[composition])

    @pytest.mark.parametrize("d, deltas", HOLDER_MODELS)
    def test_estimate_matches_the_node_oracle(self, rng, d, deltas):
        model = RcmModel.create(d, d / 2 + 1, deltas, forcing=0.7)
        sol = ConstantSolution(model)
        exact = np.all(np.log2(deltas) == np.round(np.log2(deltas)))
        for x in holder_points(rng, d):
            n = int(rng.integers(1, 61))
            node = path_of_point(x, n, d)
            want = -d / 2.0 - log2_u_of_node(sol, node) / n
            got = fd.local_holder(sol, x, n)
            assert got.estimate == pytest.approx(want, rel=0, abs=1e-12)
            if exact:
                assert same_bits(got.estimate, want)
                assert same_bits(got.sigma, sigma_of(model, node))

    @pytest.mark.parametrize("point, n_max", [
        ([0.3, 0.4], 10), ([], 10), ([1.0], 10), ([-0.1], 10),
        ([math.nan], 10), ([0.3], 0), ([0.3], -3)],
        ids=["two coords", "no coords", "one", "negative", "nan",
             "n_max 0", "n_max -3"])
    def test_invalid_input_rejected(self, d12_solution, point, n_max):
        with pytest.raises(ValueError):
            fd.local_holder(d12_solution, point, n_max)

    @pytest.mark.parametrize("n_max", BAD_INTEGERS)
    def test_n_max_must_be_a_positive_integer(self, d12_solution, n_max):
        # 2.5 gave a TypeError from the label path
        with pytest.raises(ValueError, match="'n_max' must be an integer"):
            fd.local_holder(d12_solution, [0.3], n_max)


class TestScalingLemmas:
    def test_power_sum_bound(self, rng):
        # (sum a_k)^p <= c(lam, p) sum lam^k a_k^p for positive sequences
        for lam in (1.5, 2.0):
            for p in (2.0, 3.0):
                c = (1 - lam ** (-1 / (p - 1))) ** (-(p - 1))
                for _ in range(20):
                    a = rng.uniform(0, 1, 60) * np.exp(-0.2 * np.arange(60))
                    lhs = a.sum() ** p
                    rhs = c * np.sum(lam ** np.arange(60.0) * a**p)
                    assert lhs <= rhs * (1 + 1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_tail_integral_tracks_generation_sums(self, d12_solution, p):
        # integral of |tail field|^p vs 2^{(dp/2-d)n} sum_{|j|=n} u^p stays
        # in a narrow band (measured <= 1.12, contract <= 10) for n = 2..8
        M = 14
        full = fd.synthesize(d12_solution, M)
        ratios = []
        for n in range(2, 9):
            part = fd.synthesize(d12_solution, n)
            tail = full.grid - np.repeat(part.grid, 2 ** (M - n))
            num = np.mean(np.abs(tail) ** p)
            row = d12_solution.log2_u_rows(n)[n]
            den = 2.0 ** ((p / 2 - 1.0) * n) * float(np.exp2(p * row).sum())
            ratios.append(num / den)
        band = max(ratios) / min(ratios)
        assert band <= 10.0
        assert band <= 1.5  # measured headroom, pinned to catch regressions
