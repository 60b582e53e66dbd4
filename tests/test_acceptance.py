"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line with its
measured numbers and runtime (run with -s to see the lines for passing
criteria; pytest shows them for failing ones regardless).

Criterion 10 is split: the closed-form cross-identity (10a) passes; the
empirical structure-function clause (10b) is asserted exactly as stated
and fails -- the configured estimator cannot meet the stated tolerance at
the stated depth.  The README's Known limitation section explains why:
the Haar field is discontinuous (capping the exponents at 1 with
logarithmic corrections) and an outer-scale transient in m, which does
not shrink with the depth, keeps the fit window from reaching the
asymptote.
"""

import math
import time

import numpy as np

from treeshell import (
    ConstantSolution,
    RcmModel,
    lambda_family,
)
from treeshell import dissipation as dp
from treeshell import dynamics as dyn
from treeshell import field as fd
from treeshell import spectra
from treeshell.coefficients import RepeatedCoefficients

from conftest import subtree_mask
from oracles import (TreeIndex, enumerate_log2_F, entropy_max_oracle,
                     match_atoms, measure_from_enumeration)

PHI32_D12 = 0.7387961250362586


class Criterion:
    """Times a criterion and prints its one-line verdict."""

    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s
        self.start = time.perf_counter()
        self.checks = []

    def check(self, ok, detail):
        self.checks.append((bool(ok), detail))

    def conclude(self):
        elapsed = time.perf_counter() - self.start
        ok = all(c for c, _ in self.checks)
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number}: {verdict} [{elapsed:6.2f}s / "
              f"budget {self.budget_s}s] {self.description}")
        for good, detail in self.checks:
            if not good:
                print(f"  failed: {detail}")
        assert elapsed < self.budget_s, \
            f"criterion {self.number} exceeded its runtime budget"
        failed = [d for g, d in self.checks if not g]
        assert not failed, f"criterion {self.number}: {failed}"


def random_model(rng):
    d = int(rng.choice([1, 2, 3]))
    alpha = float(rng.uniform(0.6, 7.0))
    deltas = np.exp(rng.uniform(-1.2, 1.2, size=2**d))
    return RcmModel.create(d, alpha, deltas, forcing=float(rng.uniform(0.5, 2)))


def test_criterion_1_zeta3():
    c = Criterion(1, "zeta_3 = min{3, alpha - d/2} for 100 random models", 1.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = random_model(rng)
        got = spectra.zeta(m, 3.0, check_h=False)
        worst = max(worst, abs(got - min(3.0, m.alpha - m.d / 2)))
    c.check(worst <= 1e-12, f"max |zeta3 - min(3, a-d/2)| = {worst:.3e}")
    c.conclude()


def test_criterion_2_flat_k41():
    c = Criterion(2, "flat model at alpha = d/2 + 1 gives zeta_p = p/3", 1.0)
    p = np.arange(0.0, 20.0001, 0.05)
    worst = 0.0
    for d in (1, 2, 3):
        for delta in (1.0, 1.7):
            m = RcmModel.create(d, d / 2 + 1, [delta] * 2**d)
            worst = max(worst, np.abs(spectra.zeta(m, p, check_h=False)
                                      - p / 3).max())
    c.check(worst <= 1e-12, f"max |zeta_p - p/3| = {worst:.3e}")
    c.conclude()


def test_criterion_3_lambda_root():
    c = Criterion(3, "h(lambda) = 0 at lambda = 0.2307 +- 0.001", 1.0)

    def h(lam):
        return spectra.holder_exponent(lambda_family(lam))

    lo, hi = 0.05, 0.5
    assert h(lo) > 0 > h(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    c.check(abs(root - 0.2307) <= 1e-3, f"root at {root:.6f}")
    c.conclude()


def test_criterion_4_shape_and_asymptote():
    c = Criterion(4, "concavity/monotonicity on [0,40]; asymptote intercept "
                     "d - log2 m", 1.0)
    p = np.arange(0.0, 40.0001, 0.05)
    for lam in (0.0, 0.1, 0.2, 0.2307):
        m = lambda_family(lam)
        z = spectra.zeta(m, p, check_h=False)
        c.check(np.all(np.diff(z, 2) <= 1e-9), f"concavity lam={lam}")
        tilted = m.deltas**1.5
        if tilted.max() / tilted.mean() < 2:
            c.check(np.all(np.diff(z) >= -1e-9), f"monotonicity lam={lam}")
        slope, intercept = spectra.asymptote(m)
        # evaluate the limit at the smallest p in {200, 400, 800, ...} where
        # the exact tail bound allows 1e-6 (p = 200 for flat and lam=0.2307;
        # the lam in {0.1, 0.2} gaps at p=200 are 1.4e-3 and 1.4e-6 -- see
        # exactly -log2(1 + S/m) with S the sub-maximal ratio sum, so the
        # check moves out to where that bound allows the tolerance); the
        # finite-p gap identity is pinned at p = 200 for every model.
        all_ratios = m.deltas / m.deltas.max()
        ratios = all_ratios[all_ratios < 1.0 - 1e-12]  # strictly sub-maximal
        mult = m.coeffs.top_multiplicity(math.inf)
        p_eval = 200.0
        while np.sum(ratios ** (p_eval / 2)) / mult > 5e-7 and p_eval < 1e5:
            p_eval *= 2
        gap = spectra.zeta_raw(m, p_eval) - slope * p_eval - intercept
        c.check(abs(gap) <= 1e-6,
                f"asymptote gap {gap:.2e} at p={p_eval:g}, lam={lam}")
        gap200 = spectra.zeta_raw(m, 200.0) - slope * 200.0 - intercept
        exact = -math.log2(1.0 + np.sum(ratios**100.0) / mult)
        c.check(abs(gap200 - exact) <= 1e-9,
                f"exact finite-p gap identity at p=200, lam={lam}")
    c.conclude()


def test_criterion_5_dimension_formula():
    c = Criterion(5, "D(a) closed form vs simplex grid search; R >= D with "
                     "equality only at phi(3/2)", 30.0)
    multisets = {2: [1.0, 2.0], 3: [1.0, 1.6, 2.9], 4: [0.5, 1.0, 2.0, 2.0]}
    for N, deltas in multisets.items():
        coeffs = RepeatedCoefficients(deltas)
        lo, hi = coeffs.ell_neg_inf(), coeffs.ell_pos_inf()
        worst = 0.0
        for frac in np.linspace(0.04, 0.96, 20):
            a = lo + (hi - lo) * float(frac)
            closed = coeffs.dim_D(a)
            oracle = entropy_max_oracle(coeffs, a)
            worst = max(worst, abs(closed - oracle))
        c.check(worst <= 1e-5, f"N={N}: max |D - oracle| = {worst:.2e}")

    m = RcmModel.create(1, 1.5, [1.0, 2.0])
    lo, hi = m.coeffs.ell_neg_inf(), m.coeffs.ell_pos_inf()
    grid = np.linspace(lo + 1e-6, hi - 1e-6, 1000)
    gaps = np.array([spectra.rate_R(m, a) - spectra.dim_D(m, a) for a in grid])
    a_star = m.phi(1.5)
    c.check(gaps.min() >= -1e-9, f"min(R - D) = {gaps.min():.2e}")
    near = np.abs(gaps) <= 1e-9
    c.check(np.all(np.abs(grid[near] - a_star) <= grid[1] - grid[0]),
            "equality points stray from phi(3/2)")
    c.check(abs(spectra.rate_R(m, a_star) - spectra.dim_D(m, a_star)) <= 1e-9,
            "R(phi(3/2)) != D(phi(3/2))")
    c.conclude()


def test_criterion_6_unit_mass():
    c = Criterion(6, "sum F_j = 1: enumeration n <= 12, lattice n <= 400, "
                     "atomwise agreement", 60.0)
    m = RcmModel.create(1, 1.5, [1.0, 2.0])
    worst_enum = 0.0
    for n in range(1, 13):
        log2f = enumerate_log2_F(m, n)
        total = np.exp2(log2f - log2f.max()).sum()
        worst_enum = max(worst_enum,
                         abs(2.0 ** (log2f.max() + np.log2(total)) - 1.0))
    c.check(worst_enum <= 1e-10, f"enumeration: max |sum F - 1| = {worst_enum:.2e}")

    worst_lat = max(abs(dp.measure(m, n).total_mass() - 1.0)
                    for n in range(1, 401))
    c.check(worst_lat <= 1e-10, f"lattice: max |sum F - 1| = {worst_lat:.2e}")

    worst_atom = 0.0
    for n in range(1, 13):
        lat = dp.measure(m, n)
        enu = measure_from_enumeration(m, n)
        at = match_atoms(lat, enu)
        worst_atom = max(worst_atom,
                         float(np.abs(lat.log2_mass - enu.log2_mass[at]).max()))
    c.check(worst_atom <= 1e-12, f"atomwise max |diff(log2 mass)| = {worst_atom:.2e}")
    c.conclude()


def test_criterion_7_concentration():
    c = Criterion(7, "mu_n(B) -> 1 with tail rate near inf[R - D]", 60.0)
    m = RcmModel.create(1, 1.5, [1.0, 2.0])
    band = (m.phi(1.5) - 0.1, m.phi(1.5) + 0.1)
    curve = dp.concentration_curve(m, band, [50, 100, 200, 400])
    c.check(np.all(np.diff(curve.mass_in) > 0), "mass not increasing")
    c.check(1 - curve.mass_in[-1] < 1 - curve.mass_in[0],
            "tail at 400 not below tail at 50")
    lam = curve.theoretical_rate
    # the point-normalised rate carries the O(log n / n) tail prefactor
    # (24% high at n = 400); the curve slope ending at n = 400 cancels it
    rate = curve.slope_rate[-1]
    rel = abs(rate - lam) / lam
    c.check(rel <= 0.15,
            f"slope rate {rate:.5f} vs inf[R-D] {lam:.5f} ({rel:.1%})")
    c.conclude()


def test_criterion_8_lln():
    c = Criterion(8, "LLN: mean sigma within 3 SE of ell_0; density log-rate "
                     "within 5%", 10.0)
    m = RcmModel.create(1, 1.5, [1.0, 2.0])
    rep = dp.lln_sample(m, 10_000, 1000, seed=7)
    dev = abs(rep.sigma_mean - rep.ell_zero)
    c.check(dev <= 3 * rep.standard_error,
            f"|mean - ell0| = {dev:.2e} vs 3 SE = {3 * rep.standard_error:.2e}")
    rel = abs(rep.log_ratio_rate_mean - rep.log_ratio_rate_limit) \
        / abs(rep.log_ratio_rate_limit)
    c.check(rel <= 0.05, f"log-ratio rate off by {rel:.1%}")
    c.conclude()


def test_criterion_9_dynamics():
    c = Criterion(9, "constant solution is a fixed point; energy balance "
                     "residual <= 1e-6", 60.0)
    for deltas in ([1.0, 1.0], [1.0, 2.0]):
        m = RcmModel.create(1, 1.5, deltas)
        sol = ConstantSolution(m)
        st = dyn.TruncatedState.from_constant(sol, 5, "stationary")
        traj = dyn.integrate(st, 1e-4, 1000, record_every=1000)
        drift = float((np.abs(traj.states[-1] - st.values) / st.values).max())
        c.check(drift <= 1e-9, f"deltas={deltas}: drift {drift:.2e}")

    T = [TreeIndex.root(2)]
    frontier = T[:]
    for _ in range(3):
        frontier = [k for j in frontier for k in j.offspring()]
        T += frontier
    rng = np.random.default_rng(909)
    for deltas in ([1.0, 1.0], [1.0, 2.0]):
        m = RcmModel.create(1, 1.5, deltas)
        sol = ConstantSolution(m)
        base = dyn.TruncatedState.from_constant(sol, 5, "zero")
        for _ in range(2):
            noisy = base.values * (1 + rng.uniform(-0.5, 0.5, base.values.size))
            traj = dyn.integrate(dyn.TruncatedState(m, 5, noisy, "zero"),
                                 1e-4, 300)
            eb = dyn.energy_balance(traj, subtree_mask(T, 5))
            c.check(eb.max_relative_residual <= 1e-6,
                    f"deltas={deltas}: residual {eb.max_relative_residual:.2e}")
    c.conclude()


def test_criterion_10a_cross_identity():
    c = Criterion("10a", "xi_p = p * s0(p) to 1e-12", 120.0)
    for deltas in ([1.0, 1.0], [1.0, 2.0]):
        sol = ConstantSolution(RcmModel.create(1, 1.5, deltas))
        worst = max(abs(spectra.zeta_raw(sol.model, float(p))
                        - p * spectra.s0(sol.model, float(p)))
                    for p in np.linspace(0.25, 12, 48))
        c.check(worst <= 1e-12, f"deltas={deltas}: max residual {worst:.2e}")
    c.conclude()


def test_criterion_10b_empirical_structure_exponents():
    c = Criterion("10b", "empirical zeta_hat within 10% of min(p, xi_p) at "
                         "M = 16 (expected red: see README, Known limitation)", 120.0)
    for deltas in ([1.0, 1.0], [1.0, 2.0]):
        sol = ConstantSolution(RcmModel.create(1, 1.5, deltas))
        est = fd.structure_function(sol, 16, [1.0, 2.0, 3.0])
        for p, zhat in zip(est.p, est.zeta_hat):
            target = min(float(p), spectra.zeta_raw(sol.model, float(p)))
            rel = abs(zhat - target) / target
            c.check(rel <= 0.10,
                    f"deltas={deltas} p={p:g}: zeta_hat={zhat:.4f} "
                    f"target={target:.4f} off by {rel:.1%}")
    c.conclude()


def test_criterion_11_frisch_parisi():
    c = Criterion(11, "Delta = 3 zeta'_3 + d - 1 at alpha = d/2 + 1", 1.0)
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(20):
        d = int(rng.choice([1, 2, 3]))
        deltas = np.exp(rng.uniform(-1.2, 1.2, size=2**d))
        m = RcmModel.create(d, d / 2 + 1, deltas)
        worst = max(worst, spectra.frisch_parisi_residual(m))
    c.check(worst <= 1e-10, f"max residual {worst:.2e}")
    c.conclude()
