import math

import numpy as np
import pytest

import quad_oracles
import walkcurrent as wc
from conftest import site_class_laws
from pmf_oracles import pmf_moments
from walkcurrent import OccupancyModel
from walkcurrent.kernel import LatticePmf, marked_poisson_pmf
from walkcurrent.ldp import _tilted_table, crossing_log_mgf, current_log_mgf_prime
from walkcurrent.simulate import _site_crossings

TWO_PI = 2.0 * math.pi

LDP_MODELS = [
    OccupancyModel.poisson(0.5),
    OccupancyModel.poisson(2.0),
    OccupancyModel.deterministic(1),
    OccupancyModel.custom([(0, 0.5), (2, 0.5)]),
]


@pytest.fixture(scope="module")
def poisson_unit_model():
    # kappa2 * t = 2*pi makes the closed-form prefactor exactly 1
    return wc.RateModel(occupancy=OccupancyModel.poisson(1.0), kappa2=TWO_PI, t=1.0)


class TestCrossingLogMgf:
    def test_zero_tilt(self):
        for y in (-3.0, -0.1, 0.0, 0.2, 5.0):
            assert crossing_log_mgf(0.0, y, 1.0, 1.0) == 0.0

    def test_far_right_vanishes(self):
        assert abs(crossing_log_mgf(2.0, 10.0, 1.0, 1.0)) < 1e-15

    def test_reflection_identity(self):
        for lam in (-2.0, -0.3, 0.7, 3.0):
            for y in (0.25, 1.0, 2.5):
                lhs = crossing_log_mgf(lam, -y, 1.3, 0.7)
                rhs = crossing_log_mgf(-lam, y, 1.3, 0.7)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestTiltedCrossingProb:
    def test_zero_tilt_is_cdf(self):
        from walkcurrent.normal import norm_cdf
        for y in (-2.0, 0.0, 1.5):
            assert quad_oracles.tilted_crossing_prob(0.0, y, 1.0, 1.0) == pytest.approx(
                float(norm_cdf(y, 1.0)), rel=1e-12)

    def test_large_tilt_kills_probability(self):
        assert quad_oracles.tilted_crossing_prob(40.0, 0.0, 1.0, 1.0) < 1e-12

    def test_monotone_decreasing_in_tilt(self):
        for y in (-1.0, 0.0, 1.0):
            vals = [quad_oracles.tilted_crossing_prob(a, y, 1.0, 1.0)
                    for a in np.linspace(-4, 4, 17)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestBernoulliDual:
    def test_zero_at_p(self):
        assert quad_oracles.bernoulli_dual(0.3, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_boundary_conventions(self):
        assert quad_oracles.bernoulli_dual(0.5, 0.0) == pytest.approx(math.log(2.0))
        assert quad_oracles.bernoulli_dual(0.5, 1.0) == pytest.approx(math.log(2.0))
        assert quad_oracles.bernoulli_dual(0.3, -0.1) == math.inf


class TestCurrentLogMgf:
    def test_zero(self, poisson_unit_model):
        assert wc.current_log_mgf(poisson_unit_model, 0.0) == 0.0

    def test_poisson_closed_form(self, poisson_unit_model):
        val = wc.current_log_mgf(poisson_unit_model, 1.0)
        assert val == pytest.approx(math.e + math.exp(-1.0) - 2.0, abs=1e-10)

    def test_poisson_closed_form_general(self):
        model = wc.RateModel(occupancy=OccupancyModel.poisson(0.7), kappa2=1.3, t=0.8)
        scale = 0.7 * math.sqrt(1.3 * 0.8 / TWO_PI)
        for lam in (-2.0, 0.5, 1.5):
            expect = scale * (math.exp(lam) + math.exp(-lam) - 2.0)
            assert wc.current_log_mgf(model, lam) == pytest.approx(expect, abs=1e-9)

    def test_deterministic_vs_reference_quadrature(self):
        # independent oracle: composite Simpson with Richardson extrapolation,
        # each side integrated with its own branch formula (the integrand
        # jumps at y = 0)
        from scipy.special import ndtr
        model = wc.RateModel(occupancy=OccupancyModel.deterministic(1), kappa2=1.0, t=1.0)
        lam = 1.0

        def right(y):
            return np.log1p(math.expm1(lam) * ndtr(-y))

        def left(y):
            return np.log1p(math.expm1(-lam) * ndtr(y))

        def simpson(f, a, b, n):
            xs = np.linspace(a, b, n + 1)
            ys = f(xs)
            h = (b - a) / n
            return h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())

        def reference(n):
            return simpson(right, 0.0, model.y_cut, n) + simpson(left, -model.y_cut, 0.0, n)

        coarse, fine = reference(2048), reference(4096)
        richardson = fine + (fine - coarse) / 15.0
        assert wc.current_log_mgf(model, lam) == pytest.approx(richardson, abs=1e-9)

    def test_lambda_cap(self, poisson_unit_model):
        with pytest.raises(ValueError):
            wc.current_log_mgf(poisson_unit_model, 41.0)

    def test_convex_random_midpoints(self, poisson_unit_model, rng):
        for _ in range(40):
            a, b = rng.uniform(-4.0, 4.0, size=2)
            mid = wc.current_log_mgf(poisson_unit_model, (a + b) / 2.0)
            bound = 0.5 * (wc.current_log_mgf(poisson_unit_model, a)
                           + wc.current_log_mgf(poisson_unit_model, b))
            assert mid <= bound + 1e-9


class TestCurrentLogMgfPrime:
    def test_zero_mean_at_zero_tilt(self, poisson_unit_model):
        assert abs(current_log_mgf_prime(poisson_unit_model, 0.0)) < 1e-10

    def test_poisson_closed_form(self, poisson_unit_model):
        for lam in (-2.0, -0.5, 0.5, 2.0):
            assert current_log_mgf_prime(poisson_unit_model, lam) == pytest.approx(
                2.0 * math.sinh(lam), abs=1e-8)

    def test_matches_finite_differences(self):
        model = wc.RateModel(occupancy=OccupancyModel.custom([(0, 0.5), (2, 0.5)]),
                             kappa2=1.0, t=1.0)
        h = 1e-5
        for lam in (-2.0, -0.5, 0.5, 2.0):
            fd = (wc.current_log_mgf(model, lam + h)
                  - wc.current_log_mgf(model, lam - h)) / (2 * h)
            assert current_log_mgf_prime(model, lam) == pytest.approx(fd, abs=1e-6)

    def test_strictly_increasing(self, poisson_unit_model):
        grid = np.linspace(-3.0, 3.0, 13)
        vals = [current_log_mgf_prime(poisson_unit_model, g) for g in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestFixedRule:
    """The fixed panel rule against the adaptive-quad oracle."""

    LAMS = (0.0, 0.5, -0.5, 5.0, -5.0, 40.0, -40.0)

    @pytest.mark.parametrize("occupancy", LDP_MODELS)
    def test_log_mgf_and_derivative(self, occupancy):
        model = wc.RateModel(occupancy=occupancy, kappa2=1.0, t=1.0)
        for lam in self.LAMS:
            for fast, slow in ((wc.current_log_mgf, quad_oracles.current_log_mgf),
                               (current_log_mgf_prime,
                                quad_oracles.current_log_mgf_prime)):
                ref = slow(model, lam)
                assert fast(model, lam) == pytest.approx(ref, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("occupancy", LDP_MODELS)
    def test_rate_parts(self, occupancy):
        model = wc.RateModel(occupancy=occupancy, kappa2=1.3, t=0.8)
        for x in (-2.0, 0.5, 3.0):
            alpha = wc.tilt_for_mean(model, x)
            parts = wc.rate_decomposed(model, x, alpha)
            occ_cost, cross_cost = quad_oracles.rate_parts(model, alpha)
            assert parts.occupancy_cost == pytest.approx(occ_cost, rel=1e-12, abs=1e-14)
            assert parts.crossing_cost == pytest.approx(cross_cost, rel=1e-12, abs=1e-14)

    def test_coarse_rule_raises(self, monkeypatch):
        from walkcurrent import ldp
        monkeypatch.setattr(ldp, "QUAD_PANELS", 1)
        monkeypatch.setattr(ldp, "QUAD_ORDER", 3)
        model = wc.RateModel(occupancy=OccupancyModel.poisson(1.0), kappa2=1.0, t=1.0)
        with pytest.raises(wc.QuadratureConvergenceError):
            wc.current_log_mgf(model, 5.0)
        with pytest.raises(wc.QuadratureConvergenceError):
            current_log_mgf_prime(model, 5.0)

    def test_array_crossing_log_mgf(self):
        y = np.array([-3.0, -0.5, 0.0, 0.25, 4.0])
        got = crossing_log_mgf(1.7, y, 1.3, 0.7)
        for yi, gi in zip(y, got):
            assert gi == pytest.approx(quad_oracles.crossing_log_mgf(1.7, yi, 1.3, 0.7),
                                       rel=1e-14, abs=1e-16)
        assert isinstance(crossing_log_mgf(1.7, 0.3, 1.3, 0.7), float)


class TestTiltForMean:
    def test_zero(self, poisson_unit_model):
        assert wc.tilt_for_mean(poisson_unit_model, 0.0) == 0.0

    def test_poisson_inversion(self, poisson_unit_model):
        x = 2.0 * math.sinh(1.0)
        assert wc.tilt_for_mean(poisson_unit_model, x) == pytest.approx(1.0, abs=1e-8)

    def test_odd_for_poisson(self, poisson_unit_model):
        for x in (0.4, 1.3, 3.0):
            a_plus = wc.tilt_for_mean(poisson_unit_model, x)
            a_minus = wc.tilt_for_mean(poisson_unit_model, -x)
            assert a_plus == pytest.approx(-a_minus, abs=1e-9)

    def test_residual_contract(self, poisson_unit_model):
        x = 1.7
        alpha = wc.tilt_for_mean(poisson_unit_model, x)
        assert abs(current_log_mgf_prime(poisson_unit_model, alpha) - x) <= 1e-10

    def test_out_of_range(self, poisson_unit_model):
        with pytest.raises(wc.TiltBracketError):
            wc.tilt_for_mean(poisson_unit_model, 1e30)

    # the benchmark's rate-table x grid, and its rate-empirical tilt, whose
    # kappa2 comes from the drift kernel {1: 0.7, -1: 0.3}
    BENCH_X = [-3.0 + 0.5 * i for i in range(13)]

    @pytest.mark.parametrize("occupancy", [
        OccupancyModel.poisson(1.0), OccupancyModel.custom([(0, 0.5), (2, 0.5)])],
        ids=["poisson", "custom"])
    def test_brent_port_is_brentq(self, occupancy):
        # the port returns scipy's brentq root bit for bit
        model = wc.RateModel(occupancy=occupancy, kappa2=1.0, t=1.0)
        for x in self.BENCH_X:
            assert wc.tilt_for_mean(model, x) == quad_oracles.brentq_tilt(model, x)

    def test_brent_port_is_brentq_on_tail_tilt(self):
        kernel = wc.validate_kernel({1: 0.7, -1: 0.3})
        model = wc.RateModel(occupancy=OccupancyModel.poisson(1.0),
                             kappa2=kernel.kappa2, t=1.0)
        assert wc.tilt_for_mean(model, 1.0) == quad_oracles.brentq_tilt(model, 1.0)

    def test_brent_port_stops_at_maxiter(self, monkeypatch):
        from walkcurrent import ldp
        monkeypatch.setattr(ldp, "TILT_MAXITER", 3)
        model = wc.RateModel(occupancy=OccupancyModel.poisson(1.0), kappa2=1.0, t=1.0)
        with pytest.raises(wc.NewtonConvergenceError, match="did not converge"):
            wc.tilt_for_mean(model, 1.0)


class TestRateLegendre:
    def test_zero_at_zero(self, poisson_unit_model):
        assert wc.rate_legendre(poisson_unit_model, 0.0) == 0.0

    def test_spot_value(self, poisson_unit_model):
        x = 2.0 * math.sinh(1.0)
        assert wc.rate_legendre(poisson_unit_model, x) == pytest.approx(
            2.0 - 2.0 * math.exp(-1.0), abs=1e-9)

    def test_dominates_grid_sup(self, poisson_unit_model):
        x = 1.1
        rate = wc.rate_legendre(poisson_unit_model, x)
        lam_grid = np.linspace(-4.0, 4.0, 41)
        grid_sup = max(l * x - wc.current_log_mgf(poisson_unit_model, l)
                       for l in lam_grid)
        assert grid_sup <= rate + 1e-8

    def test_duality_chain(self, poisson_unit_model):
        # rate(Lambda'(lam)) attains at lam, and the rate derivative returns lam
        for lam in (-1.5, 0.7, 2.0):
            x = current_log_mgf_prime(poisson_unit_model, lam)
            rate = wc.rate_legendre(poisson_unit_model, x)
            expect = lam * x - wc.current_log_mgf(poisson_unit_model, lam)
            assert rate == pytest.approx(expect, abs=1e-8)
            h = 1e-5
            deriv = (wc.rate_legendre(poisson_unit_model, x + h)
                     - wc.rate_legendre(poisson_unit_model, x - h)) / (2 * h)
            assert deriv == pytest.approx(lam, abs=1e-5)


class TestRateDecomposed:
    def test_given_tilt_matches_solved(self):
        model = wc.RateModel(occupancy=OccupancyModel.custom([(0, 0.5), (2, 0.5)]),
                             kappa2=1.0, t=1.0)
        x = 1.3
        alpha = wc.tilt_for_mean(model, x)
        assert wc.rate_decomposed(model, x, alpha) == wc.rate_decomposed(model, x)
        assert wc.rate_legendre(model, x, alpha) == wc.rate_legendre(model, x)

    def test_zero_triple(self, poisson_unit_model):
        parts = wc.rate_decomposed(poisson_unit_model, 0.0)
        assert parts.occupancy_cost == pytest.approx(0.0, abs=1e-10)
        assert parts.crossing_cost == pytest.approx(0.0, abs=1e-10)
        assert parts.total == pytest.approx(0.0, abs=1e-10)

    def test_deterministic_pure_crossing_cost(self):
        model = wc.RateModel(occupancy=OccupancyModel.deterministic(1), kappa2=1.0, t=1.0)
        for x in (-1.5, 0.5, 2.0):
            parts = wc.rate_decomposed(model, x)
            assert parts.occupancy_cost == 0.0
            assert parts.total == pytest.approx(wc.rate_legendre(model, x), abs=1e-8)

    @pytest.mark.parametrize("occupancy", LDP_MODELS)
    def test_sum_equals_dual(self, occupancy):
        model = wc.RateModel(occupancy=occupancy, kappa2=1.0, t=1.0)
        for x in np.arange(-3.0, 3.01, 1.0):
            parts = wc.rate_decomposed(model, float(x))
            dual = wc.rate_legendre(model, float(x))
            assert abs(parts.total - dual) <= 1e-6

    def test_strictly_convex(self, poisson_unit_model):
        xs = np.arange(-3.0, 3.01, 0.5)
        vals = [wc.rate_legendre(poisson_unit_model, float(x)) for x in xs]
        second = np.diff(vals, 2)
        assert np.all(second > 0.0)


class TestPoissonRateClosed:
    def test_zero(self):
        assert wc.poisson_rate(0.0, 1.0, 1.0, 1.0) == 0.0

    def test_even_symmetry_exact(self):
        for x in np.arange(0.25, 5.0, 0.25):
            assert wc.poisson_rate(float(x), 1.3, 0.7, 2.0) == pytest.approx(
                wc.poisson_rate(float(-x), 1.3, 0.7, 2.0), abs=1e-12)

    def test_spot_value(self):
        x = 2.0 * math.sinh(1.0)
        assert wc.poisson_rate(x, 1.0, TWO_PI, 1.0) == pytest.approx(
            2.0 - 2.0 * math.exp(-1.0), rel=1e-12)

    def test_matches_dual_route(self, poisson_unit_model):
        for x in (-2.0, -0.5, 0.75, 2.0):
            assert wc.poisson_rate(x, 1.0, TWO_PI, 1.0) == pytest.approx(
                wc.rate_legendre(poisson_unit_model, x), abs=1e-6)


def assert_ratio_undoes_tilt(cfg, proposal, log_const, alpha):
    """q_alpha(y) * w(y) must be the untilted law of Y, mass by mass."""
    exact = wc.exact_current_pmf(cfg, 1.0, 0.0)
    lo = min(proposal.offset_min, exact.offset_min)
    size = max(proposal.offset_min + proposal.masses.size,
               exact.offset_min + exact.masses.size) - lo
    undone = np.zeros(size)
    undone[proposal.offset_min - lo:][:proposal.masses.size] = (
        proposal.masses * np.exp(log_const - alpha * pmf_moments(proposal)[0]))
    target = np.zeros(size)
    target[exact.offset_min - lo:][:exact.masses.size] = exact.masses
    assert np.max(np.abs(undone - target)) <= 1e-12


def tail_config(n=100, seed=7, occupancy=None):
    return wc.ExperimentConfig(
        n=n, T=1.0, S=0.25, t_grid=(1.0,), r_grid=(0.0,),
        kernel=wc.validate_kernel({1: 0.7, -1: 0.3}),
        occupancy=occupancy or OccupancyModel.poisson(1.0),
        master_seed=seed, replicas=1)


class TestTiltedTailEstimate:
    def test_against_exact_oracle(self):
        cfg = tail_config()
        est = wc.tilted_tail_estimate(cfg, 1.0, 0.0, 1.0, samples=40_000)
        exact = wc.exact_current_pmf(cfg, 1.0, 0.0).tail_geq(est.threshold)
        assert abs(est.p_hat - exact) <= 3.0 * est.p_hat * est.relative_se
        assert est.ess >= 100

    def test_plain_mc_agreement_in_bulk(self):
        # x*sqrt(n) <= 0: both the tilted and the untilted estimator see the
        # event often; they must agree within combined errors
        cfg = tail_config(seed=11)
        tilted = wc.tilted_tail_estimate(cfg, 1.0, 0.0, -0.3, samples=20_000)
        plain = wc.tilted_tail_estimate(cfg, 1.0, 0.0, -0.3, samples=20_000, alpha=0.0)
        assert tilted.p_hat >= 0.5 and plain.p_hat >= 0.5
        combined = math.hypot(tilted.p_hat * tilted.relative_se,
                              plain.p_hat * plain.relative_se)
        assert abs(tilted.p_hat - plain.p_hat) <= 3.0 * combined

    def test_deterministic_occupancy(self):
        cfg = tail_config(occupancy=OccupancyModel.deterministic(1))
        est = wc.tilted_tail_estimate(cfg, 1.0, 0.0, 1.0, samples=40_000)
        exact = wc.exact_current_pmf(cfg, 1.0, 0.0).tail_geq(est.threshold)
        assert abs(est.p_hat - exact) <= 3.0 * est.p_hat * est.relative_se

    def test_degenerate_weights_raised(self):
        cfg = tail_config()
        with pytest.raises(wc.DegenerateWeightsError):
            wc.tilted_tail_estimate(cfg, 1.0, 0.0, 3.0, samples=120)

    @pytest.mark.parametrize("occupancy, p_hat, ess", [
        (OccupancyModel.poisson(1.0), 0.0005370843984303681, 2749.774207296822),
        (OccupancyModel.deterministic(1), 2.4873642269135354e-05, 264.8668957064679),
    ], ids=["poisson", "deterministic"])
    def test_stream_golden(self, occupancy, p_hat, ess):
        # pins the proposal draws: a change to the sampler's random stream
        # or its likelihood ratio moves these values
        cfg = tail_config(seed=5, occupancy=occupancy)
        est = wc.tilted_tail_estimate(cfg, 1.0, 0.0, 1.0, samples=20_000, alpha=0.8)
        assert est.threshold == 10
        assert est.p_hat == pytest.approx(p_hat, rel=1e-12)
        assert est.ess == pytest.approx(ess, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-1.5, -0.3, 0.0, 0.8, 1.05, 2.5])
    def test_likelihood_ratio_undoes_skellam_tilt(self, alpha):
        # Poisson occupancy: the tilted class means give a Skellam proposal
        cfg = tail_config()
        table, log_const = _tilted_table(cfg, 1.0, 0.0, alpha)
        proposal = marked_poisson_pmf(table.signs[:, 0], table.means, 1e-300)
        assert_ratio_undoes_tilt(cfg, proposal, log_const, alpha)

    @pytest.mark.parametrize("alpha", [-1.5, -0.3, 0.0, 0.8, 1.05, 2.5])
    def test_likelihood_ratio_undoes_site_row_tilt(self, alpha):
        # one particle per site: the proposal is the convolution of the
        # tilted site rows, read back from the move probabilities and the
        # cumulative rows that draw them
        cfg = tail_config(occupancy=OccupancyModel.deterministic(1))
        table, log_const = _tilted_table(cfg, 1.0, 0.0, alpha)
        rows = site_class_laws(table)
        nsites = rows.shape[0]
        # each site adds -1, 0 or +1: its classes' signs, and 0 if it stays
        site_pmfs = np.zeros((nsites, 3))
        for c, sign in enumerate(table.signs[:, 0]):
            site_pmfs[:, 1 + sign] += rows[:, c]
        site_pmfs[:, 1] += 1.0 - table.move
        masses = np.array([1.0])
        for site_pmf in site_pmfs:
            masses = np.convolve(masses, site_pmf)
        proposal = LatticePmf(offset_min=-nsites, masses=masses, deficit=0.0)
        assert_ratio_undoes_tilt(cfg, proposal, log_const, alpha)

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_untilted_class_means_match_oracle(self, n):
        # the sampler's law comes from the convolved suffix laws, the
        # oracle's from walk_pmf.cdf: they differ only by the walk pmf's
        # truncated mass, which the oracle's 1 - cdf counts as crossing
        cfg = tail_config(n=n)
        table, log_const = _tilted_table(cfg, 1.0, 0.0, 0.0)
        right, cross = _site_crossings(cfg, 1.0, 0.0)
        oracle = {1: cross[right].sum(), -1: cross[~right].sum()}  # rho = 1
        bound = right.size * wc.walk_pmf(cfg.kernel, cfg.n * 1.0).deficit
        assert log_const == 0.0
        assert sorted(table.signs[:, 0]) == [-1, 1]
        for sign, mean in zip(table.signs[:, 0], table.means):
            assert abs(mean - oracle[sign]) <= bound

    def test_large_n_against_exact_oracle(self):
        # n = 1e4: P(Y >= 100) is about 1e-26
        cfg = tail_config(n=10_000)
        est = wc.tilted_tail_estimate(cfg, 1.0, 0.0, 1.0, samples=40_000)
        exact = wc.exact_current_pmf(cfg, 1.0, 0.0).tail_geq(est.threshold)
        assert est.threshold == 100
        assert abs(est.p_hat - exact) <= 3.0 * est.p_hat * est.relative_se

    def test_relative_se_far_in_the_tail(self):
        # p_hat = 5.3e-194 at n = 1600, x = 6: its square underflows, yet the
        # relative error stays positive; at x = 1 it is the direct
        # sqrt((mean w^2 - p_hat^2) / samples) / p_hat
        cfg = tail_config(n=1600, seed=5)
        far = wc.tilted_tail_estimate(cfg, 1.0, 0.0, 6.0, samples=40_000)
        assert far.p_hat < 1e-190 and far.relative_se > 0.0
        near = wc.tilted_tail_estimate(cfg, 1.0, 0.0, 1.0, samples=40_000)
        assert near.relative_se == pytest.approx(0.014044835943248773, rel=1e-12)

    def test_geometric_rejected(self):
        cfg = tail_config(occupancy=OccupancyModel.geometric(1.0))
        with pytest.raises((ValueError, wc.MgfDomainError)):
            wc.tilted_tail_estimate(cfg, 1.0, 0.0, 1.0, samples=1000)


class TestMultiTimeRate:
    def test_k1_intensities(self):
        spec = wc.build_multi_time_spec([1.0], 1.0, TWO_PI)
        expect = math.sqrt(TWO_PI * 1.0 / TWO_PI)
        assert spec.alpha_rates[0] == pytest.approx(expect, abs=1e-9)
        assert spec.beta_rates[0] == pytest.approx(expect, abs=1e-9)

    def test_k1_matches_closed_form(self):
        spec = wc.build_multi_time_spec([1.0], 1.0, TWO_PI)
        for x in (0.5, 1.0, 2.0 * math.sinh(1.0), -1.0, 3.0):
            assert wc.multi_time_rate(spec, [x]) == pytest.approx(
                wc.poisson_rate(x, 1.0, TWO_PI, 1.0), abs=1e-6)

    def test_zero_vector(self):
        spec = wc.build_multi_time_spec([0.5, 1.5], 1.0, 1.0)
        assert wc.multi_time_rate(spec, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-9)

    def test_duplicated_times_collapse(self):
        dup = wc.build_multi_time_spec([1.0, 1.0], 1.0, 1.0)
        single = wc.build_multi_time_spec([1.0], 1.0, 1.0)
        assert wc.multi_time_rate(dup, [1.0, 1.0]) == pytest.approx(
            wc.multi_time_rate(single, [1.0]), abs=1e-5)
        assert wc.multi_time_rate(dup, [1.0, 2.0]) == math.inf

    def test_marginal_intensity_sums(self):
        # summing pattern intensities over patterns with a 1 at slot j must
        # reproduce the single-time intensity at t_j
        times = [0.5, 2.0]
        rho, k2 = 1.3, 0.8
        spec = wc.build_multi_time_spec(times, rho, k2)
        for j, t in enumerate(times):
            expect = rho * wc.mean_excess(k2 * t, 0.0)
            got_a = sum(a for u, a in zip(spec.patterns, spec.alpha_rates) if u[j] == 1)
            got_b = sum(b for u, b in zip(spec.patterns, spec.beta_rates) if u[j] == 1)
            assert got_a == pytest.approx(expect, abs=1e-8)
            assert got_b == pytest.approx(expect, abs=1e-8)

    def test_k3_marginal_intensity_sums(self):
        times = [0.5, 1.0, 2.0]
        spec = wc.build_multi_time_spec(times, 1.0, 1.0)
        for j, t in enumerate(times):
            expect = wc.mean_excess(t, 0.0)
            got = sum(a for u, a in zip(spec.patterns, spec.alpha_rates) if u[j] == 1)
            assert got == pytest.approx(expect, abs=1e-4)

    def test_k2_rate_dominates_marginals(self):
        # joint deviations cost at least as much as each marginal deviation
        spec2 = wc.build_multi_time_spec([0.5, 1.5], 1.0, 1.0)
        rate2 = wc.multi_time_rate(spec2, [0.8, 1.0])
        for t, x in ((0.5, 0.8), (1.5, 1.0)):
            assert rate2 >= wc.poisson_rate(x, 1.0, 1.0, t) - 1e-9

    def test_k2_grid_search_dual(self):
        # independent route: brute-force the dual objective on a tilt grid
        spec = wc.build_multi_time_spec([0.5, 1.5], 1.0, 1.0)
        x = np.array([0.6, -0.4])
        rate = wc.multi_time_rate(spec, x)
        grid = np.linspace(-3.0, 3.0, 241)
        l1, l2 = np.meshgrid(grid, grid, indexing="ij")
        objective = l1 * x[0] + l2 * x[1]
        for u, a, b in zip(spec.patterns, spec.alpha_rates, spec.beta_rates):
            s = u[0] * l1 + u[1] * l2
            objective -= a * np.expm1(s) + b * np.expm1(-s)
        grid_sup = float(objective.max())
        assert grid_sup <= rate + 1e-9
        assert rate - grid_sup < 1e-3  # grid resolution bound

    @pytest.mark.parametrize("times", [(1.0,), (0.5, 1.0), (1.0, 1.001),
                                       (0.5, 2.0), (1.0, 1.0)])
    def test_gated_rule_matches_quad_oracle(self, times):
        spec = wc.build_multi_time_spec(times, 1.3, 0.8)
        ref = quad_oracles.pattern_rates(times, 1.3, 0.8)
        assert np.max(np.abs(spec.alpha_rates - ref[:, 0])) <= 1e-12
        assert np.max(np.abs(spec.beta_rates - ref[:, 1])) <= 1e-12

    @pytest.mark.parametrize("times", [(1.0,), (0.5, 1.0), (0.5, 1.0, 2.0)])
    def test_one_panel_rule_raises(self, monkeypatch, times):
        from walkcurrent import ldp
        monkeypatch.setattr(ldp, "SPEC_RULES", {1: (1, 3), 2: (1, 3), 3: (1, 3)})
        monkeypatch.setattr(ldp, "SPEC_MAX_PANELS", 1)
        with pytest.raises(wc.QuadratureConvergenceError, match="pattern rate"):
            wc.build_multi_time_spec(times, 1.0, 1.0)

    def test_too_many_times(self):
        with pytest.raises(ValueError):
            wc.build_multi_time_spec([0.5, 1.0, 1.5, 2.0], 1.0, 1.0)
