import math

import numpy as np
import pytest

import quad_oracles
import walkcurrent as wc
from walkcurrent import OccupancyModel


ALL_MODELS = [
    OccupancyModel.poisson(1.0),
    OccupancyModel.poisson(0.5),
    OccupancyModel.deterministic(1),
    OccupancyModel.geometric(1.0),
    OccupancyModel.custom([(0, 0.5), (3, 0.5)]),
]


class TestLogMgf:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_zero_tilt(self, model):
        assert model.log_mgf(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_poisson_closed_form(self):
        m = OccupancyModel.poisson(2.0)
        for th in (-2.0, -0.5, 0.3, 1.7):
            assert m.log_mgf(th) == pytest.approx(2.0 * (math.exp(th) - 1.0), rel=1e-14)

    def test_deterministic_is_linear(self):
        m = OccupancyModel.deterministic(1)
        for th in (-3.0, 0.7, 2.0):
            assert m.log_mgf(th) == th

    def test_geometric_radius(self):
        m = OccupancyModel.geometric(1.0)  # success ratio 1/2, radius log 2
        assert m.mgf_radius == pytest.approx(math.log(2.0))
        assert math.isfinite(m.log_mgf(0.5))
        with pytest.raises(wc.MgfDomainError):
            m.log_mgf(math.log(2.0) + 0.01)
        assert not m.mgf_domain_is_real

    def test_moments_match_mean_variance(self):
        for model in ALL_MODELS:
            h = 1e-5
            mean_fd = (model.log_mgf(h) - model.log_mgf(-h)) / (2 * h)
            var_fd = (model.log_mgf(h) - 2 * model.log_mgf(0.0) + model.log_mgf(-h)) / h ** 2
            assert mean_fd == pytest.approx(model.rho0, abs=1e-8, rel=1e-6)
            assert var_fd == pytest.approx(model.v0, abs=1e-4, rel=1e-4)


class TestLogMgfPrime:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_zero_tilt_gives_mean(self, model):
        assert model.log_mgf_prime(0.0) == pytest.approx(model.rho0, rel=1e-14)

    def test_poisson_closed_form(self):
        m = OccupancyModel.poisson(1.5)
        for th in (-1.0, 0.2, 2.0):
            assert m.log_mgf_prime(th) == pytest.approx(1.5 * math.exp(th), rel=1e-14)

    def test_deterministic_constant(self):
        m = OccupancyModel.deterministic(3)
        assert {m.log_mgf_prime(th) for th in (-5.0, 0.0, 5.0)} == {3.0}

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_finite_differences(self, model):
        h = 1e-6
        hi = min(3.0, model.mgf_radius - 0.2) if not model.mgf_domain_is_real else 3.0
        for th in np.linspace(-3.0, hi, 13):
            fd = (model.log_mgf(th + h) - model.log_mgf(th - h)) / (2 * h)
            assert model.log_mgf_prime(th) == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestLogMgfDual:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_zero_at_mean(self, model):
        assert model.log_mgf_dual(model.rho0) == pytest.approx(0.0, abs=1e-10)

    def test_poisson_closed_form_vs_grid_sup(self):
        m = OccupancyModel.poisson(1.0)
        lam = np.linspace(-30.0, 30.0, 600_001)
        for x in (0.2, 1.0, 2.5, 7.0):
            closed = m.log_mgf_dual(x)
            coarse = lam[np.argmax(lam * x - (np.exp(lam) - 1.0))]
            fine = np.linspace(coarse - 1e-4, coarse + 1e-4, 20_001)
            grid_sup = np.max(fine * x - (np.exp(fine) - 1.0))
            assert closed == pytest.approx(x * math.log(x) - x + 1.0, rel=1e-12)
            assert abs(closed - grid_sup) < 1e-8

    def test_poisson_at_zero(self):
        assert OccupancyModel.poisson(2.0).log_mgf_dual(0.0) == 2.0

    def test_deterministic_boundaries(self):
        m = OccupancyModel.deterministic(1)
        assert m.log_mgf_dual(1.0) == 0.0
        assert m.log_mgf_dual(0.5) == math.inf
        assert m.log_mgf_dual(2.0) == math.inf

    def test_custom_boundaries(self):
        m = OccupancyModel.custom([(0, 0.5), (3, 0.5)])
        assert m.log_mgf_dual(0.0) == pytest.approx(math.log(2.0))
        assert m.log_mgf_dual(3.0) == pytest.approx(math.log(2.0))
        assert m.log_mgf_dual(3.5) == math.inf

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            OccupancyModel.poisson(1.0).log_mgf_dual(-0.5)


class TestArrayCumulants:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_array_matches_scalar(self, model):
        hi = 0.6 if model.kind == "geometric" else 3.0
        th = np.linspace(-3.0, hi, 13)
        for fn in (model.log_mgf, model.log_mgf_prime):
            arr = fn(th)
            assert arr.shape == th.shape
            assert isinstance(fn(0.25), float)
            for t, a in zip(th, arr):
                assert a == fn(float(t))
        x = np.append(model.log_mgf_prime(th), [0.0, model.rho0])
        if model.kind == "custom":
            x = np.clip(x, model._values[0], model._values[-1])
        duals = model.log_mgf_dual(x)
        for xi, d in zip(x, duals):
            assert d == pytest.approx(model.log_mgf_dual(float(xi)), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("pmf", [
        [(0, 0.5), (2, 0.5)],
        [(0, 0.25), (1, 0.5), (4, 0.25)],
        [(1, 0.1), (3, 0.2), (7, 0.3), (20, 0.4)],
    ])
    def test_custom_dual_against_brent_oracle(self, pmf):
        model = OccupancyModel.custom(pmf)
        lo, hi = pmf[0][0], pmf[-1][0]
        x = np.concatenate([np.linspace(lo, hi, 101), lo + np.logspace(-12, -1, 12),
                            hi - np.logspace(-12, -1, 12), [lo - 0.5, hi + 0.5]])
        x = x[x >= 0.0]
        duals = model.log_mgf_dual(x)
        for xi, d in zip(x, duals):
            ref = quad_oracles.custom_dual(model, float(xi))
            if math.isinf(ref):
                assert d == ref
            else:
                assert d == pytest.approx(ref, rel=1e-12, abs=1e-13)


class TestInvariants:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_log_mgf_convex(self, model, rng):
        hi = model.mgf_radius - 0.05 if not model.mgf_domain_is_real else 4.0
        for _ in range(100):
            t1, t2 = rng.uniform(-4.0, hi, size=2)
            for w in (0.25, 0.5, 0.75):
                mid = model.log_mgf(w * t1 + (1 - w) * t2)
                assert mid <= w * model.log_mgf(t1) + (1 - w) * model.log_mgf(t2) + 1e-10

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_fenchel_young(self, model, rng):
        hi = min(3.0, model.mgf_radius - 0.2) if not model.mgf_domain_is_real else 3.0
        for th in rng.uniform(-3.0, hi, size=20):
            x = model.log_mgf_prime(th)
            # inequality for an arbitrary x >= 0, equality at the tilted mean
            x_arb = abs(rng.normal()) * (model.rho0 + 1.0)
            dual_arb = model.log_mgf_dual(x_arb)
            if math.isfinite(dual_arb):
                assert model.log_mgf(th) + dual_arb >= th * x_arb - 1e-10
            dual = model.log_mgf_dual(min(max(x, 1e-12), _xmax(model)))
            assert model.log_mgf(th) + dual == pytest.approx(th * x, abs=1e-8)


def _xmax(model):
    if model.kind == "custom":
        return float(model._values[-1])
    return math.inf


class TestSampling:
    def test_deterministic_all_ones(self, rng):
        counts = OccupancyModel.deterministic(1).sample_counts(rng, 11)
        assert counts.dtype == np.int64
        assert counts.tolist() == [1] * 11

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_fixed_count_is_the_one_point_law(self, count):
        fixed = OccupancyModel.deterministic(count)
        one_point = OccupancyModel.custom([(count, 1.0)])
        th = np.linspace(-3.0, 3.0, 13)
        x = np.array([0.0, 0.5, count, count + 0.5])
        assert (fixed.kind, fixed.rho0, fixed.v0) == ("custom", float(count), 0.0)
        for fn, arg in ((OccupancyModel.log_mgf, th), (OccupancyModel.log_mgf_prime, th),
                        (OccupancyModel.log_mgf_dual, x)):
            assert np.array_equal(fn(fixed, arg), fn(one_point, arg))
        assert np.array_equal(OccupancyModel.log_mgf(fixed, th), count * th)

    def test_poisson_mean(self, rng):
        counts = OccupancyModel.poisson(2.0).sample_counts(rng, 100_000)
        se = math.sqrt(2.0 / counts.size)
        assert abs(counts.mean() - 2.0) < 4 * se

    def test_custom_frequencies(self, rng):
        counts = OccupancyModel.custom([(0, 0.5), (3, 0.5)]).sample_counts(rng, 100_000)
        freq = (counts == 3).mean()
        se = 0.5 / math.sqrt(counts.size)
        assert abs(freq - 0.5) < 4 * se
        assert set(np.unique(counts)) <= {0, 3}

    @pytest.mark.parametrize("pmf", [[(0, 0.5), (3, 0.5)], [(1, 0.2), (2, 0.3), (7, 0.5)],
                                     [(4, 1.0)], [(0, 1e-9), (2, 0.7), (5, 0.3)]])
    def test_custom_draw_is_generator_choice(self, pmf):
        # the cdf built once at construction replays Generator.choice with
        # p = probs draw for draw, and leaves the stream where it left it;
        # a fixed count (one value) draws nothing and leaves it untouched
        m = OccupancyModel.custom(pmf)
        for seed in range(20):
            for size in (0, 1, 17, 1000):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = m.sample_counts(got_rng, size)
                want = (np.full(size, pmf[0][0]) if len(pmf) == 1
                        else want_rng.choice(m._values, size=size, p=m._probs))
                assert got.dtype == np.int64
                assert np.array_equal(got, want)
                assert got_rng.random() == want_rng.random()

    def test_geometric_moments(self, rng):
        m = OccupancyModel.geometric(1.5)
        counts = m.sample_counts(rng, 200_000)
        se = math.sqrt(m.v0 / counts.size)
        assert abs(counts.mean() - 1.5) < 4 * se

    def test_negative_site_count_rejected(self, rng):
        with pytest.raises(ValueError):
            OccupancyModel.poisson(1.0).sample_counts(rng, -1)


class TestConstruction:
    def test_mean_variance_stored(self):
        m = OccupancyModel.custom([(0, 0.25), (1, 0.5), (4, 0.25)])
        mean = 0.25 * 0 + 0.5 * 1 + 0.25 * 4
        var = 0.25 * mean ** 2 + 0.5 * (1 - mean) ** 2 + 0.25 * (4 - mean) ** 2
        assert m.rho0 == pytest.approx(mean, abs=1e-12)
        assert m.v0 == pytest.approx(var, abs=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            OccupancyModel.poisson(0.0)
        with pytest.raises(ValueError):
            OccupancyModel.deterministic(-1)
        with pytest.raises(ValueError):
            OccupancyModel.custom([(-1, 1.0)])
        with pytest.raises(ValueError):
            OccupancyModel.custom([(1, -0.2), (0, 1.2)])
