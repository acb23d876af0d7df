"""Acceptance suite: every exit criterion at its stated scale and tolerance.

Each test prints one PASS line on success (run with -s to see them live).
The heavy ensemble is shared by the criteria that reference the same run.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as spstats

import walkcurrent as wc
from walkcurrent import runner
from conftest import lattice_chisquare
from pmf_oracles import pmf_moments
from sampler_oracles import StochasticIntegralSampler, default_mesh, gillespie_displacement

TWO_PI = 2.0 * math.pi
WORKERS = min(4, os.cpu_count() or 1)

ACCEPT_KERNEL = {1: 0.7, -1: 0.3}
ACCEPT_POINTS = [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, -0.5)]


def note(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def main_run():
    """Criteria 1, 2, 4 share one ensemble: n=2500, 4e4 replicas."""
    cfg = wc.ExperimentConfig(
        n=2500, T=1.0, S=0.5, t_grid=(0.5, 1.0), r_grid=(-0.5, 0.0, 0.5),
        kernel=wc.validate_kernel(ACCEPT_KERNEL),
        occupancy=wc.OccupancyModel.poisson(1.0),
        master_seed=20260810, replicas=40_000)
    report, passed = runner.covariance_experiment(
        cfg, workers=WORKERS, retain_points=((1.0, 0.0),),
        check_points=ACCEPT_POINTS)
    return cfg, report


@pytest.fixture(scope="module")
def duality_grid():
    """Criteria 7, 8 share the x-grid of Legendre-dual evaluations."""
    x_grid = np.arange(-3.0, 3.0 + 1e-9, 0.25)
    models = {
        "poisson_0.5": wc.OccupancyModel.poisson(0.5),
        "poisson_2": wc.OccupancyModel.poisson(2.0),
        "deterministic_1": wc.OccupancyModel.deterministic(1),
        "custom_0_2": wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)]),
    }
    results = {}
    for name, occ in models.items():
        model = wc.RateModel(occupancy=occ, kappa2=1.0, t=1.0)
        rows = []
        for x in x_grid:
            parts = wc.rate_decomposed(model, float(x))
            dual = wc.rate_legendre(model, float(x))
            rows.append((float(x), parts.total, dual))
        results[name] = rows
    return results


def test_criterion_01_covariance(main_run):
    cfg, report = main_run
    checked = [r for r in report["covariance"] if r["checked"]]
    assert len(checked) == 10  # all pairs of the 4 points
    for row in checked:
        band = max(4.0 * row["std_error"], 0.10 * abs(row["analytic"]))
        assert abs(row["empirical"] - row["analytic"]) <= band, row
    note(1, f"all 10 covariance pairs within max(4 SE, 10%); "
            f"max |z| = {report['max_abs_z']:.2f}")


def test_criterion_02_mean_vanishing(main_run):
    cfg, report = main_run
    assert report["max_mean_ratio"] <= 3.0
    note(2, f"scaled means within 3 SE at every grid point "
            f"(max ratio {report['max_mean_ratio']:.2f})")


@pytest.fixture(scope="module")
def fbm_run():
    cfg = wc.ExperimentConfig(
        n=2500, T=4.0, S=0.1, t_grid=(0.25, 0.5, 1.0, 2.0, 4.0), r_grid=(0.0,),
        kernel=wc.validate_kernel(ACCEPT_KERNEL),
        occupancy=wc.OccupancyModel.poisson(1.0),
        master_seed=314159, replicas=20_000)
    report, passed = runner.fbm_experiment(cfg, workers=WORKERS)
    return report


def test_criterion_03_fbm_scaling(fbm_run):
    report = fbm_run
    assert 0.45 <= report["slope"] <= 0.55
    assert abs(report["slope_analytic"] - 0.5) < 1e-12
    ts = [row["t"] for row in report["rows"]]
    fbm_slope, _ = wc.scaling_exponent(ts, [wc.fbm_cov(t, t, 1.0, 1.0) for t in ts])
    assert abs(fbm_slope - 0.5) < 1e-12
    note(3, f"log-log variance slope {report['slope']:.4f} in [0.45, 0.55]; "
            f"analytic slope exactly 0.5")


def test_criterion_04_gaussianity(main_run):
    cfg, report = main_run
    diag = report["normality"]["1,0"]
    assert abs(diag["skewness"]) <= 0.1
    assert abs(diag["excess_kurtosis"]) <= 0.2
    assert diag["ks_p"] > 0.01
    note(4, f"skew {diag['skewness']:+.3f}, excess kurtosis "
            f"{diag['excess_kurtosis']:+.3f}, KS p {diag['ks_p']:.3f}")


def test_criterion_05_covariance_identity():
    rng = np.random.default_rng(20260805)
    worst = 0.0
    for _ in range(50):
        s, t = rng.uniform(0.05, 3.0, size=2)
        q, r = rng.uniform(-2.0, 2.0, size=2)
        k2 = rng.uniform(0.3, 3.0)
        worst = max(
            worst,
            abs(wc.dynamic_cov_quadrature(s, q, t, r, k2) - wc.dynamic_cov(s, q, t, r, k2)),
            abs(wc.initial_cov_quadrature(s, q, t, r, k2) - wc.initial_cov(s, q, t, r, k2)))
    assert worst <= 1e-8
    note(5, f"closed forms equal integral forms on 50 random configs "
            f"(max abs err {worst:.2e})")


def test_criterion_06_mean_excess_oracle():
    rng = np.random.default_rng(20260806)
    worst_z = 0.0
    for sigma2 in (0.5, 1.0, 4.0):
        for x in (0.0, 0.5, 2.0):
            draws = rng.normal(0.0, math.sqrt(sigma2), size=1_000_000)
            excess = np.maximum(draws - x, 0.0)
            se = excess.std() / math.sqrt(draws.size)
            gap = abs(wc.mean_excess(sigma2, x) - excess.mean())
            assert gap < 4.0 * se
            worst_z = max(worst_z, gap / se)
    note(6, f"mean-excess matches E(N-x)+ by MC at 9 parameter pairs "
            f"(worst |z| = {worst_z:.2f})")


def test_criterion_07_rate_duality(duality_grid):
    worst = 0.0
    for name, rows in duality_grid.items():
        for x, total, dual in rows:
            worst = max(worst, abs(total - dual))
    assert worst <= 1e-6
    note(7, f"decomposed rate equals Legendre dual on four occupancy models, "
            f"x in [-3, 3] (max residual {worst:.2e})")


def test_criterion_08_poisson_closed_form(duality_grid):
    worst = 0.0
    for name, rho in (("poisson_0.5", 0.5), ("poisson_2", 2.0)):
        for x, total, dual in duality_grid[name]:
            worst = max(worst, abs(wc.poisson_rate(x, rho, 1.0, 1.0) - dual))
    assert worst <= 1e-6
    x_star = 2.0 * math.sinh(1.0)
    model = wc.RateModel(occupancy=wc.OccupancyModel.poisson(1.0), kappa2=TWO_PI, t=1.0)
    spot = wc.rate_legendre(model, x_star)
    assert spot == pytest.approx(2.0 - 2.0 * math.exp(-1.0), abs=1e-6)
    assert wc.poisson_rate(x_star, 1.0, TWO_PI, 1.0) == pytest.approx(spot, abs=1e-6)
    note(8, f"closed form equals dual on the grid (max err {worst:.2e}); "
            f"spot value {spot:.7f} = 2 - 2/e")


@pytest.fixture(scope="module")
def small_n_run():
    """Criterion 9: n=100, 1e5 replicas at the single point (1, 0)."""
    cfg = wc.ExperimentConfig(
        n=100, T=1.0, S=0.25, t_grid=(1.0,), r_grid=(0.0,),
        kernel=wc.validate_kernel(ACCEPT_KERNEL),
        occupancy=wc.OccupancyModel.poisson(1.0),
        master_seed=271828, replicas=100_000)
    _, retained, _ = runner.run_ensemble_batches(cfg, workers=WORKERS,
                                                 retain_points=((1.0, 0.0),))
    values = np.rint(retained[(1.0, 0.0)] * cfg.n ** 0.25).astype(np.int64)
    return cfg, values


def test_criterion_09_exact_oracle(small_n_run):
    cfg, values = small_n_run
    pmf = wc.exact_current_pmf(cfg, 1.0, 0.0)
    p = lattice_chisquare(values, pmf_moments(pmf)[0], pmf.masses)
    assert p > 0.01
    est = wc.tilted_tail_estimate(cfg, 1.0, 0.0, 1.0, samples=40_000)
    exact_tail = pmf.tail_geq(est.threshold)
    gap = abs(est.p_hat - exact_tail)
    assert gap <= 3.0 * est.p_hat * est.relative_se
    note(9, f"simulation vs exact pmf chi-square p = {p:.3f}; tilted tail "
            f"{est.p_hat:.3e} vs exact {exact_tail:.3e} within 3 SE")


def test_criterion_10_empirical_rate_trend():
    kernel = wc.validate_kernel(ACCEPT_KERNEL)
    occ = wc.OccupancyModel.poisson(1.0)
    model = wc.RateModel(occupancy=occ, kappa2=kernel.kappa2, t=1.0)
    analytic = wc.rate_legendre(model, 1.0)
    gaps = []
    for n in (100, 400, 1600):
        cfg = wc.ExperimentConfig(
            n=n, T=1.0, S=0.25, t_grid=(1.0,), r_grid=(0.0,),
            kernel=kernel, occupancy=occ, master_seed=161803, replicas=1)
        est = wc.tilted_tail_estimate(cfg, 1.0, 0.0, 1.0, samples=40_000)
        gaps.append(abs(est.empirical_rate - analytic))
    assert gaps[0] > gaps[1] > gaps[2]
    note(10, "empirical rate approaches the analytic rate: gaps "
             + " > ".join(f"{g:.4f}" for g in gaps))


def test_criterion_11_multi_time_marginal():
    spec = wc.build_multi_time_spec([1.0], 1.0, TWO_PI)
    expect = 1.0 * math.sqrt(TWO_PI * 1.0 / TWO_PI)
    assert abs(spec.alpha_rates[0] - expect) <= 1e-9
    assert abs(spec.beta_rates[0] - expect) <= 1e-9
    worst = 0.0
    for x in (0.5, 1.0, 2.0 * math.sinh(1.0), -1.5, 3.0):
        worst = max(worst, abs(wc.multi_time_rate(spec, [x])
                               - wc.poisson_rate(x, 1.0, TWO_PI, 1.0)))
    assert worst <= 1e-6
    note(11, f"single-time marginal rate equals closed form at 5 x values "
             f"(max err {worst:.2e}); intensities match to 1e-9")


def test_criterion_12_samplers():
    kernel = wc.validate_kernel(ACCEPT_KERNEL)
    rng = np.random.default_rng(20260812)
    g = gillespie_displacement(kernel, 10.0, rng, size=100_000)
    c = wc.sample_displacement(kernel, 10.0, rng, size=100_000)
    ks_p = spstats.ks_2samp(g, c).pvalue
    assert ks_p > 0.01

    params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
    pts = [(0.5, 0.0), (1.0, 0.0)]
    sampler = StochasticIntegralSampler(params, pts, default_mesh(pts, 1.0))
    draws = sampler.sample(np.random.default_rng(20260813), size=100_000)
    emp = np.cov(draws.T)
    ana = wc.limit_cov_matrix(params, pts)
    rel = np.max(np.abs(emp - ana) / np.abs(ana))
    assert rel <= 0.05
    note(12, f"event-driven vs compound sampler KS p = {ks_p:.3f}; "
             f"stochastic-integral covariance within {100 * rel:.2f}% of the limit")


def test_criterion_13_determinism(tmp_path):
    cfg_dict = {
        "n": 100, "T": 1.0, "S": 0.25, "t_grid": [0.5, 1.0], "r_grid": [0.0],
        "kernel": [[1, 0.7], [-1, 0.3]],
        "occupancy": {"type": "poisson", "rho": 1.0},
        "replicas": 1500, "master_seed": 13131313,
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    from walkcurrent.cli import main
    payloads = {}
    for workers in (1, 3):
        out = str(tmp_path / f"w{workers}")
        assert main(["cov-check", "--config", str(cfg_path), "--out", out,
                     "--workers", str(workers)]) == 0
        payloads[workers] = {
            name: Path(os.path.join(out, name)).read_bytes()
            for name in ("cov_check.csv", "cov_check.json", "mean_check.csv")
        }
    assert payloads[1] == payloads[3]
    note(13, "reports byte-identical across worker counts at a fixed seed")
