import csv
import dataclasses
import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

import walkcurrent as wc
from conftest import lattice_chisquare, lattice_two_sample, site_class_laws
from pmf_oracles import pmf_moments, poisson_site_current_pmf
from walkcurrent.simulate import (BATCH_STREAM, _site_class_laws, _table_from_laws,
                                  batch_currents, bracket, replica_rng,
                                  signed_crossing_count)
from window_oracles import bisection_truncation_radius


def small_config(n=100, replicas=200, t_grid=(0.5, 1.0), r_grid=(0.0,),
                 occupancy=None, kernel=None, seed=42, S=0.25, window_tol=1e-6):
    return wc.ExperimentConfig(
        n=n, T=max(t_grid), S=S, t_grid=t_grid, r_grid=r_grid,
        kernel=kernel or wc.validate_kernel({1: 0.7, -1: 0.3}),
        occupancy=occupancy or wc.OccupancyModel.poisson(1.0),
        master_seed=seed, replicas=replicas, window_tol=window_tol)


def batch_rng(cfg, index):
    """The generator that ensemble batch `index` draws from."""
    return replica_rng(cfg.master_seed, BATCH_STREAM, index)


def acceptance_config(**overrides):
    args = dict(n=2500, T=1.0, S=0.5, t_grid=(0.5, 1.0), r_grid=(-0.5, 0.0, 0.5),
                kernel=wc.validate_kernel({1: 0.7, -1: 0.3}),
                occupancy=wc.OccupancyModel.poisson(1.0),
                master_seed=20260810, replicas=1)
    args.update(overrides)
    return wc.ExperimentConfig(**args)


class TestBracket:
    def test_plain_floor(self):
        assert bracket(2.7) == 2
        assert bracket(-0.5) == -1
        assert bracket(3.0) == 3

    def test_snaps_float_jitter(self):
        # 2500 * (0.7 - 0.3) * 1.0 lands one ulp below 1000
        v = 0.7 - 0.3
        assert 2500 * v * 1.0 < 1000.0
        assert bracket(2500 * v * 1.0) == 1000

    def test_does_not_snap_real_gaps(self):
        assert bracket(2.999999) == 2
        assert bracket(-1e-6) == -1


class TestConfigValidation:
    def test_grids_checked(self):
        with pytest.raises(ValueError):
            small_config(t_grid=(1.0, 0.5))
        with pytest.raises(ValueError):
            small_config(r_grid=(-1.0, 0.0), S=0.5)
        with pytest.raises(ValueError):
            small_config(replicas=0)
        with pytest.raises(ValueError):
            small_config(window_tol=1e-3)


class TestTruncationRadius:
    def test_bound_holds_independently(self):
        cfg = small_config()
        w = wc.truncation_radius(cfg)
        # recompute the summed-tail inequality by brute force
        total = 0.0
        for t in cfg.t_grid:
            tau = cfg.n * t
            ds = np.arange(w + 1, w + 20_000, dtype=float)
            terms = np.minimum(
                np.exp(wc.chernoff_log_tail(cfg.kernel, tau, np.maximum(ds - 1, 0))), 1.0)
            assert terms[-1] < 1e-30  # horizon far past any mass
            total += 2.0 * cfg.occupancy.rho0 * terms.sum()
        assert total <= cfg.window_tol

    def test_pure_drift_kernel_bound(self):
        cfg = small_config(kernel=wc.validate_kernel({1: 1.0}), t_grid=(1.0,))
        w = wc.truncation_radius(cfg)
        assert wc.window_bound(cfg, w) <= cfg.window_tol
        assert wc.window_bound(cfg, w // 2) > cfg.window_tol  # smallest on the grid

    def test_monotone_in_tolerance(self):
        w_loose = wc.truncation_radius(small_config(window_tol=1e-5))
        w_tight = wc.truncation_radius(small_config(window_tol=5e-6))
        assert w_tight >= w_loose

    def test_empty_system_minimal(self):
        cfg = small_config(occupancy=wc.OccupancyModel.custom([(0, 1.0)]))
        assert wc.truncation_radius(cfg) == 16

    def test_bound_monotone_in_width(self):
        for cfg, widths in ((small_config(), range(16, 400)),
                            (acceptance_config(), range(16, 700, 7))):
            bounds = [wc.window_bound(cfg, w) for w in widths]
            assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_negative_width_rejected(self):
        # the bounds are read from an array: -1 must not read its last entry
        cfg = small_config()
        with pytest.raises(ValueError):
            wc.window_bound(cfg, -1)
        assert wc.window_bound(cfg, 10 ** 9) == wc.window_bound(cfg, 10 ** 6) > 0.0

    def test_bound_is_full_sum_when_failing(self):
        # a failing width reports the whole bound, not a partial sum
        cfg = acceptance_config()
        for w in (200, 256):
            total = 0.0
            for t in cfg.t_grid:
                ds = np.arange(w + 1, w + 20_000, dtype=float)
                terms = np.minimum(np.exp(wc.chernoff_log_tail(
                    cfg.kernel, cfg.n * t, np.maximum(ds - 1, 0))), 1.0)
                total += 2.0 * cfg.occupancy.rho0 * terms.sum()
            assert wc.window_bound(cfg, w) == pytest.approx(total, rel=1e-9)
            assert total > cfg.window_tol

    def test_smallest_certified_width(self):
        fbm = acceptance_config(T=4.0, S=0.1, t_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
                                r_grid=(0.0,),
                                occupancy=wc.OccupancyModel.deterministic(1))
        for cfg in (small_config(), acceptance_config(), fbm):
            w = wc.truncation_radius(cfg)
            assert w > 16
            assert wc.window_bound(cfg, w) <= cfg.window_tol
            assert wc.window_bound(cfg, w - 1) > cfg.window_tol

    def test_unreachable_window(self):
        cfg = wc.ExperimentConfig(
            n=10_000, T=1.0, S=0.5, t_grid=(1.0,), r_grid=(0.0,),
            kernel=wc.validate_kernel({1: 0.7, -1: 0.3}),
            occupancy=wc.OccupancyModel.poisson(1.0),
            master_seed=1, replicas=1, window_tol=1e-6, max_window_sites=64)
        with pytest.raises(wc.WindowUnreachableError):
            wc.truncation_radius(cfg)

    def test_log_bound_past_exp_range_warns_nothing(self):
        # at n = 1e12 the Chernoff log bounds near the window edge pass
        # log(DBL_MAX); they are capped before exp, so the certification
        # ends in its own error and emits no overflow warning
        cfg = wc.ExperimentConfig(
            n=10 ** 12, T=1.0, S=1e-4, t_grid=(1.0,), r_grid=(0.0,),
            kernel=wc.validate_kernel({1: 0.7, -1: 0.3}),
            occupancy=wc.OccupancyModel.poisson(1.0), master_seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(wc.WindowUnreachableError):
                wc.truncation_radius(cfg)


class TestSignedCrossingCount:
    def test_single_particle_reading(self):
        # one particle at start 1, anchor 0, zero drift line: current is 1
        # exactly when the particle sits at or below 0
        for pos, expect in [(-3, 1), (0, 1), (1, 0), (5, 0)]:
            got = signed_crossing_count(np.array([1]), np.array([pos]), 0, 0)
            assert got == expect

    def test_left_particle_reading(self):
        for pos, expect in [(-3, 0), (0, 0), (1, -1), (5, -1)]:
            got = signed_crossing_count(np.array([0]), np.array([pos]), 0, 0)
            assert got == expect


class TestSimulateReplica:
    def test_time_zero_row_is_zero(self):
        cfg = small_config(t_grid=(0.0, 0.5), replicas=1)
        fieldval = wc.simulate_replica(cfg, 0)
        assert np.all(fieldval.values[0] == 0)

    def test_scaled_is_exact_multiple(self):
        cfg = small_config(replicas=1)
        f = wc.simulate_replica(cfg, 0)
        assert np.array_equal(f.scaled, f.values * cfg.n ** -0.25)

    def test_counting_identity_every_replica(self):
        cfg = small_config(replicas=20, r_grid=(-0.25, 0.0, 0.25), S=0.25)
        w = wc.truncation_radius(cfg)
        anchors = cfg.anchors()
        shifts = cfg.line_shifts()
        for i in range(cfg.replicas):
            f, starts, snaps = wc.simulate_replica(cfg, i, window=w,
                                                   return_particles=True)
            for k in range(len(cfg.t_grid)):
                for j, a in enumerate(anchors):
                    c = a + shifts[k]
                    identity = (np.count_nonzero(snaps[k] <= c)
                                - np.count_nonzero(starts <= a))
                    assert f.values[k, j] == identity

    def test_spatial_difference_identity(self):
        # Y(t, r) - Y(t, r') telescopes to start/position interval counts
        cfg = small_config(replicas=10, r_grid=(-0.25, 0.0, 0.25), S=0.25)
        w = wc.truncation_radius(cfg)
        anchors = cfg.anchors()
        shifts = cfg.line_shifts()
        for i in range(cfg.replicas):
            f, starts, snaps = wc.simulate_replica(cfg, i, window=w,
                                                   return_particles=True)
            for k in range(len(cfg.t_grid)):
                for j in range(len(anchors) - 1):
                    a_lo, a_hi = anchors[j], anchors[j + 1]
                    c_lo, c_hi = a_lo + shifts[k], a_hi + shifts[k]
                    started = np.count_nonzero((starts > a_lo) & (starts <= a_hi))
                    sitting = np.count_nonzero((snaps[k] > c_lo) & (snaps[k] <= c_hi))
                    assert f.values[k, j] - f.values[k, j + 1] == started - sitting

    def test_deterministic_given_seed(self):
        cfg = small_config(replicas=2)
        a = wc.simulate_replica(cfg, 1)
        b = wc.simulate_replica(cfg, 1)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        cfg_a = small_config(replicas=1, seed=1)
        cfg_b = small_config(replicas=1, seed=2)
        a = wc.simulate_replica(cfg_a, 0)
        b = wc.simulate_replica(cfg_b, 0)
        assert not np.array_equal(a.values, b.values)

    def test_replica_index_bounds(self):
        cfg = small_config(replicas=3)
        with pytest.raises(ValueError):
            wc.simulate_replica(cfg, 3)

    def test_particle_stream_pinned(self):
        # the particle engine's draws at a fixed window are part of its contract
        cfg = small_config(replicas=3, r_grid=(-0.25, 0.0, 0.25), seed=7,
                           occupancy=wc.OccupancyModel.deterministic(1))
        got = [wc.simulate_replica(cfg, i, window=40).values.tolist() for i in range(3)]
        assert got == [[[2, 2, 2], [3, 1, -1]],
                       [[0, 1, 3], [0, -1, -2]],
                       [[-2, 0, 3], [-3, -3, -1]]]


class TestMoverDraw:
    """The per-mover draw on hand-made site laws: a site whose particles
    always move (q = 1), a dense one (q = 3/4), a sparse one (q = 1/4) and
    one whose particles never move (q = 0).  The signs are the identity, so
    a row is the replica's class counts."""

    PROBS = [[0.5, 0.25, 0.25], [0.375, 0.25, 0.125], [0.125, 0.0625, 0.0625],
             [0.0, 0.0, 0.0]]

    def table(self, occ, sites=(0, 1, 2, 3)):
        probs = np.array([self.PROBS[m] for m in sites])
        classes = np.arange(6, dtype=np.int64).reshape(3, 2)
        return _table_from_laws(occ, classes, np.eye(3, dtype=np.int64), probs)

    def test_move_probabilities(self):
        table = self.table(wc.OccupancyModel.deterministic(1))
        assert table.move.tolist() == [1.0, 0.75, 0.25, 0.0]

    @pytest.mark.parametrize("k", [1, 3])
    def test_every_particle_moves_at_q_one(self, k):
        # a fixed count at a site with q = 1: every particle has a class
        table = self.table(wc.OccupancyModel.deterministic(k), sites=(0, 3))
        rows = table.draw(np.random.default_rng(1), 500)
        assert np.all(rows.sum(axis=1) == k)
        assert np.all(rows.mean(axis=0) > 0.0)

    def test_no_particle_moves_at_q_zero(self):
        for occ in (wc.OccupancyModel.deterministic(2), wc.OccupancyModel.geometric(1.0)):
            rows = self.table(occ, sites=(3,)).draw(np.random.default_rng(2), 200)
            assert rows.shape == (200, 3) and not rows.any()

    @pytest.mark.parametrize("occ", [wc.OccupancyModel.deterministic(2),
                                     wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)]),
                                     wc.OccupancyModel.geometric(1.0)],
                             ids=["deterministic", "custom", "geometric"])
    def test_moments_every_kind_of_site(self, occ):
        table = self.table(occ)
        rows = table.draw(np.random.default_rng(3), 100_000)
        mean, cov = table.moments()
        z = (rows.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / rows.shape[0])
        assert np.abs(z).max() < 4.0
        assert np.abs(np.cov(rows.T) - cov).max() < 0.05 * np.diag(cov).max()

    def test_pick_stays_in_row_and_skips_zero_mass(self):
        # rows whose first or last classes have no mass, read at uniforms
        # from 0 to just below 1, the row's own steps and the points one ulp
        # below them among them: every pick is the table's own inverse cdf,
        # a class of positive mass in the mover's own row, the last site's
        # included
        probs = np.array([[0.0, 0.0, 0.5, 0.25], [0.25, 0.5, 0.0, 0.0],
                          [0.0, 0.3, 0.0, 0.0], [0.1, 0.0, 0.0, 0.2]])
        classes = np.arange(8, dtype=np.int64).reshape(4, 2)
        table = _table_from_laws(wc.OccupancyModel.deterministic(1), classes,
                                 np.eye(4, dtype=np.int64), probs.copy())
        edges = [0.0, 2.0 ** -53, 0.5, np.nextafter(1.0, 0.0)]
        for m in range(4):
            steps = table.cdf[m, table.cdf[m] < 1.0]
            u = np.concatenate((edges, steps, np.nextafter(steps, 0.0)))
            cls = table._pick_classes(np.full(u.size, m), u)
            assert np.array_equal(cls, search_pick(table, m, u)), (m, cls)
            assert np.all((cls >= 0) & (cls < 4)) and np.all(probs[m, cls] > 0.0), (m, cls)
        assert np.all(table.cdf[:, -1] == 1.0)
        assert np.allclose(np.diff(table.cdf, axis=1, prepend=0.0),
                           probs / table.move[:, None], rtol=0.0, atol=1e-15)

    def test_one_ulp_below_a_step_picks_its_class(self):
        # u just below cdf[c] is still in class c, and u at cdf[c] is past
        # it, however close the step lies to a guide bucket's edge
        for row in ([0.3, 0.2, 0.5], [0.1, 0.0, 0.2, 0.7 - 2.0 ** -53],
                    [0.25, 0.25, 0.125, 0.375]):
            law = np.array([row])
            table = _table_from_laws(wc.OccupancyModel.deterministic(1),
                                     np.zeros((law.shape[1], 2), np.int64),
                                     np.ones((law.shape[1], 1), np.int64), law.copy())
            live = np.flatnonzero(law[0] > 0.0)[:-1]
            steps = table.cdf[0, live]
            site = np.zeros(live.size, np.int64)
            assert np.array_equal(table._pick_classes(site, np.nextafter(steps, 0.0)), live)
            assert np.array_equal(table._pick_classes(site, steps),
                                  search_pick(table, 0, steps))

    def test_empty_law_draws_zeros(self):
        # a mean-0 law (allowed for simulate) draws no particle at all
        for occ in (wc.OccupancyModel.deterministic(0), wc.OccupancyModel.custom([(0, 1.0)])):
            cfg = small_config(occupancy=occ)
            rows = wc.class_table(cfg).draw(batch_rng(cfg, 0), 300)
            assert rows.shape == (300, 2) and not rows.any()


def search_pick(table, m, u):
    """The class pick of row m as one search of its cdf: the first class
    whose cdf exceeds u, the reference the guide table must reproduce."""
    return np.searchsorted(table.cdf[m], u, side="right")


def pick_edges(table, m):
    """Uniforms at which a pick of row m can go wrong: the ends of [0, 1),
    every step of the row's cdf and the point one ulp below it, and every
    guide bucket's start and the point one ulp below it."""
    buckets = np.arange(table.guide.shape[1]) / table.guide.shape[1]
    u = np.concatenate(([0.0, 2.0 ** -53, np.nextafter(1.0, 0.0)],
                        table.cdf[m], np.nextafter(table.cdf[m], 0.0),
                        buckets, np.nextafter(buckets, 0.0)))
    return u[(u >= 0.0) & (u < 1.0)]


# a class's mass: none, tiny (a cluster of them crowds one guide bucket,
# some a few ulps apart) or ordinary
CLASS_MASS = st.one_of(st.just(0.0), st.floats(1e-14, 1e-6), st.floats(1e-3, 1.0))


@st.composite
def row_laws(draw):
    """Site class laws of a few rows: the first row's first and last
    classes have no mass, and the last row has move 0."""
    ncls = draw(st.integers(1, 40))
    rows = draw(st.lists(st.lists(CLASS_MASS, min_size=ncls, max_size=ncls),
                         min_size=1, max_size=5))
    probs = np.array(rows + [[0.0] * ncls])
    probs[0, [0, -1]] = 0.0
    return probs / np.maximum(probs.sum(axis=1), 1.0)[:, None]


class TestGuideTable:
    """The guide pick against one search of the mover's cdf row."""

    @settings(max_examples=200, deadline=None)
    @given(row_laws(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    def test_pick_matches_search(self, probs, extra):
        ncls = probs.shape[1]
        table = _table_from_laws(wc.OccupancyModel.deterministic(1),
                                 np.zeros((ncls, 2), np.int64), np.ones((ncls, 1), np.int64),
                                 probs.copy())
        buckets = table.guide.shape[1]
        assert buckets >= 2 * ncls and buckets & (buckets - 1) == 0 and buckets < 4 * ncls
        assert table.guide.dtype == np.int16
        starts = np.arange(buckets)
        for m in np.flatnonzero(table.move > 0.0):
            # the guide's definition on cdf B, bucket by bucket
            scaled = table.cdf[m] * buckets
            first = np.searchsorted(scaled, starts, side="right")
            inside = np.searchsorted(scaled, starts + 1, side="left") - first
            assert np.array_equal(table.guide[m], np.where(inside >= 2, -1, first)), m
            u = np.concatenate((pick_edges(table, m), extra))
            cls = table._pick_classes(np.full(u.size, m), u)
            assert np.array_equal(cls, search_pick(table, m, u)), m
            assert np.all(probs[m, cls] > 0.0), m

    def test_rows_past_int16_classes(self):
        # a guide of more than 32,767 classes is int32; the picks reach the
        # classes past int16's range and match the search
        ncls = 40_000
        probs = np.full((2, ncls), 1.0 / ncls)
        probs[1, :ncls // 2] = 0.0
        probs[1] *= 2.0
        table = _table_from_laws(wc.OccupancyModel.deterministic(1),
                                 np.zeros((ncls, 2), np.int64), np.ones((ncls, 1), np.int64),
                                 probs.copy())
        assert table.guide.dtype == np.int32 and table.guide.max() == ncls - 1
        rng = np.random.default_rng(11)
        for m in range(2):
            u = np.concatenate((pick_edges(table, m), rng.random(5000)))
            cls = table._pick_classes(np.full(u.size, m), u)
            assert np.array_equal(cls, search_pick(table, m, u)), m
            assert np.all(probs[m, cls] > 0.0) and cls.max() > np.iinfo(np.int16).max, m


# Streams of the class draws: the sha256 of every batch's rows (int64) of a
# 400-replica ensemble at the benchmark's fbm-check shape under four
# occupancy laws, and at the acceptance shape under Poisson, fixed and
# random counts; and of the benchmark's own 3,000-replica fbm-check
# ensemble, whose batches each take two draw calls
FBM_SHAPE = dict(n=2500, T=4.0, S=0.1, t_grid=(0.25, 0.5, 1.0, 2.0, 4.0), r_grid=(0.0,))
ACCEPT_SHAPE = dict(n=2500, T=1.0, S=0.5, t_grid=(0.5, 1.0), r_grid=(-0.5, 0.0, 0.5))
ZERO_OR_TWO = wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)])
STREAM_GOLDENS = [
    (FBM_SHAPE, wc.OccupancyModel.deterministic(1), 400,
     "d5152d19dee16729e7e55b432aaf145787902c87307196bff4cd13601c30654b"),
    (FBM_SHAPE, wc.OccupancyModel.deterministic(2), 400,
     "d1f2353e61fa4f2fc8f41768a893434a658d8e0f3d722d89afa797e890ac5368"),
    (FBM_SHAPE, ZERO_OR_TWO, 400,
     "3cc46dce60a7da7740ec521bebe07ad0968c6f01ac08163127cb7502a95ffde4"),
    (FBM_SHAPE, wc.OccupancyModel.geometric(1.0), 400,
     "d02a26da48698a7e8d4d942ddcf466fc73007302ac00928d168fcce8a8d7c129"),
    (ACCEPT_SHAPE, wc.OccupancyModel.poisson(1.0), 400,
     "f937267aba19e2092863140abf99d81dba1c4d84966affdafe7e2fb049595a46"),
    (ACCEPT_SHAPE, wc.OccupancyModel.deterministic(1), 400,
     "7bdf3855a7355e57c95f56a55c07ee8cdd0978922e6ce5bed1aa510401f4e6d1"),
    (ACCEPT_SHAPE, ZERO_OR_TWO, 400,
     "d9f91b1b389e9b2c71a0a6ff30918ca041b07311d417a62e4718b466b69c1a99"),
    (FBM_SHAPE, wc.OccupancyModel.deterministic(1), 3000,
     "7bd08ffdc4a615ba1b2bbf09bb8f6247064ce12dda5306060f345fc884e2a92c"),
]


def stream_digest(shape, occ, replicas):
    """sha256 of every batch's rows of an ensemble drawn by the class engine."""
    cfg = wc.ExperimentConfig(kernel=wc.validate_kernel({1: 0.7, -1: 0.3}), occupancy=occ,
                              master_seed=20261019, replicas=replicas, **shape)
    table = wc.class_table(cfg)
    sha = hashlib.sha256()
    for index, batch in enumerate(wc.split_batches(cfg.replicas)):
        rows = batch_currents(cfg, table, index, batch)
        sha.update(np.ascontiguousarray(rows, np.int64).tobytes())
    return sha.hexdigest()


def test_class_draw_streams_pinned():
    # a change to any class draw's random stream, or to what it does with
    # the draws, moves one of these digests
    for shape, occ, replicas, digest in STREAM_GOLDENS:
        assert stream_digest(shape, occ, replicas) == digest, (occ.kind, replicas)


def test_fixed_count_draws_alike_under_any_law():
    # a law with variance 0 is a fixed count whatever its kind, so it
    # takes the fixed layout and draws the same rows
    fixed = wc.OccupancyModel.custom([(2, 1.0)])
    assert fixed.v0 == 0.0
    assert (stream_digest(FBM_SHAPE, fixed, 400)
            == stream_digest(FBM_SHAPE, wc.OccupancyModel.deterministic(2), 400))


def law_config(occupancy=None, kernel=None, **shape):
    return wc.ExperimentConfig(kernel=wc.validate_kernel(kernel or {1: 0.7, -1: 0.3}),
                               occupancy=occupancy or wc.OccupancyModel.poisson(1.0),
                               master_seed=1, **shape)


# The class laws (classes, signs, rows) of _site_class_laws over each config's
# certified window -- or over the window of a wider grid, for the one-point
# config of the tilted sampler -- pinned by the sha256 of every array's shape
# and bytes; None pins the fallback
LAW_GOLDENS = {
    "acceptance": (law_config(**ACCEPT_SHAPE), None,
                   "72c66d50a41b0758cd3cefa7527d5ed638d4acc90589fd8c8f2f937617d233ef"),
    "fbm-fixed": (law_config(occupancy=wc.OccupancyModel.deterministic(1), **FBM_SHAPE), None,
                  "1169676d7f763227a03b945fad2dcc0ef2b3cefa69e06b1ce1c47c20e2827bc8"),
    "time-zero-row": (law_config(n=25, T=0.5, S=0.4, t_grid=(0.0, 0.5),
                                 r_grid=(-0.4, 0.0, 0.4)), None,
                      "6768e741e83103c5210db6c086bc1c0a210f49c47717a4956570444de3de5921"),
    "zero-offset-kernel": (law_config(kernel={-1: 0.2, 0: 0.5, 1: 0.3}, n=100, T=1.0, S=0.25,
                                      t_grid=(0.5, 1.0), r_grid=(-0.2, 0.2)), None,
                           "0b53315e1ecbc2f7db145d32f8c13c011289c950f4f4a9929f5e327314e3b650"),
    "wide-kernel": (law_config(kernel={2: 0.5, -1: 0.5}, n=100, T=1.0, S=0.25,
                               t_grid=(0.25, 1.0), r_grid=(0.0, 0.2)), None,
                    "77a90ab97665b92b3046f392e27051835de55cce45d2b8b36d571af39ca459b3"),
    "repeated-anchors": (law_config(n=4, T=1.0, S=0.25, t_grid=(0.5, 1.0),
                                    r_grid=(0.1, 0.2)), None,
                         "bb70311e02e63968e1c3862ec391856ef8bdcf67f3895b231a5bab7a29c25162"),
    "tilted-point": (law_config(n=2500, T=1.0, S=0.5, t_grid=(1.0,), r_grid=(0.5,)),
                     law_config(**ACCEPT_SHAPE),
                     "b8acb33e6efdc2a77388b85cf026386fd01e21e08c822469e4fc8d3a8a258987"),
    "fallback": (law_config(n=4, T=1.0, S=1.0, t_grid=(0.25, 0.5, 0.75, 1.0),
                            r_grid=(-1.0, -0.5, 0.0, 0.5, 1.0)), None, None),
}


@pytest.mark.parametrize("name", sorted(LAW_GOLDENS))
def test_class_laws_pinned(name):
    # a change to the cuts, the convolutions or the class order of the
    # table build moves one of these digests
    cfg, window_cfg, digest = LAW_GOLDENS[name]
    lo, hi = wc.window_span(window_cfg or cfg, wc.truncation_radius(window_cfg or cfg))
    laws = _site_class_laws(cfg, lo, hi)
    if digest is None:
        assert laws is None
        return
    sha = hashlib.sha256()
    for arr in laws:
        sha.update(repr(arr.shape).encode())
        sha.update(np.ascontiguousarray(arr).tobytes())
    assert sha.hexdigest() == digest


class TestRunEnsemble:
    def test_single_replica_matches(self):
        # replica i of an ensemble is row i - start of its batch's draw,
        # under Poisson class counts and under per-particle classes alike
        for occ in (None, wc.OccupancyModel.deterministic(1)):
            cfg = small_config(replicas=120, occupancy=occ)
            table = wc.class_table(cfg)
            batches = wc.split_batches(cfg.replicas)
            assert len(batches) == 50 and batches[-1].stop == cfg.replicas
            fields = list(wc.run_ensemble(cfg, table))
            assert [f.replica_seed for f in fields] == list(range(cfg.replicas))
            for index in (0, 7, 49):
                rows = table.draw(batch_rng(cfg, index), len(batches[index]))
                for i, row in zip(batches[index], rows):
                    assert np.array_equal(fields[i].values.ravel(), row)

    def test_repeatable(self):
        cfg = small_config(replicas=5)
        a = [f.values.copy() for f in wc.run_ensemble(cfg, wc.class_table(cfg))]
        b = [f.values.copy() for f in wc.run_ensemble(cfg, wc.class_table(cfg))]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


OCCUPANCIES = {
    "poisson": wc.OccupancyModel.poisson(1.3),
    "custom": wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)]),
    "deterministic": wc.OccupancyModel.deterministic(2),
}


DRIFT = {1: 0.7, -1: 0.3}


def window_config(n=2500, S=0.5, t_grid=(0.5, 1.0), r_grid=(0.0,), kernel=DRIFT,
                  occupancy=None, window_tol=1e-6, max_window_sites=4_000_000):
    return wc.ExperimentConfig(
        n=n, T=max(t_grid[-1], 0.5), S=S, t_grid=t_grid, r_grid=r_grid,
        kernel=wc.validate_kernel(kernel),
        occupancy=occupancy or wc.OccupancyModel.poisson(1.0),
        master_seed=1, window_tol=window_tol, max_window_sites=max_window_sites)


def assert_same_window(cfg):
    """The certified width is the bisection's, its bound is window_bound's,
    and the width is the first to meet window_tol."""
    try:
        expected = bisection_truncation_radius(cfg)
    except wc.WindowUnreachableError:
        with pytest.raises(wc.WindowUnreachableError):
            wc.certified_window(cfg)
        return None
    width, bound = wc.certified_window(cfg)
    assert width == expected
    assert bound == wc.window_bound(cfg, width) <= cfg.window_tol
    if width > 16:
        assert wc.window_bound(cfg, width - 1) > cfg.window_tol
    return width


class TestCertifiedWindow:
    # the benchmark's four windows: cov-check, fbm-check and rate-empirical
    # at n = 100 (then 400 and 1600)
    BENCH = [
        dict(t_grid=(0.5, 1.0), r_grid=(-0.5, 0.0, 0.5)),
        dict(S=0.1, t_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
             occupancy=wc.OccupancyModel.deterministic(1)),
        dict(n=100, S=0.25, t_grid=(1.0,)),
        dict(n=400, S=0.25, t_grid=(1.0,)),
        dict(n=1600, S=0.25, t_grid=(1.0,)),
    ]
    # every config whose window tests/test_simulate.py certifies
    SUITE = [
        small_config(), small_config(kernel=wc.validate_kernel({1: 1.0}), t_grid=(1.0,)),
        small_config(window_tol=1e-5), small_config(window_tol=5e-6),
        small_config(occupancy=wc.OccupancyModel.custom([(0, 1.0)])),
        small_config(r_grid=(-0.25, 0.0, 0.25)),
        small_config(n=25, t_grid=(1.0,)), small_config(n=4, S=1.0),
        acceptance_config(),
    ] + [small_config(n=n, t_grid=(1.0,)) for n in (25, 100, 400, 1600, 2500)] + [
        small_config(n=25, r_grid=(-0.4, 0.0, 0.4), S=0.4, occupancy=occ, t_grid=tg)
        for occ in OCCUPANCIES.values() for tg in ((0.5, 1.0), (0.0, 0.5))
    ] + [acceptance_config(occupancy=occ) for occ in OCCUPANCIES.values()]

    @pytest.mark.parametrize("overrides", BENCH)
    def test_bench_widths(self, overrides):
        assert assert_same_window(window_config(**overrides)) > 16

    @pytest.mark.parametrize("index", range(len(SUITE)))
    def test_suite_widths(self, index):
        assert_same_window(self.SUITE[index])

    def test_large_n(self):
        cfg = window_config(n=1_000_000, t_grid=(0.5, 1.0), r_grid=(-0.5, 0.0, 0.5))
        assert assert_same_window(cfg) == 6363

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 100_000), S=st.floats(0.05, 1.0),
           times=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4, unique=True),
           kernel=st.dictionaries(st.integers(-3, 3), st.floats(0.05, 1.0),
                                  min_size=1, max_size=4),
           occupancy=st.sampled_from([wc.OccupancyModel.poisson(0.5),
                                      wc.OccupancyModel.poisson(3.0),
                                      wc.OccupancyModel.deterministic(1),
                                      wc.OccupancyModel.custom([(0, 1.0)])]),
           log_tol=st.floats(-12.0, -4.0),
           sites=st.one_of(st.just(4_000_000), st.integers(40, 4000)))
    def test_drawn_configs(self, n, S, times, kernel, occupancy, log_tol, sites):
        assert_same_window(window_config(
            n=n, S=S, t_grid=tuple(sorted(times)), kernel=kernel, occupancy=occupancy,
            window_tol=10.0 ** log_tol, max_window_sites=sites))

    def test_unreachable_configs(self):
        unreachable = [
            # tests/test_simulate.py::TestTruncationRadius::test_unreachable_window
            window_config(n=10_000, t_grid=(1.0,), max_window_sites=64),
            # the rate-empirical check in tests/test_config_cli.py
            window_config(n=100, S=0.25, t_grid=(1.0,), max_window_sites=20),
        ]
        for cfg in unreachable:
            with pytest.raises(wc.WindowUnreachableError):
                bisection_truncation_radius(cfg)
            with pytest.raises(wc.WindowUnreachableError):
                wc.certified_window(cfg)

    def test_cap_between_doubling_widths(self):
        # width 296 fits in the cap, but the doubling reached 512 first
        cfg = window_config(t_grid=(0.5, 1.0), r_grid=(-0.5, 0.0, 0.5))
        width = wc.truncation_radius(cfg)
        assert width == 296
        capped = dataclasses.replace(cfg, max_window_sites=wc.simulate._window_sites(cfg, 400))
        with pytest.raises(wc.WindowUnreachableError):
            bisection_truncation_radius(capped)
        with pytest.raises(wc.WindowUnreachableError):
            wc.truncation_radius(capped)
        at_doubling = dataclasses.replace(cfg, max_window_sites=wc.simulate._window_sites(cfg, 512))
        assert wc.truncation_radius(at_doubling) == bisection_truncation_radius(at_doubling) == 296
        # the answer just past a doubling width, whose own terms still fit
        just_past = dataclasses.replace(cfg, window_tol=wc.window_bound(cfg, 260),
                                        max_window_sites=wc.simulate._window_sites(cfg, 256))
        assert bisection_truncation_radius(dataclasses.replace(just_past,
                                                               max_window_sites=4_000_000)) == 260
        with pytest.raises(wc.WindowUnreachableError):
            bisection_truncation_radius(just_past)
        with pytest.raises(wc.WindowUnreachableError):
            wc.certified_window(just_past)


class TestExactCurrentPmf:
    def test_time_zero_point_mass(self):
        for occupancy in (None, OCCUPANCIES["custom"]):
            cfg = small_config(t_grid=(0.0, 1.0), occupancy=occupancy)
            pmf = wc.exact_current_pmf(cfg, 0.0, 0.0)
            assert pmf.offset_min == 0 and pmf.masses.tolist() == [1.0]
            assert pmf.deficit == 0.0

    @pytest.mark.parametrize("kind", sorted(OCCUPANCIES))
    @pytest.mark.parametrize("n", [25, 400, 2500])
    def test_mass_plus_deficit_is_one(self, kind, n):
        cfg = small_config(n=n, t_grid=(1.0,), occupancy=OCCUPANCIES[kind])
        pmf = wc.exact_current_pmf(cfg, 1.0, 0.0)
        assert abs(pmf.masses.sum() + pmf.deficit - 1.0) <= 1e-14

    @pytest.mark.parametrize("n", [100, 400, 1600, 2500])
    def test_skellam_deep_tail(self, n):
        # P(Y >= sqrt(n)) falls to 3.5e-14 at n = 2500: the Skellam windows
        # must reach that far into both Poisson tails
        cfg = small_config(n=n, t_grid=(1.0,))
        w = wc.truncation_radius(cfg)
        threshold = math.ceil(math.sqrt(n))
        pmf = wc.exact_current_pmf(cfg, 1.0, 0.0)
        ref = poisson_site_current_pmf(cfg, 1.0, 0.0, w)
        assert pmf.tail_geq(threshold) == pytest.approx(ref.tail_geq(threshold), rel=1e-8)

    def test_empty_system_point_mass(self):
        cfg = small_config(occupancy=wc.OccupancyModel.deterministic(0))
        pmf = wc.exact_current_pmf(cfg, 1.0, 0.0)
        assert pmf.offset_min == 0 and pmf.masses.tolist() == [1.0]

    def test_mean_against_direct_sum(self):
        cfg = small_config()
        w = wc.truncation_radius(cfg)
        pmf = wc.exact_current_pmf(cfg, 1.0, 0.0)
        wp = wc.walk_pmf(cfg.kernel, cfg.n * 1.0)
        lo = bracket(-cfg.S * cfg.sqrt_n) - w
        hi = bracket(cfg.S * cfg.sqrt_n) + w
        sites = np.arange(lo, hi + 1)
        line = bracket(cfg.n * cfg.kernel.v * 1.0)
        p = np.asarray(wp.cdf(line - sites), float)
        q = np.array([wp.tail_geq(k + 1) for k in line - sites])
        direct = cfg.occupancy.rho0 * (p[sites > 0].sum() - q[sites <= 0].sum())
        assert abs(pmf_moments(pmf)[1] - direct) < 1e-6

    def test_skellam_closed_form(self):
        # Poisson occupancy: the current is a difference of Poisson counts
        cfg = small_config()
        w = wc.truncation_radius(cfg)
        pmf = wc.exact_current_pmf(cfg, 0.5, 0.0)
        wp = wc.walk_pmf(cfg.kernel, cfg.n * 0.5)
        lo = bracket(-cfg.S * cfg.sqrt_n) - w
        hi = bracket(cfg.S * cfg.sqrt_n) + w
        sites = np.arange(lo, hi + 1)
        line = bracket(cfg.n * cfg.kernel.v * 0.5)
        p = np.asarray(wp.cdf(line - sites), float)
        q = np.array([wp.tail_geq(k + 1) for k in line - sites])
        mu_plus = p[sites > 0].sum()
        mu_minus = q[sites <= 0].sum()
        ref = spstats.skellam.pmf(pmf_moments(pmf)[0], mu_plus, mu_minus)
        assert np.abs(pmf.masses - ref).max() < 1e-11

    def test_deficit_tracked(self):
        cfg = small_config()
        pmf = wc.exact_current_pmf(cfg, 1.0, 0.0)
        assert 0.0 <= pmf.deficit < 1e-9

    def test_finite_occupancy_supported(self):
        cfg = small_config(occupancy=wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)]),
                           n=25, t_grid=(1.0,))
        pmf = wc.exact_current_pmf(cfg, 1.0, 0.0)
        assert pmf.deficit < 1e-11
        assert abs(pmf.masses.sum() - 1.0) < 1e-9

    def test_geometric_rejected(self):
        cfg = small_config(occupancy=wc.OccupancyModel.geometric(1.0))
        with pytest.raises(ValueError):
            wc.exact_current_pmf(cfg, 1.0, 0.0)

    def test_simulation_matches_pmf(self):
        cfg = small_config(n=25, replicas=20_000, t_grid=(1.0,), seed=99)
        w = wc.truncation_radius(cfg)
        pmf = wc.exact_current_pmf(cfg, 1.0, 0.0)
        vals = np.array([wc.simulate_replica(cfg, i, window=w).values[0, 0]
                         for i in range(cfg.replicas)])
        p = lattice_chisquare(vals, pmf_moments(pmf)[0], pmf.masses)
        assert p > 0.01


class TestCellEngine:
    def three_by_two(self, n=25, replicas=20_000, seed=5150, occupancy=None,
                     t_grid=(0.5, 1.0)):
        # anchors at -2, 0, 2 when n = 25
        return small_config(n=n, replicas=replicas, r_grid=(-0.4, 0.0, 0.4), S=0.4,
                            seed=seed, occupancy=occupancy, t_grid=t_grid)

    def test_moments_match_exact_pmf(self):
        for cfg in (self.three_by_two(n=100), acceptance_config()):
            table = wc.class_table(cfg)
            mean = table.means @ table.signs
            var = table.means @ table.signs ** 2
            for k, (t, r) in enumerate(cfg.grid_points()):
                _, pmf_mean, pmf_var = pmf_moments(wc.exact_current_pmf(cfg, t, r))
                assert abs(mean[k] - pmf_mean) < 1e-8
                assert abs(var[k] - pmf_var) < 1e-8

    @pytest.mark.parametrize("kind", sorted(OCCUPANCIES))
    def test_exact_moments_every_law(self, kind):
        occ = OCCUPANCIES[kind]
        for cfg in (self.three_by_two(n=100, occupancy=occ),
                    acceptance_config(occupancy=occ)):
            mean, cov = wc.class_table(cfg).moments()
            for k, (t, r) in enumerate(cfg.grid_points()):
                _, pmf_mean, pmf_var = pmf_moments(wc.exact_current_pmf(cfg, t, r))
                assert abs(mean[k] - pmf_mean) < 1e-10
                assert abs(cov[k, k] - pmf_var) < 1e-10

    def test_class_table_shape(self):
        cfg = acceptance_config()
        table = wc.class_table(cfg)
        R, K = len(cfg.r_grid), len(cfg.t_grid)
        rows = [tuple(c) for c in table.classes.tolist()]
        assert rows == sorted(rows) and len(set(rows)) == len(rows)
        assert 0 < len(rows) <= (R + 1) ** (K + 1)
        assert table.signs.shape == (len(rows), K * R)
        assert np.all(np.any(table.signs != 0, axis=1))
        assert np.all(table.means > 0.0)

    def test_chisquare_against_exact_pmf(self):
        cfg = self.three_by_two(seed=1)
        table = wc.class_table(cfg)
        fields = table.draw(batch_rng(cfg, 0), cfg.replicas).reshape(cfg.replicas, 2, 3)
        for k, t in enumerate(cfg.t_grid):
            pmf = wc.exact_current_pmf(cfg, t, 0.4)
            p = lattice_chisquare(fields[:, k, 2], pmf_moments(pmf)[0], pmf.masses)
            assert p > 0.01

    def test_cross_time_difference_matches_particle_engine(self):
        cfg = self.three_by_two(replicas=10_000)
        w = wc.truncation_radius(cfg)
        table = wc.class_table(cfg)
        cells = table.draw(batch_rng(cfg, 0), cfg.replicas).reshape(cfg.replicas, 2, 3)
        parts = np.stack([wc.simulate_replica(cfg, i, window=w).values
                          for i in range(cfg.replicas)])
        p = lattice_two_sample(cells[:, 1, 0] - cells[:, 0, 0],
                               parts[:, 1, 0] - parts[:, 0, 0])
        assert p > 0.01

    @pytest.mark.parametrize("occ", [wc.OccupancyModel.deterministic(1),
                                     wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)]),
                                     wc.OccupancyModel.geometric(1.0)],
                             ids=["deterministic", "custom", "geometric"])
    def test_per_particle_classes_match_particle_engine(self, occ):
        # Y(t2, -0.4) - Y(t1, 0.4) reads the joint law across times and offsets
        cfg = self.three_by_two(replicas=5000, seed=6060, occupancy=occ)
        w = wc.truncation_radius(cfg)
        cells = wc.class_table(cfg).draw(batch_rng(cfg, 0), cfg.replicas).reshape(-1, 2, 3)
        parts = np.stack([wc.simulate_replica(cfg, i, window=w).values
                          for i in range(cfg.replicas)])
        p = lattice_two_sample(cells[:, 1, 0] - cells[:, 0, 2],
                               parts[:, 1, 0] - parts[:, 0, 2])
        assert p > 0.01

    def test_non_poisson_runs_on_classes(self):
        # one table for every law: the same classes and site laws, the
        # expected counts scaled by the mean occupancy, and move
        # probabilities and cumulative class laws for the per-mover draw
        poisson = wc.class_table(small_config())
        assert poisson.move is None and poisson.cdf is None
        for occ in (wc.OccupancyModel.deterministic(1), wc.OccupancyModel.geometric(1.0),
                    wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)])):
            table = wc.class_table(small_config(occupancy=occ))
            assert np.array_equal(table.classes, poisson.classes)
            assert np.array_equal(table.site_means, poisson.site_means)
            assert np.allclose(table.means, occ.rho0 * poisson.means, rtol=1e-14, atol=0)
            nsites = table.site_means.shape[0]
            assert table.move.shape == (nsites,)
            assert table.cdf.shape == (nsites, table.means.size)

    def test_cumulative_rows_reproduce_site_laws(self):
        # the site laws pi_m rebuilt from the move probabilities and the
        # cumulative conditional class laws give the table's class means
        # and site sign means, and the particles that do not move the rest
        cfg = small_config(occupancy=wc.OccupancyModel.deterministic(1))
        table = wc.class_table(cfg)
        probs = site_class_laws(table)
        cond = probs / table.move[:, None]
        assert np.all(probs >= 0.0) and np.all((table.move > 0.0) & (table.move <= 1.0))
        assert np.abs(cond.sum(axis=1) - 1.0).max() < 1e-14
        assert np.abs(probs.sum(axis=0) - table.means).max() < 1e-13
        assert np.abs(probs @ table.signs - table.site_means).max() < 1e-14

    @pytest.mark.parametrize("occ", [wc.OccupancyModel.deterministic(1),
                                     wc.OccupancyModel.deterministic(2),
                                     wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)]),
                                     wc.OccupancyModel.geometric(1.0)],
                             ids=["deterministic1", "deterministic2", "custom", "geometric"])
    def test_mover_draw_moments(self, occ):
        # 50,000 replicas of the per-mover draw against the exact moments
        cfg = self.three_by_two(n=100, occupancy=occ)
        table = wc.class_table(cfg)
        rows = table.draw(batch_rng(cfg, 0), 50_000)
        mean, cov = table.moments()
        z = (rows.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / rows.shape[0])
        assert np.abs(z).max() < 4.0
        ratio = np.diag(np.cov(rows.T)) / np.diag(cov)
        assert np.abs(ratio - 1.0).max() < 0.05

    def test_falls_back_when_classes_exceed_sites(self):
        cfg = small_config(n=4, replicas=3, S=1.0, r_grid=(-1.0, -0.5, 0.0, 0.5, 1.0),
                           t_grid=(0.25, 0.5, 0.75, 1.0))
        assert wc.class_table(cfg) is None
        w = wc.truncation_radius(cfg)
        for i, fieldval in enumerate(wc.run_ensemble(cfg, None)):
            assert np.array_equal(fieldval.values,
                                  wc.simulate_replica(cfg, i, window=w).values)

    def test_time_zero_row_is_zero(self):
        cfg = small_config(t_grid=(0.0, 0.5), replicas=5)
        table = wc.class_table(cfg)
        rows = table.draw(batch_rng(cfg, 0), cfg.replicas)
        assert rows.shape == (cfg.replicas, 2) and np.all(rows[:, 0] == 0)

    @pytest.mark.parametrize("kind", ["poisson", "custom"])
    def test_time_zero_row_with_three_offsets(self, kind):
        # the time-0 suffixes are the intervals between the lines, and each
        # lies wholly above or below most start intervals
        cfg = self.three_by_two(replicas=50, occupancy=OCCUPANCIES[kind],
                                t_grid=(0.0, 0.5))
        table = wc.class_table(cfg)
        rows = table.draw(batch_rng(cfg, 0), cfg.replicas).reshape(-1, 2, 3)
        assert np.all(rows[:, 0] == 0)
        mean, cov = table.moments()
        for k, (t, r) in enumerate(cfg.grid_points()):
            _, pmf_mean, pmf_var = pmf_moments(wc.exact_current_pmf(cfg, t, r))
            assert abs(mean[k] - pmf_mean) < 1e-10
            assert abs(cov[k, k] - pmf_var) < 1e-10

    def test_dump_reproduces_summary(self, tmp_path):
        from walkcurrent.cli import main
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "n": 100, "T": 1.0, "S": 0.25, "t_grid": [0.5, 1.0],
            "r_grid": [-0.25, 0.0, 0.25], "kernel": [[1, 0.7], [-1, 0.3]],
            "occupancy": {"type": "poisson", "rho": 1.0},
            "replicas": 300, "master_seed": 77}))
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", str(path), "--out", out, "--dump"]) == 0

        def rows(name):
            with open(os.path.join(out, name)) as fh:
                next(fh)  # schema comment
                return list(csv.DictReader(fh))

        dump = {}
        for row in rows("replicas.csv"):
            dump.setdefault((row["t"], row["r"]), []).append(float(row["Y_scaled"]))
        summary = rows("simulate.csv")
        assert len(summary) == len(dump) == 6
        for row in summary:
            vals = np.array(dump[(row["t"], row["r"])])
            assert vals.size == 300
            assert float(row["min"]) == vals.min()
            assert float(row["max"]) == vals.max()
            assert float(row["mean"]) == pytest.approx(vals.mean(), rel=1e-12, abs=1e-12)
