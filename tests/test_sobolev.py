import math
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from knotgauge.curve import Curve, circle, param_window, resample_arclength
from knotgauge.distortion import LADDER_SIZE, local_distortion
from knotgauge.mobius import mobius_energy
from knotgauge.sobolev import (DEFAULT_BAND, ConcentratedSeminormError,
                               _density_rows, _PairwiseSum, ball_halfwidth,
                               ball_window_sums, bilip_constant,
                               fractional_admissible_scale, seminorm_sq,
                               tangent_density)
from util import (reference_density, reference_window_sums, rigid_moved,
                  torus_knot_raw, track_curve)

# full-domain squared seminorm of the unit-speed circle computed by the same
# quadrature at N=8192 (refinement oracle; continuum value 30.5443)
CIRCLE_SEMINORM_SQ_N8192 = 30.520158828899863


class TestSeminorm:
    def test_straight_tangents_zero(self):
        # rectangle: long straight runs; the straight-run window has zero mass
        n = 64
        q = np.zeros((4 * n, 3))
        s = np.arange(n) / n
        q[:n] = np.stack([s, np.zeros(n), np.zeros(n)], axis=1)
        q[n:2 * n] = np.stack([np.ones(n), 0.5 * s, np.zeros(n)], axis=1)
        q[2 * n:3 * n] = np.stack([1.0 - s, 0.5 * np.ones(n), np.zeros(n)], axis=1)
        q[3 * n:] = np.stack([np.zeros(n), 0.5 - 0.5 * s, np.zeros(n)], axis=1)
        c = Curve(q)
        v = seminorm_sq(c, param_window(c.n, n / 2 / (4 * n), 0.05))
        assert v == 0.0

    def test_circle_convergence(self):
        v1024 = seminorm_sq(circle(1024))
        v2048 = seminorm_sq(circle(2048))
        assert abs(v2048 - v1024) / v1024 < 0.05
        assert v2048 == pytest.approx(CIRCLE_SEMINORM_SQ_N8192, rel=0.01)

    def test_annulus_shrinks_to_zero(self, circle512):
        with pytest.warns(UserWarning, match="fewer than two samples"):
            v = seminorm_sq(circle512,
                            param_window(512, 0.25, 0.1, inner=0.999 * 0.1))
        assert v == 0.0

    def test_index_window_rejected(self, circle512):
        # an index array is not read as a mask of its nonzero entries
        with pytest.raises(ValueError,
                           match=r"dtype int\d+ and shape \(50,\)"):
            seminorm_sq(circle512, np.arange(50))

    def test_wrong_length_mask_rejected(self, circle512):
        with pytest.raises(ValueError,
                           match=r"shape \(512,\), got dtype bool and "
                                 r"shape \(511,\)"):
            seminorm_sq(circle512, np.ones(511, dtype=bool))

    def test_additive_over_disjoint_windows(self, circle512):
        full = seminorm_sq(circle512)
        grid = tangent_density(circle512)
        m1 = np.arange(512) < 256
        a = grid.density[np.ix_(m1, m1)].sum()
        b = grid.density[np.ix_(~m1, ~m1)].sum()
        cross = 2 * grid.density[np.ix_(m1, ~m1)].sum()
        assert a + b + cross == pytest.approx(full, rel=1e-12)

    def test_rigid_motion_invariance(self, trefoil512):
        moved = rigid_moved(trefoil512, seed=2)
        assert seminorm_sq(moved) == pytest.approx(seminorm_sq(trefoil512),
                                                   abs=1e-9)

    def test_window_sums_match_masks(self, circle512):
        grid = tangent_density(circle512)
        sums = ball_window_sums(circle512, [10]).sums[0]
        m = np.zeros(512, dtype=bool)
        m[512 - 10:] = True
        m[:11] = True
        assert sums[0] == pytest.approx(
            grid.density[np.ix_(m, m)].sum(), rel=1e-9)
        # windows are closed: sample 279 sits at r + 5e-18 after rounding
        assert param_window(2048, 215 / 2048 + 0.025, 0.00625)[279]

    @pytest.mark.parametrize("n", [64, 101, 128, 2048])
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("delta", [0.0, 5e-16, 2e-15, 1e-14, 1e-13])
    def test_halfwidth_counts_mask_samples(self, n, k, delta):
        # the summed-area sums and the masks share one closed-window rule
        r = k / n - delta
        k_mask = int(np.count_nonzero(param_window(n, 0.0, r))) // 2
        assert ball_halfwidth(r, n) == k_mask

    @pytest.mark.parametrize("n", [101, 128])
    @pytest.mark.parametrize("kind", ["seminorm", "asymmetric"])
    def test_window_sums_match_explicit(self, n, kind):
        # the streamed sums of a curve, and the dense reference they are
        # checked against on a density no curve has
        ks = [0, 1, 4, n // 3, (n - 1) // 2]
        if kind == "seminorm":
            c = torus_knot_raw(2, 3, 2.0, 0.5, n)
            density = tangent_density(c).density

            def window_sums(ks):
                return ball_window_sums(c, ks).sums
        else:
            density = np.random.default_rng(n).random((n, n))

            def window_sums(ks):
                return reference_window_sums(density, ks)
        total = density.sum()
        sums = window_sums(ks)
        for k, row in zip(ks, sums):
            np.testing.assert_array_equal(row, window_sums([k])[0])
            for i in range(n):
                w = np.arange(i - k, i + k + 1) % n
                assert abs(row[i] - density[np.ix_(w, w)].sum()) \
                    <= 1e-12 * total


def _largest_cached(c):
    """Entries of the largest array a curve keeps in its cache."""
    values = chain.from_iterable(v if isinstance(v, tuple) else (v,)
                                 for v in c._cache.values())
    return max((v.size for v in values if isinstance(v, np.ndarray)),
               default=0)


def _noisy_trefoil(n):
    """An arclength (2,3) torus knot with 1e-3 noise on every sample, so its
    edges are no longer uniform."""
    q = torus_knot_raw(2, 3, n=n).samples
    return Curve(q + 1e-3 * np.random.default_rng(n).normal(size=q.shape))


def _tiny_edge_trefoil(n):
    """An arclength (2,3) torus knot at N-1 samples with edge 0 split at
    1e-6 of its length: N samples."""
    q = torus_knot_raw(2, 3, n=n - 1).samples
    return Curve(np.insert(q, 1, q[0] + 1e-6 * (q[1] - q[0]), axis=0))


class TestDensityKernel:
    @pytest.mark.parametrize("n", [64, 101, 257, 2047, 2048])
    @pytest.mark.parametrize("band", [0, 2])
    @pytest.mark.parametrize("make", [_noisy_trefoil, _tiny_edge_trefoil])
    def test_matches_reference(self, n, band, make):
        ref = reference_density(make(n), band)
        grid = tangent_density(make(n), band)
        assert np.array_equal(grid.density, ref)
        assert grid.total == float(ref.sum())

        # windows, read at the default band only, on a fresh curve compute
        # their own blocks
        c = make(n)
        thin = 2.5 / n
        windows = [param_window(n, 0.0, 0.1),             # wraps 0
                   param_window(n, 0.97, 0.25),           # wraps 0
                   param_window(n, 0.0, 0.2, inner=0.2 - thin),
                   param_window(n, 0.6, 0.05, inner=0.05 - thin),
                   param_window(n, 0.3, 0.5)]             # whole circle
        if band == DEFAULT_BAND:
            for w in windows:
                assert seminorm_sq(c, w) == float(ref[np.ix_(w, w)].sum())
            ks = [0, 1, 4, n // 3, (n - 1) // 2]
            got = ball_window_sums(c, ks)
            assert np.array_equal(got.sums, reference_window_sums(ref, ks))
            assert got.total == float(ref.sum())
        assert _largest_cached(c) < n * n

        # the wrapped, unsorted index blocks of offdiag_window_mass, and
        # blocks of scattered samples
        rng = np.random.default_rng(band)
        blocks = [(np.arange(i - k, i + k + 1) % n,
                   np.arange(j - k, j + k + 1) % n)
                  for i, j, k in ((0, n // 2, 4), (n - 2, 3, 4),
                                  (n // 3, n - 1, n // 8))]
        blocks.append((rng.permutation(n)[:40], rng.permutation(n)[:30]))
        for rows, cols in blocks:
            block = _density_rows(c, rows, cols, band)
            assert np.array_equal(block, ref[np.ix_(rows, cols)])
            assert block.sum() == ref[np.ix_(rows, cols)].sum()


class TestStreamedSums:
    @pytest.mark.parametrize("n", [257, 1000, 2048, 2049])
    @pytest.mark.parametrize("excluded", [0, 40])
    def test_matches_dense_table(self, n, excluded):
        # the window sums and the total of one streamed pass equal those of
        # the whole table and the whole grid bit for bit
        c = _noisy_trefoil(n)
        dens = reference_density(c, DEFAULT_BAND)
        exclude = np.random.default_rng(n).choice(n, excluded, replace=False)
        ks = [ball_halfwidth(r, n)
              for r in np.geomspace(4.0 / n, 0.25, LADDER_SIZE)]
        ks += [0, 1, n // 3, (n - 1) // 2, n]
        got = ball_window_sums(c, ks, exclude=exclude)
        assert np.array_equal(got.sums,
                              reference_window_sums(dens, ks, exclude))
        assert got.total == float(dens.sum())

    @pytest.mark.parametrize("n", [37, 1000, 2049, 3001])
    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("leaf", [None, 200])
    def test_total_is_numpy_sum(self, monkeypatch, n, rows, leaf):
        # entries of both signs over 16 orders of magnitude, so that another
        # grouping of the additions shows in the last bits; small leaves
        # leave many levels of the tree to the leaf sums
        import knotgauge.sobolev as sobolev
        if leaf is not None:
            monkeypatch.setattr(sobolev, "SUM_LEAF", leaf)
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(0, 16, (n, n))
        total = _PairwiseSum(a.size)
        for lo in range(0, n, rows):
            total.add(a[lo:lo + rows])
        assert total.value() == float(a.sum())


class TestDensityCache:
    def test_second_call_same_grid(self):
        # built anew on each call, bit for bit the same
        c = circle(64)
        first, second = tangent_density(c), tangent_density(c)
        assert first is not second
        assert np.array_equal(first.density, second.density)
        assert first.total == second.total

    def test_bands_built_apart(self):
        c = torus_knot_raw(2, 3, n=64)
        g0, g2 = tangent_density(c, band=0), tangent_density(c, band=2)
        assert g0.total > g2.total
        assert np.array_equal(tangent_density(c).density, g2.density)
        assert _largest_cached(c) < c.n * c.n

    def test_density_read_only(self):
        density = tangent_density(circle(64)).density
        with pytest.raises(ValueError):
            density[0, 5] = 1.0

    def test_one_build_per_curve(self, monkeypatch):
        # the whole-circle total and the admissible scale read one pass,
        # kept with the curve; a window computes its own block
        import knotgauge.concentration as concentration
        import knotgauge.sobolev as sobolev
        stream, passes = sobolev.ball_window_sums, []

        def counted(c, ks, exclude=()):
            passes.append(len(ks))
            return stream(c, ks, exclude)

        for module in (sobolev, concentration):
            monkeypatch.setattr(module, "ball_window_sums", counted)
        c = circle(256)
        seminorm_sq(c, param_window(c.n, 0.25, 0.1))
        assert passes == []
        seminorm_sq(c)
        fractional_admissible_scale(c)
        seminorm_sq(c)
        assert passes == [LADDER_SIZE]
        assert _largest_cached(c) < c.n * c.n
        concentration.detect_concentrations(c)
        assert passes == [LADDER_SIZE, 1]

    def test_window_builds_no_grid(self):
        # the N x N density of a 2048-gon alone takes 32 MB
        c = circle(2048)
        window = param_window(c.n, 0.25, 0.1)
        tracemalloc.start()
        try:
            seminorm_sq(c, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _largest_cached(c) < c.n * c.n
        assert peak < 4 << 20

    def test_substitute_builds_no_grid(self, monkeypatch):
        import knotgauge.sobolev as sobolev
        from knotgauge.substitution import substitute
        density, calls = sobolev.tangent_density, []

        def counted(c, band=DEFAULT_BAND):
            calls.append(band)
            return density(c, band)

        monkeypatch.setattr(sobolev, "tangent_density", counted)
        c, x = track_curve(n=2048, seed=3)
        assert substitute(c, [x], r=0.05).all_pass
        assert calls == []


class TestBilipBound:
    @pytest.mark.parametrize("maker", [lambda: circle(256),
                                       lambda: torus_knot_raw(2, 3, n=256)])
    def test_no_violation_exhaustive(self, maker):
        c = maker()
        n = c.n
        L = c.total_length()
        grid0 = tangent_density(c, band=0)
        tiled = np.tile(grid0.density, (2, 2))
        pref = tiled.cumsum(0).cumsum(1)

        def block(i, k):
            a, b = i, i + k
            s = pref[b, b]
            if a > 0:
                s -= pref[a - 1, b] + pref[b, a - 1] - pref[a - 1, a - 1]
            return s

        chord = c.chord_matrix()
        violations = 0
        for k in range(1, n // 2 + 1):
            dt = min(k / n, 1 - k / n) * L
            for i in range(n):
                bound = (1 - 0.5 * block(i, k)) * dt * dt
                if bound < 0:
                    continue
                if chord[i, (i + k) % n] ** 2 < bound - 1e-9:
                    violations += 1
        assert violations == 0


def _triu_bilip_constant(c):
    """Reference: the gather over every pair i < j that the row-block scan
    replaces."""
    iu = np.triu_indices(c.n, k=1)
    return float(np.max(c.intrinsic_matrix()[iu] / c.chord_matrix()[iu]))


class TestBilipConstant:
    @pytest.mark.parametrize("maker", [
        lambda: Curve(np.random.default_rng(8).normal(size=(8, 3))),
        lambda: Curve(np.random.default_rng(31).normal(size=(31, 3))),
        lambda: Curve(np.random.default_rng(257).normal(size=(257, 3))),
        lambda: torus_knot_raw(2, 3, n=1024),
        lambda: track_curve(n=2048, seed=3)[0],
    ])
    def test_matches_triu_scan(self, maker):
        # a fresh curve for each side, so neither reads the other's cache
        assert bilip_constant(maker()) == _triu_bilip_constant(maker())

    @pytest.mark.parametrize("maker", [
        lambda: Curve(np.random.default_rng(31).normal(size=(31, 3))),
        lambda: Curve(np.random.default_rng(257).normal(size=(257, 3))),
        lambda: torus_knot_raw(2, 5, n=256),
    ])
    def test_energy_records_same_value(self, maker):
        c = maker()
        mobius_energy(c)
        assert c._cache["bilip"] == bilip_constant(maker())

    def test_scan_memory(self):
        c = torus_knot_raw(2, 3, n=2048)
        c.check_embedded()
        tracemalloc.start()
        try:
            bilip_constant(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense intrinsic matrix alone would take 32 MB
        assert peak < 4 << 20

    def test_circle(self, circle512):
        # closed-curve floor: the circle's constant is its distortion pi/2
        assert bilip_constant(circle512) == pytest.approx(math.pi / 2,
                                                          abs=1e-3)

    def test_matches_distortion_for_arclength(self, trefoil512):
        from knotgauge.distortion import global_distortion
        assert bilip_constant(trefoil512) == pytest.approx(
            global_distortion(trefoil512)[0], rel=1e-9)


class TestFractionalScale:
    @pytest.mark.parametrize("maker", [lambda: circle(2048),
                                       lambda: torus_knot_raw(2, 3, n=1024)])
    def test_distortion_conclusion(self, maker):
        c = maker()
        rho, r_gamma = fractional_admissible_scale(c)
        assert 0 < rho <= 0.25
        assert r_gamma > 0
        assert local_distortion(c, r_gamma)[0] <= 2 / math.sqrt(3) + 1e-3

    def test_right_angle_jump_rejected(self):
        # right-angle corners carry too much mass at every window radius
        n = 512
        s = np.arange(n // 4) / n
        q = np.concatenate([
            np.stack([s, np.zeros(n // 4), np.zeros(n // 4)], axis=1),
            np.stack([np.full(n // 4, s[-1] + 1 / n), s, np.zeros(n // 4)], axis=1),
            np.stack([s[-1] + 1 / n - s, np.full(n // 4, s[-1] + 1 / n),
                      np.zeros(n // 4)], axis=1),
            np.stack([np.zeros(n // 4), s[-1] + 1 / n - s,
                      np.zeros(n // 4)], axis=1)])
        c = resample_arclength(Curve(q), n)
        with pytest.raises(ConcentratedSeminormError):
            fractional_admissible_scale(c)

    def test_mild_tangent_jump_shrinks_rho(self):
        from util import kinked_track, track_curve
        smooth, _ = track_curve(n=1024, seed=None, cap_noise=0.0,
                                straight_frac=0.2)
        kinked, _, _ = kinked_track(n=1024, chi=0.4, straight_frac=0.2)
        rho_smooth, _ = fractional_admissible_scale(smooth)
        rho_kinked, _ = fractional_admissible_scale(kinked)
        assert rho_kinked < rho_smooth
