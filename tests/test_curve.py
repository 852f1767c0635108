import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import knotgauge.curve as curve
from knotgauge.curve import (COINCIDENCE_TOL, PAIR_BLOCK, Curve, CurveError,
                             EmbeddingError, circle, hausdorff_distance,
                             load_curve, param_distance,
                             point_to_polyline_distance, resample_arclength,
                             save_curve, wrap01)
from knotgauge.distortion import local_distortion
from knotgauge.mobius import mobius_energy, torus_knot
from knotgauge.sobolev import bilip_constant, seminorm_sq
from util import (dense_hausdorff_distance, dense_mobius_energy,
                  dense_point_to_polyline_distance, fourier_curve,
                  random_rotation, rigid_moved)


def test_needs_min_samples():
    with pytest.raises(CurveError, match="N <"):
        Curve(np.random.default_rng(0).normal(size=(3, 3)))


def test_rejects_repeated_consecutive():
    q = circle(16).samples.copy()
    q[5] = q[4]
    with pytest.raises(CurveError, match="coincide"):
        Curve(q)


def test_embedded_exempts_adjacent_pairs():
    # one ulp apart: far below the tolerance, but as an edge it is allowed
    q = circle(32).samples.copy()
    q[4] = np.nextafter(q[3], 2.0)
    Curve(q).check_embedded()
    q[6] = np.nextafter(q[3], -2.0)
    with pytest.raises(EmbeddingError):
        Curve(q).check_embedded()


@pytest.mark.parametrize("accessor", [
    "edge_vectors", "edge_sq_lengths", "edge_lengths", "cum_lengths",
    "tangents", "chord_matrix", "intrinsic_matrix"])
def test_kept_arrays_read_only(accessor):
    c = circle(64)
    kept = getattr(c, accessor)()
    with pytest.raises(ValueError):
        kept[3] = 0.0
    assert seminorm_sq(c) == seminorm_sq(circle(64))


@pytest.mark.parametrize("shape", [(8, 2), (24,)])
def test_rejects_non_point_array(shape):
    with pytest.raises(CurveError, match=r"samples must be an \(N, 3\) array"):
        Curve(np.zeros(shape))


def test_rejects_nonfinite():
    q = circle(16).samples.copy()
    q[3, 1] = np.nan
    with pytest.raises(CurveError, match="finite"):
        Curve(q)


@given(st.floats(-5, 5), st.floats(-5, 5))
def test_param_distance_range_and_symmetry(s, t):
    d = param_distance(s, t)
    assert 0.0 <= d <= 0.5 + 1e-12
    assert d == pytest.approx(param_distance(t, s), abs=1e-12)


@given(st.floats(-1e6, 1e6))
def test_wrap01_range(s):
    assert 0.0 <= wrap01(s) < 1.0


@pytest.mark.parametrize("s", [-1e-20, np.float64(-1e-17)])
def test_wrap01_tiny_negative_is_zero(s):
    # 1 + s rounds to 1 here, which is outside [0, 1)
    assert wrap01(s) == 0.0 and isinstance(wrap01(s), float)
    assert np.array_equal(wrap01(np.array([s, 0.25])), [0.0, 0.25])


def test_param_distance_examples():
    assert param_distance(0.1, 0.9) == pytest.approx(0.2)
    assert param_distance(0.25, 0.75) == pytest.approx(0.5)


def test_param_distance_arrays_match_scalars():
    s, t = np.random.default_rng(3).uniform(-3.0, 3.0, size=(2, 64))
    s[:4] = [0.0, -1e-20, 1.0, 2.5]
    want = [[param_distance(float(a), float(b)) for b in t] for a in s]
    assert np.array_equal(param_distance(s[:, None], t), want)


def test_chord_matrix_short_last_block():
    # N = 257 leaves a last row block shorter than the others
    c = Curve(np.random.default_rng(8).normal(size=(257, 3)))
    q = c.samples
    ref = np.linalg.norm(q[:, None, :] - q[None, :, :], axis=2)
    assert np.allclose(c.chord_matrix(), ref, rtol=1e-15, atol=0.0)


def _brute_embedded(c):
    """Reference verdict: every non-adjacent pair, its chord taken by
    ``np.linalg.norm``."""
    q, n = c.samples, c.n
    tol = COINCIDENCE_TOL * c.total_length()
    for i in range(n - 2):
        d = np.linalg.norm(q[i + 2:] - q[i], axis=1)
        if i == 0:
            d = d[:-1]  # (0, N-1) is an edge
        if np.any(d <= tol):
            return False
    return True


def _placements(n):
    """Non-adjacent coincident pairs: from the first row to the middle,
    inside the first row block, inside the short last block, from the last
    row of one block to the first row of a later one, and from the first
    row of a block to the last vertex."""
    rows = PAIR_BLOCK // n
    return [(0, n // 2), (1, 5), (n - 5, n - 2), (rows - 1, 2 * rows),
            (rows, n - 1)]


class TestChordBuild:
    @pytest.mark.parametrize("n", [257, 2049])
    def test_verdict_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        base = rng.normal(size=(n, 3))
        assert n % (PAIR_BLOCK // n) == 5  # the last row block is short
        for i, j in _placements(n):
            q = base.copy()
            q[j] = q[i]
            tol = COINCIDENCE_TOL * Curve(q).total_length()
            unit = rng.normal(size=3)
            unit /= np.linalg.norm(unit)
            for offset, embedded in ((0.0, False), (0.5, False),
                                     (2.0, True)):
                q[j] = q[i] + offset * tol * unit
                c = Curve(q)
                assert _brute_embedded(c) is embedded, (i, j, offset)
                if embedded:
                    c.check_embedded()
                else:
                    with pytest.raises(EmbeddingError):
                        c.check_embedded()

    @pytest.mark.parametrize("n", [257, 2049])
    def test_close_edges_stay_embedded(self, n):
        # adjacent vertices closer than the tolerance, one pair across the
        # wrap (0, N-1), one at the end of the first row block
        q = circle(n).samples.copy()
        rows = PAIR_BLOCK // n
        tol = COINCIDENCE_TOL * Curve(q).total_length()
        q[n - 1] = q[0] + [0.0, 0.0, 0.1 * tol]
        q[rows] = q[rows - 1] + [0.0, 0.0, 0.1 * tol]
        c = Curve(q)
        assert _brute_embedded(c)
        c.check_embedded()

    @pytest.mark.parametrize("maker", [
        lambda: circle(8),
        lambda: Curve(np.random.default_rng(3).normal(size=(257, 3))),
        lambda: Curve(np.random.default_rng(4).normal(size=(2049, 3))),
        lambda: torus_knot(2, 3, n=1024),
    ])
    def test_diameter_is_matrix_max(self, maker):
        # asked before and after the matrix, on fresh curves
        first, second = maker(), maker()
        d = first.diameter()
        assert d == float(np.max(first.chord_matrix()))
        second.chord_matrix()
        assert second.diameter() == d

    @pytest.mark.parametrize("n", [257, 2049])
    def test_blocks_are_matrix_slices(self, n):
        c = Curve(np.random.default_rng(n).normal(size=(n, 3)))
        chord = c.chord_matrix()
        for upper in (True, False):
            rows = 0
            for b, chords in c.chord_blocks(upper):
                assert np.array_equal(chords,
                                      chord[b, b.start if upper else 0:])
                assert not chords.flags.writeable
                rows += b.stop - b.start
            assert rows == n

    def test_rows_longer_than_a_block(self, monkeypatch):
        # N above PAIR_BLOCK: one row per block, longer than the pool's
        # arrays were; here N = 100 against a block of 64 entries
        monkeypatch.setattr(curve, "PAIR_BLOCK", 64)
        monkeypatch.setattr(curve, "_WORK", [np.empty(64)])
        c = Curve(np.random.default_rng(100).normal(size=(100, 3)))
        chord = c.chord_matrix()
        for upper in (True, False):
            for b, chords in c.chord_blocks(upper):
                assert b.stop - b.start == 1
                assert np.array_equal(chords,
                                      chord[b, b.start if upper else 0:])
        ref = Curve(c.samples)
        assert mobius_energy(c) == pytest.approx(dense_mobius_energy(ref),
                                                 rel=1e-12)
        assert bilip_constant(c) == float(np.max(
            ref.intrinsic_matrix()[np.triu_indices(100, 1)]
            / chord[np.triu_indices(100, 1)]))

    @pytest.mark.parametrize("upper", [True, False])
    def test_scan_stops_before_coincident_block(self, upper):
        # N = 257: rows 0-62 and 63-125 are clean, row 130 meets row 200
        q = Curve(np.random.default_rng(5).normal(size=(257, 3))).samples
        q = q.copy()
        q[200] = q[130]
        c = Curve(q)
        seen = []
        with pytest.raises(EmbeddingError):
            for b, _ in c.chord_blocks(upper):
                seen.append(b.start)
        assert seen == [0, 63]
        # the verdict is kept: a later scan yields nothing
        assert c._cache["chords"] == (False, float(np.max(c.chord_matrix())))
        with pytest.raises(EmbeddingError):
            next(c.chord_blocks(upper))

    @pytest.mark.parametrize("scan", [
        lambda c: local_distortion(c, 1.0), bilip_constant, mobius_energy],
        ids=["pair-table", "bilip", "energy"])
    def test_first_scan_records_verdict(self, scan):
        q = circle(257).samples.copy()
        q[150] = q[20]
        c = Curve(q)
        with pytest.raises(EmbeddingError):
            scan(c)
        assert c._cache["chords"][0] is False
        with pytest.raises(EmbeddingError):
            c.check_embedded()

    def test_first_scan_records_diameter(self):
        # a single-scale rung scan takes the diameter, exactly the matrix
        # max
        c = torus_knot(2, 3, n=1024)
        local_distortion(c, 0.1)
        assert c._cache["chords"] == (True, float(np.max(c.chord_matrix())))


class TestIntrinsicDistance:
    def test_antipodal_circle(self):
        c = circle(1000)
        L = c.total_length()
        assert c.intrinsic_distance(0, 500) == pytest.approx(0.5 * L, rel=1e-12)
        assert L == pytest.approx(2 * math.pi, rel=1e-4)

    def test_identity(self, trefoil512):
        assert trefoil512.intrinsic_distance(17, 17) == 0.0

    def test_quarter_of_unit_length(self):
        c = circle(256)
        c = Curve(c.samples / c.total_length())
        c = resample_arclength(c, 256)
        assert c.intrinsic_distance(0, 64) == pytest.approx(0.25, abs=1e-9)

    def test_chord_lower_bound_and_triangle(self, trefoil512):
        rng = np.random.default_rng(1)
        d = trefoil512.intrinsic_matrix()
        ch = trefoil512.chord_matrix()
        assert np.all(d >= ch - 1e-9)
        for _ in range(200):
            i, j, k = rng.integers(0, trefoil512.n, size=3)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    def test_intrinsic_rows(self):
        c = Curve(np.random.default_rng(9).normal(size=(257, 3)))
        s, total = c.cum_lengths()[:-1], c.total_length()
        idx = np.array([3, 7, 100, 256])
        cols = np.array([0, 5, 200])
        for args, rows, other in (((slice(60, 130),), slice(60, 130), s),
                                  ((idx,), idx, s),
                                  ((idx, cols), idx, s[cols]),
                                  ((slice(4, 9), slice(200, 257)),
                                   slice(4, 9), s[200:])):
            # the one-expression form the row reads replaced, bit for bit
            d = np.abs(s[rows, None] - other[None, :])
            assert np.array_equal(c.intrinsic_rows(*args),
                                  np.minimum(d, total - d))

    def test_window_read_gathers_no_full_rows(self):
        c = torus_knot(2, 3, n=2048)
        c.cum_lengths()
        idx = np.arange(100, 400)
        tracemalloc.start()
        try:
            c.intrinsic_rows(idx, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block is 0.7 MB; its 300 full rows would take 4.9 MB
        assert peak < 2 << 20

    def test_rows_written_to_out_allocate_nothing(self):
        # np.subtract.outer took two 64 KB iterator buffers per call, and
        # the shorter-arc minimum a fresh block
        c = torus_knot(2, 3, n=256)
        out = np.empty((64, 256))
        c.intrinsic_rows(slice(0, 64), out=out)
        want = out.copy()
        tracemalloc.start()
        try:
            c.intrinsic_rows(slice(64, 128), out=out)
            c.intrinsic_rows(slice(0, 64), out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, want)
        assert peak < 4 << 10


class TestHausdorff:
    def test_identical(self, trefoil512):
        assert hausdorff_distance(trefoil512, trefoil512) == 0.0

    def test_concentric_radial_offset(self):
        d = 1e-4
        a = circle(2048)
        b = circle(2048, radius=1.0 + d)
        assert hausdorff_distance(a, b) == pytest.approx(d, abs=1e-9)

    def test_translation(self):
        a = circle(2048)
        b = Curve(a.samples + np.array([0.3, 0.0, 0.0]))
        got = hausdorff_distance(a, b)
        # brute-force vertex-to-vertex oracle
        diff = a.samples[:, None, :] - b.samples[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        oracle = max(dist.min(axis=1).max(), dist.min(axis=0).max())
        assert got == pytest.approx(0.3, abs=2e-3)
        assert got <= oracle + 1e-12

    def test_symmetry_and_triangle(self):
        a = fourier_curve(0, n=128)
        b = fourier_curve(1, n=96)
        c = fourier_curve(2, n=112)
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
        assert (hausdorff_distance(a, c)
                <= hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-12)


def _random_polygon(rng, n, split):
    """Random closed curve at N sorted random parameters, so its edges are
    far from uniform, under a random rigid motion; with ``split``, one edge
    is cut at 1e-6 of its length (N counts the extra vertex)."""
    t = 2 * np.pi * np.sort(rng.uniform(size=n - split))
    q = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    for k in range(2, 5):
        coef = rng.normal(scale=0.3 / k, size=(2, 3))
        q += (coef[0] * np.sin(k * t)[:, None]
              + coef[1] * np.cos(k * t)[:, None])
    if split:
        k = int(rng.integers(len(q)))
        cut = q[k] + 1e-6 * (q[(k + 1) % len(q)] - q[k])
        q = np.insert(q, k + 1, cut, axis=0)
    rot = random_rotation(int(rng.integers(2**31)))
    return Curve(q @ rot.T + rng.normal(scale=3.0, size=3))


def _probe_points(rng, c, m):
    """m points each 1e-4 from random points of the polygon, far from it
    (1e3 diameters), on its vertices and on its edge midpoints."""
    a, v = c.samples, c.edge_vectors()

    def unit(k):
        u = rng.normal(size=(k, 3))
        return u / np.linalg.norm(u, axis=1, keepdims=True)

    e = rng.integers(c.n, size=m)
    near = a[e] + rng.uniform(size=(m, 1)) * v[e] + 1e-4 * unit(m)
    far = a.mean(axis=0) + 1e3 * c.diameter() * unit(m)
    verts = a[rng.integers(c.n, size=m)]
    e = rng.integers(c.n, size=m)
    mids = a[e] + 0.5 * v[e]
    return np.concatenate([near, far, verts, mids])


class TestPolylineDistance:
    """Batches above one block of pairs read local edges from the vertex
    tree; they must equal the all-edges reference bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 300), st.booleans(),
           st.booleans())
    def test_equals_dense_reference(self, seed, n, split, near_copy):
        rng = np.random.default_rng(seed)
        a = _random_polygon(rng, n, split)
        # four kinds of points, together more than one block
        pts = _probe_points(rng, a, PAIR_BLOCK // (4 * n) + 1)
        got = point_to_polyline_distance(pts, a)
        assert np.array_equal(got, dense_point_to_polyline_distance(pts, a))
        assert point_to_polyline_distance(pts[-1], a) == got[-1]
        if near_copy:
            b = Curve(a.samples + 1e-4 * rng.normal(size=a.samples.shape))
        else:
            b = _random_polygon(rng, int(rng.integers(8, 301)), split)
        assert hausdorff_distance(a, b) == dense_hausdorff_distance(a, b)

    def test_long_edge_nearer_than_nearest_vertex(self):
        # a half circle closed by its diameter, one edge of length 2;
        # points just above the diameter's middle are nearest the top of
        # the arc among the vertices, but nearest the diameter among edges
        n = 64
        t = np.pi * np.arange(n) / (n - 1)
        c = Curve(np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1))
        rng = np.random.default_rng(4)
        m = PAIR_BLOCK // n + 1
        h = rng.uniform(1e-3, 2e-2, size=m)
        pts = np.stack([rng.uniform(-0.05, 0.05, size=m), h, np.zeros(m)],
                       axis=1)
        nearest = np.argmin(np.linalg.norm(
            pts[:, None, :] - c.samples, axis=2), axis=1)
        assert np.all((nearest > 0) & (nearest < n - 1))
        got = point_to_polyline_distance(pts, c)
        assert np.array_equal(got, dense_point_to_polyline_distance(pts, c))
        assert np.allclose(got, h, rtol=1e-12, atol=0.0)

    def test_equidistant_vertices(self):
        # near the center of a circle every vertex is a candidate, so the
        # candidate pairs of one chunk span many blocks
        c = circle(512)
        pts = 1e-3 * np.random.default_rng(5).normal(size=(300, 3))
        got = point_to_polyline_distance(pts, c)
        assert np.array_equal(got, dense_point_to_polyline_distance(pts, c))

    @pytest.mark.parametrize("n", [8, 300, 2048])
    def test_one_block_boundary(self, n):
        c = rigid_moved(torus_knot(2, 3, n=n), seed=n)
        rng = np.random.default_rng(n)
        p = PAIR_BLOCK // n
        pts = _probe_points(rng, c, p // 4 + 1)[:p + 1]
        one_block = point_to_polyline_distance(pts[:p], c)
        local = point_to_polyline_distance(pts, c)
        assert np.array_equal(local[:p], one_block)
        assert np.array_equal(local, dense_point_to_polyline_distance(pts, c))


class TestResample:
    def test_arc_spacing_equal(self):
        c = fourier_curve(3, n=200)
        out = resample_arclength(c, 128)
        assert out.n == 128
        # vertices on the input polyline: distance to it is ~0
        from knotgauge.curve import point_to_polyline_distance
        d = point_to_polyline_distance(out.samples, c)
        assert d.max() < 1e-12
        # length as measured along the input is preserved by construction;
        # the output polygon length is shorter only by corner cutting
        assert out.total_length() <= c.total_length() + 1e-12
        assert out.total_length() == pytest.approx(c.total_length(), rel=1e-3)

    def test_chord_edges_equal(self):
        out = resample_arclength(circle(512), 256)
        e = out.edge_lengths()
        assert (e.max() - e.min()) / e.mean() < 1e-10
        assert np.allclose(e, out.total_length() / 256, rtol=1e-10)

    def test_idempotent(self):
        c = resample_arclength(fourier_curve(4, n=300), 256)
        again = resample_arclength(c, 256)
        disp = np.linalg.norm(c.samples - again.samples, axis=1).max()
        assert disp < 1e-9

    def test_too_few(self, circle64):
        with pytest.raises(CurveError):
            resample_arclength(circle64, 4)


def test_discrete_tangent_unit(trefoil512):
    u = trefoil512.tangents()
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-14)


class TestIO:
    def test_json_roundtrip(self, tmp_path, circle64):
        p = tmp_path / "c.json"
        save_curve(circle64, str(p))
        back = load_curve(str(p))
        assert np.array_equal(back.samples, circle64.samples)
        data = json.loads(p.read_text())
        assert data["closed"] is True

    def test_csv_roundtrip(self, tmp_path):
        c = fourier_curve(5, n=128)
        p = tmp_path / "c.csv"
        save_curve(c, str(p))
        back = load_curve(str(p))
        assert back.n == 128
        assert np.array_equal(back.samples, c.samples)

    def test_too_few_samples_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"closed": True,
                                 "samples": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}))
        with pytest.raises(CurveError, match="N <"):
            load_curve(str(p))

    def test_malformed(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(CurveError, match="malformed"):
            load_curve(str(p))

    @pytest.mark.parametrize("payload", [[[0, 0, 0]], {"points": []}])
    def test_samples_field_required(self, tmp_path, payload):
        p = tmp_path / "fieldless.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(CurveError, match="missing 'samples' field"):
            load_curve(str(p))

    def test_csv_header_required(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CurveError, match="header"):
            load_curve(str(p))


def test_rigid_motion_preserves_metrics(trefoil512):
    moved = rigid_moved(trefoil512, seed=9)
    assert np.allclose(moved.edge_lengths(), trefoil512.edge_lengths(),
                       atol=1e-12)
    assert moved.intrinsic_distance(3, 77) == pytest.approx(
        trefoil512.intrinsic_distance(3, 77), abs=1e-12)
