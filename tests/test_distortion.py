import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import knotgauge.distortion as distortion
from knotgauge.curve import (COINCIDENCE_TOL, Curve, EmbeddingError, circle,
                             row_blocks)
from knotgauge.distortion import (G_INF, _rung_maxima, arc_chord_ratio,
                                  certify_equivalence, distortion_angle,
                                  distortion_profile, distortion_threshold,
                                  find_admissible_scale, global_distortion,
                                  local_distortion, scale_ladder,
                                  threshold_angle)
from knotgauge.mobius import mobius_energy, mobius_gradient, torus_knot
from knotgauge.sobolev import bilip_constant, fractional_admissible_scale
from util import (reference_pair_table, reference_rung_maxima, rigid_moved,
                  torus_knot_raw)

G3 = distortion_threshold(3)


class TestThresholds:
    def test_three_dimensional_value(self):
        assert G3 == pytest.approx(2 * math.pi / (3 * math.sqrt(3)), abs=1e-12)
        assert G3 == pytest.approx((2 / math.sqrt(3)) * math.asin(math.sqrt(3) / 2),
                                   abs=1e-12)

    def test_strictly_decreasing_to_limit(self):
        vals = [distortion_threshold(n) for n in range(3, 65)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > G_INF for v in vals)
        # O(1/n) convergence to the quarter-circle value
        assert distortion_threshold(10**10) == pytest.approx(G_INF, abs=1e-10)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            distortion_threshold(2)

    @pytest.mark.parametrize("n", [2, 3.5])
    def test_angle_rejects_dimension(self, n):
        with pytest.raises(ValueError, match=rf"integer >= 3 \(got {n}\)"):
            threshold_angle(n)

    def test_angle_consistency(self):
        # ratio at the threshold angle reproduces the threshold
        for n in range(3, 65):
            assert arc_chord_ratio(threshold_angle(n)) == pytest.approx(
                distortion_threshold(n), abs=1e-12)

    def test_beta3(self):
        assert threshold_angle(3) == pytest.approx(2 * math.pi / 3, abs=1e-12)


def test_arc_chord_ratio_flat_limit():
    assert arc_chord_ratio(0.0) == 1.0


@given(st.floats(1e-6, math.pi - 1e-6))
def test_arc_chord_ratio_monotone(alpha):
    assert arc_chord_ratio(alpha) < arc_chord_ratio(alpha + 1e-6)


class TestDistortionAngle:
    def test_invert_threshold(self):
        da = distortion_angle(G3)
        assert da.alpha == pytest.approx(2 * math.pi / 3, abs=1e-10)
        assert abs(da.g_value - G3) < 1e-12

    def test_flat_limit(self):
        da = distortion_angle(1.0)
        assert da.alpha < 1e-6
        assert da.g_value <= 1.0 + 1e-12

    def test_near_half_pi(self):
        delta = math.pi / 2 - 1e-9
        da = distortion_angle(delta)
        assert da.alpha > 3.1
        assert abs(da.g_value - delta) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            distortion_angle(0.99)
        with pytest.raises(ValueError):
            distortion_angle(math.pi / 2)


def _triu_local_distortion(c, r):
    """Reference: the direct scan of every pair i < j with 0 < chord <= 2r
    that the rung scan replaces."""
    chord = c.chord_matrix()
    intr = c.intrinsic_matrix()
    mask = (chord > 0.0) & (chord <= 2.0 * r)
    iu = np.triu_indices(c.n, k=1)
    sel = mask[iu]
    if not np.any(sel):
        return 1.0, None
    ratios = intr[iu][sel] / chord[iu][sel]
    k = int(np.argmax(ratios))
    return max(float(ratios[k]), 1.0), (int(iu[0][sel][k]),
                                        int(iu[1][sel][k]))


def _probe_scales(c):
    """Scales whose 2r lies just below, at and just above every sampled
    chord, plus one below all chords and one above."""
    chords = np.unique(c.chord_matrix())
    two_r = np.concatenate([np.nextafter(chords, 0.0), chords,
                            np.nextafter(chords, np.inf), [1e-9, 1e9]])
    r = two_r / 2.0
    return r[r > 0.0]


def _lattice_polygon(path):
    """Closed planar polygon through integer points joined by unit steps."""
    steps = {"r": (1, 0), "l": (-1, 0), "u": (0, 1), "d": (0, -1)}
    q = [(0, 0)]
    for s in path[:-1]:
        dx, dy = steps[s]
        q.append((q[-1][0] + dx, q[-1][1] + dy))
    return Curve(np.array([(x, y, 0.0) for x, y in q], dtype=float))


class TestLocalDistortion:
    @pytest.mark.parametrize("n", [8, 9, 31, 64])
    def test_matches_triu_scan_random(self, n):
        c = Curve(np.random.default_rng(n).normal(size=(n, 3)))
        for r in _probe_scales(c):
            assert local_distortion(c, r) == _triu_local_distortion(c, r)

    @pytest.mark.parametrize("path", [
        "rrrruuuullllddd" + "d",                 # square, side 4
        "rruulldd" + "llddrruu",                 # figure eight, origin twice
    ])
    def test_matches_triu_scan_ties(self, path):
        # integer arcs and square-root chords: symmetric pairs share their
        # ratio exactly, so the lexicographic tie-break decides the pair
        c = _lattice_polygon(path)
        if len(np.unique(c.samples, axis=0)) < c.n:
            # a vertex visited twice: no ratio over that pair exists
            for measure in (lambda d: local_distortion(d, 1.0),
                            global_distortion, bilip_constant, mobius_energy):
                with pytest.raises(EmbeddingError):
                    measure(_lattice_polygon(path))
            return
        chord, intr = c.chord_matrix(), c.intrinsic_matrix()
        iu = np.triu_indices(c.n, k=1)
        tied = 0
        for r in _probe_scales(c):
            v, pair = local_distortion(c, r)
            assert (v, pair) == _triu_local_distortion(c, r)
            sel = (chord[iu] > 0.0) & (chord[iu] <= 2.0 * r)
            tied += np.count_nonzero(intr[iu][sel] / chord[iu][sel] == v) > 1
        assert tied > 0

    def test_circle_global(self, circle2048):
        v, pair = global_distortion(circle2048)
        assert v == pytest.approx(math.pi / 2, abs=1e-3)
        i, j = pair
        assert (j - i) % 2048 in (1024,)  # antipodal pair attains the sup

    def test_quarter_pair_ratio(self, circle2048):
        i, j = 0, 512
        chord = np.linalg.norm(circle2048.samples[i] - circle2048.samples[j])
        ratio = circle2048.intrinsic_distance(i, j) / chord
        assert ratio == pytest.approx(math.pi / math.sqrt(8), abs=1e-3)

    def test_trefoil_knotted(self, trefoil1024):
        v, _ = global_distortion(trefoil1024)
        assert v >= 5 * math.pi / 3 - 1e-2

    def test_monotone_in_scale(self, trefoil512):
        # the sup runs over a nested family, so monotonicity is exact
        prof = distortion_profile(trefoil512)
        assert np.all(np.diff(prof.values) >= 0.0)
        assert (prof.values[-1], prof.pairs[-1]) == \
            global_distortion(trefoil512)
        assert np.all(prof.values >= 1.0)

    def test_degenerate_ladder_top_is_global(self):
        # star polygon {8/3}: 2 * min edge (3.70) exceeds the diameter (2.08)
        angle = 2 * np.pi * 3 * np.arange(8) / 8
        c = Curve(np.stack([np.cos(angle), np.sin(angle),
                            0.3 * np.cos(3 * angle + 0.5)], axis=1))
        assert 2 * c.min_edge() >= c.diameter()
        ladder = scale_ladder(c)
        assert ladder[0] == c.diameter() / 2 and ladder[-1] == c.diameter()
        prof = distortion_profile(c)
        assert (prof.values[-1], prof.pairs[-1]) == global_distortion(c)

    def test_degenerate_small_scale(self, circle64):
        # at 1e-300 a chord over 2r would overflow any integer bucket
        for r in (1e-9, 1e-300):
            v, pair = local_distortion(circle64, r)
            assert v == 1.0 and pair is None

    def test_collinear_pair_exactly_one(self):
        # at a scale where only collinear pairs qualify the ratio is exactly 1
        q = np.array([[float(k), 0.0, 0.0] for k in range(5)]
                     + [[4.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 0.0]])
        c = Curve(q)
        v, pair = local_distortion(c, 0.5)
        assert v == 1.0
        assert pair is not None

    def test_rigid_motion_invariance(self, trefoil512):
        moved = rigid_moved(trefoil512, seed=4)
        for r in (0.3, 1.0, 3.0):
            assert local_distortion(moved, r)[0] == pytest.approx(
                local_distortion(trefoil512, r)[0], abs=1e-12)

    def test_scaling_covariance(self, trefoil512):
        lam = 3.7
        scaled = Curve(lam * trefoil512.samples)
        for r in (0.3, 1.0):
            assert local_distortion(scaled, lam * r)[0] == pytest.approx(
                local_distortion(trefoil512, r)[0], abs=1e-12)


def _tiny_edge_trefoil():
    """A (2,3) torus knot at N=256 with edge 0 split at 1e-6 of its length:
    the same polygon with one more vertex, N=257."""
    q = torus_knot(2, 3, n=256).samples
    return Curve(np.insert(q, 1, q[0] + 1e-6 * (q[1] - q[0]), axis=0))


def _lattice_square(side):
    """The lattice square of the given side, started two steps before a
    corner: pair (1, 3) reaches ratio sqrt(2) at chord sqrt(2), and pair
    (0, 4) ties it exactly at chord 2 sqrt(2), which moves the argmax."""
    return _lattice_polygon("rr" + "u" * side + "l" * side + "d" * side
                            + "r" * (side - 2))


class TestPairTable:
    """The rung scan against the pair table of the one-shot reference, on
    curves of several row blocks."""

    @pytest.mark.parametrize("make", [
        lambda: torus_knot(2, 3, n=257),
        lambda: torus_knot(3, 4, n=1000),
        lambda: torus_knot(2, 5, n=2049),
        _tiny_edge_trefoil,
        lambda: Curve(np.random.default_rng(300).normal(size=(300, 3))),
        # the last row block holds a single row
        lambda: Curve(np.random.default_rng(181).normal(size=(181, 3))),
        # exact ties within and across row blocks
        lambda: _lattice_square(40),
        lambda: _lattice_square(64),
        # the ratio grows with the chord, and every row holds the same
        # chords and ratios up to rounding
        lambda: circle(256),
        lambda: circle(2048),
    ], ids=["torus23-257", "torus34-1000", "torus25-2049", "tiny-edge-257",
            "random-300", "random-181", "square-40", "square-64",
            "circle-256", "circle-2048"])
    def test_matches_reference(self, make):
        c = make()
        assert len(row_blocks(c.n)) > 1
        table = reference_pair_table(Curve(c.samples))
        # every chord of the table, its neighbours, and one limit below and
        # one above all chords: the table's first entry is the smallest
        # chord of the curve; one scan answers them all
        chords = table[0]
        limits = np.unique(np.concatenate([
            np.nextafter(chords, 0.0), chords, np.nextafter(chords, np.inf),
            [chords[0] / 2.0, 2.0 * c.diameter()]]))
        values, flats = _rung_maxima(c, limits)
        want_values, want_flats = reference_rung_maxima(table, limits)
        assert np.all(values == want_values)
        assert np.all(flats == want_flats)
        assert flats[0] == -1

    @pytest.mark.parametrize("make", [
        lambda: torus_knot(2, 3, n=1000),
        lambda: _lattice_square(40),
        lambda: circle(2048),
    ], ids=["torus23-1000", "square-40", "circle-2048"])
    def test_prefilter_keeps_every_answer(self, make, monkeypatch):
        c = make()
        top = c.diameter()
        chords = np.unique(c.chord_matrix())
        chords = chords[np.linspace(0, chords.size - 1, 300).astype(int)]
        # the edges of every bucket count below, under the scale the scan
        # takes from its last limit, and their neighbours
        counts = (1, 3, 1024, 2**16)
        edges = np.concatenate([
            np.arange(0, k + 1, max(1, k // 1024)) * (top / k)
            for k in counts])
        limits = np.unique(np.concatenate([
            chords, edges, [top],
            *(np.nextafter(x, y) for x in (chords, edges)
              for y in (0.0, np.inf))]))
        limits = limits[limits <= top]
        answers = []
        for k in counts:
            monkeypatch.setattr(distortion, "_CHORD_BUCKETS", k)
            answers.append(_rung_maxima(c, limits))
        for values, flats in answers[1:]:
            assert np.array_equal(values, answers[0][0])
            assert np.array_equal(flats, answers[0][1])

    def test_infinite_scale_is_global(self, trefoil512):
        assert local_distortion(trefoil512, math.inf) == \
            global_distortion(trefoil512)

    def test_traced_peak(self):
        c = torus_knot(2, 3, n=2048)
        c.check_embedded()
        c.cum_lengths()
        limits = 2.0 * scale_ladder(c)
        tracemalloc.start()
        try:
            _rung_maxima(c, limits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a row block's temporaries are 128 KB each; one array over the
        # whole triangle would take 16 MB
        assert peak < 4 * 2**20


class TestProfileScans:
    """How many pair scans a profile takes."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Curves whose rungs :func:`_rung_maxima` scans and whose chords
        :meth:`Curve._chord_blocks` computes, one entry per call."""
        rungs, chords = [], []

        def rung_maxima(c, limits):
            rungs.append(c)
            return _rung_maxima(c, limits)

        def chord_blocks(c, upper):
            chords.append(c)
            return original(c, upper)

        original = Curve._chord_blocks
        monkeypatch.setattr(distortion, "_rung_maxima", rung_maxima)
        monkeypatch.setattr(Curve, "_chord_blocks", chord_blocks)
        return rungs, chords

    def test_fresh_curve_takes_one_chord_pass(self, counted):
        rungs, chords = counted
        c = torus_knot(2, 3, n=512)
        distortion_profile(c)
        distortion_profile(c)
        # the rungs; the ladder's diameter comes from the tree
        assert rungs == [c] and chords == [c]

    def test_checkpoint_chain_scans_no_pairs(self, counted):
        # the descent's checkpoint pattern: each iterate is certified
        # against the previous one, then against the next; every
        # certificate reads the tree, not the pairs
        rungs, chords = counted
        a, b, c = (torus_knot(2, 3, major_radius=R, n=256)
                   for R in (2.0, 2.01, 2.02))
        certify_equivalence(a, b)
        certify_equivalence(b, c)
        assert rungs == [] and chords == []


def _figure_eight(n=512):
    """Two unit circles touching at the origin, where vertices 0 and n/2
    both lie; the tangent is continuous, so the seminorm scale search finds
    a radius."""
    th = 2.0 * np.pi * np.arange(n // 2) / (n // 2)
    zero = np.zeros_like(th)
    return Curve(np.concatenate([
        np.stack([1.0 - np.cos(th), np.sin(th), zero], axis=1),
        np.stack([np.cos(th) - 1.0, np.sin(th), zero], axis=1)]))


@pytest.mark.parametrize("scan", [
    lambda c: local_distortion(c, 0.5), global_distortion, bilip_constant,
    mobius_energy, mobius_gradient, fractional_admissible_scale,
    pytest.param(lambda c: certify_equivalence(c, c),
                 id="certify_equivalence"),
    pytest.param(lambda c: find_admissible_scale(c, G3),
                 id="find_admissible_scale"),
    Curve.check_embedded])
def test_pair_scans_refuse_figure_eight(scan):
    c = _figure_eight()
    assert np.array_equal(c.samples[0], c.samples[c.n // 2])
    with pytest.raises(EmbeddingError):
        scan(c)


@pytest.mark.parametrize("gap, embedded", [(2.0, True), (0.5, False)])
def test_near_miss_verdict(gap, embedded):
    # vertex n/2 of the figure eight moved off vertex 0 by a multiple of
    # the coincidence distance: the tree and the full scan agree
    q = _figure_eight().samples.copy()
    tol = COINCIDENCE_TOL * Curve(q).total_length()
    q[q.shape[0] // 2, 1] = gap * tol
    tree, scan = Curve(q), Curve(q)
    assert tree._chords()[0] is embedded
    assert all(scan._block_verdict(b, True, chords)[0]
               for b, chords in scan._chord_blocks(True)) is embedded
    if not embedded:
        with pytest.raises(EmbeddingError):
            for _ in scan.chord_blocks():
                pass


@pytest.mark.parametrize("r", [math.nan, 0.0, -1.0])
def test_local_distortion_names_bad_scale(r):
    msg = rf"scale r must be positive \(got {r}\)"
    with pytest.raises(ValueError, match=msg):
        local_distortion(torus_knot(2, 3, n=256), r)


class TestAdmissibleScale:
    def test_returned_scale_qualifies(self, trefoil512):
        r = find_admissible_scale(trefoil512, G3)
        assert r is not None
        assert local_distortion(trefoil512, r)[0] < G3

    def test_largest_on_ladder(self, circle512):
        r = find_admissible_scale(circle512, G3)
        ladder = scale_ladder(circle512)
        bigger = ladder[ladder > r * (1 + 1e-12)]
        for rb in bigger[:3]:
            assert local_distortion(circle512, rb)[0] >= G3

    def test_none_possible(self):
        # threshold barely above 1: a knotted curve has no such ladder scale
        tre = torus_knot_raw(2, 3, 2.0, 0.5, 256)
        assert find_admissible_scale(tre, 1.0 + 1e-9) is None

    @pytest.mark.parametrize("threshold", [1.0, math.pi / 2, 2.0, math.nan])
    def test_names_bad_threshold(self, threshold):
        msg = rf"threshold must lie in \(1, pi/2\) \(got {threshold}\)"
        with pytest.raises(ValueError, match=msg):
            find_admissible_scale(circle(64), threshold)


class TestCertificate:
    def test_self_certify(self, trefoil512):
        cert = certify_equivalence(trefoil512, trefoil512)
        assert cert.passed and cert.verdict == "equivalent"
        assert cert.hausdorff == 0.0

    def test_symmetric_in_arguments(self, trefoil512, circle512):
        a = certify_equivalence(trefoil512, circle512)
        b = certify_equivalence(circle512, trefoil512)
        assert a.passed == b.passed
        assert a.hausdorff == pytest.approx(b.hausdorff, rel=1e-12)

    def test_keeps_no_pair_matrix(self):
        # tree searches of each curve's pairs and the Hausdorff distance;
        # one N x N array would take 32 MB
        a = torus_knot(2, 3, n=2048)
        b = Curve(a.samples + 1e-6)
        tracemalloc.start()
        try:
            cert = certify_equivalence(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.passed
        assert peak < 2048**2 * 8
        kept = [x for c in (a, b) for v in c._cache.values()
                for x in (v if isinstance(v, tuple) else (v,))]
        assert max(x.size for x in kept if isinstance(x, np.ndarray)) < 2048**2

    def test_scaled_copy_inconclusive(self, circle512):
        huge = Curve(1e6 * circle512.samples)
        cert = certify_equivalence(circle512, huge)
        assert not cert.passed
        assert cert.verdict == "inconclusive"
        # both curves individually admit scales; only the gap bound fails
        assert cert.r1 is not None and cert.r2 is not None

    @pytest.mark.parametrize("margin", [-0.1, -1e-12, math.nan, math.inf])
    def test_rejects_bad_margin(self, margin):
        # without the check, margin=-0.1 certifies two circles at
        # delta1 = 1.289, above g3 = 1.209
        with pytest.raises(ValueError, match=r"margin must be finite and >= 0"):
            certify_equivalence(circle(256), circle(256), margin=margin)

    @pytest.mark.parametrize("threshold, margin", [
        (None, 0.5), (1.2, 0.2), (2.0, 1e-3)])
    def test_names_threshold_and_margin(self, threshold, margin):
        thr = distortion_threshold(3) if threshold is None else threshold
        with pytest.raises(ValueError) as exc:
            certify_equivalence(circle(64), circle(64), threshold=threshold,
                                margin=margin)
        assert str(exc.value) == (
            f"threshold - margin must lie in (1, pi/2) (got {thr} - "
            f"{margin} = {thr - margin})")

    def test_dict_keys_are_fields(self, trefoil512, circle512):
        cert = certify_equivalence(trefoil512, circle512)
        names = [f.name for f in dataclasses.fields(cert)]
        assert names.count("passed") == 1
        d = cert.to_dict()
        assert set(d) == {"pass" if k == "passed" else k for k in names}
        assert d["pass"] is cert.passed and d["verdict"] == cert.verdict

    def test_reports_edge_range(self, trefoil512, circle512):
        cert = certify_equivalence(trefoil512, circle512).to_dict()
        for key, c in (("1", trefoil512), ("2", circle512)):
            assert cert["min_edge" + key] == float(c.edge_lengths().min())
            assert cert["max_edge" + key] == float(c.edge_lengths().max())

    def test_delta_is_distortion_at_scale(self):
        # the certify-2k pair: a trefoil at N=2048 and a 1e-4 bump of it
        a = torus_knot(2, 3, n=2048)
        t = a.params()
        b = Curve(a.samples + 1e-4 * np.stack(
            [np.sin(2 * np.pi * t), np.cos(4 * np.pi * t),
             np.sin(6 * np.pi * t)], axis=1))
        cert = certify_equivalence(a, b)
        assert cert.passed
        assert cert.delta1 == local_distortion(a, cert.r1)[0]
        assert cert.delta2 == local_distortion(b, cert.r2)[0]

    def test_no_rung_gives_no_scale_or_delta(self):
        tre = torus_knot_raw(2, 3, 2.0, 0.5, 256)
        cert = certify_equivalence(tre, tre, threshold=1.0 + 2e-9,
                                   margin=1e-9)
        assert not cert.passed
        assert (cert.r1, cert.delta1, cert.r2, cert.delta2) == (None,) * 4

    def test_perturbed_trefoil(self, trefoil512):
        t = trefoil512.params()
        bump = 1e-4 * np.stack([np.sin(2 * np.pi * t),
                                np.cos(4 * np.pi * t),
                                np.sin(6 * np.pi * t)], axis=1)
        cert = certify_equivalence(trefoil512, Curve(trefoil512.samples + bump))
        assert cert.passed
