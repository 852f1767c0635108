import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import knotgauge.substitution as substitution
from knotgauge.concentration import pipeline
from knotgauge.curve import Curve, arc_window, circle
from knotgauge.flowfield import midpoint_angle
from knotgauge.sobolev import bilip_constant
from knotgauge.substitution import (FLAGS, THETA1, GoodSetError,
                                    MeanDirection, SubstitutionError,
                                    _difference_quotients_ok, _pair_checks,
                                    _signed_offset, _verify, excess_field,
                                    good_sets, mean_direction, substitute,
                                    theta3, theta4, weak_type_check)
from util import (fourier_curve, kinked_track, track_curve,
                  unfiltered_good_sets)


@pytest.fixture(scope="module")
def track2048():
    return track_curve(n=2048, seed=3)


def test_threshold_ordering():
    for L in (1.0, 2.0, 10.0, 100.0):
        assert theta4(L) < theta3(L) < THETA1 < 1 / 8


class TestMeanDirection:
    def test_exactly_straight(self):
        c, x = track_curve(n=1024, seed=None, cap_noise=0.0)
        md = mean_direction(c, x, 0.04, theta=0.05)
        assert np.array_equal(md.nu, [1.0, 0.0, 0.0])
        assert md.dev_mean_sq == 0.0 and md.dev_nu_sq == 0.0
        assert md.dev_mean_ok and md.dev_nu_ok

    def test_near_straight_noisy(self):
        # tangents within ~1 degree of e1 in the window
        rng = np.random.default_rng(11)
        n = 1024
        angles = np.zeros(n // 2)
        m = int(0.42 * (n // 2))
        s = np.linspace(0, 1, n // 2 - m, endpoint=False)
        angles[m:] = np.pi * (3 * s**2 - 2 * s**3)
        noise = np.deg2rad(1.0) * np.sin(
            2 * np.pi * 5 * np.arange(m) / m + rng.uniform(0, 1))
        angles[:m] += noise
        from util import curve_from_angles
        c = curve_from_angles(np.concatenate([angles, angles + np.pi]))
        x = (m // 2) / n
        md = mean_direction(c, x, 0.04, theta=0.05)
        assert np.arccos(np.clip(md.nu @ np.array([1.0, 0, 0]), -1, 1)) \
            < np.deg2rad(2.0)
        assert md.dev_mean_ok and md.dev_nu_ok
        assert md.dev_mean_sq < 0.01 * 8 * 0.05  # large slack

    def test_theta_ceiling(self):
        c, x = track_curve(n=512, seed=None, cap_noise=0.0)
        with pytest.raises(SubstitutionError, match="1/8"):
            mean_direction(c, x, 0.04, theta=0.2)

    def test_annulus_hypothesis_enforced(self, circle512):
        with pytest.raises(SubstitutionError, match="annulus seminorm"):
            mean_direction(circle512, 0.0, 0.1, theta=1e-6)


class TestGoodSets:
    def test_straight_all_good(self):
        c, x = track_curve(n=1024, seed=None, cap_noise=0.0)
        # every candidate near x +- r/2 qualifies (maximal excess is 0 there)
        exc = excess_field(c, x, 0.04, nu=np.array([1.0, 0.0, 0.0]))
        gs = good_sets(exc, theta=1e-9)
        for idx in np.concatenate([gs.g_plus, gs.g_minus]):
            assert exc.maximal[idx] <= (1e-9) ** 0.25

    def test_theta1_ceiling(self):
        c, x = track_curve(n=512, seed=None, cap_noise=0.0)
        with pytest.raises(SubstitutionError, match="theta must be below"):
            good_sets(excess_field(c, x, 0.04, nu=np.array([1.0, 0.0, 0.0])),
                      theta=1e-4)

    def test_members_obey_threshold(self):
        c, x = track_curve(n=2048, seed=7)
        theta = 1e-9
        exc = excess_field(c, x, 0.05,
                           nu=mean_direction(c, x, 0.05, theta).nu)
        gs = good_sets(exc, theta=theta)
        thr = theta ** 0.25
        assert np.all(exc.maximal[gs.g_plus] <= thr)
        assert np.all(exc.maximal[gs.g_minus] <= thr)


class TestExcessField:
    def test_tiny_negative_center_wraps_to_zero(self):
        c = fourier_curve(3, n=256)
        assert excess_field(c, -1e-20, 0.1, nu=np.array([1.0, 0.0, 0.0])
                            ).center == 0.0


class TestDifferenceQuotients:
    @pytest.mark.parametrize("nu, ok", [
        ([1.0, 0.0, 0.0], True),
        ([1.01, 0.0, 0.0], False),                     # projection above 1
        ([math.cos(0.2), math.sin(0.2), 0.0], False),  # projection too low
        ([1.0, math.tan(0.2), 0.0], False)],           # orthogonal part
        ids=["exact", "long", "tilted", "orthogonal"])
    def test_straight_side(self, nu, ok):
        # on the straight side every quotient is the tangent (1, 0, 0)
        c, x = track_curve(n=1024, seed=None, cap_noise=0.0)
        r, theta = 0.04, 1e-9
        ends = (c.index_of_param(x - r / 2), c.index_of_param(x + r / 2))
        assert _difference_quotients_ok(c, x, r, np.array(nu), ends,
                                        theta) is ok


class TestWeakType:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_fields(self, seed):
        c = fourier_curve(seed, n=512)
        rng = np.random.default_rng(seed + 100)
        x = rng.uniform()
        r = rng.uniform(0.05, 0.2)
        exc = excess_field(c, x, r, nu=np.array([1.0, 0.0, 0.0]))
        for theta in (1e-8, 1e-4, 1e-2):
            for t in (theta ** 0.25, 2 * theta ** 0.25):
                level, bound = weak_type_check(exc, t)
                assert level <= bound + 1e-12

    def test_maximal_dominates_pointwise(self):
        c = fourier_curve(42, n=256)
        exc = excess_field(c, 0.3, 0.1, nu=np.array([0.0, 0.0, 1.0]))
        assert np.all(exc.maximal >= exc.magnitudes - 1e-12)
        assert np.all(exc.maximal >= 0.0)


class TestSubstitute:
    def test_empty_centers_identity(self, trefoil512):
        rep = substitute(trefoil512, [], r=0.01)
        assert rep.modified is trefoil512
        assert rep.all_pass
        assert tuple(rep.flags) == FLAGS

    @pytest.mark.parametrize("kwargs, match", [
        ({"r": -1.0}, "radius"), ({"r": math.nan}, "radius"),
        ({"r": 0.05, "theta": 0.5}, "ceiling"),
        ({"r": 0.05, "theta": math.nan}, "ceiling"),
        ({"r": 0.05, "theta": -1.0}, "ceiling"),
        ({"r": 0.05, "theta": 0.0}, "ceiling")],
        ids=["r=-1", "r=nan", "theta=0.5", "theta=nan", "theta=-1",
             "theta=0"])
    def test_empty_centers_check_r_and_theta(self, kwargs, match):
        with pytest.raises(SubstitutionError, match=match):
            substitute(circle(256), [], **kwargs)

    def test_radius_required(self, trefoil512):
        with pytest.raises(TypeError):
            substitute(trefoil512, [], theta=1e-9)

    def test_track_all_flags(self):
        c, x = track_curve(n=2048, seed=3)
        L = bilip_constant(c)
        theta = theta3(L) / 2
        rep = substitute(c, [x], theta=theta, r=0.05)
        assert rep.all_pass, rep.flags
        assert tuple(rep.flags) == FLAGS
        assert rep.linf_distance < 6 * theta ** 0.125 * 0.05
        assert all(v < 1 + 4 * theta ** 0.25 for v in rep.window_distortions)
        assert rep.intrinsic_ratio_max <= 1 + 1e-9
        assert rep.intrinsic_ratio_min >= 1 - 2 * theta ** 0.125 - 1e-9
        assert 1 - 2 * theta ** 0.125 - 1e-9 <= rep.length_ratio <= 1 + 1e-9
        assert rep.bilip_modified <= 2 * rep.bilip_original

    def test_builds_no_pair_matrix(self, track2048):
        # the peak covers the unit-length working curves, whose caches go
        # with them; one N x N array would take 32 MB
        c, x = track2048
        tracemalloc.start()
        try:
            rep = substitute(Curve(c.samples), [x], r=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.all_pass
        assert peak < 2048**2 * 8

    def test_chords_computed_once_per_curve(self, track2048, monkeypatch):
        # the unit-length working curve gets no pass of chords (its
        # bilipschitz constant reads the tree) and the modified one gets
        # one: its verdict, window distortions and bilipschitz constant
        # come from the same pass
        passes = Counter()
        scan = Curve._chord_blocks

        def counted(c, upper):
            passes[c] += 1
            return scan(c, upper)

        monkeypatch.setattr(Curve, "_chord_blocks", counted)
        c, x = track2048
        rep = substitute(Curve(c.samples), [x], r=0.05)
        assert rep.all_pass
        (modified,) = passes
        assert np.array_equal(modified.samples * c.total_length(),
                              rep.modified.samples)
        assert passes[modified] == 1

    def test_pipeline_reference_takes_no_chord_pass(self, monkeypatch):
        # only the modified curve gets a pass, the substitution's check;
        # the working curve's bilipschitz constant, the final distortion,
        # the reference's seminorm scale and both certificates read the
        # tree
        passes = Counter()
        scan = Curve._chord_blocks

        def counted(c, upper):
            passes[c] += 1
            return scan(c, upper)

        monkeypatch.setattr(Curve, "_chord_blocks", counted)
        monkeypatch.setattr(substitution, "good_sets", unfiltered_good_sets)
        c, ref, _ = kinked_track(1024, chi=0.7)
        rep = pipeline(c, p=2, reference=ref)
        assert rep.certificate is not None
        length = c.total_length()
        (modified,) = passes
        assert np.array_equal(modified.samples * length,
                              rep.modified.samples)
        assert list(passes.values()) == [1]

    def test_ratio_queries_take_no_chord_pass(self, trefoil512,
                                              monkeypatch):
        # a fresh curve's bilipschitz constant and the flow field's
        # default angle read the tree
        passes = Counter()
        scan = Curve._chord_blocks

        def counted(c, upper):
            passes[c] += 1
            return scan(c, upper)

        monkeypatch.setattr(Curve, "_chord_blocks", counted)
        c = Curve(trefoil512.samples)
        assert bilip_constant(c) > math.pi / 2
        assert 0.0 < midpoint_angle(Curve(c.samples), 0.1) < math.pi
        assert not passes

    def test_straight_window_unchanged(self):
        c, x = track_curve(n=1024, seed=None, cap_noise=0.0)
        rep = substitute(c, [x], r=0.04)  # theta defaults to the ceiling/2
        assert rep.linf_distance < 1e-12

    def test_two_centers_orbit(self):
        c, x = track_curve(n=2048, seed=5)
        L = bilip_constant(c)
        rep = substitute(c, [x, x + 0.5], theta=theta3(L) / 2, r=0.04)
        assert rep.all_pass
        assert len(rep.endpoints) == 2

    def test_centers_too_close(self):
        c, x = track_curve(n=1024, seed=None, cap_noise=0.0)
        with pytest.raises(SubstitutionError, match="2r"):
            substitute(c, [x, x + 0.05], r=0.04)

    def test_theta_above_bilip_ceiling(self):
        c, x = track_curve(n=1024, seed=None, cap_noise=0.0)
        with pytest.raises(SubstitutionError, match="ceiling"):
            substitute(c, [x], theta=1e-6, r=0.04)

    def test_annulus_gate_on_every_path(self, circle512):
        # a circle window is never straight enough at tiny theta: the
        # substitution stops at the mean-direction hypothesis, before the
        # good-set gate
        L = bilip_constant(circle512)
        with pytest.raises(SubstitutionError, match="annulus seminorm"):
            substitute(circle512, [0.25], theta=theta3(L) / 2, r=0.05)

    def test_good_set_failure_names_center(self):
        # the kink leaves the annulus seminorm at 0, so the hypothesis
        # holds, but it tilts the mean direction away from every tangent
        c, _, x = kinked_track(n=1024)
        work = Curve(c.samples / c.total_length())
        theta = theta3(bilip_constant(work)) / 2
        assert mean_direction(work, x, 0.05, theta).annulus_seminorm == 0.0
        with pytest.raises(GoodSetError,
                           match=re.escape(f"no good endpoints at this scale "
                                           f"(x={x},")):
            substitute(c, [x], r=0.05)

    @pytest.mark.parametrize("center, k, match", [
        ("nan", 102.4, "center nan is not finite (r=0.05, N=2048)"),
        ("inf", 102.4, "center inf is not finite (r=0.05, N=2048)"),
        ("x", 0.5, "holds fewer than two samples (r=0.0002441, N=2048)"),
        ("x", 3.0, "ball B_(r/8)(x - r/2) holds no sample (x=0.10498046875, "
                   "r=0.001465, N=2048); r >= 4/N always holds samples"),
    ], ids=["nan", "inf", "annulus", "ball"])
    def test_unresolvable_window_refused(self, track2048, center, k, match):
        # r = k/N around the sample x = 215/N: at k = 0.5 the annulus holds
        # no sample, at k = 3 both balls B_(r/8)(x -+ r/2) fall between
        # samples
        c, x = track2048
        with pytest.raises(SubstitutionError, match=re.escape(match)) as exc:
            substitute(c, [x if center == "x" else float(center)], r=k / c.n)
        assert type(exc.value) is SubstitutionError

    def test_empty_ball_refused_by_content_not_size(self, track2048):
        # r = 3/N half a step off x puts both ball centers on samples
        c, x = track2048
        assert substitute(c, [x + 0.5 / c.n], r=3.0 / c.n).all_pass

    def test_seeded_reproducibility(self):
        c, x = track_curve(n=1024, seed=2)
        rep1 = substitute(c, [x], r=0.04)
        rep2 = substitute(c, [x], r=0.04)
        assert rep1.intrinsic_ratio_min == rep2.intrinsic_ratio_min
        assert rep1.intrinsic_ratio_max == rep2.intrinsic_ratio_max
        assert np.array_equal(rep1.modified.samples, rep2.modified.samples)

    def test_intrinsic_extrema_cover_all_pairs(self):
        # a unit-length input, so that substitute's normalization is the
        # identity and the dense reference reads the very curves it checks
        c0, x = track_curve(n=256, seed=1)
        c = Curve(c0.samples / c0.total_length())
        assert c.total_length() == 1.0
        rep = substitute(c, [x], r=0.05)
        off = ~np.eye(c.n, dtype=bool)
        ratios = (rep.modified.intrinsic_matrix()[off]
                  / c.intrinsic_matrix()[off])
        assert ratios.min() < 1.0 < ratios.max()
        assert rep.intrinsic_ratio_min == ratios.min()
        assert rep.intrinsic_ratio_max == ratios.max()

    def test_modified_speed_structure(self):
        # off the windows the modified curve keeps unit speed; on them the
        # speed equals the endpoint gap over the parameter gap
        c, x = track_curve(n=2048, seed=9)
        L = bilip_constant(c)
        theta = theta3(L) / 2
        rep = substitute(c, [x], theta=theta, r=0.05)
        mod = Curve(rep.modified.samples / rep.modified.total_length())
        e = mod.edge_lengths() * mod.n
        lo = 1 - 2 * theta ** 0.125 - 1e-6
        assert np.all(e >= lo)
        assert np.all(e <= 1 + 1e-6)


def test_signed_offset_array_matches_scalar_rule():
    rng = np.random.default_rng(3)
    t = np.concatenate([rng.uniform(-1.0, 2.0, 200),
                        [0.0, 0.25, 0.5, 0.75, 1.0]])
    for base in (0.0, 0.25, 0.5, 0.9, rng.uniform()):
        got = _signed_offset(t, base)
        for ti, g in zip(t, got):
            d = (ti - base) - np.floor(ti - base)
            assert g == (d if d <= 0.5 else d - 1.0)
        assert np.all((got > -0.5) & (got <= 0.5))


#: substitution radius of the _verify cases below
R = 0.05


def _verify_windows(case, n):
    """(s, t, u) per center of a :func:`_verify` case at radius ``R``: the
    center is s + R, and its windows are the shorter arcs from s to t and
    from u to s + 2R."""
    g, k = 1.0 / n, int(0.6 * n)
    return {
        "blocks": [(0.1, 0.4, 0.12)],       # across row-block boundaries
        "wrapped": [(-0.03, 0.03, 0.0)],    # across 0
        # off the grid: no sample in either window
        "empty": [(100.5 * g, 100.5 * g, 100.5 * g + 2 * R)],
        # one sample and two samples, each beside an empty window
        "two-centers": [(7 * g, 7 * g, 7 * g + 2 * R),
                        (k * g, (k + 1) * g, k * g + 2 * R)],
    }[case]


@pytest.fixture(scope="module")
def pair_curves():
    """Per N: a working curve, a modified one, the modified curve's
    intrinsic and chord matrices, and the dense references of the least
    and largest ratio of its intrinsic distances to the working curve's
    and of its bilipschitz constant."""
    made = {}

    def make(n):
        if n not in made:
            work, mod = fourier_curve(4, n=n), fourier_curve(5, n=n)
            ref = Curve(mod.samples)
            arcs, chords = ref.intrinsic_matrix(), ref.chord_matrix()
            # the diagonal's 0/0 is NaN
            with np.errstate(invalid="ignore"):
                ratio = arcs / Curve(work.samples).intrinsic_matrix()
                bilip = np.nanmax(arcs / chords)
            made[n] = (work, mod, arcs, chords,
                       (np.nanmin(ratio), np.nanmax(ratio), bilip))
        return made[n]
    return make


@pytest.mark.parametrize("idx", [
    [], [7], [7, 8], [7, 200], list(range(20, 60)),
    "wrapped",  # the shorter arc from 0.9 to 0.1, across 0
    *(pytest.param((n, case), id=f"verify-{case}-{n}") for n in (256, 2049)
      for case in ("blocks", "wrapped", "empty", "two-centers")),
])
def test_window_distortion_matches_dense_reference(idx, pair_curves):
    # the one pass over the modified curve's pairs gives what dense
    # matrices give, exactly: each window's largest intrinsic/chord ratio,
    # the intrinsic-distance extrema and the bilipschitz constant; read
    # through _pair_checks for index windows, through _verify for centers
    if isinstance(idx, tuple):
        n, case = idx
        work, mod, arcs, chords, extrema = pair_curves(n)
        centers = [s + R for s, _, _ in _verify_windows(case, n)]
        endpoints = [(u, t) for _, t, u in _verify_windows(case, n)]
        dirs = [MeanDirection(np.array([1.0, 0.0, 0.0]), 1.0, 0.0, 0.0, 0.0,
                              True, True)] * len(centers)
        rep = _verify(work, mod, centers, endpoints, 1e-20, R, 2.0, dirs)
        got = (rep.window_distortions, rep.intrinsic_ratio_min,
               rep.intrinsic_ratio_max, rep.bilip_modified)
        windows = [np.flatnonzero(arc_window(n, lo, hi))
                   for x, (xm, xp) in zip(centers, endpoints)
                   for lo, hi in ((x - R, xp), (xm, x + R))]
    else:
        work, mod, arcs, chords, extrema = pair_curves(256)
        if idx == "wrapped":
            idx = np.flatnonzero(arc_window(256, 0.9, 0.1))
        windows = [np.asarray(idx, dtype=int)]
        got = _pair_checks(work, mod, windows)
    want = []
    for w in windows:
        block = np.ix_(w, w)
        iu = np.triu_indices(w.size, k=1)
        ratios = arcs[block][iu] / chords[block][iu]
        want.append(float(ratios.max()) if ratios.size else 1.0)
    assert got == (want, *extrema)
