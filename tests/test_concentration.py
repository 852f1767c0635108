import math
import tracemalloc

import numpy as np
import pytest

from knotgauge.concentration import (EPSILON, ConcentrationError,
                                     _coalesce, detect_concentrations,
                                     offdiag_window_mass, pipeline,
                                     select_scale)
from knotgauge.curve import param_distance
from knotgauge.sobolev import (ball_halfwidth, ball_window_sums,
                               bilip_constant, tangent_density)
from knotgauge.substitution import SubstitutionError, theta4
from util import (curve_from_angles, kinked_track, reference_window_sums,
                  unfiltered_good_sets)


def test_epsilon_value():
    assert EPSILON == pytest.approx(2 / 3 - 6 / math.pi**2, abs=1e-15)
    # the distortion bound the quantum is tuned for: 1/sqrt(1-3eps/2) = pi/3
    assert 1 / math.sqrt(1 - 1.5 * EPSILON) == pytest.approx(math.pi / 3,
                                                             abs=1e-12)


def twist_track(n=2048, width=8):
    """Track with a full 360-degree tangent twist over ``width`` edges."""
    half = n // 2
    m = int(0.42 * half)
    base = np.zeros(half)
    s = np.linspace(0.0, 1.0, half - m, endpoint=False)
    base[m:] = np.pi * (3 * s**2 - 2 * s**3)
    k0 = m // 2
    prof = np.linspace(0.0, 1.0, width, endpoint=False)
    base[k0:k0 + width] = 2 * math.pi * prof**2  # nonuniform spin: stays embedded
    return curve_from_angles(np.concatenate([base, base + np.pi])), k0 / n


class TestDetect:
    def test_smooth_circle_empty(self, circle512):
        det = detect_concentrations(circle512)
        assert det.indices == []

    def test_smooth_trefoil_empty(self, trefoil512):
        assert detect_concentrations(trefoil512).indices == []

    def test_twist_detected(self):
        c, x = twist_track(2048)
        det = detect_concentrations(c)
        assert det.indices, "twist not detected"
        dists = [param_distance(p, x) for p in det.params]
        assert min(dists) < 8 / 2048

    def test_symmetric_orbit_detected(self):
        c, _, x = kinked_track(2048, chi=0.7)
        det = detect_concentrations(c)
        assert len(det.indices) == 2
        ds = sorted(param_distance(p, x) for p in det.params)
        assert ds[0] < 4 / 2048
        assert abs(ds[1] - 0.5) < 4 / 2048

    def test_cardinality_bound(self):
        c, _, _ = kinked_track(2048, chi=0.7)
        det = detect_concentrations(c)
        assert len(det.indices) <= det.cardinality_bound

    def test_offdiagonal_decay(self):
        c, _, _ = kinked_track(2048, chi=0.7)
        rng = np.random.default_rng(0)
        n = c.n
        for _ in range(100):
            i, j = rng.integers(0, n, size=2)
            gap = param_distance(i / n, j / n)
            if gap < 0.05:
                continue
            r = rng.uniform(2 / n, gap / 4)
            mass = offdiag_window_mass(c, int(i), int(j), r)
            assert mass <= 64 * r**2 / gap**2 + 1e-12


def test_excluded_members_sum_without_copy():
    # the cluster members' rows and columns count as zero: the same sums bit
    # for bit as over a zeroed copy of the density, which is never built
    c, _, _ = kinked_track(2048, chi=0.7)
    members = detect_concentrations(c).cluster_members
    assert members.size
    zeroed = tangent_density(c).density.copy()
    zeroed[members, :] = 0.0
    zeroed[:, members] = 0.0
    ks = [ball_halfwidth(r, c.n) for r in np.geomspace(6 / 2048, 0.25, 12)]
    want = reference_window_sums(zeroed, ks)
    del zeroed
    tracemalloc.start()
    try:
        got = ball_window_sums(c, ks, exclude=members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.sums, want)
    # the whole-circle total counts every sample
    assert got.total == detect_concentrations(c).total_mass
    assert peak < 2048**2 * 8 / 4


def test_detection_memory():
    # one N x N array of a 1024-gon takes 8 MB
    c, _, _ = kinked_track(1024, chi=0.7)
    detect_concentrations(c)
    c, _, _ = kinked_track(1024, chi=0.7)
    tracemalloc.start()
    try:
        assert detect_concentrations(c).indices
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024**2 * 8 / 4


def test_coalesce_merges_run_across_zero():
    # 1022, 1023, 0, 1, 2 are one run through parameter 0
    flagged = np.array([0, 1, 2, 500, 501, 502, 1022, 1023])
    assert _coalesce(flagged, 1024, gap=8) == [0, 501]


class TestSelectScale:
    def test_kinked_track_scale(self):
        c, _, x = kinked_track(2048, chi=0.7)
        det = detect_concentrations(c)
        L = bilip_constant(c)
        sel = select_scale(c, det, p=2, L=L)
        assert sel.r_bar > 0
        assert sel.r_bar <= 1 / 8  # symmetry bound for p=2
        assert sel.annulus_scale is not None
        # the annuli around the kink representative carry exactly zero mass
        # up to the reported prefix scale, despite the O(1) kink inside
        assert sel.theta == pytest.approx(theta4(L))

    def test_twist_too_sharp_for_grid(self):
        # the twist's annuli carry mass far above theta4(L)/2 at every
        # ladder radius
        c, _ = twist_track(1024)
        det = detect_concentrations(c)
        with pytest.raises(ConcentrationError, match="too sharp for grid"):
            select_scale(c, det, p=2, L=bilip_constant(c))

    def test_requires_detection(self, circle512):
        det = detect_concentrations(circle512)
        with pytest.raises(ConcentrationError):
            select_scale(circle512, det, p=2, L=bilip_constant(circle512))


@pytest.fixture
def open_gate(monkeypatch):
    """The good-set gate replaced by the unfiltered balls."""
    import knotgauge.substitution as substitution
    monkeypatch.setattr(substitution, "good_sets", unfiltered_good_sets)


class TestPipeline:
    def test_concentration_free_passthrough(self, trefoil512):
        rep = pipeline(trefoil512, p=3)
        assert rep.detection.indices == []
        assert rep.modified is trefoil512
        assert rep.all_pass

    def test_concentration_free_with_reference(self, trefoil512):
        rep = pipeline(trefoil512, p=3, reference=trefoil512)
        assert rep.all_pass
        assert rep.certificate is not None and rep.certificate.passed

    @pytest.mark.parametrize("p", [0, -1])
    def test_symmetry_order_below_one(self, p):
        c, ref, _ = kinked_track(1024, chi=0.7)
        with pytest.raises(ConcentrationError,
                           match=rf"symmetry order p .*\(got {p}\)"):
            pipeline(c, p=p, reference=ref)

    def test_reference_size_mismatch(self, trefoil512):
        from knotgauge.curve import circle
        with pytest.raises(ConcentrationError, match="sample count"):
            pipeline(trefoil512, p=3, reference=circle(256))

    def test_good_set_gate_blocks_at_desk_resolution(self):
        # the smallness prescribed for bilipschitz control makes the good-set
        # threshold theta^(1/4) ~ (768 L)^-2 ~ 2.6e-7.  The kink is one of
        # ~2 N r_bar samples in the window, so its share of the mean tangent
        # is ~1/(N r_bar): it tilts nu by ~0.022 rad at r_bar = 0.0072, and
        # every straight sample near x +- r_bar/2 keeps a maximal excess of
        # that order (5.1e-2 at N=2048, 2.0e5 times the threshold).  The gap
        # shrinks only as 1/N, so the pipeline must refuse at the gate.
        c, ref, _ = kinked_track(2048, chi=0.7)
        with pytest.raises(SubstitutionError, match="no good endpoints"):
            pipeline(c, p=2, reference=ref)

    def test_forced_endpoints_fail_verification(self, open_gate):
        # endpoints forced past the gate carry the kink's tilt of nu into
        # the substitution, whose verification then fails five flags; the
        # final distortion, the budget and the certificate still run.  The
        # final distortion fails too: 2r = r_bar/(8 L) is under one edge
        c, ref, _ = kinked_track(1024, chi=0.7)
        rep = pipeline(c, p=2, reference=ref)
        # the final scale is below the shortest edge: no pair to compare
        assert rep.flags == {"substitution": False, "distortion": False,
                             "budget": False, "certificate": True}
        assert rep.distortion_final == 1.0
        assert len(rep.notes) == 1
        assert rep.notes[0].startswith(
            f"final distortion compares no pair: 2r = "
            f"{2 * rep.final_scale:.3e} is below the shortest edge ")
        assert [k for k, ok in rep.substitution.flags.items() if not ok] == [
            "linf", "window_distortion", "intrinsic", "nu_delta",
            "difference_quotients"]
        assert rep.linf_reference >= rep.budget
        assert rep.certificate.passed
        assert rep.modified.n == c.n

    def test_concentrated_reference_gives_no_seminorm_scale(self, open_gate):
        c, _, _ = kinked_track(1024, chi=0.7)
        rep = pipeline(c, p=2, reference=c)
        assert rep.scale.r_gamma is None
