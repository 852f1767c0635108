import math
from itertools import combinations

import numpy as np
import pytest

from knotgauge.curve import Curve, circle
from knotgauge.distortion import (distortion_angle, distortion_threshold,
                                  find_admissible_scale, local_distortion,
                                  threshold_angle)
from knotgauge.flowfield import (FlowError, _ball3, _ball4, _cap_of,
                                 direction_set, direction_set_auto,
                                 enclosing_ball, flow, geodesic_cap_radius,
                                 vector_field)
from util import rigid_moved, torus_knot_raw

G3 = distortion_threshold(3)


@pytest.fixture(scope="module")
def trefoil_setup():
    tre = torus_knot_raw(2, 3, 2.0, 0.5, 512)
    r_m = find_admissible_scale(tre, G3 - 1e-3)
    delta = local_distortion(tre, r_m)[0]
    alpha = 0.5 * (distortion_angle(delta).alpha + threshold_angle(3))
    return tre, r_m, alpha


def _brute_ball(pts):
    """Smallest ball through two or three of ``pts`` that holds them all,
    as (center, radius)."""
    pts = np.asarray(pts, dtype=float)
    cands = [((p + q) / 2, np.linalg.norm(p - q) / 2)
             for p, q in combinations(pts, 2)]
    for p, q, s in combinations(pts, 3):
        n = np.cross(q - p, s - p)
        if n @ n <= 1e-20 * ((q - p) @ (q - p)) * ((s - p) @ (s - p)):
            continue                    # collinear: no circumcircle
        # equidistant from p, q and s, in their plane
        c = np.linalg.solve(np.array([2 * (q - p), 2 * (s - p), n]),
                            [q @ q - p @ p, s @ s - p @ p, n @ p])
        cands.append((c, np.linalg.norm(p - c)))
    return min(((c, r) for c, r in cands
                if np.all(np.linalg.norm(pts - c, axis=1) <= r + 1e-9)),
               key=lambda cr: cr[1])


def _assert_same_ball(got, want):
    (c, r), (wc, wr) = got, want
    assert r == pytest.approx(wr, rel=1e-12)
    assert np.allclose(c, wc, rtol=0.0, atol=1e-12)


class TestEnclosingBall:
    @pytest.mark.parametrize("seed", range(20))
    def test_contains_all(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(rng.integers(1, 60), 3))
        center, radius = enclosing_ball(pts)
        assert np.linalg.norm(pts - center, axis=1).max() <= radius + 1e-7

    def test_minimal_for_antipodes(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        center, radius = enclosing_ball(pts)
        assert radius == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(center) < 1e-12

    def test_not_larger_than_bounding_sphere(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        _, radius = enclosing_ball(pts)
        assert radius <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_collinear_and_coplanar_match_brute_force(self, seed):
        # on a line or in a plane the minimal ball passes through two or
        # three of the points
        rng = np.random.default_rng(seed)
        line = np.outer(rng.normal(size=7), rng.normal(size=3))
        plane = np.c_[rng.normal(size=(7, 2)), np.zeros(7)]
        for pts in (line, plane, rng.integers(-2, 3, size=(7, 3)) * [1, 1, 0]):
            center, radius = enclosing_ball(pts)
            _assert_same_ball((center, radius), _brute_ball(pts))

    @pytest.mark.parametrize("pts", [
        [[0, 0, 0], [1, 0, 0], [3, 0, 0]],
        [[3, 0, 0], [-1, 0, 0], [0.5, 0, 0]],
        [[0, 2, 1], [0, 2, 1], [0, -1, 1]]])
    def test_ball3_collinear_fallback(self, pts):
        # the cross product is exactly 0: the widest two-point ball
        p, q, s = (np.array(v, dtype=float) for v in pts)
        center, r2 = _ball3(p, q, s)
        _assert_same_ball((np.array(center), math.sqrt(r2)), _brute_ball(pts))

    @pytest.mark.parametrize("angles", [
        [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi],
        [0.3, 1.9, 2.2, 4.0]])
    def test_ball4_coplanar_fallback(self, angles):
        # four cocircular points in z = 0: the determinant is exactly 0 and
        # every face's circumcircle is the circle itself
        pts = [[2.0 + 3.0 * math.cos(a), -1.0 + 3.0 * math.sin(a), 0.0]
               for a in angles]
        center, r2 = _ball4(*(np.array(v) for v in pts))
        _assert_same_ball((np.array(center), math.sqrt(r2)), _brute_ball(pts))
        _assert_same_ball(enclosing_ball(pts), _brute_ball(pts))

    def test_antipodal_cap_is_whole_sphere(self):
        dirs = np.array([[0.0, 0.6, 0.8], [0.0, -0.6, -0.8]])
        center, radius = _cap_of(dirs)
        assert np.array_equal(center, dirs[0]) and radius == math.pi

    @pytest.mark.parametrize("seed", range(5))
    def test_two_direction_cap(self, seed):
        # the bisector and half the angle, bit for bit, for random pairs,
        # close pairs and nearly antipodal pairs at least 1e-6 apart
        rng = np.random.default_rng(seed)
        unit = lambda v: v / np.linalg.norm(v)
        for _ in range(200):
            d0 = unit(rng.normal(size=3))
            d1 = unit(rng.choice([1.0, -1.0]) * d0
                      + 10.0 ** rng.uniform(-5, 0) * rng.normal(size=3))
            if np.linalg.norm(d1 - d0) < 1e-6:
                continue
            dirs = np.array([d0, d1])
            center, radius = _cap_of(dirs)
            mid = d0 + d1
            want = mid / np.linalg.norm(mid)
            assert np.array_equal(center, want)
            assert radius == float(
                np.arccos(np.clip(dirs @ want, -1.0, 1.0)).max())
            half = math.atan2(np.linalg.norm(d1 - d0), np.linalg.norm(mid))
            assert radius == pytest.approx(half, abs=1e-7)


class TestDirectionSet:
    def test_axis_symmetry(self, circle512):
        ds = direction_set(circle512, np.array([0.0, 0.0, 1.0]), 0.25)
        # cone with apex on the axis: center is the axis by symmetry
        assert abs(ds.cap_center @ np.array([0, 0, 1.0])) > 1 - 1e-9
        assert ds.cap_radius == pytest.approx(math.pi / 4, abs=1e-3)

    def test_single_direction_near_curve(self, circle512):
        ds = direction_set(circle512, np.array([1.001, 0.0, 0.0]), 1e-9)
        assert len(ds.directions) == 1
        assert ds.cap_radius == 0.0

    def test_on_curve_rejected(self, circle512):
        with pytest.raises(FlowError):
            direction_set(circle512, circle512.samples[5], 0.1)

    def test_diameter_bound_sweep(self, trefoil_setup):
        # near the curve, the eps-search caps the direction set under alpha
        tre, r_m, alpha = trefoil_setup
        rng = np.random.default_rng(3)
        for _ in range(40):
            i = rng.integers(0, tre.n)
            nrm = rng.normal(size=3)
            nrm /= np.linalg.norm(nrm)
            x = tre.samples[i] + rng.uniform(0.05, 0.95) * r_m * nrm
            ds = direction_set_auto(tre, x, alpha)
            assert ds.cap_diameter < alpha

    def test_auto_stops_after_forty_halvings(self, trefoil_setup):
        # no cap diameter is below 0
        tre, r_m, _ = trefoil_setup
        x = tre.samples[7] + np.array([0.0, 0.0, 0.1 * r_m])
        assert direction_set_auto(tre, x, 0.0).epsilon == 0.25 * 2.0 ** -40

    def test_separation_inequality(self, trefoil_setup):
        # every nearest sample sees the cap center under the cap angle
        tre, r_m, alpha = trefoil_setup
        rng = np.random.default_rng(4)
        for _ in range(40):
            i = rng.integers(0, tre.n)
            nrm = rng.normal(size=3)
            nrm /= np.linalg.norm(nrm)
            y = tre.samples[i] + rng.uniform(0.1, 0.45) * r_m * nrm
            ds = direction_set_auto(tre, y, alpha)
            dist = np.linalg.norm(tre.samples - y, axis=1)
            near = np.where(dist <= dist.min() + 1e-9)[0]
            for z in near:
                u = (y - tre.samples[z]) / dist[z]
                assert u @ ds.cap_center >= math.cos(ds.cap_radius) - 1e-9


class TestVectorField:
    def test_zero_outside_support_increasing(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        y = tre.samples[10] + np.array([0.0, 0.0, 2.0 * r_m])
        v = vector_field(tre, y, alpha, r_m, rho=r_m / 8, direction="inc")
        assert np.all(v == 0.0)

    def test_zero_inside_core_decreasing(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        rho = r_m / 4
        nrm = np.array([0.0, 0.0, 1.0])
        y = tre.samples[10] + 0.3 * rho * nrm
        v = vector_field(tre, y, alpha, r_m, rho=rho, direction="dec",
                         delta=0.8 * r_m)
        assert np.all(v == 0.0)

    def test_separation_of_field(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        rng = np.random.default_rng(5)
        for _ in range(25):
            i = rng.integers(0, tre.n)
            nrm = rng.normal(size=3)
            nrm /= np.linalg.norm(nrm)
            y = tre.samples[i] + rng.uniform(0.05, 0.3) * r_m * nrm
            v = vector_field(tre, y, alpha, r_m, rho=r_m / 8, direction="inc")
            if np.all(v == 0.0):
                continue
            dist = np.linalg.norm(tre.samples - y, axis=1)
            z = tre.samples[int(np.argmin(dist))]
            u = (y - z) / np.linalg.norm(y - z)
            # active-band field has unit-or-better outward component, up to
            # the cutoff amplitude
            assert u @ v >= 0.0

    def test_parameter_validation(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        y = tre.samples[0] + np.array([0.0, 0.0, 0.1])
        with pytest.raises(FlowError):
            vector_field(tre, y, alpha, r_m, rho=r_m, direction="inc")
        with pytest.raises(FlowError):
            vector_field(tre, y, alpha, r_m, rho=r_m / 4, direction="dec",
                         delta=None)

    @pytest.mark.parametrize("height, kwargs, error, match", [
        (0.0, {}, FlowError, "field queried on the curve"),
        (0.1, {"direction": "up"}, ValueError,
         "direction must be 'inc' or 'dec'"),
        (0.1, {"alpha": 2.2}, FlowError, "alpha too large"),
    ])
    def test_refusals(self, trefoil_setup, height, kwargs, error, match):
        tre, r_m, alpha = trefoil_setup
        y = tre.samples[7] + np.array([0.0, 0.0, height * r_m])
        with pytest.raises(error, match=match):
            vector_field(tre, y, r_m=r_m, rho=r_m / 8,
                         **{"alpha": alpha, **kwargs})

    def test_alpha_cap_limit(self):
        # sqrt(4/3) sin(1.1) > 1: no cap below pi/2 is guaranteed
        assert geodesic_cap_radius(2.2) == math.pi / 2

    def test_opposite_nearest_vertices_violate_hypothesis(self):
        # a hexagon pinched at the origin, whose nearest polygon points
        # are the vertices (-+0.1, 0, 0): the two directions are opposite,
        # so no open hemisphere holds them at any epsilon
        q = [[-1, -1, 0], [-0.1, 0, 0], [-1, 1, 0], [0, 1, 0], [1, 1, 0],
             [0.1, 0, 0], [1, -1, 0], [0, -1, 0]]
        c = Curve(np.array(q, dtype=float))
        with pytest.raises(FlowError, match="distortion hypothesis violated "
                                            "at .* cap radius 3.142"):
            vector_field(c, [0.0, 0.0, 0.0], 1.0, r_m=1.0, rho=0.1)


class TestFlow:
    def test_nonfinite_seed_refused(self, trefoil_setup):
        tre, r_m, _ = trefoil_setup
        with pytest.raises(FlowError, match=r"seed \[nan  0\.  0\.\] is not "
                                            "finite"):
            flow(tre, [math.nan, 0.0, 0.0], "inc", r_m, r_m / 8, steps=64)

    def test_seed_on_curve_refused(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        with pytest.raises(FlowError, match="seed lies on the curve"):
            flow(tre, tre.samples[3], "inc", r_m, r_m / 8, steps=64,
                 alpha=alpha)

    def test_increasing_monotone_and_escape(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        rng = np.random.default_rng(6)
        rho = r_m / 8
        for _ in range(5):
            i = rng.integers(0, tre.n)
            nrm = rng.normal(size=3)
            nrm /= np.linalg.norm(nrm)
            seed = tre.samples[i] + rng.uniform(0.1, 0.45) * r_m * nrm
            tr = flow(tre, seed, "inc", r_m, rho, steps=128, alpha=alpha)
            assert tr.monotone(1e-6)
            assert tr.distances[-1] >= r_m / 2 - rho - 1e-3

    def test_far_seed_is_fixed(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        seed = tre.samples[0] + np.array([0.0, 0.0, 1.5 * r_m])
        tr = flow(tre, seed, "inc", r_m, r_m / 8, steps=64, alpha=alpha)
        assert np.allclose(tr.states[-1], seed)

    def test_decreasing_into_collar(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        rng = np.random.default_rng(8)
        rho, delta = 0.25 * r_m, 0.8 * r_m
        for _ in range(5):
            i = rng.integers(0, tre.n)
            nrm = rng.normal(size=3)
            nrm /= np.linalg.norm(nrm)
            seed = tre.samples[i] + rng.uniform(0.4, 0.99) * delta * nrm
            tr = flow(tre, seed, "dec", r_m, rho, delta=delta, steps=128,
                      alpha=alpha)
            assert tr.monotone(1e-6)
            assert tr.distances[-1] <= rho + 1e-3

    def test_rigid_motion_equivariance(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        from knotgauge.curve import Curve
        from util import random_rotation
        rot = random_rotation(12)
        shift = np.array([0.3, -1.0, 2.0])
        moved = Curve(tre.samples @ rot.T + shift)
        seed = tre.samples[40] + np.array([0.1, 0.05, 0.12])
        tr = flow(tre, seed, "inc", r_m, r_m / 8, steps=64, alpha=alpha)
        tr2 = flow(moved, seed @ rot.T + shift, "inc", r_m, r_m / 8,
                   steps=64, alpha=alpha)
        assert np.allclose(tr.distances, tr2.distances, atol=1e-9)

    def test_min_steps(self, trefoil_setup):
        tre, r_m, alpha = trefoil_setup
        with pytest.raises(FlowError):
            flow(tre, tre.samples[0] + [0, 0, 0.1], "inc", r_m, r_m / 8,
                 steps=10)

    def test_default_angle_requires_admissible_scale(self, trefoil_setup):
        tre, r_m, _ = trefoil_setup
        seed = tre.samples[12] + np.array([0.0, 0.0, 0.2 * r_m])
        tr = flow(tre, seed, "inc", r_m, r_m / 8, steps=64)  # alpha derived
        assert tr.monotone(1e-6)
        with pytest.raises(FlowError, match="not admissible"):
            flow(tre, seed, "inc", 10.0, 1.0, steps=64)

    def test_round_trip_drift_diagnostic(self, trefoil_setup):
        # outward then inward flow lands near the starting band; the drift
        # stays well under 5% of the working scale
        tre, r_m, alpha = trefoil_setup
        d0 = 0.1 * r_m
        seed = tre.samples[25] + d0 * np.array([0.0, 0.0, 1.0])
        out = flow(tre, seed, "inc", r_m, rho=r_m / 8, steps=128, alpha=alpha)
        back = flow(tre, out.states[-1], "dec", r_m, rho=d0,
                    delta=0.5 * r_m, steps=128, alpha=alpha)
        assert abs(back.distances[-1] - d0) < 0.05 * r_m
