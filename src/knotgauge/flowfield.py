"""Direction sets, enclosing spherical caps, and distance-driven flows.

For a point x off the curve, the directions from nearby curve samples to x
fit inside a spherical cap of geodesic radius below pi/2 whenever the curve's
local distortion is under the dimensional threshold.  Scaling the cap center
yields a field whose flow provably increases (or decreases) the distance to
the curve; the flows are integrated with classical fourth-order steps and the
distance signal is recorded along each trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import point_to_polyline_distance
from .distortion import (distortion_angle, distortion_threshold,
                         local_distortion, threshold_angle)


class FlowError(RuntimeError):
    pass


# -- minimal enclosing ball (Welzl) ---------------------------------------------


def _ball2(p, q):
    cx = (p[0] + q[0]) / 2.0
    cy = (p[1] + q[1]) / 2.0
    cz = (p[2] + q[2]) / 2.0
    r2 = ((p[0] - cx) ** 2 + (p[1] - cy) ** 2 + (p[2] - cz) ** 2)
    return (cx, cy, cz), r2


def _ball3(p, q, s):
    """Circumcircle of a triangle in R^3 (degenerate cases fall back)."""
    ax, ay, az = q[0] - p[0], q[1] - p[1], q[2] - p[2]
    bx, by, bz = s[0] - p[0], s[1] - p[1], s[2] - p[2]
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    nn = nx * nx + ny * ny + nz * nz
    if nn < 1e-30:
        # collinear: widest of the three two-point balls
        return max((_ball2(p, q), _ball2(p, s), _ball2(q, s)),
                   key=lambda b: b[1])
    a2 = ax * ax + ay * ay + az * az
    b2 = bx * bx + by * by + bz * bz
    wx, wy, wz = a2 * bx - b2 * ax, a2 * by - b2 * ay, a2 * bz - b2 * az
    ox = (wy * nz - wz * ny) / (2.0 * nn)
    oy = (wz * nx - wx * nz) / (2.0 * nn)
    oz = (wx * ny - wy * nx) / (2.0 * nn)
    return (p[0] + ox, p[1] + oy, p[2] + oz), ox * ox + oy * oy + oz * oz


def _ball4(p, q, s, w):
    """Circumsphere of four points; falls back to faces when degenerate."""
    rows = []
    rhs = []
    for v in (q, s, w):
        rows.append((v[0] - p[0], v[1] - p[1], v[2] - p[2]))
        rhs.append(((v[0] ** 2 - p[0] ** 2) + (v[1] ** 2 - p[1] ** 2)
                    + (v[2] ** 2 - p[2] ** 2)) / 2.0)
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = rows
    det = (a11 * (a22 * a33 - a23 * a32) - a12 * (a21 * a33 - a23 * a31)
           + a13 * (a21 * a32 - a22 * a31))
    if abs(det) < 1e-30:
        return max((_ball3(p, q, s), _ball3(p, q, w), _ball3(p, s, w),
                    _ball3(q, s, w)), key=lambda b: b[1])
    b1, b2, b3 = rhs
    cx = (b1 * (a22 * a33 - a23 * a32) - a12 * (b2 * a33 - a23 * b3)
          + a13 * (b2 * a32 - a22 * b3)) / det
    cy = (a11 * (b2 * a33 - a23 * b3) - b1 * (a21 * a33 - a23 * a31)
          + a13 * (a21 * b3 - b2 * a31)) / det
    cz = (a11 * (a22 * b3 - b2 * a32) - a12 * (a21 * b3 - b2 * a31)
          + b1 * (a21 * a32 - a22 * a31)) / det
    r2 = (p[0] - cx) ** 2 + (p[1] - cy) ** 2 + (p[2] - cz) ** 2
    return (cx, cy, cz), r2


def _inside(pt, center, r2):
    # relative and absolute tolerance 1e-12 on the squared radius
    dx = pt[0] - center[0]
    dy = pt[1] - center[1]
    dz = pt[2] - center[2]
    return dx * dx + dy * dy + dz * dz <= r2 * (1.0 + 1e-12) + 1e-12


def enclosing_ball(points):
    """Smallest enclosing ball of points in R^3.

    Incremental Welzl with explicit support-set circumspheres; scalar
    arithmetic since the point sets here are tiny.
    """
    pts = np.asarray(points, dtype=float).tolist()
    center, r2 = pts[0], 0.0
    for i in range(1, len(pts)):
        p = pts[i]
        if _inside(p, center, r2):
            continue
        center, r2 = p, 0.0
        for j in range(i):
            q = pts[j]
            if _inside(q, center, r2):
                continue
            center, r2 = _ball2(p, q)
            for k in range(j):
                s = pts[k]
                if _inside(s, center, r2):
                    continue
                center, r2 = _ball3(p, q, s)
                for l in range(k):
                    w = pts[l]
                    if _inside(w, center, r2):
                        continue
                    center, r2 = _ball4(p, q, s, w)
    return np.array(center), math.sqrt(max(r2, 0.0))


# -- direction sets --------------------------------------------------------------


@dataclass
class DirectionSet:
    """Directions from nearby curve samples toward a base point, with the
    minimal spherical cap that encloses them."""
    base: np.ndarray
    epsilon: float
    d_x: float
    directions: np.ndarray
    cap_center: np.ndarray
    cap_radius: float

    @property
    def cap_diameter(self):
        return 2.0 * self.cap_radius


def direction_set(m, x, epsilon, _d_x=None):
    """Directions (x - z)/|x - z| for samples z within (1+eps) d(x, m).

    d(x, m) is the point-to-polyline distance; the nearest sample always
    qualifies (it is included even when the band holds no sample, which can
    happen for coarse grids).  The enclosing cap comes from the minimal
    enclosing ball of the direction points projected to the sphere.
    """
    x = np.asarray(x, dtype=float)
    d_x = point_to_polyline_distance(x, m) if _d_x is None else _d_x
    if d_x <= 0.0:
        raise FlowError("base point lies on the curve")
    q = m.samples
    dist = np.linalg.norm(q - x, axis=1)
    sel = dist <= (1.0 + epsilon) * d_x
    if not np.any(sel):
        sel = np.zeros(m.n, dtype=bool)
        sel[int(np.argmin(dist))] = True
    dirs = (x - q[sel]) / dist[sel, None]
    cap_center, cap_radius = _cap_of(dirs)
    return DirectionSet(base=x, epsilon=epsilon, d_x=d_x, directions=dirs,
                        cap_center=cap_center, cap_radius=cap_radius)


def _cap_of(dirs):
    if len(dirs) == 1:
        return dirs[0].copy(), 0.0
    center, _ = enclosing_ball(dirs)
    norm = np.linalg.norm(center)
    if norm < 1e-12:
        return dirs[0].copy(), math.pi
    cap_center = center / norm
    cosang = np.clip(dirs @ cap_center, -1.0, 1.0)
    return cap_center, float(np.arccos(cosang).max())


def direction_set_auto(m, x, alpha, _d_x=None):
    """Shrink epsilon from 1/4, halving it at most 40 times, until the cap
    diameter drops below alpha."""
    eps = 0.25
    ds = direction_set(m, x, eps, _d_x=_d_x)
    for _ in range(40):
        if ds.cap_diameter < alpha:
            return ds
        eps *= 0.5
        ds = direction_set(m, x, eps, _d_x=ds.d_x)
    return ds


def geodesic_cap_radius(alpha):
    """Radius of the spherical cap guaranteed to hold the direction set in
    R^3, where the Jung-type factor sqrt((2n - 2)/n) is sqrt(4/3)."""
    s = math.sqrt(4.0 / 3.0) * math.sin(alpha / 2.0)
    if s >= 1.0:
        return math.pi / 2.0
    return math.asin(s)


# -- cutoffs and the field --------------------------------------------------------


def smoothstep(x):
    """Quintic smoothstep: 0 for x <= 0, 1 for x >= 1, C^2 in between."""
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x**2)


def _phi_increasing(d, r_m, rho):
    """1 on distances below r_m/2 - rho, 0 beyond r_m/2."""
    return 1.0 - smoothstep((d - (0.5 * r_m - rho)) / rho)


def _psi_decreasing(d, r_m, rho, delta):
    """0 below rho/2 and beyond r_m, 1 on [rho, delta]."""
    up = smoothstep((d - 0.5 * rho) / (0.5 * rho))
    down = 1.0 - smoothstep((d - delta) / (r_m - delta))
    return up * down


def vector_field(m, y, alpha, r_m, rho, direction="inc", delta=None):
    """Field whose flow moves distance to the curve up or down.

    Increasing: (r_m/2) phi(d) * 2 e_y / cos R(alpha); decreasing:
    -r_m psi(d) * 2 e_y / cos R(alpha).  Outside the cutoff support the zero
    vector is returned without evaluating the direction set.
    """
    y = np.asarray(y, dtype=float)
    d = point_to_polyline_distance(y, m)
    if d <= 0.0:
        raise FlowError("field queried on the curve")
    if direction == "inc":
        if not 0.0 < rho < 0.5 * r_m:
            raise FlowError("need 0 < rho < r_m/2 for the increasing flow")
        amp = 0.5 * r_m * _phi_increasing(d, r_m, rho)
    elif direction == "dec":
        if delta is None or not 0.0 < rho < delta < r_m:
            raise FlowError("need 0 < rho < delta < r_m for the decreasing flow")
        amp = -r_m * _psi_decreasing(d, r_m, rho, delta)
    else:
        raise ValueError("direction must be 'inc' or 'dec'")
    if amp == 0.0:
        return np.zeros(3)
    ds = direction_set_auto(m, y, alpha, _d_x=d)
    if ds.cap_radius >= math.pi / 2.0:
        raise FlowError(
            f"distortion hypothesis violated at {y}: cap radius "
            f"{ds.cap_radius:.3f} >= pi/2")
    cap_r = geodesic_cap_radius(alpha)
    if cap_r >= math.pi / 2.0:
        raise FlowError("alpha too large: guaranteed cap reaches pi/2")
    return amp * 2.0 * ds.cap_center / math.cos(cap_r)


# -- flows -------------------------------------------------------------------------


@dataclass
class FlowTrace:
    """Time-discretized trajectory with the distance-to-curve signal."""
    seed: np.ndarray
    direction: str
    times: np.ndarray
    states: np.ndarray
    distances: np.ndarray
    r_m: float
    rho: float
    delta: float | None
    alpha: float

    def monotone(self, tol=1e-6):
        d = np.diff(self.distances)
        if self.direction == "inc":
            return bool(np.all(d >= -tol))
        return bool(np.all(d <= tol))


def midpoint_angle(m, r_m):
    """Default field angle: midpoint of the curve's distortion angle at the
    scale r_m and the dimensional threshold angle."""
    delta = local_distortion(m, r_m)[0]
    if delta >= distortion_threshold(3):
        raise FlowError(
            f"scale {r_m} is not admissible: local distortion {delta:.4f}")
    return 0.5 * (distortion_angle(delta).alpha + threshold_angle(3))


def flow(m, seed, direction, r_m, rho, delta=None, steps=256, alpha=None):
    """Integrate the distance flow from ``seed`` over unit time.

    Classical fourth-order Runge-Kutta with ``steps`` fixed steps; the trace
    records the polyline distance after every step and aborts if the
    trajectory collides with the curve.  A non-finite seed is refused.
    """
    if steps < 64:
        raise FlowError("need at least 64 steps")
    y = np.asarray(seed, dtype=float).copy()
    if not np.all(np.isfinite(y)):
        raise FlowError(f"seed {y} is not finite")
    if alpha is None:
        alpha = midpoint_angle(m, r_m)
    field = lambda y: vector_field(m, y, alpha, r_m, rho, direction, delta)
    # below rho/2 the decreasing field vanishes, so any distance under
    # a quarter of rho means the trajectory genuinely hit the curve
    collision_tol = min(0.5 * m.min_edge(), 0.25 * rho)
    dt = 1.0 / steps
    times = np.linspace(0.0, 1.0, steps + 1)
    states = np.empty((steps + 1, 3))
    dists = np.empty(steps + 1)
    states[0] = y
    dists[0] = point_to_polyline_distance(y, m)
    if dists[0] <= 0.0:
        raise FlowError("seed lies on the curve")
    for k in range(steps):
        k1 = field(y)
        k2 = field(y + 0.5 * dt * k1)
        k3 = field(y + 0.5 * dt * k2)
        k4 = field(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = y
        dists[k + 1] = point_to_polyline_distance(y, m)
        if dists[k + 1] < collision_tol:
            raise FlowError(f"flow collided with the curve at t={times[k+1]:.3f}")
    return FlowTrace(seed=np.asarray(seed, dtype=float), direction=direction,
                     times=times, states=states, distances=dists, r_m=r_m,
                     rho=rho, delta=delta, alpha=alpha)
