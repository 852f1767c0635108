"""Seeded input generators for the benchmark workloads.

The constructions are copied here rather than imported from ``knotgauge`` or
``tests/util.py``: the program under test must not be able to change the
inputs it is measured on.  Curves are (N, 3) float arrays; ``write_curve``
stores them in the JSON format the CLI reads.
"""

import json
import math

import numpy as np

#: dimensional distortion threshold g(3) = 2*pi/(3*sqrt(3))
G3 = 2.0 * math.pi / (3.0 * math.sqrt(3.0))


def write_curve(path, q):
    with open(path, "w") as fh:
        json.dump({"closed": True, "samples": np.asarray(q).tolist()}, fh)


def _edges(q):
    return np.roll(q, -1, axis=0) - q


def _cum_lengths(q):
    return np.concatenate([[0.0], np.cumsum(np.linalg.norm(_edges(q), axis=1))])


def _points_at(q, cum, s):
    n = q.shape[0]
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, n - 1)
    a = q[idx]
    b = q[(idx + 1) % n]
    frac = (s - cum[idx]) / (cum[idx + 1] - cum[idx])
    return a + frac[:, None] * (b - a)


def resample_arclength(q, n_out, tol=1e-12, max_iter=200):
    """Equal-chord resampling of a closed polyline (fixed-point iteration)."""
    cum = _cum_lengths(q)
    total = cum[-1]
    s = np.arange(n_out) * (total / n_out)
    pts = _points_at(q, cum, s)
    for _ in range(max_iter):
        chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        if (chords.max() - chords.min()) / chords.mean() < tol:
            break
        csum = np.concatenate([[0.0], np.cumsum(chords)])
        targets = np.arange(n_out) * (csum[-1] / n_out)
        s = np.interp(targets, csum, np.concatenate([s, [total]]))
        s[0] = 0.0
        pts = _points_at(q, cum, s)
    return pts


def torus_knot(a, b, n, major_radius=2.0, tube_radius=0.5):
    """(a, b) torus knot sampled at n equal-chord vertices."""
    t = np.arange(n) / n
    w = major_radius + tube_radius * np.cos(2 * np.pi * b * t)
    q = np.stack([w * np.cos(2 * np.pi * a * t),
                  w * np.sin(2 * np.pi * a * t),
                  tube_radius * np.sin(2 * np.pi * b * t)], axis=1)
    return resample_arclength(q, n)


def rigid_motion(q, rng, translation_scale=2.0):
    """Random proper rotation (QR of a Gaussian matrix) plus a translation."""
    rot, r = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.sign(np.diag(r))
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    return q @ rot.T + rng.normal(scale=translation_scale, size=3)


def bump(q, rng, amplitude=1e-4, modes=3):
    """Add a smooth closed perturbation of sup-norm about ``amplitude``."""
    t = 2 * np.pi * np.arange(q.shape[0]) / q.shape[0]
    out = np.zeros_like(q)
    for k in range(1, modes + 1):
        phase = rng.uniform(0.0, 2 * np.pi, size=3)
        out += rng.normal(size=3) * np.sin(k * t[:, None] + phase)
    return q + amplitude * out / np.abs(out).max()


def racetrack(n, rng, straight_frac=0.42, cap_noise=0.05):
    """Unit-length track: two exactly straight sides joined by noisy caps.

    Returns (samples, center) where the center parameter sits in the middle
    of the first straight side, the substitution site of criterion 6.
    """
    half = n // 2
    m = int(straight_frac * half)
    cap = half - m
    s = np.linspace(0.0, 1.0, cap, endpoint=False)
    angles = np.zeros(half)
    angles[m:] = np.pi * (3.0 * s**2 - 2.0 * s**3)
    noise = np.zeros(cap)
    for k in range(2, 6):
        noise += rng.normal() * np.sin(np.pi * k * s) * np.sin(np.pi * s)
    angles[m:] += cap_noise * noise
    full = np.concatenate([angles, angles + np.pi])
    u = np.stack([np.cos(full), np.sin(full), np.zeros(n)], axis=1)
    q = np.zeros((n, 3))
    q[1:] = np.cumsum(u[:-1], axis=0) / n
    return q, (m // 2) / n


def polyline_distance(q, p):
    """Distance from the point p to the closed polyline through q."""
    v = _edges(q)
    w = p - q
    t = np.clip(np.einsum("ij,ij->i", w, v) / np.einsum("ij,ij->i", v, v),
                0.0, 1.0)
    diff = w - t[:, None] * v
    return float(np.sqrt(np.einsum("ij,ij->i", diff, diff).min()))


def admissible_scale(q, threshold, num=40):
    """Largest rung of the log ladder [2 min edge, diameter] whose local
    distortion (max arc/chord over vertex pairs with chord <= 2r) stays
    below ``threshold``; the definition the flow workload's --rM rests on."""
    n = q.shape[0]
    cum = _cum_lengths(q)
    s, total = cum[:-1], cum[-1]
    iu = np.triu_indices(n, k=1)
    chord = np.linalg.norm(q[iu[0]] - q[iu[1]], axis=1)
    gap = np.abs(s[iu[0]] - s[iu[1]])
    ratio = np.minimum(gap, total - gap) / chord
    lo = 2.0 * np.linalg.norm(_edges(q), axis=1).min()
    hi = chord.max()
    if lo >= hi:
        lo = hi / 2.0
    for r in np.geomspace(lo, hi, num)[::-1]:
        sel = chord <= 2.0 * r
        if max(float(ratio[sel].max()) if sel.any() else 1.0, 1.0) < threshold:
            return float(r)
    raise ValueError("no admissible scale on the ladder")


def band_point(q, rng, lo, hi):
    """Random point whose distance to the polyline lies in [lo, hi]."""
    while True:
        nrm = rng.normal(size=3)
        p = q[rng.integers(0, q.shape[0])] + rng.uniform(lo, hi) * nrm / np.linalg.norm(nrm)
        if lo <= polyline_distance(q, p) <= hi:
            return p
