"""Shared curve constructions for the test suite."""

import numpy as np

from knotgauge.curve import (PAIR_BLOCK, Curve, param_window,
                             resample_arclength, row_blocks)
from knotgauge.substitution import GoodSets


def curve_from_angles(angles):
    """Planar unit-speed closed polygon from per-edge tangent angles.

    The angle array must satisfy the closure condition sum(cos) = sum(sin)
    ~ 0; edges have length 1/n so the total length is 1.
    """
    n = angles.shape[0]
    u = np.stack([np.cos(angles), np.sin(angles), np.zeros(n)], axis=1)
    q = np.zeros((n, 3))
    q[1:] = np.cumsum(u[:-1], axis=0) / n
    return Curve(q)


def track_curve(n=2048, straight_frac=0.42, seed=None, cap_noise=0.05):
    """Closed unit-length 'racetrack': two exactly straight sides plus caps.

    The first half of the edge angles is a straight run (angle exactly 0)
    followed by a smooth half-turn; the second half repeats it rotated by
    pi, which closes the polygon by symmetry.  ``cap_noise`` adds a seeded
    smooth perturbation to the cap angles only, so the straight sides stay
    exactly straight.  Returns (curve, window_center) where the window
    center parameter sits in the middle of the first straight side.
    """
    assert n % 2 == 0
    half = n // 2
    m = int(straight_frac * half)
    cap = half - m
    angles = np.zeros(half)
    s = np.linspace(0.0, 1.0, cap, endpoint=False)
    # smoothstep angle profile for the cap: C^1 at both junctions
    angles[m:] = np.pi * (3.0 * s**2 - 2.0 * s**3)
    if seed is not None and cap_noise > 0.0:
        rng = np.random.default_rng(seed)
        bump = np.zeros(cap)
        for k in range(2, 6):
            bump += rng.normal() * np.sin(np.pi * k * s) * np.sin(np.pi * s)
        angles[m:] += cap_noise * bump
    full = np.concatenate([angles, angles + np.pi])
    center = (m // 2) / n
    return curve_from_angles(full), center


def kinked_track(n=4096, chi=0.7, straight_frac=0.2):
    """Track with one anomalous edge angle per straight side (p=2 orbit).

    The kink carries O(1) tangent mass into the smallest seminorm windows
    while every other sample on the straight sides keeps the exact tangent,
    so the detection window flags it and the annuli around the kink sample
    stay at mass exactly zero.  Returns (curve, reference, kink_param): the
    reference is the same construction without the kinks.
    """
    half = n // 2
    m = int(straight_frac * half)
    cap = half - m
    base = np.zeros(half)
    s = np.linspace(0.0, 1.0, cap, endpoint=False)
    base[m:] = np.pi * (3.0 * s**2 - 2.0 * s**3)
    kink = m // 2
    angles = base.copy()
    angles[kink] = chi
    curve = curve_from_angles(np.concatenate([angles, angles + np.pi]))
    reference = curve_from_angles(np.concatenate([base, base + np.pi]))
    return curve, reference, kink / n


def unfiltered_good_sets(excess, theta):
    """Stand-in for ``substitution.good_sets`` that takes every sample of
    B_{r/8}(x +- r/2) as good, which forces a substitution past the gate."""
    n, x, r = excess.maximal.shape[0], excess.center, excess.radius
    idx = np.arange(n)
    return GoodSets(g_plus=idx[param_window(n, x + r / 2.0, r / 8.0)],
                    g_minus=idx[param_window(n, x - r / 2.0, r / 8.0)])


def torus_knot_raw(a, b, R0=2.0, r0=0.5, n=512):
    """Torus-knot samples resampled to arclength (test-local copy)."""
    t = np.arange(n) / n
    w = R0 + r0 * np.cos(2 * np.pi * b * t)
    q = np.stack([w * np.cos(2 * np.pi * a * t),
                  w * np.sin(2 * np.pi * a * t),
                  r0 * np.sin(2 * np.pi * b * t)], axis=1)
    return resample_arclength(Curve(q), n)


def random_rotation(seed):
    """Haar-ish random rotation matrix via QR."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rigid_moved(c, seed, translation_scale=2.0):
    rng = np.random.default_rng(seed + 1)
    rot = random_rotation(seed)
    shift = rng.normal(scale=translation_scale, size=3)
    return Curve(c.samples @ rot.T + shift)


def ellipse_curve(a=1.5, b=0.75, n=256):
    t = 2 * np.pi * np.arange(4 * n) / (4 * n)
    q = np.stack([a * np.cos(t), b * np.sin(t), np.zeros(4 * n)], axis=1)
    return resample_arclength(Curve(q), n)


def fourier_curve(seed, n=512, modes=5, amp=0.25):
    """Random smooth closed curve from a low-order trigonometric series."""
    rng = np.random.default_rng(seed)
    t = 2 * np.pi * np.arange(n) / n
    q = np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1)
    for k in range(2, modes + 2):
        coef = rng.normal(scale=amp / k**2, size=(2, 3))
        q += coef[0] * np.sin(k * t)[:, None] + coef[1] * np.cos(k * t)[:, None]
    return resample_arclength(Curve(q), n)


# -- reference pair table ------------------------------------------------------
# An independent reference for knotgauge.distortion._rung_maxima: every pair
# sorted by chord at once, from the dense matrices.


def reference_pair_table(c):
    """The pair table ``(chords, values, flat)`` of ``c``: in increasing
    chord, the pairs i < j that become the running maximum of
    intrinsic/chord, ties to the smallest flat index i*N + j, when the
    pairs are taken in chord order, the last of equal chords only.

    A pair outside the table is beaten by one of no larger chord, so no
    prefix of whole chord values answers differently without it.  An entry
    is the state after all pairs of its chord, which does not depend on
    their order, so the faster unstable sort serves.
    """
    n = c.n
    i, j = np.triu_indices(n, k=1)
    lengths = c.chord_matrix()[i, j]
    order = np.argsort(lengths)
    i, j, lengths = i[order], j[order], lengths[order]
    ratios = c.intrinsic_matrix()[i, j] / lengths
    flat = i * n + j
    best = np.maximum.accumulate(ratios)
    rises = np.empty(best.size, dtype=bool)
    rises[:1] = True
    rises[1:] = ratios[1:] > best[:-1]
    # smallest attaining flat index since the last rise: a running minimum
    # over keys that every later rise lowers below all earlier keys
    shift = np.cumsum(rises) * (n * n + 1)
    key = np.where(ratios == best, flat, n * n) - shift
    np.minimum.accumulate(key, out=key)
    key += shift
    keep = np.flatnonzero(key == flat)
    last = np.ones(keep.size, dtype=bool)
    last[:-1] = lengths[keep[1:]] != lengths[keep[:-1]]
    keep = keep[last]
    return lengths[keep], ratios[keep], flat[keep]


def reference_rung_maxima(table, limits):
    """What :func:`knotgauge.distortion._rung_maxima` returns, read off a
    :func:`reference_pair_table`: the last entry with chord <= each
    limit, or -inf and -1 before the first."""
    lengths, ratios, flat = table
    k = np.searchsorted(lengths, limits, side="right") - 1
    return (np.where(k >= 0, ratios[k], -np.inf),
            np.where(k >= 0, flat[k], -1))


# -- dense reference energy and gradient ----------------------------------------
# The N x N implementation the row-block kernels of knotgauge.mobius replaced,
# kept as the reference they are tested against.


def _dense_weights(c):
    e = c.edge_lengths()
    return 0.5 * (np.roll(e, 1) + e)


def _dense_pair_kernel(c):
    """Chord and arc matrices with unit diagonals, and the pair kernel
    F = 1/chord^2 - 1/arc^2 with zero diagonal; all three are fresh
    arrays, so the curve's cached matrices are never written."""
    chord = c.chord_matrix().copy()
    arc = c.intrinsic_matrix().copy()
    np.fill_diagonal(chord, 1.0)
    np.fill_diagonal(arc, 1.0)
    f = 1.0 / chord**2 - 1.0 / arc**2
    np.fill_diagonal(f, 0.0)
    return chord, arc, f


def dense_mobius_energy(c):
    """Discrete self-repulsion energy; nonnegative, zero only in the limit of
    vanishing curvature, scale and rigid-motion invariant.  Raises
    :class:`~knotgauge.curve.EmbeddingError` on coincident samples."""
    c.check_embedded()
    w = _dense_weights(c)
    _, _, f = _dense_pair_kernel(c)
    return float(w @ f @ w)


def dense_mobius_gradient(c):
    """Exact gradient of the discrete energy with respect to vertex positions.

    Accounts for the chord term, the shorter-arc lengths (through the edges
    each arc traverses), and the trapezoidal weights.
    """
    c.check_embedded()
    n = c.n
    q = c.samples
    w = _dense_weights(c)
    u = c.tangents()
    chord, arc, f = _dense_pair_kernel(c)

    # chord part: d/dq_k of sum w_i w_j / C_ij^2
    inv_c4 = 1.0 / chord**4
    np.fill_diagonal(inv_c4, 0.0)
    coef = w[:, None] * w[None, :] * inv_c4          # (i, j)
    diff = q[:, None, :] - q[None, :, :]
    grad = -4.0 * np.einsum("kj,kjd->kd", coef, diff)

    # intrinsic part: + 2 sum_{arc(i,j) contains e_m} w_i w_j / D^3 acting
    # on the endpoints of e_m.  Range-add the pair mass onto its shorter
    # arc's edges with a circular difference array.
    inv_d3 = 1.0 / arc**3
    np.fill_diagonal(inv_d3, 0.0)
    mass = 2.0 * (w[:, None] * w[None, :]) * inv_d3  # ordered pairs
    s = c.cum_lengths()[:-1]
    total = c.total_length()
    iu, ju = np.triu_indices(n, k=1)
    gap = s[ju] - s[iu]
    # at an exact length tie both arcs are shortest; the symmetric
    # subgradient splits the pair mass between them (ties are common on
    # regular grids and a one-sided choice would break rigid symmetries)
    tie = np.abs(gap - 0.5 * total) <= 1e-9 * total
    g = 2.0 * mass[iu, ju]                            # both orders
    g_fwd = np.where(tie, 0.5 * g, np.where(gap < 0.5 * total, g, 0.0))
    g_bwd = g - g_fwd
    diffarr = np.zeros(n + 1)
    # forward arcs: edges iu .. ju-1
    np.add.at(diffarr, iu, g_fwd)
    np.add.at(diffarr, ju, -g_fwd)
    # backward arcs: edges ju .. n-1 and 0 .. iu-1
    np.add.at(diffarr, ju, g_bwd)
    diffarr[0] += g_bwd.sum()
    np.add.at(diffarr, iu, -g_bwd)
    a_edge = np.cumsum(diffarr[:n])
    u_prev = np.roll(u, 1, axis=0)
    grad += np.roll(a_edge, 1)[:, None] * u_prev
    grad -= a_edge[:, None] * u

    # weight part: 2 sum_i P_i dw_i/dq_k with P_i = sum_j F_ij w_j
    p = f @ w
    grad += (-np.roll(p, -1)[:, None] * u
             + p[:, None] * (u_prev - u)
             + np.roll(p, 1)[:, None] * u_prev)
    return grad


# -- dense reference polyline distance --------------------------------------------
# The all-edges evaluation the local edge query of
# knotgauge.curve.point_to_polyline_distance replaced for large batches, kept
# as the reference it must equal bit for bit.


def dense_point_to_polyline_distance(points, c):
    """Distance from each point to the closed polyline of ``c``, projecting
    onto every edge (clamped) in blocks of about ``PAIR_BLOCK`` pairs."""
    p = np.asarray(points, dtype=float)
    q = p.reshape(-1, 3)
    a = c.samples
    v = c.edge_vectors()
    vv = c.edge_sq_lengths()
    rows = max(1, min(len(q), PAIR_BLOCK // c.n))
    w = np.empty((rows, c.n, 3))
    tv = np.empty_like(w)
    t = np.empty((rows, c.n))
    d = np.empty(len(q))
    for lo in range(0, len(q), rows):
        hi = min(lo + rows, len(q))
        if hi - lo < rows:
            w, tv, t = w[:hi - lo], tv[:hi - lo], t[:hi - lo]
        np.subtract(q[lo:hi, None, :], a, w)
        np.einsum("pij,ij->pi", w, v, out=t)
        np.divide(t, vv, t)
        np.clip(t, 0.0, 1.0, t)
        np.multiply(t[..., None], v, tv)
        np.subtract(w, tv, w)
        np.einsum("pij,pij->pi", w, w, out=t)
        t.min(axis=1, out=d[lo:hi])
    np.sqrt(d, d)
    return float(d[0]) if p.ndim == 1 else d.reshape(p.shape[:-1])


def dense_hausdorff_distance(a, b):
    """Vertex-to-polyline Hausdorff distance through the dense reference."""
    return max(float(dense_point_to_polyline_distance(a.samples, b).max()),
               float(dense_point_to_polyline_distance(b.samples, a).max()))


# -- reference seminorm density and window sums ---------------------------------
# The einsum build of the density and the column-cumsum summed-area table that
# the block kernel of knotgauge.sobolev replaced, kept as the references its
# answers must equal bit for bit.


def reference_density(c, band):
    """The N x N seminorm density of ``c`` off the cyclic band |i - j| <=
    ``band``, each row block summed by einsum and cut by an integer
    separation matrix."""
    u = c.tangents()
    n = c.n
    h = 1.0 / n
    t = np.arange(n) * h
    idx = np.arange(n)
    dens = np.empty((n, n))
    for b in row_blocks(n):
        dt = np.abs(t[b, None] - t[None, :])
        dt = np.minimum(dt, 1.0 - dt)
        diff = u[b, None, :] - u[None, :, :]
        du2 = np.einsum("ijk,ijk->ij", diff, diff)
        sep = np.abs(idx[b, None] - idx[None, :])
        sep = np.minimum(sep, n - sep)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens[b] = np.where(sep > band, du2 / (dt * dt) * h * h, 0.0)
    return dens


def reference_window_sums(density, ks, exclude=()):
    """Density mass of every center's window for each halfwidth in ``ks``,
    from the whole (N+1) x (N+1) summed-area table: running sums of the
    density's rows, one row add each, then a cumulative sum along each row.
    The rows and columns of ``exclude`` count as zero: an excluded row's add
    is skipped and an excluded column's running sums are all zero."""
    n = density.shape[0]
    exclude = np.asarray(exclude, dtype=np.intp)
    skip = set(exclude.tolist())
    table = np.zeros((n + 1, n + 1))
    for i in range(n):
        if i in skip:
            table[i + 1, 1:] = table[i, 1:]
        else:
            np.add(table[i, 1:], density[i], out=table[i + 1, 1:])
    table[:, exclude + 1] = 0.0
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])

    def block(a, b, c, d):
        return table[b, d] - table[a, d] - table[b, c] + table[a, c]

    centers = np.arange(n)
    sums = np.empty((len(ks), n))
    for row, k in zip(sums, ks):
        if 2 * k + 1 >= n:
            row[:] = table[n, n]
            continue
        lo, hi = centers - k, centers + k + 1
        # [a1, b1) inside [0, N), [a2, b2) the part wrapped around 0
        a1, b1 = np.maximum(lo, 0), np.minimum(hi, n)
        a2 = np.where(lo < 0, lo + n, 0)
        b2 = np.where(lo < 0, n, np.maximum(hi - n, 0))
        row[:] = (block(a1, b1, a1, b1) + block(a1, b1, a2, b2)
                  + block(a2, b2, a1, b1) + block(a2, b2, a2, b2))
    return sums
