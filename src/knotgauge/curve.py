"""Sampled closed space curves with intrinsic and extrinsic metrics.

A curve is a closed polyline in R^3 given by N >= 8 ordered vertices; sample
i carries the parameter t_i = i/N on R/Z.  All analysis modules operate on
these polygons.
"""

from __future__ import annotations

import csv
import json
import os
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

MIN_SAMPLES = 8

#: slack on the outer radius of a closed parameter window; it absorbs the
#: rounding of i/N - x, so a sample at exactly distance r stays inside
WINDOW_SLACK = 1e-15

#: relative edge-length spread at which resampling stops, and its
#: iteration cap
RESAMPLE_TOL = 1e-12
RESAMPLE_MAX_ITER = 200

#: entries per row block when an N x N pair matrix is built or scanned, so
#: that the (rows, N, 3) temporaries stay under 0.5 MB whatever N is and
#: stay in cache
PAIR_BLOCK = 1 << 14

#: points whose candidate edges a batched polyline distance gathers together
NEAR_CHUNK = 256

#: relative slack on the radius of each point's ball of candidate vertices;
#: it absorbs the rounding of that radius and of the tree's distances
NEAR_SLACK = 1e-12

#: non-adjacent samples closer than this fraction of the length coincide
COINCIDENCE_TOL = 1e-14


class CurveError(ValueError):
    """Invalid curve data (too few samples, repeated points, bad file)."""


class EmbeddingError(CurveError):
    """Non-adjacent samples coincide: no ratio or energy over them exists."""


def wrap01(s):
    """Reduce a parameter (scalar or array) to [0, 1)."""
    return s - np.floor(s)


def param_distance(s, t):
    """Periodic distance |s - t| on R/Z, always in [0, 1/2]."""
    d = abs(wrap01(s) - wrap01(t))
    return min(d, 1.0 - d)


def row_blocks(n):
    """Slices of consecutive rows of an N x N pair matrix, about
    ``PAIR_BLOCK`` entries each."""
    rows = max(1, PAIR_BLOCK // n)
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def pair_ratio_range(num_rows, den_rows, n):
    """Extrema of num/den over the pairs i != j (i < j for symmetric
    matrices) of two N x N matrices given by rows, ``num_rows(b)`` for each
    block ``b`` of :func:`row_blocks`; the diagonal's 0/0 is NaN, skipped."""
    lo, hi = np.inf, -np.inf
    for b in row_blocks(n):
        with np.errstate(invalid="ignore"):
            ratio = num_rows(b) / den_rows(b)
        lo = min(lo, float(np.fmin.reduce(ratio, axis=None)))
        hi = max(hi, float(np.fmax.reduce(ratio, axis=None)))
    return lo, hi


def param_window(n, x, r, inner=None):
    """Membership of the samples t_i = i/N in the closed window around x.

    Sample i belongs when its periodic distance to x is at most
    ``r + WINDOW_SLACK`` and, with ``inner`` given, above ``inner``.
    """
    d = np.abs(np.arange(n) / n - wrap01(x))
    d = np.minimum(d, 1.0 - d)
    mask = d <= r + WINDOW_SLACK
    if inner is not None:
        mask &= d > inner
    return mask


def arc_window(n, s, t):
    """:func:`param_window` of the shorter closed parameter arc from s to t."""
    s, t = wrap01(s), wrap01(t)
    mid = (s + t) / 2.0 if abs(s - t) <= 0.5 else wrap01((s + t + 1.0) / 2.0)
    return param_window(n, mid, param_distance(s, t) / 2.0)


class Curve:
    """Closed polyline in R^3 sampled at N uniform parameters on R/Z.

    Vertices, edge vectors and squared edge lengths are computed and
    validated once, at construction.  Every other derived quantity (edge
    lengths, cumulative arclength, tangents, longest edge, the chord matrix
    with its embeddedness verdict and diameter, the intrinsic matrix, the
    pair table, one tangent density per band, the KD-tree over the
    vertices) is built lazily through :meth:`cached`.  Every array a curve
    keeps is read-only.
    """

    def __init__(self, samples):
        q = np.array(samples, dtype=float)
        if q.ndim != 2 or q.shape[1] != 3:
            raise CurveError("samples must be an (N, 3) array")
        if q.shape[0] < MIN_SAMPLES:
            raise CurveError(f"N < {MIN_SAMPLES} (got {q.shape[0]})")
        if not np.all(np.isfinite(q)):
            raise CurveError("non-finite coordinates")
        edges = np.roll(q, -1, axis=0) - q
        sq = np.einsum("ij,ij->i", edges, edges)
        if np.any(sq == 0.0):
            raise CurveError("consecutive samples coincide")
        for a in (q, edges, sq):
            a.setflags(write=False)
        self._q, self._edges, self._edge_sq = q, edges, sq
        self._cache = {}

    def cached(self, key, build):
        """The value ``build()`` returns (an array, a number, a flag, a
        tuple of them, or the ``cKDTree`` over the vertices, which shares
        the read-only samples), built on the first request for ``key`` only
        and kept with the curve, its arrays read-only."""
        if key not in self._cache:
            value = build()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    # -- basic accessors ---------------------------------------------------

    @property
    def samples(self):
        return self._q

    @property
    def n(self):
        return self._q.shape[0]

    def params(self):
        """Sample parameters t_i = i/N."""
        return np.arange(self.n) / self.n

    def edge_vectors(self):
        """Edge vectors q_{i+1} - q_i."""
        return self._edges

    def edge_sq_lengths(self):
        """Squared edge lengths |q_{i+1} - q_i|^2."""
        return self._edge_sq

    def edge_lengths(self):
        return self.cached("edge_lengths", lambda: np.sqrt(self._edge_sq))

    def cum_lengths(self):
        """Arclength positions S_i of the vertices, S_0 = 0."""
        return self.cached("cum_lengths", lambda: np.concatenate(
            [[0.0], np.cumsum(self.edge_lengths())]))

    def total_length(self):
        return float(self.cum_lengths()[-1])

    def diameter(self):
        """Largest pairwise vertex distance, found by the chord build."""
        return self._chords()[2]

    def min_edge(self):
        return float(np.min(self.edge_lengths()))

    def max_edge(self):
        return self.cached("max_edge",
                           lambda: float(np.max(self.edge_lengths())))

    # -- metrics -----------------------------------------------------------

    def intrinsic_distance(self, i, j):
        """Length of the shorter polygonal arc between samples i and j."""
        s = self.cum_lengths()
        total = s[-1]
        d = abs(s[i % self.n] - s[j % self.n])
        return float(min(d, total - d))

    def check_embedded(self):
        """Raise :class:`EmbeddingError` when a non-adjacent chord is at most
        ``COINCIDENCE_TOL`` times the length, as found by the chord build."""
        if not self._chords()[1]:
            raise EmbeddingError("not embedded: non-adjacent samples coincide")

    def intrinsic_rows(self, rows, cols=None):
        """Rows ``rows`` (a slice or index array) of :meth:`intrinsic_matrix`,
        or with ``cols`` (the same) its block ``np.ix_(rows, cols)``,
        computed alone as a fresh array, so that a caller scanning the pairs
        once needs no N x N array.
        """
        s = self.cum_lengths()[:-1]
        d = np.subtract.outer(s[rows], s if cols is None else s[cols])
        np.abs(d, out=d)
        return np.minimum(d, self.total_length() - d, out=d)

    def intrinsic_matrix(self):
        """N x N matrix of shorter-arc lengths between all sample pairs."""
        def build():
            m = np.empty((self.n, self.n))
            for b in row_blocks(self.n):
                m[b] = self.intrinsic_rows(b)
            return m
        return self.cached("intrinsic_matrix", build)

    def chord_rows(self, rows, cols=None):
        """Rows ``rows`` (a slice or index array) of :meth:`chord_matrix`,
        or with ``cols`` its block ``np.ix_(rows, cols)``, read-only: how
        every pair scan reads chords.  Raises :class:`EmbeddingError` on a
        curve that is not embedded."""
        chord, embedded, _ = self._chords()
        if not embedded:
            raise EmbeddingError("not embedded: non-adjacent samples coincide")
        out = chord[rows] if cols is None else chord[np.ix_(rows, cols)]
        out.setflags(write=False)
        return out

    def chord_matrix(self):
        """N x N matrix of euclidean vertex distances (see :meth:`_chords`)."""
        def build():
            n = self.n
            x, y, z = self._q.T
            tol = COINCIDENCE_TOL * self.total_length()
            m = np.empty((n, n))
            blocks = row_blocks(n)
            diff = np.empty((blocks[0].stop, n))
            embedded, diameter = True, -np.inf
            for b in blocks:
                mb, db = m[b], diff[:b.stop - b.start]
                # summed as (dx^2 + dz^2) + dy^2, the order of an einsum
                # over the (rows, N, 3) differences, so every entry and the
                # reports built on them stay the same bit for bit
                np.square(np.subtract.outer(x[b], x, out=db), out=mb)
                mb += np.square(np.subtract.outer(z[b], z, out=db), out=db)
                mb += np.square(np.subtract.outer(y[b], y, out=db), out=db)
                np.sqrt(mb, out=mb)
                diameter = max(diameter, float(mb.max()))
                close = mb <= tol
                # only more close pairs than the diagonal need a look
                if np.count_nonzero(close) > b.stop - b.start:
                    i, j = np.nonzero(close)
                    sep = np.abs(i + b.start - j)
                    embedded &= not np.any(np.minimum(sep, n - sep) > 1)
            return m, embedded, diameter
        return self.cached("chords", build)[0]

    def _chords(self):
        """The cache entry ``(matrix, embedded, diameter)``.  One row-block
        pass builds it, taking each block's largest chord and coincident
        pairs while the block is hot; it runs inside :meth:`chord_matrix`,
        so a profile times the build there."""
        self.chord_matrix()
        return self._cache["chords"]

    def tangents(self):
        """Unit edge directions u_i = (q_{i+1} - q_i)/|q_{i+1} - q_i|."""
        return self.cached("tangents",
                           lambda: self._edges / self.edge_lengths()[:, None])

    def index_of_param(self, x):
        """Nearest sample index to the parameter x in [0, 1)."""
        return int(round(wrap01(x) * self.n)) % self.n


# -- point / polyline distances ---------------------------------------------

def point_to_polyline_distance(points, c):
    """Distance from a point, shape (3,), or from each of P points, shape
    (P, 3), to the closed polyline of ``c``.

    Projects each point onto edges (clamped) and takes the minimum; exact
    for polygons.  Returns a float for one point, else a (P,) array.  A
    query of at most ``PAIR_BLOCK`` point-edge pairs projects onto every
    edge.  A larger one projects each point x only onto the edges at the
    vertices within dv + h_max/2 of x (dv: the distance to its nearest
    vertex, h_max: the longest edge), read from the curve's cached vertex
    KD-tree: the nearest point y of the polygon lies on an edge whose
    nearer end is within |x - y| + h_max/2 <= dv + h_max/2 of x.  The
    per-pair arithmetic is the same on both paths, so both give the same
    value bit for bit.  The local path projects its candidate pairs in
    blocks of ``PAIR_BLOCK`` through one set of work arrays, so its
    (pairs, 3) temporaries stay under 0.5 MB each whatever N is.
    """
    p = np.asarray(points, dtype=float)
    q = p.reshape(-1, 3)
    if len(q) * c.n <= PAIR_BLOCK:
        w = q[:, None, :] - c.samples
        d = _edge_sq_distances(w, c.edge_vectors(), c.edge_sq_lengths(),
                               np.empty(w.shape[:2]),
                               np.empty_like(w)).min(axis=1)
    else:
        d = _near_sq_distances(q, c)
    np.sqrt(d, d)
    return float(d[0]) if p.ndim == 1 else d.reshape(p.shape[:-1])


def _edge_sq_distances(w, v, vv, out, tv):
    """Squared distances from the points x to the edges a + [0, 1] v, given
    w = x - a, shape (..., 3), which is overwritten, and the edge vectors
    ``v`` and their squared lengths ``vv`` broadcast against it; written to
    ``out`` (shape ``w.shape[:-1]``), with ``tv`` a work array like w."""
    # foot of the perpendicular at a + t v, clamped to the edge
    np.einsum("...j,...j->...", w, v, out=out)
    np.divide(out, vv, out)
    np.clip(out, 0.0, 1.0, out)
    np.multiply(out[..., None], v, tv)
    np.subtract(w, tv, w)
    return np.einsum("...j,...j->...", w, w, out=out)


def _near_sq_distances(q, c):
    """Squared polyline distances of the points q, each over the edges at
    the vertices of its ball of radius dv + h_max/2 (see
    :func:`point_to_polyline_distance`); the balls of ``NEAR_CHUNK`` points
    are gathered together, and their point-edge pairs projected in blocks
    of ``PAIR_BLOCK``."""
    tree = c.cached("vertex_tree", lambda: cKDTree(c.samples))
    a, v, vv = c.samples, c.edge_vectors(), c.edge_sq_lengths()
    half = 0.5 * c.max_edge()
    w = np.empty((PAIR_BLOCK, 3))
    tv = np.empty_like(w)
    d = np.empty(len(q))
    for lo in range(0, len(q), NEAR_CHUNK):
        x = q[lo:lo + NEAR_CHUNK]
        dv, _ = tree.query(x)
        balls = tree.query_ball_point(x, (dv + half) * (1.0 + NEAR_SLACK))
        # each ball holds the nearest vertex, so no point's group is empty
        counts = np.fromiter(map(len, balls), np.intp, len(balls))
        verts = np.fromiter(chain.from_iterable(balls), np.intp,
                            int(counts.sum()))
        # both edges at each vertex, grouped by point
        edges = np.stack([verts, verts - 1], axis=1).ravel() % c.n
        owner = np.repeat(np.arange(len(x)), 2 * counts)
        sq = np.empty(len(edges))
        for s in range(0, len(edges), PAIR_BLOCK):
            e, k = edges[s:s + PAIR_BLOCK], owner[s:s + PAIR_BLOCK]
            ws, ts = w[:len(e)], tv[:len(e)]
            np.subtract(x[k], a[e], ws)
            _edge_sq_distances(ws, v[e], vv[e], sq[s:s + len(e)], ts)
        starts = np.concatenate([[0], np.cumsum(2 * counts)[:-1]])
        d[lo:lo + len(x)] = np.minimum.reduceat(sq, starts)
    return d


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between two sampled curves.

    Vertex-to-segment in both directions: each vertex of one curve is
    measured against the full polyline of the other, which avoids O(1/N)
    phase artifacts of plain vertex-to-vertex evaluation.
    """
    d_ab = float(point_to_polyline_distance(a.samples, b).max())
    d_ba = float(point_to_polyline_distance(b.samples, a).max())
    return max(d_ab, d_ba)


# -- resampling ---------------------------------------------------------------

def resample_arclength(c, n_out):
    """Resample to ``n_out`` vertices on the input polyline with equal edges.

    Starts from equal arc spacing along the input and iterates a
    chord-length reparametrization until all output edge lengths agree to
    relative ``RESAMPLE_TOL``; the fixed point makes the operation
    idempotent and the output exactly unit-speed in its own metric.  The
    output length equals the input length up to the O(1/N^2) corner
    cutting of smooth data (polygon-aligned vertices are preserved
    exactly).
    """
    if n_out < MIN_SAMPLES:
        raise CurveError(f"n_out < {MIN_SAMPLES}")
    cum = c.cum_lengths()
    total = cum[-1]
    s = np.arange(n_out) * (total / n_out)
    pts = _points_at(c, cum, s)
    for _ in range(RESAMPLE_MAX_ITER):
        chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        spread = (chords.max() - chords.min()) / chords.mean()
        if spread < RESAMPLE_TOL:
            break
        csum = np.concatenate([[0.0], np.cumsum(chords)])
        targets = np.arange(n_out) * (csum[-1] / n_out)
        # map equal-chord stations back to arc positions on the input
        s = np.interp(targets, csum, np.concatenate([s, [total]]))
        s[0] = 0.0
        pts = _points_at(c, cum, s)
    return Curve(pts)


def _points_at(c, cum, s):
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, c.n - 1)
    q = c.samples
    a = q[idx]
    b = q[(idx + 1) % c.n]
    seg = cum[idx + 1] - cum[idx]
    frac = (s - cum[idx]) / seg
    return a + frac[:, None] * (b - a)


# -- construction helpers ------------------------------------------------------

def circle(n, radius=1.0):
    """Regular n-gon inscribed in a round circle about the origin in the
    xy-plane."""
    t = 2.0 * np.pi * (np.arange(n) / n)
    q = np.stack([radius * np.cos(t), radius * np.sin(t), np.zeros(n)], axis=1)
    return Curve(q)


# -- I/O -----------------------------------------------------------------------

def save_curve(c, path):
    """Write a curve as JSON (.json) or CSV with header x,y,z (.csv)."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y", "z"])
            for row in c.samples:
                w.writerow([repr(float(v)) for v in row])
    else:
        with open(path, "w") as fh:
            # one dumps, which runs the C encoder that dump does not
            fh.write(json.dumps({"closed": True,
                                 "samples": c.samples.tolist()}))


def load_curve(path):
    """Read a curve saved by :func:`save_curve`; validates N and finiteness."""
    ext = os.path.splitext(path)[1].lower()
    try:
        if ext == ".csv":
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            if not rows or [h.strip().lower() for h in rows[0]] != ["x", "y", "z"]:
                raise CurveError(f"{path}: expected header x,y,z")
            samples = [[float(v) for v in row] for row in rows[1:] if row]
        else:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict) or "samples" not in data:
                raise CurveError(f"{path}: missing 'samples' field")
            samples = data["samples"]
        return Curve(np.asarray(samples, dtype=float))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        if isinstance(exc, CurveError):
            raise
        raise CurveError(f"{path}: malformed curve file ({exc})") from exc
