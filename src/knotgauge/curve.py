"""Sampled closed space curves with intrinsic and extrinsic metrics.

A curve is a closed polyline in R^3 given by N >= 8 ordered vertices; sample
i carries the parameter t_i = i/N on R/Z.  All analysis modules operate on
these polygons.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from functools import cached_property
from itertools import chain
from typing import NamedTuple

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

#: most vertices a leaf of the index-interval tree holds
TREE_LEAF = 16

#: depth of the tree level where :func:`pair_search` starts, with every
#: node pair of that level: hardly a node pair above it is ever dropped
TREE_TOP = 4

#: relative slack of every prune bound of :func:`pair_search`: a bound is
#: loosened by this fraction of the magnitudes it is built from, far above
#: the few-ulp rounding of the bound and of the chords, arcs and turning
#: sums it bounds (N * 2^-53, about 2e-13 at N = 2048)
TREE_SLACK = 1e-9


class CurveError(ValueError):
    """Invalid curve data (too few samples, repeated points, bad file)."""


class EmbeddingError(CurveError):
    """Non-adjacent samples coincide: no ratio or energy over them exists."""


def wrap01(s):
    """Reduce a parameter (scalar or array) to [0, 1).

    A negative value too small for 1 + s to differ from 1 maps to 0, not 1.
    """
    w = s - np.floor(s)
    return w - (w >= 1.0)


def param_distance(s, t):
    """Periodic distance |s - t| on R/Z (scalars or arrays), in [0, 1/2]."""
    d = np.abs(wrap01(s) - wrap01(t))
    return np.minimum(d, 1.0 - d)


def row_blocks(n):
    """Slices of consecutive rows of an N x N pair matrix, about
    ``PAIR_BLOCK`` entries each."""
    rows = max(1, PAIR_BLOCK // n)
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


#: flat work arrays that pair scans borrow through :func:`work_arrays`,
#: kept between scans: a fresh 128 KB array is mapped from the system and
#: its pages faulted in anew on every call
_WORK = []


@contextmanager
def work_arrays(k, n):
    """``k`` flat work arrays of at least max(``PAIR_BLOCK``, N) floats,
    room for any block of :func:`row_blocks`, borrowed from a pool kept
    between calls and given back on exit.  A scan nested inside another
    borrows other arrays, so it never overwrites the blocks of the scan
    around it."""
    size = max(PAIR_BLOCK, n)
    taken = [_WORK.pop() if _WORK else np.empty(size) for _ in range(k)]
    taken = [a if a.size >= size else np.empty(size) for a in taken]
    try:
        yield taken
    finally:
        _WORK.extend(taken)


def block_view(work, rows, cols):
    """The first rows * cols entries of a flat work array as a contiguous
    (rows, cols) array."""
    return work[:rows * cols].reshape(rows, cols)


def outer_difference(a, b, out, work):
    """a_i - b_j for every i, j, written to ``out`` through ``work``, both
    of shape (len(a), len(b)): two broadcast copies and one subtraction of
    whole arrays, the same values as ``np.subtract.outer`` but without the
    two 64 KB iterator buffers it takes on each call, and in about 70% of
    its time for 2^14 entries.  Leading axes batch: a of shape (P, m) and
    b of shape (P, k) give P outer differences, of shape (P, m, k)."""
    np.copyto(work, b[..., None, :])
    np.copyto(out, a[..., None])
    return np.subtract(out, work, out=out)


def periodic_gaps(a, b, total, out, work):
    """min(|a_i - b_j|, total - |a_i - b_j|) for every i, j, written to
    ``out`` through ``work`` as in :func:`outer_difference`: the shorter
    arcs between arclength positions on a loop of length ``total``, or,
    with total 1, :func:`param_distance` of parameters in [0, 1)."""
    np.abs(outer_difference(a, b, out, work), out=out)
    return np.minimum(out, np.subtract(total, out, out=work), out=out)


def pair_sq_distances(rows, cols, out, work):
    """Squared distances |p_i - q_j|^2 between the points p of ``rows`` and
    q of ``cols``, each given as its three coordinate arrays (x, y, z),
    written to ``out`` through the two arrays ``work``, all of shape
    (len(p), len(q)), or batched as in :func:`outer_difference`.

    Summed as (dx^2 + dz^2) + dy^2, the order of an einsum over the
    (rows, cols, 3) differences, so every entry and the reports built on
    them stay the same bit for bit.
    """
    (xr, yr, zr), (xc, yc, zc) = rows, cols
    d, e = work
    np.square(outer_difference(xr, xc, d, e), out=out)
    out += np.square(outer_difference(zr, zc, d, e), out=d)
    out += np.square(outer_difference(yr, yc, d, e), out=d)
    return out


def param_window(n, x, r, inner=None):
    """Membership of the samples t_i = i/N in the closed window around x.

    Sample i belongs when its periodic distance to x is at most
    ``r + WINDOW_SLACK`` and, with ``inner`` given, above ``inner``.
    """
    d = param_distance(np.arange(n) / n, x)
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
    lengths, cumulative arclength, tangents, the embeddedness verdict with
    the diameter, the intrinsic matrix, the distortion profile, each
    certificate's rung, the bilipschitz constant, the seminorm's window
    sums at the ladder radii, the KD-tree and the index-interval tree over
    the vertices) is built lazily through :meth:`cached`.
    No chord and no seminorm density is kept: every scan computes its
    blocks (:meth:`chord_blocks`).  Every array a curve keeps is read-only.
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
        """Largest pairwise vertex distance: taken by the first full chord
        scan (see :meth:`chord_blocks`), or, when none has run, by a search
        of :meth:`interval_tree` (see :meth:`_chords`)."""
        return self._chords()[1]

    def min_edge(self):
        return float(np.min(self.edge_lengths()))

    def max_edge(self):
        return float(np.max(self.edge_lengths()))

    # -- metrics -----------------------------------------------------------

    def intrinsic_distance(self, i, j):
        """Length of the shorter polygonal arc between samples i and j."""
        s = self.cum_lengths()
        total = s[-1]
        d = abs(s[i % self.n] - s[j % self.n])
        return float(min(d, total - d))

    def check_embedded(self):
        """Raise :class:`EmbeddingError` when a non-adjacent chord is at most
        ``COINCIDENCE_TOL`` times the length, as found by the first full
        chord scan (see :meth:`chord_blocks`), or, when none has run, by a
        search of :meth:`interval_tree` (see :meth:`_chords`)."""
        if not self._chords()[0]:
            raise EmbeddingError("not embedded: non-adjacent samples coincide")

    def intrinsic_rows(self, rows, cols=None, out=None):
        """Rows ``rows`` (a slice or index array) of :meth:`intrinsic_matrix`,
        or with ``cols`` (the same) its block ``np.ix_(rows, cols)``,
        computed alone, so that a caller scanning the pairs once needs no
        N x N array; written to ``out`` when given, else to a fresh array.
        Built about ``PAIR_BLOCK`` entries at a time through one borrowed
        work array (:func:`outer_difference`).
        """
        s = self.cum_lengths()[:-1]
        r, c = s[rows], s if cols is None else s[cols]
        if out is None:
            out = np.empty((len(r), len(c)))
        total = self.total_length()
        step = max(1, PAIR_BLOCK // len(c))
        with work_arrays(1, len(c)) as (work,):
            for lo in range(0, len(r), step):
                d = out[lo:lo + step]
                periodic_gaps(r[lo:lo + step], c, total, d,
                              block_view(work, *d.shape))
        return out

    def intrinsic_matrix(self):
        """N x N matrix of shorter-arc lengths between all sample pairs; no
        analysis reads it, but the tests and ``bench/tracing.py`` do."""
        def build():
            m = np.empty((self.n, self.n))
            for b in row_blocks(self.n):
                self.intrinsic_rows(b, out=m[b])
            return m
        return self.cached("intrinsic_matrix", build)

    def chord_blocks(self, upper=True):
        """The chords of every row block ``b`` of :func:`row_blocks`, as
        pairs ``(b, chords)``: rows ``b`` against the columns ``b.start:``
        (``upper``), so that each pair i < j appears once, or against all
        columns.  Each block is computed when it is reached, into a
        borrowed work array, and handed out read-only; the next block
        overwrites it.  How every pair scan reads chords: no N x N array is
        built.

        The first full scan of a curve that has no verdict yet also takes
        its embeddedness verdict and diameter, each block's while it is
        hot.  A block holding a coincident non-adjacent pair raises
        :class:`EmbeddingError` before it is handed out, so no ratio ever
        sees that pair; so does every scan of a curve already found not
        embedded, by a scan or by :meth:`_chords`' tree search.
        """
        if "chords" in self._cache:
            self.check_embedded()
            yield from self._chord_blocks(upper)
            return
        diameter = -np.inf
        for b, chords in self._chord_blocks(upper):
            embedded, top = self._block_verdict(b, upper, chords)
            if not embedded:
                self.check_embedded()   # records the verdict, then raises
            diameter = max(diameter, top)
            yield b, chords
        self.cached("chords", lambda: (True, diameter))

    def pair_blocks(self):
        """``(b, chords, arcs)`` for each block of :meth:`chord_blocks`,
        each pair i < j once: its checked, read-only chords, and its
        :meth:`intrinsic_rows` in one borrowed work array, which the caller
        may overwrite, as the next block does.  How every intrinsic/chord
        ratio scan reads its pairs."""
        n = self.n
        with work_arrays(1, n) as (work,):
            for b, chords in self.chord_blocks():
                yield b, chords, self.intrinsic_rows(
                    b, slice(b.start, n), out=block_view(work, *chords.shape))

    def _chord_blocks(self, upper):
        """:meth:`chord_blocks` without the verdict."""
        n = self.n
        xyz = np.ascontiguousarray(self._q.T)
        with work_arrays(3, n) as (out, *work):
            for b in row_blocks(n):
                lo = b.start if upper else 0
                shape = (b.stop - b.start, n - lo)
                chords = block_view(out, *shape)
                pair_sq_distances(xyz[:, b], xyz[:, lo:], chords,
                                  [block_view(a, *shape) for a in work])
                np.sqrt(chords, out=chords)
                chords = chords.view()
                chords.setflags(write=False)
                yield b, chords

    def _block_verdict(self, b, upper, chords):
        """Whether a block of :meth:`_chord_blocks` holds no coincident
        non-adjacent pair, and its largest chord."""
        n = self.n
        close = chords <= COINCIDENCE_TOL * self.total_length()
        embedded = True
        # only more close pairs than the diagonal need a look
        if np.count_nonzero(close) > b.stop - b.start:
            i, j = np.nonzero(close)
            sep = np.abs(i + b.start - j - (b.start if upper else 0))
            embedded = not np.any(np.minimum(sep, n - sep) > 1)
        return embedded, float(chords.max())

    def _chords(self):
        """The cache entry ``(embedded, diameter)``: recorded by the first
        full :meth:`chord_blocks` scan, or, when none has run, by two
        :func:`pair_search` queries, the smallest non-adjacent chord up to
        ``COINCIDENCE_TOL`` times the length and the largest chord.  Both
        compare the scan's own chords, so they give its verdict and its
        float."""
        def build():
            n = self.n
            limit = COINCIDENCE_TOL * self.total_length()
            closest = pair_search(
                self, lambda pairs: pairs.near,
                lambda chords, seps, best: min(best, float(np.min(
                    chords, where=seps > 1, initial=math.inf))),
                math.nextafter(limit, math.inf),
                positions=(np.arange(n, dtype=float), float(n)))
            diameter = pair_search(
                self, lambda pairs: pairs.far,
                lambda chords, _, best: max(best, float(chords.max())),
                -math.inf, largest=True)
            return closest > limit, diameter
        return self.cached("chords", build)

    def interval_tree(self):
        """The curve's :class:`IntervalTree`, built on first request."""
        return self.cached("interval_tree", lambda: _interval_tree(self))

    def chord_matrix(self):
        """N x N matrix of euclidean vertex distances, built anew on each
        call from the blocks of :meth:`chord_blocks`, read-only; no
        embeddedness check.  No analysis reads it, but the tests and
        ``bench/tracing.py`` do."""
        m = np.empty((self.n, self.n))
        for b, chords in self._chord_blocks(False):
            m[b] = chords
        m.setflags(write=False)
        return m

    def tangents(self):
        """Unit edge directions u_i = (q_{i+1} - q_i)/|q_{i+1} - q_i|."""
        return self.cached("tangents",
                           lambda: self._edges / self.edge_lengths()[:, None])

    def index_of_param(self, x):
        """Nearest sample index to the parameter x in [0, 1)."""
        return int(round(wrap01(x) * self.n)) % self.n


# -- branch and bound over vertex pairs ------------------------------------------

class IntervalTree(NamedTuple):
    """Halvings of the vertex indices [0, N) down to leaves of at most
    ``TREE_LEAF`` vertices, in heap order: node 1 is [0, N), node k at
    depth d is [(k - 2^d) N >> d, (k - 2^d + 1) N >> d), its children are
    2k and 2k + 1, and entry 0 is unused.  Each node holds its index range
    ``start:stop``, the centroid of its vertices, the largest distance of
    one from it, and the arclength positions of its first and last
    vertex; ``turning`` is the prefix sum of the turning angles
    atan2(|e_{v-1} x e_v|, e_{v-1} . e_v) between the edge vectors into
    and out of each vertex v (entry v sums the angles before vertex v)."""
    start: np.ndarray
    stop: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    arc_first: np.ndarray
    arc_last: np.ndarray
    turning: np.ndarray


def _tree_depth(n):
    """Depth of the leaves of an :class:`IntervalTree` over N vertices."""
    depth = 0
    while n > TREE_LEAF << depth:
        depth += 1
    return depth


def _interval_tree(c):
    """Build the :class:`IntervalTree` of ``c``, one level at a time."""
    n, q = c.n, c.samples
    depth = _tree_depth(n)
    size = 2 << depth
    start, stop = np.zeros(size, np.intp), np.zeros(size, np.intp)
    center, radius = np.zeros((size, 3)), np.zeros(size)
    for d in range(depth + 1):
        k = np.arange(1 << d)
        lo, hi = (k * n) >> d, ((k + 1) * n) >> d
        nodes = slice(1 << d, 2 << d)
        start[nodes], stop[nodes] = lo, hi
        center[nodes] = np.add.reduceat(q, lo) / (hi - lo)[:, None]
        w = q - np.repeat(center[nodes], hi - lo, axis=0)
        radius[nodes] = np.maximum.reduceat(
            np.sqrt(np.einsum("ij,ij->i", w, w)), lo)
    # edge vectors, not the cached tangents: a tangent array cached here,
    # amid the transients above, fragmented the heap and raised the peak
    # RSS of a run of certify jobs by about 0.7 MB
    e = c.edge_vectors()
    prev = np.roll(e, 1, axis=0)
    angles = np.arctan2(np.linalg.norm(np.cross(prev, e), axis=1),
                        np.einsum("ij,ij->i", prev, e))
    s = c.cum_lengths()
    return IntervalTree(start, stop, center, radius, s[start], s[stop - 1],
                        np.concatenate([[0.0], np.cumsum(angles)]))


class NodePairs:
    """Node pairs (I, J) of one level of a curve's :class:`IntervalTree`,
    heap indices ``a`` <= ``b``, so that I comes before J or is J, with
    bounds over their vertex pairs, each computed on first use and loosened
    by ``TREE_SLACK``."""

    def __init__(self, c, a, b):
        self.c, self.tree, self.a, self.b = c, c.interval_tree(), a, b

    @cached_property
    def _balls(self):
        """The distance between the centroids and the sum of the radii."""
        t = self.tree
        d = t.center[self.a] - t.center[self.b]
        return (np.sqrt(np.einsum("ij,ij->i", d, d)),
                t.radius[self.a] + t.radius[self.b])

    @cached_property
    def near(self):
        """Lower bound of the chords: |c_I - c_J| - rho_I - rho_J."""
        dist, rad = self._balls
        return dist - rad - TREE_SLACK * (dist + rad)

    @cached_property
    def far(self):
        """Upper bound of the chords: |c_I - c_J| + rho_I + rho_J."""
        dist, rad = self._balls
        return (dist + rad) * (1.0 + TREE_SLACK)

    @cached_property
    def ratio(self):
        """Upper bound of intrinsic/chord, the smaller of two:

        - the shorter arc over :attr:`near`: with the forward arcs from I
          to J in [d_min, d_max], the shorter arc is at most
          min(d_max, L - d_min);
        - the turning bound 1/cos(phi/2), when phi < pi: an arc whose
          total turning is phi < pi has chord >= arc * cos(phi/2) (its
          unit tangents lie in a cap of radius phi/2), and phi is the
          smaller turning of the two spans that join I and J, forward from
          I's first vertex to J's last and forward from J's first vertex
          across index 0 to I's last, at the vertices inside each.
        """
        t, a, b = self.tree, self.a, self.b
        length = self.c.total_length()
        arc = (np.minimum(t.arc_last[b] - t.arc_first[a],
                          length - (t.arc_first[b] - t.arc_last[a]))
               + TREE_SLACK * length)
        with np.errstate(divide="ignore"):
            bound = arc / np.maximum(self.near, 0.0)
        turn = t.turning
        phi = (np.minimum(turn[t.stop[b] - 1] - turn[t.start[a] + 1],
                          turn[-1] - turn[t.start[b] + 1] + turn[t.stop[a] - 1])
               + TREE_SLACK * turn[-1])
        bent = phi < math.pi
        bound[bent] = np.minimum(bound[bent], 1.0 / np.cos(0.5 * phi[bent]))
        return bound * (1.0 + TREE_SLACK)

    @cached_property
    def sep(self):
        """The largest periodic index separation min(s, N - s) of a vertex
        pair, exact."""
        t, n = self.tree, self.c.n
        lo = np.maximum(t.start[self.b] - t.stop[self.a] + 1, 0)
        hi = t.stop[self.b] - 1 - t.start[self.a]
        half = n // 2
        return np.where(hi <= half, hi, np.where(lo > half, n - lo, half))


def pair_search(c, key, leaf, best, positions=None, largest=False):
    """The smallest, or with ``largest`` the largest, value that ``leaf``
    finds over the vertex pairs of ``c``, with ``best`` to beat, by branch
    and bound over :meth:`Curve.interval_tree`; an O(N^2) scan finds the
    same float, since the leaves compare the same numbers.

    Level by level from depth ``TREE_TOP``, each live node pair gets
    ``key(pairs)`` (:class:`NodePairs`), a bound on the values its vertex
    pairs can give, inf (-inf with ``largest``) for one that holds no pair
    the query counts, and it lives on while its key beats the best value
    so far.  Before a level is cut, the middle vertices of each live node
    pair seed the best value.  The leaf pairs left are taken in batches of
    at most ``PAIR_BLOCK`` vertex pairs, each batch only those whose key
    still beats the best value; sorting them by key measured no faster.

    ``leaf(chords, gaps, best)`` returns the better of ``best`` and of a
    batch's vertex pairs: their chords, of shape (P, m, k), computed as
    every chord scan computes them (:func:`pair_sq_distances`, then the
    square root), and, for ``positions`` (pos, total), their
    :func:`periodic_gaps`, as :meth:`Curve.intrinsic_rows` computes arcs,
    else None; both are borrowed work arrays the leaf may overwrite.  A
    batch also holds each pair (j, i), the pairs (i, i), and repeats of a
    short leaf's last vertex, which change no minimum or maximum of a
    symmetric value.
    """
    tree = c.interval_tree()
    depth = _tree_depth(c.n)
    sign = -1.0 if largest else 1.0
    xyz = np.ascontiguousarray(c.samples.T)
    mid = (tree.start + tree.stop)[:, None] // 2
    # the longest leaf, ceil(N / 2^depth) vertices
    span = np.arange((c.n + (1 << depth) - 1) >> depth)
    # every node pair of the first levels lives: start below them
    top = min(depth, TREE_TOP)
    a = b = np.ones(1, np.intp)
    for _ in range(top):
        a, b = _children(a, b)
    with work_arrays(3, max(c.n, span.size**2)) as work:
        for level in range(top, depth + 1):
            if level > top:
                a, b = _children(a, b)
            k = sign * key(NodePairs(c, a, b))
            live = k < sign * best
            a, b, k = a[live], b[live], k[live]
            if not a.size:
                return best
            best = _leaf_batches(xyz, mid[a], mid[b], positions, leaf, best,
                                 work)
            live = k < sign * best
            a, b, k = a[live], b[live], k[live]
        step = max(1, PAIR_BLOCK // span.size**2)
        for lo in range(0, a.size, step):
            live = k[lo:lo + step] < sign * best
            rows, cols = (np.minimum(tree.start[x, None] + span,
                                     tree.stop[x, None] - 1)
                          for x in (a[lo:lo + step][live],
                                    b[lo:lo + step][live]))
            best = _leaf_batches(xyz, rows, cols, positions, leaf, best, work)
    return best


def _children(a, b):
    """The child node pairs (I', J'), I' <= J', of the node pairs (a, b)."""
    ca = 2 * a[:, None] + _LEFT
    cb = 2 * b[:, None] + _RIGHT
    kids = ca <= cb
    return ca[kids], cb[kids]


#: the children 2k + i of the two nodes of a pair, in the four pairings
_LEFT, _RIGHT = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])


def _leaf_batches(xyz, rows, cols, positions, leaf, best, work):
    """``best`` run through ``leaf`` over the vertex pairs rows[p] x
    cols[p] (see :func:`pair_search`), at most ``PAIR_BLOCK`` at a time in
    the three borrowed arrays ``work``; ``xyz`` holds the vertices'
    coordinates as three rows."""
    step = max(1, PAIR_BLOCK // (rows.shape[1] * cols.shape[1]))
    for lo in range(0, len(rows), step):
        r, s = rows[lo:lo + step], cols[lo:lo + step]
        shape = (len(r), r.shape[1], s.shape[1])
        chords, d, e = (w[:math.prod(shape)].reshape(shape) for w in work)
        pair_sq_distances(xyz[:, r], xyz[:, s], chords, (d, e))
        np.sqrt(chords, out=chords)
        gaps = None
        if positions is not None:
            pos, total = positions
            gaps = periodic_gaps(pos[r], pos[s], total, d, e)
        best = leaf(chords, gaps, best)
    return best


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

def write_csv(path, header, rows):
    """Write the CSV file ``path``: the ``header`` row, then ``rows``.  Every
    CSV the package writes goes through here; floats are written in their
    shortest round-trip form, so they read back bit for bit."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def save_curve(c, path):
    """Write a curve as JSON (.json) or CSV with header x,y,z (.csv)."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        write_csv(path, ["x", "y", "z"], c.samples.tolist())
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
