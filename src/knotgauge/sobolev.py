"""Fractional seminorm of the tangent field and the bilipschitz constant.

The half-order seminorm of the unit tangent is discretized as a double sum
over sample pairs of |u_i - u_j|^2 / |t_i - t_j|^2 with midpoint weights
h^2.  Tangent samples are treated as point evaluations of a smooth field,
so a diagonal band |i - j| <= band is excluded (default band 2); this is the
package's seminorm convention and the quadrature is consistent for genuinely
smooth data.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .curve import (PAIR_BLOCK, TREE_SLACK, WINDOW_SLACK, block_view,
                    pair_search, pair_sq_distances, periodic_gaps,
                    work_arrays)
from .distortion import LADDER_SIZE

DEFAULT_BAND = 2

#: density entries per row block of :func:`ball_window_sums`
STREAM_BLOCK = 1 << 16

#: largest leaf of the pairwise sum that :class:`_PairwiseSum` reduces
SUM_LEAF = 1 << 14

#: window smallness that forces local distortion below 2/sqrt(3);
#: squared value of 1/(2*sqrt(2))
WINDOW_SMALLNESS_SQ = 1.0 / 8.0


# -- seminorm density ---------------------------------------------------------


class SeminormGrid(NamedTuple):
    """Pairwise density of the squared tangent seminorm.

    ``density[i, j] = |u_i - u_j|^2 / |t_i - t_j|^2 * h^2`` off the excluded
    diagonal band; symmetric, zero on the band; ``total`` is the full double
    sum.
    """
    density: np.ndarray
    total: float


def tangent_density(c, band=DEFAULT_BAND):
    """The N x N seminorm grid of an arclength-resampled curve, built anew
    on each call, read-only, and not kept.  No analysis reads it: every
    pass over the density streams its row blocks (:func:`ball_window_sums`).
    Only the tests and ``bench/tracing.py`` call it."""
    idx = np.arange(c.n)
    dens = _density_rows(c, idx, idx, band)
    dens.setflags(write=False)
    return SeminormGrid(density=dens, total=float(dens.sum()))


def _density_rows(c, rows, cols, band, out=None):
    """Block ``np.ix_(rows, cols)`` of the seminorm density, written to
    ``out`` when given, else to a fresh array; ``rows`` and ``cols`` are
    index arrays, in any order, ``cols`` without repeats.

    Fills the block a few rows at a time through two borrowed work arrays
    of about ``PAIR_BLOCK`` entries each, with the chord scans' kernel
    :func:`~knotgauge.curve.pair_sq_distances`; every entry equals the full
    grid's bit for bit.
    """
    n = c.n
    h = 1.0 / n
    t = np.arange(n) * h
    tr, tc = t[rows], t[cols]
    # one contiguous row per coordinate
    ur, uc = (np.ascontiguousarray(c.tangents()[ix].T) for ix in (rows, cols))
    if out is None:
        out = np.empty((len(rows), len(cols)))
    step = max(1, PAIR_BLOCK // len(cols))
    with work_arrays(2, len(cols)) as work, \
            np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(rows), step):
            b = slice(lo, lo + step)
            ob = out[b]
            d, e = (block_view(a, *ob.shape) for a in work)
            pair_sq_distances(ur[:, b], uc, ob, (d, e))
            periodic_gaps(tr[b], tc, 1.0, d, e)
            ob /= np.square(d, out=d)
            ob *= h
            ob *= h
    # zero the band |i - j| <= band (cyclically), which holds the diagonal's
    # 0/0, by index: pos maps a sample to its column in the block
    pos = np.full(n, -1)
    pos[cols] = np.arange(len(cols))
    at = np.arange(len(rows))
    for s in range(-band, band + 1):
        j = pos[(rows + s) % n]
        hit = j >= 0
        out[at[hit], j[hit]] = 0.0
    return out


def _density_blocks(c, rows, cols, buffer):
    """The density block ``np.ix_(rows, cols)`` as consecutive blocks of
    rows ``(lo, block)``, as many rows at a time as ``buffer`` holds, each
    written to ``buffer`` over the one before."""
    step = len(buffer)
    for lo in range(0, len(rows), step):
        part = rows[lo:lo + step]
        yield lo, _density_rows(c, part, cols, DEFAULT_BAND,
                                out=buffer[:len(part)])


def seminorm_sq(c, window=None):
    """Squared seminorm restricted to a parameter window.

    ``window`` is a boolean sample mask of length N, as built by
    :func:`~knotgauge.curve.param_window` or
    :func:`~knotgauge.curve.arc_window`; ``None`` is the whole circle, the
    total of the curve's cached ladder pass (:func:`ball_window_sums`).  A
    window sums its own m x m block of the density, pairs with both samples
    inside it, ``STREAM_BLOCK`` entries of rows at a time: the block's
    ``.sum()`` bit for bit (see :class:`_PairwiseSum`), without the block.
    Windows holding fewer than two samples give 0 with a warning; anything
    but a boolean mask of length N raises :class:`ValueError`.
    """
    if window is None:
        return _ladder_pass(c).total
    window = np.asarray(window)
    if window.dtype != bool or window.shape != (c.n,):
        raise ValueError(
            f"window must be a boolean mask of shape ({c.n},), got dtype "
            f"{window.dtype} and shape {window.shape}")
    idx = np.flatnonzero(window)
    if idx.size < 2:
        warnings.warn("window holds fewer than two samples", stacklevel=2)
        return 0.0
    m = idx.size
    total = _PairwiseSum(m * m)
    buffer = np.empty((min(m, max(1, STREAM_BLOCK // m)), m))
    for _, block in _density_blocks(c, idx, idx, buffer):
        total.add(block)
    return total.value()


# -- bilipschitz constant ------------------------------------------------------


def bilip_constant(c):
    """Measured bilipschitz constant L: sup of intrinsic over chord distance.

    For an arclength-resampled curve the intrinsic distance is the scaled
    parameter distance, so 1/L is the infimum of chord over intrinsic
    distance.  L >= pi/2 for any closed curve.  Cached with the curve;
    :func:`~knotgauge.mobius.mobius_energy` records it from its own pass.
    Raises :class:`~knotgauge.curve.EmbeddingError` on coincident samples.
    """
    return c.cached("bilip", lambda: _bilip_scan(c))


def _bilip_scan(c):
    """One scan of the pairs i < j through
    :meth:`~knotgauge.curve.Curve.pair_blocks` (the ratio is symmetric bit
    for bit): one maximum over all pairs, cheaper than the binned rung
    scan of :func:`~knotgauge.distortion.local_distortion` at an infinite
    scale, which finds the same value."""
    top = -np.inf
    for _, chords, arcs in c.pair_blocks():
        # the diagonal's 0/0 is NaN, which fmax skips
        with np.errstate(invalid="ignore"):
            arcs /= chords
        top = max(top, float(np.fmax.reduce(arcs, axis=None)))
    return top


# -- window sweeps -------------------------------------------------------------


def ball_halfwidth(r, n):
    """Number of grid steps k with k/n <= r under the closed-window rule of
    :func:`~knotgauge.curve.param_window` (ball B_r covers 2k+1 samples)."""
    return min(int(math.floor((r + WINDOW_SLACK) * n)), (n - 1) // 2)


class WindowSums(NamedTuple):
    """What one pass of :func:`ball_window_sums` yields."""
    sums: np.ndarray    # (len(ks), N): one row of center masses per halfwidth
    total: float        # the whole-circle double sum


def ball_window_sums(c, ks, exclude=()):
    """Density mass of B_{k*h}(x_i) x B_{k*h}(x_i) for every center i, and
    the whole-circle total, from one pass over the density of ``c``.

    ``ks`` is a sequence of halfwidths k (a list, even for one of them),
    giving one row of ``sums`` per halfwidth.  The masses are read off the
    (N+1) x (N+1) summed-area table of the density (Crow 1984), but neither
    the table nor the density is ever held whole: the density is computed
    ``STREAM_BLOCK`` entries of rows at a time, each row added to the
    running column sums (the additions of a cumulative sum down the
    columns, in the same order), and the running rows summed along
    themselves into table rows, which give up the corners the windows read
    (see :class:`_WindowCorners`) and are dropped.  A window that wraps
    around 0 is split into at most two index intervals, so each center
    costs O(1); the pass keeps O(N * len(ks)) numbers.  The sums agree with
    direct summation to a few ulps of the total mass; ``total`` is the
    density's ``.sum()`` bit for bit (see :class:`_PairwiseSum`).

    The rows and columns of the samples ``exclude`` count as zero in
    ``sums``, the same sums bit for bit as over a copy of the density with
    them zeroed: they add +0.0, which leaves every running sum as it is.
    ``total`` counts every sample.
    """
    n = c.n
    exclude = np.asarray(exclude, dtype=np.intp)
    corners = _WindowCorners(n, ks)
    total = _PairwiseSum(n * n)
    step = max(1, STREAM_BLOCK // n)
    # running[0] holds the column sums of the rows before the block
    running = np.zeros((step + 1, n))
    table = np.zeros((step, n + 1))
    idx = np.arange(n)
    for lo, dens in _density_blocks(c, idx, idx, running[1:]):
        m = len(dens)
        total.add(dens)
        dens[exclude[(exclude >= lo) & (exclude < lo + m)] - lo] = 0.0
        dens[:, exclude] = 0.0
        for j in range(1, m + 1):
            np.add(running[j - 1], running[j], out=running[j])
        np.cumsum(dens, axis=1, out=table[:m, 1:])
        # density row lo + j closes table row lo + j + 1
        corners.take(lo + 1, table[:m])
        running[0] = running[m]
    return WindowSums(corners.sums(), total.value())


class _WindowCorners:
    """The summed-area corners that the windows of halfwidths ``ks`` read,
    picked from the table rows T[a] as they pass, and the window sums.

    Window i of halfwidth k covers the index interval [a1, b1) and, when it
    wraps around 0, [a2, b2) as well; its mass is the sum of four table
    blocks, ``block(a1, b1, a1, b1) + block(a1, b1, a2, b2) + block(a2, b2,
    a1, b1) + block(a2, b2, a2, b2)``, each ``T[b, d] - T[a, d] - T[b, c] +
    T[a, c]``.  Row and column 0 of the table are +0.0, and no table entry
    is -0.0, so dropping the terms that read them changes no bit.  What is
    left reads, with w = 2k + 1:

    - for a window that does not wrap, a = i - k and b = a + w:
      T[b, b] - T[a, b] - T[b, a] + T[a, a];
    - for the 2k windows that wrap, with h in [1, 2k] and l = h + v,
      v = N - w, the ends that are not 0 or N: P = T[h, h],
      Q = T[h, N] - T[h, l], S = T[N, h] - T[l, h] and
      U = T[N, N] - T[l, N] - T[N, l] + T[l, l], summed in block order,
      P + Q + S + U when the window wraps below 0 (h > k), else
      U + S + Q + P.

    So each table row a gives up its diagonal, its last entry and, per
    halfwidth, its entries at a + w, a - w, a + v and a - v; the last row
    is kept whole.  Halfwidths with 2k + 1 >= N cover the circle: T[N, N].
    """

    def __init__(self, n, ks):
        self.n = n
        self.ks = np.asarray(ks, dtype=np.intp)
        self.part = np.flatnonzero(2 * self.ks + 1 < n)
        w = 2 * self.ks[self.part] + 1
        self.offsets = np.concatenate([w, -w, n - w, w - n])
        self.diag = np.zeros(n + 1)
        self.last = np.zeros(n + 1)
        self.near = np.zeros((n + 1, self.offsets.size))
        self.bottom = None

    def take(self, first, rows):
        """Pick the corners of the table rows ``first``, ``first + 1``, ...
        held in ``rows``."""
        n = self.n
        at = np.arange(first, first + len(rows))
        j = np.arange(len(rows))
        self.diag[at] = rows[j, at]
        self.last[at] = rows[:, n]
        self.near[at] = rows[j[:, None],
                             np.clip(at[:, None] + self.offsets, 0, n)]
        if at[-1] == n:
            self.bottom = rows[-1].copy()

    def sums(self):
        n, diag, last, bottom = self.n, self.diag, self.last, self.bottom
        out = np.empty((len(self.ks), n))
        out[:] = diag[n]
        m = len(self.part)
        for col, row in enumerate(self.part):
            k = self.ks[row]
            w = 2 * k + 1
            near = self.near[:, col::m]   # at a + w, a - w, a + v, a - v
            a = np.arange(n - w + 1)
            b = a + w
            out[row, k:n - k] = (diag[b] - near[a, 0] - near[b, 1]
                                 + diag[a])
            h = np.arange(1, 2 * k + 1)
            l = h + (n - w)
            p = diag[h]
            q = last[h] - near[h, 2]
            s = bottom[h] - near[l, 3]
            u = bottom[n] - last[l] - bottom[l] + diag[l]
            out[row, n - k:] = u[:k] + s[:k] + q[:k] + p[:k]
            out[row, :k] = p[k:] + q[k:] + s[k:] + u[k:]
        return out


def _pairwise_leaves(lo, hi):
    """The subranges of numpy's pairwise sum over the flat range [lo, hi)
    that first hold at most ``SUM_LEAF`` entries, in order."""
    if hi - lo <= SUM_LEAF:
        return [(lo, hi)]
    mid = lo + _pairwise_split(hi - lo)
    return _pairwise_leaves(lo, mid) + _pairwise_leaves(mid, hi)


def _pairwise_split(n):
    """Where numpy's pairwise sum splits a range of n > 128 entries: at its
    half, rounded down to a multiple of 8."""
    return n // 2 - (n // 2) % 8


class _PairwiseSum:
    """``.sum()`` of a C-ordered array of ``size`` entries, fed its rows in
    order, block by block, bit for bit.

    numpy sums a contiguous array pairwise over its flat entries, and
    ``np.add.reduce`` of one subrange of that tree, alone, returns the same
    partial.  So each leaf of :func:`_pairwise_leaves` is reduced as soon
    as it is complete, in place when one block holds it, else from a
    buffer its pieces are copied to, and the leaf sums are added back up in
    the tree's order.
    """

    def __init__(self, size):
        self.size = size
        self.leaves = _pairwise_leaves(0, size)
        self.partial = []
        self.buffer = np.empty(min(size, SUM_LEAF))
        self.fed = 0

    def add(self, block):
        flat = block.reshape(-1)
        lo, hi = self.fed, self.fed + flat.size
        self.fed = hi
        while len(self.partial) < len(self.leaves):
            s, e = self.leaves[len(self.partial)]
            if s >= lo and e <= hi:
                self.partial.append(np.add.reduce(flat[s - lo:e - lo]))
                continue
            a, z = max(s, lo), min(e, hi)
            self.buffer[a - s:z - s] = flat[a - lo:z - lo]
            if e > hi:
                return
            self.partial.append(np.add.reduce(self.buffer[:e - s]))

    def value(self):
        parts = iter(self.partial)

        def tree(n):
            if n <= SUM_LEAF:
                return next(parts)
            n2 = _pairwise_split(n)
            return tree(n2) + tree(n - n2)

        return float(tree(self.size))


# -- admissible scale from the seminorm ----------------------------------------


def _ladder(n):
    """The window radii that :func:`fractional_admissible_scale` tries."""
    return np.geomspace(4.0 / n, 0.25, LADDER_SIZE)


def _ladder_pass(c):
    """:func:`ball_window_sums` at the halfwidths of :func:`_ladder`, with
    the whole-circle total: one pass over the density per curve, cached."""
    return c.cached("seminorm_ladder", lambda: ball_window_sums(
        c, [ball_halfwidth(r, c.n) for r in _ladder(c.n)]))


class ConcentratedSeminormError(RuntimeError):
    """No window scale keeps the seminorm small everywhere."""


def fractional_admissible_scale(c):
    """Window radius and distortion scale from seminorm smallness.

    Finds the largest ladder radius rho <= 1/4 such that every sample-centered
    window B_rho(x) has squared seminorm below 1/8 (seminorm below
    1/(2*sqrt(2))), then sets sigma = min chord over pairs at parameter
    distance >= 2*rho and returns (rho, sigma/4).  The resulting scale keeps
    the local distortion at or below 2/sqrt(3).

    Raises :class:`ConcentratedSeminormError` when no ladder radius
    qualifies (the seminorm is concentrated; use the concentration
    pipeline), and :class:`~knotgauge.curve.EmbeddingError` on coincident
    samples.  sigma comes from :func:`_far_chord`, with no full pass over
    the pairs.
    """
    ladder = _ladder(c.n)
    worst = _ladder_pass(c).sums.max(axis=1)
    small = np.flatnonzero(worst < WINDOW_SMALLNESS_SQ)
    if not small.size:
        raise ConcentratedSeminormError(
            "seminorm too concentrated; use concentration pipeline")
    rho = float(ladder[small[-1]])
    sigma = _far_chord(c, 2.0 * rho)
    if sigma == math.inf:
        raise ConcentratedSeminormError(
            "no pairs beyond 2*rho; curve too coarse for the scale search")
    return rho, sigma / 4.0


def _far_chord(c, gap):
    """The smallest chord over the pairs whose parameter distance
    (:func:`~knotgauge.curve.param_distance` of i/N and j/N) is >= ``gap``,
    inf when no pair is that far apart; by
    :func:`~knotgauge.curve.pair_search`, which drops a node pair whose
    chords reach the best so far or whose index separations all stay
    below gap * N.  Raises :class:`~knotgauge.curve.EmbeddingError` on
    coincident samples."""
    c.check_embedded()
    n = c.n
    return pair_search(
        c, lambda pairs: np.where(pairs.sep * (1.0 + TREE_SLACK) >= gap * n,
                                  pairs.near, math.inf),
        lambda chords, dist, best: min(best, float(np.min(
            chords, where=dist >= gap, initial=math.inf))),
        math.inf, positions=(c.params(), 1.0))
