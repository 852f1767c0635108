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

from .curve import (PAIR_BLOCK, WINDOW_SLACK, block_view, outer_difference,
                    pair_sq_distances, param_distance, work_arrays)
from .distortion import LADDER_SIZE

DEFAULT_BAND = 2

#: window smallness that forces local distortion below 2/sqrt(3);
#: squared value of 1/(2*sqrt(2))
WINDOW_SMALLNESS_SQ = 1.0 / 8.0


# -- seminorm grid -----------------------------------------------------------


class SeminormGrid(NamedTuple):
    """Pairwise density of the squared tangent seminorm.

    ``density[i, j] = |u_i - u_j|^2 / |t_i - t_j|^2 * h^2`` off the excluded
    diagonal band; symmetric, zero on the band; ``total`` is the full double
    sum.  Only the whole-circle total, ``--density`` and the concentration
    pipeline read the full grid; a seminorm window computes its own block.
    """
    density: np.ndarray
    total: float


def tangent_density(c, band=DEFAULT_BAND):
    """The seminorm grid of an arclength-resampled curve, built once per
    ``band`` and cached read-only with the curve."""
    return c.cached(("tangent_density", band), lambda: _density(c, band))


def _density(c, band):
    idx = np.arange(c.n)
    dens = _density_rows(c, idx, idx, band)
    return SeminormGrid(density=dens, total=float(dens.sum()))


def _density_rows(c, rows, cols, band):
    """Block ``np.ix_(rows, cols)`` of the seminorm density, as a fresh
    array; ``rows`` and ``cols`` are index arrays, in any order, ``cols``
    without repeats.

    Fills the block a few rows at a time through two work arrays of about
    ``PAIR_BLOCK`` entries each, with the chord scans' kernel
    :func:`~knotgauge.curve.pair_sq_distances`; every entry equals the full
    grid's bit for bit.
    """
    n = c.n
    h = 1.0 / n
    t = np.arange(n) * h
    tr, tc = t[rows], t[cols]
    # one contiguous row per coordinate
    ur, uc = (np.ascontiguousarray(c.tangents()[ix].T) for ix in (rows, cols))
    out = np.empty((len(rows), len(cols)))
    step = max(1, PAIR_BLOCK // len(cols))
    work = np.empty((2, min(step, len(rows)), len(cols)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(rows), step):
            b = slice(lo, lo + step)
            ob = out[b]
            d, e = work[:, :ob.shape[0]]
            pair_sq_distances(ur[:, b], uc, ob, (d, e))
            np.abs(outer_difference(tr[b], tc, d, e), out=d)
            np.minimum(d, np.subtract(1.0, d, out=e), out=d)
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


def seminorm_sq(c, window=None):
    """Squared seminorm restricted to a parameter window.

    ``window`` is a boolean sample mask of length N, as built by
    :func:`~knotgauge.curve.param_window` or
    :func:`~knotgauge.curve.arc_window`; ``None`` is the whole circle, the
    cached grid's total.  A window sums its own m x m block of the density,
    pairs with both samples inside it, computed by the grid's kernel in one
    ``.sum()``; it neither builds nor keeps the N x N grid.  Windows holding
    fewer than two samples give 0 with a warning; anything but a boolean
    mask of length N raises :class:`ValueError`.
    """
    if window is None:
        return tangent_density(c).total
    window = np.asarray(window)
    if window.dtype != bool or window.shape != (c.n,):
        raise ValueError(
            f"window must be a boolean mask of shape ({c.n},), got dtype "
            f"{window.dtype} and shape {window.shape}")
    idx = np.flatnonzero(window)
    if idx.size < 2:
        warnings.warn("window holds fewer than two samples", stacklevel=2)
        return 0.0
    return float(_density_rows(c, idx, idx, DEFAULT_BAND).sum())


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
    :meth:`~knotgauge.curve.Curve.chord_blocks` (the ratio is symmetric bit
    for bit), cheaper than building the pair table that holds the same
    value."""
    top = -np.inf
    with work_arrays(1, c.n) as (work,):
        for b, chords in c.chord_blocks():
            ratio = c.intrinsic_rows(b, slice(b.start, c.n),
                                     out=block_view(work, *chords.shape))
            # the diagonal's 0/0 is NaN, which fmax skips
            with np.errstate(invalid="ignore"):
                ratio /= chords
            top = max(top, float(np.fmax.reduce(ratio, axis=None)))
    return top


# -- window sweeps -------------------------------------------------------------


def ball_halfwidth(r, n):
    """Number of grid steps k with k/n <= r under the closed-window rule of
    :func:`~knotgauge.curve.param_window` (ball B_r covers 2k+1 samples)."""
    return min(int(math.floor((r + WINDOW_SLACK) * n)), (n - 1) // 2)


def ball_window_sums(density, ks, exclude=()):
    """Density mass of B_{k*h}(x_i) x B_{k*h}(x_i) for every center i.

    ``ks`` is a sequence of halfwidths k (a list, even for one of them),
    giving one row per halfwidth.  One (N+1) x (N+1) summed-area table
    (Crow 1984) is built per call and dropped on return: running sums of
    the density's rows, one contiguous row add each (the additions of a
    cumulative sum down the columns, in the same order), then a cumulative
    sum along each row.  A window that wraps around 0 is split into at
    most two index intervals, so each center costs O(1) and each halfwidth
    O(N) after the O(N^2) table.  The sums agree with direct summation to
    a few ulps of the total mass.

    The rows and columns of the samples ``exclude`` count as zero, the same
    sums bit for bit as over a copy of the density with them zeroed, but
    without the copy: an excluded row's add is skipped, and an excluded
    column's running sums are all zero.
    """
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


# -- admissible scale from the seminorm ----------------------------------------


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
    samples.
    """
    n = c.n
    ladder = np.geomspace(4.0 / n, 0.25, LADDER_SIZE)
    worst = ball_window_sums(
        tangent_density(c).density,
        [ball_halfwidth(r, n) for r in ladder]).max(axis=1)
    small = np.flatnonzero(worst < WINDOW_SMALLNESS_SQ)
    if not small.size:
        raise ConcentratedSeminormError(
            "seminorm too concentrated; use concentration pipeline")
    rho = float(ladder[small[-1]])
    t = c.params()
    sigma = math.inf
    for b, chords in c.chord_blocks():
        far = param_distance(t[b, None], t[b.start:]) >= 2.0 * rho
        sigma = min(sigma, float(np.min(chords, where=far, initial=math.inf)))
    if sigma == math.inf:
        raise ConcentratedSeminormError(
            "no pairs beyond 2*rho; curve too coarse for the scale search")
    return rho, sigma / 4.0
