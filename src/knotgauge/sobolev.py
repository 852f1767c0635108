"""Fractional seminorm of the tangent field and the bilipschitz bounds it buys.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curve import (WINDOW_SLACK, Curve, arc_window, pair_ratio_range,
                    param_distance, resample_arclength, row_blocks)
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
    sum.
    """
    density: np.ndarray
    total: float


def tangent_density(c, band=DEFAULT_BAND):
    """The seminorm grid of an arclength-resampled curve, built once per
    ``band`` and cached read-only with the curve."""
    return c.cached(("tangent_density", band), lambda: _density(c, band))


def _density(c, band):
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
    return SeminormGrid(density=dens, total=float(dens.sum()))


def seminorm_sq(c, window=None, band=DEFAULT_BAND):
    """Squared seminorm restricted to a parameter window.

    ``window`` is a boolean sample mask, as built by
    :func:`~knotgauge.curve.param_window` or
    :func:`~knotgauge.curve.arc_window`; ``None`` is the whole circle.
    Sums the density over pairs with both samples inside the window;
    windows holding fewer than two samples give 0 with a warning.
    """
    grid = tangent_density(c, band)
    if window is None:
        return grid.total
    if window.sum() < 2:
        warnings.warn("window holds fewer than two samples", stacklevel=2)
        return 0.0
    return float(grid.density[np.ix_(window, window)].sum())


# -- bilipschitz bounds --------------------------------------------------------


@dataclass(frozen=True)
class BilipBound:
    """Lower bound for a squared chord against the actual value."""
    bound: float
    chord_sq: float
    seminorm_sq: float
    param_dist: float


def bilip_lower_bound(c, s, t):
    """Seminorm-based lower bound on |c(t) - c(s)|^2 over the arc [s, t].

    Returns ``(speed^2 - seminorm/2) * |t - s|^2`` in physical units together
    with the actual squared chord.  Non-uniform inputs are resampled first
    (only the unit-speed case is evaluated).  The windowed sum keeps *all*
    distinct sample pairs (band 0): excluding a band would bias the bound
    upward, the unsound direction for an inequality.  A negative bound is
    vacuous and is returned as is.  The band-0 density is built on a
    cache-free copy, so the caller's curve does not keep it.
    """
    e = c.edge_lengths()
    if (e.max() - e.min()) / e.mean() > 1e-9:
        c = resample_arclength(c, c.n)
    else:
        c = Curve(c.samples)
    i = c.index_of_param(s)
    j = c.index_of_param(t)
    dt = param_distance(i / c.n, j / c.n)
    speed = c.total_length()
    sem = seminorm_sq(c, arc_window(c.n, i / c.n, j / c.n), band=0)
    bound = (1.0 - 0.5 * sem) * (dt * speed) ** 2
    chord = c.samples[i] - c.samples[j]
    return BilipBound(bound=float(bound), chord_sq=float(chord @ chord),
                      seminorm_sq=sem, param_dist=dt)


def bilip_constant(c):
    """Measured bilipschitz constant L: sup of intrinsic over chord distance.

    For an arclength-resampled curve the intrinsic distance is the scaled
    parameter distance, so 1/L is the infimum of chord over intrinsic
    distance.  L >= pi/2 for any closed curve.  One row-block scan of all
    pairs, cheaper than building the pair table that holds the same value;
    raises :class:`~knotgauge.curve.EmbeddingError` on coincident samples.
    """
    c.check_embedded()
    chord = c.chord_matrix()
    return pair_ratio_range(c.intrinsic_rows, lambda b: chord[b], c.n)[1]


# -- window sweeps -------------------------------------------------------------


def ball_halfwidth(r, n):
    """Number of grid steps k with k/n <= r under the closed-window rule of
    :func:`~knotgauge.curve.param_window` (ball B_r covers 2k+1 samples)."""
    return min(int(math.floor((r + WINDOW_SLACK) * n)), (n - 1) // 2)


def ball_window_sums(density, k):
    """Density mass of B_{k*h}(x_i) x B_{k*h}(x_i) for every center i.

    ``k`` is one halfwidth, giving an (N,) array, or a sequence of them,
    giving one row per halfwidth.  One (N+1) x (N+1) summed-area table
    (Crow 1984) is built per call and dropped on return; a window that
    wraps around 0 is split into at most two index intervals, so each
    center costs O(1) and each halfwidth O(N) after the O(N^2) table.  The
    sums agree with direct summation to a few ulps of the total mass.
    """
    n = density.shape[0]
    table = np.zeros((n + 1, n + 1))
    np.cumsum(density, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])

    def block(a, b, c, d):
        return table[b, d] - table[a, d] - table[b, c] + table[a, c]

    centers = np.arange(n)
    ks = np.atleast_1d(k)
    sums = np.empty((ks.size, n))
    for row, kk in zip(sums, ks):
        if 2 * kk + 1 >= n:
            row[:] = table[n, n]
            continue
        lo, hi = centers - kk, centers + kk + 1
        # [a1, b1) inside [0, N), [a2, b2) the part wrapped around 0
        a1, b1 = np.maximum(lo, 0), np.minimum(hi, n)
        a2 = np.where(lo < 0, lo + n, 0)
        b2 = np.where(lo < 0, n, np.maximum(hi - n, 0))
        row[:] = (block(a1, b1, a1, b1) + block(a1, b1, a2, b2)
                  + block(a2, b2, a1, b1) + block(a2, b2, a2, b2))
    return sums[0] if np.ndim(k) == 0 else sums


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
    qualifies (the seminorm is concentrated; use the concentration pipeline).
    """
    n = c.n
    ladder = np.geomspace(4.0 / n, 0.25, LADDER_SIZE)
    worst = ball_window_sums(
        tangent_density(c).density,
        [ball_halfwidth(r, n) for r in ladder]).max(axis=1)
    rho = None
    for r, w in zip(ladder[::-1], worst[::-1]):
        if float(w) < WINDOW_SMALLNESS_SQ:
            rho = float(r)
            break
    if rho is None:
        raise ConcentratedSeminormError(
            "seminorm too concentrated; use concentration pipeline")
    chord = c.chord_matrix()
    t = np.arange(n) / n
    sigma = math.inf
    for b in row_blocks(n):
        dt = np.abs(t[b, None] - t[None, :])
        dt = np.minimum(dt, 1.0 - dt)
        far = dt >= 2.0 * rho
        if np.any(far):
            sigma = min(sigma, float(np.min(chord[b][far])))
    if sigma == math.inf:
        raise ConcentratedSeminormError(
            "no pairs beyond 2*rho; curve too coarse for the scale search")
    return rho, sigma / 4.0
