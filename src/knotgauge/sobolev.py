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

import numpy as np
from scipy.ndimage import uniform_filter1d

from .curve import param_distance, param_window, wrap01
from .distortion import LADDER_SIZE

DEFAULT_BAND = 2

#: window smallness that forces local distortion below 2/sqrt(3);
#: squared value of 1/(2*sqrt(2))
WINDOW_SMALLNESS_SQ = 1.0 / 8.0


# -- parameter windows -------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Parameter ball B_r(x) on R/Z."""
    x: float
    r: float


@dataclass(frozen=True)
class Annulus:
    """Annulus B_r(x) minus B_{theta*r}(x) on R/Z."""
    x: float
    r: float
    theta: float


@dataclass(frozen=True)
class Arc:
    """The shorter closed parameter arc from s to t."""
    s: float
    t: float


def window_mask(window, n):
    """Boolean sample membership for a parameter window (closed, see
    :func:`~knotgauge.curve.param_window`)."""
    if window is None:
        return np.ones(n, dtype=bool)
    if isinstance(window, Ball):
        return param_window(n, window.x, window.r)
    if isinstance(window, Annulus):
        return param_window(n, window.x, window.r,
                            inner=window.theta * window.r)
    if isinstance(window, Arc):
        return param_window(n, _arc_midpoint(window.s, window.t),
                            param_distance(window.s, window.t) / 2.0)
    raise TypeError(f"unknown window type {type(window)!r}")


def _arc_midpoint(s, t):
    s, t = wrap01(s), wrap01(t)
    if abs(s - t) <= 0.5:
        return (s + t) / 2.0
    return wrap01((s + t + 1.0) / 2.0)


# -- seminorm grid -----------------------------------------------------------


@dataclass
class SeminormGrid:
    """Pairwise density of the squared tangent seminorm.

    ``density[i, j] = |u_i - u_j|^2 / |t_i - t_j|^2 * h^2`` off the excluded
    diagonal band; symmetric, zero on the band; ``total`` is the full double
    sum.
    """
    h: float
    band: int
    density: np.ndarray
    total: float


def tangent_density(c, band=DEFAULT_BAND):
    """Build the seminorm grid of an arclength-resampled curve."""
    u = c.tangents()
    n = c.n
    h = 1.0 / n
    t = np.arange(n) * h
    dt = np.abs(t[:, None] - t[None, :])
    dt = np.minimum(dt, 1.0 - dt)
    diff = u[:, None, :] - u[None, :, :]
    du2 = np.einsum("ijk,ijk->ij", diff, diff)
    idx = np.arange(n)
    sep = np.abs(idx[:, None] - idx[None, :])
    sep = np.minimum(sep, n - sep)
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(sep > band, du2 / (dt * dt) * h * h, 0.0)
    return SeminormGrid(h=h, band=band, density=dens, total=float(dens.sum()))


def seminorm_sq(c, window=None, band=DEFAULT_BAND, grid=None):
    """Squared seminorm restricted to a parameter window.

    Sums the density over pairs with both parameters inside the window;
    windows holding fewer than two samples give 0 with a warning.
    """
    if grid is None or grid.band != band:
        grid = tangent_density(c, band)
    if window is None:
        return grid.total
    m = window_mask(window, c.n)
    if m.sum() < 2:
        warnings.warn(f"window {window!r} holds fewer than two samples",
                      stacklevel=2)
        return 0.0
    return float(grid.density[np.ix_(m, m)].sum())


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
    vacuous and is returned as is.
    """
    e = c.edge_lengths()
    if (e.max() - e.min()) / e.mean() > 1e-9:
        from .curve import resample_arclength
        c = resample_arclength(c, c.n)
    i = c.index_of_param(s)
    j = c.index_of_param(t)
    dt = param_distance(i / c.n, j / c.n)
    speed = c.total_length()
    sem = seminorm_sq(c, Arc(i / c.n, j / c.n), band=0)
    bound = (1.0 - 0.5 * sem) * (dt * speed) ** 2
    chord = c.samples[i] - c.samples[j]
    return BilipBound(bound=float(bound), chord_sq=float(chord @ chord),
                      seminorm_sq=sem, param_dist=dt)


def bilip_constant(c):
    """Measured bilipschitz constant L: sup of intrinsic over chord distance.

    For an arclength-resampled curve the intrinsic distance is the scaled
    parameter distance, so 1/L is the infimum of chord over intrinsic
    distance.  L >= pi/2 for any closed curve.
    """
    chord = c.chord_matrix()
    intr = c.intrinsic_matrix()
    iu = np.triu_indices(c.n, k=1)
    return float(np.max(intr[iu] / chord[iu]))


# -- window sweeps -------------------------------------------------------------


def ball_halfwidth(r, n):
    """Number of grid steps k with k/n <= r (ball B_r covers 2k+1 samples)."""
    return min(int(math.floor(r * n + 1e-12)), (n - 1) // 2)


def ball_window_sums(density, k):
    """Density mass of B_{k*h}(x_i) x B_{k*h}(x_i) for every center i.

    Circular moving-window sums along both axes; O(N^2) for all centers.
    """
    n = density.shape[0]
    w = 2 * k + 1
    if w >= n:
        return np.full(n, density.sum())
    s1 = uniform_filter1d(density, size=w, axis=1, mode="wrap") * w
    s2 = uniform_filter1d(s1, size=w, axis=0, mode="wrap") * w
    return np.diagonal(s2).copy()


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
    grid = tangent_density(c)
    ladder = np.geomspace(4.0 / n, 0.25, LADDER_SIZE)
    rho = None
    for r in ladder[::-1]:
        k = ball_halfwidth(r, n)
        worst = float(ball_window_sums(grid.density, k).max())
        if worst < WINDOW_SMALLNESS_SQ:
            rho = float(r)
            break
    if rho is None:
        raise ConcentratedSeminormError(
            "seminorm too concentrated; use concentration pipeline")
    chord = c.chord_matrix()
    t = np.arange(n) / n
    dt = np.abs(t[:, None] - t[None, :])
    dt = np.minimum(dt, 1.0 - dt)
    far = dt >= 2.0 * rho
    if not np.any(far):
        raise ConcentratedSeminormError(
            "no pairs beyond 2*rho; curve too coarse for the scale search")
    sigma = float(np.min(chord[far]))
    return rho, sigma / 4.0
