"""Straight-segment substitution of curve subarcs with verified bounds.

A subarc around a center x is replaced by the straight segment between two
"good" endpoints near x +- r/2, where goodness means the maximal function of
the tangent excess is small.  The substitution keeps the sup distance, the
windowed distortion, the intrinsic metric, and the bilipschitz constant of
the curve under explicit quantitative control; every bound is re-verified on
the produced curve and recorded as a flag.

Curves are normalized to unit length internally; all reported quantities are
in normalized units and the modified curve is returned at the input scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import uniform_filter1d

from .curve import (WINDOW_SLACK, Curve, arc_window, pair_ratio_range,
                    param_distance, param_window, wrap01)
from .sobolev import bilip_constant, seminorm_sq

#: smallness ceiling for nonempty good sets
THETA1 = 144.0 ** -4

#: slack absorbing grid and floating-point error in verified inequalities
VERIFY_SLACK = 1e-9


def theta3(L):
    """Smallness ceiling for bilipschitz control at measured constant L."""
    return (64.0 * L) ** -8


def theta4(L):
    """Smallness used by the concentration pipeline at measured constant L."""
    return (6.0 * 128.0 * L) ** -8


class SubstitutionError(RuntimeError):
    """A precondition of the substitution failed; the message names it."""


class GoodSetError(SubstitutionError):
    """The good-set gate left B_{r/8}(x - r/2) or B_{r/8}(x + r/2) empty.

    Carries, for each side, the minimum of the maximal excess over that
    ball, the bound theta^(1/4), and their ratio.  ``gap`` is the larger
    ratio: the factor by which the maximal excess must drop before both
    sides hold a good endpoint.
    """

    def __init__(self, x, r, theta, min_minus, min_plus):
        self.x, self.r, self.theta = x, r, theta
        self.bound = theta ** 0.25
        self.min_minus, self.min_plus = min_minus, min_plus
        self.ratio_minus = min_minus / self.bound
        self.ratio_plus = min_plus / self.bound
        self.gap = max(self.ratio_minus, self.ratio_plus)
        super().__init__(
            f"no good endpoints at this scale (x={x}, r={r:.4g}): min "
            f"maximal excess {min_minus:.3e} near x - r/2 and "
            f"{min_plus:.3e} near x + r/2 against theta^(1/4) = "
            f"{self.bound:.3e} (gap {self.gap:.3g}x)")


# -- mean direction -----------------------------------------------------------


@dataclass
class MeanDirection:
    """Normalized mean tangent over a window plus verified oscillation stats."""
    nu: np.ndarray
    mean_norm: float
    dev_mean_sq: float      # mean square deviation from the raw mean
    dev_nu_sq: float        # mean square deviation from nu
    annulus_seminorm: float
    dev_mean_ok: bool       # dev_mean_sq < 8 theta
    dev_nu_ok: bool         # dev_nu_sq  < 32 theta


def mean_direction(c, x, r, theta):
    """Mean tangent direction over B_r(x) under the annulus smallness test.

    Requires theta < 1/8 and the squared tangent seminorm over the annulus
    B_r(x) minus B_{theta r}(x) to be below theta; under that hypothesis the
    mean tangent cannot vanish and both oscillation bounds are reported.
    """
    if not theta < 1.0 / 8.0:
        raise SubstitutionError(f"theta must be below 1/8, got {theta}")
    sem = seminorm_sq(c, param_window(c.n, x, r, inner=theta * r))
    if not sem < theta:
        raise SubstitutionError(
            f"annulus seminorm {sem:.3e} not below theta {theta:.3e} at x={x}")
    return _mean_direction_raw(c, x, r, theta, sem)


def _mean_direction_raw(c, x, r, theta, sem):
    m = param_window(c.n, x, r)
    u = c.tangents()[m]
    mean = u.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise SubstitutionError(f"mean tangent vanishes at x={x}")
    nu = mean / norm
    dev_mean = float(np.mean(np.sum((u - mean) ** 2, axis=1)))
    dev_nu = float(np.mean(np.sum((u - nu) ** 2, axis=1)))
    return MeanDirection(nu=nu, mean_norm=norm, dev_mean_sq=dev_mean,
                         dev_nu_sq=dev_nu, annulus_seminorm=sem,
                         dev_mean_ok=dev_mean < 8.0 * theta,
                         dev_nu_ok=dev_nu < 32.0 * theta)


# -- excess field and maximal function ------------------------------------------


@dataclass
class ExcessField:
    """Tangent excess over a window and its discrete maximal function."""
    center: float
    radius: float
    magnitudes: np.ndarray  # (N,) |excess|, zero outside the window
    maximal: np.ndarray     # (N,) Hardy-Littlewood maximal of |excess|


def excess_field(c, x, r, nu):
    """Localized tangent excess (tangent minus nu, cut off to B_r(x))."""
    m = param_window(c.n, x, r)
    e = np.where(m[:, None], c.tangents() - nu[None, :], 0.0)
    mag = np.sqrt(np.einsum("ij,ij->i", e, e))
    return ExcessField(center=wrap01(x), radius=r, magnitudes=mag,
                       maximal=maximal_function(mag))


def maximal_function(mag):
    """Discrete Hardy-Littlewood maximal function on the periodic grid.

    Means over sample-centered balls of every radius k*h, 0 <= k <= N/2;
    the degenerate radius (the sample's own cell) realizes the vanishing-
    radius limit and makes the maximal dominate the field pointwise.
    """
    n = mag.shape[0]
    out = mag.copy()
    for k in range(1, n // 2 + 1):
        means = uniform_filter1d(mag, size=2 * k + 1, mode="wrap")
        np.maximum(out, means, out=out)
    return out


def weak_type_check(exc, t):
    """Evaluate the weak-type inequality |{Me > t}| <= (3/t) * ||e||_1.

    Returns (measure of the super-level set, the bound).
    """
    n = exc.magnitudes.shape[0]
    h = 1.0 / n
    level = float(np.count_nonzero(exc.maximal > t)) * h
    l1 = float(exc.magnitudes.sum()) * h
    return level, 3.0 * l1 / t


# -- good endpoint sets ----------------------------------------------------------


@dataclass
class GoodSets:
    """Sample indices near x +- r/2 whose maximal excess is small."""
    g_plus: np.ndarray
    g_minus: np.ndarray


def good_sets(excess, theta):
    """Good endpoint candidates within B_{r/8}(x +- r/2), for the center x
    and radius r of ``excess``.

    Membership: maximal excess at most theta^(1/4).  Raises
    ``GoodSetError`` with the smallest maximal excess on each side when
    either set is empty (enlarge r or pick the smallness differently).
    """
    if not theta < THETA1:
        raise SubstitutionError(
            f"theta must be below {THETA1:.3e} for nonempty good sets")
    n, x, r = excess.maximal.shape[0], excess.center, excess.radius
    ok = excess.maximal <= theta ** 0.25
    idx = np.arange(n)
    near_plus = param_window(n, x + r / 2.0, r / 8.0)
    near_minus = param_window(n, x - r / 2.0, r / 8.0)
    g_plus = idx[ok & near_plus]
    g_minus = idx[ok & near_minus]
    if g_plus.size == 0 or g_minus.size == 0:
        raise GoodSetError(
            x, r, theta,
            float(excess.maximal[near_minus].min(initial=np.inf)),
            float(excess.maximal[near_plus].min(initial=np.inf)))
    return GoodSets(g_plus=g_plus, g_minus=g_minus)


# -- substitution ----------------------------------------------------------------


@dataclass
class SubstitutionReport:
    """Modified curve plus the verified quantitative bounds.

    All numeric fields are in unit-length normalized units; ``modified`` is
    returned at the input scale.
    """
    original: Curve
    modified: Curve
    centers: list
    endpoints: list                  # [(x_minus, x_plus)] parameters
    theta: float
    r: float
    bilip_original: float
    bilip_modified: float
    linf_distance: float
    window_distortions: list
    intrinsic_ratio_min: float
    intrinsic_ratio_max: float
    length_ratio: float
    nu_delta_gaps: list              # |nu_i - Delta_i|^2 per center
    annulus_seminorms: list
    flags: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(self.flags.values())


def substitute(c, centers, theta=None, *, r):
    """Replace the subarcs around ``centers`` by straight segments.

    Endpoints are the good samples nearest to center +- r/2 (ties toward the
    smaller parameter).  The report records and verifies, with slack
    ``VERIFY_SLACK``:

    * sup distance below ``6 theta^(1/8) r``,
    * distortion on the one-sided windows below ``1 + 4 theta^(1/4)``,
    * two-sided intrinsic-distance comparison with factor ``1 - 2 theta^(1/8)``
      over all sample pairs, and the length ratio in
      ``[1 - 2 theta^(1/8), 1]``,
    * bilipschitz constant of the modified curve at most twice the original.

    With an empty center list the input curve is returned unchanged.
    """
    scale = c.total_length()
    work = Curve(c.samples / scale)
    L = bilip_constant(work)
    if theta is None:
        theta = theta3(L) / 2.0
    centers = [wrap01(x) for x in centers]
    if not centers:
        return _trivial_report(c, theta, r, L)
    report = _substitute(work, L, centers, theta, r)
    report.original = c
    report.modified = Curve(report.modified.samples * scale)
    return report


def _substitute(work, L, centers, theta, r):
    """:func:`substitute` at nonempty wrapped ``centers`` on a unit-length
    curve whose constant ``L`` the caller holds; the report's curves are in
    ``work``'s units."""
    if not 0.0 < r < 0.25:
        raise SubstitutionError("substitution radius must lie in (0, 1/4)")
    for i, a in enumerate(centers):
        for b in centers[i + 1:]:
            if param_distance(a, b) <= 2.0 * r:
                raise SubstitutionError(
                    f"centers {a} and {b} separated by <= 2r")
    t3 = theta3(L)
    if not theta <= t3:
        raise SubstitutionError(
            f"theta {theta:.3e} exceeds bilipschitz ceiling {t3:.3e} (L={L:.3f})")

    n = work.n
    dirs, endpoints = [], []
    for x in centers:
        sem = seminorm_sq(work, param_window(n, x, r, inner=theta * r))
        md = _mean_direction_raw(work, x, r, theta, sem)
        gs = good_sets(excess_field(work, x, r, md.nu), theta)
        dirs.append(md)
        endpoints.append((_nearest_good(gs.g_minus, x - r / 2.0, n),
                          _nearest_good(gs.g_plus, x + r / 2.0, n)))

    modified = _build_modified(work, endpoints)
    return _verify(work, modified, centers, endpoints, theta, r, L, dirs)


def _trivial_report(c, theta, r, L):
    return SubstitutionReport(
        original=c, modified=c, centers=[], endpoints=[], theta=theta, r=r,
        bilip_original=L, bilip_modified=L, linf_distance=0.0,
        window_distortions=[], intrinsic_ratio_min=1.0,
        intrinsic_ratio_max=1.0, length_ratio=1.0, nu_delta_gaps=[],
        annulus_seminorms=[],
        flags={"linf": True, "window_distortion": True, "intrinsic": True,
               "length": True, "bilip": True, "nu_delta": True,
               "difference_quotients": True})


def _nearest_good(candidates, target, n):
    t = candidates / n
    d = np.abs(t - wrap01(target))
    d = np.minimum(d, 1.0 - d)
    best = d.min()
    tied = candidates[d <= best + 1e-15]
    return float(tied.min() / n)


def _signed_offset(t, base):
    """Signed wrapped parameter offset of t from base, in (-1/2, 1/2]."""
    d = wrap01(t - base)
    return d if d <= 0.5 else d - 1.0


def _build_modified(work, endpoints):
    n = work.n
    q = work.samples.copy()
    t = np.arange(n) / n
    for xm, xp in endpoints:
        w = wrap01(xp - xm)
        im, ip = work.index_of_param(xm), work.index_of_param(xp)
        d = wrap01(t - xm)
        inside = d <= w + WINDOW_SLACK
        frac = d[inside] / w
        q[inside] = work.samples[im] + frac[:, None] * (
            work.samples[ip] - work.samples[im])
    return Curve(q)


def _verify(work, mod, centers, endpoints, theta, r, L, dirs):
    n = work.n
    t8 = theta ** 0.125
    t4 = theta ** 0.25

    linf = float(np.max(np.linalg.norm(work.samples - mod.samples, axis=1)))
    linf_ok = linf < 6.0 * t8 * r + VERIFY_SLACK

    window_distortions = []
    wd_ok = True
    for (x, (xm, xp)) in zip(centers, endpoints):
        for lo, hi in (((x - r) % 1.0, xp), (xm, (x + r) % 1.0)):
            idx = np.flatnonzero(arc_window(n, lo, hi))
            sub_d = mod.intrinsic_rows(idx)[:, idx]
            sub_c = mod.chord_rows(idx, idx)
            iu = np.triu_indices(idx.size, k=1)
            ratios = sub_d[iu] / sub_c[iu]
            v = float(ratios.max()) if ratios.size else 1.0
            window_distortions.append(v)
            wd_ok = wd_ok and v < 1.0 + 4.0 * t4 + VERIFY_SLACK

    ratio_min, ratio_max = pair_ratio_range(mod.intrinsic_rows,
                                            work.intrinsic_rows, n)
    intrinsic_ok = (ratio_min >= 1.0 - 2.0 * t8 - VERIFY_SLACK
                    and ratio_max <= 1.0 + VERIFY_SLACK)

    length_ratio = mod.total_length() / work.total_length()
    length_ok = (1.0 - 2.0 * t8 - VERIFY_SLACK <= length_ratio
                 <= 1.0 + VERIFY_SLACK)

    bilip_mod = bilip_constant(mod)
    bilip_ok = bilip_mod <= 2.0 * L + VERIFY_SLACK

    nu_delta_gaps = []
    nd_ok = True
    dq_ok = True
    for (x, (xm, xp)), md in zip(zip(centers, endpoints), dirs):
        im, ip = work.index_of_param(xm), work.index_of_param(xp)
        span = _signed_offset(xp, xm)
        delta = (work.samples[ip] - work.samples[im]) / span
        gap = float(np.sum((md.nu - delta) ** 2))
        nu_delta_gaps.append(gap)
        nd_ok = nd_ok and gap <= 4.0 * t4 + VERIFY_SLACK
        dq_ok = dq_ok and _difference_quotients_ok(
            work, x, r, md.nu, (im, ip), theta)

    flags = {
        "linf": bool(linf_ok),
        "window_distortion": bool(wd_ok),
        "intrinsic": bool(intrinsic_ok),
        "length": bool(length_ok),
        "bilip": bool(bilip_ok),
        "nu_delta": bool(nd_ok),
        "difference_quotients": bool(dq_ok),
    }
    return SubstitutionReport(
        original=work, modified=mod, centers=list(centers),
        endpoints=list(endpoints), theta=theta, r=r, bilip_original=L,
        bilip_modified=bilip_mod, linf_distance=linf,
        window_distortions=window_distortions,
        intrinsic_ratio_min=ratio_min, intrinsic_ratio_max=ratio_max,
        length_ratio=float(length_ratio), nu_delta_gaps=nu_delta_gaps,
        annulus_seminorms=[md.annulus_seminorm for md in dirs], flags=flags)


def _difference_quotients_ok(work, x, r, nu, endpoint_idx, theta):
    """Difference quotients anchored at chosen endpoints stay close to nu."""
    t4 = theta ** 0.25
    t8 = theta ** 0.125
    n = work.n
    ball = np.flatnonzero(param_window(n, x, r))
    t = np.arange(n) / n
    for i0 in endpoint_idx:
        rest = ball[ball != i0]
        dt = np.array([_signed_offset(t[j], t[i0]) for j in rest])
        quot = (work.samples[rest] - work.samples[i0]) / dt[:, None]
        proj = quot @ nu
        if np.any(proj > 1.0 + VERIFY_SLACK):
            return False
        if np.any(proj < 1.0 - 2.0 * t4 - VERIFY_SLACK):
            return False
        orth = quot - proj[:, None] * nu[None, :]
        if np.any(np.linalg.norm(orth, axis=1) > 2.0 * t8 + VERIFY_SLACK):
            return False
    return True
