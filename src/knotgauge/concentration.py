"""Detection of tangent-seminorm concentrations and the substitution pipeline.

A concentration is a parameter whose arbitrarily small diagonal windows
retain a fixed quantum of seminorm mass.  On the grid the limit window is the
smallest resolvable one (halfwidth 4 samples); contiguous runs of flagged
samples are coalesced to one representative each, which keeps the detection
windows disjoint and hence the counting bound sharp.

The pipeline drives the straight-segment substitution at the detected
centers with the smallness parameter prescribed for bilipschitz control of
the modified curve, selects the working scale from annulus masses, the
off-concentration uniformity radius, the symmetry order, and the center
separations, and verifies the final local-distortion and closeness budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import Curve, param_distance, param_window
from .distortion import LADDER_SIZE, certify_equivalence, local_distortion
from .sobolev import (DEFAULT_BAND, ConcentratedSeminormError, _density_rows,
                      ball_halfwidth, ball_window_sums, bilip_constant,
                      fractional_admissible_scale, seminorm_sq, tangent_density)
from .substitution import _substitute, theta4

#: concentration mass quantum: 2/3 - 6/pi^2 (makes 1/sqrt(1 - 3 eps/2) = pi/3)
EPSILON = 2.0 / 3.0 - 6.0 / math.pi**2

#: smallest resolvable detection window, in grid steps
DETECT_HALFWIDTH = 4

#: slack on the final local-distortion check against pi/3
DISTORTION_MARGIN = 1e-2


class ConcentrationError(RuntimeError):
    pass


@dataclass
class Detection:
    """Concentration representatives with their window masses."""
    halfwidth: int
    indices: list                 # one representative per cluster
    params: list
    rep_masses: list
    cluster_members: np.ndarray   # all flagged sample indices
    sample_masses: np.ndarray     # per-sample smallest-window masses
    total_mass: float
    warnings: list = field(default_factory=list)

    @property
    def cardinality_bound(self):
        return math.ceil(self.total_mass / EPSILON)


def detect_concentrations(c):
    """Find parameters whose smallest resolvable window exceeds ``EPSILON``.

    Flags every sample whose diagonal window of halfwidth 4 grid steps holds
    mass above EPSILON, then coalesces contiguous flagged runs (gap at most the
    window width) into single representatives at the run centers.  The number
    of representatives always satisfies the counting bound
    ``len <= ceil(total mass / EPSILON)`` because their windows are disjoint.
    """
    grid = tangent_density(c)
    n = c.n
    k = DETECT_HALFWIDTH
    masses = ball_window_sums(grid.density, k)
    flagged = np.where(masses > EPSILON)[0]
    reps, members = _coalesce(flagged, masses, n, gap=2 * k)
    notes = []
    r = k / n
    for a_i, i in enumerate(reps):
        for j in reps[a_i + 1:]:
            gap = param_distance(i / n, j / n)
            mass = offdiag_window_mass(c, i, j, r)
            if mass > 64.0 * r * r / (gap * gap):
                notes.append(
                    f"off-diagonal window ({i}, {j}) mass {mass:.3e} above "
                    f"the decay bound (discretization artifact)")
    det = Detection(halfwidth=k, indices=reps,
                    params=[i / n for i in reps],
                    rep_masses=[float(masses[i]) for i in reps],
                    cluster_members=members, sample_masses=masses,
                    total_mass=grid.total, warnings=notes)
    if len(det.indices) > det.cardinality_bound:
        raise ConcentrationError(
            f"counting bound violated: {len(det.indices)} representatives, "
            f"bound {det.cardinality_bound}")
    return det


def _coalesce(flagged, masses, n, gap):
    """Group flagged indices into circular clusters and pick run centers."""
    if flagged.size == 0:
        return [], flagged
    breaks = np.where(np.diff(flagged) > gap)[0]
    runs = np.split(flagged, breaks + 1)
    # wrap-around: merge first and last run when they touch across 0
    if len(runs) > 1 and (flagged[0] + n) - flagged[-1] <= gap:
        runs[0] = np.concatenate([runs[-1] - n, runs[0]])
        runs = runs[:-1]
    reps = []
    for run in runs:
        mid = int(round(run.mean())) % n
        reps.append(mid)
    return reps, flagged


def offdiag_window_mass(c, i, j, r):
    """Seminorm mass of B_r(t_i) x B_r(t_j); decays like r^2 off-diagonal."""
    k = ball_halfwidth(r, c.n)
    rows, cols = (np.arange(a - k, a + k + 1) % c.n for a in (i, j))
    return float(_density_rows(c, rows, cols, DEFAULT_BAND).sum())


# -- working-scale selection -------------------------------------------------------


@dataclass
class ScaleSelection:
    r_bar: float
    annulus_scale: float | None
    rho_mu: float | None
    symmetry_bound: float
    separation_bound: float | None
    r_gamma: float | None
    theta: float


def select_scale(c, detection, p, L, r_gamma=None):
    """Working radius for the substitution at the detected centers.

    Minimum of: (i) the largest ladder prefix on which every center's
    annulus (window minus the inner ball of relative width theta =
    theta4(L)) carries mass below theta/2, (ii) the seminorm-based
    distortion scale of a reference when available, (iii) 1/(4p), (iv) a
    quarter of the minimal center separation, and (v) the largest radius at
    which all windows away from the concentration clusters hold mass at
    most 2 EPSILON.
    """
    if not detection.indices:
        raise ConcentrationError("no concentrations detected; nothing to cut")
    n = c.n
    theta = theta4(L)
    ladder = np.geomspace((2.0 * DETECT_HALFWIDTH + 2.0) / n, 0.25,
                          LADDER_SIZE)

    ann = _annulus_prefix_scale(c, detection.indices, ladder, theta)
    if ann is None:
        raise ConcentrationError(
            "concentration too sharp for grid; increase N "
            "(no ladder radius keeps all center annuli below theta/2)")
    rho_mu = _uniform_smallness_radius(c, detection, ladder)

    bounds = [ann, 1.0 / (4.0 * p)]
    sep = None
    idx = detection.indices
    if len(idx) > 1:
        sep = min(param_distance(a / n, b / n)
                  for i, a in enumerate(idx) for b in idx[i + 1:])
        bounds.append(0.25 * sep)
    if rho_mu is not None:
        bounds.append(rho_mu)
    if r_gamma is not None:
        bounds.append(r_gamma)
    return ScaleSelection(r_bar=float(min(bounds)), annulus_scale=ann,
                          rho_mu=rho_mu, symmetry_bound=1.0 / (4.0 * p),
                          separation_bound=sep, r_gamma=r_gamma, theta=theta)


def _annulus_prefix_scale(c, centers, ladder, theta):
    # the ladder starts at 10/N, so every annulus holds at least 20 samples
    best = None
    for r in ladder:
        annuli = (param_window(c.n, i / c.n, r, inner=theta * r)
                  for i in centers)
        if any(seminorm_sq(c, m) >= theta / 2 for m in annuli):
            break
        best = float(r)
    return best


def _uniform_smallness_radius(c, detection, ladder):
    dens = tangent_density(c).density.copy()
    members = detection.cluster_members % c.n
    dens[members, :] = 0.0
    dens[:, members] = 0.0
    worst = ball_window_sums(
        dens, [ball_halfwidth(r, c.n) for r in ladder]).max(axis=1)
    best = None
    for r, w in zip(ladder, worst):
        if float(w) <= 2.0 * EPSILON:
            best = float(r)
        else:
            break
    return best


# -- the pipeline ---------------------------------------------------------------------


@dataclass
class ConcentrationReport:
    detection: Detection
    bilip: float
    theta: float
    scale: ScaleSelection | None
    substitution: object | None
    modified: Curve
    final_scale: float | None
    distortion_final: float | None
    distortion_margin: float
    budget: float | None
    linf_reference: float | None
    certificate: object | None
    flags: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(self.flags.values())


def pipeline(c, p, reference=None):
    """Detect concentrations, cut them out, and verify the final bounds.

    Works on the unit-length normalization of the input; the modified curve
    is returned at the input scale.  Without detections the input passes
    through unchanged.  With a reference curve (same sample count) the sup
    distance budget and the equivalence certificate against the reference
    are evaluated as well.
    """
    length = c.total_length()
    work = Curve(c.samples / length)
    ref = None
    if reference is not None:
        if reference.n != c.n:
            raise ConcentrationError(
                "reference must share the curve's sample count")
        ref = Curve(reference.samples / length)
    det = detect_concentrations(work)
    L = bilip_constant(work)
    theta = theta4(L)

    if not det.indices:
        flags = {"distortion": True}
        cert = None
        if ref is not None:
            cert = certify_equivalence(ref, work)
            flags["certificate"] = cert.passed
            flags["budget"] = True
        return ConcentrationReport(
            detection=det, bilip=L, theta=theta, scale=None,
            substitution=None, modified=c, final_scale=None,
            distortion_final=None, distortion_margin=DISTORTION_MARGIN,
            budget=None, linf_reference=None, certificate=cert, flags=flags)

    r_gamma = None
    if ref is not None:
        try:
            # on a copy: ``ref`` lives on to the certificate, and would
            # otherwise hold its N x N density through the substitution
            _, r_gamma = fractional_admissible_scale(Curve(ref.samples))
        except ConcentratedSeminormError:
            r_gamma = None
    sel = select_scale(work, det, p, L, r_gamma=r_gamma)
    rep = _substitute(work, L, [i / work.n for i in det.indices], theta,
                      sel.r_bar)
    modified = rep.modified

    final_scale = sel.r_bar / (16.0 * L)
    dist_final = local_distortion(modified, final_scale)[0]
    flags = {
        "substitution": rep.all_pass,
        "distortion": dist_final <= math.pi / 3.0 + DISTORTION_MARGIN,
    }
    budget = sel.r_bar / (64.0 * L)
    linf_ref = None
    cert = None
    if ref is not None:
        linf_ref = float(np.max(np.linalg.norm(
            ref.samples - modified.samples, axis=1)))
        flags["budget"] = linf_ref < budget
        cert = certify_equivalence(ref, modified)
        flags["certificate"] = cert.passed
    return ConcentrationReport(
        detection=det, bilip=L, theta=theta, scale=sel,
        substitution=rep, modified=Curve(modified.samples * length),
        final_scale=final_scale, distortion_final=dist_final,
        distortion_margin=DISTORTION_MARGIN, budget=budget,
        linf_reference=linf_ref, certificate=cert, flags=flags)
