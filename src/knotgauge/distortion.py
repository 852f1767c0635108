"""Localized Gromov distortion, its dimensional thresholds, and the
knot-equivalence certificate.

The distortion of a set is the supremum of intrinsic over euclidean distance;
restricting the supremum to pairs with chord <= 2r localizes it at scale r.
A curve whose local distortion stays below the dimensional threshold at some
scale, paired with another such curve Hausdorff-close relative to those
scales, is certifiably of the same knot class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .curve import hausdorff_distance, row_blocks

#: threshold sequence limit: the distortion of a quarter circle
G_INF = math.pi / math.sqrt(8.0)

#: number of rungs in every scale ladder
LADDER_SIZE = 40


def distortion_threshold(n):
    """Dimensional distortion threshold, strictly decreasing to pi/sqrt(8).

    For n = 3 this equals 2*pi/(3*sqrt(3)), the distortion of one third of
    a circle.
    """
    if int(n) != n or n < 3:
        raise ValueError(f"dimension must be an integer >= 3 (got {n})")
    a = math.sqrt((2.0 * n - 2.0) / n)
    return a * math.asin(1.0 / a)


def threshold_angle(n):
    """Angle beta_n at which the arc/chord ratio reaches the threshold."""
    if int(n) != n or n < 3:
        raise ValueError(f"dimension must be an integer >= 3 (got {n})")
    return 2.0 * math.asin(math.sqrt(n / (2.0 * n - 2.0)))


def arc_chord_ratio(alpha):
    """Arc over chord for a circular arc of opening angle alpha.

    Equals (alpha/2)/sin(alpha/2); strictly increasing on (0, pi], with
    value 1 at 0+ and pi/2 at pi.
    """
    if alpha == 0.0:
        return 1.0
    return (alpha / 2.0) / math.sin(alpha / 2.0)


@dataclass(frozen=True)
class DistortionAngle:
    """Angle alpha in (0, pi) together with its arc/chord ratio."""
    alpha: float
    g_value: float


def distortion_angle(delta):
    """Invert the arc/chord ratio: the unique alpha with ratio(alpha) = delta.

    Requires delta in [1, pi/2); the residual of the root is below 1e-12.
    """
    if not (1.0 <= delta < math.pi / 2.0):
        raise ValueError(f"delta must lie in [1, pi/2), got {delta}")
    lo, hi = 1e-9, math.pi - 1e-12
    if arc_chord_ratio(lo) >= delta:
        alpha = lo
    else:
        alpha = brentq(lambda a: arc_chord_ratio(a) - delta, lo, hi,
                       xtol=1e-15, rtol=8.9e-16)
    return DistortionAngle(alpha=float(alpha), g_value=arc_chord_ratio(alpha))


# -- local distortion ----------------------------------------------------------


def _state_changes(lengths, ratios, flat, n):
    """The pairs that become the running state when taken in chord order.

    The state after a prefix is its largest intrinsic/chord ratio with the
    smallest flat index i*N + j attaining it.  A pair outside the result is
    beaten by one of no larger chord, so no prefix of whole chord values
    (what a query sees) answers differently without it; the order within
    equal chords is therefore free, and the faster unstable sort serves.
    """
    order = np.argsort(lengths)
    lengths, ratios, flat = lengths[order], ratios[order], flat[order]
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
    return lengths[keep], ratios[keep], flat[keep]


def _pair_table(c):
    """The curve's pair table, which :func:`local_distortion` caches
    read-only with it.

    Three arrays ``(chords, values, pairs)`` in increasing chord: the pairs
    i < j that become the running maximum of intrinsic/chord (ties to the
    lexicographically smallest pair) when the pairs are taken in chord
    order, with their chords and ratios.  The local distortion at
    scale r is then the last entry with chord <= 2r.  The ratios are read
    row by row through :meth:`~knotgauge.curve.Curve.chord_rows` and
    :meth:`~knotgauge.curve.Curve.intrinsic_rows`, so the build does not
    make the curve hold its N x N intrinsic matrix.  Building costs
    O(N^2 log N) time, in row blocks of small temporaries, and the table
    itself is short (93 entries for a trefoil at N=2048).  Raises
    :class:`~knotgauge.curve.EmbeddingError` on coincident samples.
    """
    n = c.n
    cols = np.arange(n)
    parts = []
    for b in row_blocks(n):
        flat = np.flatnonzero(cols > cols[b, None])
        lengths = c.chord_rows(b).ravel()[flat]
        ratios = c.intrinsic_rows(b).ravel()[flat] / lengths
        parts.append(_state_changes(lengths, ratios, flat + b.start * n, n))
    lengths, ratios, flat = _state_changes(
        *(np.concatenate(p) for p in zip(*parts)), n)
    return lengths, ratios, np.stack(np.divmod(flat, n), axis=1)


def local_distortion(c, r):
    """Local distortion of the sampled curve at scale r, with its argmax pair.

    Supremum of intrinsic/chord over sample pairs with chord <= 2r;
    returns 1.0 with pair None when no pair qualifies.  Ties resolve to the
    lexicographically smallest (i, j).

    Reads the curve's pair table: the first call on a curve builds it in
    O(N^2 log N) and caches it read-only with the curve, and every scale
    after that costs one ``searchsorted``, O(log N).
    """
    if not r > 0:
        raise ValueError(f"scale r must be positive (got {r})")
    chords, values, pairs = c.cached("pair_table", lambda: _pair_table(c))
    k = int(np.searchsorted(chords, 2.0 * r, side="right")) - 1
    if k < 0:
        return 1.0, None
    i, j = pairs[k]
    return max(float(values[k]), 1.0), (int(i), int(j))


def global_distortion(c):
    """Unrestricted distortion: the local distortion at scale diam/2."""
    return local_distortion(c, c.diameter() / 2.0)


def scale_ladder(c):
    """Log-spaced radii from 2 * min edge length up to the diameter."""
    lo = 2.0 * c.min_edge()
    hi = c.diameter()
    if lo >= hi:
        lo = hi / 2.0
    return np.geomspace(lo, hi, LADDER_SIZE)


@dataclass
class DistortionProfile:
    """Local distortion along a ladder of scales plus the global value."""
    scales: np.ndarray
    values: np.ndarray
    pairs: list
    global_value: float
    global_pair: tuple


def distortion_profile(c):
    scales = scale_ladder(c)
    values = np.empty(LADDER_SIZE)
    pairs = []
    for k, r in enumerate(scales):
        v, pair = local_distortion(c, r)
        values[k] = v
        pairs.append(pair)
    g, gp = global_distortion(c)
    return DistortionProfile(scales=scales, values=values, pairs=pairs,
                             global_value=g, global_pair=gp)


def find_admissible_scale(c, threshold):
    """Largest ladder scale at which local distortion stays below threshold.

    Returns None when no rung qualifies.
    """
    if not 1.0 < threshold < math.pi / 2.0:
        raise ValueError(f"threshold must lie in (1, pi/2) (got {threshold})")
    scales = scale_ladder(c)
    for r in scales[::-1]:
        v, _ = local_distortion(c, r)
        if v < threshold:
            return float(r)
    return None


# -- equivalence certificate -----------------------------------------------


@dataclass
class EquivalenceCertificate:
    """Inputs and verdict of the local-distortion equivalence test.

    ``passed`` True is a *sufficient* condition for knot equivalence;
    False only means the test is inconclusive.
    """
    r1: float | None
    r2: float | None
    delta1: float | None
    delta2: float | None
    hausdorff: float
    min_edge1: float
    max_edge1: float
    min_edge2: float
    max_edge2: float
    threshold: float
    margin: float
    passed: bool
    verdict: str = field(init=False)

    def __post_init__(self):
        self.verdict = "equivalent" if self.passed else "inconclusive"

    def to_dict(self):
        return {
            "r1": self.r1, "r2": self.r2,
            "delta1": self.delta1, "delta2": self.delta2,
            "hausdorff": self.hausdorff,
            "min_edge1": self.min_edge1, "max_edge1": self.max_edge1,
            "min_edge2": self.min_edge2, "max_edge2": self.max_edge2,
            "threshold": self.threshold, "margin": self.margin,
            "pass": self.passed, "verdict": self.verdict,
        }


def certify_equivalence(a, b, threshold=None, margin=1e-3):
    """Run the sufficient equivalence test on two sampled knots.

    Searches each curve for the largest admissible scale with local
    distortion below ``threshold - margin`` (the margin absorbs the O(1/N)
    underestimate of the discrete supremum), then demands that the Hausdorff
    distance be below a quarter of the smaller scale.  The certificate also
    carries each curve's shortest and longest edge.  Raises ValueError
    unless ``margin`` is finite and >= 0 (a negative margin would certify
    at a distortion above the threshold) and ``threshold - margin`` lies in
    (1, pi/2).
    """
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be finite and >= 0 (got {margin})")
    if threshold is None:
        threshold = distortion_threshold(3)
    thr = threshold - margin
    if not 1.0 < thr < math.pi / 2.0:
        raise ValueError(
            f"threshold - margin must lie in (1, pi/2) (got {threshold} - "
            f"{margin} = {thr})")
    r1 = find_admissible_scale(a, thr)
    r2 = find_admissible_scale(b, thr)
    d1 = local_distortion(a, r1)[0] if r1 is not None else None
    d2 = local_distortion(b, r2)[0] if r2 is not None else None
    h = hausdorff_distance(a, b)
    ok = (r1 is not None and r2 is not None
          and d1 < thr and d2 < thr
          and h < 0.25 * min(r1, r2))
    return EquivalenceCertificate(
        r1=r1, r2=r2, delta1=d1, delta2=d2, hausdorff=h,
        min_edge1=a.min_edge(), max_edge1=a.max_edge(),
        min_edge2=b.min_edge(), max_edge2=b.max_edge(),
        threshold=threshold, margin=margin, passed=bool(ok))
