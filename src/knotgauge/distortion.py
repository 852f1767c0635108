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
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import brentq

from .curve import hausdorff_distance, pair_search

#: threshold sequence limit: the distortion of a quarter circle
G_INF = math.pi / math.sqrt(8.0)

#: number of rungs in every scale ladder
LADDER_SIZE = 40

#: chord buckets of the rung scan's prefilter, up to the last limit; any
#: count gives the same answers, and the count only moves the cost
_CHORD_BUCKETS = 1024


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


def _rung_maxima(c, limits):
    """The largest intrinsic/chord ratio over the pairs i < j with chord <=
    each of the ascending chord ``limits``, and the smallest flat index
    i*N + j attaining it (the lexicographically smallest pair), -inf and -1
    where no pair qualifies.

    One pass over :meth:`~knotgauge.curve.Curve.pair_blocks`, so no N x N
    array is kept; on a curve that has no verdict yet, it also takes the
    embeddedness verdict and the diameter.  Each pair falls in the bin
    of the first limit it meets, or in a sink past the last one that holds
    +inf and is never read, and each bin keeps its largest ratio with the
    first pair that reached it: a later block, whose rows are larger,
    replaces it only with a strictly larger ratio, and inside a block the
    first flat position wins, which is the pair i < j, ahead of its twin
    (j, i).  A rung's answer is then the running maximum of the bins, with
    the smallest kept index among the bins up to it that attain it.

    Most pairs are dropped before they are binned.  ``first[u]`` is the
    first bin a pair of chord bucket u = int(chord * scale) can fall in
    (rounding is monotone), so a pair whose ratio is at most ``need[u]``,
    the running maximum of the earlier blocks' bins at ``first[u]``, is
    beaten or tied by a pair of no larger chord and a smaller index.  Any
    positive scale gives the same answer; this one puts the last limit at
    ``_CHORD_BUCKETS`` and keeps every bucket finite, since no chord
    exceeds half the length.  Raises
    :class:`~knotgauge.curve.EmbeddingError` on coincident samples.
    """
    n, m = c.n, len(limits)
    bins = np.full(m + 1, -np.inf)
    bins[m] = np.inf
    hits = np.full(m + 1, -1, dtype=np.intp)
    length = c.total_length()
    scale = _CHORD_BUCKETS / np.clip(limits[-1], 2.0**-40 * length, length)
    first = np.searchsorted(limits * scale, np.arange(_CHORD_BUCKETS + 2))
    need = np.maximum.accumulate(bins)[first]
    for b, chords, ratios in c.pair_blocks():
        # the diagonal's 0/0 is NaN, which no comparison keeps
        with np.errstate(invalid="ignore"):
            ratios /= chords
        buckets = (chords * scale).astype(np.intp)
        cand = np.flatnonzero(ratios > need.take(buckets, mode="clip"))
        if not cand.size:
            continue
        r = ratios.ravel()[cand]
        k = np.searchsorted(limits, chords.ravel()[cand])
        top = np.full(m + 1, -np.inf)
        np.fmax.at(top, k, r)
        rose = top > bins
        if not rose.any():
            continue
        hit = np.flatnonzero(rose[k] & (r == top[k]))
        got, at = np.unique(k[hit], return_index=True)
        row, col = np.divmod(cand[hit[at]], n - b.start)
        bins[got], hits[got] = top[got], (row + b.start) * n + col + b.start
        need = np.maximum.accumulate(bins)[first]
    values = np.maximum.accumulate(bins[:m])
    flats = hits[:m].copy()
    for k in range(1, m):
        if bins[k] < values[k - 1]:
            flats[k] = flats[k - 1]
        elif bins[k] == values[k - 1]:
            flats[k] = min(flats[k], flats[k - 1])
    return values, flats


def local_distortion(c, r):
    """Local distortion of the sampled curve at scale r, with its argmax pair.

    Supremum of intrinsic/chord over sample pairs with chord <= 2r;
    returns 1.0 with pair None when no pair qualifies.  Ties resolve to the
    lexicographically smallest (i, j).  Each call is one
    :func:`_rung_maxima` scan of the pairs, O(N^2), uncached.
    """
    if not r > 0:
        raise ValueError(f"scale r must be positive (got {r})")
    (value,), (flat,) = _rung_maxima(c, np.array([2.0 * r]))
    if flat < 0:
        return 1.0, None
    i, j = divmod(int(flat), c.n)
    return max(float(value), 1.0), (i, j)


def global_distortion(c):
    """Unrestricted distortion: the local distortion at scale diam/2."""
    return local_distortion(c, c.diameter() / 2.0)


def scale_ladder(c):
    """Log-spaced radii from 2 * min edge length up to the diameter.

    The top rung is the diameter exactly, so its local distortion is the
    global one."""
    lo = 2.0 * c.min_edge()
    hi = c.diameter()
    if lo >= hi:
        lo = hi / 2.0
    return np.geomspace(lo, hi, LADDER_SIZE)


@dataclass
class DistortionProfile:
    """Local distortion along a ladder of scales; the top rung's value and
    pair are the global ones."""
    scales: np.ndarray
    values: np.ndarray
    pairs: list


def distortion_profile(c):
    """The local distortion at every rung of :func:`scale_ladder`, from one
    :func:`_rung_maxima` scan at twice the rungs, cached with the curve.
    On a curve that has had no full chord scan, the ladder's diameter
    comes from a tree search (:meth:`~knotgauge.curve.Curve.diameter`), so
    the profile is still one pass over the pairs."""
    def build():
        scales = scale_ladder(c)
        values, flats = _rung_maxima(c, 2.0 * scales)
        return scales, np.maximum(values, 1.0), flats
    scales, values, flats = c.cached("profile", build)
    pairs = [None if f < 0 else divmod(int(f), c.n) for f in flats]
    return DistortionProfile(scales=scales, values=values, pairs=pairs)


def _admissible_rung(c, threshold):
    """Scale and distortion ``(r, delta)`` of the largest
    :func:`distortion_profile` rung with distortion below threshold, or
    ``(None, None)`` when no rung qualifies, cached per curve and
    threshold; no profile is read.

    The distortion at a rung stays below threshold exactly when no pair
    with chord <= twice the rung has ratio >= threshold, that is, when
    twice the rung is below c*, the smallest chord of such a pair
    (:func:`_threshold_chord`).  So the rung is the last ladder rung whose
    limit is below c*, and its distortion is :func:`_rung_distortion`,
    the profile's float at that rung.
    """
    def build():
        scales = scale_ladder(c)
        limits = 2.0 * scales
        below = np.flatnonzero(limits < _threshold_chord(c, threshold))
        if not below.size:
            return None, None
        k = below[-1]
        return float(scales[k]), _rung_distortion(c, limits[k])
    return c.cached(("admissible_rung", threshold), build)


def _arc_positions(c):
    """The positions and the period whose gaps are the shorter arcs, for
    :func:`~knotgauge.curve.pair_search`."""
    return c.cum_lengths()[:-1], c.total_length()


def _threshold_chord(c, threshold):
    """c*: the smallest chord over the pairs i < j whose intrinsic/chord
    ratio is >= threshold, inf when no pair has one; by
    :func:`~knotgauge.curve.pair_search`, which drops a node pair whose
    chords reach the best c* so far or whose ratios stay below threshold.
    Raises :class:`~knotgauge.curve.EmbeddingError` on coincident
    samples."""
    c.check_embedded()

    def leaf(chords, arcs, best):
        # the pairs (i, i) give 0/0, which no comparison keeps
        with np.errstate(invalid="ignore"):
            ratios = np.divide(arcs, chords, out=arcs)
        return min(best, float(np.min(chords, where=ratios >= threshold,
                                      initial=math.inf)))

    return pair_search(
        c, lambda pairs: np.where(pairs.ratio >= threshold, pairs.near,
                                  math.inf),
        leaf, math.inf, positions=_arc_positions(c))


def _rung_distortion(c, limit):
    """The profile's distortion at the rung of chord limit ``limit``: the
    largest intrinsic/chord ratio over the pairs with chord <= limit, and
    at least 1.0, by :func:`~knotgauge.curve.pair_search`, which drops a
    node pair whose chords all exceed the limit or whose ratios cannot
    beat the best so far.  Raises :class:`~knotgauge.curve.EmbeddingError`
    on coincident samples."""
    c.check_embedded()

    def leaf(chords, arcs, best):
        with np.errstate(invalid="ignore"):
            ratios = np.divide(arcs, chords, out=arcs)
        # fmax skips the pairs (i, i), whose 0/0 is NaN
        return max(best, float(np.fmax.reduce(
            ratios, axis=None, where=chords <= limit, initial=-math.inf)))

    return max(1.0, pair_search(
        c, lambda pairs: np.where(pairs.near <= limit, pairs.ratio,
                                  -math.inf),
        leaf, -math.inf, positions=_arc_positions(c), largest=True))


def find_admissible_scale(c, threshold):
    """Largest :func:`distortion_profile` scale with distortion below threshold.

    Returns None when no rung qualifies.
    """
    if not 1.0 < threshold < math.pi / 2.0:
        raise ValueError(f"threshold must lie in (1, pi/2) (got {threshold})")
    return _admissible_rung(c, threshold)[0]


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
        """The fields by name, ``passed`` written as ``pass``."""
        return {("pass" if f.name == "passed" else f.name):
                getattr(self, f.name) for f in fields(self)}


def certify_equivalence(a, b, threshold=None, margin=1e-3):
    """Run the sufficient equivalence test on two sampled knots.

    Reads the scale and distortion of each curve's largest profile rung
    with local distortion below ``threshold - margin`` (a heuristic
    allowance for the vertex sampling, not a bound), from two tree
    searches per curve and no scan of its pairs (:func:`_admissible_rung`;
    the diameter of the ladder comes from the curve's first full chord
    scan, or from a tree search too), then demands that the
    Hausdorff distance be below a quarter of the smaller scale.  The certificate also
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
    r1, d1 = _admissible_rung(a, thr)
    r2, d2 = _admissible_rung(b, thr)
    h = hausdorff_distance(a, b)
    ok = (r1 is not None and r2 is not None
          and h < 0.25 * min(r1, r2))
    return EquivalenceCertificate(
        r1=r1, r2=r2, delta1=d1, delta2=d2, hausdorff=h,
        min_edge1=a.min_edge(), max_edge1=a.max_edge(),
        min_edge2=b.min_edge(), max_edge2=b.max_edge(),
        threshold=threshold, margin=margin, passed=bool(ok))
