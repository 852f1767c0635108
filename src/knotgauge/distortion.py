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

from .curve import hausdorff_distance

#: threshold sequence limit: the distortion of a quarter circle
G_INF = math.pi / math.sqrt(8.0)

#: number of rungs in every scale ladder
LADDER_SIZE = 40

#: chord buckets of the pair table's filter; at N=2048 256 and 1024 build
#: the table alike, and 4096 already costs more than it filters out
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


def _state_changes(lengths, ratios, flat, n):
    """The pairs that become the running state when taken in chord order,
    the last of each run of equal chords only.

    The state after a prefix is its largest intrinsic/chord ratio with the
    smallest flat index i*N + j attaining it.  A pair outside the result is
    beaten by one of no larger chord, so no prefix of whole chord values
    (what a query sees) answers differently without it.  A query reads
    only the last entry of equal chords, the state after all of them,
    which does not depend on their order; so the result does not either,
    and the faster unstable sort serves.
    """
    order = np.argsort(lengths)
    return _running_state(lengths[order], ratios[order], flat[order], n)


def _running_state(lengths, ratios, flat, n):
    """:func:`_state_changes` of pairs already in increasing chord."""
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
    last = np.ones(keep.size, dtype=bool)
    last[:-1] = lengths[keep[1:]] != lengths[keep[:-1]]
    keep = keep[last]
    return lengths[keep], ratios[keep], flat[keep]


def _merge(table, block):
    """Two triples ``(lengths, ratios, flat)``, each in increasing chord,
    merged into one in increasing chord; O(len) beyond a binary search per
    entry of ``block``."""
    at = np.searchsorted(table[0], block[0]) + np.arange(block[0].size)
    into = np.ones(table[0].size + block[0].size, dtype=bool)
    into[at] = False
    merged = []
    for old, new in zip(table, block):
        m = np.empty(into.size, dtype=old.dtype)
        m[into], m[at] = old, new
        merged.append(m)
    return merged


def _diameter_bound(c):
    """An upper bound on the diameter read in O(N): twice the largest
    distance from the first vertex (the triangle inequality)."""
    return 2.0 * float(np.sqrt(np.max(
        np.sum((c.samples - c.samples[0]) ** 2, axis=1))))


def _pair_table(c):
    """The curve's pair table, which :func:`local_distortion` caches
    read-only with it.

    Three arrays ``(chords, values, pairs)`` in increasing chord: the pairs
    i < j that become the running maximum of intrinsic/chord (ties to the
    lexicographically smallest pair) when the pairs are taken in chord
    order, the last of equal chords only, with their chords and ratios;
    the table depends on the pairs alone.  The local distortion at
    scale r is then the last entry with chord <= 2r.  The chords are read
    once, block by block, with the intrinsic distances alongside, through
    :meth:`~knotgauge.curve.Curve.pair_blocks`, so the build keeps no
    N x N array; on a curve that has had no full scan yet, it also takes
    the embeddedness verdict and the diameter.

    One pass over the upper row blocks merges each block into the table of
    the rows before it.  A pair whose ratio is below that of a pair with a
    smaller chord never becomes the running maximum, so it is dropped
    before any sort.  ``best_below[k]`` holds the best ratio among the
    pairs kept so far whose chord bucket ``int(chord * scale)``, with
    scale = ``_CHORD_BUCKETS`` over an upper bound on the diameter
    (:func:`_diameter_bound`), is below k; that index is monotone in the
    chord, so each of those pairs has a smaller chord than any pair in
    bucket k, and any bound gives the same table.  A block's pairs are
    filtered against the rows before them, counted, and filtered again
    against each other; ties are kept for the lexicographic tie-break.
    The survivors are sorted and reduced to their own state changes,
    which are merged into the sorted table in linear time; the table is
    never sorted again.  Building costs O(N^2) filtering in row blocks of
    small temporaries plus a sort of each block's survivors: about 80K of
    the 2.1M pairs of a trefoil at N=2048, whose table holds 92 entries,
    but nearly every pair of a circle, whose ratio grows with the chord.
    Raises
    :class:`~knotgauge.curve.EmbeddingError` on coincident samples.
    """
    n = c.n
    scale = _CHORD_BUCKETS / _diameter_bound(c)
    table = (np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))
    best_below = np.full(_CHORD_BUCKETS + 2, -np.inf)
    for b, chords, ratios in c.pair_blocks():
        # the block's columns b.start: hold all the pairs i < j of its rows
        lo = b.start
        width = n - lo
        # the diagonal's 0/0 is NaN, which no comparison keeps
        with np.errstate(invalid="ignore"):
            ratios /= chords
        buckets = (chords * scale).astype(np.intp)
        flat = np.flatnonzero(ratios >= best_below[buckets])
        # block row and column of each survivor, kept when i < j
        row, col = np.divmod(flat, width)
        keep = col > row
        flat, row, col = flat[keep], row[keep], col[keep]
        # count the survivors, then drop those that others among them beat
        r, k = ratios.ravel()[flat], buckets.ravel()[flat]
        np.maximum.at(best_below, k + 1, r)
        np.maximum.accumulate(best_below, out=best_below)
        keep = r >= best_below[k]
        block = (chords.ravel()[flat[keep]], r[keep],
                 (row[keep] + lo) * n + col[keep] + lo)
        table = _running_state(*_merge(table, _state_changes(*block, n)), n)
    lengths, ratios, flat = table
    return lengths, ratios, np.stack(np.divmod(flat, n), axis=1)


def _cached_table(c):
    return c.cached("pair_table", lambda: _pair_table(c))


def local_distortion(c, r):
    """Local distortion of the sampled curve at scale r, with its argmax pair.

    Supremum of intrinsic/chord over sample pairs with chord <= 2r;
    returns 1.0 with pair None when no pair qualifies.  Ties resolve to the
    lexicographically smallest (i, j).

    Reads the curve's pair table: the first call on a curve builds it,
    O(N^2) filtering plus a sort of the pairs that pass (see
    :func:`_pair_table`), and caches it read-only with the curve, and every
    scale after that costs one ``searchsorted``, O(log N).
    """
    if not r > 0:
        raise ValueError(f"scale r must be positive (got {r})")
    chords, values, pairs = _cached_table(c)
    k = int(np.searchsorted(chords, 2.0 * r, side="right")) - 1
    if k < 0:
        return 1.0, None
    i, j = pairs[k]
    return max(float(values[k]), 1.0), (int(i), int(j))


def global_distortion(c):
    """Unrestricted distortion: the local distortion at scale diam/2."""
    _cached_table(c)    # its scan also yields the diameter
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
    """The local distortion at every rung of :func:`scale_ladder`.  The
    pair table is built first, so that its scan also yields the diameter
    the ladder ends at."""
    _cached_table(c)
    scales = scale_ladder(c)
    values = np.empty(LADDER_SIZE)
    pairs = []
    for k, r in enumerate(scales):
        v, pair = local_distortion(c, r)
        values[k] = v
        pairs.append(pair)
    return DistortionProfile(scales=scales, values=values, pairs=pairs)


def _admissible_rung(c, threshold):
    """Scale and distortion ``(r, delta)`` of the largest
    :func:`distortion_profile` rung with distortion below threshold, or
    ``(None, None)`` when no rung qualifies."""
    prof = distortion_profile(c)
    below = np.flatnonzero(prof.values < threshold)
    if not below.size:
        return None, None
    k = below[-1]
    return float(prof.scales[k]), float(prof.values[k])


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
    allowance for the vertex sampling, not a bound), then demands that the
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
