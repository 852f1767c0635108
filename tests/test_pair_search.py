"""The branch-and-bound queries over a curve's index-interval tree against
full scans of its pairs: the embeddedness verdict and the diameter
(``Curve._chords``), c* and the capped maximum of the certificate's rung,
and the far-pair minimum of the seminorm scale."""

import math

import numpy as np
import pytest

from knotgauge.curve import (TREE_LEAF, Curve, NodePairs, circle,
                             param_distance)
from knotgauge.distortion import (_admissible_rung, _rung_distortion,
                                  _rung_maxima, _threshold_chord,
                                  distortion_profile, distortion_threshold)
from knotgauge.mobius import torus_knot
from knotgauge.sobolev import _far_chord, _ladder, fractional_admissible_scale
from util import random_rotation

THR = distortion_threshold(3) - 1e-3


def _racetrack(n):
    """A stadium of straight sides 2 and caps of radius 1, sampled at equal
    arclength: the straight sides hold exactly collinear vertices."""
    s = np.arange(n) * ((4.0 + 2.0 * np.pi) / n)
    q = np.zeros((n, 3))
    for lo, hi, point in [
            (0.0, 2.0, lambda u: (u - 1.0, -1.0)),
            (2.0, 2.0 + np.pi, lambda u: (1.0 + np.sin(u), -np.cos(u))),
            (2.0 + np.pi, 4.0 + np.pi, lambda u: (1.0 - u, 1.0)),
            (4.0 + np.pi, 4.0 + 2.0 * np.pi,
             lambda u: (-1.0 - np.sin(u), np.cos(u)))]:
        on = (s >= lo) & (s < hi)
        q[on, 0], q[on, 1] = point(s[on] - lo)
    return Curve(q)


def _moved(c, seed):
    """``c`` under a seeded rigid motion, its indices rolled so that vertex
    0 moves."""
    rng = np.random.default_rng(seed)
    q = c.samples @ random_rotation(seed).T + rng.normal(scale=2.0, size=3)
    return Curve(np.roll(q, int(rng.integers(1, c.n)), axis=0))


KINDS = {
    "random": lambda n: Curve(np.random.default_rng(n).normal(size=(n, 3))),
    "circle": circle,
    "racetrack": _racetrack,
    "torus23": lambda n: torus_knot(2, 3, n=n),
    "torus25": lambda n: torus_knot(2, 5, n=n),
}


def _scan_chords(c):
    """``(embedded, diameter)`` from a pass over every upper block."""
    verdicts = [c._block_verdict(b, True, chords)
                for b, chords in c._chord_blocks(True)]
    return all(ok for ok, _ in verdicts), max(top for _, top in verdicts)


def _scan_threshold_chords(c, thresholds):
    """c* of each threshold from one pass over the pairs i < j."""
    best = np.full(len(thresholds), math.inf)
    for _, chords, ratios in c.pair_blocks():
        with np.errstate(invalid="ignore"):
            ratios /= chords
        for k, thr in enumerate(thresholds):
            best[k] = min(best[k], np.min(chords, where=ratios >= thr,
                                          initial=math.inf))
    return best


def _scan_far_chords(c, gaps):
    """The far-pair minimum of ``fractional_admissible_scale`` before the
    tree, at each gap (2 rho)."""
    t = c.params()
    sigma = np.full(len(gaps), math.inf)
    for b, chords in c.chord_blocks():
        dist = param_distance(t[b, None], t[b.start:])
        for k, gap in enumerate(gaps):
            sigma[k] = min(sigma[k], float(np.min(chords, where=dist >= gap,
                                                  initial=math.inf)))
    return sigma


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


@pytest.mark.parametrize("n", [8, 9, 64, 257, 2049])
@pytest.mark.parametrize("kind", list(KINDS))
def test_queries_equal_full_scans(kind, n):
    c = _moved(KINDS[kind](n), n)
    tree, scan = Curve(c.samples), Curve(c.samples)
    assert tree._chords() == _scan_chords(scan)
    assert "profile" not in tree._cache

    # thresholds on the ratio of a pair and on the global distortion;
    # caps on the chords of some pairs, the diameter and c*
    _, first, arcs = next(Curve(c.samples).pair_blocks())
    i, j = n // 3, n // 2 - 1
    pair_ratio = arcs[0, i] / first[0, i]
    (top,), _ = _rung_maxima(scan, np.array([math.inf]))
    thresholds = _with_neighbours([THR, pair_ratio, top])
    want = _scan_threshold_chords(scan, thresholds)
    for thr, star in zip(thresholds, want):
        assert _threshold_chord(tree, thr) == star
    caps = _with_neighbours([first[0, i], first[1, j], first[0, 1],
                             tree.diameter(), *want[np.isfinite(want)]])
    caps.sort()
    values, _ = _rung_maxima(scan, caps)
    for cap, value in zip(caps, values):
        assert _rung_distortion(tree, cap) == max(1.0, value)

    # gaps on the parameter distance of a pair, and two of the ladder
    t = c.params()
    gaps = np.concatenate([
        _with_neighbours([param_distance(t[0], t[i]),
                          param_distance(t[1], t[1 + n // 4])]),
        2.0 * _ladder(n)[[20, -1]]])
    for gap, sigma in zip(gaps, _scan_far_chords(scan, gaps)):
        assert _far_chord(tree, gap) == sigma

    # the certificate's rung and the profile's, bit for bit
    prof = distortion_profile(scan)
    below = np.flatnonzero(prof.values < THR)
    rung = (None, None) if not below.size else (
        float(prof.scales[below[-1]]), float(prof.values[below[-1]]))
    assert _admissible_rung(tree, THR) == rung


def test_far_pair_scale_equals_the_scan():
    c = torus_knot(2, 3, n=512)
    rho, r_gamma = fractional_admissible_scale(c)
    assert r_gamma == _scan_far_chords(Curve(c.samples), [2.0 * rho])[0] / 4


def test_no_surviving_node_pair():
    # no pair reaches these thresholds, gaps or caps: every node pair is
    # dropped at the first level searched
    c = circle(2048)
    assert _threshold_chord(c, 10.0) == math.inf
    assert _far_chord(c, 0.75) == math.inf
    assert _rung_distortion(c, 0.5 * c.min_edge()) == 1.0


def test_ratio_bound_without_turning():
    # the root pair of a circle turns by about 2 pi both ways, and its
    # balls overlap: no bound
    c = circle(64)
    pairs = NodePairs(c, np.array([1]), np.array([1]))
    assert pairs.near[0] < 0.0
    assert pairs.ratio[0] == math.inf


def test_pairs_across_index_zero_bound_backward():
    # the first and the last leaf of a circle: forward they span the
    # whole circle, backward, across index 0, two leaves, which turn by
    # 30 * 2 pi / 256 at their inner vertices: the bound is 1/cos of half
    c = circle(256)
    first, last = 16, 31
    assert c.interval_tree().stop[first] == TREE_LEAF
    assert c.interval_tree().start[last] == 256 - TREE_LEAF
    pairs = NodePairs(c, np.array([first]), np.array([last]))
    assert pairs.near[0] > 0.0
    bound = pairs.ratio[0]
    s = c.cum_lengths()
    gap = np.abs(s[:16, None] - s[None, 240:256])
    arc = np.minimum(gap, c.total_length() - gap)
    chord = np.linalg.norm(c.samples[:16, None] - c.samples[None, 240:],
                           axis=2)
    assert (arc / chord).max() <= bound
    assert bound == pytest.approx(1.0 / math.cos(30 * math.pi / 256),
                                  rel=1e-8)
    assert pairs.sep[0] == 31
