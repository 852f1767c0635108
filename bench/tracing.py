"""Traced run: spans around the public functions of each knotgauge layer.

``Tracer.install`` replaces every function in LAYERS, in every knotgauge
module namespace that binds it (modules import by name, so ``flowfield``
binds ``point_to_polyline_distance`` and ``cli`` binds ``load_curve``), and
the listed ``Curve`` methods on the class, by a wrapper that records a span
(name, start, end, parent, job) in memory.  A span's self time is its
duration minus the time its direct children cover.

TARGETS names, for every function, the end-to-end metric and workload a
change to it should move.  ``concentration`` is left out: its only complete
path fails by design at the criterion-11 good-set gate, and its kernels are
traced in ``sobolev``.
"""

import csv
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict

LAYERS = {
    "curve": ("load_curve", "save_curve", "hausdorff_distance",
              "point_to_polyline_distance", "resample_arclength",
              "Curve.chord_matrix", "Curve.intrinsic_matrix"),
    "distortion": ("local_distortion", "find_admissible_scale",
                   "distortion_profile", "certify_equivalence"),
    "sobolev": ("tangent_density", "ball_window_sums",
                "fractional_admissible_scale", "bilip_constant",
                "seminorm_sq"),
    "substitution": ("substitute", "maximal_function", "excess_field",
                     "good_sets"),
    "flowfield": ("flow", "vector_field", "direction_set",
                  "direction_set_auto", "enclosing_ball"),
    "mobius": ("mobius_energy", "mobius_gradient", "symmetrize_curve",
               "symmetrize_field", "minimize_symmetric"),
    "cli": ("main",),
}

_PAIR = "job_p50_s@certify-2k,descent-256 peak_rss_mb@certify-2k"
_DIST = "job_p50_s@certify-2k iters_per_s@descent-256"
TARGETS = {
    "curve.load_curve": "job_p50_s@flow-512",
    "curve.save_curve": "job_p50_s@substitute-2k",
    "curve.hausdorff_distance": "job_p50_s@certify-2k",
    "curve.point_to_polyline_distance": "jobs_per_s@flow-512",
    "curve.resample_arclength": "iters_per_s@descent-256",
    "curve.chord_matrix": _PAIR,
    "curve.intrinsic_matrix": _PAIR,
    "distortion.local_distortion": _DIST,
    "distortion.find_admissible_scale": _DIST,
    "distortion.distortion_profile": _DIST,
    "distortion.certify_equivalence": _DIST,
    "sobolev.tangent_density": "job_p50_s@substitute-2k,certify-2k",
    "sobolev.ball_window_sums": "job_p50_s@certify-2k",
    "sobolev.fractional_admissible_scale": "job_p50_s@certify-2k",
    "sobolev.bilip_constant": "iters_per_s@descent-256 job_p50_s@substitute-2k",
    "sobolev.seminorm_sq": "job_p50_s@substitute-2k",
    "substitution.substitute": "job_p50_s@substitute-2k",
    "substitution.maximal_function": "job_p50_s@substitute-2k",
    "substitution.excess_field": "job_p50_s@substitute-2k",
    "substitution.good_sets": "job_p50_s@substitute-2k",
    "flowfield.flow": "jobs_per_s@flow-512",
    "flowfield.vector_field": "jobs_per_s@flow-512",
    "flowfield.direction_set": "jobs_per_s@flow-512",
    "flowfield.direction_set_auto": "jobs_per_s@flow-512",
    "flowfield.enclosing_ball": "jobs_per_s@flow-512",
    "mobius.mobius_energy": "iters_per_s@descent-256",
    "mobius.mobius_gradient": "iters_per_s@descent-256",
    "mobius.symmetrize_curve": "iters_per_s@descent-256",
    "mobius.symmetrize_field": "iters_per_s@descent-256",
    "mobius.minimize_symmetric": "iters_per_s@descent-256",
    "cli.main": "job_p50_s@flow-512",
    # ratios: wasted or reused work where it happens
    "curve.chord_matrix.reuse": _PAIR,
    "distortion.certify_equivalence.pass_ratio": "correctness signal",
    "flowfield.halvings_per_query": "jobs_per_s@flow-512",
    "mobius.trial_accept_ratio": "iters_per_s@descent-256",
}


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, job)
        self.job = -1
        self._stack = []
        self._patched = []
        self._asked = weakref.WeakSet()
        self.builds = 0          # distinct Curve objects asked for chords
        self.passed = 0          # certificates that passed
        self.accepted = 0        # accepted descent iterations

    def _observe(self, name, args, result):
        if name == "curve.chord_matrix" and args[0] not in self._asked:
            self._asked.add(args[0])
            self.builds += 1
        elif name == "distortion.certify_equivalence":
            self.passed += bool(result.passed)
        elif name == "mobius.minimize_symmetric":
            self.accepted += len(result.states) - 1

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self._observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.job)
                stack.pop()
            observe(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "knotgauge" or k.startswith("knotgauge.")]
        for layer, attrs in LAYERS.items():
            home = importlib.import_module(f"knotgauge.{layer}")
            for attr in attrs:
                cls, _, fname = attr.rpartition(".")
                name = f"{layer}.{fname}"
                if cls:
                    owner = getattr(home, cls)
                    self._patch(owner, fname, self._wrap(name, owner.__dict__[fname]))
                    continue
                orig = getattr(home, fname)
                wrapper = self._wrap(name, orig)
                for ns in namespaces:
                    if ns.__dict__.get(fname) is orig:
                        self._patch(ns, fname, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, jobs):
        """Per-layer metrics, per traced job, keyed by metric name."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        trials = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
            if (name == "mobius.mobius_energy" and parent >= 0
                    and self.spans[parent][0] == "mobius.minimize_symmetric"):
                trials += 1
        trials -= calls["mobius.minimize_symmetric"]  # initial energies
        out = {}
        for layer, attrs in LAYERS.items():
            for attr in attrs:
                name = f"{layer}.{attr.rpartition('.')[2]}"
                out[f"{name}.self_s"] = self_s[name] / jobs
                out[f"{name}.calls"] = calls[name] / jobs
        chord_calls = calls["curve.chord_matrix"]
        out["curve.chord_matrix.builds"] = self.builds / jobs
        out["curve.chord_matrix.reuse"] = _ratio(chord_calls, self.builds)
        out["distortion.certify_equivalence.pass_ratio"] = _ratio(
            self.passed, calls["distortion.certify_equivalence"])
        auto = calls["flowfield.direction_set_auto"]
        out["flowfield.halvings_per_query"] = (
            _ratio(calls["flowfield.direction_set"], auto) - 1.0 if auto else 0.0)
        out["mobius.trial_accept_ratio"] = _ratio(self.accepted, trials)
        return out

    def write(self, path):
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "job", "name", "parent", "start_s", "end_s"])
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                w.writerow([i, job, name, parent, repr(start - t0),
                            repr(end - t0)])
