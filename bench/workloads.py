"""The benchmark workloads: seeded inputs, CLI jobs and output checks.

A job is one user action on one generated input: one or more CLI
invocations, timed together, whose outputs are checked afterwards.  Jobs
are issued in rounds; a round holds one job of each kind a workload mixes
(verdict, flow direction, torus class) or every input once (racetracks),
so a run of any length sees the same mix.

``job(k)`` writes job k's per-job inputs before it is timed and returns
``(steps, check)``: ``steps`` is a list of ``(argv, expected exit code)``
and ``check(stdouts)`` returns the job's inner iteration count or raises
:class:`CheckFailed`.
"""

import csv
import json
import math
import os

import numpy as np

from inputs import (G3, admissible_scale, band_point, bump, racetrack,
                    rigid_motion, torus_knot, write_curve)

#: criterion 3: global distortion floor of a knotted curve
KNOTTED_FLOOR = 5.0 * math.pi / 3.0 - 1e-2


class CheckFailed(Exception):
    """A job's output does not meet its expected outcome."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _fmt(v):
    return repr(float(v))


class Workload:
    name = ""
    n = 0
    round_size = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        """Build and write the inputs shared by every job."""

    def job(self, k):
        raise NotImplementedError

    def kind(self, k):
        """Which of the round's job kinds job k is."""
        return k % self.round_size


class Certify(Workload):
    """analyze A --seminorm --profile, then certify A B, at N=2048.

    Even jobs pair A with a 1e-4 bump of itself (expect ``equivalent``,
    exit 0); odd jobs pair it with a (2,5) torus knot (``inconclusive``,
    exit 2).
    """
    name = "certify-2k"
    n = 2048
    round_size = 2

    def setup(self):
        self.trefoil = torus_knot(2, 3, self.n)
        self.other = torus_knot(2, 5, self.n)

    def job(self, k):
        rng = self.rng(k)
        a = rigid_motion(self.trefoil, rng)
        equivalent = k % 2 == 0
        b = bump(a, rng) if equivalent else rigid_motion(self.other, rng)
        pa, pb = self.path(f"a{k}.json"), self.path(f"b{k}.json")
        write_curve(pa, a)
        write_curve(pb, b)
        prof, arep, crep = (self.path(f"{s}{k}") for s in
                            ("profile.csv", "analyze.json", "certify.json"))
        verdict = "equivalent" if equivalent else "inconclusive"
        steps = [(["analyze", pa, "--seminorm", "--profile", prof,
                   "--out", arep], 0),
                 (["certify", pa, pb, "--out", crep], 0 if equivalent else 2)]

        def check(_stdouts):
            rep = _json(arep)
            _require(rep["delta_global"] >= KNOTTED_FLOOR,
                     f"delta_global {rep['delta_global']} below the knotted floor")
            _require(rep.get("seminorm_sq") is not None, "seminorm_sq is null")
            rungs = len(_csv_rows(prof))
            _require(rungs > 0, "empty distortion profile")
            got = _json(crep)["certificate"]["verdict"]
            _require(got == verdict, f"verdict {got}, expected {verdict}")
            return rungs
        return steps, check


class Flow(Workload):
    """flow on a moved trefoil at N=512, 256 RK4 steps per job.

    Even jobs run the increasing flow, odd jobs the decreasing one, from
    seeds in the distance bands of criterion 8.
    """
    name = "flow-512"
    n = 512
    round_size = 2
    steps = 256

    def setup(self):
        self.curve = rigid_motion(torus_knot(2, 3, self.n), self.rng(0, 0))
        self.file = self.path("trefoil.json")
        write_curve(self.file, self.curve)
        self.r_m = admissible_scale(self.curve, G3 - 1e-3)

    def job(self, k):
        r_m = self.r_m
        if k % 2 == 0:
            direction, lo, hi = "inc", 0.05 * r_m, 0.45 * r_m
            extra = ["--rho", _fmt(r_m / 8.0)]
        else:
            direction, lo, hi = "dec", 0.24 * r_m, 0.76 * r_m
            extra = ["--rho", _fmt(0.25 * r_m), "--delta", _fmt(0.8 * r_m)]
        seed_pt = band_point(self.curve, self.rng(k), lo, hi)
        trace = self.path(f"trace{k}.csv")
        # --seed=x,y,z: a value starting with '-' is not taken as an argument
        argv = ["flow", self.file, "--seed=" + ",".join(map(_fmt, seed_pt)),
                "--dir", direction, "--rM", _fmt(r_m), *extra,
                "--steps", str(self.steps), "--trace", trace]

        def check(_stdouts):
            dist = np.array([float(r["dist"]) for r in _csv_rows(trace)])
            _require(dist.size == self.steps + 1,
                     f"trace has {dist.size} rows, expected {self.steps + 1}")
            step = np.diff(dist) if direction == "inc" else -np.diff(dist)
            _require(bool(np.all(step >= -1e-6)), "trace distances not monotone")
            return self.steps
        return [(argv, 0)], check


class Descent(Workload):
    """minimize --n 256 --steps 100 over four torus classes, one per job.

    Each round runs every class once, in a seeded order.
    """
    name = "descent-256"
    n = 256
    classes = (("2,3", 3, 2), ("2,5", 5, 2), ("3,4", 4, 3), ("3,2", 2, 3))
    round_size = len(classes)
    steps = 100

    def kind(self, k):
        order = self.rng(k // self.round_size).permutation(self.round_size)
        return int(order[k % self.round_size])

    def job(self, k):
        torus, p, m = self.classes[self.kind(k)]
        log = self.path(f"log{k}.csv")
        argv = ["minimize", "--torus", torus, "--p", str(p), "--m", str(m),
                "--n", str(self.n), "--steps", str(self.steps), "--log", log]

        def check(stdouts):
            fields = dict(f.split("=", 1) for f in stdouts[0].split()
                          if "=" in f)
            _require(fields.get("status") == "ok",
                     f"status={fields.get('status')}")
            iterations = int(fields["iterations"])
            energy = [float(r["energy"]) for r in _csv_rows(log)]
            _require(len(energy) == iterations + 1,
                     f"log has {len(energy)} rows for {iterations} iterations")
            _require(all(b < a for a, b in zip(energy, energy[1:])),
                     "energies do not strictly decrease")
            return iterations
        return [(argv, 0)], check


class Substitute(Workload):
    """substitute --r 0.05 at the straight-side center of 20 racetracks
    (N=2048), one track per job in turn.

    A round runs every track once, so every run sees each track equally
    often.  The tracks are one kind of job: same N, same radius.
    """
    name = "substitute-2k"
    n = 2048
    tracks = 20
    round_size = tracks

    def setup(self):
        self.files, self.centers = [], []
        for i in range(self.tracks):
            q, center = racetrack(self.n, self.rng(i))
            self.files.append(self.path(f"track{i}.json"))
            self.centers.append(center)
            write_curve(self.files[-1], q)

    def kind(self, k):
        return 0

    def job(self, k):
        i = k % self.tracks
        rep, out = self.path(f"report{k}.json"), self.path(f"out{k}.json")
        argv = ["substitute", self.files[i], "--center", _fmt(self.centers[i]),
                "--r", "0.05", "--report", rep, "--out", out]

        def check(_stdouts):
            flags = _json(rep)["flags"]
            _require(flags and all(flags.values()), f"flags {flags}")
            n_out = len(_json(out)["samples"])
            _require(n_out == self.n, f"modified curve has {n_out} samples")
            return 1
        return [(argv, 0)], check


WORKLOADS = {w.name: w for w in (Certify, Flow, Descent, Substitute)}
