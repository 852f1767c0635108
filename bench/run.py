"""Benchmark of the knotgauge CLI: one workload, one seed, one result line.

Run from the repository root:

    python3 bench/run.py --workload certify-2k --seed 1 --seconds 20 --trace 0

The program is imported from ./src and driven in process through
``knotgauge.cli.main(argv)``, one job after another: a closed loop with one
client.  Jobs are issued in whole rounds (see workloads.py), as many as end
closest to ``--seconds``.  Every job's outputs are checked.  Generated
inputs live in ./.bench_work and are removed at exit.

The last line of stdout is the JSON result.  With ``--trace 0`` its metrics
are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` every
second round runs traced, and the metrics are the per-layer ones of
tracing.py plus the tracing overhead.  The earlier lines give the
environment and every metric by name, with its unit.
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: BLAS threads for the run (must stay <= nproc); set before numpy loads
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh processes timed for setup_s; the median is reported.  Set-up is
#: mostly importing numpy, scipy and knotgauge, which a process does only
#: once, so each repetition needs a process of its own.
SETUP_PROBES = 7


@dataclass
class JobRecord:
    seconds: float
    ok: bool
    iterations: int
    traced: bool
    kind: int


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR",
                    help=argparse.SUPPRESS)  # internal: time one fresh setup
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_program():
    """Import knotgauge from ./src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import knotgauge.cli
    found = Path(knotgauge.cli.__file__).resolve().parents[1]
    if found != src.resolve():
        raise ImportError(f"knotgauge imported from {found}, not {src}")
    return knotgauge.cli


def time_setup(args, workdir):
    """Wall time of fresh processes that import the program and write the
    inputs up to the first job, median of SETUP_PROBES."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "1", "--setup-probe", str(workdir / f"probe{i}")]
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    ticks = [int(x) for x in fields[1:9]]  # user .. steal; guest is in user
    return ticks[7], sum(ticks)


def host_load(before, after):
    """Share of CPU time the hypervisor stole during the run, and the load
    average at its end, so host drift can be told from program changes."""
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return {"steal_share": steal, "loadavg_1m": os.getloadavg()[0]}


def calibrate():
    """Median seconds of three repetitions of fixed work: a pure-Python
    loop, and passes over a 32 MB array, far above L2.  It runs after the
    jobs and after peak RSS is read.  It is recorded beside the metrics and
    never applied to them: when the host's speed drifts while steal time
    stays near zero, the drift shows here."""
    import numpy as np
    arr = np.ones(4 << 20)
    py, mem = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i for i in range(400_000))
        t1 = time.perf_counter()
        for _ in range(8):
            arr.sum()
        py.append(t1 - t0)
        mem.append(time.perf_counter() - t1)
    return {"calib_py_s": statistics.median(py),
            "calib_mem_s": statistics.median(mem)}


def run_job(cli, wl, k, traced):
    from workloads import CheckFailed
    steps, check = wl.job(k)
    elapsed = 0.0
    stdouts = []
    try:
        for argv, expected in steps:
            out, err = io.StringIO(), io.StringIO()
            sys.argv = ["knotgauge", *argv]
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.main(argv)
            finally:
                elapsed += time.perf_counter() - t0
            if rc != expected:
                raise CheckFailed(f"{argv[0]} exited {rc}, expected "
                                  f"{expected}: {err.getvalue().strip()}")
            stdouts.append(out.getvalue())
        return JobRecord(elapsed, True, check(stdouts), traced, wl.kind(k))
    except CheckFailed as exc:
        print(f"job {k} failed: {exc}", file=sys.stderr)
    except Exception:  # a crashing job is a failed job; the run goes on
        print(f"job {k} raised:\n{traceback.format_exc()}", file=sys.stderr)
    return JobRecord(elapsed, False, 0, traced, wl.kind(k))


def run_jobs(cli, wl, seconds, tracer=None):
    """Closed loop of whole rounds.  Runs the number of rounds whose end,
    predicted from the mean round so far, lies closest to ``seconds``: at
    least one, or two with a tracer, which traces every second round so
    that traced and untraced jobs share the machine's drift."""
    records = []
    k = 0
    rounds = 0
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for _ in range(wl.round_size):
                if traced:
                    tracer.job = k
                records.append(run_job(cli, wl, k, traced))
                k += 1
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - t0
        after_next = elapsed * (rounds + 1) / rounds
        if (rounds >= (2 if tracer else 1)
                and abs(elapsed - seconds) <= abs(after_next - seconds)):
            return records


def jobs_per_s(records):
    """Correct jobs per second of job wall time."""
    return sum(r.ok for r in records) / sum(r.seconds for r in records)


def job_p50(records):
    """Median job time of each job kind, averaged over the kinds.  Where a
    round mixes kinds of different cost, a plain median falls in the gap
    between them and jumps with the run's last few jobs."""
    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.seconds)
    return statistics.fmean(statistics.median(t) for t in kinds.values())


def end_to_end(records, setup_s):
    durations = [r.seconds for r in records]
    busy = sum(durations)
    p90 = (statistics.quantiles(durations, n=10, method="inclusive")[8]
           if len(durations) > 1 else durations[0])
    return {
        "jobs_per_s": jobs_per_s(records),
        "job_p50_s": job_p50(records),
        "job_p90_s": p90,
        "iters_per_s": sum(r.iterations for r in records if r.ok) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced_run(cli, wl, args):
    """Per-layer metrics plus the tracing overhead; spans go to .bench_out/."""
    from tracing import Tracer
    tracer = Tracer()
    records = run_jobs(cli, wl, args.seconds, tracer)
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.untraced_jobs_per_s"] = jobs_per_s(untraced)
    metrics["trace.traced_jobs_per_s"] = jobs_per_s(traced)
    metrics["trace.overhead_jobs_per_s"] = (
        metrics["trace.traced_jobs_per_s"] - metrics["trace.untraced_jobs_per_s"])
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{wl.name}-seed{args.seed}.csv")
    return records, metrics


def environment(args, wl, records, host):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name, "n": wl.n, "jobs": len(records),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(), **host,
    }


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    try:
        cli = load_program()
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]

    if args.setup_probe:
        wl = make(args.seed, args.setup_probe)
        wl.setup()
        wl.job(0)
        return 0

    units = declared_metrics(args.trace)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = None if args.trace else time_setup(args, workdir)
        wl = make(args.seed, str(workdir / "run"))
        wl.setup()
        ticks = cpu_ticks()
        if args.trace:
            records, metrics = traced_run(cli, wl, args)
        else:
            records = run_jobs(cli, wl, args.seconds)
            metrics = end_to_end(records, setup_s)
        host = {**host_load(ticks, cpu_ticks()), **calibrate()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    failed = sum(not r.ok for r in records)
    print("env " + json.dumps(environment(args, wl, records, host), sort_keys=True))
    print(f"{wl.name} fail_ratio = {failed / len(records)!r} "
          f"({failed}/{len(records)} jobs)")
    from tracing import TARGETS
    for name, value in metrics.items():
        target = TARGETS.get(name) or TARGETS.get(name.rsplit(".", 1)[0])
        note = f"  -> {target}" if args.trace and target else ""
        print(f"{wl.name} {name} = {value!r} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
