"""Run the benchmark over several seeds and workloads and summarize it.

Run from the repository root:

    python3 bench/report.py --seeds 1-10 --out summary.json

Every workload of BENCHMARK.json runs once per seed, each run a fresh
``bench/run.py`` process of BENCHMARK.json's ``run_seconds``.  For every
end-to-end metric the table gives the median over seeds, the quartile
spread (Q3 - Q1) / median from ``statistics.quantiles(values, n=4)``, and
that spread as a share of the metric's bound in BENCHMARK.json.  Failed
jobs are counted per workload.  The fixed-work times of the ``env`` lines
(``calib_py_s``, ``calib_mem_s``) get the same spread, so that a spread of
the metrics can be compared with that of the host's own speed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: env fields that differ from run to run; the summary lists them per seed
PER_RUN = ("seed", "jobs", "steal_share", "loadavg_1m", "calib_py_s",
           "calib_mem_s", "run_s")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    run_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return dict(json.loads(lines[-1]), env=dict(env, run_s=run_s))


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out", help="write the summary as JSON")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("need at least two seeds for quartiles")

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, spec["run_seconds"])
                for s in args.seeds]
        rows = {}
        for m in spec["end_to_end"]:
            rows[m["name"]] = dict(
                summarize([r["metrics"][m["name"]]["value"] for r in runs]),
                unit=m["unit"], bound=m["bound"])
        summary[workload] = {
            "env": {k: v for k, v in runs[0]["env"].items()
                    if k not in PER_RUN},
            **{k: [r["env"][k] for r in runs] for k in PER_RUN},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": rows,
        }
        s = summary[workload]
        print(f"{workload}: {len(runs)} runs, fail_ratio "
              f"{s['failed'] / s['attempted']!r} "
              f"({s['failed']}/{s['attempted']} jobs), correct={s['correct']}, "
              f"max steal share "
              f"{max(filter(None, s['steal_share']), default=None)}, "
              f"{sum(s['run_s']):.0f} s of runs")
        for name in ("calib_py_s", "calib_mem_s"):
            row = summarize(s[name])
            print(f"  {name:<12} {row['median']:<22.6g} s    "
                  f"spread {row['spread']:.4f} (host speed, not a metric)")
        for name, row in rows.items():
            print(f"  {name:<12} {row['median']:<22.6g} {row['unit']:<4} "
                  f"spread {row['spread']:.4f} = "
                  f"{row['spread'] / row['bound']:.2f} of bound {row['bound']}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
