"""Digest of every output the benchmark jobs write, to check bit-identity.

    python3 tools/output_digest.py --src src > after.txt
    python3 tools/output_digest.py --src ../other-checkout/src > before.txt
    diff before.txt after.txt

Runs round 1 of seed 1 of every benchmark workload in process through
``knotgauge.cli.main(argv)``, imported from ``--src``.  The job inputs come
from the generators in ``bench/``, which are only read.  The jobs run in one fixed work directory outside the repository, so that the
paths echoed in reports are the same from run to run; it must not exist
beforehand and is removed at exit.  Prints one line per job step (its exit
code and the sha256 of its stdout and stderr) and one per output file (its
sha256), so that two runs diff clean exactly when every output is the same
bit for bit.
"""

import argparse
import hashlib
import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the benchmark's seed and BLAS thread count
SEED = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_cli(src):
    """Import knotgauge from ``src``, never from an installed copy."""
    sys.path.insert(0, str(src))
    import knotgauge.cli
    found = Path(knotgauge.cli.__file__).resolve().parents[1]
    if found != src:
        raise ImportError(f"knotgauge imported from {found}, not {src}")
    return knotgauge.cli


def run_workload(cli, make, workdir):
    """Round 1 of ``make``'s workload at seed 1; yields the report lines."""
    wl = make(SEED, str(workdir))
    wl.setup()
    for k in range(wl.round_size):
        steps, _ = wl.job(k)
        for s, (argv, _) in enumerate(steps):
            out, err = io.StringIO(), io.StringIO()
            sys.argv = ["knotgauge", *argv]
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            yield (f"{wl.name} job{k}.{s} exit={rc} "
                   f"stdout={sha256(out.getvalue().encode())} "
                   f"stderr={sha256(err.getvalue().encode())}")
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            yield (f"{wl.name} {path.relative_to(workdir)} "
                   f"{sha256(path.read_bytes())}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True,
                    help="directory holding the knotgauge package")
    ap.add_argument("--workdir", type=Path,
                    default=Path(tempfile.gettempdir()) / "knotgauge-digest",
                    help="fixed scratch directory for the job files "
                         "(default: %(default)s)")
    args = ap.parse_args(argv)
    src, workdir = args.src.resolve(), args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        ap.error("--workdir must lie outside the repository")
    if workdir.exists():
        ap.error(f"--workdir {workdir} exists; remove it first")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    cli = load_cli(src)
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS
    try:
        for name, make in WORKLOADS.items():
            for line in run_workload(cli, make, workdir / name):
                print(line, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
