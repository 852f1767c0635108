"""Command-line front end.

Subcommands: analyze, certify, substitute, flow, minimize, concentrate.
Exit codes: 0 success with all verification flags true, 2 inconclusive
equivalence certificate, 1 error or failed verification.  Reports are JSON,
profiles and traces CSV; identical inputs reproduce reports bit-for-bit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .concentration import EPSILON, ConcentrationError, pipeline
from .curve import CurveError, load_curve, row_blocks, save_curve, write_csv
from .distortion import (G_INF, certify_equivalence, distortion_profile,
                         distortion_threshold)
from .flowfield import FlowError, flow
from .mobius import DescentAborted, MinimizeConfig, minimize_symmetric
from .sobolev import (DEFAULT_BAND, ConcentratedSeminormError, _density_rows,
                      fractional_admissible_scale, seminorm_sq)
from .substitution import SubstitutionError, substitute


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _command(argv):
    """``argv`` without the options naming output files and their paths, so
    that a report does not depend on where it is written."""
    outputs = ("--out", "--profile", "--density", "--report", "--trace",
               "--log")
    path = {i + 1 for i, a in enumerate(argv) if a in outputs}
    return " ".join(a for i, a in enumerate(argv)
                    if i not in path and a.split("=")[0] not in outputs)


def _report_header(args, inputs):
    return {
        "command": _command(args.argv),
        "version": __version__,
        "inputs": {p: _digest(p) for p in inputs},
    }


def _comma_list(option, form, text, count=None, kind=float):
    """The values of a comma-list option, read by ``kind``; ``count`` values
    if given.  Raises ValueError naming the option and its ``form``."""
    try:
        values = [kind(v) for v in text.split(",") if v]
        if count is None or len(values) == count:
            return values
    except ValueError:
        pass
    raise ValueError(f"{option} must be {form}, got {text!r}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_analyze(args):
    c = load_curve(args.curve)
    prof = distortion_profile(c)
    report = _report_header(args, [args.curve])
    report.update({
        "n": c.n,
        "length": c.total_length(),
        "diameter": c.diameter(),
        "delta_global": float(prof.values[-1]),
        "global_pair": list(prof.pairs[-1]) if prof.pairs[-1] else None,
    })
    if args.profile:
        write_csv(args.profile, ["r", "delta", "i", "j"],
                  ([float(r), float(v), *(pair or (-1, -1))]
                   for r, v, pair in zip(prof.scales, prof.values,
                                         prof.pairs)))
    if args.seminorm:
        report["seminorm_sq"] = seminorm_sq(c)
        try:
            rho, r_gamma = fractional_admissible_scale(c)
            report["rho"] = rho
            report["r_gamma"] = r_gamma
        except ConcentratedSeminormError as exc:
            report["rho"] = None
            report["r_gamma"] = None
            report["seminorm_note"] = str(exc)
    if args.density:
        write_csv(args.density, ["i", "j", "value"], _density_entries(c))
    if args.out:
        _write_json(args.out, report)
    print(f"n={c.n} length={c.total_length():.6g} "
          f"delta_global={report['delta_global']:.6f}")
    if args.seminorm and report.get("seminorm_sq") is not None:
        print(f"seminorm_sq={report['seminorm_sq']:.6f} "
              f"rho={report.get('rho')} r_gamma={report.get('r_gamma')}")
    return 0


def _density_entries(c):
    """The nonzero entries of the seminorm density as rows (i, j, value),
    in row order, computed one block of rows at a time."""
    idx = np.arange(c.n)
    for b in row_blocks(c.n):
        block = _density_rows(c, idx[b], idx, DEFAULT_BAND)
        ii, jj = np.nonzero(block)
        yield from zip((ii + b.start).tolist(), jj.tolist(),
                       block[ii, jj].tolist())


def _cmd_certify(args):
    a = load_curve(args.a)
    b = load_curve(args.b)
    thr = distortion_threshold(3) if args.threshold == "g3" else G_INF
    cert = certify_equivalence(a, b, threshold=thr, margin=args.margin)
    report = _report_header(args, [args.a, args.b])
    report["certificate"] = cert.to_dict()
    if args.out:
        _write_json(args.out, report)
    print(f"verdict={cert.verdict} hausdorff={cert.hausdorff:.6g} "
          f"r1={cert.r1} r2={cert.r2}")
    return 0 if cert.passed else 2


def _cmd_substitute(args):
    centers = _comma_list("--center", "t1,t2,...", args.center)
    c = load_curve(args.curve)
    theta = None if args.theta == "auto" else float(args.theta)
    rep = substitute(c, centers, theta=theta, r=args.r)
    if args.out:
        save_curve(rep.modified, args.out)
    report = _report_header(args, [args.curve])
    report.update({
        "centers": rep.centers,
        "endpoints": rep.endpoints,
        "theta": rep.theta,
        "r": rep.r,
        "bilip_original": rep.bilip_original,
        "bilip_modified": rep.bilip_modified,
        "linf_distance": rep.linf_distance,
        "window_distortions": rep.window_distortions,
        "intrinsic_ratio_min": rep.intrinsic_ratio_min,
        "intrinsic_ratio_max": rep.intrinsic_ratio_max,
        "length_ratio": rep.length_ratio,
        "flags": rep.flags,
    })
    if args.report:
        _write_json(args.report, report)
    print("flags:", " ".join(f"{k}={v}" for k, v in rep.flags.items()))
    return 0 if rep.all_pass else 1


def _cmd_flow(args):
    seed_pt = np.array(_comma_list("--seed", "x,y,z", args.seed_point, 3))
    c = load_curve(args.curve)
    trace = flow(c, seed_pt, args.dir, args.rM, args.rho, delta=args.delta,
                 steps=args.steps)
    if args.trace:
        write_csv(args.trace, ["t", "x", "y", "z", "dist"], np.column_stack(
            [trace.times, trace.states, trace.distances]).tolist())
    mono = trace.monotone()
    print(f"dir={args.dir} d0={trace.distances[0]:.6g} "
          f"d1={trace.distances[-1]:.6g} monotone={mono}")
    return 0 if mono else 1


def _cmd_minimize(args):
    torus = tuple(_comma_list("--torus", "a,b", args.torus, 2, int))
    cfg = MinimizeConfig(torus=torus, p=args.p, m=args.m, n=args.n,
                         steps=args.steps)
    res = minimize_symmetric(cfg)
    final = res.final
    if args.out:
        save_curve(res.curve, args.out)
    if args.log:
        write_csv(args.log, ["iter", "energy", "residual", "bilip", "step"],
                  ([s.iteration, s.energy, s.residual, s.bilip, s.step]
                   for s in res.states))
    print(f"status={res.status} iterations={final.iteration} "
          f"energy={final.energy:.8f} residual={final.residual:.3e}")
    return 0 if res.status == "ok" else 1


def _cmd_concentrate(args):
    c = load_curve(args.curve)
    ref = load_curve(args.reference) if args.reference else None
    rep = pipeline(c, args.p, reference=ref)
    if args.out:
        save_curve(rep.modified, args.out)
    report = _report_header(
        args, [args.curve] + ([args.reference] if args.reference else []))
    report.update({
        "eps": EPSILON,
        "detected": rep.detection.params,
        "detection_warnings": rep.detection.warnings,
        "cardinality_bound": rep.detection.cardinality_bound,
        "bilip": rep.bilip,
        "theta": rep.theta,
        "r_bar": rep.scale.r_bar if rep.scale else None,
        "final_scale": rep.final_scale,
        "distortion_final": rep.distortion_final,
        "budget": rep.budget,
        "linf_reference": rep.linf_reference,
        "flags": rep.flags,
        "notes": rep.notes,
        "certificate": rep.certificate.to_dict() if rep.certificate else None,
    })
    if args.report:
        _write_json(args.report, report)
    print(f"detected={len(rep.detection.params)} flags:",
          " ".join(f"{k}={v}" for k, v in rep.flags.items()))
    return 0 if rep.all_pass else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="knotgauge",
        description="Certified knot-equivalence analysis of sampled curves")
    sub = ap.add_subparsers(dest="cmd", required=True)
    # options are taken in full spelling only, so that _command knows every
    # spelling of an output option
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("analyze", help="distortion profile and seminorm")
    p.add_argument("curve")
    p.add_argument("--profile", help="write r,delta,i,j ladder CSV")
    p.add_argument("--seminorm", action="store_true")
    p.add_argument("--density", help="write i,j,value density CSV")
    p.add_argument("--out", help="write JSON report")
    p.set_defaults(func=_cmd_analyze)

    p = add("certify", help="equivalence certificate")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--threshold", choices=["g3", "ginf"], default="g3")
    p.add_argument("--margin", type=float, default=1e-3)
    p.add_argument("--out", help="write JSON certificate")
    p.set_defaults(func=_cmd_certify)

    p = add("substitute", help="straight-segment substitution")
    p.add_argument("curve")
    p.add_argument("--center", required=True, help="t1,t2,...")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", default="auto")
    p.add_argument("--out", help="write the modified curve")
    p.add_argument("--report", help="write JSON report")
    p.set_defaults(func=_cmd_substitute)

    p = add("flow", help="distance-increasing/decreasing flow")
    p.add_argument("curve")
    p.add_argument("--seed", dest="seed_point", required=True,
                   help="seed point x,y,z; write --seed=x,y,z when x is "
                        "negative")
    p.add_argument("--dir", choices=["inc", "dec"], required=True)
    p.add_argument("--rM", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--trace", help="write t,x,y,z,dist CSV")
    p.set_defaults(func=_cmd_flow)

    p = add("minimize", help="symmetric energy descent")
    p.add_argument("--torus", required=True, help="a,b")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", help="write the final curve")
    p.add_argument("--log", help="write iter,energy,residual,bilip,step CSV")
    p.set_defaults(func=_cmd_minimize)

    p = add("concentrate", help="concentration pipeline")
    p.add_argument("curve")
    p.add_argument("--reference", help="smooth reference curve")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out", help="write the modified curve")
    p.add_argument("--report", help="write JSON report")
    p.set_defaults(func=_cmd_concentrate)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    try:
        return args.func(args)
    except (CurveError, SubstitutionError, FlowError, ConcentrationError,
            ConcentratedSeminormError, DescentAborted, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
