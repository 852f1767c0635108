"""Command-line front end.

Subcommands: analyze, certify, substitute, flow, minimize, concentrate.
Exit codes: 0 success with all verification flags true, 2 inconclusive
equivalence certificate, 1 error or failed verification.  Reports are JSON,
profiles and traces CSV; identical inputs reproduce reports bit-for-bit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .concentration import EPSILON, ConcentrationError, pipeline
from .curve import CurveError, load_curve, save_curve
from .distortion import (G_INF, certify_equivalence, distortion_profile,
                         distortion_threshold)
from .flowfield import FlowError, flow
from .mobius import DescentAborted, MinimizeConfig, minimize_symmetric
from .sobolev import (ConcentratedSeminormError, fractional_admissible_scale,
                      seminorm_sq, tangent_density)
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
        "delta_global": prof.global_value,
        "global_pair": list(prof.global_pair) if prof.global_pair else None,
    })
    if args.profile:
        with open(args.profile, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r", "delta", "i", "j"])
            for r, v, pair in zip(prof.scales, prof.values, prof.pairs):
                i, j = pair if pair else (-1, -1)
                w.writerow([repr(float(r)), repr(float(v)), i, j])
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
        with open(args.density, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "value"])
            density = tangent_density(c).density
            ii, jj = np.nonzero(density)
            for i, j in zip(ii, jj):
                w.writerow([int(i), int(j), repr(float(density[i, j]))])
    if args.out:
        _write_json(args.out, report)
    print(f"n={c.n} length={c.total_length():.6g} "
          f"delta_global={prof.global_value:.6f}")
    if args.seminorm and report.get("seminorm_sq") is not None:
        print(f"seminorm_sq={report['seminorm_sq']:.6f} "
              f"rho={report.get('rho')} r_gamma={report.get('r_gamma')}")
    return 0


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
    c = load_curve(args.curve)
    centers = [float(v) for v in args.center.split(",") if v]
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
    c = load_curve(args.curve)
    seed_pt = np.array([float(v) for v in args.seed_point.split(",")])
    if seed_pt.shape != (3,):
        raise FlowError("--seed must be x,y,z")
    trace = flow(c, seed_pt, args.dir, args.rM, args.rho, delta=args.delta,
                 steps=args.steps)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x", "y", "z", "dist"])
            for t, y, d in zip(trace.times, trace.states, trace.distances):
                w.writerow([repr(float(t))] + [repr(float(v)) for v in y]
                           + [repr(float(d))])
    mono = trace.monotone()
    print(f"dir={args.dir} d0={trace.distances[0]:.6g} "
          f"d1={trace.distances[-1]:.6g} monotone={mono}")
    return 0 if mono else 1


def _cmd_minimize(args):
    a, b = (int(v) for v in args.torus.split(","))
    cfg = MinimizeConfig(torus=(a, b), p=args.p, m=args.m, n=args.n,
                         steps=args.steps)
    res = minimize_symmetric(cfg)
    final = res.final
    if args.out:
        save_curve(res.curve, args.out)
    if args.log:
        with open(args.log, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "energy", "residual", "bilip", "step"])
            for s in res.states:
                w.writerow([s.iteration, repr(s.energy), repr(s.residual),
                            repr(s.bilip), repr(s.step)])
    print(f"status={res.status} iterations={final.iteration} "
          f"energy={final.energy:.8f} residual={final.residual:.3e}")
    return 0 if res.status == "ok" else 1


def _cmd_concentrate(args):
    c = load_curve(args.curve)
    ref = load_curve(args.reference) if args.reference else None
    rep = pipeline(c, args.p, reference=ref, eps=args.eps)
    if args.out:
        save_curve(rep.modified, args.out)
    report = _report_header(
        args, [args.curve] + ([args.reference] if args.reference else []))
    report.update({
        "eps": rep.eps,
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
    p.add_argument("--eps", type=float, default=EPSILON,
                   help="concentration mass quantum (off-default values "
                        "are experimental)")
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
