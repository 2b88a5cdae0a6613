"""Command-line front end.

Subcommands:

* ``lift``    -- lift a model object to phase space and print its components
* ``verify``  -- run a named identity suite against the model's objects
* ``darboux`` -- build and verify Darboux-Nijenhuis coordinates for a tensor
* ``print``   -- print a model object's components as parsed

Exit codes: 0 all checks pass, 1 an identity or verdict check failed,
2 bad input (unreadable model, kind mismatch, unknown name, a suite with
nothing to check).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import product

from .errors import JetliftError, ModelError
from .lifts import (
    complete_lift_cotangent,
    complete_lift_tensor11,
    complete_lift_vector,
    hlift_tensor11,
    momentum_function,
    vlift_oneform,
    vlift_tensor11,
    vlift_twoform,
)
from .model import load_model
from .pn import build_dn_transform, eigen_analysis, pn_check, verify_dn
from .report import (
    _REJECTABLE,
    DEFAULT_BOX,
    DEFAULT_POINTS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    Checker,
)
from .suites import SUITES, run_all_suites, run_suite

LIFT_KINDS = ("vertical", "complete", "horizontal", "momentum", "cotangent")


def _parse_domain(text: str):
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError:
        raise ModelError(f"--domain expects 'lo,hi', got {text!r}")
    if not lo < hi:
        raise ModelError(f"--domain needs lo < hi, got {text!r}")
    if not math.isfinite(hi - lo):  # also catches an infinite bound
        raise ModelError(f"--domain needs finite bounds and width, got {text!r}")
    return (lo, hi)


def _component_dict(obj) -> dict:
    """A scalar field as {"value": expression string}, a tensor as its
    nonzero components keyed by their coordinate names joined with ','."""
    if not obj.variance:
        return {"value": str(obj)}
    keys = product(obj.space.coords, repeat=len(obj.variance))
    return {",".join(key): text for key, text in
            zip(keys, map(str, obj.components())) if text != "0"}


def _emit_object(obj, label: str, as_json: bool):
    comps = _component_dict(obj)
    space_kind = obj.space.kind if hasattr(obj, "space") else "scalar"
    if as_json:
        print(json.dumps({"object": label, "space": space_kind,
                          "components": comps},
                         sort_keys=True, indent=2))
    else:
        print(f"{label} on {space_kind}:")
        if not comps:
            print("  0")
        for key in sorted(comps):
            print(f"  {key}: {comps[key]}")


def cmd_lift(args) -> int:
    model = load_model(args.model)
    kind, obj = model.get(args.object)
    lk = args.kind
    table = {
        ("momentum", "vector_E"): momentum_function,
        ("vertical", "oneform_E"): vlift_oneform,
        ("vertical", "tensor11_E"): vlift_tensor11,
        ("vertical", "twoform_E"): vlift_twoform,
        ("complete", "vector_E"): complete_lift_vector,
        ("complete", "tensor11_E"): complete_lift_tensor11,
        ("horizontal", "tensor11_E"): hlift_tensor11,
        ("cotangent", "tensor11_E"): complete_lift_cotangent,
    }
    op = table.get((lk, kind))
    if op is None:
        supported = sorted(k for lift, k in table if lift == lk)
        raise ModelError(f"cannot take the {lk} lift of a {kind} object; "
                         f"supported kinds: {supported}")
    lifted = op(obj)
    _emit_object(lifted, f"{lk} lift of {args.object}", args.json)
    return 0


def cmd_print(args) -> int:
    model = load_model(args.model)
    kind, obj = model.get(args.object)
    if kind == "transform":
        fwd = {f"Q{i + 1}": str(f) for i, f in enumerate(obj.q_fwd)}
        if args.json:
            print(json.dumps({"object": args.object, "kind": kind,
                              "forward": fwd}, sort_keys=True, indent=2))
        else:
            print(f"{args.object} (transform):")
            for key in sorted(fwd):
                print(f"  {key}: {fwd[key]}")
        return 0
    _emit_object(obj, args.object, args.json)
    return 0


def cmd_verify(args) -> int:
    model = load_model(args.model)
    inp = model.suite_inputs()
    box = _parse_domain(args.domain)
    if args.suite == "all":
        report = run_all_suites(inp, points=args.points, seed=args.seed,
                                tol=args.tol, box=box)
    else:
        if args.suite not in SUITES:
            raise ModelError(f"unknown suite {args.suite!r}; choose from "
                             f"{sorted(SUITES)} or 'all'")
        report = run_suite(args.suite, inp, points=args.points,
                           seed=args.seed, tol=args.tol, box=box)
    if not report.items:
        raise ModelError(f"suite {args.suite!r} recorded no check: the model "
                         "has none of the objects it takes")
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
        print(f"{'PASS' if report.passed else 'FAIL'}: "
              f"{sum(i.passed for i in report.items)}/{len(report.items)} "
              f"checks, max residual {report.max_residual:.3e}")
    return 0 if report.passed else 1


def cmd_darboux(args) -> int:
    model = load_model(args.model)
    kind, R = model.get(args.object)
    if kind != "tensor11_E":
        raise ModelError(f"darboux needs a tensor11_E object, "
                         f"{args.object!r} is {kind}")
    box = _parse_domain(args.domain)
    sizes = {name: value for name, value in (("points", args.points),
                                             ("tol", args.tol))
             if value is not None}
    pn = pn_check(R, seed=args.seed, box=box, **sizes)
    if not pn.is_pn:
        payload = {"object": args.object, "pn": pn.to_dict()}
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            high = [f"{name} {value:.3e}"
                    for name, value in payload["pn"].items()
                    if name.endswith("_residual") and value >= pn.tol]
            print(f"refusing {args.object}: verdict {pn.verdict} "
                  f"({', '.join(high)}; tol {pn.tol:.0e})")
        return 1
    T = build_dn_transform(R, box=box, seed=args.seed, **sizes)
    report = verify_dn(R, T, seed=args.seed, box=box, **sizes)
    sampler = Checker(seed=args.seed, box=box)
    samples = []
    for _ in range(100):
        if len(samples) == 3:
            break
        pt = sampler.draw_point(R.space.dim)
        try:
            data = eigen_analysis(R, pt)
        except _REJECTABLE:  # a point the checks would redraw
            continue
        samples.append({"point": list(pt),
                        "eigenvalues": [float(v) for v in data.eigenvalues]})
    if args.json:
        print(json.dumps({"object": args.object, "pn": pn.to_dict(),
                          "eigenvalue_samples": samples,
                          "checks": report.to_dict()},
                         sort_keys=True, indent=2))
    else:
        print(f"{args.object}: verdict {pn.verdict}")
        for s in samples:
            print(f"  eigenvalues at {tuple(s['point'])}: "
                  f"{s['eigenvalues']}")
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlift",
        description="Lift, verify, and diagonalize (1,1) tensors on a "
                    "time-fibred bundle and its dual jet bundle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_object=False, need_suite=False, sampled=False):
        p.add_argument("--model", required=True, help="model JSON file")
        if need_object:
            p.add_argument("--object", required=True,
                           help="name of the object in the model")
        if need_suite:
            p.add_argument("--suite", required=True,
                           help="suite name or 'all'")
        if sampled:  # only the commands that draw sample points
            p.add_argument("--points", type=int, default=DEFAULT_POINTS)
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
            p.add_argument("--domain", default=f"{DEFAULT_BOX[0]:g},"
                                               f"{DEFAULT_BOX[1]:g}",
                           help="sampling box as 'lo,hi'")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")

    p = sub.add_parser("lift", help="print a lifted object's components")
    common(p, need_object=True)
    p.add_argument("--kind", required=True, choices=LIFT_KINDS)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("verify", help="run an identity suite")
    common(p, need_suite=True, sampled=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("darboux",
                       help="build Darboux-Nijenhuis coordinates")
    common(p, need_object=True, sampled=True)
    # an omitted --points/--tol leaves each of the three calls its own default
    p.set_defaults(fn=cmd_darboux, points=None, tol=None)

    p = sub.add_parser("print", help="print a model object")
    common(p, need_object=True)
    p.set_defaults(fn=cmd_print)
    return parser


def _glue_domain(argv) -> list:
    """argv with each '--domain lo,hi' written '--domain=lo,hi', and so for
    each prefix of '--domain' that argparse accepts for it ('--dom'):
    argparse takes a word that starts with '-' and is not a number, as
    '-2,2' is, for an option, not for the value of the one before it."""
    out = []
    for word in argv:
        if (out and len(out[-1]) > 2 and "--domain".startswith(out[-1])
                and not word.startswith("--")):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_domain(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except JetliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
