"""jetlift benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {verify-suites,darboux-n2,pn-sweep}
                         --seed N --seconds S --trace {0,1} [--smoke]

Runs timed passes of one workload, one after another, each in a fresh
interpreter (bench/child.py) so that every pass pays the cold cost a CLI
user pays. Passes repeat until the next one would end after --seconds,
but at least one pass per library seed of the run. Pass i passes the
library seed workloads.pass_seed(workload, --seed, i): a run cycles
through a fixed set of seeds derived from --seed, so its medians are over
several inputs and the same --seed gives the same inputs.

Untraced, every time metric is in reference seconds: the measured seconds
of a pass (or set-up) times calibrate.REF_S over the median time of the
reference kernel that ran around and between its calls. On the shared
host the machine's own speed swings by up to 1.5x for tens of seconds,
and this takes that swing out while a change to jetlift shows in full.
The measured seconds and the kernel's speed factor of every pass are in
the detail line. Traced runs report measured seconds.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from traced
passes. The line before it is a JSON object {"detail": ...} with the
per-verdict rows, the tail percentile and its sample count, the failed
ratio and (traced) the whole layer split; the same detail is written to
.bench_out/ at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

#: every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 165.0
#: set-up-only interpreters started before the passes; set-up is short and
#: the machine's speed drifts, so its median needs more samples than passes
SETUP_RUNS = 8

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "verdict_ok": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, source). Sources: ("calls", layer),
# ("self_s", layer), ("count", key), or a derived name handled below.
PER_LAYER = {
    "model.load_s": ("s", ("self_s", "model.load")),
    "expr.parse_calls": ("count", ("calls", "expr.parse")),
    "expr.tree_nodes": ("count", ("count", "expr.tree_nodes")),
    "expr.unique_nodes": ("count", ("count", "expr.unique_nodes")),
    "expr.sharing_ratio": ("ratio", "sharing_ratio"),
    "fields.symbolic_built": ("count", ("calls", "fields.symbolic_built")),
    "fields.procedural_built": ("count",
                                ("calls", "fields.procedural_built")),
    "fields.diff_calls": ("count", ("calls", "fields.diff")),
    "fields.diff_s": ("s", ("self_s", "fields.diff")),
    "fields.eval_calls": ("count", ("calls", "fields.eval")),
    "fields.eval_s": ("s", ("self_s", "fields.eval")),
    "tensors.calculus_calls": ("count", ("calls", "tensors.calculus")),
    "tensors.calculus_s": ("s", ("self_s", "tensors.calculus")),
    "tensors.eval_at_calls": ("count", ("calls", "tensors.eval_at")),
    "lifts.calls": ("count", ("calls", "lifts")),
    "lifts.s": ("s", ("self_s", "lifts")),
    "pn.concomitant_calls": ("count", ("calls", "pn.concomitant")),
    "pn.concomitant_s": ("s", ("self_s", "pn.concomitant")),
    "pn.eigen_calls": ("count", ("calls", "pn.eigen")),
    "pn.eigen_rejects": ("count", ("count", "pn.eigen_rejects")),
    "charts.push_calls": ("count", ("calls", "charts.push")),
    "charts.push_s": ("s", ("self_s", "charts.push")),
    "charts.newton_steps": ("count", ("count", "charts.newton_steps")),
    "report.residual_s": ("s", ("self_s", "report.residual")),
    "report.sample_s": ("s", ("self_s", "report.sample")),
    "report.checks": ("count", ("calls", "report.checks")),
    "report.points_accepted": ("count", ("count", "report.points_accepted")),
    "report.points_rejected": ("count", ("count", "report.points_rejected")),
    "report.accept_ratio": ("ratio", "accept_ratio"),
    "trace.pass_s": ("s", "pass_s"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_pass(args, seed, timeout, spans=None, setup_only=False):
    """One pass in a fresh interpreter; returns (result or None, error)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload",
           args.workload, "--seed", str(seed), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, (f"pass exited with {proc.returncode}: "
                      f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"pass printed no result: {proc.stdout[-500:]!r}"


def to_reference(result):
    """Turn a child's measured seconds into reference seconds, in place;
    keep the measured ones and the speed factor next to them."""
    factor = (calibrate.REF_S / statistics.median(result["ref_s"])
              if result.get("ref_s") else 1.0)
    result["factor"] = factor
    result["setup_raw_s"] = result["setup_s"]
    result["setup_s"] *= factor
    if "pass_s" in result:
        result["pass_raw_s"] = result["pass_s"]
        result["pass_s"] *= factor
        for call in result["calls"]:
            call["s"] *= factor
    return result


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def layer_value(result, source):
    trace = result["trace"]
    if source == "pass_s":
        return result["pass_s"]
    if source == "sharing_ratio":
        unique = trace["counts"].get("expr.unique_nodes", 0)
        return trace["counts"].get("expr.tree_nodes", 0) / unique if unique else 0.0
    if source == "accept_ratio":
        acc = trace["counts"].get("report.points_accepted", 0)
        rej = trace["counts"].get("report.points_rejected", 0)
        return acc / (acc + rej) if acc + rej else 0.0
    kind, key = source
    if kind == "count":
        return trace["counts"].get(key, 0)
    return trace["layers"].get(key, {}).get(kind, 0)


def per_layer_metrics(results):
    """Counts from the first pass (all passes repeat them); times as the
    median over passes."""
    metrics = {}
    for name, (unit, source) in PER_LAYER.items():
        values = [layer_value(r, source) for r in results]
        value = statistics.median(values) if unit == "s" else values[0]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def count_signature(result):
    trace = result["trace"]
    return ({k: v["calls"] for k, v in trace["layers"].items()},
            trace["counts"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one pass, for the tests")
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "jetlift" / "__init__.py",
                           ROOT / "models" / "n1.json",
                           ROOT / "models" / "n2.json") if not p.is_file()]
    if missing:
        print(f"not a jetlift checkout: missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    min_passes = 1 if args.smoke or args.trace else workload.seeds_per_run
    per_pass = workload.verdicts_per_pass(sizes)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    start = time.perf_counter()
    setups = []
    for _ in range(0 if args.trace else 1 if args.smoke else SETUP_RUNS):
        result, error = run_pass(args, args.seed, HARD_LIMIT_S,
                                 setup_only=True)
        if error:
            print(f"set-up failed: {error}", file=sys.stderr)
            return 1
        setups.append(to_reference(result))
    results, errors = [], []
    longest = 0.0
    attempted = failed = verdicts = verdicts_ok = 0
    while True:
        elapsed = time.perf_counter() - start
        done = len(results) + len(errors)
        if done >= min_passes and elapsed + longest > args.seconds:
            break
        if done and elapsed + longest > HARD_LIMIT_S:
            break
        spans = out_dir / f"{tag}-spans.json" if args.trace and not done else None
        t0 = time.perf_counter()
        # traced passes all repeat the first library seed, so that their
        # counts must agree and their times are medians over the same work
        result, error = run_pass(args, workloads.pass_seed(
            workload, args.seed, 0 if args.trace else done),
            HARD_LIMIT_S - elapsed, spans)
        longest = max(longest, time.perf_counter() - t0)
        if error:
            errors.append(error)
            attempted += per_pass
            failed += per_pass
            verdicts += per_pass
            continue
        results.append(to_reference(result))
        for call in result["calls"]:
            attempted += 1
            failed += not call["ok"]
            if call["verdict"]:
                verdicts += 1
                verdicts_ok += call["ok"]

    if not results:
        print("no pass completed:\n" + "\n".join(errors), file=sys.stderr)
        return 1

    by_name = {}
    for r in results:
        for c in r["calls"]:
            by_name.setdefault(c["name"], []).append(c["s"])
    call_median_s = {k: statistics.median(v) for k, v in by_name.items()}
    # One latency sample per verdict call made. Every pass makes the same
    # calls, on the run's library seeds, so each sample is taken at its
    # call's median over the passes: the percentiles then pick out calls,
    # not the moments at which the machine happened to run slow or the
    # seed that happened to be costly.
    latencies = [call_median_s[c["name"]] for r in results
                 for c in r["calls"] if c["verdict"]]
    tail_pct = workloads.tail_percentile(
        per_pass * (1 if args.smoke else workload.seeds_per_run))
    setups += results
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(results),
        "library_seeds": sorted({
            workloads.pass_seed(workload, args.seed, 0 if args.trace else i)
            for i in range(len(results) + len(errors))}),
        "pass_errors": errors,
        "mismatches": sorted({f"{c['name']}: {c['error']}" for r in results
                              for c in r["calls"] if not c["ok"]})[:20],
        "failed_ratio": failed / attempted,
        "verdict_samples": len(latencies),
        "verdict_tail_pct": tail_pct,
        "samples_beyond_tail": sum(
            x > nearest_rank(latencies, tail_pct) for x in latencies),
        "pass_s_all": [r["pass_s"] for r in results],
        "pass_raw_s_all": [r["pass_raw_s"] for r in results],
        "pass_factor_all": [r["factor"] for r in results],
        "setup_s_all": [r["setup_s"] for r in setups],
        "setup_raw_s_all": [r["setup_raw_s"] for r in setups],
        "call_median_s": call_median_s,
    }

    if args.trace:
        signatures = [count_signature(r) for r in results]
        detail["counts_repeat"] = all(s == signatures[0] for s in signatures)
        if not detail["counts_repeat"]:
            print("warning: traced counts differ between passes",
                  file=sys.stderr)
        detail["layer_split"] = {
            k: {"calls": v["calls"],
                "self_s": statistics.median(
                    r["trace"]["layers"].get(k, {}).get("self_s", 0.0)
                    for r in results)}
            for k, v in results[0]["trace"]["layers"].items()}
        detail["counts"] = results[0]["trace"]["counts"]
        metrics = per_layer_metrics(results)
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "pass_s": statistics.median(r["pass_s"] for r in results),
            "verdict_p50_s": nearest_rank(latencies, 50),
            "verdict_tail_s": nearest_rank(latencies, tail_pct),
            "verdict_ok": verdicts_ok / verdicts,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        }
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END.items()}

    detail["metrics"] = metrics
    (out_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
