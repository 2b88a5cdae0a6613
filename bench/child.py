"""One pass of one workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--trace 1] [--smoke]
                           [--spans FILE] [--setup-only]

Times set-up (importing jetlift and building the workload's models), then
runs every call of the workload once, timing each, and prints one JSON
object on stdout. With --setup-only it stops after set-up. Untraced, the
reference kernel of calibrate.py runs before the calls, between them and
after them; its times go out as `ref_s`, so that run.py can turn the
measured seconds into reference seconds. With --trace 1 the library is
wrapped by tracer.py first and the per-layer counts and self times are
added to the output; the kernel does not run then.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: kernel samples taken right before and right after a pass's calls, and
#: after set-up in a set-up-only run
EDGE_SAMPLES = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL

    sys.path.insert(0, str(ROOT / "src"))
    import jetlift as jl
    t_import = time.perf_counter()
    if Path(jl.__file__).resolve().parent != ROOT / "src" / "jetlift":
        print(f"imported jetlift from {jl.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
    t_build = time.perf_counter()
    if tr:
        inputs = tr.region("model.load", "setup", workload.setup,
                           jl, ROOT, sizes)
    else:
        inputs = workload.setup(jl, ROOT, sizes)
    setup_s = (t_import - T_START) + (time.perf_counter() - t_build)

    # imported only now: it imports numpy, which set-up has to pay for
    import calibrate
    kernel = None if tr else calibrate.Kernel()
    ref_s = kernel.sample(EDGE_SAMPLES) if kernel else []
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))
        return 0

    calls = workload.plan(jl, inputs, args.seed, sizes)
    records = []
    pass_s = 0.0
    for call in calls:
        if kernel and records:
            ref_s.append(kernel.measure())
        error = None
        s0 = time.perf_counter()
        try:
            if tr:
                result = tr.region("bench.verdict", f"verdict:{call.name}",
                                   call.run)
            else:
                result = call.run()
        except Exception as exc:  # a failed call is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - s0
        if error is None:
            try:
                error = call.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        pass_s += time.perf_counter() - s0
        records.append({"name": call.name, "verdict": call.verdict,
                        "s": dt, "ok": error is None, "error": error})
    if kernel:
        ref_s += kernel.sample(EDGE_SAMPLES)

    out = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "ref_s": ref_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": records,
    }
    if tr:
        out["trace"] = {
            "layers": tr.layer_split(),
            "counts": dict(tr.counts),
        }
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"fields": ["id", "parent", "name", "start_s", "end_s"],
                 "spans": tr.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
