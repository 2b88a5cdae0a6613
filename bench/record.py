"""Record one trajectory entry of the benchmark.

    python3 bench/record.py --out bench/trajectory/BENCH_NNNN_label.json
                            [--seeds 0-9] [--sets 2] [--seconds S]
                            [--workloads verify-suites,pn-sweep]

For every workload: one untraced run per seed, repeated --sets times, then
one traced run on the first seed. The entry holds, per set, the median and
quartiles of every end-to-end metric over the seeds and the spread
(interquartile range over median); whether the known-answer gate held on
every seed; the per-verdict rows (median call time over all runs); and the
traced per-layer metrics with the whole layer split. A perf claim compares
two such entries made with the same benchmark code and settings.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    seeds = parse_seeds(args.seeds)
    entry = {
        "note": args.note,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": {"python": platform.python_version(),
                    "processor": platform.machine(),
                    "cpus": len(os.sched_getaffinity(0))},
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in args.workloads.split(","):
        sets, gate, rows = [], {}, {}
        for _ in range(args.sets):
            values = {}
            for seed in seeds:
                result, detail = bench(name, seed, seconds, 0)
                gate[seed] = gate.get(seed, True) and result["correct"]
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
                # measured seconds, for the tracing overhead (traced runs
                # report measured, not reference, seconds)
                values.setdefault("pass_raw_s", []).append(
                    statistics.median(detail["pass_raw_s_all"]))
                for call, s in detail["call_median_s"].items():
                    rows.setdefault(call, []).append(s)
                print(name, seed, {k: round(v[-1], 4)
                                   for k, v in values.items()},
                      flush=True)
            sets.append({"metrics": {k: summary(v)
                                     for k, v in values.items()},
                         "verdict_tail_pct": detail["verdict_tail_pct"],
                         "verdict_samples": detail["verdict_samples"]})
        result, detail = bench(name, seeds[0], seconds, 1)
        untraced = statistics.median(
            sets[0]["metrics"]["pass_raw_s"]["values"])
        entry["workloads"][name] = {
            "sets": sets,
            "known_answer_gate": gate,
            "call_median_s": {k: statistics.median(v)
                              for k, v in rows.items()},
            "traced": {
                "seed": seeds[0],
                "correct": result["correct"],
                "counts_repeat": detail["counts_repeat"],
                "overhead_s": result["metrics"]["trace.pass_s"]["value"]
                - untraced,
                "metrics": result["metrics"],
                "layer_split": detail["layer_split"],
            },
        }
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
