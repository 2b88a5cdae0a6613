"""Tests of the benchmark itself: tiny-size smoke runs of every workload,
the output format, the known-answer gate, and repeatable traced counts.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: unit for k, (unit, _) in run.PER_LAYER.items()}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        run.END_TO_END
    assert result["metrics"]["verdict_ok"]["value"] == 1.0
    for m in result["metrics"].values():
        assert m["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_between_runs(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    for result in (first, second):
        assert result["correct"] is True
        assert {k: m["unit"] for k, m in result["metrics"].items()} == \
            {k: unit for k, (unit, _) in run.PER_LAYER.items()}
    counts = {k for k, (unit, _) in run.PER_LAYER.items() if unit != "s"}
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["fields.eval_calls"]["value"] > 0
    assert first["metrics"]["report.points_accepted"]["value"] > 0


def test_verify_suites_is_jetlift_verify_all():
    """The workload's run_suite calls give the same checks, in the same
    order, as `jetlift verify --suite all --json`."""
    import jetlift
    from jetlift.cli import main as cli_main

    sizes = workloads.SMOKE
    inputs = workloads.WORKLOADS["verify-suites"].setup(jetlift, ROOT, sizes)
    calls = workloads.WORKLOADS["verify-suites"].plan(jetlift, inputs, 3,
                                                       sizes)
    ours = [item.to_dict() for call in calls for item in call.run().items]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["verify", "--model", str(ROOT / "models/n1.json"),
                         "--suite", "all", "--json", "--seed", "3",
                         "--points", str(sizes.points)])
    assert code == 0
    assert json.loads(out.getvalue())["checks"] == ours


def test_known_answer_gate_rejects_wrong_answers():
    from types import SimpleNamespace as NS

    item = NS(check_id="x", passed=True)
    bad = NS(check_id="y", passed=False)
    check = workloads._report_check(2)
    assert check(NS(items=[item, item])) is None
    assert check(NS(items=[item])) is not None
    assert check(NS(items=[item, bad])) is not None
    assert workloads._check_pn("not-pn")(NS(verdict="pn-structure"))
    assert workloads._check_dn(NS(items=[
        NS(check_id=c, passed=True) for c in workloads.DN_CHECKS])) is None
    assert workloads._check_dn(NS(items=[
        NS(check_id=c, passed=True) for c in workloads.DN_CHECKS[:3]]))
    point = (0.5, 1.0, -1.0)
    right = sorted([1.0 - 0.5 * -1.0, -1.0 + 3.0])
    assert workloads._check_eigen_samples([(point, right)] * 3) is None
    assert workloads._check_eigen_samples([(point, right[::-1])] * 3)
    assert workloads._check_eigen_samples([(point, right)] * 2)


def test_reference_seconds_scale_by_kernel_speed():
    import calibrate

    slow = {"setup_s": 1.0, "pass_s": 4.0, "ref_s": [2 * calibrate.REF_S] * 3,
            "calls": [{"s": 2.0}]}
    run.to_reference(slow)
    assert slow["factor"] == 0.5
    assert (slow["setup_s"], slow["pass_s"], slow["calls"][0]["s"]) == \
        (0.5, 2.0, 1.0)
    assert (slow["setup_raw_s"], slow["pass_raw_s"]) == (1.0, 4.0)
    traced = run.to_reference({"setup_s": 1.0, "pass_s": 4.0, "ref_s": [],
                               "calls": []})
    assert (traced["factor"], traced["pass_s"]) == (1.0, 4.0)


@pytest.mark.parametrize("workload", NAMES)
def test_pass_seeds_cycle_and_never_overlap(workload):
    w = workloads.WORKLOADS[workload]
    k = w.seeds_per_run
    assert [workloads.pass_seed(w, 2, i) for i in range(k + 1)] == \
        [2 * k + j for j in range(k)] + [2 * k]
    seen = [workloads.pass_seed(w, seed, i)
            for seed in range(10) for i in range(k)]
    assert len(seen) == len(set(seen)) == 10 * k


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (11, 20, 22, 24, 78, 104, 500):
        p = workloads.tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > run.nearest_rank(values, p) for v in values)
        assert p == 50 or beyond >= 10
        assert n - -(-(p + 1) * n // 100) < 10  # no higher one keeps ten
    assert workloads.tail_percentile(78) == 87
    assert workloads.tail_percentile(130) == 92  # verify-suites
    assert workloads.tail_percentile(22) == 54  # darboux-n2
    assert workloads.tail_percentile(20) == 50


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
