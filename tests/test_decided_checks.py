"""Checks the interned DAG decides, against the same checks sampled.

`Checker._check` records a check without compiling or running anything
when every pair of its sides is one interned node or two constant zeros
and interval bounds keep every node finite in the box (`report._decided`).
It must record the CheckItem that sampling records and leave the random
stream where sampling leaves it. Each test runs its checks twice, once
with the decision forced off, and compares the items, byte for byte, and
the stream's state after each check. A last test runs the CLI twice in one
process: the process-wide tables (the intern table, the derivative memo
and the gradient rows) must leak nothing into a report.
"""
import json
import math
import os
import subprocess
import sys

import pytest

from jetlift import report
from jetlift import expr as ex
from jetlift.errors import SamplingError
from jetlift.fields import ProceduralField, SymbolicField
from jetlift.model import load_model
from jetlift.charts import ChartMap
from jetlift.report import DEFAULT_BOX, Checker
from jetlift.spaces import base_e
from jetlift.suites import SUITES, run_suite

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")
BE1 = base_e(1)


def traced(monkeypatch, run, decide):
    """Each check run() makes, as its JSON item (or the error that ended
    it) and the stream's state after it, and how many checks were decided;
    with decide False, none is."""
    made, decided = [], []
    check, decision = Checker._check, report._decided

    def spy(self, *args):
        try:
            made.append(json.dumps(check(self, *args).to_dict()))
        except SamplingError as exc:
            made.append(repr(exc))
        made.append(self.rng.getstate())

    def decide_(*args):
        decided.append(decide and decision(*args))
        return decided[-1]

    with monkeypatch.context() as m:
        m.setattr(Checker, "_check", spy)
        m.setattr(report, "_decided", decide_)
        run()
    return made, sum(decided)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("model", ["n1", "n2"])
def test_a_decided_check_is_the_sampled_check(monkeypatch, model, seed):
    inp = load_model(os.path.join(MODELS, f"{model}.json")).suite_inputs()

    def run():
        for name in SUITES:
            run_suite(name, inp, seed=seed)

    got, decided = traced(monkeypatch, run, True)
    want, none = traced(monkeypatch, run, False)
    assert got == want
    assert decided > 0 and none == 0


def field(e):
    return SymbolicField(BE1, e if isinstance(e, ex.Expr) else ex.parse_expr(e, BE1.coords))


PROC = ProceduralField(BE1, lambda b: b.X[:, 0] * b.X[:, 1], lambda b: b.X[:, ::-1])

# (lhs, rhs or None for vanish, box, decided)
EDGES = [
    # overflows in half the box: sampled, and redrawn
    ("exp(q1)", "exp(q1)", (700.0, 720.0), False),
    ("1e300*q1*q1*q1", "1e300*q1*q1*q1", (-2.0, 2.0), False),
    ("(1e200*q1)*(1e200*q1)", "(1e200*q1)*(1e200*q1)", (1.0, 2.0), False),  # inf
    ("1/q1", "1/q1", (-2.0, 2.0), False),
    ("sqrt(q1)", "sqrt(q1)", (-2.0, 2.0), False),
    ("q1^2 * sin(t) - exp(q1)", "q1^2 * sin(t) - exp(q1)", (-2.0, 2.0), True),
    ("q1", "q1", (0.0, 1e301), False),
    # a nan bound would draw nan points: the Checker refuses the box
    ("q1", "q1", (2.0, math.nan), False),
    (ex.Const(0.0), ex.Const(-0.0), (-2.0, 2.0), True),
    (ex.Const(-0.0), None, (-2.0, 2.0), True),
    ("q1 - q1", None, (-2.0, 2.0), True),  # folds to the constant 0
    ("q1", None, (-2.0, 2.0), False),
    ("1", "2", (-2.0, 2.0), False),  # constants, but not zeros
    ("1", None, (-2.0, 2.0), False),
    (ex.Const(math.nan), ex.Const(math.nan), (-2.0, 2.0), False),  # rejects all
    (ex.Const(math.inf), ex.Const(math.inf), (-2.0, 2.0), False),
    # a call has no bound: sampled, though each side is one node
    (PROC.expr, PROC.expr, (-2.0, 2.0), False),
    # p - p and 0 * p fold to the constant 0 for a tree that holds a call
    (ex.sub(PROC.expr, PROC.expr), None, (-2.0, 2.0), True),
    (ex.mul(ex.ZERO, PROC.expr), None, (-2.0, 2.0), True),
]


@pytest.mark.parametrize("lhs, rhs, box, decided", EDGES)
def test_an_edge_case_draws_as_sampling_does(monkeypatch, lhs, rhs, box, decided):
    a = [field(lhs)]
    b = None if rhs is None else [field(rhs)]
    assert report._decided(a, b or [], box) is decided
    if not box[0] < box[1]:
        with pytest.raises(SamplingError, match="lo < hi"):
            Checker(points=16, seed=3, box=box)
        return

    def run():
        ch = Checker(points=16, seed=3, box=box)
        ch.vanish("x", "", a) if b is None else ch.compare("x", "", a, b)

    got, n = traced(monkeypatch, run, True)
    assert got == traced(monkeypatch, run, False)[0] and n == decided


def test_an_unbounded_check_redraws():
    a = [field("exp(q1)")]
    ch, one_round = Checker(points=16, box=(700.0, 720.0)), Checker(points=16, box=(700.0, 720.0))
    ch.compare("x", "", a, a)
    one_round.draw_points(16, 2)
    assert ch.rng.getstate() != one_round.rng.getstate()


def test_a_via_check_is_never_decided(monkeypatch):
    # the points are drawn through a map that rejects q1 < 0, so a decided
    # round would leave the stream elsewhere
    chart = ChartMap(BE1, BE1, [field("t"), field("sqrt(q1)")],
                     [field("t"), field("q1^2")])
    a, zeros = [field("q1*exp(t)")], [field(ex.Const(0.0))]
    assert report._decided(a, a, DEFAULT_BOX) and report._decided(zeros, [], DEFAULT_BOX)

    def run():
        ch = Checker(points=16, seed=2)
        ch.compare("x", "", a, a, via=chart)
        ch.vanish("y", "", zeros, via=chart)

    got, decided = traced(monkeypatch, run, True)
    assert got == traced(monkeypatch, run, False)[0] and decided == 0


def test_a_decided_check_still_refuses_mismatched_sides():
    a, other = [field("q1")], SymbolicField(base_e(2), ex.var("q1"))
    for b, message in (([], "nothing to check"), ([a[0], a[0]], "cannot compare"),
                       ([other], "mixed spaces")):
        with pytest.raises(report.SpaceMismatchError, match=message):
            Checker().compare("x", "", [] if not b else a, b)


def test_a_warm_process_gives_the_same_bytes():
    script = """
import contextlib, io, json, sys
from jetlift.cli import main
outs = []
for _ in range(2):
    for model in sys.argv[1:]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verify", "--model", model, "--suite", "all", "--json"])
        outs.append([code, buf.getvalue()])
print(json.dumps(outs))
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script] + [os.path.join(MODELS, f"{m}.json")
                                          for m in ("n1", "n2")],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    outs = json.loads(proc.stdout)
    assert [code for code, _ in outs] == [0] * 4
    assert outs[:2] == outs[2:] and outs[0][1] != outs[1][1]
