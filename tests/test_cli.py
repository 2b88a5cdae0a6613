import json
import os
import subprocess
import sys

import pytest

import jetlift.pn
from jetlift.cli import main
from test_mutations import flipped_middle_term, patch_everywhere

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")
N1 = os.path.join(MODELS, "n1.json")
N2 = os.path.join(MODELS, "n2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """The CLI on argv in a new interpreter, where no expression node or
    derivative that an earlier test built is there to spare it a walk."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "jetlift.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


class TestLift:
    def test_complete_tensor(self, capsys):
        code, out, _ = run(capsys, "lift", "--model", N1,
                           "--object", "R_diag", "--kind", "complete",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["components"] == {"q1,q1": "q1", "p1,p1": "q1"}

    def test_vertical_of_dt_form(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 1, "objects": {
            "a": {"kind": "oneform_E", "components": {"t": "1"}}}}))
        code, out, _ = run(capsys, "lift", "--model", str(path),
                           "--object", "a", "--kind", "vertical", "--json")
        assert code == 0
        assert json.loads(out)["components"] == {}

    def test_horizontal(self, capsys):
        code, out, _ = run(capsys, "lift", "--model", N1,
                           "--object", "R_torsion", "--kind", "horizontal",
                           "--json")
        assert code == 0
        comps = json.loads(out)["components"]
        assert comps == {"q1": "p1*q1", "t": "p1*t"}

    def test_kind_mismatch(self, capsys):
        code, _, err = run(capsys, "lift", "--model", N1,
                           "--object", "alpha", "--kind", "horizontal")
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_suite_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", N1,
                           "--suite", "theorem3", "--points", "8")
        assert code == 0
        assert "pn-structure" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--model", N1,
                           "--suite", "nope")
        assert code == 2

    def test_missing_model(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "/nope.json",
                           "--suite", "lemma1")
        assert code == 2

    def test_overflowing_domain_is_bad_input(self, capsys):
        # every point overflows: the check cannot sample, which is exit 2
        code, _, err = run(capsys, "verify", "--model", N1,
                           "--suite", "lemma1", "--domain", "1e200,1e201")
        assert code == 2
        assert err.startswith("error:")

    def test_sampling_abort_names_its_reasons(self, capsys):
        code, _, err = run(capsys, "verify", "--model", N1,
                           "--suite", "lemma1", "--domain", "1e200,1e201")
        assert code == 2
        assert err == ("error: check lemma1.1[f0,a0]: rejected 641 sample "
                       "points (NonFiniteError: 641)\n")

    def test_domain_with_a_negative_lo(self, capsys):
        # the default box written out: argparse reads '-2,2' after --domain
        # as an option unless the CLI glues the two
        for argv in (("verify", "--model", N1, "--suite", "prop2"),
                     ("darboux", "--model", N2, "--object", "R_dn", "--json")):
            default = run(capsys, *argv)
            assert default[0] == 0
            assert run(capsys, *argv, "--domain", "-2,2") == default
        glued = run(capsys, "verify", "--model", N1, "--suite", "lemma1",
                    "--domain=-1,3", "--json")
        spaced = run(capsys, "verify", "--model", N1, "--suite", "lemma1",
                     "--domain", "-1,3", "--json")
        assert spaced == glued and glued[0] == 0
        assert json.loads(glued[1])["meta"]["box"] == [-1.0, 3.0]

    def test_abbreviated_domain_with_a_negative_lo(self, capsys):
        # argparse takes any unique prefix of --domain for it; the CLI
        # glues the value to each
        argv = ("verify", "--model", N1, "--suite", "lemma1")
        default = run(capsys, *argv)
        assert default[0] == 0
        for flag in ("--dom", "--d"):
            assert run(capsys, *argv, flag, "-2,2") == default
        code, out, _ = run(capsys, *argv, "--dom", "0,2", "--json")
        assert code == 0
        assert json.loads(out)["meta"]["box"] == [0.0, 2.0]

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", N1,
                           "--suite", "prop2", "--points", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["meta"]["seed"] == 0
        assert all(c["pass"] for c in payload["checks"])


class TestSingularModel:
    """R = sqrt(q1) d/dq1 (x) dq1 cannot be evaluated where q1 < 0: every
    command redraws those points instead of stopping at the first one."""

    @pytest.fixture
    def model(self, tmp_path):
        path = tmp_path / "sqrt.json"
        path.write_text(json.dumps({"n": 1, "objects": {"R_sqrt": {
            "kind": "tensor11_E", "components": {"q1,q1": "sqrt(q1)"}}}}))
        return str(path)

    @pytest.mark.parametrize("suite", ["theorem2", "theorem3"])
    def test_suites_redraw(self, capsys, model, suite):
        code, out, err = run(capsys, "verify", "--model", model,
                             "--suite", suite)
        assert (code, err) == (0, "")
        assert out.startswith(f"[PASS] {suite}")

    def test_darboux_redraws(self, capsys, model):
        code, out, err = run(capsys, "darboux", "--model", model,
                             "--object", "R_sqrt", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["pn"]["verdict"] == "pn-structure"
        assert payload["checks"]["pass"] is True
        assert all(s["point"][1] >= 0.0 for s in payload["eigenvalue_samples"])

    def test_all_suites_skip_the_empty_concomitant_table(self, capsys, model):
        # no one-forms or vector fields: prop7 has no Magri-Morosi table to
        # check, which is no reason to abort the other checks
        code, out, err = run(capsys, "verify", "--model", model,
                             "--suite", "all")
        assert (code, err) == (0, "")
        assert "prop7.commutation[R0]" in out
        assert "prop7.concomitant" not in out

    @pytest.mark.parametrize("suite", ["lemma1", "brackets", "naturality"])
    def test_a_suite_with_no_inputs_is_exit_2(self, capsys, model, suite):
        code, out, err = run(capsys, "verify", "--model", model,
                             "--suite", suite)
        assert (code, out) == (2, "")
        assert err == (f"error: suite {suite!r} recorded no check: the model "
                       "has none of the objects it takes\n")


def test_scalar_only_model_checks_nothing(capsys, tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({"n": 1, "objects": {"f": {
        "kind": "scalar_E", "components": {"value": "q1"}}}}))
    code, out, err = run(capsys, "verify", "--model", str(path),
                         "--suite", "all", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: suite 'all' recorded no check")


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        args = ("verify", "--model", N1, "--suite", "brackets",
                "--points", "8", "--seed", "0", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_seed_changes_points(self, capsys):
        base = ("verify", "--model", N1, "--suite", "prop2",
                "--points", "4", "--json")
        _, a, _ = run(capsys, *base, "--seed", "0")
        _, b, _ = run(capsys, *base, "--seed", "1")
        assert json.loads(a)["meta"]["seed"] != json.loads(b)["meta"]["seed"]


class TestDarboux:
    def test_refuses_torsion(self, capsys):
        code, out, _ = run(capsys, "darboux", "--model", N1,
                           "--object", "R_torsion", "--points", "8",
                           "--json")
        assert code == 1
        assert json.loads(out)["pn"]["verdict"] == "not-pn"

    def test_refusal_names_every_residual_above_tol(self, capsys, monkeypatch):
        # the concomitant with the sign of its middle term flipped: the
        # torsions and the commutation vanish, the concomitant does not
        patch_everywhere(monkeypatch, jetlift.pn.magri_morosi_table,
                         flipped_middle_term)
        argv = ("darboux", "--model", N2, "--object", "R_dn")
        code, out, _ = run(capsys, *argv, "--json")
        pn = json.loads(out)["pn"]
        assert code == 1
        high = [name for name, value in pn.items()
                if name.endswith("_residual") and value >= pn["tol"]]
        assert high == ["magri_morosi_residual"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out == ("refusing R_dn: verdict not-pn (magri_morosi_residual "
                       f"{pn['magri_morosi_residual']:.3e}; tol 1e-09)\n")

    def test_large_entries_are_pn(self, capsys, tmp_path):
        # judged on the lifted probe basis, the concomitant of this tensor
        # was rounding at values near 1e9, above the absolute tolerance; on
        # the coordinate basis it folds to the constant zero
        path = tmp_path / "expexp.json"
        path.write_text(json.dumps({"n": 2, "objects": {"R": {
            "kind": "tensor11_E",
            "components": {"q1,q1": "exp(exp(q1))", "q2,q2": "q2"}}}}))
        code, out, _ = run(capsys, "darboux", "--model", str(path),
                           "--object", "R", "--domain", "2,3", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["pn"]["verdict"] == "pn-structure"
        assert payload["pn"]["magri_morosi_residual"] == 0.0
        assert payload["checks"]["pass"] is True

    def test_refusal_of_torsion_names_both_torsions(self, capsys):
        code, out, _ = run(capsys, "darboux", "--model", N1,
                           "--object", "R_torsion", "--points", "8")
        assert code == 1
        assert out.startswith("refusing R_torsion: verdict not-pn "
                              "(torsion_residual ")
        assert ", lifted_torsion_residual " in out
        assert "commutation" not in out and "magri" not in out

    def test_diagonal_passes(self, capsys):
        code, out, _ = run(capsys, "darboux", "--model", N1,
                           "--object", "R_diag", "--points", "8")
        assert code == 0
        assert "pn-structure" in out

    def test_n2_example(self, capsys):
        code, out, _ = run(capsys, "darboux", "--model", N2,
                           "--object", "R_dn", "--points", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"]["pass"] is True
        assert len(payload["eigenvalue_samples"]) == 3

    def test_points_and_tol_reach_every_call(self, capsys, monkeypatch):
        from jetlift import cli

        calls = ("pn_check", "build_dn_transform", "verify_dn")
        seen = {}

        def spy(name, real):
            def call(*args, **kwargs):
                seen[name] = (kwargs.get("points"), kwargs.get("tol"))
                return real(*args, **kwargs)
            monkeypatch.setattr(cli, name, call)

        for name in calls:
            spy(name, getattr(cli, name))
        code, out, _ = run(capsys, "darboux", "--model", N2, "--object",
                           "R_dn", "--points", "8", "--tol", "1e-5", "--json")
        assert code == 0
        meta = json.loads(out)["checks"]["meta"]
        assert (meta["points"], meta["tol"]) == (8, 1e-5)
        assert seen == dict.fromkeys(calls, (8, 1e-5))

    def test_omitted_sizes_keep_each_default(self, capsys, monkeypatch):
        from jetlift import cli

        kwargs_seen = []
        real = cli.build_dn_transform

        def spy(*args, **kwargs):
            kwargs_seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_dn_transform", spy)
        code, out, _ = run(capsys, "darboux", "--model", N2, "--object",
                           "R_dn", "--json")
        assert code == 0
        assert "points" not in kwargs_seen[0] and "tol" not in kwargs_seen[0]
        meta = json.loads(out)["checks"]["meta"]
        assert (meta["points"], meta["tol"]) == (32, 1e-6)


    def test_domain_reaches_pn_check(self, capsys, monkeypatch):
        from jetlift import cli
        from jetlift.report import Checker

        drawn = []
        real_pn_check, real_draw = cli.pn_check, Checker.draw_points

        def spy_draw(self, n, dim):
            points = real_draw(self, n, dim)
            drawn.extend(points.tolist())
            return points

        def pn_check(*args, **kwargs):
            monkeypatch.setattr(Checker, "draw_points", spy_draw)
            try:
                return real_pn_check(*args, **kwargs)
            finally:
                monkeypatch.setattr(Checker, "draw_points", real_draw)

        monkeypatch.setattr(cli, "pn_check", pn_check)
        run(capsys, "darboux", "--model", N2, "--object", "R_dn",
            "--points", "4", "--domain", "3,4")
        assert drawn
        assert all(3.0 <= v <= 4.0 for pt in drawn for v in pt)


class TestPrint:
    def test_scalar(self, capsys):
        code, out, _ = run(capsys, "print", "--model", N1,
                           "--object", "f", "--json")
        assert code == 0
        assert json.loads(out)["components"] == {"value": "t*q1"}

    def test_transform(self, capsys):
        code, out, _ = run(capsys, "print", "--model", N1,
                           "--object", "T_shift", "--json")
        assert code == 0
        assert json.loads(out)["forward"] == {"Q1": "q1 + t^2"}


@pytest.mark.parametrize("argv", [
    ("lift", "--model", N1, "--object", "R_diag", "--kind", "complete",
     "--points", "0", "--tol", "-1", "--domain=nonsense"),
    ("print", "--model", N1, "--object", "f", "--seed", "3"),
])
def test_lift_and_print_refuse_sampling_flags(argv, capsys):
    # they draw no points, so a sampling flag there is bad input, not a
    # value silently ignored
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


BAD_MODELS = {
    "scalar-number.json": {"n": 1, "objects": {"f": {
        "kind": "scalar_E", "components": {"value": 2}}}},
    "transform-number.json": {"n": 1, "objects": {"f": {
        "kind": "transform", "components": {"Q1": 5}}}},
    "n-true.json": {"n": True, "objects": {"f": {
        "kind": "scalar_E", "components": {"value": "q1"}}}},
    "object-number.json": {"n": 1, "objects": {"f": 5}},
    "components-list.json": {"n": 1, "objects": {"f": {
        "kind": "scalar_E", "components": ["q1"]}}},
    "scalar-two-keys.json": {"n": 1, "objects": {"f": {
        "kind": "scalar_E", "components": {"value": "q1", "other": "t"}}}},
    "transform-no-q1.json": {"n": 1, "objects": {"f": {
        "kind": "transform", "components": {"inv_q1": "q1"}}}},
    "list.json": [1, 2],
    "no-objects.json": {"n": 1, "objects": {}},
    # log(0) loads, but its derivative divides by the constant zero
    "log-zero.json": {"n": 1, "objects": {"R": {
        "kind": "tensor11_E", "components": {"q1,q1": "q1 + log(0)*t"}}}},
}
LEMMA1 = ("verify", "--model", N1, "--suite", "lemma1")
R_DN = ("darboux", "--model", N2, "--object", "R_dn")


@pytest.mark.parametrize("argv, names", [
    (LEMMA1 + ("--points", "0"), "sample point"),
    (LEMMA1 + ("--points", "-3"), "sample point"),
    (LEMMA1 + ("--tol", "0"), "tolerance"),
    (LEMMA1 + ("--tol", "nan"), "tolerance"),
    (LEMMA1 + ("--tol", "inf"), "tolerance"),
    (R_DN + ("--points", "0"), "sample point"),
    (R_DN + ("--tol", "-1"), "tolerance"),
    (LEMMA1 + ("--domain=-1e308,1e308",), "--domain"),
    (("print", "--model", "scalar-number.json", "--object", "f"), "'value'"),
    (("print", "--model", "transform-number.json", "--object", "f"), "'Q1'"),
    (("print", "--model", "n-true.json", "--object", "f"), "'n'"),
    (LEMMA1 + ("--domain", "nonsense"), "'lo,hi'"),
    (LEMMA1 + ("--domain", "3,1"), "lo < hi"),
    (("print", "--model", "object-number.json", "--object", "f"),
     "a dict with a 'kind'"),
    (("print", "--model", "components-list.json", "--object", "f"),
     "'components' must be a dict"),
    (("print", "--model", "scalar-two-keys.json", "--object", "f"),
     "a single 'value' component"),
    (("print", "--model", "transform-no-q1.json", "--object", "f"),
     "needs component 'Q1'"),
    (("print", "--model", "list.json", "--object", "f"), "a JSON object"),
    (("print", "--model", "no-objects.json", "--object", "f"),
     "non-empty 'objects'"),
    (("lift", "--model", "log-zero.json", "--object", "R", "--kind",
      "complete"), "object 'R', component 'q1,q1': cannot differentiate"),
    (("verify", "--model", "log-zero.json", "--suite", "all"),
     "object 'R', component 'q1,q1': cannot differentiate"),
])
def test_bad_input_is_exit_2_without_traceback(argv, names, tmp_path, capsys):
    # a check on no points, or at no tolerance, must not pass; a number
    # where a model wants an expression must not end in a TypeError; the
    # message names what is wrong
    argv = list(argv)
    if argv[2] in BAD_MODELS:
        path = tmp_path / argv[2]
        path.write_text(json.dumps(BAD_MODELS[argv[2]]))
        argv[2] = str(path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert names in err


# model text whose key was ignored, or whose last value of a key given twice
# silently won; the text as written, since json.dumps cannot repeat a key
T_N2 = '"T": {"kind": "transform", "components": {"Q1": "q1 + t*q2", "Q2": "q2"'
IGNORED_OR_REPEATED = {
    "transform-extra.json": '{"n": 2, "objects": {' + T_N2 +
                            ', "Q3": "t", "P1": "nonsense("}}}}',
    "transform-inv-q3.json": '{"n": 2, "objects": {' + T_N2 +
                             ', "inv_q1": "q1", "inv_q2": "q2", "inv_q3": "t"}}}}',
    "spaced-twice.json": '{"n": 1, "objects": {"R": {"kind": "tensor11_E", '
                         '"components": {"q1,q1": "q1", "q1, q1": "t*0 + 5"}}}}',
    "component-twice.json": '{"n": 1, "objects": {"R": {"kind": "tensor11_E", '
                            '"components": {"q1,q1": "q1", "q1,q1": "5"}}}}',
    "object-twice.json": '{"n": 1, "objects": {"R": {"kind": "tensor11_E", '
                         '"components": {"q1,q1": "q1"}}, "R": {"kind": '
                         '"tensor11_E", "components": {"q1,q1": "5"}}}}',
}


@pytest.mark.parametrize("model, argv, names", [
    ("transform-extra.json", ("print", "--object", "T"),
     "object 'T': transform has no component 'Q3'; expected "
     "['Q1', 'Q2', 'inv_q1', 'inv_q2']"),
    ("transform-extra.json", ("verify", "--suite", "naturality"),
     "object 'T': transform has no component 'Q3'; expected "
     "['Q1', 'Q2', 'inv_q1', 'inv_q2']"),
    ("transform-inv-q3.json", ("print", "--object", "T"),
     "object 'T': transform has no component 'inv_q3'; expected "
     "['Q1', 'Q2', 'inv_q1', 'inv_q2']"),
    ("spaced-twice.json", ("print", "--object", "R"),
     "object 'R': 'q1,q1' and 'q1, q1' name one component"),
    ("component-twice.json", ("print", "--object", "R"),
     "object 'R' gives component 'q1,q1' twice"),
    ("object-twice.json", ("print", "--object", "R"),
     "model gives object 'R' twice"),
], ids=["extra-print", "extra-verify", "inv-q3", "spaced", "component",
        "object"])
def test_an_ignored_or_repeated_key_is_exit_2(model, argv, names, tmp_path,
                                              capsys):
    path = tmp_path / model
    path.write_text(IGNORED_OR_REPEATED[model])
    code, out, err = run(capsys, argv[0], "--model", str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {names}\n"


# model text that ended in a traceback: a token the number syntax or the
# exponent rule rejects, a constant that folding overflowed or turned
# complex, a non-finite constant the printer could not show, and text
# nested deeper than the recursion limit, which was then refused as nested
# too deeply. A row is (text, what print shows or the error names, the
# rejection verify reports): None for bad input, "" for text whose checks
# pass.
EXPRESSION_TEXTS = [
    ("q1 + .", "unexpected character '.'", None),
    ("q1^\u00b2", "exponent must be a rational constant", None),
    ("q1^1/0", "exponent has denominator 0", None),
    ("exp(1000)*q1", "exp(1000)*q1", "(OverflowError: 641)"),
    ("q1 + (-1)^1/2", "q1 + (-1)^1/2", "(DomainError: 641)"),
    ("1e200*1e200*q1", "1e309*q1", "(NonFiniteError: 641)"),
    ("(1e309 - 1e309)*q1", "(1e309 - 1e309)*q1", "(NonFiniteError: 641)"),
    ("(" * 1200 + "q1" + ")" * 1200, "q1", ""),
    (" + ".join(["q1"] * 1500), " + ".join(["q1"] * 1500), ""),
    (" + ".join(["q1"] * 801), " + ".join(["q1"] * 801), ""),
    # shallow trees: each folds to the one node q1
    ("(" * 300 + "q1" + ")" * 300, "q1", ""),
    ("-" * 2000 + "q1", "q1", ""),
]


@pytest.mark.parametrize("text, printed, rejected", EXPRESSION_TEXTS,
                         ids=range(len(EXPRESSION_TEXTS)))
def test_no_expression_text_ends_in_a_traceback(text, printed, rejected,
                                                tmp_path, capsys):
    # a text that loads prints with exit 0, and a check on it either
    # passes or rejects every sample point; any other text is bad input,
    # exit 2
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "objects": {
        "f": {"kind": "scalar_E", "components": {"value": text}},
        "a": {"kind": "oneform_E", "components": {"q1": "1"}}}}))
    code, out, err = run(capsys, "print", "--model", str(path),
                         "--object", "f")
    if rejected is None:
        assert code == 2
        assert err.startswith("error: object ") and printed in err
    else:
        assert code == 0
        assert out == f"f on BaseE:\n  value: {printed}\n"
    code, _, verify_err = run(capsys, "verify", "--model", str(path),
                              "--suite", "lemma1")
    if rejected == "":
        assert code == 0 and verify_err == ""
    else:
        assert code == 2
        assert verify_err.startswith("error:")
        assert (rejected or printed) in verify_err
    assert "Traceback" not in err + verify_err


# The deep rows run the CLI in a new interpreter each: in this one, a tree
# an earlier row walked would be interned and its derivatives memoised, and
# the row would pass without the walk whose depth it tests.

# a sum of k terms q1*t is a tree of depth k + 1: with 400 terms the checks
# on it ended in a RecursionError from comparing trees, 799 terms made the
# deepest tree a model could hold while its depth was bounded at 800, and
# 1,500 terms were refused as nested too deeply
@pytest.mark.parametrize("terms", [400, 799, 1500])
@pytest.mark.parametrize("argv, exit_code", [
    (["print", "--object", "R"], 0),
    (["lift", "--object", "R", "--kind", "complete"], 0),
    (["lift", "--object", "R", "--kind", "cotangent"], 0),
    (["verify", "--suite", "all", "--points", "4"], 0),
    (["darboux", "--object", "R"], 1),  # refused: R has torsion (not-pn)
])
def test_deep_sums_run(terms, argv, exit_code, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "objects": {"R": {
        "kind": "tensor11_E",
        "components": {"q1,q1": " + ".join(["q1*t"] * terms), "q1,t": "t"}}}}))
    code, _, err = run_fresh(argv[0], "--model", str(path), *argv[1:])
    assert code == exit_code, err


# Components whose derivatives are deeper than they are: a product's
# derivative is about twice as deep as the product, a quotient's three
# times. The walks over such trees recursed once per level and ended in a
# RecursionError. At these sizes the values overflow or round past the
# absolute tolerance, so some identities fail (exit 1); none may end in a
# traceback.
@pytest.mark.parametrize("component", [
    "*".join(["q1"] * 500),
    "*".join(["(q1+t)"] * 400),
    "/".join(["q1"] * 350),
], ids=["product-500", "sum-product-400", "quotient-350"])
def test_deep_derivatives_run(component, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "objects": {"R": {
        "kind": "tensor11_E", "components": {"q1,q1": component}}}}))
    code, out, err = run_fresh("verify", "--model", str(path), "--suite",
                               "all", "--points", "4")
    assert code in (0, 1), err
    assert "Traceback" not in err and out.startswith("[")


# exp(400*q1)^2 overflows for q1 > 0.89 and the q1-entry of R is nan there
# (inf * 0): np.linalg.eig ended the run in a LinAlgError on that q-block
# until the eigen-analysis rejected non-finite blocks as points to redraw.
@pytest.mark.parametrize("seed", ["0", "3"])
def test_darboux_redraws_non_finite_eigen_blocks(seed, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "objects": {"R": {
        "kind": "tensor11_E", "components": {
            "q1,q1": "q1 + exp(400*q1)*exp(400*q1)*exp(-800*q1)",
            "q2,q2": "q2"}}}}))
    code, out, err = run_fresh("darboux", "--model", str(path), "--object",
                               "R", "--seed", seed)
    assert code == 0, err
    assert "Traceback" not in err and out.count("[PASS] dn.") == 4


# The lifted blocks print the derivatives of R, about twice as deep as R,
# and the printer recursed once per level: these lifts ended in a
# RecursionError.
@pytest.mark.parametrize("factors", [600, 799])
@pytest.mark.parametrize("kind", ["complete", "cotangent"])
def test_deep_lifts_print(kind, factors, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "objects": {"R": {
        "kind": "tensor11_E",
        "components": {"q1,q1": "*".join(["(q1+t)"] * factors)}}}}))
    code, out, err = run_fresh("lift", "--model", str(path), "--object", "R",
                               "--kind", kind)
    assert code == 0, err
    assert "Traceback" not in err and out.startswith(f"{kind} lift of R on ")
