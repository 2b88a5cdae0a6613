"""What Checker.compare and Checker.vanish accept: objects whose components
pair up one to one on a single space."""
import inspect
import math
import os
import random
import struct

import numpy as np
import pytest

from jetlift import (
    FibredTransform,
    SamplingError,
    SpaceMismatchError,
    Tensor11,
    VectorField,
    base_e,
    commutation_residual,
    complete_lift_cotangent,
    complete_lift_tensor11,
    eigenvalue_fields,
    parse_field,
    phase_j,
    rho_related,
)
from jetlift.cli import _parse_domain, main
from jetlift.errors import ModelError
from jetlift.expr import Batch
from jetlift.fields import const_field
from jetlift.report import (
    _REJECTABLE,
    Checker,
    _compiled_residuals,
    max_residual,
    residual_between,
    residual_of,
)

BE = base_e(1)


def test_extra_objects_are_not_dropped():
    # zipping [X] with [X, Y] would compare X with X and pass at 0.0
    X = VectorField(BE, ["q1", "t"])
    Y = VectorField(BE, ["1", "t*q1"])
    with pytest.raises(SpaceMismatchError, match="2 components with 4"):
        Checker(points=4).compare("c", "", [X], [X, Y])


def test_objects_of_different_shapes_are_a_space_mismatch():
    # broadcasting a (3, 3) tensor against a (3,) vector gave a residual
    be = base_e(2)
    R = Tensor11.from_dict(be, {"q1,q1": "q1"})
    X = VectorField(be, ["1", "q1", "q2"])
    for compare in (lambda: residual_between(R, X, (0.5, 1.0, 2.0)),
                    lambda: max_residual(R, [(0.5, 1.0, 2.0)], X)):
        with pytest.raises(SpaceMismatchError, match="9 components with 3"):
            compare()


def test_mixed_spaces_are_a_space_mismatch():
    f = parse_field("q1", BE)
    g = parse_field("p1 + q1", phase_j(1))
    with pytest.raises(SpaceMismatchError, match="mixed spaces"):
        Checker(points=4).compare("c", "", f, g)
    with pytest.raises(SpaceMismatchError, match="mixed spaces"):
        Checker(points=4).vanish("c", "", [f, g])


def test_object_without_components_is_a_type_error():
    with pytest.raises(TypeError, match="no components"):
        Checker(points=4).vanish("c", "", [object()])


def test_space_mismatch_is_exit_2(tmp_path, capsys, monkeypatch):
    # a suite comparing objects on two spaces: the CLI maps it to exit 2
    from jetlift import suites

    def bad_suite(inp, ch):
        ch.compare("bad", "", parse_field("q1", BE),
                   parse_field("p1", phase_j(1)))

    monkeypatch.setitem(suites.SUITES, "bad", bad_suite)
    model = os.path.join(os.path.dirname(__file__), "..", "models", "n1.json")
    assert main(["verify", "--model", model, "--suite", "bad"]) == 2
    assert "mixed spaces" in capsys.readouterr().err


@pytest.mark.parametrize("check", [
    lambda ch: ch.vanish("x", "", []),
    lambda ch: ch.compare("x", "", [], []),
    lambda ch: ch.vanish("x", "", []),
])
def test_an_empty_check_is_a_space_mismatch(check):
    # not an IndexError, and not a vacuous pass at residual 0
    with pytest.raises(SpaceMismatchError, match="nothing to check"):
        check(Checker(points=4))


def test_an_empty_check_is_exit_2(capsys, monkeypatch):
    from jetlift import suites

    monkeypatch.setitem(suites.SUITES, "empty",
                        lambda inp, ch: ch.vanish("empty", "", []))
    model = os.path.join(os.path.dirname(__file__), "..", "models", "n1.json")
    assert main(["verify", "--model", model, "--suite", "empty"]) == 2
    assert "nothing to check" in capsys.readouterr().err


@pytest.mark.parametrize("box", [(-2.0, 2.0), (3.0, 4.0), (1e200, 1e201),
                                 (-0.1, 1e-7)])
def test_batched_draw_is_the_uniform_stream(box):
    ch, rng = Checker(seed=7, box=box), random.Random(7)
    got = ch.draw_points(9, 3).tolist() + [list(ch.draw_point(3))]
    want = [[rng.uniform(*box) for _ in range(3)] for _ in range(10)]
    def pack(rows):  # the IEEE bytes, so that 0.0 and -0.0 differ
        return struct.pack("<30d", *[v for row in rows for v in row])
    assert pack(got) == pack(want)
    assert ch.rng.getstate() == rng.getstate()


@pytest.mark.parametrize("box", [(2.0, math.nan), (math.nan, 2.0),
                                 (-math.inf, 0.0), (0.0, math.inf),
                                 (1.0, 1.0), (2.0, -2.0), (-1e308, 1e308)])
def test_a_box_the_domain_flag_refuses_is_refused(box):
    # a nan or infinite bound would draw nan points and reject every one
    with pytest.raises(SamplingError, match="need a box"):
        Checker(box=box)
    with pytest.raises(ModelError, match="--domain needs"):
        _parse_domain(",".join(map(str, box)))


def newton_without_preimage():
    """X = d/dt + q1 d/dq1 pushed along Q1 = q1^2 + 10, whose Newton inverse
    finds no preimage anywhere in the default box."""
    X = VectorField.from_dict(BE, {"t": 1.0, "q1": "q1"})
    T = FibredTransform(1, [parse_field("q1^2 + 10", BE)])
    return T.base_map().push(X)


def test_abort_reasons_come_from_the_batch(monkeypatch):
    import jetlift

    calls = []
    real = jetlift.fields.evaluate

    def evaluate(*args):
        calls.append(1)
        return real(*args)

    for module in (jetlift.fields, jetlift.tensors, jetlift.pn, jetlift.report):
        monkeypatch.setattr(module, "evaluate", evaluate)
    X = VectorField.from_dict(BE, {"t": 1.0, "q1": "q1"})
    Xp = newton_without_preimage()
    with pytest.raises(SamplingError) as info:
        Checker(points=16).compare("x", "", Xp, X)
    assert str(info.value) == ("check x: rejected 161 sample points "
                               "(TransformError: 161)")
    assert calls == []  # no rejected point is evaluated again on its own


def _single_cause_cases():
    """(name, object, a point it evaluates at, a point that one cause
    rejects, that cause's class)."""
    # eigenvalues of [[q1, q2], [1, 0]] are complex where q1^2 + 4 q2 < 0
    companion = Tensor11.from_dict(base_e(2), {"q1,q1": "q1", "q1,q2": "q2",
                                               "q2,q1": "1"})
    field = lambda src: parse_field(src, BE)  # noqa: E731
    good = (0.5, 0.25)
    return [
        ("guard", field("1/q1"), good, (0.5, 0.0), "SingularPointError"),
        ("log", field("log(q1)"), good, (0.5, -1.0), "DomainError"),
        ("pow", field("q1^3"), good, (0.5, 1e200), "OverflowError"),
        ("exp", field("exp(q1)"), good, (0.5, 1000.0), "OverflowError"),
        ("product", field("t*q1"), good, (1e200, 1e200), "NonFiniteError"),
        ("newton", newton_without_preimage(), (0.5, 14.0), (0.5, 0.0),
         "TransformError"),
        ("eigen", eigenvalue_fields(companion)[0], (0.5, 1.0, 1.0),
         (0.5, 0.3, -0.2), "EigenError"),
    ]


CASES = _single_cause_cases()


def test_cases_cover_every_rejectable_class():
    assert {cls for *_, cls in CASES} == {c.__name__ for c in _REJECTABLE}


def _zero_like(a):
    zero = const_field(a.space, 0.0)
    return VectorField(a.space, [zero] * a.space.dim) if a.variance else zero


@pytest.mark.parametrize("side", ["vanish", "left", "right"])
@pytest.mark.parametrize("name, a, good, bad, cls", CASES,
                         ids=[case[0] for case in CASES])
def test_stored_error_is_the_per_point_error(name, a, good, bad, cls, side):
    zero = _zero_like(a)
    lhs, rhs = {"vanish": (a, None), "left": (a, zero),
                "right": (zero, a)}[side]
    with pytest.raises(_REJECTABLE) as want:
        if rhs is None:
            residual_of(lhs, bad)
        else:
            residual_between(lhs, rhs, bad)
    assert type(want.value).__name__ == cls
    b = Batch(np.array([good, bad]))
    with np.errstate(all="ignore"):
        _compiled_residuals(lhs, rhs)(b)
    assert b.rejected.tolist() == [False, True]
    assert type(b.errors[1]) is type(want.value)
    assert str(b.errors[1]) == str(want.value)
    with pytest.raises(type(want.value)) as got:
        max_residual(lhs, [good, bad], rhs)
    assert str(got.value) == str(want.value)


def test_no_points_is_a_sampling_error():
    # a maximum over no points is no residual: 0.0 there would pass anything
    R = Tensor11.from_dict(BE, {"q1,q1": "q1", "q1,t": "t"})
    with pytest.raises(SamplingError, match="no sample points"):
        max_residual(parse_field("q1", BE), [])
    with pytest.raises(SamplingError, match="no sample points"):
        rho_related(complete_lift_cotangent(R), complete_lift_tensor11(R), [])
    with pytest.raises(SamplingError, match="no sample points"):
        commutation_residual(complete_lift_tensor11(R), [])


def test_sampling_defaults_are_the_report_constants():
    # every entry point samples with report's defaults, which keep the
    # values they had when each function spelled them out
    from jetlift import lifts, pn, report, suites

    want = {"points": 64, "seed": 0, "tol": 1e-9, "box": (-2.0, 2.0)}
    for name, value in want.items():
        assert getattr(report, f"DEFAULT_{name.upper()}") == value
    for fn, names in [(suites.run_suite, "points seed tol box"),
                      (suites.run_all_suites, "points seed tol box"),
                      (pn.pn_check, "points seed tol box"),
                      (pn.build_dn_transform, "seed tol box"),
                      (pn.verify_dn, "seed box"),
                      (lifts.rho_related, "tol")]:
        params = inspect.signature(fn).parameters
        for name in names.split():
            assert params[name].default is getattr(
                report, f"DEFAULT_{name.upper()}"), (fn.__name__, name)
    assert inspect.signature(pn.build_dn_transform).parameters[
        "points"].default == 16
    assert inspect.signature(pn.verify_dn).parameters["points"].default == 32
