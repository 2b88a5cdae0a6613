"""What Checker.compare and Checker.vanish accept: objects whose components
pair up one to one on a single space."""
import os
import random
import struct

import pytest

from jetlift import (
    SpaceMismatchError,
    VectorField,
    base_e,
    parse_field,
    phase_j,
)
from jetlift.cli import main
from jetlift.report import Checker

BE = base_e(1)


def test_extra_objects_are_not_dropped():
    # zipping [X] with [X, Y] would compare X with X and pass at 0.0
    X = VectorField(BE, ["q1", "t"])
    Y = VectorField(BE, ["1", "t*q1"])
    with pytest.raises(SpaceMismatchError, match="2 components with 4"):
        Checker(points=4).compare("c", "", [X], [X, Y])


def test_mixed_spaces_are_a_space_mismatch():
    f = parse_field("q1", BE)
    g = parse_field("p1 + q1", phase_j(1))
    with pytest.raises(SpaceMismatchError, match="mixed spaces"):
        Checker(points=4).compare("c", "", f, g)
    with pytest.raises(SpaceMismatchError, match="mixed spaces"):
        Checker(points=4).vanish("c", "", [f, g], dim=2)


def test_object_without_components_is_a_type_error():
    with pytest.raises(TypeError, match="no components"):
        Checker(points=4).vanish("c", "", [object()], dim=2)


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
    lambda ch: ch.vanish("x", "", [], dim=2),
    lambda ch: ch.compare("x", "", [], [], dim=2),
    lambda ch: ch.vanish("x", "", []),
])
def test_an_empty_check_is_a_space_mismatch(check):
    # not an IndexError, and not a vacuous pass at residual 0
    with pytest.raises(SpaceMismatchError, match="nothing to check"):
        check(Checker(points=4))


def test_an_empty_check_is_exit_2(capsys, monkeypatch):
    from jetlift import suites

    monkeypatch.setitem(suites.SUITES, "empty",
                        lambda inp, ch: ch.vanish("empty", "", [], dim=2))
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
