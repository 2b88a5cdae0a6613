"""Each suite builds the lifts of a model object once per run, before its
check loops, and reuses them: a spy on every lift-building name the suites
call sees no call repeat its arguments, by identity, when one of them is
an object of the model."""
import os
from collections import Counter

import pytest

from jetlift import suites
from jetlift.model import load_model
from jetlift.tensors import Tensor12

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")

#: the names in jetlift.suites that build a lift or a lifted operand
LIFTS = ["vlift_oneform", "vlift_tensor11", "vlift_twoform", "hlift_tensor11",
         "complete_lift_vector", "complete_lift_tensor11", "momentum_function",
         "pullback_oneform_to_phase", "lie_derivative", "lie_bracket",
         "apply_tensor11"]


@pytest.mark.parametrize("model", ["n1", "n2"])
def test_no_suite_lifts_a_model_object_twice(monkeypatch, model):
    inp = load_model(os.path.join(MODELS, f"{model}.json")).suite_inputs()
    objects = {id(obj) for objs in (inp.tensors, inp.oneforms, inp.twoforms,
                                    inp.lift_fields, inp.scalars) for obj in objs}
    calls, alive = Counter(), []

    def spy(name, fn):
        def counted(*args):
            alive.append(args)  # no id is reused while the suite runs
            if objects.intersection(map(id, args)):
                calls[(name, *map(id, args))] += 1
            return fn(*args)
        return counted

    for name in LIFTS:
        monkeypatch.setattr(suites, name, spy(name, getattr(suites, name)))
    monkeypatch.setattr(Tensor12, "hook", spy("Tensor12.hook", Tensor12.hook))
    repeats, seen = {}, 0
    for suite in suites.SUITES:
        calls.clear()
        suites.run_suite(suite, inp, points=4)
        seen += len(calls)
        repeated = Counter(key[0] for key, k in calls.items() if k > 1)
        if repeated:
            repeats[suite] = dict(repeated)
        alive.clear()
    assert seen > 0 and repeats == {}
