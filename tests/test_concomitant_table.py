"""`pn.magri_morosi_table` against the pair-by-pair table it replaced
(`tests/per_pair_concomitant.py`): the same interned tree for every
component on the symbolic inputs the suites and `pn_check` hand it, and
the same values, bit for bit, when the lifted tensor is procedural."""
import math
import os
import random

import numpy as np
import pytest

import per_pair_concomitant
from batch_values import evaluate_batch
from call_nodes import holds_call
from corpus import torsion_example
from jetlift import expr as ex
from jetlift import pn
from jetlift.fields import ProceduralField
from jetlift.lifts import (complete_lift_tensor11, complete_lift_vector,
                           momentum_function, vlift_oneform)
from jetlift.model import load_model
from jetlift.pn import magri_morosi_table, pullback_oneform_to_phase
from jetlift.spaces import phase_j
from jetlift.tensors import OneForm, Tensor11, VectorField, differential

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def prop7_inputs(inp):
    """The sigmas and zs `suite_prop7` builds."""
    sigmas = [pullback_oneform_to_phase(a) for a in inp.oneforms]
    sigmas += [differential(momentum_function(X)) for X in inp.vert_fields]
    zs = [vlift_oneform(a) for a in inp.oneforms]
    zs += [complete_lift_vector(X) for X in inp.lift_fields]
    return sigmas, zs


def symbolic_cases():
    for model in ("n1", "n2"):
        inp = load_model(os.path.join(MODELS, f"{model}.json")).suite_inputs()
        for ri, R in enumerate(inp.tensors):
            Rt = complete_lift_tensor11(R)
            yield f"{model}-prop7-R{ri}", Rt, prop7_inputs(inp)
            yield f"{model}-basis-R{ri}", Rt, pn._basis_pairs(inp.n)
    yield "torsion-basis", complete_lift_tensor11(torsion_example()), pn._basis_pairs(1)


CASES = list(symbolic_cases())


@pytest.mark.parametrize("Rt, pairs", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_each_component_is_the_per_pair_tree(Rt, pairs):
    got = magri_morosi_table(Rt, *pairs)
    want = per_pair_concomitant.magri_morosi_table(Rt, *pairs)
    assert len(got) == len(want) == len(pairs[0]) * len(pairs[1])
    for g, w in zip(got, want):
        assert type(g) is VectorField and g.space is w.space
        assert [c.expr for c in g.components()] == [c.expr for c in w.components()]


def test_non_finite_constants_give_the_per_pair_trees():
    # an infinite constant makes the whole table keep its zero terms; the
    # pair-by-pair table kept them only where the constant was an operand
    pj = phase_j(1)
    Rt = complete_lift_tensor11(torsion_example())
    sigmas, zs = pn._basis_pairs(1)
    sigmas = sigmas + [OneForm(pj, [0.0, math.inf, "q1*p1"])]
    zs = zs + [VectorField(pj, [0.0, "1e200*(1e200*q1)", 0.0])]
    got = magri_morosi_table(Rt, sigmas, zs)
    want = per_pair_concomitant.magri_morosi_table(Rt, sigmas, zs)
    assert any(c.expr in ex.NON_FINITE for mu in got for c in mu.components())
    for g, w in zip(got, want):
        # a nan is interned by its bits, so trees holding one compare too
        assert [c.expr for c in g.components()] == [c.expr for c in w.components()]


def procedural_tensor():
    """The complete lift of the torsion example with its (q1, q1) entry
    multiplied by the procedural field exp(q1) * p1."""
    Rt = complete_lift_tensor11(torsion_example())
    f = ProceduralField(Rt.space, lambda b: np.exp(b.X[:, 1]) * b.X[:, 2],
                        lambda b: np.column_stack([0 * b.X[:, 0], np.exp(b.X[:, 1]) * b.X[:, 2],
                                                   np.exp(b.X[:, 1])]))
    entries = [list(row) for row in Rt.entries]
    entries[1][1] = entries[1][1] * f
    return Tensor11(Rt.space, entries)


def test_a_procedural_tensor_gives_the_per_pair_values():
    Rt = procedural_tensor()
    sigmas, zs = pn._basis_pairs(1)
    got = [c for mu in magri_morosi_table(Rt, sigmas, zs) for c in mu.components()]
    want = [c for mu in per_pair_concomitant.magri_morosi_table(Rt, sigmas, zs)
            for c in mu.components()]
    assert any(holds_call(c) for c in got)
    rng = random.Random(4)
    points = [tuple(rng.uniform(-2, 2) for _ in range(3)) for _ in range(32)]
    g, gb = evaluate_batch(got, points)
    w, wb = evaluate_batch(want, points)
    assert not gb.rejected.any() and not wb.rejected.any()
    assert g.tobytes() == w.tobytes()
    assert np.max(np.abs(g)) > 0  # the torsion example's values are not all 0
