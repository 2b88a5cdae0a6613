"""A procedural leaf is only a leaf.

The procedural twin of a symbolic field (`tests/call_nodes.py`) is a call
node whose kernel runs that field's own compiled program and gradient
rows. Put in place of the field inside sums, products, quotients,
`inject`, `lie_derivative` and `_matsum` contractions, it must give the
values and the rejected rows, each with its first error, of the
all-symbolic expression bit for bit, and the same first partials.

Two things differ, by design, where a partial of the field is a constant.
The symbolic derivative folds 0 * x to +0.0, while the twin's partial is a
call whose value is 0, and its product with a negative x is -0.0, as IEEE
arithmetic gives it; so the partials are compared bit for bit up to the
sign of a zero. And a partial that folds to a constant rejects no row,
while the twin's gradient is one program for all its partials; so the
twin's partials may reject more rows, and are compared where neither
rejects. The Lie derivative's values are sums of first partials, and are
compared as partials; its own partials are second derivatives, which the
twin takes by central differences, and are not compared.
"""
import math
import os
from functools import reduce
from operator import add, mul, sub, truediv

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from batch_values import evaluate_batch
from call_nodes import holds_call, twin
from jetlift import build_dn_transform, complete_lift_tensor11, verify_dn
from jetlift import expr as ex
from jetlift.errors import ExprError
from jetlift.fields import (ProceduralField, const_field, coord_field, inject,
                            parse_field)
from jetlift.model import load_model
from jetlift.spaces import base_e, phase_j
from jetlift.tensors import OneForm, VectorField, _matsum, lie_derivative, sum_products

N2 = os.path.join(os.path.dirname(__file__), "..", "models", "n2.json")
BE = base_e(1)  # coordinates (t, q1)
PJ = phase_j(1)  # coordinates (t, q1, p1)

FIELDS = {
    "q1": coord_field(BE, "q1"),
    "t*q1": parse_field("t*q1", BE),
    "1/q1": parse_field("1/q1", BE),        # rejects q1 near 0
    "log(q1)": parse_field("log(q1)", BE),  # rejects q1 <= 0
    "exp(t*q1)": parse_field("exp(t*q1)", BE),
}
CONSTANTS = {name: const_field(BE, v) for name, v in (
    ("0", 0.0), ("-0", -0.0), ("inf", math.inf), ("-inf", -math.inf),
    ("nan", math.nan), ("2.5", 2.5))}
TWINS = {name: twin(f) for name, f in FIELDS.items()}

POINTS = np.array([(0.5, 0.0), (1.0, -1.0), (-2.0, 1e-7), (1.5, 2.0),
                   (0.0, 0.3), (-0.7, -1.3), (1.2, 0.9), (-1.1, -0.0)])
PHASE_POINTS = np.column_stack([POINTS, np.linspace(-2.0, 2.0, len(POINTS))])

TERMS = st.lists(st.tuples(st.sampled_from(["+", "-", "+-", "/"]),
                           st.lists(st.sampled_from(sorted(FIELDS) + sorted(CONSTANTS)),
                                    min_size=1, max_size=3)),
                 min_size=1, max_size=4)


OPERATORS = {"+": add, "-": sub, "/": truediv, "+-": lambda acc, p: acc + -p}


def operators(terms):
    """The products folded by the field operators, the first term as the
    start: + - and / add, subtract and divide, +- adds the negation."""
    acc = None
    for sign, factors in terms:
        p = reduce(mul, factors)
        acc = p if acc is None else OPERATORS[sign](acc, p)
    return acc


def build(site, terms):
    """The components a site gives for the terms, and their space."""
    T = operators(terms)
    A = reduce(mul, terms[0][1])
    if site == "sum_products":
        return [sum_products(BE, [("+" if s == "/" else s, fs) for s, fs in terms])], BE
    if site == "operators":
        return [T], BE
    if site == "inject":
        return [inject(T, PJ), inject(A, PJ) * coord_field(PJ, "p1")], PJ
    if site == "lie_derivative":
        return lie_derivative(VectorField(BE, [A, T]), OneForm(BE, [T, A])).components(), BE
    return [f for row in _matsum(BE, "+", [[A, T]], [[T, A], [A, A]],
                                 [("+-", [[T, T]], [[A, T], [T, T]])]) for f in row], BE


def outcome(site, terms):
    """The bits of the components' values over the points, the rejected rows
    and each one's first error, and their first partials with the mask of
    rows they reject; or the class of the error building them raises."""
    try:
        comps, space = build(site, terms)
    except ExprError as exc:  # a division by the constant zero
        return type(exc), None
    X = POINTS if space is BE else PHASE_POINTS
    if site == "lie_derivative":
        return None, partials(comps, X)
    values, b = evaluate_batch(comps, X)
    rejected = b.rejected | ~np.isfinite(values).all(axis=0)
    return ((values[:, ~rejected].tobytes(), b.rejected.tolist(),
             {i: (type(e), str(e)) for i, e in b.errors.items()}),
            partials([f.diff(c) for f in comps for c in space.coords], X))


def partials(fields, X):
    """The values of the fields, signed zeros made +0.0, and the mask of
    the rows they reject."""
    values, b = evaluate_batch(fields, X)
    return values + 0.0, b.rejected | ~np.isfinite(values).all(axis=0)


@settings(max_examples=400)
@given(TERMS, st.sets(st.sampled_from(sorted(FIELDS)), min_size=1),
       st.sampled_from(["sum_products", "operators", "inject", "lie_derivative",
                        "matsum"]))
def test_a_procedural_leaf_is_only_a_leaf(named, twinned, site):
    def terms(fields):
        return [(sign, [fields.get(k) or CONSTANTS[k] for k in keys])
                for sign, keys in named]

    want, want_partials = outcome(site, terms(FIELDS))
    got, got_partials = outcome(site, terms({k: TWINS[k] if k in twinned else f
                                             for k, f in FIELDS.items()}))
    assert got == want
    if want_partials is not None:
        (P, rejected), (Q, more) = want_partials, got_partials
        assert not (rejected & ~more).any()
        assert P[:, ~more].tobytes() == Q[:, ~more].tobytes()


def test_twins_are_call_nodes():
    assert all(holds_call(f) for f in TWINS.values())
    assert not any(holds_call(f) for f in FIELDS.values())


def test_a_phase_map_push_builds_no_procedural_field(monkeypatch):
    # every component sum of the Darboux-Nijenhuis push is one tree, which
    # holds the eigenvalue and Newton calls as leaves
    _, R = load_model(N2).get("R_dn")
    pm, Rt = build_dn_transform(R).phase_map(), complete_lift_tensor11(R)
    made, init = [], ProceduralField.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProceduralField, "__init__", counted)
    pushed = pm.push(Rt)
    monkeypatch.undo()
    assert made == []
    assert any(holds_call(f) for f in pushed.components())


def test_building_a_transform_again_interns_no_node():
    # call nodes live in the intern table for the whole process: the same
    # R must give the same eigenvalue and Newton kernels, not new nodes
    _, R = load_model(N2).get("R_dn")
    T = build_dn_transform(R)
    verify_dn(R, T, seed=0)
    before = len(ex._NODES)
    again = build_dn_transform(R)
    verify_dn(R, again, seed=1)
    assert len(ex._NODES) == before
    assert [f.expr for f in again.q_fwd + again.q_inv] == [
        f.expr for f in T.q_fwd + T.q_inv]
