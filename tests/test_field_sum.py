"""`fields._proc_sum`, the field algebra's one procedural node per sum,
against the chain of binary operators it replaced
(`tests/binary_field_sum.py`): the same tree where the sum is all
symbolic, and otherwise the same values, gradients and second derivatives,
bit for bit, the same rejected rows with the same first error each, the
same order budget and the same SpaceMismatchError, on sums that mix
symbolic, procedural, constant-zero and non-finite factors under all three
signs. Each operator (+, -, * and negation, with a field or a number on
either side) is such a node, and is held to its binary closure the same
way. A chart push of the Darboux-Nijenhuis example builds one procedural
field per component sum.
"""
import math
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import binary_field_sum as binary
from binary_field_sum import binary_sum
from jetlift import build_dn_transform, complete_lift_tensor11
from jetlift import fields, tensors
from jetlift.errors import OrderOverflowError, SpaceMismatchError
from jetlift.fields import (
    Batch,
    ProceduralField,
    SymbolicField,
    const_field,
    coord_field,
    parse_field,
    zero,
)
from jetlift.model import load_model
from jetlift.spaces import base_e, phase_j

N2 = os.path.join(os.path.dirname(__file__), "..", "models", "n2.json")
BE = base_e(1)  # coordinates (t, q1)


def _q1_field():
    return ProceduralField(BE, lambda X: X[:, 1],
                           lambda X: np.column_stack([0 * X[:, 0], 1 + 0 * X[:, 1]]))


_exp = ProceduralField(
    BE, lambda X: np.exp(X[:, 1]) * X[:, 0],
    lambda X: np.column_stack([np.exp(X[:, 1]), np.exp(X[:, 1]) * X[:, 0]]))

FACTORS = {
    "q1": coord_field(BE, "q1"),
    "t*q1": parse_field("t*q1", BE),
    "1/q1": parse_field("1/q1", BE),        # rejects q1 near 0
    "log(q1)": parse_field("log(q1)", BE),  # rejects q1 <= 0
    "0": const_field(BE, 0.0),
    "-0": const_field(BE, -0.0),
    "inf": const_field(BE, math.inf),
    "-inf": const_field(BE, -math.inf),
    "nan": const_field(BE, math.nan),
    "exp": _exp,
    "sqrt": ProceduralField(  # nan for q1 < 0, rejecting nothing
        BE, lambda X: np.sqrt(X[:, 1]),
        lambda X: np.column_stack([0 * X[:, 0], 0.5 / np.sqrt(X[:, 1])])),
    "inf*q1": ProceduralField(
        BE, lambda X: math.inf * X[:, 1],
        lambda X: np.column_stack([0 * X[:, 0], math.inf + 0 * X[:, 1]])),
    "t/q1": coord_field(BE, "t") / _q1_field(),  # rejects q1 near 0
    "budget 1": _exp.diff("q1"),
    "budget 5": ProceduralField(
        BE, lambda X: X[:, 0],
        lambda X: np.column_stack([1 + 0 * X[:, 0], 0 * X[:, 1]]), 5),
    "no gradient": ProceduralField(BE, lambda X: X[:, 0] + X[:, 1]),
}
FOREIGN = [coord_field(phase_j(1), "p1"),
           ProceduralField(phase_j(1), lambda X: X[:, 2], lambda X: 0 * X)]

POINTS = np.array([(0.5, 0.0), (1.0, -1.0), (-2.0, 1e-7), (1.5, 2.0),
                   (0.0, 0.3), (-0.7, -1.3), (1.2, 0.9)])

TERMS = st.lists(st.tuples(st.sampled_from(["+", "-", "+-"]),
                           st.lists(st.sampled_from(sorted(FACTORS)),
                                    min_size=1, max_size=4)),
                 min_size=1, max_size=5)


def built(terms):
    """fields._proc_sum and the binary chain of the terms from 0, or the
    class of the error building raises."""
    out = []
    for fold in (fields._proc_sum, binary_sum):
        try:
            out.append(fold(zero(BE), terms))
        except SpaceMismatchError:
            out.append(SpaceMismatchError)
    return out


def outcome(f, ask):
    """The bits of what ask(f, b) gives over a fresh batch b of POINTS, or
    the error it raises, with the rejected rows and each one's error."""
    b = Batch(POINTS)
    with np.errstate(all="ignore"):
        try:
            got = [np.asarray(v).tobytes() for v in ask(f, b)]
        except OrderOverflowError as exc:
            got = (type(exc), str(exc))
    return got, b.rejected.tolist(), {i: (type(e), str(e))
                                      for i, e in b.errors.items()}


ASKS = {
    "value": lambda f, b: [f._value(b)],
    "gradient": lambda f, b: [f._grad(b)],
    "value, then gradient": lambda f, b: [f._value(b), f._grad(b)],
    "second derivatives": lambda f, b: [f.diff(c)._grad(b) for c in BE.coords],
}


@settings(max_examples=300)
@given(TERMS, st.data())
def test_the_node_is_the_binary_chain_bit_for_bit(named, data):
    terms = [(sign, [FACTORS[k] for k in keys]) for sign, keys in named]
    foreign = data.draw(st.sampled_from([None] * 6 + FOREIGN))
    if foreign is not None:  # now and then, a factor on another space
        i = data.draw(st.integers(0, len(terms) - 1))
        terms[i][1].insert(data.draw(st.integers(0, len(terms[i][1]))), foreign)
    got, want = built(terms)
    if want is SpaceMismatchError or isinstance(want, SymbolicField):
        assert got is want or got.expr is want.expr
        return
    assert type(got) is ProceduralField and got.space is want.space
    assert got.order_budget == want.order_budget
    for ask in ASKS.values():
        assert outcome(got, ask) == outcome(want, ask)


NUMBERS = [0.0, -0.0, 3, -1.5, 1e308, math.inf, -math.inf, math.nan]

# each operator beside its binary closure, on fields a and c, or on a field
# a and a number c
OPERATORS = {
    "a + c": (lambda a, c: a + c, binary.add),
    "a - c": (lambda a, c: a - c, binary.sub),
    "a * c": (lambda a, c: a * c, binary.mul),
    "-a": (lambda a, c: -a, lambda a, c: binary.neg(a)),
}
REFLECTED = {
    "a + x": (lambda a, x: a + x, binary.add),
    "x + a": (lambda a, x: x + a, binary.add),
    "a - x": (lambda a, x: a - x, binary.sub),
    "x - a": (lambda a, x: x - a, binary.rsub),
    "a * x": (lambda a, x: a * x, binary.mul),
    "x * a": (lambda a, x: x * a, binary.mul),
}


# 1,648 cases in all; Hypothesis never draws one twice, so it runs each
@settings(max_examples=2000)
@given(st.data())
def test_each_operator_is_its_binary_closure_bit_for_bit(data):
    name = data.draw(st.sampled_from(sorted(OPERATORS) + sorted(REFLECTED)))
    key = data.draw(st.sampled_from(sorted(FACTORS)))
    c = None
    if name in REFLECTED:
        c = data.draw(st.sampled_from(NUMBERS))
    elif name != "-a":
        c = data.draw(st.sampled_from([FACTORS[k] for k in sorted(FACTORS)]
                                      + FOREIGN))
    def apply(op):
        try:
            return op(FACTORS[key], c)
        except SpaceMismatchError:
            return SpaceMismatchError

    got, want = map(apply, {**OPERATORS, **REFLECTED}[name])
    if want is SpaceMismatchError or isinstance(want, SymbolicField):
        assert got is want or got.expr is want.expr
        return
    assert type(got) is ProceduralField and got.space is want.space
    # the one change: a negation's budget is capped at 2, as every other
    # operator's is
    assert got.order_budget == (min(want.order_budget, 2) if name == "-a"
                                else want.order_budget)
    for ask in ASKS.values():
        assert outcome(got, ask) == outcome(want, ask)


def test_the_symbolic_prefix_is_one_tree_and_the_rest_one_node(monkeypatch):
    q1, t_q1, exp = FACTORS["q1"], FACTORS["t*q1"], FACTORS["exp"]
    made, init = [], ProceduralField.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProceduralField, "__init__", counted)
    got = fields._proc_sum(zero(BE), [("+", [q1, t_q1]), ("-", [q1]),
                                      ("+", [t_q1, q1, exp, q1]), ("+-", [q1])])
    monkeypatch.undo()
    assert made == [got]
    assert fields._proc_sum(zero(BE), [("-", [q1]), ("+", [t_q1])]).expr is (
        -q1 + t_q1).expr


def test_a_phase_map_push_builds_one_procedural_field_per_component_sum(
        monkeypatch):
    _, R = load_model(N2).get("R_dn")
    pm, Rt = build_dn_transform(R).phase_map(), complete_lift_tensor11(R)
    made, sums = [0], []
    init, sum_ = ProceduralField.__init__, tensors._sum

    def counted_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    def counted_sum(alg, terms):
        before = made[0]
        out = sum_(alg, terms)
        sums.append((made[0] - before, len(terms)))
        return out

    monkeypatch.setattr(ProceduralField, "__init__", counted_init)
    monkeypatch.setattr(tensors, "_sum", counted_sum)
    pm.push(Rt)
    monkeypatch.undo()
    assert len(sums) == pm.dst.dim ** 2
    assert [built for built, _ in sums] == [1] * len(sums)
    assert max(n for _, n in sums) > 1
