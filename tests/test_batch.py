"""The compiled batch evaluator against scalar evaluation, and the checks
that run on it."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from jetlift import (
    DomainError,
    SamplingError,
    SingularPointError,
    base_e,
    nijenhuis_torsion,
    parse_field,
)
from jetlift import expr as ex
from jetlift.fields import ProceduralField
from jetlift.report import (
    CheckReport,
    Checker,
    residual_between,
    residual_of,
)
from jetlift.suites import SUITES
import scalar_evaluate
from corpus import standard_corpus

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

COORDS = ("t", "q1", "p1")
# near-zero, negative, exp-overflowing, pow-overflowing and non-finite
# values included (sin and cos of an infinite value raise)
COORD_VALUES = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 709.0, 710.0, -750.0, 1e200,
                     math.inf, -math.inf, math.nan]))
CONSTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-7, 700.0,
                          1e300])
EXPONENTS = st.sampled_from([Fraction(2), Fraction(3), Fraction(-1),
                             Fraction(-2), Fraction(1, 2), Fraction(-3, 2),
                             Fraction(1, 3), Fraction(2, 3)])


def _extend(children):
    return st.one_of(
        st.builds(ex.Unary, st.sampled_from(("neg",) + ex.FUNCTIONS),
                  children),
        st.builds(ex.Binary, st.sampled_from(("add", "sub", "mul", "div")),
                  children, children),
        st.builds(ex.Pow, children, EXPONENTS))


TREES = st.recursive(
    st.one_of(st.sampled_from(COORDS).map(ex.Var), CONSTS.map(ex.Const)),
    _extend, max_leaves=10)
POINTS = st.lists(st.tuples(*[COORD_VALUES] * len(COORDS)),
                  min_size=1, max_size=6)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _run(roots, coords, points):
    """The compiled program of the roots run in a new Batch of the points:
    its values and that Batch."""
    b = ex.Batch(np.asarray(points, dtype=float))
    return ex.compile_batch(roots, coords)(b), b


def _oracle(roots, point):
    """The values of the roots at a point by the scalar evaluator, each
    root alone in order, or the first error it raises."""
    env = dict(zip(COORDS, point))
    try:
        return [scalar_evaluate.evaluate(r, env) for r in roots]
    except (SingularPointError, DomainError, OverflowError) as exc:
        return exc


def _scalar(roots, point):
    """The values of the roots at a point, or None where the point is
    rejected: a guard error, an overflow, or a non-finite value."""
    values = _oracle(roots, point)
    if isinstance(values, Exception):
        return None
    return values if all(math.isfinite(v) for v in values) else None


@hypothesis.settings(max_examples=2000)
@hypothesis.given(st.lists(TREES, min_size=1, max_size=3), POINTS)
def test_batch_matches_scalar_evaluate(roots, points):
    # the compiled program against the scalar evaluator it replaced: the
    # first error of each failing row, the value bits of every other row
    # (a non-finite value is no error: the row is left for the caller)
    values, b = _run(roots, COORDS, points)
    assert values.shape == (len(roots), len(points))
    for j, pt in enumerate(points):
        expected = _oracle(roots, pt)
        if isinstance(expected, Exception):
            assert b.rejected[j] and j in b.errors
            assert type(b.errors[j]) is type(expected)
            assert str(b.errors[j]) == str(expected)
        else:
            assert j not in b.errors and not b.rejected[j]
            assert _bits(values[:, j]) == _bits(expected)


@hypothesis.given(st.sampled_from(ex.FUNCTIONS),
                  st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=50))
def test_functions_match_math(name, xs):
    e = ex.Unary(name, ex.Var("t"))
    values, b = _run([e], ("t",), [[x] for x in xs])
    rejected = b.rejected | ~np.isfinite(values[0])
    for j, x in enumerate(xs):
        expected = _scalar([e], (x, 0.0, 0.0))
        assert rejected[j] == (expected is None)
        if expected is not None:
            assert _bits(values[:, j]) == _bits(expected)


def test_signed_zero_constants_stay_apart():
    roots = [ex.Const(0.0), ex.Const(-0.0)]
    values, _ = _run(roots, ("t",), [[1.0]])
    assert _bits(values[:, 0]) == _bits([0.0, -0.0])


def test_shared_subtrees_compile_once(monkeypatch):
    q = ex.Var("q1")
    a = ex.Binary("mul", ex.Unary("sin", q), ex.Unary("sin", q))
    b = ex.Binary("add", a, ex.Binary("mul", ex.Unary("sin", q),
                                      ex.Unary("sin", ex.Var("q1"))))
    assert b.right is a  # interned: b is a + a
    calls = []

    def counted(name, f):
        return lambda *args: calls.append(name) or f(*args)

    monkeypatch.setitem(ex._MATH_UFUNCS, "sin",
                        counted("sin", ex._MATH_UFUNCS["sin"]))
    for op in ("mul", "add"):
        monkeypatch.setitem(ex._ARITH, op, counted(op, ex._ARITH[op]))
    run = ex.compile_batch([a, b], ("q1",))
    for rounds in (1, 2):
        values = run(ex.Batch(np.array([[0.5], [2.0]])))
        # each node once per run: q1's sin, a = sin*sin, b = a + a
        assert calls == ["sin", "mul", "add"] * rounds
        s = [math.sin(0.5), math.sin(2.0)]
        assert values.tolist() == [[x * x for x in s], [x * x + x * x for x in s]]


def test_a_node_with_no_rule_is_an_expr_error():
    e = ex.Unary("tan", ex.Var("t"))  # ex.fn refuses it; built directly
    run = ex.compile_batch([ex.add(e, ex.ONE)], ("t",))
    with pytest.raises(ex.ExprError, match="^cannot evaluate 'tan'$"):
        run(ex.Batch(np.array([[0.5]])))


def test_exp_overflow_is_masked_not_raised():
    e = ex.Unary("exp", ex.Var("t"))
    with pytest.raises(OverflowError):
        scalar_evaluate.evaluate(e, {"t": 800.0})
    values, b = _run([e], ("t",), [[1.0], [800.0], [2.0]])
    assert b.rejected.tolist() == [False, True, False]
    assert list(b.errors) == [1] and isinstance(b.errors[1], OverflowError)
    assert values[0, 0] == math.exp(1.0) and values[0, 2] == math.exp(2.0)


def test_non_finite_values_are_masked():
    t = ex.Var("t")
    square = ex.Binary("mul", t, t)  # overflows to inf without raising
    assert scalar_evaluate.evaluate(square, {"t": 1e200}) == math.inf
    nan = ex.Binary("sub", square, square)
    values, b = _run([square, nan], ("t",), [[1e200], [3.0]])
    # no error: the value is kept, and the caller judges the row
    assert not b.rejected.any() and b.errors == {}
    assert (~np.isfinite(values).all(axis=0)).tolist() == [True, False]
    assert values[0, 0] == math.inf


def test_guards_match_evaluate():
    t = ex.Var("t")
    cases = [ex.Binary("div", ex.ONE, t), ex.Unary("log", t),
             ex.Unary("sqrt", t), ex.Pow(t, Fraction(1, 2)),
             ex.Pow(t, Fraction(-2))]
    pts = [[-1.0], [0.0], [1e-7], [4.0]]
    for e in cases:
        values, b = _run([e], ("t",), pts)
        rejected = b.rejected | ~np.isfinite(values[0])
        assert rejected.tolist() == [_scalar([e], (p[0], 0, 0)) is None
                                     for p in pts]


class TestNonFinite:
    def test_nan_residual_fails(self):
        item = Checker(points=4).residual("x", "", 1, lambda p: float("nan"))
        assert not item.passed
        assert item.max_residual == math.inf

    def test_nan_residual_report_is_strict_json(self):
        ch = Checker(points=4)
        ch.residual("x", "", 1, lambda p: float("nan"))
        report = CheckReport("r", items=ch.report.items)

        def no_bare_constants(token):
            raise ValueError(f"bare {token} in JSON")

        parsed = json.loads(report.to_json(),
                            parse_constant=no_bare_constants)
        assert parsed["checks"][0]["max_residual"] == "inf"
        assert parsed["pass"] is False

    def test_nan_value_is_rejected_per_point(self):
        nan_field = ProceduralField(base_e(1),
                                    lambda b: np.full(len(b.X), math.nan))
        with pytest.raises(SamplingError):
            Checker(points=4).vanish("x", "", nan_field)

    def test_overflow_is_rejected_compiled(self):
        f = parse_field("exp(q1)", base_e(1))
        with pytest.raises(SamplingError):
            Checker(points=4, box=(800.0, 900.0)).vanish("x", "", f)
        # exp overflows above q1 = 709.78: those points are redrawn
        item = Checker(points=8, box=(700.0, 720.0)).compare("x", "", f, f)
        assert item.passed and item.worst_point == ()
        item = Checker(points=8, box=(700.0, 720.0)).vanish("x", "", f)
        assert math.isfinite(item.max_residual)
        assert item.worst_point[1] < 709.79


def _flat(a):
    if isinstance(a, list):
        return [x for item in a for x in _flat(item)]
    return [a]


class BothWays(Checker):
    """Runs every compare/vanish on the compiled path and again, from the
    same random state, through per-point residual_between/residual_of."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.pairs = []

    def _per_point(self, check_id, a, b):
        objs_a, objs_b = _flat(a), _flat(b)
        dim = objs_a[0].space.dim
        if b is None:
            fn = lambda pt: max(residual_of(x, pt) for x in objs_a)
        else:
            fn = lambda pt: max(residual_between(x, y, pt)
                                for x, y in zip(objs_a, objs_b))
        return self.residual(check_id, "", dim, fn)

    def _both(self, run, check_id, a, b):
        state = self.rng.getstate()
        batched = run()
        after = self.rng.getstate()
        self.rng.setstate(state)
        per_point = self._per_point(check_id, a, b)
        self.report.items.pop()
        assert self.rng.getstate() == after
        self.pairs.append((batched, per_point))
        return batched

    def compare(self, check_id, identity, a, b):
        return self._both(lambda: super(BothWays, self).compare(
            check_id, identity, a, b), check_id, a, b)

    def vanish(self, check_id, identity, a):
        return self._both(lambda: super(BothWays, self).vanish(
            check_id, identity, a), check_id, a, None)


@pytest.mark.parametrize("suite", ["lemma1", "prop7"])
def test_batched_checks_match_per_point(suite):
    ch = BothWays(points=16, seed=3)
    SUITES[suite](standard_corpus(2), ch)
    assert ch.pairs
    for batched, per_point in ch.pairs:
        assert batched.max_residual == per_point.max_residual
        assert batched.worst_point == per_point.worst_point


def test_check_compiles_once_across_rejection_rounds(monkeypatch):
    compiled = []
    compile_ = ex.compile_batch
    monkeypatch.setattr(ex, "compile_batch",
                        lambda *args: compiled.append(1) or compile_(*args))
    f = parse_field("exp(q1)", base_e(1))
    ch = Checker(points=16, box=(700.0, 720.0))
    drawn = []
    draw = ch.draw_points
    monkeypatch.setattr(ch, "draw_points",
                        lambda n, dim: drawn.extend([1] * n) or draw(n, dim))
    ch.vanish("x", "", f)
    assert len(drawn) > 16  # exp overflows above 709.78: points redrawn
    assert len(compiled) == 1


def test_components_are_in_eval_at_order():
    corpus = standard_corpus(2)
    objects = (corpus.tensors + corpus.oneforms + corpus.twoforms
               + corpus.vert_fields + corpus.scalars
               + [nijenhuis_torsion(R) for R in corpus.tensors])
    for obj in objects:
        pt = tuple(0.3 + 0.4 * i for i in range(obj.space.dim))
        values = obj.eval_at(pt) if hasattr(obj, "eval_at") else obj.eval(pt)
        assert [c.eval(pt) for c in obj.components()] == \
            np.ravel(values).tolist()
