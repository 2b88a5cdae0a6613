import math
import operator
import random
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetlift import (
    DomainError,
    EvaluationError,
    ExprError,
    OrderOverflowError,
    ParseError,
    SingularPointError,
    UnknownIdentifierError,
    base_e,
    parse_field,
    phase_j,
)
from jetlift import expr as ex
from jetlift.expr import parse_expr, to_string
from jetlift.fields import Kernel, ProceduralField, SymbolicField
import recursive_text
import scalar_evaluate


def rand_points(dim, n=64, seed=0, lo=-2.0, hi=2.0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(lo, hi) for _ in range(dim)) for _ in range(n)]


class TestParse:
    def test_product(self):
        f = parse_field("p1*q1", phase_j(1))
        assert f.eval((0.0, 2.0, 3.0)) == 6.0

    def test_zero_term(self):
        f = parse_field("t + 0*q1", base_e(1))
        for pt in rand_points(2):
            assert f.eval(pt) == pytest.approx(pt[0], abs=1e-12)

    def test_pythagoras(self):
        f = parse_field("sin(q1)^2 + cos(q1)^2", base_e(1))
        for pt in rand_points(2):
            assert f.eval(pt) == pytest.approx(1.0, abs=1e-12)

    def test_rational_exponent(self):
        # the exponent itself may be a rational literal: q1^(3/2)
        f = parse_field("q1^3/2", base_e(1))
        assert f.eval((0.0, 2.0)) == pytest.approx(2.0 ** 1.5)
        h = parse_field("q1^-2", base_e(1))
        assert h.eval((0.0, 2.0)) == pytest.approx(0.25)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("q1 + * 2", ("t", "q1"))
        assert err.value.position is not None

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("q2", ("t", "q1"))

    def test_non_constant_exponent(self):
        with pytest.raises(ParseError):
            parse_expr("q1^t", ("t", "q1"))

    def test_unary_minus_binds_tightly(self):
        # the grammar reads -q1^2 as (-q1)^2
        f = parse_field("-q1^2", base_e(1))
        assert f.eval((0.0, 3.0)) == pytest.approx(9.0)


class TestDifferentiate:
    def test_polynomial(self):
        f = parse_field("q1^2*t", base_e(1))
        assert f.diff("q1").eval((3.0, 2.0)) == pytest.approx(12.0)

    def test_independent(self):
        f = parse_field("q1", base_e(1))
        g = f.diff("t")
        for pt in rand_points(2):
            assert g.eval(pt) == 0.0

    def test_chain_rules(self):
        f = parse_field("sin(q1*t) + exp(t)/q1", base_e(1))
        df = f.diff("q1")
        for t, q in rand_points(2, seed=3):
            if abs(q) < 1e-3:
                continue
            expect = t * math.cos(q * t) - math.exp(t) / q**2
            assert df.eval((t, q)) == pytest.approx(expect, abs=1e-12)

    def test_mixed_partials_commute(self):
        f = parse_field("sin(q1*t)*exp(q1) + t^3*q1^2", base_e(1))
        a = f.diff("t").diff("q1")
        b = f.diff("q1").diff("t")
        for pt in rand_points(2):
            assert a.eval(pt) == pytest.approx(b.eval(pt), abs=1e-9)

    def test_leibniz(self):
        f = parse_field("sin(t) + q1^2", base_e(1))
        g = parse_field("exp(q1)*t", base_e(1))
        lhs = (f * g).diff("q1")
        rhs = f * g.diff("q1") + g * f.diff("q1")
        for pt in rand_points(2):
            assert lhs.eval(pt) == pytest.approx(rhs.eval(pt), abs=1e-9)


class TestEvaluate:
    def test_division(self):
        f = parse_field("q1/t", base_e(1))
        assert f.eval((2.0, 6.0)) == pytest.approx(3.0)

    def test_singular_guard(self):
        f = parse_field("q1/t", base_e(1))
        with pytest.raises(SingularPointError):
            f.eval((1e-9, 6.0))

    def test_exp_zero(self):
        f = parse_field("exp(0*t)", base_e(1))
        for pt in rand_points(2):
            assert f.eval(pt) == 1.0

    def test_domain_errors(self):
        assert parse_field("log(t)", base_e(1)).eval((2.0, 0.0)) == \
            pytest.approx(math.log(2.0))
        with pytest.raises(DomainError):
            parse_field("log(t)", base_e(1)).eval((-1.0, 0.0))
        with pytest.raises(DomainError):
            parse_field("sqrt(q1)", base_e(1)).eval((0.0, -4.0))


class TestRoundTrip:
    CASES = [
        "q1^2*t - sin(q1)/(2 + cos(t))",
        "-q1^2 + (-3)*t",
        "exp(t)*q1 + q1^-2",
        "sqrt(q1^2 + 1) - log(t^2 + 1)",
        "t*q1*p1 - (p1^3)/7",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_print_parse(self, src):
        coords = ("t", "q1", "p1")
        e = parse_expr(src, coords)
        e2 = parse_expr(to_string(e), coords)
        f = SymbolicField(phase_j(1), e)
        g = SymbolicField(phase_j(1), e2)
        for pt in rand_points(3):
            assert f.eval(pt) == pytest.approx(g.eval(pt), abs=1e-12)


COORDS = ("t", "q1", "p1")
# the grammar's tokens, with whitespace, and pieces of text it rejects
TEXT_TOKENS = st.sampled_from(
    ["+", "-", "*", "/", "^", "(", ")", "t", "q1", "p1", "q9", "e", "exp",
     "sin", "sqrt", "0", "2", "12", "3.5", "5.", ".5", "1e5", "1e", "1E-3",
     "1e309", " ", "\t", "\u00a0", ".", "\u00b2", "\u00e9", "/0"])


@given(st.lists(TEXT_TOKENS, max_size=16).map("".join))
def test_any_text_parses_or_raises_an_expression_error(src):
    try:
        parse_expr(src, COORDS)
    except ExprError:
        pass


CONSTS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300,
                          -1e300, 2.5, -1.0, -3.0, 1e-7, 1000.0])
EXPONENTS = st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 2),
                             Fraction(-3, 2), Fraction(2, 3), Fraction(3)])
BINARY = st.sampled_from([ex.add, ex.sub, ex.mul, ex.div])


def _binary(op, a, b):
    try:
        return op(a, b)
    except ExprError:  # division by the constant zero
        return a


def _grow(children):
    return st.one_of(
        st.builds(ex.neg, children),
        st.builds(ex.fn, st.sampled_from(ex.FUNCTIONS), children),
        st.builds(_binary, BINARY, children, children),
        st.builds(ex.powr, children, EXPONENTS))


TREES = st.recursive(
    st.one_of(st.sampled_from(COORDS).map(ex.var), CONSTS.map(ex.const)),
    _grow, max_leaves=8)


def _evaluate(e, point):
    """The value of e at a point of COORDS by the one-row compiled program;
    raises the error it names there."""
    b = ex.Batch(np.array([point], dtype=float))
    values = ex.compile_batch([e], COORDS)(b)
    if b.rejected[0]:
        raise b.errors[0]
    return values.item(0)


def _outcome(e, point):
    """The value bits of e at point (any nan alike), or the error class."""
    try:
        v = _evaluate(e, point)
    except (EvaluationError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(v) else struct.pack("<d", v)


@given(TREES, st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * len(COORDS)),
                       min_size=1, max_size=4))
def test_printed_tree_reads_back_to_the_same_values(e, points):
    e2 = parse_expr(to_string(e), COORDS)
    if isinstance(e, ex.Const) and e.value == 0.0:  # 0 prints without its sign
        e = ex.ZERO
    for pt in points:
        assert _outcome(e2, pt) == _outcome(e, pt)


# finite constants and smooth compositions: the trees the derivative oracles
# can check (where a tree cannot be evaluated, the example is skipped)
SMOOTH_TREES = st.recursive(
    st.one_of(st.sampled_from(COORDS).map(ex.var),
              st.sampled_from([-1.5, 0.5, 2.0]).map(ex.const)),
    _grow, max_leaves=8)
POINTS = st.tuples(*[st.floats(-3.0, 3.0)] * len(COORDS))


def _along(e, point, name, xs):
    """The values of e at point with coordinate name set to each of xs."""
    k = COORDS.index(name)
    return [_evaluate(e, point[:k] + (x,) + point[k + 1:]) for x in xs]


@settings(max_examples=400)
@given(SMOOTH_TREES, POINTS)
def test_derivative_agrees_with_a_central_difference(e, point):
    # central differences at steps h and h/2 differ by 3/4 of the
    # truncation error of the first; where that is below the tolerance, the
    # second is within it of the derivative (rounding adds ~1e-12 relative).
    # The scale leaves the derivative under test out.
    compared = 0
    for name in sorted(e.names):
        x = point[COORDS.index(name)]
        h = 1e-4 * max(1.0, abs(x))
        try:
            exact, = _along(ex.differentiate(e, name), point, name, [x])
            f = _along(e, point, name, [x + h, x - h, x + h / 2, x - h / 2])
        except (ExprError, EvaluationError, OverflowError):  # ExprError: log(0)
            continue
        coarse, fine = (f[0] - f[1]) / (2 * h), (f[2] - f[3]) / h
        scale = max(abs(v) for v in [1.0, fine, *f])
        if math.isfinite(scale) and abs(coarse - fine) <= 1e-6 * scale:
            assert abs(exact - fine) <= 1e-6 * scale
            compared += 1
    assume(compared)


_SYMPY_OPS = {"add": operator.add, "sub": operator.sub,
              "mul": operator.mul, "div": operator.truediv}


def _to_sympy(e, sp):
    """e as a SymPy expression, converted node by node."""
    if isinstance(e, ex.Const):
        return sp.Float(e.value)
    if isinstance(e, ex.Var):
        return sp.Symbol(e.name)
    if isinstance(e, ex.Unary):
        u = _to_sympy(e.arg, sp)
        return -u if e.op == "neg" else getattr(sp, e.op)(u)
    if isinstance(e, ex.Pow):
        r = e.exponent
        return _to_sympy(e.base, sp) ** sp.Rational(r.numerator, r.denominator)
    return _SYMPY_OPS[e.op](_to_sympy(e.left, sp), _to_sympy(e.right, sp))


@settings(max_examples=150)
@given(SMOOTH_TREES, st.lists(POINTS, min_size=1, max_size=3))
def test_derivative_agrees_with_sympy(e, points):
    sp = pytest.importorskip("sympy")
    symbols = [sp.Symbol(c) for c in COORDS]
    compared = 0
    for name in sorted(e.names):
        theirs = sp.lambdify(symbols, sp.diff(_to_sympy(e, sp), sp.Symbol(name)),
                             modules="math")
        ours = ex.differentiate(e, name)
        for pt in points:
            try:
                want = float(theirs(*pt))
                got = _evaluate(ours, pt)
            except (EvaluationError, ArithmeticError, ValueError, TypeError):
                continue
            if math.isfinite(want) and math.isfinite(got):
                assert got == pytest.approx(want, rel=1e-7, abs=1e-7)
                compared += 1
    assume(compared)


def _isinstance_add(a, b):
    """expr.add as it was before it tested node classes, as an oracle."""
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value + b.value)
    if a in ex.ZEROS:
        return b
    if b in ex.ZEROS:
        return a
    return ex.Binary("add", a, b)


def _holds_non_finite(e):
    """Whether a constant of e's tree is inf or nan, by walking the tree."""
    if isinstance(e, ex.Const):
        return not math.isfinite(e.value)
    return any(_holds_non_finite(getattr(e, slot)) for slot in type(e).__slots__
               if isinstance(getattr(e, slot), ex.Expr))


def _isinstance_sub(a, b):
    """expr.sub as it was before it tested node classes, as an oracle, but
    for a - a, which is 0 only when a holds no inf or nan (inf - inf is
    nan)."""
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value - b.value)
    if b in ex.ZEROS:
        return a
    if a in ex.ZEROS:
        return ex.neg(b)
    if a is b and not _holds_non_finite(a):
        return ex.ZERO
    return ex.Binary("sub", a, b)


def _isinstance_mul(a, b):
    """expr.mul as it was before it tested node classes, as an oracle."""
    if isinstance(a, ex.Const) and isinstance(b, ex.Const):
        return ex.Const(a.value * b.value)
    if a in ex.ZEROS or b in ex.ZEROS:
        return ex.ZERO
    if a is ex.ONE:
        return b
    if b is ex.ONE:
        return a
    if a is ex.Const(-1.0):
        return ex.neg(b)
    if b is ex.Const(-1.0):
        return ex.neg(a)
    return ex.Binary("mul", a, b)


def _node_bits(e):
    """e as nested tuples, each constant by its IEEE bytes, so that 0.0 and
    -0.0 differ and the nans of separate folds compare equal."""
    if isinstance(e, ex.Const):
        return struct.pack("<d", e.value)
    return (type(e).__name__,) + tuple(
        _node_bits(v) if isinstance(v, ex.Expr) else v
        for v in (getattr(e, slot) for slot in type(e).__slots__))


OPERANDS = st.one_of(TREES, st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]).map(ex.const))


@given(OPERANDS, OPERANDS)
def test_add_sub_mul_fold_as_the_isinstance_rules(a, b):
    for new, old in ((ex.add, _isinstance_add), (ex.sub, _isinstance_sub),
                     (ex.mul, _isinstance_mul)):
        for x, y in ((a, b), (b, a), (a, a)):
            assert _node_bits(new(x, y)) == _node_bits(old(x, y))


class TestInterning:
    def test_one_tree_is_one_object(self):
        q1, t = ex.var("q1"), ex.var("t")
        target = parse_expr("q1*t + sin(q1)", COORDS)
        built = [
            ex.add(ex.mul(q1, t), ex.fn("sin", q1)),
            ex.Binary("add", ex.Binary("mul", ex.Var("q1"), ex.Var("t")),
                      ex.Unary("sin", ex.Var("q1"))),
            ex.substitute(parse_expr("p1*q1 + sin(p1)", COORDS),
                          {"p1": q1, "q1": t}),
            ex.differentiate(parse_expr("p1*(q1*t + sin(q1))", COORDS), "p1"),
        ]
        assert all(e is target for e in built)
        assert target.names == {"q1", "t"} and _depth(target) == 3

    def test_the_sign_of_zero_is_part_of_a_constant(self):
        assert ex.Const(0.0) is not ex.Const(-0.0)
        assert ex.Const(-0.0) is ex.const(-0.0) is ex.neg(ex.ZERO)
        assert ex.Const(0.0) is ex.ZERO

    def test_nans_from_separate_folds_are_one_node(self):
        inf = ex.const(math.inf)
        a, b = ex.sub(inf, inf), ex.sub(inf, inf)
        assert math.isnan(a.value) and a is b
        # a nan of other bits is another node
        other = ex.Const(-a.value)
        assert math.isnan(other.value) and other is not a
        # q1*nan - q1*nan is nan, not 0, and so is q1*inf - q1*inf
        q1 = ex.var("q1")
        assert ex.sub(ex.mul(q1, a), ex.mul(q1, b)).op == "sub"
        assert ex.sub(ex.mul(q1, inf), ex.mul(q1, inf)).op == "sub"
        assert ex.sub(ex.mul(q1, q1), ex.mul(q1, q1)) is ex.ZERO

    def test_computed_nans_add_one_node(self):
        before = len(ex._NODES)
        nans = {ex.Const(float("inf") - float("inf")) for _ in range(1000)}
        assert len(nans) == 1 and len(ex._NODES) - before <= 1
        q1, nan = ex.var("q1"), nans.pop()
        assert ex.sub(ex.mul(q1, nan), ex.mul(q1, nan)).op == "sub"

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            ex.ONE.value = 2.0
        with pytest.raises(AttributeError):
            del ex.var("t").name

    def test_building_does_not_recurse(self):
        e, t = ex.var("q1"), ex.var("t")
        for _ in range(5000):
            e = ex.mul(ex.add(e, t), t)
        assert _depth(e) == 10001 and e.names == {"q1", "t"}
        assert SymbolicField(base_e(1), e).expr is e
        # deeper than the recursion limit, it prints and reads back
        text = to_string(e)
        assert text.startswith("(" * 5000 + "q1 + t)*t + t)*t")
        assert parse_expr(text, COORDS) is e


def _children(e):
    return {ex.Unary: ("arg",), ex.Binary: ("left", "right"),
            ex.Pow: ("base",)}.get(type(e), ())


def _depth(e):
    """The number of nodes on the longest path down from e."""
    depth = {}
    for n in ex._postorder((e,)):
        depth[n] = 1 + max((depth[getattr(n, slot)] for slot in _children(n)),
                           default=0)
    return depth[e]


def _recursive_postorder(roots):
    """Post-order by recursion, each node where it is first finished."""
    order = []

    def visit(e):
        for slot in _children(e):
            visit(getattr(e, slot))
        if e not in order:
            order.append(e)
    for r in roots:
        visit(r)
    return order


def _recursive_outcome(e, point):
    """_outcome of the scalar evaluation that recurses once per level,
    evaluating a node's children left to right before the node, and each
    use of a shared node anew."""
    env, value = dict(zip(COORDS, point)), {}

    def visit(n):
        for slot in _children(n):
            visit(getattr(n, slot))
        value[n] = scalar_evaluate._value(n, env, value)
    try:
        visit(e)
    except (EvaluationError, OverflowError) as exc:
        return type(exc)
    v = value[e]
    return "nan" if math.isnan(v) else struct.pack("<d", v)


class TestWalks:
    @given(st.lists(TREES, min_size=1, max_size=3))
    def test_postorder_is_the_recursive_order(self, roots):
        assert ex._postorder(roots) == _recursive_postorder(roots)

    @given(TREES, POINTS)
    def test_evaluate_raises_what_recursion_raised_first(self, e, point):
        # the compiled program's error, or its value, at one point
        assert _outcome(e, point) == _recursive_outcome(e, point)

    def test_deep_trees_take_no_frame_per_level(self):
        # 5000 factors q1: depth 5000, and a derivative twice as deep
        q1 = ex.var("q1")
        e = q1
        for _ in range(4999):
            e = ex.mul(e, q1)
        d = ex.differentiate(e, "q1")
        assert _depth(d) > 2 * sys.getrecursionlimit()
        assert scalar_evaluate.evaluate(e, {"q1": 1.0}) == 1.0
        assert scalar_evaluate.evaluate(d, {"q1": 1.0}) == 5000.0
        b = ex.Batch(np.array([[1.0], [-1.0]]))
        values = ex.compile_batch([e, d], ["q1"])(b)
        assert values.tolist() == [[1.0, 1.0], [5000.0, -5000.0]]
        assert not b.rejected.any() and b.errors == {}
        s = ex.substitute(d, {"q1": ex.var("t")})
        assert s.names == {"t"} and _evaluate(s, (1.0, 0.0, 0.0)) == 5000.0


# texts the grammar mostly accepts: infix operators, unary minuses,
# groups and exponents over coordinates and numbers
GRAMMAR_TEXTS = st.recursive(
    st.sampled_from(["q1", "t", "2", "0", "1e309", "q9"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", "/", "-"]),
                  inner).map("".join),
        st.tuples(st.sampled_from(["-", "--", "", ""]),
                  st.sampled_from(["(", "sin(", "exp("]), inner,
                  st.sampled_from([")", ")", ")", ""])).map("".join),
        st.tuples(st.sampled_from(["-", "--"]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["^2", "^-3/2", "^1/0", "^t"])).map(
            "".join)),
    max_leaves=8)


class TestText:
    """The printer and the parser against the recursive ones they replaced
    (tests/recursive_text.py), and on inputs deeper than the recursion
    limit."""

    @given(TREES, st.integers(0, 4))
    def test_printed_text_is_the_recursive_printers(self, e, ctx):
        assert to_string(e, ctx) == recursive_text.to_string(e, ctx)

    @settings(max_examples=500)
    @given(st.one_of(st.lists(TEXT_TOKENS, max_size=16).map("".join),
                     GRAMMAR_TEXTS))
    def test_parse_is_the_recursive_parsers(self, src):
        def outcome(parse):
            try:
                e = parse(src, COORDS)
            except ExprError as exc:
                return type(exc), str(exc)
            return e
        assert outcome(parse_expr) == outcome(recursive_text.parse_expr)

    def test_deep_text_takes_no_frame_per_level(self):
        src = "(" * 100_000 + "q1" + ")" * 100_000
        assert parse_expr(src, COORDS) is ex.var("q1")
        assert parse_expr("-" * 100_001 + "q1", COORDS) is ex.neg(ex.var("q1"))


class TestProcedural:
    def make(self):
        space = base_e(1)
        sym = parse_field("sin(q1*t) + q1^3", space)
        proc = ProceduralField(
            space,
            lambda b: np.sin(b.X[:, 1] * b.X[:, 0]) + b.X[:, 1]**3,
            lambda b: np.column_stack([
                b.X[:, 1] * np.cos(b.X[:, 1] * b.X[:, 0]),
                b.X[:, 0] * np.cos(b.X[:, 1] * b.X[:, 0]) + 3 * b.X[:, 1]**2]))
        return sym, proc

    def test_first_derivatives_exact(self):
        sym, proc = self.make()
        for pt in rand_points(2):
            assert proc.diff("q1").eval(pt) == pytest.approx(
                sym.diff("q1").eval(pt), abs=1e-12)

    def test_second_derivatives_fd(self):
        sym, proc = self.make()
        a = proc.diff("q1").diff("t")
        b = sym.diff("q1").diff("t")
        for pt in rand_points(2):
            assert a.eval(pt) == pytest.approx(b.eval(pt), abs=1e-6)

    def test_order_budget(self):
        from jetlift import OrderOverflowError
        _, proc = self.make()
        d2 = proc.diff("q1").diff("q1")
        with pytest.raises(OrderOverflowError):
            d2.diff("q1")

    def test_mixed_arithmetic(self):
        sym, proc = self.make()
        both = sym * proc + proc
        expect = sym * sym + sym
        for pt in rand_points(2):
            assert both.eval(pt) == pytest.approx(expect.eval(pt), abs=1e-12)
        dq = both.diff("q1")
        dq_expect = expect.diff("q1")
        for pt in rand_points(2):
            assert dq.eval(pt) == pytest.approx(dq_expect.eval(pt), abs=1e-9)


CALL_COORDS = ("t", "q1", "q2")


def product_kernel(runs=None):
    """A kernel giving the product of its first two arguments, with their
    swapped values as its partials; runs lists the X of each batch it
    evaluates."""
    def value(b):
        if runs is not None:
            runs.append(b.X)
        return b.X[:, 0] * b.X[:, 1]
    return Kernel(value, lambda b: b.X[:, [1, 0]], 2)


class TestCall:
    def test_interned_with_its_arguments_names(self):
        k = product_kernel()
        args = (parse_expr("t*q1", CALL_COORDS), ex.var("q2"))
        call = ex.Call(k, args)
        assert call is ex.Call(k, args) and call is not ex.Call(k, args[::-1])
        assert call.names == {"t", "q1", "q2"}
        assert call not in ex.HOLDS_NON_FINITE
        assert ex.Call(k, (ex.const(math.inf), ex.var("t"))) in ex.HOLDS_NON_FINITE
        # the walk enters the arguments left to right
        assert ex._postorder([call]) == [ex.var("t"), ex.var("q1"), args[0],
                                         ex.var("q2"), call]

    def test_derivative_is_the_chain_rule_over_the_arguments_in_order(self):
        k = product_kernel()
        u, v = parse_expr("t*q1", CALL_COORDS), parse_expr("q1^2 + q2", CALL_COORDS)
        call = ex.Call(k, (u, v))
        assert ex.differentiate(call, "q1") is ex.add(
            ex.mul(ex.Call(k.partial(0), (u, v)), ex.differentiate(u, "q1")),
            ex.mul(ex.Call(k.partial(1), (u, v)), ex.differentiate(v, "q1")))
        # an argument whose derivative is the constant zero adds no term
        assert ex.differentiate(call, "q2") is ex.Call(k.partial(1), (u, v))
        assert ex.differentiate(call, "p1") is ex.ZERO
        assert k.partial(0) is k.partial(0) and k.partial(0).budget == 1
        with pytest.raises(OrderOverflowError):
            k.partial(0).partial(1).partial(0)

    def test_substitute_and_print(self):
        k = product_kernel()
        call = ex.Call(k, (ex.var("t"), ex.var("q1")))
        got = ex.substitute(call, {"t": ex.var("q2"), "q1": parse_expr("2*t", CALL_COORDS)})
        assert got is ex.Call(k, (ex.var("q2"), parse_expr("2*t", CALL_COORDS)))
        assert to_string(ex.neg(got)) == "-procedural(q2, 2*t)"
        assert to_string(ex.differentiate(got, "t")) == "procedural.d1(q2, 2*t)*2"

    def test_a_kernel_runs_once_per_argument_tuple_and_batch(self):
        runs = []
        k = product_kernel(runs)
        u, v = parse_expr("t*q1", CALL_COORDS), ex.var("q2")
        X = np.array(rand_points(3, n=5))
        b = ex.Batch(X)
        f, g = ex.Call(k, (u, v)), ex.Call(k, (v, u))
        values = ex.compile_batch([f, ex.add(f, g)], CALL_COORDS)(b)
        ex.compile_batch([ex.mul(g, ex.var("t"))], CALL_COORDS)(b)
        # each argument tuple has its own child batch of its columns, which
        # every program run in the batch shares
        uv = X[:, 0] * X[:, 1]
        assert [x.tobytes() for x in runs] == [
            np.column_stack([uv, X[:, 2]]).tobytes(),
            np.column_stack([X[:, 2], uv]).tobytes()]
        assert values[1].tobytes() == (uv * X[:, 2] + X[:, 2] * uv).tobytes()
        # on the coordinates in order, the kernel runs on the batch itself
        ex.compile_batch([ex.Call(k, tuple(map(ex.var, CALL_COORDS)))], CALL_COORDS)(b)
        assert len(runs) == 3 and runs[2] is X

    def test_kernel_rejections_join_the_program_errors(self):
        seen = []

        def value(b):
            seen.append(b.rejected.tolist())
            b.reject(np.flatnonzero(b.X[:, 1] < 0), lambda i: DomainError(
                f"negative q1 at {b.point(i)}"))
            return b.X[:, 1].copy()

        call = ex.Call(Kernel(value, None, 2), (ex.var("t"), ex.var("q1")))
        e = ex.add(ex.div(ex.ONE, ex.var("t")), call)
        X = np.array([[1.0, -1.0], [0.0, -1.0], [1.0, 2.0], [0.0, 1.0]])
        b = ex.Batch(X)
        values = ex.compile_batch([e], ("t", "q1"))(b)
        # the rows the division rejected first start rejected in the batch
        assert seen == [[False, True, False, True]]
        assert b.rejected.tolist() == [True, True, False, True]
        assert [type(b.errors[i]) for i in (0, 1, 3)] == [
            DomainError, SingularPointError, SingularPointError]
        assert str(b.errors[0]) == "negative q1 at (1.0, -1.0)"
        assert values[0, 2] == 3.0
