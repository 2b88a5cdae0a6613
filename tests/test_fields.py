import operator
import random

import numpy as np
import pytest

from jetlift import (
    SpaceMismatchError,
    base_e,
    compose,
    const_field,
    coord_field,
    inject,
    parse_field,
    phase_j,
    zero,
)
from call_nodes import holds_call
from jetlift import expr as ex
from jetlift.fields import ProceduralField, SymbolicField


def rand_points(dim, n=32, seed=1):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]


class TestArithmetic:
    def test_operators(self):
        be = base_e(1)
        f = parse_field("t", be)
        g = parse_field("q1", be)
        combos = [
            (f + g, lambda t, q: t + q),
            (f - g, lambda t, q: t - q),
            (f * g, lambda t, q: t * q),
            (f + 2.0, lambda t, q: t + 2),
            (3.0 * g, lambda t, q: 3 * q),
            (-f, lambda t, q: -t),
        ]
        for field, ref in combos:
            for pt in rand_points(2):
                assert field.eval(pt) == pytest.approx(ref(*pt), abs=1e-12)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            parse_field("t", base_e(1)) + parse_field("t", base_e(2))

    def test_symbolic_predicates(self):
        be = base_e(1)
        assert zero(be).is_zero
        assert (parse_field("q1", be) - parse_field("q1", be)).is_zero
        assert const_field(be, 1.0).is_one
        assert not parse_field("q1", be).is_zero


class TestCoercion:
    def test_numbers_give_the_same_trees(self):
        f = parse_field("t*q1", base_e(1))
        e = f.expr
        cases = [
            (f * np.float64(2), ex.mul(e, ex.const(np.float64(2)))),
            (True + f, ex.add(e, ex.const(True))),
            (2 - f, ex.add(ex.neg(e), ex.const(2))),
            (1 / f, ex.div(ex.const(1), e)),
            (f - 0.5, ex.sub(e, ex.const(0.5))),
            (3 * f, ex.mul(e, ex.const(3))),
            (-f, ex.neg(e)),
        ]
        for got, want in cases:
            assert isinstance(got, SymbolicField)
            assert got.expr == want

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul, operator.truediv])
    def test_two_spaces_raise(self, op):
        f = parse_field("t + 1", base_e(1))
        g = parse_field("t + 2", base_e(2))
        proc = ProceduralField(base_e(2), lambda X: np.ones(len(X)),
                               lambda X: np.zeros(X.shape))
        for other in (g, proc):
            with pytest.raises(SpaceMismatchError,
                               match="cannot combine fields on"):
                op(f, other)

    def test_foreign_type_is_not_implemented(self):
        f = parse_field("t", base_e(1))
        with pytest.raises(TypeError):
            f + "t"
        with pytest.raises(TypeError):
            [1.0] * f

    def test_symbolic_with_procedural_is_procedural(self):
        # a procedural field is a call node: the result's tree holds it
        be = base_e(1)
        s = parse_field("t*q1 + 2", be)
        p = ProceduralField(be, lambda X: X[:, 0] ** 2,
                            lambda X: np.column_stack(
                                [2.0 * X[:, 0], np.zeros(len(X))]))
        ref_s = lambda t, q: t * q + 2
        ref_p = lambda t, q: t * t
        cases = [
            (s + p, lambda t, q: ref_s(t, q) + ref_p(t, q),
             lambda t, q: (q + 2 * t, t)),
            (p + s, lambda t, q: ref_p(t, q) + ref_s(t, q),
             lambda t, q: (2 * t + q, t)),
            (s - p, lambda t, q: ref_s(t, q) - ref_p(t, q),
             lambda t, q: (q - 2 * t, t)),
            (s * p, lambda t, q: ref_s(t, q) * ref_p(t, q),
             lambda t, q: (q * t * t + ref_s(t, q) * 2 * t, t * t * t)),
        ]
        for field, value, grad in cases:
            assert holds_call(field)
            for pt in rand_points(2, n=4):
                assert field.eval(pt) == pytest.approx(value(*pt), abs=1e-12)
                assert field.grad(pt) == pytest.approx(grad(*pt), abs=1e-12)


class TestInject:
    def test_base_to_phase(self):
        f = parse_field("t*q1", base_e(1))
        g = inject(f, phase_j(1))
        assert g.space == phase_j(1)
        assert g.eval((2.0, 3.0, 99.0)) == pytest.approx(6.0)
        assert g.diff("p1").eval((2.0, 3.0, 99.0)) == 0.0

    def test_procedural_inject(self):
        be = base_e(1)
        proc = ProceduralField(be,
                               lambda X: X[:, 0] * X[:, 1],
                               lambda X: X[:, ::-1])
        g = inject(proc, phase_j(1))
        assert g.eval((2.0, 3.0, 99.0)) == pytest.approx(6.0)
        assert g.diff("q1").eval((2.0, 3.0, 99.0)) == pytest.approx(2.0)
        assert g.diff("p1").eval((2.0, 3.0, 99.0)) == pytest.approx(0.0)


class TestCompose:
    def test_symbolic_substitution(self):
        be = base_e(1)
        f = parse_field("q1^2 + t", be)
        maps = [coord_field(be, "t"), parse_field("t*q1", be)]
        g = compose(f, maps, be)
        for t, q in rand_points(2):
            assert g.eval((t, q)) == pytest.approx((t * q) ** 2 + t, abs=1e-12)

    def test_procedural_chain_rule(self):
        be = base_e(1)
        f = ProceduralField(be,
                            lambda X: np.sin(X[:, 1]),
                            lambda X: np.column_stack(
                                [np.zeros(len(X)), np.cos(X[:, 1])]))
        maps = [coord_field(be, "t"), parse_field("t*q1", be)]
        g = compose(f, maps, be)
        ref = parse_field("sin(t*q1)", be)
        for pt in rand_points(2):
            assert g.eval(pt) == pytest.approx(ref.eval(pt), abs=1e-12)
            assert g.diff("q1").eval(pt) == pytest.approx(
                ref.diff("q1").eval(pt), abs=1e-9)
