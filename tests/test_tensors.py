import random

import numpy as np
import pytest

from jetlift import (
    Bivector,
    OneForm,
    Tensor11,
    Tensor12,
    TwoForm,
    VectorField,
    apply_tensor11,
    adjoint_tensor11,
    base_e,
    differential,
    exterior_derivative,
    haantjes_tensor,
    hook2,
    interior_product,
    lie_bracket,
    lie_derivative,
    nijenhuis_torsion,
    pair,
    parse_field,
    phase_j,
    tensor_product,
)
from jetlift.errors import SpaceMismatchError
from jetlift.fields import coord_field


def rand_points(dim, n=64, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]


def residual(a, b, pts):
    return max(float(np.max(np.abs(a.eval_at(p) - b.eval_at(p)))) for p in pts)


def max_abs(a, pts):
    return max(float(np.max(np.abs(a.eval_at(p)))) for p in pts)


BE = base_e(1)
R_TORSION = Tensor11.from_dict(BE, {"q1,q1": "q1", "q1,t": "t"})
R_DIAG = Tensor11.from_dict(BE, {"q1,q1": "q1"})


class TestContraction:
    def test_apply(self):
        # R(d/dt) = t d/dq for R = q dq-part + t dt-part
        out = apply_tensor11(R_TORSION, VectorField(BE, [1.0, 0.0]))
        assert str(out.comps[0]) == "0"
        for pt in rand_points(2):
            assert out.comps[1].eval(pt) == pytest.approx(pt[0])

    def test_adjoint_kills_dt(self):
        out = adjoint_tensor11(R_TORSION, OneForm(BE, [1.0, 0.0]))
        for pt in rand_points(2):
            assert np.max(np.abs(out.eval_at(pt))) == 0.0

    def test_pair_dual_basis(self):
        assert pair(VectorField(BE, [0.0, 1.0]),
                    OneForm(BE, [0.0, 1.0])).eval((0.3, 0.7)) == 1.0

    def test_adjoint_is_transpose_action(self):
        X = VectorField(BE, ["t", "q1^2"])
        alpha = OneForm(BE, ["q1", "sin(t)"])
        lhs = pair(apply_tensor11(R_TORSION, X), alpha)
        rhs = pair(X, adjoint_tensor11(R_TORSION, alpha))
        for pt in rand_points(2):
            assert lhs.eval(pt) == pytest.approx(rhs.eval(pt), abs=1e-12)


class TestBracket:
    def test_hand_example(self):
        X = VectorField(BE, [0.0, "q1"])
        Y = VectorField(BE, [1.0, "t"])
        out = lie_bracket(X, Y)
        for pt in rand_points(2):
            assert out.comps[0].eval(pt) == 0.0
            assert out.comps[1].eval(pt) == pytest.approx(-pt[0])

    def test_antisymmetry(self):
        X = VectorField(BE, ["q1", "sin(t)*q1"])
        out = lie_bracket(X, X)
        assert max_abs(out, rand_points(2)) == 0.0

    def test_coordinate_fields_commute(self):
        pj = phase_j(1)
        out = lie_bracket(VectorField(pj, [0.0, 1.0, 0.0]),
                          VectorField(pj, [0.0, 0.0, 1.0]))
        assert max_abs(out, rand_points(3)) == 0.0

    def test_jacobi(self):
        X = VectorField(BE, ["q1", "t*q1"])
        Y = VectorField(BE, ["t", "q1^2"])
        Z = VectorField(BE, [1.0, "t + q1"])
        total = (lie_bracket(X, lie_bracket(Y, Z))
                 + lie_bracket(Y, lie_bracket(Z, X))
                 + lie_bracket(Z, lie_bracket(X, Y)))
        assert max_abs(total, rand_points(2)) < 1e-9


class TestLieDerivative:
    def test_scalar(self):
        f = parse_field("t*q1", BE)
        out = lie_derivative(VectorField(BE, [1.0, 0.0]), f)
        for pt in rand_points(2):
            assert out.eval(pt) == pytest.approx(pt[1])

    def test_tensor11_defining_relation(self):
        X = VectorField(BE, ["q1", "t*q1"])
        Y = VectorField(BE, ["t", "sin(q1)"])
        LR = lie_derivative(X, R_TORSION)
        lhs = apply_tensor11(LR, Y)
        rhs = (lie_bracket(X, apply_tensor11(R_TORSION, Y))
               - apply_tensor11(R_TORSION, lie_bracket(X, Y)))
        assert residual(lhs, rhs, rand_points(2)) < 1e-9

    def test_fx_rule(self):
        f = parse_field("t*q1", BE)
        X = VectorField(BE, [0.0, 1.0])
        df = differential(f)
        lhs = lie_derivative(X.scaled(f), R_DIAG)
        rhs = (lie_derivative(X, R_DIAG).scaled(f)
               - tensor_product(X, adjoint_tensor11(R_DIAG, df))
               + tensor_product(apply_tensor11(R_DIAG, X), df))
        assert residual(lhs, rhs, rand_points(2)) < 1e-9

    def test_preserves_dt_annihilation(self):
        for X in (VectorField(BE, [0.0, "sin(t)*q1"]),
                  VectorField(BE, [1.0, "q1^2"])):
            LR = lie_derivative(X, R_TORSION)
            assert LR.annihilates_dt


class TestExterior:
    def test_closed_form(self):
        alpha = OneForm(BE, ["q1", "t"])  # d(tq)
        assert max_abs(exterior_derivative(alpha), rand_points(2)) == 0.0

    def test_dd_zero(self):
        f = parse_field("sin(t)*q1^3 + exp(q1)", BE)
        assert max_abs(exterior_derivative(differential(f)),
                       rand_points(2)) < 1e-9

    def test_interior_product(self):
        w = TwoForm.from_dict(BE, {"q1,t": "1"})  # dq ^ dt
        out = interior_product(VectorField(BE, [0.0, 1.0]), w)
        for pt in rand_points(2):
            assert out.comps[0].eval(pt) == 1.0
            assert out.comps[1].eval(pt) == 0.0

    def test_hook2(self):
        w = TwoForm.from_dict(BE, {"q1,t": "1"})
        M = hook2(R_DIAG, w)
        # (R hook2 w)(d_q, d_t) = w(R d_q, d_t) = q
        for pt in rand_points(2):
            assert M[1][0].eval(pt) == pytest.approx(pt[1])


class TestNijenhuis:
    def test_hand_value(self):
        N = nijenhuis_torsion(R_TORSION)
        out = N.apply(VectorField(BE, [1.0, 0.0]), VectorField(BE, [0.0, 1.0]))
        for pt in rand_points(2):
            assert out.comps[0].eval(pt) == 0.0
            assert out.comps[1].eval(pt) == pytest.approx(pt[0], abs=1e-12)

    def test_constant_coefficients(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "2", "q1,t": "5"})
        assert max_abs(nijenhuis_torsion(R), rand_points(2)) == 0.0

    def test_diagonal_example(self):
        assert max_abs(nijenhuis_torsion(R_DIAG), rand_points(2)) == 0.0

    def test_defining_bracket_formula(self):
        R = R_TORSION
        N = nijenhuis_torsion(R)
        X = VectorField(BE, ["q1", "sin(t)"])
        Y = VectorField(BE, ["t", "q1^2"])
        R2 = [[sum(R.entries[a][c] * R.entries[c][b] for c in range(2))
               for b in range(2)] for a in range(2)]
        lhs = N.apply(X, Y)
        rhs = (lie_bracket(apply_tensor11(R, X), apply_tensor11(R, Y))
               + apply_tensor11(Tensor11(BE, R2), lie_bracket(X, Y))
               - apply_tensor11(R, lie_bracket(apply_tensor11(R, X), Y))
               - apply_tensor11(R, lie_bracket(X, apply_tensor11(R, Y))))
        assert residual(lhs, rhs, rand_points(2)) < 1e-9

    def test_tensoriality(self):
        N = nijenhuis_torsion(R_TORSION)
        f = parse_field("t^2 + q1", BE)
        X = VectorField(BE, ["q1", "sin(t)"])
        Y = VectorField(BE, ["t", "q1^2"])
        lhs = N.apply(X.scaled(f), Y)
        rhs = N.apply(X, Y).scaled(f)
        assert residual(lhs, rhs, rand_points(2)) < 1e-9

    def test_hook_identity(self):
        # i_X N_R = L_{RX} R - R o L_X R for coordinate X
        R = R_TORSION
        N = nijenhuis_torsion(R)
        for k in range(2):
            comps = [0.0, 0.0]
            comps[k] = 1.0
            X = VectorField(BE, comps)
            lhs = N.hook(X)
            LXR = lie_derivative(X, R)
            RX = apply_tensor11(R, X)
            rhs_entries = [[
                lie_derivative(RX, R).entries[a][b]
                - sum(R.entries[a][c] * LXR.entries[c][b] for c in range(2))
                for b in range(2)] for a in range(2)]
            rhs = Tensor11(BE, rhs_entries)
            assert residual(lhs, rhs, rand_points(2)) < 1e-9


class TestHaantjes:
    def test_zero_despite_torsion(self):
        assert max_abs(haantjes_tensor(R_TORSION), rand_points(2)) < 1e-9

    def test_torsion_free_implies_zero(self):
        assert max_abs(haantjes_tensor(R_DIAG), rand_points(2)) < 1e-9

    def test_constant(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "3"})
        assert max_abs(haantjes_tensor(R), rand_points(2)) == 0.0


class TestVariance:
    def test_tensor12_arithmetic(self):
        N = nijenhuis_torsion(R_TORSION)
        for pt in rand_points(2, n=8):
            v = N.eval_at(pt)
            assert np.any(v != 0.0)
            assert np.array_equal((N + N).eval_at(pt), v + v)
            assert np.array_equal((N - N).eval_at(pt), np.zeros_like(v))
            assert np.array_equal((-N).eval_at(pt), -v)
            assert np.array_equal(N.scaled(2.0).eval_at(pt), 2.0 * v)
        for out in (N + N, N - N, -N, N.scaled(2.0)):
            assert type(out) is Tensor12 and out.space == N.space

    @pytest.mark.parametrize("cls, key", [
        (VectorField, "q1"), (OneForm, "t"), (Tensor11, "q1,t"),
        (TwoForm, "t,q1"), (Bivector, "q1,t"), (Tensor12, "q1,t,q1")])
    def test_one_component(self, cls, key):
        obj = cls.from_dict(BE, {key: "t*q1"})
        rank = len(cls.variance)
        values = obj.eval_at((2.0, 3.0))
        assert values.shape == (2,) * rank
        index = tuple(BE.index(name) for name in key.split(","))
        assert values[index] == 6.0
        others = np.count_nonzero(values) - 1
        assert others == (1 if cls is TwoForm else 0)  # the mirrored entry
        assert not np.any(cls.zero(BE).eval_at((2.0, 3.0)))

    def test_sums_refuse_another_variance(self):
        # zip once truncated the longer operand: VectorField + Tensor11 was a
        # VectorField, Tensor11 + VectorField a Tensor11 with one row
        X = VectorField.from_dict(BE, {"q1": "t"})
        tensors = [X, OneForm.from_dict(BE, {"t": "q1"}),
                   Tensor11.from_dict(BE, {"q1,t": "1"}),
                   TwoForm.from_dict(BE, {"t,q1": "q1"}),
                   Bivector.from_dict(BE, {"q1,t": "t"}),
                   nijenhuis_torsion(R_TORSION)]
        others = tensors + [parse_field("t", BE), 2.0, 0]
        for a in tensors:
            for b in others:
                if b is a:
                    assert type(a + b) is type(a) and type(a - b) is type(a)
                    continue
                for op in (lambda: a + b, lambda: a - b):
                    with pytest.raises(TypeError) as err:
                        op()
                    assert repr(a.variance) in str(err.value)
                    assert (repr(b.variance) if hasattr(b, "variance")
                            else type(b).__name__) in str(err.value)


def test_components_on_another_space_are_refused():
    # a phase-space field inside a base tensor once read the wrong point
    # column, or past the end of the point, when evaluated
    p1 = coord_field(phase_j(1), "p1")
    for make in (lambda: VectorField(BE, [p1, 0.0]),
                 lambda: VectorField.from_dict(BE, {"t": p1}),
                 lambda: OneForm.from_dict(BE, {"q1": p1}),
                 lambda: Tensor11(BE, [[0.0, 0.0], [p1, 0.0]]),
                 lambda: Tensor11.from_dict(BE, {"q1,q1": p1}),
                 lambda: VectorField.from_dict(BE, {"q1": "t"}).scaled(p1)):
        with pytest.raises(SpaceMismatchError):
            make()
    # a field on the tensor's own space is taken as it is
    q1 = coord_field(BE, "q1")
    assert VectorField(BE, [q1, 0.0]).comps[0] is q1
