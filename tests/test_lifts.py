import random

import numpy as np
import pytest

from jetlift import (
    OneForm,
    Tensor11,
    TwoForm,
    VectorField,
    base_e,
    canonical_theta,
    complete_lift_cotangent,
    complete_lift_tensor11,
    complete_lift_vector,
    extended_t,
    hlift_tensor11,
    momentum_function,
    parse_field,
    phase_j,
    rho_related,
    theta_representative,
    vlift_oneform,
    vlift_tensor11,
    vlift_twoform,
)
from jetlift.fields import inject
from jetlift.lifts import LiftError

from corpus import standard_corpus
from lift_oracles import cotangent_lift_defect


def rand_points(dim, n=64, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]


BE = base_e(1)
PJ = phase_j(1)
R = Tensor11.from_dict(BE, {"q1,q1": "q1", "q1,t": "t"})


class TestMomentum:
    def test_coordinate_value(self):
        F = momentum_function(VectorField(BE, [0.0, "q1"]))
        assert F.eval((0.0, 2.0, 3.0)) == pytest.approx(6.0)

    def test_zero_section(self):
        F = momentum_function(VectorField.zero(BE))
        assert all(F.eval(p) == 0.0 for p in rand_points(3))

    def test_fibre_linearity(self):
        f = parse_field("t + q1", BE)
        X = VectorField(BE, [0.0, "q1"])
        lhs = momentum_function(X.scaled(f))
        rhs = inject(f, PJ) * momentum_function(X)
        for pt in rand_points(3):
            assert lhs.eval(pt) == pytest.approx(rhs.eval(pt), abs=1e-12)

    def test_rejects_nonvertical(self):
        with pytest.raises(LiftError):
            momentum_function(VectorField(BE, [1.0, "q1"]))


class TestVerticalLiftOneForm:
    def test_coordinate_form(self):
        out = vlift_oneform(OneForm(BE, ["q1", "t"]))
        assert [str(c) for c in out.comps] == ["0", "0", "t"]

    def test_dt_class_is_zero(self):
        out = vlift_oneform(OneForm(BE, [1.0, 0.0]))
        assert all(str(c) == "0" for c in out.comps)

    def test_function_linearity(self):
        f = parse_field("sin(t)", BE)
        alpha = OneForm(BE, ["q1", "t*q1"])
        lhs = vlift_oneform(alpha.scaled(f))
        rhs = vlift_oneform(alpha).scaled(inject(f, PJ))
        for pt in rand_points(3):
            assert np.allclose(lhs.eval_at(pt), rhs.eval_at(pt), atol=1e-12)


class TestCompleteLiftVector:
    def test_vertical_case(self):
        out = complete_lift_vector(VectorField(BE, [0.0, "q1"]))
        assert [str(c) for c in out.comps] == ["0", "q1", "-p1"]

    def test_tnormalized_case(self):
        out = complete_lift_vector(VectorField(BE, [1.0, "t"]))
        assert [str(c) for c in out.comps] == ["1", "t", "0"]

    def test_rejects_other_classes(self):
        with pytest.raises(LiftError):
            complete_lift_vector(VectorField(BE, ["t", "q1"]))

    def test_pi_related(self):
        X = VectorField(BE, [1.0, "sin(t)*q1"])
        Xt = complete_lift_vector(X)
        for pt in rand_points(3):
            assert np.allclose(Xt.eval_at(pt)[:2], X.eval_at(pt[:2]),
                               atol=1e-12)


class TestTensorLifts:
    def test_vlift_value(self):
        out = vlift_tensor11(R)
        assert out.eval_at((2.0, 3.0, 5.0))[2] == pytest.approx(15.0)

    def test_hlift_value(self):
        out = hlift_tensor11(R)
        v = out.eval_at((2.0, 3.0, 5.0))
        assert v[1] == pytest.approx(15.0)  # p R^1_1 dq
        assert v[0] == pytest.approx(10.0)  # p R^1_0 dt
        assert v[2] == 0.0                  # semi-basic

    def test_hlift_identity_block_gives_theta_rep(self):
        I = Tensor11.from_dict(BE, {"q1,q1": "1"})
        out = hlift_tensor11(I)
        rep = theta_representative(1)
        for pt in rand_points(3):
            assert np.allclose(out.eval_at(pt), rep.eval_at(pt), atol=1e-12)

    def test_zero(self):
        Z = Tensor11.zero(BE)
        assert all(str(c) == "0" for c in vlift_tensor11(Z).comps)
        assert all(str(c) == "0" for c in hlift_tensor11(Z).comps)

    def test_rejects_dt_row(self):
        bad = Tensor11.from_dict(BE, {"t,q1": "1"})
        for lift in (vlift_tensor11, hlift_tensor11,
                     complete_lift_tensor11, complete_lift_cotangent):
            with pytest.raises(LiftError):
                lift(bad)


class TestCompleteLiftTensor:
    def test_diagonal_example(self):
        Rd = Tensor11.from_dict(BE, {"q1,q1": "q1"})
        out = complete_lift_tensor11(Rd)
        nonzero = {(a, b): str(v) for a, row in enumerate(out.entries)
                   for b, v in enumerate(row) if str(v) != "0"}
        assert nonzero == {(1, 1): "q1", (2, 2): "q1"}

    def test_torsion_example(self):
        out = complete_lift_tensor11(R)
        nonzero = {(a, b): str(v) for a, row in enumerate(out.entries)
                   for b, v in enumerate(row) if str(v) != "0"}
        assert nonzero == {(1, 0): "t", (1, 1): "q1", (2, 2): "q1"}

    def test_constant_identity_block(self):
        I = Tensor11.from_dict(BE, {"q1,q1": "1"})
        out = complete_lift_tensor11(I)
        for pt in rand_points(3):
            assert np.allclose(out.eval_at(pt),
                               np.diag([0.0, 1.0, 1.0]), atol=1e-12)


class TestCotangentLift:
    def test_extra_blocks(self):
        out = complete_lift_cotangent(R)
        et = extended_t(1)
        i_p0 = et.index("p0")
        i_p1 = et.index("p1")
        i_q1 = et.index("q1")
        # d/dp0 x dp1 coefficient is R^1_0 = t
        assert str(out.entries[i_p0][i_p1]) == "t"
        # the d/dp0 x dq block vanishes for this R
        assert str(out.entries[i_p0][i_q1]) == "0"

    def test_rho_related(self):
        pts = rand_points(extended_t(1).dim, n=16)
        assert rho_related(complete_lift_cotangent(R),
                           complete_lift_tensor11(R), pts)

    @pytest.mark.parametrize("n", [1, 2])
    def test_corpus_matches_the_oracle(self, n):
        assert cotangent_lift_defect(standard_corpus(n).tensors) < 1e-12

    def test_zero(self):
        Z = Tensor11.zero(BE)
        out = complete_lift_cotangent(Z)
        assert all(str(v) == "0" for row in out.entries for v in row)
        pts = rand_points(extended_t(1).dim, n=8)
        assert rho_related(out, complete_lift_tensor11(Z), pts)


class TestTwoFormLift:
    def test_coordinate_form(self):
        w = TwoForm.from_dict(BE, {"q1,t": "1"})  # dq ^ dt
        out = vlift_twoform(w)
        nonzero = {(a, b): str(v) for a, row in enumerate(out.entries)
                   for b, v in enumerate(row) if str(v) != "0"}
        assert nonzero == {(2, 0): "-1"}

    def test_zero(self):
        out = vlift_twoform(TwoForm.zero(BE))
        assert all(str(v) == "0" for row in out.entries for v in row)

    def test_canonical_theta_entries(self):
        Theta = canonical_theta(1)
        assert str(Theta.entries[1][0]) == "p1"
        assert str(Theta.entries[0][1]) == "-p1"
