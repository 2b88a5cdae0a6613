import math
import os
import random

import numpy as np
import pytest

from jetlift import (
    FibredTransform,
    OneForm,
    Tensor11,
    TransformError,
    VectorField,
    base_e,
    canonical_theta,
    lie_bracket,
    momentum_function,
    parse_field,
    phase_j,
)
from jetlift.charts import NEWTON_TOL
from jetlift.fields import Batch, program
from jetlift.model import load_model
from jetlift.pn import build_dn_transform


def rand_points(dim, n=32, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]


def residual(a, b, pts):
    return max(float(np.max(np.abs(a.eval_at(p) - b.eval_at(p)))) for p in pts)


BE = base_e(1)


def exp_transform(with_inverse=True):
    fwd = [parse_field("exp(t)*q1", BE)]
    inv = [parse_field("exp(-(t))*q1", BE)] if with_inverse else None
    return FibredTransform(1, fwd, inv)


class TestBaseMap:
    def test_vector_push(self):
        T = exp_transform()
        bm = T.base_map()
        out = bm.push_vector(VectorField(BE, [0.0, 1.0]))
        # d/dq pushes to e^t d/dQ; in the new chart t is unchanged
        for t, Q in rand_points(2):
            v = out.eval_at((t, Q))
            assert v[0] == pytest.approx(0.0, abs=1e-12)
            assert v[1] == pytest.approx(math.exp(t), abs=1e-10)

    def test_identity_transform(self):
        T = FibredTransform(1, [parse_field("q1", BE)],
                            [parse_field("q1", BE)])
        bm = T.base_map()
        R = Tensor11.from_dict(BE, {"q1,q1": "q1", "q1,t": "t"})
        assert residual(bm.push_tensor11(R), R, rand_points(2)) < 1e-12

    def test_scalar_push(self):
        T = exp_transform()
        bm = T.base_map()
        f = parse_field("t + q1^2", BE)
        out = bm.push_scalar(f)
        for t, Q in rand_points(2):
            q = math.exp(-t) * Q
            assert out.eval((t, Q)) == pytest.approx(t + q * q, abs=1e-10)


class TestPhaseMap:
    def test_momentum_rule(self):
        # p transforms to P = p e^{-t} under Q = e^t q
        T = exp_transform()
        pm = T.phase_map()
        p_field = parse_field("p1", phase_j(1))
        out = pm.push_scalar(p_field)
        for t, Q, P in rand_points(3):
            assert out.eval((t, Q, P)) == pytest.approx(
                P * math.exp(t), abs=1e-9)

    def test_momentum_function_invariant(self):
        # F_{d/dq} = p becomes P e^t, i.e. F of the pushed vector field
        T = exp_transform()
        bm, pm = T.base_map(), T.phase_map()
        X = VectorField(BE, [0.0, 1.0])
        lhs = pm.push_scalar(momentum_function(X))
        rhs = momentum_function(bm.push_vector(X))
        for pt in rand_points(3):
            assert lhs.eval(pt) == pytest.approx(rhs.eval(pt), abs=1e-9)

    def test_theta_invariant(self):
        T = exp_transform()
        pm = T.phase_map()
        Theta = canonical_theta(1)
        assert residual(pm.push_twoform(Theta), Theta, rand_points(3)) < 1e-9

    def test_bracket_naturality(self):
        T = exp_transform()
        bm = T.base_map()
        X = VectorField(BE, ["q1", "sin(t)"])
        Y = VectorField(BE, [1.0, "t*q1"])
        lhs = bm.push_vector(lie_bracket(X, Y))
        rhs = lie_bracket(bm.push_vector(X), bm.push_vector(Y))
        assert residual(lhs, rhs, rand_points(2)) < 1e-9


class TestNewtonInverse:
    def test_matches_symbolic_inverse(self):
        T_sym = exp_transform(with_inverse=True)
        T_num = exp_transform(with_inverse=False)
        f = parse_field("q1^2 + sin(t)", BE)
        a = T_sym.base_map().push_scalar(f)
        b = T_num.base_map().push_scalar(f)
        for pt in rand_points(2):
            assert a.eval(pt) == pytest.approx(b.eval(pt), abs=1e-9)

    def test_phase_map_numeric(self):
        T_sym = exp_transform(with_inverse=True)
        T_num = exp_transform(with_inverse=False)
        g = parse_field("p1*q1", phase_j(1))
        a = T_sym.phase_map().push_scalar(g)
        b = T_num.phase_map().push_scalar(g)
        for pt in rand_points(3):
            assert a.eval(pt) == pytest.approx(b.eval(pt), abs=1e-8)

    def test_singular_jacobian_rejected(self):
        T = FibredTransform(1, [parse_field("t + 0*q1", BE)])
        with pytest.raises(TransformError):
            T.base_map().push_scalar(parse_field("q1", BE)).eval((0.5, 0.7))

    def test_singular_jacobian_at_the_solution_rejected(self):
        # Newton converges on its seed q1 = 0, where dQ/dq1 = 3 q1^2 is 0
        T = FibredTransform(1, [parse_field("q1^3", BE)])
        with pytest.raises(TransformError, match=r"^singular Jacobian at t=0.0, q=\[0.\]$"):
            T.q_inv[0].grad((0.0, 0.0))
        # in a batch, only that row is rejected
        b = Batch(np.array([[0.0, 8.0], [0.0, 0.0], [1.0, -1.0]]))
        values = program([T.q_inv[0].diff("q1")])(b)
        assert b.rejected.tolist() == [False, True, False]
        assert isinstance(b.errors[1], TransformError)
        assert values[0, [0, 2]] == pytest.approx([1 / 12, 1 / 3])


@pytest.fixture(scope="module")
def dn_transform():
    path = os.path.join(os.path.dirname(__file__), "..", "models", "n2.json")
    _, R = load_model(path).get("R_dn")
    return build_dn_transform(R)


class TestNewtonStop:
    def test_no_preimage_stops_at_cycle(self, dn_transform, monkeypatch):
        # the forward map is the sorted eigenvalues (q1 - t*q2, q2 + 3), so
        # a target with Q1 > Q2 has no preimage; Newton falls into a cycle
        solves = []
        real_solve = np.linalg.solve

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        point = (0.3, 0.5, -1.0)
        with pytest.raises(TransformError) as info:
            dn_transform.q_inv[0].eval(point)
        assert str(info.value) == f"Newton iteration failed to invert at {point}"
        assert len(solves) < 20

    def test_invertible_point_round_trips(self, dn_transform):
        for t, q1, q2 in rand_points(3, n=8, seed=1):
            base_pt = (t, q1, q2)
            target = tuple(f.eval(base_pt) for f in dn_transform.q_fwd)
            Q = (t,) + target
            q = tuple(g.eval(Q) for g in dn_transform.q_inv)
            back = [f.eval((t,) + q) for f in dn_transform.q_fwd]
            assert max(abs(b - c) for b, c in zip(back, target)) < NEWTON_TOL
