import random

import numpy as np
import pytest

from jetlift import pn
from jetlift import (
    EigenError,
    FibredTransform,
    NonFiniteError,
    OneForm,
    Tensor11,
    TransformError,
    TwoForm,
    VectorField,
    base_e,
    build_dn_transform,
    complete_lift_tensor11,
    differential,
    eigen_analysis,
    eigenvalue_fields,
    fiber_hamiltonian_field,
    hamiltonian_vector_field,
    interior_product,
    magri_morosi,
    magri_morosi_table,
    momentum_function,
    parse_field,
    phase_j,
    pn_check,
    poisson_apply,
    poisson_bracket,
    pullback_oneform_to_phase,
    verify_dn,
    vlift_oneform,
    complete_lift_vector,
    exterior_derivative,
    wedge,
)
from corpus import dn_example_tensor
from jetlift.lifts import LiftError


def rand_points(dim, n=64, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]


def residual(a, b, pts):
    return max(float(np.max(np.abs(a.eval_at(p) - b.eval_at(p)))) for p in pts)


BE = base_e(1)
PJ = phase_j(1)


class TestPoissonMap:
    def test_pullback_form(self):
        out = poisson_apply(pullback_oneform_to_phase(OneForm(BE, [0.0, "t"])))
        expect = vlift_oneform(OneForm(BE, [0.0, "t"]))
        assert residual(out, expect, rand_points(3)) < 1e-12

    def test_momentum_differential(self):
        X = VectorField(BE, [0.0, "q1"])
        out = poisson_apply(differential(momentum_function(X)))
        Xt = complete_lift_vector(X)
        for pt in rand_points(3):
            assert np.allclose(out.eval_at(pt), -Xt.eval_at(pt), atol=1e-12)

    def test_canonical_bracket(self):
        q = parse_field("q1", PJ)
        p = parse_field("p1", PJ)
        assert poisson_bracket(q, p).eval((0.1, 0.2, 0.3)) == 1.0
        assert poisson_bracket(q, q).eval((0.1, 0.2, 0.3)) == 0.0

    def test_bracket_jacobi(self):
        F = parse_field("q1^2*p1", PJ)
        G = parse_field("t*p1 + q1", PJ)
        H = parse_field("p1^2 - q1^3", PJ)
        total = (poisson_bracket(F, poisson_bracket(G, H))
                 + poisson_bracket(G, poisson_bracket(H, F))
                 + poisson_bracket(H, poisson_bracket(F, G)))
        for pt in rand_points(3):
            assert abs(total.eval(pt)) < 1e-9


class TestHamiltonian:
    def test_coordinate_form(self):
        H = parse_field("(p1^2)/2 + q1", PJ)
        out = hamiltonian_vector_field(H)
        for t, q, p in rand_points(3):
            v = out.eval_at((t, q, p))
            assert v[0] == 1.0
            assert v[1] == pytest.approx(p, abs=1e-12)
            assert v[2] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_hamiltonian(self):
        out = hamiltonian_vector_field(parse_field("3", PJ))
        assert [str(c) for c in out.comps] == ["1", "0", "0"]

    def test_annihilates_evolution_form(self):
        # i_{X_h}(dp ^ dq - dH ^ dt) = 0
        H = parse_field("(p1^2)/2 + t*q1", PJ)
        Xh = hamiltonian_vector_field(H)
        dp_dq = TwoForm.from_dict(PJ, {"p1,q1": "1"})
        dH = differential(H)
        dt = OneForm(PJ, [1.0, 0.0, 0.0])
        omega = dp_dq + (-wedge(dH, dt))
        out = interior_product(Xh, omega)
        for pt in rand_points(3):
            assert np.max(np.abs(out.eval_at(pt))) < 1e-12

    def test_fiber_variant(self):
        # X_F = -P(dF), and P(dF_X) = -complete(X), so X_{F_X} = complete(X)
        F = momentum_function(VectorField(BE, [0.0, "q1"]))
        out = fiber_hamiltonian_field(F)
        Xt = complete_lift_vector(VectorField(BE, [0.0, "q1"]))
        assert residual(out, Xt, rand_points(3)) < 1e-12


class TestMagriMorosi:
    def test_diag_example(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "q1"})
        Rt = complete_lift_tensor11(R)
        sigma = pullback_oneform_to_phase(OneForm(BE, [0.0, 1.0]))
        Z = vlift_oneform(OneForm(BE, [0.0, 1.0]))
        mu = magri_morosi(Rt, sigma, Z)
        for pt in rand_points(3):
            assert np.max(np.abs(mu.eval_at(pt))) < 1e-9

    def test_zero_tensor(self):
        Rt = complete_lift_tensor11(Tensor11.zero(BE))
        sigma = differential(parse_field("p1*q1", PJ))
        Z = VectorField(PJ, ["t", "q1", "p1"])
        mu = magri_morosi(Rt, sigma, Z)
        for pt in rand_points(3):
            assert np.max(np.abs(mu.eval_at(pt))) < 1e-12

    def test_vanishes_despite_torsion(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "q1", "q1,t": "t"})
        Rt = complete_lift_tensor11(R)
        sigma = differential(momentum_function(VectorField(BE, [0.0, "q1"])))
        Z = complete_lift_vector(VectorField(BE, [1.0, "t + q1"]))
        mu = magri_morosi(Rt, sigma, Z)
        for pt in rand_points(3):
            assert np.max(np.abs(mu.eval_at(pt))) < 1e-9


class TestConcomitantTable:
    @pytest.mark.parametrize("R", [
        Tensor11.from_dict(BE, {"q1,q1": "q1", "q1,t": "t"}),
        dn_example_tensor(),
    ], ids=["n1", "n2"])
    def test_table_matches_pairs(self, R):
        Rt = complete_lift_tensor11(R)
        sigmas, zs = pn._basis_pairs(R.space.n)
        table = magri_morosi_table(Rt, sigmas, zs)
        pairs = [magri_morosi(Rt, sigma, Z) for sigma in sigmas for Z in zs]
        assert len(table) == len(pairs) == len(sigmas) * len(zs)
        for got, want in zip(table, pairs):
            assert [c.expr for c in got.comps] == [c.expr for c in want.comps]

    def test_one_tensor_lie_derivative_per_sigma(self, monkeypatch):
        # L_{P(sigma)} Rt depends on sigma alone: one per coordinate
        # one-form dx^b of phase space, d = 2n + 1 of them, not d * d
        targets = []
        original = pn.lie_derivative

        def counting(X, T):
            if isinstance(T, Tensor11):
                targets.append(T)
            return original(X, T)

        monkeypatch.setattr(pn, "lie_derivative", counting)
        pn_check(dn_example_tensor(), points=4)
        assert len(targets) == 5


class TestPNCheck:
    def test_diag_is_pn(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "q1"})
        rep = pn_check(R, points=16)
        assert rep.verdict == "pn-structure"
        assert rep.commutation_residual < 1e-9
        assert rep.magri_morosi_residual < 1e-9

    def test_torsion_is_not_pn(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "q1", "q1,t": "t"})
        rep = pn_check(R, points=16)
        assert rep.verdict == "not-pn"
        assert rep.torsion_residual > 1e-3
        assert rep.lifted_torsion_residual > 1e-3
        # commutation and the concomitant hold regardless of torsion
        assert rep.commutation_residual < 1e-9
        assert rep.magri_morosi_residual < 1e-9

    def test_zero_is_pn(self):
        assert pn_check(Tensor11.zero(BE), points=8).verdict == "pn-structure"

    def test_box_sets_the_sample_points(self):
        # the torsion of this R grows with |t|: it shows where points fall
        R = Tensor11.from_dict(BE, {"q1,q1": "q1", "q1,t": "t"})
        near = pn_check(R, points=8)
        far = pn_check(R, points=8, box=(10.0, 11.0))
        assert near.torsion_residual <= 2.0
        assert 10.0 <= far.torsion_residual <= 11.0


@pytest.mark.parametrize("call", [
    pn_check, lambda R: eigen_analysis(R, (0.0, 1.0)), eigenvalue_fields])
def test_a_tensor_with_a_t_row_is_refused(call):
    R = Tensor11.from_dict(BE, {"q1,q1": "q1", "t,q1": "q1"})
    with pytest.raises(LiftError, match="does not annihilate dt"):
        call(R)


class TestEigenAnalysis:
    def test_dn_example_point(self):
        R = dn_example_tensor()
        data = eigen_analysis(R, (1.0, 5.0, 2.0))
        assert np.allclose(data.eigenvalues, [3.0, 5.0], atol=1e-10)
        assert data.lambda0 == 0.0

    def test_diagonal(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "q1"})
        data = eigen_analysis(R, (0.0, 7.0))
        assert data.eigenvalues[0] == pytest.approx(7.0)

    def test_collision_rejected(self):
        be2 = base_e(2)
        R = Tensor11.from_dict(be2, {"q1,q1": "q1", "q2,q2": "q1"})
        with pytest.raises(EigenError):
            eigen_analysis(R, (0.0, 1.0, 2.0))

    def test_non_finite_block_rejected(self):
        # exp(600)^2 overflows to inf and exp(-1200) to 0: the q1-entry is
        # nan at q1 = 1.5, which np.linalg.eig refused with a LinAlgError
        R = Tensor11.from_dict(base_e(2), {
            "q1,q1": "q1 + exp(400*q1)*exp(400*q1)*exp(-800*q1)",
            "q2,q2": "q2"})
        with pytest.raises(NonFiniteError):
            eigen_analysis(R, (0.0, 1.5, 0.0))
        assert eigen_analysis(R, (0.0, 0.5, 0.0)).eigenvalues == \
            pytest.approx((0.0, 1.5))  # exp(200)^2 * exp(-400) = 1

    def test_eigenvalue_field_derivative(self):
        # lambda_1 = q1 - t*q2, so d(lambda_1)/dq1 = 1 at (1,5,2)
        R = dn_example_tensor()
        lam = eigenvalue_fields(R)
        g = lam[0].grad((1.0, 5.0, 2.0))
        assert g[1] == pytest.approx(1.0, abs=1e-8)
        assert g[0] == pytest.approx(-2.0, abs=1e-8)  # d/dt = -q2


class TestDarboux:
    def test_transform_recovers_eigen_coordinates(self):
        # eigenvalues are sorted ascending per point, so compare the new
        # coordinate tuples as sets rather than slot by slot
        R = dn_example_tensor()
        T = build_dn_transform(R)
        # the closed form: Q1 = q1 - t*q2 (= u), Q2 = q2 + 3 (= v + 3)
        be = base_e(2)
        expect = FibredTransform(
            2, [parse_field("q1 - t*q2", be), parse_field("q2 + 3", be)],
            [parse_field("q1 + t*(q2 - 3)", be), parse_field("q2 - 3", be)])
        for pt in rand_points(3, n=16, seed=5):
            got = sorted(f.eval(pt) for f in T.q_fwd)
            ref = sorted(g.eval(pt) for g in expect.q_fwd)
            assert got == pytest.approx(ref, abs=1e-8)

    def test_verify_passes(self):
        R = dn_example_tensor()
        T = build_dn_transform(R)
        report = verify_dn(R, T, points=8)
        assert report.passed
        assert report.max_residual < 1e-6

    def test_already_diagonal(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "q1"})
        T = build_dn_transform(R)
        report = verify_dn(R, T, points=8)
        assert report.passed

    def test_torsion_refused(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "q1", "q1,t": "t"})
        with pytest.raises(TransformError):
            build_dn_transform(R)

    def test_constant_eigenvalues_refused(self):
        R = Tensor11.from_dict(BE, {"q1,q1": "2"})
        with pytest.raises(TransformError):
            build_dn_transform(R)

    def test_degenerate_jacobian_refused_at_the_first_sampled_point(self):
        # constant, distinct eigenvalues: every drawn point passes the eigen
        # probe and the torsion check, and the Jacobian check refuses the
        # first of them
        R = Tensor11.from_dict(base_e(2), {"q1,q1": "1", "q2,q2": "2"})
        with pytest.raises(TransformError) as info:
            build_dn_transform(R)
        assert str(info.value) == (
            "degenerate eigenvalue Jacobian at (1.3776874061001925, "
            "1.03181761176121, -0.31771367667662); the eigenvalues are not "
            "usable as coordinates")

    def test_wrong_transform_fails_diagonality(self):
        # dropping the t*q2 term leaves an off-diagonal remainder
        R = dn_example_tensor()
        be2 = base_e(2)
        T = FibredTransform(2, [parse_field("q1", be2),
                                parse_field("q2 + 3", be2)],
                           [parse_field("q1", be2),
                            parse_field("q2 - 3", be2)])
        report = verify_dn(R, T, points=8)
        diag = [i for i in report.items if i.check_id == "dn.diagonal"][0]
        assert not diag.passed


class TestEigenfieldIdentities:
    def setup_method(self):
        be2 = base_e(2)
        self.be2 = be2
        self.R = Tensor11.from_dict(be2, {"q1,q1": "q1", "q2,q2": "q2 + 3"})
        self.X1 = VectorField(be2, [0.0, 1.0, 0.0])
        self.X2 = VectorField(be2, [0.0, 0.0, 1.0])
        self.lam1 = parse_field("q1", be2)
        self.lam2 = parse_field("q2 + 3", be2)

    def test_torsion_expansion(self):
        from jetlift import nijenhuis_torsion
        N = nijenhuis_torsion(self.R)
        lhs = N.apply(self.X1, self.X2)
        # (lam1-lam2)(X1(lam2) X2 + X2(lam1) X1) with both directional
        # derivatives zero for this diagonal example
        for pt in rand_points(3, n=16):
            assert np.max(np.abs(lhs.eval_at(pt))) < 1e-12

    def test_eigen_locality(self):
        assert self.X1(self.lam2).eval((0.0, 1.0, 2.0)) == 0.0
        assert self.X2(self.lam1).eval((0.0, 1.0, 2.0)) == 0.0

    def test_haantjes_on_eigenfields(self):
        from jetlift import haantjes_tensor
        H = haantjes_tensor(self.R)
        out = H.apply(self.X1, self.X2)
        for pt in rand_points(3, n=16):
            assert np.max(np.abs(out.eval_at(pt))) < 1e-12
