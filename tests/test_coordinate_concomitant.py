"""`pn_check` judges the Magri-Morosi concomitant mu(sigma, Z) on the
coordinate basis of phase space, dx^b and d_c, where `prop7` keeps the
lifted probe basis of `pn._basis_pairs`. That is sound because mu is a
tensor (Magri & Morosi 1984; Kosmann-Schwarzbach & Magri 1990,
*Poisson-Nijenhuis structures*, Ann. IHP 53): C^inf-linear in both
arguments, so its table on a basis fixes it on every pair. These tests
sample that linearity, hold the coordinate table to the probe's verdict and
to a component formula of its own, and check that the concomitant's
mutants still fail `pn_check`.
"""
import os

import numpy as np
import pytest

from batch_values import evaluate_batch
from jetlift import pn
from jetlift.catalog import dn_example_tensor, torsion_example
from jetlift.fields import parse_field
from jetlift.lifts import complete_lift_tensor11
from jetlift.model import load_model
from jetlift.report import DEFAULT_TOL, Checker, max_residual
from jetlift.spaces import base_e, phase_j
from jetlift.tensors import Tensor11
from test_mutations import flipped_middle_term, patch_everywhere

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def shipped_tensors():
    """(name, R) for every tensor11_E of models/n1.json and n2.json."""
    for model in ("n1", "n2"):
        objects = load_model(os.path.join(MODELS, f"{model}.json")).objects
        for name, (kind, obj) in objects.items():
            if kind == "tensor11_E":
                yield f"{model}-{name}", obj


def sweep_tensor(n):
    """The pn-sweep tensor of the benchmark: sum q_i d/dq_i (x) dq^i plus
    sum t d/dq_i (x) dq^((i mod n)+1), whose torsion does not vanish."""
    comps = {f"q{i},q{i}": f"q{i}" for i in range(1, n + 1)}
    for i in range(1, n + 1):
        key = f"q{i},q{i % n + 1}"
        comps[key] = f"{comps[key]} + t" if key in comps else "t"
    return Tensor11.from_dict(base_e(n), comps)


def conformal_planes(n):
    """A tensor on phase space, f_i times the identity on each (q_i, p_i)
    plane: it commutes with the Poisson map, as a complete lift does, but
    its concomitant does not vanish."""
    comps = {}
    for i in range(1, n + 1):
        f = f"q{i}*p{i} + sin(t)" if i == 1 else f"exp(q{i})*p1"
        comps[f"q{i},q{i}"] = comps[f"p{i},p{i}"] = f
    return Tensor11.from_dict(phase_j(n), comps)


SHIPPED = list(shipped_tensors())
TENSORS = SHIPPED + [("torsion_example", torsion_example()),
                     ("dn_example", dn_example_tensor())] + [
    (f"sweep-n{n}", sweep_tensor(n)) for n in range(1, 5)]
#: lifted tensors on phase space, and the two whose concomitant is not 0
LIFTED = [(name, complete_lift_tensor11(R)) for name, R in SHIPPED]
CONFORMAL = [(f"conformal-n{n}", conformal_planes(n)) for n in (1, 2)]


def test_the_models_ship_six_tensors():
    assert len(SHIPPED) == 6 and "n2-R_dn" in dict(SHIPPED)


@pytest.mark.parametrize("n, pairs, probe_pairs", [(1, 9, 8), (2, 25, 28),
                                                   (4, 81, 104)])
def test_the_coordinate_basis_has_d_squared_pairs(n, pairs, probe_pairs):
    sigmas, zs = pn._coordinate_basis(complete_lift_tensor11(
        sweep_tensor(n)).space)
    assert len(sigmas) * len(zs) == pairs
    probe = pn._basis_pairs(n)
    assert len(probe[0]) * len(probe[1]) == probe_pairs
    assert all(c.expr.value == float(a == b) for b, s in enumerate(sigmas)
               for a, c in enumerate(s.comps))
    assert all(c.expr.value == float(a == b) for b, Z in enumerate(zs)
               for a, c in enumerate(Z.comps))


def scaled(obj, f):
    return type(obj)(obj.space, [f * c for c in obj.comps])


def sample_points(dim, seed):
    rng = np.random.default_rng(seed)
    return [tuple(p) for p in rng.uniform(-2, 2, (16, dim)).tolist()]


@pytest.mark.parametrize("name, Rt", LIFTED + CONFORMAL,
                         ids=[name for name, _ in LIFTED + CONFORMAL])
def test_the_concomitant_is_linear_over_functions(name, Rt):
    # mu(f sigma, Z) = f mu(sigma, Z) and mu(sigma, g Z) = g mu(sigma, Z),
    # on the coordinate basis and on the lifted probe basis; mu vanishes
    # for a complete lift, so the conformal tensors give the test its teeth
    pj = Rt.space
    f = parse_field("sin(q1) + t*p1", pj)
    g = parse_field("exp(t)*q1 + p1*p1", pj)
    sigmas, zs = pn._coordinate_basis(pj)
    probe = pn._basis_pairs(pj.n)
    sigmas, zs = sigmas + probe[0], zs + probe[1]
    table = pn.magri_morosi_table(Rt, sigmas, zs)
    f_sigma = pn.magri_morosi_table(Rt, [scaled(s, f) for s in sigmas], zs)
    g_z = pn.magri_morosi_table(Rt, sigmas, [scaled(Z, g) for Z in zs])
    points = sample_points(pj.dim, 8)
    assert max_residual(f_sigma, points, [scaled(mu, f) for mu in table]) < 1e-12
    assert max_residual(g_z, points, [scaled(mu, g) for mu in table]) < 1e-12
    assert (max_residual(table, points) > 0.1) == name.startswith("conformal")


def concomitant_residuals(Rt, seed=0):
    """The largest component of mu over the coordinate table and over the
    probe table, each at the points a Checker of 16 points draws."""
    return tuple(Checker(points=16, seed=seed).sample_residuals(
        [pn.magri_morosi_table(Rt, *pairs)])[0]
        for pairs in (pn._coordinate_basis(Rt.space), pn._basis_pairs(Rt.space.n)))


@pytest.mark.parametrize("R", [R for _, R in TENSORS],
                         ids=[name for name, _ in TENSORS])
def test_the_coordinate_verdict_is_the_probe_verdict(R):
    coordinate, probe = concomitant_residuals(complete_lift_tensor11(R))
    assert (coordinate < DEFAULT_TOL) == (probe < DEFAULT_TOL)
    rep = pn.pn_check(R, points=16)
    assert rep.magri_morosi_residual == coordinate


@pytest.mark.parametrize("Rt", [Rt for _, Rt in CONFORMAL],
                         ids=[name for name, _ in CONFORMAL])
def test_both_tables_see_a_concomitant_that_does_not_vanish(Rt):
    coordinate, probe = concomitant_residuals(Rt)
    assert coordinate >= DEFAULT_TOL and probe >= DEFAULT_TOL


@pytest.mark.parametrize("R", [dn_example_tensor(), torsion_example()],
                         ids=["dn_example", "torsion_example"])
def test_both_tables_see_the_concomitant_sign_mutant(monkeypatch, R):
    patch_everywhere(monkeypatch, pn.magri_morosi_table, flipped_middle_term)
    coordinate, probe = concomitant_residuals(complete_lift_tensor11(R))
    assert coordinate >= DEFAULT_TOL and probe >= DEFAULT_TOL


def component_formula(Rt, points):
    """mu(dx^b, d_c)^a at each point, as an array [b, c, a, point], from the
    canonical Lambda and the first partials of Rt alone.

    With P(sigma)^k = sum_a sigma_a Lambda^{ak} and Lambda constant, P(dx^b)
    is the constant field Lambda^{bk} d_k, and the Lie derivative along a
    constant field is the plain partial derivative. Term by term:
      (L_{P(dx^b)} Rt)(d_c)^a   = sum_k Lambda^{bk} d_k Rt^a_c;
      Rt(dx^b) = Rt^b_e dx^e, so L_{d_c} Rt(dx^b) = d_c Rt^b_e dx^e, and
      P(L_{d_c} Rt(dx^b))^a     = sum_e Lambda^{ea} d_c Rt^b_e;
      Rt(d_c) = Rt^k_c d_k, so L_{Rt(d_c)} dx^b = d(Rt^b_c) = d_e Rt^b_c dx^e,
      and P(L_{Rt(d_c)} dx^b)^a = sum_e Lambda^{ea} d_e Rt^b_c.
    So mu(dx^b, d_c)^a = sum_k Lambda^{bk} d_k Rt^a_c
    - sum_e Lambda^{ea} d_c Rt^b_e + sum_e Lambda^{ea} d_e Rt^b_c.
    """
    space = Rt.space
    d = space.dim
    Lam = np.array([[f.expr.value for f in row]
                    for row in pn.canonical_bivector(space.n).entries])
    partials, batch = evaluate_batch(
        [f.diff(x) for row in Rt.entries for f in row for x in space.coords],
        points)
    assert not batch.rejected.any()
    G = partials.reshape(d, d, d, -1)  # G[a, c, k, m] = d_k Rt^a_c at point m
    t1 = np.einsum("bk,ackm->bcam", Lam, G)
    t2 = np.einsum("ea,becm->bcam", Lam, G)
    t3 = np.einsum("ea,bcem->bcam", Lam, G)
    return t1 - t2 + t3


#: a tensor on phase space with a t-row, a p-column and no symmetry
GENERIC = Tensor11.from_dict(phase_j(2), {
    "q1,q1": "q1*p1", "q1,p1": "t*q2", "p1,q1": "p2", "q2,t": "sin(q1)",
    "t,p2": "exp(p1)", "p2,q2": "q1*q2*p2"})
ORACLE = LIFTED + [
    ("torsion_example", complete_lift_tensor11(torsion_example())),
    ("sweep-n3", complete_lift_tensor11(sweep_tensor(3)))] + CONFORMAL + [
    ("generic", GENERIC)]


@pytest.mark.parametrize("name, Rt", ORACLE, ids=[name for name, _ in ORACLE])
def test_the_table_is_the_component_formula(name, Rt):
    d = Rt.space.dim
    points = sample_points(d, 3)
    table = pn.magri_morosi_table(Rt, *pn._coordinate_basis(Rt.space))
    got, batch = evaluate_batch([c for mu in table for c in mu.comps], points)
    assert not batch.rejected.any()
    want = component_formula(Rt, points)
    # each sum has at most one nonzero term, so the two agree to the bit
    assert np.array_equal(got.reshape(d, d, d, -1), want)
    # a complete lift's concomitant vanishes, the others' does not
    assert (np.max(np.abs(want)) > 0.1) == (
        name == "generic" or name.startswith("conformal"))


@pytest.mark.parametrize("mutant", ["concomitant sign", "poisson sign"])
@pytest.mark.parametrize("R", [dn_example_tensor(), dict(SHIPPED)["n1-R_diag"]],
                         ids=["dn_example", "n1-R_diag"])
def test_pn_check_kills_the_concomitant_mutants(monkeypatch, mutant, R):
    assert pn.pn_check(R, points=16).verdict == "pn-structure"
    if mutant == "concomitant sign":
        patch_everywhere(monkeypatch, pn.magri_morosi_table, flipped_middle_term)
    else:
        apply = pn.poisson_apply
        patch_everywhere(monkeypatch, apply, lambda sigma: -apply(sigma))
    rep = pn.pn_check(R, points=16)
    assert rep.verdict == "not-pn"
    assert rep.magri_morosi_residual >= DEFAULT_TOL
    assert rep.torsion_residual < DEFAULT_TOL and rep.commutation_residual < DEFAULT_TOL
