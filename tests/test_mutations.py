"""Mutation tests: the suites must fail when a formula they check is wrong.

Each test swaps a deliberately wrong version of a library function into
every `jetlift.*` namespace that binds the original (the modules import
each other with `from .x import name`), runs the suites that exercise it
on `models/n1.json`, and asserts that the checks named for it fail. A
mutant that every suite still passed would show a formula the suites do
not actually check. The sign of the Poisson map is one: no suite check
sees it, so a test here holds it to the canonical bivector instead. The
fold mutants replace an entry of its table, or the rule by which the
contractions leave a term out (the zero set of `tensors._operands`).
"""
import math
import os
import random
import sys
from itertools import chain

import pytest

from jetlift import charts, pn, tensors
from jetlift import expr as ex
from jetlift.fields import const_field, coord_field, zero
from jetlift.model import load_model
from jetlift.report import max_residual
from jetlift.suites import run_suite
from jetlift.spaces import base_e
from jetlift.tensors import Tensor12, sum_fields

N1 = os.path.join(os.path.dirname(__file__), "..", "models", "n1.json")


def patch_everywhere(monkeypatch, original, mutant):
    """Bind mutant wherever a jetlift module binds original."""
    patched = 0
    for name, mod in list(sys.modules.items()):
        if name != "jetlift" and not name.startswith("jetlift."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, mutant)
                patched += 1
    assert patched, "the mutant replaced nothing"


def failed_checks(suite):
    inp = load_model(N1).suite_inputs()
    return {item.check_id.split("[")[0]
            for item in run_suite(suite, inp).items if not item.passed}


def flipped_middle_term(Rt, sigmas, zs):
    """mu with + P(L_Z(Rt sigma)) in place of - P(L_Z(Rt sigma))."""
    out = []
    for sigma in sigmas:
        L_Rt = tensors.lie_derivative(pn.poisson_apply(sigma), Rt)
        Rt_sigma = tensors.adjoint_tensor11(Rt, sigma)
        for Z in zs:
            t1 = tensors.apply_tensor11(L_Rt, Z)
            t2 = pn.poisson_apply(tensors.lie_derivative(Z, Rt_sigma))
            t3 = pn.poisson_apply(tensors.lie_derivative(
                tensors.apply_tensor11(Rt, Z), sigma))
            out.append(t1 + t2 + t3)
    return out


def torsion_without_last_term(R):
    """N_R without its - R^a_e d_b R^e_c term."""
    space = R.space
    coords = space.coords
    d = space.dim
    comps = []
    for a in range(d):
        plane = []
        for b in range(d):
            row = []
            for c in range(d):
                acc = zero(space)
                for e in range(d):
                    acc = acc + R.entries[e][b] * R.entries[a][c].diff(coords[e])
                    acc = acc - R.entries[e][c] * R.entries[a][b].diff(coords[e])
                    acc = acc + R.entries[a][e] * R.entries[e][b].diff(coords[c])
                row.append(acc)
            plane.append(row)
        comps.append(plane)
    return Tensor12(space, comps)


@pytest.mark.parametrize("suite", ["prop7", "theorem3"])
def test_concomitant_sign_is_checked(monkeypatch, suite):
    assert f"{suite}.concomitant" not in failed_checks(suite)
    patch_everywhere(monkeypatch, pn.magri_morosi_table, flipped_middle_term)
    assert f"{suite}.concomitant" in failed_checks(suite)


@pytest.mark.parametrize("check", ["prop5.2", "prop6.3"])
def test_torsion_terms_are_checked(monkeypatch, check):
    suite = check.split(".")[0]
    assert check not in failed_checks(suite)
    patch_everywhere(monkeypatch, tensors.nijenhuis_torsion,
                     torsion_without_last_term)
    assert check in failed_checks(suite)


def lie_derivative_flipped(kind):
    """The Lie derivative with the sign of its upper-index ("u") or its
    lower-index ("d") terms flipped, on the shipped index plan."""
    plus = {True: kind == "u", False: kind != "d"}  # keyed by upper?

    def mutant(X, T):
        space, coords = X.space, X.space.coords
        comps = T.components()
        dX = [x.diff(name) for x in X.comps for name in coords]
        out = []
        for f, moves in zip(comps, tensors._lie_moves(T.variance, space.dim)):
            acc = zero(space)
            for c, terms in enumerate(moves):
                acc = acc + X.comps[c] * f.diff(coords[c])
                for j, q, upper in terms:
                    t = comps[j] * dX[q]
                    acc = acc + t if plus[upper] else acc - t
            out.append(acc)
        return T._rebuild(out) if T.variance else out[0]
    return mutant


@pytest.mark.parametrize("kind", ["u", "d"])
@pytest.mark.parametrize("check", ["brackets.2", "prop4.1"])
def test_lie_derivative_index_signs_are_checked(monkeypatch, kind, check):
    suite = check.split(".")[0]
    assert check not in failed_checks(suite)
    patch_everywhere(monkeypatch, tensors.lie_derivative,
                     lie_derivative_flipped(kind))
    assert check in failed_checks(suite)


def test_transport_jacobian_is_checked(monkeypatch):
    # push with the Kronecker delta for J: the upper-index factors dropped
    transport = charts._transport

    def without_jacobian(obj, maps, dst, J, K):
        if J is not None:
            J = tensors._table(len(J), 2, lambda a, c: const_field(
                dst, float(a == c)))
        return transport(obj, maps, dst, J, K)

    assert not failed_checks("naturality")
    patch_everywhere(monkeypatch, transport, without_jacobian)
    assert {"naturality.complete_vec", "naturality.vlift_form",
            "naturality.complete_tensor"} <= failed_checks("naturality")


def poisson_defect(n):
    """max over the lifted basis one-forms sigma, the coordinates k and 64
    points of |sum_a sigma_a Lambda^{ak} - P(sigma)^k|."""
    Lam = pn.canonical_bivector(n).entries
    pj = Lam[0][0].space
    sigmas, _ = pn._basis_pairs(n)
    lhs = [sum_fields(pj, [s.comps[a] * Lam[a][k] for a in range(pj.dim)])
           for s in sigmas for k in range(pj.dim)]
    rhs = [f for s in sigmas for f in pn.poisson_apply(s).comps]
    rng = random.Random(0)
    points = [tuple(rng.uniform(-2, 2) for _ in range(pj.dim))
              for _ in range(64)]
    return max_residual(lhs, points, rhs)


@pytest.mark.parametrize("n", [1, 2])
def test_poisson_map_is_the_bivector(n):
    assert poisson_defect(n) == 0.0


def test_poisson_sign_is_checked(monkeypatch):
    apply = pn.poisson_apply
    patch_everywhere(monkeypatch, apply, lambda sigma: -apply(sigma))
    assert poisson_defect(1) > 0.0


@pytest.mark.parametrize("check", ["brackets.2", "prop4.1"])
def test_sum_products_subtraction_is_checked(monkeypatch, check):
    # the tree fold of sum_products adding the terms it should subtract
    suite = check.split(".")[0]
    assert check not in failed_checks(suite)
    monkeypatch.setitem(tensors._EXPR_FOLD, "-", ex.add)
    assert check in failed_checks(suite)


_operands = tensors._operands


def flags_every_constant_factor(space, factors, diffed=()):
    """_operands flagging every constant factor, not only the zeros."""
    ops, derivs, dead = _operands(space, factors, diffed)
    if dead:  # flagged, for no non-finite constant
        dead = dead | {e for e in chain(ops, *derivs) if isinstance(e, ex.Const)}
    return ops, derivs, dead


def flags_zero_beside_non_finite(space, factors, diffed=()):
    """_operands flagging the constant zeros whatever else is constant."""
    ops, derivs, dead = _operands(space, factors, diffed)
    if not dead:  # none flagged, for a non-finite constant
        dead = {e for e in chain(ops, *derivs) if e in ex.ZEROS}
    return ops, derivs, dead


def zero_term_folds():
    """Whether a contraction keeps 2.5 * q1 and still folds 0 * inf to nan."""
    space = base_e(1)
    q, inf, c = (coord_field(space, "q1"), const_field(space, math.inf),
                 const_field(space, 2.5))
    kept = tensors._matsum(space, "+", [[c]], [[q]])[0][0].expr == ex.mul(c.expr, q.expr)
    nan = tensors._matsum(space, "+", [[const_field(space, 0.0)]], [[inf]])[0][0].expr
    return kept and isinstance(nan, ex.Const) and math.isnan(nan.value)


@pytest.mark.parametrize("check", ["brackets.3", "prop4.1", "theta.1"])
def test_sum_products_skips_only_zero_terms(monkeypatch, check):
    # flagging every constant factor also drops nonzero terms, such as
    # X^t = 1 times a derivative
    suite = check.split(".")[0]
    assert check not in failed_checks(suite) and zero_term_folds()
    monkeypatch.setattr(tensors, "_operands", flags_every_constant_factor)
    assert check in failed_checks(suite)
    assert not zero_term_folds()


def test_sum_products_folds_zero_beside_non_finite(monkeypatch):
    # no model has a non-finite constant, so no suite sees this mutant
    assert zero_term_folds()
    monkeypatch.setattr(tensors, "_operands", flags_zero_beside_non_finite)
    assert not zero_term_folds()
