"""Mutation tests: the suites must fail when a formula they check is wrong.

Each test swaps a deliberately wrong version of a library function into
every `jetlift.*` namespace that binds the original (the modules import
each other with `from .x import name`), runs the suites that exercise it
on `models/n1.json`, and asserts that the checks named for it fail. A
mutant that every suite still passed would show a formula the suites do
not actually check.
"""
import os
import sys

import pytest

from jetlift import pn, tensors
from jetlift.fields import zero
from jetlift.model import load_model
from jetlift.suites import run_suite
from jetlift.tensors import Tensor12

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
