"""Darboux-Nijenhuis checks sampled as the image of the base box.

`verify_dn` draws each point x in the box of the old chart and evaluates
its identities at y = T(x). The new coordinates are the sorted
eigenvalues, so only about 1/n! of the new chart's box has a preimage:
drawing there wastes a Newton solve on most points and, from n = 4 on,
aborts. These tests hold the image sampler to a known-answer family for
n = 3 and 4, to its work on R_dn, and to the errors it rejects points with.
"""
import os

import numpy as np
import pytest

from batch_values import evaluate_batch
from dn_family import dn_family
from jetlift import (
    SamplingError,
    Tensor11,
    base_e,
    build_dn_transform,
    eigen_analysis,
    pn_check,
    verify_dn,
)
from jetlift.expr import Batch
from jetlift.model import load_model
from jetlift.report import Checker, _compiled_residuals, _through

N2 = os.path.join(os.path.dirname(__file__), "..", "models", "n2.json")
DN_CHECKS = ["dn.diagonal", "dn.eigen_locality", "dn.lift_diagonal",
             "dn.poisson_canonical"]


@pytest.fixture(scope="module", params=[3, 4], ids=["n3", "n4"])
def family(request):
    R, eigenvalues = dn_family(request.param)
    return R, eigenvalues, build_dn_transform(R)


def r_dn():
    _, R = load_model(N2).get("R_dn")
    return R


def test_family_is_pn(family):
    R, _, _ = family
    assert pn_check(R, points=16).verdict == "pn-structure"


def test_family_transform_is_the_sorted_eigenvalues(family):
    R, eigenvalues, T = family
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.0, 2.0, size=(64, R.space.dim))
    got, batch = evaluate_batch(T.q_fwd, X)
    want = np.sort(evaluate_batch(eigenvalues, X)[0], axis=0)
    live = ~batch.rejected
    assert live.sum() > 48  # clustered eigenvalues reject only a few
    assert np.max(np.abs(got[:, live] - want[:, live])) < 1e-8


def test_family_verify_dn_passes(family):
    R, _, T = family
    report = verify_dn(R, T)
    assert [item.check_id for item in report.items] == DN_CHECKS
    assert report.passed


def test_uniform_chart_aborts_at_n4():
    # the check verify_dn made before it drew through the forward map:
    # about 1 point in 4! of the new chart's box has a preimage, below the
    # 1 in 11 that the 10x abort rule needs
    R, _ = dn_family(4)
    T = build_dn_transform(R)
    Rp = T.base_map().push(R)
    diag = Tensor11.from_dict(Rp.space, {f"q{i},q{i}": Rp.entries[i][i]
                                         for i in range(1, 5)})
    with pytest.raises(SamplingError, match=r"\(TransformError: 321\)"):
        Checker(tol=1e-6, points=32).compare("dn.diagonal", "", Rp, diag)


def test_no_dn_check_rejects_a_point(monkeypatch):
    R = r_dn()
    T = build_dn_transform(R)
    drawn = []
    real = Checker.draw_points

    def spy(self, n, dim):
        X = real(self, n, dim)
        drawn.append(X)
        return X

    monkeypatch.setattr(Checker, "draw_points", spy)
    report = verify_dn(R, T, points=32, seed=0)
    assert report.passed
    # one round of exactly 32 points per check: nothing was redrawn
    assert [len(X) for X in drawn] == [32] * 4
    # each worst point is the image of a drawn point, not a drawn point
    maps = [T.base_map()] * 2 + [T.phase_map()] * 2
    for item, X, chart in zip(report.items, drawn, maps):
        images = evaluate_batch(chart.fwd, X)[0].T
        assert list(item.worst_point) in images.tolist()


def test_verify_dn_solves_few_newton_systems(monkeypatch):
    R = r_dn()
    T = build_dn_transform(R)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: solves.append(1) or solve(*args))
    assert verify_dn(R, T, seed=0).passed
    assert len(solves) <= 10


def test_forward_failure_is_rejected_with_the_forward_error():
    R = Tensor11.from_dict(base_e(1), {"q1,q1": "sqrt(q1)"})
    chart = build_dn_transform(R).base_map()
    Rp = chart.push(R)
    points = [(0.5, 1.0), (0.5, -1.0), (0.2, 0.3), (-1.0, -0.25)]
    b = Batch(np.array(points))
    with np.errstate(all="ignore"):
        values = _through(chart.fwd, _compiled_residuals(Rp))(b)
    assert b.rejected.tolist() == [False, True, False, True]
    for i in (1, 3):
        _, alone = evaluate_batch(chart.fwd, [points[i]])
        assert type(b.errors[i]) is type(alone.errors[0])
        assert str(b.errors[i]) == str(alone.errors[0])
        assert np.isnan(values[i, 0])
    assert tuple(values[0, 1:]) == (0.5, 1.0)  # the image (t, sqrt(q1))
    # the forward error is what the abort histogram counts
    with pytest.raises(SamplingError, match=r"\(DomainError: 41\)"):
        Checker(points=4, box=(-2.0, -1.0)).vanish("x", "", Rp, via=chart)


def test_base_points_are_the_points_sample_draws(monkeypatch):
    # each round is judged in one eigen-analysis of all its points, not
    # point by point through Checker.sample, and accepts the same points
    R, calls, accept = r_dn(), [], Checker._accept

    def spy(self, dim, batch, *message):
        points, values = accept(self, dim, batch, *message)
        calls.append((dim, points.tolist()))
        return points, values

    monkeypatch.setattr(Checker, "_accept", spy)
    monkeypatch.delattr(Checker, "sample")
    build_dn_transform(R, points=16)
    monkeypatch.undo()
    want = Checker(points=16).sample(3, lambda pt: eigen_analysis(R, pt))
    assert calls == [(3, [list(pt) for pt in want])]
