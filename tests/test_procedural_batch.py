"""Procedural fields evaluated over a whole point array.

The batch is the only procedural evaluator; eval(point) and grad(point)
are its one-row case. These tests hold the batch to that: evaluated over
many rows at once, every field gives the bits, the rejected rows and the
errors that evaluating each row alone gives.
"""
import functools
import math
import os
import random

import numpy as np
import pytest

from batch_values import evaluate_batch
from dn_family import dense_eigenvalues, dn_curved, dn_dense, dn_family
from jetlift import (
    FibredTransform,
    SamplingError,
    SingularPointError,
    Tensor11,
    VectorField,
    base_e,
    build_dn_transform,
    canonical_bivector,
    eigen_analysis,
    eigenvalue_fields,
    parse_field,
    phase_j,
    verify_dn,
)
from jetlift.expr import Batch
from jetlift.fields import Kernel, ProceduralField, program
from jetlift.model import load_model
from jetlift.report import _REJECTABLE, Checker

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")
N1, N2 = (os.path.join(MODELS, f"n{n}.json") for n in (1, 2))


def rand_points(dim, n=64, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]


@pytest.fixture(scope="module")
def dn():
    _, R = load_model(N2).get("R_dn")
    T = build_dn_transform(R)
    Rp = T.base_map().push_tensor11(R)
    Lamp = T.phase_map().push_bivector(canonical_bivector(2))
    base = {
        "eigenvalue": T.q_fwd,
        "eigenvalue.diff": [f.diff(c) for f in T.q_fwd for c in ("t", "q2")],
        "eigenvalue.d2": [T.q_fwd[1].diff("q1").diff("q2")],
        "q_inv": T.q_inv,
        "q_inv.diff": [g.diff(c) for g in T.q_inv for c in ("t", "q1")],
        "q_inv.d2": [T.q_inv[0].diff("q2").diff("t")],
        "Tensor11": [Rp.entries[a][b] for a, b in
                     ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2))],
        "Tensor11.diff": [Rp.entries[1][1].diff("t"),
                          Rp.entries[2][1].diff("q2")],
    }
    phase = {"Bivector": [Lamp.entries[a][b] for a, b in
                          ((1, 3), (2, 4), (1, 4), (0, 3))]}
    return base, phase


def one_row(f, pt):
    """f at pt evaluated alone: ("value", float) or ("error", class)."""
    try:
        return "value", f.eval(pt)
    except Exception as exc:  # the class is what is compared
        return "error", type(exc)


def cases(dn):
    base, phase = dn
    for group, fields in base.items():
        yield group, fields, rand_points(3)
    for group, fields in phase.items():
        yield group, fields, rand_points(5, seed=1)


def test_batch_matches_one_row_evaluation(dn):
    # 64 one-row evaluations per field: a few entries of each pushed
    # tensor stand for the rest, which are built the same way
    seen_rejected = 0
    for group, fields, points in cases(dn):
        for k, f in enumerate(fields):
            values, batch = evaluate_batch([f], points)
            for i, pt in enumerate(points):
                kind, got = one_row(f, pt)
                where = f"{group}[{k}] at {pt}"
                assert batch.rejected[i] == (kind == "error"), where
                if kind == "error":
                    assert type(batch.errors[i]) is got, where
                else:
                    # bit for bit: the same float, signed zeros included
                    assert values[0, i].tobytes() == np.float64(got).tobytes(), where
            seen_rejected += int(batch.rejected.sum())
    # about half the base points have no preimage under the sorted
    # eigenvalues, so the Newton rows are rejected there
    assert seen_rejected > 0


def test_shared_batch_matches_separate_batches(dn):
    for group, fields, points in cases(dn):
        shared, batch = evaluate_batch(fields, points)
        for k, f in enumerate(fields):
            alone, own = evaluate_batch([f], points)
            assert not (own.rejected & ~batch.rejected).any(), group
            keep = ~batch.rejected
            assert shared[k, keep].tobytes() == alone[0, keep].tobytes(), group


def bits(x) -> bytes:
    return np.float64(x).tobytes()


# a q-block with real, distinct eigenvalues everywhere (the off-diagonal
# entries have the same sign) and entries that round, unlike R_dn's
GENERIC = Tensor11.from_dict(base_e(2), {
    "q1,q1": "2 + sin(q1)*t", "q1,q2": "1 + q1*q1/7",
    "q2,q1": "0.3 + t*t/11", "q2,q2": "q1 - q2/3"})


def test_two_maps_in_one_program_keep_their_own_state():
    # each procedural map keeps its state and Jacobian per batch under its
    # own key: two Newton inverses, or the eigenvalues of two q-blocks,
    # evaluated in one program must not read each other's
    be = base_e(2)
    inverses = [FibredTransform(2, [parse_field(a, be), parse_field(b, be)]).q_inv
                for a, b in (("q1 + t*q2", "q2"), ("q1 + sin(q2)/3", "q2 - t*q1/5"))]
    blocks = [eigenvalue_fields(R) for R in (GENERIC, Tensor11.from_dict(
        be, {"q1,q1": "2*q1", "q1,q2": "1", "q2,q2": "t - q2"}))]
    X = rand_points(3, n=32, seed=5)
    for maps in (inverses, blocks):
        fields = [[g for f in m for g in (f, *map(f.diff, be.coords))]
                  for m in maps]
        both, b = evaluate_batch(fields[0] + fields[1], X)
        (one, b1), (two, b2) = [evaluate_batch(f, X) for f in fields]
        assert (b.rejected == b1.rejected | b2.rejected).all()
        keep = ~b.rejected
        assert keep.sum() > len(X) // 2
        assert not np.array_equal(one[:, keep], two[:, keep])
        assert (both[:, keep].tobytes()
                == np.vstack([one, two])[:, keep].tobytes())


def test_eigenvalue_gradient_is_the_per_point_perturbation():
    # d(lambda_i)/dx^c = u_i . dA/dx^c . v_i, computed point by point with
    # 1-D numpy products: the stacked batch must give the same bits
    R = GENERIC
    coords = R.space.coords
    lam = eigenvalue_fields(R)
    points = rand_points(3)
    values, batch = evaluate_batch(
        [f.diff(c) for f in lam for c in coords], points)
    assert not batch.rejected.any()
    for k, pt in enumerate(points):
        data = eigen_analysis(R, pt)
        for i in range(2):
            for j, c in enumerate(coords):
                dA = np.array([[R.entries[a][b].diff(c).eval(pt)
                                for b in (1, 2)] for a in (1, 2)])
                want = float(data.left[i] @ dA @ data.right[:, i])
                assert bits(values[3 * i + j, k]) == bits(want), (pt, i, c)


def test_composed_gradient_is_the_chain_rule_summed_in_order():
    # the gradient of f(t, q_inv(t, Q)) is the chain rule through f's tree,
    # each node's rule applied in the order differentiation builds it, from
    # one-point gradients of the maps
    be = base_e(2)
    T = FibredTransform(2, [parse_field("q1 + sin(t)*q2/3", be),
                            parse_field("q2 + exp(q1/5)/4", be)])
    f = parse_field("q1*q2 + sin(t) + q2*q2/3", be)
    g = T.base_map().push_scalar(f)
    maps = [parse_field("t", be)] + T.q_inv
    points = rand_points(3)
    values, batch = evaluate_batch([g.diff(c) for c in be.coords], points)
    assert not batch.rejected.any()
    for k, pt in enumerate(points):
        y = tuple(m.eval(pt) for m in maps)
        # dq/dQ = Jq^-1 and dq/dt = -Jq^-1 dQ/dt at the preimage y
        jinv = np.linalg.inv(np.array([[f.diff(f"q{j}").eval(y) for j in (1, 2)]
                                       for f in T.q_fwd]))
        dt = -jinv @ np.array([f.diff("t").eval(y) for f in T.q_fwd])
        mg = [(1.0, 0.0, 0.0)] + [(dt[i],) + tuple(jinv[i]) for i in (0, 1)]
        assert [m.grad(pt) for m in maps] == mg
        t, y1, y2 = y
        for j in range(3):
            d1, d2 = mg[1][j], mg[2][j]
            # q1*q2 + sin(t) + q2*q2/3, its sums folded left to right; the
            # derivative of sin(t) is the constant 0 but by t
            d = d1 * y2 + y1 * d2
            d = d + math.cos(t) if j == 0 else d
            want = d + (d2 * y2 + y2 * d2) * 3.0 / 9.0
            assert bits(values[j, k]) == bits(want), (pt, j)


def second_partials(fields, X):
    """The (len(fields), dim, dim, m) second partials of the fields at the
    points X, and the batch that evaluated them."""
    coords = fields[0].space.coords
    values, batch = evaluate_batch(
        [f.diff(a).diff(c) for f in fields for a in coords for c in coords], X)
    return values.reshape(len(fields), len(coords), len(coords), -1), batch


@pytest.mark.parametrize("kind, n", [("family", 2), ("family", 3),
                                     ("family", 4), ("dense", 3), ("dense", 5),
                                     ("curved", 2), ("curved", 3)])
def test_eigenvalue_hessian_is_the_closed_form_one(kind, n):
    # the second-order perturbation of the sorted eigenvalues against the
    # symbolic second derivatives of the closed-form ones, matched by value
    if kind == "dense":
        R, eigenvalues = dn_dense(n), dense_eigenvalues(n)
    else:
        R, eigenvalues = {"family": dn_family, "curved": dn_curved}[kind](n)
    lam = eigenvalue_fields(R)
    X = rand_points(n + 1, n=48, seed=n)
    got, batch = second_partials(lam, X)
    want, _ = second_partials(eigenvalues, X)
    order = np.argsort(evaluate_batch(eigenvalues, X)[0], axis=0)
    live = np.flatnonzero(~batch.rejected)
    assert live.size > 40
    for k in live.tolist():
        assert np.max(np.abs(got[..., k] - want[order[:, k], ..., k])) <= 1e-9


@pytest.mark.parametrize("path, name", [(N1, "T_exp"), (N2, "T_shear")],
                         ids=["T_exp", "T_shear"])
def test_newton_hessian_is_the_symbolic_inverses(path, name):
    # the transform rebuilt without its inv_* components runs Newton
    _, T = load_model(path).get(name)
    newton = FibredTransform(T.n, T.q_fwd)
    assert not any(g.expr is f.expr for g, f in zip(newton.q_inv, T.q_inv))
    X = rand_points(T.n + 1, n=32, seed=7)
    got, batch = second_partials(newton.q_inv, X)
    want, _ = second_partials(T.q_inv, X)
    assert not batch.rejected.any()
    assert np.max(np.abs(got - want)) <= 1e-9


def test_one_row_error_message_names_the_point(dn):
    base, _ = dn
    point = (0.3, 0.5, -1.0)
    with pytest.raises(Exception) as info:
        base["q_inv"][0].eval(point)
    assert str(info.value) == f"Newton iteration failed to invert at {point}"


def test_verify_dn_work(monkeypatch):
    """build_dn_transform and verify_dn at seed 0 build no lru_cache, and
    verify_dn runs each kernel (a procedural field's functions, and each of
    its partials) once per batch, not once per point."""
    wrappers = []
    real = functools.update_wrapper

    def counting_wrapper(*args, **kwargs):
        wrappers.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(functools, "update_wrapper", counting_wrapper)
    _, R = load_model(N2).get("R_dn")
    T = build_dn_transform(R)
    calls = []
    real_value, real_grad = Kernel.value, Kernel.grad

    def value(self, b):
        calls.append((self, "value") not in b.memo)
        return real_value(self, b)

    def grad(self, b):
        calls.append((self, "grad") not in b.memo)
        return real_grad(self, b)

    monkeypatch.setattr(Kernel, "value", value)
    monkeypatch.setattr(Kernel, "grad", grad)
    report = verify_dn(R, T, seed=0)
    assert report.passed
    assert wrappers == []
    # its 32 points a check, and more for the rejected ones: evaluated one
    # point at a time, each kernel would run at least 32 times as often
    assert 0 < sum(calls) < 2_000


def test_nan_component_is_rejected_not_passed():
    be = base_e(1)
    nan = ProceduralField(be, lambda b: np.full(len(b.X), math.nan),
                          lambda b: np.full(b.X.shape, math.nan))
    T = FibredTransform(1, [parse_field("q1", be)], [nan])
    R = Tensor11.from_dict(be, {"q1,q1": "q1"})
    with pytest.raises(SamplingError, match="NonFiniteError"):
        verify_dn(R, T, points=4)


def test_phase_points_are_rejected_per_row():
    # a field that is nan on half of phase space: only those rows go
    pj = phase_j(1)
    f = ProceduralField(pj, lambda b: np.where(b.X[:, 2] > 0, 1.0, math.nan))
    values, batch = evaluate_batch([f], rand_points(3, n=16))
    assert not batch.rejected.any()  # nan is a value, not an error
    assert np.isnan(values[0]).sum() == sum(
        1 for pt in rand_points(3, n=16) if not pt[2] > 0)


def test_eval_at_evaluates_the_entries_in_one_batch(monkeypatch):
    # R_dn's pushed Poisson tensor: every entry goes through the Newton
    # inverse, which eval_at must run once for all 25 entries
    _, R = load_model(N2).get("R_dn")
    L = build_dn_transform(R).phase_map().push_bivector(canonical_bivector(2))
    comps = L.components()
    rejected = []
    for pt in rand_points(5, n=16):
        try:
            want = np.array([f.eval(pt) for f in comps])
        except _REJECTABLE as exc:
            with pytest.raises(type(exc)) as got:
                L.eval_at(pt)
            assert str(got.value) == str(exc)
            rejected.append(pt)
            continue
        got = L.eval_at(pt)
        assert got.shape == (5, 5)
        assert got.ravel().tobytes() == want.tobytes()
    assert 0 < len(rejected) < 16

    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: solves.append(1) or solve(*args))
    pt = next(p for p in rand_points(5, n=16) if p not in rejected)
    comps[1 * 5 + 3].eval(pt)
    one_entry = len(solves)
    assert one_entry > 0
    L.eval_at(pt)
    assert len(solves) - one_entry <= one_entry


def shared_batch_eval_at(T, point):
    """eval_at as one shared one-row batch of all the components: the
    reference for the values and for the error at a rejected point."""
    values, b = evaluate_batch(T.components(), [point])
    if b.rejected[0]:
        raise b.errors[0]
    return values[:, 0].reshape((T.space.dim,) * len(T.variance))


def outcome(fn, point):
    try:
        return "value", fn(point).tobytes()
    except _REJECTABLE as exc:
        return type(exc), str(exc)


def test_eval_at_raises_the_first_error_in_component_order():
    _, R = load_model(N2).get("R_dn")
    L = build_dn_transform(R).phase_map().push_bivector(canonical_bivector(2))
    base = base_e(1)
    # both fail near q1 = 0, by two different guards, so that the message
    # tells which component raised first
    sym = parse_field("q1^-1", base)
    proc = 1.0 / ProceduralField(base, lambda b: b.X[:, 1], lambda b: np.column_stack(
        [np.zeros(len(b.X)), np.ones(len(b.X))]))
    singular = [(0.5, 0.0), (0.5, -1.0), (0.5, 1e-9), (0.5, 2.0)]
    cases = [(L, rand_points(5, n=16))]
    for comps in ([proc, sym], [sym, proc], ["log(q1)", "1/q1"], ["t", "sqrt(q1)"]):
        cases.append((VectorField(base, comps), singular))
    kinds = set()
    for T, points in cases:
        for pt in points:
            got = outcome(T.eval_at, pt)
            assert got == outcome(functools.partial(shared_batch_eval_at, T), pt)
            kinds.add(got if got[0] != "value" else "value")
    assert "value" in kinds and len(kinds) > 4
    # the two orders of proc and sym raise two different errors
    assert len({outcome(T.eval_at, singular[0]) for T, _ in cases[1:3]}) == 2


def test_procedural_and_symbolic_division_raise_one_message():
    base = base_e(1)
    sym = parse_field("1/q1", base)
    proc = 1.0 / ProceduralField(base, lambda b: b.X[:, 1], lambda b: np.column_stack(
        [np.zeros(len(b.X)), np.ones(len(b.X))]))
    for pt in [(0.5, 0.0), (0.5, -0.0), (0.5, 1e-9)]:
        errors = []
        for f in (sym, proc):
            with pytest.raises(SingularPointError) as info:
                f.eval(pt)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == f"denominator {pt[1]} below guard 1e-06"



# q-blocks whose eigen-analysis refuses part of the box: complex eigenvalues
# where (q1 - q2)^2 < 4 t^2, and a logarithm's domain with an overflow
EIGEN_REFUSED = {
    "complex": Tensor11.from_dict(base_e(2), {
        "q1,q1": "q1", "q1,q2": "-t", "q2,q1": "t", "q2,q2": "q2"}),
    "domain": Tensor11.from_dict(base_e(2), {
        "q1,q1": "log(q1)", "q1,q2": "exp(exp(exp(3*t)))", "q2,q2": "q2"}),
}


@pytest.mark.parametrize("name", sorted(EIGEN_REFUSED))
def test_the_eigen_probe_judges_each_row_as_eigen_analysis(name):
    R = EIGEN_REFUSED[name]
    X = np.array(rand_points(3, n=64, seed=7))
    one = []
    for pt in map(tuple, X.tolist()):
        try:
            eigen_analysis(R, pt)
            one.append(None)
        except _REJECTABLE as exc:
            one.append((type(exc), str(exc)))
    b = Batch(X)
    with np.errstate(all="ignore"):
        program(eigenvalue_fields(R))(b)
    assert [(type(b.errors[i]), str(b.errors[i])) if b.rejected[i] else None
            for i in range(len(X))] == one
    assert one.count(None) not in (0, len(X))
    if name == "complex":
        assert any("complex eigenvalues" in error for _, error in filter(None, one))


def test_the_eigen_probe_draws_the_points_sample_draws():
    R = EIGEN_REFUSED["complex"]
    want = Checker(points=16).sample(3, lambda pt: eigen_analysis(R, pt))
    values = program(eigenvalue_fields(R))
    got, _ = Checker(points=16)._accept(3, lambda b: values(b).T)
    assert list(map(tuple, got.tolist())) == want


def test_a_box_of_complex_eigenvalues_aborts_as_sample_does():
    R = Tensor11.from_dict(base_e(2), {"q1,q2": "-1 - t*t", "q2,q1": "1"})
    with pytest.raises(SamplingError) as batched:
        build_dn_transform(R, points=16)
    with pytest.raises(SamplingError) as one:
        Checker(points=16).sample(3, lambda pt: eigen_analysis(R, pt))
    assert str(batched.value) == str(one.value)
    assert "EigenError" in str(one.value)
