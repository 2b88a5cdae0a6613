"""The variance-driven Lie derivative and chart transport against the
hand-written formulas they replaced.

The reference functions below are the per-kind formulas the library used
before each container declared its variance: four Lie-derivative branches
and the bracket, six push bodies and the two-form pullback. The generic
code must build the same expression trees, term for term and in the same
fold order, so that every report keeps its bits; the one deliberate change
is the two-form factor order (w K K for K K w), which is held to agree in
value.
"""
import os
import random

import numpy as np
import pytest

from batch_values import evaluate_batch
from call_nodes import holds_call
from jetlift import (
    Bivector,
    OneForm,
    Tensor11,
    TwoForm,
    VectorField,
    build_dn_transform,
    canonical_bivector,
    canonical_theta,
    complete_lift_tensor11,
    complete_lift_vector,
    lie_derivative,
    nijenhuis_torsion,
    pullback_twoform,
    vlift_oneform,
)
from jetlift.fields import compose, zero
from jetlift.model import load_model
from jetlift.tensors import _table, sum_fields

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


# ---------------------------------------------------------------------------
# reference formulas

def ref_lie_bracket(X, Y):
    space = X.space

    def comp(a):
        acc = zero(space)
        for b, name in enumerate(space.coords):
            acc = acc + X.comps[b] * Y.comps[a].diff(name)
            acc = acc - Y.comps[b] * X.comps[a].diff(name)
        return acc
    return VectorField(space, [comp(a) for a in range(space.dim)])


def ref_lie_derivative(X, T):
    space = X.space
    coords = space.coords
    d = space.dim
    if isinstance(T, VectorField):
        return ref_lie_bracket(X, T)
    if isinstance(T, OneForm):
        out = []
        for b in range(d):
            acc = zero(space)
            for a in range(d):
                acc = acc + X.comps[a] * T.comps[b].diff(coords[a])
                acc = acc + T.comps[a] * X.comps[a].diff(coords[b])
            out.append(acc)
        return OneForm(space, out)
    sign = -1 if isinstance(T, Tensor11) else 1
    entries = []
    for a in range(d):
        row = []
        for b in range(d):
            acc = zero(space)
            for c in range(d):
                acc = acc + X.comps[c] * T.entries[a][b].diff(coords[c])
                if sign < 0:
                    acc = acc - T.entries[c][b] * X.comps[a].diff(coords[c])
                else:
                    acc = acc + T.entries[c][b] * X.comps[c].diff(coords[a])
                acc = acc + T.entries[a][c] * X.comps[c].diff(coords[b])
            row.append(acc)
        entries.append(row)
    return type(T)(space, entries)


def ref_push(m, obj):
    """The six push bodies of ChartMap, by the kind of obj."""
    J = m._jac_fwd_at_inv
    K = m._jac_inv
    s, d, dst = range(m.src.dim), m.dst.dim, m.dst

    def c(f):
        return compose(f, m.inv, dst)

    if isinstance(obj, VectorField):
        Xc = [c(f) for f in obj.comps]
        return VectorField(dst, [sum_fields(dst, [J[a][b] * Xc[b] for b in s])
                                 for a in range(d)])
    if isinstance(obj, OneForm):
        ac = [c(f) for f in obj.comps]
        return OneForm(dst, [sum_fields(dst, [ac[b] * K[b][a] for b in s])
                             for a in range(d)])
    if isinstance(obj, Tensor11):
        Tc = [[c(v) for v in row] for row in obj.entries]
        return Tensor11(dst, _table(d, 2, lambda a, b: sum_fields(
            dst, [J[a][x] * Tc[x][e] * K[e][b] for x in s for e in s])))
    if isinstance(obj, TwoForm):
        wc = [[c(v) for v in row] for row in obj.entries]
        return TwoForm(dst, _table(d, 2, lambda a, b: sum_fields(
            dst, [K[x][a] * K[e][b] * wc[x][e] for x in s for e in s])))
    if isinstance(obj, Bivector):
        Lc = [[c(v) for v in row] for row in obj.entries]
        return Bivector(dst, _table(d, 2, lambda a, b: sum_fields(
            dst, [J[a][x] * J[b][e] * Lc[x][e] for x in s for e in s])))
    Nc = _table(m.src.dim, 3, lambda a, b, e: c(obj.comps[a][b][e]))
    return type(obj)(dst, _table(d, 3, lambda a, b, e: sum_fields(
        dst, [J[a][x] * Nc[x][y][z] * K[y][b] * K[z][e]
              for x in s for y in s for z in s])))


def ref_pullback_twoform(maps, src, w):
    d = w.space.dim
    jac = [[maps[c].diff(name) for name in src.coords] for c in range(d)]
    wc = [[compose(w.entries[c][e], maps, src) for e in range(d)]
          for c in range(d)]
    return TwoForm(src, _table(src.dim, 2, lambda a, b: sum_fields(src, [
        jac[c][a] * jac[e][b] * wc[c][e] for c in range(d) for e in range(d)])))


# ---------------------------------------------------------------------------

def same_trees(a, b):
    assert type(a) is type(b) and a.space == b.space
    assert [f.expr for f in a.components()] == [f.expr for f in b.components()]


def rand_points(dim, n=64, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]


@pytest.fixture(scope="module", params=["n1", "n2"])
def model(request):
    return load_model(os.path.join(MODELS, f"{request.param}.json"))


def test_lie_derivative_builds_the_reference_trees(model):
    inp = model.suite_inputs()
    fields = inp.vert_fields + inp.tnorm_fields
    targets = fields + inp.oneforms + inp.tensors + inp.twoforms
    for X in fields:
        for T in targets:
            same_trees(lie_derivative(X, T), ref_lie_derivative(X, T))
    # on phase space too: complete lifts along complete lifts
    Xt = complete_lift_vector(fields[0])
    for T in ([complete_lift_tensor11(R) for R in inp.tensors]
              + [vlift_oneform(a) for a in inp.oneforms]
              + [complete_lift_vector(Y) for Y in fields]):
        same_trees(lie_derivative(Xt, T), ref_lie_derivative(Xt, T))


def test_push_builds_the_reference_trees(model):
    inp = model.suite_inputs()
    n = model.n
    for T in inp.transforms:
        bm, pm = T.base_map(), T.phase_map()
        base_objs = (inp.vert_fields + inp.tnorm_fields + inp.oneforms
                     + inp.tensors + [nijenhuis_torsion(R)
                                      for R in inp.tensors])
        for obj in base_objs:
            same_trees(bm.push(obj), ref_push(bm, obj))
        phase_objs = [canonical_bivector(n),
                      complete_lift_tensor11(inp.tensors[0]),
                      complete_lift_vector(inp.tnorm_fields[0])]
        for obj in phase_objs:
            same_trees(pm.push(obj), ref_push(pm, obj))


def test_twoform_transport_agrees_in_value(model):
    inp = model.suite_inputs()
    for T in inp.transforms:
        bm, pm = T.base_map(), T.phase_map()
        cases = ([(bm, w) for w in inp.twoforms]
                 + [(pm, canonical_theta(model.n))])
        for m, w in cases:
            pts = rand_points(m.dst.dim)
            new, ref = m.push(w), ref_push(m, w)
            for pt in pts:
                assert np.allclose(new.eval_at(pt), ref.eval_at(pt),
                                   rtol=0, atol=1e-12)
            pulled = pullback_twoform(m.fwd, m.src, new)
            ref_pulled = ref_pullback_twoform(m.fwd, m.src, new)
            for pt in rand_points(m.src.dim):
                assert np.allclose(pulled.eval_at(pt), ref_pulled.eval_at(pt),
                                   rtol=0, atol=1e-12)


def test_procedural_pushes_are_bit_identical():
    _, R = load_model(os.path.join(MODELS, "n2.json")).get("R_dn")
    T = build_dn_transform(R)
    bm, pm = T.base_map(), T.phase_map()
    for m, obj in ((bm, R), (pm, complete_lift_tensor11(R)),
                   (pm, canonical_bivector(2))):
        new, ref = m.push(obj), ref_push(m, obj)
        # each component holds a call, or is a zero term left out
        comps = new.components()
        assert all(holds_call(f) or f.is_zero for f in comps)
        assert any(holds_call(f) for f in comps)
        pts = rand_points(m.dst.dim, seed=5)
        got, b_new = evaluate_batch(new.components(), pts)
        want, b_ref = evaluate_batch(ref.components(), pts)
        assert np.array_equal(b_new.rejected, b_ref.rejected)
        live = ~b_ref.rejected
        assert live.any()
        assert got[:, live].tobytes() == want[:, live].tobytes()
