"""The chart layer builds each intermediate once, without moving a node.

`expr.substitute` keeps one table per mapping for the process, so a tree
composed again walks nothing; a ChartMap builds its Jacobians J and K on
the first push that needs them; `invert_field_matrix` expands each distinct
minor once; and the Newton inverse's derivatives at its solution share the
child batch of the composed calls on (t, q_inv). The memoised rewrites must
return the very nodes the unmemoised ones (`tests/chart_oracles.py`) build.
"""
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chart_oracles import cofactor_inverse, fresh_substitute
from jetlift import build_dn_transform, charts, pn, verify_dn
from jetlift import expr as ex
from jetlift.charts import ChartMap, invert_field_matrix
from jetlift.fields import Kernel, parse_field
from jetlift.lifts import complete_lift_tensor11
from jetlift.model import load_model
from jetlift.spaces import base_e

COORDS = ("t", "q1", "q2")
MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def _sum_kernel(label):
    """A kernel of two arguments: their sum, with constant partials."""
    return Kernel(lambda b: b.X[:, 0] + b.X[:, 1],
                  lambda b: np.ones_like(b.X[:, :2]),
                  lambda b: np.zeros((len(b.X), 2, 2)), label)


KERNELS = [_sum_kernel("k0"), _sum_kernel("k1")]
CONSTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, math.nan])


def _binary(op, a, b):
    try:
        return op(a, b)
    except ex.ExprError:  # division by the constant zero
        return a


def _grow(children):
    return st.one_of(
        st.builds(ex.neg, children),
        st.builds(ex.fn, st.sampled_from(ex.FUNCTIONS), children),
        st.builds(_binary, st.sampled_from([ex.add, ex.sub, ex.mul, ex.div]),
                  children, children),
        st.builds(ex.powr, children, st.sampled_from(
            [Fraction(2), Fraction(-1), Fraction(1, 2)])),
        st.builds(lambda k, a, b: ex.Call(k, (a, b)),
                  st.sampled_from(KERNELS), children, children))


TREES = st.recursive(
    st.one_of(st.sampled_from(COORDS).map(ex.var), CONSTS.map(ex.const)),
    _grow, max_leaves=10)
MAPPINGS = st.fixed_dictionaries({c: TREES for c in COORDS})


def walked_by(fn, *args):
    """fn(*args), or the message of the ExprError it raises (a division by
    a constant zero substituted), and the nodes every `_postorder` walk
    under it listed."""
    nodes, real = [], ex._postorder

    def spy(roots, done=()):
        order = real(roots, done)
        nodes.extend(order)
        return order
    with mock.patch.object(ex, "_postorder", spy):
        try:
            return fn(*args), nodes
        except ex.ExprError as exc:
            return str(exc), nodes


def same(got, want):
    return got is want if isinstance(want, ex.Expr) else got == want


@settings(max_examples=150, deadline=None)
@given(TREES, TREES, MAPPINGS)
def test_substitute_gives_the_fresh_walks_nodes(e, f, mapping):
    got, _ = walked_by(ex.substitute, e, mapping)
    assert same(got, walked_by(fresh_substitute, e, mapping)[0])
    if isinstance(got, ex.Expr):
        # a repeat call visits no node, and a tree holding e walks only the
        # nodes outside e
        again, nodes = walked_by(ex.substitute, e, mapping)
        assert again is got and nodes == []
        both = ex.add(e, f)
        got, nodes = walked_by(ex.substitute, both, mapping)
        assert same(got, walked_by(fresh_substitute, both, mapping)[0])
        assert set(nodes).isdisjoint(ex._postorder((e,)))


def test_substitute_keeps_one_table_per_mapping():
    e = parse_field("q1*sin(t) + q2", base_e(2)).expr
    a = {"t": ex.var("t"), "q1": ex.var("q2"), "q2": ex.var("q1")}
    b = {"t": ex.var("t"), "q1": ex.var("q1"), "q2": ex.var("q2")}
    assert ex.substitute(e, a) is parse_field("q2*sin(t) + q1", base_e(2)).expr
    assert ex.substitute(e, b) is e
    assert ex._SUBSTITUTIONS[tuple(a.items())][e] is ex.substitute(e, a)


def counted_jacobians(monkeypatch):
    """A count of how often each ChartMap Jacobian is built."""
    builds = {}
    for name in ("_jac_fwd_at_inv", "_jac_inv"):
        build = ChartMap.__dict__[name].func

        def counted(self, build=build, name=name):
            builds[name] = builds.get(name, 0) + 1
            return build(self)
        prop = functools.cached_property(counted)
        prop.__set_name__(ChartMap, name)
        monkeypatch.setattr(ChartMap, name, prop)
    return builds


@pytest.mark.parametrize("newton", [False, True], ids=["T_shear", "T_newton"])
def test_two_pushes_build_J_and_K_once(monkeypatch, newton):
    model = load_model(os.path.join(MODELS, "n2.json"))
    _, R = model.get("R_dn")
    _, T = model.get("T_shear")
    if newton:  # the shear rebuilt without its inverse
        T = charts.FibredTransform(T.n, T.q_fwd)
    builds = counted_jacobians(monkeypatch)
    m = T.phase_map()
    assert builds == {}
    first = m.push_tensor11(complete_lift_tensor11(R))
    second = m.push_bivector(pn.canonical_bivector(2))
    again = m.push_tensor11(complete_lift_tensor11(R))
    assert builds == {"_jac_fwd_at_inv": 1, "_jac_inv": 1}
    assert [f.expr for f in again.components()] == [
        f.expr for f in first.components()]
    # a fresh map builds the same nodes
    fresh = T.phase_map()
    assert [f.expr for f in fresh.push_bivector(
        pn.canonical_bivector(2)).components()] == [
        f.expr for f in second.components()]


def random_matrix(space, d, seed):
    """A d x d matrix of small symbolic fields, about a quarter of them 0."""
    rng = random.Random(seed)
    texts = ["0", "0", "1", "t", "q1", "q2 - t", "2*q1 + 3", "sin(q2)",
             "q1*q2", "exp(t)*q1", "1/(2 + q2^2)", "-q1"]
    return [[parse_field(rng.choice(texts), space) for _ in range(d)]
            for _ in range(d)]


def minors(d):
    """The (rows, cols) of every minor of two or more rows that the cofactor
    expansions of a d x d determinant and of its cofactors reach."""
    every = tuple(range(d))

    def drop(seq, k):
        return seq[:k] + seq[k + 1:]
    seen, stack = set(), [(every, every)] + [
        (drop(every, j), drop(every, i)) for i in range(d) for j in range(d)]
    while stack:
        rows, cols = stack.pop()
        if len(rows) > 1 and (rows, cols) not in seen:
            seen.add((rows, cols))
            stack += [(rows[1:], drop(cols, j)) for j in range(len(cols))]
    return seen


@pytest.mark.parametrize("d, seed", [(4, 0), (4, 1), (5, 2), (5, 3)])
def test_inverse_expands_each_minor_once(monkeypatch, d, seed):
    space = base_e(2)
    M = random_matrix(space, d, seed)
    want = cofactor_inverse(space, M)
    expansions, matsum = [], charts._matsum

    def counted(*args):
        expansions.append(args)
        return matsum(*args)
    monkeypatch.setattr(charts, "_matsum", counted)
    got = invert_field_matrix(space, M)
    assert [[f.expr for f in row] for row in got] == [
        [f.expr for f in row] for row in want]
    assert len(expansions) == len(minors(d))


def test_verify_dn_runs_the_eigen_analysis_17_times(monkeypatch):
    # the Newton inverse's derivatives at its solution are evaluated in the
    # child batch of the composed calls on (t, q_inv), not in one of their
    # own: 19 eigen-analyses before
    _, R = load_model(os.path.join(MODELS, "n2.json")).get("R_dn")
    T = build_dn_transform(R)
    calls, eigen = [], pn._eigen

    def counted(A, b):
        calls.append(len(b.X))
        return eigen(A, b)
    monkeypatch.setattr(pn, "_eigen", counted)
    assert verify_dn(R, T).passed
    assert len(calls) <= 17


def test_a_fresh_process_interns_the_same_nodes():
    # the memos keep nodes that would be built anyway: dn_family(5) through
    # build_dn_transform and verify_dn interns the count it did before
    script = """
import sys
from dn_family import dn_family
from jetlift import build_dn_transform, expr, verify_dn
R, _ = dn_family(5)
assert verify_dn(R, build_dn_transform(R)).passed
print(len(expr._NODES))
"""
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(here, "..", "src"), here, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 29478
