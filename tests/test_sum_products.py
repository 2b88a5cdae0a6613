"""The tensor sums against the field folds they replaced.

Every component sum of the library (the Lie derivative, both torsions, the
contractions, the chart transport and determinant, the phase-space lifts,
the Poisson bracket and the commutation defect) reads its operands through
`tensors._operands` and folds its terms with `tensors._fold`, on the
expression trees, procedural ones (call nodes) included; `sum_products` is
that pair for a list of terms. The reference functions below are the
formulas those sites ran before: `acc = acc + ...` over fields, one
operator at a time. The sites must build the same expression trees, so
that every report keeps its bits, and on procedural and mixed inputs the
same values and gradients bit for bit. The work-count tests hold them to
building one field per component.

The sites build no term with a constant-zero factor (`_operands` flags
them, and each site leaves them out). A property test holds leaving them
out to the fold that keeps them, bit for bit; a work count holds every
contraction site to handing the fold no zero term, and, where a non-finite
constant turns a zero term into nan, to the trees of the fold that is
handed every term. Another holds `expr.differentiate` to walking each
(node, name) pair once per process.
"""
import copy
import math
import os
import pickle
import random
import struct
import sys
from collections import Counter, namedtuple
from functools import partial, reduce
from itertools import product
from operator import mul

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from call_nodes import holds_call
from jetlift import (
    FibredTransform,
    OneForm,
    Tensor11,
    Tensor12,
    VectorField,
    adjoint_tensor11,
    apply_tensor11,
    build_dn_transform,
    canonical_bivector,
    canonical_theta,
    commutation_defect,
    magri_morosi_table,
    complete_lift_cotangent,
    complete_lift_tensor11,
    complete_lift_vector,
    compose_tensor11,
    haantjes_tensor,
    hlift_tensor11,
    hook2,
    interior_product,
    lie_derivative,
    momentum_function,
    nijenhuis_torsion,
    pair,
    poisson_bracket,
    pullback_oneform_to_phase,
    run_suite,
    vlift_tensor11,
)
from jetlift import charts, fields, tensors
from jetlift.errors import OrderOverflowError
from jetlift import expr as ex
from jetlift.catalog import standard_corpus
from jetlift.charts import _determinant
from jetlift.fields import (
    ProceduralField,
    SymbolicField,
    const_field,
    coord_field,
    inject,
    parse_field,
    zero,
)
from jetlift.model import load_model
from jetlift.spaces import (
    BASE_E,
    EXTENDED_T,
    PHASE_J,
    Space,
    base_e,
    extended_t,
    phase_j,
)
from jetlift.tensors import TwoForm, _lie_moves, _table, sum_fields, sum_products

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


# ---------------------------------------------------------------------------
# reference formulas: each site's sum, folded over fields

def fold(space, terms):
    """acc = 0, then acc = acc + t for each field t, as sum_fields did."""
    acc = zero(space)
    for t in terms:
        acc = acc + t
    return acc


def ref_lie_derivative(X, T):
    space, coords = X.space, X.space.coords
    Xc, comps = X.comps, T.components()
    dX = [x.diff(name) for x in Xc for name in coords]
    out = []
    for f, moves in zip(comps, _lie_moves(T.variance, space.dim)):
        acc = zero(space)
        for c, terms in enumerate(moves):
            acc = acc + Xc[c] * f.diff(coords[c])
            for j, q, upper in terms:
                if upper:
                    acc = acc - comps[j] * dX[q]
                else:
                    acc = acc + comps[j] * dX[q]
        out.append(acc)
    return T._rebuild(out) if T.variance else out[0]


def ref_nijenhuis(R):
    space, E, coords, d = R.space, R.entries, R.space.coords, R.space.dim

    def comp(a, b, c):
        acc = zero(space)
        for e in range(d):
            acc = acc + E[e][b] * E[a][c].diff(coords[e])
            acc = acc - E[e][c] * E[a][b].diff(coords[e])
            acc = acc + E[a][e] * E[e][b].diff(coords[c])
            acc = acc - E[a][e] * E[e][c].diff(coords[b])
        return acc
    return Tensor12(space, _table(d, 3, comp))


def ref_haantjes(R):
    space, r = R.space, range(R.space.dim)
    Rm, Nc = R.entries, ref_nijenhuis(R).comps

    def comp(a, b, c):
        acc = zero(space)
        for e in r:
            for f in r:
                acc = acc + Rm[a][e] * Rm[e][f] * Nc[f][b][c]
                acc = acc + Rm[e][b] * Rm[f][c] * Nc[a][e][f]
                acc = acc - Rm[a][e] * Rm[f][b] * Nc[e][f][c]
                acc = acc - Rm[a][e] * Rm[f][c] * Nc[e][b][f]
        return acc
    return Tensor12(space, _table(space.dim, 3, comp))


def ref_contractions(R, X, Y, alpha, omega):
    """Tensor12.apply/hook, apply, adjoint, pair, compose, interior
    product and hook2, in that order."""
    s, r, d = R.space, range(R.space.dim), R.space.dim
    N, E = ref_nijenhuis(R).comps, R.entries
    return [
        VectorField(s, [fold(s, [N[a][b][c] * X.comps[b] * Y.comps[c]
                                 for b in r for c in r]) for a in r]),
        Tensor11(s, _table(d, 2, lambda a, c: fold(
            s, [N[a][b][c] * X.comps[b] for b in r]))),
        VectorField(s, [fold(s, [E[a][b] * X.comps[b] for b in r]) for a in r]),
        OneForm(s, [fold(s, [E[a][b] * alpha.comps[a] for a in r]) for b in r]),
        fold(s, [x * a for x, a in zip(X.comps, alpha.comps)]),
        Tensor11(s, _table(d, 2, lambda a, b: fold(
            s, [E[a][c] * E[c][b] for c in r]))),
        OneForm(s, [fold(s, [X.comps[a] * omega.entries[a][b] for a in r])
                    for b in r]),
        _table(d, 2, lambda a, b: fold(
            s, [E[c][a] * omega.entries[c][b] for c in r])),
    ]


def contractions(R, X, Y, alpha, omega):
    N = nijenhuis_torsion(R)
    return [N.apply(X, Y), N.hook(X), apply_tensor11(R, X),
            adjoint_tensor11(R, alpha), pair(X, alpha), compose_tensor11(R, R),
            interior_product(X, omega), hook2(R, omega)]


def ref_determinant(space, M):
    d = len(M)
    if d == 1:
        return M[0][0]
    terms = [M[0][j] * ref_determinant(space, [[M[i][k] for k in range(d) if k != j]
                                               for i in range(1, d)])
             for j in range(d)]
    return fold(space, [t if j % 2 == 0 else -t for j, t in enumerate(terms)])


def ref_push(m, obj):
    """ChartMap.push by the transport formula, its sums folded over fields."""
    variance, dst = obj.variance, m.dst
    J = m._jac_fwd_at_inv() if "u" in variance else None
    K = m._jac_inv() if "d" in variance else None
    comps = [fields.compose(f, m.inv, dst) for f in obj.components()]
    if not variance:
        return comps[0]
    n_up = variance.count("u")
    Kt = list(zip(*K)) if K else None
    out = []
    for A in product(range(dst.dim), repeat=len(variance)):
        rows = [J[a] if v == "u" else Kt[a] for a, v in zip(A, variance)]
        out.append(fold(dst, [reduce(mul, f[:n_up] + (t,) + f[n_up:])
                              for f, t in zip(product(*rows), comps)]))
    return obj._rebuild(out, dst)


def ref_phase_map_sums(T):
    """The P_j and p_i components of FibredTransform.phase_map."""
    n, base, pj = T.n, T.base, phase_j(T.n)
    Jq = [[T.q_fwd[i].diff(f"q{j + 1}") for j in range(n)] for i in range(n)]
    A = charts.invert_field_matrix(base, Jq)
    back = [coord_field(base, "t")] + T.q_inv
    B = [[fields.compose(Jq[j][i], back, base) for j in range(n)]
         for i in range(n)]
    fwd = [fold(pj, [coord_field(pj, f"p{i + 1}") * inject(A[i][j], pj)
                     for i in range(n)]) for j in range(n)]
    inv = [fold(pj, [coord_field(pj, f"p{j + 1}") * inject(B[i][j], pj)
                     for j in range(n)]) for i in range(n)]
    return fwd, inv


def ref_p_sum(space, fs, negate=False):
    terms = [coord_field(space, f"p{i}") * inject(f, space)
             for i, f in enumerate(fs, 1)]
    return fold(space, [-t for t in terms] if negate else terms)


def ref_lifts(R, X, Xv):
    """momentum_function(Xv), the p-rows of complete_lift_vector(X),
    vlift_tensor11(R), hlift_tensor11(R), and the p-rows of both complete
    lifts of R, by the formulas folded over fields."""
    n = R.space.n
    pj, et = phase_j(n), extended_t(n)
    E = R.entries
    ns = range(1, n + 1)

    def col(j):
        return [E[i][j] for i in ns]

    def blocks(space, pi):
        rows = {}
        for j, k in product(ns, ns):
            rows[pi(j), k] = ref_p_sum(space, [E[i][j].diff(f"q{k}")
                                               - E[i][k].diff(f"q{j}") for i in ns])
        for k in ns:
            rows[pi(k), 0] = ref_p_sum(space, [E[i][k].diff("t")
                                               - E[i][0].diff(f"q{k}") for i in ns])
        return rows

    cot = blocks(et, lambda i: n + 1 + i)
    for k in ns:
        cot[n + 1, k] = ref_p_sum(et, [E[i][0].diff(f"q{k}") - E[i][k].diff("t")
                                       for i in ns])
    return {
        "momentum": [ref_p_sum(pj, Xv.comps[1:])],
        "complete_vector": [ref_p_sum(pj, [X.comps[j].diff(f"q{i}") for j in ns],
                                      negate=True) for i in ns],
        "vlift": [ref_p_sum(pj, col(j)) for j in ns],
        "hlift": [ref_p_sum(pj, col(j)) for j in range(n + 1)],
        "complete_tensor": blocks(pj, lambda i: n + i),
        "cotangent": cot,
    }


def lifts(R, X, Xv):
    n = R.space.n
    Cv, Ct, Cc = (complete_lift_vector(X), complete_lift_tensor11(R),
                  complete_lift_cotangent(R))
    ref = ref_lifts(R, X, Xv)
    return {
        "momentum": [momentum_function(Xv)],
        "complete_vector": Cv.comps[n + 1:],
        "vlift": vlift_tensor11(R).comps[n + 1:],
        "hlift": hlift_tensor11(R).comps[:n + 1],
        "complete_tensor": {key: Ct.entries[key[0]][key[1]]
                            for key in ref["complete_tensor"]},
        "cotangent": {key: Cc.entries[key[0]][key[1]] for key in ref["cotangent"]},
    }, ref


def ref_poisson_bracket(F, G):
    n = F.space.n
    return fold(F.space, [t for i in range(1, n + 1) for t in (
        F.diff(f"q{i}") * G.diff(f"p{i}"),
        -(F.diff(f"p{i}") * G.diff(f"q{i}")))])


def ref_commutation_defect(Rt):
    pj, d = Rt.space, Rt.space.dim
    Lam, E = canonical_bivector(pj.n).entries, Rt.entries
    return _table(d, 2, lambda c, b: fold(
        pj, [E[c][a] * Lam[a][b] for a in range(d)]
        + [-(Lam[c][a] * E[b][a]) for a in range(d)]))


# ---------------------------------------------------------------------------

def trees(obj):
    """The expression of every scalar field in obj (a field, a tensor, or a
    list or dict of them), in order; fails on a procedural one."""
    if isinstance(obj, dict):
        return [trees(obj[k]) for k in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [t for o in obj for t in trees(o)]
    out = []
    for f in obj.components():
        assert isinstance(f, SymbolicField)
        out.append(f.expr)
    return out


def same_trees(got, want):
    assert type(got) is type(want)
    assert trees(got) == trees(want)


@pytest.fixture(scope="module", params=["n1", "n2"])
def inp(request):
    return load_model(os.path.join(MODELS, f"{request.param}.json")).suite_inputs()


def test_tensor_sites_build_the_reference_trees(inp):
    fields_ = inp.vert_fields + inp.tnorm_fields
    targets = fields_ + inp.oneforms + inp.tensors + inp.twoforms + inp.scalars
    for X in fields_:
        for T in targets:
            same_trees(lie_derivative(X, T), ref_lie_derivative(X, T))
    for R, X, Y, alpha, omega in zip(inp.tensors, fields_, fields_[1:],
                                     inp.oneforms, inp.twoforms):
        same_trees(nijenhuis_torsion(R), ref_nijenhuis(R))
        same_trees(haantjes_tensor(R), ref_haantjes(R))
        for got, want in zip(contractions(R, X, Y, alpha, omega),
                             ref_contractions(R, X, Y, alpha, omega)):
            same_trees(got, want)
    same_trees(sum_fields(inp.scalars[0].space, inp.scalars),
               fold(inp.scalars[0].space, inp.scalars))


def test_tensor_sites_on_phase_space_lifts(inp):
    Xs = [complete_lift_vector(X) for X in inp.vert_fields + inp.tnorm_fields]
    Rs = [complete_lift_tensor11(R) for R in inp.tensors]
    alphas = [hlift_tensor11(R) for R in inp.tensors]
    for T in Rs + Xs[:2]:
        same_trees(lie_derivative(Xs[0], T), ref_lie_derivative(Xs[0], T))
    w = canonical_theta(inp.n)
    for R, X, Y in zip(Rs[:2], Xs, Xs[1:]):
        same_trees(nijenhuis_torsion(R), ref_nijenhuis(R))
        for got, want in zip(contractions(R, X, Y, alphas[0], w),
                             ref_contractions(R, X, Y, alphas[0], w)):
            same_trees(got, want)


def test_chart_sites_build_the_reference_trees(inp):
    for R in inp.tensors + [complete_lift_tensor11(inp.tensors[0])]:
        same_trees(_determinant(R.space, R.entries),
                   ref_determinant(R.space, R.entries))
    n = inp.n
    for T in inp.transforms:
        bm, pm = T.base_map(), T.phase_map()
        for obj in (inp.vert_fields + inp.tnorm_fields + inp.oneforms
                    + inp.tensors + inp.twoforms + inp.scalars
                    + [nijenhuis_torsion(inp.tensors[0])]):
            same_trees(bm.push(obj), ref_push(bm, obj))
        for obj in (canonical_bivector(n), complete_lift_tensor11(inp.tensors[0]),
                    complete_lift_vector(inp.tnorm_fields[0])):
            same_trees(pm.push(obj), ref_push(pm, obj))
        fwd, inv = ref_phase_map_sums(T)
        same_trees(pm.fwd[n + 1:], fwd)
        same_trees(pm.inv[n + 1:], inv)


def test_lift_sites_build_the_reference_trees(inp):
    for R in inp.tensors:
        for X, Xv in zip(inp.tnorm_fields + inp.vert_fields, inp.vert_fields * 2):
            got, want = lifts(R, X, Xv)
            assert trees(got) == trees(want)


def test_pn_sites_build_the_reference_trees(inp):
    Fs = [momentum_function(X) for X in inp.vert_fields]
    Fs += [inject(f, phase_j(inp.n)) for f in inp.scalars]
    for F in Fs:
        for G in Fs:
            same_trees(poisson_bracket(F, G), ref_poisson_bracket(F, G))
    for R in inp.tensors:
        Rt = complete_lift_tensor11(R)
        assert trees(commutation_defect(Rt)) == trees(ref_commutation_defect(Rt))


# ---------------------------------------------------------------------------
# procedural and mixed factors: the fold over fields, bit for bit

def batch_bits(fs, X):
    """Values, first partials (where a field still has them) and rejected
    rows of fs over one shared batch."""
    b = fields.Batch(np.asarray(X, dtype=float))
    with np.errstate(all="ignore"):
        values = np.array([fields.program([f])(b)[0] for f in fs])
        grads = []
        for f in fs:
            try:
                partials = fields.program([f.diff(c) for c in f.space.coords])
            except OrderOverflowError:  # a call past its order budget
                grads.append(None)
            else:
                grads.append(partials(b).T)
    live = ~b.rejected
    assert live.any()
    return (values[:, live].tobytes(), [g if g is None else g[live].tobytes()
                                        for g in grads],
            b.rejected.tobytes())


def rand_points(dim, n=64, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]


def test_mixed_factors_fold_over_fields_bit_for_bit():
    space = base_e(2)
    s = [parse_field(src, space) for src in ("t*q1 + 1", "sin(q2)", "q1^2 - t")]
    p = ProceduralField(space, lambda b: np.exp(b.X[:, 1]) * b.X[:, 2],
                        lambda b: np.column_stack([0 * b.X[:, 0], np.exp(b.X[:, 1]) * b.X[:, 2],
                                                   np.exp(b.X[:, 1])]))
    q = s[0] / ProceduralField(space, lambda b: b.X[:, 0] - b.X[:, 2],
                               lambda b: np.column_stack([1 + 0 * b.X[:, 0], 0 * b.X[:, 0],
                                                          -1 + 0 * b.X[:, 0]]))
    terms = [("+", [s[0], p]), ("-", [p, s[1], s[2]]), ("+-", [s[1], q]),
             ("+", [s[2]]), ("-", [q, q]), ("+-", [s[0], s[1]])]
    got = sum_products(space, terms)
    acc = zero(space)  # the field operators, one at a time
    acc = acc + s[0] * p
    acc = acc - p * s[1] * s[2]
    acc = acc + -(s[1] * q)
    acc = acc + s[2]
    acc = acc - q * q
    acc = acc + -(s[0] * s[1])
    assert holds_call(got) and got.expr is acc.expr
    X = rand_points(3)
    assert batch_bits([got], X) == batch_bits([acc], X)


def test_procedural_sites_fold_over_fields_bit_for_bit():
    _, R = load_model(os.path.join(MODELS, "n2.json")).get("R_dn")
    T = build_dn_transform(R)
    bm, pm = T.base_map(), T.phase_map()
    fwd, inv = ref_phase_map_sums(T)
    X5 = rand_points(5, seed=3)
    assert batch_bits(pm.fwd[3:] + pm.inv[3:], X5) == batch_bits(fwd + inv, X5)
    for m, obj in ((bm, R), (pm, canonical_bivector(2))):
        got, want = m.push(obj), ref_push(m, obj)
        X = rand_points(m.dst.dim, n=16, seed=5)
        assert batch_bits(got.components(), X) == batch_bits(want.components(), X)


# ---------------------------------------------------------------------------
# the fold decision

def test_spaces_are_interned():
    for n, (kind, make) in product(range(1, 5), ((BASE_E, base_e),
                                                  (PHASE_J, phase_j),
                                                  (EXTENDED_T, extended_t))):
        assert make(n) is make(n) and Space(kind, n) is make(n)
        assert copy.deepcopy(make(n)) is make(n)
        assert pickle.loads(pickle.dumps(make(n))) is make(n)


def test_a_space_is_immutable_and_checks_its_arguments():
    with pytest.raises(AttributeError):
        phase_j(2).n = 3
    with pytest.raises(AttributeError):
        Space(BASE_E, 1).coords = ("t",)
    assert phase_j(2).n == 2 and base_e(1).coords == ("t", "q1")
    for kind, n in (("Base", 1), (PHASE_J, 0), (BASE_E, -1)):
        with pytest.raises(ValueError):
            Space(kind, n)
    # a bool or a float n is refused, even where an equal int's space exists
    assert base_e(2) is Space(BASE_E, 2)
    for kind, n in ((BASE_E, True), (BASE_E, 2.0), (PHASE_J, 3.0), (EXTENDED_T, "1")):
        with pytest.raises(TypeError):
            Space(kind, n)
    assert str(base_e(1)) == "BaseE(1)"


def test_an_equal_space_built_directly_takes_the_tree_fold():
    pj = phase_j(2)
    own = Space(PHASE_J, 2)
    assert own is pj
    a, b = coord_field(pj, "p1"), coord_field(pj, "q2")
    got = sum_products(own, [("+", [a, b]), ("-", [b, a]), ("+-", [a])])
    assert isinstance(got, SymbolicField) and got.space is own
    assert got.expr == (fold(pj, [a * b]) - b * a + -a).expr


def test_negated_terms_are_added_not_subtracted():
    pj = phase_j(1)
    a = coord_field(pj, "q1")
    # sub folds a - a to 0; add(a, neg(a)) keeps both terms
    assert sum_products(pj, [("+", [a]), ("-", [a])]).is_zero
    kept = sum_products(pj, [("+", [a]), ("+-", [a])])
    assert kept.expr == (a + -a).expr and not kept.is_zero


@pytest.fixture
def work(monkeypatch):
    """Counts of SymbolicField constructions, of symbolic derivative cache
    misses (each of which builds one field) and of the sums `_fold` wraps."""
    counts = {"built": 0, "misses": 0, "wrapped": 0}
    init, diff, fold = SymbolicField.__init__, SymbolicField.diff, tensors._fold

    def counted_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counted_diff(self, coord):
        counts["misses"] += coord not in self.__dict__.get("_deriv_cache", {})
        return diff(self, coord)

    def counted_fold(space, terms):
        counts["wrapped"] += 1
        return fold(space, terms)

    monkeypatch.setattr(SymbolicField, "__init__", counted_init)
    monkeypatch.setattr(SymbolicField, "diff", counted_diff)
    monkeypatch.setattr(tensors, "_fold", counted_fold)
    return counts


def test_lie_derivative_builds_one_field_per_component(work):
    base = base_e(2)
    X = VectorField.from_dict(base, {"t": 1.0, "q1": "t*q2", "q2": "sin(q1)"})
    R = Tensor11.from_dict(base, {"q1,q1": "q1*q2", "q1,q2": "t + q1",
                                  "q2,q1": "exp(q2)", "q2,t": "q1^2"})
    work["built"] = work["misses"] = work["wrapped"] = 0
    L = lie_derivative(X, R)
    assert len(L.components()) == 9
    # the derivatives are read as trees: the only fields are the sums
    assert work["built"] == work["wrapped"] == 9 and work["misses"] == 0


def test_nijenhuis_torsion_builds_one_field_per_component(work):
    base = base_e(2)
    R = Tensor11.from_dict(base, {"q1,q1": "q1*q2", "q1,q2": "t + q1",
                                  "q2,q1": "exp(q2)", "q2,q2": "q1^2"})
    work["built"] = work["misses"] = work["wrapped"] = 0
    N = nijenhuis_torsion(R)
    assert len(N.components()) == 27
    assert work["built"] == work["wrapped"] == 27 and work["misses"] == 0


# ---------------------------------------------------------------------------
# skipped zero terms

def bits(e):
    """The tree e with every constant replaced by its IEEE bytes, so that 0.0
    and -0.0 differ and nan equals nan."""
    if isinstance(e, ex.Const):
        return struct.pack("<d", e.value)
    if isinstance(e, ex.Var):
        return e.name
    if isinstance(e, ex.Unary):
        return (e.op, bits(e.arg))
    if isinstance(e, ex.Pow):
        return ("pow", e.exponent, bits(e.base))
    return (e.op, bits(e.left), bits(e.right))


def unskipped_fold(terms):
    """The tree fold over every term, operator by operator."""
    acc = ex.ZERO
    for sign, factors in terms:
        acc = tensors._EXPR_FOLD[sign](acc, reduce(ex.mul, [f.expr for f in factors]))
    return acc


BE1 = base_e(1)
CONSTS = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]
factor = st.one_of(st.sampled_from(CONSTS).map(lambda v: const_field(BE1, v)),
                   st.sampled_from(BE1.coords).map(lambda c: coord_field(BE1, c)))
term_lists = st.lists(st.tuples(st.sampled_from(["+", "-", "+-"]),
                                st.lists(factor, min_size=1, max_size=4)),
                      max_size=8)


@given(term_lists)
def test_skipping_zero_terms_keeps_the_tree_bit_for_bit(terms):
    # the terms without a factor _operands flags fold to the tree of all of
    # them, which sum_products folds without a skip
    dead = tensors._operands(BE1, [f for _, factors in terms for f in factors])[2]
    kept = sum_products(BE1, [t for t in terms
                              if dead.isdisjoint(f.expr for f in t[1])]).expr
    assert bits(kept) == bits(sum_products(BE1, terms).expr) == bits(unskipped_fold(terms))


def test_zero_times_a_non_finite_constant_is_still_folded():
    zero_, inf = const_field(BE1, 0.0), const_field(BE1, math.inf)
    q = coord_field(BE1, "q1")
    assert math.isnan(sum_products(BE1, [("+", [zero_, inf])]).expr.value)
    terms = [("+", [q]), ("-", [inf, zero_])]
    got = sum_products(BE1, terms).expr
    assert bits(got) == bits(unskipped_fold(terms)) != bits(q.expr)


def test_lie_derivative_builds_no_zero_term(monkeypatch):
    """L_X R of a lifted corpus tensor on phase_j(2) hands the tree fold only
    terms without a zero factor, differentiates no constant-zero tree (its
    gradient row is all None, which the sites leave out), and builds the
    reference trees. The rows are memoised, so the spy is on the gradient."""
    corpus = standard_corpus(2)
    R = complete_lift_tensor11(corpus.tensors[1])
    X = complete_lift_vector(corpus.lift_fields[4])
    handed, rows = [], []
    fold_, gradient = tensors._fold, ex.gradient

    def spy_fold(space, terms):
        handed.extend(terms)
        return fold_(space, terms)

    def spy_gradient(e, coords):
        got = gradient(e, coords)
        rows.append((e, got[0]))
        return got

    monkeypatch.setattr(tensors, "_fold", spy_fold)
    monkeypatch.setattr(ex, "gradient", spy_gradient)
    L = lie_derivative(X, R)
    monkeypatch.undo()
    assert handed and rows
    assert not zero_terms(handed)
    assert any(e in ex.ZEROS for e, _ in rows)
    assert all(row == (None,) * 5 for e, row in rows if e in ex.ZEROS)
    same_trees(L, ref_lie_derivative(X, R))


def test_lie_derivative_keeps_zero_terms_beside_non_finite_constants():
    # a non-finite constant in X, or one that a derivative of X or T folds
    # to (1e200 * 1e200), turns a zero term into nan: the trees must match
    # the reference that builds every term
    inf, huge = const_field(BE1, math.inf), "1e200*(1e200*q1)"
    cases = [(VectorField(BE1, [inf, 0.0]), Tensor11.from_dict(BE1, {"q1,q1": "q1"})),
             (VectorField(BE1, [0.0, 0.0]), Tensor11.from_dict(BE1, {"q1,q1": huge})),
             (VectorField(BE1, [1.0, huge]), Tensor11.from_dict(BE1, {"q1,t": "t"}))]
    for X, T in cases:
        got, want = trees(lie_derivative(X, T)), trees(ref_lie_derivative(X, T))
        assert [bits(e) for e in got] == [bits(e) for e in want]
        assert any(math.isnan(e.value) for e in got if isinstance(e, ex.Const))


# ---------------------------------------------------------------------------
# zero terms are not built: every contraction site

Group = namedtuple("Group", "Rs Xs alphas omegas maps transforms")


def base_group(inp):
    return Group(inp.tensors, inp.vert_fields + inp.tnorm_fields, inp.oneforms,
                 inp.twoforms, [T.base_map() for T in inp.transforms], [])


def diagonal_transform():
    """Q = (q1 exp(t), q2 + t): its q-Jacobian is diagonal, so at any n of
    the model the phase map's P rows have zero factors."""
    be = base_e(2)
    return FibredTransform(2, [parse_field(src, be) for src in ("q1*exp(t)", "q2 + t")],
                           [parse_field(src, be) for src in ("q1/exp(t)", "q2 - t")])


def phase_group(inp):
    return Group([complete_lift_tensor11(R) for R in inp.tensors],
                 [complete_lift_vector(X) for X in inp.vert_fields + inp.tnorm_fields],
                 [pullback_oneform_to_phase(a) for a in inp.oneforms],
                 [canonical_theta(inp.n)], [T.phase_map() for T in inp.transforms],
                 inp.transforms + [diagonal_transform()])


def lifts_of(g):
    """The lifts of a base group, which take _p_sum."""
    if g.Rs[0].space.kind == PHASE_J:
        return []
    return ([partial(lift, R) for R in g.Rs for lift in (
        complete_lift_tensor11, complete_lift_cotangent, vlift_tensor11, hlift_tensor11)]
        + [partial(complete_lift_vector, X) for X in g.Xs]
        + [partial(momentum_function, X) for X in g.Xs if X.is_vertical])


def phase_map_sums(T):
    """The P_j and p_i components of T's phase map."""
    m = T.phase_map()
    return m.fwd[T.n + 1:] + m.inv[T.n + 1:]


# each site: the calls of it on a group, built before any call is counted
SITES = {
    "lie_derivative": lambda g: [partial(lie_derivative, X, T) for X in g.Xs
                                 for T in g.Rs + g.Xs + g.alphas + g.omegas],
    "Tensor12.apply": lambda g: [partial(nijenhuis_torsion(R).apply, X, Y)
                                 for R in g.Rs for X, Y in zip(g.Xs, g.Xs[1:])],
    "Tensor12.hook": lambda g: [partial(nijenhuis_torsion(R).hook, X)
                                for R in g.Rs for X in g.Xs],
    "apply_tensor11": lambda g: [partial(apply_tensor11, R, X) for R in g.Rs for X in g.Xs],
    "adjoint_tensor11": lambda g: [partial(adjoint_tensor11, R, a)
                                   for R in g.Rs for a in g.alphas],
    "compose_tensor11": lambda g: [partial(compose_tensor11, R, S)
                                   for R in g.Rs for S in g.Rs],
    "hook2": lambda g: [partial(hook2, R, w) for R in g.Rs for w in g.omegas],
    "interior_product": lambda g: [partial(interior_product, X, w)
                                   for X in g.Xs for w in g.omegas],
    "pair": lambda g: [partial(pair, X, a) for X in g.Xs for a in g.alphas],
    "nijenhuis_torsion": lambda g: [partial(nijenhuis_torsion, R) for R in g.Rs],
    "haantjes_tensor": lambda g: [partial(haantjes_tensor, R) for R in g.Rs[:2]],
    "charts._transport": lambda g: [partial(m.push, obj) for m in g.maps
                                    for obj in g.Rs + g.Xs + g.alphas + g.omegas],
    "charts.phase_map": lambda g: [partial(phase_map_sums, T) for T in g.transforms],
    "lifts._p_sum": lifts_of,
    "pn.commutation_defect": lambda g: [partial(commutation_defect, R) for R in g.Rs
                                        if R.space.kind == PHASE_J],
    "pn.magri_morosi_table": lambda g: [partial(magri_morosi_table, R, g.alphas, g.Xs)
                                        for R in g.Rs if R.space.kind == PHASE_J],
}


def patch_everywhere(monkeypatch, original, replacement):
    """Bind replacement wherever a jetlift module binds original."""
    for name, mod in list(sys.modules.items()):
        if name == "jetlift" or name.startswith("jetlift."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


_sum, _operands = tensors._sum, tensors._operands


def spy_on_terms(monkeypatch):
    """The list every term handed to a sum, by any site, joins: `_fold`
    sums through `_sum`, and the concomitant table calls it directly."""
    handed = []

    def spy(terms):
        handed.extend(terms)
        return _sum(terms)

    patch_everywhere(monkeypatch, _sum, spy)
    return handed


def find_no_zero_factors(space, factors, diffed=()):
    """_operands as if some constant were non-finite: it flags no factor,
    so every term is built and folded."""
    ops, derivs, dead = _operands(
        space, [*factors, const_field(space, math.inf)], diffed)
    return ops[:-1], derivs, dead


def zero_terms(terms):
    """The terms with a constant-zero factor."""
    return [t for t in terms if any(f in ex.ZEROS for f in t[1])]


@pytest.mark.parametrize("site", SITES)
def test_sites_hand_sum_products_no_zero_term(inp, site, monkeypatch):
    calls = [c for g in (base_group(inp), phase_group(inp)) for c in SITES[site](g)]
    handed = spy_on_terms(monkeypatch)
    for call in calls:
        call()
    assert handed and not zero_terms(handed)
    # the inputs have zero factors: unflagged, the site hands the fold them
    handed.clear()
    patch_everywhere(monkeypatch, _operands, find_no_zero_factors)
    for call in calls:
        call()
    assert zero_terms(handed)


def non_finite_groups():
    """Objects on base_e(1) with an infinite constant, or a derivative that
    folds to one (1e200 * 1e200), beside constant zeros; and their lifts."""
    be = base_e(1)
    huge = "1e200*(1e200*q1)"
    Rs = [Tensor11.from_dict(be, {"q1,q1": huge}),
          Tensor11.from_dict(be, {"q1,q1": "q1", "q1,t": math.inf})]
    Xs = [VectorField(be, [1.0, "1e309*q1"]), VectorField(be, [0.0, math.inf]),
          VectorField(be, [0.0, huge])]
    alphas = [OneForm(be, [math.inf, 0.0]), OneForm(be, ["q1", 0.0])]
    omegas = [TwoForm.from_dict(be, {"q1,t": math.inf}),
              TwoForm.from_dict(be, {"q1,t": huge})]
    transform = load_model(os.path.join(MODELS, "n1.json")).suite_inputs().transforms[0]
    base = Group(Rs, Xs, alphas, omegas, [transform.base_map()], [])
    lifted = Group([complete_lift_tensor11(R) for R in Rs],
                   [complete_lift_vector(X) for X in Xs],
                   [pullback_oneform_to_phase(a) for a in alphas],
                   [canonical_theta(1)], [transform.phase_map()], [transform])
    return base, lifted


@pytest.mark.parametrize("site", SITES)
def test_sites_keep_zero_terms_beside_non_finite_constants(site, monkeypatch):
    # 0 * inf is nan: the trees must be those of the fold that is handed
    # every term and skips only the products that fold to 0
    calls = [c for g in non_finite_groups() for c in SITES[site](g)]
    assert calls
    got = [[bits(e) for e in trees(call())] for call in calls]
    patch_everywhere(monkeypatch, _operands, find_no_zero_factors)
    assert got == [[bits(e) for e in trees(call())] for call in calls]


def test_nijenhuis_torsion_keeps_zero_terms_beside_an_infinite_derivative():
    # d_q1 of 1e200*(1e200*q1) folds to inf, and R's other entries are 0
    R = Tensor11.from_dict(base_e(1), {"q1,q1": "1e200*(1e200*q1)"})
    got, want = trees(nijenhuis_torsion(R)), trees(ref_nijenhuis(R))
    assert [bits(e) for e in got] == [bits(e) for e in want]
    assert any(math.isnan(e.value) for e in got if isinstance(e, ex.Const))


def test_differentiate_walks_each_node_once(monkeypatch):
    walked = Counter()
    rule = ex._derivative

    def counted(e, name, memo):
        walked[e, name] += 1
        return rule(e, name, memo)

    monkeypatch.setattr(ex, "_derivative", counted)
    # a tree no other test builds: each node under it is walked once per
    # name, and asking again walks nothing
    coords = ("t", "q1", "q2")
    e = ex.parse_expr("sin(q1*t*0.6180339887) / (q1*t*0.6180339887 + q2^2) + q2", coords)
    first = [ex.differentiate(e, name) for name in coords]
    assert {(e, name) for name in coords} <= set(walked)
    assert max(walked.values()) == 1 and set(walked) <= {
        (node, name) for node in ex._postorder([e]) for name in coords}
    count = sum(walked.values())
    assert [ex.differentiate(e, name) for name in coords] == first
    assert sum(walked.values()) == count
    # a suite run, twice: no pair is walked a second time
    inp = load_model(os.path.join(MODELS, "n2.json")).suite_inputs()
    for _ in range(2):
        run_suite("prop6", inp, points=4)
    assert max(walked.values()) == 1
