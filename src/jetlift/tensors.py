"""Tensor field containers and the coordinate calculus on a single chart.

Every container declares its variance once: one letter per index, "u" for
an upper (contravariant) index and "d" for a lower (covariant) one, upper
indices first. Its components are stored in full index form over every
coordinate of the space, as a table nested to that rank, even when only
some blocks are nonzero; block structure is checked through predicates
(is_vertical, annihilates_dt) rather than by type. The Lie derivative
and the transport of a tensor between charts (`_transport`, which
`charts.ChartMap` calls) are one formula each, read off the variance.
Every contraction site reads its operands once through `_operands`: the
expression trees, procedural ones included, and their memoised gradient
rows. The site writes its terms once, leaves out those with a factor the
gate flags as a constant zero, and `_fold` sums their trees, wrapping each
component once. The zero blocks cost neither a term nor a tree operation,
and as nodes are interned every tree is the one the fold of all the terms
over the fields would build. `_matsum` is the one helper of every
matrix-shaped sum.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from itertools import islice, product

import numpy as np

from . import expr as ex
from .errors import SpaceMismatchError
from .fields import (
    ScalarField,
    SymbolicField,
    compose,
    const_field,
    evaluate,
    parse_field,
    program,
)
from .spaces import Space


def _require_same_space(*objs):
    first = objs[0].space
    if any(o.space is not first for o in objs):
        raise SpaceMismatchError(
            f"mixed spaces: {sorted({str(o.space) for o in objs})}")


def _as_field(space: Space, v) -> ScalarField:
    if isinstance(v, ScalarField):
        if v.space is not space:
            raise SpaceMismatchError(f"a component on {v.space} in a tensor "
                                     f"on {space}")
        return v
    if isinstance(v, str):
        return parse_field(v, space)
    return const_field(space, v)


def _fields(space: Space, table, rank):
    """table, a d x ... x d table nested to the given rank, with every entry
    made a field on space."""
    if len(table) != space.dim:
        raise SpaceMismatchError(f"need {space.dim} components per index on "
                                 f"{space}, got {len(table)}")
    if rank == 1:
        return [_as_field(space, v) for v in table]
    return [_fields(space, row, rank - 1) for row in table]


def _nest(flat, d, rank):
    """A flat list of d ** rank components in lexicographic index order, as
    a table nested to the given rank."""
    for _ in range(rank - 1):
        flat = [flat[i:i + d] for i in range(0, len(flat), d)]
    return flat


class _Indexed:
    """A tensor field by its components in one chart, stored in `comps` as
    a table nested index by index. Arithmetic acts on the scalar components
    one by one. `components()` lists them flat in lexicographic index order,
    the eval_at order, and `_rebuild(flat)` is the same kind of object with
    the given flat components."""

    variance: str
    space: Space

    def __init__(self, space: Space, comps):
        self.space = space
        self.comps = _fields(space, comps, len(self.variance))

    @classmethod
    def zero(cls, space: Space):
        return cls.from_dict(space, {})

    @classmethod
    def from_dict(cls, space: Space, named: dict):
        """Components keyed by their coordinate names joined with ',' ("q1",
        "q1,t"); missing ones are 0."""
        rank = len(cls.variance)
        flat, keys = [0.0] * space.dim ** rank, {}
        for key, v in named.items():
            i = _flat_index(space, key, rank)
            if i in keys:  # "q1,q1" and "q1, q1": the last would win
                raise SpaceMismatchError(
                    f"{keys[i]!r} and {key!r} name one component")
            flat[i], keys[i] = v, key
        return cls(space, _nest(flat, space.dim, rank))

    def components(self) -> list:
        flat = self.comps
        for _ in range(len(self.variance) - 1):
            flat = [v for row in flat for v in row]
        return list(flat)

    def _rebuild(self, flat, space=None):
        """This kind of object on space (by default this one's) with the
        given flat components, which are fields on that space already."""
        new = object.__new__(type(self))
        new.space = self.space if space is None else space
        new.comps = _nest(flat, new.space.dim, len(self.variance))
        return new

    def eval_at(self, point) -> np.ndarray:
        """The components at one point, shaped (dim,) * rank, in one one-row
        program, so that a node they share (a Newton solve, an
        eigen-analysis) runs once. Raises the first error in component
        order that rejects the point."""
        return evaluate([point], program(self.components())).reshape(
            (self.space.dim,) * len(self.variance))

    def _pairs(self, other):
        """The components of this tensor and other side by side; other must
        be a tensor of the same variance on the same space."""
        if not (isinstance(other, _Indexed) and other.variance == self.variance):
            kind = (f"variance {other.variance!r}" if hasattr(other, "variance")
                    else type(other).__name__)
            raise TypeError(f"cannot add or subtract variance "
                            f"{self.variance!r} and {kind}")
        _require_same_space(self, other)
        return zip(self.components(), other.components())

    def __add__(self, other):
        return self._rebuild([a + b for a, b in self._pairs(other)])

    def __sub__(self, other):
        return self._rebuild([a - b for a, b in self._pairs(other)])

    def __neg__(self):
        return self._rebuild([-c for c in self.components()])

    def scaled(self, f):
        f = _as_field(self.space, f)
        return self._rebuild([f * c for c in self.components()])


def _flat_index(space: Space, key: str, rank: int) -> int:
    """The position in components() of the component keyed 'a,b,...'."""
    names = [name.strip() for name in key.split(",")]
    if len(names) != rank or not set(names) <= set(space.coords):
        raise SpaceMismatchError(f"{key!r} does not name a component with "
                                 f"{rank} indices on {space}")
    i = 0
    for name in names:
        i = i * space.dim + space.index(name)
    return i


# Each container has its own eval_at entry: bench/tracer.py counts the
# calls through VectorField, OneForm, _Matrix and Tensor12.eval_at.

class VectorField(_Indexed):
    variance = "u"
    eval_at = _Indexed.eval_at

    @property
    def is_vertical(self) -> bool:
        """Zero dt-pairing, by exact symbolic equality after folding."""
        return self.comps[0].is_zero

    @property
    def is_t_normalized(self) -> bool:
        return self.comps[0].is_one

    def __call__(self, f: ScalarField) -> ScalarField:
        """Directional derivative X(f)."""
        return lie_derivative(self, f)


class OneForm(_Indexed):
    variance = "d"
    eval_at = _Indexed.eval_at


class _Matrix(_Indexed):
    """Square matrix of fields; base of Tensor11 / TwoForm / Bivector."""

    eval_at = _Indexed.eval_at

    @property
    def entries(self):
        return self.comps


class Tensor11(_Matrix):
    """Entry (a, b) is the coefficient of d/dx^a (x) dx^b."""

    variance = "ud"

    @property
    def annihilates_dt(self) -> bool:
        return all(v.is_zero for v in self.entries[0])


class TwoForm(_Matrix):
    """Antisymmetric covariant matrix; omega(X, Y) = omega_ab X^a Y^b."""

    variance = "dd"

    @classmethod
    def from_dict(cls, space: Space, named: dict):
        """Entries keyed 'a,b' for the dx^a ^ dx^b term; the mirrored entry
        is filled with the opposite sign."""
        M = super().from_dict(space, named).entries
        return cls(space, _table(space.dim, 2,
                                 lambda a, b: M[a][b] - M[b][a]))


class Bivector(_Matrix):
    """Antisymmetric contravariant matrix; L(s, b) = L^ab s_a b_b."""

    variance = "uu"


class Tensor12(_Indexed):
    """comps[a][b][c] is the coefficient of d/dx^a (x) dx^b (x) dx^c,
    antisymmetric in (b, c)."""

    variance = "udd"
    eval_at = _Indexed.eval_at

    def apply(self, X: VectorField, Y: VectorField) -> VectorField:
        _require_same_space(self, X, Y)
        d = self.space.dim
        r = range(d)
        ops, _, dead = _operands(self.space, self.components() + X.comps + Y.comps)
        N, Xo, Yo = _nest(ops[:-2 * d], d, 3), ops[-2 * d:-d], ops[-d:]
        return VectorField(self.space, [_fold(self.space, [
            ("+", [N[a][b][c], Xo[b], Yo[c]]) for b in r
            if Xo[b] not in dead for c in r
            if Yo[c] not in dead and N[a][b][c] not in dead]) for a in r])

    def hook(self, X: VectorField) -> Tensor11:
        """(i_X N)(Y) = N(X, Y), as a (1,1) tensor."""
        _require_same_space(self, X)
        r, N = range(self.space.dim), self.comps
        rows = [[N[a][b][c] for b in r] for a in r for c in r]
        return Tensor11(self.space, _nest([row[0] for row in _matsum(
            self.space, "+", rows, [X.comps])], self.space.dim, 2))


def _table(d, rank, fn, *index):
    """Nested lists [[fn(a, b) for b in range(d)] for a in range(d)], to the
    given rank."""
    if len(index) == rank:
        return fn(*index)
    return [_table(d, rank, fn, *index, i) for i in range(d)]


# ---------------------------------------------------------------------------
# contractions

def apply_tensor11(T: Tensor11, X: VectorField) -> VectorField:
    _require_same_space(T, X)
    return VectorField(T.space, [row[0] for row in
                                 _matsum(T.space, "+", T.entries, [X.comps])])


def adjoint_tensor11(T: Tensor11, alpha: OneForm) -> OneForm:
    """(T(alpha))_b = T^a_b alpha_a, so that <T(X), alpha> = <X, T(alpha)>."""
    _require_same_space(T, alpha)
    return OneForm(T.space, [row[0] for row in _matsum(
        T.space, "+", [*zip(*T.entries)], [alpha.comps])])


def pair(X: VectorField, alpha: OneForm) -> ScalarField:
    _require_same_space(X, alpha)
    return _matsum(X.space, "+", [X.comps], [alpha.comps])[0][0]


def compose_tensor11(A: Tensor11, B: Tensor11) -> Tensor11:
    """Matrix product: (A o B)(X) = A(B(X))."""
    _require_same_space(A, B)
    return Tensor11(A.space, _matsum(A.space, "+", A.entries, [*zip(*B.entries)]))


def tensor_product(X: VectorField, alpha: OneForm) -> Tensor11:
    _require_same_space(X, alpha)
    return Tensor11(X.space, [[x * a for a in alpha.comps] for x in X.comps])


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    _require_same_space(alpha, beta)
    A, B = alpha.comps, beta.comps
    return TwoForm(alpha.space, _table(alpha.space.dim, 2, lambda a, b:
                                       A[a] * B[b] - A[b] * B[a]))


def identity_tensor(space: Space) -> Tensor11:
    return Tensor11(space, _table(space.dim, 2, lambda a, b:
                                  const_field(space, 1.0 if a == b else 0.0)))


# ---------------------------------------------------------------------------
# derivatives

def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    return lie_derivative(X, Y)


@lru_cache(maxsize=None)
def _lie_moves(variance: str, d: int) -> tuple:
    """The index terms of the Lie derivative of a tensor of this variance in
    dimension d: for each component I in lexicographic order and each
    coordinate c, the triples (j, q, upper) of the terms T_j dX_q in index
    order, where j is the position of I with its k-th index set to c, and
    dX_q is d_c X^{I_k} for an upper index k or d_{I_k} X^c for a lower one
    (dX_q = d_b X^a at q = a * d + b)."""
    position = {I: j for j, I in
                enumerate(product(range(d), repeat=len(variance)))}
    kinds = list(enumerate(variance))
    return tuple([tuple([tuple([
        (position[I[:k] + (c,) + I[k + 1:]],
         I[k] * d + c if kind == "u" else c * d + I[k], kind == "u")
        for k, kind in kinds]) for c in range(d)]) for I in position])


def lie_derivative(X: VectorField, T):
    """L_X T of a scalar field or of a tensor of any variance. Component I
    is summed over the coordinates c in order: + X^c d_c T_I, then for each
    index k of T in order - T_{I_k->c} d_c X^{I_k} if it is upper or
    + T_{I_k->c} d_{I_k} X^c if it is lower. On a scalar this is X(f), on a
    vector field the bracket [X, T]."""
    variance = getattr(T, "variance", None)
    if variance is None:
        raise TypeError(f"cannot Lie-derive a {type(T).__name__}")
    _require_same_space(X, T)
    space, d = X.space, X.space.dim
    comps = T.components()
    ops, derivs, dead = _operands(space, X.comps + comps,
                                  (X.comps if variance else []) + comps)
    Xc, Tc = ops[:d], ops[d:]
    # dX[q] = d_b X^a at q = a * d + b, dT[j][c] = d_c T_j
    dX, dT = [g for row in derivs[:-len(comps)] for g in row], derivs[-len(comps):]
    out = []
    for df, moves in zip(dT, _lie_moves(variance, d)):
        terms = []
        for c, index_terms in enumerate(moves):
            if Xc[c] not in dead and df[c] not in dead:
                terms.append(("+", [Xc[c], df[c]]))
            for j, q, upper in index_terms:
                if dX[q] not in dead and Tc[j] not in dead:
                    terms.append(("-" if upper else "+", [Tc[j], dX[q]]))
        out.append(_fold(space, terms))
    return T._rebuild(out) if variance else out[0]


def _transport(obj, maps, dst: Space, J, K):
    """obj written on dst, where maps are the coordinates of obj's space as
    fields on dst: each component composed with maps, then, for each target
    multi-index A, the sum over the source multi-indices C in lexicographic
    order of prod_{upper k} J[A_k][C_k] * T_C * prod_{lower k} K[C_k][A_k],
    multiplied left to right (a variance lists its upper indices first)."""
    comps = [compose(f, maps, dst) for f in obj.components()]
    variance = obj.variance
    if not variance:
        return comps[0]
    n_up = variance.count("u")
    J, K = J or [], K or []
    ops, _, dead = _operands(dst, comps + [g for M in (J, K) for row in M
                                           for g in row])
    Tc, it = ops[:len(comps)], iter(ops[len(comps):])
    J, K = ([list(islice(it, len(row))) for row in M] for M in (J, K))
    Kt = list(zip(*K))  # Kt[a][c] = K[c][a]
    out = []
    for A in product(range(dst.dim), repeat=len(variance)):
        # per index, its factor for every source value C_k
        rows = [J[a] if v == "u" else Kt[a] for a, v in zip(A, variance)]
        out.append(_fold(dst, [("+", f[:n_up] + (t,) + f[n_up:])
                               for f, t in zip(product(*rows), Tc)
                               if t not in dead and dead.isdisjoint(f)]))
    return obj._rebuild(out, dst)


def differential(f: ScalarField) -> OneForm:
    return OneForm(f.space, [f.diff(c) for c in f.space.coords])


def exterior_derivative(alpha: OneForm) -> TwoForm:
    A, coords = alpha.comps, alpha.space.coords
    return TwoForm(alpha.space, _table(alpha.space.dim, 2, lambda a, b:
                                       A[b].diff(coords[a]) - A[a].diff(coords[b])))


def interior_product(X: VectorField, omega: TwoForm) -> OneForm:
    _require_same_space(X, omega)
    return OneForm(X.space, _matsum(X.space, "+", [X.comps],
                                    [*zip(*omega.entries)])[0])


def hook2(R: Tensor11, omega) -> list:
    """The covariant 2-tensor (X, Y) -> omega(R(X), Y), as a matrix of
    fields (it is not antisymmetric in general)."""
    _require_same_space(R, omega)
    return _matsum(R.space, "+", [*zip(*R.entries)], [*zip(*omega.entries)])


# How a term joins the sum, by its sign. "+-" adds the negated product,
# add(acc, neg(p)): another tree than sub(acc, p), which is 0 when acc == p.
# "neg" negates one sum, for a site that combines sums before it wraps them.
_EXPR_FOLD = {"+": ex.add, "-": ex.sub, "+-": lambda acc, p: ex.add(acc, ex.neg(p)),
              "neg": ex.neg}

_DEAD = frozenset({None, *ex.ZEROS})  # the zeros, and None for d(constant)


def _operands(space: Space, factors, diffed=()):
    """(ops, derivs, dead) of a contraction's list of factors and the fields
    diffed among them: ops are the factors' trees, derivs the rows
    `expr.gradient` memoises, and dead is _DEAD, where a row holds None for
    each derivative of a constant (they are 0); unless a constant among the
    factors or their derivatives is non-finite (0 * inf is nan): then dead
    is empty and every derivative a tree. A site that leaves out the terms
    with a factor in dead builds no zero term. SpaceMismatchError for a
    factor on another space."""
    for f in factors:
        if f.space is not space:
            raise SpaceMismatchError(f"cannot combine fields on {space} and {f.space}")
    coords, trees = space.coords, [f.expr for f in factors]
    rows = [ex.gradient(f.expr, coords) for f in diffed]
    if ex.NON_FINITE.isdisjoint(trees) and not any([bad for _, bad in rows]):
        return trees, [row for row, _ in rows], _DEAD
    return (trees, [[ex.ZERO if d is None else d for d in row] for row, _ in rows],
            frozenset())


def _sum(terms):
    """The tree of the sum of a list of terms (sign, [f1, f2, ...]) of trees
    with sign "+", "-" or "+-": the products, each multiplied left to
    right, folded left to right into a sum that starts at 0."""
    acc = ex.ZERO
    for sign, factors in terms:
        acc = _EXPR_FOLD[sign](acc, reduce(ex.mul, factors))
    return acc


def _fold(space: Space, terms):
    """`_sum` of the terms, as a field on space."""
    return SymbolicField(space, _sum(terms))


def sum_products(space: Space, terms) -> ScalarField:
    """`_fold` of the terms over the trees `_operands` gives for their
    factors. Every term is folded: one with a constant-zero factor folds to
    the same tree as without it, as its product is ±0 and adding or
    subtracting ±0 returns a tree sum as it is and a constant one, which
    starts at +0.0 and so is never -0.0 under round-to-nearest, with its
    value."""
    ops = _operands(space, [f for _, factors in terms for f in factors])[0]
    it = iter(ops)
    return _fold(space, [(sign, [next(it) for _ in factors]) for sign, factors in terms])


def _matsum(space: Space, sign, rows, cols, more=()) -> list:
    """The table [[sum_c sign rows[a][c] cols[b][c] for b] for a], each sum
    followed by the terms of each further (sign, rows, cols) of more, in
    order, with the row factor first. A term with a factor that
    `_operands` flags among all of them is left out."""
    parts = ((sign, rows, cols), *more)
    ops, _, dead = _operands(space, [f for _, R, C in parts for M in (R, C)
                                     for row in M for f in row])
    it = iter(ops)
    parts = [(s, [list(islice(it, len(row))) for row in R],
              [list(islice(it, len(row))) for row in C]) for s, R, C in parts]
    return [[_fold(space, [(s, [x, y]) for s, R, C in parts
                           for x, y in zip(R[a], C[b])
                           if x not in dead and y not in dead])
             for b in range(len(cols))] for a in range(len(rows))]


def sum_fields(space: Space, fields_list) -> ScalarField:
    return sum_products(space, [("+", [f]) for f in fields_list])


def nijenhuis_torsion(R: Tensor11) -> Tensor12:
    """N_R(X, Y) = [RX, RY] + R^2[X, Y] - R[RX, Y] - R[X, RY], stored by
    its values on coordinate fields (torsion is tensorial)."""
    space, d = R.space, R.space.dim
    ops, derivs, dead = _operands(space, R.components(), R.components())
    E, D = _nest(ops, d, 2), _nest(derivs, d, 2)  # D[a][b][e] = d_e R^a_b

    def comp(a, b, c):
        return _fold(space, [(sign, [f, g]) for e in range(d) for sign, f, g in (
            ("+", E[e][b], D[a][c][e]), ("-", E[e][c], D[a][b][e]),
            ("+", E[a][e], D[e][b][c]), ("-", E[a][e], D[e][c][b]))
            if f not in dead and g not in dead])
    return Tensor12(space, _table(d, 3, comp))


def haantjes_tensor(R: Tensor11) -> Tensor12:
    """H_R(X,Y) = R^2 N(X,Y) + N(RX,RY) - R N(RX,Y) - R N(X,RY)."""
    space, d = R.space, R.space.dim
    r = range(d)
    ops, _, dead = _operands(space, R.components()
                             + nijenhuis_torsion(R).components())
    Rm, Nc = _nest(ops[:d * d], d, 2), _nest(ops[d * d:], d, 3)

    def comp(a, b, c):
        return _fold(space, [t for e in r for f in r for t in (
            ("+", [Rm[a][e], Rm[e][f], Nc[f][b][c]]),
            ("+", [Rm[e][b], Rm[f][c], Nc[a][e][f]]),
            ("-", [Rm[a][e], Rm[f][b], Nc[e][f][c]]),
            ("-", [Rm[a][e], Rm[f][c], Nc[e][b][f]]))
            if dead.isdisjoint(t[1])])
    return Tensor12(space, _table(space.dim, 3, comp))
