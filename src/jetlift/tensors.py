"""Tensor field containers and the coordinate calculus on a single chart.

Components are stored in full index form over every coordinate of the
space, even when only some blocks are nonzero; block structure is checked
through predicates (is_vertical, annihilates_dt) rather than by type.
"""
from __future__ import annotations

import numpy as np

from .errors import SpaceMismatchError
from .fields import (
    ScalarField,
    const_field,
    is_symbolically_one,
    is_symbolically_zero,
    parse_field,
    zero,
)
from .spaces import Space


def _require_same_space(*objs):
    spaces = {o.space for o in objs}
    if len(spaces) > 1:
        raise SpaceMismatchError(f"mixed spaces: {sorted(map(str, spaces))}")


def _as_field(space: Space, v) -> ScalarField:
    if isinstance(v, ScalarField):
        return v
    if isinstance(v, str):
        return parse_field(v, space)
    return const_field(space, v)


class _Indexed:
    """Shared plumbing for component containers: arithmetic acts on the
    scalar components one by one. A container gives `components()`, its
    scalar components flattened in eval_at order, and `_rebuild(flat)`, the
    same kind of object with the given flattened components."""

    space: Space

    def __add__(self, other):
        _require_same_space(self, other)
        return self._rebuild([a + b for a, b in
                              zip(self.components(), other.components())])

    def __sub__(self, other):
        _require_same_space(self, other)
        return self._rebuild([a - b for a, b in
                              zip(self.components(), other.components())])

    def __neg__(self):
        return self._rebuild([-c for c in self.components()])

    def scaled(self, f):
        f = _as_field(self.space, f)
        return self._rebuild([f * c for c in self.components()])


class _Vector(_Indexed):
    """One component per coordinate; base of VectorField / OneForm."""

    def __init__(self, space: Space, comps):
        if len(comps) != space.dim:
            raise SpaceMismatchError(
                f"need {space.dim} components on {space}, got {len(comps)}")
        self.space = space
        self.comps = [_as_field(space, c) for c in comps]

    @classmethod
    def zero(cls, space: Space):
        return cls(space, [zero(space)] * space.dim)

    @classmethod
    def from_dict(cls, space: Space, named: dict):
        return cls(space, [named.get(c, 0.0) for c in space.coords])

    def components(self) -> list:
        return list(self.comps)

    def _rebuild(self, flat):
        return type(self)(self.space, flat)


class VectorField(_Vector):
    def eval_at(self, point) -> np.ndarray:
        return np.array([c.eval(point) for c in self.comps])

    @property
    def is_vertical(self) -> bool:
        """Zero dt-pairing, by exact symbolic equality after folding."""
        return is_symbolically_zero(self.comps[0])

    @property
    def is_t_normalized(self) -> bool:
        return is_symbolically_one(self.comps[0])

    def __call__(self, f: ScalarField) -> ScalarField:
        """Directional derivative X(f)."""
        return sum_fields(self.space, [c * f.diff(name) for c, name
                                       in zip(self.comps, self.space.coords)])


class OneForm(_Vector):
    def eval_at(self, point) -> np.ndarray:
        return np.array([c.eval(point) for c in self.comps])


class _Matrix(_Indexed):
    """Square matrix of fields; base of Tensor11 / TwoForm / Bivector."""

    def __init__(self, space: Space, entries):
        d = space.dim
        if len(entries) != d or any(len(row) != d for row in entries):
            raise SpaceMismatchError(f"need a {d}x{d} matrix on {space}")
        self.space = space
        self.entries = [[_as_field(space, v) for v in row] for row in entries]

    @classmethod
    def zero(cls, space: Space):
        return cls(space, [[zero(space)] * space.dim for _ in range(space.dim)])

    @classmethod
    def from_dict(cls, space: Space, named: dict):
        """Entries keyed 'a,b' by coordinate names; missing entries are 0."""
        d = space.dim
        entries = [[0.0] * d for _ in range(d)]
        for key, v in named.items():
            a, b = (s.strip() for s in key.split(","))
            entries[space.index(a)][space.index(b)] = v
        return cls(space, entries)

    def eval_at(self, point) -> np.ndarray:
        return np.array([[v.eval(point) for v in row] for row in self.entries])

    def components(self) -> list:
        return [v for row in self.entries for v in row]

    def _rebuild(self, flat):
        d = self.space.dim
        return type(self)(self.space, [flat[a * d:(a + 1) * d]
                                       for a in range(d)])


class Tensor11(_Matrix):
    """Entry (a, b) is the coefficient of d/dx^a (x) dx^b."""

    @property
    def annihilates_dt(self) -> bool:
        return all(is_symbolically_zero(v) for v in self.entries[0])


class TwoForm(_Matrix):
    """Antisymmetric covariant matrix; omega(X, Y) = omega_ab X^a Y^b."""

    @classmethod
    def from_dict(cls, space: Space, named: dict):
        """Entries keyed 'a,b' for the dx^a ^ dx^b term; the mirrored entry
        is filled with the opposite sign."""
        d = space.dim
        entries = [[zero(space)] * d for _ in range(d)]
        for key, v in named.items():
            a, b = (s.strip() for s in key.split(","))
            ia, ib = space.index(a), space.index(b)
            f = _as_field(space, v)
            entries[ia][ib] = entries[ia][ib] + f
            entries[ib][ia] = entries[ib][ia] - f
        return cls(space, entries)


class Bivector(_Matrix):
    """Antisymmetric contravariant matrix; L(s, b) = L^ab s_a b_b."""


class Tensor12(_Indexed):
    """comps[a][b][c] is the coefficient of d/dx^a (x) dx^b (x) dx^c,
    antisymmetric in (b, c)."""

    def __init__(self, space: Space, comps):
        self.space = space
        self.comps = comps

    def eval_at(self, point) -> np.ndarray:
        d = self.space.dim
        return np.array(_table(d, 3, lambda a, b, c:
                               self.comps[a][b][c].eval(point)))

    def components(self) -> list:
        d = self.space.dim
        return [self.comps[a][b][c]
                for a in range(d) for b in range(d) for c in range(d)]

    def apply(self, X: VectorField, Y: VectorField) -> VectorField:
        _require_same_space(self, X, Y)
        r = range(self.space.dim)
        return VectorField(self.space, [sum_fields(self.space, [
            self.comps[a][b][c] * X.comps[b] * Y.comps[c]
            for b in r for c in r]) for a in r])

    def hook(self, X: VectorField) -> Tensor11:
        """(i_X N)(Y) = N(X, Y), as a (1,1) tensor."""
        _require_same_space(self, X)
        d = self.space.dim
        return Tensor11(self.space, _table(d, 2, lambda a, c: sum_fields(
            self.space, [self.comps[a][b][c] * X.comps[b] for b in range(d)])))


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
    r = range(T.space.dim)
    return VectorField(T.space, [sum_fields(T.space, [
        T.entries[a][b] * X.comps[b] for b in r]) for a in r])


def adjoint_tensor11(T: Tensor11, alpha: OneForm) -> OneForm:
    """(T(alpha))_b = T^a_b alpha_a, so that <T(X), alpha> = <X, T(alpha)>."""
    _require_same_space(T, alpha)
    r = range(T.space.dim)
    return OneForm(T.space, [sum_fields(T.space, [
        T.entries[a][b] * alpha.comps[a] for a in r]) for b in r])


def pair(X: VectorField, alpha: OneForm) -> ScalarField:
    _require_same_space(X, alpha)
    return sum_fields(X.space, [x * a for x, a in zip(X.comps, alpha.comps)])


def compose_tensor11(A: Tensor11, B: Tensor11) -> Tensor11:
    """Matrix product: (A o B)(X) = A(B(X))."""
    _require_same_space(A, B)
    d = A.space.dim
    return Tensor11(A.space, _table(d, 2, lambda a, b: sum_fields(
        A.space, [A.entries[a][c] * B.entries[c][b] for c in range(d)])))


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
    _require_same_space(X, Y)
    space = X.space

    def comp(a):
        acc = zero(space)
        for b, name in enumerate(space.coords):
            acc = acc + X.comps[b] * Y.comps[a].diff(name)
            acc = acc - Y.comps[b] * X.comps[a].diff(name)
        return acc
    return VectorField(space, [comp(a) for a in range(space.dim)])


def lie_derivative(X: VectorField, T):
    """L_X T for scalars, vectors, one-forms, (1,1) tensors and two-forms."""
    if isinstance(T, ScalarField):
        return X(T)
    _require_same_space(X, T)
    space = X.space
    coords = space.coords
    d = space.dim
    if isinstance(T, VectorField):
        return lie_bracket(X, T)
    if isinstance(T, OneForm):
        out = []
        for b in range(d):
            acc = zero(space)
            for a in range(d):
                acc = acc + X.comps[a] * T.comps[b].diff(coords[a])
                acc = acc + T.comps[a] * X.comps[a].diff(coords[b])
            out.append(acc)
        return OneForm(space, out)
    if isinstance(T, Tensor11):
        entries = []
        for a in range(d):
            row = []
            for b in range(d):
                acc = zero(space)
                for c in range(d):
                    acc = acc + X.comps[c] * T.entries[a][b].diff(coords[c])
                    acc = acc - T.entries[c][b] * X.comps[a].diff(coords[c])
                    acc = acc + T.entries[a][c] * X.comps[c].diff(coords[b])
                row.append(acc)
            entries.append(row)
        return Tensor11(space, entries)
    if isinstance(T, TwoForm):
        entries = []
        for a in range(d):
            row = []
            for b in range(d):
                acc = zero(space)
                for c in range(d):
                    acc = acc + X.comps[c] * T.entries[a][b].diff(coords[c])
                    acc = acc + T.entries[c][b] * X.comps[c].diff(coords[a])
                    acc = acc + T.entries[a][c] * X.comps[c].diff(coords[b])
                row.append(acc)
            entries.append(row)
        return TwoForm(space, entries)
    raise TypeError(f"cannot Lie-derive a {type(T).__name__}")


def differential(f: ScalarField) -> OneForm:
    return OneForm(f.space, [f.diff(c) for c in f.space.coords])


def exterior_derivative(alpha: OneForm) -> TwoForm:
    A, coords = alpha.comps, alpha.space.coords
    return TwoForm(alpha.space, _table(alpha.space.dim, 2, lambda a, b:
                                       A[b].diff(coords[a]) - A[a].diff(coords[b])))


def interior_product(X: VectorField, omega: TwoForm) -> OneForm:
    _require_same_space(X, omega)
    r = range(X.space.dim)
    return OneForm(X.space, [sum_fields(X.space, [
        X.comps[a] * omega.entries[a][b] for a in r]) for b in r])


def hook2(R: Tensor11, omega) -> list:
    """The covariant 2-tensor (X, Y) -> omega(R(X), Y), as a matrix of
    fields (it is not antisymmetric in general)."""
    _require_same_space(R, omega)
    d = R.space.dim
    return _table(d, 2, lambda a, b: sum_fields(
        R.space, [R.entries[c][a] * omega.entries[c][b] for c in range(d)]))


def sum_fields(space: Space, fields_list) -> ScalarField:
    acc = zero(space)
    for f in fields_list:
        acc = acc + f
    return acc


def nijenhuis_torsion(R: Tensor11) -> Tensor12:
    """N_R(X, Y) = [RX, RY] + R^2[X, Y] - R[RX, Y] - R[X, RY], stored by
    its values on coordinate fields (torsion is tensorial)."""
    space, E = R.space, R.entries
    coords = space.coords
    d = space.dim

    def comp(a, b, c):
        acc = zero(space)
        for e in range(d):
            acc = acc + E[e][b] * E[a][c].diff(coords[e])
            acc = acc - E[e][c] * E[a][b].diff(coords[e])
            acc = acc + E[a][e] * E[e][b].diff(coords[c])
            acc = acc - E[a][e] * E[e][c].diff(coords[b])
        return acc
    return Tensor12(space, _table(d, 3, comp))


def haantjes_tensor(R: Tensor11) -> Tensor12:
    """H_R(X,Y) = R^2 N(X,Y) + N(RX,RY) - R N(RX,Y) - R N(X,RY)."""
    space = R.space
    r = range(space.dim)
    Rm, Nc = R.entries, nijenhuis_torsion(R).comps

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
