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
    SymbolicField,
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
    """Shared plumbing for component containers."""

    space: Space

    def eval_at(self, point) -> np.ndarray:
        raise NotImplementedError

    def components(self) -> list:
        """The scalar components, flattened in eval_at order."""
        raise NotImplementedError


class VectorField(_Indexed):
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
        comps = [named.get(c, 0.0) for c in space.coords]
        return cls(space, comps)

    def eval_at(self, point) -> np.ndarray:
        return np.array([c.eval(point) for c in self.comps])

    def components(self) -> list:
        return list(self.comps)

    @property
    def is_vertical(self) -> bool:
        """Zero dt-pairing, by exact symbolic equality after folding."""
        return is_symbolically_zero(self.comps[0])

    @property
    def is_t_normalized(self) -> bool:
        return is_symbolically_one(self.comps[0])

    def __add__(self, other):
        _require_same_space(self, other)
        return VectorField(self.space, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        _require_same_space(self, other)
        return VectorField(self.space, [a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return VectorField(self.space, [-c for c in self.comps])

    def scaled(self, f) -> "VectorField":
        f = _as_field(self.space, f)
        return VectorField(self.space, [f * c for c in self.comps])

    def __call__(self, f: ScalarField) -> ScalarField:
        """Directional derivative X(f)."""
        out = zero(self.space)
        for c, name in zip(self.comps, self.space.coords):
            out = out + c * f.diff(name)
        return out


class OneForm(_Indexed):
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

    def eval_at(self, point) -> np.ndarray:
        return np.array([c.eval(point) for c in self.comps])

    def components(self) -> list:
        return list(self.comps)

    def __add__(self, other):
        _require_same_space(self, other)
        return OneForm(self.space, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        _require_same_space(self, other)
        return OneForm(self.space, [a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return OneForm(self.space, [-c for c in self.comps])

    def scaled(self, f) -> "OneForm":
        f = _as_field(self.space, f)
        return OneForm(self.space, [f * c for c in self.comps])


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

    def __add__(self, other):
        _require_same_space(self, other)
        return type(self)(self.space, [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        _require_same_space(self, other)
        return type(self)(self.space, [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return type(self)(self.space, [[-v for v in row] for row in self.entries])

    def scaled(self, f):
        f = _as_field(self.space, f)
        return type(self)(self.space, [[f * v for v in row] for row in self.entries])


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
        return np.array([[[self.comps[a][b][c].eval(point)
                           for c in range(d)] for b in range(d)]
                         for a in range(d)])

    def components(self) -> list:
        d = self.space.dim
        return [self.comps[a][b][c]
                for a in range(d) for b in range(d) for c in range(d)]

    def apply(self, X: VectorField, Y: VectorField) -> VectorField:
        _require_same_space(self, X, Y)
        d = self.space.dim
        out = []
        for a in range(d):
            acc = zero(self.space)
            for b in range(d):
                for c in range(d):
                    acc = acc + self.comps[a][b][c] * X.comps[b] * Y.comps[c]
            out.append(acc)
        return VectorField(self.space, out)

    def hook(self, X: VectorField) -> Tensor11:
        """(i_X N)(Y) = N(X, Y), as a (1,1) tensor."""
        _require_same_space(self, X)
        d = self.space.dim
        entries = []
        for a in range(d):
            row = []
            for c in range(d):
                acc = zero(self.space)
                for b in range(d):
                    acc = acc + self.comps[a][b][c] * X.comps[b]
                row.append(acc)
            entries.append(row)
        return Tensor11(self.space, entries)


# ---------------------------------------------------------------------------
# contractions

def apply_tensor11(T: Tensor11, X: VectorField) -> VectorField:
    _require_same_space(T, X)
    d = T.space.dim
    out = []
    for a in range(d):
        acc = zero(T.space)
        for b in range(d):
            acc = acc + T.entries[a][b] * X.comps[b]
        out.append(acc)
    return VectorField(T.space, out)


def adjoint_tensor11(T: Tensor11, alpha: OneForm) -> OneForm:
    """(T(alpha))_b = T^a_b alpha_a, so that <T(X), alpha> = <X, T(alpha)>."""
    _require_same_space(T, alpha)
    d = T.space.dim
    out = []
    for b in range(d):
        acc = zero(T.space)
        for a in range(d):
            acc = acc + T.entries[a][b] * alpha.comps[a]
        out.append(acc)
    return OneForm(T.space, out)


def pair(X: VectorField, alpha: OneForm) -> ScalarField:
    _require_same_space(X, alpha)
    acc = zero(X.space)
    for x, a in zip(X.comps, alpha.comps):
        acc = acc + x * a
    return acc


def compose_tensor11(A: Tensor11, B: Tensor11) -> Tensor11:
    """Matrix product: (A o B)(X) = A(B(X))."""
    _require_same_space(A, B)
    d = A.space.dim
    entries = []
    for a in range(d):
        row = []
        for b in range(d):
            acc = zero(A.space)
            for c in range(d):
                acc = acc + A.entries[a][c] * B.entries[c][b]
            row.append(acc)
        entries.append(row)
    return Tensor11(A.space, entries)


def tensor_product(X: VectorField, alpha: OneForm) -> Tensor11:
    _require_same_space(X, alpha)
    return Tensor11(X.space, [[x * a for a in alpha.comps] for x in X.comps])


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    _require_same_space(alpha, beta)
    d = alpha.space.dim
    return TwoForm(alpha.space, [
        [alpha.comps[a] * beta.comps[b] - alpha.comps[b] * beta.comps[a]
         for b in range(d)] for a in range(d)])


def identity_tensor(space: Space) -> Tensor11:
    d = space.dim
    return Tensor11(space, [
        [const_field(space, 1.0 if a == b else 0.0) for b in range(d)]
        for a in range(d)])


# ---------------------------------------------------------------------------
# derivatives

def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    _require_same_space(X, Y)
    space = X.space
    out = []
    for a, name_a in enumerate(space.coords):
        acc = zero(space)
        for b, name_b in enumerate(space.coords):
            acc = acc + X.comps[b] * Y.comps[a].diff(name_b)
            acc = acc - Y.comps[b] * X.comps[a].diff(name_b)
        out.append(acc)
    return VectorField(space, out)


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
    space = alpha.space
    coords = space.coords
    d = space.dim
    return TwoForm(space, [
        [alpha.comps[b].diff(coords[a]) - alpha.comps[a].diff(coords[b])
         for b in range(d)] for a in range(d)])


def interior_product(X: VectorField, omega: TwoForm) -> OneForm:
    _require_same_space(X, omega)
    d = X.space.dim
    out = []
    for b in range(d):
        acc = zero(X.space)
        for a in range(d):
            acc = acc + X.comps[a] * omega.entries[a][b]
        out.append(acc)
    return OneForm(X.space, out)


def hook2(R: Tensor11, omega) -> list:
    """The covariant 2-tensor (X, Y) -> omega(R(X), Y), as a matrix of
    fields (it is not antisymmetric in general)."""
    _require_same_space(R, omega)
    d = R.space.dim
    return [[sum_fields(R.space,
                        [R.entries[c][a] * omega.entries[c][b] for c in range(d)])
             for b in range(d)] for a in range(d)]


def sum_fields(space: Space, fields_list) -> ScalarField:
    acc = zero(space)
    for f in fields_list:
        acc = acc + f
    return acc


def nijenhuis_torsion(R: Tensor11) -> Tensor12:
    """N_R(X, Y) = [RX, RY] + R^2[X, Y] - R[RX, Y] - R[X, RY], stored by
    its values on coordinate fields (torsion is tensorial)."""
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
                    acc = acc - R.entries[a][e] * R.entries[e][c].diff(coords[b])
                row.append(acc)
            plane.append(row)
        comps.append(plane)
    return Tensor12(space, comps)


def haantjes_tensor(R: Tensor11) -> Tensor12:
    """H_R(X,Y) = R^2 N(X,Y) + N(RX,RY) - R N(RX,Y) - R N(X,RY)."""
    space = R.space
    d = space.dim
    N = nijenhuis_torsion(R)
    Rm = R.entries
    Nc = N.comps
    comps = []
    for a in range(d):
        plane = []
        for b in range(d):
            row = []
            for c in range(d):
                acc = zero(space)
                for e in range(d):
                    for f in range(d):
                        acc = acc + Rm[a][e] * Rm[e][f] * Nc[f][b][c]
                        acc = acc + Rm[e][b] * Rm[f][c] * Nc[a][e][f]
                        acc = acc - Rm[a][e] * Rm[f][b] * Nc[e][f][c]
                        acc = acc - Rm[a][e] * Rm[f][c] * Nc[e][b][f]
                row.append(acc)
            plane.append(row)
        comps.append(plane)
    return Tensor12(space, comps)
