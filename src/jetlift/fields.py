"""Scalar fields over a chart.

Every scalar field is a symbolic expression tree, and fields and numbers
combine into trees. A procedural field (a value function plus analytic
first and, optionally, second partials) is the tree of one `expr.Call` on
its chart's coordinates: its `Kernel` holds the functions. Sums, products,
quotients, `compose` and `inject` of procedural fields are tree operations
like any other, and a derivative applies the chain rule through the tree.

Fields are evaluated over a whole (m, dim) point array at once, in a
`Batch`: it keeps what each kernel computes, so a kernel that many fields
share runs once per point array, and for each rejected row the error that
evaluating that point alone raises. The unit of evaluation is a list of
fields on one space: `program(fields)` compiles their trees into one
`expr.compile_batch` program, built once where the list is, whose run(b)
gives their values over a Batch b. `evaluate(points, fn)` runs fn on a
Batch of points and raises the error of the first row it rejects;
`eval(point)` and `grad(point)` are its one-row case for every field,
compiled per call.
"""
from __future__ import annotations

import numpy as np

from . import expr as ex
from .errors import OrderOverflowError, SpaceMismatchError
from .expr import Batch
from .spaces import Space


def evaluate(points, fn):
    """fn of a Batch of the points (an (m, dim) array, or a list of points);
    the error of the first row it rejects, if it rejects one."""
    b = Batch(np.array(points, dtype=float, ndmin=2))
    with np.errstate(all="ignore"):
        out = fn(b)
    if b.rejected.any():
        raise b.errors[int(np.argmax(b.rejected))]
    return out


def _symbolic_op(build):
    """A field operator: the tree build(self, other) with a field on the same
    space or a number; SpaceMismatchError for a field on another space,
    NotImplemented for a foreign type."""
    def op(self, other):
        if isinstance(other, SymbolicField):
            if other.space is not self.space:
                raise SpaceMismatchError(
                    f"cannot combine fields on {self.space} and {other.space}")
            other = other.expr
        elif isinstance(other, (int, float)):
            other = ex.const(other)
        else:
            return NotImplemented
        return SymbolicField(self.space, build(self.expr, other))
    return op


class SymbolicField:
    variance = ""  # rank 0: no index, one component

    def __init__(self, space: Space, expression: ex.Expr):
        if not expression.names <= space.coord_set:
            unknown = sorted(expression.names - space.coord_set)
            raise SpaceMismatchError(f"expression uses {unknown} not in {space}")
        self.space = space
        self.expr = expression

    __add__ = __radd__ = _symbolic_op(ex.add)
    __sub__ = _symbolic_op(ex.sub)
    __rsub__ = _symbolic_op(lambda e, x: ex.add(ex.neg(e), x))
    __mul__ = __rmul__ = _symbolic_op(ex.mul)
    __truediv__ = _symbolic_op(ex.div)
    __rtruediv__ = _symbolic_op(lambda e, x: ex.div(x, e))

    def __neg__(self):
        return SymbolicField(self.space, ex.neg(self.expr))

    def components(self) -> list:
        """The scalar components: the field itself."""
        return [self]

    def eval(self, point) -> float:
        return float(evaluate([point], program([self]))[0, 0])

    def grad(self, point):
        """All first partials at a point, as a tuple."""
        return tuple(evaluate([point], program(
            [self.diff(c) for c in self.space.coords]))[:, 0].tolist())

    def diff(self, coord: str) -> "SymbolicField":
        # the cache is made on the first diff: most fields never take one
        cache = self.__dict__.setdefault("_deriv_cache", {})
        if coord not in cache:
            self.space.index(coord)  # validates the name
            cache[coord] = SymbolicField(self.space, ex.differentiate(self.expr, coord))
        return cache[coord]

    @property
    def is_zero(self) -> bool:
        return self.expr in ex.ZEROS

    @property
    def is_one(self) -> bool:
        return self.expr is ex.ONE

    def __str__(self):
        return ex.to_string(self.expr)

    def __repr__(self):
        return f"SymbolicField({self.space}, {self})"


ScalarField = SymbolicField  # every scalar field is a tree


class Kernel:
    """The procedural function of an `expr.Call`: value_fn(b) gives the (m,)
    values, grad_fn(b) the (m, k) partials and hess_fn(b) the (m, k, k)
    second partials by its k arguments over a Batch b of argument points
    (rows they cannot evaluate hold nan or inf, or are rejected in b), each
    computed once per batch. The partial by argument a takes its values from
    column a of the gradient and its own gradient from column a of the
    Hessian; a partial with no function to give it (a third one, or a
    second one with no hess_fn) is an OrderOverflowError."""

    def __init__(self, value_fn, grad_fn=None, hess_fn=None,
                 label="procedural"):
        self.value_fn, self.grad_fn, self.hess_fn = value_fn, grad_fn, hess_fn
        self.partials, self.label = {}, label

    def value(self, b):
        return b.once((self, "value"), lambda: self.value_fn(b))

    def grad(self, b):
        return b.once((self, "grad"), lambda: self.grad_fn(b))

    def hess(self, b):
        return b.once((self, "hess"), lambda: self.hess_fn(b))

    def partial(self, a: int) -> "Kernel":
        """The kernel of the partial by argument a, made once."""
        if a not in self.partials:
            if self.grad_fn is None:
                raise OrderOverflowError(
                    f"{self.label} has no derivative by argument {a}")
            self.partials[a] = Kernel(
                lambda b: self.grad(b)[:, a],
                None if self.hess_fn is None else lambda b: self.hess(b)[:, a],
                None, f"{self.label}.d{a}")
        return self.partials[a]

    def __repr__(self):
        return self.label


class ProceduralField(SymbolicField):
    """A field given by functions of a Batch b: value_fn(b) gives the (m,)
    values, grad_fn(b) the (m, dim) first partials and hess_fn(b) the (m,
    dim, dim) second partials at the points b.X, e.g.
    `lambda b: np.exp(b.X[:, 1]) * b.X[:, 2]`. Rows a function cannot
    evaluate hold nan or inf, or are rejected in b; a function may
    evaluate other fields in b. Its tree is one call of their Kernel on the
    coordinates: it has as many orders of derivatives as it has functions
    for them."""

    def __init__(self, space: Space, value_fn, grad_fn=None, hess_fn=None):
        SymbolicField.__init__(self, space, ex.Call(
            Kernel(value_fn, grad_fn, hess_fn),
            tuple([ex.var(c) for c in space.coords])))

    # own entries, so that each class's eval, grad and diff can be wrapped
    eval, grad, diff = SymbolicField.eval, SymbolicField.grad, SymbolicField.diff

    def __repr__(self):
        return f"ProceduralField({self.space}, {self.expr.kernel})"


#: the fields of each procedural map, by its space and key: their call
#: nodes are interned for the whole process, so a map made again must give
#: the same kernels, not a new set of nodes each
_MAPS = {}


def procedural_map(space: Space, key, k: int, make) -> list:
    """The k fields on space of the procedural map named key (a hashable
    that fixes the map, such as its defining trees), made once per space
    and key for the process. make() gives (state, jacobian, hessian):
    state(b) runs once per Batch b, and its first item is the (m, k)
    values; jacobian(b, s) gives the (m, k, dim) first partials from that
    state s, and hessian(b, s, g) the (m, k, dim, dim) second partials from
    s and those first partials g, each also once per batch. Field i is
    entry i of all three."""
    if (space, key) not in _MAPS:
        state, jacobian, hessian = make()

        def values(b):  # the memo is keyed by the map's own functions
            return b.once(state, lambda: state(b))

        def grads(b):
            return b.once(jacobian, lambda: jacobian(b, values(b)))

        def hessians(b):
            return b.once(hessian, lambda: hessian(b, values(b), grads(b)))

        _MAPS[space, key] = [ProceduralField(
            space, lambda b, i=i: values(b)[0][:, i],
            lambda b, i=i: grads(b)[:, i, :],
            lambda b, i=i: hessians(b)[:, i]) for i in range(k)]
    return list(_MAPS[space, key])


# ---------------------------------------------------------------------------
# construction helpers

def parse_field(src: str, space: Space) -> SymbolicField:
    return SymbolicField(space, ex.parse_expr(src, space.coords))


def const_field(space: Space, v) -> SymbolicField:
    return SymbolicField(space, ex.const(v))


def coord_field(space: Space, name: str) -> SymbolicField:
    space.index(name)  # validates the name
    return SymbolicField(space, ex.var(name))


def zero(space: Space) -> SymbolicField:
    return const_field(space, 0.0)


def inject(f: ScalarField, dst: Space) -> ScalarField:
    """Reinterpret a field on a different space whose coordinate names are a
    superset of the field's own (pullback along the coordinate projection)."""
    if f.space is dst:
        return f
    missing = f.space.coord_set - dst.coord_set
    if missing:
        raise SpaceMismatchError(f"{dst} lacks coordinates {sorted(missing)}")
    return SymbolicField(dst, f.expr)


def compose(f: ScalarField, maps: list, src: Space) -> ScalarField:
    """The field f written in the source chart of a map: point x in src is
    sent to (maps[0](x), ..., maps[d-1](x)) in f's space, then f applies;
    f's tree with each coordinate replaced by its map's."""
    dst = f.space
    if len(maps) != dst.dim:
        raise SpaceMismatchError(
            f"map has {len(maps)} components, {dst} needs {dst.dim}")
    for m in maps:
        if m.space is not src:
            raise SpaceMismatchError("map components must live on the source space")
    mapping = {c: m.expr for c, m in zip(dst.coords, maps)}
    return SymbolicField(src, ex.substitute(f.expr, mapping))


def program(fields):
    """run(b): the (len(fields), m) values of the fields over a Batch b, one
    `expr.compile_batch` program on their space's coordinates, compiled
    here once; run rejects in b the rows it cannot evaluate. Raises
    SpaceMismatchError for fields on more than one space."""
    spaces = {f.space for f in fields}
    if len(spaces) > 1:
        raise SpaceMismatchError(
            f"fields on mixed spaces: {sorted(map(str, spaces))}")
    coords = spaces.pop().coords if spaces else ()
    return ex.compile_batch([f.expr for f in fields], coords)


def second_partials(fields):
    """run(b): the (m, len(fields), dim, dim) second partials of the fields
    by their space's coordinates over a Batch b, one `program` of the
    partials by each pair of coordinates a <= c, compiled here once."""
    coords = fields[0].space.coords
    A, C = np.triu_indices(len(coords))
    run = program([f.diff(coords[a]).diff(coords[c])
                   for f in fields for a, c in zip(A, C)])

    def hessians(b):
        out = np.empty((len(b.X), len(fields), len(coords), len(coords)))
        out[:, :, A, C] = out[:, :, C, A] = by_point(
            run(b), len(fields), len(A))
        return out
    return hessians


def by_point(values, *shape):
    """The (k, m) values of a program as the C-contiguous (m, *shape) array
    of each point's values: matmul and solve give one point's bits only on
    a contiguous stack."""
    return np.ascontiguousarray(values.T).reshape(-1, *shape)
