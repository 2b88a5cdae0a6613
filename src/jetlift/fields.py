"""Scalar fields over a chart.

Every scalar field is a symbolic expression tree, and fields and numbers
combine into trees. A procedural field (a value function plus analytic
first partials; second derivatives fall back to central differences of
the gradient) is the tree of one `expr.Call` on its chart's coordinates:
its `Kernel` holds the functions and the order budget. Sums, products,
quotients, `compose` and `inject` of procedural fields are tree operations
like any other, and a derivative applies the chain rule through the tree.

Fields are evaluated over a whole (m, dim) point array at once, in a
`Batch`: it keeps what each kernel computes, so a kernel that many fields
share runs once per point array, and for each rejected row the error that
evaluating that point alone raises. The unit of evaluation is a list of
fields on one space: `program(fields)` compiles their trees into one
`expr.compile_batch` program, built once where the list is, whose run(b)
gives their values over a Batch b. A procedural second derivative
evaluates the parent gradient once, on the stacked shifted copies of the
array. `evaluate(points, fn)` runs fn on a Batch of points and raises the
error of the first row it rejects; `eval(point)` and `grad(point)` are its
one-row case for every field, compiled per call.
"""
from __future__ import annotations

import numpy as np

from . import expr as ex
from .errors import OrderOverflowError, SpaceMismatchError
from .expr import Batch
from .spaces import Space

#: central-difference step for procedural second derivatives
FD_STEP = 1e-5


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
    values and grad_fn(b) the (m, k) partials by its k arguments over a
    Batch b of argument points (rows they cannot evaluate hold nan or inf,
    or are rejected in b), each computed once per batch. budget is the
    number of derivative orders left; a partial past the first takes the
    central difference of its parent's gradient."""

    def __init__(self, value_fn, grad_fn, budget, label="procedural"):
        self.value_fn, self.grad_fn, self.budget = value_fn, grad_fn, budget
        self.partials, self.label = {}, label

    def value(self, b):
        return b.once((self, "value"), lambda: self.value_fn(b))

    def grad(self, b):
        return b.once((self, "grad"), lambda: self.grad_fn(b))

    def partial(self, a: int) -> "Kernel":
        """The kernel of the partial by argument a, made once."""
        if a not in self.partials:
            if self.budget <= 0 or self.grad_fn is None:
                raise OrderOverflowError(
                    "procedural fields support derivatives up to order 2")
            grad_fn = None
            if self.budget >= 2:
                def grad_fn(b):
                    # the parent gradient at x + h e_j and x - h e_j for
                    # every j, stacked in that order, in one child batch
                    # shared by every second derivative over b
                    m, dim = b.X.shape
                    G = b.on("shifted", lambda: _shifted(b.X), self.grad,
                             np.tile(np.arange(m), 2 * dim))
                    G = G[:, a].reshape(2 * dim, m)
                    return ((G[0::2] - G[1::2]) / (2.0 * FD_STEP)).T
            self.partials[a] = Kernel(lambda b: self.grad(b)[:, a], grad_fn,
                                      self.budget - 1, f"{self.label}.d{a}")
        return self.partials[a]

    def __repr__(self):
        return self.label


class ProceduralField(SymbolicField):
    """A field given by functions of the point array: value_fn maps an
    (m, dim) array to the (m,) values and grad_fn to the (m, dim) first
    partials. Rows a function cannot evaluate hold nan or inf. Its tree is
    one call of their Kernel, of order budget 2, on the coordinates."""

    def __init__(self, space: Space, value_fn, grad_fn=None, _on_batch=False):
        # _on_batch: the functions take the Batch itself, so that they can
        # evaluate other fields in it and reject rows
        if not _on_batch:
            value_fn = _over_points(value_fn)
            grad_fn = None if grad_fn is None else _over_points(grad_fn)
        kernel = Kernel(value_fn, grad_fn, 2)
        SymbolicField.__init__(self, space, ex.Call(
            kernel, tuple([ex.var(c) for c in space.coords])))

    # own entries, so that each class's eval, grad and diff can be wrapped
    eval, grad, diff = SymbolicField.eval, SymbolicField.grad, SymbolicField.diff

    def __repr__(self):
        return f"ProceduralField({self.space}, budget={self.expr.kernel.budget})"


def _over_points(fn):
    return lambda b: np.asarray(fn(b.X), dtype=float)


def _shifted(X):
    """2 * dim copies of X stacked: copy 2j shifted by +FD_STEP and copy
    2j + 1 by -FD_STEP in coordinate j."""
    m, dim = X.shape
    Y, j = np.tile(X, (2 * dim, 1, 1)), np.arange(dim)
    Y[2 * j, :, j] += FD_STEP
    Y[2 * j + 1, :, j] -= FD_STEP
    return Y.reshape(2 * dim * m, dim)


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


def by_point(values, *shape):
    """The (k, m) values of a program as the C-contiguous (m, *shape) array
    of each point's values: matmul and solve give one point's bits only on
    a contiguous stack."""
    return np.ascontiguousarray(values.T).reshape(-1, *shape)


def evaluate_batch(fields, points):
    """The (len(fields), m) values of the fields at an (m, dim) point array,
    evaluated in one Batch, and that Batch: its rejected rows, and the
    error evaluating each of them alone raises."""
    b = Batch(np.asarray(points, dtype=float))
    with np.errstate(all="ignore"):
        return program(fields)(b), b
