"""Scalar fields over a chart.

Two backends: symbolic expression trees (derivatives of any order, exact)
and procedural fields (a value function plus analytic first partials;
second derivatives fall back to central differences of the gradient).
Each backend owns its arithmetic: symbolic fields and numbers combine into
expression trees, and any procedural operand makes the result procedural
(the chain rule over values and gradients in ScalarField). A sum of
products, which is how the tensor calculus combines fields, is one
procedural field (`_proc_sum`): past its all-symbolic prefix it pushes
values and gradients through every term in one forward-mode step, with
the bits, rejected rows and errors of the chain of binary operators that
would fold it. Each procedural +, -, * and negation is such a node too,
and / a guarded quotient node.

Both backends are evaluated over a whole (m, dim) point array at once.
A `Batch` is one such evaluation: it keeps every value and gradient it
computes, so a node that many fields share runs once per point array, and
for each rejected row the error that evaluating that point alone raises.
A symbolic field runs its tree, or its gradient's trees, as one
`expr.compile_batch` program, compiled once per field, which names the
error of each row it rejects; a procedural second derivative evaluates the
parent gradient once, on the stacked shifted copies of the array.
`eval(point)` and `grad(point)` are the one-row case for every field.
"""
from __future__ import annotations

import numpy as np

from . import expr as ex
from .errors import OrderOverflowError, SpaceMismatchError
from .spaces import Space

#: central-difference step for procedural second derivatives
FD_STEP = 1e-5

#: order budget standing in for "any order" on the symbolic backend
_UNLIMITED = 10 ** 9


class Batch:
    """One evaluation over an (m, dim) point array X: the values and
    gradients computed so far, the rows rejected so far and, for each row
    rejected here, the error that evaluating that point alone raises (the
    first one met, in the order the one-point evaluation meets them).

    A child batch evaluates points derived from these (projected, mapped,
    shifted); its row r belongs to row rows[r] of its parent (row r when
    rows is None), and `absorb` passes its rejections up."""

    def __init__(self, X, rejected=None, rows=None):
        self.X = X
        self.values, self.grads, self.memo, self.errors = {}, {}, {}, {}
        self.rejected = (np.zeros(len(X), dtype=bool) if rejected is None
                         else rejected.copy())
        self.rows = rows

    def once(self, key, compute):
        """compute(), run once per key in this evaluation."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def point(self, i) -> tuple:
        return tuple(self.X[i].tolist())

    def reject(self, rows, error):
        """Reject the rows (indices) not rejected yet, row i with error(i)."""
        for i in np.asarray(rows, dtype=int).tolist():
            if not self.rejected[i]:
                self.rejected[i] = True
                self.errors[i] = error(i)

    def absorb(self, child):
        """Reject each row whose points in child were rejected, with the
        error of the first of them."""
        for r in sorted(child.errors):
            i = r if child.rows is None else int(child.rows[r])
            if not self.rejected[i]:
                self.rejected[i] = True
                self.errors[i] = child.errors[r]

    def on(self, key, points, fn, rows=None):
        """fn of the child batch over points() (made once per key; rows
        rejected here start rejected there), its rejections absorbed."""
        child = self.once(key, lambda: Batch(
            points(), self.rejected[slice(None) if rows is None else rows],
            rows))
        out = fn(child)
        self.absorb(child)
        return out


def at_point(point, fn):
    """fn of the one-row batch of point; the error that rejects the row, if
    one does."""
    b = Batch(np.array([point], dtype=float).reshape(1, -1))
    with np.errstate(all="ignore"):
        out = fn(b)
    if b.rejected[0]:
        raise b.errors[0]
    return out


# ---------------------------------------------------------------------------
# procedural combinators (chain rules over values and gradients)

def _proc_div(a, c):
    def den(b):
        cv = c._value(b)
        bad, error = ex.denominator_guard(cv)
        b.reject(np.flatnonzero(bad), error)
        return cv

    def grad(b):
        av, cv = a._value(b)[:, None], den(b)[:, None]
        return (a._grad(b) * cv - av * c._grad(b)) / (cv * cv)

    return ProceduralField(a.space, lambda b: a._value(b) / den(b), grad,
                           min(a.order_budget, c.order_budget, 2),
                           _on_batch=True)


def _proc_sum(acc, terms):
    """acc folded with the terms (sign, [f1, f2, ...]) bit for bit as the
    binary operators fold `acc = acc ± ((f1 * f2) * ...)`, but as one
    ProceduralField past the all-symbolic prefix, which is built as a tree
    (as each all-symbolic product is) while acc is symbolic. With acc None
    the sum has no start: it is its first term, p or -p, not 0 + p, so that
    signed zeros keep their bits. Past the prefix a term is its fields (the
    product's prefix, then each further factor), added negated for "-" and
    "+-", and each field is first evaluated in the operators' order, so
    that each rejected row keeps its first error. Every procedural +, -, *
    and negation is one such node."""
    parts = []  # (negated, fields) per term of the procedural part
    for sign, factors in terms:
        it = iter(factors)
        p, fs = next(it), None
        for f in it:
            if not (isinstance(p, SymbolicField) and isinstance(f, SymbolicField)):
                fs = [p, f, *it]
                break
            p = p * f
        if fs is None and isinstance(p, SymbolicField):
            if not parts and isinstance(acc, SymbolicField):
                acc = acc - p if sign == "-" else acc + (-p if sign == "+-" else p)
                continue
            p, sign = (p if sign == "+" else -p), "+"
        parts.append((sign != "+", fs or [p]))
    if not parts:
        return acc
    fields = [f for _, fs in parts for f in fs]
    start = fields[0] if acc is None else acc
    for f in fields:
        start._coerce(f)  # raises SpaceMismatchError on another space

    def value(b):
        v = None if acc is None else acc._value(b)
        for negated, fs in parts:
            p = fs[0]._value(b)
            for f in fs[1:]:
                p = p * f._value(b)
            p = -p if negated else p
            v = p if v is None else v + p
        return v

    def grad(b):
        g = None if acc is None else acc._grad(b)
        for negated, fs in parts:
            if len(fs) == 1:
                pg = fs[0]._grad(b)
            else:
                vs = [f._value(b) for f in fs]
                pv, pg = vs[0], fs[0]._grad(b)
                for f, fv in zip(fs[1:], vs[1:]):
                    pg = pg * fv[:, None] + pv[:, None] * f._grad(b)
                    pv = pv * fv
            pg = -pg if negated else pg
            g = pg if g is None else g + pg
        return g

    return ProceduralField(start.space, value, grad,
                           min([2] + [f.order_budget for f in [start, *fields]]),
                           _on_batch=True)


def _chain(combine):
    """A ScalarField operator: combine(self, other) once other is coerced."""
    def op(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else combine(self, other)
    return op


class ScalarField:
    """Common interface; concrete backends below."""

    space: Space
    variance = ""  # rank 0: no index, one component

    def _value(self, b: Batch) -> np.ndarray:
        """The (m,) values over batch b, computed once per batch; rows that
        cannot be evaluated are rejected in b."""
        v = b.values.get(self)
        if v is None:
            v = b.values[self] = self._batch_value(b)
        return v

    def _grad(self, b: Batch) -> np.ndarray:
        """The (m, dim) first partials over batch b, computed once."""
        g = b.grads.get(self)
        if g is None:
            g = b.grads[self] = self._batch_grad(b)
        return g

    def eval(self, point) -> float:
        return float(at_point(point, self._value)[0])

    def grad(self, point):
        """All first partials at a point, as a tuple."""
        return tuple(at_point(point, self._grad)[0].tolist())

    def components(self) -> list:
        """The scalar components: the field itself."""
        return [self]

    # -- arithmetic: the procedural chain rule (SymbolicField overrides it) --

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.space is not self.space:
                raise SpaceMismatchError(
                    f"cannot combine fields on {self.space} and {other.space}")
            return other
        if isinstance(other, (int, float)):
            return SymbolicField(self.space, ex.const(other))
        return NotImplemented

    __add__ = __radd__ = _chain(lambda a, c: _proc_sum(a, [("+", [c])]))
    __sub__ = _chain(lambda a, c: _proc_sum(a, [("-", [c])]))
    __mul__ = __rmul__ = _chain(lambda a, c: _proc_sum(None, [("+", [a, c])]))
    __truediv__ = _chain(_proc_div)
    __rtruediv__ = _chain(lambda a, c: c / a)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _proc_sum(None, [("-", [self])])


def _symbolic_op(build, procedural):
    """A SymbolicField operator: with a symbolic field on the same space or
    a number it builds the tree directly; anything else (a procedural
    field, another space, a foreign type) takes ScalarField's path."""
    def op(self, other):
        if isinstance(other, SymbolicField) and other.space is self.space:
            other = other.expr
        elif isinstance(other, (int, float)):
            other = ex.const(other)
        else:
            return procedural(self, other)
        return SymbolicField(self.space, build(self.expr, other))
    return op


class SymbolicField(ScalarField):
    def __init__(self, space: Space, expression: ex.Expr):
        if not expression.names <= space.coord_set:
            unknown = sorted(expression.names - space.coord_set)
            raise SpaceMismatchError(f"expression uses {unknown} not in {space}")
        self.space = space
        self.expr = expression

    __add__ = __radd__ = _symbolic_op(ex.add, ScalarField.__add__)
    __sub__ = _symbolic_op(ex.sub, ScalarField.__sub__)
    __mul__ = __rmul__ = _symbolic_op(ex.mul, ScalarField.__mul__)
    __truediv__ = _symbolic_op(ex.div, ScalarField.__truediv__)

    def __neg__(self):
        return SymbolicField(self.space, ex.neg(self.expr))

    # own entries, so that each class's eval and grad can be wrapped alone
    eval, grad = ScalarField.eval, ScalarField.grad

    def diff(self, coord: str) -> "SymbolicField":
        # the cache is made on the first diff: most fields never take one
        cache = self.__dict__.setdefault("_deriv_cache", {})
        if coord not in cache:
            self.space.index(coord)  # validates the name
            cache[coord] = SymbolicField(self.space, ex.differentiate(self.expr, coord))
        return cache[coord]

    def _rows(self, b, key, exprs):
        """The (len(exprs), m) values of exprs over batch b, compiled once
        per field."""
        if key not in self.__dict__:
            self.__dict__[key] = _compile(exprs, self.space.coords)
        values, _, errors = self.__dict__[key](b.X)
        b.reject(list(errors), errors.get)
        return values

    def _batch_value(self, b):
        return self._rows(b, "_run", [self.expr])[0]

    def _batch_grad(self, b):
        exprs = [self.diff(c).expr for c in self.space.coords]
        return self._rows(b, "_grad_run", exprs).T

    order_budget = _UNLIMITED

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


class ProceduralField(ScalarField):
    """A field given by functions of the point array: value_fn maps an
    (m, dim) array to the (m,) values and grad_fn to the (m, dim) first
    partials. Rows a function cannot evaluate hold nan or inf."""

    def __init__(self, space: Space, value_fn, grad_fn=None, order_budget=2,
                 _on_batch=False):
        # _on_batch: the functions take the Batch itself, so that they can
        # evaluate other fields in it and reject rows
        self.space = space
        if not _on_batch:
            value_fn = _over_points(value_fn)
            grad_fn = None if grad_fn is None else _over_points(grad_fn)
        self._batch_value = value_fn
        self._grad_fn = grad_fn
        self.order_budget = order_budget

    eval, grad = ScalarField.eval, ScalarField.grad

    def _batch_grad(self, b):
        if self._grad_fn is None:
            raise OrderOverflowError(
                "procedural field has no derivative information left")
        return self._grad_fn(b)

    def diff(self, coord: str) -> "ProceduralField":
        if self.order_budget <= 0 or self._grad_fn is None:
            raise OrderOverflowError(
                "procedural fields support derivatives up to order 2")
        k = self.space.index(coord)
        grad_fn = None
        if self.order_budget >= 2:
            def grad_fn(b):
                # the parent gradient at x + h e_j and x - h e_j for every j,
                # stacked in that order, in one child batch shared by every
                # second derivative over b
                m, dim = b.X.shape
                G = b.on("shifted", lambda: _shifted(b.X), self._grad,
                         np.tile(np.arange(m), 2 * dim))
                G = G[:, k].reshape(2 * dim, m)
                return ((G[0::2] - G[1::2]) / (2.0 * FD_STEP)).T
        return ProceduralField(self.space, lambda b: self._grad(b)[:, k],
                               grad_fn, self.order_budget - 1, _on_batch=True)

    def __repr__(self):
        return f"ProceduralField({self.space}, budget={self.order_budget})"


def _compile(exprs, coords):
    """expr.compile_batch, with the run of constants (most leaves of a
    procedural field) done without it."""
    if not all(isinstance(e, ex.Const) for e in exprs):
        return ex.compile_batch(exprs, coords)
    column = np.array([[e.value] for e in exprs])
    return lambda X: (column.repeat(len(X), axis=1),
                      np.zeros(len(X), dtype=bool), {})


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
    if isinstance(f, SymbolicField):
        return SymbolicField(dst, f.expr)
    idx = [dst.index(c) for c in f.space.coords]
    key = ("inject", tuple(idx))

    def grad(b):
        out = np.zeros((len(b.X), dst.dim))
        out[:, idx] = b.on(key, lambda: b.X[:, idx], f._grad)
        return out

    return ProceduralField(dst, lambda b: b.on(key, lambda: b.X[:, idx],
                                               f._value),
                           grad, f.order_budget, _on_batch=True)


def compose(f: ScalarField, maps: list, src: Space) -> ScalarField:
    """The field f written in the source chart of a map: point x in src is
    sent to (maps[0](x), ..., maps[d-1](x)) in f's space, then f applies.

    All-symbolic inputs compose by substitution; otherwise the chain rule
    runs over values and analytic first partials.
    """
    dst = f.space
    if len(maps) != dst.dim:
        raise SpaceMismatchError(
            f"map has {len(maps)} components, {dst} needs {dst.dim}")
    for m in maps:
        if m.space is not src:
            raise SpaceMismatchError("map components must live on the source space")
    if isinstance(f, SymbolicField) and all(isinstance(m, SymbolicField) for m in maps):
        mapping = {c: m.expr for c, m in zip(dst.coords, maps)}
        return SymbolicField(src, ex.substitute(f.expr, mapping))

    budget = min([f.order_budget] + [m.order_budget for m in maps] + [2])
    key = ("compose",) + tuple(map(id, maps))

    def on_mapped(b, fn):
        return b.on(key, lambda: np.column_stack([m._value(b) for m in maps]),
                    fn)

    def grad(b):
        fg = on_mapped(b, f._grad)
        mg = [m._grad(b) for m in maps]
        acc = 0.0  # summed left to right, as sum() would
        for a in range(dst.dim):
            acc = acc + fg[:, a, None] * mg[a]
        return acc

    return ProceduralField(src, lambda b: on_mapped(b, f._value), grad,
                           budget, _on_batch=True)


def is_symbolically_zero(f: ScalarField) -> bool:
    return isinstance(f, SymbolicField) and f.is_zero


def is_symbolically_one(f: ScalarField) -> bool:
    return isinstance(f, SymbolicField) and f.is_one


def evaluate_batch(fields, points):
    """The (len(fields), m) values of the fields at an (m, dim) point array,
    evaluated in one shared Batch, and that Batch: its rejected rows, and
    the error evaluating each of them alone raises."""
    b = Batch(np.asarray(points, dtype=float))
    with np.errstate(all="ignore"):
        values = np.array([f._value(b) for f in fields]).reshape(len(fields), -1)
    return values, b
