"""Scalar fields over a chart.

Two backends: symbolic expression trees (derivatives of any order, exact)
and procedural fields (a value function plus analytic first partials;
second derivatives fall back to central differences of the gradient).
Each backend owns its arithmetic: symbolic fields and numbers combine into
expression trees, and any procedural operand makes the result procedural
(the chain rule over values and gradients in ScalarField).
"""
from __future__ import annotations

import functools

from . import expr as ex
from .errors import OrderOverflowError, SpaceMismatchError
from .spaces import Space

#: central-difference step for procedural second derivatives
FD_STEP = 1e-5

#: order budget standing in for "any order" on the symbolic backend
_UNLIMITED = 10 ** 9


def _shift(point, j, h):
    p = list(point)
    p[j] += h
    return tuple(p)


class ScalarField:
    """Common interface; concrete backends below."""

    space: Space

    def eval(self, point) -> float:
        raise NotImplementedError

    def components(self) -> list:
        """The scalar components: the field itself."""
        return [self]

    def diff(self, coord: str) -> "ScalarField":
        raise NotImplementedError

    def grad(self, point):
        """All first partials at a point, as a tuple."""
        raise NotImplementedError

    @property
    def order_budget(self) -> int:
        raise NotImplementedError

    # -- arithmetic: the procedural chain rule (SymbolicField overrides it) --

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.space != self.space:
                raise SpaceMismatchError(
                    f"cannot combine fields on {self.space} and {other.space}")
            return other
        if isinstance(other, (int, float)):
            return SymbolicField(self.space, ex.const(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _proc_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _proc_add(self, -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _proc_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _proc_div(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ProceduralField(
            self.space,
            lambda pt, f=self: -f.eval(pt),
            lambda pt, f=self: tuple(-g for g in f.grad(pt)),
            self.order_budget,
        )


def _symbolic_op(build, procedural):
    """A SymbolicField operator: with a symbolic field on the same space or
    a number it builds the tree directly; anything else (a procedural
    field, another space, a foreign type) takes ScalarField's path."""
    def op(self, other):
        if isinstance(other, SymbolicField) and (
                other.space is self.space or other.space == self.space):
            other = other.expr
        elif isinstance(other, (int, float)):
            other = ex.const(other)
        else:
            return procedural(self, other)
        return SymbolicField(self.space, build(self.expr, other), True)
    return op


class SymbolicField(ScalarField):
    def __init__(self, space: Space, expression: ex.Expr, _checked=False):
        # _checked: built from fields already validated on this space, so
        # the expression cannot name a coordinate outside it
        if not _checked:
            unknown = ex.variables(expression) - set(space.coords)
            if unknown:
                raise SpaceMismatchError(
                    f"expression uses {sorted(unknown)} not in {space}")
        self.space = space
        self.expr = expression
        self._deriv_cache: dict[str, "SymbolicField"] = {}

    def _derived(self, expression: ex.Expr) -> "SymbolicField":
        return SymbolicField(self.space, expression, _checked=True)

    __add__ = __radd__ = _symbolic_op(ex.add, ScalarField.__add__)
    __sub__ = _symbolic_op(ex.sub, ScalarField.__sub__)
    __mul__ = __rmul__ = _symbolic_op(ex.mul, ScalarField.__mul__)
    __truediv__ = _symbolic_op(ex.div, ScalarField.__truediv__)

    def __neg__(self):
        return SymbolicField(self.space, ex.neg(self.expr), True)

    def eval(self, point) -> float:
        return ex.evaluate(self.expr, dict(zip(self.space.coords, point)))

    def diff(self, coord: str) -> "SymbolicField":
        if coord not in self._deriv_cache:
            self.space.index(coord)  # validates the name
            self._deriv_cache[coord] = self._derived(
                ex.differentiate(self.expr, coord))
        return self._deriv_cache[coord]

    def grad(self, point):
        return tuple(self.diff(c).eval(point) for c in self.space.coords)

    @property
    def order_budget(self) -> int:
        return _UNLIMITED

    @property
    def is_zero(self) -> bool:
        return self.expr == ex.ZERO or self.expr == ex.Const(-0.0)

    @property
    def is_one(self) -> bool:
        return self.expr == ex.ONE

    def __str__(self):
        return ex.to_string(self.expr)

    def __repr__(self):
        return f"SymbolicField({self.space}, {self})"


class ProceduralField(ScalarField):
    def __init__(self, space: Space, value_fn, grad_fn=None, order_budget=2):
        self.space = space
        # Procedural fields form shared DAGs (e.g. one Jacobian entry feeding
        # many pushed-tensor components), so memoize per point at every node.
        self._value_fn = functools.lru_cache(maxsize=512)(value_fn)
        self._grad_fn = (None if grad_fn is None
                         else functools.lru_cache(maxsize=512)(grad_fn))
        self._budget = order_budget

    def eval(self, point) -> float:
        return self._value_fn(tuple(point))

    def grad(self, point):
        if self._grad_fn is None:
            raise OrderOverflowError(
                "procedural field has no derivative information left")
        return tuple(self._grad_fn(tuple(point)))

    @property
    def order_budget(self) -> int:
        return self._budget

    def diff(self, coord: str) -> "ProceduralField":
        if self._budget <= 0 or self._grad_fn is None:
            raise OrderOverflowError(
                "procedural fields support derivatives up to order 2")
        k = self.space.index(coord)
        gf = self._grad_fn
        value_fn = lambda pt: gf(pt)[k]
        if self._budget >= 2:
            dim = self.space.dim
            grad_fn = lambda pt: tuple(
                (gf(_shift(pt, j, FD_STEP))[k] - gf(_shift(pt, j, -FD_STEP))[k])
                / (2.0 * FD_STEP)
                for j in range(dim))
        else:
            grad_fn = None
        return ProceduralField(self.space, value_fn, grad_fn, self._budget - 1)

    def __repr__(self):
        return f"ProceduralField({self.space}, budget={self._budget})"


# ---------------------------------------------------------------------------
# procedural combinators (chain rules over eval/grad)

def _min_budget(a: ScalarField, b: ScalarField) -> int:
    return min(a.order_budget, b.order_budget)


def _proc_add(a, b):
    def value(pt):
        return a.eval(pt) + b.eval(pt)

    def grad(pt):
        return tuple(x + y for x, y in zip(a.grad(pt), b.grad(pt)))

    return ProceduralField(a.space, value, grad, min(_min_budget(a, b), 2))


def _proc_mul(a, b):
    def value(pt):
        return a.eval(pt) * b.eval(pt)

    def grad(pt):
        av, bv = a.eval(pt), b.eval(pt)
        return tuple(ag * bv + av * bg for ag, bg in zip(a.grad(pt), b.grad(pt)))

    return ProceduralField(a.space, value, grad, min(_min_budget(a, b), 2))


def _proc_div(a, b):
    from .errors import SingularPointError

    def _den(pt):
        bv = b.eval(pt)
        if abs(bv) < ex.SINGULAR_GUARD:
            raise SingularPointError(f"denominator {bv} below guard")
        return bv

    def value(pt):
        return a.eval(pt) / _den(pt)

    def grad(pt):
        av, bv = a.eval(pt), _den(pt)
        return tuple((ag * bv - av * bg) / (bv * bv)
                     for ag, bg in zip(a.grad(pt), b.grad(pt)))

    return ProceduralField(a.space, value, grad, min(_min_budget(a, b), 2))


# ---------------------------------------------------------------------------
# construction helpers

def parse_field(src: str, space: Space) -> SymbolicField:
    return SymbolicField(space, ex.parse_expr(src, space.coords))


def const_field(space: Space, v) -> SymbolicField:
    return SymbolicField(space, ex.const(v))


def coord_field(space: Space, name: str) -> SymbolicField:
    space.index(name)
    return SymbolicField(space, ex.var(name))


def zero(space: Space) -> SymbolicField:
    return const_field(space, 0.0)


def inject(f: ScalarField, dst: Space) -> ScalarField:
    """Reinterpret a field on a different space whose coordinate names are a
    superset of the field's own (pullback along the coordinate projection)."""
    if f.space == dst:
        return f
    missing = set(f.space.coords) - set(dst.coords)
    if missing:
        raise SpaceMismatchError(f"{dst} lacks coordinates {sorted(missing)}")
    if isinstance(f, SymbolicField):
        return SymbolicField(dst, f.expr)
    idx = [dst.index(c) for c in f.space.coords]
    scatter = {src_i: dst_i for src_i, dst_i in enumerate(idx)}

    def project(pt):
        return tuple(pt[i] for i in idx)

    def value(pt):
        return f.eval(project(pt))

    def grad(pt):
        g = f.grad(project(pt))
        out = [0.0] * dst.dim
        for src_i, dst_i in scatter.items():
            out[dst_i] = g[src_i]
        return tuple(out)

    return ProceduralField(dst, value, grad, f.order_budget)


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
        if m.space != src:
            raise SpaceMismatchError("map components must live on the source space")
    if isinstance(f, SymbolicField) and all(isinstance(m, SymbolicField) for m in maps):
        mapping = {c: m.expr for c, m in zip(dst.coords, maps)}
        return SymbolicField(src, ex.substitute(f.expr, mapping))

    budget = min([f.order_budget] + [m.order_budget for m in maps] + [2])

    def mapped(pt):
        return tuple(m.eval(pt) for m in maps)

    def value(pt):
        return f.eval(mapped(pt))

    def grad(pt):
        y = mapped(pt)
        fg = f.grad(y)
        mg = [m.grad(pt) for m in maps]
        return tuple(
            sum(fg[a] * mg[a][j] for a in range(dst.dim))
            for j in range(src.dim))

    return ProceduralField(src, value, grad, budget)


def is_symbolically_zero(f: ScalarField) -> bool:
    return isinstance(f, SymbolicField) and f.is_zero


def is_symbolically_one(f: ScalarField) -> bool:
    return isinstance(f, SymbolicField) and f.is_one
