"""The scalar evaluator that `jetlift.expr` replaced by the compiled program,
kept verbatim as a differential oracle: `evaluate` walks a tree once per
point and raises the first guard error it meets, which `compile_batch`
must name for that point.
"""
import math

from jetlift.errors import DomainError, ExprError, SingularPointError
from jetlift.expr import (SINGULAR_GUARD, Binary, Const, Expr, Pow, Unary, Var,
                          _postorder)


def evaluate(e: Expr, env: dict) -> float:
    """The value of e with the variables set from env, each node computed
    once; raises the guard error a left-to-right recursive evaluation would
    raise first."""
    value = {}
    for node in _postorder((e,)):
        value[node] = _value(node, env, value)
    return value[e]


def _value(e: Expr, env: dict, value: dict) -> float:
    """The value of the node e, given those of its children in value."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Unary):
        u = value[e.arg]
        if e.op == "neg":
            return -u
        if e.op == "log":
            if u <= 0.0:
                raise DomainError(f"log of non-positive value {u}")
            return math.log(u)
        if e.op == "sqrt":
            if u < 0.0:
                raise DomainError(f"sqrt of negative value {u}")
            return math.sqrt(u)
        try:
            return getattr(math, e.op)(u)
        except ValueError:  # sin or cos of an infinite value
            raise DomainError(f"{e.op} of {u}") from None
    if isinstance(e, Binary):
        a, b = value[e.left], value[e.right]
        if e.op == "add":
            return a + b
        if e.op == "sub":
            return a - b
        if e.op == "mul":
            return a * b
        if abs(b) < SINGULAR_GUARD:
            raise SingularPointError(f"denominator {b} below guard {SINGULAR_GUARD}")
        return a / b
    if isinstance(e, Pow):
        b = value[e.base]
        r = e.exponent
        if r.denominator != 1 and b < 0.0:
            raise DomainError(f"fractional power of negative base {b}")
        if r < 0 and abs(b) < SINGULAR_GUARD:
            raise SingularPointError(f"base {b} below guard for negative power")
        return b ** float(r)
    raise ExprError(f"unknown node {e!r}")
