"""Expression trees: parsing, printing, exact differentiation, evaluation.

The grammar is deliberately small; identity checking elsewhere is done by
random-point evaluation, so simplification here is best-effort only
(constant folding and 0/1 absorption), never a proof of equality.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    ExprError,
    ParseError,
    SingularPointError,
    UnknownIdentifierError,
)

#: denominators smaller than this in magnitude raise SingularPointError
SINGULAR_GUARD = 1e-6

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # neg | sin | cos | exp | log | sqrt
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # add | sub | mul | div
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# ---------------------------------------------------------------------------
# smart constructors (constant folding, 0/1 absorption)

def const(v) -> Const:
    return Const(float(v))


def var(name: str) -> Var:
    return Var(name)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if a == b:
        return ZERO
    return Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        raise ExprError("division by the constant zero")
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return Binary("div", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def powr(base: Expr, exponent: Fraction) -> Expr:
    exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        try:
            return Const(base.value ** float(exponent))
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    return Pow(base, exponent)


def fn(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ExprError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        try:
            return Const(getattr(math, name)(arg.value))
        except ValueError:
            pass
    return Unary(name, arg)


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr, name: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Unary):
        du = differentiate(e.arg, name)
        u = e.arg
        if e.op == "neg":
            return neg(du)
        if e.op == "sin":
            return mul(fn("cos", u), du)
        if e.op == "cos":
            return neg(mul(fn("sin", u), du))
        if e.op == "exp":
            return mul(fn("exp", u), du)
        if e.op == "log":
            return div(du, u)
        if e.op == "sqrt":
            return div(du, mul(Const(2.0), fn("sqrt", u)))
        raise ExprError(f"cannot differentiate {e.op!r}")
    if isinstance(e, Binary):
        da = differentiate(e.left, name)
        db = differentiate(e.right, name)
        a, b = e.left, e.right
        if e.op == "add":
            return add(da, db)
        if e.op == "sub":
            return sub(da, db)
        if e.op == "mul":
            return add(mul(da, b), mul(a, db))
        if e.op == "div":
            return div(sub(mul(da, b), mul(a, db)), powr(b, Fraction(2)))
        raise ExprError(f"cannot differentiate {e.op!r}")
    if isinstance(e, Pow):
        db = differentiate(e.base, name)
        r = e.exponent
        return mul(mul(Const(float(r)), powr(e.base, r - 1)), db)
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: Expr, env: dict) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Unary):
        u = evaluate(e.arg, env)
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
        a = evaluate(e.left, env)
        b = evaluate(e.right, env)
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
        b = evaluate(e.base, env)
        r = e.exponent
        if r.denominator != 1 and b < 0.0:
            raise DomainError(f"fractional power of negative base {b}")
        if r < 0 and abs(b) < SINGULAR_GUARD:
            raise SingularPointError(f"base {b} below guard for negative power")
        return b ** float(r)
    raise ExprError(f"unknown node {e!r}")


# Transcendental functions and powers are applied per element through the
# scalar Python operations, so that batched values are bit-identical to
# `evaluate` (numpy's vectorized exp, log and power can differ from them in
# the last bit).
_MATH_UFUNCS = {name: np.frompyfunc(getattr(math, name), 1, 1)
                for name in ("sin", "cos", "exp", "log")}
_POW_UFUNC = np.frompyfunc(operator.pow, 2, 1)


def _pointwise(fn, ufunc, u, *args):
    """fn(x, *args) for every element x of u, as a float array, and the mask
    of the elements where fn raised ValueError or OverflowError (those hold
    nan)."""
    raised = np.zeros(len(u), dtype=bool)
    try:
        return ufunc(u, *args).astype(float), raised
    except (ValueError, OverflowError):
        pass
    out = np.empty(len(u))
    for i, x in enumerate(u.tolist()):
        try:
            out[i] = fn(x, *args)
        except (ValueError, OverflowError):
            out[i] = math.nan
            raised[i] = True
    return out, raised


def _compile(roots, column: dict):
    """A topologically ordered program computing every root, with each node
    shared by identity or by structure computed once. Instructions are
    (op, payload, argument slots); returns the program and the root slots."""
    program = []
    slot_of = {}  # id(node) -> slot
    by_key = {}   # structural key -> slot

    def visit(e):
        slot = slot_of.get(id(e))
        if slot is not None:
            return slot
        if isinstance(e, Const):
            ins = ("const", e.value, ())
            # the sign keeps 0.0 and -0.0 apart, which compare equal
            key = ins + (math.copysign(1.0, e.value),)
        elif isinstance(e, Var):
            ins = key = ("var", column[e.name], ())
        elif isinstance(e, Unary):
            ins = key = (e.op, None, (visit(e.arg),))
        elif isinstance(e, Binary):
            ins = key = (e.op, None, (visit(e.left), visit(e.right)))
        elif isinstance(e, Pow):
            ins = key = ("pow", e.exponent, (visit(e.base),))
        else:
            raise ExprError(f"unknown node {e!r}")
        slot = by_key.get(key)
        if slot is None:
            slot = by_key[key] = len(program)
            program.append(ins)
        slot_of[id(e)] = slot
        return slot

    return program, [visit(r) for r in roots]


def compile_batch(roots, coords):
    """Compile the root expressions, over the coordinates coords, into one
    program, and return run(points) that evaluates every root at every
    point in one pass.

    points is an (m, len(coords)) array. run returns the (len(roots), m)
    values and an (m,) mask of rejected points: those at which `evaluate`
    would raise a guard error for some root, a value overflows, or some
    root is not finite. Values are bit-identical to `evaluate` at every
    point that is not rejected.
    """
    program, out_slots = _compile(roots, {c: j for j, c in enumerate(coords)})
    return functools.partial(_run, program, out_slots)


def _run(program, out_slots, points):
    X = np.asarray(points, dtype=float)
    m = len(X)
    vals = []
    rejected = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        for op, payload, args in program:
            u = vals[args[0]] if args else None
            if op == "const":
                v = np.full(m, payload)
            elif op == "var":
                v = X[:, payload]
            elif op == "neg":
                v = -u
            elif op == "add":
                v = u + vals[args[1]]
            elif op == "sub":
                v = u - vals[args[1]]
            elif op == "mul":
                v = u * vals[args[1]]
            elif op == "div":
                w = vals[args[1]]
                rejected |= np.abs(w) < SINGULAR_GUARD
                v = u / w
            elif op == "sqrt":
                rejected |= u < 0.0
                v = np.sqrt(u)
            elif op == "pow":
                bad = np.zeros(m, dtype=bool)
                if payload.denominator != 1:
                    bad |= u < 0.0
                if payload < 0:
                    bad |= np.abs(u) < SINGULAR_GUARD
                v, raised = _pointwise(operator.pow, _POW_UFUNC,
                                       np.where(bad, 1.0, u), float(payload))
                rejected |= bad | raised
            elif op in _MATH_UFUNCS:
                if op == "log":
                    bad = u <= 0.0
                    rejected |= bad
                    u = np.where(bad, 1.0, u)
                v, raised = _pointwise(getattr(math, op), _MATH_UFUNCS[op], u)
                rejected |= raised
            else:
                raise ExprError(f"cannot evaluate {op!r}")
            vals.append(v)
        values = np.array([vals[s] for s in out_slots])
        values = values.reshape(len(out_slots), m)
        rejected |= ~np.isfinite(values).all(axis=0)
    return values, rejected


def variables(e: Expr) -> set:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return variables(e.arg)
    if isinstance(e, Binary):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Pow):
        return variables(e.base)
    return set()


def substitute(e: Expr, mapping: dict) -> Expr:
    """Rebuild e with every variable replaced by mapping[name] (an Expr)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping[e.name]
    if isinstance(e, Unary):
        u = substitute(e.arg, mapping)
        return neg(u) if e.op == "neg" else fn(e.op, u)
    if isinstance(e, Binary):
        a = substitute(e.left, mapping)
        b = substitute(e.right, mapping)
        return {"add": add, "sub": sub, "mul": mul, "div": div}[e.op](a, b)
    if isinstance(e, Pow):
        return powr(substitute(e.base, mapping), e.exponent)
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# printing

def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt_exponent(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


# precedence levels: add/sub 1, mul/div 2, pow base 4, atom 5
def _render(e: Expr, ctx: int) -> str:
    if isinstance(e, Const):
        s = _fmt_number(e.value)
        # a leading '-' is a legal 'base', but must be shielded from '^'
        if e.value < 0 and ctx >= 4:
            return f"({s})"
        return s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = e.arg
            if isinstance(inner, (Binary, Pow)):
                s = f"-({_render(inner, 0)})"
            else:
                s = f"-{_render(inner, 4)}"
            return f"({s})" if ctx >= 4 else s
        return f"{e.op}({_render(e.arg, 0)})"
    if isinstance(e, Binary):
        if e.op in ("add", "sub"):
            sym = "+" if e.op == "add" else "-"
            s = f"{_render(e.left, 1)} {sym} {_render(e.right, 2)}"
            return f"({s})" if ctx >= 2 else s
        sym = "*" if e.op == "mul" else "/"
        # the left side of '/' needs ctx 3: a trailing '^k' there would
        # otherwise swallow the slash into a rational exponent on re-parse
        left_ctx = 3 if e.op == "div" else 2
        s = f"{_render(e.left, left_ctx)}{sym}{_render(e.right, 3)}"
        return f"({s})" if ctx >= 3 else s
    if isinstance(e, Pow):
        s = f"{_render(e.base, 4)}^{_fmt_exponent(e.exponent)}"
        return f"({s})" if ctx >= 3 else s
    raise ExprError(f"unknown node {e!r}")


def to_string(e: Expr) -> str:
    return _render(e, 0)


# ---------------------------------------------------------------------------
# parsing

class _Tokenizer:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def _skip(self, ok) -> bool:
        """Advance past the characters ok accepts; whether there were any."""
        start = self.pos
        while self.pos < len(self.src) and ok(self.src[self.pos]):
            self.pos += 1
        return self.pos > start

    def skip_ws(self):
        self._skip(str.isspace)

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else None

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        src = self.src
        self._skip(str.isdigit)
        if self.pos < len(src) and src[self.pos] == ".":
            self.pos += 1
            self._skip(str.isdigit)
        if self.pos < len(src) and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(src) and src[self.pos] in "+-":
                self.pos += 1
            if not self._skip(str.isdigit):
                self.pos = mark  # not an exponent, e.g. '2*exp(t)'
        if self.pos == start:
            raise ParseError("expected a number", start)
        return float(src[start:self.pos])

    def _span(self, ok, what) -> str:
        self.skip_ws()
        start = self.pos
        if not self._skip(ok):
            raise ParseError(f"expected {what}", start)
        return self.src[start:self.pos]

    def integer(self) -> int:
        return int(self._span(str.isdigit, "an integer"))

    def ident(self) -> str:
        return self._span(lambda ch: ch.isalnum() or ch == "_", "an identifier")


class _Parser:
    def __init__(self, src: str, coords):
        self.tok = _Tokenizer(src)
        self.coords = set(coords)

    def parse(self) -> Expr:
        e = self.expr()
        self.tok.skip_ws()
        if self.tok.pos != len(self.tok.src):
            raise ParseError(
                f"unexpected input {self.tok.src[self.tok.pos]!r}", self.tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.tok.peek() in ("+", "-"):
            op = self.tok.peek()
            self.tok.pos += 1
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.tok.peek() in ("*", "/"):
            op = self.tok.peek()
            self.tok.pos += 1
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.tok.peek() == "^":
            self.tok.pos += 1
            e = powr(e, self.rational())
        return e

    def rational(self) -> Fraction:
        sign = 1
        if self.tok.peek() == "-":
            self.tok.pos += 1
            sign = -1
        pos = self.tok.pos
        ch = self.tok.peek()
        if ch is None or not ch.isdigit():
            raise ParseError("exponent must be a rational constant", pos)
        num = self.tok.integer()
        if self.tok.peek() == "/":
            self.tok.pos += 1
            den = self.tok.integer()
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def base(self) -> Expr:
        ch = self.tok.peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.tok.pos)
        if ch == "-":
            self.tok.pos += 1
            return neg(self.base())
        if ch == "(":
            self.tok.pos += 1
            e = self.expr()
            if self.tok.peek() != ")":
                raise ParseError("expected ')'", self.tok.pos)
            self.tok.pos += 1
            return e
        if ch.isdigit() or ch == ".":
            return const(self.tok.number())
        if ch.isalpha():
            pos = self.tok.pos
            name = self.tok.ident()
            if name in FUNCTIONS:
                if self.tok.peek() != "(":
                    raise ParseError(f"expected '(' after {name!r}", self.tok.pos)
                self.tok.pos += 1
                arg = self.expr()
                if self.tok.peek() != ")":
                    raise ParseError("expected ')'", self.tok.pos)
                self.tok.pos += 1
                return fn(name, arg)
            if name not in self.coords:
                raise UnknownIdentifierError(f"unknown identifier {name!r}", pos)
            return var(name)
        raise ParseError(f"unexpected character {ch!r}", self.tok.pos)


def parse_expr(src: str, coords) -> Expr:
    """Parse src against the given coordinate names."""
    return _Parser(src, coords).parse()
