"""Expression trees: parsing, printing, exact differentiation, evaluation.

The grammar is deliberately small; identity checking elsewhere is done by
random-point evaluation, so simplification here is best-effort only
(constant folding and 0/1 absorption), never a proof of equality.

Besides the grammar's nodes, a `Call` applies a procedural kernel (an
eigenvalue, a Newton inverse) to argument trees: an elemental function
with a supplied gradient and Hessian, differentiated by the chain rule
over its arguments and evaluated by its kernel over a whole `Batch`.
Every scalar field is a tree, procedural or not. A call prints, but its
text does not parse back: the printer's parse-back rule covers trees
without calls.

Nodes are interned, so a tree is a DAG. Differentiation, evaluation and
substitution visit it by one iterative post-order walk (`_postorder`),
each node once and without a Python frame per level. There is one
evaluator: `compile_batch`'s program is the roots' nodes in post-order,
each run once over a `Batch` of points, all at once, which rejects each
point where a guard fails with the error the roots evaluated alone at
that point would raise first; a one-point evaluation is its one-row case.
Derivatives (by node and name), gradient rows (by node and coordinates)
and substitutes (by node and mapping) are memoised for the whole process
beside the intern table: each is made at most once, and the same tree
always gives the same node. The printer and the parser keep their own
stacks too, so no function here calls itself and a tree or a text may be
nested to any depth.
"""
from __future__ import annotations

import functools
import math
import operator
import re
import struct
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    ExprError,
    NonFiniteError,
    ParseError,
    SingularPointError,
    SpaceMismatchError,
    UnknownIdentifierError,
)

#: denominators smaller than this in magnitude raise SingularPointError
SINGULAR_GUARD = 1e-6

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class Expr:
    """An expression node, interned: the same class and fields (children by
    identity, a constant's value with its sign, a nan by its bits) give the
    same object, so equality and hashing are identity, and nodes are
    immutable, as every tree that uses one shares it. `names` is the
    frozenset of variable names a node uses."""

    __slots__ = ("names",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        return _NODES.get(key) or _node(key, fields)

    def __setattr__(self, name, *value):
        raise AttributeError(f"expression nodes are immutable: {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"{type(self).__name__}({to_string(self)!r})"


_NODES = {}  # (class, fields) -> node, for the whole process
_NAMES = {}  # the name sets of nodes, interned
NON_FINITE = set()  # the constants whose value is inf or nan
HOLDS_NON_FINITE = set()  # the nodes with such a constant in their tree


def _node(key, fields):
    """A new node of class key[0] with these fields, entered in _NODES."""
    cls = key[0]
    node = _NODES[key] = object.__new__(cls)
    names = frozenset(fields if cls is Var else ())
    holds = False
    for slot, value in zip(cls.__slots__, fields):
        object.__setattr__(node, slot, value)
        if isinstance(value, Expr):
            names |= value.names
            holds = holds or value in HOLDS_NON_FINITE
    for arg in fields[1] if cls is Call else ():
        names |= arg.names
        holds = holds or arg in HOLDS_NON_FINITE
    object.__setattr__(node, "names", _NAMES.setdefault(names, names))
    if cls is Const and fields[0] - fields[0] != 0.0:
        NON_FINITE.add(node)
        holds = True
    if holds:
        HOLDS_NON_FINITE.add(node)
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        # a zero's key carries its sign, as 0.0 and -0.0 are equal floats,
        # and a nan's key is its IEEE bytes, as a nan equals nothing
        if value != value:
            key = (cls, struct.pack("<d", value))
        else:
            key = (cls, value) if value else (cls, value, math.copysign(1.0, value))
        return _NODES.get(key) or _node(key, (value,))


class Var(Expr):
    __slots__ = ("name",)


class Unary(Expr):
    __slots__ = ("op", "arg")  # op: neg | sin | cos | exp | log | sqrt


class Binary(Expr):
    __slots__ = ("op", "left", "right")  # op: add | sub | mul | div


class Pow(Expr):
    __slots__ = ("base", "exponent")  # exponent: a Fraction


class Call(Expr):
    """kernel applied to the tuple of trees args. A kernel has value(b), its
    (m,) values over a Batch b of argument points, rejecting in b the rows
    it cannot evaluate, and partial(a), the kernel of its partial by
    argument a (OrderOverflowError when it has no rule for that partial)."""

    __slots__ = ("kernel", "args")


ZERO = Const(0.0)
ZEROS = (ZERO, Const(-0.0))  # both absorb alike
ONE = Const(1.0)
_MINUS_ONE = Const(-1.0)
var = Var  # interned already: no folding to do


# ---------------------------------------------------------------------------
# smart constructors (constant folding, 0/1 absorption)

def const(v) -> Const:
    return Const(float(v))


# most operands are not constants; a constant is ±0 iff its value is falsy
def add(a: Expr, b: Expr) -> Expr:
    if a.__class__ is Const:
        if b.__class__ is Const:
            return Const(a.value + b.value)
        if not a.value:
            return b
    elif b.__class__ is Const and not b.value:
        return a
    return Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if b.__class__ is Const:
        if a.__class__ is Const:
            return Const(a.value - b.value)
        if not b.value:
            return a
    if a.__class__ is Const and not a.value:
        return neg(b)
    if a is b and a not in HOLDS_NON_FINITE:  # inf - inf is nan
        return ZERO
    return Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if a.__class__ is Const:
        if b.__class__ is Const:
            return Const(a.value * b.value)
        if not a.value:
            return ZERO
        if a is ONE:
            return b
        if a is _MINUS_ONE:
            return neg(b)
    elif b.__class__ is Const:
        if not b.value:
            return ZERO
        if b is ONE:
            return a
        if b is _MINUS_ONE:
            return neg(a)
    return Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if b in ZEROS:
        raise ExprError("division by the constant zero")
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    if a in ZEROS:
        return ZERO
    if b is ONE:
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
    # a fractional power of a negative constant stays a node, which
    # evaluation rejects; Python would compute it as a complex number
    if isinstance(base, Const) and not (exponent.denominator != 1
                                        and base.value < 0):
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
        except (ValueError, OverflowError):
            pass
    return Unary(name, arg)


# ---------------------------------------------------------------------------
# walks

def _postorder(roots, done=()) -> list:
    """Every node under the roots once, each after its children, in the
    order a left-to-right recursive walk would first finish them; nodes in
    done are neither listed nor entered. The walk keeps its own stack, so a
    tree of any depth takes no Python frames."""
    order, seen = [], set()
    stack = list(roots)[::-1]
    while stack:
        e = stack.pop()
        if e.__class__ is tuple:  # (node,): its children are finished
            order.append(e[0])
            continue
        if e in seen or e in done:
            continue
        seen.add(e)
        stack.append((e,))
        cls = e.__class__
        if cls is Binary:
            stack += (e.right, e.left)
        elif cls is Unary:
            stack.append(e.arg)
        elif cls is Pow:
            stack.append(e.base)
        elif cls is Call:
            stack += e.args[::-1]
    return order


# ---------------------------------------------------------------------------
# differentiation

_DERIVATIVES = {}  # name -> {node: its derivative by name}, for the whole process


def differentiate(e: Expr, name: str) -> Expr:
    """The derivative of e by the variable name. Derivatives are memoised
    per (node, name) for the whole process: a miss walks only the nodes
    whose derivatives are not known yet, children first, so every node is
    differentiated once and the same tree always gives the same node."""
    memo = _DERIVATIVES.setdefault(name, {})
    d = memo.get(e)
    if d is None:
        for node in _postorder((e,), memo):
            memo[node] = _derivative(node, name, memo)
        d = memo[e]
    return d


_GRADIENTS = {}  # coords -> {node: its gradient}, for the whole process


def gradient(e: Expr, coords: tuple) -> tuple:
    """(row, nonfinite): differentiate(e, c) for each c of coords (None for
    each when e is a constant: they are 0), and whether one is an inf or nan
    constant; memoised per node and coords beside the derivative memo."""
    memo = _GRADIENTS.setdefault(coords, {})
    got = memo.get(e)
    if got is None:
        row = ((None,) * len(coords) if e.__class__ is Const
               else tuple([differentiate(e, c) for c in coords]))
        got = memo[e] = (row, not NON_FINITE.isdisjoint(row))
    return got


def _derivative(e: Expr, name: str, memo: dict) -> Expr:
    """The derivative of the node e by name, given those of its children in
    memo."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Unary):
        u, du = e.arg, memo[e.arg]
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
        a, b = e.left, e.right
        da, db = memo[a], memo[b]
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
        db = memo[e.base]
        r = e.exponent
        return mul(mul(Const(float(r)), powr(e.base, r - 1)), db)
    if isinstance(e, Call):  # the chain rule, argument by argument
        d = None
        for a, arg in enumerate(e.args):
            if memo[arg] not in ZEROS:
                term = mul(Call(e.kernel.partial(a), e.args), memo[arg])
                d = term if d is None else add(d, term)
        return ZERO if d is None else d
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# evaluation

# Transcendental functions and powers are applied per element through the
# scalar Python operations, so that batched values are bit-identical to a
# scalar evaluation (numpy's vectorized exp, log and power can differ from
# them in the last bit).
_MATH_UFUNCS = {name: np.frompyfunc(getattr(math, name), 1, 1)
                for name in ("sin", "cos", "exp", "log")}
_POW_UFUNC = np.frompyfunc(operator.pow, 2, 1)
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _pointwise(fn, ufunc, u, *args):
    """fn(x, *args) for every element x of u, as a float array, and the
    ValueError or OverflowError fn raised at each element where it raised
    one, by index (those elements hold nan)."""
    try:
        return ufunc(u, *args).astype(float), {}
    except (ValueError, OverflowError):
        pass
    out, caught = np.empty(len(u)), {}
    for i, x in enumerate(u.tolist()):
        try:
            out[i] = fn(x, *args)
        except (ValueError, OverflowError) as exc:
            out[i] = math.nan
            caught[i] = exc
    return out, caught


class Batch:
    """One evaluation over an (m, dim) point array X: what its kernels
    computed so far, the rows rejected so far and, for each row rejected
    here, the error that evaluating that point alone raises (the first one
    met, in the order the one-point evaluation meets them).

    A child batch evaluates points derived from these (argument values,
    Newton iterates and solutions); its row r belongs to row rows[r] of its
    parent (row r when rows is None), and `absorb` passes its rejections
    up."""

    def __init__(self, X, rejected=None, rows=None):
        self.X = X
        self.memo, self.errors = {}, {}
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

    def reject_nonfinite(self, values):
        """values, the (k, m) values of k quantities at these rows, each row
        whose values are not all finite rejected with a NonFiniteError."""
        self.reject(np.flatnonzero(~np.isfinite(values).all(axis=0)), lambda i: (
            NonFiniteError(f"non-finite value at {self.point(i)}")))
        return values

    def by_row(self, out, rows, f, error):
        """out, with out[rows] = f(rows), numpy's linear algebra over those
        rows at once; where a matrix is singular, out[i] = f(i) row by row,
        each row i where that fails rejected with error(i)."""
        try:
            out[rows] = f(rows)
        except np.linalg.LinAlgError:
            for i in rows.tolist():
                try:
                    out[i] = f(i)
                except np.linalg.LinAlgError:
                    self.reject([i], error)
        return out

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


def compile_batch(roots, coords):
    """The program of the root expressions over the coordinates coords: run(
    batch), which evaluates every root at every point of a Batch in one pass.
    The program is the roots' nodes in post-order, each evaluated once.

    batch.X is an (m, len(coords)) array. run returns the (len(roots), m)
    values and rejects in batch each row where a guard fails (a denominator
    below SINGULAR_GUARD, a log, root or power out of its domain), a
    function raises (exp or a power overflows, sin or cos of an infinite
    value) or a call's kernel rejects the point. Its error is the one the
    roots, evaluated alone in order, raise first: that of the first failing
    node, in post-order; a row rejected before keeps its error. A
    non-finite value is not an error: the caller judges those rows. Every
    value of a row without an error is the one scalar evaluation gives. A
    batch whose points do not have len(coords) coordinates is a
    SpaceMismatchError.

    A call on the coordinates in order runs on batch itself, any other on
    the child batch of its argument values, keyed ("call", args), so that
    each kernel runs once per batch however many programs call it; it sees
    the rows rejected so far as rejected.
    """
    coords = tuple(coords)
    return functools.partial(_run, _postorder(roots), tuple(roots), coords,
                             {c: j for j, c in enumerate(coords)},
                             tuple(map(Var, coords)))


def _run(order, roots, coords, column, own, batch):
    X = batch.X
    if X.shape[1] != len(coords):
        raise SpaceMismatchError(
            f"{X.shape[1]}-coordinate points for fields on {coords}")
    m = len(X)
    val = {}  # node -> its (m,) values

    def fail(bad, error):
        """Reject each row of the mask bad with error(row)."""
        if bad.any():
            batch.reject(np.flatnonzero(bad), error)

    with np.errstate(all="ignore"):
        for e in order:
            cls = e.__class__
            if cls is Binary and e.op != "div":  # no guard can fail: the bulk
                val[e] = _ARITH[e.op](val[e.left], val[e.right])
                continue
            caught = {}
            if cls is Binary:
                u, w = val[e.left], val[e.right]
                fail(np.abs(w) < SINGULAR_GUARD, lambda i: SingularPointError(
                    f"denominator {w.item(i)} below guard {SINGULAR_GUARD}"))
                v = u / w
            elif cls is Unary:
                op, u = e.op, val[e.arg]
                if op == "neg":
                    v = -u
                elif op == "sqrt":
                    fail(u < 0.0, lambda i: DomainError(
                        f"sqrt of negative value {u.item(i)}"))
                    v = np.sqrt(u)
                elif op == "log":
                    bad = u <= 0.0
                    fail(bad, lambda i: DomainError(
                        f"log of non-positive value {u.item(i)}"))
                    v, caught = _pointwise(math.log, _MATH_UFUNCS[op],
                                           np.where(bad, 1.0, u))
                elif op in _MATH_UFUNCS:
                    v, caught = _pointwise(getattr(math, op), _MATH_UFUNCS[op], u)
                else:
                    raise ExprError(f"cannot evaluate {op!r}")
            elif cls is Const:
                v = np.full(m, e.value)
            elif cls is Var:
                v = X[:, column[e.name]]
            elif cls is Pow:
                op, u, r = "pow", val[e.base], e.exponent
                bad = np.zeros(m, dtype=bool)
                if r.denominator != 1:
                    bad = u < 0.0
                    fail(bad, lambda i: DomainError(
                        f"fractional power of negative base {u.item(i)}"))
                if r < 0:
                    small = np.abs(u) < SINGULAR_GUARD
                    fail(small, lambda i: SingularPointError(
                        f"base {u.item(i)} below guard for negative power"))
                    bad = bad | small
                v, caught = _pointwise(operator.pow, _POW_UFUNC,
                                       np.where(bad, 1.0, u), float(r))
            elif cls is Call:
                args = e.args
                v = e.kernel.value(batch) if args == own else batch.on(
                    ("call", args), lambda: np.column_stack([val[a] for a in args]),
                    e.kernel.value)
            else:
                raise ExprError(f"unknown node {e!r}")
            if caught:  # sin or cos of inf: ValueError
                batch.reject(list(caught), lambda i: (
                    caught[i] if isinstance(caught[i], OverflowError)
                    else DomainError(f"{op} of {u.item(i)}")))
            val[e] = v
    return np.array([val[e] for e in roots]).reshape(len(roots), m)


_SUBSTITUTIONS = {}  # mapping items -> {node: its substitute}, process-wide


def substitute(e: Expr, mapping: dict) -> Expr:
    """Rebuild e with every variable replaced by mapping[name] (an Expr),
    walking only the nodes not yet rebuilt under that mapping."""
    new = _SUBSTITUTIONS.setdefault(tuple(mapping.items()), {})
    for node in _postorder((e,), new):
        if isinstance(node, Const):
            new[node] = node
        elif isinstance(node, Var):
            new[node] = mapping[node.name]
        elif isinstance(node, Unary):
            u = new[node.arg]
            new[node] = neg(u) if node.op == "neg" else fn(node.op, u)
        elif isinstance(node, Binary):
            new[node] = _BINARY_OPS[node.op](new[node.left], new[node.right])
        elif isinstance(node, Pow):
            new[node] = powr(new[node.base], node.exponent)
        elif isinstance(node, Call):
            new[node] = Call(node.kernel, tuple([new[a] for a in node.args]))
        else:
            raise ExprError(f"unknown node {node!r}")
    return new[e]


_BINARY_OPS = {"add": add, "sub": sub, "mul": mul, "div": div}


# ---------------------------------------------------------------------------
# printing

def _fmt_number(v: float) -> str:
    # non-finite constants print as text that parses back to them
    if math.isnan(v):
        return "(1e309 - 1e309)"
    if math.isinf(v):
        return "1e309" if v > 0 else "-1e309"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# an infix operator's level, text, and the contexts of its two sides; the
# left side of '/' needs ctx 3: a trailing '^k' there would otherwise
# swallow the slash into a rational exponent on re-parse
_INFIX = {"add": (1, " + ", 1, 2), "sub": (1, " - ", 1, 2),
          "mul": (2, "*", 2, 3), "div": (2, "/", 3, 3)}


def to_string(e: Expr, ctx: int = 0) -> str:
    """e as text that parses back to it, unless it holds a call, in a context
    of precedence ctx, emitted piece by piece from an explicit stack. A node
    is parenthesised when its context is above its level: add/sub 1,
    mul/div/pow 2, a negation or negative constant 3, atoms 5. A call
    prints as its kernel applied to its arguments."""
    out, stack = [], [(e, ctx)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        e, ctx = item
        cls = e.__class__
        if cls is Const:
            # a leading '-' is a legal 'base', but must be shielded from '^'
            level, pieces = 3 if e.value < 0 else 5, [_fmt_number(e.value)]
        elif cls is Var:
            level, pieces = 5, [e.name]
        elif cls is Unary and e.op == "neg":
            level, pieces = 3, ["-", (e.arg, 4)]
        elif cls is Unary:
            level, pieces = 5, [f"{e.op}(", (e.arg, 0), ")"]
        elif cls is Binary:
            level, sym, left, right = _INFIX[e.op]
            pieces = [(e.left, left), sym, (e.right, right)]
        elif cls is Pow:  # a Fraction exponent prints as 2 or 3/2
            level, pieces = 2, [(e.base, 4), f"^{e.exponent}"]
        elif cls is Call:
            level, pieces = 5, [f"{e.kernel!r}("]
            for j, a in enumerate(e.args):
                pieces += [", "] * (j > 0) + [(a, 0)]
            pieces.append(")")
        else:
            raise ExprError(f"unknown node {cls.__name__}")
        if ctx > level:
            pieces = ["(", *pieces, ")"]
        stack += pieces[::-1]
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing

# After optional whitespace, a token is a number, a name or any other single
# character; digits and letters are ASCII.
_TOKEN = re.compile(r"""\s*(?:
    (?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<char>\S))""", re.VERBOSE)
_BINARY = {"+": add, "-": sub, "*": mul, "/": div}
_OPENERS = ("(", *FUNCTIONS)  # the tokens that open a group


class _Parser:
    def __init__(self, src: str, coords):
        # (kind, text, position) for every token, then an end token
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                       for m in _TOKEN.finditer(src)]
        self.tokens.append(("end", "", len(src)))
        self.i = 0
        self.coords = set(coords)

    def take(self, *texts):
        """The current token's text, consumed, if it is one of texts."""
        text = self.tokens[self.i][1]
        if text in texts:
            self.i += 1
            return text
        return None

    def expect(self, text, message):
        if not self.take(text):
            raise ParseError(message, self.tokens[self.i][2])

    def parse(self) -> Expr:
        """The expression, read left to right. A group, '(' or a call, puts
        the pending sum and term around it, their operators and the unary
        minuses before it on a stack; minuses bind tighter than '^'."""
        groups = []
        total = add_op = term = mul_op = None
        while True:
            minuses = 0
            while self.take("-"):
                minuses += 1
            kind, text, pos = self.tokens[self.i]
            self.i += 1
            if text in _OPENERS:
                if text != "(":
                    self.expect("(", f"expected '(' after {text!r}")
                groups.append((total, add_op, term, mul_op, minuses, text))
                total = add_op = term = mul_op = None
                continue
            if kind == "number":
                e = const(float(text))
            elif kind == "name" and text in self.coords:
                e = var(text)
            elif kind == "name":
                raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
            else:
                raise ParseError("unexpected end of input" if kind == "end"
                                 else f"unexpected character {text!r}", pos)
            while True:  # e is an operand: finish it and the groups it ends
                for _ in range(minuses):
                    e = neg(e)
                if self.take("^"):
                    e = powr(e, self.rational())
                term = e if mul_op is None else _BINARY[mul_op](term, e)
                if mul_op := self.take("*", "/"):
                    break
                total = term if add_op is None else _BINARY[add_op](total, term)
                if add_op := self.take("+", "-"):
                    break
                if not groups:
                    kind, text, pos = self.tokens[self.i]
                    if kind != "end":
                        raise ParseError(f"unexpected input {text[0]!r}", pos)
                    return total
                self.expect(")", "expected ')'")
                e = total
                total, add_op, term, mul_op, minuses, opener = groups.pop()
                if opener != "(":
                    e = fn(opener, e)

    def integer(self, message: str) -> int:
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind != "number" or not text.isdigit():
            raise ParseError(message, pos)
        return int(text)

    def rational(self) -> Fraction:
        sign = -1 if self.take("-") else 1
        num = sign * self.integer("exponent must be a rational constant")
        if not self.take("/"):
            return Fraction(num)
        den = self.integer("expected an integer")
        if den == 0:
            raise ParseError("exponent has denominator 0",
                             self.tokens[self.i - 1][2])
        return Fraction(num, den)


def parse_expr(src: str, coords) -> Expr:
    """Parse src against the given coordinate names."""
    return _Parser(src, coords).parse()
