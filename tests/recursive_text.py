"""The recursive printer and parser that `jetlift.expr` replaced, kept
verbatim as differential oracles: `to_string` and `parse_expr` here recurse
once per level of a tree or a text, so they serve shallow inputs only.
"""
from fractions import Fraction

from jetlift.errors import ExprError, ParseError, UnknownIdentifierError
from jetlift.expr import (FUNCTIONS, _BINARY, _TOKEN, Binary, Const, Expr, Pow,
                          Unary, Var, _fmt_number, const, fn, neg, powr, var)


# precedence levels: add/sub 1, mul/div 2, pow base 4, atom 5
def to_string(e: Expr, ctx: int = 0) -> str:
    """e as text that parses back to it, in a context of precedence ctx."""
    if isinstance(e, Const):
        s = _fmt_number(e.value)
        # a leading '-' is a legal 'base', but must be shielded from '^'
        return f"({s})" if e.value < 0 and ctx >= 4 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = e.arg
            if isinstance(inner, (Binary, Pow)):
                s = f"-({to_string(inner, 0)})"
            else:
                s = f"-{to_string(inner, 4)}"
            return f"({s})" if ctx >= 4 else s
        return f"{e.op}({to_string(e.arg, 0)})"
    if isinstance(e, Binary):
        if e.op in ("add", "sub"):
            sym = "+" if e.op == "add" else "-"
            s = f"{to_string(e.left, 1)} {sym} {to_string(e.right, 2)}"
            return f"({s})" if ctx >= 2 else s
        sym = "*" if e.op == "mul" else "/"
        # the left side of '/' needs ctx 3: a trailing '^k' there would
        # otherwise swallow the slash into a rational exponent on re-parse
        left_ctx = 3 if e.op == "div" else 2
        s = f"{to_string(e.left, left_ctx)}{sym}{to_string(e.right, 3)}"
        return f"({s})" if ctx >= 3 else s
    if isinstance(e, Pow):
        s = f"{to_string(e.base, 4)}^{e.exponent}"  # a Fraction prints as 2 or 3/2
        return f"({s})" if ctx >= 3 else s
    raise ExprError(f"unknown node {e!r}")


class _Parser:
    def __init__(self, src: str, coords):
        # (kind, text, position) for every token, then an end token
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                       for m in _TOKEN.finditer(src)]
        self.tokens.append(("end", "", len(src)))
        self.i = 0
        self.coords = set(coords)

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

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

    def closed(self) -> Expr:
        """An expression and the ')' after it."""
        e = self.expr()
        self.expect(")", "expected ')'")
        return e

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected input {text[0]!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while op := self.take("+", "-"):
            e = _BINARY[op](e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while op := self.take("*", "/"):
            e = _BINARY[op](e, self.factor())
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.take("^"):
            e = powr(e, self.rational())
        return e

    def integer(self, message: str) -> int:
        kind, text, pos = self.next()
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

    def base(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        if kind == "number":
            return const(float(text))
        if kind == "name" and text in FUNCTIONS:
            self.expect("(", f"expected '(' after {text!r}")
            return fn(text, self.closed())
        if kind == "name":
            if text not in self.coords:
                raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
            return var(text)
        if text == "-":
            return neg(self.base())
        if text == "(":
            return self.closed()
        raise ParseError(f"unexpected character {text!r}", pos)


def parse_expr(src: str, coords) -> Expr:
    """Parse src against the given coordinate names."""
    return _Parser(src, coords).parse()
