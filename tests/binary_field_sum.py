"""The field algebra's fold as `tensors._sum` ran it before
`fields._proc_sum`, kept as a differential oracle: one binary operator per
+ and per *, `acc = acc ± ((f1 * f2) * ...)` over the fields, and so one
procedural field per procedural +, * and negation.

The procedural operators are the library's `_proc_add`, `_proc_mul` and
negation closure as they were before every procedural +, -, * and
negation became a `_proc_sum` node, copied verbatim but for reading the
order budget from `order_budget`; two symbolic fields on one space
combine as the library's trees. A number is a constant field, as the
library's operators coerce it.
"""
from functools import reduce

from jetlift.errors import SpaceMismatchError
from jetlift.fields import ProceduralField, SymbolicField, const_field


def _min_budget(a, c) -> int:
    return min(a.order_budget, c.order_budget, 2)


def _proc_add(a, c):
    return ProceduralField(a.space, lambda b: a._value(b) + c._value(b),
                           lambda b: a._grad(b) + c._grad(b),
                           _min_budget(a, c), _on_batch=True)


def _proc_mul(a, c):
    def grad(b):
        av, cv = a._value(b)[:, None], c._value(b)[:, None]
        return a._grad(b) * cv + av * c._grad(b)

    return ProceduralField(a.space, lambda b: a._value(b) * c._value(b),
                           grad, _min_budget(a, c), _on_batch=True)


def _proc_neg(self):
    return ProceduralField(self.space, lambda b: -self._value(b),
                           lambda b: -self._grad(b), self.order_budget,
                           _on_batch=True)


def _coerce(a, c):
    """c as a field beside the field a: a number made a constant field;
    SpaceMismatchError for a field on another space."""
    if isinstance(c, (int, float)):
        return const_field(a.space, c)
    if c.space is not a.space:
        raise SpaceMismatchError(f"cannot combine fields on {a.space} and {c.space}")
    return c


def _symbolic(*fs) -> bool:
    return all(isinstance(f, SymbolicField) for f in fs)


def neg(a):
    return -a if _symbolic(a) else _proc_neg(a)


def add(a, c):
    c = _coerce(a, c)
    return a + c if _symbolic(a, c) else _proc_add(a, c)


def sub(a, c):
    c = _coerce(a, c)
    return a - c if _symbolic(a, c) else _proc_add(a, neg(c))


def mul(a, c):
    c = _coerce(a, c)
    return a * c if _symbolic(a, c) else _proc_mul(a, c)


def rsub(a, x):
    """x - a for a number x, as the operators build it: (-a) + x."""
    return add(neg(a), x)


# tensors._FIELD_FOLD as it was: how a term joins the sum, by its sign
FIELD_FOLD = {"+": add, "-": sub, "+-": lambda acc, p: add(acc, neg(p)),
              "neg": neg}


def binary_sum(acc, terms):
    """acc folded with the terms (sign, [f1, f2, ...]), one operator at a
    time."""
    for sign, factors in terms:
        acc = FIELD_FOLD[sign](acc, reduce(mul, factors))
    return acc
