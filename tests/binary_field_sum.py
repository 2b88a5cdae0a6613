"""The field algebra's fold as `tensors._sum` ran it before
`fields._proc_sum`, kept verbatim as a differential oracle: one binary
operator per + and per *, `acc = acc ± ((f1 * f2) * ...)` over the
fields, and so one procedural field per procedural + and *.
"""
from functools import reduce
from operator import add, mul, neg, sub

# tensors._FIELD_FOLD as it was: how a term joins the sum, by its sign
FIELD_FOLD = {"+": add, "-": sub, "+-": lambda acc, p: acc + -p, "neg": neg}


def binary_sum(acc, terms):
    """acc folded with the terms (sign, [f1, f2, ...]), one operator at a
    time."""
    for sign, factors in terms:
        acc = FIELD_FOLD[sign](acc, reduce(mul, factors))
    return acc
