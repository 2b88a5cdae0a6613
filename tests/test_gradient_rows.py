"""Gradient rows against the per-coordinate rule they replaced.

`tensors._operands` reads each differentiated factor's derivatives as one
row, `expr.gradient`, memoised per node and coordinates, and scans only the
factor trees for an inf or nan constant: the row records whether it holds
one. `per_coordinate_operands` below is the gate as it was, one
`expr.differentiate` per coordinate and a scan of every derivative. On
trees with ±0, ±inf and nan constants the two must give the same operands,
derivatives, dead set and algebra, and raise the same error where a
derivative cannot be formed.
"""
import math
from fractions import Fraction
from itertools import chain
from operator import mul

from hypothesis import given
from hypothesis import strategies as st

from jetlift import expr as ex
from jetlift import tensors
from jetlift.errors import ExprError
from jetlift.fields import SymbolicField, coord_field, zero
from jetlift.spaces import base_e, phase_j


def per_coordinate_operands(space, factors, diffed=()):
    """`tensors._operands` as it was before gradient rows, verbatim but for
    the names it reads from tensors."""
    coords, Const = space.coords, ex.Const
    trees = [f.expr for f in factors if f.__class__ is SymbolicField
             and (f.space is space or f.space == space)]
    if len(trees) == len(factors):
        derivs = [[None if f.expr.__class__ is Const else ex.differentiate(f.expr, c)
                   for c in coords] for f in diffed]
        for e in chain(trees, *derivs):
            if e.__class__ is Const and e.value - e.value != 0.0:  # inf or nan
                break
        else:
            return trees, derivs, tensors._DEAD, (ex.mul, tensors._EXPR_FOLD, ex.ZERO,
                                                  SymbolicField, space)
    return (factors, [[f.diff(c) for c in coords] for f in diffed], frozenset(),
            (mul, tensors._FIELD_FOLD, zero(space), lambda space, f: f, space))


BE1 = base_e(1)
CONSTS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300,
                          2.5, -1.0])
BINARY = st.sampled_from([ex.add, ex.sub, ex.mul, ex.div])


def _binary(op, a, b):
    try:
        return op(a, b)
    except ExprError:  # division by the constant zero
        return a


TREES = st.recursive(
    st.one_of(st.sampled_from(BE1.coords).map(ex.var), CONSTS.map(ex.const)),
    lambda children: st.one_of(
        st.builds(ex.neg, children),
        st.builds(ex.fn, st.sampled_from(ex.FUNCTIONS), children),
        st.builds(_binary, BINARY, children, children),
        st.builds(ex.powr, children, st.sampled_from([Fraction(2), Fraction(-1),
                                                      Fraction(1, 2)]))),
    max_leaves=6)


def outcome(gate, space, factors, diffed):
    """What the gate gives, with each row as a list and the algebra by its
    parts (a field algebra's 0 by its tree), or the error it raises."""
    try:
        ops, derivs, dead, alg = gate(space, factors, diffed)
    except ExprError as exc:
        return type(exc), str(exc)
    product_, fold, acc, wrap, alg_space = alg
    return (ops, [list(row) for row in derivs], dead, product_, fold,
            getattr(acc, "expr", acc), wrap is SymbolicField, alg_space)


@given(st.lists(TREES, min_size=1, max_size=5), st.data())
def test_gradient_rows_give_the_per_coordinate_operands(trees, data):
    factors = [SymbolicField(BE1, e) for e in trees]
    diffed = data.draw(st.lists(st.sampled_from(factors), max_size=3))
    want = outcome(per_coordinate_operands, BE1, factors, diffed)
    assert outcome(tensors._operands, BE1, factors, diffed) == want
    # warm rows give it again
    assert outcome(tensors._operands, BE1, factors, diffed) == want


def test_a_field_on_another_space_takes_the_field_algebra():
    q = coord_field(BE1, "q1")
    other = SymbolicField(phase_j(1), ex.var("q1"))
    for factors in ([q, other], [other, q]):
        want = outcome(per_coordinate_operands, BE1, factors, [q])
        got = outcome(tensors._operands, BE1, factors, [q])
        assert got == want and not got[2]


def test_a_row_records_a_non_finite_derivative():
    # d/dq1 of 1e200 * (1e200 * q1) folds to the constant inf
    e = ex.mul(ex.const(1e200), ex.mul(ex.const(1e200), ex.var("q1")))
    row, nonfinite = ex.gradient(e, BE1.coords)
    assert nonfinite and row[1] is ex.Const(math.inf)
    assert ex.gradient(e, BE1.coords) == (row, nonfinite)
    assert ex.gradient(ex.const(math.nan), BE1.coords) == ((None, None), False)
    assert not tensors._operands(BE1, [SymbolicField(BE1, e)], [SymbolicField(BE1, e)])[2]
