"""A field list's one program against its fields' one-root programs.

`fields.program(fields)` compiles a list of fields into one program, which
the eigen-analysis, the Newton inverse and every one-off evaluation run.
Run in one batch, it must give what running each field's own one-root
program, in list order, on one shared batch gives: the values of every
accepted row bit for bit, the same rejected rows, and for each of them
the first error by class and message. Each list here meets rows that a
guard rejects and rows that a call's kernel rejects.
"""
import os

import numpy as np
import pytest

from call_nodes import twin
from jetlift import (FibredTransform, Tensor11, VectorField, base_e,
                     build_dn_transform)
from jetlift.errors import SpaceMismatchError
from jetlift.expr import Batch
from jetlift.fields import ProceduralField, coord_field, parse_field, program
from jetlift.model import load_model
from jetlift.pn import _q_block, eigenvalue_fields
from jetlift.report import max_residual
from jetlift.spaces import phase_j
from jetlift.tensors import sum_products

N2 = os.path.join(os.path.dirname(__file__), "..", "models", "n2.json")
BE1, BE2 = base_e(1), base_e(2)


def points(dim, n=48, seed=0):
    """n points of the default box, then rows that zero, flip or blow up a
    coordinate, so that guards fail there."""
    X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, dim))
    special = np.tile(X[:4], (4, 1))
    special[0:4, -1] = 0.0
    special[4:8, -1] = -special[4:8, -1]
    special[8:12, -1] = 1e200
    special[12:16, 0] = special[12:16, -1]
    return np.vstack([X, special])


def outcome(b, values):
    live = ~b.rejected
    return (values[:, live].tobytes(), b.rejected.tolist(),
            {i: (type(e), str(e)) for i, e in b.errors.items()})


def one_program(fields, X):
    b = Batch(np.array(X, dtype=float))
    with np.errstate(all="ignore"):
        return outcome(b, program(fields)(b))


def field_by_field(fields, X):
    b = Batch(np.array(X, dtype=float))
    with np.errstate(all="ignore"):
        values = np.array([program([f])(b)[0] for f in fields])
    return outcome(b, values.reshape(len(fields), len(X)))


def assert_same(fields, X):
    got, want = one_program(fields, X), field_by_field(fields, X)
    assert got == want
    return want


def flat(block):
    return [f for row in block for f in row]


def r_dn():
    return load_model(N2).get("R_dn")[1]


GUARDED = Tensor11.from_dict(BE2, {"q1,q1": "log(q1 + 2.5)", "q1,q2": "sqrt(q2)",
                                   "q2,q2": "1/q2 + q1", "q2,q1": "t*q1"})


@pytest.mark.parametrize("R", [r_dn(), GUARDED], ids=["R_dn", "guarded"])
def test_eigenvalue_block_and_its_partials(R):
    X = points(3)
    block = _q_block(R)
    assert_same(flat(block), X)
    for name in R.space.coords:
        assert_same([f.diff(name) for f in flat(block)], X)
    # the eigenvalue fields: rows the eigen kernel rejects (complex or
    # clustered eigenvalues), and with the guarded block rows its entries
    # reject first
    lam = eigenvalue_fields(R)
    _, rejected, _ = assert_same(lam, X)
    assert any(rejected)
    assert_same([f.diff(c) for f in lam for c in R.space.coords], X)


def newton_lists(T):
    """The lists `_newton_inverse` compiles: Q, the flattened dQ/dq and
    dQ/dt; then the inverse's fields and their first partials."""
    n = T.n
    return [T.q_fwd,
            [f.diff(f"q{j + 1}") for f in T.q_fwd for j in range(n)],
            [f.diff("t") for f in T.q_fwd],
            T.q_inv,
            [f.diff(c) for f in T.q_inv for c in T.base.coords]]


@pytest.mark.parametrize("make", [
    lambda: build_dn_transform(r_dn()),
    # no preimage anywhere: the Newton kernel rejects every row
    lambda: FibredTransform(1, [parse_field("q1^2 + 10", BE1)]),
    lambda: FibredTransform(1, [parse_field("q1 + 1/(q1 - 3) + t", BE1)]),
], ids=["R_dn", "no-preimage", "guarded"])
def test_newton_lists(make):
    T = make()
    X = points(T.base.dim)
    rejected = []
    for fields in newton_lists(T):
        rejected.append(any(assert_same(fields, X)[1]))
    assert any(rejected)


def test_mixed_factors():
    # the factors of test_sum_products' mixed fold: symbolic, procedural and
    # a quotient by a procedural field that is 0 where t = q2
    s = [parse_field(src, BE2) for src in ("t*q1 + 1", "sin(q2)", "q1^2 - t")]
    p = ProceduralField(BE2, lambda b: np.exp(b.X[:, 1]) * b.X[:, 2],
                        lambda b: np.column_stack([0 * b.X[:, 0], np.exp(b.X[:, 1]) * b.X[:, 2],
                                                   np.exp(b.X[:, 1])]))
    q = s[0] / ProceduralField(BE2, lambda b: b.X[:, 0] - b.X[:, 2],
                               lambda b: np.column_stack([1 + 0 * b.X[:, 0], 0 * b.X[:, 0],
                                                          -1 + 0 * b.X[:, 0]]))
    got = sum_products(BE2, [("+", [s[0], p]), ("-", [p, s[1], s[2]]),
                             ("+-", [s[1], q]), ("-", [q, q])])
    fields = [*s, p, q, got]
    X = points(3)
    _, rejected, _ = assert_same(fields, X)
    assert any(rejected)
    assert_same([f.diff(c) for f in fields for c in BE2.coords], X)


def test_call_node_twins():
    # the twins' kernels reject the rows their symbolic fields' guards
    # reject; mixed with symbolic guards, the first error must still be
    # the one of the first failing field in list order (at q1 = 0, 1/q1
    # fails first one way round and log(q1) the other)
    inv_q1, log_q1 = parse_field("1/q1", BE1), parse_field("log(q1)", BE1)
    t_q1 = parse_field("exp(t*q1)", BE1)
    fields = [twin(inv_q1) * t_q1, inv_q1 / coord_field(BE1, "t"),
              log_q1 + twin(t_q1), twin(log_q1)]
    X = points(2)
    _, _, errors = assert_same(fields, X)
    _, _, reversed_errors = assert_same(fields[::-1], X)
    assert {kind.__name__ for kind, _ in errors.values()} >= {
        "DomainError", "SingularPointError", "OverflowError"}
    assert errors != reversed_errors
    assert_same([f.diff(c) for f in fields for c in BE1.coords], X)


def test_a_program_is_on_one_space():
    with pytest.raises(SpaceMismatchError):
        program([coord_field(BE1, "q1"), coord_field(phase_j(1), "p1")])


@pytest.mark.parametrize("evaluate", [
    lambda: parse_field("q1", BE1).eval((1.0, 2.0, 3.0)),
    lambda: max_residual(parse_field("q1", BE1), [(1.0, 2.0, 3.0)]),
    lambda: VectorField.from_dict(BE1, {"q1": "t"}).eval_at((5.0, 1.0, 9.0)),
    lambda: parse_field("q1", BE1).eval((1.0,)),
    lambda: program([parse_field("q1", BE1)])(Batch(np.zeros((4, 3)))),
], ids=["eval-wide", "max_residual-wide", "eval_at-wide", "eval-narrow",
        "program-wide"])
def test_a_point_of_the_wrong_width_is_a_space_mismatch(evaluate):
    # column j of a wider point is no coordinate of the space, and a
    # narrower one has no column for q1
    with pytest.raises(SpaceMismatchError, match="-coordinate points for "
                       r"fields on \('t', 'q1'\)"):
        evaluate()
