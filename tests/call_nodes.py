"""Helpers for tests of procedural fields, which are call nodes in the
expression DAG: whether a field's tree holds one, and the procedural twin
of a symbolic field."""
from jetlift import expr as ex
from jetlift.fields import ProceduralField, by_point, program


def holds_call(f) -> bool:
    """Whether the tree of the field f holds an `expr.Call` node."""
    return any(e.__class__ is ex.Call for e in ex._postorder([f.expr]))


def twin(f) -> ProceduralField:
    """The procedural twin of the symbolic field f: a ProceduralField whose
    value, gradient and Hessian run f's own compiled program, gradient rows
    and second-derivative rows in the caller's batch, rejecting there the
    rows f rejects."""
    coords, dim = f.space.coords, f.space.dim
    value = program([f])
    grad = program([f.diff(c) for c in coords])
    hess = program([f.diff(a).diff(c) for a in coords for c in coords])
    return ProceduralField(f.space, lambda b: value(b)[0], lambda b: grad(b).T,
                           lambda b: by_point(hess(b), dim, dim))
