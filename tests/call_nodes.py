"""Helpers for tests of procedural fields, which are call nodes in the
expression DAG: whether a field's tree holds one, and the procedural twin
of a symbolic field."""
from jetlift import expr as ex
from jetlift.fields import ProceduralField, program


def holds_call(f) -> bool:
    """Whether the tree of the field f holds an `expr.Call` node."""
    return any(e.__class__ is ex.Call for e in ex._postorder([f.expr]))


def twin(f) -> ProceduralField:
    """The procedural twin of the symbolic field f: a ProceduralField whose
    value and gradient run f's own compiled program and gradient rows in
    the caller's batch, rejecting there the rows f rejects."""
    value = program([f])
    grad = program([f.diff(c) for c in f.space.coords])
    return ProceduralField(f.space, lambda b: value(b)[0],
                           lambda b: grad(b).T, _on_batch=True)
