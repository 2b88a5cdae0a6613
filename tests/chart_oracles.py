"""Unmemoised oracles for the memoised chart layer: the per-call walk that
`expr.substitute` made before it kept one table per mapping for the
process, and the cofactor expansion that `charts.invert_field_matrix` made
before it expanded each minor once. Both build the same interned nodes
as the memoised versions, so tests compare them by identity."""
from jetlift import expr as ex
from jetlift.fields import const_field
from jetlift.tensors import _matsum, _table


def fresh_substitute(e, mapping):
    """e with every variable replaced by mapping[name], by a walk of every
    node under e with a table of its own."""
    new = {}
    for node in ex._postorder((e,)):
        if isinstance(node, ex.Const):
            new[node] = node
        elif isinstance(node, ex.Var):
            new[node] = mapping[node.name]
        elif isinstance(node, ex.Unary):
            u = new[node.arg]
            new[node] = ex.neg(u) if node.op == "neg" else ex.fn(node.op, u)
        elif isinstance(node, ex.Binary):
            new[node] = ex._BINARY_OPS[node.op](new[node.left], new[node.right])
        elif isinstance(node, ex.Pow):
            new[node] = ex.powr(new[node.base], node.exponent)
        else:
            new[node] = ex.Call(node.kernel, tuple([new[a] for a in node.args]))
    return new[e]


def cofactor_determinant(space, M):
    """The determinant of a matrix of fields by cofactor expansion along the
    first row, every minor expanded again wherever it occurs."""
    d = len(M)
    if d == 1:
        return M[0][0]
    terms = [("+" if j % 2 == 0 else "+-", [[M[0][j]]],
              [[cofactor_determinant(space, [[M[i][k] for k in range(d) if k != j]
                                             for i in range(1, d)])]])
             for j in range(d)]
    return _matsum(space, *terms[0], terms[1:])[0][0]


def cofactor_inverse(space, M):
    """The adjugate over the determinant, each cofactor expanded afresh."""
    d = len(M)
    det = cofactor_determinant(space, M)
    if d == 1:
        return [[const_field(space, 1.0) / det]]

    def entry(i, j):
        cof = cofactor_determinant(space, [[M[r][c] for c in range(d) if c != i]
                                           for r in range(d) if r != j])
        return (cof if (i + j) % 2 == 0 else -cof) / det
    return _table(d, 2, entry)
