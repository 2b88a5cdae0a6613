"""Coordinate changes and transport of tensors between charts.

A ChartMap carries the forward coordinate functions (fields on the source
chart) and the inverse coordinate functions (fields on the target chart).
Push-forward of contravariant indices uses the forward Jacobian composed
with the inverse; covariant indices use the Jacobian of the inverse, each
built once per map. The transport formula itself is `tensors._transport`,
beside the Lie derivative.

FibredTransform specializes to time-preserving maps (t, q) -> (t, Q(t, q))
and induces the momentum-space map P_j = p_i dq^i/dQ^j; its Newton inverse
evaluates its derivatives in the child batch of the composed calls.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import TransformError
from .fields import (
    Batch,
    by_point,
    compose,
    const_field,
    coord_field,
    inject,
    procedural_map,
    program,
    second_partials,
)
from .spaces import Space, base_e, phase_j
from .tensors import TwoForm, _matsum, _table, _transport

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100

def _determinant(space, M, memo=None, minor=None):
    """Determinant of a small matrix of fields, or of its minor on the rows
    and columns minor, by cofactor expansion; memo keeps each minor's."""
    rows, cols = minor = minor or (tuple(range(len(M))),) * 2
    if len(rows) < 2:
        return M[rows[0]][cols[0]] if rows else const_field(space, 1.0)
    memo = {} if memo is None else memo
    if minor not in memo:
        # one 1 x 1 table per term, so that its zero terms are left out
        terms = [("+" if j % 2 == 0 else "+-", [[M[rows[0]][c]]], [[_determinant(
            space, M, memo, (rows[1:], cols[:j] + cols[j + 1:]))]])
            for j, c in enumerate(cols)]
        memo[minor] = _matsum(space, *terms[0], terms[1:])[0][0]
    return memo[minor]


def invert_field_matrix(space, M):
    """Inverse of a matrix of fields via the adjugate, each distinct minor
    expanded once; entries become rational expression trees."""
    d, memo, every = len(M), {}, tuple(range(len(M)))
    det = _determinant(space, M, memo)

    def entry(i, j):
        cof = _determinant(space, M, memo, (every[:j] + every[j + 1:],
                                            every[:i] + every[i + 1:]))
        return (cof if (i + j) % 2 == 0 else -cof) / det
    return _table(d, 2, entry)


class ChartMap:
    def __init__(self, src: Space, dst: Space, fwd, inv):
        if len(fwd) != dst.dim:
            raise TransformError(f"forward map needs {dst.dim} components")
        if len(inv) != src.dim:
            raise TransformError(f"inverse map needs {src.dim} components")
        self.src = src
        self.dst = dst
        self.fwd = list(fwd)
        self.inv = list(inv)

    @functools.cached_property
    def _jac_fwd_at_inv(self):
        """J^a_b = d fwd^a / dx^b, composed with the inverse: fields on dst."""
        return [[compose(self.fwd[a].diff(name), self.inv, self.dst)
                 for name in self.src.coords] for a in range(self.dst.dim)]

    @functools.cached_property
    def _jac_inv(self):
        """K^b_a = d inv^b / dy^a: fields on dst."""
        return [[self.inv[b].diff(name) for name in self.dst.coords]
                for b in range(self.src.dim)]

    def push(self, obj):
        """obj, a scalar field or a tensor of any variance, written in the
        target chart: one Jacobian factor for each upper index, one factor
        of the inverse's Jacobian for each lower one."""
        variance = getattr(obj, "variance", None)
        if variance is None:
            raise TypeError(f"cannot transform a {type(obj).__name__}")
        J = self._jac_fwd_at_inv if "u" in variance else None
        K = self._jac_inv if "d" in variance else None
        return _transport(obj, self.inv, self.dst, J, K)

    # the per-kind names callers use; bench/tracer.py wraps each of them
    push_scalar = push_vector = push_oneform = push_tensor11 = push
    push_twoform = push_bivector = push_tensor12 = push


def pullback_twoform(maps, src: Space, w: TwoForm) -> TwoForm:
    """Pull a two-form back along an arbitrary map given by component
    fields on src (no inverse needed); used e.g. for sections of the
    momentum bundle. This is the transport with the map's Jacobian as K."""
    jac = [[m.diff(name) for name in src.coords] for m in maps]
    return _transport(w, maps, src, None, jac)


class FibredTransform:
    """A time-dependent change of base coordinates Q^i = Q^i(t, q), with its
    induced transform on momentum phase space."""

    def __init__(self, n: int, q_fwd, q_inv=None):
        if len(q_fwd) != n:
            raise TransformError(f"need {n} forward components")
        self.n = n
        self.base = base_e(n)
        self.q_fwd = list(q_fwd)
        if q_inv is not None and len(q_inv) != n:
            raise TransformError(f"need {n} inverse components")
        if q_inv is None:
            q_inv = procedural_map(self.base, ("newton inverse",) + tuple(
                [f.expr for f in self.q_fwd]), n, self._newton_inverse)
        self.q_inv = list(q_inv)

    # -- numeric inverse ----------------------------------------------------

    def _newton_inverse(self):
        """The `procedural_map` functions of the inverse q = q(t, Q): its
        state inverts Q = Q(t, q) by Newton's method seeded at the target,
        over all the points of a batch at once with one stacked linear solve
        per step, and its derivatives follow from the implicit function
        theorem at the solution. A row stops when it converges, when its
        iterate repeats an earlier one bit for bit (the step depends on q
        alone, so the iterates cycle through points that all failed
        NEWTON_TOL and can never converge), or after NEWTON_MAX_ITER steps;
        the rows that do not converge are rejected."""
        n = self.n
        # the forward map and its derivatives, compiled once for every solve,
        # gradient and Hessian: Q, the flattened dQ/dq, dQ/dt and Q_zz
        fwd = program(self.q_fwd)
        dQdq = program([f.diff(f"q{j + 1}") for f in self.q_fwd
                        for j in range(n)])
        dQdt = program([f.diff("t") for f in self.q_fwd])
        d2Q = second_partials(self.q_fwd)

        def solve(b):
            X = b.X
            target = X[:, 1:]
            q = target.copy()  # seeded at the point itself
            active = np.flatnonzero(~b.rejected)
            seen = {i: {q[i].tobytes()} for i in active.tolist()}

            def failed(i):
                return TransformError(
                    f"Newton iteration failed to invert at {b.point(i)}")

            for _ in range(NEWTON_MAX_ITER):
                if not active.size:
                    break
                it = Batch(np.hstack([X[active, :1], q[active]]), rows=active)
                res = by_point(fwd(it), n) - target[active]
                # a converged row is done: it takes no further step
                it.rejected |= np.max(np.abs(res), axis=1) < NEWTON_TOL
                jac = by_point(dQdq(it), n, n)
                b.absorb(it)
                go = np.flatnonzero(~it.rejected)
                rows = active[go]
                if not go.size:
                    break
                try:
                    step = np.linalg.solve(jac[go], res[go][..., None])[..., 0]
                except np.linalg.LinAlgError:
                    step = np.zeros((go.size, n))
                    for j, i in enumerate(rows.tolist()):
                        try:
                            step[j] = np.linalg.solve(jac[go[j]], res[go[j]])
                        except np.linalg.LinAlgError:
                            b.reject([i], lambda i: TransformError(
                                f"singular Jacobian at t={X[i, 0]}, q={q[i]}"))
                    step, rows = step[~b.rejected[rows]], rows[~b.rejected[rows]]
                q[rows] = q[rows] - step
                cycled = np.zeros(rows.size, dtype=bool)
                for j, i in enumerate(rows.tolist()):
                    cycled[j] = q[i].tobytes() in seen[i]
                    seen[i].add(q[i].tobytes())
                b.reject(rows[cycled], failed)
                active = rows[~cycled]
            else:
                b.reject(active, failed)
            return (q,)

        def at(b, state, fn):
            # fn in the child batch that expr._run gives a call on (t, *q_inv)
            args = [coord_field(self.base, "t")] + self.q_inv
            return b.on(("call", tuple([f.expr for f in args])),
                        lambda: np.column_stack([b.X[:, 0], state[0]]), fn)

        def inverse_jacobian(b, state):
            # dq/dQ = Jq^{-1}; dq/dt = -Jq^{-1} dQ/dt, all at the solution:
            # row i of the (m, n, 1 + n) result is the gradient of q^i
            jac = at(b, state, lambda c: by_point(dQdq(c), n, n))
            jinv = b.by_row(np.zeros_like(jac), np.flatnonzero(~b.rejected),
                            lambda r: np.linalg.inv(jac[r]), lambda i: TransformError(
                                f"singular Jacobian at t={b.X[i, 0]}, q={state[0][i]}"))
            dt = at(b, state, lambda c: by_point(dQdt(c), n))
            dt_part = (-jinv @ dt[..., None])[..., 0]
            return np.concatenate([dt_part[..., None], jinv], axis=2)

        def inverse_hessian(b, state, grads):
            # Q(t, q(t, Q)) = Q is linear in x = (t, Q), so with z = (t, q)
            # and D = dz/dx (dt/dx = e_t over the gradient of q), Jq d_a d_b q
            # + Q_zz[D_a, D_b] = 0: d_a d_b q = -Jq^{-1} D^T Q_zz D, with the
            # second partials Q_zz at the solution
            m, dim = len(b.X), n + 1
            D = np.zeros((m, dim, dim))
            D[:, 0, 0] = 1.0
            D[:, 1:] = grads
            S = D.swapaxes(1, 2)[:, None] @ at(b, state, d2Q) @ D[:, None]
            jinv = np.ascontiguousarray(grads[:, :, 1:])
            return -(jinv @ S.reshape(m, n, dim * dim)).reshape(m, n, dim, dim)

        return solve, inverse_jacobian, inverse_hessian

    # -- chart maps ---------------------------------------------------------

    def base_map(self) -> ChartMap:
        return ChartMap(self.base, self.base,
                        [coord_field(self.base, "t")] + self.q_fwd,
                        [coord_field(self.base, "t")] + self.q_inv)

    def phase_map(self) -> ChartMap:
        """Induced map on PhaseJ: P_j = p_i dq^i/dQ^j evaluated along the
        forward map, i.e. p_i (dQ/dq)^{-1}."""
        n = self.n
        base = self.base
        pj = phase_j(n)
        # forward q-block Jacobian and its inverse, as fields on the base
        Jq = [[self.q_fwd[i].diff(f"q{j + 1}") for j in range(n)] for i in range(n)]
        A = invert_field_matrix(base, Jq)  # A^i_j = dq^i/dQ^j o (t, Q(t, q))
        P = [coord_field(pj, f"p{i + 1}") for i in range(n)]
        fwd = [coord_field(pj, "t")]
        fwd += [inject(f, pj) for f in self.q_fwd]
        fwd += _matsum(pj, "+", [P], [[inject(g, pj) for g in col] for col in zip(*A)])[0]
        # inverse: q = q(t, Q); p_i = P_j dQ^j/dq^i o (t, q(t, Q))
        inv = [coord_field(pj, "t")]
        inv += [inject(g, pj) for g in self.q_inv]
        back = [coord_field(base, "t")] + self.q_inv
        B = [[compose(Jq[j][i], back, base)
              for j in range(n)] for i in range(n)]  # B^j_i = dQ^j/dq^i o inv
        inv += _matsum(pj, "+", [P], [[inject(g, pj) for g in row] for row in B])[0]
        return ChartMap(pj, pj, fwd, inv)
