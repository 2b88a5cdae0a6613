"""Coordinate changes and transport of tensors between charts.

A ChartMap carries the forward coordinate functions (fields on the source
chart) and the inverse coordinate functions (fields on the target chart).
Push-forward of contravariant indices uses the forward Jacobian composed
with the inverse; covariant indices use the Jacobian of the inverse.

FibredTransform specializes to time-preserving maps (t, q) -> (t, Q(t, q))
and induces the momentum-space map P_j = p_i dq^i/dQ^j.
"""
from __future__ import annotations

import numpy as np

from .errors import TransformError
from .fields import (
    Batch,
    ProceduralField,
    ScalarField,
    compose,
    const_field,
    coord_field,
    inject,
)
from .spaces import Space, base_e, phase_j
from .tensors import (
    Bivector,
    OneForm,
    Tensor11,
    Tensor12,
    TwoForm,
    VectorField,
    _table,
    sum_fields,
)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


def _determinant(space, M):
    """Determinant of a small matrix of fields, by cofactor expansion."""
    d = len(M)
    if d == 1:
        return M[0][0]
    terms = [M[0][j] * _determinant(space, [[M[i][k] for k in range(d) if k != j]
                                            for i in range(1, d)])
             for j in range(d)]
    return sum_fields(space, [t if j % 2 == 0 else -t for j, t in enumerate(terms)])


def invert_field_matrix(space, M):
    """Inverse of a matrix of fields via the adjugate; entries become
    rational expressions (symbolic inputs stay symbolic)."""
    d = len(M)
    det = _determinant(space, M)
    if d == 1:
        return [[const_field(space, 1.0) / det]]

    def entry(i, j):
        cof = _determinant(space, [[M[r][c] for c in range(d) if c != i]
                                   for r in range(d) if r != j])
        return (cof if (i + j) % 2 == 0 else -cof) / det
    return _table(d, 2, entry)


class ChartMap:
    def __init__(self, src: Space, dst: Space, fwd, inv=None):
        if len(fwd) != dst.dim:
            raise TransformError(f"forward map needs {dst.dim} components")
        if inv is not None and len(inv) != src.dim:
            raise TransformError(f"inverse map needs {src.dim} components")
        self.src = src
        self.dst = dst
        self.fwd = list(fwd)
        self.inv = list(inv) if inv is not None else None

    def _require_inv(self):
        if self.inv is None:
            raise TransformError("the chart map has no inverse")
        return self.inv

    def _jac_fwd_at_inv(self):
        """J^a_b = d fwd^a / dx^b, composed with the inverse: fields on dst."""
        inv = self._require_inv()
        out = []
        for a in range(self.dst.dim):
            row = []
            for b, name in enumerate(self.src.coords):
                row.append(compose(self.fwd[a].diff(name), inv, self.dst))
            out.append(row)
        return out

    def _jac_inv(self):
        """K^b_a = d inv^b / dy^a: fields on dst."""
        inv = self._require_inv()
        return [[inv[b].diff(name) for name in self.dst.coords]
                for b in range(self.src.dim)]

    def push_scalar(self, f: ScalarField) -> ScalarField:
        return compose(f, self._require_inv(), self.dst)

    def push_vector(self, X: VectorField) -> VectorField:
        J = self._jac_fwd_at_inv()
        Xc = [self.push_scalar(c) for c in X.comps]
        return VectorField(self.dst, [
            sum_fields(self.dst, [J[a][b] * Xc[b] for b in range(self.src.dim)])
            for a in range(self.dst.dim)])

    def push_oneform(self, alpha: OneForm) -> OneForm:
        K = self._jac_inv()
        ac = [self.push_scalar(c) for c in alpha.comps]
        return OneForm(self.dst, [
            sum_fields(self.dst, [ac[b] * K[b][a] for b in range(self.src.dim)])
            for a in range(self.dst.dim)])

    def push_tensor11(self, T: Tensor11) -> Tensor11:
        J = self._jac_fwd_at_inv()
        K = self._jac_inv()
        Tc = [[self.push_scalar(v) for v in row] for row in T.entries]
        s = range(self.src.dim)
        return Tensor11(self.dst, _table(self.dst.dim, 2, lambda a, b: sum_fields(
            self.dst, [J[a][c] * Tc[c][e] * K[e][b] for c in s for e in s])))

    def push_twoform(self, w: TwoForm) -> TwoForm:
        K = self._jac_inv()
        wc = [[self.push_scalar(v) for v in row] for row in w.entries]
        d_src, d_dst = self.src.dim, self.dst.dim
        return TwoForm(self.dst, [
            [sum_fields(self.dst, [K[c][a] * K[e][b] * wc[c][e]
                                   for c in range(d_src) for e in range(d_src)])
             for b in range(d_dst)] for a in range(d_dst)])

    def push_bivector(self, L: Bivector) -> Bivector:
        J = self._jac_fwd_at_inv()
        Lc = [[self.push_scalar(v) for v in row] for row in L.entries]
        d_src, d_dst = self.src.dim, self.dst.dim
        return Bivector(self.dst, [
            [sum_fields(self.dst, [J[a][c] * J[b][e] * Lc[c][e]
                                   for c in range(d_src) for e in range(d_src)])
             for b in range(d_dst)] for a in range(d_dst)])

    def push_tensor12(self, N: Tensor12) -> Tensor12:
        J = self._jac_fwd_at_inv()
        K = self._jac_inv()
        s = range(self.src.dim)
        Nc = _table(self.src.dim, 3,
                    lambda a, b, c: self.push_scalar(N.comps[a][b][c]))
        return Tensor12(self.dst, _table(self.dst.dim, 3, lambda a, b, c: sum_fields(
            self.dst, [J[a][x] * Nc[x][y][z] * K[y][b] * K[z][c]
                       for x in s for y in s for z in s])))

    def push(self, obj):
        if isinstance(obj, ScalarField):
            return self.push_scalar(obj)
        if isinstance(obj, VectorField):
            return self.push_vector(obj)
        if isinstance(obj, OneForm):
            return self.push_oneform(obj)
        if isinstance(obj, Tensor11):
            return self.push_tensor11(obj)
        if isinstance(obj, TwoForm):
            return self.push_twoform(obj)
        if isinstance(obj, Bivector):
            return self.push_bivector(obj)
        if isinstance(obj, Tensor12):
            return self.push_tensor12(obj)
        raise TypeError(f"cannot transform a {type(obj).__name__}")


def pullback_twoform(maps, src: Space, w: TwoForm) -> TwoForm:
    """Pull a two-form back along an arbitrary map given by component
    fields on src (no inverse needed); used e.g. for sections of the
    momentum bundle."""
    d_dst = w.space.dim
    d_src = src.dim
    jac = [[maps[c].diff(name) for name in src.coords] for c in range(d_dst)]
    wc = [[compose(w.entries[c][e], maps, src) for e in range(d_dst)]
          for c in range(d_dst)]
    return TwoForm(src, [
        [sum_fields(src, [jac[c][a] * jac[e][b] * wc[c][e]
                          for c in range(d_dst) for e in range(d_dst)])
         for b in range(d_src)] for a in range(d_src)])


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
        self.q_inv = list(q_inv) if q_inv is not None else self._newton_inverse()

    # -- numeric inverse ----------------------------------------------------

    def _newton_inverse(self):
        """Invert Q = Q(t, q) by Newton's method seeded at the target, over
        all the points of a batch at once with one stacked linear solve per
        step. A row stops when it converges, when its iterate repeats an
        earlier one bit for bit (the step depends on q alone, so the
        iterates cycle through points that all failed NEWTON_TOL and can
        never converge), or after NEWTON_MAX_ITER steps; the rows that do
        not converge are rejected."""
        n = self.n
        # the derivative fields, built once for every solve and gradient
        dQdq = [[f.diff(f"q{j + 1}") for j in range(n)] for f in self.q_fwd]
        dQdt = [f.diff("t") for f in self.q_fwd]

        def values(fields, b):
            return np.column_stack([f._value(b) for f in fields])

        def q_jacobian(b):
            return np.stack([values(row, b) for row in dQdq], axis=1)

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
                res = values(self.q_fwd, it) - target[active]
                # a converged row is done: it takes no further step
                it.rejected |= np.max(np.abs(res), axis=1) < NEWTON_TOL
                jac = q_jacobian(it)
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
            return q

        key = ("newton", id(dQdq))

        def solution(b):
            return b.once(key, lambda: solve(b))

        def inverse_jacobian(b):
            # dq/dQ = Jq^{-1}; dq/dt = -Jq^{-1} dQ/dt, all at the solution:
            # row i of the (m, n, 1 + n) result is the gradient of q^i
            def compute():
                q = solution(b)

                def at(fn):
                    return b.on(key + ("at",),
                                lambda: np.column_stack([b.X[:, 0], q]), fn)

                jac = at(q_jacobian)
                live = np.flatnonzero(~b.rejected)
                jinv = np.zeros_like(jac)
                jinv[live] = np.linalg.inv(jac[live])
                dt = at(lambda c: values(dQdt, c))
                dt_part = (-jinv @ dt[..., None])[..., 0]
                return np.concatenate([dt_part[..., None], jinv], axis=2)
            return b.once(key + ("grad",), compute)

        return [ProceduralField(self.base, lambda b, i=i: solution(b)[:, i],
                                lambda b, i=i: inverse_jacobian(b)[:, i, :],
                                2, _on_batch=True) for i in range(n)]

    # -- chart maps ---------------------------------------------------------

    def base_map(self) -> ChartMap:
        t_src = coord_field(self.base, "t")
        t_dst = coord_field(self.base, "t")
        return ChartMap(self.base, self.base,
                        [t_src] + self.q_fwd, [t_dst] + self.q_inv)

    def phase_map(self) -> ChartMap:
        """Induced map on PhaseJ: P_j = p_i dq^i/dQ^j evaluated along the
        forward map, i.e. p_i (dQ/dq)^{-1}."""
        n = self.n
        base = self.base
        pj = phase_j(n)
        # forward q-block Jacobian and its inverse, as fields on the base
        Jq = [[self.q_fwd[i].diff(f"q{j + 1}") for j in range(n)] for i in range(n)]
        A = invert_field_matrix(base, Jq)  # A^i_j = dq^i/dQ^j o (t, Q(t, q))
        fwd = [coord_field(pj, "t")]
        fwd += [inject(f, pj) for f in self.q_fwd]
        fwd += [sum_fields(pj, [coord_field(pj, f"p{i + 1}") * inject(A[i][j], pj)
                                for i in range(n)]) for j in range(n)]
        # inverse: q = q(t, Q); p_i = P_j dQ^j/dq^i o (t, q(t, Q))
        inv = [coord_field(pj, "t")]
        inv += [inject(g, pj) for g in self.q_inv]
        back = [coord_field(base, "t")] + self.q_inv
        B = [[compose(Jq[j][i], back, base)
              for j in range(n)] for i in range(n)]  # B^j_i = dQ^j/dq^i o inv
        inv += [sum_fields(pj, [coord_field(pj, f"p{j + 1}") * inject(B[i][j], pj)
                                for j in range(n)]) for i in range(n)]
        return ChartMap(pj, pj, fwd, inv)
