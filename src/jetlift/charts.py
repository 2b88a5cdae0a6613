"""Coordinate changes and transport of tensors between charts.

A ChartMap carries the forward coordinate functions (fields on the source
chart) and the inverse coordinate functions (fields on the target chart).
Push-forward of contravariant indices uses the forward Jacobian composed
with the inverse; covariant indices use the Jacobian of the inverse.

FibredTransform specializes to time-preserving maps (t, q) -> (t, Q(t, q))
and induces the momentum-space map P_j = p_i dq^i/dQ^j.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import TransformError
from .fields import (
    ProceduralField,
    ScalarField,
    compose,
    const_field,
    coord_field,
    inject,
    zero,
)
from .spaces import Space, base_e, phase_j
from .tensors import (
    Bivector,
    OneForm,
    Tensor11,
    Tensor12,
    TwoForm,
    VectorField,
    sum_fields,
)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


def _determinant(space, M):
    """Determinant of a small matrix of fields, by cofactor expansion."""
    d = len(M)
    if d == 1:
        return M[0][0]
    acc = zero(space)
    sign = 1.0
    for j in range(d):
        minor = [[M[i][k] for k in range(d) if k != j] for i in range(1, d)]
        term = M[0][j] * _determinant(space, minor)
        acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


def invert_field_matrix(space, M):
    """Inverse of a matrix of fields via the adjugate; entries become
    rational expressions (symbolic inputs stay symbolic)."""
    d = len(M)
    det = _determinant(space, M)
    if d == 1:
        return [[const_field(space, 1.0) / det]]
    inv = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [[M[r][c] for c in range(d) if c != i]
                     for r in range(d) if r != j]
            cof = _determinant(space, minor)
            inv[i][j] = (cof if (i + j) % 2 == 0 else -cof) / det
    return inv


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
        d_src, d_dst = self.src.dim, self.dst.dim
        entries = []
        for a in range(d_dst):
            row = []
            for b in range(d_dst):
                terms = [J[a][c] * Tc[c][e] * K[e][b]
                         for c in range(d_src) for e in range(d_src)]
                row.append(sum_fields(self.dst, terms))
            entries.append(row)
        return Tensor11(self.dst, entries)

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
        Nc = [[[self.push_scalar(N.comps[a][b][c]) for c in range(self.src.dim)]
               for b in range(self.src.dim)] for a in range(self.src.dim)]
        d_src, d_dst = self.src.dim, self.dst.dim
        comps = []
        for a in range(d_dst):
            plane = []
            for b in range(d_dst):
                row = []
                for c in range(d_dst):
                    terms = [J[a][x] * Nc[x][y][z] * K[y][b] * K[z][c]
                             for x in range(d_src) for y in range(d_src)
                             for z in range(d_src)]
                    row.append(sum_fields(self.dst, terms))
                plane.append(row)
            comps.append(plane)
        return Tensor12(self.dst, comps)

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
        """Invert Q = Q(t, q) per point by Newton's method seeded at the
        target. A solve stops when it converges, when an iterate repeats an
        earlier one bit for bit (the step depends on q alone, so the
        iterates cycle through points that all failed NEWTON_TOL and can
        never converge), or after NEWTON_MAX_ITER steps."""
        n = self.n
        # the derivative fields, built once for every solve and gradient
        dQdq = [[f.diff(f"q{j + 1}") for j in range(n)] for f in self.q_fwd]
        dQdt = [f.diff("t") for f in self.q_fwd]

        def q_jacobian_at(t, q):
            pt = (t,) + tuple(q)
            return np.array([[f.eval(pt) for f in row] for row in dQdq])

        @lru_cache(maxsize=4096)
        def solve(point):
            t = point[0]
            target = np.array(point[1:])
            q = np.array(point[1:], dtype=float)  # seeded at the point itself
            seen = {q.tobytes()}
            for _ in range(NEWTON_MAX_ITER):
                val = np.array([f.eval((t,) + tuple(q)) for f in self.q_fwd])
                res = val - target
                if np.max(np.abs(res)) < NEWTON_TOL:
                    return tuple(q)
                jac = q_jacobian_at(t, q)
                try:
                    step = np.linalg.solve(jac, res)
                except np.linalg.LinAlgError as e:
                    raise TransformError(f"singular Jacobian at t={t}, q={q}") from e
                q = q - step
                key = q.tobytes()
                if key in seen:
                    break
                seen.add(key)
            raise TransformError(f"Newton iteration failed to invert at {point}")

        def make_field(i):
            def value(pt):
                return solve(tuple(pt))[i]

            def grad(pt):
                # dq/dQ = Jq^{-1}; dq/dt = -Jq^{-1} dQ/dt, all at the solution
                t = pt[0]
                q = solve(tuple(pt))
                base_pt = (t,) + q
                jac = q_jacobian_at(t, q)
                jinv = np.linalg.inv(jac)
                dt_part = -jinv @ np.array([f.eval(base_pt) for f in dQdt])
                return (dt_part[i],) + tuple(jinv[i])

            return ProceduralField(self.base, value, grad, 2)

        return [make_field(i) for i in range(n)]

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
        for j in range(n):
            terms = [coord_field(pj, f"p{i + 1}") * inject(A[i][j], pj)
                     for i in range(n)]
            fwd.append(sum_fields(pj, terms))
        # inverse: q = q(t, Q); p_i = P_j dQ^j/dq^i o (t, q(t, Q))
        inv = [coord_field(pj, "t")]
        inv += [inject(g, pj) for g in self.q_inv]
        B = [[compose(Jq[j][i], [coord_field(base, "t")] + self.q_inv, base)
              for j in range(n)] for i in range(n)]  # B^j_i = dQ^j/dq^i o inv
        for i in range(n):
            terms = [coord_field(pj, f"p{j + 1}") * inject(B[i][j], pj)
                     for j in range(n)]
            inv.append(sum_fields(pj, terms))
        return ChartMap(pj, pj, fwd, inv)
