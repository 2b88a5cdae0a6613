"""Lifting operations from the base bundle to momentum phase space (and one
to the extended cotangent space), by their closed coordinate formulas.

The basis-defining relations of the complete lift are exercised in the test
and verification suites rather than used for construction.
"""
from __future__ import annotations

from functools import cache

from .errors import JetliftError, SpaceMismatchError
from .fields import ScalarField, coord_field, inject, zero
from .report import DEFAULT_TOL, max_residual
from .spaces import BASE_E, Space, extended_t, phase_j
from .tensors import (
    OneForm,
    Tensor11,
    TwoForm,
    VectorField,
    _matsum,
    adjoint_tensor11,
)


class LiftError(JetliftError):
    pass


def _require_base(obj):
    if obj.space.kind != BASE_E:
        raise SpaceMismatchError(f"expected an object on the base, got {obj.space}")
    return obj.space.n


def _require_annihilates_dt(R: Tensor11):
    _require_base(R)
    if not R.annihilates_dt:
        raise LiftError("the tensor does not annihilate dt (nonzero t-row)")


def momentum_function(X: VectorField) -> ScalarField:
    """F_X(t, q, p) = p_i X^i(t, q), for vertical X."""
    n = _require_base(X)
    if not X.is_vertical:
        raise LiftError("momentum function requires a vertical vector field")
    return _p_sum(phase_j(n), X.comps[1:])


@cache
def _momenta(space: Space) -> tuple:
    """The fields p_1, ..., p_n on space, built once."""
    return tuple(coord_field(space, f"p{i}") for i in range(1, space.n + 1))


def _p_sum(space: Space, fields, sign="+") -> ScalarField:
    """The sum of sign p_i f_i over the base fields f_1, f_2, ..., on space."""
    return _matsum(space, sign, [_momenta(space)],
                   [[inject(f, space) for f in fields]])[0][0]


def vlift_oneform(alpha: OneForm) -> VectorField:
    """The vertical lift alpha_i d/dp_i; the dt-component is discarded."""
    n = _require_base(alpha)
    pj = phase_j(n)
    comps = [zero(pj)] * (n + 1)
    comps += [inject(alpha.comps[i], pj) for i in range(1, n + 1)]
    return VectorField(pj, comps)


def complete_lift_vector(X: VectorField) -> VectorField:
    """X^i d/dq^i [+ d/dt] - p_j dX^j/dq^i d/dp_i, for X vertical or
    t-normalized."""
    n = _require_base(X)
    if not (X.is_vertical or X.is_t_normalized):
        raise LiftError("complete lift needs a vertical or t-normalized field")
    pj = phase_j(n)
    comps = [inject(X.comps[0], pj)]
    comps += [inject(X.comps[i], pj) for i in range(1, n + 1)]
    comps += [_p_sum(pj, [X.comps[j].diff(f"q{i}") for j in range(1, n + 1)], "+-")
              for i in range(1, n + 1)]
    return VectorField(pj, comps)


def vlift_tensor11(R: Tensor11) -> VectorField:
    """p_i R^i_j d/dp_j."""
    _require_annihilates_dt(R)
    n = R.space.n
    pj = phase_j(n)
    return VectorField(pj, [zero(pj)] * (n + 1) + _p_contracted(R, pj))


def hlift_tensor11(R: Tensor11) -> OneForm:
    """The semi-basic one-form p_i R^i_j dq^j + p_i R^i_0 dt."""
    _require_annihilates_dt(R)
    n = R.space.n
    pj = phase_j(n)
    # the dt and dq^1..dq^n columns of R
    return OneForm(pj, _p_contracted(R, pj, 0) + [zero(pj)] * n)


def _p_contracted(R: Tensor11, pj: Space, first=1) -> list:
    """p_i R^i_j for the columns j = first..n of R, as fields on pj."""
    n = R.space.n
    return [_p_sum(pj, [R.entries[i][j] for i in range(1, n + 1)])
            for j in range(first, n + 1)]


def _lift_blocks(R: Tensor11, space: Space, pi):
    """Shared blocks of the two complete lifts on a space (t, q1..qn, ...);
    pi maps 1-based base indices to the positions of the momenta."""
    n = R.space.n
    d = space.dim
    entries = [[zero(space)] * d for _ in range(d)]
    for i in range(1, n + 1):
        entries[i][0] = inject(R.entries[i][0], space)  # R^i_0 dq-row, dt column
        for j in range(1, n + 1):
            entries[i][j] = inject(R.entries[i][j], space)
            entries[pi(j)][pi(i)] = inject(R.entries[i][j], space)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            entries[pi(j)][k] = _p_sum(space, [
                R.entries[i][j].diff(f"q{k}") - R.entries[i][k].diff(f"q{j}")
                for i in range(1, n + 1)])
    for k in range(1, n + 1):
        entries[pi(k)][0] = _p_sum(space, [
            R.entries[i][k].diff("t") - R.entries[i][0].diff(f"q{k}")
            for i in range(1, n + 1)])
    return entries


def complete_lift_tensor11(R: Tensor11) -> Tensor11:
    """The unique lift acting as R on vertical lifts and as the lifted image
    plus a Lie-derivative correction on complete lifts."""
    _require_annihilates_dt(R)
    n = R.space.n
    pj = phase_j(n)
    entries = _lift_blocks(R, pj, lambda i: n + i)
    return Tensor11(pj, entries)


def complete_lift_cotangent(R: Tensor11) -> Tensor11:
    """The complete lift to the extended cotangent space, with the extra
    d/dp0 row coupling to R^i_0 and the derivative asymmetry."""
    _require_annihilates_dt(R)
    n = R.space.n
    et = extended_t(n)
    p0 = n + 1  # index of p0 in (t, q1..qn, p0, p1..pn)
    entries = _lift_blocks(R, et, lambda i: n + 1 + i)
    for i in range(1, n + 1):
        entries[p0][n + 1 + i] = inject(R.entries[i][0], et)
    for k in range(1, n + 1):
        entries[p0][k] = _p_sum(et, [
            R.entries[i][0].diff(f"q{k}") - R.entries[i][k].diff("t")
            for i in range(1, n + 1)])
    return Tensor11(et, entries)


def vlift_cov2(K, space_e: Space) -> Tensor11:
    """Vertical lift of a covariant 2-tensor on the base (given as a full
    matrix of fields) to a (1,1) tensor on phase space: the entry in the
    d/dp_j row, dx^a column is K(d/dx^a, d/dq^j)."""
    n = space_e.n
    pj = phase_j(n)
    d = pj.dim
    entries = [[zero(pj)] * d for _ in range(d)]
    for j in range(1, n + 1):
        for a in range(n + 1):  # t and q columns only: the lift is semi-basic
            entries[n + j][a] = inject(K[a][j], pj)
    return Tensor11(pj, entries)


def vlift_twoform(w: TwoForm) -> Tensor11:
    _require_base(w)
    return vlift_cov2(w.entries, w.space)


def canonical_theta(n: int) -> TwoForm:
    """Theta = p_i dq^i ^ dt on phase space."""
    pj = phase_j(n)
    d = pj.dim
    entries = [[zero(pj)] * d for _ in range(d)]
    for i in range(1, n + 1):
        p = coord_field(pj, f"p{i}")
        entries[i][0] = p
        entries[0][i] = -p
    return TwoForm(pj, entries)


def theta_representative(n: int) -> OneForm:
    """The canonical representative p_i dq^i of the class of one-forms."""
    pj = phase_j(n)
    comps = [zero(pj)]
    comps += [coord_field(pj, f"p{i}") for i in range(1, n + 1)]
    comps += [zero(pj)] * n
    return OneForm(pj, comps)


# ---------------------------------------------------------------------------
# relatedness under the projection dropping p0

def project_oneform_to_extended(sigma: OneForm) -> OneForm:
    """Pull a one-form on phase space back along (t,q,p0,p) -> (t,q,p)."""
    n = sigma.space.n
    et = extended_t(n)
    comps = [inject(sigma.comps[0], et)]
    comps += [inject(sigma.comps[i], et) for i in range(1, n + 1)]
    comps.append(zero(et))  # dp0 component
    comps += [inject(sigma.comps[n + i], et) for i in range(1, n + 1)]
    return OneForm(et, comps)


def rho_pairs(U: Tensor11, V: Tensor11):
    """The one-forms U(rho* sigma) and rho*(V(sigma)) on the extended space,
    as two lists, for sigma over the coordinate co-basis of phase space.
    rho drops p0; U and V are rho-related when the lists agree."""
    pj = phase_j(V.space.n)
    lhs, rhs = [], []
    for k in range(pj.dim):
        comps = [0.0] * pj.dim
        comps[k] = 1.0
        sigma = OneForm(pj, comps)
        lhs.append(adjoint_tensor11(U, project_oneform_to_extended(sigma)))
        rhs.append(project_oneform_to_extended(adjoint_tensor11(V, sigma)))
    return lhs, rhs


def rho_related(U: Tensor11, V: Tensor11, points, tol=DEFAULT_TOL):
    """Check U(rho* sigma) = rho*(V(sigma)) over the coordinate co-basis of
    phase space, at the given extended-space sample points."""
    lhs, rhs = rho_pairs(U, V)
    return max_residual(lhs, points, rhs) < tol
