"""Canonical Poisson structure on phase space, Hamiltonian fields, the
Magri-Morosi concomitant, Poisson-Nijenhuis verification, eigen-analysis
of a (1,1) tensor, and the Darboux-Nijenhuis coordinate construction.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from . import expr as ex
from .charts import FibredTransform
from .errors import EigenError, SpaceMismatchError, TransformError
from .fields import (
    ScalarField,
    SymbolicField,
    by_point,
    evaluate,
    inject,
    procedural_map,
    program,
    second_partials,
    zero,
)
from .lifts import (
    _require_annihilates_dt,
    complete_lift_tensor11,
    complete_lift_vector,
    momentum_function,
    vlift_oneform,
)
from .report import (
    DEFAULT_BOX,
    DEFAULT_POINTS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    Checker,
    CheckReport,
    PROCEDURAL_TOL,
    max_residual,
)
from .spaces import BASE_E, PHASE_J, base_e, phase_j
from .tensors import (
    Bivector,
    OneForm,
    Tensor11,
    VectorField,
    _EXPR_FOLD,
    _matsum,
    _nest,
    _operands,
    _sum,
    adjoint_tensor11,
    apply_tensor11,
    differential,
    lie_derivative,
    nijenhuis_torsion,
    sum_products,
)

EIGEN_DISTINCT_THRESHOLD = 1e-8
EIGEN_RECONSTRUCT_TOL = 1e-10


def canonical_bivector(n: int) -> Bivector:
    """The canonical Poisson bivector: sum of d/dq^i ^ d/dp_i."""
    pj = phase_j(n)
    d = pj.dim
    entries = [[0.0] * d for _ in range(d)]
    for i in range(1, n + 1):
        entries[i][n + i] = 1.0
        entries[n + i][i] = -1.0
    return Bivector(pj, entries)


def poisson_apply(sigma: OneForm) -> VectorField:
    """P(sigma), defined by Lambda(sigma, beta) = <P(sigma), beta>."""
    if sigma.space.kind != PHASE_J:
        raise SpaceMismatchError("the Poisson map lives on phase space")
    n = sigma.space.n
    pj = sigma.space
    comps = [zero(pj)]
    comps += [-sigma.comps[n + i] for i in range(1, n + 1)]  # d/dq^i rows
    comps += [sigma.comps[i] for i in range(1, n + 1)]       # d/dp_i rows
    return VectorField(pj, comps)


def poisson_bracket(F: ScalarField, G: ScalarField) -> ScalarField:
    if F.space is not G.space or F.space.kind != PHASE_J:
        raise SpaceMismatchError("Poisson bracket needs two phase-space fields")
    pj = F.space
    n = pj.n
    return sum_products(pj, [t for i in range(1, n + 1) for t in (
        ("+", [F.diff(f"q{i}"), G.diff(f"p{i}")]),
        ("+-", [F.diff(f"p{i}"), G.diff(f"q{i}")]))])


def fiber_hamiltonian_field(F: ScalarField) -> VectorField:
    """X_F = -P(dF): the fibre-only Hamiltonian field, without d/dt."""
    return -poisson_apply(differential(F))


def hamiltonian_vector_field(H: ScalarField) -> VectorField:
    """X_h = d/dt + dH/dp_i d/dq^i - dH/dq^i d/dp_i."""
    X = fiber_hamiltonian_field(H)
    comps = list(X.comps)
    comps[0] = comps[0] + 1.0
    return VectorField(H.space, comps)


def pullback_oneform_to_phase(alpha: OneForm) -> OneForm:
    """pi* of a one-form on the base: same t,q components, zero p ones."""
    if alpha.space.kind != BASE_E:
        raise SpaceMismatchError("expected a one-form on the base")
    n = alpha.space.n
    pj = phase_j(n)
    comps = [inject(c, pj) for c in alpha.comps]
    comps += [zero(pj)] * n
    return OneForm(pj, comps)


def commutation_defect(Rt: Tensor11) -> list:
    """Field matrix D[c][b] = (P(Rt sigma) - Rt P(sigma)) coefficients:
    sum_a Rt^c_a Lam^ab - sum_a Lam^ca Rt^b_a. Zero iff P and Rt commute."""
    L, E = canonical_bivector(Rt.space.n).entries, Rt.entries
    return _matsum(Rt.space, "+", E, [*zip(*L)], [("+-", L, E)])


def commutation_residual(Rt: Tensor11, points) -> float:
    return max_residual(commutation_defect(Rt), points)


def magri_morosi_table(Rt: Tensor11, sigmas, zs) -> list:
    """[mu(sigma, Z) for sigma in sigmas for Z in zs], where
    mu(sigma, Z) = (L_{P(sigma)} Rt)(Z) - P(L_Z(Rt(sigma)))
    + P(L_{Rt(Z)} sigma), the middle Lie derivative along Z. L_{P(sigma)} Rt
    and Rt(sigma) are built once per sigma, Rt(Z) once per Z, and one
    `_operands` call reads them all. Each pair folds the trees of the terms
    apply_tensor11, lie_derivative and poisson_apply fold, in their order,
    but only the 2n one-form components P keeps, P(w) = (0, -w_p, w_q),
    and no term with a factor `_operands` flags; each component of mu is
    (t1 - t2) + t3, wrapped once."""
    space, d, n = Rt.space, Rt.space.dim, Rt.space.n
    L_Rts = [lie_derivative(poisson_apply(sigma), Rt) for sigma in sigmas]
    objs = ([adjoint_tensor11(Rt, sigma) for sigma in sigmas] + list(sigmas)
            + list(zs) + [apply_tensor11(Rt, Z) for Z in zs])
    diffed = [f for obj in objs for f in obj.comps]
    ops, derivs, dead = _operands(
        space, [f for L in L_Rts for f in L.components()] + diffed, diffed)
    it, rows = iter(ops), iter(derivs)
    Ls = [_nest(list(islice(it, d * d)), d, 2) for _ in sigmas]
    # each object as (components, rows), where rows[b][c] = d_c of component b
    Rt_ss, ss, Zs, Rt_Zs = ([(list(islice(it, d)), list(islice(rows, d)))
                             for _ in part] for part in (sigmas, sigmas, zs, zs))
    r, fold = range(d), _EXPR_FOLD

    def poisson_lie(X, w):
        """P(L_X w), as trees: (L_X w)_b sums X^c d_c w_b + w_c d_b X^c
        over c, for the b that P keeps."""
        (Xc, dX), (wc, dw) = X, w
        L = [_sum([("+", [x, y]) for c in r for x, y in (
            (Xc[c], dw[b][c]), (wc[c], dX[c][b]))
            if x not in dead and y not in dead]) for b in range(1, d)]
        return [ex.ZERO, *map(fold["neg"], L[n:]), *L[:n]]

    out = []
    for L, Rt_s, s in zip(Ls, Rt_ss, ss):
        for Z, Rt_Z in zip(Zs, Rt_Zs):
            t1 = [_sum([("+", [x, z]) for x, z in zip(row, Z[0])
                        if x not in dead and z not in dead]) for row in L]
            t2, t3 = poisson_lie(Z, Rt_s), poisson_lie(Rt_Z, s)
            out.append(VectorField(space, [
                SymbolicField(space, fold["+"](fold["-"](a, b), c))
                for a, b, c in zip(t1, t2, t3)]))
    return out


def magri_morosi(Rt: Tensor11, sigma: OneForm, Z: VectorField) -> VectorField:
    """The Magri-Morosi concomitant mu(sigma, Z) of one pair."""
    return magri_morosi_table(Rt, [sigma], [Z])[0]


@dataclass
class PNReport:
    commutation_residual: float
    magri_morosi_residual: float
    torsion_residual: float
    lifted_torsion_residual: float
    tol: float
    verdict: str  # "pn-structure" | "not-pn"

    @property
    def is_pn(self) -> bool:
        return self.verdict == "pn-structure"

    def to_dict(self):
        return asdict(self)


def _coordinate_basis(space):
    """The coordinate one-forms dx^b and fields d_c of space, in order: the
    concomitant is a tensor, so its table on them fixes it on every pair."""
    unit = [[float(a == b) for a in range(space.dim)] for b in range(space.dim)]
    return ([OneForm(space, row) for row in unit],
            [VectorField(space, row) for row in unit])


def _basis_pairs(n: int):
    """Lifted basis pairs (sigma, Z), the probe `prop7` takes on a model's
    objects; `pn_check` judges the coordinate basis instead."""
    base = base_e(n)
    sigmas = []
    zs = []
    for i in range(1, n + 1):
        dq = OneForm.from_dict(base, {f"q{i}": 1.0})
        sigmas.append(pullback_oneform_to_phase(dq))
        dqi_vert = VectorField.from_dict(base, {f"q{i}": 1.0})
        sigmas.append(differential(momentum_function(dqi_vert)))
        zs.append(vlift_oneform(dq))
        zs.append(complete_lift_vector(dqi_vert))
        weighted = VectorField.from_dict(base, {f"q{i}": f"t + q{i}"})
        zs.append(complete_lift_vector(weighted))
    t_norm = VectorField.from_dict(base, dict(
        [("t", 1.0)] + [(f"q{i}", f"t*q{i}") for i in range(1, n + 1)]))
    zs.append(complete_lift_vector(t_norm))
    return sigmas, zs


def pn_check(R: Tensor11, points=DEFAULT_POINTS, seed=DEFAULT_SEED,
             tol=DEFAULT_TOL, box=DEFAULT_BOX) -> PNReport:
    """Check the Poisson-Nijenhuis conditions for the complete lift of R:
    commutation with the Poisson map, vanishing concomitant, and the torsion
    dichotomy on the base and on phase space. The concomitant is judged on
    every pair of the coordinate basis of phase space."""
    Rt = complete_lift_tensor11(R)  # refuses a tensor with a t-row
    checker = Checker(points=points, seed=seed, tol=tol, box=box)
    sigmas, zs = _coordinate_basis(Rt.space)
    # the base torsion, read at the base part of each phase-space point
    tors_base = [inject(f, Rt.space) for f in nijenhuis_torsion(R).components()]
    comm, mm, tors, tors_lift = checker.sample_residuals([
        commutation_defect(Rt), magri_morosi_table(Rt, sigmas, zs),
        tors_base, nijenhuis_torsion(Rt)])

    ok = comm < tol and mm < tol and tors < tol and tors_lift < tol
    return PNReport(comm, mm, tors, tors_lift, tol,
                    "pn-structure" if ok else "not-pn")


# ---------------------------------------------------------------------------
# eigen-analysis

@dataclass
class EigenData:
    point: tuple
    eigenvalues: tuple       # ascending, the n nonzero-block values
    right: np.ndarray        # columns are right eigenvectors
    left: np.ndarray         # rows are left eigenvectors, u_i . v_j = delta
    lambda0: float = 0.0     # dt is always an eigenform with eigenvalue 0


def _q_block(R: Tensor11):
    n = R.space.n
    return [[R.entries[i][j] for j in range(1, n + 1)] for i in range(1, n + 1)]


def _stacked(rows):
    """run(b): the (m, n, n) stack of a matrix of fields over a Batch b, by
    one program compiled here."""
    run = program([f for row in rows for f in row])
    return lambda b: by_point(run(b), len(rows), len(rows))


def _eigen(A, b):
    """Ascending eigenvalues w, right eigenvectors V (columns) and left ones
    U (rows, u_i . v_j = delta) of the q-blocks A at the rows of batch b.
    Rejects the rows whose eigenvalues are not real and pairwise distinct
    or whose eigenvectors do not rebuild the block, and first those whose
    block is not finite."""
    m, n = A.shape[:2]
    w, V, U = np.zeros((m, n)), np.zeros((m, n, n)), np.zeros((m, n, n))
    b.reject_nonfinite(A.reshape(m, n * n).T)
    live = np.flatnonzero(~b.rejected)
    wc, Vc = np.linalg.eig(A[live])
    imag = np.max(np.abs(wc.imag), axis=1)
    b.reject(live[imag > EIGEN_DISTINCT_THRESHOLD], lambda i: EigenError(
        f"complex eigenvalues {wc[np.searchsorted(live, i)]} at {b.point(i)}"))
    order = np.argsort(wc.real, axis=1)
    k = np.arange(len(live))[:, None]
    w[live] = wc.real[k, order]
    V[live] = Vc.real[k[:, :, None], np.arange(n)[:, None], order[:, None, :]]
    if n > 1:
        gaps = np.diff(w, axis=1).min(axis=1)
        b.reject(np.flatnonzero(gaps < EIGEN_DISTINCT_THRESHOLD), lambda i: (
            EigenError(f"clustered eigenvalues {w[i]} at {b.point(i)}")))
    b.by_row(U, np.flatnonzero(~b.rejected), lambda r: np.linalg.inv(V[r]),
             lambda i: EigenError(f"defective eigenvector matrix at {b.point(i)}"))
    D = np.zeros_like(V)
    D[:, range(n), range(n)] = w
    misfit = np.max(np.abs(V @ D @ U - A), axis=(1, 2))
    b.reject(np.flatnonzero(misfit > EIGEN_RECONSTRUCT_TOL),
             lambda i: EigenError(f"eigen-reconstruction failed at {b.point(i)}"))
    return w, V, U


def eigen_analysis(R: Tensor11, point) -> EigenData:
    """Eigen-decomposition of the q-block of R at a base point; requires
    real, pairwise distinct eigenvalues."""
    _require_annihilates_dt(R)
    block = _stacked(_q_block(R))
    w, V, U = evaluate([point], lambda b: _eigen(block(b), b))
    return EigenData(tuple(point), tuple(w[0]), V[0], U[0])


def eigenvalue_fields(R: Tensor11):
    """Eigenvalues of the q-block as procedural fields on the base, in
    ascending order per point, with analytic first and second derivatives
    from eigenvalue perturbation; made once per q-block."""
    _require_annihilates_dt(R)
    base, block = R.space, _q_block(R)
    n, dim = base.n, base.dim

    def make():
        stacked = _stacked(block)
        dstacked = [_stacked([[f.diff(name) for f in row] for row in block])
                    for name in base.coords]
        d2stacked = second_partials([f for row in block for f in row])

        def dA(b):  # dA/dx^c for every coordinate c, once per batch
            return b.once(dA, lambda: [partial(b) for partial in dstacked])

        def perturbation(b, state):
            # (m, n, dim): u_i . dA/dx^c . v_i for every eigenvalue i and
            # coordinate c
            _, V, U = state
            out = np.empty((len(b.X), n, dim))
            for c, partial in enumerate(dA(b)):
                for i in range(n):
                    out[:, i, c] = (U[:, i:i + 1, :] @ partial
                                    @ V[:, :, i:i + 1])[:, 0, 0]
            return out

        def second_order(b, state, _):
            # (m, n, dim, dim): u_i d_a d_c A v_i plus the sum over j != i of
            # (P_a[i, j] P_c[j, i] + P_c[i, j] P_a[j, i]) / (lambda_i -
            # lambda_j), where P_c[i, j] = u_i . dA/dx^c . v_j (Lancaster 1964)
            w, V, U = state
            P = np.stack([U @ partial @ V for partial in dA(b)], axis=1)
            PP = P[:, :, None] * P.swapaxes(2, 3)[:, None]  # (m, a, c, i, j)
            gaps = w[:, :, None] - w[:, None, :]
            gaps[:, range(n), range(n)] = np.inf  # j = i adds no term
            mixed = ((PP + PP.swapaxes(1, 2)) / gaps[:, None, None]).sum(4)
            d2A = d2stacked(b).reshape(-1, n, n, dim, dim)
            own = (U[:, None, None] @ np.ascontiguousarray(
                np.moveaxis(d2A, (3, 4), (1, 2))) @ V[:, None, None])
            return np.moveaxis(own[..., range(n), range(n)] + mixed, 3, 1)

        return lambda b: _eigen(stacked(b), b), perturbation, second_order

    return procedural_map(base, ("eigenvalues",) + tuple(
        [f.expr for row in block for f in row]), n, make)


def build_dn_transform(R: Tensor11, box=DEFAULT_BOX, points=16,
                       seed=DEFAULT_SEED, tol=DEFAULT_TOL) -> FibredTransform:
    """Use the eigenvalues of R as new fibre coordinates. Valid when the
    torsion vanishes and the map (t, q) -> (t, lambda) has a nonsingular
    q-Jacobian on the sampled domain."""
    n = R.space.n
    checker = Checker(points=points, seed=seed, tol=tol, box=box)
    lam = eigenvalue_fields(R)
    probe = program(lam)  # a point is drawn where the eigenvalues evaluate
    drawn, _ = checker._accept(R.space.dim, lambda b: probe(b).T)
    tors = max_residual(nijenhuis_torsion(R), drawn)
    if tors >= tol:
        raise TransformError(
            f"nonzero torsion (residual {tors:.3e}); eigenvalue coordinates "
            "do not yield Darboux-Nijenhuis coordinates")
    # the q-Jacobian of the eigenvalues, row-major, at every sampled point
    jacobian = program([f.diff(f"q{j + 1}") for f in lam for j in range(n)])

    def nondegenerate(b):
        det = np.linalg.det(by_point(jacobian(b), n, n))
        b.reject(np.flatnonzero(np.abs(det) < EIGEN_DISTINCT_THRESHOLD),
                 lambda i: TransformError(
                     f"degenerate eigenvalue Jacobian at {b.point(i)}; the "
                     "eigenvalues are not usable as coordinates"))
    evaluate(drawn, nondegenerate)
    return FibredTransform(n, lam)


def verify_dn(R: Tensor11, T: FibredTransform, points=32, seed=DEFAULT_SEED,
              tol=PROCEDURAL_TOL, box=DEFAULT_BOX) -> CheckReport:
    """Check, in the chart defined by T: the transformed R is diagonal with
    each eigenvalue a function of its own coordinate only; the transformed
    complete lift is the doubled diagonal; the Poisson tensor keeps its
    canonical form. Each point x is drawn in the box of the old chart and
    the identities are evaluated at its image y = T(x), which always has a
    preimage; the new chart's box mostly does not (sorted eigenvalues)."""
    n = R.space.n
    checker = Checker(points=points, seed=seed, tol=tol, box=box,
                      name="darboux-nijenhuis")
    base_map = T.base_map()
    phase_map = T.phase_map()
    Rp = base_map.push_tensor11(R)
    Rtp = phase_map.push_tensor11(complete_lift_tensor11(R))
    Lamp = phase_map.push_bivector(canonical_bivector(n))
    base, pj = Rp.space, Rtp.space
    diag = [Rp.entries[i][i] for i in range(1, n + 1)]

    def diagonal(space, entries):  # entries down the diagonal after t's
        return Tensor11.from_dict(space, {f"{c},{c}": f for c, f in
                                          zip(space.coords[1:], entries)})

    checker.compare(
        "dn.diagonal",
        "transformed R is diag(0, lambda_1..lambda_n)",
        Rp, diagonal(base, diag), via=base_map)
    checker.vanish(
        "dn.eigen_locality",
        "each diagonal eigenvalue depends only on its own coordinate",
        [diag[i].diff(name) for i in range(n) for name in base.coords
         if name != f"q{i + 1}"], via=base_map)
    lifted = [inject(f, pj) for f in diag]
    checker.compare(
        "dn.lift_diagonal",
        "transformed complete lift is the doubled diagonal of R",
        Rtp, diagonal(pj, lifted + lifted), via=phase_map)
    checker.compare(
        "dn.poisson_canonical",
        "transformed Poisson tensor keeps the canonical form",
        Lamp, canonical_bivector(n), via=phase_map)
    return checker.report
