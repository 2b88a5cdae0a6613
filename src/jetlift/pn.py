"""Canonical Poisson structure on phase space, Hamiltonian fields, the
Magri-Morosi concomitant, Poisson-Nijenhuis verification, eigen-analysis
of a (1,1) tensor, and the Darboux-Nijenhuis coordinate construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charts import FibredTransform
from .errors import EigenError, SpaceMismatchError, TransformError
from .fields import (
    ProceduralField,
    ScalarField,
    inject,
    zero,
)
from .lifts import (
    LiftError,
    complete_lift_tensor11,
    complete_lift_vector,
    momentum_function,
    vlift_oneform,
)
from .report import (
    DEFAULT_BOX,
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
    adjoint_tensor11,
    apply_tensor11,
    differential,
    lie_derivative,
    nijenhuis_torsion,
    sum_fields,
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
    if F.space != G.space or F.space.kind != PHASE_J:
        raise SpaceMismatchError("Poisson bracket needs two phase-space fields")
    pj = F.space
    n = pj.n
    terms = []
    for i in range(1, n + 1):
        terms.append(F.diff(f"q{i}") * G.diff(f"p{i}"))
        terms.append(-(F.diff(f"p{i}") * G.diff(f"q{i}")))
    return sum_fields(pj, terms)


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
    pj = Rt.space
    n = pj.n
    d = pj.dim
    Lam = canonical_bivector(n).entries
    out = []
    for c in range(d):
        row = []
        for b in range(d):
            terms = [Rt.entries[c][a] * Lam[a][b] for a in range(d)]
            terms += [-(Lam[c][a] * Rt.entries[b][a]) for a in range(d)]
            row.append(sum_fields(pj, terms))
        out.append(row)
    return out


def commutation_residual(Rt: Tensor11, points) -> float:
    return max_residual(commutation_defect(Rt), points)


def magri_morosi_table(Rt: Tensor11, sigmas, zs) -> list:
    """[mu(sigma, Z) for sigma in sigmas for Z in zs], where
    mu(sigma, Z) = (L_{P(sigma)} Rt)(Z) - P(L_Z(Rt(sigma)))
    + P(L_{Rt(Z)} sigma). The Lie derivative in the middle term runs along
    the vector argument Z. L_{P(sigma)} Rt and Rt(sigma) are built once per
    sigma and Rt(Z) once per Z, then combined per pair."""
    Rt_zs = [apply_tensor11(Rt, Z) for Z in zs]
    out = []
    for sigma in sigmas:
        L_Rt = lie_derivative(poisson_apply(sigma), Rt)
        Rt_sigma = adjoint_tensor11(Rt, sigma)
        for Z, Rt_Z in zip(zs, Rt_zs):
            t1 = apply_tensor11(L_Rt, Z)
            t2 = poisson_apply(lie_derivative(Z, Rt_sigma))
            t3 = poisson_apply(lie_derivative(Rt_Z, sigma))
            out.append(t1 - t2 + t3)
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
        return {
            "commutation_residual": self.commutation_residual,
            "magri_morosi_residual": self.magri_morosi_residual,
            "torsion_residual": self.torsion_residual,
            "lifted_torsion_residual": self.lifted_torsion_residual,
            "tol": self.tol,
            "verdict": self.verdict,
        }


def _basis_pairs(n: int):
    """Lifted basis pairs (sigma, Z) used to probe the concomitant."""
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


def pn_check(R: Tensor11, points=64, seed=0, tol=1e-9,
             box=DEFAULT_BOX) -> PNReport:
    """Check the Poisson-Nijenhuis conditions for the complete lift of R:
    commutation with the Poisson map, vanishing concomitant, and the torsion
    dichotomy on the base and on phase space."""
    if not R.annihilates_dt:
        raise LiftError("the tensor does not annihilate dt (nonzero t-row)")
    n = R.space.n
    Rt = complete_lift_tensor11(R)
    checker = Checker(points=points, seed=seed, tol=tol, box=box)
    phase_pts = checker.sample(Rt.space.dim)
    base_pts = [pt[:n + 1] for pt in phase_pts]

    comm = commutation_residual(Rt, phase_pts)

    sigmas, zs = _basis_pairs(n)
    mm = max_residual(magri_morosi_table(Rt, sigmas, zs), phase_pts)
    tors = max_residual(nijenhuis_torsion(R), base_pts)
    tors_lift = max_residual(nijenhuis_torsion(Rt), phase_pts)

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


def eigen_analysis(R: Tensor11, point) -> EigenData:
    """Eigen-decomposition of the q-block of R at a base point; requires
    real, pairwise distinct eigenvalues."""
    if not R.annihilates_dt:
        raise LiftError("the tensor does not annihilate dt (nonzero t-row)")
    n = R.space.n
    A = np.array([[f.eval(point) for f in row] for row in _q_block(R)])
    w, V = np.linalg.eig(A)
    if np.max(np.abs(w.imag)) > EIGEN_DISTINCT_THRESHOLD:
        raise EigenError(f"complex eigenvalues {w} at {point}")
    w = w.real
    order = np.argsort(w)
    w = w[order]
    V = V.real[:, order]
    gaps = np.diff(w)
    if n > 1 and np.min(gaps) < EIGEN_DISTINCT_THRESHOLD:
        raise EigenError(f"clustered eigenvalues {w} at {point}")
    try:
        U = np.linalg.inv(V)  # rows are left eigenvectors, already u.v = 1
    except np.linalg.LinAlgError as e:
        raise EigenError(f"defective eigenvector matrix at {point}") from e
    recon = V @ np.diag(w) @ U
    if np.max(np.abs(recon - A)) > EIGEN_RECONSTRUCT_TOL:
        raise EigenError(f"eigen-reconstruction failed at {point}")
    return EigenData(tuple(point), tuple(w), V, U)


def eigenvalue_fields(R: Tensor11):
    """Eigenvalues of the q-block as procedural fields on the base, in
    ascending order per point, with analytic first derivatives from
    first-order eigenvalue perturbation."""
    n = R.space.n
    base = R.space
    block = _q_block(R)
    dblock = {name: [[f.diff(name) for f in row] for row in block]
              for name in base.coords}

    @lru_cache(maxsize=8192)
    def eig_at(pt):
        return eigen_analysis(R, pt)

    def make_field(i):
        def value(pt):
            return eig_at(tuple(pt)).eigenvalues[i]

        def grad(pt):
            data = eig_at(tuple(pt))
            u = data.left[i]
            v = data.right[:, i]
            out = []
            for name in base.coords:
                dA = np.array([[f.eval(pt) for f in row] for row in dblock[name]])
                out.append(float(u @ dA @ v))
            return tuple(out)

        return ProceduralField(base, value, grad, 2)

    return [make_field(i) for i in range(n)]


def build_dn_transform(R: Tensor11, box=(-2.0, 2.0), points=16, seed=0,
                       tol=1e-9) -> FibredTransform:
    """Use the eigenvalues of R as new fibre coordinates. Valid when the
    torsion vanishes and the map (t, q) -> (t, lambda) has a nonsingular
    q-Jacobian on the sampled domain."""
    n = R.space.n
    checker = Checker(points=points, seed=seed, tol=tol, box=box)
    NR = nijenhuis_torsion(R)
    lam = eigenvalue_fields(R)

    def probe(pt):
        eigen_analysis(R, pt)

    base_pts = checker.sample(R.space.dim, probe)
    tors = max_residual(NR, base_pts)
    if tors >= tol:
        raise TransformError(
            f"nonzero torsion (residual {tors:.3e}); eigenvalue coordinates "
            "do not yield Darboux-Nijenhuis coordinates")
    for pt in base_pts:
        jac = np.array([[lam[i].grad(pt)[1 + j] for j in range(n)]
                        for i in range(n)])
        if abs(np.linalg.det(jac)) < EIGEN_DISTINCT_THRESHOLD:
            raise TransformError(
                f"degenerate eigenvalue Jacobian at {pt}; the eigenvalues "
                "are not usable as coordinates")
    return FibredTransform(n, lam)


def verify_dn(R: Tensor11, T: FibredTransform, points=32, seed=0,
              tol=PROCEDURAL_TOL, box=(-2.0, 2.0)) -> CheckReport:
    """Check, in the chart defined by T: the transformed R is diagonal with
    each eigenvalue a function of its own coordinate only; the transformed
    complete lift is the doubled diagonal; the Poisson tensor keeps its
    canonical form."""
    n = R.space.n
    checker = Checker(points=points, seed=seed, tol=tol, box=box,
                      name="darboux-nijenhuis")
    base_map = T.base_map()
    phase_map = T.phase_map()
    Rp = base_map.push_tensor11(R)
    Rtp = phase_map.push_tensor11(complete_lift_tensor11(R))
    Lamp = phase_map.push_bivector(canonical_bivector(n))
    d_base = n + 1
    d_phase = 2 * n + 1

    def offdiag_residual(pt):
        M = Rp.eval_at(pt)
        worst = 0.0
        for a in range(d_base):
            for b in range(d_base):
                if a == b and a >= 1:
                    continue
                worst = max(worst, abs(M[a][b]))
        return worst

    checker.residual(
        "dn.diagonal",
        "transformed R is diag(0, lambda_1..lambda_n)",
        d_base, offdiag_residual)

    diag = [Rp.entries[i][i] for i in range(1, n + 1)]
    locality_fields = []
    for i in range(n):
        for j, name in enumerate(base_e(n).coords):
            if name == f"q{i + 1}":
                continue
            locality_fields.append(diag[i].diff(name))

    def locality_residual(pt):
        return max(abs(f.eval(pt)) for f in locality_fields)

    checker.residual(
        "dn.eigen_locality",
        "each diagonal eigenvalue depends only on its own coordinate",
        d_base, locality_residual)

    def lift_residual(pt):
        M = Rtp.eval_at(pt)
        base_pt = pt[:n + 1]
        lam = [f.eval(base_pt) for f in diag]
        worst = 0.0
        for a in range(d_phase):
            for b in range(d_phase):
                expect = 0.0
                if a == b and 1 <= a <= n:
                    expect = lam[a - 1]
                elif a == b and a > n:
                    expect = lam[a - n - 1]
                worst = max(worst, abs(M[a][b] - expect))
        return worst

    checker.residual(
        "dn.lift_diagonal",
        "transformed complete lift is the doubled diagonal of R",
        d_phase, lift_residual)

    canonical = canonical_bivector(n)

    def poisson_residual(pt):
        return float(np.max(np.abs(Lamp.eval_at(pt) - canonical.eval_at(pt))))

    checker.residual(
        "dn.poisson_canonical",
        "transformed Poisson tensor keeps the canonical form",
        d_phase, poisson_residual)

    return checker.report
