"""Named identity suites over a corpus of base-space objects.

Every identity is checked by residual evaluation at seeded random points;
suite names follow the statements they exercise (bracket tables, defining
relations of the complete lift, Lie-derivative tables, torsion tables,
the Poisson-Nijenhuis conditions, and chart naturality).
"""
from __future__ import annotations

from itertools import combinations

from .fields import coord_field, inject
from .lifts import (
    canonical_theta,
    complete_lift_cotangent,
    complete_lift_tensor11,
    complete_lift_vector,
    hlift_tensor11,
    momentum_function,
    rho_pairs,
    vlift_cov2,
    vlift_oneform,
    vlift_tensor11,
    vlift_twoform,
)
from .charts import pullback_twoform
from .model import SuiteInputs
from .pn import (
    commutation_defect,
    magri_morosi_table,
    pn_check,
    pullback_oneform_to_phase,
)
from .report import (DEFAULT_BOX, DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL,
                     Checker, CheckReport)
from .spaces import base_e, phase_j
from .tensors import (
    OneForm,
    adjoint_tensor11,
    apply_tensor11,
    compose_tensor11,
    differential,
    exterior_derivative,
    hook2,
    interior_product,
    lie_bracket,
    lie_derivative,
    nijenhuis_torsion,
    pair,
    tensor_product,
    wedge,
)


def _dt_form(space):
    comps = [0.0] * space.dim
    comps[0] = 1.0
    return OneForm(space, comps)


def _class_representative(alpha: OneForm) -> OneForm:
    """The zero-dt-component representative of a one-form class."""
    comps = list(alpha.comps)
    comps[0] = comps[0] * 0.0
    return OneForm(alpha.space, comps)


def suite_lemma1(inp: SuiteInputs, ch: Checker):
    valphas = [vlift_oneform(a) for a in inp.oneforms]
    vRs = [vlift_tensor11(R) for R in inp.tensors]
    Xts = [complete_lift_vector(X) for X in inp.vert_fields]
    FXs = [momentum_function(X) for X in inp.vert_fields]
    LXR = [[lie_derivative(X, R) for X in inp.lift_fields] for R in inp.tensors]
    RX = [[apply_tensor11(R, X) for X in inp.lift_fields] for R in inp.tensors]
    for fi, f in enumerate(inp.scalars):
        fj = inject(f, phase_j(inp.n))
        for ai, alpha in enumerate(inp.oneforms):
            ch.compare(f"lemma1.1[f{fi},a{ai}]",
                       "v(f*alpha) = f * v(alpha)",
                       vlift_oneform(alpha.scaled(f)),
                       valphas[ai].scaled(fj))
        for ri, R in enumerate(inp.tensors):
            ch.compare(f"lemma1.2[f{fi},R{ri}]",
                       "v(f*R) = f * v(R)",
                       vlift_tensor11(R.scaled(f)),
                       vRs[ri].scaled(fj))
        df = differential(f)
        vdf = vlift_oneform(df)
        for xi, X in enumerate(inp.vert_fields):
            lhs = complete_lift_vector(X.scaled(f))
            rhs = Xts[xi].scaled(fj) - vdf.scaled(FXs[xi])
            ch.compare(f"lemma1.3[f{fi},X{xi}]",
                       "complete(f*X) = f*complete(X) - F_X * v(df)",
                       lhs, rhs)
        for ri, R in enumerate(inp.tensors):
            Rdf = adjoint_tensor11(R, df)
            for xi, X in enumerate(inp.lift_fields):
                lhs = lie_derivative(X.scaled(f), R)
                rhs = (LXR[ri][xi].scaled(f)
                       - tensor_product(X, Rdf)
                       + tensor_product(RX[ri][xi], df))
                ch.compare(f"lemma1.4[f{fi},R{ri},X{xi}]",
                           "L_{fX}R = f L_X R - X (x) R(df) + R(X) (x) df",
                           lhs, rhs)
    for ri, R in enumerate(inp.tensors):
        for xi, X in enumerate(inp.lift_fields):
            row = OneForm(R.space, LXR[ri][xi].entries[0])
            ch.vanish(f"lemma1.5[R{ri},X{xi}]",
                      "R(dt) = 0 implies (L_X R)(dt) = 0",
                      row)


def suite_brackets(inp: SuiteInputs, ch: Checker):
    valphas = [vlift_oneform(a) for a in inp.oneforms]
    for (i, va), (j, vb) in combinations(enumerate(valphas), 2):
        ch.vanish(f"brackets.1[a{i},a{j}]",
                  "[v(alpha), v(beta)] = 0",
                  lie_bracket(va, vb))
    Xts = [complete_lift_vector(X) for X in inp.lift_fields]
    for xi, X in enumerate(inp.lift_fields):
        for ai, alpha in enumerate(inp.oneforms):
            ch.compare(f"brackets.2[X{xi},a{ai}]",
                       "[complete(X), v(alpha)] = v(L_X alpha)",
                       lie_bracket(Xts[xi], valphas[ai]),
                       vlift_oneform(lie_derivative(X, alpha)))
    for (i, X), (j, Y) in combinations(enumerate(inp.lift_fields), 2):
        ch.compare(f"brackets.3[X{i},X{j}]",
                   "[complete(X), complete(Y)] = complete([X, Y])",
                   lie_bracket(Xts[i], Xts[j]),
                   complete_lift_vector(lie_bracket(X, Y)))
    vRs = [vlift_tensor11(R) for R in inp.tensors]
    for ai, alpha in enumerate(inp.oneforms):
        for ri, R in enumerate(inp.tensors):
            ch.compare(f"brackets.4[a{ai},R{ri}]",
                       "[v(alpha), v(R)] = v(R(alpha))",
                       lie_bracket(valphas[ai], vRs[ri]),
                       vlift_oneform(adjoint_tensor11(R, alpha)))
    for (i, R1), (j, R2) in combinations(enumerate(inp.tensors), 2):
        ch.compare(f"brackets.5[R{i},R{j}]",
                   "[v(R1), v(R2)] = v(R1 R2 - R2 R1)",
                   lie_bracket(vRs[i], vRs[j]),
                   vlift_tensor11(compose_tensor11(R1, R2)
                                  - compose_tensor11(R2, R1)))
    for xi, X in enumerate(inp.lift_fields):
        for ri, R in enumerate(inp.tensors):
            ch.compare(f"brackets.6[X{xi},R{ri}]",
                       "[complete(X), v(R)] = v(L_X R)",
                       lie_bracket(Xts[xi], vRs[ri]),
                       vlift_tensor11(lie_derivative(X, R)))


def suite_theta(inp: SuiteInputs, ch: Checker):
    n = inp.n
    pj = phase_j(n)
    base = base_e(n)
    Theta = canonical_theta(n)
    dt_p = _dt_form(pj)
    Xts = [complete_lift_vector(X) for X in inp.lift_fields]
    for xi, Xt in enumerate(Xts):
        ch.vanish(f"theta.1[X{xi}]",
                  "L_{complete(X)} Theta = 0",
                  lie_derivative(Xt, Theta))
    for xi, X in enumerate(inp.vert_fields):
        ch.compare(f"theta.2[X{xi}]",
                   "i_{complete(X)} Theta = F_X dt, X vertical",
                   interior_product(Xts[xi], Theta),
                   dt_p.scaled(momentum_function(X)))
    for xi, Xt in enumerate(Xts[len(inp.vert_fields):]):
        ch.compare(f"theta.3[X{xi}]",
                   "(i_{complete(X)} Theta) ^ dt = -Theta, <X, dt> = 1",
                   wedge(interior_product(Xt, Theta), dt_p),
                   -Theta)
    for ai, alpha in enumerate(inp.oneforms):
        rep = _class_representative(alpha)
        maps = ([coord_field(base, c) for c in base.coords]
                + [rep.comps[i] for i in range(1, n + 1)])
        pulled = pullback_twoform(maps, base, Theta)
        ch.compare(f"theta.4[a{ai}]",
                   "alpha* Theta = alpha ^ dt for the class representative",
                   pulled, wedge(rep, _dt_form(base)))


def suite_theorem1(inp: SuiteInputs, ch: Checker):
    valphas = [vlift_oneform(a) for a in inp.oneforms]
    pas = [pullback_oneform_to_phase(a) for a in inp.oneforms]
    Xts = [complete_lift_vector(X) for X in inp.lift_fields]
    dFXs = [differential(momentum_function(X)) for X in inp.vert_fields]
    for ri, R in enumerate(inp.tensors):
        Rt = complete_lift_tensor11(R)
        for ai, alpha in enumerate(inp.oneforms):
            Ra = adjoint_tensor11(R, alpha)
            ch.compare(f"theorem1.1[R{ri},a{ai}]",
                       "lift(R)(v(alpha)) = v(R(alpha))",
                       apply_tensor11(Rt, valphas[ai]), vlift_oneform(Ra))
            ch.compare(f"theorem1.3[R{ri},a{ai}]",
                       "lift(R)(pi* alpha) = pi* R(alpha)",
                       adjoint_tensor11(Rt, pas[ai]),
                       pullback_oneform_to_phase(Ra))
        RX = [apply_tensor11(R, X) for X in inp.lift_fields]
        LXR = [lie_derivative(X, R) for X in inp.lift_fields]
        for xi, X in enumerate(inp.lift_fields):
            ch.compare(f"theorem1.2[R{ri},X{xi}]",
                       "lift(R)(complete(X)) = complete(R(X)) + v(L_X R)",
                       apply_tensor11(Rt, Xts[xi]),
                       complete_lift_vector(RX[xi]) + vlift_tensor11(LXR[xi]))
        for xi, X in enumerate(inp.vert_fields):
            lhs = adjoint_tensor11(Rt, dFXs[xi])
            rhs = (differential(momentum_function(RX[xi]))
                   - hlift_tensor11(LXR[xi]))
            ch.compare(f"theorem1.4[R{ri},X{xi}]",
                       "lift(R)(dF_X) = dF_{R(X)} - h(L_X R)",
                       lhs, rhs)


def suite_prop2(inp: SuiteInputs, ch: Checker):
    for ri, R in enumerate(inp.tensors):
        lhs, rhs = rho_pairs(complete_lift_cotangent(R),
                             complete_lift_tensor11(R))
        ch.compare(f"prop2[R{ri}]",
                   "the two complete lifts are related under dropping p0",
                   lhs, rhs)


def suite_prop4(inp: SuiteInputs, ch: Checker):
    n = inp.n
    base = base_e(n)
    Xts = [complete_lift_vector(X) for X in inp.lift_fields]
    valphas = [vlift_oneform(a) for a in inp.oneforms]
    dalphas = [exterior_derivative(a) for a in inp.oneforms]
    for ri, R in enumerate(inp.tensors):
        Rt = complete_lift_tensor11(R)
        for xi, X in enumerate(inp.lift_fields):
            ch.compare(f"prop4.1[R{ri},X{xi}]",
                       "L_{complete(X)} lift(R) = lift(L_X R)",
                       lie_derivative(Xts[xi], Rt),
                       complete_lift_tensor11(lie_derivative(X, R)))
        for ai, alpha in enumerate(inp.oneforms):
            dRa = exterior_derivative(adjoint_tensor11(R, alpha))
            hooked = hook2(R, dalphas[ai])
            d = base.dim
            K = [[dRa.entries[a][b] - hooked[a][b] for b in range(d)]
                 for a in range(d)]
            ch.compare(f"prop4.2[R{ri},a{ai}]",
                       "L_{v(alpha)} lift(R) = v(-R hook2 d alpha + d(R alpha))",
                       lie_derivative(valphas[ai], Rt),
                       vlift_cov2(K, base))


def suite_prop5(inp: SuiteInputs, ch: Checker):
    valphas = [vlift_oneform(a) for a in inp.oneforms]
    Xts = [complete_lift_vector(X) for X in inp.lift_fields]
    for ri, R in enumerate(inp.tensors):
        Rt = complete_lift_tensor11(R)
        Rt2 = compose_tensor11(Rt, Rt)
        R2 = compose_tensor11(R, R)
        NR = nijenhuis_torsion(R)
        for ai, alpha in enumerate(inp.oneforms):
            ch.compare(f"prop5.1[R{ri},a{ai}]",
                       "lift(R)^2 (v(alpha)) = v(R^2 alpha)",
                       apply_tensor11(Rt2, valphas[ai]),
                       vlift_oneform(adjoint_tensor11(R2, alpha)))
        for xi, X in enumerate(inp.lift_fields):
            rhs = (complete_lift_vector(apply_tensor11(R2, X))
                   + vlift_tensor11(lie_derivative(X, R2))
                   + vlift_tensor11(NR.hook(X)))
            ch.compare(f"prop5.2[R{ri},X{xi}]",
                       "lift(R)^2 (complete(X)) = complete(R^2 X) "
                       "+ v(L_X R^2) + v(i_X N_R)",
                       apply_tensor11(Rt2, Xts[xi]), rhs)


def suite_prop6(inp: SuiteInputs, ch: Checker):
    valphas = [vlift_oneform(a) for a in inp.oneforms]
    Xts = [complete_lift_vector(X) for X in inp.lift_fields]
    pairs = [(i, j, lie_bracket(X, Y)) for (i, X), (j, Y)
             in combinations(enumerate(inp.lift_fields), 2)]
    for ri, R in enumerate(inp.tensors):
        Rt = complete_lift_tensor11(R)
        NR = nijenhuis_torsion(R)
        NRt = nijenhuis_torsion(Rt)
        for (i, va), (j, vb) in combinations(enumerate(valphas), 2):
            ch.vanish(f"prop6.1[R{ri},a{i},a{j}]",
                      "N_{lift(R)}(v(alpha), v(beta)) = 0",
                      NRt.apply(va, vb))
        iXNs = [NR.hook(X) for X in inp.lift_fields]
        for xi, Xt in enumerate(Xts):
            for ai, alpha in enumerate(inp.oneforms):
                ch.compare(f"prop6.2[R{ri},X{xi},a{ai}]",
                           "N_{lift(R)}(complete(X), v(alpha)) "
                           "= v((i_X N_R)(alpha))",
                           NRt.apply(Xt, valphas[ai]),
                           vlift_oneform(adjoint_tensor11(iXNs[xi], alpha)))
        for i, j, XY in pairs:
            X, Y = inp.lift_fields[i], inp.lift_fields[j]
            corr = lie_derivative(Y, iXNs[i]) - lie_derivative(X, iXNs[j])
            rhs = (complete_lift_vector(NR.apply(X, Y))
                   + vlift_tensor11(NR.hook(XY))
                   + vlift_tensor11(corr))
            ch.compare(f"prop6.3[R{ri},X{i},X{j}]",
                       "N_{lift(R)}(complete(X), complete(Y)) = "
                       "complete(N_R(X,Y)) + v(i_{[X,Y]} N_R) "
                       "+ v(L_Y i_X N_R - L_X i_Y N_R)",
                       NRt.apply(Xts[i], Xts[j]), rhs)


def suite_theorem2(inp: SuiteInputs, ch: Checker):
    for ri, R in enumerate(inp.tensors):
        NR = nijenhuis_torsion(R)
        NRt = nijenhuis_torsion(complete_lift_tensor11(R))
        (res_base,) = ch.sample_residuals([NR])
        (res_lift,) = ch.sample_residuals([NRt])
        consistent = (res_base < ch.tol) == (res_lift < ch.tol)
        ch.record(
            f"theorem2[R{ri}]",
            "N_{lift(R)} = 0 if and only if N_R = 0 "
            f"(base residual {res_base:.3e}, lifted residual {res_lift:.3e})",
            0.0 if consistent else 1.0, passed=consistent)


def suite_lemma2(inp: SuiteInputs, ch: Checker):
    pas = [pullback_oneform_to_phase(a) for a in inp.oneforms]
    dFXs = [differential(momentum_function(X)) for X in inp.vert_fields]
    hRs = [hlift_tensor11(R) for R in inp.tensors]
    for bi, beta in enumerate(inp.oneforms):
        vb = vlift_oneform(beta)
        for ai, pa in enumerate(pas):
            ch.vanish(f"lemma2.1[b{bi},a{ai}]",
                      "L_{v(beta)} pi* alpha = 0",
                      lie_derivative(vb, pa))
        for xi, X in enumerate(inp.vert_fields):
            ch.compare(f"lemma2.4[b{bi},X{xi}]",
                       "L_{v(beta)} dF_X = pi* d<X, beta>",
                       lie_derivative(vb, dFXs[xi]),
                       pullback_oneform_to_phase(differential(pair(X, beta))))
        for ri, R in enumerate(inp.tensors):
            ch.compare(f"lemma2.7[b{bi},R{ri}]",
                       "L_{v(beta)} h(R) = pi* R(beta)",
                       lie_derivative(vb, hRs[ri]),
                       pullback_oneform_to_phase(adjoint_tensor11(R, beta)))
    for qi, Q in enumerate(inp.tensors):
        vQ = vlift_tensor11(Q)
        for ai, pa in enumerate(pas):
            ch.vanish(f"lemma2.2[Q{qi},a{ai}]",
                      "L_{v(Q)} pi* alpha = 0",
                      lie_derivative(vQ, pa))
        for xi, X in enumerate(inp.vert_fields):
            ch.compare(f"lemma2.5[Q{qi},X{xi}]",
                       "L_{v(Q)} dF_X = dF_{Q(X)}",
                       lie_derivative(vQ, dFXs[xi]),
                       differential(momentum_function(apply_tensor11(Q, X))))
        for ri, R in enumerate(inp.tensors):
            ch.compare(f"lemma2.8[Q{qi},R{ri}]",
                       "L_{v(Q)} h(R) = h(Q o R)",
                       lie_derivative(vQ, hRs[ri]),
                       hlift_tensor11(compose_tensor11(Q, R)))
    for yi, Y in enumerate(inp.lift_fields):
        Yt = complete_lift_vector(Y)
        for ai, alpha in enumerate(inp.oneforms):
            ch.compare(f"lemma2.3[Y{yi},a{ai}]",
                       "L_{complete(Y)} pi* alpha = pi* L_Y alpha",
                       lie_derivative(Yt, pas[ai]),
                       pullback_oneform_to_phase(lie_derivative(Y, alpha)))
        for xi, X in enumerate(inp.vert_fields):
            ch.compare(f"lemma2.6[Y{yi},X{xi}]",
                       "L_{complete(Y)} dF_X = dF_{[Y, X]}",
                       lie_derivative(Yt, dFXs[xi]),
                       differential(momentum_function(lie_bracket(Y, X))))
        for ri, R in enumerate(inp.tensors):
            ch.compare(f"lemma2.9[Y{yi},R{ri}]",
                       "L_{complete(Y)} h(R) = h(L_Y R)",
                       lie_derivative(Yt, hRs[ri]),
                       hlift_tensor11(lie_derivative(Y, R)))


def suite_prop7(inp: SuiteInputs, ch: Checker):
    sigmas = [pullback_oneform_to_phase(a) for a in inp.oneforms]
    sigmas += [differential(momentum_function(X)) for X in inp.vert_fields]
    zs = [vlift_oneform(a) for a in inp.oneforms]
    zs += [complete_lift_vector(X) for X in inp.lift_fields]
    for ri, R in enumerate(inp.tensors):
        Rt = complete_lift_tensor11(R)
        ch.vanish(f"prop7.commutation[R{ri}]",
                  "the Poisson map commutes with lift(R)",
                  commutation_defect(Rt))
        if not (sigmas and zs):  # the table is empty: nothing to check
            continue
        ch.vanish(f"prop7.concomitant[R{ri}]",
                  "the Magri-Morosi concomitant vanishes on the lifted basis",
                  magri_morosi_table(Rt, sigmas, zs))


def suite_theorem3(inp: SuiteInputs, ch: Checker):
    for ri, R in enumerate(inp.tensors):
        rep = pn_check(R, points=ch.points, seed=ch.seed, tol=ch.tol,
                       box=ch.box)
        for name, identity, r in (
                ("commutation", "commutation holds for any R killing dt",
                 rep.commutation_residual),
                ("concomitant", "the concomitant vanishes for any R killing dt",
                 rep.magri_morosi_residual)):
            ch.record(f"theorem3.{name}[R{ri}]", identity, r)
        consistent = ((rep.torsion_residual < ch.tol)
                      == (rep.lifted_torsion_residual < ch.tol)
                      == rep.is_pn)
        ch.record(
            f"theorem3.dichotomy[R{ri}]",
            "the pair is Poisson-Nijenhuis if and only if N_R = 0 "
            f"(verdict {rep.verdict})",
            0.0 if consistent else 1.0, passed=consistent)


def suite_naturality(inp: SuiteInputs, ch: Checker):
    if not inp.transforms:  # nothing to push the lifts through
        return
    Theta = canonical_theta(inp.n)
    FXs = [momentum_function(X) for X in inp.vert_fields]
    Xts = [complete_lift_vector(X) for X in inp.lift_fields]
    valphas = [vlift_oneform(a) for a in inp.oneforms]
    lifts = [(vlift_tensor11(R), hlift_tensor11(R), complete_lift_tensor11(R))
             for R in inp.tensors]
    vws = [vlift_twoform(w) for w in inp.twoforms]
    for ti, T in enumerate(inp.transforms):
        bm = T.base_map()
        pm = T.phase_map()
        ch.compare(f"naturality.theta[T{ti}]",
                   "the canonical two-form is chart-independent",
                   pm.push_twoform(Theta), Theta)
        for xi, X in enumerate(inp.vert_fields):
            ch.compare(f"naturality.momentum[T{ti},X{xi}]",
                       "momentum functions transform naturally",
                       pm.push_scalar(FXs[xi]),
                       momentum_function(bm.push_vector(X)))
        for xi, X in enumerate(inp.lift_fields):
            ch.compare(f"naturality.complete_vec[T{ti},X{xi}]",
                       "complete lifts of vector fields transform naturally",
                       pm.push_vector(Xts[xi]),
                       complete_lift_vector(bm.push_vector(X)))
        for ai, alpha in enumerate(inp.oneforms):
            ch.compare(f"naturality.vlift_form[T{ti},a{ai}]",
                       "vertical lifts of one-forms transform naturally",
                       pm.push_vector(valphas[ai]),
                       vlift_oneform(bm.push_oneform(alpha)))
        for ri, (R, (vR, hR, Rt)) in enumerate(zip(inp.tensors, lifts)):
            Rp = bm.push_tensor11(R)
            ch.compare(f"naturality.vlift_tensor[T{ti},R{ri}]",
                       "vertical lifts of (1,1) tensors transform naturally",
                       pm.push_vector(vR), vlift_tensor11(Rp))
            ch.compare(f"naturality.hlift[T{ti},R{ri}]",
                       "horizontal lifts transform naturally",
                       pm.push_oneform(hR), hlift_tensor11(Rp))
            ch.compare(f"naturality.complete_tensor[T{ti},R{ri}]",
                       "complete lifts of (1,1) tensors transform naturally",
                       pm.push_tensor11(Rt), complete_lift_tensor11(Rp))
        for wi, w in enumerate(inp.twoforms):
            ch.compare(f"naturality.vlift_twoform[T{ti},w{wi}]",
                       "vertical lifts of two-forms transform naturally",
                       pm.push_tensor11(vws[wi]),
                       vlift_twoform(bm.push_twoform(w)))


SUITES = {name: globals()[f"suite_{name}"] for name in (
    "lemma1", "brackets", "theta", "theorem1", "prop2", "prop4", "prop5",
    "prop6", "theorem2", "lemma2", "prop7", "theorem3", "naturality")}


def run_suite(name: str, inp: SuiteInputs, points=DEFAULT_POINTS,
              seed=DEFAULT_SEED, tol=DEFAULT_TOL,
              box=DEFAULT_BOX) -> CheckReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    ch = Checker(points=points, seed=seed, tol=tol, box=box, name=name)
    SUITES[name](inp, ch)
    return ch.report


def run_all_suites(inp: SuiteInputs, points=DEFAULT_POINTS,
                   seed=DEFAULT_SEED, tol=DEFAULT_TOL,
                   box=DEFAULT_BOX) -> CheckReport:
    report = Checker(points=points, seed=seed, tol=tol, box=box,
                     name="all").report
    for name in SUITES:
        report.extend(run_suite(name, inp, points=points, seed=seed, tol=tol,
                                box=box))
    return report
