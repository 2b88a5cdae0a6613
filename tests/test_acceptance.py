"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

1. Golden coordinate formulas for every lift of the torsion-bearing n=1
   example, residual < 1e-12 at 64 seeded points, under 5 s.
2. Every identity suite over the built-in n=1 and n=2 corpora, 64 points,
   residual < 1e-9, under 60 s total.
3. Torsion dichotomy: the diagonal example is a Poisson-Nijenhuis structure,
   the torsion-bearing example is not, with the hand-computed torsion value.
4. The Haantjes tensor of the torsion-bearing example vanishes.
5. Darboux-Nijenhuis end to end on the n=2 pushed-diagonal example, under
   30 s, eigenvalues {3, 5} at (1, 5, 2).
6. Chart naturality of every lift under all corpus transforms, < 1e-9.
7. Determinism: repeated seeded runs give byte-identical JSON reports.
"""
import random
import sys
import time

import numpy as np

from jetlift import (
    OneForm,
    Tensor11,
    TwoForm,
    VectorField,
    base_e,
    build_dn_transform,
    complete_lift_cotangent,
    complete_lift_tensor11,
    complete_lift_vector,
    eigen_analysis,
    extended_t,
    haantjes_tensor,
    hlift_tensor11,
    nijenhuis_torsion,
    parse_field,
    phase_j,
    pn_check,
    run_all_suites,
    run_suite,
    vlift_oneform,
    vlift_tensor11,
    vlift_twoform,
)
from corpus import (dn_example_tensor, standard_corpus, torsion_example,
                    torsion_free_example)


def seeded_points(dim, n=64, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(n)]


def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} -- {detail}", file=sys.stderr)
    assert ok, detail


def test_criterion_1_golden_coordinate_formulas():
    start = time.time()
    be = base_e(1)
    pj = phase_j(1)
    et = extended_t(1)
    R = torsion_example()
    worst = 0.0

    def track(obj, ref_rows, pts):
        nonlocal worst
        for pt in pts:
            got = np.asarray(obj.eval_at(pt), dtype=float)
            ref = np.array([[f(pt) for f in row] for row in ref_rows]
                           if isinstance(ref_rows[0], (list, tuple))
                           else [f(pt) for f in ref_rows])
            worst = max(worst, float(np.max(np.abs(got - ref))))

    pts3 = seeded_points(3)
    pts4 = seeded_points(4)
    # valpha = t d/dp for alpha = q dt + t dq
    track(vlift_oneform(OneForm(be, ["q1", "t"])),
          [lambda p: 0.0, lambda p: 0.0, lambda p: p[0]], pts3)
    # complete lift of q d/dq (vertical class)
    track(complete_lift_vector(VectorField(be, [0.0, "q1"])),
          [lambda p: 0.0, lambda p: p[1], lambda p: -p[2]], pts3)
    # complete lift of d/dt + t d/dq (t-normalized class)
    track(complete_lift_vector(VectorField(be, [1.0, "t"])),
          [lambda p: 1.0, lambda p: p[0], lambda p: 0.0], pts3)
    # vertical and horizontal lifts of R
    track(vlift_tensor11(R),
          [lambda p: 0.0, lambda p: 0.0, lambda p: p[2] * p[1]], pts3)
    track(hlift_tensor11(R),
          [lambda p: p[2] * p[0], lambda p: p[2] * p[1], lambda p: 0.0], pts3)
    # complete lift of R on phase space
    z = lambda p: 0.0
    track(complete_lift_tensor11(R),
          [[z, z, z],
           [lambda p: p[0], lambda p: p[1], z],
           [z, z, lambda p: p[1]]], pts3)
    # complete lift on the full cotangent space (extra p0 blocks)
    track(complete_lift_cotangent(R),
          [[z, z, z, z],
           [lambda p: p[0], lambda p: p[1], z, z],
           [z, z, z, lambda p: p[0]],
           [z, z, z, lambda p: p[1]]], pts4)
    # vertical lift of omega = q dq ^ dt
    track(vlift_twoform(TwoForm.from_dict(be, {"q1,t": "q1"})),
          [[z, z, z],
           [z, z, z],
           [lambda p: -p[1], z, z]], pts3)
    elapsed = time.time() - start
    announce(1, worst < 1e-12 and elapsed < 5.0,
             f"golden formulas, max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_identity_suites():
    start = time.time()
    worst = 0.0
    ok = True
    for n in (1, 2):
        report = run_all_suites(standard_corpus(n), points=64, seed=0,
                                tol=1e-9)
        worst = max(worst, report.max_residual)
        ok = ok and report.passed
    elapsed = time.time() - start
    announce(2, ok and worst < 1e-9 and elapsed < 60.0,
             f"all suites n=1,2 at 64 points, max residual {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_3_torsion_dichotomy():
    good = pn_check(torsion_free_example(1), points=64)
    bad = pn_check(torsion_example(), points=64)
    N = nijenhuis_torsion(torsion_example())
    be = base_e(1)
    val = N.apply(VectorField(be, [1.0, 0.0]),
                  VectorField(be, [0.0, 1.0])).eval_at((1.0, 1.0))
    hand = abs(val[0] - 0.0) + abs(val[1] - 1.0)  # N(d/dt, d/dq) = t d/dq
    ok = (good.verdict == "pn-structure"
          and good.torsion_residual < 1e-9
          and good.lifted_torsion_residual < 1e-9
          and good.magri_morosi_residual < 1e-9
          and bad.verdict == "not-pn"
          and bad.lifted_torsion_residual > 1e-3
          and hand < 1e-12)
    announce(3, ok,
             f"dichotomy verdicts ({good.verdict} / {bad.verdict}), "
             f"hand torsion residual {hand:.2e}")


def test_criterion_4_haantjes_vanishes():
    H = haantjes_tensor(torsion_example())
    worst = max(float(np.max(np.abs(H.eval_at(p))))
                for p in seeded_points(2))
    announce(4, worst < 1e-9,
             f"Haantjes tensor of the torsion example, max {worst:.2e}")


def test_criterion_5_darboux_nijenhuis():
    start = time.time()
    R = dn_example_tensor()
    data = eigen_analysis(R, (1.0, 5.0, 2.0))
    eig_err = float(np.max(np.abs(np.asarray(data.eigenvalues) - [3.0, 5.0])))
    T = build_dn_transform(R)
    from jetlift import verify_dn
    report = verify_dn(R, T)
    elapsed = time.time() - start
    ok = (eig_err < 1e-8 and report.passed and report.max_residual < 1e-6
          and elapsed < 30.0)
    announce(5, ok,
             f"eigenvalues at (1,5,2) off by {eig_err:.2e}, "
             f"checks max {report.max_residual:.2e}, {elapsed:.1f}s")


def test_criterion_6_naturality():
    worst = 0.0
    ok = True
    for n in (1, 2):
        report = run_suite("naturality", standard_corpus(n), points=64)
        worst = max(worst, report.max_residual)
        ok = ok and report.passed
    announce(6, ok and worst < 1e-9,
             f"lift/transform commutation, max residual {worst:.2e}")


def test_criterion_7_determinism():
    def one_run():
        report = run_suite("prop7", standard_corpus(1), points=16, seed=0)
        return report.to_json()

    first, second = one_run(), one_run()
    announce(7, first == second,
             f"repeated seeded runs, {len(first)} bytes, "
             f"identical={first == second}")
