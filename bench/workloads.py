"""The benchmark's workloads: inputs, verdict calls and known answers.

Every workload is a closed loop run by one client from a single thread:
the next call starts only after the previous verdict has returned.

* verify-suites -- all 13 identity suites on models/n1.json and then on
  models/n2.json at the CLI defaults, i.e. `jetlift verify --suite all`
  on each model. The workload users run most. Its time splits into
  object construction (lifts, brackets, torsion) and scalar point
  evaluation, so any change to the symbolic layers shows here.
* darboux-n2 -- `jetlift darboux` on R_dn of models/n2.json with every
  size passed explicitly. Mostly procedural evaluation: eigen-analysis,
  Newton inversion, finite-difference second derivatives. The only
  workload that runs pn.eigen_* and the Newton path of charts; it
  bypasses the symbolic construction that dominates the other two.
* pn-sweep -- pn_check at 64 points on
  R = sum q_i d/dq_i (x) dq^i + sum t d/dq_i (x) dq^((i mod n)+1)
  for n = 1..4. Large trees evaluated few times (construction-bound, and
  growing x3 to x7 per n): the opposite mix to verify-suites, so a
  compile-then-evaluate change that pays off there could lose here.

Nothing here imports jetlift at module level: the pass process times that
import as part of set-up.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

BOX = (-2.0, 2.0)
SYMBOLIC_TOL = 1e-9
PROCEDURAL_TOL = 1e-6
SUITE_ORDER = ("lemma1", "brackets", "theta", "theorem1", "prop2", "prop4",
               "prop5", "prop6", "theorem2", "lemma2", "prop7", "theorem3",
               "naturality")

# Known answer for verify-suites: every check passes, and each suite
# produces this many checks on each shipped model (independent of the
# seed and of the number of points).
SUITE_CHECKS = {
    "n1": dict(zip(SUITE_ORDER, (99, 66, 15, 45, 3, 27, 27, 108, 3, 108, 6,
                                 9, 50))),
    "n2": dict(zip(SUITE_ORDER, (99, 66, 15, 45, 3, 27, 27, 108, 3, 108, 6,
                                 9, 25))),
}
DN_CHECKS = ("dn.diagonal", "dn.eigen_locality", "dn.lift_diagonal",
             "dn.poisson_canonical")
EIGEN_SAMPLES = 3
EIGEN_SAMPLE_TRIES = 100
EIGEN_MATCH_TOL = 1e-9


@dataclass
class Call:
    """One call of a pass. `check(result)` returns None when the result is
    the known answer, else a description of the mismatch."""
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    verdict: bool = True


@dataclass
class Sizes:
    models: tuple = ("n1", "n2")
    points: int = 64
    sweep_ns: tuple = (1, 2, 3, 4)
    dn_pn_points: int = 64
    dn_build_points: int = 16
    dn_verify_points: int = 32


FULL = Sizes()
SMOKE = Sizes(models=("n1",), points=4, sweep_ns=(1, 2), dn_pn_points=4,
              dn_build_points=4, dn_verify_points=4)


@dataclass
class Workload:
    name: str
    #: library seeds one run cycles through, one per pass (see pass_seed);
    #: a run makes at least this many passes, so it covers all of them
    seeds_per_run: int
    setup: Callable  # (jetlift, checkout root, Sizes) -> inputs
    plan: Callable  # (jetlift, inputs, seed, Sizes) -> [Call]
    verdicts_per_pass: Callable  # Sizes -> int


def pass_seed(workload: Workload, seed: int, index: int) -> int:
    """The library seed of pass `index` of a run with workload seed `seed`.

    How much work a call does depends on its points, so on the seed: by
    up to 25% for single suites and 20% for a darboux-n2 pass. A run
    cycles through `seeds_per_run` library seeds, `seed * k + j` for
    j < k, so its medians are over several seeds rather than one, and two
    workload seeds share no library seed."""
    k = workload.seeds_per_run
    return seed * k + index % k


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples above it by the
    nearest-rank rule, but not below the median."""
    for p in range(99, 50, -1):
        if samples - -(-p * samples // 100) >= 10:
            return p
    return 50


# -- verify-suites ----------------------------------------------------------

def _suites_setup(jl, root, sizes):
    return {m: jl.load_model(str(root / "models" / f"{m}.json")).suite_inputs()
            for m in sizes.models}


def _report_check(expected_counts):
    def check(report):
        if len(report.items) != expected_counts:
            return f"{len(report.items)} checks, expected {expected_counts}"
        failed = [item.check_id for item in report.items if not item.passed]
        if failed:
            return f"failed checks {failed[:5]}"
        return None
    return check


def _suites_plan(jl, inputs, seed, sizes):
    calls = []
    for model, inp in inputs.items():
        for suite in SUITE_ORDER:
            calls.append(Call(
                f"{suite}.{model}",
                lambda suite=suite, inp=inp: jl.run_suite(
                    suite, inp, points=sizes.points, seed=seed,
                    tol=SYMBOLIC_TOL, box=BOX),
                _report_check(SUITE_CHECKS[model][suite])))
    return calls


# -- darboux-n2 -------------------------------------------------------------

def _darboux_setup(jl, root, sizes):
    kind, R = jl.load_model(str(root / "models" / "n2.json")).get("R_dn")
    if kind != "tensor11_E":
        raise ValueError(f"R_dn is {kind}, expected tensor11_E")
    return R


def _eigen_samples(jl, R, seed):
    """The eigenvalue samples `jetlift darboux` prints."""
    rng = random.Random(seed)
    samples = []
    for _ in range(EIGEN_SAMPLE_TRIES):
        if len(samples) == EIGEN_SAMPLES:
            break
        pt = tuple(rng.uniform(*BOX) for _ in range(R.space.dim))
        try:
            data = jl.eigen_analysis(R, pt)
        except jl.EigenError:
            continue
        samples.append((pt, [float(v) for v in data.eigenvalues]))
    return samples


def _check_eigen_samples(samples):
    """R_dn has eigenvalues q1 - t*q2 and q2 + 3 (ascending order)."""
    if len(samples) != EIGEN_SAMPLES:
        return f"{len(samples)} eigenvalue samples, expected {EIGEN_SAMPLES}"
    for (t, q1, q2), values in samples:
        expect = sorted([q1 - t * q2, q2 + 3.0])
        if max(abs(a - b) for a, b in zip(values, expect)) > EIGEN_MATCH_TOL:
            return f"eigenvalues {values} at {(t, q1, q2)}, expected {expect}"
    return None


def _check_pn(expected):
    def check(rep):
        if rep.verdict != expected:
            return f"verdict {rep.verdict}, expected {expected}"
        return None
    return check


def _check_dn(report):
    ids = tuple(item.check_id for item in report.items)
    if ids != DN_CHECKS:
        return f"checks {ids}, expected {DN_CHECKS}"
    failed = [item.check_id for item in report.items if not item.passed]
    return f"failed checks {failed}" if failed else None


def _darboux_plan(jl, R, seed, sizes):
    def dn_transform():
        T = jl.build_dn_transform(R, box=BOX, points=sizes.dn_build_points,
                                  seed=seed, tol=SYMBOLIC_TOL)
        return jl.verify_dn(R, T, points=sizes.dn_verify_points, seed=seed,
                            tol=PROCEDURAL_TOL, box=BOX)

    return [
        Call("pn_check", lambda: jl.pn_check(R, points=sizes.dn_pn_points,
                                             seed=seed, tol=SYMBOLIC_TOL),
             _check_pn("pn-structure")),
        Call("dn_transform", dn_transform, _check_dn),
        Call("eigen_samples", lambda: _eigen_samples(jl, R, seed),
             _check_eigen_samples, verdict=False),
    ]


# -- pn-sweep ---------------------------------------------------------------

def sweep_components(n: int) -> dict:
    """R = sum q_i d/dq_i (x) dq^i + sum t d/dq_i (x) dq^((i mod n)+1)."""
    comps = {}
    for i in range(1, n + 1):
        comps[f"q{i},q{i}"] = f"q{i}"
    for i in range(1, n + 1):
        key = f"q{i},q{i % n + 1}"
        comps[key] = f"{comps[key]} + t" if key in comps else "t"
    return comps


def _sweep_setup(jl, root, sizes):
    return {n: jl.Tensor11.from_dict(jl.base_e(n), sweep_components(n))
            for n in sizes.sweep_ns}


def _sweep_plan(jl, tensors, seed, sizes):
    return [Call(f"pn_check.n{n}",
                 lambda R=R: jl.pn_check(R, points=sizes.points, seed=seed,
                                         tol=SYMBOLIC_TOL),
                 _check_pn("not-pn"))
            for n, R in tensors.items()]


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-suites", seeds_per_run=5, setup=_suites_setup,
                 plan=_suites_plan,
                 verdicts_per_pass=lambda s: len(SUITE_ORDER) * len(s.models)),
        Workload("darboux-n2", seeds_per_run=11, setup=_darboux_setup,
                 plan=_darboux_plan, verdicts_per_pass=lambda s: 2),
        Workload("pn-sweep", seeds_per_run=6, setup=_sweep_setup,
                 plan=_sweep_plan, verdicts_per_pass=lambda s: len(s.sweep_ns)),
    )
}
