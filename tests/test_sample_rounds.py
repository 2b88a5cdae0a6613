"""Sample rounds drawn and judged as arrays, against the per-point loop.

`Checker.draw_points` builds each round's doubles from one `getrandbits`
call; it must give, byte for byte, the doubles `rng.uniform` gives, and
leave the stream where they leave it. `Checker._accept` and
`Checker._record` judge a round in one Batch; on scripted judges they must
accept the points, name the worst point and abort with the message and
histogram of the per-point loop they replaced (`scalar_checker`, which
takes each round's values, rejected mask and errors through `triple`).
"""
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_checker
from jetlift.errors import (
    DomainError,
    NonFiniteError,
    SamplingError,
    SingularPointError,
)
from jetlift.expr import Batch
from jetlift.report import Checker


def pack(values):
    """The IEEE bytes, so that 0.0 and -0.0 differ and nan equals nan."""
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(seed=st.integers(0, 2 ** 64), n=st.integers(0, 70), dim=st.integers(1, 7),
       box=st.tuples(finite, finite))
def test_draw_points_is_the_uniform_stream(seed, n, dim, box):
    lo, hi = box
    if not (lo < hi and math.isfinite(hi - lo)):  # a box the Checker refuses
        with pytest.raises(SamplingError, match="need a box"):
            Checker(seed=seed, box=box)
        return
    ch, rng = Checker(seed=seed, box=box), random.Random(seed)
    got = ch.draw_points(n, dim)
    assert got.shape == (n, dim)
    assert pack(got.ravel().tolist()) == pack(rng.uniform(*box)
                                              for _ in range(n * dim))
    assert pack([ch.rng.random()]) == pack([rng.random()])


ERRORS = [SingularPointError, DomainError, NonFiniteError, OverflowError]
RESIDUALS = [0.0, -0.0, 0.5, 2.0, math.inf, -math.inf, math.nan]


def scripted(script):
    """A judge that judges the k-th row it is handed, counted over all its
    Batches, by script[k % len(script)]: an error class rejects the row, a
    number is its residual."""
    seen = [0]

    def judge(b):
        m = len(b.X)
        values = np.full(m, math.nan)
        for j in range(m):
            entry = script[(seen[0] + j) % len(script)]
            if isinstance(entry, type):
                error = entry(f"point {seen[0] + j}")
                b.reject([j], lambda _: error)
            else:
                values[j] = entry
        seen[0] += m
        return values
    return judge


def triple(judge):
    """judge as the per-point loop takes a round: points -> (values,
    rejected mask, {row: error}) of one new Batch of the points."""
    def batch(points):
        b = Batch(np.asarray(points, dtype=float))
        values = judge(b)
        return values, b.rejected, b.errors
    return batch


def judged(script, points, dim, seed):
    """What the array checker and the per-point loop make of the script:
    for each, the accepted points and values, the CheckItem or oracle
    worst, and the abort message, with the rng state after."""
    def message(why):
        return f"check x: {why}"

    out = []
    for run in ("arrays", "loop"):
        ch = Checker(points=points, seed=seed)
        try:
            if run == "arrays":
                pts, values = ch._accept(dim, scripted(script), message)
                recorder = Checker(points=points, seed=seed)
                item = recorder._record("x", "", dim, scripted(script))
                assert recorder.rng.getstate() == ch.rng.getstate()
                result = ([tuple(p) for p in pts.tolist()], pack(values.tolist()),
                          (pack([item.max_residual]), item.worst_point))
            else:
                accepted = scalar_checker.accept(ch, dim, triple(scripted(script)),
                                                 message)
                worst, worst_pt = scalar_checker.worst(accepted)
                result = ([pt for pt, _ in accepted], pack(v for _, v in accepted),
                          (pack([worst]), worst_pt))
        except SamplingError as exc:
            result = str(exc)
        out.append((result, ch.rng.getstate()))
    return out


@given(script=st.lists(st.one_of(st.sampled_from(RESIDUALS), st.sampled_from(ERRORS)),
                       min_size=1, max_size=40),
       points=st.integers(1, 6), dim=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
def test_rounds_judge_as_the_per_point_loop(script, points, dim, seed):
    arrays, loop = judged(script, points, dim, seed)
    assert arrays == loop


@pytest.mark.parametrize("script, worst, at", [
    ([1.0, 2.0, 2.0, 0.5], 2.0, 1),  # a tie: the first point keeps it
    ([1.0, math.nan, math.inf, 0.5], math.inf, 1),  # nan is read as inf
    ([0.5, -math.inf, math.nan], math.inf, 1),
    ([0.0, -0.0, 0.0, -0.0], 0.0, None),  # no residual above 0: no point
    ([DomainError, 0.0, 3.0, OverflowError, 3.0], 3.0, 1),
])
def test_worst_point_cases(script, worst, at):
    arrays, loop = judged(script, 4, 2, 7)
    assert arrays == loop
    (points, _, (got, worst_pt)), _ = arrays
    assert got == pack([worst])
    assert worst_pt == (() if at is None else points[at])


def test_abort_counts_up_to_the_crossing_rejection():
    # ten rounds of four rejected points, then a round whose first point is
    # the 41st rejection: the abort counts it and none of the round after it
    script = [SingularPointError] * 40 + [DomainError, OverflowError, 1.0, NonFiniteError]
    arrays, loop = judged(script, 4, 3, 0)
    assert arrays == loop
    assert arrays[0] == ("check x: rejected 41 sample points "
                         "(SingularPointError: 40, DomainError: 1)")
