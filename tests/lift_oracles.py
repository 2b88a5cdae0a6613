"""An oracle for the complete lift to the extended cotangent space, written
over all 2n + 2 coordinates from the textbook formula, without the shared
blocks (`lifts._lift_blocks`) that the library builds it from."""
import random

from jetlift import lifts
from jetlift.fields import coord_field, inject, zero
from jetlift.report import max_residual
from jetlift.spaces import extended_t
from jetlift.tensors import Tensor11, sum_fields


def cotangent_complete_lift(R):
    """The complete lift of R to the cotangent bundle of the base (Yano and
    Ishihara 1973). With x^a = (t, q^1..q^n) and p_a = (p0, p1..pn), a, b
    and c running over 0..n: R^a_b on d/dx^a (x) dx^b, p_c (d_b R^c_a -
    d_a R^c_b) on d/dp_a (x) dx^b, and R^a_b on d/dp_b (x) dp_a."""
    n = R.space.n
    et = extended_t(n)
    xs = R.space.coords
    X = range(n + 1)
    P = [et.index(f"p{a}") for a in X]
    p = [coord_field(et, f"p{a}") for a in X]
    entries = [[zero(et)] * et.dim for _ in range(et.dim)]
    for a in X:
        for b in X:
            entries[a][b] = entries[P[b]][P[a]] = inject(R.entries[a][b], et)
            entries[P[a]][b] = sum_fields(et, [
                p[c] * inject(R.entries[c][a].diff(xs[b])
                              - R.entries[c][b].diff(xs[a]), et) for c in X])
    return Tensor11(et, entries)


def cotangent_lift_defect(tensors, points=32):
    """The largest difference between `lifts.complete_lift_cotangent` (as
    bound when called) and the oracle over the tensors, all on one base, at
    seeded points of the extended space in [-2, 2]."""
    dim = extended_t(tensors[0].space.n).dim
    rng = random.Random(dim)
    pts = [tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in range(points)]
    return max_residual([lifts.complete_lift_cotangent(R) for R in tensors],
                        pts, [cotangent_complete_lift(R) for R in tensors])
