"""The per-point judge of sample rounds that `Checker._accept` and
`Checker._record` replaced by masks over each round, kept verbatim as a
differential oracle: it walks the drawn points of a round in stream order,
one at a time, and so counts the rejections up to the one that crosses
10x the points, and takes the first point with the largest residual.
"""
import math
from collections import Counter

from jetlift.errors import SamplingError


def accept(checker, dim, batch, message=lambda why: (
        f"{why}; the objects are singular on most of the box")):
    """The first checker.points points of the stream that batch does not
    reject, as (point, value) pairs; abort after 10x rejections."""
    accepted = []
    rejected = []  # the error class of each rejected point
    while len(accepted) < checker.points:
        pts = list(map(tuple, checker.draw_points(
            checker.points - len(accepted), dim).tolist()))
        values, mask, errors = batch(pts)
        for j, (pt, value, bad) in enumerate(zip(pts, values, mask)):
            if not bad:
                accepted.append((pt, value))
                continue
            rejected.append(type(errors[j]).__name__)
            if len(rejected) > 10 * checker.points:
                counts = sorted(Counter(rejected).items(),
                                key=lambda c: (-c[1], c[0]))
                raise SamplingError(message(
                    f"rejected {len(rejected)} sample points (" +
                    ", ".join(f"{name}: {k}" for name, k in counts) + ")"))
    return accepted


def worst(accepted):
    """The largest residual of the accepted (point, residual) pairs and
    its point; (0.0, ()) when none is above 0."""
    worst, worst_pt = 0.0, ()
    for pt, r in accepted:
        # an unbounded residual never passes
        r = float(r) if math.isfinite(r) else math.inf
        if r > worst:
            worst, worst_pt = r, pt
    return worst, worst_pt
