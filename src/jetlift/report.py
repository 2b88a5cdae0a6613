"""Seeded random-point verification machinery and machine-readable reports.

Identity checking is pointwise sampling in a box, never symbolic
zero-testing, but for the checks interning decides: sides that are one
node (or constant zeros), bounded in the box, draw their round and record
0 unevaluated. Points that trip the singularity guard (or any other
evaluation error), overflow, or give a non-finite value are rejected and
redrawn; too many rejections abort. A round of points is drawn by one
`getrandbits` call into one `Batch` and judged at once: a judge is a
function of the Batch that returns the values of its rows and rejects
there the rows that fail (a check is one compiled program); only
rejected points and per-point probes are visited one at a time.
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import (
    DomainError,
    EigenError,
    NonFiniteError,
    SamplingError,
    SingularPointError,
    SpaceMismatchError,
    TransformError,
)
from .expr import Batch
from .fields import evaluate, program

DEFAULT_POINTS = 64
DEFAULT_SEED = 0
DEFAULT_TOL = 1e-9
PROCEDURAL_TOL = 1e-6
DEFAULT_BOX = (-2.0, 2.0)

_REJECTABLE = (SingularPointError, DomainError, NonFiniteError, OverflowError,
               TransformError, EigenError)


def _json_number(v):
    """v as a float, or as the string "inf", "-inf" or "nan", which JSON
    has no numbers for."""
    v = float(v)
    return v if math.isfinite(v) else str(v)


@dataclass
class CheckItem:
    check_id: str
    identity: str
    max_residual: float
    worst_point: tuple
    passed: bool
    tol: float

    def to_dict(self):
        return {
            "id": self.check_id,
            "identity": self.identity,
            "max_residual": _json_number(self.max_residual),
            "worst_point": [_json_number(v) for v in self.worst_point],
            "pass": bool(self.passed),
            "tol": self.tol,
        }


@dataclass
class CheckReport:
    name: str
    meta: dict = field(default_factory=dict)
    items: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def max_residual(self) -> float:
        return max((item.max_residual for item in self.items), default=0.0)

    def extend(self, other: "CheckReport"):
        self.items.extend(other.items)

    def to_dict(self):
        return {
            "name": self.name,
            "meta": self.meta,
            "checks": [item.to_dict() for item in self.items],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary_lines(self):
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            yield (f"[{status}] {item.check_id}: max residual "
                   f"{item.max_residual:.3e} (tol {item.tol:.0e}) -- {item.identity}")


def _values(a, point) -> np.ndarray:
    v = a.eval_at(point) if hasattr(a, "eval_at") else a.eval(point)
    v = np.asarray(v)
    if not np.isfinite(v).all():
        raise NonFiniteError(f"non-finite value at {point}")
    return v


def residual_between(a, b, point) -> float:
    """Max abs difference of two evaluable objects, component by component."""
    va, vb = _values(a, point).ravel(), _values(b, point).ravel()
    if va.size != vb.size:
        raise SpaceMismatchError(f"cannot compare {va.size} components with {vb.size}")
    return float(np.max(np.abs(va - vb)))


def residual_of(a, point) -> float:
    return float(np.max(np.abs(_values(a, point))))


def _objects(a) -> list:
    """The objects of a (nested) list, or [a] for a single object."""
    if isinstance(a, (list, tuple)):
        return [x for item in a for x in _objects(item)]
    return [a]


def _leaves(a):
    """The scalar components of an object or a list of objects, in order."""
    leaves = []
    for obj in _objects(a):
        if not hasattr(obj, "components"):
            raise TypeError(f"cannot check a {type(obj).__name__}: it has "
                            "no components")
        leaves.extend(obj.components())
    return leaves


def _sides(a, b=None):
    """The components of a, of b (none without b) and their space; raises
    SpaceMismatchError for no components, unequal counts or mixed spaces."""
    lhs = _leaves(a)
    rhs = [] if b is None else _leaves(b)
    fields = lhs + rhs
    if not fields:
        raise SpaceMismatchError("nothing to check")
    if b is not None and len(rhs) != len(lhs):
        raise SpaceMismatchError(f"cannot compare {len(lhs)} components "
                                 f"with {len(rhs)}")
    space = fields[0].space
    if any(f.space is not space for f in fields):
        raise SpaceMismatchError("components on mixed spaces: "
                                 f"{sorted({str(f.space) for f in fields})}")
    return lhs, rhs, space


def _decided(lhs, rhs, box) -> bool:
    """Whether lhs = rhs (lhs = 0 without rhs) holds, none rejected, at each
    point of the box: each pair one node or two constant zeros, and
    interval bounds keep every node of lhs below 1e300 (div, log, sqrt,
    calls and powers but positive integer ones are unbounded)."""
    trees, bound = [f.expr for f in lhs], {}
    others = [f.expr for f in rhs] or [ex.ZERO] * len(trees)  # vanish: a = 0
    if trees != others and not all(x is y or x in ex.ZEROS and y in ex.ZEROS
                                    for x, y in zip(trees, others)):
        return False
    lo, hi = box  # a box the Checker refuses (a nan bound) bounds nothing
    B = max(abs(lo), abs(hi)) if lo < hi else math.nan
    try:
        for e in ex._postorder(trees):
            cls, op = e.__class__, getattr(e, "op", None)
            if cls is ex.Const:
                v = abs(e.value)
            elif cls is ex.Var:
                v = B
            elif op in ("add", "sub", "mul"):
                u, w = bound[e.left], bound[e.right]
                v = u * w if op == "mul" else u + w
            elif op in ("neg", "sin", "cos", "exp"):
                u = bound[e.arg]
                v = u if op == "neg" else math.exp(u) if op == "exp" else 1.0
            elif cls is ex.Pow and e.exponent.denominator == 1 and e.exponent > 0:
                v = bound[e.base] ** int(e.exponent)
            else:
                return False
            if not v < 1e300:  # nan too
                return False
            bound[e] = v
    except OverflowError:  # exp or a power past the largest float
        return False
    return True


def _compiled_residuals(a, b=None, sizes=None):
    """A judge: the residual per point of a Batch b, evaluating every
    component of a (and b) over all its points at once, in one program
    compiled here once. A rejected row keeps the error of the first
    node of the program that fails there (the components of a, then
    of b, each after the nodes it shares with those before), else the
    NonFiniteError of `_values`. With sizes, a row per point of one
    residual for each run of that many consecutive components.
    SpaceMismatchError as `_sides` raises it."""
    return _residual_program(*_sides(a, b), sizes)


def _residual_program(lhs, rhs, space, sizes=None):
    """`_compiled_residuals` of the sides `_sides` gives (rhs empty for a
    vanishing check)."""
    run = ex.compile_batch([f.expr for f in lhs + rhs], space.coords)
    k = len(lhs)

    def residuals(b):
        values = b.reject_nonfinite(run(b))
        diff = np.abs(values[:k] - values[k:] if rhs else values)
        if sizes is None:
            return np.max(diff, axis=0)
        return np.array([part.max(axis=0, initial=0.0) for part in
                         np.split(diff, np.cumsum(sizes)[:-1])]).T

    return residuals


def _through(fwd, judge):
    """A judge of the points x that runs judge on a child batch of their
    images y = fwd(x), the forward map's components evaluated in the Batch
    of x. A point is rejected with fwd's error where that fails or is not
    finite, else with judge's at its image. Its values are the (m, 1 + dim)
    rows of each point's residual, then its image."""
    images = program(fwd)

    def run(b):
        Y = b.reject_nonfinite(images(b)).T
        live = np.flatnonzero(~b.rejected)
        out = np.column_stack([np.full(len(Y), np.nan), Y])
        if live.size:
            out[live, 0] = b.on("images", lambda: Y[live], judge, rows=live)
        return out
    return run


def max_residual(a, points, b=None) -> float:
    """Largest residual of a (or of a - b) over the given points, where a
    and b are objects or lists of objects. Raises the error that rejects
    the first point that cannot be evaluated, and SamplingError when there
    are no points."""
    if len(points) == 0:
        raise SamplingError("no sample points to take the residual at")
    return float(np.max(evaluate(points, _compiled_residuals(a, b))))


def _each_point(fn):
    """A judge that calls fn with each point of a Batch as a tuple: a point
    where fn raises a rejectable error is rejected with that error. The
    values are an object array of fn's results (None where rejected)."""
    def judge(b):
        values = np.empty(len(b.X), dtype=object)
        for j, pt in enumerate(map(tuple, b.X.tolist())):
            try:
                values[j] = fn(pt)
            except _REJECTABLE as exc:
                b.reject([j], lambda _: exc)
        return values
    return judge


class Checker:
    """Draws seeded sample points per check and accumulates a report.

    Points are judged in stream order and a check consumes the stream up
    to its last accepted point, so it consumes the same random stream
    whether its points are evaluated one at a time or all at once. Every
    CheckItem of a report is built by `record`.
    """

    def __init__(self, points=DEFAULT_POINTS, seed=DEFAULT_SEED,
                 tol=DEFAULT_TOL, box=DEFAULT_BOX, name="checks"):
        if points < 1:
            raise SamplingError(f"need at least 1 sample point, got {points}")
        if not 0 < tol < math.inf:
            raise SamplingError(f"need a finite tolerance above 0, got {tol}")
        lo, hi = box
        if not lo < hi:  # also catches a nan bound
            raise SamplingError(f"need a box with lo < hi, got {tuple(box)}")
        if not math.isfinite(hi - lo):  # also catches an infinite bound
            raise SamplingError(f"need a box of finite bounds and width, got "
                                f"{tuple(box)}")
        self.points = points
        self.seed = seed
        self.tol = tol
        self.box = box
        self.rng = random.Random(seed)
        self.report = CheckReport(name, meta={
            "seed": seed, "points": points, "tol": tol, "box": list(box)})

    def draw_points(self, n: int, dim: int) -> np.ndarray:
        """(n, dim) points: bit for bit those n * dim rng.uniform(lo, hi) give,
        the stream advanced as far. Each 64-bit word holds the two 32-bit
        outputs random() reads, the first in the low half."""
        lo, hi = self.box
        k = n * dim
        w = np.frombuffer(self.rng.getrandbits(64 * k).to_bytes(8 * k, "little"),
                          dtype="<u8")
        r = (((w & 0xFFFFFFFF) >> 5) * 67108864.0 + (w >> 38)) * (1.0 / 9007199254740992.0)
        return (lo + (hi - lo) * r).reshape(n, dim)

    def draw_point(self, dim: int) -> tuple:
        return tuple(self.draw_points(1, dim)[0].tolist())

    def _accept(self, dim, judge, message=lambda why: (
            f"{why}; the objects are singular on most of the box")):
        """The first self.points points of the stream that judge does not
        reject, as an array, and their values in the same order; abort at the
        rejection that makes them more than 10x self.points, counting them by
        error class. Each round draws the points still missing into one
        Batch b; judge(b) gives their values and rejects rows in b."""
        points, values, rejected = [], [], Counter()  # rejected: by error class
        spare, missing = 10 * self.points, self.points  # spare: before the abort
        while missing:
            b = Batch(self.draw_points(missing, dim))
            with np.errstate(all="ignore"):  # rejected rows may overflow
                vals = judge(b)
            X, mask, errors = b.X, b.rejected, b.errors
            if mask.any():
                bad = np.flatnonzero(mask).tolist()
                rejected.update(type(errors[j]).__name__ for j in bad[:spare + 1])
                if len(bad) > spare:
                    counts = sorted(rejected.items(), key=lambda c: (-c[1], c[0]))
                    raise SamplingError(message(
                        f"rejected {rejected.total()} sample points (" +
                        ", ".join(f"{name}: {k}" for name, k in counts) + ")"))
                spare -= len(bad)
                X, vals = X[~mask], vals[~mask]
            points.append(X)
            values.append(vals)
            missing -= len(X)
        if len(points) == 1:  # nothing was rejected: the round as drawn
            return X, vals
        return np.concatenate(points), np.concatenate(values)

    def sample(self, dim: int, probe=None) -> list:
        """Draw self.points points, rejecting those on which probe raises a
        guard error; abort after 10x rejections."""
        probe = probe or (lambda pt: None)
        points, _ = self._accept(dim, _each_point(probe))
        return list(map(tuple, points.tolist()))

    def sample_residuals(self, groups):
        """Draw self.points points at which every group (an object or a list
        of objects) evaluates, redrawing the others as a check does; return
        each group's largest absolute component over them."""
        # one program for all groups, so that their shared terms run once
        judge = _compiled_residuals(
            list(groups), sizes=[len(_leaves(g)) for g in groups])
        _, res = self._accept(_objects(groups)[0].space.dim, judge)
        return res.max(axis=0, initial=0.0).tolist()

    def record(self, check_id, identity, residual, worst_point=(), tol=None,
               passed=None):
        """Append a CheckItem to the report and return it; it passes if
        residual < tol (the Checker's by default), or as passed says."""
        tol = self.tol if tol is None else tol
        item = CheckItem(check_id, identity, residual, worst_point,
                         residual < tol if passed is None else passed, tol)
        self.report.items.append(item)
        return item

    def _record(self, check_id, identity, dim, judge, tol=None, via=None):
        """Record the first accepted point with the largest residual, a
        non-finite one read as inf (it never passes); none if all are 0."""
        if via is not None:  # draw in via's source box, judge at the images
            dim, judge = via.src.dim, _through(via.fwd, judge)
        points, res = self._accept(dim, judge, lambda why: f"check {check_id}: {why}")
        if via is not None:  # each value is the residual, then the image
            points, res = res[:, 1:], res[:, 0]
        res = np.asarray(res, dtype=float)
        res[~np.isfinite(res)] = math.inf
        i = int(np.argmax(res))
        worst_pt = tuple(points[i].tolist()) if res[i] > 0 else ()
        return self.record(check_id, identity, max(0.0, float(res[i])), worst_pt, tol)

    def residual(self, check_id, identity, dim, fn, tol=None):
        """fn(point) -> float residual; record the worst point."""
        return self._record(check_id, identity, dim, _each_point(fn), tol)

    def _check(self, check_id, identity, a, b, via):
        lhs, rhs, space = _sides(a, b)
        if via is None and _decided(lhs, rhs, self.box):
            # as sampled: one round (the stream draw_points takes), all 0
            self.rng.getrandbits(64 * self.points * space.dim)
            return self.record(check_id, identity, 0.0, ())
        return self._record(check_id, identity, space.dim,
                            _residual_program(lhs, rhs, space), via=via)

    def compare(self, check_id, identity, a, b, via=None):
        """a = b, for two objects or two lists of objects. With via, a
        ChartMap onto their chart, the points x are drawn in via's source
        chart and a, b compared at their images y = via(x), the worst_point."""
        return self._check(check_id, identity, a, b, via)

    def vanish(self, check_id, identity, a, via=None):
        """a = 0, for an object or a list of objects; via as in compare."""
        return self._check(check_id, identity, a, None, via)
