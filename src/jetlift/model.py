"""Loading model files: JSON descriptions of geometric objects on the base.

A model file looks like::

    {
      "n": 2,
      "objects": {
        "R": {"kind": "tensor11_E",
              "components": {"q1,q1": "q1", "q1,t": "t"}},
        "alpha": {"kind": "oneform_E",
                  "components": {"q1": "t", "t": "q1"}},
        "X": {"kind": "vector_E", "components": {"q1": "q2", "t": "1"}},
        "H": {"kind": "scalar_J", "components": {"value": "(p1^2)/2 + q1"}},
        "T": {"kind": "transform",
              "components": {"Q1": "q1 + t*q2", "Q2": "q2",
                             "inv_q1": "q1 - t*q2", "inv_q2": "q2"}}
      }
    }

Component keys are coordinate names ("t", "q1", ..., matrix entries "a,b");
omitted components are zero.  Expressions use the scalar grammar of
:mod:`jetlift.expr` in the coordinates of the object's space, nested to
any depth: no pass over an expression recurses once per level.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .charts import FibredTransform
from .errors import ExprError, ModelError, SpaceMismatchError
from .fields import parse_field
from .spaces import Space, base_e, phase_j
from .tensors import OneForm, Tensor11, TwoForm, VectorField

KINDS = ("scalar_E", "scalar_J", "vector_E", "oneform_E", "tensor11_E",
         "twoform_E", "transform")
TENSOR_KINDS = {"vector_E": VectorField, "oneform_E": OneForm,
                "tensor11_E": Tensor11, "twoform_E": TwoForm}


class _Object(dict):
    """A JSON object, and twice: the first key it gives more than once (json
    would keep its last value silently), or None."""

    def __init__(self, pairs):
        dict.__init__(self, pairs)
        self.twice = next((key for key, k in Counter(
            key for key, _ in pairs).items() if k > 1), None)


def _once(obj, where: str):
    """Refuse a JSON object that gives a key twice."""
    if getattr(obj, "twice", None) is not None:
        raise ModelError(f"{where} {obj.twice!r} twice")


def _parse_component(space: Space, comps: dict, name: str, key: str):
    src = comps[key]
    if not isinstance(src, str):
        raise ModelError(f"object {name!r}: component {key!r} "
                         "must be a string expression")
    try:
        f = parse_field(src, space)
    except ExprError as exc:
        raise ModelError(f"object {name!r}, component {key!r}: {exc}")
    for c in space.coords:  # every lift and suite differentiates it
        try:
            f.diff(c)
        except ExprError as exc:  # log(0): its derivative divides by 0
            raise ModelError(f"object {name!r}, component {key!r}: cannot "
                             f"differentiate by {c!r}: {exc}")
    return f


def _build_object(name: str, spec: dict, n: int):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ModelError(f"object {name!r}: expected a dict with a 'kind'")
    _once(spec, f"object {name!r} gives")
    kind = spec["kind"]
    if kind not in KINDS:
        raise ModelError(f"object {name!r}: unknown kind {kind!r}; "
                         f"expected one of {KINDS}")
    comps = spec.get("components", {})
    if not isinstance(comps, dict):
        raise ModelError(f"object {name!r}: 'components' must be a dict")
    _once(comps, f"object {name!r} gives component")
    be = base_e(n)
    pj = phase_j(n)

    if kind in ("scalar_E", "scalar_J"):
        if list(comps) != ["value"]:
            raise ModelError(f"object {name!r}: scalar needs a single "
                             "'value' component")
        return kind, _parse_component(be if kind == "scalar_E" else pj,
                                      comps, name, "value")
    cls = TENSOR_KINDS.get(kind)
    if cls is not None:
        try:
            obj = cls.from_dict(be, {key: _parse_component(be, comps, name, key)
                                     for key in comps})
        except SpaceMismatchError as exc:
            raise ModelError(f"object {name!r}: {exc}")
        if kind == "tensor11_E" and not obj.annihilates_dt:
            raise ModelError(f"object {name!r}: (1,1) tensors must satisfy "
                             "R(dt) = 0 (no nonzero 't' row)")
        return kind, obj
    # transform
    names = [f"{q}{i}" for q in ("Q", "inv_q") for i in range(1, n + 1)]
    for key in comps:
        if key not in names:
            raise ModelError(f"object {name!r}: transform has no component "
                             f"{key!r}; expected {names}")
    q_fwd, q_inv = [], []
    have_inv = any(k.startswith("inv_") for k in comps)
    for i in range(1, n + 1):
        key = f"Q{i}"
        if key not in comps:
            raise ModelError(f"object {name!r}: transform needs component "
                             f"{key!r}")
        q_fwd.append(_parse_component(be, comps, name, key))
        if have_inv:
            ikey = f"inv_q{i}"
            if ikey not in comps:
                raise ModelError(f"object {name!r}: transform with a partial "
                                 f"inverse; missing {ikey!r}")
            q_inv.append(_parse_component(be, comps, name, ikey))
    try:
        return kind, FibredTransform(n, q_fwd, q_inv if have_inv else None)
    except Exception as exc:
        raise ModelError(f"object {name!r}: {exc}")


@dataclass
class SuiteInputs:
    """A model's objects in the slots the identity suites take, each list in
    the model's order; reading the vector fields refuses `unsorted` ones."""
    n: int
    tensors: list = field(default_factory=list)      # (1,1) tensors killing dt
    oneforms: list = field(default_factory=list)
    twoforms: list = field(default_factory=list)
    vert: list = field(default_factory=list)         # vertical vector fields
    tnorm: list = field(default_factory=list)        # <X, dt> = 1 fields
    unsorted: list = field(default_factory=list)     # the others' names
    scalars: list = field(default_factory=list)      # functions on the base
    transforms: list = field(default_factory=list)

    def _sorted(self, fields):  # every vector field vertical or t-normalised
        if bad := self.unsorted:
            raise ModelError(f"object{'s' * (len(bad) > 1)} {', '.join(bad)}: "
                             "suite vector fields must have dt-component "
                             "0 or 1")
        return fields

    vert_fields = property(lambda self: self._sorted(self.vert))
    tnorm_fields = property(lambda self: self._sorted(self.tnorm))

    @property
    def lift_fields(self):
        """Vector fields the complete lift accepts."""
        return self.vert_fields + self.tnorm_fields


class Model:
    """A named collection of geometric objects sharing one fibre dimension."""

    def __init__(self, n: int, objects: dict):
        self.n = n
        self.objects = objects  # name -> (kind, obj)

    def get(self, name: str):
        if name not in self.objects:
            raise ModelError(f"no object named {name!r}; model has "
                             f"{sorted(self.objects)}")
        return self.objects[name]

    def by_kind(self, *kinds):
        return [obj for kind, obj in self.objects.values() if kind in kinds]

    def suite_inputs(self) -> SuiteInputs:
        """Sort the model's objects into the slots the identity suites use."""
        verts, tnorms, bad = [], [], []
        for name, (kind, X) in self.objects.items():
            if kind != "vector_E":
                continue
            if X.is_vertical:
                verts.append(X)
            elif X.is_t_normalized:
                tnorms.append(X)
            else:
                bad.append(repr(name))
        return SuiteInputs(
            n=self.n,
            tensors=self.by_kind("tensor11_E"),
            oneforms=self.by_kind("oneform_E"),
            twoforms=self.by_kind("twoform_E"),
            vert=verts,
            tnorm=tnorms,
            unsorted=bad,
            scalars=self.by_kind("scalar_E"),
            transforms=self.by_kind("transform"),
        )


def load_model(path: str) -> Model:
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=_Object)
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}")
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    _once(data, "model file gives")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ModelError("model needs a positive integer 'n'")
    raw = data.get("objects", {})
    if not isinstance(raw, dict) or not raw:
        raise ModelError("model needs a non-empty 'objects' dict")
    _once(raw, "model gives object")
    objects = {}
    for name, spec in raw.items():
        try:
            objects[name] = _build_object(name, spec, n)
        except ExprError as exc:
            raise ModelError(f"object {name!r}: {exc}")
    return Model(n, objects)
