"""Per-layer tracing of jetlift from outside the library.

`install(tracer)` replaces jetlift's public functions and methods with
wrappers that charge their time to a layer. Nothing under `src/jetlift`
changes: functions are swapped in every `jetlift.*` module namespace that
binds them (the modules import each other with `from .x import name`),
and methods are swapped once, on the class that defines them.

Three kinds of wrapper:

* span    -- coarse calls (a suite, a check, a lift, a push, a PN call).
             Each is recorded with its parent span and also aggregated.
* timed   -- hot calls (field eval/grad/diff, tensor calculus, residual
             helpers). Only a call count and self time are aggregated.
* counted -- very hot constructors and helpers whose time is left to the
             caller: only the call count is kept.

A layer's self time is the time inside its wrappers minus the time spent
in nested wrapped calls, so the self times of all layers plus the root
add up to the traced pass.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# Layer tables: (module or class path, attribute names, layer key).
# Functions that several modules import are patched in all of them.
SPAN_FUNCS = [
    ("jetlift.suites", ["run_suite"], "suites.run"),
    ("jetlift.lifts", ["momentum_function", "vlift_oneform",
                       "complete_lift_vector", "vlift_tensor11",
                       "hlift_tensor11", "complete_lift_tensor11",
                       "complete_lift_cotangent", "vlift_cov2",
                       "vlift_twoform", "canonical_theta",
                       "theta_representative",
                       "project_oneform_to_extended", "rho_related"],
     "lifts"),
    ("jetlift.pn", ["pn_check", "build_dn_transform", "verify_dn"],
     "pn.call"),
    ("jetlift.pn", ["magri_morosi"], "pn.concomitant"),
]
SPAN_METHODS = [
    ("jetlift.report.Checker", ["residual"], "report.residual"),
    ("jetlift.charts.ChartMap", ["push", "push_scalar", "push_vector",
                                 "push_oneform", "push_tensor11",
                                 "push_twoform", "push_bivector",
                                 "push_tensor12"], "charts.push"),
]
TIMED_FUNCS = [
    ("jetlift.tensors", ["apply_tensor11", "adjoint_tensor11", "pair",
                         "compose_tensor11", "tensor_product", "wedge",
                         "identity_tensor", "lie_bracket", "lie_derivative",
                         "differential", "exterior_derivative",
                         "interior_product", "hook2", "sum_fields",
                         "nijenhuis_torsion", "haantjes_tensor"],
     "tensors.calculus"),
    ("jetlift.pn", ["eigen_analysis"], "pn.eigen"),
    ("jetlift.pn", ["canonical_bivector", "poisson_apply", "poisson_bracket",
                    "fiber_hamiltonian_field", "hamiltonian_vector_field",
                    "pullback_oneform_to_phase", "commutation_defect",
                    "commutation_residual", "eigenvalue_fields",
                    "_basis_pairs"], "pn.other"),
    ("jetlift.charts", ["invert_field_matrix", "pullback_twoform"],
     "charts.maps"),
    ("jetlift.report", ["residual_of", "residual_between"],
     "report.residual"),
]
TIMED_METHODS = [
    ("jetlift.fields.SymbolicField", ["eval", "grad"], "fields.eval"),
    ("jetlift.fields.ProceduralField", ["eval", "grad"], "fields.eval"),
    ("jetlift.fields.SymbolicField", ["diff"], "fields.diff"),
    ("jetlift.fields.ProceduralField", ["diff"], "fields.diff"),
    ("jetlift.tensors.Tensor12", ["apply", "hook"], "tensors.calculus"),
    ("jetlift.report.Checker", ["sample", "draw_point"], "report.sample"),
    ("jetlift.charts.FibredTransform", ["base_map", "phase_map"],
     "charts.maps"),
]
COUNTED_FUNCS = [
    ("jetlift.expr", ["parse_expr"], "expr.parse"),
]
COUNTED_METHODS = [
    ("jetlift.fields.SymbolicField", ["__init__"], "fields.symbolic_built"),
    ("jetlift.fields.ProceduralField", ["__init__"],
     "fields.procedural_built"),
    ("jetlift.tensors.VectorField", ["eval_at"], "tensors.eval_at"),
    ("jetlift.tensors.OneForm", ["eval_at"], "tensors.eval_at"),
    ("jetlift.tensors._Matrix", ["eval_at"], "tensors.eval_at"),
    ("jetlift.tensors.Tensor12", ["eval_at"], "tensors.eval_at"),
    ("jetlift.report.CheckItem", ["__init__"], "report.checks"),
]


class Tracer:
    """Call counts, self times, spans and point/tree statistics of one pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []          # [id, parent id, name, start, end]
        self._stack = [[0.0]]    # child time of each open frame; [0] is root
        self._span_stack = [0]
        self._origin = time.perf_counter()
        self._walked = {}        # id(obj) -> obj walked; kept so ids stay unique

    # -- wrappers -----------------------------------------------------------

    def timed(self, layer, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                stack[-1][0] += dt

        return wrapper

    def span(self, layer, fn, label=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        spans, span_stack = self.spans, self._span_stack
        clock = time.perf_counter
        origin = self._origin

        def wrapper(*args, **kwargs):
            name = label(args) if label else f"{layer}:{fn.__name__}"
            calls[layer] += 1
            record = [len(spans) + 1, span_stack[-1], name, 0.0, 0.0]
            spans.append(record)
            span_stack.append(record[0])
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                span_stack.pop()
                self_s[layer] += dt - frame[0]
                stack[-1][0] += dt
                record[3] = t0 - origin
                record[4] = t1 - origin

        return wrapper

    def counted(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def region(self, layer, name, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        return self.span(layer, fn, label=lambda _a: name)(*args)

    # -- expression-tree statistics ----------------------------------------

    def walk(self, obj, expr_mod, symbolic_cls):
        """Count tree nodes and structurally unique nodes over the scalar
        components of one object."""
        self._walked[id(obj)] = obj
        roots = []
        _components(obj, roots)
        tree, unique = _expr_stats(roots, expr_mod, symbolic_cls)
        self.counts["expr.objects"] += 1
        self.counts["expr.tree_nodes"] += tree
        self.counts["expr.unique_nodes"] += unique

    def layer_split(self) -> dict:
        keys = sorted(set(self.calls) | set(self.self_s))
        return {k: {"calls": self.calls.get(k, 0),
                    "self_s": self.self_s.get(k, 0.0)} for k in keys}


def _components(obj, out):
    if hasattr(obj, "entries"):
        obj = obj.entries
    elif hasattr(obj, "comps"):
        obj = obj.comps
    if isinstance(obj, (list, tuple)):
        for item in obj:
            _components(item, out)
    else:
        out.append(obj)


def _expr_stats(roots, ex, symbolic_cls):
    """(tree nodes counted with repetition, structurally distinct nodes)."""
    size = {}    # id(node) -> size of its tree
    canon = {}   # id(node) -> canonical index
    table = {}   # structural key -> canonical index

    def visit(e):
        k = id(e)
        if k in size:
            return size[k], canon[k]
        if isinstance(e, ex.Const):
            s, key = 1, ("c", e.value)
        elif isinstance(e, ex.Var):
            s, key = 1, ("v", e.name)
        elif isinstance(e, ex.Unary):
            sa, ca = visit(e.arg)
            s, key = 1 + sa, ("u", e.op, ca)
        elif isinstance(e, ex.Binary):
            sl, cl = visit(e.left)
            sr, cr = visit(e.right)
            s, key = 1 + sl + sr, ("b", e.op, cl, cr)
        elif isinstance(e, ex.Pow):
            sb, cb = visit(e.base)
            s, key = 1 + sb, ("p", e.exponent, cb)
        else:  # a procedural field or a bare number: one opaque node
            s, key = 1, ("o", k)
        size[k] = s
        canon[k] = table.setdefault(key, len(table))
        return s, canon[k]

    tree = 0
    for f in roots:
        node = f.expr if isinstance(f, symbolic_cls) else f
        tree += visit(node)[0]
    return tree, len(table)


def _resolve(path):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise ImportError(path)


def _patch_function(path, name, wrapper_for):
    original = getattr(_resolve(path), name)
    wrapped = wrapper_for(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "jetlift"
                               or mod_name.startswith("jetlift.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _patch_method(path, name, wrapper_for):
    cls = _resolve(path)
    original = cls.__dict__[name]
    setattr(cls, name, wrapper_for(original))


def install(tr: Tracer):
    """Wrap jetlift's layers for one traced pass; call after `import jetlift`."""
    import numpy as np
    from jetlift import expr as ex
    from jetlift.errors import EigenError
    from jetlift.fields import SymbolicField
    from jetlift.report import _REJECTABLE

    def run_suite_label(args):
        return f"suite:{args[0]}"

    for path, names, layer in SPAN_FUNCS:
        for name in names:
            label = run_suite_label if name == "run_suite" else None
            _patch_function(path, name,
                            lambda f, layer=layer, label=label:
                            tr.span(layer, f, label))
    for path, names, layer in SPAN_METHODS:
        for name in names:
            _patch_method(path, name, lambda f, layer=layer: tr.span(layer, f))
    for path, names, layer in TIMED_FUNCS:
        for name in names:
            _patch_function(path, name,
                            lambda f, layer=layer: tr.timed(layer, f))
    for path, names, layer in TIMED_METHODS:
        for name in names:
            _patch_method(path, name, lambda f, layer=layer: tr.timed(layer, f))
    for path, names, key in COUNTED_FUNCS:
        for name in names:
            _patch_function(path, name, lambda f, key=key: tr.counted(key, f))
    for path, names, key in COUNTED_METHODS:
        for name in names:
            _patch_method(path, name, lambda f, key=key: tr.counted(key, f))

    # Eigen rejections: eigen_analysis raising EigenError.
    def count_eigen_rejects(f):
        def wrapper(*args, **kwargs):
            try:
                return f(*args, **kwargs)
            except EigenError:
                tr.counts["pn.eigen_rejects"] += 1
                raise
        return wrapper

    _patch_function("jetlift.pn", "eigen_analysis", count_eigen_rejects)

    # Newton steps: the Newton loop in charts solves one linear system per
    # step through numpy.linalg.solve, looked up on the module at call time.
    solve = np.linalg.solve

    def counting_solve(*args, **kwargs):
        tr.counts["charts.newton_steps"] += 1
        return solve(*args, **kwargs)

    np.linalg.solve = counting_solve

    # Accepted and rejected sample points: wrap the callable each Checker
    # method evaluates per drawn point.
    def counting(fn):
        def point_fn(pt):
            try:
                value = fn(pt)
            except _REJECTABLE:
                tr.counts["report.points_rejected"] += 1
                raise
            tr.counts["report.points_accepted"] += 1
            return value
        return point_fn

    Checker = _resolve("jetlift.report.Checker")
    residual = Checker.residual

    def residual_counting(self, check_id, identity, dim, fn, tol=None):
        return residual(self, check_id, identity, dim, counting(fn), tol)

    Checker.residual = residual_counting
    sample = Checker.sample

    def sample_counting(self, dim, probe=None):
        if probe is not None:
            return sample(self, dim, counting(probe))
        pts = sample(self, dim)
        tr.counts["report.points_accepted"] += len(pts)
        return pts

    Checker.sample = sample_counting

    # Tree statistics of every object whose residual the report layer takes;
    # the walk is charged to its own layer, not to report.residual.
    walk, walked = tr.timed("trace.walk", tr.walk), tr._walked

    def walking(f, arity):
        def wrapper(*args, **kwargs):
            for obj in args[:arity]:
                if id(obj) not in walked:
                    walk(obj, ex, SymbolicField)
            return f(*args, **kwargs)
        return wrapper

    _patch_function("jetlift.report", "residual_of",
                    lambda f: walking(f, 1))
    _patch_function("jetlift.report", "residual_between",
                    lambda f: walking(f, 2))
