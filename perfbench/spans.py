"""In-memory span tracer that instruments brinkhdg from the outside.

`Tracer.install` wraps every public function and every public method
(plus ``__init__``) of the public classes defined in the package's layer
modules, and rebinds each name under which a wrapped function is
imported elsewhere in the package.  Each call records one span
``[name, layer, start, end, parent, run]`` in a list kept in memory;
`dump` writes them out when the benchmark ends.  Nothing inside the
package is edited, and `uninstall` restores every binding, so traced and
untraced studies can alternate in one process.

Work the tracer itself does after a call (residuals, fill counts) runs
inside a span of layer ``trace`` so that it is charged to no program
layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU

PACKAGE = "brinkhdg"

# the package modules, one layer each; ``cli`` only parses arguments and
# writes two small files, so it is left out
LAYERS = ("mesh", "refelem", "fespace", "forms", "hybrid", "linalg", "verify")

# exact-solution and data callables of a manufactured case
CASE_DATA = ("body_force", "mass_source")
CASE_EXACT = ("velocity", "velocity_gradient", "velocity_laplacian",
              "pressure", "pressure_gradient")

NAME, LAYER, START, END, PARENT, RUN = range(6)


class _CountingLU:
    """Stand-in for a SuperLU object whose solves are traced spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """Collects spans; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.run = None
        self.info = {}        # span index -> dict recorded by a hook
        self.residual_matrix = weakref.WeakKeyDictionary()
        self._stack = []
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, layer, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                self._in_hook(hook, idx, args, out)
            return out

        return traced

    def _in_hook(self, hook, idx, args, out):
        rec = [f"trace.{self.spans[idx][NAME]}", "trace", 0.0, 0.0,
               self._stack[-1] if self._stack else -1, self.run]
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            info = hook(self, args, out)
        finally:
            rec[END] = time.perf_counter()
        if info:
            self.info[idx] = info

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the package's public functions and classes."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn) or (
                                meth.startswith("_") and meth != "__init__"):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._set(obj, meth, self.wrap(fn, name, layer,
                                                       _HOOKS.get(name)))
                elif inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    self._undo += rebind(obj, self.wrap(
                        obj, name, layer, _HOOKS.get(name)))

    def wrap_case(self, case):
        """Trace the data and exact-solution callables of one case object."""
        for attr in CASE_DATA + CASE_EXACT:
            self._set(case, attr, self.wrap(getattr(case, attr),
                                            f"case.{attr}", "case"))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def dump(self, path, runs):
        """Write the spans of the given runs as JSON."""
        rows = [s for s in self.spans if s[RUN] in runs]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "layer", "start", "end", "parent",
                                   "run"], "spans": rows}, fh)


_MISSING = object()


def rebind(old, new):
    """Point every name bound to `old` in the package's modules at `new`.

    Returns the (module, name, old) triples that undo it.
    """
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for alias, val in list(vars(mod).items()):
            if val is old:
                undo.append((mod, alias, old))
                setattr(mod, alias, new)
    return undo


# -- hooks: per-call facts read off the call's arguments and result ---------

def _sparse_factor_init(tracer, args, out):
    fac = args[0]
    mats = [m for m in vars(fac).values() if sp.issparse(m)]
    lus = [(k, v) for k, v in vars(fac).items() if isinstance(v, SuperLU)]
    info = {}
    if mats:
        info.update(n_global=int(mats[0].shape[0]), nnz=int(mats[0].nnz))
    if lus:
        attr, lu = lus[0]
        info["fill_nnz"] = int(lu.L.nnz + lu.U.nnz)
        solve = tracer.wrap(lu.solve, "linalg.SuperLU.solve", "linalg")
        # the proxy is set on the instance, which is dropped after the study
        vars(fac)[attr] = _CountingLU(lu, solve)
        tracer.residual_matrix[fac] = mats[0] if mats else None
    return info


def _sparse_factor_solve(tracer, args, out):
    mat = tracer.residual_matrix.get(args[0])
    b = np.asarray(args[1], dtype=float)
    bnorm = float(np.linalg.norm(b))
    if mat is None or bnorm == 0.0:
        return None
    return {"rel_residual": float(np.linalg.norm(b - mat @ out)) / bnorm}


def _spaces_init(tracer, args, out):
    return {"n_classes": len(getattr(args[0], "class_rep", ()))}


_HOOKS = {
    "linalg.SparseFactor.__init__": _sparse_factor_init,
    "linalg.SparseFactor.solve": _sparse_factor_solve,
    "fespace.Spaces.__init__": _spaces_init,
}


# -- aggregation ---------------------------------------------------------------

class RunView:
    """Durations, self times and tree queries over the spans of one run."""

    def __init__(self, tracer, run):
        spans = tracer.spans
        self.idx = [i for i, s in enumerate(spans) if s[RUN] == run]
        self.spans = spans
        self.info = tracer.info
        self.dur = {i: spans[i][END] - spans[i][START] for i in self.idx}
        self.self_time = dict(self.dur)
        self.n_children = dict.fromkeys(self.idx, 0)
        for i in self.idx:
            p = spans[i][PARENT]
            if p in self.self_time:
                self.self_time[p] -= self.dur[i]
                self.n_children[p] += 1

    def named(self, *names):
        return [i for i in self.idx if self.spans[i][NAME] in names]

    def calls(self, *names):
        return len(self.named(*names))

    def total(self, *names):
        """Time covered by spans of these names, nested ones counted once."""
        total = 0.0
        for i in self.named(*names):
            p = self.spans[i][PARENT]
            while p >= 0 and self.spans[p][NAME] not in names:
                p = self.spans[p][PARENT]
            if p < 0:
                total += self.dur[i]
        return total

    def self_sum(self, *names):
        return sum(self.self_time[i] for i in self.named(*names))

    def layer_self(self, layer):
        return sum(self.self_time[i] for i in self.idx
                   if self.spans[i][LAYER] == layer)

    def info_sum(self, name, key):
        return sum(self.info.get(i, {}).get(key, 0) for i in self.named(name))

    def info_max(self, name, key):
        vals = [self.info[i][key] for i in self.named(name)
                if key in self.info.get(i, {})]
        return max(vals) if vals else 0.0

    def leaves(self, name):
        return sum(1 for i in self.named(name) if self.n_children[i] == 0)

    def top_self(self, count=5):
        by_name = {}
        for i in self.idx:
            if self.spans[i][LAYER] != "trace":
                name = self.spans[i][NAME]
                by_name[name] = by_name.get(name, 0.0) + self.self_time[i]
        return sorted(by_name.items(), key=lambda kv: -kv[1])[:count]

    def refine_steps(self):
        """Extra SuperLU solves per sparse solve: iterative-refinement passes."""
        per_solve = dict.fromkeys(self.named("linalg.SparseFactor.solve"), 0)
        for i in self.named("linalg.SuperLU.solve"):
            p = self.spans[i][PARENT]
            if p in per_solve:
                per_solve[p] += 1
        return sum(max(0, n - 1) for n in per_solve.values())


PROJECTIONS = ("forms.project_grad", "forms.project_pressure",
               "forms.project_velocity_div", "forms.project_facet_tangent")


def layer_metrics(view):
    """Per-layer numbers of one traced study; times in s, counts summed."""
    data = tuple(f"case.{a}" for a in CASE_DATA)
    exact = tuple(f"case.{a}" for a in CASE_EXACT)
    tab_calls = view.calls("fespace.Spaces.tab")
    out = {
        "linalg.factor_s": view.total("linalg.SparseFactor.__init__"),
        "linalg.fill_nnz": view.info_sum("linalg.SparseFactor.__init__", "fill_nnz"),
        "linalg.nnz": view.info_sum("linalg.SparseFactor.__init__", "nnz"),
        "linalg.n_global": view.info_sum("linalg.SparseFactor.__init__", "n_global"),
        "linalg.trisolve_s": view.total("linalg.SparseFactor.solve"),
        "linalg.refine_steps": view.refine_steps(),
        "linalg.rel_residual": view.info_max("linalg.SparseFactor.solve", "rel_residual"),
        "linalg.assemble_s": view.total("linalg.SparseBuilder.finalize"),
        "linalg.add_calls": view.calls("linalg.SparseBuilder.add"),
        "linalg.dense_factors": view.calls("linalg.DenseFactor.__init__"),
        "linalg.dense_factor_s": view.total("linalg.DenseFactor.__init__"),
        "hybrid.solve_hybrid_self_s": view.self_sum("hybrid.solve_hybrid"),
        "hybrid.data_calls": view.calls(*data),
        "hybrid.data_eval_s": view.total(*data),
        "hybrid.local_solvers_s": view.total("hybrid.build_local_solvers"),
        "hybrid.solve_direct_s": view.total("hybrid.solve_direct"),
        "hybrid.compare_fields_s": view.total("hybrid.compare_fields"),
        "forms.postprocess_s": view.total("forms.postprocess_velocity"),
        "forms.postprocess_calls": view.calls("forms.postprocess_velocity"),
        "forms.project_s": view.total(*PROJECTIONS),
        "forms.project_facet_tangent_calls": view.calls("forms.project_facet_tangent"),
        "verify.error_norms_s": view.total("verify.error_norms"),
        "verify.error_norms_self_s": view.self_sum("verify.error_norms"),
        "verify.case_eval_calls": view.calls(*exact),
        "refelem.quadrature_calls": view.calls("refelem.quadrature"),
        "fespace.spaces_s": view.total("fespace.Spaces.__init__"),
        "fespace.n_classes": view.info_sum("fespace.Spaces.__init__", "n_classes"),
        "fespace.tab_s": view.total("fespace.Spaces.tab"),
        "fespace.tab_calls": tab_calls,
        "fespace.tab_hit_ratio": (view.leaves("fespace.Spaces.tab") / tab_calls
                                  if tab_calls else 0.0),
        "mesh.build_s": view.total("mesh.build_structured_mesh", "mesh.Mesh.__init__"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = view.layer_self(layer)
    return out
