"""The public names other code drives must keep resolving."""

import importlib
import inspect

import brinkhdg

# names perfbench/ calls beyond the package's __all__
DRIVEN = {
    "verify": ("error_norms", "data_quadrature_degree"),
    "hybrid": ("compare_fields", "mass_balance_residual", "pressure_integral"),
    "fespace": ("normal_trace_jumps",),
}

# every span perfbench/ reads per-layer metrics from by name (spans.py,
# and worker.py for fespace.element_family); it wraps only plain
# functions defined in the layer module (methods: in the class body), and
# a span name that no longer resolves reads as 0, not as an error
SPANS = ("fespace.Spaces.__init__", "fespace.Spaces.tab",
         "fespace.element_family",
         "forms.postprocess_velocity", "forms.project_grad",
         "forms.project_pressure", "forms.project_velocity_div",
         "forms.project_facet_tangent",
         "hybrid.build_local_solvers", "hybrid.compare_fields",
         "hybrid.solve_direct", "hybrid.solve_hybrid",
         "linalg.SparseBuilder.add", "linalg.SparseBuilder.finalize",
         "linalg.DenseFactor.__init__", "linalg.SparseFactor.__init__",
         "linalg.SparseFactor.solve",
         "mesh.Mesh.__init__", "mesh.build_structured_mesh",
         "refelem.quadrature", "verify.error_norms")


def span_target(name):
    """The function the tracer wraps under this span name, or None."""
    layer, *path = name.split(".")
    obj = importlib.import_module(f"brinkhdg.{layer}")
    for attr in path:
        obj = getattr(obj, "__dict__", {}).get(attr)
    if inspect.isfunction(obj) and obj.__module__ == f"brinkhdg.{layer}":
        return obj
    return None


def test_public_names_resolve():
    missing = [name for name in brinkhdg.__all__
               if not hasattr(brinkhdg, name)]
    for module, names in DRIVEN.items():
        mod = importlib.import_module(f"brinkhdg.{module}")
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    missing += [name for name in SPANS if span_target(name) is None]
    assert not missing, missing
