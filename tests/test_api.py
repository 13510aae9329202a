"""The public names other code drives must keep resolving."""

import importlib

import brinkhdg

# names perfbench/ calls beyond the package's __all__
DRIVEN = {
    "verify": ("error_norms", "data_quadrature_degree"),
    "hybrid": ("compare_fields", "mass_balance_residual", "pressure_integral"),
    "fespace": ("normal_trace_jumps",),
}


def test_public_names_resolve():
    missing = [name for name in brinkhdg.__all__
               if not hasattr(brinkhdg, name)]
    for module, names in DRIVEN.items():
        mod = importlib.import_module(f"brinkhdg.{module}")
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert not missing, missing
