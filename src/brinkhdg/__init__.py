"""Divergence-conforming hybridized solver for the Brinkman equations.

The package solves the gradient-velocity-pressure form of the Brinkman
problem on the unit square with a facet-based static condensation and a
cellwise velocity postprocessing.  Entry points:

* :func:`brinkhdg.hybrid.solve_hybrid` -- condensed solve on one mesh.
* :func:`brinkhdg.hybrid.solve_direct` -- uncondensed reference solve.
* :func:`brinkhdg.verify.run_convergence` -- mesh-ladder error study.
* ``brinkhdg solve`` -- command-line driver around the above.
"""

from .fespace import Spaces, element_family
from .hybrid import solve_direct, solve_hybrid
from .mesh import QUAD, TRIANGLE, Mesh, build_structured_mesh
from .verify import BrinkmanCase, ConvergenceTable, make_case, run_convergence

__version__ = "0.1.0"

__all__ = [
    "BrinkmanCase",
    "ConvergenceTable",
    "Mesh",
    "QUAD",
    "Spaces",
    "TRIANGLE",
    "build_structured_mesh",
    "element_family",
    "make_case",
    "run_convergence",
    "solve_direct",
    "solve_hybrid",
    "__version__",
]
