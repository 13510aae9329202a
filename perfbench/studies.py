"""Inputs, the timed study and the correctness checks of each workload.

The program is driven only through its public API.  Functions are looked
up on their modules at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import brinkhdg
from brinkhdg import fespace, hybrid, verify

from spans import rebind

ERROR_KEYS = ("err_l", "err_u", "err_p", "err_ustar", "err_eu")
ERROR_RTOL = 1e-8
# the repository's own thresholds (acceptance criteria 6 and 7)
ORACLE_TOL = 1e-9
STRUCTURAL_TOL = 1e-10


def perturbed_triangles(n, share, seed):
    """Diagonal-split n-by-n triangulation with interior vertices moved.

    Each coordinate of each interior vertex moves by a uniform draw from
    [-share*h, share*h]; boundary vertices stay, so the domain is still
    the unit square.  Cells keep the structured counterclockwise order.
    """
    coords = np.arange(n + 1) / n
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    interior = ((vertices > 0.0) & (vertices < 1.0)).all(axis=1)
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-share / n, share / n,
                                      size=(int(interior.sum()), 2))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = (j * (n + 1) + i).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    cells = np.stack([np.column_stack([v00, v10, v11]),
                      np.column_stack([v00, v11, v01])], axis=1)
    return vertices, cells.reshape(-1, 3)


def make_inputs(w, seed):
    return perturbed_triangles(w.base_n, w.perturb, seed) if w.seeded else None


class Yardstick:
    """A fixed computation, timed after every study, that never calls brinkhdg.

    The shared host this benchmark runs on changes its speed by 20-40%
    for tens of seconds at a time, which moves every study of a run
    alike.  The yardstick mixes the three kinds of work a solve does
    (interpreted Python loops, a SuperLU factorization and small dense
    LU factorizations), so a study's time divided by the yardstick time
    taken around it measures the program's cost with most of the host's
    drift cancelled.  No change to brinkhdg changes the yardstick.
    """

    def __init__(self):
        n = 80
        eye = sp.identity(n, format="csc")
        tri = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csc")
        self.laplacian = (sp.kron(eye, tri) + sp.kron(tri, eye)).tocsc()
        self.dense = np.random.default_rng(0).random((40, 40)) + 40.0 * np.eye(40)

    def seconds(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc += i * i % 7
        for _ in range(6):
            spla.splu(self.laplacian)
        for _ in range(600):
            sla.lu_factor(self.dense)
        return time.perf_counter() - t0


class SolveProbe:
    """Times every `solve_hybrid` call and keeps its spaces and fields."""

    def __init__(self, keep):
        self.keep = keep
        self.seconds = 0.0
        self.solves = []
        self._undo = []

    def __enter__(self):
        inner = hybrid.solve_hybrid

        def probe(*args, **kwargs):
            t0 = time.perf_counter()
            out = inner(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            if self.keep:
                self.solves.append((args[0], out))
            return out

        self._undo = rebind(inner, probe)
        return self

    def __exit__(self, *exc):
        for mod, alias, old in reversed(self._undo):
            setattr(mod, alias, old)
        self._undo = []


def _row(test, level, n_ele, n_global, report):
    return [test, level, n_ele, n_global] + [float(getattr(report, key))
                                             for key in ERROR_KEYS]


def run_study(w, cases, inputs):
    """One timed study; returns (error rows, oracle gap or None).

    A row is [test, level, n_ele, n_global, err_l, err_u, err_p,
    err_ustar, err_eu].
    """
    rows = []
    if not w.oracle:
        for test, case in zip(w.tests, cases):
            table = brinkhdg.run_convergence(case, w.kind, w.k, w.levels,
                                             base_n=w.base_n)
            rows += [_row(test, r.level, r.n_ele, r.n_global, r.report)
                     for r in table.rows]
        return rows, None
    vertices, cells = inputs
    case = cases[0]
    mesh = brinkhdg.Mesh(vertices, cells, w.kind)
    spaces = brinkhdg.Spaces(mesh, w.k, fine_degree=verify.data_quadrature_degree(
        case, w.k, w.base_n))
    fields = brinkhdg.solve_hybrid(spaces, case.nu, case.gamma,
                                   case.body_force, case.mass_source)
    report = verify.error_norms(spaces, fields, case)
    direct = brinkhdg.solve_direct(spaces, case.nu, case.gamma,
                                   case.body_force, case.mass_source)
    gap = max(hybrid.compare_fields(spaces, fields, direct).values())
    return [_row(w.tests[0], 1, mesh.num_cells, fields.n_global, report)], float(gap)


def check_rows(rows, expected):
    """Problems per row: counts must match exactly, errors to ERROR_RTOL.

    With no expected rows, errors must be finite and positive.
    """
    problems = []
    for i, row in enumerate(rows):
        errs = row[4:]
        if not all(math.isfinite(e) and e > 0 for e in errs):
            problems.append((i, f"row {row[:2]}: non-finite or zero error {errs}"))
            continue
        if expected is None:
            continue
        if i >= len(expected) or row[:4] != expected[i][:4]:
            problems.append((i, f"row {row[:4]} differs from the recorded "
                                f"{expected[i][:4] if i < len(expected) else None}"))
            continue
        for key, got, want in zip(ERROR_KEYS, errs, expected[i][4:]):
            if abs(got - want) > ERROR_RTOL * abs(want):
                problems.append((i, f"row {row[:2]} {key} {got!r} differs "
                                    f"from the recorded {want!r}"))
    if expected is not None and len(rows) != len(expected):
        problems.append((len(rows), f"{len(rows)} rows, {len(expected)} recorded"))
    return problems


def check_solve(spaces, fields, case):
    """The repository's structural thresholds for one hybrid solve."""
    interior, boundary = fespace.normal_trace_jumps(spaces, fields.u)
    values = {
        "normal_trace_jump": max(interior, boundary),
        "mass_balance_residual": hybrid.mass_balance_residual(
            spaces, fields, case.mass_source),
        "pressure_integral": abs(hybrid.pressure_integral(spaces, fields)),
    }
    problems = [f"{name} {val:.3e} exceeds {STRUCTURAL_TOL:.0e}"
                for name, val in values.items() if not val <= STRUCTURAL_TOL]
    return values, problems
