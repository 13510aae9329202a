"""Manufactured solutions, error measures, and convergence studies.

The manufactured family on the unit square:

    u = (sin(2 pi x) sin(2 pi y), sin(2 pi x) sin(2 pi y))
    p = sin(m pi x) sin(m pi y) - mean

with parameters (nu, gamma, m).  Data f, g are hand-derived closed
forms; construction validates them against finite differences at random
points and against the algebraic composition of the other callables, so
a sign slip in any derivative cannot survive.

Error measures integrate on the fine rule over blocks of cells of any
geometry classes (`Spaces.cell_blocks`).  They read the exact solution
through `BrinkmanCase.exact_fields`, which returns u, grad u and p from
one evaluation of the sines and cosines, once per fine point: once on
the points of every facet, gathered for both cells of a facet, and once
per block on the volume points.  The discrete fields are formed from the
fine-degree reference tabulation and pushed forward with each cell's
jacobian; only the nodal transforms of the interpolant and the Gram of
the gradient projection are read per class.  The norms of the discrete
errors `err_eu`, `err_el` and the volume part of `err_h1` push nothing
forward: they are the coefficients' quadratic forms with reference Grams
contracted with each cell's metric, as in `forms.element_blocks`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fespace import Spaces, reference_fields
from .forms import (as_gamma_matrix, facet_tangent_moments, grad_coefficients,
                    velocity_div_coefficients)
from .hybrid import compare_fields, solve_direct, solve_hybrid
from .mesh import build_structured_mesh


class BrinkmanCase:
    """One manufactured problem instance; all callables vectorized."""

    def __init__(self, nu, gamma, m, label=None):
        if not 0 < nu < np.inf:
            raise ValueError(f"nu must be finite and positive, not {nu}")
        self.nu = float(nu)
        self.gamma = as_gamma_matrix(gamma)
        self.m = int(m)
        if self.m < 1:
            raise ValueError("pressure frequency m must be >= 1")
        self.label = label or f"nu={nu:g} m={m}"
        # mean of sin(m pi x) sin(m pi y) over the unit square
        self.pressure_mean = ((1.0 - np.cos(self.m * np.pi)) / (self.m * np.pi)) ** 2
        self.max_frequency = np.pi * max(2.0, float(self.m))
        self.gamma_max = float(np.linalg.eigvalsh(self.gamma)[-1])
        self._validate()

    # -- exact fields -----------------------------------------------------
    #
    # Each callable takes points x (n, 2) and computes every sine and
    # cosine it needs once, on both coordinates together.  With m = 2 the
    # pressure's arguments m pi x are the velocity's 2 pi x bit for bit,
    # so the pressure terms reuse the velocity's sines and cosines.

    def exact_fields(self, x):
        """Velocity (n, 2), velocity gradient (n, 2, 2) and pressure (n,) at
        points x (n, 2), from one evaluation of the sines and cosines."""
        tp = 2 * np.pi
        sin2, cos2 = np.sin(tp * x), np.cos(tp * x)
        s = sin2[:, 0] * sin2[:, 1]
        dx = tp * cos2[:, 0] * sin2[:, 1]
        dy = tp * sin2[:, 0] * cos2[:, 1]
        grad = np.empty((len(x), 2, 2))
        grad[:, 0, 0] = dx
        grad[:, 0, 1] = dy
        grad[:, 1, 0] = dx
        grad[:, 1, 1] = dy
        sm = sin2 if self.m == 2 else np.sin(self.m * np.pi * x)
        return (np.stack([s, s], axis=-1), grad,
                sm[:, 0] * sm[:, 1] - self.pressure_mean)

    def velocity(self, x):
        return self.exact_fields(x)[0]

    def velocity_gradient(self, x):
        return self.exact_fields(x)[1]

    def velocity_laplacian(self, x):
        tp = 2 * np.pi
        s = np.sin(tp * x)
        lap = -2 * tp ** 2 * s[:, 0] * s[:, 1]
        return np.stack([lap, lap], axis=-1)

    def pressure(self, x):
        return self.exact_fields(x)[2]

    def pressure_gradient(self, x):
        mp = self.m * np.pi
        s, c = np.sin(mp * x), np.cos(mp * x)
        return np.stack([mp * c[:, 0] * s[:, 1], mp * s[:, 0] * c[:, 1]],
                        axis=-1)

    def body_force(self, x):
        tp = 2 * np.pi
        mp = self.m * np.pi
        sin2 = np.sin(tp * x)
        if self.m == 2:
            sm, cm = sin2, np.cos(tp * x)
        else:
            sm, cm = np.sin(mp * x), np.cos(mp * x)
        s = sin2[:, 0] * sin2[:, 1]
        visc = 8 * np.pi ** 2 * self.nu * s
        u = np.stack([s, s], axis=-1)
        gu = u @ self.gamma.T
        out = np.empty_like(u)
        out[:, 0] = visc + gu[:, 0] + mp * cm[:, 0] * sm[:, 1]
        out[:, 1] = visc + gu[:, 1] + mp * sm[:, 0] * cm[:, 1]
        return out

    def mass_source(self, x):
        # div u = 2 pi (cos 2 pi x sin 2 pi y + sin 2 pi x cos 2 pi y),
        # one sine of the summed angle
        tp = 2 * np.pi
        return tp * np.sin(tp * (x[:, 0] + x[:, 1]))

    # -- derived scalars ---------------------------------------------------

    def solution_norm_bound(self, k):
        """sqrt(nu)*|grad u|_{k+1} + sqrt(gamma_max)*|u|_{k+1}, closed form.

        Every mixed derivative of sin(2 pi x) sin(2 pi y) of order j has
        squared L2 norm (2 pi)^(2j)/4 and there are j+1 of them.
        """
        s = sum((j + 1) * (2 * np.pi) ** (2 * j) for j in range(k + 2))
        norm_u = np.sqrt(s / 2.0)
        norm_l = 2 * np.pi * np.sqrt(s)
        return float(np.sqrt(self.nu) * norm_l + np.sqrt(self.gamma_max) * norm_u)

    # -- construction-time validation ---------------------------------------

    def _validate(self):
        rng = np.random.default_rng(81423)
        x = rng.uniform(0.06, 0.94, size=(100, 2))

        def fd_grad(func, comp=None):
            h = 1e-6
            out = np.empty((x.shape[0], 2))
            for d in range(2):
                xp = x.copy()
                xm = x.copy()
                xp[:, d] += h
                xm[:, d] -= h
                fp, fm = func(xp), func(xm)
                if comp is not None:
                    fp, fm = fp[:, comp], fm[:, comp]
                out[:, d] = (fp - fm) / (2 * h)
            return out

        lex = self.velocity_gradient(x)
        for r in range(2):
            fd = fd_grad(self.velocity, comp=r)
            scale = max(1.0, np.abs(lex[:, r]).max())
            if np.abs(lex[:, r] - fd).max() > 1e-6 * scale:
                raise RuntimeError("velocity_gradient disagrees with finite differences")
        fd = fd_grad(self.pressure)
        scale = max(1.0, np.abs(fd).max())
        if np.abs(self.pressure_gradient(x) - fd).max() > 1e-6 * scale:
            raise RuntimeError("pressure_gradient disagrees with finite differences")

        g = self.mass_source(x)
        tr = lex[:, 0, 0] + lex[:, 1, 1]
        if np.abs(g - tr).max() > 1e-12 * max(1.0, np.abs(g).max()):
            raise RuntimeError("mass_source is not the velocity divergence")

        f = self.body_force(x)
        compose = (-self.nu * self.velocity_laplacian(x)
                   + self.velocity(x) @ self.gamma.T
                   + self.pressure_gradient(x))
        if np.abs(f - compose).max() > 1e-12 * max(1.0, np.abs(f).max()):
            raise RuntimeError("body_force inconsistent with the momentum balance")

        h2 = 1e-5
        lap = np.zeros((x.shape[0], 2))
        for d in range(2):
            xp = x.copy()
            xm = x.copy()
            xp[:, d] += h2
            xm[:, d] -= h2
            lap += (self.velocity(xp) - 2 * self.velocity(x)
                    + self.velocity(xm)) / h2 ** 2
        fd_f = (-self.nu * lap + self.velocity(x) @ self.gamma.T
                + self.pressure_gradient(x))
        if np.abs(f - fd_f).max() > 1e-6 * max(1.0, np.abs(f).max()):
            raise RuntimeError("body_force disagrees with the finite-difference build")

        t = np.linspace(0.0, 1.0, 21)
        zero = np.zeros_like(t)
        for bx in (np.stack([t, zero], -1), np.stack([t, zero + 1], -1),
                   np.stack([zero, t], -1), np.stack([zero + 1, t], -1)):
            if np.abs(self.velocity(bx)).max() > 1e-12:
                raise RuntimeError("velocity does not vanish on the boundary")


def make_case(test_id):
    """The three reference settings: (1,1,2), (1,1,20), (1e-4,1,2)."""
    table = {1: (1.0, 1.0, 2), 2: (1.0, 1.0, 20), 3: (1e-4, 1.0, 2)}
    if test_id not in table:
        raise ValueError("test_id must be 1, 2, or 3")
    nu, gamma, m = table[test_id]
    return BrinkmanCase(nu, gamma, m, label=f"test {test_id}")


@dataclass
class ErrorReport:
    """Error measures of one solve; L2 unless noted."""

    err_l: float        # grad error
    err_u: float
    err_p: float
    err_ustar: float
    err_eu: float       # discrete velocity error |Pi_V u - u^h|
    err_el: float       # discrete grad error |P_G grad u - L^h|
    err_h1: float       # broken H1 norm of (e_u, e_uhat)
    err_dl_facet: float  # (sum nu h_F |delta_L n|^2_F)^(1/2)
    theta: float        # solution-norm bound scale, informational
    gamma_max: float


@dataclass
class _ErrorBlock:
    """Exact-solution data, projected errors and geometry on a block of cells.

    Arrays have a leading cells axis; the facet arrays have the local
    facet next, over the fine points of each facet.
    """

    cells: np.ndarray
    wdet: np.ndarray        # (C, q) fine volume weights
    u: np.ndarray           # (C, q, 2) exact velocity
    grad: np.ndarray        # (C, q, 2, 2) exact velocity gradient
    p: np.ndarray           # (C, q) exact pressure
    proj_u: np.ndarray      # (C, n_v) interpolant Pi_V u
    du: np.ndarray          # (C, n_v) e_u = Pi_V u - u^h
    dl: np.ndarray          # (C, 2, n_g) e_L = P_G grad u - L^h
    facet_dln: np.ndarray   # (C, f, qf, 2) (grad u - P_G grad u) n_out
    facet_gap: np.ndarray   # (C, f, qf) e_u . t - e_uhat
    h: np.ndarray           # (C, f) facet lengths
    facet_w: np.ndarray     # (C, f, qf) fine facet weights
    tangent: np.ndarray     # (C, f, 2)


def _pushed(spaces, cells, coef, basis):
    """Piola-mapped fields of coefficients coef (C, *lead, n) of the
    reference vector basis (n, 2, q) of cells (C,); (C, q, *lead, 2)."""
    return spaces.piola(cells, reference_fields(coef, basis))


def _coef_pairs(coef):
    """Products c_a c_b of coefficients coef (C, *lead, n), summed over
    the lead axes; (C, n * n)."""
    n = coef.shape[-1]
    c = coef.reshape(len(coef), -1, n)
    return (c.swapaxes(1, 2) @ c).reshape(len(c), -1)


def _gram_norm2(metric, gram, pairs):
    """Squared L2 norm, summed over the cells (C,), of the fields whose
    coefficient products are pairs (C, n * n) (`_coef_pairs`): each
    cell's Gram is its metric (C, ...) contracted with the reference Gram
    gram (K, n * n), as in `forms.element_blocks`."""
    return float(np.sum(metric.reshape(len(pairs), -1) * (pairs @ gram.T)))


def _exact_at(case, x):
    """`case.exact_fields` at points x (..., 2): u (..., 2), grad u
    (..., 2, 2) and p (...)."""
    lead = x.shape[:-1]
    u, grad, p = case.exact_fields(x.reshape(-1, 2))
    return (u.reshape(lead + (2,)), grad.reshape(lead + (2, 2)),
            p.reshape(lead))


def _error_blocks(spaces, fields, case):
    """Yield an _ErrorBlock per block of `Spaces.cell_blocks`.

    The exact fields are evaluated once per fine point: on the facets
    once for all facets before the blocks, and gathered per cell side,
    since `Spaces.facet_points` runs a cell's facet points as the
    stored facet runs; in the cells once per block.  The interpolants
    and the tangential moments of u are formed from those values.
    Discrete fields are reference values pushed forward with each
    cell's jacobian.
    """
    mesh = spaces.mesh
    fam = spaces.family
    kk = fam.n_facet
    ref = fam.reference_tab(spaces.fine_degree)
    every = np.arange(mesh.num_facets)
    u_facet, grad_facet, _ = _exact_at(case, spaces.points_on_facets(every))
    # per facet: moments of u . t minus the discrete trace (0 on the boundary)
    dhat = facet_tangent_moments(mesh, every, spaces.k, u_facet,
                                 spaces.fine_degree)
    rank = mesh.interior_index
    inner = rank >= 0
    dhat[inner] -= fields.uhat_t.reshape(-1, kk)[rank[inner]]

    for cells in spaces.cell_blocks():
        x = spaces.vol_points(cells)
        u, grad, p = _exact_at(case, x)
        f = mesh.cell_facets[cells]
        proj_u = velocity_div_coefficients(spaces, cells, u_facet[f], u)
        proj_l = grad_coefficients(spaces, cells, grad)
        du = proj_u - fields.u[cells]
        facet_l = spaces.piola(cells, spaces.facet_fields(cells, proj_l,
                                                          ref.facet_g))
        h = mesh.facet_lengths[f]
        tangent = mesh.facet_tangents[f]
        eut = np.einsum("efqc,efc->efq", spaces.piola(
            cells, spaces.facet_fields(cells, du, ref.facet_v)), tangent)
        outward = mesh.cell_facet_signs[cells, :, None] * mesh.facet_normals[f]
        yield _ErrorBlock(
            cells=cells, wdet=np.outer(spaces.dets[cells], ref.w),
            u=u, grad=grad, p=p, proj_u=proj_u, du=du,
            dl=proj_l - fields.l[cells],
            facet_dln=np.einsum("efqrc,efc->efqr", grad_facet[f] - facet_l,
                                outward),
            facet_gap=eut - dhat[f] @ ref.phi, h=h,
            facet_w=h[..., None] * ref.ws, tangent=tangent)


def error_norms(spaces, fields, case):
    """All error measures for one solution; fine-rule integration.

    case gives nu, gamma and the exact solution through `exact_fields`,
    as a `BrinkmanCase` does.

    `err_eu`, `err_el`, `err_h1` and `err_ustar` are norms of differences
    of fields of the size of u whose gap is 1e-3 to 1e-5 of them at k=3,
    so they carry about 1e-11 relative roundoff: a change of summation
    order anywhere in the solve, with fields equal to 1e-15, moves them
    by that much (6.6e-11 for `err_h1` on 16x16 triangles at k=3).  The
    printed digits of the tables are far above it.
    """
    nu = case.nu
    gamma = as_gamma_matrix(case.gamma)

    el2 = eu2 = ep2 = estar2 = eeu2 = eel2 = eh1 = edl2 = 0.0
    ref = spaces.family.reference_tab(spaces.fine_degree)
    for blk in _error_blocks(spaces, fields, case):
        cells, w = blk.cells, blk.wdet

        lv = _pushed(spaces, cells, fields.l[cells], ref.g)
        el2 += float(np.einsum("eqrc,eq->", (lv - blk.grad) ** 2, w))

        uv = _pushed(spaces, cells, fields.u[cells], ref.v)
        eu2 += float(np.einsum("eqr,eq->", (uv - blk.u) ** 2, w))

        pv = fields.p[cells] @ ref.q_vals
        ep2 += float(np.einsum("eq,eq->", (pv - blk.p) ** 2, w))

        sv = np.einsum("eri,iq->eqr", fields.ustar[cells], ref.post)
        estar2 += float(np.einsum("eqr,eq->", (sv - blk.u) ** 2, w))

        # the discrete errors from reference Grams: with P = J^T J and
        # Q = J^-1 J^-T, |v|^2 takes P / det and |grad v|^2, grad v being
        # J (grad-hat vhat) J^-1 / det, takes P_rs Q_ce / det
        jac, det = spaces.jacobians[cells], spaces.dets[cells, None, None]
        inv = spaces.inverse_jacobians[cells]
        jtj = jac.swapaxes(1, 2) @ jac / det
        du_pairs = _coef_pairs(blk.du)
        eeu2 += _gram_norm2(jtj, ref.gram_v, du_pairs)
        eel2 += _gram_norm2(jtj, ref.gram_g, _coef_pairs(blk.dl))
        inv2 = inv @ inv.swapaxes(1, 2)
        eh1 += _gram_norm2(jtj[:, :, None, :, None] * inv2[:, None, :, None],
                           ref.gram_v_grad, du_pairs)

        fw, h = blk.facet_w, blk.h
        eh1 += float(np.einsum("efq,efq,ef->", blk.facet_gap ** 2, fw, 1.0 / h))
        edl2 += nu * float(np.einsum("efqr,efq,ef->", blk.facet_dln ** 2, fw,
                                     h))

    theta = case.solution_norm_bound(spaces.k) \
        if hasattr(case, "solution_norm_bound") else float("nan")
    gmax = float(np.linalg.eigvalsh(gamma)[-1])
    return ErrorReport(
        err_l=np.sqrt(el2), err_u=np.sqrt(eu2), err_p=np.sqrt(ep2),
        err_ustar=np.sqrt(estar2), err_eu=np.sqrt(eeu2), err_el=np.sqrt(eel2),
        err_h1=np.sqrt(eh1), err_dl_facet=np.sqrt(edl2), theta=theta,
        gamma_max=gmax)


def energy_identity_terms(spaces, fields, case):
    """Both sides of the projected error identity.

    Returns (energy, facet_term, volume_term) with
    energy = nu|e_L|^2 + |e_u|^2_gamma, and the right side
    facet_term = sum <nu (delta_L n) . t, (e_u . t - e_uhat)>  over cell sides,
    volume_term = -(gamma delta_u, e_u).
    The discretization satisfies energy = facet_term + volume_term.
    """
    nu = case.nu
    gamma = as_gamma_matrix(case.gamma)

    energy = facet_term = volume_term = 0.0
    ref = spaces.family.reference_tab(spaces.fine_degree)
    for blk in _error_blocks(spaces, fields, case):
        cells, w = blk.cells, blk.wdet
        elv = _pushed(spaces, cells, blk.dl, ref.g)
        euv = _pushed(spaces, cells, blk.du, ref.v)
        energy += nu * float(np.einsum("eqrc,eq->", elv ** 2, w))
        energy += float(np.einsum("eqr,rs,eqs,eq->", euv, gamma, euv, w))

        delta_u = blk.u - _pushed(spaces, cells, blk.proj_u, ref.v)
        volume_term -= float(np.einsum("eqr,rs,eqs,eq->", delta_u, gamma, euv,
                                       w))

        dlnt = np.einsum("efqr,efr->efq", blk.facet_dln, blk.tangent)
        facet_term += nu * float(np.einsum("efq,efq,efq->", dlnt,
                                           blk.facet_gap, blk.facet_w))
    return energy, facet_term, volume_term


@dataclass
class LevelRow:
    level: int
    n: int
    n_ele: int
    n_global: int
    n_local: int
    report: ErrorReport
    seconds: float
    oracle_discrepancy: float = None


_CSV_COLS = (("err_L", "err_l"), ("err_u", "err_u"), ("err_p", "err_p"),
             ("err_ustar", "err_ustar"), ("err_eu", "err_eu"))


class ConvergenceTable:
    """Per-level errors and pairwise observed orders.

    `finest` holds the (spaces, fields) of the last level solved.
    """

    def __init__(self, label, cell_kind, k):
        self.label = label
        self.cell_kind = cell_kind
        self.k = k
        self.rows = []
        self.finest = None

    def add_row(self, row):
        self.rows.append(row)

    def orders(self, attr):
        """log2 error ratios; None for the first level."""
        vals = [getattr(r.report, attr) for r in self.rows]
        out = [None]
        for prev, cur in zip(vals, vals[1:]):
            if prev > 0 and cur > 0:
                out.append(float(np.log2(prev / cur)))
            else:
                out.append(None)
        return out

    def _cells(self, no_order):
        """The cells of each row; no_order stands for a missing order."""
        ords = {attr: self.orders(attr) for _, attr in _CSV_COLS}
        rows = []
        for i, row in enumerate(self.rows):
            cells = [str(row.level), str(row.n_ele), str(row.n_global),
                     str(row.n_local)]
            for _, attr in _CSV_COLS:
                o = ords[attr][i]
                cells += [f"{getattr(row.report, attr):.6e}",
                          no_order if o is None else f"{o:.2f}"]
            rows.append(cells)
        return rows

    def to_csv(self):
        header = "level,n_ele,n_global,n_local," + ",".join(
            f"{name},ord_{name.split('_', 1)[1]}" for name, _ in _CSV_COLS)
        lines = [header] + [",".join(cells) for cells in self._cells("")]
        return "\n".join(lines) + "\n"

    def to_markdown(self):
        headers = ["level", "n_ele", "n_global", "n_local"]
        for name, _ in _CSV_COLS:
            headers += [name, "ord"]
        rows = self._cells("--")
        widths = [max(len(h), *(len(r[j]) for r in rows)) if rows else len(h)
                  for j, h in enumerate(headers)]
        def fmt(cells):
            return "| " + " | ".join(c.rjust(w) for c, w in zip(cells, widths)) + " |"
        sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
        return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows]) + "\n"


def data_quadrature_degree(case, k, n):
    """Fine-rule degree: resolves oscillatory data on coarse levels.

    The point count per direction grows with the number of data wavelengths
    across one cell so 1D Gauss error (kappa/2)^(2n+1)/(2n+1)! stays far
    below the discretization error.
    """
    h = 1.0 / n
    freq = getattr(case, "max_frequency", 2 * np.pi)
    n_req = max(k + 4, int(np.ceil(freq * h / 4.0)) + 9)
    return max(2 * k + 6, 2 * n_req - 1)


def run_convergence(case, cell_kind, k, levels, base_n=None,
                    check_oracle=False):
    """Solve on a geometric mesh ladder and collect errors.

    Level 1 uses base_n (8 for quads, 4 for triangles, matching ladders
    starting at 64 and 32 cells); each level halves h.  The oracle check
    runs the uncondensed solve on the coarsest level.  A row's seconds
    run from the set-up of its Spaces through its error norms, and leave
    out the oracle.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    base_n = (8 if cell_kind == "quad" else 4) if base_n is None else base_n
    if base_n < 1:
        raise ValueError("base_n must be >= 1")
    table = ConvergenceTable(case.label, cell_kind, k)
    for lev in range(1, levels + 1):
        n = base_n * 2 ** (lev - 1)
        mesh = build_structured_mesh(n, cell_kind)
        t0 = time.perf_counter()
        spaces = Spaces(mesh, k, fine_degree=data_quadrature_degree(case, k, n))
        try:
            fields = solve_hybrid(spaces, case.nu, case.gamma,
                                  case.body_force, case.mass_source)
        except Exception as exc:
            raise RuntimeError(
                f"solve failed at level {lev} ({cell_kind}, n={n}, k={k}): {exc}"
            ) from exc
        report = error_norms(spaces, fields, case)
        seconds = time.perf_counter() - t0
        disc = None
        if check_oracle and lev == 1:
            direct = solve_direct(spaces, case.nu, case.gamma,
                                  case.body_force, case.mass_source)
            diffs = compare_fields(spaces, fields, direct)
            # np.max keeps a NaN gap, which Python's max would drop
            disc = float(np.max(list(diffs.values())))
        table.add_row(LevelRow(
            level=lev, n=n, n_ele=mesh.num_cells, n_global=fields.n_global,
            n_local=fields.n_local, report=report, seconds=seconds,
            oracle_discrepancy=disc))
    table.finest = (spaces, fields)
    return table


def stability_ratio(reports):
    """Broken-H1 to discrete-gradient error ratios; nan when degenerate."""
    out = []
    for rep in reports:
        if rep.err_el < 1e-14:
            out.append(float("nan"))
        else:
            out.append(rep.err_h1 / rep.err_el)
    return out
