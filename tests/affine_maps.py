"""Per-cell references that tests check the package against: affine maps,
facet lookups, bases evaluated at pulled-back points, and the element
blocks and nodal dof matrices integrated from those pushed-forward bases."""

from dataclasses import dataclass

import numpy as np

from brinkhdg.forms import as_gamma_matrix
from brinkhdg.mesh import (QUAD, TRIANGLE, Mesh, build_structured_mesh,
                           cell_geometry)
from brinkhdg.refelem import quadrature


@dataclass(frozen=True)
class AffineMap:
    """Affine cell map x = offset + jacobian @ x_ref with constant jacobian."""

    offset: np.ndarray
    jacobian: np.ndarray
    det: float
    inverse_jacobian: np.ndarray

    def apply(self, ref_points):
        return self.offset + np.asarray(ref_points, float) @ self.jacobian.T

    def pull_back(self, points):
        return (np.asarray(points, float) - self.offset) @ self.inverse_jacobian.T


def affine_map(mesh, c):
    """Affine map of cell c; raises ValueError on degenerate/non-affine cells."""
    offset, jac, det, inv = cell_geometry(mesh, [c])
    return AffineMap(offset=offset[0], jacobian=jac[0], det=float(det[0]),
                     inverse_jacobian=inv[0])


def local_facet(mesh, c, f):
    """Position of facet f in the facet list of cell c."""
    hits = np.nonzero(mesh.cell_facets[c] == f)[0]
    if hits.size == 0:
        raise ValueError(f"facet {f} is not a facet of cell {c}")
    return int(hits[0])


def holed_quads(n, holes):
    """n-by-n quads of the unit square without the cells (i, j) in holes;
    vertices that no cell uses are dropped."""
    mesh = build_structured_mesh(n, QUAD)
    drop = np.zeros(mesh.num_cells, dtype=bool)
    for i, j in holes:
        drop[j * n + i] = True
    used, cells = np.unique(mesh.cells[~drop], return_inverse=True)
    return Mesh(mesh.vertices[used], cells.reshape(-1, 4), QUAD)


def checkerboard_triangles(n):
    """n-by-n triangles of the unit square in a checkerboard: a square
    whose column and row index have an odd sum is split along the
    diagonal from its lower-right to its upper-left corner, the others
    as in `build_structured_mesh`."""
    mesh = build_structured_mesh(n, TRIANGLE)
    # (v00, v10, v11) and (v00, v11, v01) of each square
    cells = mesh.cells.reshape(-1, 2, 3).copy()
    v00, v10, v11 = cells[:, 0].T
    v01 = cells[:, 1, 2]
    j, i = np.divmod(np.arange(n * n), n)
    other = (i + j) % 2 == 1
    cells[other] = np.stack([np.column_stack([v00, v10, v01]),
                             np.column_stack([v10, v11, v01])],
                            axis=1)[other]
    return Mesh(mesh.vertices, cells.reshape(-1, 3), TRIANGLE)


def strip_quads(n):
    """One row of n quads, each 1/n wide and 1 high: a mesh of the unit
    square with no interior vertex."""
    x = np.arange(n + 1) / n
    vertices = np.concatenate([np.column_stack([x, np.zeros(n + 1)]),
                               np.column_stack([x, np.ones(n + 1)])])
    i = np.arange(n)
    return Mesh(vertices, np.column_stack([i, i + 1, i + n + 2, i + n + 1]),
                QUAD)


def pull_back_tab(spaces, c, degree):
    """Tabulation of cell c with every basis evaluated directly at the
    pulled-back physical points of the rules of one degree: a dict of
    arrays for the cell and a list of such dicts for its local facets,
    whose values run along the stored facet."""
    fam = spaces.family
    am = affine_map(spaces.mesh, c)
    mesh = spaces.mesh

    def piola(vhat):
        return np.einsum("rc,ncq->nrq", am.jacobian, vhat) / am.det

    vol = quadrature(fam.ref_cell.name, degree)
    pts = vol.points
    cell = {
        "jacobian": am.jacobian,
        "inverse_jacobian": am.inverse_jacobian,
        "ref_points": pts,
        "wdet": vol.weights * am.det,
        "g": piola(fam.g_row.tabulate(pts)),
        "g_div": fam.g_row.tabulate_div(pts) / am.det,
        "v": piola(fam.v.tabulate(pts)),
        "v_grad": np.einsum("ab,nbcq,cd->nadq", am.jacobian,
                            fam.v.tabulate_grad(pts),
                            am.inverse_jacobian) / am.det,
        "v_div": fam.v.tabulate_div(pts) / am.det,
        "q_vals": fam.q.tabulate(pts),
        "post": fam.post.tabulate(pts),
        "post_grad": np.einsum("ba,nbq->naq", am.inverse_jacobian,
                               fam.post.tabulate_grad(pts)),
        "int_div": fam.div_span @ fam.g_row.tabulate_div(pts),
    }
    seg = quadrature("segment", degree)
    s = seg.points[:, 0]
    facets = []
    for lf in range(fam.n_cell_facets):
        f = mesh.cell_facets[c, lf]
        p0, p1 = mesh.vertices[mesh.facet_vertices[f]]
        xref = am.pull_back(p0 + s[:, None] * (p1 - p0))
        facets.append({
            "facet_g": piola(fam.g_row.tabulate(xref)),
            "facet_v": piola(fam.v.tabulate(xref)),
            "facet_q": fam.q.tabulate(xref),
            "phi": fam.seg.tabulate(s),
            "w": seg.weights * mesh.facet_lengths[f],
            "s": s,
            "sign": int(mesh.cell_facet_signs[c, lf]),
            "h": mesh.facet_lengths[f],
            "normal": mesh.facet_normals[f],
            "tangent": mesh.facet_tangents[f],
        })
    return cell, facets


def pushed_blocks(spaces, c, nu, gamma):
    """Element blocks of cell c (the fields of `forms.ElementBlocks`,
    without the cell axis) integrated from the bases of `pull_back_tab` at
    the assembly degree."""
    gamma = as_gamma_matrix(gamma)
    cell, facets = pull_back_tab(spaces, c, spaces.assembly_degree)
    w, g, v = cell["wdet"], cell["g"], cell["v"]
    pg = cell["post_grad"]
    out = {
        "nu": nu, "gamma": gamma,
        "mg": np.einsum("acq,bcq,q->ab", g, g, w),
        "divg": np.einsum("mrq,bq,q->rmb", v, cell["g_div"], w),
        "grad": np.einsum("acq,mrcq,q->ram", g, cell["v_grad"], w),
        "mgam": np.einsum("mrq,rt,ntq,q->mn", v, gamma, v, w),
        "bdiv": np.einsum("iq,mq,q->mi", cell["q_vals"], cell["v_div"], w),
        "qint": cell["q_vals"] @ w,
        "vint": np.einsum("mrq,q->mr", v, w),
        "kpp": np.einsum("icq,jcq,q->ij", pg, pg, w),
        "pint": cell["post"] @ w,
        "gp_cross": np.einsum("acq,jcq,q->aj", g, pg, w),
        "tg": 0.0, "tq": 0.0,
    }
    facet_parts = {name: [] for name in ("sign", "h", "normal", "tangent",
                                         "that", "tlam", "tgt")}
    for fac in facets:
        outward = fac["sign"] * fac["normal"]
        gn = np.einsum("acq,c->aq", fac["facet_g"], outward) * fac["w"]
        vn = np.einsum("mcq,c->mq", fac["facet_v"], outward) * fac["w"]
        vt = np.einsum("mcq,c->mq", fac["facet_v"], fac["tangent"])
        out["tg"] = out["tg"] + np.einsum("aq,mrq->ram", gn, fac["facet_v"])
        out["tq"] = out["tq"] + np.einsum("iq,mq->mi", fac["facet_q"], vn)
        for name in ("sign", "h", "normal", "tangent"):
            facet_parts[name].append(fac[name])
        facet_parts["that"].append(np.einsum("jq,aq->ja", fac["phi"], gn))
        facet_parts["tlam"].append(np.einsum("jq,mq->mj", fac["phi"], vn))
        facet_parts["tgt"].append(np.einsum("aq,mq->am", gn, vt))
    out.update({name: np.array(parts) for name, parts in facet_parts.items()})
    return out


def pushed_nodal_dof_matrix(spaces, c):
    """Velocity dof matrix of cell c (see `fespace.nodal_dof_matrices`)
    integrated from the bases of `pull_back_tab` at the assembly degree."""
    cell, facets = pull_back_tab(spaces, c, spaces.assembly_degree)
    rows = [np.einsum("jq,mcq,c,q->jm", fac["phi"], fac["facet_v"],
                      fac["normal"], fac["w"]) for fac in facets]
    n_v = cell["v"].shape[0]
    rows.append(np.einsum("mrq,iq,q->rim", cell["v"], cell["int_div"],
                          cell["wdet"]).reshape(-1, n_v))
    return np.concatenate(rows)
