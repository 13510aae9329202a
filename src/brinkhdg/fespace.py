"""Physical-element spaces and the global numbering of the facet unknowns.

Vector bases (gradient rows and velocities) map with the contravariant
Piola transform, which preserves facet normal-trace integrals; scalar
bases (pressures, facet functions) map by composition with the inverse
cell map.

Reference bases are tabulated once per quadrature degree on the
reference cell (`ElementFamily.reference_tab`), and nothing is tabulated
per cell.  Two kinds of consumer read them:

* At the assembly degree, the element blocks and nodal dof matrices are
  reference integrals (`ReferenceTab`) contracted with a small factor of
  each cell's jacobian (`forms.element_blocks`).  That degree is 2k+2,
  and it is exact: `cell_geometry` refuses every cell that is not
  affine, so the jacobian is constant on each cell and every reference
  integrand is a polynomial of degree at most 2k+2.  The solvers form
  them once per geometry class: cells sharing jacobian, the relative
  positions of their facets and the facet orientation signs form one
  class; on the structured meshes built here this collapses thousands of
  cells to a handful, and on perturbed meshes every cell is its own
  class.  Consumers gather a cell's entry with `Spaces.cell_class`.
* At the fine degree (data moments, projections of exact fields, error
  norms and trace checks), fields are pushed forward, not bases: a
  field's reference values come from its coefficients and the reference
  tabulation, and the per-cell jacobian maps them (`Spaces.piola`).

`Spaces.cell_blocks` hands out the cells in blocks of at most
`BLOCK_CELLS`, in class order but whatever their classes, so per-cell
quantities are formed a block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DenseFactor, SingularMatrixError
from .mesh import QUAD, TRIANGLE, cell_geometry
from .refelem import (REFERENCE_CELLS, SIMPLEX, SQUARE, SegmentBasis,
                      divergence_span_coeffs, make_basis, quadrature)

_REF_OF_KIND = {QUAD: SQUARE, TRIANGLE: SIMPLEX}

# most cells per block handed out by Spaces.cell_blocks; bounds the
# (cells, points, ...) arrays of the batched evaluations
BLOCK_CELLS = 128


class ElementFamily:
    """Reference bases bundle for one (cell kind, degree) pair."""

    def __init__(self, cell_kind, k):
        if k < 0:
            raise ValueError("degree must be nonnegative")
        self.cell_kind = cell_kind
        self.k = k
        refname = _REF_OF_KIND[cell_kind]
        self.ref_cell = REFERENCE_CELLS[refname]
        if cell_kind == QUAD:
            self.g_row = make_basis("BDM", k)
            self.v = make_basis("BDFM", k)
        else:
            self.g_row = make_basis("Pvec", k, SIMPLEX)
            self.v = make_basis("RT", k)
        self.q = make_basis("P", k, refname)
        self.post = make_basis("P", k + 1, refname)
        self.seg = SegmentBasis(k)
        self.div_span = divergence_span_coeffs(self.g_row)

        self.n_g = self.g_row.num_funcs
        self.n_v = self.v.num_funcs
        self.n_q = self.q.num_funcs
        self.n_post = self.post.num_funcs
        self.n_facet = k + 1
        self.n_cell_facets = len(self.ref_cell.facets)
        self.n_int_scalar = self.div_span.shape[0]
        self.n_v_interior = 2 * self.n_int_scalar
        if self.n_v != self.n_cell_facets * self.n_facet + self.n_v_interior:
            raise ValueError(
                "velocity dofs inconsistent: facet moments + interior moments "
                f"give {self.n_cell_facets * self.n_facet + self.n_v_interior}, "
                f"basis has {self.n_v}")
        self._reference = {}

    def reference_tab(self, degree):
        """Reference-cell values and integrals (`ReferenceTab`) at the rules
        of one degree, made on first use."""
        ref = self._reference.get(degree)
        if ref is None:
            ref = self._reference[degree] = _tabulate_reference(self, degree)
        return ref


@dataclass(frozen=True)
class ReferenceTab:
    """Basis values and integrals on the reference cell, shared by every cell.

    Values are taken at the points of the volume and segment rules of one
    quadrature degree.  Facet arrays are indexed [local facet, direction]:
    direction 0 runs the reference facet from its first vertex to its
    second, direction 1 the other way.

    The integrals are the reference tensors of the element blocks and the
    nodal dof matrices: on an affine cell each of those is a factor of the
    cell's jacobian times one of them (`forms.element_blocks`).  With w
    the volume weights, ws the segment weights and hn = hhat nhat_out the
    outward normal of a reference facet scaled by its length:

    * gram_g, gram_v, gram_post: [(c, d), (a, b)] = sum w f_ac f_bd of the
      gradient rows, the velocities and the postprocessing gradients;
      gram_v_grad [(r, c, s, e), (m, n)] = sum w (d vhat_mr / d xhat_c)
      (d vhat_ns / d xhat_e) of the velocity gradients;
    * divg [j, (m, b)] = sum w vhat_mj div ghat_b, grad [j, (a, m)] = sum w
      ghat_a . grad-hat vhat_mj, vint [m, j] = sum w vhat_mj, int_mom
      [j, (i, m)] = sum w vhat_mj int_div_i;
    * qint, pint: the integrals of the pressure and postprocessing bases;
    * bdiv [m, i] = sum w qhat_i div vhat_m, gp_cross [a, j] = sum w ghat_a
      . grad-hat post_j, tq [m, i] = sum over facets of sum ws qhat_i vhat_m
      . hn;
    * per facet and direction, that [j, a] = sum ws phi_j ghat_a . hn,
      tlam [m, j] = sum ws phi_j vhat_m . hn and tg [c, (a, m)] = sum ws
      (ghat_a . hn) vhat_mc.

    All arrays are read-only.
    """

    g: np.ndarray           # (n_g, 2, q)
    v: np.ndarray           # (n_v, 2, q)
    q_vals: np.ndarray      # (n_q, q)
    post: np.ndarray        # (n_post, q)
    int_div: np.ndarray     # (n_int_scalar, q)
    phi: np.ndarray         # (k+1, qf) facet Legendre values
    facet_g: np.ndarray     # (nfc, 2, n_g, 2, qf)
    facet_v: np.ndarray     # (nfc, 2, n_v, 2, qf)
    gram_g: np.ndarray      # (4, n_g * n_g)
    gram_v: np.ndarray      # (4, n_v * n_v)
    gram_post: np.ndarray   # (4, n_post * n_post)
    gram_v_grad: np.ndarray  # (16, n_v * n_v)
    divg: np.ndarray        # (2, n_v * n_g)
    grad: np.ndarray        # (2, n_g * n_v)
    vint: np.ndarray        # (n_v, 2)
    int_mom: np.ndarray     # (2, n_int_scalar * n_v)
    qint: np.ndarray        # (n_q,)
    pint: np.ndarray        # (n_post,)
    bdiv: np.ndarray        # (n_v, n_q)
    gp_cross: np.ndarray    # (n_g, n_post)
    tq: np.ndarray          # (n_v, n_q)
    that: np.ndarray        # (nfc, 2, k+1, n_g)
    tlam: np.ndarray        # (nfc, 2, n_v, k+1)
    tg: np.ndarray          # (nfc, 2, 2, n_g * n_v)
    w: np.ndarray           # (q,) volume weights
    ws: np.ndarray          # (qf,) segment weights


def _tabulate_reference(fam, degree):
    vol = quadrature(fam.ref_cell.name, degree)
    pts, w = vol.points, vol.weights
    seg = quadrature("segment", degree)
    s, ws = seg.points[:, 0], seg.weights
    verts = fam.ref_cell.vertices
    ends = np.array([[(verts[a], verts[b]), (verts[b], verts[a])]
                     for a, b in fam.ref_cell.facets])   # (nfc, 2, 2 ends, 2)
    p0, p1 = ends[:, :, None, 0], ends[:, :, None, 1]
    fpts = p0 + s[:, None] * (p1 - p0)                  # (nfc, 2, qf, 2)
    edge = ends[:, 0, 1] - ends[:, 0, 0]
    hn = np.stack([edge[:, 1], -edge[:, 0]], axis=-1)   # (nfc, 2)

    def on_facets(basis):
        vals = basis.tabulate(fpts.reshape(-1, 2))
        vals = vals.reshape(vals.shape[:-1] + fpts.shape[:-1])
        return np.moveaxis(vals, (-3, -2), (0, 1))

    g, v = fam.g_row.tabulate(pts), fam.v.tabulate(pts)
    g_div = fam.g_row.tabulate_div(pts)
    v_grad = fam.v.tabulate_grad(pts)
    q_vals, post = fam.q.tabulate(pts), fam.post.tabulate(pts)
    post_grad = fam.post.tabulate_grad(pts)
    int_div = fam.div_span @ g_div
    phi = fam.seg.tabulate(s)
    facet_g, facet_v = on_facets(fam.g_row), on_facets(fam.v)
    gw, vw = g * w, v * w
    gn = np.einsum("fdacq,fc->fdaq", facet_g, hn) * ws
    vn = np.einsum("fdmcq,fc->fdmq", facet_v, hn) * ws
    ref = ReferenceTab(
        g=g, v=v, q_vals=q_vals, post=post, int_div=int_div,
        phi=phi, facet_g=facet_g, facet_v=facet_v,
        gram_g=np.einsum("acq,bdq->cdab", gw, g).reshape(4, -1),
        gram_v=np.einsum("mcq,ndq->cdmn", vw, v).reshape(4, -1),
        gram_post=np.einsum("icq,jdq->cdij", post_grad * w,
                            post_grad).reshape(4, -1),
        gram_v_grad=np.einsum("mrcq,nseq->rcsemn", v_grad * w,
                              v_grad).reshape(16, -1),
        divg=np.einsum("mjq,bq->jmb", vw, g_div).reshape(2, -1),
        grad=np.einsum("akq,mjkq->jam", gw, v_grad).reshape(2, -1),
        vint=vw.sum(axis=-1),
        int_mom=np.einsum("mjq,iq->jim", vw, int_div).reshape(2, -1),
        qint=q_vals @ w, pint=post @ w,
        bdiv=fam.v.tabulate_div(pts) * w @ q_vals.T,
        gp_cross=np.einsum("acq,jcq->aj", gw, post_grad),
        tq=np.einsum("fiq,fmq->mi", on_facets(fam.q)[:, 0], vn[:, 0]),
        that=np.einsum("jq,fdaq->fdja", phi, gn),
        tlam=np.einsum("jq,fdmq->fdmj", phi, vn),
        tg=np.einsum("fdaq,fdmcq->fdcam", gn, facet_v).reshape(
            gn.shape[:2] + (2, -1)), w=w, ws=ws)
    for arr in vars(ref).values():
        arr.flags.writeable = False
    return ref


def factor_classes(mats, cells, what, factor=DenseFactor, **options):
    """The factor (`DenseFactor`, or `CholeskyFactor`) of per-class
    matrices, with its options.

    cells[i] is a cell of the class of matrix i; a singular matrix
    raises SingularMatrixError naming that cell.
    """
    try:
        return factor(mats, **options)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"{what} of cell {cells[exc.index]}: {exc}",
                                  index=exc.index) from exc


def nodal_dof_matrices(spaces, cells):
    """Velocity dof matrices B, (C, n_v, n_v), of cells (C,).

    B[beta, m] = functional beta on basis m.  Rows: facet normal moments
    against the facet Legendre basis (global facet normal), then interior
    moments of each component against the orthonormalized divergence
    span of the gradient rows.  The facet rows are the reference moments
    `ReferenceTab.tlam` in the direction of the stored facet times its
    sign, since the global normal is the outward one times the sign; the
    interior rows are the jacobian times the reference moments.
    """
    ref = spaces.tab()
    n, n_v = len(cells), spaces.family.n_v
    back = spaces._facet_directions(cells)
    sign = spaces.mesh.cell_facet_signs[cells, :, None, None]
    b = (sign * ref.tlam[np.arange(back.shape[1]), back]).swapaxes(2, 3)
    mom = spaces.jacobians[cells] @ ref.int_mom
    return np.concatenate([b.reshape(n, -1, n_v), mom.reshape(n, -1, n_v)],
                          axis=1)


def nodal_transforms(spaces, cells):
    """T of cells (C,), (C, n_v, n_v): field = sum_m (T @ alpha)_m V_m for
    nodal coefficients alpha."""
    b = nodal_dof_matrices(spaces, cells)
    factor = factor_classes(b, cells, "nodal dof matrix")
    return factor.solve(np.broadcast_to(np.eye(b.shape[-1]), b.shape))


_FAMILY_CACHE = {}


def element_family(cell_kind, k):
    key = (cell_kind, k)
    if key not in _FAMILY_CACHE:
        _FAMILY_CACHE[key] = ElementFamily(cell_kind, k)
    return _FAMILY_CACHE[key]


class Spaces:
    """Mapped-element data for one (mesh, degree) pair.

    Provides the cell geometry, the geometry classes, the reference
    tabulation at the assembly degree (`tab`), the nodal (facet-moment /
    interior-moment) velocity transforms of the classes, the numbering of
    the facet unknowns, and the per-cell points and push-forward that the
    fine-degree evaluations use.

    `facet_dofs` (nc, f * (k+1)), read-only, numbers the k+1 modes of each
    local facet of each cell: rank * (k+1) + j on the interior facet of
    rank `mesh.interior_index`, -1 on a boundary facet.  The tangential
    traces and the normal velocity moments, which both cells of a facet
    share, use this one numbering, so each global block of them has
    len(mesh.interior_facets) * (k+1) unknowns.
    """

    def __init__(self, mesh, k, fine_degree=None):
        self.mesh = mesh
        self.k = k
        self.family = element_family(mesh.cell_kind, k)
        self.assembly_degree = 2 * k + 2
        self.fine_degree = max(2 * k + 6, fine_degree or 0)

        self.offsets, self.jacobians, self.dets, self.inverse_jacobians = (
            cell_geometry(mesh))
        for arr in (self.offsets, self.jacobians, self.dets,
                    self.inverse_jacobians):
            arr.flags.writeable = False
        # a class shares the jacobian, the facet signs and the facet
        # endpoints relative to the cell origin; classes are numbered in
        # order of first appearance
        nc = mesh.num_cells
        ends = mesh.vertices[mesh.facet_vertices[mesh.cell_facets]]
        keys = np.concatenate([
            np.round(self.jacobians, 12).reshape(nc, -1),
            mesh.cell_facet_signs,
            np.round(ends - self.offsets[:, None, None], 12).reshape(nc, -1)],
            axis=1)
        _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.cell_class = rank[inverse.ravel()]
        self.class_rep = first[order].tolist()
        self._class_order = np.argsort(self.cell_class, kind="stable")
        kk = k + 1
        ranks = mesh.interior_index[mesh.cell_facets][..., None]
        self.facet_dofs = np.where(ranks >= 0, ranks * kk + np.arange(kk),
                                   -1).reshape(nc, -1)
        self.facet_dofs.flags.writeable = False
        self._nodal = None

    # -- lookups --------------------------------------------------------

    def cell_blocks(self):
        """Index arrays of at most BLOCK_CELLS cells that cover every cell
        once: the cells in class order, cut every BLOCK_CELLS cells
        whatever their classes."""
        order = self._class_order
        for start in range(0, len(order), BLOCK_CELLS):
            yield order[start:start + BLOCK_CELLS]

    def tab(self):
        """Reference values and integrals (`ReferenceTab`) at the assembly
        degree."""
        return self.family.reference_tab(self.assembly_degree)

    def _facet_directions(self, cells):
        """back[e, lf] = 1 where the stored facet of local facet lf of
        cells[e] runs against the reference facet lf, else 0."""
        ref_facets = np.array(self.family.ref_cell.facets)
        loops = self.mesh.cells[cells]
        return (loops[..., ref_facets[:, 0]]
                > loops[..., ref_facets[:, 1]]).astype(int)

    # -- per-cell points and push-forward -----------------------------------

    def vol_points(self, c, degree=None):
        """Points (q, 2) of the volume rule of one degree (default: the
        fine degree) on cell c, or (C, q, 2) for an index array of cells."""
        rule = quadrature(self.family.ref_cell.name,
                          self.fine_degree if degree is None else degree)
        return (self.offsets[c][..., None, :]
                + rule.points @ np.swapaxes(self.jacobians[c], -1, -2))

    def facet_points(self, c, degree=None):
        """Points (f, qf, 2) of the segment rule of one degree (default:
        the fine degree) on every local facet of cell c, run from the
        stored facet's first vertex to its second; (C, f, qf, 2) for an
        index array of cells.  They are `points_on_facets` of the cell's
        facets, bit for bit."""
        return self.points_on_facets(self.mesh.cell_facets[c], degree)

    def points_on_facets(self, facets, degree=None):
        """Points (..., qf, 2) of the segment rule of one degree (default:
        the fine degree) on facets (...), each run from its first vertex
        to its second."""
        s = quadrature("segment", self.fine_degree if degree is None
                       else degree).points[:, 0]
        ends = self.mesh.vertices[self.mesh.facet_vertices[facets]]
        p0, p1 = ends[..., :1, :], ends[..., 1:, :]
        return p0 + s[:, None] * (p1 - p0)

    def facet_fields(self, cells, coef, ref_facet):
        """Reference fields of coefficients coef (C, *lead, n) on every
        local facet of cells (C,); (C, f, qf, *lead, *value).

        ref_facet (nfc, 2, n, *value, qf) holds reference facet values
        indexed [local facet, direction]; each facet's fields run in the
        direction of the stored facet.  Both directions come from one
        product, and each cell picks its own.
        """
        nfc, _, n = ref_facet.shape[:3]
        both = coef.reshape(-1, n) @ np.moveaxis(ref_facet, 2, 0).reshape(n, -1)
        both = both.reshape((len(cells), -1) + ref_facet.shape[:2]
                            + ref_facet.shape[3:])
        # advanced indices split by a slice come first: (C, f, L, *value, qf)
        picked = both[np.arange(len(cells))[:, None], :, np.arange(nfc),
                      self._facet_directions(cells)]
        picked = np.moveaxis(picked, -1, 2)
        return picked.reshape(picked.shape[:3] + coef.shape[1:-1]
                              + ref_facet.shape[3:-1])

    def piola(self, cells, vhat):
        """Contravariant Piola push-forward J vhat / det of reference
        vectors vhat (C, ..., 2), one cell of cells (C,) per leading
        entry; the vector components are the last axis."""
        jac_t = np.swapaxes(self.jacobians[cells], 1, 2)
        jac_t /= self.dets[cells, None, None]
        return (vhat.reshape(len(jac_t), -1, 2) @ jac_t).reshape(vhat.shape)

    # -- nodal velocity transform ----------------------------------------

    def class_nodal_transforms(self):
        """Nodal transforms of every class, (n_cls, n_v, n_v); see
        `nodal_transforms`."""
        if self._nodal is None:
            self._nodal = nodal_transforms(self, self.class_rep)
            self._nodal.flags.writeable = False
        return self._nodal


def reference_fields(coef, basis):
    """Fields sum_m coef[e, ..., m] basis[m, ..., q] at the points of the
    reference values basis (n, *value, q), for coefficients coef
    (C, *lead, n); (C, q, *lead, *value), the points next to the cells."""
    n = basis.shape[0]
    out = coef.reshape(-1, n) @ basis.reshape(n, -1)
    return np.moveaxis(out.reshape(coef.shape[:-1] + basis.shape[1:]), -1, 1)


def normal_trace_jumps(spaces, u_modal):
    """Facet-normal continuity of a broken velocity field.

    Returns (max interior facet L2 jump of u.n, max boundary facet L2 norm
    of u.n) on the fine rule.  A divergence-conforming field with zero
    normal trace on the boundary gives both at roundoff level.
    """
    mesh = spaces.mesh
    ref = spaces.family.reference_tab(spaces.fine_degree)
    # u.n against the stored facet normal at the facet's points, seen
    # from the owner (side 0) and from the neighbor (side 1)
    vn = np.zeros((mesh.num_facets, 2, ref.ws.size))
    for cells in spaces.cell_blocks():
        f = mesh.cell_facets[cells]
        side = (mesh.cell_facet_signs[cells] < 0).astype(int)
        uf = spaces.piola(cells, spaces.facet_fields(cells, u_modal[cells],
                                                     ref.facet_v))
        vn[f, side] = np.einsum("efqc,efc->efq", uf, mesh.facet_normals[f])
    w = ref.ws * mesh.facet_lengths[:, None]
    jumps = np.sqrt(np.sum(w * (vn[:, 0] - vn[:, 1]) ** 2, axis=1))
    owner = np.sqrt(np.sum(w * vn[:, 0] ** 2, axis=1))
    return (float(jumps[mesh.interior_facets].max(initial=0.0)),
            float(owner[mesh.boundary_facets].max(initial=0.0)))
