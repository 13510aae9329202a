"""Physical-element spaces and global degree-of-freedom maps.

Vector bases (gradient rows and velocities) map with the contravariant
Piola transform, which preserves facet normal-trace integrals; scalar
bases (pressures, facet functions) map by composition with the inverse
cell map.

Reference bases are tabulated once per quadrature degree on the
reference cell (`ElementFamily.reference_tab`); a geometry class only
pushes those values forward with its jacobian.  Cells sharing jacobian,
the relative positions of their facets and the facet orientation signs
form one geometry class.  On the structured meshes built here this
collapses thousands of cells to a handful of classes; on perturbed
meshes every cell is its own class.  Per-class quantities (the
tabulation, `ClassTabs`, and from it the element blocks, local solves
and nodal transforms) are stacked along a leading class axis and formed
for all classes at once.  `Spaces.tab` is the one tabulation format:
consumers index its stack by class.  `Spaces.class_blocks` hands out the
cells of each class in blocks, so per-cell quantities can be formed a
block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DenseFactor, SingularMatrixError
from .mesh import QUAD, TRIANGLE, cell_geometry
from .refelem import (REFERENCE_CELLS, SIMPLEX, SQUARE, SegmentBasis,
                      divergence_span_coeffs, make_basis, quadrature)

_REF_OF_KIND = {QUAD: SQUARE, TRIANGLE: SIMPLEX}

# most cells per block handed out by Spaces.class_blocks; bounds the
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
        """Reference-cell values at the rules of one degree, made on first use."""
        ref = self._reference.get(degree)
        if ref is None:
            ref = self._reference[degree] = _tabulate_reference(self, degree)
        return ref


@dataclass(frozen=True)
class ReferenceTab:
    """Basis values on the reference cell, shared by every geometry class.

    Values are taken at the points of the volume and segment rules of one
    quadrature degree.  Facet arrays are indexed [local facet, direction]:
    direction 0 runs the reference facet from its first vertex to its
    second, direction 1 the other way.  All arrays are read-only.
    """

    g: np.ndarray           # (n_g, 2, q)
    g_div: np.ndarray       # (n_g, q)
    v: np.ndarray           # (n_v, 2, q)
    v_grad: np.ndarray      # (n_v, 2, 2, q)
    v_div: np.ndarray       # (n_v, q)
    q_vals: np.ndarray      # (n_q, q)
    post: np.ndarray        # (n_post, q)
    post_grad: np.ndarray   # (n_post, 2, q)
    int_div: np.ndarray     # (n_int_scalar, q)
    phi: np.ndarray         # (k+1, qf) facet Legendre values
    facet_g: np.ndarray     # (nfc, 2, n_g, 2, qf)
    facet_v: np.ndarray     # (nfc, 2, n_v, 2, qf)
    facet_q: np.ndarray     # (nfc, 2, n_q, qf)


def _tabulate_reference(fam, degree):
    pts = quadrature(fam.ref_cell.name, degree).points
    s = quadrature("segment", degree).points[:, 0]
    verts = fam.ref_cell.vertices
    ends = np.array([[(verts[a], verts[b]), (verts[b], verts[a])]
                     for a, b in fam.ref_cell.facets])   # (nfc, 2, 2 ends, 2)
    p0, p1 = ends[:, :, None, 0], ends[:, :, None, 1]
    fpts = p0 + s[:, None] * (p1 - p0)                  # (nfc, 2, qf, 2)

    def on_facets(basis):
        vals = basis.tabulate(fpts.reshape(-1, 2))
        vals = vals.reshape(vals.shape[:-1] + fpts.shape[:-1])
        return np.moveaxis(vals, (-3, -2), (0, 1))

    g_div = fam.g_row.tabulate_div(pts)
    ref = ReferenceTab(
        g=fam.g_row.tabulate(pts), g_div=g_div,
        v=fam.v.tabulate(pts), v_grad=fam.v.tabulate_grad(pts),
        v_div=fam.v.tabulate_div(pts), q_vals=fam.q.tabulate(pts),
        post=fam.post.tabulate(pts), post_grad=fam.post.tabulate_grad(pts),
        int_div=fam.div_span @ g_div, phi=fam.seg.tabulate(s),
        facet_g=on_facets(fam.g_row), facet_v=on_facets(fam.v),
        facet_q=on_facets(fam.q))
    for arr in vars(ref).values():
        arr.flags.writeable = False
    return ref


@dataclass(frozen=True)
class ClassTabs:
    """Tabulations of a stack of geometry classes at one quadrature degree.

    Arrays that depend on the geometry carry a leading class axis (S),
    and facet arrays the local facet (f) next; the values of the
    reference rules shared by every class (ref_points, q_vals, post,
    int_div, s, phi) carry neither.  `cells` holds the cell each class
    was tabulated from.  All arrays are read-only.
    """

    cells: np.ndarray       # (S,)
    degree: int
    ref_points: np.ndarray  # (q, 2)
    jacobian: np.ndarray    # (S, 2, 2)
    inverse_jacobian: np.ndarray
    det: np.ndarray         # (S,)
    wdet: np.ndarray        # (S, q)
    g: np.ndarray           # (S, n_g, 2, q)
    g_div: np.ndarray       # (S, n_g, q)
    v: np.ndarray           # (S, n_v, 2, q)
    v_grad: np.ndarray      # (S, n_v, 2, 2, q)
    v_div: np.ndarray       # (S, n_v, q)
    q_vals: np.ndarray      # (n_q, q)
    post: np.ndarray        # (n_post, q)
    post_grad: np.ndarray   # (S, n_post, 2, q)
    int_div: np.ndarray     # (n_int_scalar, q)
    sign: np.ndarray        # (S, f)
    h: np.ndarray           # (S, f)
    normal: np.ndarray      # (S, f, 2)
    outward: np.ndarray     # (S, f, 2)
    tangent: np.ndarray     # (S, f, 2)
    rel_p0: np.ndarray      # (S, f, 2)
    rel_p1: np.ndarray      # (S, f, 2)
    s: np.ndarray           # (qf,)
    w: np.ndarray           # (S, f, qf)
    phi: np.ndarray         # (k+1, qf)
    facet_g: np.ndarray     # (S, f, n_g, 2, qf)
    facet_v: np.ndarray     # (S, f, n_v, 2, qf)
    facet_q: np.ndarray     # (S, f, n_q, qf)


def factor_classes(mats, cells, what):
    """DenseFactor of a stack of per-class matrices.

    cells[i] is a cell of the class of matrix i; a singular matrix
    raises SingularMatrixError naming that cell.
    """
    try:
        return DenseFactor(mats)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"{what} of cell {cells[exc.index]}: {exc}",
                                  index=exc.index) from exc


def nodal_dof_matrices(tabs):
    """Velocity dof matrices B, (S, n_v, n_v), of a stack of classes.

    B[beta, m] = functional beta on basis m.  Rows: facet normal moments
    against the facet Legendre basis (global facet normal), then interior
    moments of each component against the orthonormalized divergence
    span of the gradient rows.
    """
    n_cls, n_v = tabs.v.shape[:2]
    vn = np.einsum("sfmcq,sfc->sfmq", tabs.facet_v, tabs.normal)
    b = np.einsum("jq,sfmq,sfq->sfjm", tabs.phi, vn, tabs.w)
    b = b.reshape(n_cls, -1, n_v)
    if tabs.int_div.shape[0]:
        mom = np.einsum("smrq,iq,sq->srim", tabs.v, tabs.int_div, tabs.wdet)
        b = np.concatenate([b, mom.reshape(n_cls, -1, n_v)], axis=1)
    return b


def nodal_transforms(tabs):
    """T per class, (S, n_v, n_v): field = sum_m (T @ alpha)_m V_m for
    nodal coefficients alpha."""
    b = nodal_dof_matrices(tabs)
    factor = factor_classes(b, tabs.cells, "nodal dof matrix")
    return factor.solve(np.broadcast_to(np.eye(b.shape[-1]), b.shape))


@dataclass
class DofMap:
    """Global numbering for one discrete space."""

    tag: str
    k: int
    total: int
    cell_dofs: np.ndarray = None
    facet_dofs: np.ndarray = None


_FAMILY_CACHE = {}


def element_family(cell_kind, k):
    key = (cell_kind, k)
    if key not in _FAMILY_CACHE:
        _FAMILY_CACHE[key] = ElementFamily(cell_kind, k)
    return _FAMILY_CACHE[key]


def build_dofmap(mesh, tag, k):
    """Dof map for a space tag.

    Tags: Mt0 (tangential facet traces) and V_div0 (divergence-conforming
    velocities).  Both carry facet dofs on interior facets only; boundary
    entries are -1.
    """
    fam = element_family(mesh.cell_kind, k)
    nc, nf = mesh.num_cells, mesh.num_facets
    kk = k + 1
    nif = len(mesh.interior_facets)

    if tag == "Mt0":
        fd = np.full((nf, kk), -1, dtype=int)
        ranks = mesh.interior_index
        mask = ranks >= 0
        fd[mask] = ranks[mask, None] * kk + np.arange(kk)
        return DofMap(tag, k, nif * kk, facet_dofs=fd)
    if tag == "V_div0":
        nint = fam.n_v_interior
        facet_block = nif * kk
        ranks = mesh.interior_index[mesh.cell_facets][..., None]
        facet_part = np.where(ranks >= 0, ranks * kk + np.arange(kk), -1)
        interior_part = (facet_block + np.arange(nc)[:, None] * nint
                         + np.arange(nint))
        cd = np.hstack([facet_part.reshape(nc, -1), interior_part])
        return DofMap(tag, k, facet_block + nc * nint, cell_dofs=cd)
    raise ValueError(f"unknown space tag: {tag!r}")


class Spaces:
    """Mapped-element data for one (mesh, degree) pair.

    Provides the cell geometry, the stacked tabulation of all geometry
    classes (`tab`), the nodal (facet-moment / interior-moment) velocity
    transforms, and the dof maps of all discrete spaces.
    """

    def __init__(self, mesh, k, assembly_degree=None, fine_degree=None):
        self.mesh = mesh
        self.k = k
        self.family = element_family(mesh.cell_kind, k)
        base_asm = 2 * k + 2
        self.assembly_degree = max(base_asm, assembly_degree or 0)
        self.fine_degree = max(2 * k + 6, self.assembly_degree, fine_degree or 0)

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
        cells = np.argsort(self.cell_class, kind="stable")
        counts = np.bincount(self.cell_class, minlength=len(self.class_rep))
        self.class_cells = np.split(cells, np.cumsum(counts)[:-1])
        self._stacks = {}
        self._nodal = None
        self._dofmaps = {}

    # -- lookups --------------------------------------------------------

    def class_blocks(self):
        """(class, cells) pairs; cells holds at most BLOCK_CELLS cells of
        that class, and the blocks cover every cell once."""
        for cls, cells in enumerate(self.class_cells):
            for start in range(0, len(cells), BLOCK_CELLS):
                yield cls, cells[start:start + BLOCK_CELLS]

    def dofmap(self, tag):
        if tag not in self._dofmaps:
            self._dofmaps[tag] = build_dofmap(self.mesh, tag, self.k)
        return self._dofmaps[tag]

    # -- tabulation -------------------------------------------------------

    def tab(self, *, fine=False):
        """Stacked tabulation (`ClassTabs`) of every class at the fine or
        the assembly degree, in class order, made on first use."""
        degree = self.fine_degree if fine else self.assembly_degree
        if degree not in self._stacks:
            self._stacks[degree] = self.tabulate(self.class_rep, fine)
        return self._stacks[degree]

    def tabulate(self, cells, fine=False):
        """ClassTabs of the geometry of each given cell.

        The reference values are pushed forward with one array operation
        per array over the stacked jacobians: vector bases by the
        contravariant Piola transform, scalar bases by composition.  On
        each local facet the reference values are taken in the direction
        of the stored facet, which runs from its lower-numbered vertex to
        the higher one.
        """
        fam = self.family
        degree = self.fine_degree if fine else self.assembly_degree
        ref = fam.reference_tab(degree)
        vol = quadrature(fam.ref_cell.name, degree)
        seg = quadrature("segment", degree)
        mesh = self.mesh
        cells = np.array(cells, dtype=int)
        jac, inv = self.jacobians[cells], self.inverse_jacobians[cells]
        det = self.dets[cells]

        def piola(jac_b, vhat):
            """jac_b @ vhat / det, with jac_b the jacobians shaped to
            broadcast against the reference values vhat (..., 2, q)."""
            out = jac_b @ vhat
            out /= det.reshape((-1,) + (1,) * (out.ndim - 1))
            return out

        v_grad = np.einsum("sab,nbcq,scd->snadq", jac, ref.v_grad, inv,
                           optimize=True)
        v_grad /= det[:, None, None, None, None]
        # back[s, lf] = 1 where the stored facet runs against the
        # reference facet lf
        ref_facets = np.array(fam.ref_cell.facets)
        loops = mesh.cells[cells]
        back = (loops[:, ref_facets[:, 0]]
                > loops[:, ref_facets[:, 1]]).astype(int)
        lf = np.arange(len(ref_facets))
        f = mesh.cell_facets[cells]
        sign = mesh.cell_facet_signs[cells].astype(int)
        h = mesh.facet_lengths[f]
        normal = mesh.facet_normals[f]
        rel = (mesh.vertices[mesh.facet_vertices[f]]
               - self.offsets[cells, None, None])
        tabs = ClassTabs(
            cells=cells, degree=degree, ref_points=vol.points,
            jacobian=jac, inverse_jacobian=inv, det=det,
            wdet=det[:, None] * vol.weights,
            g=piola(jac[:, None], ref.g), g_div=ref.g_div / det[:, None, None],
            v=piola(jac[:, None], ref.v), v_grad=v_grad,
            v_div=ref.v_div / det[:, None, None],
            q_vals=ref.q_vals, post=ref.post,
            post_grad=np.einsum("sba,nbq->snaq", inv, ref.post_grad),
            int_div=ref.int_div,
            sign=sign, h=h, normal=normal, outward=sign[..., None] * normal,
            tangent=mesh.facet_tangents[f],
            rel_p0=rel[:, :, 0], rel_p1=rel[:, :, 1],
            s=seg.points[:, 0], w=h[..., None] * seg.weights, phi=ref.phi,
            facet_g=piola(jac[:, None, None], ref.facet_g[lf, back]),
            facet_v=piola(jac[:, None, None], ref.facet_v[lf, back]),
            facet_q=ref.facet_q[lf, back])
        for arr in vars(tabs).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return tabs

    def vol_points(self, tabs, cls, c):
        """Volume points (q, 2) of cell c of class cls of the stack tabs,
        or (C, q, 2) for an index array of cells of that class."""
        return (self.offsets[c][..., None, :]
                + tabs.ref_points @ tabs.jacobian[cls].T)

    def facet_points(self, tabs, cls, c):
        """Points (f, qf, 2) on every local facet of cell c of class cls of
        the stack tabs, or (C, f, qf, 2) for an index array."""
        off = self.offsets[c][..., None, None, :]
        p0 = off + tabs.rel_p0[cls][:, None]
        p1 = off + tabs.rel_p1[cls][:, None]
        return p0 + tabs.s[:, None] * (p1 - p0)

    def local_facet(self, c, f):
        row = self.mesh.cell_facets[c]
        hits = np.nonzero(row == f)[0]
        if hits.size == 0:
            raise ValueError(f"facet {f} is not a facet of cell {c}")
        return int(hits[0])

    # -- nodal velocity transform ----------------------------------------

    def class_nodal_transforms(self):
        """Nodal transforms of every class, (n_cls, n_v, n_v); see
        `nodal_transforms`."""
        if self._nodal is None:
            self._nodal = nodal_transforms(self.tab())
            self._nodal.flags.writeable = False
        return self._nodal


def normal_trace_jumps(spaces, u_modal):
    """Facet-normal continuity of a broken velocity field.

    Returns (max interior facet L2 jump of u.n, max boundary facet L2 norm
    of u.n) on the fine rule.  Fields in V_div0 should give both at
    roundoff level.
    """
    mesh = spaces.mesh
    tabs = spaces.tab(fine=True)
    weights = quadrature("segment", tabs.degree).weights
    # u.n against the stored facet normal at the facet's points, seen
    # from the owner (side 0) and from the neighbor (side 1)
    vn = np.zeros((mesh.num_facets, 2, weights.size))
    for cls, cells in spaces.class_blocks():
        side = (mesh.cell_facet_signs[cells] < 0).astype(int)
        vn[mesh.cell_facets[cells], side] = np.einsum(
            "em,fmcq,fc->efq", u_modal[cells], tabs.facet_v[cls],
            tabs.normal[cls])
    w = weights * mesh.facet_lengths[:, None]
    jumps = np.sqrt(np.sum(w * (vn[:, 0] - vn[:, 1]) ** 2, axis=1))
    owner = np.sqrt(np.sum(w * vn[:, 0] ** 2, axis=1))
    return (float(jumps[mesh.interior_facets].max(initial=0.0)),
            float(owner[mesh.boundary_facets].max(initial=0.0)))
