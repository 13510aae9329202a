"""Physical-element spaces and global degree-of-freedom maps.

Vector bases (gradient rows and velocities) map with the contravariant
Piola transform, which preserves facet normal-trace integrals; scalar
bases (pressures, facet functions) map by composition with the inverse
cell map.

Tabulations are cached per geometry class: cells sharing jacobian, the
relative positions of their facets and the facet orientation signs reuse
the same arrays.  On the structured meshes built here this collapses
thousands of cells to a handful of classes.  `Spaces.class_blocks`
hands out the cells of each class in blocks, and the point and
tabulation lookups accept such an index array in place of one cell, so
per-cell quantities can be formed a block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import QUAD, TRIANGLE, affine_map
from .refelem import (REFERENCE_CELLS, SIMPLEX, SQUARE, SegmentBasis,
                      divergence_span_coeffs, make_basis, quadrature)

_REF_OF_KIND = {QUAD: SQUARE, TRIANGLE: SIMPLEX}

# most cells per block handed out by Spaces.class_blocks; bounds the
# (cells, points, ...) arrays of the batched evaluations
BLOCK_CELLS = 128


@dataclass
class MappedBasis:
    """Tabulated physical-element basis data at mapped points."""

    values: np.ndarray
    grads: np.ndarray
    divs: np.ndarray
    points: np.ndarray


def piola_tabulate(amap, basis, ref_points):
    """Contravariant Piola tabulation of a vector basis.

    values[n, i, q] = (J v_ref)_i / det, grads[n, i, j, q] the physical
    jacobian of function n, divs[n, q] = div_ref / det.
    """
    if not basis.is_vector:
        raise ValueError("piola_tabulate expects a vector basis")
    jac, inv, det = amap.jacobian, amap.inverse_jacobian, amap.det
    vhat = basis.tabulate(ref_points)
    values = np.einsum("rc,ncq->nrq", jac, vhat) / det
    divs = basis.tabulate_div(ref_points) / det
    ghat = basis.tabulate_grad(ref_points)
    grads = np.einsum("ab,nbcq,cd->nadq", jac, ghat, inv) / det
    return MappedBasis(values, grads, divs, amap.apply(ref_points))


def compose_tabulate(amap, basis, ref_points):
    """Tabulation of a scalar basis mapped by composition with the cell map."""
    if basis.is_vector:
        raise ValueError("compose_tabulate expects a scalar basis")
    values = basis.tabulate(ref_points)
    ghat = basis.tabulate_grad(ref_points)
    grads = np.einsum("ba,nbq->naq", amap.inverse_jacobian, ghat)
    return MappedBasis(values, grads, None, amap.apply(ref_points))


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


@dataclass
class FacetTab:
    """Per-local-facet tabulation for one geometry class."""

    sign: int
    h: float
    normal: np.ndarray      # global facet normal (owner outward)
    outward: np.ndarray     # outward for this cell = sign * normal
    tangent: np.ndarray
    rel_p0: np.ndarray      # facet endpoints relative to the cell origin
    rel_p1: np.ndarray
    s: np.ndarray           # segment rule points in [0, 1]
    w: np.ndarray           # segment weights * facet length
    phi: np.ndarray         # (k+1, q) facet Legendre values
    g: np.ndarray           # (n_g, 2, q) Piola gradient-row values
    v: np.ndarray           # (n_v, 2, q) Piola velocity values
    q: np.ndarray           # (n_q, q) pressure values


@dataclass
class CellTab:
    """Volume and facet tabulations for one geometry class."""

    degree: int
    jacobian: np.ndarray
    inverse_jacobian: np.ndarray
    det: float
    ref_points: np.ndarray
    wdet: np.ndarray
    g: np.ndarray           # (n_g, 2, q)
    g_div: np.ndarray       # (n_g, q)
    v: np.ndarray           # (n_v, 2, q)
    v_grad: np.ndarray      # (n_v, 2, 2, q)
    v_div: np.ndarray       # (n_v, q)
    q_vals: np.ndarray      # (n_q, q)
    post: np.ndarray        # (n_post, q)
    post_grad: np.ndarray   # (n_post, 2, q)
    int_div: np.ndarray     # (n_int_scalar, q) interior projection tests
    facets: list


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
        cd = np.full((nc, fam.n_v), -1, dtype=int)
        facet_block = nif * kk
        for c in range(nc):
            for lf in range(fam.n_cell_facets):
                f = mesh.cell_facets[c, lf]
                rank = mesh.interior_index[f]
                if rank >= 0:
                    cd[c, lf * kk:(lf + 1) * kk] = rank * kk + np.arange(kk)
            base = facet_block + c * nint
            cd[c, fam.n_cell_facets * kk:] = base + np.arange(nint)
        return DofMap(tag, k, facet_block + nc * nint, cell_dofs=cd)
    raise ValueError(f"unknown space tag: {tag!r}")


class Spaces:
    """Mapped-element data for one (mesh, degree) pair.

    Provides per-cell tabulations cached by geometry class, affine maps,
    the nodal (facet-moment / interior-moment) velocity transform, and the
    dof maps of all discrete spaces.
    """

    def __init__(self, mesh, k, assembly_degree=None, fine_degree=None):
        self.mesh = mesh
        self.k = k
        self.family = element_family(mesh.cell_kind, k)
        base_asm = 2 * k + 2
        self.assembly_degree = max(base_asm, assembly_degree or 0)
        self.fine_degree = max(2 * k + 6, self.assembly_degree, fine_degree or 0)

        self._amaps = [affine_map(mesh, c) for c in range(mesh.num_cells)]
        keys = {}
        self.cell_class = np.empty(mesh.num_cells, dtype=int)
        self.class_rep = []
        for c in range(mesh.num_cells):
            key = self._geometry_key(c)
            idx = keys.get(key)
            if idx is None:
                idx = len(self.class_rep)
                keys[key] = idx
                self.class_rep.append(c)
            self.cell_class[c] = idx
        order = np.argsort(self.cell_class, kind="stable")
        counts = np.bincount(self.cell_class, minlength=len(self.class_rep))
        self.class_cells = np.split(order, np.cumsum(counts)[:-1])
        self._offsets = np.array([am.offset for am in self._amaps])
        self._tabs = {}
        self._nodal = {}
        self._dofmaps = {}

    # -- lookups --------------------------------------------------------

    def amap(self, c):
        return self._amaps[c]

    def class_blocks(self):
        """Index arrays of at most BLOCK_CELLS cells, each of one class."""
        for cells in self.class_cells:
            for start in range(0, len(cells), BLOCK_CELLS):
                yield cells[start:start + BLOCK_CELLS]

    def _class_of(self, c):
        """Geometry class of cell c, or of an index array of cells of one class."""
        cls = self.cell_class[c]
        if np.ndim(cls):
            if cls.size == 0 or (cls != cls[0]).any():
                raise ValueError("expected a nonempty set of cells of one "
                                 "geometry class")
            cls = cls[0]
        return int(cls)

    def dofmap(self, tag):
        if tag not in self._dofmaps:
            self._dofmaps[tag] = build_dofmap(self.mesh, tag, self.k)
        return self._dofmaps[tag]

    def _geometry_key(self, c):
        am = self._amaps[c]
        off = am.offset
        mesh = self.mesh
        parts = [np.round(am.jacobian, 12).tobytes()]
        for lf in range(self.family.n_cell_facets):
            f = mesh.cell_facets[c, lf]
            sgn = int(mesh.cell_facet_signs[c, lf])
            v0, v1 = mesh.facet_vertices[f]
            parts.append(bytes([sgn + 2]))
            parts.append(np.round(mesh.vertices[v0] - off, 12).tobytes())
            parts.append(np.round(mesh.vertices[v1] - off, 12).tobytes())
        return b"".join(parts)

    # -- tabulation -------------------------------------------------------

    def tab(self, c, fine=False):
        degree = self.fine_degree if fine else self.assembly_degree
        key = (self._class_of(c), degree)
        if key not in self._tabs:
            self._tabs[key] = self._build_tab(self.class_rep[key[0]], degree)
        return self._tabs[key]

    def _build_tab(self, rep, degree):
        fam = self.family
        am = self._amaps[rep]
        mesh = self.mesh
        vol = quadrature(fam.ref_cell.name, degree)
        wdet = vol.weights * am.det
        gmb = piola_tabulate(am, fam.g_row, vol.points)
        vmb = piola_tabulate(am, fam.v, vol.points)
        qmb = compose_tabulate(am, fam.q, vol.points)
        pmb = compose_tabulate(am, fam.post, vol.points)
        if fam.n_int_scalar:
            int_div = fam.div_span @ fam.g_row.tabulate_div(vol.points)
        else:
            int_div = np.zeros((0, vol.points.shape[0]))

        seg = quadrature("segment", degree)
        s = seg.points[:, 0]
        facets = []
        for lf in range(fam.n_cell_facets):
            f = mesh.cell_facets[rep, lf]
            sgn = int(mesh.cell_facet_signs[rep, lf])
            v0, v1 = mesh.facet_vertices[f]
            p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
            h = float(mesh.facet_lengths[f])
            x = p0 + s[:, None] * (p1 - p0)
            xref = am.pull_back(x)
            gvals = np.einsum("rc,ncq->nrq", am.jacobian,
                              fam.g_row.tabulate(xref)) / am.det
            vvals = np.einsum("rc,ncq->nrq", am.jacobian,
                              fam.v.tabulate(xref)) / am.det
            qvals = fam.q.tabulate(xref)
            normal = mesh.facet_normals[f].copy()
            facets.append(FacetTab(
                sign=sgn, h=h, normal=normal, outward=sgn * normal,
                tangent=mesh.facet_tangents[f].copy(),
                rel_p0=p0 - am.offset, rel_p1=p1 - am.offset,
                s=s.copy(), w=seg.weights * h, phi=fam.seg.tabulate(s),
                g=gvals, v=vvals, q=qvals))
        return CellTab(
            degree=degree, jacobian=am.jacobian,
            inverse_jacobian=am.inverse_jacobian, det=am.det,
            ref_points=vol.points, wdet=wdet,
            g=gmb.values, g_div=gmb.divs, v=vmb.values, v_grad=vmb.grads,
            v_div=vmb.divs, q_vals=qmb.values, post=pmb.values,
            post_grad=pmb.grads, int_div=int_div, facets=facets)

    def vol_points(self, c, tab):
        """Volume points (q, 2) of cell c, or (C, q, 2) for an index array."""
        return self._offsets[c][..., None, :] + tab.ref_points @ tab.jacobian.T

    def facet_points(self, c, tab, lf):
        """Points (q, 2) on local facet lf of cell c, or (C, q, 2)."""
        ft = tab.facets[lf]
        off = self._offsets[c][..., None, :]
        p0 = off + ft.rel_p0
        p1 = off + ft.rel_p1
        return p0 + ft.s[:, None] * (p1 - p0)

    def local_facet(self, c, f):
        row = self.mesh.cell_facets[c]
        hits = np.nonzero(row == f)[0]
        if hits.size == 0:
            raise ValueError(f"facet {f} is not a facet of cell {c}")
        return int(hits[0])

    # -- nodal velocity transform ----------------------------------------

    def nodal_dof_matrix(self, c):
        """Velocity dof matrix B: B[beta, m] = functional beta on basis m.

        Rows: facet normal moments against the facet Legendre basis (global
        facet normal), then interior moments of each component against the
        orthonormalized divergence span of the gradient rows.
        """
        fam = self.family
        tab = self.tab(c)
        kk = fam.n_facet
        b = np.zeros((fam.n_v, fam.n_v))
        for lf, ft in enumerate(tab.facets):
            vn = np.einsum("mcq,c->mq", ft.v, ft.normal)
            b[lf * kk:(lf + 1) * kk] = np.einsum("jq,mq,q->jm", ft.phi, vn, ft.w)
        base = fam.n_cell_facets * kk
        if fam.n_int_scalar:
            mom = np.einsum("mrq,iq,q->rim", tab.v, tab.int_div, tab.wdet)
            b[base:] = mom.reshape(fam.n_v_interior, fam.n_v)
        return b

    def nodal_transform(self, c):
        """T with field = sum_m (T @ alpha)_m V_m for nodal coefficients alpha."""
        key = self._class_of(c)
        if key not in self._nodal:
            b = self.nodal_dof_matrix(self.class_rep[key])
            self._nodal[key] = np.linalg.solve(b, np.eye(b.shape[0]))
        return self._nodal[key]


def normal_trace_jumps(spaces, u_modal, fine=True):
    """Facet-normal continuity of a broken velocity field.

    Returns (max interior facet L2 jump of u.n, max boundary facet L2 norm
    of u.n).  Fields in V_div0 should give both at roundoff level.
    """
    mesh = spaces.mesh
    int_max = 0.0
    bnd_max = 0.0
    for f in range(mesh.num_facets):
        own, nbr = mesh.facet_cells[f]
        tab = spaces.tab(own, fine=fine)
        lf = spaces.local_facet(own, f)
        ft = tab.facets[lf]
        vn_own = np.einsum("m,mcq,c->q", u_modal[own], ft.v, ft.normal)
        if nbr == -1:
            bnd_max = max(bnd_max, float(np.sqrt(np.sum(ft.w * vn_own ** 2))))
            continue
        tab_n = spaces.tab(nbr, fine=fine)
        lfn = spaces.local_facet(nbr, f)
        ftn = tab_n.facets[lfn]
        vn_nbr = np.einsum("m,mcq,c->q", u_modal[nbr], ftn.v, ftn.normal)
        jump = vn_own - vn_nbr
        int_max = max(int_max, float(np.sqrt(np.sum(ft.w * jump ** 2))))
    return int_max, bnd_max
