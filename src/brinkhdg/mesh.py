"""Conforming meshes of the unit square with facet connectivity.

Cells are affine images of a reference element (unit triangle or unit
square).  Facets are stored once, with a canonical vertex order (lower
vertex index first) and a unit normal oriented from the lower-indexed
incident cell to the higher-indexed one; on the boundary the normal
points out of the domain.
"""

from __future__ import annotations

import numpy as np

QUAD = "quad"
TRIANGLE = "triangle"

_DEGENERATE_RTOL = 1e-12

# most (point, cell) pairs locate_cell pulls back at once; keeps its
# (points, cells) temporaries near cache size (on 8,192 cells, 0.09-0.14
# ms per point against 0.25 ms at 2**20).  Mesh tries as many (boundary
# facet, vertex) pairs at once for hanging nodes
LOCATE_CHUNK = 1 << 16


class Mesh:
    """Conforming 2D mesh made of one cell kind (triangles or quads).

    Attributes
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 3 or 4) int array, counterclockwise vertex ordering
    cell_kind : "triangle" or "quad"
    facet_vertices : (nf, 2) int array, canonical order v0 < v1
    facet_cells : (nf, 2) int array, (owner, neighbor), neighbor -1 on boundary;
        the owner is always the lower-indexed incident cell
    facet_normals, facet_tangents : (nf, 2) float arrays; the tangent runs
        from the lower-numbered vertex to the higher one, the normal points
        from owner to neighbor (outward on the boundary)
    cell_facets : (nc, facets per cell) int array, local facets in the order
        of the cell's edge loop
    cell_facet_signs : same shape, +1 where the stored facet normal is
        outward for that cell, -1 otherwise
    """

    def __init__(self, vertices, cells, cell_kind):
        if cell_kind not in (QUAD, TRIANGLE):
            raise ValueError(f"unknown cell kind: {cell_kind!r}")
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertex array must have shape (nv, 2), not "
                             f"{self.vertices.shape}")
        bad = ~np.isfinite(self.vertices).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"vertex {i} is not finite: {self.vertices[i]}")
        cells = np.asarray(cells)
        if cells.dtype.kind not in "iu":
            # floats pass only when they hold integers
            flat = cells.ravel()
            bad = np.ones(flat.size, dtype=bool)
            if cells.dtype.kind == "f":
                bad = ~np.isfinite(flat) | (flat != np.round(flat))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError("cell vertex indices must be integers: entry "
                                 f"{i} is {flat[i].item()!r} ({cells.dtype})")
        self.cells = cells.astype(int)
        self.cell_kind = cell_kind
        npc = 3 if cell_kind == TRIANGLE else 4
        if self.cells.ndim != 2 or self.cells.shape[1] != npc:
            raise ValueError("cell array shape does not match cell kind")
        nv = len(self.vertices)
        bad = ((self.cells < 0) | (self.cells >= nv)).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"cell {i} has vertex indices {self.cells[i]}, "
                             f"outside [0, {nv})")
        self._build_facets()
        self._check_conforming()
        self._check_connected()
        for arr in (self.vertices, self.cells, self.facet_vertices,
                    self.facet_cells, self.facet_normals, self.facet_tangents,
                    self.facet_lengths, self.facet_midpoints, self.cell_facets,
                    self.cell_facet_signs, self.interior_facets,
                    self.boundary_facets, self.interior_index):
            arr.setflags(write=False)

    # -- construction -------------------------------------------------

    def _build_facets(self):
        nc, npc = self.cells.shape
        # edge e of cell c is entry c * npc + e; a facet is keyed by its
        # vertex pair (lower, higher) and numbered by first appearance
        ends = np.stack([self.cells, np.roll(self.cells, -1, axis=1)])
        lo, hi = ends.min(axis=0).ravel(), ends.max(axis=0).ravel()
        keys = lo.astype(np.int64) * len(self.vertices) + hi
        _, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True)
        if (counts > 2).any():
            raise ValueError("facet shared by more than two cells")
        order = np.argsort(first)
        first, counts = first[order], counts[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        fid = rank[inverse.ravel()]
        self.cell_facets = fid.reshape(nc, npc)
        self.facet_vertices = np.column_stack([lo[first], hi[first]])
        # owner: the cell of the first appearance, which is the lower one;
        # neighbor: the cell of the second appearance, if any
        fcells = np.column_stack([first // npc, np.full(len(first), -1)])
        shared = counts == 2
        second = np.argsort(fid, kind="stable")[
            (np.cumsum(counts) - counts)[shared] + 1]
        fcells[shared, 1] = second // npc
        self.facet_cells = fcells

        p0 = self.vertices[self.facet_vertices[:, 0]]
        p1 = self.vertices[self.facet_vertices[:, 1]]
        d = p1 - p0
        lengths = np.hypot(d[:, 0], d[:, 1])
        if np.any(lengths <= 0.0):
            raise ValueError("zero-length facet")
        tangents = d / lengths[:, None]
        normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
        mids = 0.5 * (p0 + p1)
        # orient outward with respect to the owner cell
        owner_centroid = self.vertices[self.cells[fcells[:, 0]]].mean(axis=1)
        flip = np.einsum("fi,fi->f", normals, mids - owner_centroid) < 0.0
        normals[flip] *= -1.0
        self.facet_normals = normals
        self.facet_tangents = tangents
        self.facet_lengths = lengths
        self.facet_midpoints = mids

        owner_of = fcells[:, 0]
        self.cell_facet_signs = np.where(
            owner_of[self.cell_facets] == np.arange(nc)[:, None], 1, -1
        ).astype(np.int8)
        self.interior_facets = np.nonzero(fcells[:, 1] != -1)[0]
        self.boundary_facets = np.nonzero(fcells[:, 1] == -1)[0]
        interior_index = np.full(len(fcells), -1, dtype=int)
        interior_index[self.interior_facets] = np.arange(len(self.interior_facets))
        self.interior_index = interior_index

    def _check_conforming(self):
        """Raise ValueError naming a vertex inside a boundary facet.

        That is how a hanging node shows: the facet of the coarse cell
        and the facets of the refined cells that meet at the node are
        each seen by one cell only.  The node is then a vertex of
        boundary facets itself, so only those vertices are tried.
        """
        ends = self.facet_vertices[self.boundary_facets]
        tried = np.unique(ends)
        step = max(1, LOCATE_CHUNK // max(len(tried), 1))
        for lo in range(0, len(ends), step):
            start = self.vertices[ends[lo:lo + step, 0]]
            edge = self.vertices[ends[lo:lo + step, 1]] - start
            # (facets, tried vertices): the position along the facet, in
            # units of its length squared, and the area spanned with it
            rel = self.vertices[tried] - start[:, None]
            along = (rel @ edge[..., None])[..., 0]
            across = rel[..., 1] * edge[:, :1] - rel[..., 0] * edge[:, 1:]
            sq = (edge ** 2).sum(axis=1)[:, None]
            inside = ((np.abs(across) <= _DEGENERATE_RTOL * sq)
                      & (along > _DEGENERATE_RTOL * sq)
                      & (along < (1 - _DEGENERATE_RTOL) * sq))
            if inside.any():
                f, v = np.unravel_index(np.argmax(inside), inside.shape)
                a, b = ends[lo + f]
                raise ValueError(
                    f"vertex {tried[v]} lies inside boundary facet "
                    f"{self.boundary_facets[lo + f]} (vertices {a} and {b}): "
                    "a hanging node; the mesh is not conforming")

    def _check_connected(self):
        """Raise ValueError when the cells fall into parts that share no
        facet."""
        # imported here, as in hybrid._vertex_columns: scipy.sparse.csgraph
        # adds about 4 ms to the import of the package
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        pairs = self.facet_cells[self.interior_facets]
        nc = self.num_cells
        graph = sp.csr_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(nc, nc))
        parts = connected_components(graph, directed=False)[0]
        if parts > 1:
            raise ValueError(f"the cells form {parts} parts that share no "
                             "facet; a mesh must be connected")

    # -- basic queries -------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_facets(self):
        return self.facet_vertices.shape[0]

    @property
    def facets_per_cell(self):
        return self.cells.shape[1]


def cell_geometry(mesh, cells=None):
    """Stacked affine maps of some cells (default: all) in one array pass.

    Returns offsets (C, 2), jacobians (C, 2, 2), dets (C,) and inverse
    jacobians (C, 2, 2).  Raises ValueError naming the first cell, in the
    order given, that is degenerate, inverted, or a quad that is not a
    parallelogram (its map would not be affine).
    """
    cells = np.arange(mesh.num_cells) if cells is None else np.atleast_1d(cells)
    verts = mesh.vertices[mesh.cells[cells]]
    # columns: the edges from vertex 0 to vertex 1 and to the last vertex
    jac = np.stack([verts[:, 1] - verts[:, 0], verts[:, -1] - verts[:, 0]],
                   axis=-1)
    scale = np.abs(jac).max(axis=(1, 2))
    skew = np.zeros(len(cells), dtype=bool)
    if mesh.cell_kind == QUAD:
        closure = verts[:, 0] + jac[:, :, 0] + jac[:, :, 1]
        skew = (np.abs(closure - verts[:, 2]).max(axis=1)
                > 1e-9 * np.maximum(scale, 1e-300))
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    flat = det <= _DEGENERATE_RTOL * np.maximum(scale ** 2, 1e-300)
    bad = skew | flat
    if bad.any():
        i = int(np.argmax(bad))
        if skew[i]:
            raise ValueError(f"cell {cells[i]} is not a parallelogram; "
                             "affine map undefined")
        raise ValueError(f"cell {cells[i]} is degenerate or inverted "
                         f"(det={det[i]:.3e})")
    inv = np.stack([np.stack([jac[:, 1, 1], -jac[:, 0, 1]], axis=-1),
                    np.stack([-jac[:, 1, 0], jac[:, 0, 0]], axis=-1)],
                   axis=1) / det[:, None, None]
    return verts[:, 0], jac, det, inv


def build_structured_mesh(n, cell_kind=QUAD):
    """Uniform n-by-n partition of the unit square.

    For quads this gives n^2 square cells.  For triangles each square is
    split along the diagonal running from its lower-left to its upper-right
    corner, giving 2 n^2 congruent cells.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n!r}")
    if cell_kind not in (QUAD, TRIANGLE):
        raise ValueError(f"unknown cell kind: {cell_kind!r}")
    coords = np.arange(n + 1) / n
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    if cell_kind == QUAD:
        cells = np.column_stack([v00, v10, v11, v01])
    else:
        cells = np.stack([np.column_stack([v00, v10, v11]),
                          np.column_stack([v00, v11, v01])],
                         axis=1).reshape(-1, 3)
    return Mesh(vertices, cells, cell_kind)


def perturbed_triangles(n, share, seed):
    """Diagonal-split n-by-n mesh, interior vertices moved by up to share*h.

    Each coordinate of each interior vertex moves by a uniform draw from
    [-share/n, share/n] of a generator seeded with `seed`; boundary
    vertices stay, so the domain is still the unit square.
    """
    base = build_structured_mesh(n, TRIANGLE)
    vertices = base.vertices.copy()
    interior = ((vertices > 0.0) & (vertices < 1.0)).all(axis=1)
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-share / n, share / n,
                                      size=(int(interior.sum()), 2))
    return Mesh(vertices, base.cells, TRIANGLE)


def locate_cell(mesh, points):
    """Index of the first cell that contains each of (P, 2) points of the
    unit square; an int array (P,).

    The points are pulled back through the affine maps of all cells,
    computed once per call, LOCATE_CHUNK // num_cells points at a time to
    bound the (points, cells) arrays; a cell contains a point when its
    reference coordinates lie in the reference cell, up to roundoff.
    Raises ValueError naming the first point outside the unit square, or
    else the first point in no cell.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"expected points of shape (P, 2), got {x.shape}")
    outside = ~((-1e-12 <= x) & (x <= 1 + 1e-12)).all(axis=1)
    if outside.any():
        raise ValueError(f"point {x[np.argmax(outside)]} outside the unit square")
    offsets, _, _, inv = cell_geometry(mesh)
    tol = 1e-12
    step = max(1, LOCATE_CHUNK // mesh.num_cells)
    cells = np.empty(len(x), dtype=int)
    for start in range(0, len(x), step):
        # reference coordinates (r0, r1) of the points, (points, cells)
        d0 = x[start:start + step, :1] - offsets[:, 0]
        d1 = x[start:start + step, 1:] - offsets[:, 1]
        r0 = inv[:, 0, 0] * d0 + inv[:, 0, 1] * d1
        r1 = inv[:, 1, 0] * d0 + inv[:, 1, 1] * d1
        inside = (r0 >= -tol) & (r1 >= -tol)
        if mesh.cell_kind == QUAD:
            inside &= (r0 <= 1 + tol) & (r1 <= 1 + tol)
        else:
            inside &= r0 + r1 <= 1 + tol
        hit = inside.any(axis=1)
        if not hit.all():
            raise ValueError("no cell contains the point "
                             f"{x[start + np.argmin(hit)]}")
        cells[start:start + step] = inside.argmax(axis=1)
    return cells
