"""Hybridized solver and its monolithic cross-check.

The mixed gradient-velocity-pressure system is condensed cell by cell
onto facet unknowns: tangential and normal velocity traces on interior
facets plus one pressure average per cell.  That condensed system is a
symmetric saddle point, singular only along constant pressure averages;
cell 0's average is taken as zero in place of its redundant mass
balance, and the averages are shifted to zero area-weighted mean after
the solve.  The pressure averages couple only to the first normal mode
of each interior facet, through the signed cell-facet incidence B.  The
first modes that satisfy the mass balances are a particular flux plus
the differences of a vertex potential psi (the discrete exact sequence
vertex potentials -> facet fluxes -> cell constants), with psi zero on
one boundary loop and one unknown on each other loop.  So the solver
solves an SPD system Z^T K Z in the traces other than the first modes
and psi, and factors the cell graph matrix B1 B1^T that gives the
particular flux and the pressure averages, pivoting on the diagonal.  A
cell has as many vertices as facets, so Z restricted to a cell's traces
is a square per-cell map Z_e, and the SPD matrix is the sum of the
per-cell blocks R_e = Z_e^T E_e Z_e of the cells' energy blocks E_e,
every entry kept, so the elimination below does not depend on the
data.  Neither Z nor the map C from potentials to first modes is
formed: each interior facet's first mode is -o/h times the potential
of its lower vertex plus o/h times that of its higher one, so Z^T r is
one bincount and Z y one difference per facet.  The trace energy K is
never assembled: the one refinement step against the full condensed
system applies it cell by cell, from the class stack.

Nor is Z^T K Z factored as a sparse matrix: it is eliminated by nested
static condensation, the elimination of the cells' element unknowns
carried through every level of a nested dissection (George, SINUM 10,
1973; the multilevel static condensation of Sherwin & Karniadakis, OUP
2005).  The patches are a quadtree built from the cells alone
(`_patch_levels`): a patch of more than 8 cells is cut in half by
centroid x and each half in half by centroid y, down to leaves of at
most 8 cells, the 2 x 2 squares of structured quads and triangles; the
root is the whole mesh.  Bottom-up, each patch sums its members' blocks,
the blocks R_e of its cells at the leaves and the Schur blocks of its
children above, and eliminates its interior, the reduced columns no
other patch of its level holds, by a dense Schur step (`_Front`).
Patches whose members have the same classes and whose columns the same
pattern form one class, assembled from one patch at its own size; its
interior block is SPD and factored by Cholesky, and the Schur block and
the recovery rows A_bi A_ii^-1 are formed from that factor by triangular
solves and a symmetric rank-k update.  A front keeps only these three.
The root's interior is all that is left.  Per solve the right-hand side
is condensed up the levels by the recovery rows, and down the levels
each interior is solved once and recovered (`_PatchTree`); SuperLU
factors only the cell graph B1 B1^T.

The element blocks of one cell of each geometry class are reference
integrals times that cell's geometry (`forms.element_blocks` on
`Spaces.class_rep`), and the local matrices of all the classes are formed
and factored from them as one stack with a leading class axis
(`LocalSolver`).  Every cell-local step (data moments, source solves,
the scatter of the load, recovery and the postprocessing of u*) runs on
blocks of cells of any classes (`Spaces.cell_blocks`): each cell
reads its class's entry of each stack through `Spaces.cell_class`, and
the data moments push the fine-degree data forward per cell.

`solve_direct` works on the uncondensed system over broken gradient,
divergence-conforming velocity, broken pressure, and tangential trace
unknowns.  Before its sparse solve it eliminates the unknowns private to
each cell, the gradient rows and the interior velocity moments, in one
Schur step per class, and condenses their load onto the kept rows.  Its
sparse system keeps the facet velocity moments, all the pressures and
the traces; it is a general LU with COLAMD ordering and threshold
partial pivoting, and it pins the last cell's constant pressure
coefficient.  It shares the quadrature data but neither the local
solver, the facet multiplier nor the SPD reduction, and it pins another
cell and another unknown, so agreement between the two is a meaningful
consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fespace import factor_classes, reference_fields
from .forms import (element_blocks, postprocess_factor, postprocess_velocity,
                    values_at)
from .linalg import (CholeskyFactor, SparseBuilder, SparseFactor,
                     block_triplets, refined_solve, sparse_solve)
from .mesh import locate_cell


class LocalSolver:
    """Condensed cell solves of a stack of geometry classes.

    Unknown layout: gradient rows (row-major), velocity, mean-free
    pressure, facet multiplier.  Lift columns: tangential facet data per
    local facet, then normal facet data.  The local matrices of all the
    classes are filled by slice assignment over the class axis and
    factored together; `lift`, `zlift` and `energy` have a leading class
    axis.  `post` is what `postprocess_velocity` reads of the classes'
    blocks, and `cells` holds a cell of each class.
    """

    def __init__(self, blocks, family):
        nu = blocks.nu
        n_cls = len(blocks.cells)
        n_g, n_v, n_q = family.n_g, family.n_v, family.n_q
        kk = family.n_facet
        nfc = family.n_cell_facets
        n_l = 2 * n_g
        n_p = n_q - 1
        n_lam = nfc * kk
        n = n_l + n_v + n_p + n_lam
        o_u = n_l
        o_p = o_u + n_v
        o_lam = o_p + n_p
        self.n = n
        self.offsets = (0, o_u, o_p, o_lam)
        self.cells = blocks.cells

        # each matrix in column-major order, so it is factored in place
        mat = np.zeros((n_cls, n, n)).swapaxes(1, 2)
        gt = blocks.grad - blocks.tg
        for r in range(2):
            rows = slice(r * n_g, (r + 1) * n_g)
            mat[:, rows, rows] = nu * blocks.mg
            mat[:, rows, o_u:o_p] = nu * blocks.divg[:, r].swapaxes(1, 2)
            mat[:, o_u:o_p, rows] = nu * gt[:, r].swapaxes(1, 2)
        mat[:, o_u:o_p, o_u:o_p] = blocks.mgam
        mat[:, o_u:o_p, o_p:o_lam] = -blocks.bdiv[..., 1:] + blocks.tq[..., 1:]
        mat[:, o_p:o_lam, o_u:o_p] = blocks.bdiv[..., 1:].swapaxes(1, 2)
        # (S, n_v, f * (k+1)): the multiplier columns of every local facet
        tlam = blocks.tlam.transpose(0, 2, 1, 3).reshape(n_cls, n_v, n_lam)
        mat[:, o_u:o_p, o_lam:] = -tlam
        mat[:, o_lam:, o_u:o_p] = tlam.swapaxes(1, 2)
        self.factor = factor_classes(mat, blocks.cells, "local solver matrix")

        # gradient rows against the tangential, then the normal, data of
        # each local facet; the multiplier rows against the normal data
        lift_rhs = np.zeros((n_cls, n, 2 * n_lam))
        for col, vec in ((0, blocks.tangent), (n_lam, blocks.normal)):
            lift_rhs[:, :n_l, col:col + n_lam] = np.einsum(
                "sfr,sfja->srafj", nu * vec, blocks.that).reshape(
                    n_cls, n_l, n_lam)
        diag = np.arange(n_lam)
        lift_rhs[:, o_lam + diag, n_lam + diag] = np.repeat(
            blocks.sign * blocks.h, kk, axis=1)
        self.lift = self.factor.solve(lift_rhs)
        del lift_rhs

        # energy-weighted lift: rows of Z @ lift with Z the block Gram
        # diag(nu M_ll, nu M_ll, M_gamma, 0, 0)
        zlift = np.zeros_like(self.lift)
        for r in range(2):
            rows = slice(r * n_g, (r + 1) * n_g)
            zlift[:, rows] = nu * blocks.mg @ self.lift[:, rows]
        zlift[:, o_u:o_p] = blocks.mgam @ self.lift[:, o_u:o_p]
        self.zlift = zlift
        self.energy = self.lift.swapaxes(1, 2) @ zlift
        self.post = postprocess_factor(blocks)


@dataclass
class SolutionFields:
    """Recovered per-cell fields and global facet unknowns."""

    k: int
    cell_kind: str
    l: np.ndarray        # (nc, 2, n_g)
    u: np.ndarray        # (nc, n_v) modal velocity coefficients
    p: np.ndarray        # (nc, n_q)
    lam: np.ndarray      # (nc, nfc*(k+1)) facet multiplier (zeros for direct)
    uhat_t: np.ndarray   # interior facet tangential trace coefficients
    uhat_n: np.ndarray   # interior facet normal trace coefficients
    pbar: np.ndarray     # (nc,) cell pressure averages
    mean_mult: float     # mean of the mass source, removed before the
                         # solve; roundoff when int g = 0
    ustar: np.ndarray    # (nc, 2, n_post)
    n_global: int        # unknowns of the global system: the condensed
                         # facet system (not the SPD system factored in
                         # its place), or for the oracle its sparse
                         # system of facet velocity moments, pressures
                         # and traces
    n_local: int


def build_local_solvers(spaces, nu, gamma):
    """The LocalSolver of all the geometry classes, in class order."""
    return LocalSolver(element_blocks(spaces, spaces.class_rep, nu, gamma),
                       spaces.family)


def _class_rows(x, stack, cls):
    """Rows x[e] @ stack[cls[e]] for the cells e of a block, with cls the
    class of each cell; one product with the class's matrix when the
    block holds a single class."""
    if cls.size and (cls == cls[0]).all():
        return x @ stack[cls[0]]
    return (x[:, None] @ stack[cls])[:, 0]


def _checked_values(func, x, shape, what):
    """Values of a data callable at x; ValueError on a wrong shape or NaN/inf."""
    vals = np.asarray(func(x), dtype=float)
    name = getattr(func, "__qualname__", repr(func))
    if vals.shape != shape:
        raise ValueError(f"{what} {name} returned shape {vals.shape} at "
                         f"{x.shape[0]} points; expected {shape}")
    bad = vals[~np.isfinite(vals)]
    if bad.size:
        raise ValueError(f"{what} {name} returned the non-finite value "
                         f"{bad[0]} at {bad.size} of {vals.size} entries")
    return vals


def _data_moments(spaces, cells, f_func, g_func):
    """Velocity moments of f, pressure moments of g, and the integral of |g|.

    cells is an index array of cells, such as a block of
    `Spaces.cell_blocks`.  f and g are called once, on the stacked fine
    points of all the cells; the moments are (C, n_v) and (C, n_q), and
    the integral is summed over the cells.  With v_m = J vhat_m / det,
    the Piola 1/det cancels the det of the measure: (f, v_m) = sum_q w
    (J^T f) . vhat_m.
    """
    fam = spaces.family
    ref = fam.reference_tab(spaces.fine_degree)
    x = spaces.vol_points(cells)
    flat = x.reshape(-1, 2)
    nq = flat.shape[0]
    fv = _checked_values(f_func, flat, (nq, 2), "body force").reshape(x.shape)
    gv = _checked_values(g_func, flat, (nq,), "mass source").reshape(x.shape[:-1])
    # (J^T f)[e, q, c] against (w vhat)[c, q, m], one product over (q, c)
    jtf = fv @ spaces.jacobians[cells]
    vw = np.moveaxis(ref.v * ref.w, 0, -1).reshape(-1, fam.n_v)
    fmom = jtf.swapaxes(1, 2).reshape(len(cells), -1) @ vw
    gw = gv * np.outer(spaces.dets[cells], ref.w)
    return fmom, gw @ ref.q_vals.T, float(np.abs(gw).sum())


def _constant_pressure_value(spaces):
    vals = spaces.tab().q_vals[0]
    if np.ptp(vals) > 1e-12 * abs(vals[0]):
        raise RuntimeError("first pressure basis function is not constant")
    return float(vals[0])


def _facet_incidence(mesh):
    """B: the pressure-row couplings of each cell to the first normal mode
    of its interior facets, -sign * h; (nc, interior facets), CSR."""
    rank = mesh.interior_index[mesh.cell_facets]
    inner = rank >= 0
    cell = np.broadcast_to(np.arange(mesh.num_cells)[:, None], rank.shape)
    val = -mesh.cell_facet_signs * mesh.facet_lengths[mesh.cell_facets]
    builder = SparseBuilder(mesh.num_cells, len(mesh.interior_facets))
    builder.add(cell[inner], rank[inner], val[inner])
    return builder.finalize().tocsr()


def _vertex_columns(mesh):
    """The psi column of each vertex, and the number of columns.

    Vertices of interior facets that lie on no boundary facet come first,
    then one shared potential per boundary loop after the first, whose
    potential is zero (column -1); the boundary normal flux is zero and
    so psi is constant along each loop.  The fluxes out of a cell, the
    differences of psi around it, sum to zero; with these columns the map
    from psi to the first modes is injective and its range is the kernel
    of the mass balances, since a mesh has one loop per hole.
    """
    # imported here: scipy.sparse.csgraph adds about 4 ms to the import
    # of the package, which nothing else needs
    from scipy.sparse.csgraph import connected_components

    nv = mesh.num_vertices
    bv = mesh.facet_vertices[mesh.boundary_facets]
    graph = sp.csr_matrix((np.ones(len(bv)), (bv[:, 0], bv[:, 1])),
                          shape=(nv, nv))
    label = connected_components(graph, directed=False)[1]
    on_boundary = np.zeros(nv, dtype=bool)
    on_boundary[bv] = True
    inner = np.zeros(nv, dtype=bool)
    inner[mesh.facet_vertices[mesh.interior_facets]] = True
    inner &= ~on_boundary
    n_inner = int(inner.sum())
    loops, loop = np.unique(label[on_boundary], return_inverse=True)
    col = np.full(nv, -1)
    col[inner] = np.arange(n_inner)
    col[on_boundary] = np.where(loop > 0, n_inner + loop - 1, -1)
    return col, n_inner + len(loops) - 1


def _flux_weights(mesh, facets):
    """o/h of an index array of facets, with o = 1 when the stored normal
    is the tangent turned clockwise and -1 otherwise."""
    t, n = mesh.facet_tangents[facets], mesh.facet_normals[facets]
    return ((t[..., 1] * n[..., 0] - t[..., 0] * n[..., 1])
            / mesh.facet_lengths[facets])


def _reduced_columns(mesh, vcol, cols, m, free, first):
    """Per cell: the columns of its reduced block, and its flux map M.

    cols holds each cell's global columns of the m traces, tangential
    then normal (`Spaces.facet_dofs`), free the traces that are not
    first normal modes and first the local slots of the first modes, one
    per local facet.  The reduction replaces the first modes by vertex
    potentials.  A cell has as many vertices as facets, so its slot
    first[lf] stands for the potential of its vertex lf, and M (nc, f, f)
    gives the first modes of its facets from those potentials: local
    facet lf runs from vertex lf to vertex lf+1, and its row holds -o/h
    at the facet's lower vertex and o/h at its higher one
    (`_flux_weights`); it is zero on a boundary facet.  The free slots
    map to their rank in free, and the vertex slots to len(free) plus
    their psi column vcol (`_vertex_columns`); -1 marks a slot with no
    column.
    """
    n_free = len(free)
    # the last entry is the rank of column -1
    rank = np.full(m + 1, -1)
    rank[free] = np.arange(n_free)
    red = rank[cols]
    corner = vcol[mesh.cells]
    red[:, first] = np.where(corner >= 0, n_free + corner, -1)

    facets = mesh.cell_facets
    w = np.where(mesh.interior_index[facets] >= 0,
                 _flux_weights(mesh, facets), 0.0)
    # -o/h at the facet's lower vertex and o/h at its higher one
    w *= np.where(mesh.cells < np.roll(mesh.cells, -1, axis=1), 1.0, -1.0)
    nc, nfc = facets.shape
    lf = np.arange(nfc)
    flux = np.zeros((nc, nfc, nfc))
    flux[:, lf, lf] = -w
    flux[:, lf, (lf + 1) % nfc] = w
    return red, flux


def _reduced_blocks(energy, flux, first):
    """Z_e^T E_e Z_e of a stack of cell energy blocks, in place.

    Z_e is the identity but on the first-mode slots, where it is the
    cell's flux map M_e (`_reduced_columns`): the first-mode columns
    become E_e[:, first] @ M_e, then the first-mode rows M_e^T times
    those rows.
    """
    energy[:, :, first] = energy[:, :, first] @ flux
    energy[:, first] = flux.swapaxes(1, 2) @ energy[:, first]
    return energy


# a patch is quartered while it holds more cells than this: on n x n
# structured meshes with n a power of two the leaves are the 2 x 2
# squares, of 4 quads or 8 triangles
_LEAF_CELLS = 8


def _patch_levels(mesh):
    """The quadtree of cell patches: per level, root first, the patch of
    each cell.

    A patch of more than `_LEAF_CELLS` cells is sorted by centroid x and
    cut in half, each half is sorted by centroid y and cut in half, ties
    going by cell index, and the four quarters are its children; a patch
    of fewer cells passes down whole while other patches of its level are
    cut, so that every level partitions the cells.  The patches of a level
    are numbered by parent, then quarter.
    """
    nc = mesh.num_cells
    centroid = mesh.vertices[mesh.cells].mean(axis=1)
    index = np.arange(nc)

    def upper_half(group, coord):
        # the cells past the first half of their group in (coord, index)
        order = np.lexsort((index, coord, group))
        size = np.bincount(group)
        rank = np.empty(nc, dtype=int)
        rank[order] = index - np.repeat(np.cumsum(size) - size, size)
        return rank >= size[group] // 2

    patch = np.zeros(nc, dtype=int)
    levels = [patch]
    while np.bincount(patch).max(initial=0) > _LEAF_CELLS:
        cut = np.bincount(patch)[patch] > _LEAF_CELLS
        half = upper_half(patch, centroid[:, 0])
        quarter = upper_half(2 * patch + half, centroid[:, 1])
        patch = np.unique(4 * patch + cut * (2 * half + quarter),
                          return_inverse=True)[1]
        levels.append(patch)
    return levels


def _members(owner):
    """The members of each group, ascending, -1 in padding: (G, w) for
    owner (M,), the group of each member."""
    order = np.argsort(owner, kind="stable")
    count = np.bincount(owner)
    groups = np.full((len(count), count.max(initial=0)), -1)
    groups[owner[order], np.arange(len(owner))
           - np.repeat(np.cumsum(count) - count, count)] = order
    return groups


class _Front:
    """The patch interiors of one level of the tree, eliminated densely.

    groups (P, w) holds the members of each patch, -1 in padding, cols
    (M, s) the reduced columns of each member's slots, -1 for none, and
    member_class (M,) each member's class; blocks(members) gives their
    blocks; n is the number of reduced columns.  The level eliminates each
    patch's interior, the columns no other patch of the level holds, the
    ones whose cells lie in this patch but in no one patch below.  A
    patch's columns are numbered by their first slot among its members'
    slots, interior ones first, so patches whose members share classes
    and whose slots share that pattern have one matrix, the sum of their
    members' blocks, and form one class (`cls`).  The matrix of each
    class is assembled from one patch at the class's own size, interior
    columns first, from the member slots that have a column and only in
    its lower triangle, which is all the elimination reads.  Its interior
    block A_ii is factored by Cholesky (`CholeskyFactor`, through
    `factor_classes`), each class at its own size.  Per class this leaves
    the Schur complement A_bb - A_bi A_ii^-1 A_ib on the patch's boundary
    columns (`schur`, formed in its lower triangle by syrk and mirrored,
    so exactly symmetric) and the recovery rows W^T = A_bi A_ii^-1
    (`recover_rows`), which condense a right-hand side and, with W,
    recover the interior.  Only these stacks are padded, with zeros, to
    the most interior and boundary columns of any class, for the solve
    and the level above; the solve pads each factor with the identity.
    `inner` and `outer` hold each patch's interior and boundary reduced
    columns, -1 in padding, and `bins` the outer ones with n in padding.
    cells (P,) names a cell of each patch if an interior block is not
    positive definite.
    """

    def __init__(self, groups, cols, member_class, blocks, n, cells):
        n_p, width = groups.shape
        n_slot = width * cols.shape[1]
        # each patch's reduced columns, slot by slot, -1 for none
        col = np.where(groups[..., None] >= 0, cols[groups], -1).reshape(
            n_p, n_slot)
        # the first slot of each slot's column in its patch
        pairs, at, back = np.unique(np.arange(n_p)[:, None] * (n + 1) + col,
                                    return_index=True, return_inverse=True)
        first_slot = at[back].reshape(col.shape) % n_slot
        # the patches that hold each column; column -1 counts as n
        holders = np.bincount(pairs % (n + 1), minlength=n + 1)
        # 0 interior, 1 boundary, 2 no column
        kind = np.where(col < 0, 2, holders[col] > 1)
        # one row of bytes per patch: its members' classes and its pattern
        key = np.hstack([np.where(groups >= 0, member_class[groups], -1),
                         3 * first_slot + kind]).astype(np.int32)
        _, rep, self.cls = np.unique(
            key.view(np.dtype((np.void, 4 * key.shape[1]))).ravel(),
            return_index=True, return_inverse=True)

        # each class's columns, each at its first slot: interior ones first
        opens = first_slot[rep] == np.arange(n_slot)
        is_i = opens & (kind[rep] == 0)
        is_b = opens & (kind[rep] == 1)
        # each class's own interior and boundary sizes, and their largest
        m_i, m_b = is_i.sum(axis=1), is_b.sum(axis=1)
        n_i, n_b = m_i.max(initial=0), m_b.max(initial=0)
        at_b = np.cumsum(is_b, axis=1) - 1
        pos = np.where(is_i, np.cumsum(is_i, axis=1) - 1,
                       np.where(is_b, n_i + at_b, -1))
        slot = np.full((len(rep), n_i + n_b), n_slot)
        rows, slots = np.nonzero(pos >= 0)
        slot[rows, pos[rows, slots]] = slots
        # the reduced column of each patch's local column, -1 for padding
        local_col = np.take_along_axis(
            np.pad(col, ((0, 0), (0, 1)), constant_values=-1),
            slot[self.cls], axis=1)
        self.inner = local_col[:, :n_i]
        self.outer = local_col[:, n_i:]
        # padded boundary columns scatter into an extra bin, dropped
        self.bins = np.where(self.outer >= 0, self.outer, n).ravel()

        # the lower triangle of the matrix of each class, at its own size,
        # from the blocks of its first patch: only the member slot pairs
        # with a column there scatter.  Each class's matrix is one
        # row-major block, so that entry (r, c) lies at an offset of its
        # row r plus c
        size = m_i + m_b
        at = np.cumsum(size ** 2) - size ** 2
        own = np.where(is_b, m_i[:, None] + at_b, pos)
        offset = at[:, None] + own * size[:, None]
        members = groups[rep]
        local, offset = (np.take_along_axis(x, first_slot[rep], axis=1).reshape(
            members.shape + cols.shape[1:]) for x in (own, offset))
        used = members >= 0
        local, offset, members = local[used], offset[used], members[used]
        # (r, c) with r >= c, a slot with no column as a row before the
        # first and a column past the last
        keep = local[:, :, None] >= np.where(local >= 0, local,
                                             size.max())[:, None, :]
        # float also when nothing scatters
        flat = np.bincount((offset[:, :, None] + local[:, None, :])[keep],
                           blocks(members)[keep],
                           minlength=(size ** 2).sum()).astype(
                               float, copy=False)
        mats = [flat[lo:lo + s * s].reshape(s, s) for lo, s in zip(at, size)]

        self.factor = factor_classes([a[:m, :m] for a, m in zip(mats, m_i)],
                                     cells[rep], "patch interior matrix",
                                     factor=CholeskyFactor)
        self.recover_rows = np.zeros((len(rep), n_b, n_i))
        self.schur = np.zeros((len(rep), n_b, n_b))
        for c, (a, m, q) in enumerate(zip(mats, m_i, m_b)):
            schur, self.recover_rows[c, :q, :m] = self.factor.eliminate(
                c, a[m:, :m], a[m:, m:])
            # only the lower triangle was formed, the rest is zero: the
            # block is mirrored, exactly symmetric, its diagonal doubled
            np.add(schur, schur.T, out=self.schur[c, :q, :q])
        diag = np.arange(n_b)
        self.schur[:, diag, diag] *= 0.5


class _PatchTree:
    """Nested static condensation of the reduced matrix over the quadtree
    of cell patches (`_patch_levels`).

    red (nc, s) holds the reduced columns of each cell's slots
    (`_reduced_columns`), n is the number of reduced columns, and the
    blocks R_e of the cells follow from the class energy blocks and the
    flux maps (`_reduced_blocks`).  The levels are eliminated bottom-up
    (`_Front`): a leaf's members are its cells, a patch's above are its
    children, with the Schur blocks of their classes, and each level
    eliminates the columns that only one of its patches holds.  The
    root's interior is everything left, so no sparse factor of the
    reduced matrix remains.  `fronts` runs from the leaves to the root.
    """

    def __init__(self, mesh, red, n, cell_class, energy, flux, first):
        self.n = n
        self.levels = _patch_levels(mesh)
        cols, member_class = red, cell_class

        def blocks(cells):
            return _reduced_blocks(energy[cell_class[cells]], flux[cells],
                                   first)

        self.fronts = []
        owner = self.levels[-1]
        for d in range(len(self.levels) - 1, -1, -1):
            # the first cell of each patch
            firsts = np.unique(self.levels[d], return_index=True)[1]
            front = _Front(_members(owner), cols, member_class, blocks, n,
                           firsts)
            self.fronts.append(front)
            cols, member_class = front.outer, front.cls

            def blocks(patches, front=front):
                return front.schur[front.cls[patches]]

            # the parent of each patch of this level
            owner = self.levels[d - 1][firsts] if d else None

    def solve(self, b):
        """y with A y = b for the reduced matrix A.

        Up the levels each patch condenses its interior rows b_i onto its
        boundary rows with its recovery rows, b_b - W^T b_i; the rows b_i
        are not touched again, so down the levels each patch recovers
        y_i = A_ii^-1 b_i - W y_b, the root, with no boundary, first.
        """
        n = self.n
        # the last entry takes the padding's terms and is reset to zero
        x = np.append(b, 0.0)
        for f in self.fronts:
            load = _class_rows(x[f.inner], f.recover_rows.swapaxes(1, 2),
                               f.cls)
            x -= np.bincount(f.bins, load.ravel(), minlength=n + 1)
            x[n] = 0.0
        for f in self.fronts[::-1]:
            x[f.inner] = (f.factor.solve(x[f.inner].T, f.cls).T
                          - _class_rows(x[f.outer], f.recover_rows, f.cls))
            x[n] = 0.0
        return x[:n]


def _cellwise_product(spaces, energy, cols, m):
    """x -> K x for the m traces, with K the sum of the cells' energy
    blocks, never assembled.

    energy (n_cls, n, n) holds each geometry class's block and cols
    (nc, n) each cell's trace columns, -1 off the traces: one gather, one
    product per block of cells (`Spaces.cell_blocks`, one with the
    class's matrix when the block holds one class) and one scatter per
    call.
    """
    # slots off the traces scatter into an extra bin, dropped after
    bins = np.where(cols >= 0, cols, m).ravel()
    energy_t = energy.swapaxes(1, 2)

    def apply(x):
        xe = np.append(x, 0.0)[cols]
        for cells in spaces.cell_blocks():
            xe[cells] = _class_rows(xe[cells], energy_t,
                                    spaces.cell_class[cells])
        return np.bincount(bins, xe.ravel(), minlength=m + 1)[:m]

    return apply


def _solve_condensed(tree, spaces, energy, cols, n0, free, psi, weights,
                     rhs):
    """Solve the pinned condensed saddle point through an SPD reduction.

    The system, in [eta, pbar], is K eta + P^T pbar = F and P eta = G,
    with K the sum of the cells' energy blocks on the traces eta and P
    the cell-facet incidence (`_facet_incidence`) acting on the first
    normal modes n0 of eta; cell 0's row and column are replaced by the
    pin pbar[0] = rhs[len(eta)].  Writing the first modes as
    n0_p + C psi, with B1 n0_p equal to the mass balances G of cells
    1..nc-1 and B1 C = 0, leaves Z^T K Z y = Z^T (F - K eta_p) in the
    traces that are not first modes (free) and psi, which is SPD; pbar
    then follows from the n0 rows.  Row f of C holds -weights[f] at the
    psi column psi[f, 0] of the facet's lower vertex and weights[f] at
    psi[f, 1], its higher one, where -1 is a potential fixed at zero; so
    Z^T r is r[free] and one bincount of the first-mode residual, and
    Z y sets eta[free] and one difference per facet.  Z^T K Z is neither
    formed nor factored as a sparse matrix: `tree` (`_PatchTree`)
    eliminates it patch by patch up to the root.  energy (n_cls, n, n)
    holds each geometry class's block E_e and cols (nc, n) each cell's
    trace columns, from which K is applied cell by cell and never
    assembled (`_cellwise_product`).  SuperLU factors only the cell graph
    B1 B1^T, the incidence product, without pivoting.  That reduced solve
    is the approximate inverse of one refinement step against the full
    matrix.
    """
    b1 = _facet_incidence(spaces.mesh)[1:]
    m = len(rhs) - b1.shape[0] - 1
    n_free = len(free)
    n_psi = tree.n - n_free
    apply_energy = _cellwise_product(spaces, energy, cols, m)

    def full(x):
        out = np.concatenate([apply_energy(x[:m]), x[m:m + 1], b1 @ x[n0]])
        out[n0] += b1.T @ x[m + 1:]
        return out

    # potentials fixed at zero take their terms into an extra bin
    bins = np.where(psi >= 0, psi, n_psi).ravel()
    signed = np.column_stack([-weights, weights])
    graph_lu = SparseFactor((b1 @ b1.T).tocsc(), symmetric=True)

    def approx(b):
        eta = np.zeros(m)
        eta[n0] = b1.T @ graph_lu.solve(b[m + 1:])
        r = b[:m] - apply_energy(eta)
        flux = np.bincount(bins, (signed * r[n0, None]).ravel(),
                           minlength=n_psi + 1)[:-1]
        y = tree.solve(np.concatenate([r[free], flux]))
        eta[free] = y[:n_free]
        pot = np.append(y[n_free:], 0.0)[psi]
        eta[n0] += signed[:, 0] * pot[:, 0] + signed[:, 1] * pot[:, 1]
        pbar = graph_lu.solve(b1 @ (b[:m] - apply_energy(eta))[n0])
        return np.concatenate([eta, b[m:m + 1], pbar])

    return refined_solve(full, approx, rhs, rtol=0.0)


def solve_hybrid(spaces, nu, gamma, f_func, g_func):
    """Solve via static condensation onto facet traces.

    Condensed unknowns: tangential trace block, normal trace block, cell
    pressure averages; `n_global` counts them.  Cell 0's average is zero
    in place of its (redundant) mass balance.  The condensed system is
    not factored as such: the first normal modes are written as a flux
    that meets the mass balances plus the facet differences of a vertex
    potential, which leaves an SPD system (`_solve_condensed`), and that
    system is eliminated patch by patch over a quadtree of the cells, up
    to the root (`_PatchTree`).  After the solve the averages are
    shifted to zero area-weighted mean, which fixes the pressure in L2_0
    and changes no other field.  Raises ValueError when the mass source
    does not integrate to zero, since its mass balance cannot then hold.
    """
    mesh = spaces.mesh
    fam = spaces.family
    nc = mesh.num_cells
    kk = fam.n_facet
    nfc = fam.n_cell_facets
    ls = build_local_solvers(spaces, nu, gamma)
    o_u, o_p, o_lam = ls.offsets[1:]
    fi = mesh.interior_facets
    ntt = len(fi) * kk
    # per cell: global columns of its tangential, then normal, facet dofs
    fd = spaces.facet_dofs
    cols = np.hstack([fd, np.where(fd >= 0, fd + ntt, -1)])
    q0v = _constant_pressure_value(spaces)
    n_sys = 2 * ntt + nc
    o_pbar = 2 * ntt
    n0 = ntt + kk * np.arange(len(fi))
    free = np.delete(np.arange(o_pbar), n0)
    vcol, n_psi = _vertex_columns(mesh)
    # the first-mode slot of each local facet
    first = nfc * kk + kk * np.arange(nfc)
    red_cols, flux = _reduced_columns(mesh, vcol, cols, o_pbar, free, first)
    tree = _PatchTree(mesh, red_cols, len(free) + n_psi, spaces.cell_class,
                      ls.energy, flux, first)
    rhs = np.zeros(n_sys)
    x_src = np.zeros((nc, ls.n))
    areas = spaces.dets * fam.ref_cell.measure
    g_abs = 0.0

    for cells in spaces.cell_blocks():
        cls = spaces.cell_class[cells]
        fmom, gmom, g_abs_b = _data_moments(spaces, cells, f_func, g_func)
        g_abs += g_abs_b
        src = np.zeros((ls.n, len(cells)))
        src[o_u:o_p] = fmom.T
        src[o_p:o_lam] = gmom[:, 1:].T
        xs = ls.factor.solve(src, cls).T
        x_src[cells] = xs
        f_loc = (_class_rows(fmom, ls.lift[:, o_u:o_p], cls)
                 - _class_rows(xs, ls.zlift, cls))
        cc = cols[cells]
        keep = cc >= 0
        np.add.at(rhs, cc[keep], f_loc[keep])
        rhs[o_pbar + cells] = -gmom[:, 0] / q0v

    # rhs[pbar] holds -int_c g.  The trace couplings of the pressure rows
    # sum to zero over the cells, so the mass balances are solvable only
    # when int g = 0; the scale is int |g| because the cell integrals
    # alone can all be roundoff on symmetric meshes
    total = abs(rhs[o_pbar:].sum())
    if total > 1e-10 * g_abs:
        name = getattr(g_func, "__qualname__", repr(g_func))
        raise ValueError(
            f"mass source {name} does not integrate to zero: |int g| = "
            f"{total:.3e} against int |g| = {g_abs:.3e} (tolerance 1e-10 "
            "relative); if it does analytically, resolve the data with "
            "Spaces(mesh, k, fine_degree=verify.data_quadrature_degree("
            "case, k, n))")
    # remove the quadrature-level remainder, the mean of g, as a
    # mean-pressure multiplier would, then pin cell 0's average in place
    # of its redundant row
    mean_mult = float(-rhs[o_pbar:].sum() / areas.sum())
    rhs[o_pbar:] += mean_mult * areas
    rhs[o_pbar] = 0.0

    sol = _solve_condensed(tree, spaces, ls.energy, cols, n0, free,
                           vcol[mesh.facet_vertices[fi]],
                           _flux_weights(mesh, fi), rhs)
    uhat_t = sol[:ntt]
    uhat_n = sol[ntt:2 * ntt]
    pbar = sol[o_pbar:]
    pbar -= areas @ pbar / areas.sum()

    l = np.zeros((nc, 2, fam.n_g))
    u = np.zeros((nc, fam.n_v))
    p = np.zeros((nc, fam.n_q))
    lam = np.zeros((nc, nfc * kk))
    ustar = np.zeros((nc, 2, fam.n_post))
    eta_pad = np.concatenate([sol[:2 * ntt], [0.0]])
    lift_t = ls.lift.swapaxes(1, 2)
    for cells in spaces.cell_blocks():
        cls = spaces.cell_class[cells]
        xi = _class_rows(eta_pad[cols[cells]], lift_t, cls) + x_src[cells]
        l[cells] = xi[:, :o_u].reshape(-1, 2, fam.n_g)
        u[cells] = xi[:, o_u:o_p]
        p[cells, 1:] = xi[:, o_p:o_lam]
        lam[cells] = xi[:, o_lam:]
        ustar[cells] = postprocess_velocity(ls.post, cls, l[cells], u[cells])
    p[:, 0] = pbar / q0v

    n_local = nc * ls.n
    return SolutionFields(
        k=spaces.k, cell_kind=mesh.cell_kind, l=l, u=u, p=p, lam=lam,
        uhat_t=uhat_t, uhat_n=uhat_n, pbar=pbar, mean_mult=mean_mult,
        ustar=ustar, n_global=2 * ntt + nc, n_local=n_local)


def _direct_cell_matrix(blocks, trans, family):
    """Dense cell blocks of the uncondensed system.

    blocks and trans (the nodal transforms) hold a stack of classes; the
    blocks come back as (S, n, n), one per class.  Local layout: the dofs
    private to the cell, gradient rows (row-major) and interior velocity
    moments, then facet velocity moments, pressure, tangential traces per
    local facet.
    """
    nu = blocks.nu
    n_cls = len(blocks.cells)
    n_g, n_v, n_q = family.n_g, family.n_v, family.n_q
    kk = family.n_facet
    o_u = 2 * n_g
    o_p = o_u + n_v
    o_t = o_p + n_q
    n_t = family.n_cell_facets * kk
    n = o_t + n_t
    # nodal velocity columns with the interior moments first
    trans = np.roll(trans, family.n_v_interior, axis=2)
    mat = np.zeros((n_cls, n, n))
    trans_t = trans.swapaxes(1, 2)
    tgt_sum = np.einsum("sfr,sfam->sram", blocks.tangent, blocks.tgt)
    for r in range(2):
        rows = slice(r * n_g, (r + 1) * n_g)
        mat[:, rows, rows] = nu * blocks.mg
        mat[:, rows, o_u:o_p] = nu * (-blocks.grad[:, r] + tgt_sum[:, r]) @ trans
        mat[:, o_u:o_p, rows] = trans_t @ (
            nu * (blocks.grad[:, r] - tgt_sum[:, r]).swapaxes(1, 2))
    # gradient rows against the traces of every local facet
    trace = np.einsum("sfr,sfja->srafj", nu * blocks.tangent,
                      blocks.that).reshape(n_cls, o_u, n_t)
    mat[:, :o_u, o_t:] = -trace
    mat[:, o_t:, :o_u] = trace.swapaxes(1, 2)
    mat[:, o_u:o_p, o_u:o_p] = trans_t @ blocks.mgam @ trans
    mat[:, o_u:o_p, o_p:o_t] = trans_t @ (-blocks.bdiv)
    mat[:, o_p:o_t, o_u:o_p] = (trans_t @ blocks.bdiv).swapaxes(1, 2)
    return mat


def _eliminate_private(mat, n_d, n_load, cells):
    """Schur complements of stacked direct cell blocks on their kept dofs.

    The first n_d dofs of each block are private to its cell, and the
    last n_load of them carry load.  Their block A_dd is factored once
    per class; cells[i] names the class of mat[i] if it is singular.
    With E the identity columns of the loaded private rows, returns:

    * the Schur complements A_kk - A_kd A_dd^-1 A_dk on the kept dofs,
      every entry kept;
    * the load maps -A_kd A_dd^-1 E, which take a cell's private load b
      to the kept rows of the right-hand side;
    * the recovery matrices A_dd^-1 [A_dk, E], with x_d = A_dd^-1 (b -
      A_dk x_k) their product with [-x_k, b].
    """
    n_k = mat.shape[1] - n_d
    private = factor_classes(mat[:, :n_d, :n_d], cells, "private block")
    rhs = np.zeros((len(mat), n_d, n_k + n_load))
    rhs[:, :, :n_k] = mat[:, :n_d, n_d:]
    rhs[:, n_d - n_load + np.arange(n_load), n_k + np.arange(n_load)] = 1.0
    rec = private.solve(rhs)
    schur = -(mat[:, n_d:, :n_d] @ rec)
    schur[:, :, :n_k] += mat[:, n_d:, n_d:]
    return schur[:, :, :n_k], schur[:, :, n_k:], rec


def _power_of_two_scales(idx, vals, n):
    """Per index, the power of two that brings its largest |val| into [0.5, 1).

    Scaling by powers of two is exact, so it changes no entry's digits.
    """
    top = np.zeros(n)
    np.maximum.at(top, idx, np.abs(vals))
    return np.ldexp(1.0, -np.frexp(top)[1])


def solve_direct(spaces, nu, gamma, f_func, g_func):
    """Monolithic solve of the uncondensed system; cross-check oracle.

    Unknowns: broken gradient rows, divergence-conforming velocity in
    nodal form, broken pressure, and tangential facet traces on interior
    facets.  The unknowns private to a cell, its gradient rows and its
    interior velocity moments, couple only within the cell; they are
    eliminated cell by cell before the sparse solve, their load
    condensed onto the kept rows, and recovered from the kept unknowns
    and their load after it.  The cell blocks, their private blocks and
    the eliminations are formed for all classes as one stack.  The
    sparse system holds the facet velocity moments, all the pressures
    and the traces, and is equilibrated by power-of-two row and column
    scales.  The mean of the mass source, in closed form, is removed from
    the pressure rows, which makes the constant-test rows sum to zero;
    the last cell's constant pressure coefficient is pinned to zero in
    place of its constant-test row.  After the solve the constant
    coefficients are shifted so that p has zero mean.  Cell blocks are
    scattered one block of cells at a time.
    """
    mesh = spaces.mesh
    fam = spaces.family
    nc = mesh.num_cells
    kk = fam.n_facet
    nfc = fam.n_cell_facets
    n_g, n_v, n_q = fam.n_g, fam.n_v, fam.n_q
    n_fv = nfc * kk
    n_l = 2 * n_g
    n_int = fam.n_v_interior

    # the facet velocity moments and the traces share one numbering
    fd = spaces.facet_dofs
    o_p = len(mesh.interior_facets) * kk
    o_t = o_p + nc * n_q
    n_sys = o_t + o_p
    q0v = _constant_pressure_value(spaces)
    blocks = element_blocks(spaces, spaces.class_rep, nu, gamma)
    trans = spaces.class_nodal_transforms()
    mats, load, rec = _eliminate_private(
        _direct_cell_matrix(blocks, trans, fam), n_l + n_int, n_int,
        blocks.cells)
    # per cell: facet velocity, pressure and trace rows of the sparse system
    kept = np.hstack([fd, o_p + np.arange(nc * n_q).reshape(nc, n_q),
                      np.where(fd >= 0, o_t + fd, -1)])

    triplets = []
    rhs = np.zeros(n_sys)
    gmom = np.zeros((nc, n_q))
    # the load of the interior velocity rows
    f_int = np.zeros((nc, n_int))
    qint = blocks.qint[spaces.cell_class]
    load_t = load.swapaxes(1, 2)
    for cells in spaces.cell_blocks():
        cls = spaces.cell_class[cells]
        triplets.append(block_triplets(kept[cells], mats[cls]))

        fmom, gmom[cells], _ = _data_moments(spaces, cells, f_func, g_func)
        f_nodal = _class_rows(fmom, trans, cls)
        f_int[cells] = f_nodal[:, n_fv:]
        f_kept = _class_rows(f_int[cells], load_t, cls)
        f_kept[:, :n_fv] += f_nodal[:, :n_fv]
        kc = kept[cells]
        keep = kc >= 0
        np.add.at(rhs, kc[keep], f_kept[keep])

    # the constant-test rows sum to int g (the divergence terms cancel, and
    # the interior moments have no flux), so remove the mean of g; the
    # last cell's constant-test row is then redundant and carries the pin
    # of its constant coefficient
    mean_mult = float(gmom[:, 0].sum() / qint[:, 0].sum())
    rhs[o_p:o_t] += (gmom - mean_mult * qint).ravel()
    pin = o_p + (nc - 1) * n_q
    rhs[pin] = 0.0
    rows, cols, vals = (np.concatenate(a) for a in zip(*triplets))
    free = rows != pin
    rows = np.append(rows[free], pin)
    cols = np.append(cols[free], pin)
    vals = np.append(vals[free], 1.0)
    # equilibrate: on 8x8 quads at k=1 the sparse system has condition
    # number 7.9e6 unscaled and 8.5e2 scaled
    rscale = _power_of_two_scales(rows, vals, n_sys)
    vals = vals * rscale[rows]
    cscale = _power_of_two_scales(cols, vals, n_sys)
    builder = SparseBuilder(n_sys, n_sys)
    builder.add(rows, cols, vals * cscale[cols])
    sol = cscale * sparse_solve(builder, rscale * rhs)

    l = np.zeros((nc, 2, n_g))
    u = np.zeros((nc, n_v))
    ustar = np.zeros((nc, 2, fam.n_post))
    post = postprocess_factor(blocks)
    sol_pad = np.append(sol, 0.0)
    rec_t, trans_t = rec.swapaxes(1, 2), trans.swapaxes(1, 2)
    for cells in spaces.cell_blocks():
        cls = spaces.cell_class[cells]
        x_k = sol_pad[kept[cells]]
        x_d = _class_rows(np.hstack([-x_k, f_int[cells]]), rec_t, cls)
        l[cells] = x_d[:, :n_l].reshape(-1, 2, n_g)
        u[cells] = _class_rows(np.hstack([x_k[:, :n_fv], x_d[:, n_l:]]),
                               trans_t, cls)
        ustar[cells] = postprocess_velocity(post, cls, l[cells], u[cells])
    p = sol[o_p:o_t].reshape(nc, n_q).copy()
    p[:, 0] -= np.einsum("ci,ci->", p, qint) / qint[:, 0].sum()
    uhat_t = sol[o_t:]
    uhat_n = (sol[:o_p].reshape(-1, kk)
              / mesh.facet_lengths[mesh.interior_facets, None]).ravel()

    return SolutionFields(
        k=spaces.k, cell_kind=mesh.cell_kind, l=l, u=u, p=p,
        lam=np.zeros((nc, nfc * kk)), uhat_t=uhat_t, uhat_n=uhat_n,
        pbar=p[:, 0] * q0v, mean_mult=mean_mult, ustar=ustar,
        n_global=n_sys, n_local=0)


def compare_fields(spaces, fa, fb):
    """L2 distances between two solutions; keys dl, du, dp, dut.

    The differences are pushed forward per cell at the assembly degree.
    """
    dl2 = du2 = dp2 = 0.0
    ref = spaces.tab()
    for cells in spaces.cell_blocks():
        w = np.outer(spaces.dets[cells], ref.w)
        dl = spaces.piola(cells, reference_fields(fa.l[cells] - fb.l[cells],
                                                  ref.g))
        dl2 += float(np.einsum("eqrc,eqrc,eq->", dl, dl, w))
        du = spaces.piola(cells, reference_fields(fa.u[cells] - fb.u[cells],
                                                  ref.v))
        du2 += float(np.einsum("eqr,eqr,eq->", du, du, w))
        dp = (fa.p[cells] - fb.p[cells]) @ ref.q_vals
        dp2 += float(np.einsum("eq,eq,eq->", dp, dp, w))
    mesh = spaces.mesh
    dt = (fa.uhat_t - fb.uhat_t).reshape(len(mesh.interior_facets),
                                         spaces.family.n_facet)
    dut2 = float(mesh.facet_lengths[mesh.interior_facets]
                 @ np.einsum("fj,fj->f", dt, dt))
    return {"dl": np.sqrt(dl2), "du": np.sqrt(du2),
            "dp": np.sqrt(dp2), "dut": np.sqrt(dut2)}


def mass_balance_residual(spaces, fields, g_func):
    """Max cell residual of the divergence moments against the source.

    The divergence moments (q_i, div v_m) take no geometry
    (`ReferenceTab.bdiv`); the source moments are taken on the fine rule.
    """
    bdiv = spaces.tab().bdiv
    ref = spaces.family.reference_tab(spaces.fine_degree)
    worst = []
    for cells in spaces.cell_blocks():
        gv = values_at(g_func, spaces.vol_points(cells))
        gmom = (gv * np.outer(spaces.dets[cells], ref.w)) @ ref.q_vals.T
        res = fields.u[cells] @ bdiv - gmom
        worst.append(np.abs(res).max())
    # np.max keeps a NaN, which Python's max may drop
    return float(np.max(worst))


def pressure_integral(spaces, fields):
    """Integral of the pressure: each cell's det times the reference
    integrals of the pressure basis."""
    return float(spaces.dets @ (fields.p @ spaces.tab().qint))


def evaluate_fields(spaces, fields, points):
    """Point values of velocity, pressure, gradient, postprocessed velocity.

    Each field is combined from the coefficients and the basis values at
    the pulled-back points, then pushed forward (`Spaces.piola`).
    """
    fam = spaces.family
    pts = np.atleast_2d(np.asarray(points, float))
    cells = locate_cell(spaces.mesh, pts)
    ref = np.einsum("pij,pj->pi", spaces.inverse_jacobians[cells],
                    pts - spaces.offsets[cells])
    u = np.einsum("pm,mrp->pr", fields.u[cells], fam.v.tabulate(ref))
    l = np.einsum("pra,acp->prc", fields.l[cells], fam.g_row.tabulate(ref))
    return {"u": spaces.piola(cells, u),
            "p": np.einsum("pi,ip->p", fields.p[cells], fam.q.tabulate(ref)),
            "l": spaces.piola(cells, l),
            "ustar": np.einsum("pri,ip->pr", fields.ustar[cells],
                               fam.post.tabulate(ref))}


def write_solution_text(path, spaces, fields):
    """Plain-text dump of all coefficient arrays, reproducible ordering."""
    with open(path, "w") as fh:
        fh.write(f"cell_kind {fields.cell_kind} k {fields.k} "
                 f"cells {spaces.mesh.num_cells}\n")
        for name, arr in (("l", fields.l), ("u", fields.u), ("p", fields.p),
                          ("lam", fields.lam), ("ustar", fields.ustar)):
            flat = np.asarray(arr).reshape(arr.shape[0], -1)
            fh.write(f"field {name} shape {arr.shape}\n")
            for c in range(flat.shape[0]):
                fh.write(" ".join(f"{v:.16e}" for v in flat[c]) + "\n")
        for name, arr in (("uhat_t", fields.uhat_t),
                          ("uhat_n", fields.uhat_n),
                          ("pbar", fields.pbar)):
            fh.write(f"field {name} shape {arr.shape}\n")
            fh.write(" ".join(f"{v:.16e}" for v in np.asarray(arr)) + "\n")
