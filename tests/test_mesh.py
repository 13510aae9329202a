"""Mesh construction, facet connectivity, and geometry queries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affine_maps import affine_map, checkerboard_triangles, holed_quads
from brinkhdg.mesh import (QUAD, TRIANGLE, Mesh, build_structured_mesh,
                           locate_cell, perturbed_triangles)
from brinkhdg.refelem import REFERENCE_CELLS, SIMPLEX, SQUARE


def facets_by_loop(vertices, cells):
    """Facet connectivity and geometry from a walk over every cell's edge
    loop, numbering facets by first appearance: the reference for
    `Mesh`."""
    nc, npc = cells.shape
    edge_ids = {}
    fverts, fcells = [], []
    cell_facets = np.empty((nc, npc), dtype=int)
    for c in range(nc):
        for le in range(npc):
            a, b = int(cells[c, le]), int(cells[c, (le + 1) % npc])
            key = (a, b) if a < b else (b, a)
            fid = edge_ids.get(key)
            if fid is None:
                fid = edge_ids[key] = len(fverts)
                fverts.append(key)
                fcells.append([c, -1])
            else:
                if fcells[fid][1] != -1:
                    raise ValueError("facet shared by more than two cells")
                fcells[fid][1] = c
            cell_facets[c, le] = fid
    fverts = np.array(fverts, dtype=int)
    fcells = np.array(fcells, dtype=int)
    swap = (fcells[:, 1] != -1) & (fcells[:, 1] < fcells[:, 0])
    fcells[swap] = fcells[swap][:, ::-1]
    p0, p1 = vertices[fverts[:, 0]], vertices[fverts[:, 1]]
    d = p1 - p0
    lengths = np.hypot(d[:, 0], d[:, 1])
    tangents = d / lengths[:, None]
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    mids = 0.5 * (p0 + p1)
    centroid = vertices[cells[fcells[:, 0]]].mean(axis=1)
    normals[np.einsum("fi,fi->f", normals, mids - centroid) < 0.0] *= -1.0
    signs = np.where(fcells[:, 0][cell_facets] == np.arange(nc)[:, None],
                     1, -1).astype(np.int8)
    return {"cell_facets": cell_facets, "facet_vertices": fverts,
            "facet_cells": fcells, "facet_normals": normals,
            "facet_tangents": tangents, "facet_lengths": lengths,
            "cell_facet_signs": signs}


def structured_cells_by_loop(n, kind):
    """Cells of build_structured_mesh from a loop over the squares (i, j)."""
    cells = []
    for j in range(n):
        for i in range(n):
            v00, v10 = j * (n + 1) + i, j * (n + 1) + i + 1
            v11, v01 = v10 + n + 1, v00 + n + 1
            if kind == QUAD:
                cells.append((v00, v10, v11, v01))
            else:
                cells += [(v00, v10, v11), (v00, v11, v01)]
    return np.array(cells)


def test_facets_match_edge_loop_walk():
    meshes = [build_structured_mesh(n, kind) for n in (1, 2, 5)
              for kind in (QUAD, TRIANGLE)]
    for mesh in meshes:
        n = int(round(np.sqrt(mesh.num_cells // (2 if mesh.cell_kind
                                                  == TRIANGLE else 1))))
        want = structured_cells_by_loop(n, mesh.cell_kind)
        assert mesh.cells.dtype == want.dtype
        assert np.array_equal(mesh.cells, want)
    meshes += [perturbed_triangles(6, 0.2, seed=3),
               holed_quads(6, [(1, 1), (4, 3)])]
    # a relabelled mesh: facets met in another order than their vertices
    base = build_structured_mesh(4, TRIANGLE)
    perm = np.random.default_rng(0).permutation(base.num_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    meshes.append(Mesh(vertices, perm[base.cells], TRIANGLE))
    for mesh in meshes:
        for name, want in facets_by_loop(mesh.vertices, mesh.cells).items():
            got = getattr(mesh, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


def test_facet_of_three_cells_rejected():
    # a fan of three triangles around the edge from vertex 0 to vertex 1
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                [0.6, 2.0]]
    cells = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
    with pytest.raises(ValueError, match="^facet shared by more than two "
                                         "cells$"):
        Mesh(vertices, cells, TRIANGLE)
    with pytest.raises(ValueError, match="^facet shared by more than two "
                                         "cells$"):
        facets_by_loop(np.array(vertices), np.array(cells))


def test_structured_counts():
    mesh = build_structured_mesh(2, QUAD)
    assert mesh.num_cells == 4
    assert mesh.num_vertices == 9
    assert mesh.num_facets == 12
    assert len(mesh.interior_facets) == 4
    assert len(mesh.boundary_facets) == 8

    mesh = build_structured_mesh(2, TRIANGLE)
    assert mesh.num_cells == 8
    assert mesh.num_vertices == 9
    assert mesh.num_facets == 16
    assert len(mesh.interior_facets) == 8


def test_euler_formula():
    # V - E + F = 1 for a disk-like planar subdivision
    for kind in (QUAD, TRIANGLE):
        for n in (1, 2, 3, 5):
            mesh = build_structured_mesh(n, kind)
            assert mesh.num_vertices - mesh.num_facets + mesh.num_cells == 1


def test_facet_vertex_order_canonical():
    mesh = build_structured_mesh(3, TRIANGLE)
    assert np.all(mesh.facet_vertices[:, 0] < mesh.facet_vertices[:, 1])


def test_owner_is_lower_cell():
    for kind in (QUAD, TRIANGLE):
        mesh = build_structured_mesh(3, kind)
        own, nbr = mesh.facet_cells[:, 0], mesh.facet_cells[:, 1]
        inter = mesh.interior_facets
        assert np.all(own[inter] < nbr[inter])
        assert np.all(nbr[mesh.boundary_facets] == -1)


def test_normals_unit_and_outward_from_owner():
    for kind in (QUAD, TRIANGLE):
        mesh = build_structured_mesh(3, kind)
        nrm = mesh.facet_normals
        assert np.allclose(np.hypot(nrm[:, 0], nrm[:, 1]), 1.0)
        # rotating the tangent by -90 degrees gives +-normal
        rot = np.column_stack([mesh.facet_tangents[:, 1],
                               -mesh.facet_tangents[:, 0]])
        assert np.allclose(np.abs(np.einsum("fi,fi->f", rot, nrm)), 1.0)
        for f in range(mesh.num_facets):
            owner = mesh.facet_cells[f, 0]
            centroid = mesh.vertices[mesh.cells[owner]].mean(axis=0)
            assert nrm[f] @ (mesh.facet_midpoints[f] - centroid) > 0.0


def test_cell_facets_follow_edge_loop():
    for kind in (QUAD, TRIANGLE):
        mesh = build_structured_mesh(2, kind)
        npc = mesh.facets_per_cell
        for c in range(mesh.num_cells):
            loop = mesh.cells[c]
            for le in range(npc):
                f = mesh.cell_facets[c, le]
                edge = {loop[le], loop[(le + 1) % npc]}
                assert set(mesh.facet_vertices[f]) == edge


def test_cell_facet_signs_give_outward_normals():
    for kind in (QUAD, TRIANGLE):
        mesh = build_structured_mesh(3, kind)
        for c in range(mesh.num_cells):
            centroid = mesh.vertices[mesh.cells[c]].mean(axis=0)
            for le in range(mesh.facets_per_cell):
                f = mesh.cell_facets[c, le]
                outward = mesh.cell_facet_signs[c, le] * mesh.facet_normals[f]
                assert outward @ (mesh.facet_midpoints[f] - centroid) > 0.0


def test_each_interior_facet_seen_by_both_cells():
    mesh = build_structured_mesh(4, TRIANGLE)
    for f in mesh.interior_facets:
        a, b = mesh.facet_cells[f]
        assert f in mesh.cell_facets[a]
        assert f in mesh.cell_facets[b]
        # the two cells see opposite orientations
        sa = mesh.cell_facet_signs[a][list(mesh.cell_facets[a]).index(f)]
        sb = mesh.cell_facet_signs[b][list(mesh.cell_facets[b]).index(f)]
        assert sa * sb == -1


def test_interior_index_round_trip():
    mesh = build_structured_mesh(3, QUAD)
    for rank, f in enumerate(mesh.interior_facets):
        assert mesh.interior_index[f] == rank
    assert np.all(mesh.interior_index[mesh.boundary_facets] == -1)


def test_affine_map_round_trip_and_area():
    for kind, ref, per_cell in ((QUAD, SQUARE, 1.0 / 9.0),
                                (TRIANGLE, SIMPLEX, 1.0 / 18.0)):
        mesh = build_structured_mesh(3, kind)
        measure = REFERENCE_CELLS[ref].measure
        areas = [affine_map(mesh, c).det * measure
                 for c in range(mesh.num_cells)]
        assert sum(areas) == pytest.approx(1.0, rel=1e-14)
        for c in range(mesh.num_cells):
            assert areas[c] == pytest.approx(per_cell, rel=1e-14)
            amap = affine_map(mesh, c)
            ref = np.array([[0.1, 0.2], [0.5, 0.25], [0.0, 0.0]])
            assert np.allclose(amap.pull_back(amap.apply(ref)), ref)
            assert np.allclose(amap.inverse_jacobian @ amap.jacobian, np.eye(2))


def test_vertex_maps_to_vertex():
    mesh = build_structured_mesh(2, TRIANGLE)
    amap = affine_map(mesh, 3)
    verts = mesh.vertices[mesh.cells[3]]
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(amap.apply(ref), verts)


def test_facet_lengths():
    mesh = build_structured_mesh(4, TRIANGLE)
    lengths = mesh.facet_lengths
    straight = np.isclose(lengths, 0.25)
    diagonal = np.isclose(lengths, 0.25 * np.sqrt(2.0))
    assert np.all(straight | diagonal)
    assert diagonal.sum() == 16


def test_facet_geometry_view():
    mesh = build_structured_mesh(2, QUAD)
    assert mesh.facet_lengths[0] == pytest.approx(0.5)
    assert np.allclose(mesh.facet_midpoints[0],
                       mesh.vertices[mesh.facet_vertices[0]].mean(axis=0))


def test_non_parallelogram_quad_rejected():
    verts = [(0, 0), (1, 0), (1.2, 1), (0, 1)]
    mesh = Mesh(verts, [(0, 1, 2, 3)], QUAD)
    with pytest.raises(ValueError, match="parallelogram"):
        affine_map(mesh, 0)


def test_inverted_cell_rejected():
    verts = [(0, 0), (0, 1), (1, 0)]  # clockwise
    mesh = Mesh(verts, [(0, 1, 2)], TRIANGLE)
    with pytest.raises(ValueError, match="degenerate or inverted"):
        affine_map(mesh, 0)


def test_bad_construction_args():
    with pytest.raises(ValueError):
        build_structured_mesh(0, QUAD)
    with pytest.raises(ValueError):
        build_structured_mesh(2, "hex")
    with pytest.raises(ValueError):
        Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], QUAD)  # 3 vertices per quad


def corrupted_inputs(mesh):
    """(vertices, cells, expected message) of one corruption each of a
    valid mesh's arrays."""
    v, c = mesh.vertices.copy(), mesh.cells.copy()
    nv = len(v)
    nan_v, inf_v = v.copy(), v.copy()
    nan_v[nv // 2, 1] = np.nan
    inf_v[nv - 1, 0] = np.inf
    neg, high, top = c.copy(), c.copy(), c.copy()
    neg[1, 2] = -1
    high[2, 0] = nv
    top[3, 1] = nv + 7
    half = c + 0.5
    partly = c.astype(float)
    partly[1, 1] += 0.25
    return [
        (nan_v, c, rf"vertex {nv // 2} is not finite"),
        (inf_v, c, rf"vertex {nv - 1} is not finite"),
        (np.hstack([v, np.zeros((nv, 1))]), c,
         r"vertex array must have shape \(nv, 2\), not \({nv}, 3\)".format(
             nv=nv)),
        (v[:, 0], c, r"vertex array must have shape \(nv, 2\)"),
        (v, half, r"must be integers: entry 0 is 0\.5 \(float64\)"),
        (v, partly, rf"must be integers: entry {c.shape[1] + 1} is "),
        (v, np.full(c.shape, np.nan), r"must be integers: entry 0 is nan"),
        (v, c.astype(bool), r"must be integers: entry 0 is False \(bool\)"),
        (v, neg, rf"cell 1 has vertex indices .*, outside \[0, {nv}\)"),
        (v, high, rf"cell 2 has vertex indices .*, outside \[0, {nv}\)"),
        (v, top, rf"cell 3 has vertex indices .*, outside \[0, {nv}\)"),
    ]


def test_bad_vertices_and_cell_indices_named_before_facets():
    # a NaN vertex, a wrong vertex shape, non-integral cell indices and
    # indices outside [0, nv) fail in Mesh with the cause named, rather
    # than as a wrapped index, a truncation or a numpy error downstream
    meshes = [build_structured_mesh(2, QUAD),
              build_structured_mesh(3, TRIANGLE),
              perturbed_triangles(4, 0.2, seed=1),
              holed_quads(4, [(1, 1), (2, 2)])]
    for mesh in meshes:
        for vertices, cells, message in corrupted_inputs(mesh):
            with pytest.raises(ValueError, match=message):
                Mesh(vertices, cells, mesh.cell_kind)
        # integral floats and lists are still accepted, and give the mesh
        again = Mesh(mesh.vertices.tolist(), mesh.cells.astype(float),
                     mesh.cell_kind)
        assert np.array_equal(again.cells, mesh.cells)
        assert np.array_equal(again.facet_vertices, mesh.facet_vertices)


def cut_in_two(mesh, n, column):
    """Vertices and cells of a structured or perturbed n x n mesh with the
    cells right of vertex column `column` given their own copies of the
    vertices on it: two parts that touch but share no facet."""
    i = np.arange(mesh.num_vertices) % (n + 1)
    on_line = np.flatnonzero(i == column)
    copy = np.arange(mesh.num_vertices)
    copy[on_line] = mesh.num_vertices + np.arange(len(on_line))
    right = (i[mesh.cells] >= column).all(axis=1)
    cells = mesh.cells.copy()
    cells[right] = copy[cells[right]]
    return np.vstack([mesh.vertices, mesh.vertices[on_line]]), cells


def split_at_facet(mesh, facet):
    """Vertices and cells with the owner of an interior facet split in two
    through the facet's midpoint, which hangs on the facet of the
    neighbour; a quad is split through the opposite facet's midpoint too.
    The new vertices are numbered from num_vertices."""
    cell = mesh.facet_cells[facet, 0]
    lf = int(np.argmax(mesh.cell_facets[cell] == facet))
    vs = np.roll(mesh.cells[cell], -lf)
    nv = mesh.num_vertices
    if mesh.cell_kind == TRIANGLE:
        new = [0.5 * (mesh.vertices[vs[0]] + mesh.vertices[vs[1]])]
        halves = [[vs[0], nv, vs[2]], [nv, vs[1], vs[2]]]
    else:
        new = [0.5 * (mesh.vertices[vs[0]] + mesh.vertices[vs[1]]),
               0.5 * (mesh.vertices[vs[2]] + mesh.vertices[vs[3]])]
        halves = [[vs[0], nv, nv + 1, vs[3]], [nv, vs[1], vs[2], nv + 1]]
    cells = mesh.cells.copy()
    cells[cell] = halves[0]
    return (np.vstack([mesh.vertices, new]),
            np.vstack([cells, [halves[1]]]))


@st.composite
def corrupted_mesh(draw):
    """A valid structured or perturbed mesh and one corruption of it:
    (vertices, cells, cell kind, expected message)."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("quad", "triangle", "checkerboard",
                                 "perturbed")))
    if kind == "perturbed":
        mesh = perturbed_triangles(n, 0.2, draw(st.integers(0, 2**32 - 1)))
    elif kind == "quad":
        mesh = build_structured_mesh(n, QUAD)
    elif kind == "triangle":
        mesh = build_structured_mesh(n, TRIANGLE)
    else:
        mesh = checkerboard_triangles(n)
    nv = mesh.num_vertices
    which = draw(st.sampled_from(("array", "cut", "hanging", "three")))
    if which == "array":
        vertices, cells, message = draw(st.sampled_from(
            corrupted_inputs(mesh)))
    elif which == "cut":
        vertices, cells = cut_in_two(mesh, n, draw(st.integers(1, n - 1)))
        message = "^the cells form 2 parts that share no facet"
    elif which == "hanging":
        facet = draw(st.sampled_from(mesh.interior_facets.tolist()))
        vertices, cells = split_at_facet(mesh, facet)
        message = (rf"^vertex ({nv}|{nv + 1}) lies inside boundary facet "
                   r"\d+ \(vertices \d+ and \d+\): a hanging node")
    else:
        vertices = mesh.vertices
        cells = np.vstack([mesh.cells, mesh.cells[draw(st.integers(
            0, mesh.num_cells - 1))]])
        message = "^facet shared by more than two cells$"
    return vertices, cells, mesh.cell_kind, message


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bad=corrupted_mesh())
def test_one_corruption_named_by_mesh(bad):
    # NaN vertices, bad cell indices, parts joined only at corners, hanging
    # nodes and facets of three cells each fail in Mesh, with the cause
    # named, rather than downstream in a factorization
    vertices, cells, kind, message = bad
    with pytest.raises(ValueError, match=message):
        Mesh(vertices, cells, kind)


def test_bad_meshes_that_used_to_fail_at_factorization_named():
    # both used to fail only in the sparse factorization, "exactly
    # singular": the 2 x 2 triangles with the centre vertex duplicated for
    # the upper half, two halves joined only at corners, and the 2 x 2
    # quads with the lower-left cell split into four
    mesh = build_structured_mesh(2, TRIANGLE)
    cells = mesh.cells.copy()
    upper = mesh.vertices[cells].mean(axis=1)[:, 1] > 0.5
    cells[upper] = np.where(cells[upper] == 4, 9, cells[upper])
    with pytest.raises(ValueError, match="^the cells form 2 parts"):
        Mesh(np.vstack([mesh.vertices, mesh.vertices[4]]), cells, TRIANGLE)
    quads = build_structured_mesh(2, QUAD)
    # midpoints of the lower-left cell's facets, from the bottom one
    # counterclockwise, then its centre
    fine = np.array([[0.25, 0.0], [0.5, 0.25], [0.25, 0.5], [0.0, 0.25],
                     [0.25, 0.25]])
    cells = np.vstack([[[0, 9, 13, 12], [9, 1, 10, 13], [13, 10, 4, 11],
                        [12, 13, 11, 3]], quads.cells[1:]])
    with pytest.raises(ValueError, match=r"^vertex 1[01] lies inside "
                                         r"boundary facet \d+ \(vertices "
                                         r"[134] and [134]\): a hanging node"):
        Mesh(np.vstack([quads.vertices, fine]), cells, QUAD)


def structured_cell(n, kind, p):
    """Cell of build_structured_mesh(n, kind) holding p, by index arithmetic."""
    i, j = min(int(p[0] * n), n - 1), min(int(p[1] * n), n - 1)
    if kind == QUAD:
        return j * n + i
    return 2 * (j * n + i) + int(p[1] * n - j > p[0] * n - i)


def first_containing_cell(refs, kind, p):
    """The per-point loop locate_cell replaces: the first cell whose
    reference coordinates of p lie in the reference cell."""
    for c, amap in enumerate(refs):
        r = amap.pull_back(p[None, :])[0]
        inside = r.min() >= -1e-12 and r.max() <= 1 + 1e-12
        if kind == TRIANGLE:
            inside &= r.sum() <= 1 + 1e-12
        if inside:
            return c
    return None


def test_locate_cell():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    perturbed = perturbed_triangles(5, 0.2, seed=7)
    # a vertex shared by six cells, and a point of a boundary facet
    v = int(np.argmax(((perturbed.vertices > 0)
                       & (perturbed.vertices < 1)).all(axis=1)))
    shared = np.vstack([pts, perturbed.vertices[v], [0.5, 0.0]])
    for mesh in (build_structured_mesh(5, QUAD),
                 build_structured_mesh(5, TRIANGLE), perturbed):
        refs = [affine_map(mesh, c) for c in range(mesh.num_cells)]
        got = locate_cell(mesh, shared)
        assert got.shape == (len(shared),)
        assert list(got) == [first_containing_cell(refs, mesh.cell_kind, p)
                             for p in shared]
    # the shared vertex belongs to the first of its cells
    assert locate_cell(perturbed, perturbed.vertices[v][None])[0] == int(
        np.nonzero((perturbed.cells == v).any(axis=1))[0][0])
    for n, kind in ((5, QUAD), (5, TRIANGLE)):
        mesh = build_structured_mesh(n, kind)
        assert list(locate_cell(mesh, pts)) == [
            structured_cell(n, kind, p) for p in pts]
    with pytest.raises(ValueError, match=r"point \[1\.5 0\. \] outside"):
        locate_cell(build_structured_mesh(2, QUAD), [(0.5, 0.5), (1.5, 0.0)])
    with pytest.raises(ValueError, match="outside the unit square"):
        locate_cell(perturbed_triangles(2, 0.2, seed=7), [(0.5, -0.1)])
    with pytest.raises(ValueError, match=r"shape \(P, 2\)"):
        locate_cell(build_structured_mesh(2, QUAD), (0.5, 0.5))
    # a mesh that leaves part of the unit square uncovered
    half = Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], TRIANGLE)
    with pytest.raises(ValueError, match=r"no cell contains the point \[0\.9"):
        locate_cell(half, [(0.2, 0.2), (0.9, 0.9), (0.95, 0.95)])


def test_arrays_read_only():
    mesh = build_structured_mesh(2, QUAD)
    with pytest.raises(ValueError):
        mesh.facet_normals[0, 0] = 9.0
