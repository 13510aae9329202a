"""Mapped elements, the facet numbering, and the nodal velocity transform."""

import numpy as np
import pytest

from brinkhdg import fespace
from brinkhdg.fespace import (Spaces, element_family, nodal_dof_matrices,
                              normal_trace_jumps, reference_fields)
from brinkhdg.forms import project_grad, project_velocity_div
from brinkhdg.linalg import SingularMatrixError
from affine_maps import affine_map, local_facet, pull_back_tab
from brinkhdg.mesh import (QUAD, TRIANGLE, Mesh, build_structured_mesh,
                           perturbed_triangles)
from brinkhdg.refelem import quadrature


def piola_values(amap, basis, ref_points):
    """Contravariant Piola values (n, 2, q) of a vector basis."""
    return np.einsum("rc,ncq->nrq", amap.jacobian,
                     basis.tabulate(ref_points)) / amap.det


def interpolate_velocity(spaces, func):
    """Nodal interpolant of a smooth field: facet normal moments against the
    facet Legendre basis plus interior moments, then nodal -> modal."""
    mesh = spaces.mesh
    fam = spaces.family
    kk = fam.n_facet
    ref = fam.reference_tab(spaces.fine_degree)
    vol = quadrature(fam.ref_cell.name, spaces.fine_degree)
    seg = quadrature("segment", spaces.fine_degree)
    trans = spaces.class_nodal_transforms()
    out = np.empty((mesh.num_cells, fam.n_v))
    for c in range(mesh.num_cells):
        xf = spaces.facet_points(c)
        alpha = np.empty(fam.n_v)
        for lf in range(fam.n_cell_facets):
            f = mesh.cell_facets[c, lf]
            fn = func(xf[lf]) @ mesh.facet_normals[f]
            alpha[lf * kk:(lf + 1) * kk] = np.einsum(
                "jq,q,q->j", ref.phi, fn,
                seg.weights * mesh.facet_lengths[f])
        if fam.n_int_scalar:
            vals = func(spaces.vol_points(c))
            mom = np.einsum("qr,iq,q->ri", vals, ref.int_div,
                            vol.weights * spaces.dets[c])
            alpha[fam.n_cell_facets * kk:] = mom.ravel()
        out[c] = trans[spaces.cell_class[c]] @ alpha
    return out


def test_family_counts():
    fam = element_family(QUAD, 1)
    assert (fam.n_g, fam.n_v, fam.n_q, fam.n_post) == (8, 10, 3, 6)
    assert fam.n_facet == 2 and fam.n_int_scalar == 1
    fam = element_family(QUAD, 2)
    assert (fam.n_g, fam.n_v, fam.n_q, fam.n_post) == (14, 18, 6, 10)
    fam = element_family(TRIANGLE, 1)
    assert (fam.n_g, fam.n_v, fam.n_q, fam.n_post) == (6, 8, 3, 6)
    fam = element_family(TRIANGLE, 2)
    assert (fam.n_g, fam.n_v, fam.n_q, fam.n_post) == (12, 15, 6, 10)


def test_family_cached():
    assert element_family(QUAD, 1) is element_family(QUAD, 1)


def facet_count(mesh, k):
    fd = Spaces(mesh, k).facet_dofs
    return len(np.unique(fd[fd >= 0]))


def test_dofmap_counts_small_quad():
    mesh = build_structured_mesh(2, QUAD)  # 4 cells, 4 interior facets
    assert facet_count(mesh, 1) == 8


def test_dofmap_counts_small_triangle():
    mesh = build_structured_mesh(2, TRIANGLE)  # 8 cells, 8 interior facets
    assert facet_count(mesh, 1) == 16


def test_facet_dofs_interior_only():
    for n, kind, k, total in ((2, QUAD, 1, 8), (2, TRIANGLE, 1, 16),
                              (3, TRIANGLE, 2, 63)):
        mesh = build_structured_mesh(n, kind)
        kk = k + 1
        fd = Spaces(mesh, k).facet_dofs
        assert fd.shape == (mesh.num_cells, mesh.cell_facets.shape[1] * kk)
        assert not fd.flags.writeable
        per_facet = fd.reshape(mesh.num_cells, -1, kk)
        boundary = np.isin(mesh.cell_facets, mesh.boundary_facets)
        assert np.all(per_facet[boundary] == -1)
        assert np.all(per_facet[~boundary] >= 0)
        assert total == len(mesh.interior_facets) * kk
        assert np.array_equal(np.unique(fd[fd >= 0]), np.arange(total))


def test_v_div0_shares_facet_dofs():
    # the normal velocity moments of a facet are one unknown of both cells
    mesh = build_structured_mesh(2, QUAD)
    fd = Spaces(mesh, 1).facet_dofs
    kk = element_family(QUAD, 1).n_facet
    for f in mesh.interior_facets:
        a, b = mesh.facet_cells[f]
        lfa = list(mesh.cell_facets[a]).index(f)
        lfb = list(mesh.cell_facets[b]).index(f)
        da = fd[a, lfa * kk:(lfa + 1) * kk]
        db = fd[b, lfb * kk:(lfb + 1) * kk]
        assert np.array_equal(da, db)  # one shared dof per facet moment


def test_piola_divergence_theorem():
    # int_K div v = sum_F int_F v . n_out for every mapped velocity function
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(3, kind), 2)
        for c in (0, 4):
            cell, facets = pull_back_tab(spaces, c, spaces.assembly_degree)
            vol = np.einsum("mq,q->m", cell["v_div"], cell["wdet"])
            surf = np.zeros_like(vol)
            for fac in facets:
                surf += np.einsum("mcq,c,q->m", fac["facet_v"],
                                  fac["sign"] * fac["normal"], fac["w"])
            assert np.abs(vol - surf).max() < 1e-12


def test_piola_divergence_scaling():
    # (1/det) div-hat composition: the tabulated divergence matches
    # finite differences of the mapped values
    spaces = Spaces(build_structured_mesh(2, TRIANGLE), 1)
    c = 0
    v_div = pull_back_tab(spaces, c, spaces.assembly_degree)[0]["v_div"]
    amap = affine_map(spaces.mesh, c)
    x = spaces.vol_points(c, spaces.assembly_degree)
    h = 1e-6
    fam = spaces.family
    fd = np.zeros_like(v_div)
    for d in range(2):
        dx = np.zeros(2)
        dx[d] = h
        plus = piola_values(amap, fam.v, amap.pull_back(x + dx))
        minus = piola_values(amap, fam.v, amap.pull_back(x - dx))
        fd += (plus[:, d] - minus[:, d]) / (2 * h)
    assert np.abs(v_div - fd).max() < 1e-5


def test_scalar_map_gradient_chain_rule():
    spaces = Spaces(build_structured_mesh(3, TRIANGLE), 2)
    # numeric check of grad q = J^{-T} grad-hat q-hat at the volume points
    fam = spaces.family
    rule = quadrature(fam.ref_cell.name, spaces.assembly_degree)
    ghat = fam.q.tabulate_grad(rule.points)
    expect = np.einsum("ba,nbq->naq", spaces.inverse_jacobians[1], ghat)
    # verify against finite differences in x
    amap = affine_map(spaces.mesh, 1)
    x = spaces.vol_points(1, spaces.assembly_degree)
    h = 1e-6
    for d in range(2):
        dx = np.zeros(2)
        dx[d] = h
        fp = fam.q.tabulate(amap.pull_back(x + dx))
        fm = fam.q.tabulate(amap.pull_back(x - dx))
        assert np.abs((fp - fm) / (2 * h) - expect[:, d]).max() < 1e-6


def test_facet_tabulation_consistent_with_volume_basis():
    # facet point values are the same Piola functions sampled on the edge
    spaces = Spaces(build_structured_mesh(2, QUAD), 1)
    c = 3
    fam = spaces.family
    amap = affine_map(spaces.mesh, c)
    xf = spaces.facet_points(c, spaces.assembly_degree)
    # the basis as fields of identity coefficients: (1, f, qf, n_v, 2)
    basis = spaces.piola([c], spaces.facet_fields(
        [c], np.eye(fam.n_v)[None], spaces.tab().facet_v))
    for lf in range(fam.n_cell_facets):
        vals = piola_values(amap, fam.v, amap.pull_back(xf[lf]))
        assert np.abs(vals - np.moveaxis(basis[0, lf], 0, -1)).max() < 1e-12


def test_nodal_transform_inverts_dof_matrix():
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(2, kind), 2)
        dof_matrices = nodal_dof_matrices(spaces, spaces.class_rep)
        trans = spaces.class_nodal_transforms()
        for c in range(spaces.mesh.num_cells):
            b = dof_matrices[spaces.cell_class[c]]
            t = trans[spaces.cell_class[c]]
            assert np.abs(b @ t - np.eye(b.shape[0])).max() < 1e-9


def test_singular_nodal_dof_matrix_names_its_cell(monkeypatch):
    spaces = Spaces(perturbed_triangles(3, 0.2, seed=7), 1)
    inner = fespace.nodal_dof_matrices

    def second_singular(spaces, cells):
        b = inner(spaces, cells)
        b[1, -1] = b[1, 0]
        return b

    monkeypatch.setattr(fespace, "nodal_dof_matrices", second_singular)
    rep = spaces.class_rep[1]
    with pytest.raises(SingularMatrixError,
                       match=f"^nodal dof matrix of cell {rep}: dense "
                             "factorization of matrix 1: "):
        spaces.class_nodal_transforms()


def test_interpolant_normal_trace_continuous():
    # facet moments are single valued, so the interpolant of any smooth
    # field is H(div)-conforming even when the field is not polynomial
    def func(x):
        return np.stack([np.sin(x[:, 0] + 2 * x[:, 1]),
                         np.cos(3 * x[:, 0]) * x[:, 1] ** 2], axis=-1)

    for kind in (QUAD, TRIANGLE):
        for k in (1, 2):
            spaces = Spaces(build_structured_mesh(3, kind), k)
            modal = interpolate_velocity(spaces, func)
            jump, _ = normal_trace_jumps(spaces, modal)
            assert jump < 1e-12


def test_interpolant_reproduces_member_fields():
    # a field already in the space is reproduced exactly by the
    # facet + interior moments
    spaces = Spaces(build_structured_mesh(2, TRIANGLE), 1)
    rng = np.random.default_rng(21)
    coef = rng.standard_normal(spaces.family.n_v)
    c = 5
    amap = affine_map(spaces.mesh, c)

    def func(x):
        vals = piola_values(amap, spaces.family.v, amap.pull_back(x))
        return np.einsum("m,mrq->qr", coef, vals)

    modal = interpolate_velocity(spaces, func)
    assert np.abs(modal[c] - coef).max() < 1e-9


def test_geometry_classes_small_on_structured_meshes():
    for kind in (QUAD, TRIANGLE):
        for n in (3, 5):
            spaces = Spaces(build_structured_mesh(n, kind), 1)
            assert len(spaces.class_rep) <= 8
            # the reference tabulation at the assembly degree, made once;
            # one nodal transform per class
            tabs = spaces.tab()
            assert spaces.tab() is tabs
            assert tabs is spaces.family.reference_tab(spaces.assembly_degree)
            assert (spaces.class_nodal_transforms().shape[0]
                    == len(spaces.class_rep))
            with pytest.raises(TypeError):
                spaces.tab(0)


def test_quadrature_degree_floors():
    mesh = build_structured_mesh(2, QUAD)
    spaces = Spaces(mesh, 1)
    assert spaces.assembly_degree == 4
    assert spaces.fine_degree == 8
    assert Spaces(mesh, 1, fine_degree=3).fine_degree == 8
    assert Spaces(mesh, 1, fine_degree=11).fine_degree == 11
    # 2k+2 is exact on affine cells, so no keyword raises it
    with pytest.raises(TypeError):
        Spaces(mesh, 1, assembly_degree=9)


def test_point_helpers_take_degree_zero_as_given():
    # degree 0 is the one-point rule, not the fine rule of 25 volume and
    # 5 segment points
    spaces = Spaces(build_structured_mesh(2, QUAD), 1)
    assert spaces.vol_points(0).shape == (25, 2)
    assert spaces.vol_points(0, 0).shape == (1, 2)
    assert spaces.facet_points(0, 0).shape == (4, 1, 2)
    assert spaces.points_on_facets([0], 0).shape == (1, 1, 2)
    assert np.allclose(spaces.vol_points(0, 0), [[0.25, 0.25]])


def test_vol_points_match_affine_map():
    spaces = Spaces(build_structured_mesh(3, TRIANGLE), 1)
    c = 7
    x = spaces.vol_points(c, spaces.assembly_degree)
    rule = quadrature(spaces.family.ref_cell.name, spaces.assembly_degree)
    assert np.allclose(x, affine_map(spaces.mesh, c).apply(rule.points))


def test_facet_points_run_p0_to_p1():
    mesh = build_structured_mesh(2, QUAD)
    spaces = Spaces(mesh, 1)
    c = 0
    seg = quadrature("segment", spaces.assembly_degree)
    xf = spaces.facet_points(c, spaces.assembly_degree)
    for lf in range(spaces.family.n_cell_facets):
        f = mesh.cell_facets[c, lf]
        p0, p1 = mesh.vertices[mesh.facet_vertices[f]]
        expect = p0 + seg.points[:, :1] * (p1 - p0)
        assert np.allclose(xf[lf], expect)
        h = mesh.facet_lengths[f]
        assert np.allclose((seg.weights * h).sum(), h)


def test_class_cells_partition_cells(monkeypatch):
    # the blocks cut the class-sorted cells every BLOCK_CELLS cells,
    # whatever their classes
    monkeypatch.setattr(fespace, "BLOCK_CELLS", 5)
    for mesh in (build_structured_mesh(4, TRIANGLE),
                 perturbed_triangles(3, 0.2, seed=7)):
        spaces = Spaces(mesh, 1)
        blocks = list(spaces.cell_blocks())
        assert [len(cells) for cells in blocks[:-1]] == [5] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= 5
        order = np.concatenate(blocks)
        assert (np.diff(spaces.cell_class[order]) >= 0).all()
        assert (np.sort(order) == np.arange(mesh.num_cells)).all()
        mixed = [len(np.unique(spaces.cell_class[cells])) for cells in blocks]
        assert max(mixed) > 1


def test_points_of_a_cell_array_stack_per_cell_points():
    spaces = Spaces(perturbed_triangles(3, 0.2, seed=7), 2)
    cells = np.array([4, 0, 11, 4])
    assert len(np.unique(spaces.cell_class[cells])) > 1
    for degree in (None, spaces.assembly_degree):
        rule = quadrature(spaces.family.ref_cell.name, degree or spaces.fine_degree)
        seg = quadrature("segment", degree or spaces.fine_degree)
        batch = spaces.vol_points(cells, degree)
        assert batch.shape == (len(cells),) + rule.points.shape
        facet_batch = spaces.facet_points(cells, degree)
        assert facet_batch.shape == (len(cells), spaces.family.n_cell_facets,
                                     len(seg.points), 2)
        for i, c in enumerate(cells):
            assert (batch[i] == spaces.vol_points(c, degree)).all()
            assert (facet_batch[i] == spaces.facet_points(c, degree)).all()


def test_cell_array_of_mixed_classes_accepted():
    spaces = Spaces(build_structured_mesh(2, TRIANGLE), 1)
    assert spaces.cell_class[0] != spaces.cell_class[1]

    def grad_field(x):
        return np.ones(x.shape[:-1] + (2, 2))

    def field(x):
        return np.stack([x[..., 0] * x[..., 1], np.cos(x[..., 0])], axis=-1)

    for project, func in ((project_grad, grad_field),
                          (project_velocity_div, field)):
        coef = project(spaces, np.array([0, 1]), func)
        for i in range(2):
            assert (coef[i] == project(spaces, i, func)).all()
        empty = project(spaces, np.array([], dtype=int), func)
        assert empty.shape == (0,) + coef.shape[1:]


def test_local_facet_lookup():
    mesh = build_structured_mesh(2, QUAD)
    c = 1
    f = int(mesh.cell_facets[c, 2])
    assert local_facet(mesh, c, f) == 2
    with pytest.raises(ValueError):
        local_facet(mesh, 0, 9999)


def assert_close(got, want, what):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert got.shape == want.shape, what
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale, what


def test_reference_tabulation_matches_pull_back():
    # the cached reference values pushed forward per cell equal a direct
    # tabulation at pulled-back points, on facets run either way, at the
    # assembly degree and at the fine one
    meshes = [perturbed_triangles(3, 0.2, seed=7),
              build_structured_mesh(3, QUAD)]
    for mesh in meshes:
        for k in (1, 2):
            spaces = Spaces(mesh, k)
            fam = spaces.family
            directions = set()
            for rep in spaces.class_rep:
                loop = mesh.cells[rep]
                directions |= {bool(loop[a] > loop[b])
                               for a, b in fam.ref_cell.facets}
                cells = np.array([rep])
                for degree in (spaces.assembly_degree, spaces.fine_degree):
                    ref = fam.reference_tab(degree)
                    cell, facets = pull_back_tab(spaces, rep, degree)

                    def pushed(basis):
                        # the basis as fields of identity coefficients,
                        # pushed forward; (n, 2, q) like pull_back_tab's
                        n = len(basis)
                        vals = spaces.piola(cells, reference_fields(
                            np.eye(n)[None], basis))
                        return np.moveaxis(vals[0], 0, -1)

                    got = {"g": pushed(ref.g), "v": pushed(ref.v),
                           "q_vals": ref.q_vals, "post": ref.post,
                           "int_div": ref.int_div}
                    for name, val in got.items():
                        assert_close(val, cell[name],
                                     (mesh.cell_kind, k, rep, degree, name))
                    for name, basis in (("facet_g", ref.facet_g),
                                        ("facet_v", ref.facet_v)):
                        n = basis.shape[2]
                        vals = spaces.piola(cells, spaces.facet_fields(
                            cells, np.eye(n)[None], basis))[0]
                        for lf, fac in enumerate(facets):
                            assert_close(np.moveaxis(vals[lf], 0, -1),
                                         fac[name], (mesh.cell_kind, k, rep,
                                                     degree, lf, name))
                    for fac in facets:
                        assert_close(ref.phi, fac["phi"], (rep, "phi"))
            assert directions == {False, True}


def per_cell_classes(spaces):
    """Geometry classes from a byte key per cell, in first-appearance order."""
    mesh = spaces.mesh
    keys = {}
    cell_class = np.empty(mesh.num_cells, dtype=int)
    for c in range(mesh.num_cells):
        am = affine_map(mesh, c)
        parts = [np.round(am.jacobian, 12).tobytes()]
        for lf in range(spaces.family.n_cell_facets):
            f = mesh.cell_facets[c, lf]
            v0, v1 = mesh.facet_vertices[f]
            parts.append(bytes([int(mesh.cell_facet_signs[c, lf]) + 2]))
            parts.append(np.round(mesh.vertices[v0] - am.offset, 12).tobytes())
            parts.append(np.round(mesh.vertices[v1] - am.offset, 12).tobytes())
        cell_class[c] = keys.setdefault(b"".join(parts), len(keys))
    return cell_class


def test_geometry_classes_match_per_cell_keys():
    for mesh in (build_structured_mesh(4, QUAD),
                 build_structured_mesh(5, TRIANGLE),
                 perturbed_triangles(3, 0.2, seed=3)):
        spaces = Spaces(mesh, 1)
        want = per_cell_classes(spaces)
        assert (spaces.cell_class == want).all()
        assert spaces.class_rep == [int(np.argmax(want == cls))
                                    for cls in range(want.max() + 1)]
        for c in (0, mesh.num_cells - 1):
            ref = affine_map(mesh, c)
            for got, name in ((spaces.offsets, "offset"),
                              (spaces.jacobians, "jacobian"),
                              (spaces.dets, "det"),
                              (spaces.inverse_jacobians, "inverse_jacobian")):
                assert np.array_equal(got[c], getattr(ref, name))


def test_spaces_name_the_first_bad_cell():
    # a strip of three quads; the last is a trapezoid
    vertices = [[0, 0], [1, 0], [2, 0], [3, 0], [0, 1], [1, 1], [2, 1],
                [3.5, 1]]
    quads = Mesh(np.array(vertices, float) / 4,
                 [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6]], QUAD)
    with pytest.raises(ValueError, match="^cell 2 is not a parallelogram"):
        Spaces(quads, 1)
    # cell 3 of a structured triangle mesh traversed clockwise
    base = build_structured_mesh(2, TRIANGLE)
    cells = base.cells.copy()
    cells[3] = cells[3][::-1]
    with pytest.raises(ValueError, match=r"^cell 3 is degenerate or inverted "
                       r"\(det=-2\.500e-01\)"):
        Spaces(Mesh(base.vertices, cells, TRIANGLE), 1)


def test_v_div0_matches_per_cell_numbering():
    # the traces and the normal velocity moments share this one numbering
    for kind, k in ((QUAD, 1), (TRIANGLE, 2)):
        mesh = build_structured_mesh(3, kind)
        kk = k + 1
        fd = Spaces(mesh, k).facet_dofs
        for c in range(mesh.num_cells):
            want = []
            for f in mesh.cell_facets[c]:
                rank = mesh.interior_index[f]
                want += list(rank * kk + np.arange(kk)) if rank >= 0 else [-1] * kk
            assert list(fd[c]) == want
