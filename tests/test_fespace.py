"""Mapped elements, dof maps, and the nodal velocity transform."""

import numpy as np
import pytest

from brinkhdg.fespace import (Spaces, build_dofmap, element_family,
                              normal_trace_jumps)
from brinkhdg.mesh import QUAD, TRIANGLE, build_structured_mesh


def interpolate_velocity(spaces, func):
    """Nodal interpolant of a smooth field: facet normal moments against the
    facet Legendre basis plus interior moments, then nodal -> modal."""
    mesh = spaces.mesh
    fam = spaces.family
    kk = fam.n_facet
    out = np.empty((mesh.num_cells, fam.n_v))
    for c in range(mesh.num_cells):
        tab = spaces.tab(c, fine=True)
        alpha = np.empty(fam.n_v)
        for lf, ft in enumerate(tab.facets):
            x = spaces.facet_points(c, tab, lf)
            fn = func(x) @ ft.normal
            alpha[lf * kk:(lf + 1) * kk] = np.einsum("jq,q,q->j", ft.phi, fn, ft.w)
        if fam.n_int_scalar:
            x = spaces.vol_points(c, tab)
            vals = func(x)
            mom = np.einsum("qr,iq,q->ri", vals, tab.int_div, tab.wdet)
            alpha[fam.n_cell_facets * kk:] = mom.ravel()
        out[c] = spaces.nodal_transform(c) @ alpha
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


def test_dofmap_counts_small_quad():
    mesh = build_structured_mesh(2, QUAD)  # 4 cells, 4 interior facets
    assert build_dofmap(mesh, "Mt0", 1).total == 8
    assert build_dofmap(mesh, "V_div0", 1).total == 8 + 4 * 2


def test_dofmap_counts_small_triangle():
    mesh = build_structured_mesh(2, TRIANGLE)  # 8 cells, 8 interior facets
    assert build_dofmap(mesh, "Mt0", 1).total == 16
    assert build_dofmap(mesh, "V_div0", 1).total == 16 + 8 * 2


def test_facet_dofs_interior_only():
    mesh = build_structured_mesh(3, TRIANGLE)
    dm = build_dofmap(mesh, "Mt0", 2)
    assert np.all(dm.facet_dofs[mesh.boundary_facets] == -1)
    inter = dm.facet_dofs[mesh.interior_facets]
    assert np.array_equal(np.sort(inter.ravel()), np.arange(dm.total))


def test_v_div0_shares_facet_dofs():
    mesh = build_structured_mesh(2, QUAD)
    dm = build_dofmap(mesh, "V_div0", 1)
    fam = element_family(QUAD, 1)
    kk = fam.n_facet
    for f in mesh.interior_facets:
        a, b = mesh.facet_cells[f]
        lfa = list(mesh.cell_facets[a]).index(f)
        lfb = list(mesh.cell_facets[b]).index(f)
        da = dm.cell_dofs[a, lfa * kk:(lfa + 1) * kk]
        db = dm.cell_dofs[b, lfb * kk:(lfb + 1) * kk]
        assert np.array_equal(da, db)  # one shared dof per facet moment


def test_unknown_tag_rejected():
    mesh = build_structured_mesh(2, QUAD)
    with pytest.raises(ValueError):
        build_dofmap(mesh, "W", 1)


def test_piola_divergence_theorem():
    # int_K div v = sum_F int_F v . n_out for every mapped velocity function
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(3, kind), 2)
        for c in (0, 4):
            tab = spaces.tab(c)
            vol = np.einsum("mq,q->m", tab.v_div, tab.wdet)
            surf = np.zeros_like(vol)
            for ft in tab.facets:
                surf += np.einsum("mcq,c,q->m", ft.v, ft.outward, ft.w)
            assert np.abs(vol - surf).max() < 1e-12


def test_piola_divergence_scaling():
    # (1/det) div-hat composition: mapped divergence matches finite
    # differences of the mapped values
    spaces = Spaces(build_structured_mesh(2, TRIANGLE), 1)
    tab = spaces.tab(0)
    c = 0
    amap = spaces.amap(c)
    ref = np.array([[0.2, 0.3], [0.4, 0.1]])
    h = 1e-6
    fam = spaces.family
    from brinkhdg.fespace import piola_tabulate
    div = piola_tabulate(amap, fam.v, ref).divs
    fd = np.zeros_like(div)
    for d in range(2):
        dx = np.zeros(2)
        dx[d] = h
        plus = piola_tabulate(amap, fam.v, ref + amap.pull_back(
            amap.apply(ref) + dx) - ref).values
        minus = piola_tabulate(amap, fam.v, ref + amap.pull_back(
            amap.apply(ref) - dx) - ref).values
        fd += (plus[:, d] - minus[:, d]) / (2 * h)
    assert np.abs(div - fd).max() < 1e-5


def test_scalar_map_gradient_chain_rule():
    spaces = Spaces(build_structured_mesh(3, TRIANGLE), 2)
    tab = spaces.tab(1)
    # numeric check of grad q = J^{-T} grad-hat q-hat at the volume points
    fam = spaces.family
    ghat = fam.q.tabulate_grad(tab.ref_points)
    expect = np.einsum("ba,nbq->naq", tab.inverse_jacobian, ghat)
    # CellTab stores exactly this; verify against finite differences in x
    amap = spaces.amap(1)
    h = 1e-6
    for d in range(2):
        dx = np.zeros(2)
        dx[d] = h
        fp = fam.q.tabulate(amap.pull_back(spaces.vol_points(1, tab) + dx))
        fm = fam.q.tabulate(amap.pull_back(spaces.vol_points(1, tab) - dx))
        assert np.abs((fp - fm) / (2 * h) - expect[:, d]).max() < 1e-6


def test_facet_tabulation_consistent_with_volume_basis():
    # facet point values are the same Piola functions sampled on the edge
    spaces = Spaces(build_structured_mesh(2, QUAD), 1)
    c = 3
    tab = spaces.tab(c)
    amap = spaces.amap(c)
    from brinkhdg.fespace import piola_tabulate
    for lf, ft in enumerate(tab.facets):
        x = spaces.facet_points(c, tab, lf)
        vals = piola_tabulate(amap, spaces.family.v, amap.pull_back(x)).values
        assert np.abs(vals - ft.v).max() < 1e-12


def test_nodal_transform_inverts_dof_matrix():
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(2, kind), 2)
        for c in range(spaces.mesh.num_cells):
            b = spaces.nodal_dof_matrix(c)
            t = spaces.nodal_transform(c)
            assert np.abs(b @ t - np.eye(b.shape[0])).max() < 1e-9


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
    tab = spaces.tab(c, fine=True)
    amap = spaces.amap(c)

    def func(x):
        from brinkhdg.fespace import piola_tabulate
        vals = piola_tabulate(amap, spaces.family.v, amap.pull_back(x)).values
        return np.einsum("m,mrq->qr", coef, vals)

    modal = interpolate_velocity(spaces, func)
    assert np.abs(modal[c] - coef).max() < 1e-9


def test_geometry_classes_small_on_structured_meshes():
    for kind in (QUAD, TRIANGLE):
        for n in (3, 5):
            spaces = Spaces(build_structured_mesh(n, kind), 1)
            assert len(spaces.class_rep) <= 8
            # same class means the tabulation object is shared
            reps = {}
            for c in range(spaces.mesh.num_cells):
                cls = int(spaces.cell_class[c])
                tab = spaces.tab(c)
                if cls in reps:
                    assert reps[cls] is tab
                reps[cls] = tab


def test_quadrature_degree_floors():
    mesh = build_structured_mesh(2, QUAD)
    spaces = Spaces(mesh, 1)
    assert spaces.assembly_degree == 4
    assert spaces.fine_degree == 8
    spaces = Spaces(mesh, 1, assembly_degree=9, fine_degree=3)
    assert spaces.assembly_degree == 9
    assert spaces.fine_degree == 9  # never below the assembly rule


def test_vol_points_match_affine_map():
    spaces = Spaces(build_structured_mesh(3, TRIANGLE), 1)
    c = 7
    tab = spaces.tab(c)
    x = spaces.vol_points(c, tab)
    assert np.allclose(x, spaces.amap(c).apply(tab.ref_points))


def test_facet_points_run_p0_to_p1():
    spaces = Spaces(build_structured_mesh(2, QUAD), 1)
    c = 0
    tab = spaces.tab(c)
    for lf, ft in enumerate(tab.facets):
        x = spaces.facet_points(c, tab, lf)
        p0 = spaces.amap(c).offset + ft.rel_p0
        p1 = spaces.amap(c).offset + ft.rel_p1
        expect = p0 + ft.s[:, None] * (p1 - p0)
        assert np.allclose(x, expect)
        assert np.allclose(ft.w.sum(), ft.h)


def test_class_cells_partition_cells():
    spaces = Spaces(build_structured_mesh(4, TRIANGLE), 1)
    assert len(spaces.class_cells) == len(spaces.class_rep)
    for cls, cells in enumerate(spaces.class_cells):
        assert (spaces.cell_class[cells] == cls).all()
        assert (np.diff(cells) > 0).all()
    every = np.sort(np.concatenate(spaces.class_cells))
    assert (every == np.arange(spaces.mesh.num_cells)).all()


def test_points_of_a_cell_array_stack_per_cell_points():
    spaces = Spaces(build_structured_mesh(3, QUAD), 1)
    cells = max(spaces.class_cells, key=len)
    assert len(cells) > 1
    tab = spaces.tab(cells, fine=True)
    assert tab is spaces.tab(int(cells[0]), fine=True)
    batch = spaces.vol_points(cells, tab)
    assert batch.shape == (len(cells),) + tab.ref_points.shape
    for i, c in enumerate(cells):
        assert (batch[i] == spaces.vol_points(c, tab)).all()
        for lf in range(len(tab.facets)):
            assert (spaces.facet_points(cells, tab, lf)[i]
                    == spaces.facet_points(c, tab, lf)).all()


def test_cell_array_of_mixed_classes_rejected():
    spaces = Spaces(build_structured_mesh(2, TRIANGLE), 1)
    with pytest.raises(ValueError, match="one geometry class"):
        spaces.tab(np.array([0, 1]))
    with pytest.raises(ValueError, match="one geometry class"):
        spaces.nodal_transform(np.array([], dtype=int))


def test_local_facet_lookup():
    mesh = build_structured_mesh(2, QUAD)
    spaces = Spaces(mesh, 1)
    c = 1
    f = int(mesh.cell_facets[c, 2])
    assert spaces.local_facet(c, f) == 2
    with pytest.raises(ValueError):
        spaces.local_facet(0, 9999)
