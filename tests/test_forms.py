"""Bilinear form blocks, projections, and the velocity postprocessing."""

import numpy as np
import pytest

from brinkhdg import fespace, forms
from brinkhdg.fespace import Spaces, nodal_dof_matrices
from brinkhdg.forms import (as_gamma_matrix, element_blocks,
                            postprocess_factor, postprocess_velocity,
                            project_facet_tangent, project_grad,
                            project_pressure, project_velocity_div)
from affine_maps import (affine_map, pull_back_tab, pushed_blocks,
                         pushed_nodal_dof_matrix)
from brinkhdg.mesh import (QUAD, TRIANGLE, Mesh, build_structured_mesh,
                           perturbed_triangles)
from brinkhdg.refelem import make_basis, quadrature


def make_blocks(kind, k, n=2, nu=1.0, gamma=1.0, c=0):
    """Spaces and the element blocks of cell c, a one-cell stack."""
    spaces = Spaces(build_structured_mesh(n, kind), k)
    return spaces, element_blocks(spaces, [c], nu, gamma)


def sheared_quads(n, seed):
    """n-by-n parallelograms of a sheared unit square, with the vertices
    renumbered at random and each cell's loop started at a random vertex,
    so that stored facets run both ways against the reference facets."""
    base = build_structured_mesh(n, QUAD)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(base.num_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices @ np.array([[1.0, 0.0], [0.35, 0.8]])
    cells = np.array([np.roll(loop, -shift) for loop, shift in zip(
        perm[base.cells], rng.integers(0, 4, base.num_cells))])
    return Mesh(vertices, cells, QUAD)


def test_blocks_match_pushed_basis_reference():
    # every cell's blocks and nodal dof matrix equal those integrated from
    # bases evaluated at its pulled-back points, on facets run either way
    nu, gamma = 0.5, np.array([[2.0, 0.3], [0.3, 1.0]])
    cases = [(sheared_quads(3, 1), k) for k in (0, 1, 2, 3)]
    cases += [(perturbed_triangles(3, 0.2, seed=7), k) for k in (1, 2, 3)]
    for mesh, k in cases:
        spaces = Spaces(mesh, k)
        cells = np.arange(mesh.num_cells)
        blocks = element_blocks(spaces, cells, nu, gamma)
        dof = nodal_dof_matrices(spaces, cells)
        assert np.unique(spaces._facet_directions(cells)).tolist() == [0, 1]
        for c in cells:
            for name, want in pushed_blocks(spaces, c, nu, gamma).items():
                got = np.asarray(getattr(blocks, name))
                if name not in ("nu", "gamma"):
                    got = got[c]
                assert got.shape == np.shape(want), (k, c, name)
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-13 * scale, (k, c, name)
            want = pushed_nodal_dof_matrix(spaces, c)
            scale = np.abs(want).max()
            assert np.abs(dof[c] - want).max() <= 1e-13 * scale, (k, c)


def test_gamma_normalization():
    g = as_gamma_matrix(2.5)
    assert np.allclose(g, 2.5 * np.eye(2))
    mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(as_gamma_matrix(mat), mat)
    with pytest.raises(ValueError):
        as_gamma_matrix(np.array([[1.0, 0.3], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        as_gamma_matrix(np.array([[-1.0, 0.0], [0.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        as_gamma_matrix(np.ones(3))
    for bad in (np.nan, np.inf, np.array([[1.0, np.inf], [np.inf, 1.0]])):
        with pytest.raises(ValueError, match="gamma must be finite"):
            as_gamma_matrix(bad)


def test_gradient_row_mass_matrix():
    # Piola rows give mg_ab = (1/det) int ghat_a^T (J^T J) ghat_b on the
    # reference cell; with J = h*I on the square mesh that is the identity
    spaces, blocks = make_blocks(QUAD, 1, n=2)
    assert blocks.mg.shape == (1, spaces.family.n_g, spaces.family.n_g)
    assert np.abs(blocks.mg[0] - np.eye(spaces.family.n_g)).max() < 1e-12

    spaces, blocks = make_blocks(TRIANGLE, 1, n=2)
    jac = spaces.jacobians[0]
    weight = jac.T @ jac / spaces.dets[0]
    ref = make_basis("Pvec", 1)
    rule = quadrature("simplex", 6)
    vals = ref.tabulate(rule.points)
    expected = np.einsum("acq,cd,bdq,q->ab", vals, weight, vals,
                         rule.weights)
    assert np.abs(blocks.mg[0] - expected).max() < 1e-12
    assert np.linalg.eigvalsh(blocks.mg[0])[0] > 0.0


def test_integration_by_parts_identity():
    # (v, div g)_K + (grad v, g)_K = <v, g n>_dK row by row, i.e.
    # divg[r, m, b] = (tg - grad)[r, b, m]
    for kind in (QUAD, TRIANGLE):
        for k in (1, 2):
            _, blocks = make_blocks(kind, k)
            for r in range(2):
                lhs = blocks.divg[0, r]
                rhs = (blocks.tg - blocks.grad)[0, r].T
                assert np.abs(lhs - rhs).max() < 1e-11


def test_pressure_divergence_ibp():
    # (q, div v)_K = <q, v . n>_dK - (grad q, v)_K; with q constant the
    # volume gradient term drops, so the q0 columns of bdiv and tq agree
    for kind in (QUAD, TRIANGLE):
        _, blocks = make_blocks(kind, 1)
        assert np.abs(blocks.bdiv[0, :, 0] - blocks.tq[0, :, 0]).max() < 1e-12


def test_facet_blocks_dimensions():
    spaces, blocks = make_blocks(QUAD, 2)
    fam = spaces.family
    # one class, four local facets
    assert blocks.that.shape == (1, 4, 3, fam.n_g)
    assert blocks.tlam.shape == (1, 4, fam.n_v, 3)
    assert blocks.tgt.shape == (1, 4, fam.n_g, fam.n_v)
    for arr in (blocks.sign, blocks.h):
        assert arr.shape == (1, 4)


def test_facet_sum_consistency():
    # tg aggregates the per-facet (g n)(v)_r couplings; rebuild it from the
    # tangential/normal decomposition v = (v.t) t + (v.n) n
    spaces, blocks = make_blocks(TRIANGLE, 1)
    _, facets = pull_back_tab(spaces, 0, spaces.assembly_degree)
    rebuilt = np.zeros_like(blocks.tg[0])
    for fac in facets:
        gn = np.einsum("acq,c->aq", fac["facet_g"],
                       fac["sign"] * fac["normal"])
        for r in range(2):
            rebuilt[r] += np.einsum("aq,mq,q->am", gn,
                                    fac["facet_v"][:, r], fac["w"])
    assert np.abs(rebuilt - blocks.tg[0]).max() < 1e-12


def test_project_grad_reproduces_space_members():
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(2, kind), 1)
        rng = np.random.default_rng(31)
        coef = rng.standard_normal((2, spaces.family.n_g))
        c = 1
        amap = affine_map(spaces.mesh, c)

        def field(x):
            vals = np.einsum("rc,acq->arq", amap.jacobian,
                             spaces.family.g_row.tabulate(
                                 amap.pull_back(x))) / amap.det
            return np.einsum("ra,acq->qrc", coef, vals)

        proj = project_grad(spaces, c, field)
        assert np.abs(proj - coef).max() < 1e-10


def test_project_pressure_reproduces_polynomials():
    # P_k total degree on both cell kinds
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(2, kind), 2)

        def poly(x):
            return 1.0 + 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 0] * x[:, 1]

        coef = project_pressure(spaces, 0, poly)
        ref = spaces.family.reference_tab(spaces.fine_degree)
        recon = np.einsum("i,iq->q", coef, ref.q_vals)
        x = spaces.vol_points(0)
        assert np.abs(recon - poly(x)).max() < 1e-11


def test_project_pressure_on_cells_of_one_class():
    # an index array of one class's cells, even of one cell, gives each
    # cell's projection
    spaces = Spaces(build_structured_mesh(3, QUAD), 2)

    def field(x):
        return np.exp(x[:, 0]) * np.sin(2.0 * x[:, 1])

    classes = [np.flatnonzero(spaces.cell_class == cls)
               for cls in range(len(spaces.class_rep))]
    for cells in (classes[0], max(classes, key=len)):
        p_all = project_pressure(spaces, cells, field)
        assert p_all.shape == (len(cells), spaces.family.n_q)
        for i, c in enumerate(cells):
            p_one = project_pressure(spaces, c, field)
            assert np.abs(p_all[i] - p_one).max() < 1e-13 * np.abs(p_one).max()


def test_project_velocity_reproduces_polynomials():
    # P_k^2 lies inside the velocity space; the interpolant reproduces it
    for kind in (QUAD, TRIANGLE):
        for k in (1, 2):
            spaces = Spaces(build_structured_mesh(2, kind), k)

            def poly(x):
                u = x[:, 0] ** k + 2.0 * x[:, 1]
                v = 1.0 - x[:, 0] * x[:, 1] ** max(k - 1, 0)
                return np.stack([u, v], axis=-1)

            c = 2
            coef = project_velocity_div(spaces, c, poly)
            v = pull_back_tab(spaces, c, spaces.fine_degree)[0]["v"]
            x = spaces.vol_points(c)
            recon = np.einsum("m,mrq->qr", coef, v)
            assert np.abs(recon - poly(x)).max() < 1e-10


def test_interpolant_commutes_with_divergence():
    # div (Pi_V u) equals the pressure-space projection of div u; checked
    # via moments against the pressure basis
    def func(x):
        return np.stack([np.sin(x[:, 0]) * x[:, 1], np.cos(x[:, 1])], axis=-1)

    def dfunc(x):
        return np.cos(x[:, 0]) * x[:, 1] - np.sin(x[:, 1])

    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(2, kind), 1)
        for c in (0, 3):
            coef = project_velocity_div(spaces, c, func)
            cell = pull_back_tab(spaces, c, spaces.fine_degree)[0]
            x = spaces.vol_points(c)
            w = cell["wdet"]
            div_interp = np.einsum("m,mq->q", coef, cell["v_div"])
            lhs = np.einsum("q,iq,q->i", div_interp, cell["q_vals"], w)
            rhs = np.einsum("q,iq,q->i", dfunc(x), cell["q_vals"], w)
            assert np.abs(lhs - rhs).max() < 1e-11


def test_projections_of_a_cell_array_match_per_cell():
    def field(x):
        return np.stack([np.sin(3 * x[:, 0]) * x[:, 1], np.cos(x[:, 1])], axis=-1)

    def field_x(x):
        return field(x)[:, 0]

    def grad_field(x):
        out = np.empty((x.shape[0], 2, 2))
        out[:, 0, 0] = 3 * np.cos(3 * x[:, 0]) * x[:, 1]
        out[:, 0, 1] = np.sin(3 * x[:, 0])
        out[:, 1, 0] = 0.0
        out[:, 1, 1] = -np.sin(x[:, 1])
        return out

    # the cells of an index array may be of any classes, in any order
    for mesh in (build_structured_mesh(3, QUAD),
                 build_structured_mesh(3, TRIANGLE),
                 perturbed_triangles(3, 0.2, seed=7)):
        spaces = Spaces(mesh, 2)
        cells = np.arange(mesh.num_cells)[::-1]
        assert len(np.unique(spaces.cell_class)) > 1
        u_all = project_velocity_div(spaces, cells, field)
        l_all = project_grad(spaces, cells, grad_field)
        p_all = project_pressure(spaces, cells, field_x)
        blocks = element_blocks(spaces, spaces.class_rep, 1.0, 1.0)
        post = postprocess_factor(blocks)
        s_all = postprocess_velocity(post, spaces.cell_class[cells], l_all,
                                     u_all)
        assert s_all.shape == (len(cells), 2, spaces.family.n_post)
        for i, c in enumerate(cells):
            u_one = project_velocity_div(spaces, c, field)
            l_one = project_grad(spaces, c, grad_field)
            p_one = project_pressure(spaces, c, field_x)
            assert np.abs(u_all[i] - u_one).max() < 1e-13 * np.abs(u_one).max()
            assert np.abs(l_all[i] - l_one).max() < 1e-13 * np.abs(l_one).max()
            assert np.abs(p_all[i] - p_one).max() < 1e-13 * np.abs(p_one).max()
            s_one = postprocess_velocity(post, spaces.cell_class[c], l_one,
                                         u_one)
            assert np.abs(s_all[i] - s_one).max() < 1e-13 * np.abs(s_one).max()

        t_all = project_facet_tangent(mesh, np.arange(mesh.num_facets), 2,
                                      field, spaces.fine_degree)
        for f in range(mesh.num_facets):
            t_one = project_facet_tangent(mesh, f, 2, field, spaces.fine_degree)
            assert np.abs(t_all[f] - t_one).max() < 1e-14


def grad_coefficients_per_cell(spaces, cells, vals):
    """Reference for `forms.grad_coefficients`: each cell's Gram from its
    own jacobian, solved for that cell alone with `np.linalg.solve`."""
    ref = spaces.family.reference_tab(spaces.fine_degree)
    w = quadrature(spaces.family.ref_cell.name, spaces.fine_degree).weights
    n_g, nq = spaces.family.n_g, len(w)
    gw = np.moveaxis(ref.g * w, 0, -1).swapaxes(0, 1).reshape(2 * nq, n_g)
    out = np.empty((len(cells), 2, n_g))
    for i, c in enumerate(cells):
        jac = spaces.jacobians[c]
        mg = ((jac.T @ jac / spaces.dets[c]).reshape(4) @ ref.gram_g).reshape(
            n_g, n_g)
        # (J^T v_r)[r, q, d] against (w ghat)[a, d, q]
        jv = (vals[i].reshape(2 * nq, 2) @ jac).reshape(nq, 2, 2)
        rhs = jv.swapaxes(0, 1).reshape(2, 2 * nq) @ gw
        out[i] = np.linalg.solve(mg, rhs.T).T
    return out


def test_grad_coefficients_match_per_cell_solves(monkeypatch):
    # one inverse per class, applied to each of its cells, gives each
    # cell's own solve to roundoff: on one-cell classes (perturbed), and on
    # structured meshes in blocks that mix classes and in shuffled order
    monkeypatch.setattr(fespace, "BLOCK_CELLS", 7)
    rng = np.random.default_rng(3)

    def grad_field(x):
        return np.stack([np.cos(3 * x), np.sin(2 * x) * x[:, ::-1]],
                        axis=1) + x[:, :, None]

    perturbed = perturbed_triangles(4, 0.2, seed=5)
    assert len(Spaces(perturbed, 2).class_rep) == perturbed.num_cells
    # 3x3 quads: a class's cells share the jacobian only to roundoff
    for mesh, k in ((perturbed, 2), (build_structured_mesh(8, TRIANGLE), 3),
                    (build_structured_mesh(3, QUAD), 2)):
        spaces = Spaces(mesh, k)
        blocks = list(spaces.cell_blocks())
        assert any(len(np.unique(spaces.cell_class[cells])) > 1
                   for cells in blocks)
        for cells in blocks + [rng.permutation(mesh.num_cells)]:
            vals = forms.values_at(grad_field, spaces.vol_points(cells))
            got = forms.grad_coefficients(spaces, cells, vals)
            want = grad_coefficients_per_cell(spaces, cells, vals)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_project_facet_tangent_unit_parameter():
    # coefficients live on the unit parameter: a constant tangential field
    # t_F projects to (1, 0, ..., 0) regardless of the facet length
    mesh = build_structured_mesh(4, QUAD)
    f = int(mesh.interior_facets[2])
    t = mesh.facet_tangents[f]

    def field(x):
        return np.broadcast_to(t, (x.shape[0], 2)).copy()

    coef = project_facet_tangent(mesh, f, 2, field, degree=8)
    assert np.allclose(coef, [1.0, 0.0, 0.0], atol=1e-13)


def test_project_facet_tangent_matches_quadrature():
    mesh = build_structured_mesh(2, TRIANGLE)
    f = int(mesh.interior_facets[1])

    def field(x):
        return np.stack([x[:, 0] ** 2, x[:, 1]], axis=-1)

    coef = project_facet_tangent(mesh, f, 1, field, degree=12)
    # oracle: dense sampling of int_0^1 (u . t) phi_j ds
    from brinkhdg.refelem import SegmentBasis
    s = np.linspace(0.0, 1.0, 20001)
    v0, v1 = mesh.facet_vertices[f]
    x = mesh.vertices[v0] + s[:, None] * (mesh.vertices[v1] - mesh.vertices[v0])
    ut = field(x) @ mesh.facet_tangents[f]
    phi = SegmentBasis(1).tabulate(s)
    oracle = np.trapezoid(phi * ut, s, axis=1)
    assert np.abs(coef - oracle).max() < 1e-8


def test_postprocessing_reproduces_higher_degree_polynomials():
    # a component in P_{k+1} with matching gradient rows and cell mean is
    # recovered exactly
    for kind in (QUAD, TRIANGLE):
        for k in (1, 2):
            spaces = Spaces(build_structured_mesh(2, kind), k)
            c = 1
            blocks = element_blocks(spaces, [c], 1.0, 1.0)

            def target(x):
                u = x[:, 0] ** (k + 1) - 2.0 * x[:, 1] + 1.0
                v = x[:, 1] ** (k + 1) + x[:, 0]
                return np.stack([u, v], axis=-1)

            def target_grad(x):
                out = np.zeros((x.shape[0], 2, 2))
                out[:, 0, 0] = (k + 1) * x[:, 0] ** k
                out[:, 0, 1] = -2.0
                out[:, 1, 0] = 1.0
                out[:, 1, 1] = (k + 1) * x[:, 1] ** k
                return out

            l_coef = project_grad(spaces, c, target_grad)
            u_coef = project_velocity_div(spaces, c, target)
            star = postprocess_velocity(postprocess_factor(blocks), 0,
                                        l_coef, u_coef)

            ref = spaces.family.reference_tab(spaces.fine_degree)
            x = spaces.vol_points(c)
            recon = np.einsum("rj,jq->qr", star, ref.post)
            assert np.abs(recon - target(x)).max() < 1e-9


def test_postprocessing_mean_matches_velocity_mean():
    spaces = Spaces(build_structured_mesh(2, QUAD), 1)
    blocks = element_blocks(spaces, [0], 1.0, 1.0)
    rng = np.random.default_rng(5)
    l_coef = rng.standard_normal((2, spaces.family.n_g))
    u_coef = rng.standard_normal(spaces.family.n_v)
    star = postprocess_velocity(postprocess_factor(blocks), 0, l_coef,
                                u_coef)
    mean_star = np.einsum("rj,j->r", star, blocks.pint[0])
    mean_u = u_coef @ blocks.vint[0]
    assert np.abs(mean_star - mean_u).max() < 1e-11


def test_class_blocks_check_gamma_once(monkeypatch):
    spaces = Spaces(build_structured_mesh(3, TRIANGLE), 1)
    assert len(spaces.class_rep) > 1
    calls = []
    monkeypatch.setattr(forms, "as_gamma_matrix",
                        lambda g: calls.append(g) or as_gamma_matrix(g))
    blocks = element_blocks(spaces, spaces.class_rep, 1.0, 2.0)
    assert len(calls) == 1
    assert blocks.mgam.shape[0] == len(spaces.class_rep)
    for cls, rep in enumerate(spaces.class_rep):
        want = element_blocks(spaces, [rep], 1.0, 2.0)
        assert np.array_equal(blocks.mgam[cls], want.mgam[0])
    for nu, gamma, message in (
            (1.0, np.array([[1.0, 0.3], [0.0, 1.0]]), "symmetric"),
            (1.0, np.array([[-1.0, 0.0], [0.0, 1.0]]), "semidefinite"),
            (1.0, np.ones(3), "scalar or a 2x2"),
            (1.0, np.nan, "gamma must be finite"),
            (1.0, np.array([[1.0, 0.0], [0.0, np.inf]]), "gamma must be finite"),
            (-1.0, 2.0, "nu must be finite and positive"),
            (0.0, 2.0, "nu must be finite and positive"),
            (np.nan, 2.0, "nu must be finite and positive"),
            (np.inf, 2.0, "nu must be finite and positive")):
        with pytest.raises(ValueError, match=message):
            element_blocks(spaces, spaces.class_rep, nu, gamma)
