"""Condensed solver, uncondensed reference solver, and their equivalence."""

from dataclasses import fields as dataclass_fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from affine_maps import (checkerboard_triangles, holed_quads, local_facet,
                         pull_back_tab, strip_quads)
from brinkhdg import fespace, hybrid
from brinkhdg.fespace import Spaces, normal_trace_jumps
from brinkhdg.forms import element_blocks
from brinkhdg.hybrid import (SolutionFields, build_local_solvers,
                             compare_fields, evaluate_fields,
                             mass_balance_residual, pressure_integral,
                             solve_direct, solve_hybrid, write_solution_text)
from brinkhdg.linalg import (DenseFactor, SingularMatrixError, SparseBuilder,
                             SparseFactor, block_triplets)
from brinkhdg.mesh import (QUAD, TRIANGLE, build_structured_mesh,
                           perturbed_triangles)
from brinkhdg.verify import (BrinkmanCase, data_quadrature_degree, error_norms,
                             make_case)


def zero_vec(x):
    return np.zeros((x.shape[0], 2))


def zero_scalar(x):
    return np.zeros(x.shape[0])


def solve_case(kind, n, k, case, fine_degree=None):
    spaces = Spaces(build_structured_mesh(n, kind), k, fine_degree=fine_degree)
    fields = solve_hybrid(spaces, case.nu, case.gamma,
                          case.body_force, case.mass_source)
    return spaces, fields


def test_local_energy_symmetric_psd():
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(2, kind), 1)
        for e in build_local_solvers(spaces, 1.0, 1.0).energy:
            assert np.abs(e - e.T).max() < 1e-11
            evals = np.linalg.eigvalsh(0.5 * (e + e.T))
            assert evals[0] > -1e-10 * max(evals[-1], 1.0)


def test_local_solver_counts_match_classes():
    spaces = Spaces(build_structured_mesh(4, QUAD), 1)
    solvers = build_local_solvers(spaces, 1.0, 1.0)
    n_cls = len(spaces.class_rep)
    assert list(solvers.cells) == spaces.class_rep
    for arr in (solvers.lift, solvers.zlift, solvers.energy):
        assert arr.shape[0] == n_cls


def assert_slice_matches(got, want, what):
    """got equals want to 1e-14 relative to the largest entry of want."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= 1e-14 * scale, what


def test_class_stack_slices_match_one_class_stacks():
    # each class's slice of the stacked set-up equals the same quantity
    # formed on a one-class stack of that class alone
    nu, gamma = 0.5, np.array([[2.0, 0.3], [0.3, 1.0]])
    cases = [(perturbed_triangles(4, 0.2, seed=2016), k) for k in (1, 2, 3)]
    cases.append((build_structured_mesh(1, TRIANGLE), 2))
    for mesh, k in cases:
        spaces = Spaces(mesh, k)
        fam = spaces.family
        n_cls = len(spaces.class_rep)
        assert n_cls == (2 if mesh.num_cells == 2 else mesh.num_cells)
        blocks = element_blocks(spaces, spaces.class_rep, nu, gamma)
        solvers = build_local_solvers(spaces, nu, gamma)
        trans = spaces.class_nodal_transforms()
        n_d = 2 * fam.n_g + fam.n_v_interior
        direct = hybrid._eliminate_private(*hybrid._direct_cell_matrix(
            blocks, trans, fam), n_d, fam.n_v_interior, blocks.cells)
        for cls, rep in enumerate(spaces.class_rep):
            what = (mesh.num_cells, k, cls)
            one_blocks = element_blocks(spaces, [rep], nu, gamma)
            for field in dataclass_fields(blocks):
                if field.name not in ("nu", "gamma"):
                    got = getattr(blocks, field.name)
                    assert got.shape[0] == n_cls
                    assert_slice_matches(got[cls],
                                         getattr(one_blocks, field.name)[0],
                                         (what, field.name))
            one_solver = hybrid.LocalSolver(one_blocks, fam)
            for name in ("lift", "zlift", "energy"):
                assert_slice_matches(getattr(solvers, name)[cls],
                                     getattr(one_solver, name)[0], (what, name))
            one_trans = fespace.nodal_transforms(spaces, [rep])
            assert_slice_matches(trans[cls], one_trans[0], (what, "nodal"))
            one_direct = hybrid._eliminate_private(*hybrid._direct_cell_matrix(
                one_blocks, one_trans, fam), n_d, fam.n_v_interior,
                one_blocks.cells)
            for j, name in ((0, "reduced"), (2, "load"), (3, "recovery")):
                assert_slice_matches(direct[j][cls], one_direct[j][0],
                                     (what, name))
            assert np.array_equal(direct[1], one_direct[1])


def test_zero_data_gives_zero_solution():
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(2, kind), 1)
        fields = solve_hybrid(spaces, 1.0, 1.0, zero_vec, zero_scalar)
        for arr in (fields.l, fields.u, fields.p, fields.uhat_t,
                    fields.uhat_n, fields.pbar, fields.ustar):
            assert np.abs(arr).max() < 1e-12


def test_hybrid_matches_direct():
    # every supported degree, in the Stokes regime and at the Darcy-
    # dominated end, where the gradient rows are scaled by a small nu,
    # and with no resistance (gamma = 0), where the interior velocity rows
    # of the oracle's private blocks carry only nu-scaled couplings.  At
    # gamma = 0 the data are those of the exact solution for (nu, 0), so
    # the fields are of order one: with case 1's data they grow as 1/nu
    # (|L| is 3e4 at nu = 1e-4), and a relative perturbation of 1e-16 in
    # the element blocks then moves either solver by up to 1.4e-10
    for nu in (1.0, 1e-4):
        for case in (make_case(1), BrinkmanCase(nu, 0.0, 2)):
            for kind, degrees in ((QUAD, (0, 1, 2, 3)), (TRIANGLE, (1, 2, 3))):
                for k in degrees:
                    spaces = Spaces(build_structured_mesh(2, kind), k)
                    a = solve_hybrid(spaces, nu, case.gamma, case.body_force,
                                     case.mass_source)
                    b = solve_direct(spaces, nu, case.gamma, case.body_force,
                                     case.mass_source)
                    diffs = compare_fields(spaces, a, b)
                    assert max(diffs.values()) < 1e-10, (nu, case.gamma_max,
                                                         kind, k, diffs)


def test_hybrid_matches_direct_anisotropic_gamma():
    gamma = np.array([[2.0, 0.4], [0.4, 1.0]])
    spaces = Spaces(build_structured_mesh(2, QUAD), 1)
    case = make_case(1)
    a = solve_hybrid(spaces, 0.5, gamma, case.body_force, case.mass_source)
    b = solve_direct(spaces, 0.5, gamma, case.body_force, case.mass_source)
    assert max(compare_fields(spaces, a, b).values()) < 1e-10


def test_solution_is_hdiv_conforming():
    case = make_case(1)
    for kind in (QUAD, TRIANGLE):
        spaces, fields = solve_case(kind, 4, 1, case)
        jump, boundary = normal_trace_jumps(spaces, fields.u)
        assert jump < 1e-11
        assert boundary < 1e-11


def test_elementwise_mass_balance():
    case = make_case(1)
    spaces, fields = solve_case(QUAD, 4, 1, case)
    assert mass_balance_residual(spaces, fields, case.mass_source) < 1e-12


def test_mass_balance_residual_reports_nan():
    # Python's max(0.0, nan) is 0.0: a NaN velocity coefficient in the first
    # or the last cell must not read as a balanced field
    case = make_case(1)
    spaces, fields = solve_case(QUAD, 4, 1, case)
    for c in (0, spaces.mesh.num_cells - 1):
        u = fields.u.copy()
        u[c, 0] = np.nan
        assert np.isnan(mass_balance_residual(spaces, replace(fields, u=u),
                                              case.mass_source))


def test_pressure_mean_zero():
    case = make_case(1)
    for kind in (QUAD, TRIANGLE):
        spaces, fields = solve_case(kind, 4, 1, case)
        assert abs(pressure_integral(spaces, fields)) < 1e-12


def test_hybrid_matches_direct_on_perturbed_mesh():
    # weighted and unweighted pressure means differ only on non-uniform
    # cells, so this checks the area-weighted shift after the pinned solve
    case = make_case(1)
    spaces = Spaces(perturbed_triangles(4, 0.2, seed=2016), 1,
                    fine_degree=data_quadrature_degree(case, 1, 4))
    assert len(spaces.class_rep) == spaces.mesh.num_cells
    areas = np.array([pull_back_tab(spaces, c, spaces.assembly_degree)[0][
        "wdet"].sum() for c in range(spaces.mesh.num_cells)])
    assert np.ptp(areas) > 0.1 * areas.mean()
    fields = solve_hybrid(spaces, case.nu, case.gamma,
                          case.body_force, case.mass_source)
    direct = solve_direct(spaces, case.nu, case.gamma,
                          case.body_force, case.mass_source)
    diffs = compare_fields(spaces, fields, direct)
    assert max(diffs.values()) <= 1e-9, diffs
    assert abs(pressure_integral(spaces, fields)) <= 1e-10


def vertex_flux_map(psi, weights, n_psi):
    """C: the first normal modes of the interior facets from the vertex
    potentials, sparse.  Row f holds -weights[f] at the psi column
    psi[f, 0] of the facet's lower vertex and weights[f] at psi[f, 1], its
    higher one; -1 marks a potential fixed at zero."""
    rows = np.repeat(np.arange(len(psi)), 2)
    vals = np.column_stack([-weights, weights]).ravel()
    keep = psi.ravel() >= 0
    return sp.csr_matrix((vals[keep], (rows[keep], psi.ravel()[keep])),
                         shape=(len(psi), n_psi))


def mesh_flux_map(mesh):
    """C of a mesh, from the ingredients `solve_hybrid` passes on."""
    fi = mesh.interior_facets
    col, n_psi = hybrid._vertex_columns(mesh)
    return vertex_flux_map(col[mesh.facet_vertices[fi]],
                           hybrid._flux_weights(mesh, fi), n_psi)


def test_stream_function_spans_kernel_of_mass_balances():
    # C maps vertex potentials onto the first normal modes with B C = 0:
    # exactly on structured quads; on triangles h * (1/h) is 1 only to
    # the last bit, so the bound is roundoff.  Its columns are
    # independent and as many as the kernel of B1 has dimensions, so C
    # spans that kernel, also with one or two holes
    meshes = [(build_structured_mesh(n, QUAD), 0.0) for n in (2, 3, 8)]
    meshes += [(build_structured_mesh(n, TRIANGLE), 5e-16) for n in (2, 3, 8)]
    meshes += [(perturbed_triangles(n, 0.2, seed), 1e-14)
               for n, seed in ((4, 2016), (6, 0), (12, 1))]
    meshes += [(holed_quads(4, [(1, 1), (2, 1), (1, 2), (2, 2)]), 0.0),
               (holed_quads(6, [(1, 1), (4, 3)]), 0.0)]
    for mesh, bound in meshes:
        b1 = hybrid._facet_incidence(mesh)[1:]
        curl = mesh_flux_map(mesh)
        assert abs(b1 @ curl).max() <= bound
        n_facets, n_psi = curl.shape
        assert n_psi == n_facets - b1.shape[0]
        assert np.linalg.matrix_rank(curl.toarray()) == n_psi
    # one potential per hole: none is interior on the 4x4 mesh
    assert mesh_flux_map(meshes[-2][0]).shape[1] == 1


def holed_force(x):
    return np.column_stack([np.sin(np.pi * x[:, 1]), x[:, 0] ** 2])


def holed_source(x):
    # int g = 0 on meshes symmetric about x = y
    return x[:, 0] - x[:, 1]


def test_holed_mesh_solves_agree():
    mesh = holed_quads(4, [(1, 1), (2, 1), (1, 2), (2, 2)])
    for k in (1, 2):
        spaces = Spaces(mesh, k)
        a = solve_hybrid(spaces, 1.0, 1.0, holed_force, holed_source)
        b = solve_direct(spaces, 1.0, 1.0, holed_force, holed_source)
        assert max(compare_fields(spaces, a, b).values()) <= 1e-9
        assert np.abs(a.u).max() > 1e-3
        for fields in (a, b):
            assert mass_balance_residual(spaces, fields, holed_source) <= 1e-10
            assert max(normal_trace_jumps(spaces, fields.u)) <= 1e-10


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 6), k=st.sampled_from((1, 2)),
       seed=st.integers(0, 2**32 - 1))
def test_hybrid_matches_direct_on_seeded_perturbed_meshes(n, k, seed):
    case = make_case(1)
    spaces = Spaces(perturbed_triangles(n, 0.2, seed), k,
                    fine_degree=data_quadrature_degree(case, k, n))
    a = solve_hybrid(spaces, case.nu, case.gamma, case.body_force,
                     case.mass_source)
    b = solve_direct(spaces, case.nu, case.gamma, case.body_force,
                     case.mass_source)
    assert max(compare_fields(spaces, a, b).values()) <= 1e-9


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5), k=st.sampled_from((1, 2)),
       seed=st.integers(0, 2**32 - 1), nu=st.sampled_from((1e-4, 1e-6)),
       gamma=st.sampled_from((0.0, ((2.0, 0.4), (0.4, 1.0)))))
def test_parameter_extremes_on_seeded_perturbed_meshes(n, k, seed, nu, gamma):
    # small nu, the Stokes limit gamma = 0 and an anisotropic SPD gamma;
    # the data are exact for each (nu, gamma)
    case = BrinkmanCase(nu, gamma, 2)
    spaces = Spaces(perturbed_triangles(n, 0.2, seed), k,
                    fine_degree=data_quadrature_degree(case, k, n))
    a = solve_hybrid(spaces, case.nu, case.gamma, case.body_force,
                     case.mass_source)
    b = solve_direct(spaces, case.nu, case.gamma, case.body_force,
                     case.mass_source)
    assert max(compare_fields(spaces, a, b).values()) <= 1e-9
    for fields in (a, b):
        assert mass_balance_residual(spaces, fields,
                                     case.mass_source) <= 1e-10
        assert max(normal_trace_jumps(spaces, fields.u)) <= 1e-10


def tree_meshes():
    """Structured, perturbed, holed and strip meshes for the patch tree."""
    meshes = [build_structured_mesh(n, kind) for n in (1, 2, 3, 4, 7, 8)
              for kind in (QUAD, TRIANGLE)]
    meshes += [checkerboard_triangles(n) for n in (3, 8)]
    return meshes + [perturbed_triangles(6, 0.2, seed=3),
                     holed_quads(4, [(1, 1), (2, 1), (1, 2), (2, 2)]),
                     holed_quads(6, [(1, 1), (4, 3)]), strip_quads(5)]


def test_patch_levels_nest_and_partition_cells():
    # the root holds every cell; each level numbers its patches 0..P-1 in
    # the order of their parents, so every level partitions the cells and
    # each patch lies in one patch of the level above; a patch of more
    # than 8 cells has four children of half its half, a smaller one
    # passes down whole, and the leaves hold at most 8 cells
    for mesh in tree_meshes():
        levels = hybrid._patch_levels(mesh)
        assert np.array_equal(levels[0], np.zeros(mesh.num_cells))
        for upper, lower in zip(levels, levels[1:]):
            assert np.array_equal(np.unique(lower), np.arange(lower.max() + 1))
            # the parent of each patch, in patch order
            parent = upper[np.unique(lower, return_index=True)[1]]
            assert np.array_equal(upper, parent[lower])
            assert (np.diff(parent) >= 0).all()
            size = np.bincount(upper)
            children = np.bincount(parent)
            assert np.array_equal(children, np.where(size > 8, 4, 1))
            assert size.max() > 8
            whole = size[parent] <= 8
            lower_size = np.bincount(lower)
            assert np.array_equal(lower_size[whole], size[parent][whole])
            cut = lower_size[~whole]
            assert (cut >= size[parent][~whole] // 4).all()
            assert (cut <= -(-size[parent][~whole] // 4)).all()
        assert np.bincount(levels[-1]).max() <= 8


def test_patch_leaves_of_structured_meshes():
    # on 2^m x 2^m squares the leaves are the 2 x 2 squares: 4 quads, or
    # the 8 triangles of either layout; 1 x 1 has the root alone
    for n in (2, 4, 8, 16):
        for mesh, per in ((build_structured_mesh(n, QUAD), 1),
                          (build_structured_mesh(n, TRIANGLE), 2),
                          (checkerboard_triangles(n), 2)):
            levels = hybrid._patch_levels(mesh)
            square = np.arange(mesh.num_cells) // per
            j, i = np.divmod(square, n)
            block = (j // 2) * n + i // 2
            leaves = levels[-1]
            assert len(levels) == 1 + max(n.bit_length() - 2, 0)
            assert len(np.unique(leaves)) == (n // 2) ** 2
            # each leaf is one 2 x 2 block of squares
            assert np.array_equal(np.unique(np.column_stack([leaves, block]),
                                            axis=0)[:, 0], np.unique(leaves))
    for kind in (QUAD, TRIANGLE):
        levels = hybrid._patch_levels(build_structured_mesh(1, kind))
        assert len(levels) == 1


class TreeSpy:
    """Records each `_PatchTree` that `solve_hybrid` builds, with its
    arguments by name, and each `_solve_condensed` call, with its
    arguments and solution by name and the facet incidence of its mesh."""

    tree_names = ("mesh", "red", "n", "cell_class", "energy", "flux", "first")
    names = ("tree", "spaces", "energy", "cols", "n0", "free", "psi",
             "weights", "rhs")

    def __init__(self):
        self.trees, self.calls = [], []

    def __enter__(self):
        spy = self
        base, solve = hybrid._PatchTree, hybrid._solve_condensed

        class Tree(base):
            def __init__(self, *args):
                super().__init__(*args)
                self.args = SimpleNamespace(**dict(zip(spy.tree_names, args)))
                spy.trees.append(self)

        def condensed(*args):
            seen = SimpleNamespace(**dict(zip(self.names, args)))
            seen.incidence = hybrid._facet_incidence(seen.spaces.mesh)
            x = solve(*args)
            # solve_hybrid shifts the pressure averages of x in place
            seen.x = x.copy()
            self.calls.append(seen)
            return x

        self._undo = (base, solve)
        hybrid._PatchTree, hybrid._solve_condensed = Tree, condensed
        return self

    def __exit__(self, *exc):
        hybrid._PatchTree, hybrid._solve_condensed = self._undo


@pytest.fixture
def condensed_calls():
    with TreeSpy() as spy:
        yield spy.calls


def assembled_energy(call, cells=None):
    """K on the traces, assembled: the energy block of every cell, or of
    the given cells, scattered by its trace columns, duplicates summed."""
    m = len(call.rhs) - call.incidence.shape[0]
    cells = np.arange(call.spaces.mesh.num_cells) if cells is None else cells
    builder = SparseBuilder(m, m)
    builder.add(*block_triplets(call.cols[cells],
                                call.energy[call.spaces.cell_class[cells]]))
    return builder.finalize()


def stream_function_basis(call, m):
    """Z: the identity on the traces that are not first normal modes, then
    the first modes C psi of the vertex potentials, with C built from the
    psi columns and weights the solver was given."""
    n0 = call.n0
    first = sp.csr_matrix((np.ones(len(n0)), (n0, np.arange(len(n0)))),
                          shape=(m, len(n0)))
    free = np.ones(m, dtype=bool)
    free[n0] = False
    curl = vertex_flux_map(call.psi, call.weights, call.tree.n - free.sum())
    return sp.hstack([sp.identity(m, format="csc")[:, free],
                      first @ curl]).tocsc()


def reduced_matrix(call, cells=None):
    """Z^T K Z, assembled, of every cell or of the given cells."""
    energy = assembled_energy(call, cells)
    z = stream_function_basis(call, energy.shape[0])
    return (z.T @ energy @ z).tocsc()


def test_every_reduced_column_eliminated_once(condensed_calls):
    # the interiors of all the patches of all the levels are the reduced
    # columns, each once; a patch's interior is touched by its cells only;
    # its boundary columns are eliminated higher up, and the root, last,
    # leaves nothing
    for mesh in tree_meshes():
        solve_hybrid(Spaces(mesh, 2), 1.0, 1.0, zero_vec, zero_scalar)
        tree = condensed_calls[-1].tree
        red = tree.args.red
        inner = np.concatenate([f.inner[f.inner >= 0] for f in tree.fronts])
        assert np.array_equal(np.sort(inner), np.arange(tree.n))
        assert len(tree.fronts) == len(tree.levels)
        assert tree.fronts[-1].outer.shape == (1, 0)
        done = np.zeros(tree.n + 1, dtype=bool)
        for front, patch in zip(tree.fronts, tree.levels[::-1]):
            for p in range(len(front.cls)):
                cols = front.inner[p][front.inner[p] >= 0]
                touch = np.isin(red, cols).any(axis=1)
                assert (patch[touch] == p).all()
                assert not done[front.outer[p]].any()
            done[front.inner] = True
            done[-1] = False
        # each column is eliminated at the deepest level at which one
        # patch holds every cell with a slot of it
        cell, slot = np.nonzero(red >= 0)
        col = red[cell, slot]
        deepest = np.full(tree.n, -1)
        for d, patch in enumerate(tree.levels):
            lo, hi = np.full(tree.n, mesh.num_cells), np.full(tree.n, -1)
            np.minimum.at(lo, col, patch[cell])
            np.maximum.at(hi, col, patch[cell])
            deepest[lo == hi] = d
        eliminated = np.full(tree.n, -1)
        for d, front in zip(range(len(tree.levels) - 1, -1, -1), tree.fronts):
            eliminated[front.inner[front.inner >= 0]] = d
        assert np.array_equal(eliminated, deepest)


def patch_schur(reduced, inner, outer):
    """The Schur complement of a sparse SPD matrix onto the columns outer,
    the columns inner eliminated by a sparse LU, dense."""
    rows = reduced[outer]
    schur = rows[:, outer].toarray()
    if inner.size:
        schur -= (rows[:, inner] @ spla.spsolve(
            reduced[inner][:, inner].tocsc(),
            rows[:, inner].T.toarray())).reshape(schur.shape)
    return schur


def test_reduced_matrix_matches_triple_product(condensed_calls):
    # the Schur block of each class is the Schur complement of Z^T K Z,
    # assembled from the cells of one of its patches, onto the patch's
    # boundary columns, with the interiors of the patch and of all the
    # patches below it eliminated; also with hole loops whose potential is
    # shared by several vertices of a cell, and with no interior facet.
    # The second holed mesh is symmetric about x = y only without its
    # holes, so it gets a source of zero mean
    case = make_case(1)
    data = (case.body_force, case.mass_source)
    runs = [(build_structured_mesh(16, TRIANGLE), 3, data),
            (build_structured_mesh(32, QUAD), 1, data),
            (perturbed_triangles(6, 0.2, seed=0), 2, data),
            (holed_quads(4, [(1, 1), (2, 1), (1, 2), (2, 2)]), 2,
             (holed_force, holed_source)),
            (holed_quads(6, [(1, 1), (4, 3)]), 1, (holed_force, zero_scalar)),
            (build_structured_mesh(1, QUAD), 2, data)]
    for mesh, k, (force, source) in runs:
        spaces = Spaces(mesh, k, fine_degree=data_quadrature_degree(
            case, k, 6))
        solve_hybrid(spaces, case.nu, case.gamma, force, source)
        call = condensed_calls[-1]
        tree = call.tree
        levels = tree.levels[::-1]
        for depth, front in enumerate(tree.fronts):
            for cls in range(len(front.schur)):
                p = np.argmax(front.cls == cls)
                cells = np.flatnonzero(levels[depth] == p)
                # the interiors of the patch and of the patches below it
                inner = np.concatenate([
                    below.inner[q][below.inner[q] >= 0]
                    for below, patch in zip(tree.fronts[:depth + 1], levels)
                    for q in np.unique(patch[cells])]).astype(int)
                outer = front.outer[p][front.outer[p] >= 0]
                want = patch_schur(reduced_matrix(call, cells), inner, outer)
                got = front.schur[cls][:len(outer), :len(outer)]
                assert np.abs(front.schur[cls][len(outer):]).max(
                    initial=0.0) == 0.0
                gap = np.abs(got - want).max(initial=0.0)
                assert gap <= 1e-13 * np.abs(want).max(initial=0.0), (
                    mesh.num_cells, k, depth, cls, gap)
    assert condensed_calls[-1].tree.n == 0


def test_reduced_pattern_independent_of_data(condensed_calls):
    # the tree, its classes and each patch's columns are the same for
    # every test case on one mesh (nu 1, 1 and 1e-4)
    mesh = build_structured_mesh(16, TRIANGLE)
    for test in (1, 2, 3):
        case = make_case(test)
        spaces = Spaces(mesh, 3, fine_degree=data_quadrature_degree(
            case, 3, 16))
        solve_hybrid(spaces, case.nu, case.gamma, case.body_force,
                     case.mass_source)
    first = condensed_calls[0].tree
    for call in condensed_calls[1:]:
        tree = call.tree
        assert all(np.array_equal(a, b)
                   for a, b in zip(tree.levels, first.levels))
        for got, want in zip(tree.fronts, first.fronts):
            for name in ("cls", "inner", "outer"):
                assert np.array_equal(getattr(got, name), getattr(want, name))


def test_patch_classes_stack_congruent_patches(condensed_calls):
    # congruent patches share one class, hence one interior factor and one
    # Schur block: at most 9 classes per level on 2^m x 2^m structured
    # meshes (interior, edge and corner patches), one per patch on perturbed
    # meshes; a one-cell mesh has a root front with nothing to eliminate
    case = make_case(1)
    runs = [(build_structured_mesh(16, QUAD), 1, 9),
            (build_structured_mesh(8, TRIANGLE), 2, 9),
            (checkerboard_triangles(8), 3, 9),
            (perturbed_triangles(6, 0.2, seed=3), 1, None),
            (build_structured_mesh(1, QUAD), 2, 1)]
    for mesh, k, most in runs:
        spaces = Spaces(mesh, k, fine_degree=data_quadrature_degree(
            case, k, 16))
        a = solve_hybrid(spaces, case.nu, case.gamma, case.body_force,
                         case.mass_source)
        for front in condensed_calls[-1].tree.fronts:
            n_cls = len(front.schur)
            assert len(np.unique(front.cls)) == n_cls
            assert n_cls <= (len(front.cls) if most is None else most)
            if most is None:
                assert n_cls == len(front.cls)
        b = solve_direct(spaces, case.nu, case.gamma, case.body_force,
                         case.mass_source)
        assert max(compare_fields(spaces, a, b).values()) <= 1e-10
    front = condensed_calls[-1].tree.fronts[-1]
    assert front.inner.shape == front.outer.shape == (1, 0)
    assert [u.shape for u in front.factor.factors] == [(0, 0)]


@st.composite
def tree_mesh(draw):
    """Structured quads and triangles of either layout with n in 1..6,
    seeded perturbed triangles, the two holed meshes, or a strip of n
    quads."""
    kind = draw(st.sampled_from(("quad", "triangle", "checkerboard",
                                 "perturbed", "holed", "strip")))
    n = draw(st.integers(1, 6))
    if kind == "quad":
        return build_structured_mesh(n, QUAD)
    if kind == "triangle":
        return build_structured_mesh(n, TRIANGLE)
    if kind == "checkerboard":
        return checkerboard_triangles(n)
    if kind == "perturbed":
        return perturbed_triangles(max(n, 2), 0.2,
                                   draw(st.integers(0, 2**32 - 1)))
    if kind == "holed":
        return holed_quads(*draw(st.sampled_from((
            (4, ((1, 1), (2, 1), (1, 2), (2, 2))), (6, ((1, 1), (4, 3)))))))
    return strip_quads(n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mesh=tree_mesh(), k=st.sampled_from((1, 2)))
def test_nested_solve_matches_sparse_solve(mesh, k):
    # the tree's solve equals a sparse LU solve of the assembled Z^T K Z
    with TreeSpy() as spy:
        solve_hybrid(Spaces(mesh, k), 1.0, 1.0, zero_vec, zero_scalar)
    call = spy.calls[-1]
    reduced = reduced_matrix(call)
    b = np.random.default_rng(mesh.num_cells).standard_normal(call.tree.n)
    got = call.tree.solve(b)
    if call.tree.n:
        want = spla.spsolve(reduced, b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # each class's Schur block is mirrored from one triangle, so exactly
    # symmetric, and the stacks are zero past the class's own interior
    # and boundary sizes
    for front in call.tree.fronts:
        assert np.array_equal(front.schur, front.schur.swapaxes(1, 2))
        for cls in range(len(front.schur)):
            p = np.argmax(front.cls == cls)
            m = (front.inner[p] >= 0).sum()
            q = (front.outer[p] >= 0).sum()
            for stack, rows, cols in ((front.schur, q, q),
                                      (front.load_rows, m, q),
                                      (front.recover_rows, q, m)):
                pad = stack[cls].copy()
                pad[:rows, :cols] = 0.0
                assert not pad.any()


def test_patch_interior_refusal_names_a_cell(condensed_calls):
    # a patch interior that is not positive definite, zero, or not finite
    # is refused by the Cholesky factor under the pivot rule of
    # DenseFactor, naming the first cell of a leaf patch of the first
    # class: here the blocks of every cell are negated, zeroed or NaN
    mesh = build_structured_mesh(4, TRIANGLE)
    solve_hybrid(Spaces(mesh, 2), 1.0, 1.0, zero_vec, zero_scalar)
    args = condensed_calls[-1].tree.args
    firsts = np.unique(hybrid._patch_levels(mesh)[-1], return_index=True)[1]
    for factor, why in ((-1.0, r"pivot -\S+ below 1e-13 \* max entry "),
                        (0.0, r"pivot 0\.000e\+00 below 1e-13 \* max "
                              r"entry 0\.000e\+00$"),
                        (np.nan, "non-finite entry nan$")):
        with pytest.raises(SingularMatrixError,
                           match=r"^patch interior matrix of cell (\d+): "
                                 "Cholesky factorization of matrix 0: "
                                 + why) as err:
            hybrid._PatchTree(args.mesh, args.red, args.n, args.cell_class,
                              factor * args.energy, args.flux, args.first)
        assert err.value.index == 0
        cell = int(str(err.value).split()[5].rstrip(":"))
        assert cell in firsts


def test_hybrid_matches_direct_on_strip_and_odd_n():
    # a strip has no interior vertex, and odd n gives leaves of unequal
    # sizes at different depths
    case = make_case(1)
    meshes = [strip_quads(n) for n in (1, 2, 5)]
    meshes += [build_structured_mesh(n, kind) for n in (3, 5)
               for kind in (QUAD, TRIANGLE)]
    meshes += [checkerboard_triangles(n) for n in (3, 5)]
    for mesh in meshes:
        for k in (1, 2):
            spaces = Spaces(mesh, k, fine_degree=data_quadrature_degree(
                case, k, 5))
            a = solve_hybrid(spaces, case.nu, case.gamma, case.body_force,
                             case.mass_source)
            b = solve_direct(spaces, case.nu, case.gamma, case.body_force,
                             case.mass_source)
            assert max(compare_fields(spaces, a, b).values()) <= 1e-9


def test_cellwise_energy_product_matches_assembled(condensed_calls):
    case = make_case(1)
    rng = np.random.default_rng(0)
    for kind, n, k in ((TRIANGLE, 8, 3), (QUAD, 6, 1)):
        solve_case(kind, n, k, case)
        call = condensed_calls[-1]
        energy = assembled_energy(call)
        m = energy.shape[0]
        x = rng.standard_normal(m)
        want = energy @ x
        got = hybrid._cellwise_product(call.spaces, call.energy, call.cols,
                                       m)(x)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_condensed_residual_no_worse_than_general_lu(condensed_calls):
    # the reduced SPD solve, refined once against the pinned saddle point,
    # leaves a residual on that saddle point no larger than a general LU
    # of it with COLAMD ordering, threshold partial pivoting and its own
    # refinement step
    case = make_case(1)
    for kind, n, k in ((QUAD, 32, 1), (TRIANGLE, 8, 3)):
        solve_case(kind, n, k, case)
        call = condensed_calls[-1]
        energy = assembled_energy(call)
        incidence, n0, rhs = call.incidence, call.n0, call.rhs
        m = energy.shape[0]
        select = sp.csr_matrix((np.ones(len(n0)), (np.arange(len(n0)), n0)),
                               shape=(len(n0), m))
        p1 = incidence[1:] @ select
        full = sp.bmat([[energy, None, p1.T], [None, sp.identity(1), None],
                        [p1, None, None]], format="csc")
        lu_x = SparseFactor(full).solve(rhs)
        res = [np.linalg.norm(rhs - full @ x) / np.linalg.norm(rhs)
               for x in (call.x, lu_x)]
        assert res[0] <= res[1], (kind, n, k, res)


def test_direct_factors_postprocessing_once_per_class(monkeypatch):
    made = []
    init = DenseFactor.__init__

    def counting_init(self, a):
        made.append(a.shape)
        init(self, a)

    monkeypatch.setattr(DenseFactor, "__init__", counting_init)
    case = make_case(1)
    spaces = Spaces(build_structured_mesh(8, QUAD), 1)
    solve_direct(spaces, case.nu, case.gamma, case.body_force, case.mass_source)
    # one stacked factorization each of the nodal dof matrices, the
    # private blocks (gradient rows and interior velocity moments) and
    # the postprocessing matrices of all the classes
    fam = spaces.family
    n_cls = len(spaces.class_rep)
    n_d = 2 * fam.n_g + fam.n_v_interior
    assert n_cls < spaces.mesh.num_cells
    assert sorted(made) == sorted([(n_cls, fam.n_v, fam.n_v),
                                   (n_cls, n_d, n_d),
                                   (n_cls, fam.n_post + 1, fam.n_post + 1)])


def test_direct_system_has_no_dense_row(monkeypatch):
    # the pressure constant is pinned, not fixed by a multiplier coupled
    # to every pressure dof, so each row stays within two cells' unknowns
    seen = []
    inner = hybrid.sparse_solve

    def capture(builder, b):
        seen.append(builder.finalize())
        return inner(builder, b)

    monkeypatch.setattr(hybrid, "sparse_solve", capture)
    case = make_case(1)
    spaces = Spaces(build_structured_mesh(8, QUAD), 1)
    solve_direct(spaces, case.nu, case.gamma, case.body_force, case.mass_source)
    fam = spaces.family
    n_cell = 2 * fam.n_g + fam.n_v + fam.n_q + fam.n_cell_facets * fam.n_facet
    (mat,) = seen
    assert np.diff(mat.tocsr().indptr).max() <= 2 * n_cell
    assert np.diff(mat.indptr).max() <= 2 * n_cell


def test_direct_eliminates_gradient_rows(monkeypatch):
    # the sparse system holds only the facet velocity, pressure and trace
    # unknowns, and the recovered private unknowns satisfy the
    # uncondensed cell rows: the gradient rows, and the interior velocity
    # rows with their load
    seen = []
    inner = hybrid.sparse_solve

    def capture(builder, b):
        seen.append(builder.shape)
        return inner(builder, b)

    monkeypatch.setattr(hybrid, "sparse_solve", capture)
    case = make_case(1)
    spaces = Spaces(perturbed_triangles(4, 0.2, seed=2016), 2,
                    fine_degree=data_quadrature_degree(case, 2, 4))
    fields = solve_direct(spaces, case.nu, case.gamma,
                          case.body_force, case.mass_source)
    mesh = spaces.mesh
    fam = spaces.family
    nc = mesh.num_cells
    n_int = fam.n_v_interior
    n_fv = fam.n_cell_facets * fam.n_facet
    # the facet velocity moments and the traces, then the pressures
    n_kept = 2 * len(mesh.interior_facets) * fam.n_facet + nc * fam.n_q
    assert seen == [(n_kept, n_kept)]
    assert fields.n_global == n_kept

    uhat_pad = np.append(fields.uhat_t, 0.0)
    blocks = element_blocks(spaces, spaces.class_rep, case.nu, case.gamma)
    class_trans = spaces.class_nodal_transforms()
    mats, _ = hybrid._direct_cell_matrix(blocks, class_trans, fam)
    fmom = hybrid._data_moments(spaces, np.arange(nc), case.body_force,
                                case.mass_source)[0]
    n_l = 2 * fam.n_g
    n_d = n_l + n_int
    assert n_int > 0
    for c in range(nc):
        trans = class_trans[spaces.cell_class[c]]
        mat = mats[spaces.cell_class[c]]
        alpha = np.linalg.solve(trans, fields.u[c])
        x = np.concatenate([fields.l[c].ravel(), alpha[n_fv:], alpha[:n_fv],
                            fields.p[c], uhat_pad[spaces.facet_dofs[c]]])
        load = np.zeros(n_d)
        load[n_l:] = (fmom[c] @ trans)[n_fv:]
        scale = np.abs(mat[:n_d]).max() * np.abs(x).max()
        assert np.abs(mat[:n_d] @ x - load).max() <= 1e-13 * scale


def test_direct_mean_mult_matches_hybrid():
    # a mass source whose mean is 1e-11, below the refusal tolerance:
    # both solvers remove the same mean
    case = make_case(1)

    def offset_source(x):
        return case.mass_source(x) + 1e-11

    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(4, kind), 1)
        a = solve_hybrid(spaces, case.nu, case.gamma, case.body_force,
                         offset_source)
        b = solve_direct(spaces, case.nu, case.gamma, case.body_force,
                         offset_source)
        assert abs(a.mean_mult - 1e-11) <= 1e-12
        assert abs(b.mean_mult - a.mean_mult) <= 1e-12
        assert max(compare_fields(spaces, a, b).values()) < 1e-10


def compare_fields_per_cell(spaces, fa, fb):
    """The per-cell and per-facet loops compare_fields replaces."""
    dl2 = du2 = dp2 = dut2 = 0.0
    for c in range(spaces.mesh.num_cells):
        cell = pull_back_tab(spaces, c, spaces.assembly_degree)[0]
        w = cell["wdet"]
        dl = np.einsum("ra,acq->rcq", fa.l[c] - fb.l[c], cell["g"])
        dl2 += float(np.einsum("rcq,rcq,q->", dl, dl, w))
        du = np.einsum("m,mrq->rq", fa.u[c] - fb.u[c], cell["v"])
        du2 += float(np.einsum("rq,rq,q->", du, du, w))
        dp = np.einsum("i,iq->q", fa.p[c] - fb.p[c], cell["q_vals"])
        dp2 += float(np.dot(dp ** 2, w))
    dt = fa.uhat_t - fb.uhat_t
    kk = spaces.family.n_facet
    for f in spaces.mesh.interior_facets:
        rank = spaces.mesh.interior_index[f]
        seg = dt[rank * kk:(rank + 1) * kk]
        dut2 += float(spaces.mesh.facet_lengths[f] * np.dot(seg, seg))
    return {"dl": np.sqrt(dl2), "du": np.sqrt(du2),
            "dp": np.sqrt(dp2), "dut": np.sqrt(dut2)}


def normal_trace_jumps_per_facet(spaces, u_modal):
    """The per-facet loop normal_trace_jumps replaces, on bases evaluated
    at pulled-back points of the fine rule."""
    mesh = spaces.mesh

    def normal_trace(c, f):
        """u.n against the stored normal of facet f, from cell c, and the
        facet weights."""
        fac = pull_back_tab(spaces, c, spaces.fine_degree)[1][
            local_facet(mesh, c, f)]
        vn = np.einsum("m,mcq,c->q", u_modal[c], fac["facet_v"],
                       fac["normal"])
        return vn, fac["w"]

    int_max = bnd_max = 0.0
    for f in range(mesh.num_facets):
        own, nbr = mesh.facet_cells[f]
        vn_own, w = normal_trace(own, f)
        if nbr == -1:
            bnd_max = max(bnd_max, float(np.sqrt(np.sum(w * vn_own ** 2))))
            continue
        jump = vn_own - normal_trace(nbr, f)[0]
        int_max = max(int_max, float(np.sqrt(np.sum(w * jump ** 2))))
    return int_max, bnd_max


def random_fields(spaces, rng):
    fam = spaces.family
    nc = spaces.mesh.num_cells
    n_t = len(spaces.mesh.interior_facets) * fam.n_facet
    return SimpleNamespace(l=rng.standard_normal((nc, 2, fam.n_g)),
                           u=rng.standard_normal((nc, fam.n_v)),
                           p=rng.standard_normal((nc, fam.n_q)),
                           uhat_t=rng.standard_normal(n_t))


def test_field_checks_match_per_cell_loops(monkeypatch):
    # one-cell classes, and classes split over several blocks
    monkeypatch.setattr(fespace, "BLOCK_CELLS", 3)
    rng = np.random.default_rng(4)
    for mesh, k in ((perturbed_triangles(4, 0.2, seed=1), 2),
                    (build_structured_mesh(6, QUAD), 1)):
        spaces = Spaces(mesh, k)
        fa, fb = random_fields(spaces, rng), random_fields(spaces, rng)
        got = compare_fields(spaces, fa, fb)
        want = compare_fields_per_cell(spaces, fa, fb)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-13), key
        got = normal_trace_jumps(spaces, fa.u)
        want = normal_trace_jumps_per_facet(spaces, fa.u)
        assert got == pytest.approx(want, rel=1e-13)
    assert np.bincount(spaces.cell_class).max() > 3


def test_solves_match_across_block_sizes(monkeypatch):
    # one cell per block, classes split over several blocks, and the
    # default; 8x8 quads have one class of 64 cells, the perturbed
    # triangles one-cell classes
    case = make_case(1)
    sizes = (1, 3, fespace.BLOCK_CELLS)
    for mesh, k in ((build_structured_mesh(8, QUAD), 1),
                    (perturbed_triangles(4, 0.2, seed=2016), 2)):
        for solve in (solve_hybrid, solve_direct):
            runs = []
            for size in sizes:
                monkeypatch.setattr(fespace, "BLOCK_CELLS", size)
                spaces = Spaces(mesh, k, fine_degree=data_quadrature_degree(
                    case, k, 4))
                runs.append(solve(spaces, case.nu, case.gamma,
                                  case.body_force, case.mass_source))
            ref = runs[0]
            for run in runs[1:]:
                for fld in dataclass_fields(SolutionFields):
                    want, got = getattr(ref, fld.name), getattr(run, fld.name)
                    if isinstance(want, np.ndarray):
                        gap = np.abs(got - want).max()
                        assert gap <= 1e-12 * np.abs(want).max(), fld.name
                    elif fld.name == "mean_mult":
                        assert abs(got - want) <= 1e-12
                    else:
                        assert got == want, fld.name


def test_compare_fields_without_interior_facets():
    # one quad: no trace unknowns, and both solvers still agree
    case = make_case(1)
    spaces = Spaces(build_structured_mesh(1, QUAD), 2)
    assert len(spaces.mesh.interior_facets) == 0
    a = solve_hybrid(spaces, case.nu, case.gamma, case.body_force,
                     case.mass_source)
    b = solve_direct(spaces, case.nu, case.gamma, case.body_force,
                     case.mass_source)
    diffs = compare_fields(spaces, a, b)
    assert diffs["dut"] == 0.0
    assert max(diffs.values()) <= 1e-9


def test_data_called_once_per_block_of_mixed_classes():
    # 288 one-cell classes on perturbed 12x12 triangles: the body force is
    # called once per block of BLOCK_CELLS cells, not once per class
    case = make_case(1)
    spaces = Spaces(perturbed_triangles(12, 0.2, seed=0), 2,
                    fine_degree=data_quadrature_degree(case, 2, 12))
    nc = spaces.mesh.num_cells
    assert len(spaces.class_rep) == nc
    calls = []

    def counted_force(x):
        calls.append(len(x))
        return case.body_force(x)

    solve_hybrid(spaces, case.nu, case.gamma, counted_force,
                 case.mass_source)
    assert len(calls) <= -(-nc // fespace.BLOCK_CELLS)


def test_incompatible_mass_source_rejected():
    def unit_source(x):
        return np.ones(x.shape[0])

    spaces = Spaces(build_structured_mesh(4, QUAD), 1)
    with pytest.raises(ValueError, match="mass source .*unit_source.* "
                       r"\|int g\| = 1\.000e\+00 against int \|g\| = 1\.000e\+00"
                       r".*fine_degree=verify\.data_quadrature_degree\(case, k, n\)"):
        solve_hybrid(spaces, 1.0, 1.0, zero_vec, unit_source)


def test_bad_data_rejected():
    case = make_case(1)

    def nan_force(x):
        # one NaN in the whole solve: the first point of the top-right cell
        out = case.body_force(x)
        hit = np.all(x > 0.75, axis=1)
        if hit.any():
            out[np.argmax(hit), 1] = np.nan
        return out

    def column_force(x):
        return case.body_force(x)[:, :1]

    def column_source(x):
        return case.mass_source(x)[:, None]

    spaces = Spaces(build_structured_mesh(4, QUAD), 1)
    for f_func, g_func, message in (
            (nan_force, case.mass_source,
             r"body force .*nan_force returned the non-finite value nan "
             r"at 1 of"),
            (column_force, case.mass_source,
             r"body force .*column_force returned shape \((\d+), 1\) at "
             r"\1 points; expected \(\1, 2\)"),
            (case.body_force, column_source,
             r"mass source .*column_source returned shape \((\d+), 1\) at "
             r"\1 points; expected \(\1,\)")):
        with pytest.raises(ValueError, match=message):
            solve_hybrid(spaces, case.nu, case.gamma, f_func, g_func)


def test_mean_multiplier_vanishes_for_compatible_data():
    case = make_case(1)
    for kind in (QUAD, TRIANGLE):
        spaces, fields = solve_case(kind, 4, 1, case)
        assert abs(fields.mean_mult) <= 1e-12


def test_normal_trace_equals_facet_unknown():
    # the recovered velocity satisfies tr_n(u^h) = uhat_n on interior facets
    case = make_case(1)
    spaces, fields = solve_case(QUAD, 2, 1, case)
    mesh = spaces.mesh
    kk = spaces.family.n_facet
    for f in mesh.interior_facets:
        c = int(mesh.facet_cells[f, 0])
        fac = pull_back_tab(spaces, c, spaces.assembly_degree)[1][
            local_facet(mesh, c, f)]
        vn = np.einsum("m,mcq,c->q", fields.u[c], fac["facet_v"],
                       fac["normal"])
        mom = np.einsum("jq,q,q->j", fac["phi"], vn, fac["w"]) / fac["h"]
        rank = mesh.interior_index[f]
        assert np.abs(mom - fields.uhat_n[rank * kk:(rank + 1) * kk]).max() < 1e-11


def test_cell_pressure_average_consistent():
    case = make_case(1)
    spaces, fields = solve_case(QUAD, 2, 1, case)
    for c in range(spaces.mesh.num_cells):
        cell = pull_back_tab(spaces, c, spaces.assembly_degree)[0]
        w = cell["wdet"]
        mean = np.einsum("i,iq,q->", fields.p[c], cell["q_vals"], w) / w.sum()
        assert abs(mean - fields.pbar[c]) < 1e-12


def test_dof_count_report():
    spaces = Spaces(build_structured_mesh(2, QUAD), 1)
    case = make_case(1)
    fields = solve_hybrid(spaces, case.nu, case.gamma,
                          case.body_force, case.mass_source)
    # 4 interior facets, 2 moments each, two trace families, plus 4 cells
    assert fields.n_global == 2 * 8 + 4
    # local block per cell: gradient rows + velocity + mean-free pressure
    # + facet multiplier
    fam = spaces.family
    per_cell = 2 * fam.n_g + fam.n_v + (fam.n_q - 1) + 4 * fam.n_facet
    assert fields.n_local == 4 * per_cell


def test_reference_table_value():
    # 256-cell squares, degree 1: velocity error 4.211e-03
    case = make_case(1)
    spaces, fields = solve_case(QUAD, 16, 1, case)
    report = error_norms(spaces, fields, case)
    assert report.err_u == pytest.approx(4.211e-03, rel=0.05)


def test_degenerate_coefficients_detected(monkeypatch):
    spaces = Spaces(build_structured_mesh(2, QUAD), 1)
    case = make_case(1)
    # a nu that is not positive is refused before any local solve
    for solve in (solve_hybrid, solve_direct):
        with pytest.raises(ValueError, match="nu must be finite and positive"):
            solve(spaces, -1.0, 1.0, case.body_force, case.mass_source)
    # no viscosity, no resistance: element_blocks refuses nu = 0, so the
    # blocks are made with nu = 1 (no block depends on it) and given nu = 0
    def inviscid(spaces, cells, nu, gamma):
        return replace(element_blocks(spaces, cells, 1.0, gamma), nu=0.0)

    from brinkhdg.hybrid import LocalSolver
    with pytest.raises(SingularMatrixError,
                       match="^local solver matrix of cell 3: "):
        LocalSolver(inviscid(spaces, [3], 0.0, 0.0), spaces.family)
    monkeypatch.setattr(hybrid, "element_blocks", inviscid)
    # on every class at once, the first class's cell is named
    with pytest.raises(SingularMatrixError,
                       match="^local solver matrix of cell 0: "):
        build_local_solvers(spaces, 0.0, 0.0)
    # the oracle's private blocks (gradient rows and interior velocity
    # moments) are then zero, and the first class's cell is named
    with pytest.raises(SingularMatrixError,
                       match="^private block of cell 0: "):
        solve_direct(spaces, 0.0, 0.0, case.body_force, case.mass_source)


def test_point_evaluation_matches_projection_error():
    case = make_case(1)
    spaces, fields = solve_case(QUAD, 8, 2, case)
    pts = np.array([[0.31, 0.41], [0.77, 0.12], [0.5, 0.99]])
    out = evaluate_fields(spaces, fields, pts)
    exact = case.velocity(pts)
    # discretization error at k=2 on h=1/8 is far below 1e-2 pointwise
    assert np.abs(out["u"] - exact).max() < 1e-2
    assert np.abs(out["p"] - case.pressure(pts)).max() < 1e-1
    assert np.abs(out["ustar"] - exact).max() < 1e-3
    assert out["l"].shape == (3, 2, 2)


def test_point_evaluation_on_perturbed_mesh():
    # every cell its own geometry class; at k=2 on h=1/8 with seed 2016
    # the measured maxima over 50 points are |u| 6.9e-3, |p| 3.2e-2,
    # |u*| 2.1e-3 and |L| 0.12 against the exact solution (|u| <= 0.95,
    # |L| <= 6.2 there)
    case = make_case(1)
    spaces = Spaces(perturbed_triangles(8, 0.2, seed=2016), 2,
                    fine_degree=data_quadrature_degree(case, 2, 8))
    fields = solve_hybrid(spaces, case.nu, case.gamma,
                          case.body_force, case.mass_source)
    pts = np.random.default_rng(11).uniform(0.0, 1.0, size=(50, 2))
    out = evaluate_fields(spaces, fields, pts)
    exact = case.velocity(pts)
    assert np.abs(out["u"] - exact).max() < 1.5e-2
    assert np.abs(out["p"] - case.pressure(pts)).max() < 6e-2
    assert np.abs(out["ustar"] - exact).max() < 4e-3
    assert np.abs(out["l"] - case.velocity_gradient(pts)).max() < 0.25
    # at the quadrature points of a cell the values are the tabulated
    # fields of that cell (measured 2.1e-15)
    for c in (5, 40, 101):
        cell = pull_back_tab(spaces, c, spaces.assembly_degree)[0]
        got = evaluate_fields(spaces, fields,
                              spaces.vol_points(c, spaces.assembly_degree))
        want = {"u": np.einsum("m,mrq->qr", fields.u[c], cell["v"]),
                "p": fields.p[c] @ cell["q_vals"],
                "l": np.einsum("ra,acq->qrc", fields.l[c], cell["g"]),
                "ustar": np.einsum("ri,iq->qr", fields.ustar[c], cell["post"])}
        for key, val in want.items():
            assert np.abs(got[key] - val).max() < 1e-13, (c, key)


def test_solution_dump_reproducible(tmp_path):
    case = make_case(1)
    spaces, fields = solve_case(TRIANGLE, 2, 1, case)
    pa = tmp_path / "a.txt"
    pb = tmp_path / "b.txt"
    write_solution_text(pa, spaces, fields)
    fields2 = solve_hybrid(spaces, case.nu, case.gamma,
                           case.body_force, case.mass_source)
    write_solution_text(pb, spaces, fields2)
    assert pa.read_text() == pb.read_text()
    assert pa.read_text().startswith("cell_kind triangle k 1 cells 8\n")
