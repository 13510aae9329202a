"""Manufactured cases, error norms, and the convergence harness."""

import dataclasses

import numpy as np
import pytest

from affine_maps import affine_map, pull_back_tab
from brinkhdg import fespace, verify
from brinkhdg.fespace import Spaces
from brinkhdg.forms import (element_blocks, postprocess_factor,
                            postprocess_velocity, project_facet_tangent,
                            project_grad, project_pressure,
                            project_velocity_div)
from brinkhdg.hybrid import SolutionFields, evaluate_fields, solve_hybrid
from brinkhdg.mesh import (QUAD, TRIANGLE, build_structured_mesh,
                           perturbed_triangles)
from brinkhdg.refelem import quadrature
from brinkhdg.verify import (BrinkmanCase, ConvergenceTable, ErrorReport,
                             LevelRow, data_quadrature_degree,
                             energy_identity_terms, error_norms, make_case,
                             run_convergence, stability_ratio)

ERROR_MEASURES = ("err_l", "err_u", "err_p", "err_ustar", "err_eu", "err_el",
                  "err_h1", "err_dl_facet")

PEAK = np.array([[0.25, 0.25]])  # sin(2 pi x) sin(2 pi y) = 1 here


def test_reference_settings():
    one = make_case(1)
    assert (one.nu, one.m) == (1.0, 2)
    assert np.allclose(one.gamma, np.eye(2))
    assert make_case(2).m == 20
    assert make_case(3).nu == pytest.approx(1e-4)
    with pytest.raises(ValueError):
        make_case(4)


def test_case_point_values():
    case = make_case(1)
    assert np.allclose(case.velocity(PEAK), [[1.0, 1.0]])
    # grad p vanishes at the velocity peak for m = 2, so
    # f = 8 pi^2 nu + gamma there and g = 0
    f = case.body_force(PEAK)
    assert np.allclose(f, 8 * np.pi ** 2 + 1.0)
    assert abs(case.mass_source(PEAK)[0]) < 1e-12

    darcy = make_case(3)
    f = darcy.body_force(PEAK)
    assert np.allclose(f, 8 * np.pi ** 2 * 1e-4 + 1.0)


def test_pressure_has_zero_mean():
    for m in (1, 2, 3, 5):
        case = BrinkmanCase(1.0, 1.0, m)
        rule = quadrature("square", 40)
        total = np.dot(rule.weights, case.pressure(rule.points))
        assert abs(total) < 1e-10


def test_velocity_vanishes_on_boundary():
    case = make_case(1)
    t = np.linspace(0.0, 1.0, 7)
    edge = np.stack([t, np.ones_like(t)], axis=-1)
    assert np.abs(case.velocity(edge)).max() < 1e-12


def test_validation_rejects_corrupted_data():
    class BadForce(BrinkmanCase):
        def body_force(self, x):
            return super().body_force(x) + 0.1

    with pytest.raises(RuntimeError, match="body_force"):
        BadForce(1.0, 1.0, 2)

    class BadSource(BrinkmanCase):
        def mass_source(self, x):
            return super().mass_source(x) * 1.001

    with pytest.raises(RuntimeError, match="mass_source"):
        BadSource(1.0, 1.0, 2)


def test_case_parameter_validation():
    with pytest.raises(ValueError):
        BrinkmanCase(0.0, 1.0, 2)
    for nu in (np.nan, np.inf):
        with pytest.raises(ValueError, match="nu must be finite and positive"):
            BrinkmanCase(nu, 1.0, 2)
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            BrinkmanCase(1.0, gamma, 2)
    for m in (0, 2.7, np.nan, np.inf):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            BrinkmanCase(1.0, 1.0, m)


def test_validation_at_high_pressure_frequency(monkeypatch):
    # the finite-difference step shrinks with the frequency, so its
    # truncation error (m pi h)^2 / 6 does not refuse a right gradient,
    # and a gradient off by 1e-4 relative is still refused
    for m in (800, 1000, 3000, 1e4, 1e5):
        BrinkmanCase(1.0, 1.0, m)
    gradient = BrinkmanCase.pressure_gradient
    monkeypatch.setattr(BrinkmanCase, "pressure_gradient",
                        lambda self, x: gradient(self, x) * (1 + 1e-4))
    for m in (2, 1000, 1e4):
        with pytest.raises(RuntimeError, match="pressure_gradient disagrees "
                                               "with finite differences"):
            BrinkmanCase(1.0, 1.0, m)


def test_solution_norm_bound_matches_quadrature():
    # oracle: D^(a,b) of sin(2 pi x) sin(2 pi y) is
    # (2 pi)^(a+b) sin(2 pi x + a pi/2) sin(2 pi y + b pi/2)
    rule = quadrature("square", 30)
    x, y = rule.points[:, 0], rule.points[:, 1]
    tp = 2 * np.pi

    def deriv_sq_integral(a, b):
        vals = (tp ** (a + b)
                * np.sin(tp * x + a * np.pi / 2)
                * np.sin(tp * y + b * np.pi / 2))
        return np.dot(rule.weights, vals ** 2)

    for k in (0, 1, 2):
        up_to = k + 1
        norm_u_sq = 2.0 * sum(deriv_sq_integral(a, j - a)
                              for j in range(up_to + 1) for a in range(j + 1))
        norm_l_sq = tp ** 2 * 4.0 * sum(
            deriv_sq_integral(a, j - a)
            for j in range(up_to + 1) for a in range(j + 1))
        for nu, gamma in ((1.0, 1.0), (1e-4, 1.0), (2.0, 0.5)):
            case = BrinkmanCase(nu, gamma, 2)
            oracle = (np.sqrt(nu) * np.sqrt(norm_l_sq)
                      + np.sqrt(case.gamma_max) * np.sqrt(norm_u_sq))
            assert case.solution_norm_bound(k) == pytest.approx(oracle, rel=1e-10)


def test_gamma_max_for_matrix_coefficient():
    gamma = np.array([[2.0, 0.5], [0.5, 1.0]])
    case = BrinkmanCase(1.0, gamma, 2)
    assert case.gamma_max == pytest.approx(np.linalg.eigvalsh(gamma)[-1])


def projected_fields(spaces, case):
    """Fields built from the exact solution's projections; the discrete
    error measures all vanish on them."""
    mesh = spaces.mesh
    fam = spaces.family
    kk = fam.n_facet
    nc = mesh.num_cells
    l = np.zeros((nc, 2, fam.n_g))
    u = np.zeros((nc, fam.n_v))
    p = np.zeros((nc, fam.n_q))
    ustar = np.zeros((nc, 2, fam.n_post))
    pbar = np.zeros(nc)
    for c in range(nc):
        l[c] = project_grad(spaces, c, case.velocity_gradient)
        u[c] = project_velocity_div(spaces, c, case.velocity)
        p[c] = project_pressure(spaces, c, case.pressure)
        blocks = element_blocks(spaces, [c], case.nu, case.gamma)
        ustar[c] = postprocess_velocity(postprocess_factor(blocks), 0, l[c],
                                        u[c])
        cell = pull_back_tab(spaces, c, spaces.assembly_degree)[0]
        w = cell["wdet"]
        pbar[c] = np.einsum("i,iq,q->", p[c], cell["q_vals"], w) / w.sum()
    nif = len(mesh.interior_facets)
    uhat_t = np.zeros(nif * kk)
    uhat_n = np.zeros(nif * kk)
    for f in mesh.interior_facets:
        rank = mesh.interior_index[f]
        uhat_t[rank * kk:(rank + 1) * kk] = project_facet_tangent(
            mesh, f, spaces.k, case.velocity, spaces.fine_degree)
    return SolutionFields(
        k=spaces.k, cell_kind=mesh.cell_kind, l=l, u=u, p=p,
        lam=np.zeros((nc, fam.n_cell_facets * kk)), uhat_t=uhat_t,
        uhat_n=uhat_n, pbar=pbar, mean_mult=0.0, ustar=ustar,
        n_global=0, n_local=0)


def test_discrete_errors_vanish_on_projected_fields():
    case = make_case(1)
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(2, kind), 1, fine_degree=12)
        fields = projected_fields(spaces, case)
        report = error_norms(spaces, fields, case)
        assert report.err_eu < 1e-12      # u^h equals its own projection
        assert report.err_el < 1e-12
        assert report.err_h1 < 1e-11     # volume trace matches facet data
        # facet gradient deficit depends only on the data, not the fields
        assert np.isfinite(report.err_dl_facet) and report.err_dl_facet > 0
        assert report.err_u > 1e-4       # true projection error remains
        assert report.err_p > 1e-4
        assert report.theta == pytest.approx(case.solution_norm_bound(1))


def test_error_report_dict_keys():
    report = ErrorReport(*([1.0] * 10))
    keys = set(dataclasses.asdict(report))
    assert keys == {"err_l", "err_u", "err_p", "err_ustar", "err_eu",
                    "err_el", "err_h1", "err_dl_facet", "theta", "gamma_max"}


def error_norms_per_cell(spaces, fields, case):
    """Reference for error_norms: the eight measures summed cell by cell."""
    mesh = spaces.mesh
    k = spaces.k
    kk = spaces.family.n_facet
    nu = case.nu
    sums = dict.fromkeys(ERROR_MEASURES, 0.0)
    for c in range(mesh.num_cells):
        # the bases at the pulled-back fine points
        cell, facets = pull_back_tab(spaces, c, spaces.fine_degree)
        x = spaces.vol_points(c)
        w = cell["wdet"]

        lv = np.einsum("ra,acq->qrc", fields.l[c], cell["g"])
        sums["err_l"] += np.einsum("qrc,q->", (lv - case.velocity_gradient(x)) ** 2, w)
        uex = case.velocity(x)
        uv = np.einsum("m,mrq->qr", fields.u[c], cell["v"])
        sums["err_u"] += np.einsum("qr,q->", (uv - uex) ** 2, w)
        pv = np.einsum("i,iq->q", fields.p[c], cell["q_vals"])
        sums["err_p"] += np.dot((pv - case.pressure(x)) ** 2, w)
        sv = np.einsum("ri,iq->qr", fields.ustar[c], cell["post"])
        sums["err_ustar"] += np.einsum("qr,q->", (sv - uex) ** 2, w)

        proj_u = project_velocity_div(spaces, c, case.velocity)
        ducoef = proj_u - fields.u[c]
        duv = np.einsum("m,mrq->qr", ducoef, cell["v"])
        sums["err_eu"] += np.einsum("qr,q->", duv ** 2, w)
        proj_l = project_grad(spaces, c, case.velocity_gradient)
        dlv = np.einsum("ra,acq->qrc", proj_l - fields.l[c], cell["g"])
        sums["err_el"] += np.einsum("qrc,q->", dlv ** 2, w)
        dgrad = np.einsum("m,mrcq->qrc", ducoef, cell["v_grad"])
        sums["err_h1"] += np.einsum("qrc,q->", dgrad ** 2, w)

        xf = spaces.facet_points(c)
        for lf, fac in enumerate(facets):
            f = int(mesh.cell_facets[c, lf])
            fw, h = fac["w"], fac["h"]
            pcoef = project_facet_tangent(mesh, f, k, case.velocity,
                                          spaces.fine_degree)
            rank = mesh.interior_index[f]
            hcoef = (fields.uhat_t[rank * kk:(rank + 1) * kk]
                     if rank >= 0 else np.zeros(kk))
            ehat = np.einsum("j,jq->q", pcoef - hcoef, fac["phi"])
            eut = np.einsum("m,mcq,c->q", ducoef, fac["facet_v"],
                            fac["tangent"])
            sums["err_h1"] += np.dot(fw, (eut - ehat) ** 2) / h

            dl_f = case.velocity_gradient(xf[lf]) \
                - np.einsum("ra,acq->qrc", proj_l, fac["facet_g"])
            dln = np.einsum("qrc,c->qr", dl_f, fac["sign"] * fac["normal"])
            sums["err_dl_facet"] += nu * h * np.einsum("qr,q->", dln ** 2, fw)
    return {key: np.sqrt(val) for key, val in sums.items()}


def assert_matches_per_cell(spaces, case):
    fields = solve_hybrid(spaces, case.nu, case.gamma,
                          case.body_force, case.mass_source)
    report = error_norms(spaces, fields, case)
    want = error_norms_per_cell(spaces, fields, case)
    for key in ERROR_MEASURES:
        assert getattr(report, key) == pytest.approx(want[key], rel=1e-10), key


def test_error_norms_match_per_cell_on_one_cell_classes():
    case = make_case(1)
    spaces = Spaces(perturbed_triangles(4, 0.2, seed=5), 2,
                    fine_degree=data_quadrature_degree(case, 2, 4))
    assert len(spaces.class_rep) == spaces.mesh.num_cells
    assert_matches_per_cell(spaces, case)


def test_error_norms_match_per_cell_across_blocks(monkeypatch):
    monkeypatch.setattr(fespace, "BLOCK_CELLS", 3)
    case = make_case(3)
    spaces = Spaces(build_structured_mesh(8, QUAD), 1,
                    fine_degree=data_quadrature_degree(case, 1, 8))
    sizes = np.bincount(spaces.cell_class)
    assert sizes.max() > fespace.BLOCK_CELLS
    blocks = list(spaces.cell_blocks())
    assert max(len(cells) for cells in blocks) == fespace.BLOCK_CELLS
    assert len(blocks) > len(sizes)
    assert any(len(np.unique(spaces.cell_class[cells])) > 1
               for cells in blocks)
    assert_matches_per_cell(spaces, case)


def test_error_norms_match_brute_force_point_values():
    # the field errors against a quadrature of point values: the discrete
    # fields from evaluate_fields at the fine rule's points mapped into
    # each cell, the exact fields from the case's callables
    case = make_case(1)
    for mesh, k in ((perturbed_triangles(4, 0.2, seed=5), 2),
                    (build_structured_mesh(3, QUAD), 2)):
        spaces = Spaces(mesh, k, fine_degree=data_quadrature_degree(case, k, 4))
        fields = solve_hybrid(spaces, case.nu, case.gamma,
                              case.body_force, case.mass_source)
        report = error_norms(spaces, fields, case)
        rule = quadrature(spaces.family.ref_cell.name, spaces.fine_degree)
        maps = [affine_map(mesh, c) for c in range(mesh.num_cells)]
        x = np.concatenate([m.apply(rule.points) for m in maps])
        w = np.concatenate([m.det * rule.weights for m in maps])
        got = evaluate_fields(spaces, fields, x)
        want = {"l": case.velocity_gradient(x), "u": case.velocity(x),
                "p": case.pressure(x), "ustar": case.velocity(x)}
        for key, exact in want.items():
            sq = (got[key] - exact) ** 2
            brute = np.sqrt(w @ sq.reshape(len(w), -1).sum(axis=1))
            assert getattr(report, f"err_{key}") == pytest.approx(
                brute, rel=1e-12), (mesh.cell_kind, key)


def reference_callables(case, pi=np.pi):
    """The closed forms of the case's callables, each sine and cosine
    taken one coordinate at a time; with a long double pi and points, they
    are evaluated in long double."""
    tp, mp = 2 * pi, case.m * pi

    def velocity(x):
        s = np.sin(tp * x[:, 0]) * np.sin(tp * x[:, 1])
        return np.stack([s, s], axis=-1)

    def velocity_gradient(x):
        dx = tp * np.cos(tp * x[:, 0]) * np.sin(tp * x[:, 1])
        dy = tp * np.sin(tp * x[:, 0]) * np.cos(tp * x[:, 1])
        return np.stack([dx, dy, dx, dy], axis=-1).reshape(-1, 2, 2)

    def pressure(x):
        return (np.sin(mp * x[:, 0]) * np.sin(mp * x[:, 1])
                - case.pressure_mean)

    def body_force(x):
        s = np.sin(tp * x[:, 0]) * np.sin(tp * x[:, 1])
        visc = 8 * pi ** 2 * case.nu * s
        gu = np.stack([s, s], axis=-1) @ case.gamma.T
        return np.stack([
            visc + gu[:, 0] + mp * np.cos(mp * x[:, 0]) * np.sin(mp * x[:, 1]),
            visc + gu[:, 1] + mp * np.sin(mp * x[:, 0]) * np.cos(mp * x[:, 1])],
            axis=-1)

    def mass_source(x):
        return tp * np.sin(tp * (x[:, 0] + x[:, 1]))

    return dict(velocity=velocity, velocity_gradient=velocity_gradient,
                pressure=pressure, body_force=body_force,
                mass_source=mass_source)


def test_tangent_trig_as_accurate_as_libm():
    # the public callables take their sines and cosines from tangents of
    # the half angles; against a long double evaluation of the closed
    # forms, each is at most twice as far off as libm's sines and cosines
    # one coordinate at a time, relative to its largest value, also where
    # the tangents have their poles: tan(pi x) at odd multiples of 1/2 and
    # tan(m pi x / 2) at odd multiples of 1/m
    rand = np.random.default_rng(11).uniform(-0.2, 1.2, size=(257, 2))
    aniso = np.array([[2.0, 0.7], [0.7, 0.5]])
    pi_ld = 4 * np.arctan(np.longdouble(1))
    for case in (make_case(1), make_case(2), make_case(3),
                 BrinkmanCase(0.3, aniso, 3)):
        poles = np.unique([o / m for m in (2, case.m)
                           for o in range(-m, 3 * m) if o % 2
                           and abs(o / m - 0.5) <= 1])
        y = rand[:16, 1]
        px, py = np.meshgrid(poles, poles)
        x = np.concatenate([
            rand,
            np.stack(np.broadcast_arrays(poles[:, None], y), -1).reshape(-1, 2),
            np.stack(np.broadcast_arrays(y[:, None], poles), -1).reshape(-1, 2),
            np.stack([px.ravel(), py.ravel()], -1)])
        libm = reference_callables(case)
        exact = reference_callables(case, pi=pi_ld)
        for name, ref in exact.items():
            want = ref(x.astype(np.longdouble))
            scale = np.abs(want).max()
            got = getattr(case, name)(x)
            assert np.isfinite(got).all(), (case.label, name)
            err = np.abs(got - want).max() / scale
            err_libm = np.abs(libm[name](x) - want).max() / scale
            assert err <= 2 * err_libm, (case.label, name, err, err_libm)


def test_validation_checks_the_tangent_path_against_libm(monkeypatch):
    # _validate composes the body force from libm's velocity_laplacian and
    # pressure_gradient, so a tangent-path sine or cosine off by 1e-9
    # relative cannot pass construction
    sin_cos = verify._sin_cos
    for part in (0, 1):
        def skewed(a, part=part):
            pair = list(sin_cos(a))
            pair[part] = pair[part] * (1 + 1e-9)
            return tuple(pair)

        monkeypatch.setattr(verify, "_sin_cos", skewed)
        with pytest.raises(RuntimeError):
            make_case(1)


def test_mass_source_matches_product_form():
    # the one sine of the summed angle is the divergence in product form,
    # 2 pi (cos 2 pi x sin 2 pi y + sin 2 pi x cos 2 pi y), to roundoff
    x = np.random.default_rng(12).uniform(-0.2, 1.2, size=(4096, 2))
    tp = 2 * np.pi
    product = tp * (np.cos(tp * x[:, 0]) * np.sin(tp * x[:, 1])
                    + np.sin(tp * x[:, 0]) * np.cos(tp * x[:, 1]))
    for case in (make_case(1), make_case(3), BrinkmanCase(0.3, 0.0, 3)):
        assert np.abs(case.mass_source(x) - product).max() <= 1e-13


def test_error_norms_evaluate_exact_fields_once_per_point(monkeypatch):
    # each fine volume point once and each fine facet point once, however
    # the cells are cut into blocks (velocity, velocity_gradient and
    # pressure read exact_fields too, so every exact value is counted)
    class Counting(BrinkmanCase):
        points = 0

        def exact_fields(self, x):
            self.points += len(x)
            return super().exact_fields(x)

    monkeypatch.setattr(fespace, "BLOCK_CELLS", 5)
    for kind, k in ((TRIANGLE, 2), (QUAD, 1)):
        case = Counting(1.0, 1.0, 2)
        spaces = Spaces(build_structured_mesh(4, kind), k)
        assert len(list(spaces.cell_blocks())) > 2
        fields = solve_hybrid(spaces, case.nu, case.gamma, case.body_force,
                              case.mass_source)
        mesh = spaces.mesh
        q = len(quadrature(spaces.family.ref_cell.name,
                           spaces.fine_degree).weights)
        qf = len(quadrature("segment", spaces.fine_degree).weights)
        case.points = 0
        error_norms(spaces, fields, case)
        assert case.points == mesh.num_cells * q + mesh.num_facets * qf, kind


def test_energy_identity_on_solve():
    case = make_case(1)
    for kind in (QUAD, TRIANGLE):
        spaces = Spaces(build_structured_mesh(4, kind), 1, fine_degree=16)
        fields = solve_hybrid(spaces, case.nu, case.gamma,
                              case.body_force, case.mass_source)
        energy, facet_term, volume_term = energy_identity_terms(
            spaces, fields, case)
        assert energy > 0.0
        gap = abs(energy - facet_term - volume_term)
        assert gap < 1e-8 * energy


def test_data_quadrature_degree_scaling():
    low = data_quadrature_degree(make_case(1), 1, 8)
    high = data_quadrature_degree(make_case(2), 1, 8)
    assert high > low               # m = 20 needs a denser data rule
    assert low >= 2 * 1 + 6
    coarse = data_quadrature_degree(make_case(2), 1, 4)
    fine = data_quadrature_degree(make_case(2), 1, 64)
    assert coarse >= fine           # resolved data needs no boost


def test_run_convergence_rows_and_oracle():
    case = make_case(1)
    table = run_convergence(case, QUAD, 1, 2, base_n=2, check_oracle=True)
    assert [row.n_ele for row in table.rows] == [4, 16]
    assert table.rows[0].oracle_discrepancy is not None
    assert table.rows[0].oracle_discrepancy < 1e-10
    assert table.rows[1].oracle_discrepancy is None
    assert table.rows[0].report.err_u > table.rows[1].report.err_u


def test_run_convergence_keeps_nan_oracle_gap(monkeypatch):
    # Python's max(1e-12, nan, 2e-12) is 2e-12: a NaN field gap that
    # follows a finite one must not read finite
    monkeypatch.setattr(verify, "compare_fields", lambda *args: {
        "dl": 1e-12, "du": np.nan, "dp": 2e-12})
    table = run_convergence(make_case(1), QUAD, 1, 1, base_n=2,
                            check_oracle=True)
    assert np.isnan(table.rows[0].oracle_discrepancy)


def test_csv_layout_and_determinism():
    case = make_case(1)
    table = run_convergence(case, QUAD, 1, 2, base_n=2)
    csv = table.to_csv()
    lines = csv.splitlines()
    assert lines[0] == ("level,n_ele,n_global,n_local,"
                        "err_L,ord_L,err_u,ord_u,err_p,ord_p,"
                        "err_ustar,ord_ustar,err_eu,ord_eu")
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "4"
    assert first[5] == ""            # no order on the first level
    assert "e-" in first[4] or "e+" in first[4]
    second = lines[2].split(",")
    assert float(second[5]) > 0.5    # an actual order estimate
    # bit-identical on a repeated run
    again = run_convergence(case, QUAD, 1, 2, base_n=2)
    assert again.to_csv() == csv
    md = table.to_markdown()
    assert "--" in md.splitlines()[2]


def test_convergence_orders_guard_zero_errors():
    table = ConvergenceTable("x", QUAD, 1)
    for lev, err in ((1, 1.0), (2, 0.0)):
        rep = ErrorReport(err, err, err, err, err, err, err, err, 1.0, 1.0)
        table.add_row(LevelRow(level=lev, n=2 ** lev, n_ele=1, n_global=1,
                               n_local=1, report=rep, seconds=0.0))
    assert table.orders("err_u") == [None, None]


def test_run_convergence_reports_failure_context():
    class Broken:
        nu = 1.0
        gamma = 1.0
        label = "broken"
        max_frequency = 2 * np.pi

        def body_force(self, x):
            return np.zeros(3)   # wrong shape on purpose

        def mass_source(self, x):
            return np.zeros(x.shape[0])

    with pytest.raises(RuntimeError, match=r"level 1 \(quad, n=2, k=1\)"):
        run_convergence(Broken(), QUAD, 1, 1, base_n=2)
    with pytest.raises(ValueError):
        run_convergence(make_case(1), QUAD, 1, 0)


def test_run_convergence_refuses_bad_base_n():
    # base_n = 0 used to run the default ladder of 8 cells per direction
    for base_n in (0, -2):
        with pytest.raises(ValueError, match="^base_n must be >= 1$"):
            run_convergence(make_case(1), QUAD, 1, 1, base_n=base_n)
    # the assembly rule is fixed at 2k+2
    with pytest.raises(TypeError):
        run_convergence(make_case(1), QUAD, 1, 1, base_n=2, quad_degree=9)


def test_stability_ratio_guards():
    good = ErrorReport(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 1.0, 1.0, 1.0)
    degenerate = ErrorReport(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 3.0, 1.0, 1.0, 1.0)
    ratios = stability_ratio([good, degenerate])
    assert ratios[0] == pytest.approx(1.5)
    assert np.isnan(ratios[1])
