"""Quadrature rules and reference element bases."""

import numpy as np
import pytest

from brinkhdg.refelem import (REFERENCE_CELLS, SegmentBasis,
                              divergence_span_coeffs, make_basis, quadrature)

# normal-trace fit residual, relative to 1 + the largest trace, of roundoff
NORMAL_TRACE_TOL = 1e-9


def monomial_integral_simplex(i, j):
    # int_T x^i y^j = i! j! / (i + j + 2)!
    from math import factorial
    return factorial(i) * factorial(j) / factorial(i + j + 2)


def test_segment_rule_exactness():
    for deg in range(0, 14):
        rule = quadrature("segment", deg)
        for p in range(deg + 1):
            val = np.dot(rule.weights, rule.points[:, 0] ** p)
            assert val == pytest.approx(1.0 / (p + 1), rel=1e-13)


def test_square_rule_exactness():
    for deg in (1, 3, 6, 9):
        rule = quadrature("square", deg)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                val = np.dot(rule.weights,
                             rule.points[:, 0] ** i * rule.points[:, 1] ** j)
                exact = 1.0 / ((i + 1) * (j + 1))
                assert val == pytest.approx(exact, rel=1e-13)


def test_simplex_rule_exactness():
    for deg in (0, 1, 2, 4, 7, 10):
        rule = quadrature("simplex", deg)
        assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                val = np.dot(rule.weights,
                             rule.points[:, 0] ** i * rule.points[:, 1] ** j)
                assert val == pytest.approx(monomial_integral_simplex(i, j),
                                            rel=1e-12)


def test_quadrature_rejects_bad_args():
    with pytest.raises(ValueError):
        quadrature("segment", -1)
    with pytest.raises(ValueError):
        quadrature("cube", 2)


def test_quadrature_rules_cached_read_only():
    for domain in ("segment", "square", "simplex"):
        rule = quadrature(domain, 5)
        assert quadrature(domain, 5) is rule
        for arr in (rule.points, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_reference_cells_geometry():
    for name, cell in REFERENCE_CELLS.items():
        for (i0, i1), normal in zip(cell.facets, cell.normals):
            edge = cell.vertices[i1] - cell.vertices[i0]
            assert abs(edge @ normal) < 1e-14          # normal orthogonal to edge
            mid = 0.5 * (cell.vertices[i0] + cell.vertices[i1])
            centroid = cell.vertices.mean(axis=0)
            assert (mid - centroid) @ normal > 0.0     # outward


BASIS_DIMS = [
    ("P", "simplex", lambda k: (k + 1) * (k + 2) // 2),
    ("P", "square", lambda k: (k + 1) * (k + 2) // 2),
    ("Pvec", "simplex", lambda k: (k + 1) * (k + 2)),
    ("RT", None, lambda k: (k + 1) * (k + 3)),
    ("BDM", None, lambda k: (k + 1) * (k + 2) + (1 if k == 0 else 2)),
    ("BDFM", None, lambda k: (k + 1) * (k + 4)),
]


def test_basis_dimensions():
    for family, cell, dim in BASIS_DIMS:
        for k in range(4):
            basis = make_basis(family, k, cell)
            assert basis.num_funcs == dim(k), (family, k)


def test_basis_orthonormality():
    for family, cell, _ in BASIS_DIMS:
        for k in (0, 2):
            basis = make_basis(family, k, cell)
            rule = quadrature(basis.cell, 2 * (k + 1) + 2)
            vals = basis.tabulate(rule.points)
            if basis.is_vector:
                gram = np.einsum("ncp,mcp,p->nm", vals, vals, rule.weights)
            else:
                gram = np.einsum("np,mp,p->nm", vals, vals, rule.weights)
            assert np.abs(gram - np.eye(basis.num_funcs)).max() < 1e-12


def test_gradient_tabulation_matches_finite_differences():
    basis = make_basis("RT", 2)
    pts = np.array([[0.21, 0.37], [0.5, 0.12], [0.05, 0.83]])
    h = 1e-7
    grads = basis.tabulate_grad(pts)
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = h
        fd = (basis.tabulate(pts + shift) - basis.tabulate(pts - shift)) / (2 * h)
        assert np.abs(grads[:, :, d, :] - fd).max() < 1e-6


def test_divergence_tabulation_consistent_with_gradient():
    for family, cell in (("RT", None), ("BDFM", None), ("Pvec", "simplex")):
        basis = make_basis(family, 1, cell)
        pts = np.array([[0.3, 0.4], [0.11, 0.07]])
        grads = basis.tabulate_grad(pts)
        div = basis.tabulate_div(pts)
        assert np.allclose(div, grads[:, 0, 0, :] + grads[:, 1, 1, :])


def test_scalar_basis_has_no_divergence():
    with pytest.raises(ValueError):
        make_basis("P", 1, "simplex").tabulate_div(np.zeros((1, 2)))


def normal_trace_degree_check(basis, k):
    """True when every facet normal trace of the basis has degree <= k.

    The trace is sampled along each reference facet and fitted with a
    polynomial of degree k; the check fails when some fit residual is
    nonzero beyond roundoff.
    """
    ref = REFERENCE_CELLS[basis.cell]
    s = np.linspace(0.05, 0.95, k + 4)
    vander = np.vander(s, k + 1)
    for (i0, i1), normal in zip(ref.facets, ref.normals):
        p0, p1 = ref.vertices[i0], ref.vertices[i1]
        pts = p0 + s[:, None] * (p1 - p0)
        vn = np.einsum("ncp,c->np", basis.tabulate(pts), normal)
        coef = np.linalg.lstsq(vander, vn.T, rcond=None)[0]
        if (np.abs(vander @ coef - vn.T).max()
                > NORMAL_TRACE_TOL * (1.0 + np.abs(vn).max())):
            return False
    return True


def test_normal_trace_degrees():
    # facet normal traces must lie in P_k for the velocity families
    for family in ("RT", "BDFM"):
        for k in range(3):
            basis = make_basis(family, k)
            assert normal_trace_degree_check(basis, k)
    # full vector polynomials of degree k+1 would fail the same bound
    assert not normal_trace_degree_check(make_basis("Pvec", 2, "simplex"), 1)


def test_divergence_span_ranks():
    # div RT_k = P_k and div BDFM_k = P_k; the curl tail of BDM_k is
    # divergence free so div BDM_k = div P_k^2 = P_{k-1}, like Pvec_k
    for k in range(3):
        pk = (k + 1) * (k + 2) // 2
        assert divergence_span_coeffs(make_basis("RT", k)).shape[0] == pk
        assert divergence_span_coeffs(make_basis("BDFM", k)).shape[0] == pk
        pkm1 = k * (k + 1) // 2
        assert divergence_span_coeffs(make_basis("BDM", k)).shape[0] == pkm1
        assert divergence_span_coeffs(
            make_basis("Pvec", k, "simplex")).shape[0] == pkm1


def test_divergence_span_orthonormal():
    basis = make_basis("RT", 2)
    span = divergence_span_coeffs(basis)
    rule = quadrature("simplex", 2 * basis.degree + 2)
    dv = span @ basis.tabulate_div(rule.points)
    gram = np.einsum("np,mp,p->nm", dv, dv, rule.weights)
    assert np.abs(gram - np.eye(span.shape[0])).max() < 1e-10


def test_segment_basis_orthonormal_and_complete():
    for k in range(4):
        seg = SegmentBasis(k)
        rule = quadrature("segment", 2 * k + 2)
        vals = seg.tabulate(rule.points[:, 0])
        gram = np.einsum("ip,jp,p->ij", vals, vals, rule.weights)
        assert np.abs(gram - np.eye(k + 1)).max() < 1e-13
        # spans all of P_k: project a degree-k polynomial and reproduce it
        s = rule.points[:, 0]
        target = (2.0 * s - 0.7) ** k
        coef = np.einsum("jp,p,p->j", vals, target, rule.weights)
        assert np.abs(coef @ vals - target).max() < 1e-12


def test_segment_basis_leading_function_constant():
    seg = SegmentBasis(2)
    vals = seg.tabulate(np.array([0.1, 0.9]))
    assert np.allclose(vals[0], 1.0)


def test_bdm_contains_full_polynomials():
    # P_k^2 subset BDM_k: a projection onto the basis reproduces any member
    for k in (0, 1, 2):
        basis = make_basis("BDM", k)
        rule = quadrature("square", 2 * (k + 1) + 2)
        target = np.zeros((2, rule.points.shape[0]))
        target[0] = rule.points[:, 0] ** k
        target[1] = (rule.points[:, 0] + rule.points[:, 1]) ** k
        vals = basis.tabulate(rule.points)
        coef = np.einsum("ncp,cp,p->n", vals, target, rule.weights)
        recon = np.einsum("n,ncp->cp", coef, vals)
        assert np.abs(recon - target).max() < 1e-11


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_basis("ABF", 1)
    with pytest.raises(ValueError):
        make_basis("P", 1)  # scalar family needs a cell
