"""Reference-cell quadrature rules and polynomial bases.

Bases are built from an explicit monomial spanning set and then
orthonormalized against a high-order Gram matrix, so tabulation at
arbitrary points stays exact (coefficients of x^i y^j) while local
matrices stay well conditioned.

Vector families:
  Pvec   full polynomial vectors P_k^2 (triangle gradient rows)
  RT     Raviart-Thomas on the triangle, P_k^2 + x * homog(k)
  BDM    quad gradient rows, P_k^2 + the two curls of x y^{k+1}, y x^{k+1}
  BDFM   quad velocities, P_k^2 + (x q, 0), (0, y q) for homogeneous q of
         degree k
On the quad at k = 0 the two BDM curl generators coincide; the duplicate
is dropped, which leaves 3 functions per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

SEGMENT = "segment"
SIMPLEX = "simplex"
SQUARE = "square"

# divergence Gram eigenvalues below this share of the largest are dropped
DIV_SPAN_RTOL = 1e-10


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    domain: str
    degree: int
    points: np.ndarray
    weights: np.ndarray


def _gauss_segment(degree):
    npts = degree // 2 + 1
    x, w = npleg.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


def quadrature(domain, degree):
    """Rule exact for polynomials of total degree <= degree on the domain.

    Rules are cached per (domain, degree) and their arrays are read-only.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    return _cached_rule(domain, degree)


@lru_cache(maxsize=None)
def _cached_rule(domain, degree):
    if domain == SEGMENT:
        x, weights = _gauss_segment(degree)
        points = x.reshape(-1, 1)
    elif domain == SQUARE:
        x, w = _gauss_segment(degree)
        X, Y = np.meshgrid(x, x, indexing="ij")
        points = np.column_stack([X.ravel(), Y.ravel()])
        weights = np.outer(w, w).ravel()
    elif domain == SIMPLEX:
        # collapsed (Duffy) rule: x = a (1 - b), y = b, jacobian (1 - b)
        a, wa = _gauss_segment(degree)
        b, wb = _gauss_segment(degree + 1)
        A, B = np.meshgrid(a, b, indexing="ij")
        points = np.column_stack([(A * (1.0 - B)).ravel(), B.ravel()])
        weights = (np.outer(wa, wb) * (1.0 - B)).ravel()
    else:
        raise ValueError(f"unknown quadrature domain: {domain!r}")
    for arr in (points, weights):
        arr.flags.writeable = False
    return QuadratureRule(domain, degree, points, weights)


# ---------------------------------------------------------------------------
# reference cells


@dataclass(frozen=True)
class ReferenceCell:
    name: str
    vertices: np.ndarray
    facets: tuple
    normals: np.ndarray
    measure: float


_SQ2 = np.sqrt(2.0)

REFERENCE_CELLS = {
    SIMPLEX: ReferenceCell(
        SIMPLEX,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        facets=((0, 1), (1, 2), (2, 0)),
        normals=np.array([[0.0, -1.0], [1.0 / _SQ2, 1.0 / _SQ2], [-1.0, 0.0]]),
        measure=0.5,
    ),
    SQUARE: ReferenceCell(
        SQUARE,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        facets=((0, 1), (1, 2), (2, 3), (3, 0)),
        normals=np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        measure=1.0,
    ),
}


# ---------------------------------------------------------------------------
# monomial coefficient helpers; coeffs[..., i, j] multiplies x^i y^j


def _poly_eval(coeffs, points):
    pts = np.asarray(points, float)
    deg1 = coeffs.shape[-1]
    powers = np.arange(deg1)
    X = pts[:, 0][None, :] ** powers[:, None]
    Y = pts[:, 1][None, :] ** powers[:, None]
    return np.einsum("...ij,ip,jp->...p", coeffs, X, Y)


def _poly_dx(coeffs):
    out = np.zeros_like(coeffs)
    deg1 = coeffs.shape[-1]
    out[..., : deg1 - 1, :] = coeffs[..., 1:, :] * np.arange(1, deg1)[:, None]
    return out


def _poly_dy(coeffs):
    out = np.zeros_like(coeffs)
    deg1 = coeffs.shape[-1]
    out[..., :, : deg1 - 1] = coeffs[..., :, 1:] * np.arange(1, deg1)
    return out


class ReferenceBasis:
    """Polynomial basis on a reference cell (scalar or 2-vector valued)."""

    def __init__(self, family, degree, cell, coeffs):
        self.family = family
        self.degree = degree
        self.cell = cell
        self.coeffs = coeffs
        self.is_vector = coeffs.ndim == 4

    @property
    def num_funcs(self):
        return self.coeffs.shape[0]

    def tabulate(self, points):
        """Values; (n, npts) for scalars, (n, 2, npts) for vectors."""
        return _poly_eval(self.coeffs, points)

    def tabulate_grad(self, points):
        """Gradients; scalar (n, 2, npts); vector (n, comp, deriv, npts)."""
        dx = _poly_eval(_poly_dx(self.coeffs), points)
        dy = _poly_eval(_poly_dy(self.coeffs), points)
        return np.stack([dx, dy], axis=-2)

    def tabulate_div(self, points):
        if not self.is_vector:
            raise ValueError("divergence of a scalar basis is undefined")
        dx = _poly_eval(_poly_dx(self.coeffs[:, 0]), points)
        dy = _poly_eval(_poly_dy(self.coeffs[:, 1]), points)
        return dx + dy


def _orthonormalize(coeffs, cell, gram_degree):
    rule = quadrature(cell, gram_degree)
    shape = coeffs.shape
    for _ in range(2):  # second pass cleans up roundoff from the first
        vals = _poly_eval(coeffs, rule.points)
        if coeffs.ndim == 4:
            gram = np.einsum("ncp,mcp,p->nm", vals, vals, rule.weights)
        else:
            gram = np.einsum("np,mp,p->nm", vals, vals, rule.weights)
        chol = np.linalg.cholesky(gram)
        flat = coeffs.reshape(shape[0], -1)
        coeffs = np.linalg.solve(chol, flat).reshape(shape)
    return coeffs


def _scalar_monomial_coeffs(k, deg1):
    out = []
    for total in range(k + 1):
        for i in range(total, -1, -1):
            c = np.zeros((deg1, deg1))
            c[i, total - i] = 1.0
            out.append(c)
    return out


def _vectorize(scalars, deg1):
    out = []
    for c in scalars:
        for comp in range(2):
            v = np.zeros((2, deg1, deg1))
            v[comp] = c
            out.append(v)
    return out


def make_basis(family, k, cell=None):
    """Orthonormalized reference basis.

    family one of "P" (scalar, needs cell), "Pvec" (simplex), "RT" (simplex),
    "BDM" (square), "BDFM" (square).
    """
    if k < 0:
        raise ValueError("polynomial degree must be nonnegative")
    if family == "P":
        if cell not in REFERENCE_CELLS:
            raise ValueError("scalar family needs cell 'simplex' or 'square'")
        deg1 = k + 1
        coeffs = np.array(_scalar_monomial_coeffs(k, deg1))
        return ReferenceBasis("P", k, cell,
                              _orthonormalize(coeffs, cell, 2 * k + 2))

    deg1 = k + 2  # all vector families contain terms of degree k+1
    scalars = _scalar_monomial_coeffs(k, deg1)
    gens = _vectorize(scalars, deg1)

    if family == "Pvec":
        cell = SIMPLEX if cell is None else cell
        gens = gens
    elif family == "RT":
        cell = SIMPLEX
        for i in range(k + 1):  # x * homogeneous monomial x^(k-i) y^i
            v = np.zeros((2, deg1, deg1))
            v[0, k - i + 1, i] = 1.0
            v[1, k - i, i + 1] = 1.0
            gens.append(v)
    elif family == "BDM":
        cell = SQUARE
        v = np.zeros((2, deg1, deg1))  # curl(x y^{k+1}) = ((k+1) x y^k, -y^{k+1})
        v[0, 1, k] = k + 1.0
        v[1, 0, k + 1] = -1.0
        gens.append(v)
        if k >= 1:  # curl(y x^{k+1}) = (x^{k+1}, -(k+1) x^k y); duplicate at k=0
            v = np.zeros((2, deg1, deg1))
            v[0, k + 1, 0] = 1.0
            v[1, k, 1] = -(k + 1.0)
            gens.append(v)
    elif family == "BDFM":
        cell = SQUARE
        for i in range(k + 1):
            v = np.zeros((2, deg1, deg1))
            v[0, k - i + 1, i] = 1.0  # (x q, 0)
            gens.append(v)
            v = np.zeros((2, deg1, deg1))
            v[1, k - i, i + 1] = 1.0  # (0, y q)
            gens.append(v)
    else:
        raise ValueError(f"unknown basis family: {family!r}")

    coeffs = np.array(gens)
    return ReferenceBasis(family, k, cell,
                          _orthonormalize(coeffs, cell, 2 * k + 4))


class SegmentBasis:
    """Orthonormal Legendre basis on the unit segment, first function = 1."""

    def __init__(self, k):
        self.degree = k
        self.num_funcs = k + 1

    def tabulate(self, s):
        s = np.asarray(s, float)
        out = np.empty((self.num_funcs, s.size))
        for j in range(self.num_funcs):
            c = np.zeros(j + 1)
            c[j] = 1.0
            out[j] = np.sqrt(2.0 * j + 1.0) * npleg.legval(2.0 * s - 1.0, c)
        return out


def divergence_span_coeffs(basis):
    """Orthonormal combinations spanning the divergences of a vector basis.

    Returns a (rank, num_funcs) matrix R; the functions sum_a R[i, a] div(v_a)
    are orthonormal on the reference cell.  Divergence-free bases give an
    empty matrix.
    """
    rule = quadrature(basis.cell, 2 * basis.degree + 2)
    dv = basis.tabulate_div(rule.points)
    gram = np.einsum("np,mp,p->nm", dv, dv, rule.weights)
    evals, evecs = np.linalg.eigh(gram)
    scale = max(evals[-1], 0.0)
    keep = evals > DIV_SPAN_RTOL * max(scale, 1e-300)
    if not np.any(keep):
        return np.zeros((0, basis.num_funcs))
    return (evecs[:, keep] / np.sqrt(evals[keep])).T
