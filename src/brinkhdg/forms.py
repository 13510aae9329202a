"""Element integrals, projections, and local velocity postprocessing.

Block matrices are computed per geometry class from cached tabulations.
Index conventions: a, b run over gradient-row functions, m, n over
velocity functions, i, j over pressure / facet-polynomial indices, r, c
over spatial components, q over quadrature points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DenseFactor
from .refelem import SegmentBasis, quadrature


def as_gamma_matrix(gamma):
    """Normalize gamma to a symmetric positive semidefinite 2x2 array."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim == 0:
        g = float(g) * np.eye(2)
    if g.shape != (2, 2):
        raise ValueError("gamma must be a scalar or a 2x2 array")
    if not np.allclose(g, g.T, rtol=0.0, atol=1e-12):
        raise ValueError("gamma must be symmetric")
    evals = np.linalg.eigvalsh(g)
    if evals[0] < -1e-12:
        raise ValueError("gamma must be positive semidefinite")
    return g


@dataclass
class FacetBlocks:
    """Per-local-facet couplings with the cell interior."""

    sign: int
    h: float
    normal: np.ndarray
    tangent: np.ndarray
    that: np.ndarray     # (k+1, n_g)  facet poly vs gradient-row normal trace
    tlam: np.ndarray     # (n_v, k+1)  velocity normal trace vs facet poly
    tgt: np.ndarray      # (n_g, n_v)  (G.n)(V.t) facet coupling


@dataclass
class ElementBlocks:
    """Volume and facet block matrices for one geometry class."""

    nu: float
    gamma: np.ndarray
    mg: np.ndarray       # (n_g, n_g)      gradient-row mass
    divg: np.ndarray     # (2, n_v, n_g)   velocity component vs row divergence
    grad: np.ndarray     # (2, n_g, n_v)   row vs velocity jacobian row
    tg: np.ndarray       # (2, n_g, n_v)   boundary (G.n)(V)_r
    mgam: np.ndarray     # (n_v, n_v)      gamma-weighted velocity mass
    bdiv: np.ndarray     # (n_v, n_q)      pressure vs velocity divergence
    tq: np.ndarray       # (n_v, n_q)      boundary pressure vs normal trace
    qint: np.ndarray     # (n_q,)          pressure basis integrals
    vint: np.ndarray     # (n_v, 2)        velocity component integrals
    kpp: np.ndarray      # (n_post, n_post) postprocessing stiffness
    pint: np.ndarray     # (n_post,)
    gp_cross: np.ndarray  # (n_g, n_post)  row basis vs postprocessing gradient
    facets: list


def element_blocks(tab, nu, gamma):
    """All volume and facet blocks for one cell tabulation."""
    return _element_blocks(tab, nu, as_gamma_matrix(gamma))


def class_element_blocks(spaces, nu, gamma):
    """Element blocks of every geometry class, in class order.

    gamma is checked once for all classes.
    """
    gamma = as_gamma_matrix(gamma)
    return [_element_blocks(spaces.tab(rep), nu, gamma)
            for rep in spaces.class_rep]


def _element_blocks(tab, nu, gamma):
    w = tab.wdet
    mg = np.einsum("acq,bcq,q->ab", tab.g, tab.g, w)
    divg = np.einsum("mrq,bq,q->rmb", tab.v, tab.g_div, w)
    grad = np.einsum("acq,mrcq,q->ram", tab.g, tab.v_grad, w)
    mgam = np.einsum("mrq,rs,nsq,q->mn", tab.v, gamma, tab.v, w)
    bdiv = np.einsum("iq,mq,q->mi", tab.q_vals, tab.v_div, w)
    qint = np.einsum("iq,q->i", tab.q_vals, w)
    vint = np.einsum("mrq,q->mr", tab.v, w)
    kpp = np.einsum("icq,jcq,q->ij", tab.post_grad, tab.post_grad, w)
    pint = np.einsum("iq,q->i", tab.post, w)
    gp_cross = np.einsum("acq,jcq,q->aj", tab.g, tab.post_grad, w)

    n_g = tab.g.shape[0]
    n_v = tab.v.shape[0]
    n_q = tab.q_vals.shape[0]
    tg = np.zeros((2, n_g, n_v))
    tq = np.zeros((n_v, n_q))
    facets = []
    for ft in tab.facets:
        gn = np.einsum("acq,c->aq", ft.g, ft.outward)
        vn = np.einsum("mcq,c->mq", ft.v, ft.outward)
        vt = np.einsum("mcq,c->mq", ft.v, ft.tangent)
        tg += np.einsum("aq,mrq,q->ram", gn, ft.v, ft.w)
        tq += np.einsum("iq,mq,q->mi", ft.q, vn, ft.w)
        facets.append(FacetBlocks(
            sign=ft.sign, h=ft.h, normal=ft.normal, tangent=ft.tangent,
            that=np.einsum("jq,aq,q->ja", ft.phi, gn, ft.w),
            tlam=np.einsum("jq,mq,q->mj", ft.phi, vn, ft.w),
            tgt=np.einsum("aq,mq,q->am", gn, vt, ft.w)))
    return ElementBlocks(
        nu=float(nu), gamma=gamma, mg=mg, divg=divg, grad=grad, tg=tg,
        mgam=mgam, bdiv=bdiv, tq=tq, qint=qint, vint=vint,
        kpp=kpp, pint=pint, gp_cross=gp_cross, facets=facets)


# -- projections ----------------------------------------------------------
#
# project_grad and project_velocity_div take one cell c, or an index
# array of cells of one geometry class, and project_facet_tangent one
# facet or an index array; the result then gains a leading axis.
# Callables are evaluated once on all points of all the cells or facets.


def values_at(func, x):
    """func on points x of shape (..., 2); values of shape (..., *value)."""
    flat = np.asarray(func(x.reshape(-1, 2)))
    return flat.reshape(x.shape[:-1] + flat.shape[1:])


def grad_coefficients(spaces, c, vals):
    """Row-space L2 projection from values (..., q, 2, 2) at the fine points."""
    tab = spaces.tab(c, fine=True)
    mg = np.einsum("acq,bcq,q->ab", tab.g, tab.g, tab.wdet)
    rhs = np.einsum("...qrc,acq,q->a...r", vals, tab.g, tab.wdet)
    coef = np.linalg.solve(mg, rhs.reshape(mg.shape[0], -1))
    return np.moveaxis(coef.reshape(rhs.shape), 0, -1)


def project_grad(spaces, c, grad_func):
    """L2 projection of a 2x2 tensor field into the row space; (2, n_g)."""
    tab = spaces.tab(c, fine=True)
    return grad_coefficients(
        spaces, c, values_at(grad_func, spaces.vol_points(c, tab)))


def project_pressure(spaces, c, func):
    """L2 projection of a scalar field into the pressure space; (n_q,)."""
    tab = spaces.tab(c, fine=True)
    x = spaces.vol_points(c, tab)
    vals = func(x)
    mq = np.einsum("iq,jq,q->ij", tab.q_vals, tab.q_vals, tab.wdet)
    rhs = np.einsum("q,iq,q->i", vals, tab.q_vals, tab.wdet)
    return np.linalg.solve(mq, rhs)


def velocity_div_coefficients(spaces, c, facet_vals, vol_vals):
    """Divergence-conforming interpolant from point values; modal (..., n_v).

    facet_vals[lf] holds the field at the fine points of local facet lf,
    vol_vals at the fine volume points (unused when there are no interior
    moments).
    """
    fam = spaces.family
    tab = spaces.tab(c, fine=True)
    kk = fam.n_facet
    alpha = np.zeros(np.shape(c) + (fam.n_v,))
    for lf, ft in enumerate(tab.facets):
        un = facet_vals[lf] @ ft.normal
        alpha[..., lf * kk:(lf + 1) * kk] = np.einsum(
            "jq,...q,q->...j", ft.phi, un, ft.w)
    if fam.n_int_scalar:
        mom = np.einsum("...qr,iq,q->...ri", vol_vals, tab.int_div, tab.wdet)
        alpha[..., fam.n_cell_facets * kk:] = mom.reshape(mom.shape[:-2] + (-1,))
    return alpha @ spaces.nodal_transform(c).T


def project_velocity_div(spaces, c, func):
    """Divergence-conforming interpolant of a vector field; modal (n_v,).

    Matches facet normal moments against the facet polynomial basis and
    interior component moments against the row-divergence span, so the
    interpolant commutes with the divergence projection.
    """
    fam = spaces.family
    tab = spaces.tab(c, fine=True)
    facet_vals = [values_at(func, spaces.facet_points(c, tab, lf))
                  for lf in range(fam.n_cell_facets)]
    vol_vals = (values_at(func, spaces.vol_points(c, tab))
                if fam.n_int_scalar else None)
    return velocity_div_coefficients(spaces, c, facet_vals, vol_vals)


@lru_cache(maxsize=None)
def _segment_rule(k, degree):
    """Read-only (points, weights, degree-k basis values) on [0, 1]."""
    rule = quadrature("segment", degree)
    s = rule.points[:, 0]
    phi = SegmentBasis(k).tabulate(s)
    phi.flags.writeable = False
    return s, rule.weights, phi


def project_facet_tangent(mesh, facet, k, func, degree):
    """Facet moments of the tangential trace; coefficients of phi_j t_F.

    facet may be one facet, (k+1,), or an index array, (..., k+1).
    """
    s, weights, phi = _segment_rule(k, degree)
    ends = mesh.vertices[mesh.facet_vertices[facet]]
    p0, p1 = ends[..., :1, :], ends[..., 1:, :]
    x = p0 + s[:, None] * (p1 - p0)
    ut = np.einsum("...qr,...r->...q", values_at(func, x),
                   mesh.facet_tangents[facet])
    return np.einsum("jq,...q,q->...j", phi, ut, weights)


# -- velocity postprocessing ----------------------------------------------


def postprocess_factor(blocks):
    """Factor of the gradient-matching system with a mean constraint."""
    n = blocks.kpp.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = blocks.kpp
    aug[:n, n] = blocks.pint
    aug[n, :n] = blocks.pint
    return DenseFactor(aug)


def postprocess_velocity(blocks, factor, l_coef, u_coef):
    """Componentwise higher-degree velocity from the gradient field.

    Each component solves a Neumann-type local problem: its gradient
    matches the corresponding gradient-field row in the L2 sense and its
    cell mean matches the velocity mean.  l_coef (2, n_g) and u_coef
    (n_v,) give (2, n_post); with a leading cell axis, (C, 2, n_g) and
    (C, n_v) give (C, 2, n_post) from one solve.
    """
    rhs = np.concatenate([l_coef @ blocks.gp_cross,
                          (u_coef @ blocks.vint)[..., None]], axis=-1)
    sol = factor.solve(rhs.reshape(-1, rhs.shape[-1]).T)
    return sol[:-1].T.reshape(rhs.shape[:-1] + (-1,))
