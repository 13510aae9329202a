"""Element integrals, projections, and local velocity postprocessing.

Block matrices are computed for a stack of geometry classes at once,
from their stacked tabulation.  Index conventions: s runs over the
classes, f over local facets, a, b over gradient-row functions, m, n
over velocity functions, i, j over pressure / facet-polynomial indices,
r, c, t over spatial components, q over quadrature points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fespace import factor_classes
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
class ElementBlocks:
    """Volume and facet block matrices of a stack of geometry classes.

    Every array has a leading class axis; the facet arrays have the local
    facet next.  `cells` holds a cell of each class.
    """

    cells: np.ndarray    # (S,)
    nu: float
    gamma: np.ndarray
    mg: np.ndarray       # (S, n_g, n_g)      gradient-row mass
    divg: np.ndarray     # (S, 2, n_v, n_g)   velocity component vs row divergence
    grad: np.ndarray     # (S, 2, n_g, n_v)   row vs velocity jacobian row
    tg: np.ndarray       # (S, 2, n_g, n_v)   boundary (G.n)(V)_r
    mgam: np.ndarray     # (S, n_v, n_v)      gamma-weighted velocity mass
    bdiv: np.ndarray     # (S, n_v, n_q)      pressure vs velocity divergence
    tq: np.ndarray       # (S, n_v, n_q)      boundary pressure vs normal trace
    qint: np.ndarray     # (S, n_q)           pressure basis integrals
    vint: np.ndarray     # (S, n_v, 2)        velocity component integrals
    kpp: np.ndarray      # (S, n_post, n_post) postprocessing stiffness
    pint: np.ndarray     # (S, n_post)
    gp_cross: np.ndarray  # (S, n_g, n_post)  row basis vs postprocessing gradient
    sign: np.ndarray     # (S, f)             facet orientation signs
    h: np.ndarray        # (S, f)             facet lengths
    normal: np.ndarray   # (S, f, 2)          global facet normals
    tangent: np.ndarray  # (S, f, 2)
    that: np.ndarray     # (S, f, k+1, n_g)   facet poly vs row normal trace
    tlam: np.ndarray     # (S, f, n_v, k+1)   velocity normal trace vs facet poly
    tgt: np.ndarray      # (S, f, n_g, n_v)   (G.n)(V.t) facet coupling


def class_element_blocks(spaces, nu, gamma):
    """Element blocks of every geometry class, in class order."""
    return element_blocks(spaces.tab(), nu, gamma)


def element_blocks(tabs, nu, gamma):
    """All volume and facet blocks of a stacked tabulation (`ClassTabs`).

    Each block is one array operation over the class axis; gamma is
    checked once for all classes.  The quadrature weights are folded
    into one factor of each product first.
    """
    gamma = as_gamma_matrix(gamma)
    w = tabs.wdet[:, None, :]
    gw = tabs.g * w[..., None, :]
    vw = tabs.v * w[..., None, :]
    fw = tabs.w[:, :, None, :]
    gn = np.einsum("sfacq,sfc->sfaq", tabs.facet_g, tabs.outward) * fw
    vn = np.einsum("sfmcq,sfc->sfmq", tabs.facet_v, tabs.outward) * fw
    vt = np.einsum("sfmcq,sfc->sfmq", tabs.facet_v, tabs.tangent)
    gam_v = np.einsum("rt,sntq->snrq", gamma, tabs.v)
    return ElementBlocks(
        cells=tabs.cells, nu=float(nu), gamma=gamma,
        mg=np.einsum("sacq,sbcq->sab", gw, tabs.g),
        divg=np.einsum("smrq,sbq->srmb", vw, tabs.g_div),
        grad=np.einsum("sacq,smrcq->sram", gw, tabs.v_grad),
        tg=np.einsum("sfaq,sfmrq->sram", gn, tabs.facet_v),
        mgam=np.einsum("smrq,snrq->smn", vw, gam_v),
        bdiv=np.einsum("iq,smq->smi", tabs.q_vals, tabs.v_div * w),
        tq=np.einsum("sfiq,sfmq->smi", tabs.facet_q, vn),
        qint=tabs.wdet @ tabs.q_vals.T,
        vint=vw.sum(axis=-1),
        kpp=np.einsum("sicq,sjcq->sij", tabs.post_grad * w[..., None, :],
                      tabs.post_grad),
        pint=tabs.wdet @ tabs.post.T,
        gp_cross=np.einsum("sacq,sjcq->saj", gw, tabs.post_grad),
        sign=tabs.sign, h=tabs.h, normal=tabs.normal, tangent=tabs.tangent,
        that=np.einsum("jq,sfaq->sfja", tabs.phi, gn),
        tlam=np.einsum("jq,sfmq->sfmj", tabs.phi, vn),
        tgt=np.einsum("sfaq,sfmq->sfam", gn, vt))


# -- projections ----------------------------------------------------------
#
# project_grad and project_velocity_div take one cell c, or an index
# array of cells of one geometry class, whose slice of the fine stack
# they read; project_facet_tangent takes one facet or an index array.
# An index array gives the result a leading axis.  Callables are
# evaluated once on all points of all the cells or facets.


def values_at(func, x):
    """func on points x of shape (..., 2); values of shape (..., *value)."""
    flat = np.asarray(func(x.reshape(-1, 2)))
    return flat.reshape(x.shape[:-1] + flat.shape[1:])


def _class_of(spaces, c):
    """Geometry class of cell c, or of a nonempty index array of cells of
    one class; ValueError otherwise."""
    cls = np.unique(spaces.cell_class[c])
    if cls.size != 1:
        raise ValueError("expected a nonempty set of cells of one geometry "
                         "class")
    return int(cls[0])


def grad_coefficients(tabs, cls, vals):
    """Row-space L2 projection from values (..., q, 2, 2) at the volume
    points of class cls of the stack tabs."""
    g, wdet = tabs.g[cls], tabs.wdet[cls]
    mg = np.einsum("acq,bcq,q->ab", g, g, wdet)
    rhs = np.einsum("...qrc,acq,q->a...r", vals, g, wdet)
    coef = np.linalg.solve(mg, rhs.reshape(mg.shape[0], -1))
    return np.moveaxis(coef.reshape(rhs.shape), 0, -1)


def project_grad(spaces, c, grad_func):
    """L2 projection of a 2x2 tensor field into the row space; (2, n_g)."""
    cls = _class_of(spaces, c)
    tabs = spaces.tab(fine=True)
    return grad_coefficients(
        tabs, cls, values_at(grad_func, spaces.vol_points(tabs, cls, c)))


def project_pressure(spaces, c, func):
    """L2 projection of a scalar field into the pressure space; (n_q,)."""
    cls = _class_of(spaces, c)
    tabs = spaces.tab(fine=True)
    vals = values_at(func, spaces.vol_points(tabs, cls, c))
    mq = np.einsum("iq,jq,q->ij", tabs.q_vals, tabs.q_vals, tabs.wdet[cls])
    rhs = np.einsum("...q,iq,q->i...", vals, tabs.q_vals, tabs.wdet[cls])
    return np.linalg.solve(mq, rhs).T


def velocity_div_coefficients(tabs, trans, cls, facet_vals, vol_vals):
    """Divergence-conforming interpolant from point values; modal (..., n_v).

    facet_vals (..., f, qf, 2) holds the field at the points of every
    local facet, vol_vals (..., q, 2) at the volume points (unused when
    there are no interior moments); trans holds the nodal transforms of
    the stack's classes.
    """
    un = (facet_vals @ tabs.normal[cls][..., None])[..., 0]
    alpha = np.einsum("jq,...fq,fq->...fj", tabs.phi, un, tabs.w[cls])
    alpha = alpha.reshape(alpha.shape[:-2] + (-1,))
    if tabs.int_div.shape[0]:
        mom = np.einsum("...qr,iq,q->...ri", vol_vals, tabs.int_div,
                        tabs.wdet[cls])
        alpha = np.concatenate([alpha, mom.reshape(mom.shape[:-2] + (-1,))],
                               axis=-1)
    return alpha @ trans[cls].T


def project_velocity_div(spaces, c, func):
    """Divergence-conforming interpolant of a vector field; modal (n_v,).

    Matches facet normal moments against the facet polynomial basis and
    interior component moments against the row-divergence span, so the
    interpolant commutes with the divergence projection.
    """
    cls = _class_of(spaces, c)
    tabs = spaces.tab(fine=True)
    facet_vals = values_at(func, spaces.facet_points(tabs, cls, c))
    vol_vals = (values_at(func, spaces.vol_points(tabs, cls, c))
                if tabs.int_div.shape[0] else None)
    return velocity_div_coefficients(tabs, spaces.class_nodal_transforms(),
                                     cls, facet_vals, vol_vals)


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
    """Factors of the gradient-matching systems, with a mean constraint,
    of every class of the stacked blocks."""
    n_cls, n = blocks.pint.shape
    aug = np.zeros((n_cls, n + 1, n + 1))
    aug[:, :n, :n] = blocks.kpp
    aug[:, :n, n] = blocks.pint
    aug[:, n, :n] = blocks.pint
    return factor_classes(aug, blocks.cells, "postprocessing matrix")


def postprocess_velocity(blocks, factor, cls, l_coef, u_coef):
    """Componentwise higher-degree velocity from the gradient field.

    Each component solves a Neumann-type local problem: its gradient
    matches the corresponding gradient-field row in the L2 sense and its
    cell mean matches the velocity mean.  cls picks the class of the
    stacked blocks and factor.  l_coef (2, n_g) and u_coef (n_v,) give
    (2, n_post); with a leading cell axis, (C, 2, n_g) and (C, n_v) give
    (C, 2, n_post) from one solve.
    """
    rhs = np.concatenate([l_coef @ blocks.gp_cross[cls],
                          (u_coef @ blocks.vint[cls])[..., None]], axis=-1)
    sol = factor.solve(rhs.reshape(-1, rhs.shape[-1]).T, cls)
    return sol[:-1].T.reshape(rhs.shape[:-1] + (-1,))
