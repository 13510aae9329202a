"""Element integrals, projections, and local velocity postprocessing.

Block matrices are computed for many cells at once (one per geometry
class in the solvers), each as reference-cell integrals contracted with
a small factor of the cell's jacobian; projections work on any cells,
from the fine-degree reference tabulation and each cell's jacobian.
Index conventions: s runs over the cells of a block stack, e over the
cells of a projection, f over local facets, a, b over gradient-row
functions, m, n over velocity functions, i, j over pressure /
facet-polynomial indices, r, c, t over spatial components, q over
quadrature points.
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
    if not np.isfinite(g).all():
        raise ValueError("gamma must be finite")
    if not np.allclose(g, g.T, rtol=0.0, atol=1e-12):
        raise ValueError("gamma must be symmetric")
    evals = np.linalg.eigvalsh(g)
    if evals[0] < -1e-12:
        raise ValueError("gamma must be positive semidefinite")
    return g


@dataclass
class ElementBlocks:
    """Volume and facet block matrices of some cells, one per geometry
    class in the solvers.

    Every array has a leading cell axis; the facet arrays have the local
    facet next.  `cells` holds the cells.  bdiv, tq and gp_cross take no
    geometry: their cell axis is a read-only broadcast view.
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


def element_blocks(spaces, cells, nu, gamma):
    """All volume and facet blocks of cells (S,), typically
    `spaces.class_rep`.

    On an affine cell every block is a factor of the cell's geometry
    times a reference integral of `Spaces.tab()` shared by every cell
    (Kirby & Logg, ACM TOMS 32(3), 2006).  With J the jacobian and d its
    determinant, g = J ghat / d, v = J vhat / d, and a gram contracted
    with a 2x2 metric M as M : gram = M.reshape(4) @ gram:

    * mg = (J^T J / d) : gram_g, mgam = (J^T gamma J / d) : gram_v and
      kpp = (d J^-1 J^-T) : gram_post;
    * divg, grad and tg are (J / d) times their reference integrals; in
      grad the J^-1 of grad v cancels the J of g;
    * vint is J times its reference integral, qint and pint d times
      theirs;
    * bdiv, tq and gp_cross are the reference integrals;
    * on the facets, h n_out = d J^-T hhat nhat_out for counterclockwise
      cells, so (g . n_out) w_F = (ghat . nhat_out) hhat ws: that and
      tlam are the reference integrals in the direction of the stored
      facet, and tgt is the facet's tg contracted with
      +-(J^T J e / d) / h, with e the reference edge and + where the
      stored facet runs the same way.

    Each contraction is one matmul over all the cells; nu and gamma are
    checked once.
    """
    if not 0 < nu < np.inf:
        raise ValueError(f"nu must be finite and positive, not {nu}")
    gamma = as_gamma_matrix(gamma)
    ref = spaces.tab()
    fam = spaces.family
    mesh = spaces.mesh
    cells = np.asarray(cells)
    n, n_g, n_v = len(cells), fam.n_g, fam.n_v
    jac, det = spaces.jacobians[cells], spaces.dets[cells]
    inv = spaces.inverse_jacobians[cells]
    jac_t = jac.swapaxes(1, 2)
    jd = jac / det[:, None, None]
    jtj = jac_t @ jac / det[:, None, None]

    def metric(m, gram, size):
        return (m.reshape(n, 4) @ gram).reshape(n, size, size)

    def each(arr):
        return np.broadcast_to(arr, (n,) + arr.shape)

    back = spaces._facet_directions(cells)
    lf = np.arange(back.shape[1])
    f = mesh.cell_facets[cells]
    h = mesh.facet_lengths[f]
    verts = fam.ref_cell.vertices
    edges = np.array([verts[b] - verts[a] for a, b in fam.ref_cell.facets])
    along = ((jtj @ edges.T).swapaxes(1, 2) * (1 - 2 * back)[..., None]
             / h[..., None])
    facet_tg = ref.tg[lf, back]
    return ElementBlocks(
        cells=cells, nu=float(nu), gamma=gamma,
        mg=metric(jtj, ref.gram_g, n_g),
        divg=(jd @ ref.divg).reshape(n, 2, n_v, n_g),
        grad=(jd @ ref.grad).reshape(n, 2, n_g, n_v),
        tg=(jd @ facet_tg.sum(axis=1)).reshape(n, 2, n_g, n_v),
        mgam=metric(jac_t @ gamma @ jac / det[:, None, None], ref.gram_v,
                    n_v),
        bdiv=each(ref.bdiv), tq=each(ref.tq),
        qint=np.outer(det, ref.qint), vint=ref.vint @ jac_t,
        kpp=metric(inv @ inv.swapaxes(1, 2) * det[:, None, None],
                   ref.gram_post, fam.n_post),
        pint=np.outer(det, ref.pint), gp_cross=each(ref.gp_cross),
        sign=mesh.cell_facet_signs[cells].astype(int), h=h,
        normal=mesh.facet_normals[f], tangent=mesh.facet_tangents[f],
        that=ref.that[lf, back], tlam=ref.tlam[lf, back],
        tgt=(along[:, :, None] @ facet_tg).reshape(n, len(lf), n_g, n_v))


# -- projections ----------------------------------------------------------
#
# project_grad, project_pressure and project_velocity_div take one cell
# c, or an index array of cells of any classes, and work at the fine
# degree on reference values and per-cell geometry (the gradient Gram
# and the nodal transform per class); project_facet_tangent takes one
# facet or an index array.  An index array gives the result a leading
# axis.  Callables are evaluated once on all points of all the cells or
# facets.


def values_at(func, x):
    """func on points x of shape (..., 2); values of shape (..., *value)."""
    flat = np.asarray(func(x.reshape(-1, 2)))
    return flat.reshape(x.shape[:-1] + flat.shape[1:])


def grad_coefficients(spaces, cells, vals):
    """Row-space L2 projection, (C, 2, n_g), from values (C, q, 2, 2) at
    the fine volume points of cells (C,).

    With g_a = J ghat_a / det, (g_a, g_b) = sum_q w ghat_a . (J^T J / det)
    ghat_b and (v_r, g_a) = sum_q w (J^T v_r) . ghat_a.

    The Gram depends only on the geometry class, so it is formed and
    inverted once per class of the cells, in one batched LAPACK call, and
    each cell's right-hand sides are multiplied by its class's inverse.
    """
    fam = spaces.family
    ref = fam.reference_tab(spaces.fine_degree)
    gw = ref.g * quadrature(fam.ref_cell.name, spaces.fine_degree).weights
    n_g, n = len(gw), len(cells)
    jac = spaces.jacobians[cells]
    # (J^T v_r)[e, r, q, d] against (w ghat)[a, d, q], one product over (q, d)
    nq = gw.shape[-1]
    jv = (np.swapaxes(vals, 1, 2) @ jac[:, None]).reshape(2 * n, 2 * nq)
    rhs = jv @ np.moveaxis(gw, 0, -1).swapaxes(0, 1).reshape(2 * nq, n_g)
    cls, inv = np.unique(spaces.cell_class[cells], return_inverse=True)
    reps = np.asarray(spaces.class_rep, dtype=int)[cls]
    rjac = spaces.jacobians[reps]
    metric = np.swapaxes(rjac, 1, 2) @ rjac / spaces.dets[reps, None, None]
    mg = (metric.reshape(len(cls), 4) @ ref.gram_g).reshape(-1, n_g, n_g)
    # M^-1 r for each row r of a cell, as the row r M^-T
    return rhs.reshape(n, 2, n_g) @ np.linalg.inv(mg)[inv].swapaxes(1, 2)


def project_grad(spaces, c, grad_func):
    """L2 projection of a 2x2 tensor field into the row space; (2, n_g)."""
    cells = np.atleast_1d(c)
    coef = grad_coefficients(spaces, cells,
                             values_at(grad_func, spaces.vol_points(cells)))
    return coef if np.ndim(c) else coef[0]


def project_pressure(spaces, c, func):
    """L2 projection of a scalar field into the pressure space; (n_q,).

    The det of the cell scales both sides and cancels.
    """
    fam = spaces.family
    q_vals = fam.reference_tab(spaces.fine_degree).q_vals
    w = quadrature(fam.ref_cell.name, spaces.fine_degree).weights
    vals = values_at(func, spaces.vol_points(c))
    mq = np.einsum("iq,jq,q->ij", q_vals, q_vals, w)
    rhs = np.einsum("...q,iq,q->i...", vals, q_vals, w)
    coef = np.linalg.solve(mq, rhs.reshape(len(mq), -1))
    return coef.T.reshape(vals.shape[:-1] + (len(mq),))


def velocity_div_coefficients(spaces, cells, facet_vals, vol_vals):
    """Divergence-conforming interpolant from point values; modal (C, n_v).

    facet_vals (C, f, qf, 2) holds the field at the fine points of every
    local facet of cells (C,), vol_vals (C, q, 2) at the fine volume
    points (unused when there are no interior moments).  Each cell's
    moments go through the nodal transform of its class.
    """
    fam = spaces.family
    ref = fam.reference_tab(spaces.fine_degree)
    mesh = spaces.mesh
    f = mesh.cell_facets[cells]
    un = np.einsum("efqr,efr->efq", facet_vals, mesh.facet_normals[f])
    un *= mesh.facet_lengths[f][..., None]
    seg_w = quadrature("segment", spaces.fine_degree).weights
    alpha = [(un @ (ref.phi * seg_w).T).reshape(
        len(cells), fam.n_cell_facets * len(ref.phi))]
    if ref.int_div.shape[0]:
        w = quadrature(fam.ref_cell.name, spaces.fine_degree).weights
        mom = np.swapaxes(vol_vals, 1, 2) @ (ref.int_div * w).T
        alpha.append((mom * spaces.dets[cells, None, None]).reshape(
            len(cells), 2 * len(ref.int_div)))
    alpha = np.concatenate(alpha, axis=-1)
    trans = spaces.class_nodal_transforms()[spaces.cell_class[cells]]
    return np.einsum("emn,en->em", trans, alpha)


def project_velocity_div(spaces, c, func):
    """Divergence-conforming interpolant of a vector field; modal (n_v,).

    Matches facet normal moments against the facet polynomial basis and
    interior component moments against the row-divergence span, so the
    interpolant commutes with the divergence projection.
    """
    cells = np.atleast_1d(c)
    vol_vals = (values_at(func, spaces.vol_points(cells))
                if spaces.family.n_int_scalar else None)
    coef = velocity_div_coefficients(
        spaces, cells, values_at(func, spaces.facet_points(cells)), vol_vals)
    return coef if np.ndim(c) else coef[0]


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
    s = _segment_rule(k, degree)[0]
    ends = mesh.vertices[mesh.facet_vertices[facet]]
    p0, p1 = ends[..., :1, :], ends[..., 1:, :]
    x = p0 + s[:, None] * (p1 - p0)
    return facet_tangent_moments(mesh, facet, k, values_at(func, x), degree)


def facet_tangent_moments(mesh, facet, k, vals, degree):
    """`project_facet_tangent` from the field's values (..., qf, 2) at the
    points of the degree's segment rule on facet, run from each facet's
    first vertex to its second."""
    _, weights, phi = _segment_rule(k, degree)
    ut = np.einsum("...qr,...r->...q", vals, mesh.facet_tangents[facet])
    return np.einsum("jq,...q,q->...j", phi, ut, weights)


# -- velocity postprocessing ----------------------------------------------


def postprocess_factor(blocks):
    """What `postprocess_velocity` reads of the stacked blocks: the
    factors of the gradient-matching systems, with a mean constraint, of
    every class, and the gp_cross and vint stacks of the blocks."""
    n_cls, n = blocks.pint.shape
    aug = np.zeros((n_cls, n + 1, n + 1))
    aug[:, :n, :n] = blocks.kpp
    aug[:, :n, n] = blocks.pint
    aug[:, n, :n] = blocks.pint
    return (factor_classes(aug, blocks.cells, "postprocessing matrix"),
            blocks.gp_cross, blocks.vint)


def postprocess_velocity(post, cls, l_coef, u_coef):
    """Componentwise higher-degree velocity from the gradient field.

    Each component solves a Neumann-type local problem: its gradient
    matches the corresponding gradient-field row in the L2 sense and its
    cell mean matches the velocity mean.  post is `postprocess_factor`
    of the stacked blocks, and cls picks their class.  l_coef (2, n_g)
    and u_coef (n_v,) give (2, n_post); with a leading cell axis,
    (C, 2, n_g) and (C, n_v) give (C, 2, n_post), and cls may then be an
    index array (C,) with each cell's class.
    """
    factor, gp_cross, vint = post
    cls = np.asarray(cls)
    rhs = np.concatenate([
        np.einsum("...ra,...aj->...rj", l_coef, gp_cross[cls]),
        np.einsum("...m,...mr->...r", u_coef, vint[cls])[..., None]],
        axis=-1)
    index = np.broadcast_to(cls[..., None], rhs.shape[:-1]).ravel()
    sol = factor.solve(rhs.reshape(-1, rhs.shape[-1]).T, index)
    return sol[:-1].T.reshape(rhs.shape[:-1] + (-1,))
