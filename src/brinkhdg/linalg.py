"""Dense and sparse linear algebra used by the assembly pipeline.

Thin wrappers over LAPACK (partial-pivoting LU) and SuperLU that add the
singularity reporting and triplet-assembly semantics the solvers rely on.
Factorizations are built once and reused for many right-hand sides.
Every sparse factorization is a `SparseFactor`: general LU with COLAMD
ordering and threshold partial pivoting, which keeps a diagonal pivot of
at least `_DIAG_PIVOT_THRESH` times its column's largest entry, or, for
symmetric positive definite matrices, a minimum-degree ordering of
A^T + A with diagonal pivots.  `refined_solve` applies one refinement
step against a matrix with an exact or approximate inverse and checks
the residual.

Sparse matrices are assembled from triplets by `SparseBuilder`, which
converts them with SciPy's COO-to-CSC conversion.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """Raised when a factorization meets a numerically singular matrix, or
    one with a non-finite entry.

    For a `DenseFactor`, `index` is the position of the first such matrix
    in the stack; it is None otherwise.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


_PIVOT_RTOL = 1e-13
# threshold partial pivoting of the general sparse LU (Duff, Erisman &
# Reid, Direct Methods for Sparse Matrices, ch. 7): on the oracle's
# 4,176-unknown system it gives 0.70M fill against 1.07M with full
# partial pivoting (a threshold of 1)
_DIAG_PIVOT_THRESH = 0.1


@functools.cache
def _lapack():
    """LAPACK getrf and getrs for float64, looked up on first use."""
    return sla.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


class DenseFactor:
    """LU factorizations with partial pivoting of a stack (S, n, n) of
    square dense matrices.

    `solve` takes one stack of right-hand sides with the same leading
    axis, or solves with the matrices named by an index array.  LAPACK
    getrf and getrs are called directly, so factors and solutions are
    those of `scipy.linalg.lu_factor` and `lu_solve`.  The factors are
    kept in one array of column-major matrices, so the pivots of all of
    them are checked at once.  With overwrite_a, a writable stack of
    column-major matrices is factored in place, as in `lu_factor`;
    others are copied.
    """

    def __init__(self, a, overwrite_a=False):
        a = np.asarray(a, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2] or 0 in a.shape:
            raise ValueError("expected a nonempty stack of square matrices, "
                             f"got shape {a.shape}")
        # each matrix's pivots against its own largest entry; max and min
        # rather than abs, which would copy the stack
        scale = np.maximum(a.max(axis=(1, 2)), -a.min(axis=(1, 2)))
        # max and min keep a NaN, and an infinity of either sign shows
        # in one of them
        bad = ~np.isfinite(scale)
        if bad.any():
            i = int(np.argmax(bad))
            raise SingularMatrixError(
                f"dense factorization of matrix {i}: non-finite entry "
                f"{a[i][~np.isfinite(a[i])][0]}", index=i)
        # one stack of column-major matrices that getrf overwrites in place;
        # getrf would also write into a read-only array, so that is copied
        lu = a
        if not (overwrite_a and a.flags.writeable and a[0].flags.f_contiguous):
            lu = np.empty(a.shape).swapaxes(1, 2)
            lu[...] = a
        getrf = _lapack()[0]
        # getrf reports an exactly zero pivot in info; the pivot check
        # below covers it
        self._lu = [(m, getrf(m, overwrite_a=True)[1]) for m in lu]
        pivots = np.abs(np.diagonal(lu, axis1=1, axis2=2)).min(axis=1)
        bad = (scale == 0.0) | (pivots < _PIVOT_RTOL * scale)
        if bad.any():
            i = int(np.argmax(bad))
            raise SingularMatrixError(
                f"dense factorization of matrix {i}: pivot {pivots[i]:.3e} "
                f"below {_PIVOT_RTOL:.0e} * max entry {scale[i]:.3e}",
                index=i)

    def _getrs(self, i, b):
        lu, piv = self._lu[i]
        return _lapack()[1](lu, piv, b)[0]

    def _getrs_into(self, i, b):
        """Solve with matrix i into b, a column-major buffer of this
        factor's own, which getrs overwrites."""
        lu, piv = self._lu[i]
        x = _lapack()[1](lu, piv, b, overwrite_b=True)[0]
        if x is not b:
            b[...] = x

    def solve(self, b, index=None, overwrite_b=False):
        """x with a @ x = b.

        Without an index, b[i] goes with matrix i; with an index array,
        b is (n, m) and column j goes with matrix index[j].  Columns that
        share a matrix are solved together, one getrs per matrix.  The
        right-hand sides of the stack, or of several matrices, are
        gathered once into a column-major buffer that getrs overwrites,
        rather than copied to column-major order on each call.  With
        overwrite_b, a writable stack of column-major right-hand sides is
        that buffer itself.
        """
        b = np.asarray(b, dtype=float)
        if index is None:
            if len(b) != len(self._lu):
                raise ValueError(f"{len(b)} right-hand sides for a stack of "
                                 f"{len(self._lu)} matrices")
            x = b
            if not (overwrite_b and b.flags.writeable
                    and b[0].flags.f_contiguous):
                x = np.empty(b.shape[:1] + b.shape[:0:-1]).swapaxes(1, -1)
                x[...] = b
            for i, rhs in enumerate(x):
                self._getrs_into(i, rhs)
            return x
        index = np.asarray(index)
        if b.ndim != 2 or index.shape != b.shape[1:]:
            raise ValueError(f"index of shape {index.shape} for right-hand "
                             f"sides of shape {b.shape}")
        order = np.argsort(index, kind="stable")
        mats, starts = np.unique(index[order], return_index=True)
        if len(mats) == 1:
            return self._getrs(mats[0], b)
        # the columns of each matrix side by side, column-major
        x = b.T[order].T
        for i, lo, hi in zip(mats, starts, np.append(starts[1:], len(order))):
            self._getrs_into(i, x[:, lo:hi])
        out = np.empty_like(x)
        out[:, order] = x
        return out


class SparseBuilder:
    """Triplet accumulator for a sparse matrix; duplicates sum on finalize.

    finalize concatenates the triplets in the order they were added and
    converts them with SciPy's COO-to-CSC conversion (Davis, Direct
    Methods for Sparse Linear Systems, ch. 2): sorted indices, duplicates
    summed as SciPy sums them, explicit zeros kept.
    """

    def __init__(self, nrows, ncols):
        self.shape = (int(nrows), int(ncols))
        self._rows = []
        self._cols = []
        self._vals = []

    def add(self, rows, cols, vals):
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64)).ravel()
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64)).ravel()
        vals = np.atleast_1d(np.asarray(vals, dtype=float)).ravel()
        if not (rows.size == cols.size == vals.size):
            raise ValueError("triplet arrays must have equal length")
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(vals)

    def finalize(self):
        nrows, ncols = self.shape
        rows = np.concatenate(self._rows or [np.zeros(0, dtype=np.int64)])
        cols = np.concatenate(self._cols or [np.zeros(0, dtype=np.int64)])
        vals = np.concatenate(self._vals or [np.zeros(0)])
        if vals.size and (rows.min() < 0 or rows.max() >= nrows
                          or cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("triplet index out of range")
        return sp.csc_matrix((vals, (rows, cols)), shape=self.shape)


def block_triplets(dofs, block, pattern=None):
    """COO triplets of one dense block per cell.

    dofs is (C, n), and block is (n, n), shared by every cell, or (C, n, n),
    one per cell: the block of cell e puts entry [i, j] at (dofs[e, i],
    dofs[e, j]).  Entries at a negative dof are dropped, and so are those
    outside the boolean (n, n) pattern when one is given.  Triplets come
    in cell, row, column order.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    block = np.asarray(block, dtype=float)
    n = dofs.shape[-1]
    if dofs.ndim != 2 or block.shape not in ((n, n), (len(dofs), n, n)):
        raise ValueError(f"block shape {block.shape} does not match dofs "
                         f"of shape {dofs.shape}")
    keep = (dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)
    if pattern is not None:
        keep &= pattern
    # masks of broadcast views gather in (cell, row, column) order without
    # forming the index arrays of np.nonzero
    return (np.broadcast_to(dofs[:, :, None], keep.shape)[keep],
            np.broadcast_to(dofs[:, None, :], keep.shape)[keep],
            np.broadcast_to(block, keep.shape)[keep])


class SparseFactor:
    """SuperLU factorization; solve() applies one refinement pass if needed.

    With symmetric=True the matrix must be symmetric positive definite:
    SuperLU then orders A^T + A by minimum degree and pivots on the
    diagonal, with no row interchanges.  Otherwise it orders by COLAMD
    with threshold partial pivoting: a diagonal pivot is kept while it is
    at least `_DIAG_PIVOT_THRESH` times its column's largest entry.
    """

    def __init__(self, csc, symmetric=False):
        bad = np.flatnonzero(~np.isfinite(csc.data))
        if bad.size:
            coo = csc.tocoo(copy=False)
            i = bad[0]
            raise SingularMatrixError(
                f"sparse factorization: non-finite entry {coo.data[i]} at "
                f"({coo.row[i]}, {coo.col[i]}), one of {bad.size}")
        self._mat = csc
        opts = (dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True)) if symmetric else
                dict(permc_spec="COLAMD",
                     diag_pivot_thresh=_DIAG_PIVOT_THRESH))
        try:
            self._lu = spla.splu(csc, **opts)
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc

    def solve(self, b):
        return refined_solve(self._mat.dot, self._lu.solve, b)


def refined_solve(matvec, solve, b, rtol=1e-12):
    """x = solve(b), refined once against a matrix when its residual
    |b - matvec(x)| exceeds rtol |b|.

    solve is an exact or approximate inverse of the matrix.  Raises
    SingularMatrixError when the refined residual exceeds 1e-6 |b| or is
    not finite.
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    x = solve(b)
    resid = b - matvec(x)
    rnorm = np.linalg.norm(resid)
    if rnorm > rtol * bnorm:
        x = x + solve(resid)
        rnorm = np.linalg.norm(b - matvec(x))
    if not np.isfinite(rnorm) or rnorm > 1e-6 * bnorm:
        raise SingularMatrixError(
            f"sparse solve residual {rnorm:.3e} exceeds 1e-6 * |b| "
            f"({bnorm:.3e}); matrix is numerically singular")
    return x


def sparse_solve(builder, b):
    """Finalize a SparseBuilder, factor it, and solve for one right-hand side."""
    return SparseFactor(builder.finalize()).solve(b)
