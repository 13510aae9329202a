"""Dense and sparse linear algebra used by the assembly pipeline.

Thin wrappers over LAPACK (partial-pivoting LU, and Cholesky for the
symmetric positive definite patch interiors of the hybrid solver) and
SuperLU that add the singularity reporting and triplet-assembly
semantics the solvers rely on.
Factorizations are built once and reused for many right-hand sides.
A `DenseFactor` factors a writable stack of column-major matrices in
place and copies any other; a `CholeskyFactor` equilibrates each matrix
by powers of two in a copy of its own and never writes its input.
Dense solves leave their right-hand sides as they were.
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
import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """Raised when a factorization meets a numerically singular matrix, or
    one with a non-finite entry.

    For a `DenseFactor` or a `CholeskyFactor`, `index` is the position of
    the first such matrix in the stack; it is None otherwise.
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
    them are checked at once.  A writable stack of column-major matrices
    is factored in place; any other stack is copied.
    """

    def __init__(self, a):
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
        if not (a.flags.writeable and a[0].flags.f_contiguous):
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

    def _getrs_into(self, i, b):
        """Solve with matrix i into b, a column-major buffer of this
        factor's own, which getrs overwrites."""
        lu, piv = self._lu[i]
        x = _lapack()[1](lu, piv, b, overwrite_b=True)[0]
        if x is not b:
            b[...] = x

    def solve(self, b, index=None):
        """x with a @ x = b.

        Without an index, b[i] goes with matrix i; with an index array,
        b is (n, m) and column j goes with matrix index[j].  Columns that
        share a matrix are solved together, one getrs per matrix.  The
        right-hand sides of the stack, or of several matrices, are
        gathered once into a fresh column-major buffer that getrs
        overwrites, rather than copied to column-major order on each
        call; b is left as it was.
        """
        b = np.asarray(b, dtype=float)
        if index is None:
            if len(b) != len(self._lu):
                raise ValueError(f"{len(b)} right-hand sides for a stack of "
                                 f"{len(self._lu)} matrices")
            x = np.empty(b.shape[:1] + b.shape[:0:-1]).swapaxes(1, -1)
            x[...] = b
            for i, rhs in enumerate(x):
                self._getrs_into(i, rhs)
            return x
        return _solve_by_matrix(b, index, self._getrs_into)


def _solve_by_matrix(b, index, solve_into):
    """x with column j of b (n, m) solved with matrix index[j].

    The columns of each matrix are gathered side by side into one
    column-major buffer, and solve_into(i, x) solves those of matrix i
    in place, so columns that share a matrix are solved together.
    """
    index = np.asarray(index)
    if b.ndim != 2 or index.shape != b.shape[1:]:
        raise ValueError(f"index of shape {index.shape} for right-hand "
                         f"sides of shape {b.shape}")
    order = np.argsort(index, kind="stable")
    mats, starts = np.unique(index[order], return_index=True)
    if len(mats) == 1:
        x = np.array(b, order="F")
        solve_into(mats[0], x)
        return x
    x = b.T[order].T
    for i, lo, hi in zip(mats, starts, np.append(starts[1:], len(order))):
        solve_into(i, x[:, lo:hi])
    out = np.empty_like(x)
    out[:, order] = x
    return out


@functools.cache
def _cholesky_lapack():
    """LAPACK potrf and potrs for float64, looked up on first use."""
    return sla.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


@functools.cache
def _cholesky_blas():
    """BLAS trsm and syrk for float64, looked up on first use."""
    return sla.get_blas_funcs(("trsm", "syrk"), dtype=np.float64)


class CholeskyFactor:
    """Cholesky factors a = U^T U of a sequence of symmetric positive
    definite matrices, each at its own size.

    Each matrix is equilibrated first: with S the powers of two that
    bring the square roots of its diagonal into [0.5, 1), LAPACK potrf
    factors S a S = L L^T from the lower triangle of a copy of its own,
    and `factors` holds U = L^T S^-1, column-major, in its upper
    triangle.  Scaling by powers of two is exact, so U is the factor of a
    itself, and no input is written.
    A matrix is refused, as by `DenseFactor`, when it holds a non-finite
    entry or when the smallest pivot of S a S, min diag(L)^2 or the value
    at which potrf stops, is below `_PIVOT_RTOL` times the largest entry
    of S a S.  An empty matrix has nothing to factor.
    """

    def __init__(self, mats):
        if not len(mats):
            raise ValueError("expected a nonempty sequence of matrices")
        potrf = _cholesky_lapack()[0]
        self.factors = []
        for i, a in enumerate(mats):
            a = np.asarray(a, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"matrix {i} of shape {a.shape} is not "
                                 "square")
            if not a.size:
                self.factors.append(a)
                continue
            # max and min rather than abs, which would copy the matrix;
            # both keep a NaN, and an infinity of either sign shows in one
            if not math.isfinite(max(a.max(), -a.min())):
                raise SingularMatrixError(
                    f"Cholesky factorization of matrix {i}: non-finite "
                    f"entry {a[~np.isfinite(a)][0]}", index=i)
            # S a S in a row-major copy, whose transpose potrf overwrites
            s = np.ldexp(1.0, -np.frexp(np.sqrt(np.abs(a.diagonal())))[1])
            u = np.multiply(a, s[:, None], order="C")
            u *= s
            scale = max(u.max(), -u.min())
            # the upper triangle of the column-major transpose; on failure
            # info names the pivot at which potrf stopped, left unrooted
            u, info = potrf(u.T, clean=0, overwrite_a=True)
            pivot = (u[info - 1, info - 1] if info else
                     u.diagonal().min() ** 2)
            if not pivot >= _PIVOT_RTOL * scale or scale == 0.0:
                raise SingularMatrixError(
                    f"Cholesky factorization of matrix {i}: pivot "
                    f"{pivot:.3e} below {_PIVOT_RTOL:.0e} * max entry "
                    f"{scale:.3e}", index=i)
            u /= s
            self.factors.append(u)

    def eliminate(self, i, a_bi, a_bb):
        """The Schur complement a_bb - a_bi a^-1 a_bi^T of matrix i = U^T U,
        and a_bi a^-1.

        Y = a_bi U^-1 (trsm from the right) gives the Schur complement
        a_bb - Y Y^T (syrk), of which only the lower triangle is formed
        from that of a_bb, and a_bi a^-1 = Y U^-T (trsm from the right).
        A column-major a_bi is overwritten, others and a_bb are copied.
        """
        u = self.factors[i]
        if not (len(u) and a_bi.size):
            return np.array(a_bb, order="F"), np.zeros(a_bi.shape)
        trsm, syrk = _cholesky_blas()
        y = trsm(1.0, u, a_bi, side=1, overwrite_b=True)
        schur = syrk(-1.0, y, beta=1.0, c=a_bb, lower=1)
        return schur, trsm(1.0, u, y, side=1, trans_a=1, overwrite_b=True)

    def _potrs_into(self, i, b):
        """Solve with matrix i, padded by the identity, into b, a
        column-major buffer whose leading rows potrs overwrites."""
        u = self.factors[i]
        if len(u) > len(b):
            raise ValueError(f"right-hand sides of {len(b)} rows for "
                             f"matrix {i} of size {len(u)}")
        if len(u):
            rhs = b[:len(u)]
            x = _cholesky_lapack()[1](u, rhs, overwrite_b=True)[0]
            if x is not rhs:
                rhs[...] = x

    def solve(self, b, index):
        """x with a @ x = b, column j of b (n, m) going with matrix
        index[j].

        Each matrix is padded by the identity to n: only its leading
        rows are solved, one potrs per matrix, and the rest are kept.
        """
        return _solve_by_matrix(np.asarray(b, dtype=float), index,
                                self._potrs_into)


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


def block_triplets(dofs, block):
    """COO triplets of one dense block per cell.

    dofs is (C, n), and block is (n, n), shared by every cell, or (C, n, n),
    one per cell: the block of cell e puts entry [i, j] at (dofs[e, i],
    dofs[e, j]).  Entries at a negative dof are dropped.  Triplets come
    in cell, row, column order.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    block = np.asarray(block, dtype=float)
    n = dofs.shape[-1]
    if dofs.ndim != 2 or block.shape not in ((n, n), (len(dofs), n, n)):
        raise ValueError(f"block shape {block.shape} does not match dofs "
                         f"of shape {dofs.shape}")
    keep = (dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)
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
