"""Dense/sparse factorization wrappers and triplet assembly."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from brinkhdg.fespace import factor_classes
from brinkhdg.linalg import (CholeskyFactor, DenseFactor, SingularMatrixError,
                             SparseBuilder, SparseFactor, block_triplets,
                             refined_solve, sparse_solve)


def laplacian_1d(n):
    """Tridiagonal second-difference matrix with Dirichlet ends."""
    builder = SparseBuilder(n, n)
    for i in range(n):
        builder.add([i], [i], [2.0])
        if i + 1 < n:
            builder.add([i, i + 1], [i + 1, i], [-1.0, -1.0])
    return builder


def test_dense_identity_and_2x2():
    assert np.allclose(DenseFactor(np.eye(3)[None]).solve([[1.0, 2.0, 3.0]]),
                       [[1.0, 2.0, 3.0]])
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = DenseFactor(a[None]).solve([[5.0, 10.0]])[0]
    assert np.allclose(a @ x, [5.0, 10.0])


def test_dense_random_spd_residual():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((50, 50))
    a = g @ g.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = DenseFactor(a[None]).solve(b[None])[0]
    assert np.linalg.norm(a @ x - b) < 1e-10 * np.linalg.norm(b)


def test_dense_matrix_rhs():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    b = rng.standard_normal((12, 5))
    x = DenseFactor(a[None]).solve(b[None])
    assert x.shape == (1, 12, 5)
    assert np.abs(a @ x[0] - b).max() < 1e-10


def test_dense_factor_once_solve_many():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 20)) + 20 * np.eye(20)
    factor = DenseFactor(a[None])
    for _ in range(4):
        b = rng.standard_normal(20)
        assert np.allclose(a @ factor.solve(b[None])[0], b)


def test_dense_empty_matrix():
    with pytest.raises(ValueError, match="nonempty stack of square matrices"):
        DenseFactor(np.zeros((1, 0, 0)))


def test_dense_rejects_singular():
    with pytest.raises(SingularMatrixError):
        DenseFactor(np.zeros((1, 3, 3)))
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError):
        DenseFactor(a[None])
    with pytest.raises(ValueError):
        DenseFactor(np.ones((1, 2, 3)))
    # a single matrix is not a stack
    with pytest.raises(ValueError, match="stack of square matrices, got "
                                         r"shape \(2, 2\)"):
        DenseFactor(np.eye(2))


def test_dense_stack_matches_each_matrix():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 9, 9)) + 9 * np.eye(9)
    b = rng.standard_normal((4, 9, 3))
    factor = DenseFactor(a)
    x = factor.solve(b)
    assert x.shape == (4, 9, 3)
    for i in range(4):
        one = DenseFactor(a[i:i + 1]).solve(b[i:i + 1])[0]
        assert np.array_equal(x[i], one)
        assert np.array_equal(factor.solve(b[i], np.full(3, i)), one)
    with pytest.raises(ValueError, match="3 right-hand sides for a stack of 4"):
        factor.solve(b[:3])
    with pytest.raises(ValueError, match="nonempty stack of square"):
        DenseFactor(np.zeros((0, 3, 3)))


def test_dense_factor_matches_scipy_lu():
    # getrf and getrs called directly give scipy's factors and solutions
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 53, 53))
    b = rng.standard_normal((3, 53, 4))
    factor = DenseFactor(a)
    want, one = [], []
    for i in range(3):
        lu, piv = sla.lu_factor(a[i])
        assert np.array_equal(factor._lu[i][0], lu)
        assert np.array_equal(factor._lu[i][1], piv)
        want.append(sla.lu_solve((lu, piv), b[i]))
        # one column goes through another kernel than several
        one.append(sla.lu_solve((lu, piv), b[i, :, 0]))
    # C-ordered, F-ordered and non-contiguous right-hand sides, in each
    # mode: the stack, and one matrix per column, all of one matrix or of
    # several; the inputs are left as they were
    wide = np.zeros((3, 53, 12))
    wide[:, :, ::3] = b
    index = np.repeat(np.arange(3), 4)
    for rhs in (b, np.asfortranarray(b), wide[:, :, ::3]):
        before = rhs.copy()
        x = factor.solve(rhs)
        # the matrices in reverse order
        cols = factor.solve(np.hstack(rhs[::-1]), index[::-1])
        for i in range(3):
            assert np.array_equal(x[i], want[i])
            assert np.array_equal(factor.solve(rhs[i], np.full(4, i)),
                                  want[i])
            assert np.array_equal(factor.solve(rhs[i, :, :1], [i])[:, 0],
                                  one[i])
            assert np.array_equal(factor.solve(rhs[:, :, 0])[i], one[i])
            assert np.array_equal(cols[:, 8 - 4 * i:12 - 4 * i], want[i])
        for layout in (np.ascontiguousarray, np.asfortranarray,
                       lambda m: np.repeat(m, 2, axis=1)[:, ::2]):
            got = factor.solve(layout(np.hstack(rhs)), index)
            assert np.array_equal(got, np.hstack(want))
        assert np.array_equal(rhs, before)
    singular = a.copy()
    singular[2, -1] = singular[2, 0]
    with pytest.raises(SingularMatrixError,
                       match="^dense factorization of matrix 2: ") as err:
        DenseFactor(singular)
    assert err.value.index == 2


def test_dense_factor_overwrites_only_writable_column_major_input():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((3, 6, 6)) + 6 * np.eye(6)
    want = [sla.lu_factor(m)[0] for m in a]
    # writable stacks of column-major matrices, of three and of one: factored
    # in place
    stack = np.zeros(a.shape).swapaxes(1, 2)
    stack[...] = a
    DenseFactor(stack)
    one = np.asfortranarray(a[1:2])
    DenseFactor(one)
    assert all(np.array_equal(stack[i], want[i]) for i in range(3))
    assert np.array_equal(one[0], want[1])
    # row-major or read-only: copied, input unchanged
    frozen = np.asfortranarray(a[2:3])
    frozen.flags.writeable = False
    for mat in (a.copy(), a[:1].copy(), frozen):
        before = mat.copy()
        factor = DenseFactor(mat)
        assert np.array_equal(mat, before)
        assert np.array_equal(factor._lu[0][0], want[2 if mat is frozen else 0])
    # right-hand sides of every layout, a writable column-major stack and
    # a stack of vectors, which are both C- and F-contiguous, among them:
    # solved into a fresh buffer, input unchanged
    factor = DenseFactor(a)
    b = rng.standard_normal((3, 6, 2))
    x = [sla.lu_solve(sla.lu_factor(a[i]), b[i]) for i in range(3)]
    for rhs in (b.copy(), np.asfortranarray(b),
                np.zeros((3, 2, 6)).swapaxes(1, 2) + b, b[:, :, 0].copy()):
        before = rhs.copy()
        got = factor.solve(rhs)
        assert np.array_equal(rhs, before) and got is not rhs
        assert all(np.array_equal(got[i], x[i] if rhs.ndim == 3 else
                                  sla.lu_solve(sla.lu_factor(a[i]), rhs[i]))
                   for i in range(3))


def test_dense_stack_solves_with_an_index_per_column():
    # column j of b is solved with matrix index[j]; columns that share a
    # matrix are solved together
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 7, 7)) + 7 * np.eye(7)
    factor = DenseFactor(a)
    index = np.array([2, 0, 2, 3, 0, 2])
    b = rng.standard_normal((7, len(index)))
    x = factor.solve(b, index)
    for i in np.unique(index):
        cols = np.flatnonzero(index == i)
        one = DenseFactor(a[i:i + 1]).solve(b[None, :, cols])[0]
        assert np.array_equal(x[:, cols], one)
        assert np.abs(a[i] @ x[:, cols] - b[:, cols]).max() < 1e-12
    assert np.array_equal(factor.solve(b[:, :3], np.full(3, 1)),
                          DenseFactor(a[1:2]).solve(b[None, :, :3])[0])
    # an index per column, not one integer for all of them
    for bad in (index[:-1], 1):
        with pytest.raises(ValueError, match="index of shape"):
            factor.solve(b, bad)


def test_dense_stack_names_first_singular_matrix():
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for stack in ([good, singular, good], [good, singular, np.zeros((2, 2))]):
        with pytest.raises(SingularMatrixError,
                           match=r"^dense factorization of matrix 1: ") as err:
            DenseFactor(np.stack(stack))
        assert err.value.index == 1
    # each matrix is judged against its own largest entry, so a tiny
    # regular matrix next to large ones passes
    DenseFactor(np.stack([1e20 * good, 1e-20 * good, good]))
    with pytest.raises(SingularMatrixError,
                       match="^dense factorization of matrix 0: ") as err:
        DenseFactor(singular[None])
    assert err.value.index == 0


def test_dense_refuses_non_finite_entries():
    # a NaN or an infinity is named as such, with its stack index, rather
    # than factored into NaN solutions or reported as a small pivot
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    for value in (np.nan, np.inf, -np.inf):
        stack = np.stack([good, good, good])
        stack[1, 0, 1] = value
        with pytest.raises(SingularMatrixError,
                           match=rf"^dense factorization of matrix 1: "
                                 rf"non-finite entry {value}$") as err:
            DenseFactor(stack)
        assert err.value.index == 1
        with pytest.raises(SingularMatrixError,
                           match="^dense factorization of matrix 0: "
                                 "non-finite") as err:
            DenseFactor(stack[1:2])
        assert err.value.index == 0
        # factor_classes names the cell of the class
        with pytest.raises(SingularMatrixError,
                           match="^local block of cell 17: dense "
                                 "factorization of matrix 1: non-finite"):
            factor_classes(stack, [4, 17, 9], "local block")


def spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def test_cholesky_refuses_non_finite_entries():
    # as DenseFactor: named with the matrix's index, and factor_classes
    # names the cell of its class
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    for value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[1, 0] = value
        with pytest.raises(SingularMatrixError,
                           match=rf"^Cholesky factorization of matrix 1: "
                                 rf"non-finite entry {value}$") as err:
            CholeskyFactor([good, bad, good])
        assert err.value.index == 1
        with pytest.raises(SingularMatrixError,
                           match="^patch block of cell 17: Cholesky "
                                 "factorization of matrix 1: non-finite"):
            factor_classes([good, bad, good], [4, 17, 9],
                           "patch block", factor=CholeskyFactor)


def test_cholesky_refuses_indefinite_and_singular_matrices():
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    for bad in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                np.array([[1.0, 2.0], [2.0, 1.0]]), -good,
                np.diag([1.0, 1.0, 0.0])):
        with pytest.raises(SingularMatrixError,
                           match=r"^Cholesky factorization of matrix 2: "
                                 r"pivot \S+ below 1e-13 \* max entry ") as err:
            CholeskyFactor([good, np.eye(4), bad, np.zeros((3, 3))])
        assert err.value.index == 2


def test_cholesky_pivot_rule_against_each_matrix_scale():
    # min diag(L)^2 against the matrix's own largest entry, so a tiny
    # regular matrix next to large ones passes, and the rule does not
    # move when a matrix is scaled
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    CholeskyFactor([1e20 * good, 1e-20 * good, good])
    for scale in (1e-20, 1.0, 1e20):
        # pivot 1e-12 and 1e-14 of a largest entry about 1
        CholeskyFactor([scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])])
        with pytest.raises(SingularMatrixError, match="matrix 0: pivot"):
            CholeskyFactor([scale * np.array([[1.0, 1.0],
                                              [1.0, 1.0 + 1e-14]])])


def test_cholesky_matches_scipy_and_reads_the_lower_triangle():
    rng = np.random.default_rng(11)
    a = spd(rng, 9)
    junk = np.tril(a) + np.triu(rng.standard_normal((9, 9)), 1)
    # the factors hold L^T = scipy's upper factor in their upper triangle
    upper = np.triu(CholeskyFactor([junk]).factors[0])
    assert np.allclose(upper, sla.cholesky(a), rtol=1e-14, atol=1e-14)
    assert np.allclose(upper.T @ upper, a, rtol=1e-14, atol=1e-12)
    # no input is written: row-major, column-major, read-only or strided
    frozen = a.copy()
    frozen.flags.writeable = False
    wide = np.hstack([a, a])
    for mat in (a, np.asfortranarray(a), frozen, wide[:, :9]):
        before = mat.copy()
        factor = CholeskyFactor([mat])
        assert np.array_equal(mat, before)
        assert not np.shares_memory(factor.factors[0], mat)


def test_cholesky_equilibrates_by_powers_of_two():
    rng = np.random.default_rng(14)
    a = spd(rng, 9)
    # exactly: the factor of 4^p a is 2^p times that of a, bit for bit
    upper = np.triu(CholeskyFactor([a]).factors[0])
    for p in (-60, 0, 60):
        got = np.triu(CholeskyFactor([4.0 ** p * a]).factors[0])
        assert np.array_equal(got, 2.0 ** p * upper)
    # a diagonal scaling D spanning 1e-150 to 1e150, under which the
    # unequilibrated pivots fall far below the pivot rule, is factored as
    # accurately as a itself; D x and D^-1 b are compared, since the
    # norms of x and b overflow
    d = np.logspace(-150, 150, 9)
    b = rng.standard_normal(9)
    x = CholeskyFactor([d[:, None] * a * d]).solve(b[:, None], [0])[:, 0]
    want = np.linalg.solve(a, b / d)
    assert (np.linalg.norm(d * x - want)
            <= 1e-14 * np.linalg.norm(want)), d * x - want


def test_cholesky_solves_with_an_index_per_column():
    # matrices of their own sizes: column j of b is solved with matrix
    # index[j] in its leading rows, the others kept, as by each matrix
    # padded with the identity
    rng = np.random.default_rng(12)
    mats = [spd(rng, n) for n in (3, 5, 0, 4)]
    factor = CholeskyFactor(mats)
    index = np.array([3, 0, 3, 1, 0, 2, 1])
    b = rng.standard_normal((6, len(index)))
    before = b.copy()
    x = factor.solve(b, index)
    assert np.array_equal(b, before)
    for i, a in enumerate(mats):
        cols = np.flatnonzero(index == i)
        n = len(a)
        if n:
            want = sla.cho_solve((sla.cholesky(a), False), b[:n, cols])
            assert np.allclose(x[:n, cols], want, rtol=1e-13, atol=1e-15)
            assert np.array_equal(factor.solve(b[:, cols], np.full(
                len(cols), i)), x[:, cols])
        assert np.array_equal(x[n:, cols], b[n:, cols])
        padded = np.eye(6)
        padded[:n, :n] = a
        assert np.allclose(CholeskyFactor([padded]).solve(
            b[:, cols], np.zeros(len(cols), dtype=int)), x[:, cols],
                           rtol=1e-13, atol=1e-15)


def test_cholesky_eliminates_onto_the_boundary():
    # the Schur complement a_bb - a_bi a_ii^-1 a_ib, in its lower
    # triangle, and a_bi a_ii^-1; only the lower triangle of a_bb is read
    rng = np.random.default_rng(13)
    a = spd(rng, 12)
    factor = CholeskyFactor([a[:7, :7], np.zeros((0, 0))])
    schur, w_t = factor.eliminate(0, np.asfortranarray(a[7:, :7]),
                                  np.tril(a[7:, 7:]))
    want = a[7:, 7:] - a[7:, :7] @ np.linalg.solve(a[:7, :7], a[:7, 7:])
    assert np.allclose(np.tril(schur), np.tril(want), rtol=1e-13)
    assert np.array_equal(np.triu(schur, 1), np.zeros((5, 5)))
    assert np.allclose(w_t, np.linalg.solve(a[:7, :7], a[:7, 7:]).T,
                       rtol=1e-12)
    # nothing to eliminate: the boundary block itself
    schur, w_t = factor.eliminate(1, np.zeros((5, 0)), a[7:, 7:])
    assert np.array_equal(schur, a[7:, 7:]) and w_t.shape == (5, 0)


def test_cholesky_refuses_bad_shapes():
    with pytest.raises(ValueError, match="nonempty sequence"):
        CholeskyFactor([])
    for bad in (np.ones((2, 3)), np.eye(2)[None], np.ones(3)):
        with pytest.raises(ValueError, match="matrix 1 of shape"):
            CholeskyFactor([np.eye(2), bad])
    factor = CholeskyFactor([np.eye(2), 2.0 * np.eye(4)])
    with pytest.raises(ValueError, match="right-hand sides of 3 rows for "
                                         "matrix 1 of size 4"):
        factor.solve(np.ones((3, 2)), [0, 1])
    for index in ([0], 1, [[0, 1]]):
        with pytest.raises(ValueError, match="index of shape"):
            factor.solve(np.ones((4, 2)), index)


def test_sparse_refuses_non_finite_entries():
    for value in (np.nan, np.inf):
        mat = laplacian_1d(5).finalize()
        mat.data[np.flatnonzero((mat.indices == 3)
                                & (np.repeat(np.arange(5), np.diff(mat.indptr))
                                   == 2))] = value
        for symmetric in (False, True):
            with pytest.raises(SingularMatrixError,
                               match=rf"^sparse factorization: non-finite "
                                     rf"entry {value} at \(3, 2\), one of 1$"):
                SparseFactor(mat, symmetric=symmetric)


def test_sparse_diagonal():
    builder = SparseBuilder(4, 4)
    builder.add(np.arange(4), np.arange(4), [1.0, 2.0, 3.0, 4.0])
    x = sparse_solve(builder, np.array([1.0, 4.0, 9.0, 16.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0, 4.0])


def test_sparse_laplacian_analytic_profile():
    # -u'' = 1 with zero ends: discrete solution is the parabola
    # u_i = x_i (1 - x_i) / 2 sampled at x_i = i h, exact for this scheme
    n = 31
    h = 1.0 / (n + 1)
    x = sparse_solve(laplacian_1d(n), np.full(n, h * h))
    xs = h * np.arange(1, n + 1)
    assert np.abs(x - xs * (1.0 - xs) / 2.0).max() < 1e-12


def test_sparse_matches_dense():
    rng = np.random.default_rng(11)
    n = 200
    dense = np.zeros((n, n))
    builder = SparseBuilder(n, n)
    for _ in range(8 * n):
        i, j = rng.integers(0, n, size=2)
        v = rng.standard_normal()
        dense[i, j] += v
        builder.add([i], [j], [v])
    dense += 40 * np.eye(n)
    builder.add(np.arange(n), np.arange(n), np.full(n, 40.0))
    b = rng.standard_normal(n)
    x_sparse = sparse_solve(builder, b)
    x_dense = np.linalg.solve(dense, b)
    assert np.abs(x_sparse - x_dense).max() < 1e-10


def test_duplicate_entries_sum():
    builder = SparseBuilder(2, 2)
    builder.add([0, 0, 1], [0, 0, 1], [1.5, 2.5, 1.0])
    mat = builder.finalize()
    assert np.allclose(mat.toarray(), [[4.0, 0.0], [0.0, 1.0]])


def test_add_block_layout():
    # block[i, j] of cell e goes to (dofs[e, i], dofs[e, j]); a negative
    # dof drops its row and column
    block = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    dofs = np.array([[2, 0, 1], [3, -1, 0]])
    rows, cols, vals = block_triplets(dofs, block)
    assert len(rows) == 9 + 4
    builder = SparseBuilder(4, 4)
    builder.add(rows, cols, vals)
    arr = builder.finalize().toarray()
    want = np.zeros((4, 4))
    want[np.ix_([2, 0, 1], [2, 0, 1])] += block
    want[np.ix_([3, 0], [3, 0])] += block[np.ix_([0, 2], [0, 2])]
    assert np.array_equal(arr, want)


def assert_same_csc(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_finalize_matches_lexsort_reference():
    # triplets with up to 4 duplicates per entry, in shuffled order over
    # several add calls, sum as after a sort by (row, col, value) when
    # every sum is exact: small integers times one power of two per entry
    rng = np.random.default_rng(8)
    n = 60
    cells = rng.choice(n * n, size=400, replace=False)
    counts = rng.integers(1, 5, cells.size)
    rows, cols = np.divmod(np.repeat(cells, counts), n)
    scales = np.repeat(2.0 ** rng.integers(-40, 10, cells.size), counts)
    vals = rng.integers(-64, 65, rows.size) * scales
    shuffle = rng.permutation(rows.size)
    rows, cols, vals = rows[shuffle], cols[shuffle], vals[shuffle]
    order = np.lexsort((vals, cols, rows))
    want = sp.coo_matrix((vals[order], (rows[order], cols[order])),
                         shape=(n, n)).tocsc()
    builder = SparseBuilder(n, n)
    for part in np.array_split(np.arange(rows.size), 7):
        builder.add(rows[part], cols[part], vals[part])
    got = builder.finalize()
    assert got.format == "csc" and got.has_canonical_format
    assert_same_csc(got, want)


def test_finalize_bytes_with_zeros_and_long_runs():
    # bit for bit SciPy's COO-to-CSC conversion of the triplets in the
    # order they were added, over several add calls: shuffled runs of 1
    # to 8 duplicates (vertex-potential rows of the reduced triangle
    # system repeat up to 6 times), explicit zeros that stay stored, a
    # lone -0.0 that keeps its sign and a run of signed zeros, on a
    # non-square shape
    rng = np.random.default_rng(20)
    shape = (37, 23)
    cells = rng.choice(shape[0] * shape[1], size=150, replace=False)
    rows, cols = np.divmod(np.repeat(cells, rng.integers(1, 9, cells.size)),
                           shape[1])
    vals = rng.standard_normal(rows.size) * 10.0 ** rng.integers(
        -16, 3, rows.size)
    vals[rng.random(rows.size) < 0.1] = 0.0
    rows = np.append(rows, [5, 7, 7, 7])
    cols = np.append(cols, [22, 0, 0, 0])
    vals = np.append(vals, [-0.0, -0.0, 0.0, -0.0])
    cells = rows * shape[1] + cols
    assert np.unique(cells, return_counts=True)[1].max() == 8
    assert np.count_nonzero(cells == 5 * shape[1] + 22) == 1
    shuffle = rng.permutation(rows.size)
    rows, cols, vals = rows[shuffle], cols[shuffle], vals[shuffle]
    builder = SparseBuilder(*shape)
    for part in np.array_split(np.arange(rows.size), 5):
        builder.add(rows[part], cols[part], vals[part])
    got = builder.finalize()
    assert got.format == "csc" and got.has_canonical_format
    assert_same_csc(got, sp.coo_matrix((vals, (rows, cols)),
                                       shape=shape).tocsc())
    # explicit zeros stay stored, and the lone -0.0 keeps its sign
    coo = got.tocoo()
    assert np.count_nonzero(coo.data == 0.0) > 1
    assert list(np.signbit(coo.data[(coo.row == 5) & (coo.col == 22)])) == [
        True]
    for empty_shape in ((0, 0), (3, 0), (3, 3)):
        empty = np.zeros(0, dtype=np.int64)
        assert_same_csc(SparseBuilder(*empty_shape).finalize(),
                        sp.coo_matrix((np.zeros(0), (empty, empty)),
                                      shape=empty_shape).tocsc())
    # an index outside the shape is refused
    for row, col in ((37, 0), (0, 23), (-1, 0), (0, -1)):
        builder = SparseBuilder(*shape)
        builder.add([0, row], [0, col], [1.0, 1.0])
        with pytest.raises(ValueError, match="triplet index out of range"):
            builder.finalize()


def nonzero_triplets(dofs, block):
    """block_triplets through np.nonzero and fancy-index gathers."""
    keep = (dofs[:, :, None] >= 0) & (dofs[:, None, :] >= 0)
    e, i, j = np.nonzero(keep)
    vals = block[i, j] if block.ndim == 2 else block[e, i, j]
    return dofs[e, i], dofs[e, j], vals


def test_block_triplets_matches_nonzero_reference():
    rng = np.random.default_rng(21)
    dofs = rng.integers(0, 30, size=(6, 5))
    dofs[rng.random(dofs.shape) < 0.3] = -1
    for block in (rng.standard_normal((5, 5)),
                  rng.standard_normal((6, 5, 5))):
        got = block_triplets(dofs, block)
        want = nonzero_triplets(dofs, block)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sparse_factor_once_solve_many():
    factor = SparseFactor(laplacian_1d(40).finalize())
    rng = np.random.default_rng(12)
    mat = laplacian_1d(40).finalize()
    for _ in range(3):
        b = rng.standard_normal(40)
        x = factor.solve(b)
        assert np.linalg.norm(mat @ x - b) < 1e-11 * np.linalg.norm(b)


def test_symmetric_mode_matches_general_lu():
    # on an SPD matrix the diagonal-pivot factorization solves as LU does
    mat = laplacian_1d(40).finalize()
    b = np.sin(np.arange(40.0))
    x_sym = SparseFactor(mat, symmetric=True).solve(b)
    x_gen = SparseFactor(mat).solve(b)
    assert np.abs(x_sym - x_gen).max() <= 1e-12 * np.abs(x_gen).max()


def test_general_lu_keeps_diagonal_pivots_above_threshold():
    # every diagonal entry is at least 0.1 of its column's largest entry
    # but not the largest: threshold partial pivoting keeps it, where full
    # partial pivoting would swap rows
    mat = sp.csc_matrix(np.array([[0.5, 1.0, 0.0],
                                  [1.0, 0.6, 1.0],
                                  [0.0, 1.0, 0.7]]))
    factor = SparseFactor(mat)
    assert np.array_equal(factor._lu.perm_r, factor._lu.perm_c)
    b = np.array([1.0, -2.0, 3.0])
    x = factor.solve(b)
    assert np.linalg.norm(b - mat @ x) <= 1e-14 * np.linalg.norm(b)
    # a saddle point with a zero diagonal block, as in the oracle's
    # pressure rows, still factors and solves
    rng = np.random.default_rng(13)
    a = rng.standard_normal((6, 6))
    a = a @ a.T + 6 * np.eye(6)
    bt = rng.standard_normal((6, 2))
    saddle = sp.csc_matrix(np.block([[a, bt], [bt.T, np.zeros((2, 2))]]))
    factor = SparseFactor(saddle)
    b = np.sin(np.arange(8.0))
    x = factor.solve(b)
    assert np.linalg.norm(b - saddle @ x) <= 1e-14 * np.linalg.norm(b)


def test_refined_solve_refines_once_and_checks_residual():
    # an approximate inverse off by a factor 1 + 1e-4 leaves a relative
    # residual of 1e-4, and 1e-8 after one refinement step
    mat = laplacian_1d(40).finalize()
    exact = SparseFactor(mat)
    b = np.cos(np.arange(40.0))

    def rough(r):
        return (1.0 + 1e-4) * exact.solve(r)

    x = refined_solve(mat.dot, rough, b, rtol=0.0)
    assert np.linalg.norm(b - mat @ x) <= 2e-8 * np.linalg.norm(b)
    with pytest.raises(SingularMatrixError, match="exceeds 1e-6"):
        refined_solve(mat.dot, rough, b, rtol=np.inf)


def test_sparse_zero_rhs():
    x = SparseFactor(laplacian_1d(5).finalize()).solve(np.zeros(5))
    assert np.all(x == 0.0)


def test_sparse_rejects_singular():
    builder = SparseBuilder(3, 3)
    builder.add([0, 1], [0, 1], [1.0, 1.0])  # empty last row/column
    with pytest.raises(SingularMatrixError):
        sparse_solve(builder, np.ones(3))


def test_index_validation():
    builder = SparseBuilder(2, 2)
    builder.add([2], [0], [1.0])
    with pytest.raises(ValueError):
        builder.finalize()
    with pytest.raises(ValueError):
        builder.add([0, 1], [0], [1.0])
    with pytest.raises(ValueError, match="does not match dofs"):
        block_triplets(np.array([[0]]), np.ones((2, 2)))
