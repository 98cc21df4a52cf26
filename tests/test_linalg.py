"""Exact rational matrix kernel: cross-checked against brute-force
oracles on small matrices, and the fraction-free elimination against the
Fraction Gaussian elimination it replaced, kept here as the reference."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orthomono import linalg

from conftest import column_eliminate, int_row_kernel

ints = st.integers(-9, 9)


def square(n):
    return st.lists(st.lists(ints, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def det_oracle(m):
    # permutation expansion; exponential, fine for n <= 4
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(m[i][perm[i]])
        total += sign * prod
    return total


def rref(m):
    """Reduced row echelon form and pivot columns, read off the
    fraction-free elimination that rank, det and inverse run."""
    rows = linalg.int_rows(m)
    pivots, d, _ = linalg._eliminate(rows)
    return [[Fraction(x, d) for x in row] for row in rows], pivots


def nullspace(m):
    """Basis of the right kernel over Q, one vector per free column,
    free columns in ascending order, read off the same elimination; the
    reference for the invariance route's int kernel vector."""
    rows = linalg.int_rows(m)
    pivots, d, _ = linalg._eliminate(rows)
    ncols = len(m[0]) if m else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[r][fc], d)
        basis.append(v)
    return basis


# ------------------------------------------- Fraction elimination reference

def ref_rref(m):
    rows = [[Fraction(x) for x in row] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def ref_det(m):
    rows = [[Fraction(x) for x in row] for row in m]
    n = len(rows)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pv = rows[c][c]
        result *= pv
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * result


def ref_inverse(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    reduced, pivots = ref_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def ref_nullspace(m):
    reduced, pivots = ref_rref(m)
    ncols = len(m[0]) if m else 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


small = st.integers(-3, 3)
entries = st.one_of(ints, small)


@st.composite
def matrices(draw, square=False):
    """Int matrices up to 5 x 6; small entries make singular
    ones common, and a rank-deficient product is drawn outright now and
    then."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))
    if draw(st.booleans()):
        k = draw(st.integers(1, max(1, min(nrows, ncols) - 1)))
        left = draw(st.lists(st.lists(small, min_size=k, max_size=k),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(entries, min_size=ncols,
                                       max_size=ncols),
                              min_size=k, max_size=k))
        return linalg.mat_mul(left, right)
    return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@settings(max_examples=300)
@given(matrices())
def test_kernel_matches_fraction_reference(m):
    assert rref(m) == ref_rref(m)
    assert linalg.rank(m) == len(ref_rref(m)[1])
    assert nullspace(m) == ref_nullspace(m)


@settings(max_examples=300)
@given(matrices(square=True))
def test_det_and_inverse_match_fraction_reference(m):
    assert linalg.det(m) == ref_det(m)
    try:
        expected = ref_inverse(m)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            linalg.inverse(m)
        return
    inv = linalg.inverse(m)
    assert inv == expected
    assert all(type(x) is int for row in inv for x in row
               if Fraction(x).denominator == 1)


@pytest.mark.parametrize("kernel", [linalg.det, linalg.inverse, linalg.rank])
def test_kernels_reject_a_fraction_entry(kernel):
    # an integral Fraction too: the kernels take int matrices only
    for entry in (Fraction(1, 2), Fraction(3)):
        with pytest.raises(TypeError, match="int entries"):
            kernel([[2, 1], [entry, 5]])
    assert linalg.int_rows(((2, 1), (1, 5))) == [[2, 1], [1, 5]]


def test_identity_and_transpose():
    assert linalg.identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    m = [[1, 2, 3], [4, 5, 6]]
    assert linalg.transpose(m) == [[1, 4], [2, 5], [3, 6]]
    assert linalg.transpose(linalg.transpose(m)) == [list(r) for r in m]


def test_mat_mul_and_vec():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert linalg.mat_mul(a, b) == [[2, 1], [4, 3]]
    assert linalg.mat_vec(a, [1, 1]) == [3, 7]


@pytest.mark.parametrize("call, args", [
    (linalg.mat_vec, ([[1, 2, 3], [4, 5, 6]], (1, 2))),
    (linalg.mat_mul, ([[1, 2, 3]], [[1, 0], [0, 1]])),
    (linalg.vec_dot, ((1, 2), linalg.identity(3), (1, 2, 3))),
    # the first row fits, a later one does not
    (linalg.mat_vec, ([[1, 2], [3]], (1, 2))),
    (linalg.mat_mul, ([[1, 2]], [[1, 0], [0]])),
    (linalg.vec_dot, ((1, 2, 3), linalg.identity(3), (1, 2))),
], ids=["mat_vec", "mat_mul", "vec_dot", "mat_vec-ragged", "mat_mul-ragged",
        "vec_dot-short-y"])
def test_kernels_reject_mismatched_shapes(call, args):
    # zip would truncate each of these to a product of the wrong shape
    with pytest.raises(ValueError):
        call(*args)


@given(square(3), square(3), square(3))
def test_mat_mul_associative(a, b, c):
    left = linalg.mat_mul(linalg.mat_mul(a, b), c)
    right = linalg.mat_mul(a, linalg.mat_mul(b, c))
    assert linalg.mat_eq(left, right)


@given(square(3))
def test_det_against_permutation_expansion(m):
    assert linalg.det(m) == det_oracle(m)


@given(square(4))
def test_det_4x4(m):
    assert linalg.det(m) == det_oracle(m)


@given(square(3))
def test_inverse_or_singular(m):
    d = linalg.det(m)
    if d == 0:
        with pytest.raises(ValueError):
            linalg.inverse(m)
    else:
        inv = linalg.inverse(m)
        assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(3))
        assert linalg.mat_eq(linalg.mat_mul(inv, m), linalg.identity(3))


@given(square(4))
def test_rank_nullity(m):
    r = linalg.rank(m)
    null = nullspace(m)
    assert r + len(null) == 4
    for vec in null:
        assert all(x == 0 for x in linalg.mat_vec(m, vec))
        assert any(x != 0 for x in vec)


def test_rref_shape():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert pivots == [0]
    assert reduced[0] == [Fraction(1), Fraction(2)]
    assert all(x == 0 for x in reduced[1])


def test_vec_dot():
    g = [[2, 1], [1, 2]]
    assert linalg.vec_dot([1, 0], g, [0, 1]) == 1
    assert linalg.vec_dot([1, 1], g, [1, 1]) == 6
    # symmetric form, symmetric dot
    assert linalg.vec_dot([3, -2], g, [1, 5]) == linalg.vec_dot([1, 5], g, [3, -2])


def test_primitive_integer():
    assert linalg.primitive_integer([-2, -4]) == (1, 2)
    assert linalg.primitive_integer([6, -9]) == (2, -3)
    assert linalg.primitive_integer([0, 0, 5]) == (0, 0, 1)


def check_column_elimination(row):
    """The reference column elimination of the steps behind lattice_cut:
    the rows of u^-1 it builds invert the columns of u, and
    row . u = (r0, 0, ..., 0) with |r0| the gcd."""
    n = len(row)
    r0, cols, inv = column_eliminate(row)
    assert linalg.mat_mul(linalg.transpose(cols), inv) == linalg.identity(n)
    assert linalg.mat_vec(cols, row) == [r0] + [0] * (n - 1)
    assert abs(r0) == math.gcd(*row)
    return cols


@given(st.lists(ints, min_size=2, max_size=6).filter(lambda r: any(r)))
def test_int_row_kernel(row):
    kernel = int_row_kernel(row)
    n = len(row)
    assert len(kernel) == n - 1
    for vec in kernel:
        assert all(isinstance(x, int) for x in vec)
        assert sum(a * b for a, b in zip(row, vec)) == 0
    assert linalg.rank(kernel) == n - 1
    assert kernel == check_column_elimination(row)[1:]


# a basis: a short list of rows of one length, with zero entries and
# zero leading entries of the projection (the swap step) common
sparse = st.integers(-4, 4) | st.just(0)
cut_cases = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(sparse, min_size=n, max_size=n),
             min_size=1, max_size=5),
    st.lists(sparse, min_size=n, max_size=n)))


@given(cut_cases)
@example(([[0, 1, 2]], [1, 0, 0]))             # 1 x n, projection zero
@example(([[1, 2, 0]], [3, 0, 1]))             # 1 x n, one row cut away
@example(([[1, 0], [0, 1], [2, 1]], [0, 5]))   # leading zero: a swap
def test_lattice_cut_is_the_kernel_times_the_basis(case):
    basis, row = case
    projected = linalg.mat_vec(basis, row)
    got = linalg.lattice_cut(basis, row)
    if not any(projected):
        assert got is basis
        return
    assert got == linalg.sparse_mul(int_row_kernel(projected), basis)
    assert not any(linalg.mat_vec(got, row))


def test_mat_eq_mixed_types():
    assert linalg.mat_eq([[1, 0], [0, 1]],
                         [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert not linalg.mat_eq([[1]], [[2]])
