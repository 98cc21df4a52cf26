"""Exact linear algebra over Z: lists of lists of int.

Everything is deterministic (pivot = first usable row/column) and exact;
no floating point.  Matrices are row-major.  rank, det and inverse each
run one fraction-free elimination over int rows, and take int matrices
only; a Fraction is built only for an entry of an inverse that is not an
integer.  A lattice cut runs one sequence of extended-gcd column steps
and applies each step to two rows of the lattice basis; it builds no
Fraction.  monodromy.build_pair calls none of these kernels: it reads
A^-1, C and S off the companion structure.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Vec = Sequence
Mat = Sequence[Sequence]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Mat) -> list[list]:
    return [list(row) for row in zip(*m)]


def _check_widths(m: Mat, width: int, what: str) -> None:
    # zip would truncate a product on a row of another length
    if any(len(row) != width for row in m):
        raise ValueError(f"{what}: every row must have length {width}")


def mat_mul(a: Mat, b: Mat) -> list[list]:
    """a b; a ValueError unless every row of a has len(b) entries and
    the rows of b have one length."""
    _check_widths(a, len(b), "mat_mul")
    if b:
        _check_widths(b, len(b[0]), "mat_mul")
    bt = transpose(b)
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def sparse_mul(a: Mat, b: Mat) -> list[list]:
    """a b, each row a combination of b's rows over the nonzero entries of
    a's row: O(nonzeros of a * width of b) beyond the scan of a, which for
    a companion matrix is O(n^2)."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for j, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[j])]
        out.append(acc)
    return out


def mat_vec(a: Mat, x: Vec) -> list:
    """a x; a ValueError unless every row of a has len(x) entries."""
    _check_widths(a, len(x), "mat_vec")
    return [sum(map(operator.mul, row, x)) for row in a]


def vec_dot(x: Vec, g: Mat, y: Vec):
    """Bilinear form value x^T g y; a ValueError unless g is
    len(x) x len(y)."""
    if len(x) != len(g):
        raise ValueError(f"vec_dot: x has length {len(x)}, g has "
                         f"{len(g)} rows")
    return sum(map(operator.mul, x, mat_vec(g, y)))


def mat_eq(a: Mat, b: Mat) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def int_rows(m: Mat) -> list[list[int]]:
    """A copy of m as lists of int rows; a TypeError on any other entry,
    so a rational matrix never reaches an int kernel."""
    rows = [list(row) for row in m]
    if not all(type(x) is int for row in rows for x in row):
        raise TypeError("expected a matrix of int entries")
    return rows


def int_vector(vec: Vec) -> tuple[int, ...]:
    """vec as a tuple of ints; a ValueError on any other coordinate, so a
    float or a Fraction is rejected rather than truncated."""
    out = tuple(vec)
    if not all(type(x) is int for x in out):
        raise ValueError(f"expected int coordinates, got {out}")
    return out


def _eliminate(rows: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of int rows, in place
    (Bareiss, Math. Comp. 22, 1968).

    Pivot rule: the first row at or below the current one with a nonzero
    entry in the column.  Every row is updated as
    (pivot * row - row[c] * pivot row) / previous pivot, a division that is
    always exact, so each entry stays a minor of the input.  On return the
    first len(pivots) rows are d times the reduced row echelon rows, and
    the rest are zero.  Returns (pivot columns, d, sign of the row
    permutation); for a square matrix of full rank d * sign is its
    determinant.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    sign = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[c]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [(pv * x - f * y) // prev
                           for x, y in zip(rows[i], top)]
            elif pv != prev:
                rows[i] = [pv * x // prev for x in rows[i]]
        prev = pv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, prev, sign


def rank(m: Mat) -> int:
    return len(_eliminate(int_rows(m))[0])


def det(m: Mat) -> int:
    rows = int_rows(m)
    pivots, d, sign = _eliminate(rows)
    return sign * d if len(pivots) == len(rows) else 0


def inverse(m: Mat) -> list[list]:
    """Inverse of a square int matrix, from the one elimination of
    [m | I]: int entries where they are integral, Fraction entries
    elsewhere."""
    n = len(m)
    aug = [row + [int(i == j) for j in range(n)]
           for i, row in enumerate(int_rows(m))]
    pivots, d, _ = _eliminate(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[x // d if x % d == 0 else Fraction(x, d) for x in row[n:]]
            for row in aug[:n]]


def sign_canonical(vec: Sequence[int]) -> tuple[int, ...]:
    """vec or -vec, whichever has a positive first nonzero entry; the zero
    vector as it is."""
    if next((c for c in vec if c != 0), 0) < 0:
        return tuple(-c for c in vec)
    return tuple(vec)


def primitive_integer(vec: Sequence[int]) -> tuple[int, ...]:
    """An int vector divided by its content, signed so that its first
    nonzero entry is positive."""
    g = math.gcd(*vec) or 1  # 1 for the zero vector
    return sign_canonical([c // g for c in vec])


def _gcd_steps(row: Sequence[int]
               ) -> tuple[int, list[tuple[int, tuple[int, ...] | None]]]:
    """(r0, steps) of the extended-gcd column elimination of an int row,
    row . u = (r0, 0, ..., 0) with u unimodular and |r0| the gcd of the
    row.  Step (i, (s, t, a, b)) combines columns 0 and i as
    (x0, xi) <- (s x0 + t xi, -b x0 + a xi), of determinant s a + t b = 1;
    step (i, None) swaps them.  Deterministic."""
    r = list(row)
    steps: list[tuple[int, tuple[int, ...] | None]] = []
    for i in range(1, len(r)):
        if r[i] == 0:
            continue
        if r[0] == 0:
            r[0], r[i] = r[i], 0
            steps.append((i, None))
            continue
        g = math.gcd(r[0], r[i])
        s, t = _extgcd(r[0], r[i])
        steps.append((i, (s, t, r[0] // g, r[i] // g)))
        r[0], r[i] = g, 0
    return r[0], steps


def lattice_cut(basis: Mat, row: Sequence[int]) -> list:
    """A basis of {x in the lattice spanned by basis's rows : x . row = 0},
    for int rows: the steps of _gcd_steps(basis . row), each applied to two
    basis rows, so a cut of k rows of length n is O(k n) beyond the k
    gcds and builds no kernel.  The rows are those of u^T basis after its
    first, u the unimodular matrix of the steps, (basis . row) u =
    (r0, 0, ..., 0); basis itself when basis . row = 0."""
    projected = mat_vec(basis, row)
    if not any(projected):
        return basis
    rows = [list(b) for b in basis]
    for i, step in _gcd_steps(projected)[1]:
        if step is None:
            rows[0], rows[i] = rows[i], rows[0]
            continue
        s, t, a, b = step
        x, y = rows[0], rows[i]
        rows[0] = [s * p + t * q for p, q in zip(x, y)]
        rows[i] = [a * q - b * p for p, q in zip(x, y)]
    return rows[1:]


def _extgcd(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t

