"""Exact linear algebra over Q and Z: lists of lists of Fraction/int.

Everything is deterministic (pivot = first usable row/column) and exact;
no floating point.  Matrices are row-major.  rref, rank, det and inverse
(and through rref nullspace and coordinates) run one fraction-free
elimination over int rows; a rational input is cleared of denominators
on entry, and Fractions appear only in the results.
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


def mat_mul(a: Mat, b: Mat) -> list[list]:
    bt = transpose(b)
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_vec(a: Mat, x: Vec) -> list:
    return [sum(map(operator.mul, row, x)) for row in a]


def vec_dot(x: Vec, g: Mat, y: Vec):
    """Bilinear form value x^T g y."""
    return sum(xi * s for xi, s in zip(x, mat_vec(g, y)))


def mat_eq(a: Mat, b: Mat) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def clear_denominators(m: Mat) -> tuple[list[list[int]], int]:
    """(den * m, den) for a matrix of int or Fraction entries, with den
    the least common denominator of its entries, so den * m is int."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in m], den


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


def rref(m: Mat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    rows, _ = clear_denominators(m)
    pivots, d, _ = _eliminate(rows)
    return [[Fraction(x, d) for x in row] for row in rows], pivots


def rank(m: Mat) -> int:
    rows, _ = clear_denominators(m)
    return len(_eliminate(rows)[0])


def det(m: Mat) -> Fraction:
    rows, den = clear_denominators(m)
    pivots, d, sign = _eliminate(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    return Fraction(sign * d, den ** len(rows))


def inverse(m: Mat) -> list[list]:
    """Inverse of a square matrix: int entries where they are integral,
    Fraction entries elsewhere."""
    n = len(m)
    aug, _ = clear_denominators([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(m)])
    pivots, d, _ = _eliminate(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[x // d if x % d == 0 else Fraction(x, d) for x in row[n:]]
            for row in aug[:n]]


def nullspace(m: Mat) -> list[list[Fraction]]:
    """Basis of the right kernel over Q, one vector per free column,
    free columns in ascending order."""
    reduced, pivots = rref(m)
    ncols = len(m[0]) if m else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def coordinates(rows: Mat, target: Vec) -> list[Fraction] | None:
    """Coefficients expressing target as a combination of the given rows,
    or None if target is outside their span."""
    if not rows:
        return None if any(x != 0 for x in target) else []
    k = len(rows)
    n = len(rows[0])
    aug = [[Fraction(rows[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(n)]
    reduced, pivots = rref(aug)
    if k in pivots:
        return None
    coeffs = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        coeffs[pc] = reduced[r][k]
    return coeffs


def primitive_integer(vec: Vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector whose first
    nonzero entry is positive."""
    fracs = [Fraction(x) for x in vec]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]
    lead = next(c for c in ints if c != 0)
    if lead < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _column_eliminate(row: Sequence[int]) -> tuple[int, list[list[int]]]:
    """(r0, u) with u unimodular and row . u = (r0, 0, ..., 0), where
    |r0| is the gcd of the row, by extended-gcd column operations.
    Deterministic."""
    n = len(row)
    r = list(row)
    u = identity(n)  # columns of u are the generators
    for i in range(1, n):
        if r[i] == 0:
            continue
        if r[0] == 0:
            # swap columns 0 and i
            r[0], r[i] = r[i], r[0]
            for k in range(n):
                u[k][0], u[k][i] = u[k][i], u[k][0]
            continue
        g = math.gcd(r[0], r[i])
        s, t = _extgcd(r[0], r[i])
        a, b = r[0] // g, r[i] // g
        for k in range(n):
            c0, ci = u[k][0], u[k][i]
            u[k][0] = s * c0 + t * ci
            u[k][i] = -b * c0 + a * ci
        r[0], r[i] = g, 0
    return r[0], u


def int_row_kernel(row: Sequence[int]) -> list[list[int]]:
    """Basis of the lattice {x in Z^n : row . x = 0} for an integer row.

    Column-eliminates the row by unimodular operations; the columns that map
    to zero form the kernel basis.  Deterministic.
    """
    n = len(row)
    _, u = _column_eliminate(row)
    return [[u[k][j] for k in range(n)] for j in range(1, n)]


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


def unimodular_with_first_row(c: Sequence[int]) -> list[list[int]]:
    """Integer matrix with determinant +-1 whose first row is the primitive
    vector c."""
    r0, u = _column_eliminate(c)
    if abs(r0) != 1:
        raise ValueError("vector is not primitive")
    out = inverse(u)
    if out[0] != list(c):
        # c . u = (-1, 0, ..., 0): flipping the first column of u negates
        # the first row of its inverse
        out[0] = [-x for x in out[0]]
    assert out[0] == list(c)
    return out
