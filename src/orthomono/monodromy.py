"""Monodromy generators of a hypergeometric pair.

For monic coprime f, g of equal degree n with f(0) = -1 and g(0) = 1
(orthogonal normalization), the group is generated by the companion
matrices A of f and B of g acting on Q[x]/(f) in the power basis.
C = A^-1 B is a reflection: C^2 = 1, det C = -1, and C - 1 has rank one
with image spanned by the vector v determined by A v = g - f, so
C = 1 - v e_(n-1)^T (Beukers-Heckman, Invent. Math. 1989).  The pair is
built from that structure in O(n^2), with no elimination and no dense
matrix product, and every identity is re-checked in O(n^2).
"""
from __future__ import annotations

from typing import NamedTuple

from . import linalg, polynomials
from .polynomials import IntPoly

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"


class PairValidationError(ValueError):
    """A hypothesis on the input pair (f, g) fails; message names it."""


class PairType(NamedTuple):
    kind: str  # ORTHOGONAL or SYMPLECTIC
    ratio: int  # f(0)/g(0)


def companion(f: IntPoly) -> tuple[tuple[int, ...], ...]:
    """Matrix of multiplication by x on Q[x]/(f), power basis 1,x,...,x^{n-1}.

    >>> companion(IntPoly((-1, 0, 0, 0, 0, 1)))[0]
    (0, 0, 0, 0, 1)
    """
    if not f.is_monic:
        raise PairValidationError("companion matrix requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise PairValidationError("companion matrix requires degree >= 1")
    # row i: 1 in column i - 1 (x^(i-1) -> x^i), and -f_i in the last
    # column (x^(n-1) -> x^n = -(f_0 + ... + f_(n-1) x^(n-1)))
    rows = []
    for i in range(n):
        row = [0] * n
        if i:
            row[i - 1] = 1
        row[-1] -= f.coeffs[i]
        rows.append(tuple(row))
    return tuple(rows)


def classify_type(f: IntPoly, g: IntPoly) -> PairType:
    """Orthogonal/symplectic dichotomy from the constant-term ratio."""
    if f(0) not in (1, -1) or g(0) not in (1, -1):
        raise PairValidationError("constant terms must be +1 or -1")
    if f.degree != g.degree:
        raise PairValidationError("f and g must have equal degree")
    ratio = f(0) * g(0)  # equals f(0)/g(0) since g(0) is a unit
    if ratio == -1:
        return PairType(ORTHOGONAL, -1)
    if f.degree % 2 != 0:
        raise PairValidationError(
            "constant-term ratio +1 forces even degree; "
            "pair is inconsistent")
    return PairType(SYMPLECTIC, 1)


def scalar_shift(f: IntPoly) -> IntPoly:
    """(-1)^{deg f} * f(-x); monic in, monic out, involutive.

    >>> scalar_shift(IntPoly((-1, 1)))
    IntPoly((1, 1))
    """
    if not f.is_monic:
        raise PairValidationError("scalar shift requires a monic polynomial")
    n = f.degree
    return IntPoly(tuple(c if (n - k) % 2 == 0 else -c
                         for k, c in enumerate(f.coeffs)))


class HyperPair(NamedTuple):
    f: IntPoly
    g: IntPoly
    n: int
    A: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]
    C: tuple[tuple[int, ...], ...]
    v: tuple[int, ...]  # coefficients over 1, x, ..., x^{n-1}
    A_inv: tuple[tuple[int, ...], ...]
    # columns v, Av, ..., A^{n-1}v: the cyclic basis in standard coordinates
    S: tuple[tuple[int, ...], ...]
    # determinants, computed once for the structural checks
    det_A: int
    det_B: int
    det_C: int


def int_matrix(m) -> tuple[tuple[int, ...], ...]:
    """m as a tuple of int rows; a TypeError on any other entry."""
    return tuple(map(tuple, linalg.int_rows(m)))


def _companion_det(m) -> int:
    """Determinant of a companion matrix: row 0 has one nonzero entry,
    -p(0) in the last column, and deleting that row and column leaves the
    identity, so the expansion along row 0 is (-1)^(n-1) m[0][n-1], that
    is (-1)^n p(0)."""
    return (-1) ** (len(m) - 1) * m[0][-1]


def _inverse_companion(f: IntPoly) -> tuple[tuple[int, ...], ...]:
    """Matrix of multiplication by x^-1 on Q[x]/(f) for f(0) = -1: as
    f = -1 + x (f_1 + f_2 x + ... + x^(n-1)), x^-1 = f_1 + ... + x^(n-1)
    mod f, so column 0 is (f_1, ..., f_n) and column j >= 1 is e_(j-1)."""
    n = f.degree
    rows = []
    for i in range(n):
        row = [0] * n
        row[0] = f.coeffs[i + 1]
        if i < n - 1:
            row[i + 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def _reflection(v: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """C = 1 - v e_(n-1)^T."""
    n = len(v)
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        row[-1] -= v[i]
        rows.append(tuple(row))
    return tuple(rows)


def build_pair(f: IntPoly, g: IntPoly) -> HyperPair:
    """Validate (f, g) and construct A, B, C, v and S, re-verifying every
    structural identity rather than trusting the formulas.

    Nothing here is eliminated or multiplied densely: A^-1 and C are read
    off f and v, the columns of S are v times powers of x mod f, the
    determinants are read off the companion matrices, and coprimality is
    one gcd over a prime field (polynomials.coprime).  The products
    A A^-1 = 1 and A C = B are re-checked through A's at most two nonzero
    entries per row (linalg.sparse_mul), so the whole build is O(n^2)."""
    if not f.is_monic or not g.is_monic:
        raise PairValidationError("f and g must be monic")
    if f.degree != g.degree:
        raise PairValidationError("f and g must have equal degree")
    n = f.degree
    if n < 1:
        raise PairValidationError("degree must be at least 1")
    if f(0) != -1 or g(0) != 1:
        hint = ""
        if f(0) == 1 and g(0) == -1:
            hint = (" (swapping f and g, or for odd degree the scalar shift "
                    "x -> -x of both, would normalize the pair)")
        raise PairValidationError(
            f"need f(0) = -1 and g(0) = 1, got f(0) = {f(0)}, "
            f"g(0) = {g(0)}{hint}")

    a = companion(f)
    b = companion(g)
    a_inv = _inverse_companion(f)
    w = g - f  # degree <= n-1 since both monic of degree n
    wvec = [w.coeff(i) for i in range(n)]
    # v = A^-1 (g - f) = x^-1 (g - f) mod f
    v = tuple(polynomials._over_x_mod(wvec, f.coeffs))
    c = _reflection(v)
    # v = x^-1 (g - f) mod f is a cyclic vector of A iff it is a unit mod
    # f, iff gcd(f, g) = 1, as x is a unit when f(0) = -1: det S != 0 is
    # exactly coprimality, which polynomials.coprime decides from f and g
    if not polynomials.coprime(f, g):
        raise PairValidationError("f and g must be coprime")
    # the columns of S: x^k v mod f, each from the last in O(n)
    cols = [v]
    for _ in range(n - 1):
        cols.append(polynomials._times_x_mod(cols[-1], f.coeffs))
    s = tuple(zip(*cols))

    # structural re-verification.  C - 1 kills 1, x, ..., x^{n-2} and
    # sends x^{n-1} to -v; given that, C = 1 - v e_{n-1}^T, so det C is
    # its corner entry, C^2 = 1 iff C fixes C e_{n-1}, and C - 1 has
    # rank one iff v != 0
    ident = linalg.identity(n)
    if any(list(row[:-1]) != e[:-1] for row, e in zip(c, ident)):
        raise PairValidationError("C - 1 must vanish on x^j for j < n-1")
    last = [row[-1] for row in c]
    e_last = ident[-1]
    if [x - y for x, y in zip(last, e_last)] != [-x for x in v]:
        raise PairValidationError("(C - 1) x^{n-1} must equal -v")
    if linalg.sparse_mul(a, a_inv) != ident:
        raise PairValidationError("A^-1 must invert A")
    if linalg.sparse_mul(a, c) != list(map(list, b)):
        raise PairValidationError("A C must equal B")
    det_a, det_b, det_c = _companion_det(a), _companion_det(b), c[n - 1][n - 1]
    if abs(det_a) != 1 or abs(det_b) != 1:
        raise PairValidationError("companion matrices must be unimodular")
    if det_c != -1:
        raise PairValidationError("C must have determinant -1")
    if linalg.mat_vec(c, last) != e_last:
        raise PairValidationError("C^2 must be the identity")
    if not any(v):
        raise PairValidationError("C - 1 must have rank one")
    if linalg.mat_vec(a, v) != wvec:
        raise PairValidationError("A v must equal g - f")

    return HyperPair(f=f, g=g, n=n, A=a, B=b, C=c, v=v, A_inv=a_inv, S=s,
                     det_A=det_a, det_B=det_b, det_C=det_c)
