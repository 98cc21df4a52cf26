"""Monodromy generators of a hypergeometric pair.

For monic coprime f, g of equal degree n with f(0) = -1 and g(0) = 1
(orthogonal normalization), the group is generated by the companion
matrices A of f and B of g acting on Q[x]/(f) in the power basis.
C = A^-1 B is a reflection: C^2 = 1, det C = -1, and C - 1 has rank one
with image spanned by the vector v determined by A v = g - f.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .polynomials import IntPoly, gcd

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"


class PairValidationError(ValueError):
    """A hypothesis on the input pair (f, g) fails; message names it."""


@dataclass(frozen=True)
class PairType:
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
    cols = [[1 if i == j + 1 else 0 for i in range(n)] for j in range(n - 1)]
    cols.append([-f.coeff(i) for i in range(n)])
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


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


def imprimitivity_flag(f: IntPoly, g: IntPoly) -> int | None:
    """Smallest d > 1 with both f and g in Z[x^d], if any.

    A necessary condition only: absence of a flag does not prove the pair
    primitive, and reports must say so.
    """
    n = f.degree
    for d in range(2, n + 1):
        if n % d != 0:
            continue
        if all(c == 0 or k % d == 0 for k, c in enumerate(f.coeffs)) and \
           all(c == 0 or k % d == 0 for k, c in enumerate(g.coeffs)):
            return d
    return None


@dataclass(frozen=True)
class HyperPair:
    f: IntPoly
    g: IntPoly
    n: int
    A: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]
    C: tuple[tuple[int, ...], ...]
    v: tuple[int, ...]  # coefficients over 1, x, ..., x^{n-1}
    A_inv: tuple[tuple[int, ...], ...]
    # determinants, computed once for the structural checks
    det_A: int
    det_B: int
    det_C: int


def int_matrix(m) -> tuple[tuple[int, ...], ...]:
    """m as a tuple of int rows; raises if any entry is not integral."""
    out = []
    for row in m:
        r = []
        for x in row:
            if type(x) is not int:
                x = Fraction(x)
                if x.denominator != 1:
                    raise PairValidationError("expected an integral matrix")
                x = int(x)
            r.append(x)
        out.append(tuple(r))
    return tuple(out)


def build_pair(f: IntPoly, g: IntPoly) -> HyperPair:
    """Validate (f, g) and construct A, B, C, v, re-verifying every
    structural identity rather than trusting the formulas."""
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
    if gcd(f, g).degree != 0:
        raise PairValidationError("f and g must be coprime")

    a = companion(f)
    b = companion(g)
    a_inv = int_matrix(linalg.inverse(a))  # f(0) = -1, so A is unimodular
    c = int_matrix(linalg.mat_mul(a_inv, b))
    w = g - f  # degree <= n-1 since both monic of degree n
    wvec = [w.coeff(i) for i in range(n)]
    v = tuple(linalg.mat_vec(a_inv, wvec))

    # structural re-verification
    ident = linalg.identity(n)
    det_a, det_b, det_c = (int(linalg.det(m)) for m in (a, b, c))
    if abs(det_a) != 1 or abs(det_b) != 1:
        raise PairValidationError("companion matrices must be unimodular")
    if det_c != -1:
        raise PairValidationError("C must have determinant -1")
    if not linalg.mat_eq(linalg.mat_mul(c, c), ident):
        raise PairValidationError("C^2 must be the identity")
    cm1 = [[c[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    if linalg.rank(cm1) != 1:
        raise PairValidationError("C - 1 must have rank one")
    if list(linalg.mat_vec(a, v)) != wvec:
        raise PairValidationError("A v must equal g - f")
    # C - 1 kills 1, x, ..., x^{n-2} and sends x^{n-1} to -v
    for j in range(n - 1):
        if any(cm1[i][j] != 0 for i in range(n)):
            raise PairValidationError("C - 1 must vanish on x^j for j < n-1")
    if [cm1[i][n - 1] for i in range(n)] != [-x for x in v]:
        raise PairValidationError("(C - 1) x^{n-1} must equal -v")

    return HyperPair(f=f, g=g, n=n, A=a, B=b, C=c, v=v, A_inv=a_inv,
                     det_A=det_a, det_B=det_b, det_C=det_c)
