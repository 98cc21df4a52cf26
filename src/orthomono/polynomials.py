"""Dense integer polynomials with exact arithmetic.

Coefficients are arbitrary-precision ints stored in ascending degree order
with no trailing zeros; the zero polynomial is the empty tuple.  Everything
here is exact: there is no floating point in this module, and division is
only defined where it is exact.

>>> f = IntPoly([-1, 0, 0, 0, 0, 1])   # x^5 - 1
>>> f.degree
5
>>> cyclotomic(12)
IntPoly((1, 0, -1, 0, 1))
>>> divrem(IntPoly([0, 0, 0, 0, 0, 1]), f)[1]   # x^5 mod (x^5-1)
IntPoly((1,))
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from . import linalg

# Largest polynomial degree, and so pair dimension n, that parse_poly and
# pad_pair accept.  The slowest input measured under it, analyze of
# (x-1)^127, (x+1)^127, takes about 15 s (15.3 s for one in-process
# build_report on a 2-vCPU Intel Xeon VM, Python 3.11.7, load about
# 0.5), nearly all of it the congruence diagonal; the largest worked
# example has degree 29.
MAX_DEGREE = 128


def _frozen(self, name: str, *value) -> None:
    """__setattr__ and __delattr__ of an immutable class."""
    raise AttributeError(f"{type(self).__name__} is immutable: "
                         f"{name!r} cannot be set or deleted")


class IntPoly:
    """Immutable; equal, and hash-equal, to an IntPoly with the same
    coefficients and to nothing else."""
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]) -> None:
        # rejected, as in linalg.int_vector, where int() would truncate
        c = tuple(coeffs)
        if not all(type(a) is int for a in c):
            raise ValueError(f"expected int coefficients, got {c}")
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object) -> bool:
        if other.__class__ is IntPoly:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    @staticmethod
    def constant(a: int) -> "IntPoly":
        return IntPoly((a,))

    @staticmethod
    def monomial(degree: int, coeff: int = 1) -> "IntPoly":
        return IntPoly((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> int:
        """Coefficient of x^k (zero beyond the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPoly(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-a for a in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative power")
        # e-fold: the parser keeps e and e * degree within MAX_DEGREE
        out = IntPoly((1,))
        for _ in range(e):
            out = out * self
        return out

    def __call__(self, value: int) -> int:
        """Evaluate at an int, Horner style: at 0 the last step adds
        the constant coefficient to 0, and the zero polynomial is 0."""
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * value + a
        return acc

    def compose_monomial(self, d: int) -> "IntPoly":
        """Substitute x^d for the variable: p(x) -> p(x^d)."""
        if d < 1:
            raise ValueError("d must be >= 1")
        out = [0] * (self.degree * d + 1)
        for i, a in enumerate(self.coeffs):
            out[i * d] = a
        return IntPoly(tuple(out))


ONE = IntPoly((1,))


def divrem(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder of a by a monic divisor b; exact over Z.

    >>> divrem(IntPoly((0, 0, 1)), IntPoly((-1, 1)))   # x^2 by x-1
    (IntPoly((1, 1)), IntPoly((1,)))
    """
    if not b.is_monic:
        raise ValueError("divisor must be monic")
    quot, rem = _divrem_coeffs(a.coeffs, b.coeffs)
    return IntPoly(tuple(quot)), IntPoly(tuple(rem))


def _divrem_coeffs(a: Sequence[int], b: Sequence[int]
                   ) -> tuple[list[int], list[int]]:
    """divrem on ascending coefficient lists, b monic and nonzero: the
    quotient, and the remainder as deg b coefficients, neither trimmed.
    A dividend shorter than b makes an empty loop: the quotient is [],
    and the remainder the dividend, unpadded."""
    db = len(b) - 1
    rem = list(a)
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            quot[i - db] = c
            rem[i - db:i + 1] = [x - c * y
                                 for x, y in zip(rem[i - db:i + 1], b)]
    return quot, rem[:db]


def _times_x_mod(r: Sequence[int], f: Sequence[int]) -> list[int]:
    """x r mod monic f, on ascending coefficient lists with r of length
    deg f: shift up, then fold the top coefficient back through
    x^n = -(f_0 + ... + f_(n-1) x^(n-1))."""
    top = r[-1]
    return [-top * f[0]] + [a - top * b for a, b in zip(r, f[1:-1])]


def _over_x_mod(r: Sequence[int], f: Sequence[int]) -> list[int]:
    """r / x mod monic f with f(0) = -1, on ascending coefficient lists
    with r of length deg f: r + r_0 f has constant term 0, so the quotient
    is it shifted down one place."""
    return [a + r[0] * b for a, b in zip(list(r[1:]) + [0], f[1:])]


# the prime of the coprimality test: the Mersenne prime 2^61 - 1
GCD_PRIME = 2 ** 61 - 1


def _gcd_degree_mod(a: Sequence[int], b: Sequence[int], p: int) -> int:
    """Degree of gcd(a, b) over GF(p), by Euclid on ascending coefficient
    lists; -1 when both vanish mod p.  Each remainder step is one pass
    over the dividend, so the whole gcd is O(deg a * deg b)."""
    def trimmed(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return c
    a, b = trimmed(a), trimmed(b)
    while b:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            q = a[-1] * inv % p
            lo = len(a) - 1 - db
            a[lo:-1] = [(x - q * y) % p for x, y in zip(a[lo:-1], b)]
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def coprime(a: IntPoly, b: IntPoly) -> bool:
    """Whether monic a and b have no common factor over Q.

    A common factor over Q can be taken monic in Z[x] (Gauss), and it
    stays a common factor of degree >= 1 mod every prime, so a gcd of
    degree 0 over GF(GCD_PRIME) certifies coprimality.  Only a larger gcd
    mod the prime, which a prime dividing the resultant also gives, takes
    the exact test: the determinant of multiplication by b on Q[x]/(a),
    whose rows are x^j b mod a, is the resultant up to sign."""
    if not a.is_monic or not b.is_monic:
        raise ValueError("coprime expects monic polynomials")
    if _gcd_degree_mod(a.coeffs, b.coeffs, GCD_PRIME) == 0:
        return True
    n = a.degree
    row = _divrem_coeffs(b.coeffs, a.coeffs)[1]
    rows = [(row + [0] * n)[:n]]
    for _ in range(n - 1):
        rows.append(_times_x_mod(rows[-1], a.coeffs))
    return linalg.det(rows) != 0


def exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b where the division is exact over Z; b need not be monic.

    Write b = c b' with b' primitive and lead(b') > 0.  b divides a over
    Q iff b' does, and then a / b' is in Z[x] (Gauss's lemma), so the
    test is a long division by b' in ints in which every step divides
    exactly by lead(b') and the remainder is 0.  a / b is then integral
    iff c divides every coefficient of a / b'.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    c = math.gcd(*b.coeffs) * (1 if b.leading > 0 else -1)
    prim = [x // c for x in b.coeffs]
    db, lead = len(prim) - 1, prim[-1]
    rem = list(a.coeffs)
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        q, r = divmod(rem[i], lead)
        if r:
            raise ValueError("inexact polynomial division")
        if q:
            quot[i - db] = q
            rem[i - db:i + 1] = [x - q * y
                                 for x, y in zip(rem[i - db:i + 1], prim)]
    if any(rem[:db]):  # a nonzero a of degree below b's ends here too
        raise ValueError("inexact polynomial division")
    if any(q % c for q in quot):
        raise ValueError("non-integer coefficient in quotient")
    return IntPoly(tuple(q // c for q in quot))


@lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    n, result, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """d-th cyclotomic polynomial, by dividing x^d - 1 by the proper
    cyclotomic factors.  Exact integer arithmetic throughout.

    >>> cyclotomic(1), cyclotomic(2), cyclotomic(6)
    (IntPoly((-1, 1)), IntPoly((1, 1)), IntPoly((1, -1, 1)))
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    num = IntPoly.monomial(d) - ONE
    for e in range(1, d):
        if d % e == 0:
            q, r = divrem(num, cyclotomic(e))
            assert r.is_zero
            num = q
    return num


@lru_cache(maxsize=None)
def _cyclotomic_at_two(d: int) -> int:
    """Phi_d(2), kept per d as cyclotomic(d) is."""
    return cyclotomic(d)(2)


class CycloFactorization(NamedTuple):
    """Multiset of cyclotomic factors (d, multiplicity), d ascending, plus
    whatever monic remainder did not factor."""
    factors: tuple[tuple[int, int], ...]
    remainder: IntPoly

    @property
    def remainder_is_one(self) -> bool:
        return self.remainder == ONE

    @property
    def degree(self) -> int:
        return sum(euler_phi(d) * m for d, m in self.factors) + max(self.remainder.degree, 0)


def cyclo_factor(f: IntPoly) -> CycloFactorization:
    """Factor a monic integer polynomial into cyclotomics by trial division.

    Tries every d with phi(d) <= deg f (a finite set since phi(d) >= sqrt(d/2)),
    dividing out each factor to full multiplicity.  remainder_is_one tells
    whether f was a product of cyclotomics.  A trial division is made only
    when Phi_d(2) divides rem(2), which is carried through each division:
    Phi_d is monic, so Phi_d | rem in Z[x] forces it, and skipping the
    others changes no factorization.  phi(d) and Phi_d(2) are read from
    per-d caches, and Phi_d is built only for a d whose phi(d) is at
    most the degree left.
    """
    if not f.is_monic:
        raise ValueError("cyclo_factor expects a monic polynomial")
    rem = list(f.coeffs)
    at_two = f(2)
    found: list[tuple[int, int]] = []
    limit = 2 * max(f.degree, 1) ** 2 + 1
    for d in range(1, limit + 1):
        if len(rem) < 2:
            break
        if euler_phi(d) > len(rem) - 1:
            continue
        phi_two = _cyclotomic_at_two(d)
        mult = 0
        while at_two % phi_two == 0:
            q, r = _divrem_coeffs(rem, cyclotomic(d).coeffs)
            if any(r):
                break
            rem = q
            at_two //= phi_two
            mult += 1
        if mult:
            found.append((d, mult))
    return CycloFactorization(tuple(found), IntPoly(tuple(rem)))


def root_arguments(fac: CycloFactorization, den: int) -> list[int]:
    """Numerators over den of the arguments a/d of the roots
    e^(2 pi i a/d), ascending with multiplicity.  Requires a complete
    cyclotomic factorization, and den a positive multiple of every d.

    >>> root_arguments(cyclo_factor(IntPoly((1, 0, 1))), 4)   # x^2 + 1
    [1, 3]
    """
    if not fac.remainder_is_one:
        raise ValueError("root parameters need a full cyclotomic factorization")
    if den < 1 or any(den % d for d, _ in fac.factors):
        raise ValueError(f"denominator {den} is not a positive multiple "
                         f"of every factor's order")
    values: list[int] = []
    for d, mult in fac.factors:
        step = den // d
        for a in range(d):
            if math.gcd(a, d) == 1:
                values += [a * step] * mult
    values.sort()
    return values


def render(p: IntPoly, var: str = "x") -> str:
    """Canonical text form, parseable by parse_poly: descending powers inside
    parentheses, coefficient juxtaposition, e.g. "(x^5-x^4+2x^3-2x^2+x-1)".
    """
    if p.is_zero:
        return "(0)"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        a = p.coeff(k)
        if a == 0:
            continue
        sign = "-" if a < 0 else ("+" if parts else "")
        mag = abs(a)
        if k == 0:
            body = str(mag)
        else:
            xs = var if k == 1 else f"{var}^{k}"
            body = xs if mag == 1 else f"{mag}{xs}"
        parts.append(sign + body)
    return "(" + "".join(parts) + ")"
