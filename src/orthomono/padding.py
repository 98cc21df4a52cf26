"""Degree padding that preserves the rank-two part of the form.

A degree-5 pair (f0, g0) is padded to degree n = d*m + 5 by
f = f0 * P(x^d), g = g0 * Q(x^d) with P, Q monic coprime of degree m and
P(0) = Q(0) = 1.  Two mechanical checks certify that the base quadratic
space embeds isometrically: the low remainder top-coefficients are
unchanged, and the 5x5 Gram of v, Av, ..., A^4 v matches the base Gram.
Base isotropic witnesses therefore lift, so the padded pair inherits the
rank lower bound.
"""
from __future__ import annotations

from typing import NamedTuple

from . import linalg, polynomials
from .monodromy import HyperPair, PairValidationError, build_pair
from .polynomials import MAX_DEGREE, IntPoly, divrem
from .quadform import cyclic_gram_row, _toeplitz

DEFAULT_EXPONENT = 6


class PaddedPair(NamedTuple):
    """Plain container; construct through pad_pair for validation.

    pair is the validated HyperPair of the composed (f, g).
    """
    f0: IntPoly
    g0: IntPoly
    P: IntPoly
    Q: IntPoly
    d: int
    f: IntPoly
    g: IntPoly
    pair: HyperPair

    @property
    def m(self) -> int:
        return self.P.degree


def pad_pair(f0: IntPoly, g0: IntPoly, P: IntPoly, Q: IntPoly,
             d: int = DEFAULT_EXPONENT) -> PaddedPair:
    """Compose and validate a padded pair; every hypothesis failure is
    reported by name rather than propagating as a downstream surprise.
    build_pair checks that the composed f and g are coprime, which
    coprime P and Q do not ensure (Q(x^d) may share a factor with f0)."""
    if f0.degree != 5 or g0.degree != 5:
        raise PairValidationError("base pair must have degree 5")
    if f0(0) != -1 or g0(0) != 1:
        raise PairValidationError("base pair must have f0(0) = -1, g0(0) = 1")
    if not P.is_monic or not Q.is_monic:
        raise PairValidationError("P and Q must be monic")
    if P.degree != Q.degree:
        raise PairValidationError("P and Q must have equal degree")
    if P(0) != 1 or Q(0) != 1:
        raise PairValidationError("P and Q must have constant term 1")
    if not polynomials.coprime(P, Q):
        raise PairValidationError("P and Q must be coprime")
    if d < 1:
        raise PairValidationError("composition exponent must be >= 1")
    if d * P.degree + 5 > MAX_DEGREE:
        raise PairValidationError(
            f"padded degree d*m + 5 = {d * P.degree + 5} is above the "
            f"degree limit {MAX_DEGREE}")
    f = f0 * P.compose_monomial(d)
    g = g0 * Q.compose_monomial(d)
    # build_pair runs the full structural validation of the composed pair
    return PaddedPair(f0=f0, g0=g0, P=P, Q=Q, d=d, f=f, g=g,
                      pair=build_pair(f, g))


def remainder_coeff_check(pp: PaddedPair) -> bool:
    """Top remainder coefficients are padding-invariant: for k = 0..3 the
    x^{n-1} coefficient of rem(x^k (f - g), f) equals the x^4 coefficient
    of rem(x^k (f0 - g0), f0).  That coefficient is -t_(k+1) of the
    cyclic Gram row t_j = v . A^j v, so the check covers t_1 .. t_4, the
    rest of the 5x5 block; t_0 = v . v = 2 for every orthogonal pair, as
    invariant_space certifies."""
    n = pp.f.degree
    diff, diff0 = pp.f - pp.g, pp.f0 - pp.g0
    for k in range(4):
        xk = IntPoly.monomial(k)
        top = divrem(xk * diff, pp.f)[1].coeff(n - 1)
        top0 = divrem(xk * diff0, pp.f0)[1].coeff(4)
        if top != top0:
            return False
    return True


def isometry_check(pp: PaddedPair) -> bool:
    """The embedding is an isometry onto its image: the 5x5 Gram of
    v, Av, ..., A^4 v under the padded form equals the base Gram, and the
    common Gram is nondegenerate.

    Works directly from gram rows without pair validation, so harnesses
    can feed deliberately broken Q as a negative control.
    """
    base_row = cyclic_gram_row(pp.f0, pp.g0, 5)
    padded_row = cyclic_gram_row(pp.f, pp.g, 5)
    if base_row != padded_row:
        return False
    return linalg.det(_toeplitz(base_row, 5)) != 0


def embed_vector(pp: PaddedPair, w: tuple[int, ...]) -> tuple[int, ...]:
    """Lift base cyclic coordinates (length 5) through the embedding,
    which sends A0^k v0 to A^k v, the k-th cyclic basis vector: w padded
    with zeros to length n."""
    if len(w) != 5:
        raise ValueError("base witness must have 5 coordinates")
    return tuple(w) + (0,) * (pp.f.degree - 5)
