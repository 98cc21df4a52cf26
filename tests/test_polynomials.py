"""Integer polynomial layer: arithmetic against independent oracles,
cyclotomic machinery, and the canonical text form."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orthomono import polynomials
from orthomono.parsing import parse_poly
from orthomono.polynomials import (ONE, CycloFactorization, IntPoly,
                                   cyclo_factor, cyclotomic, divrem,
                                   euler_phi, exact_div, render,
                                   root_arguments)

from conftest import gcd

coeff_lists = st.lists(st.integers(-9, 9), max_size=8)


def poly(*ascending: int) -> IntPoly:
    return IntPoly(tuple(ascending))


X = poly(0, 1)


# ------------------------------------------------------------- construction

def test_trailing_zeros_trimmed():
    assert poly(1, 2, 0, 0).coeffs == (1, 2)
    assert poly(0, 0).coeffs == ()


# int() once truncated a coefficient, so (3/2, 1.9, 1) became 1 + x + x^2

@pytest.mark.parametrize("coeffs", [(Fraction(3, 2), 1.9, 1), (1.0, 1),
                                    (Fraction(2), 1), (True, 1)],
                         ids=["fraction-and-float", "integral-float",
                              "integral-fraction", "bool"])
def test_non_int_coefficients_are_rejected(coeffs):
    with pytest.raises(ValueError, match="int coefficients"):
        IntPoly(coeffs)


def test_equal_hash_equal_and_immutable():
    # equality and hash by the trimmed coefficients, and only between
    # IntPolys: a bare tuple of the same coefficients is not one
    a, b = IntPoly((1, 2, 0)), IntPoly([1, 2])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != IntPoly((1, 2, 3)) and a != (1, 2) and (1, 2) != a
    with pytest.raises(AttributeError):
        a.coeffs = (5,)
    with pytest.raises(AttributeError):
        del a.coeffs
    with pytest.raises(AttributeError):
        a.degree_cache = 2
    assert a.coeffs == (1, 2)


def test_degree_and_leading():
    assert poly(-1, 0, 1).degree == 2
    assert poly().degree == -1
    assert poly(3, 4).leading == 4
    with pytest.raises(ValueError):
        _ = poly().leading


def test_monic_and_coeff():
    assert poly(-1, 0, 1).is_monic
    assert not poly(1, 2).is_monic
    assert not poly().is_monic
    p = poly(5, 0, 7)
    assert (p.coeff(0), p.coeff(1), p.coeff(2), p.coeff(99)) == (5, 0, 7, 0)


def test_constant_and_monomial():
    assert IntPoly.constant(-3).coeffs == (-3,)
    assert IntPoly.monomial(3).coeffs == (0, 0, 0, 1)
    assert IntPoly.monomial(2, -4).coeffs == (0, 0, -4)


def test_repr_round_trips_through_eval():
    p = poly(-1, 0, 2)
    assert eval(repr(p)) == p  # noqa: S307 - controlled input


def test_evaluation():
    p = poly(-1, 0, 0, 0, 0, 1)  # x^5 - 1
    assert p(1) == 0
    assert p(2) == 31
    # Horner at 0 ends on the constant coefficient
    for q in (p, poly(7, 3), poly(0, 0, 4), poly()):
        assert q(0) == q.coeff(0)
    assert p(Fraction(1, 2)) == Fraction(-31, 32)


def test_compose_monomial():
    p = poly(1, 1, 1)  # 1 + y + y^2
    assert p.compose_monomial(6).coeffs == (1,) + (0,) * 5 + (1,) + (0,) * 5 + (1,)
    assert p.compose_monomial(1) == p
    assert poly().compose_monomial(3) == poly()
    with pytest.raises(ValueError):
        p.compose_monomial(0)


# --------------------------------------------------------------- arithmetic

def convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # independent multiplication oracle
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@given(coeff_lists, coeff_lists)
@example([], [1, 2])
@example([3], [])
@example([], [])
def test_mul_matches_convolution(a, b):
    p, q = IntPoly(tuple(a)), IntPoly(tuple(b))
    assert (p * q).coeffs == IntPoly(convolve(p.coeffs, q.coeffs)).coeffs


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_laws(a, b, c):
    p, q, r = IntPoly(tuple(a)), IntPoly(tuple(b)), IntPoly(tuple(c))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p - p == IntPoly(())


def test_pow():
    assert (X + ONE) ** 2 == poly(1, 2, 1)
    assert poly(2) ** 5 == poly(32)
    assert poly(1, 1) ** 0 == ONE
    for p in (poly(-1, 1), poly(1, 2, 1), poly(3), poly()):
        product = ONE
        for e in range(7):
            assert p ** e == product
            product = product * p
    with pytest.raises(ValueError):
        _ = X ** -1


@given(coeff_lists, st.lists(st.integers(-9, 9), min_size=0, max_size=5))
def test_divrem_identity(a, b_low):
    b = IntPoly(tuple(b_low) + (1,))  # force monic
    p = IntPoly(tuple(a))
    q, r = divrem(p, b)
    assert q * b + r == p
    assert r.degree < b.degree


def test_divrem_requires_monic():
    with pytest.raises(ValueError):
        divrem(X, poly(1, 2))


def test_divrem_of_a_shorter_dividend():
    # no quotient, and the dividend itself, unpadded, as the remainder
    assert polynomials._divrem_coeffs([5, 7], [1, 0, 0, 1]) == ([], [5, 7])
    assert polynomials._divrem_coeffs([], [2, 1]) == ([], [])
    assert divrem(poly(5, 7), poly(1, 0, 0, 1)) == (poly(), poly(5, 7))


@given(coeff_lists, coeff_lists)
def test_exact_div_inverts_mul(a, b):
    p, q = IntPoly(tuple(a)), IntPoly(tuple(b))
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            exact_div(p * q, q)
    else:
        assert exact_div(p * q, q) == p


def test_exact_div_rejects_inexact():
    with pytest.raises(ValueError):
        exact_div(poly(1, 0, 1), poly(1, 1))  # (x^2+1) / (x+1)
    with pytest.raises(ValueError):
        exact_div(poly(0, 1), poly(0, 2))  # x / 2x is not integral


def ref_exact_div(a, b):
    """The division as it was: long division over Q in Fraction, then the
    remainder checked before the quotient's integrality."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return a
    ra = [Fraction(c) for c in a.coeffs]
    db, lead = b.degree, b.leading
    if a.degree < db:
        raise ValueError("inexact polynomial division")
    quot = [Fraction(0)] * (len(ra) - db)
    for i in range(len(ra) - 1, db - 1, -1):
        q = ra[i] / lead
        quot[i - db] = q
        for j, bj in enumerate(b.coeffs):
            ra[i - db + j] -= q * bj
    if any(ra):
        raise ValueError("inexact polynomial division")
    if any(q.denominator != 1 for q in quot):
        raise ValueError("non-integer coefficient in quotient")
    return IntPoly(tuple(int(q) for q in quot))


def _division_outcome(fn, a, b):
    try:
        return fn(a, b)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=500)
@given(coeff_lists, st.lists(st.integers(-9, 9), max_size=4),
       st.integers(1, 6), st.integers(-6, 6), st.lists(st.integers(-3, 3),
                                                       max_size=4),
       st.integers(0, 4))
def test_exact_div_matches_the_fraction_division(p, b_low, lead, c, r, kind):
    # b = c b1 with lead(b1) = lead: b is non-monic, non-primitive or of
    # negative leading coefficient on most draws, and zero when c = 0.
    # a is p b1 (exact over Q, and non-integral unless c divides p b1),
    # p b, either plus r (inexact on most draws, and the first also
    # non-integral), or p alone
    b1 = IntPoly(tuple(b_low) + (lead,))
    b = b1 * IntPoly.constant(c)
    a = IntPoly(tuple(p)) * (b if kind % 2 else b1) if kind < 4 \
        else IntPoly(tuple(p))
    if kind in (2, 3):
        a = a + IntPoly(tuple(r))
    assert _division_outcome(exact_div, a, b) == \
        _division_outcome(ref_exact_div, a, b)


def test_exact_div_messages_and_their_precedence():
    # (x^2 + 1) / (2x + 2) over Q is x/2 - 1/2 remainder 2: inexact and
    # non-integral, and inexactness is reported
    for a, b in ((poly(1, 0, 1), poly(2, 2)), (poly(1, 0, 1), poly(-2, -2)),
                 (poly(3, 0, 2), poly(1, 2)), (poly(1), poly(1, 1))):
        with pytest.raises(ValueError, match="^inexact polynomial"):
            exact_div(a, b)
    # (x^2 - 1) / (2x + 2) = (x - 1) / 2: exact over Q, not over Z
    for a, b in ((poly(-1, 0, 1), poly(2, 2)), (poly(1, 2), poly(2))):
        with pytest.raises(ValueError, match="^non-integer coefficient"):
            exact_div(a, b)
    # a negative or non-unit leading coefficient divides where exact
    assert exact_div(poly(-1, 0, 1), poly(-1, -1)) == poly(1, -1)
    assert exact_div(poly(-2, 0, 2), poly(-2, -2)) == poly(1, -1)
    assert exact_div(poly(3, 5, 2), poly(3, 2)) == poly(1, 1)
    assert exact_div(poly(4, 6), poly(-2)) == poly(-2, -3)
    # a zero dividend divides to zero, whatever b's content and sign
    for b in (poly(1), poly(3, 2), poly(-4, 0, -6)):
        assert exact_div(poly(), b) == poly()


def test_gcd_contract():
    p = poly(-1, 1) * poly(1, 1)
    q = poly(-1, 1) * poly(2, 1)
    d = gcd(p, q)
    assert d == poly(-1, 1)
    assert gcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)
    assert gcd(poly(-1, 1), poly(1, 1)).degree == 0
    assert gcd(IntPoly(()), poly(1, 1)) == poly(1, 1)
    # primitive, positive leading even for non-monic input
    assert gcd(poly(0, 2), poly(0, 0, 2)) == poly(0, 1)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_gcd_divides_both_and_sees_common_factor(a, b, c):
    p, q, h = IntPoly(tuple(a)), IntPoly(tuple(b)), IntPoly(tuple(c))
    d = gcd(p * h, q * h)
    if d.is_zero:
        assert (p * h).is_zero and (q * h).is_zero
        return
    # d is primitive, so by the Gauss lemma both quotients are integral
    assert exact_div(p * h, d) * d == p * h
    assert exact_div(q * h, d) * d == q * h
    if not h.is_zero:
        assert d.degree >= h.degree  # h divides both, so gcd is at least h


# -------------------------------------------------------------- cyclotomics

def test_cyclotomic_small_values():
    assert cyclotomic(1) == poly(-1, 1)
    assert cyclotomic(2) == poly(1, 1)
    assert cyclotomic(4) == poly(1, 0, 1)
    assert cyclotomic(6) == poly(1, -1, 1)
    assert cyclotomic(12) == poly(1, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_prime():
    for p in (2, 3, 5, 7, 11, 13):
        assert cyclotomic(p).coeffs == (1,) * p


def test_cyclotomic_divisor_product():
    # Prod over d | n of Phi_d equals x^n - 1
    for n in range(1, 61):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly.monomial(n) - ONE, n


def test_cyclotomic_constant_terms():
    # only Phi_1 has constant term -1; this carries the f(0) = -1 parity rule
    assert cyclotomic(1)(0) == -1
    for d in range(2, 40):
        assert cyclotomic(d)(0) == 1, d


def test_euler_phi_against_gcd_count():
    import math
    for d in range(1, 101):
        assert euler_phi(d) == sum(1 for a in range(1, d + 1)
                                   if math.gcd(a, d) == 1)
    assert cyclotomic(105).degree == euler_phi(105)


# ------------------------------------------------------------- factorization

def test_cyclo_factor_full():
    f = IntPoly.monomial(12) - ONE
    fac = cyclo_factor(f)
    assert fac.factors == ((1, 1), (2, 1), (3, 1), (4, 1), (6, 1), (12, 1))
    assert fac.remainder_is_one
    assert fac.degree == 12


def test_cyclo_factor_multiplicity():
    fac = cyclo_factor(cyclotomic(4) ** 2 * cyclotomic(1))
    assert fac.factors == ((1, 1), (4, 2))
    assert fac.remainder_is_one


def test_cyclo_factor_partial():
    f = poly(-2, 0, 1) * cyclotomic(5)  # (x^2 - 2) * Phi_5
    fac = cyclo_factor(f)
    assert fac.factors == ((5, 1),)
    assert fac.remainder == poly(-2, 0, 1)
    assert not fac.remainder_is_one


def test_cyclo_factor_requires_monic():
    with pytest.raises(ValueError):
        cyclo_factor(poly(1, 2))


# --------------------------- references for the coefficient-list routes

def ref_divrem(a, b):
    """divrem on IntPoly one quotient term at a time: the reference for
    the coefficient-list division that divrem and cyclo_factor share."""
    if not b.is_monic:
        raise ValueError("divisor must be monic")
    quot, rem = IntPoly(()), a
    while rem.degree >= b.degree:
        term = IntPoly.monomial(rem.degree - b.degree, rem.leading)
        quot, rem = quot + term, rem - term * b
    return quot, rem


def ref_cyclo_factor(f):
    """Trial division of IntPoly values by every cyclotomic of degree at
    most the remaining degree, each to its full multiplicity."""
    rem, found = f, []
    for d in range(1, 2 * max(f.degree, 1) ** 2 + 2):
        if rem.degree < 1:
            break
        if euler_phi(d) > rem.degree:
            continue
        mult = 0
        while True:
            q, r = ref_divrem(rem, cyclotomic(d))
            if not r.is_zero:
                break
            rem, mult = q, mult + 1
        if mult:
            found.append((d, mult))
    return CycloFactorization(tuple(found), rem)


SMALL_CYCLOTOMICS = [d for d in range(1, 61) if euler_phi(d) <= 8]


def cyclotomic_products(seed, count):
    """Seeded products of cyclotomics, with multiplicities, half of them
    times a random monic cofactor that may or may not factor further."""
    rng = random.Random(seed)
    for k in range(count):
        f = ONE
        for _ in range(rng.randint(0, 3)):
            f = f * cyclotomic(rng.choice(SMALL_CYCLOTOMICS)) \
                ** rng.randint(1, 2)
        if k % 2:
            f = f * IntPoly(tuple(rng.randint(-3, 3)
                                  for _ in range(rng.randint(1, 4))) + (1,))
        yield f


@settings(max_examples=300)
@given(st.lists(st.integers(-10**6, 10**6), max_size=12),
       st.lists(st.integers(-9, 9), max_size=6))
def test_divrem_matches_the_reference(a, b_low):
    p, b = IntPoly(tuple(a)), IntPoly(tuple(b_low) + (1,))
    assert divrem(p, b) == ref_divrem(p, b)


def test_divrem_by_cyclotomics_matches_the_reference():
    for f in cyclotomic_products(20261018, 200):
        for d in (1, 2, 3, 5, 12, 15):
            assert divrem(f, cyclotomic(d)) == ref_divrem(f, cyclotomic(d))


def test_cyclo_factor_matches_the_reference():
    full = 0
    for f in cyclotomic_products(20261019, 200):
        fac = cyclo_factor(f)
        assert fac == ref_cyclo_factor(f), f
        assert all(type(c) is int for c in fac.remainder.coeffs)
        full += fac.remainder_is_one
    assert 100 <= full < 200  # both outcomes are exercised


def test_cyclo_factor_divides_only_where_the_value_at_2_allows(monkeypatch):
    # Phi_d | rem forces Phi_d(2) | rem(2), so a trial division is made
    # only then, and the factorization is the reference's; a factor x - 2
    # makes rem(2) = 0, which lets every division through
    made, unskipped = [], []
    original, original_ref = polynomials._divrem_coeffs, ref_divrem

    def counted(a, b):
        made.append((IntPoly(tuple(a)), IntPoly(tuple(b))))
        return original(a, b)

    def counted_ref(a, b):
        unskipped.append(b)
        return original_ref(a, b)
    monkeypatch.setattr(polynomials, "_divrem_coeffs", counted)
    monkeypatch.setitem(globals(), "ref_divrem", counted_ref)
    totals = [0, 0]
    for f in cyclotomic_products(20261021, 100):
        del made[:], unskipped[:]
        assert cyclo_factor(f) == ref_cyclo_factor(f), f
        assert all(rem(2) % phi(2) == 0 for rem, phi in made)
        totals[0] += len(made)
        totals[1] += len(unskipped)
    assert totals[0] < totals[1] / 2
    f = cyclotomic(6) ** 2 * IntPoly((-2, 1))
    del made[:], unskipped[:]
    assert cyclo_factor(f) == ref_cyclo_factor(f)
    assert len(made) == len(unskipped) > 0


def test_cyclo_factor_builds_phi_d_only_within_the_degree_left(monkeypatch):
    # the scan runs to 2 n^2 + 1 = 801 here, but phi(d) is read before
    # Phi_d is built, so only a Phi_d that could divide what is left is
    # ever built; x - 2 makes rem(2) = 0, which the value at 2 lets
    # through for every d, and x^15 - 2 (Eisenstein) keeps 16 degrees
    f = IntPoly((-2, 1)) * cyclotomic(6) ** 2 * IntPoly((-2,) + (0,) * 14
                                                        + (1,))
    assert 2 * f.degree ** 2 + 1 == 801
    built = []
    original = polynomials.cyclotomic

    def recorded(d):
        built.append(d)
        return original(d)
    monkeypatch.setattr(polynomials, "cyclotomic", recorded)
    polynomials._cyclotomic_at_two.cache_clear()
    fac = cyclo_factor(f)
    assert fac.factors == ((6, 2),) and fac.remainder.degree == 16
    # 20 degrees are left up to d = 6, 16 after Phi_6^2 is divided out
    assert built and all(euler_phi(d) <= (20 if d <= 6 else 16)
                         for d in built)


# the root parameters a/d of the roots e^(2 pi i a/d), as ints over one
# denominator

def test_root_parameters_base():
    fac = cyclo_factor(poly(-1, 0, 0, 0, 0, 1))
    assert root_arguments(fac, 5) == [0, 1, 2, 3, 4]
    assert root_arguments(fac, 20) == [0, 4, 8, 12, 16]


def test_root_parameters_multiplicity_and_sort():
    fac = cyclo_factor(cyclotomic(4) ** 2)
    assert root_arguments(fac, 4) == [1, 1, 3, 3]
    # 0; 1/6, 5/6; 1/4, 3/4 over 12, sorted across the factors
    fac = cyclo_factor(cyclotomic(4) * cyclotomic(6) * cyclotomic(1))
    assert root_arguments(fac, 12) == [0, 2, 3, 9, 10]


def test_root_parameters_need_completeness():
    with pytest.raises(ValueError):
        root_arguments(CycloFactorization((), poly(-2, 0, 1)), 1)


def test_root_parameters_need_a_common_denominator():
    # x^2 + 1 has roots at 1/4 and 3/4, which no denominator 3 holds
    fac = cyclo_factor(poly(1, 0, 1))
    for den in (3, 2, 0, -4):
        with pytest.raises(ValueError, match="not a positive multiple"):
            root_arguments(fac, den)
    assert root_arguments(fac, 8) == [2, 6]


# ------------------------------------------------------------------- render

def test_render_canonical_forms():
    assert render(poly(-1, 0, 0, 0, 0, 1)) == "(x^5-1)"
    assert render(poly(-1, 1, -2, 2, -1, 1)) == "(x^5-x^4+2x^3-2x^2+x-1)"
    assert render(poly(2, 1), var="y") == "(y+2)"
    assert render(IntPoly(())) == "(0)"
    assert render(poly(-3)) == "(-3)"


def test_render_parse_round_trip_fixed():
    for p in (poly(-1, 0, 1), cyclotomic(12) ** 2, poly(0, 0, 5),
              poly(-7), IntPoly(()), poly(1, -1, 0, 0, 2)):
        assert parse_poly(render(p)) == p


@given(coeff_lists)
def test_render_parse_round_trip(a):
    p = IntPoly(tuple(a))
    assert parse_poly(render(p)) == p
