"""Polynomial expression parser: grammar coverage, exact division,
error positions, and end-of-input handling."""
import pytest
from hypothesis import given, strategies as st

from orthomono.parsing import PolyParseError, parse_poly
from orthomono.polynomials import MAX_DEGREE, IntPoly, cyclotomic, render


def coeffs(text: str, var: str = "x") -> tuple[int, ...]:
    return parse_poly(text, var).coeffs


# ----------------------------------------------------------------- grammar

def test_bare_sum():
    assert coeffs("x^5-1") == (-1, 0, 0, 0, 0, 1)
    assert coeffs("x") == (0, 1)
    assert coeffs("7") == (7,)
    assert coeffs("2x^3+x-5") == (-5, 1, 0, 2)


def test_leading_minus():
    assert coeffs("-x+1") == (1, -1)
    assert coeffs("-3") == (-3,)
    assert coeffs("-x^2-x") == (0, -1, -1)


def test_products_and_powers():
    assert coeffs("(x+1)*(x^2+1)^2") == (1, 1, 2, 2, 1, 1)
    assert coeffs("(x-1)*(x+1)") == (-1, 0, 1)
    assert coeffs("(x+1)^3") == (1, 3, 3, 1)
    assert coeffs("2*(x+1)") == (2, 2)


def test_product_binds_tighter_than_sum():
    # (x+1)*(x-1) + 1 = x^2
    assert coeffs("(x+1)*(x-1)+1") == (0, 0, 1)
    assert coeffs("x^2 - (x+1)*(x-1)") == (1,)


def test_exact_division():
    assert coeffs("(x^5-1)/(x-1)") == (1, 1, 1, 1, 1)
    assert coeffs("(x+1)*(x^5-1)/(x-1)") == (1, 2, 2, 2, 2, 1)
    with pytest.raises(PolyParseError, match="inexact"):
        parse_poly("(x^2+1)/(x+1)")


def test_phi_atoms():
    assert parse_poly("Phi(12)") == cyclotomic(12)
    assert parse_poly("Phi(1)*Phi(5)").coeffs == (-1, 0, 0, 0, 0, 1)
    assert parse_poly("Phi(4)^2") == cyclotomic(4) ** 2
    with pytest.raises(PolyParseError):
        parse_poly("Phi(0)")


def test_alternate_variable():
    assert coeffs("(y^2+y+1)", var="y") == (1, 1, 1)
    assert coeffs("y^2-1", var="y") == (-1, 0, 1)
    with pytest.raises(PolyParseError):
        parse_poly("x^2+1", var="y")


def test_whitespace_tolerated():
    assert coeffs(" ( x + 1 ) * ( x - 1 ) ") == (-1, 0, 1)
    assert coeffs("x ^ 2 - 1") == (-1, 0, 1)


def test_parentheses_hold_flat_sums_only():
    # grouping inside parentheses covers sums of monomials, not products
    with pytest.raises(PolyParseError):
        parse_poly("((x+1)*(x-1))")


def test_constant_power():
    assert coeffs("2^3") == (8,)


# ------------------------------------------------------------------ errors

def test_trailing_garbage_rejected():
    with pytest.raises(PolyParseError, match="trailing"):
        parse_poly("x+1 y")
    with pytest.raises(PolyParseError, match="trailing"):
        parse_poly("(x+1))")


def test_error_carries_position():
    with pytest.raises(PolyParseError) as info:
        parse_poly("(x+%)")
    assert "position" in str(info.value)
    assert info.value.pos == 3


@pytest.mark.parametrize("text", [
    "", "x^5-", "2*", "(x+1)*", "x^", "(x+1", "(", "-", "x+", "Phi(",
    "Phi(12", "/", "*x",
])
def test_truncated_input_is_a_parse_error(text):
    # regression: an operator or opener at end of input must raise cleanly
    with pytest.raises(PolyParseError):
        parse_poly(text)


def test_division_by_zero():
    with pytest.raises(PolyParseError):
        parse_poly("(x+1)/0")


# ------------------------------------------------------------ input limits

def test_degree_limit_is_inclusive():
    assert parse_poly(f"x^{MAX_DEGREE}-1").degree == MAX_DEGREE
    assert parse_poly("(x+1)^64*(x-1)^64").degree == MAX_DEGREE
    assert parse_poly("Phi(510)").degree == 128   # the largest index
    assert parse_poly("Phi(128)*x^64").degree == MAX_DEGREE
    assert parse_poly(f"2^{MAX_DEGREE}") == IntPoly((2 ** MAX_DEGREE,))


@pytest.mark.parametrize("text, pos", [
    (f"x^{MAX_DEGREE + 1}-1", 2),          # monomial power
    ("x^30000000-1", 2),
    ("2x^" + "9" * 40, 3),
    (f"(x+1)^{MAX_DEGREE + 1}", 6),         # power of a sum
    ("(x^2+1)^65", 8),
    (f"2^{MAX_DEGREE + 1}", 2),             # exponent of a constant
    ("(x^100+1)*(x^29-1)", 9),             # product
    ("x^100*x^29", 5),
])
def test_degree_limit_rejects_before_building(text, pos):
    with pytest.raises(PolyParseError, match="degree limit") as info:
        parse_poly(text)
    assert info.value.pos == pos


@pytest.mark.parametrize("text", [
    "Phi(257)",                  # phi = 256
    "Phi(1)*Phi(100000)",
    "Phi(32760)",                # phi = 6912; building it takes minutes
    "Phi(" + "7" * 200 + ")",    # beyond the phi(d) >= sqrt(d/2) cutoff
])
def test_phi_index_limit(text):
    with pytest.raises(PolyParseError, match="degree limit"):
        parse_poly(text)


def test_overlong_integer_literal_is_a_parse_error():
    with pytest.raises(PolyParseError, match="too long") as info:
        parse_poly("x^2+" + "1" * 5000)
    assert info.value.pos == 4


# an integer is ASCII digits: str.isdigit also accepts other scripts'
# digits, which int() reads, and superscripts, which it does not

def test_non_ascii_digit_is_not_an_integer():
    with pytest.raises(PolyParseError, match="expected an integer") as info:
        parse_poly("x^\u0663-1")  # Arabic-Indic three
    assert info.value.pos == 2


def test_superscript_digit_is_not_an_integer():
    for text in ("x^\u00b2", "Phi(\u00b2)"):
        with pytest.raises(PolyParseError, match="expected an integer"):
            parse_poly(text)


# ------------------------------------------------------------- round trips

@given(st.lists(st.integers(-99, 99), max_size=9))
def test_parse_inverts_render(a):
    p = IntPoly(tuple(a))
    assert parse_poly(render(p)) == p


@given(st.lists(st.integers(-99, 99), max_size=9))
def test_parse_inverts_render_other_variable(a):
    p = IntPoly(tuple(a))
    assert parse_poly(render(p, var="y"), var="y") == p
