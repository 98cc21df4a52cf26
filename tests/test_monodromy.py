"""Pair construction: companion matrices, the reflection C, and the
validation that rejects malformed input."""
import random

import pytest

from orthomono import corpus, linalg
from orthomono.monodromy import (ORTHOGONAL, SYMPLECTIC, PairValidationError,
                                 build_pair, classify_type, companion,
                                 scalar_shift)
from orthomono.parsing import parse_poly
from orthomono.polynomials import IntPoly, cyclotomic, euler_phi

from conftest import gcd


def P(text: str) -> IntPoly:
    return parse_poly(text)


def test_companion_action():
    f = P("x^5-1")
    a = companion(f)
    n = 5
    # multiplication by x shifts basis vectors, wrapping via -f
    for k in range(n - 1):
        e_k = [int(i == k) for i in range(n)]
        assert linalg.mat_vec(a, e_k) == [int(i == k + 1) for i in range(n)]
    e_last = [int(i == n - 1) for i in range(n)]
    assert linalg.mat_vec(a, e_last) == [-c for c in f.coeffs[:n]]


def test_companion_det():
    for text in ("x^5-1", "(x+1)*(x^2+1)^2", "x^3+2x+1"):
        f = P(text)
        n = f.degree
        assert linalg.det(companion(f)) == (-1) ** n * f(0)


def test_build_pair_base(base_pair):
    p = base_pair
    assert p.n == 5
    assert p.v == (1, 2, 2, 1, 2)  # coefficients of x^-1 (g - f) mod f
    # A v equals g - f as a coefficient vector
    diff = p.g - p.f
    assert linalg.mat_vec(p.A, p.v) == [diff.coeff(i) for i in range(5)]


def test_reflection_properties(base_pair):
    c = base_pair.C
    n = base_pair.n
    assert linalg.mat_eq(linalg.mat_mul(c, c), linalg.identity(n))
    c_minus_1 = [[c[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    assert linalg.rank(c_minus_1) == 1


def test_c_is_a_inverse_b(base_pair):
    p = base_pair
    assert linalg.mat_eq(linalg.mat_mul(p.A, p.C), p.B)


# build_pair checks C through its one nontrivial column; a C that is not
# 1 - v e_{n-1}^T, however it is wrong, must still be rejected

def _wrong_c(monkeypatch, change):
    original = linalg.mat_mul

    def mat_mul(a, b):  # build_pair's one product is C = A^-1 B
        c = [list(row) for row in original(a, b)]
        change(c, len(c))
        return c
    monkeypatch.setattr(linalg, "mat_mul", mat_mul)


def _bump(i, j):
    def change(c, n):
        c[i % n][j % n] += 1
    return change


@pytest.mark.parametrize("change, fragment", [
    (_bump(0, 0), "vanish on x\\^j"),       # diagonal, off the last column
    (_bump(3, 1), "vanish on x\\^j"),       # below the diagonal
    (_bump(0, -2), "vanish on x\\^j"),      # next to the last column
    (_bump(0, -1), "must equal -v"),         # last column, off the corner
    (_bump(-1, -1), "must equal -v"),        # the corner
], ids=["diagonal", "below-diagonal", "next-to-last", "last-column",
        "corner"])
def test_build_pair_rejects_a_wrong_c(monkeypatch, change, fragment):
    _wrong_c(monkeypatch, change)
    with pytest.raises(PairValidationError, match=fragment):
        build_pair(P("x^5-1"), P("(x+1)*(x^2+1)^2"))


def _reported_determinants_are_exact(pairs):
    for f, g in pairs:
        pair = build_pair(f, g)
        assert (pair.det_A, pair.det_B, pair.det_C) == tuple(
            linalg.det(m) for m in (pair.A, pair.B, pair.C)), (f, g)
        assert all(type(d) is int for d in
                   (pair.det_A, pair.det_B, pair.det_C))


def test_reported_determinants_are_exact_on_the_worked_examples():
    _reported_determinants_are_exact(
        (P(entry.f_text), P(entry.g_text)) for entry in corpus.ENTRIES)


def test_reported_determinants_are_exact_on_the_battery(cyclotomic_pairs):
    assert len(cyclotomic_pairs) == 50
    _reported_determinants_are_exact(cyclotomic_pairs)


@pytest.mark.parametrize("f_text, g_text, fragment", [
    ("2x^5-1", "(x+1)*(x^2+1)^2", "monic"),
    ("x^4-1", "(x+1)*(x^2+1)^2", "equal degree"),
    ("x^5+1", "(x+1)*(x^2+1)^2", r"need f\(0\) = -1"),
    ("x^5-1", "(x^5-1)*(x+1)/(x-1)", "coprime"),
    ("1", "1", "degree must be at least 1"),
])
def test_build_pair_rejects(f_text, g_text, fragment):
    with pytest.raises(PairValidationError, match=fragment):
        build_pair(P(f_text), P(g_text))


def _pair_with_constants(rng, n, shared_degree):
    """Monic f, g of degree n with f(0) = -1, g(0) = 1 and small random
    middle coefficients; when shared_degree > 0 both carry a common
    product h of cyclotomics of that degree, the cofactors taking
    constant terms -h(0) and h(0) (h(0) = +-1)."""
    h = IntPoly((1,))
    while h.degree < shared_degree:
        d = rng.choice([d for d in range(1, 43)
                        if euler_phi(d) <= shared_degree - h.degree])
        h = h * cyclotomic(d)
    m = n - h.degree

    def cofactor(c0):
        mid = [rng.randint(-2, 2) for _ in range(m - 1)]
        return IntPoly(tuple([c0] + mid + [1]))
    return h * cofactor(-h(0)), h * cofactor(h(0))


def test_build_pair_rejects_exactly_the_non_coprime_pairs():
    # det S != 0 is build_pair's whole coprimality check; gcd is the
    # reference, on pairs about half of which share a cyclotomic factor
    rng = random.Random(20261018)
    shared = rejected = 0
    count = 1200
    for _ in range(count):
        n = rng.randint(1, 12)
        forced = n > 1 and rng.random() < 0.5
        f, g = _pair_with_constants(rng, n, rng.randint(1, n - 1)
                                    if forced else 0)
        shared += forced
        coprime = gcd(f, g).degree == 0
        assert not (forced and coprime)
        try:
            pair = build_pair(f, g)
        except PairValidationError as exc:
            assert "coprime" in str(exc) and not coprime, (f, g, exc)
            rejected += 1
            continue
        assert coprime, (f, g)
        col = list(pair.v)
        for k in range(n):
            assert [row[k] for row in pair.S] == col, (f, g, k)
            col = linalg.mat_vec(pair.A, col)
    assert shared >= 0.4 * count
    assert shared <= rejected < count


def test_normalization_hint_mentions_scalar_shift():
    # the (1, -1) case is fixable, and the error should say how
    with pytest.raises(PairValidationError, match="scalar shift"):
        build_pair(P("x^5+1"), P("(x-1)*(x^2+x+1)*(x^2-x+1)"))


def test_classify_type():
    assert classify_type(P("x^5-1"), P("(x+1)*(x^2+1)^2")).kind == ORTHOGONAL
    assert classify_type(P("x^5-1"), P("(x+1)*(x^2+1)^2")).ratio == -1
    t = classify_type(P("x^2-x+1"), P("x^2+x+1"))
    assert (t.kind, t.ratio) == (SYMPLECTIC, 1)


def test_classify_type_rejects():
    with pytest.raises(PairValidationError, match="constant terms"):
        classify_type(P("x^2+2"), P("x^2+1"))
    with pytest.raises(PairValidationError, match="equal degree"):
        classify_type(P("x^2+1"), P("x^3+1"))
    # ratio +1 needs even degree for a symplectic structure to exist
    with pytest.raises(PairValidationError, match="even degree"):
        classify_type(P("x^5-1"), P("x^5-1"))


def test_scalar_shift():
    assert scalar_shift(P("x-1")) == P("x+1")
    assert scalar_shift(P("x^5+1")) == P("x^5-1")
    f = P("x^4+2x^3-x+3")
    assert scalar_shift(scalar_shift(f)) == f  # involutive
    assert scalar_shift(f).is_monic
    with pytest.raises(PairValidationError):
        scalar_shift(P("2x-1"))


def imprimitivity_flag(f: IntPoly, g: IntPoly) -> int | None:
    """Smallest d > 1 with both f and g in Z[x^d], if any.

    A necessary condition only: absence of a flag does not prove the pair
    primitive.  No report carries it; x^2-1, x^2+1 has flag 2 and still
    gets a plain exit-0 analysis.
    """
    n = f.degree
    for d in range(2, n + 1):
        if n % d != 0:
            continue
        if all(c == 0 or k % d == 0 for k, c in enumerate(f.coeffs)) and \
           all(c == 0 or k % d == 0 for k, c in enumerate(g.coeffs)):
            return d
    return None


def test_imprimitivity_flag():
    assert imprimitivity_flag(P("x^2-1"), P("x^2+1")) == 2
    assert imprimitivity_flag(P("x^6-1"), P("x^6+x^3-1")) == 3
    assert imprimitivity_flag(P("x^5-1"), P("(x+1)*(x^2+1)^2")) is None
