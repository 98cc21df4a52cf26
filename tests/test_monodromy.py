"""Pair construction: companion matrices, the reflection C, and the
validation that rejects malformed input."""
import random

import pytest

from orthomono import corpus, linalg, monodromy, polynomials
from orthomono.monodromy import (ORTHOGONAL, SYMPLECTIC, PairValidationError,
                                 build_pair, classify_type, companion,
                                 scalar_shift)
from orthomono.parsing import parse_poly
from orthomono.polynomials import IntPoly, cyclotomic, euler_phi

from conftest import gcd, random_cyclotomic_pairs


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


# build_pair checks C through its one nontrivial column, and A^-1 and C
# through A's rows; a C that is not 1 - v e_{n-1}^T, or an A^-1 that
# does not invert A, however it is wrong, must still be rejected

def _bumped(monkeypatch, name, i, j, only=None):
    """monodromy.<name> with entry (i, j) of the matrix it builds plus 1,
    on every call or only on the call for the argument only."""
    original = getattr(monodromy, name)

    def bumped(*args):
        m = [list(row) for row in original(*args)]
        if only is None or args == (only,):
            m[i % len(m)][j % len(m)] += 1
        return tuple(map(tuple, m))
    monkeypatch.setattr(monodromy, name, bumped)


@pytest.mark.parametrize("i, j, fragment", [
    (0, 0, "vanish on x\\^j"),       # diagonal, off the last column
    (3, 1, "vanish on x\\^j"),       # below the diagonal
    (0, -2, "vanish on x\\^j"),      # next to the last column
    (0, -1, "must equal -v"),         # last column, off the corner
    (-1, -1, "must equal -v"),        # the corner
], ids=["diagonal", "below-diagonal", "next-to-last", "last-column",
        "corner"])
def test_build_pair_rejects_a_wrong_c(monkeypatch, i, j, fragment):
    _bumped(monkeypatch, "_reflection", i, j)
    with pytest.raises(PairValidationError, match=fragment):
        build_pair(P("x^5-1"), P("(x+1)*(x^2+1)^2"))


@pytest.mark.parametrize("name, only", [
    ("_reflection", None), ("_inverse_companion", None),
    ("companion", P("(x+1)*(x^2+1)^2"))], ids=["C", "A^-1", "B"])
def test_build_pair_rejects_every_single_entry_bump(monkeypatch, name, only):
    f, g = P("x^5-1"), P("(x+1)*(x^2+1)^2")
    build_pair(f, g)
    for i in range(5):
        for j in range(5):
            with monkeypatch.context() as m:
                _bumped(m, name, i, j, only)
                with pytest.raises(PairValidationError):
                    build_pair(f, g)


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


# ------------------------------------------------ dense reference build

def _ref_cyclic_basis(f: IntPoly, g: IntPoly):
    """(A, A^-1, v, S) the dense way: A^-1 by elimination, v = A^-1 (g - f)
    and the columns A^k v of S by matrix-vector products, whether or not
    f and g are coprime."""
    n = f.degree
    a = companion(f)
    a_inv = monodromy.int_matrix(linalg.inverse(a))
    v = tuple(linalg.mat_vec(a_inv, [(g - f).coeff(i) for i in range(n)]))
    cols = [v]
    for _ in range(n - 1):
        cols.append(linalg.mat_vec(a, cols[-1]))
    return a, a_inv, v, tuple(zip(*cols))


def ref_build_pair(f: IntPoly, g: IntPoly) -> monodromy.HyperPair:
    """The dense construction build_pair replaced: C = A^-1 B as a matrix
    product, coprimality by the exact det S, and det A, det B by
    elimination; for a pair build_pair accepts (it validates first)."""
    n = f.degree
    a, a_inv, v, s = _ref_cyclic_basis(f, g)
    b = companion(g)
    c = monodromy.int_matrix(linalg.mat_mul(a_inv, b))
    if linalg.det(s) == 0:
        raise PairValidationError("f and g must be coprime")
    return monodromy.HyperPair(
        f=f, g=g, n=n, A=a, B=b, C=c, v=v, A_inv=a_inv, S=s,
        det_A=linalg.det(a), det_B=linalg.det(b), det_C=c[n - 1][n - 1])


def _same_pair(f, g):
    """build_pair and the reference agree: equal fields, int entries
    alike (repr tells 1 from True), or the same coprimality rejection."""
    try:
        expected = ref_build_pair(f, g)
    except PairValidationError:
        with pytest.raises(PairValidationError, match="coprime"):
            build_pair(f, g)
        return False
    assert repr(build_pair(f, g)) == repr(expected), (f, g)
    return True


def test_build_pair_matches_the_dense_reference_on_the_battery(
        cyclotomic_pairs):
    assert all(_same_pair(f, g) for f, g in cyclotomic_pairs)


def test_build_pair_matches_the_dense_reference_on_the_worked_examples():
    assert all(_same_pair(P(e.f_text), P(e.g_text)) for e in corpus.ENTRIES)


def test_build_pair_matches_the_dense_reference_on_random_pairs():
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 14)
        shared = rng.randint(1, n - 1) if n > 1 and rng.random() < 0.4 \
            else 0
        f, g = _pair_with_constants(rng, n, shared)
        outcomes.add(_same_pair(f, g))
    assert outcomes == {True, False}


def test_build_pair_matches_the_dense_reference_on_large_coefficients():
    # binomial coefficients up to 2^29; the reference's exact det S is
    # what bounds the degree here
    assert _same_pair(P("(x-1)^31"), P("(x+1)^31"))


# ---------------------------------------------- the coprimality helper

def _coprime_cases(rng: random.Random, count: int):
    """(kind, (f, g)) with f(0) = -1, g(0) = 1: kind 0 random, kind 1
    sharing a cyclotomic factor, kind 2 multiplied by x^2 + a x + 1 and
    x^2 + (a + GCD_PRIME) x + 1, which are coprime over Q (their
    difference is a multiple of x, which divides neither) but equal over
    the prime field."""
    for i in range(count):
        n = rng.randint(1, 10)
        kind = i % 3 if n >= 3 else 0
        if kind == 2:
            f, g = _pair_with_constants(rng, n - 2, 0)
            a = rng.randint(-3, 3)
            f = f * IntPoly((1, a, 1))
            g = g * IntPoly((1, a + polynomials.GCD_PRIME, 1))
        else:
            f, g = _pair_with_constants(
                rng, n, rng.randint(1, n - 1) if kind else 0)
        yield kind, (f, g)


def test_coprime_agrees_with_the_exact_determinant(monkeypatch):
    # the gcd over GCD_PRIME decides alone when it is 1; anything else
    # takes the exact determinant, which a small prime forces often
    cases = list(_coprime_cases(random.Random(20261019), 240))
    expected = [linalg.det(_ref_cyclic_basis(f, g)[3]) != 0
                for _, (f, g) in cases]
    assert expected == [gcd(f, g).degree == 0 for _, (f, g) in cases]
    exact = []
    original = linalg.det

    def det(m):
        exact.append(len(m))
        return original(m)
    monkeypatch.setattr(linalg, "det", det)
    big = polynomials.GCD_PRIME
    for prime in (big, 5, 3):
        monkeypatch.setattr(polynomials, "GCD_PRIME", prime)
        seen = set()
        for (kind, (f, g)), want in zip(cases, expected):
            before = len(exact)
            assert polynomials.coprime(f, g) == want, (prime, f, g)
            seen.add((kind, want, len(exact) > before))
        # a shared factor is found by the exact test, whatever the prime,
        # and so are the kind 2 pairs the prime field cannot separate
        assert {t for t in seen if t[0] == 1} == {(1, False, True)}
        assert (2, True, True) in seen
        # a random coprime pair takes the exact test only when the prime
        # divides its resultant, which a small prime often does
        assert ((0, True, True) in seen) == (prime != big)
        assert (0, True, False) in seen
    with pytest.raises(ValueError, match="monic"):
        polynomials.coprime(IntPoly((1, 2)), IntPoly((1, 1)))
