"""Randomized battery over a reproducible batch of coprime cyclotomic
pairs, and over hypothesis-drawn orthogonal pairs: the claimed
identities have to hold for every generated pair, not just the worked
examples."""
import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from orthomono import linalg
from orthomono.corpus import ENTRIES
from orthomono.monodromy import build_pair
from orthomono.padding import pad_pair
from orthomono.parsing import parse_poly
from orthomono.polynomials import IntPoly, coprime, divrem
from orthomono.quadform import (QuadSpace, gram_invariance, invariant_space,
                                q_rank, signature, signature_interlace)
from orthomono.witness import reflection_matrix

from conftest import BASE_F, BASE_G, random_unimodular, reflect


def built(cyclotomic_pairs):
    return [build_pair(f, g) for f, g in cyclotomic_pairs]


def test_group_identities_hold_for_every_pair(cyclotomic_pairs):
    for pair in built(cyclotomic_pairs):
        G = gram_invariance(pair, invariant_space(pair))
        for M in (pair.A, pair.B, pair.C):
            assert linalg.mat_eq(
                linalg.mat_mul(linalg.transpose(M),
                               linalg.mat_mul(G, M)), G)
        n = pair.n
        assert linalg.mat_eq(linalg.mat_mul(pair.C, pair.C),
                             linalg.identity(n))
        c_minus_1 = [[pair.C[i][j] - int(i == j) for j in range(n)]
                     for i in range(n)]
        assert linalg.rank(c_minus_1) == 1
        assert linalg.vec_dot(pair.v, G, pair.v) == 2


def test_route_cross_check_accepts_every_pair(cyclotomic_pairs):
    # invariant_space raises if A or C ever fails to preserve the
    # remainder Gram, so surviving the whole batch is the assertion
    for pair in built(cyclotomic_pairs):
        space = invariant_space(pair)
        assert space.dim == pair.n


def test_signature_and_interlacing_agree_for_every_pair(cyclotomic_pairs):
    for pair in built(cyclotomic_pairs):
        p, q = signature(invariant_space(pair))
        assert p + q == pair.n
        assert signature_interlace(pair.f, pair.g) == abs(p - q)


def test_determinant_identities(cyclotomic_pairs):
    for pair in built(cyclotomic_pairs)[:20]:
        det_a = linalg.det(pair.A)
        assert det_a == (-1) ** pair.n * pair.f.coeff(0)
        det_c = linalg.det(pair.C)
        assert det_c == -1
        assert linalg.det(pair.B) == det_a * det_c


def test_q_rank_certificates_are_coherent(cyclotomic_pairs):
    for pair in built(cyclotomic_pairs):
        if pair.n > 6:
            continue
        space = invariant_space(pair)
        p, q = signature(space)
        cert = q_rank(space, 1)
        assert cert.lo <= cert.hi <= min(p, q)
        assert len(cert.isotropic_witnesses) == cert.lo
        assert len(cert.residual_diagonal) == pair.n - 2 * cert.lo
        for w in cert.isotropic_witnesses:
            assert linalg.vec_dot(w, space.gram, w) == 0
            assert gcd(*w) == 1 if len(w) > 1 else abs(w[0]) == 1
            assert next(x for x in w if x != 0) > 0


def reflection_by_columns(G, w):
    """The reference matrix: column j is reflect(G, w, e_j)."""
    n = len(G)
    cols = [reflect(G, w, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def test_reflections_preserve_the_form(cyclotomic_pairs):
    rng = random.Random(7)
    pairs = [p for p in built(cyclotomic_pairs) if p.n >= 2][:10]
    seen = {"unit": 0, "integral": 0, "not integral": 0}
    for pair in pairs:
        cyc = invariant_space(pair)
        G = gram_invariance(pair, cyc)
        v = pair.v
        x = tuple(rng.randint(-4, 4) for _ in range(pair.n))
        y = reflect(G, v, x)
        assert reflect(G, v, y) == tuple(Fraction(a) for a in x)
        assert linalg.vec_dot(y, G, y) == linalg.vec_dot(x, G, x)

        # the int reflection on the cyclic Gram against its reference
        H = cyc.gram
        assert all(type(a) is int for row in H for a in row)
        assert all(type(a) is Fraction for row in G for a in row)
        axes = []
        w = tuple(int(i == 0) for i in range(pair.n))
        for _ in range(pair.n):  # v, A v, ..., A^{n-1} v
            axes.append(w)
            w = tuple(linalg.mat_vec(pair.A, w))
        units = 0
        for _ in range(400):
            w = tuple(rng.randint(-2, 2) for _ in range(pair.n))
            norm = linalg.vec_dot(w, H, w)
            if norm in (-2, -1, 1, 2) and units < 4:
                axes.append(w)
                units += 1
                seen["unit"] += 1
            elif norm != 0 and len(axes) < pair.n + 8:
                axes.append(w)
        for w in axes:
            reference = reflection_by_columns(H, w)
            if all(a.denominator == 1 for row in reference for a in row):
                seen["integral"] += 1
                matrix = reflection_matrix(H, w)
                assert linalg.mat_eq(matrix, reference)
                assert all(type(a) is int for row in matrix for a in row)
            else:
                seen["not integral"] += 1
                with pytest.raises(ValueError, match="not integral"):
                    reflection_matrix(H, w)
    assert all(count > 0 for count in seen.values()), seen


def test_signature_survives_unimodular_congruence():
    rng = random.Random(99)
    for entry in ENTRIES[:5]:
        pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
        space = invariant_space(pair)
        expected = signature(space)
        for _ in range(4):
            t = random_unimodular(rng, pair.n)
            moved = linalg.mat_mul(linalg.transpose(t),
                                   linalg.mat_mul(space.gram, t))
            assert signature(QuadSpace(tuple(map(tuple, moved)))) \
                == expected


# det G = Res(f, g), tested only: the product of the congruence diagonal
# against the determinant of the rows x^j g mod f (j < n), the matrix of
# multiplication by g on Q[x]/(f), whose determinant is the resultant of
# the monic f and g; polynomials.coprime's exact fallback builds it

def resultant_rows(f: IntPoly, g: IntPoly) -> list[list[int]]:
    rows = []
    for j in range(f.degree):
        rem = divrem(IntPoly.monomial(j) * g, f)[1].coeffs
        rows.append(list(rem) + [0] * (f.degree - len(rem)))
    return rows


def assert_det_is_resultant(pair) -> int:
    det = math.prod(invariant_space(pair).diagonal)
    assert det == linalg.det(resultant_rows(pair.f, pair.g)) != 0
    return det


def test_det_gram_is_the_resultant_on_the_entries():
    dets = {}
    for entry in ENTRIES:
        pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
        dets[entry.name] = assert_det_is_resultant(pair)
    assert dets["base"] == 8


def test_det_gram_is_the_resultant_on_the_battery(cyclotomic_pairs):
    for pair in built(cyclotomic_pairs):
        assert_det_is_resultant(pair)


@pytest.mark.parametrize("d, n", [(2, 9), (6, 17)])
def test_det_gram_is_the_resultant_on_pads(d, n):
    for p_text in ("y^2+y+1", "y^2-y+1"):
        pair = pad_pair(parse_poly(BASE_F), parse_poly(BASE_G),
                        parse_poly(p_text, var="y"),
                        parse_poly("y^2+1", var="y"), d=d).pair
        assert pair.n == n
        assert_det_is_resultant(pair)


@st.composite
def orthogonal_pairs(draw):
    """Monic f, g of degree n with f(0) = -1 and g(0) = 1, f
    anti-palindromic and g palindromic, so that x^n f(1/x) = -f and
    x^n g(1/x) = g, with small random inner coefficients: every coprime
    pair of them is orthogonal and has an invariant form."""
    n = draw(st.integers(1, 8))
    small = st.integers(-3, 3)
    f = [0] * (n + 1)
    g = [0] * (n + 1)
    f[0], f[n], g[0], g[n] = -1, 1, 1, 1
    for i in range(1, (n + 1) // 2):
        f[i] = draw(small)
        f[n - i] = -f[i]
    for i in range(1, n // 2 + 1):
        g[i] = g[n - i] = draw(small)
    return IntPoly(tuple(f)), IntPoly(tuple(g))


@settings(deadline=None, derandomize=True, max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(orthogonal_pairs())
def test_det_gram_is_the_resultant_on_random_pairs(fg):
    f, g = fg
    assume(coprime(f, g))
    assert_det_is_resultant(build_pair(f, g))


def test_det_gram_is_sympys_resultant_on_the_entries():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for entry in ENTRIES:
        pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
        f, g = (sympy.Poly(list(reversed(p.coeffs)), x)
                for p in (pair.f, pair.g))
        assert math.prod(invariant_space(pair).diagonal) \
            == sympy.resultant(f, g)
