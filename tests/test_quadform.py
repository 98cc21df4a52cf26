"""Invariant form, diagonalization, signatures, and rational isotropy
certificates, pinned to independently derived values."""
import functools
import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orthomono import corpus, linalg, quadform
from orthomono.monodromy import PairValidationError, build_pair
from orthomono.padding import embed_vector, pad_pair
from orthomono.parsing import parse_poly
from orthomono.polynomials import ONE, IntPoly, cyclotomic, divrem, render
from orthomono.quadform import (SEARCH_CAP, OracleMismatchError, QuadSpace,
                                RankCertificate, _box_solutions,
                                _canonical, anisotropy_certificate,
                                congruence_diagonal, cyclic_gram_row,
                                find_anisotropy_certificate, gram_invariance,
                                gram_remainder, interlace_count,
                                invariant_space, isotropic_search, q_rank,
                                signature, signature_interlace,
                                squarefree_at_cert_primes, witt_decompose)

from conftest import (BASE_F, BASE_G, cleared, int_row_kernel,
                      random_cyclotomic_pairs, random_unimodular)
from test_linalg import nullspace
from test_polynomials import ref_cyclo_factor, ref_divrem
from test_reports import PADS

F = Fraction


def P(text):
    return parse_poly(text)


def pair_of(f_text, g_text):
    return build_pair(P(f_text), P(g_text))


def space_of(gram):
    return QuadSpace(tuple(map(tuple, gram)))


def change_basis(space, m):
    """Reference: the form in the basis given by the columns of m,
    M^T G M, multiplied out over Q."""
    return space_of(linalg.mat_mul(linalg.transpose(m),
                                   linalg.mat_mul(space.gram, m)))


# ------------------------------------------------------------------ the form

def test_cyclic_gram_row_base():
    assert cyclic_gram_row(P("x^5-1"), P("(x+1)*(x^2+1)^2")) == (2, 1, 2, 2, 1)
    assert cyclic_gram_row(P("x^5-1"), P("(x+1)*(x^2+1)^2"), 3) == (2, 1, 2)


def test_cyclic_gram_row_more_pairs():
    assert cyclic_gram_row(P("(x-1)*(x^2+1)*(x^2+x+1)"),
                           P("(x+1)*(x^5-1)/(x-1)")) == (2, 2, 1, 1, 3)
    assert cyclic_gram_row(P("(x-1)*(x^2+x+1)^2"),
                           P("(x+1)*(x^4-x^2+1)")) == (2, 0, -2, 2, 2)


def test_gram_row_is_top_remainder_coefficient(base_pair):
    # t_k is the x^(n-1) coefficient of x^k v mod f, v = x^-1 (g - f)
    f = base_pair.f
    v_poly = IntPoly(base_pair.v)
    row = cyclic_gram_row(f, base_pair.g)
    for k in range(5):
        shifted = IntPoly.monomial(k) * v_poly
        assert divrem(shifted, f)[1].coeff(4) == row[k]


def ref_cyclic_gram_row(f, g, count=None):
    """The remainder route on IntPoly values, as it was before it stepped
    on int lists: x^{n-1} coefficients of x^{k-1} (g - f) mod f, every
    remainder taken by the reference division."""
    n = f.degree
    r = ref_divrem(IntPoly(f.coeffs[1:]) * (g - f), f)[1]
    row = []
    for _ in range(n if count is None else count):
        row.append(r.coeff(n - 1))
        r = ref_divrem(r * IntPoly((0, 1)), f)[1]
    return tuple(row)


def test_cyclic_gram_row_matches_the_reference(cyclotomic_pairs):
    for f, g in cyclotomic_pairs:
        for count in (None, 1, 2 * f.degree + 3):
            assert cyclic_gram_row(f, g, count) == \
                ref_cyclic_gram_row(f, g, count), (f, g, count)


def test_cyclic_gram_row_matches_the_reference_on_pads():
    f0, g0 = P(BASE_F), P(BASE_G)
    for p_text, q_text in PADS:
        pp = pad_pair(f0, g0, parse_poly(p_text, var="y"),
                      parse_poly(q_text, var="y"))
        # the padded pair, and the broken-Q controls of padding: g0 times
        # a wrong Q(x^6), of the right degree or not
        for g in (pp.g, g0 * P("x^12+x^11+1"), g0 * P("x^12+x^7-1"),
                  g0 * P("x^13+2"), pp.g * P("x^2+1")):
            assert cyclic_gram_row(pp.f, g, 5) == \
                ref_cyclic_gram_row(pp.f, g, 5), (pp.f, g)
            assert cyclic_gram_row(pp.f, g) == ref_cyclic_gram_row(pp.f, g)


def test_cyclic_gram_row_matches_the_reference_on_random_input():
    # any monic f with f(0) = -1 and any g, of any degree
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 9)
        f = IntPoly(tuple([-1] + [rng.randint(-4, 4) for _ in range(n - 1)])
                    + (1,))
        g = IntPoly(tuple(rng.randint(-4, 4)
                          for _ in range(rng.randint(0, 2 * n + 2))))
        count = rng.randint(0, 2 * n + 2)
        assert cyclic_gram_row(f, g, count) == \
            ref_cyclic_gram_row(f, g, count), (f, g, count)


def invariance_solution(pair):
    """(h, scale): the primitive int solution h of the invariance equations
    {A^T H A = H, B^T H B = H, H symmetric} and scale = v.h.v, so that
    H = 2 h / scale is the standard-basis form with v.v = 2.

    The solve that invariant_space replaced by its invariance check, kept
    as the reference.  Any symmetric solution of A^T H A = H is Toeplitz
    in the standard basis (for i, j <= n-2 the (i,j) entry of A^T H A is
    H[i+1][j+1]), so H is parametrized by its first row and the boundary
    equations from the last columns of A and B are imposed on it."""
    n = pair.n
    rows = []
    for mat in (pair.A, pair.B):
        last = [mat[i][n - 1] for i in range(n)]
        for i in range(n - 1):
            # (M^T H M)[i][n-1] = H[i][n-1]
            eq = [0] * n
            for k in range(n):
                eq[abs(i + 1 - k)] += last[k]
            eq[n - 1 - i] -= 1
            rows.append(eq)
        eq = [0] * n
        for k in range(n):
            for l in range(n):
                eq[abs(k - l)] += last[k] * last[l]
        eq[0] -= 1
        rows.append(eq)
    pivots, d, _ = linalg._eliminate(rows)
    assert len(pivots) == n - 1, "the solution space is not a line"
    # rows[k] is d times the reduced row of pivot k, so the kernel vector
    # with free entry d has entry -rows[k][free] at pivot k
    free = next(c for c in range(n) if c not in pivots)
    first = [d] * n
    for k, c in enumerate(pivots):
        first[c] = -rows[k][free]
    first = linalg.primitive_integer(first)
    h = [[first[abs(i - j)] for j in range(n)] for i in range(n)]
    return h, linalg.vec_dot(pair.v, h, pair.v)


def test_invariant_kernel_matches_nullspace(monkeypatch, cyclotomic_pairs):
    # the invariance route reads its int kernel vector off one
    # elimination; the reference takes the Fraction kernel of the same
    # equations and clears it
    equations = []
    original = linalg._eliminate

    def capture(rows):
        equations.append([list(row) for row in rows])
        return original(rows)
    monkeypatch.setattr(linalg, "_eliminate", capture)
    for f, g in cyclotomic_pairs:
        pair = build_pair(f, g)
        equations.clear()
        h, scale = invariance_solution(pair)
        [rows] = equations
        kernel = nullspace(rows)
        assert len(kernel) == 1
        assert tuple(h[0]) == linalg.primitive_integer(
            cleared(kernel)[0]), (f, g)
        assert scale == linalg.vec_dot(pair.v, h, pair.v)
        for m in (pair.A, pair.B):
            assert linalg.mat_mul(linalg.transpose(m),
                                  linalg.mat_mul(h, m)) == h


def test_certified_form_matches_the_solved_reference(cyclotomic_pairs):
    # the reference's solution of the invariance equations is the form
    # invariant_space certifies, 2 S^T h S = scale G, and its
    # standard-basis view is 2 h / scale
    pairs = [build_pair(f, g) for f, g in cyclotomic_pairs] + [
        pair_of(entry.f_text, entry.g_text) for entry in corpus.ENTRIES]
    assert len(pairs) == 61
    for pair in pairs:
        h, scale = invariance_solution(pair)
        space = invariant_space(pair)
        via_std = linalg.mat_mul(linalg.transpose(pair.S),
                                 linalg.mat_mul(h, pair.S))
        assert [[2 * x for x in row] for row in via_std] \
            == [[scale * y for y in row] for row in space.gram]
        assert gram_invariance(pair, space) \
            == tuple(tuple(F(2 * x, scale) for x in row) for row in h)


def test_invariant_space_is_cyclic_toeplitz(base_pair, base_space):
    std = space_of(gram_invariance(base_pair, base_space))
    assert linalg.mat_eq(change_basis(std, base_pair.S).gram, base_space.gram)
    assert base_space.dim == 5
    row = cyclic_gram_row(base_pair.f, base_pair.g)
    for i in range(5):
        for j in range(5):
            assert base_space.gram[i][j] == row[abs(i - j)]


def test_two_routes_agree_and_standard_form_is_invariant(base_pair):
    h, scale = invariance_solution(base_pair)
    std = space_of([[F(2 * x, scale) for x in row] for row in h])
    cyc = gram_remainder(base_pair)
    assert linalg.mat_eq(change_basis(std, base_pair.S).gram,
                         cyc.gram)
    G = std.gram
    for M in (base_pair.A, base_pair.B, base_pair.C):
        assert linalg.mat_eq(
            linalg.mat_mul(linalg.transpose(M), linalg.mat_mul(G, M)), G)
    assert linalg.vec_dot(base_pair.v, G, base_pair.v) == 2


def test_invariant_space_requires_orthogonal():
    with pytest.raises(PairValidationError):
        cyclic_gram_row(P("x^2-x+1"), P("x^2+x+1"))


# f and g coprime with f(0) = -1 and g(0) = 1, but one is not
# self-reciprocal, so no form is invariant: exit 2, naming it

@pytest.mark.parametrize("f_text, g_text, named", [
    ("x^4-x^2-1", "x^4+x^2+1", "f = (x^4-x^2-1)"),
    ("x^3-1", "x^3+x+1", "g = (x^3+x+1)")])
def test_invariant_space_requires_self_reciprocal(f_text, g_text, named):
    with pytest.raises(PairValidationError) as err:
        invariant_space(pair_of(f_text, g_text))
    assert str(err.value) == (f"{named} is not self-reciprocal, so no "
                              "quadratic form is invariant under the pair")


def test_invariant_space_checks_orthogonality_first(base_pair):
    # f(0) g(0) = +1 with a non-reciprocal f keeps the orthogonality message
    flipped = base_pair._replace(f=P("x^5+x+1"))
    with pytest.raises(PairValidationError,
                       match="requires an orthogonal pair"):
        invariant_space(flipped)


# ------------------------------------------------------------ diagonalization

def diag_matrix(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def check_congruence(gram):
    """congruence_diagonal(gram), checked to equal the diagonal of the
    Fraction reference, whose T makes it a congruence diagonal."""
    diag, t = ref_diagonalize(gram)
    product = linalg.mat_mul(linalg.transpose(t),
                             linalg.mat_mul(gram, t))
    assert linalg.mat_eq(product, diag_matrix(list(diag)))
    assert congruence_diagonal(gram) == diag
    return diag


def test_diagonalize_base(base_space):
    diag = check_congruence(base_space.gram)
    assert sum(1 for d in diag if d > 0) == 3
    assert sum(1 for d in diag if d < 0) == 2


def test_diagonalize_zero_diagonal():
    # hyperbolic plane: both diagonal entries start at zero
    diag = check_congruence([[0, 1], [1, 0]])
    assert sorted(d > 0 for d in diag) == [False, True]
    assert all(d != 0 for d in diag)


def test_diagonalize_degenerate():
    diag = check_congruence([[0, 0], [0, 0]])
    assert diag == (0, 0)
    diag2 = check_congruence([[1, 1], [1, 1]])
    assert sorted(diag2) == [0, 1]


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_diagonalize_random_symmetric(m):
    gram = [[m[i][j] + m[j][i] for j in range(4)] for i in range(4)]
    check_congruence(gram)


# the pipeline's elimination builds no T; its diagonal is the Fraction
# reference's

@pytest.mark.parametrize("gram", [[[0, 1], [1, 0]], [[0, 0], [0, 0]],
                                  [[1, 1], [1, 1]], [[0, 0], [0, -3]], []])
def test_congruence_diagonal_on_zero_diagonal_and_degenerate(gram):
    assert congruence_diagonal(gram) == ref_diagonalize(gram)[0]


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_congruence_diagonal_random_symmetric(m):
    gram = [[m[i][j] + m[j][i] for j in range(4)] for i in range(4)]
    assert congruence_diagonal(gram) == ref_diagonalize(gram)[0]


def test_congruence_diagonal_on_the_box_families():
    # random, zero-diagonal, zero-row and block Grams
    rng = random.Random(20261018)
    for i in range(200):
        gram = _box_case(rng, i)[0]
        assert congruence_diagonal(gram) == ref_diagonalize(gram)[0]


def test_invariant_space_carries_its_diagonal(base_space):
    assert base_space.diagonal == ref_diagonalize(base_space.gram)[0]
    assert signature(base_space) == signature(space_of(base_space.gram)) \
        == (3, 2)


def test_the_diagonal_follows_the_gram():
    # the dimension and the diagonal are worked out from the Gram, so
    # neither can be set apart from it, and another Gram gets its own
    with pytest.raises(TypeError):
        QuadSpace(gram=((1,),), diagonal=(F(-1),))
    with pytest.raises(TypeError):
        QuadSpace(dim=2, gram=((1,),))
    space = QuadSpace(gram=((1,),))
    assert space.diagonal == (1,) and signature(space) == (1, 0)
    assert space.dim == 1
    flipped = QuadSpace(gram=((-1,),))
    assert flipped.diagonal == (-1,) and signature(flipped) == (0, 1)
    assert flipped.dim == 1
    wider = QuadSpace(gram=((0, 1, 0), (1, 0, 0), (0, 0, 3)))
    assert wider.dim == 3
    assert wider.diagonal == congruence_diagonal(wider.gram) \
        == (F(3), F(2), F(-1, 2))
    assert signature(wider) == (2, 1)


def test_a_space_is_its_gram(monkeypatch):
    # equal and hash-equal by the Gram, immutable, and the diagonal is one
    # congruence_diagonal call however often it is read
    gram = ((2, 1), (1, 2))
    space = QuadSpace(gram=gram)
    assert space == QuadSpace(gram) and hash(space) == hash(QuadSpace(gram))
    assert space != QuadSpace(gram=((2, 1), (1, 3))) and space != gram
    assert repr(space) == "QuadSpace(gram=((2, 1), (1, 2)))"
    with pytest.raises(AttributeError):
        space.gram = ((1,),)
    with pytest.raises(AttributeError):
        space.diagonal = (F(1),)
    calls = []

    def counted(g):
        calls.append(g)
        return congruence_diagonal(g)
    monkeypatch.setattr(quadform, "congruence_diagonal", counted)
    assert space.diagonal == space.diagonal == (F(2), F(3, 2))
    assert calls == [gram]


# invariant_space checks the remainder Gram against A and C entry by
# entry; any one entry off raises, naming the generator and the Gram

def _bumped(gram, i=0, j=1):
    rows = [list(r) for r in gram]
    rows[i][j] += 1
    rows[j][i] += 1
    return tuple(map(tuple, rows))


def _failure(generator, gram):
    return (f"the remainder-route Gram fails the {generator} invariance "
            f"check: {gram}")


@pytest.mark.parametrize("i, j", [(0, 1), (3, 4)])
def test_route_check_catches_a_remainder_route_change(monkeypatch,
                                                      base_pair, i, j):
    # (3, 4) keeps row 0, so a check of row 0 alone would pass it
    original = quadform.gram_remainder
    monkeypatch.setattr(quadform, "gram_remainder", lambda pair: QuadSpace(
        gram=_bumped(original(pair).gram, i, j)))
    cyc = original(base_pair)
    with pytest.raises(OracleMismatchError) as err:
        invariant_space(base_pair)
    assert str(err.value) == _failure("A", _bumped(cyc.gram, i, j))


def test_invariance_check_rejects_every_single_entry_bump(
        monkeypatch, cyclotomic_pairs):
    original = quadform.gram_remainder
    bumped = {}
    monkeypatch.setattr(quadform, "gram_remainder",
                        lambda pair: QuadSpace(gram=bumped["gram"]))
    tried = 0
    for f, g in cyclotomic_pairs:
        pair = build_pair(f, g)
        gram = original(pair).gram
        for i in range(pair.n):
            for j in range(i, pair.n):
                bumped["gram"] = _bumped(gram, i, j)
                with pytest.raises(OracleMismatchError):
                    invariant_space(pair)
                tried += 1
    assert tried == 1793


def test_invariance_check_rejects_a_doubled_gram(monkeypatch, base_pair):
    # A^T (2G) A = 2G, so 2G passes the A half; its row 0 is 2 s, not the
    # normalization s (v.v = 2), so the C half alone rejects it
    doubled = tuple(tuple(2 * x for x in row)
                    for row in gram_remainder(base_pair).gram)
    assert quadform._unpreserved_generator(base_pair, doubled) == "C"
    monkeypatch.setattr(quadform, "gram_remainder",
                        lambda pair: QuadSpace(gram=doubled))
    with pytest.raises(OracleMismatchError) as err:
        invariant_space(base_pair)
    assert str(err.value) == _failure("C", doubled)


def ref_diagonalize(gram):
    """The Fraction congruence diagonalization (diag, T) with
    congruence_diagonal's pivot rule; the reference for its diagonal."""
    m = [[Fraction(x) for x in row] for row in gram]
    n = len(m)
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def col_op(dst, src, factor):
        for i in range(n):
            m[i][dst] += factor * m[i][src]
        for j in range(n):
            m[dst][j] += factor * m[src][j]
        for i in range(n):
            t[i][dst] += factor * t[i][src]

    def col_swap(a, b):
        for i in range(n):
            m[i][a], m[i][b] = m[i][b], m[i][a]
        for j in range(n):
            m[a][j], m[b][j] = m[b][j], m[a][j]
        for i in range(n):
            t[i][a], t[i][b] = t[i][b], t[i][a]

    for i in range(n):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                col_swap(i, j)
            else:
                off = next(((r, c) for r in range(i, n)
                            for c in range(r + 1, n) if m[r][c] != 0), None)
                if off is None:
                    break
                r, c = off
                col_op(r, c, Fraction(1))
                if r != i:
                    col_swap(i, r)
        pivot = m[i][i]
        for j in range(i + 1, n):
            if m[i][j] != 0:
                col_op(j, i, -m[i][j] / pivot)
    return tuple(m[i][i] for i in range(n)), tuple(tuple(row) for row in t)


@st.composite
def symmetric(draw):
    """Symmetric int matrices up to 6 x 6: zero diagonals (the
    off-diagonal pivot step) and singular ones are common."""
    n = draw(st.integers(1, 6))
    entry = draw(st.sampled_from((st.integers(-4, 4),
                                  st.integers(-60, 60))))
    m = [[0] * n for _ in range(n)]
    zero_diag = draw(st.booleans())
    for i in range(n):
        for j in range(i, n):
            x = 0 if i == j and zero_diag else draw(entry)
            m[i][j] = m[j][i] = x
    return m


@settings(max_examples=300)
@given(symmetric())
def test_diagonalize_matches_fraction_reference(m):
    diag = congruence_diagonal(m)
    assert diag == ref_diagonalize(m)[0]
    assert all(type(x) is Fraction for x in diag)


def full_bareiss_diagonal(gram):
    """Reference: congruence_diagonal as it stood before it kept only the
    upper triangle, each Bareiss step updating the whole trailing block
    and the pivot moves reading the block as it is."""
    m = linalg.int_rows(gram)
    n = len(m)
    diag = []
    prev = 1

    def col_add(dst, src):
        for k in range(n):
            m[k][dst] += m[k][src]
        for k in range(n):
            m[dst][k] += m[src][k]

    def col_swap(a, b):
        for k in range(n):
            m[k][a], m[k][b] = m[k][b], m[k][a]
        m[a], m[b] = m[b], m[a]

    for i in range(n):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                col_swap(i, j)
            else:
                off = next(((r, c) for r in range(i, n)
                            for c in range(r + 1, n) if m[r][c] != 0), None)
                if off is None:
                    break
                r, c = off
                col_add(r, c)
                if r != i:
                    col_swap(i, r)
        pivot = m[i][i]
        top = m[i]
        tail = top[i + 1:]
        for j in range(i + 1, n):
            f = top[j]
            row = m[j]
            row[i + 1:] = [(pivot * a - f * b) // prev
                           for a, b in zip(row[i + 1:], tail)]
        diag.append(Fraction(pivot, prev))
        prev = pivot
    diag += [Fraction(0)] * (n - len(diag))
    return tuple(diag)


# the upper-triangle elimination gives the full-block one's diagonal, on
# the battery's Grams and on symmetric Grams whose pivots are often zero

def test_upper_triangle_diagonal_on_the_battery(cyclotomic_pairs):
    for f, g in cyclotomic_pairs:
        gram = gram_remainder(build_pair(f, g)).gram
        assert repr(congruence_diagonal(gram)) \
            == repr(full_bareiss_diagonal(gram))


@settings(max_examples=300)
@given(symmetric())
def test_upper_triangle_diagonal_on_zero_pivots(m):
    assert repr(congruence_diagonal(m)) == repr(full_bareiss_diagonal(m))


def test_upper_triangle_diagonal_on_larger_zero_pivots():
    # entries in {-1, 0, 1} up to 12 x 12: pivots that reach zero midway
    rng = random.Random(20261019)
    for _ in range(300):
        n = rng.randint(2, 12)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.choice((-1, 0, 0, 1))
        assert repr(congruence_diagonal(m)) == repr(full_bareiss_diagonal(m))


def test_cyclic_gram_holds_ints(base_space, cyclotomic_pairs):
    spaces = [base_space] + [invariant_space(build_pair(f, g))
                             for f, g in cyclotomic_pairs[:12]]
    for space in spaces:
        assert all(type(x) is int for row in space.gram for x in row)


# ---------------------------------------------------------------- signatures

def test_signature_values(base_space):
    assert signature(base_space) == (3, 2)
    assert signature(space_of([[0, 1], [1, 0]])) == (1, 1)
    assert signature(space_of([[2]])) == (1, 0)
    assert signature(space_of([[-3]])) == (0, 1)
    with pytest.raises(ValueError, match="degenerate"):
        signature(space_of([[0, 0], [0, -3]]))


def test_signature_interlace_base():
    assert signature_interlace(P(BASE_F), P(BASE_G)) == 1
    # the same count on the root arguments over 20: a/5 against 1/4,
    # 1/4, 1/2, 3/4, 3/4
    assert interlace_count([0, 4, 8, 12, 16], [5, 5, 10, 15, 15]) == 1


def test_signature_interlace_degree_one():
    assert signature_interlace(P("x-1"), P("x+1")) == 1
    assert interlace_count([0], [1]) == 1


def test_signature_interlace_validation():
    # not both products of cyclotomics: no second route
    assert signature_interlace(P("x^2-x-1"), P("x^2+1")) is None
    assert signature_interlace(P("x^2-1"), P("x^2+3x+1")) is None
    with pytest.raises(ValueError, match="equal length"):
        signature_interlace(P("x-1"), P("x^2+1"))
    with pytest.raises(ValueError, match="disjoint"):
        signature_interlace(P("(x-1)*(x+1)"), P("(x+1)^2"))
    with pytest.raises(ValueError, match="equal length"):
        interlace_count([0], [3, 2])
    with pytest.raises(ValueError, match="disjoint"):
        interlace_count([0, 3], [2, 3])


def ref_signature_interlace(alpha, beta):
    """The interlacing count as it was: every m_j counted afresh over the
    Fraction lists, O(n^2)."""
    if len(alpha) != len(beta):
        raise ValueError("parameter lists must have equal length")
    a = sorted(Fraction(x) for x in alpha)
    b = sorted(Fraction(x) for x in beta)
    if set(a) & set(b):
        raise ValueError("parameter lists must be disjoint")
    return abs(sum((-1) ** (j + sum(1 for bk in b if bk < aj))
                   for j, aj in enumerate(a, start=1)))


def ref_root_parameters(f):
    """The arguments a/d of the roots e^(2 pi i a/d) of a product of
    cyclotomics, as Fractions with multiplicity, from the reference
    factorization."""
    fac = ref_cyclo_factor(f)
    assert fac.remainder_is_one
    return [Fraction(a, d) for d, mult in fac.factors
            for a in range(d) if math.gcd(a, d) == 1 for _ in range(mult)]


def _interlace_outcome(fn, alpha, beta):
    try:
        return fn(alpha, beta)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400)
@given(st.integers(0, 9).flatmap(lambda k: st.tuples(
    st.lists(st.integers(0, 11), min_size=k, max_size=k),
    st.lists(st.integers(0, 11), min_size=k, max_size=k))))
def test_signature_interlace_matches_the_reference_on_disjoint_lists(lists):
    # even and odd numerators over 24 never meet; repeats give
    # multiplicities, and the Fraction values reduce to many denominators
    alpha = sorted(2 * k for k in lists[0])
    beta = sorted(2 * k + 1 for k in lists[1])
    for a, b in ((alpha, beta), (beta, alpha)):
        assert interlace_count(a, b) == ref_signature_interlace(
            [F(x, 24) for x in a], [F(x, 24) for x in b])


# classes of d with equal phi(d): one factor from a class for f and one
# for g keeps their degrees equal
PHI_CLASSES = ((1, 2), (3, 4, 6), (5, 8, 10, 12))


@settings(max_examples=300)
@given(st.lists(st.sampled_from(PHI_CLASSES).flatmap(
    lambda ds: st.tuples(st.sampled_from(ds), st.sampled_from(ds))),
    max_size=5), st.sampled_from((0, 0, 0, 1, 4)))
def test_signature_interlace_matches_the_reference(pairs, extra):
    # a d shared by f and g, and an extra factor of g that makes the
    # degrees differ, raise the same ValueError as the reference
    f = functools.reduce(operator.mul, (cyclotomic(d) for d, _ in pairs),
                         ONE)
    g = functools.reduce(operator.mul, (cyclotomic(d) for _, d in pairs),
                         cyclotomic(extra) if extra else ONE)

    def reference(f, g):
        return ref_signature_interlace(ref_root_parameters(f),
                                       ref_root_parameters(g))
    assert _interlace_outcome(signature_interlace, f, g) == \
        _interlace_outcome(reference, f, g)


def test_signature_interlace_takes_ints_and_overlaps_at_the_ends():
    # over 4: 0, 1/2 against 1/4, 3/4
    assert interlace_count([0, 2], [1, 3]) == 2
    assert signature_interlace(P("x^2-1"), P("x^2+1")) == 2
    for alpha, beta in (([0, 2], [0, 3]), ([0, 2], [1, 2]),
                        ([2, 2], [1, 2])):
        with pytest.raises(ValueError, match="disjoint"):
            interlace_count(alpha, beta)


# -------------------------------------------------------------- square class

def test_squarefree_class():
    assert squarefree_at_cert_primes(F(12)) == 3
    assert squarefree_at_cert_primes(F(-18)) == -2
    assert squarefree_at_cert_primes(F(1, 2)) == 2
    assert squarefree_at_cert_primes(F(-4, 9)) == -1
    assert squarefree_at_cert_primes(F(2)) == 2
    # two primes of 61 and 59 bits: trial division to a square root of
    # their product would not finish, and only the squares of _PRIMES go
    p, q = 2 ** 61 - 1, 2 ** 59 - 55
    assert squarefree_at_cert_primes(F(12 * p * p * q)) == 3 * p * p * q
    assert squarefree_at_cert_primes(F(-p * q, 4 * 49)) == -p * q


def test_large_prime_squares_leave_the_certificate_alone():
    # a prime square above CERT_MAX_PRIME is a unit square mod every p^k
    # the scan uses, so the certificate is that of the form without it
    p, q = 2 ** 61 - 1, 2 ** 59 - 55
    ob, _ = find_anisotropy_certificate((F(-2), F(14), F(35)))
    big, _ = find_anisotropy_certificate((F(-2 * p * p), F(14),
                                          F(35 * q * q, 9)))
    assert (big.prime, big.exponent) == (ob.prime, ob.exponent) == (5, 2)
    assert big.statement.startswith(f"diagonal form ({-2 * p * p}, 14, ")


# ----------------------------------------------------- anisotropy certificates

def test_anisotropy_certificate_sums_of_squares():
    # x^2 + y^2 + z^2 has no primitive zero mod 8
    assert anisotropy_certificate((1, 1, 1), 2, 3)
    assert not anisotropy_certificate((1, -1, 1), 2, 3)
    assert not anisotropy_certificate((1, 1, 1), 7, 1)


def test_anisotropy_certificate_mod_25():
    assert anisotropy_certificate((-2, 14, 35), 5, 2)
    assert anisotropy_certificate((2, -10, 5), 5, 2)


def test_anisotropy_certificate_rejects_instances_outside_the_scan():
    # x^2 - y^2 is isotropic: a p the scan does not use, or a k outside
    # 1..CERT_MAX_EXPONENT, is an error, never a certificate
    for p, k in ((2, 0), (1, 1), (-3, 1), (2, -1)):
        with pytest.raises(ValueError, match="outside supported limits"):
            anisotropy_certificate([1, -1], p, k)


def test_find_anisotropy_certificate():
    ob, notes = find_anisotropy_certificate((F(-2), F(14), F(20, 7)))
    assert (ob.prime, ob.exponent) == (5, 2)
    assert ob.statement == \
        "diagonal form (-2, 14, 35) has no primitive zero mod 5^2"
    assert notes == []


def test_find_anisotropy_certificate_isotropic_form():
    # a genuinely isotropic form yields no certificate, only skip notes
    ob, notes = find_anisotropy_certificate((F(1), F(-1)))
    assert ob is None
    assert all("skipped" in note for note in notes)


@functools.lru_cache(maxsize=None)
def _packed_squares(d, modulus):
    # sum_x t^(d x^2 mod modulus), one 64-bit slot per coefficient
    counts = [0] * modulus
    for x in range(modulus):
        counts[d * x * x % modulus] += 1
    return int.from_bytes(b"".join(c.to_bytes(8, "little") for c in counts),
                          "little")


def ref_zero_count(diagonal, modulus):
    """#{x mod modulus : sum d_i x_i^2 = 0}: the constant coefficient of
    prod_i sum_x t^(d_i x^2 mod modulus) modulo t^modulus - 1, with the
    polynomials packed into ints (no count comes near 2^64), so the
    products run as int products."""
    width = 64 * modulus
    acc = 1
    for d in diagonal:
        acc *= _packed_squares(d % modulus, modulus)
        acc = (acc & ((1 << width) - 1)) + (acc >> width)
    return acc & ((1 << 64) - 1)


def ref_primitive_zeros(diagonal, p, k):
    """The primitive zeros mod p^k: all zeros less those divisible by p,
    which are p^dim lifts of each zero mod p^(k-2)."""
    trivial = ref_zero_count(diagonal, p ** (k - 2)) * p ** len(diagonal) \
        if k >= 2 else 1
    return ref_zero_count(diagonal, p ** k) - trivial


def ref_find_certificate(diagonal):
    """The scan of find_anisotropy_certificate with every instance under
    the work cap counted, as (prime, exponent) or None, and its notes."""
    reduced = [squarefree_at_cert_primes(d) for d in diagonal]
    notes = []
    for k in range(1, quadform.CERT_MAX_EXPONENT + 1):
        for p in quadform._PRIMES:
            if len(reduced) * p ** (2 * k) > quadform.CERT_WORK_CAP:
                notes.append(f"mod {p}^{k} check skipped (work cap)")
            elif ref_primitive_zeros(reduced, p, k) == 0:
                return (p, k), notes
    return None, notes


_SQUAREFREE = (-3, -1, 1, 2, 5)


@pytest.mark.parametrize("dim", [3, 4])
def test_anisotropy_shortcut_at_odd_unit_primes(dim):
    # Chevalley-Warning: a diagonal in >= 3 variables has a nonzero zero
    # mod every p, which is primitive mod p; with Hensel, a unit diagonal
    # has a primitive zero mod every power of an odd prime
    for diagonal in itertools.combinations_with_replacement(_SQUAREFREE,
                                                            dim):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            unit = p != 2 and all(d % p for d in diagonal)
            for k in ((1, 2) if unit else (1,)):
                assert anisotropy_certificate(diagonal, p, k) is False
                assert ref_primitive_zeros(diagonal, p, k) > 0


def test_anisotropy_certificate_at_k_2_matches_the_reference():
    # k = 2 counts the nonprimitive zeros mod p^0 = 1, where every tuple
    # is the one zero
    outcomes = set()
    for dim in (1, 2, 3, 4):
        for diagonal in itertools.combinations_with_replacement(
                (-5, -3, -2, -1, 1, 2, 3, 6, 10), dim):
            for p in (2, 3, 5, 7):
                if dim * p ** 4 > quadform.CERT_WORK_CAP:
                    continue
                got = anisotropy_certificate(diagonal, p, 2)
                assert got == (ref_primitive_zeros(diagonal, p, 2) == 0), \
                    (diagonal, p)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_find_anisotropy_certificate_matches_the_counting_scan():
    rng = random.Random(20261019)
    cases = [(F(-2), F(14), F(35)), (F(1), F(1), F(-2))]
    for _ in range(198):
        cases.append(tuple(F(rng.choice((-1, 1)) * rng.randint(1, 12),
                             rng.randint(1, 3))
                           for _ in range(rng.randint(2, 4))))
    found = []
    for diagonal in cases:
        ob, notes = find_anisotropy_certificate(diagonal)
        got = None if ob is None else (ob.prime, ob.exponent)
        assert (got, notes) == ref_find_certificate(diagonal), diagonal
        found.append((got, bool(notes)))
    assert found[0] == ((5, 2), False)
    assert found[1] == (None, True)
    assert {got for got, _ in found} > {None, (5, 2)}


# ------------------------------------------------------------------ searches

def test_isotropic_search_base(base_space):
    found = isotropic_search(base_space.gram, 1)
    assert found[0] == (0, 0, 1, 0, -1)
    assert len(found) == 15
    for w in found:
        assert linalg.vec_dot(w, base_space.gram, w) == 0
        lead = next(x for x in w if x != 0)
        assert lead > 0  # sign-canonical
        assert linalg.primitive_integer(w) == w


def test_isotropic_search_definite():
    assert isotropic_search([[2]], 3) == []
    assert isotropic_search([[1, 0], [0, 3]], 4) == []


@pytest.mark.parametrize("kernel", [
    congruence_diagonal, lambda gram: isotropic_search(gram, 1)],
    ids=["congruence_diagonal", "isotropic_search"])
def test_int_kernels_reject_a_fraction_entry(kernel):
    # an integral Fraction too: the kernels take int Grams only
    for entry in (F(1, 2), F(3)):
        with pytest.raises(TypeError, match="int entries"):
            kernel([[entry, 1], [1, -2]])


_BLOCKS = ([[2]], [[1]], [[2, 1], [1, 2]], [[3, 1], [1, 1]], [[-2]],
           [[-1, 1], [1, -2]], [[0, 1], [1, 0]], [[1, 0], [0, -1]],
           [[1, 2], [2, 1]], [[0]], [[0, 2], [2, -1]])


def _box_case(rng: random.Random, i: int):
    """A symmetric int Gram of dimension 1-6: random entries, with zero
    diagonals, with a zero row, or block diagonal from definite,
    indefinite and degenerate blocks."""
    dim = rng.randint(1, 6)
    bound = rng.choice([b for b in (1, 2, 3) if (2 * b + 1) ** dim <= 1000])
    gram = [[0] * dim for _ in range(dim)]
    kind = i % 4
    if kind == 3:
        k = 0
        while k < dim:
            block = rng.choice([b for b in _BLOCKS if len(b) <= dim - k])
            for a, row in enumerate(block):
                for b, x in enumerate(row):
                    gram[k + a][k + b] = x
            k += len(block)
    else:
        for a in range(dim):
            for b in range(a, dim):
                gram[a][b] = gram[b][a] = rng.randint(-3, 3)
        if kind == 1:
            for a in range(dim):
                gram[a][a] = 0
        if kind == 2:
            z = rng.randrange(dim)
            for a in range(dim):
                gram[a][z] = gram[z][a] = 0
    return gram, bound


@pytest.mark.parametrize("chunk", range(5))
def test_box_walk_matches_product_enumeration(chunk):
    rng = random.Random(20261018 + chunk)
    for i in range(100):
        gram, bound = _box_case(rng, i)
        want = [c for c in itertools.product(range(-bound, bound + 1),
                                             repeat=len(gram))
                if _canonical(c) and linalg.vec_dot(c, gram, c) == 0]
        assert list(_box_solutions(gram, bound)) == want, (gram, bound)
        assert next(_box_solutions(gram, bound), None) \
            == (want[0] if want else None)


# a canonical tuple has a positive first nonzero entry, so the walk solves
# one quadratic per zero or positive-lead prefix of length dim - 1

@pytest.mark.parametrize("dim, bound", [(1, 3), (2, 1), (3, 2), (4, 1),
                                        (5, 3)])
def test_box_walk_skips_negative_lead_prefixes(monkeypatch, dim, bound):
    gram = [[2 if i == j else int(abs(i - j) == 1) for j in range(dim)]
            for i in range(dim)]
    calls = []
    original = quadform._quadratic_roots

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(quadform, "_quadratic_roots", counted)
    list(_box_solutions(gram, bound))
    assert len(calls) == ((2 * bound + 1) ** (dim - 1) + 1) // 2


# ------------------------------------------------------------------ witt / q

def test_witt_hyperbolic_plane():
    cert = witt_decompose(space_of([[0, 1], [1, 0]]), 2)
    assert (cert.lo, cert.hi) == (1, 1)
    assert cert.isotropic_witnesses == ((0, 1),)
    assert cert.residual_diagonal == ()


def test_witt_definite():
    cert = witt_decompose(space_of([[1, 0], [0, 2]]), 3)
    assert (cert.lo, cert.hi) == (0, 0)
    assert cert.isotropic_witnesses == ()
    assert cert.residual_diagonal == (F(1), F(2))
    assert cert.obstructions == ()


def test_q_rank_base(base_space):
    cert = q_rank(base_space, 3)
    assert (cert.lo, cert.hi) == (2, 2)
    assert cert.isotropic_witnesses == ((0, 0, 1, 0, -1), (1, 1, -1, -1, 1))
    assert cert.residual_diagonal == (F(8),)
    assert cert.notes == ()


def test_q_rank_seeded(base_space):
    seeded = q_rank(base_space, 3, seeds=((0, 0, 1, 0, -1),))
    assert (seeded.lo, seeded.hi) == (2, 2)
    # both base witnesses as seeds: each is a witness, in order
    ws = q_rank(base_space, 3).isotropic_witnesses
    seeded = q_rank(base_space, 3, seeds=ws)
    assert (seeded.lo, seeded.hi, seeded.isotropic_witnesses) == (2, 2, ws)


def test_q_rank_anisotropic_residual():
    space = invariant_space(pair_of("(x-1)*(x^2+1)*(x^2+x+1)",
                                    "(x+1)*(x^5-1)/(x-1)"))
    cert = q_rank(space, 3)
    assert (cert.lo, cert.hi) == (1, 1)
    assert cert.isotropic_witnesses == ((0, 0, 0, 1, -1),)
    assert cert.residual_diagonal == (F(-2), F(14), F(20, 7))
    assert [(ob.prime, ob.exponent) for ob in cert.obstructions] == [(5, 2)]
    # the certificate is what closes the lo < min(p, q) gap
    # num * den has the sign of each entry, and is an int
    assert signature(space_of(diag_matrix(
        [d.numerator * d.denominator for d in cert.residual_diagonal]))) \
        == (2, 1)


def test_q_rank_degree_one():
    space = invariant_space(pair_of("x-1", "x+1"))
    cert = q_rank(space, 3)
    assert (cert.lo, cert.hi) == (0, 0)
    assert cert.residual_diagonal == (F(2),)
    assert cert.obstructions == ()


def test_q_rank_rejects_bound_below_one(base_space):
    # the bound-doubling loop never leaves a bound of 0 or less; on the
    # base quintic that was a search that never ended
    for bound in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            q_rank(base_space, bound)


def test_witt_rejects_bound_below_one(base_space):
    # an empty stage in >= 5 variables doubles its own bound, and 0
    # doubles to 0: the base quintic's first stage would search forever
    for bound in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            witt_decompose(base_space, bound)


def test_q_rank_rejects_seeds_of_the_wrong_length(base_space):
    # a short seed once passed as the witness (1, 0, -1) with lo = 2: the
    # pairing stops at the shorter vector
    for seed in ((1, 0, -1), (1, 0, -1, 0, 0, 7, 7)):
        with pytest.raises(ValueError, match="not the dimension 5"):
            q_rank(base_space, 3, seeds=[seed])
    assert q_rank(base_space, 3, seeds=[(1, 0, -1, 0, 0)]).lo == 2


def test_seeds_with_non_int_coordinates_are_rejected(base_space):
    # both once ran as the seed (1, 0, -1, 0, 0) and came back as a
    # witness: int() truncated them
    for seed in ((1.9, 0, -1.9, 0, 0),
                 (Fraction(3, 2), 0, Fraction(-3, 2), 0, 0),
                 (Fraction(1), 0, Fraction(-1), 0, 0)):
        with pytest.raises(ValueError, match="int coordinates"):
            q_rank(base_space, 3, seeds=[seed])
        with pytest.raises(ValueError, match="int coordinates"):
            witt_decompose(base_space, 3, seeds=[seed])
    with pytest.raises(ValueError, match="not the dimension 5"):
        witt_decompose(base_space, 3, seeds=[(1, 0, -1)])
    assert witt_decompose(base_space, 3, seeds=[(1, 0, -1, 0, 0)]) \
        .isotropic_witnesses[0] == (1, 0, -1, 0, 0)


# each once came back as [0, 2] on the base quintic, where unseeded
# q_rank gives [2, 2]: the first two as "stage 1: isotropic vector without
# a pairing partner; stopped", since the partner search kept every
# pending seed orthogonal; the zero vector was skipped
@pytest.mark.parametrize("seeds, match", [
    ([(1, 0, 0, 0, 0)], r"\(1, 0, 0, 0, 0\) is not"),  # v, v.v = 2
    ([(0, 0, 1, 0, -1), (0, 1, 0, -1, -1)], r"\(0, 1, 0, -1, -1\) is not"),
    ([(1, 0, -1, 0, 0), (-1, 0, 1, 0, 0)], "linearly dependent"),
    ([(1, 0, -1, 0, 0), (2, 0, -2, 0, 0)], "linearly dependent"),
    ([(0, 0, 0, 0, 0)], r"\(0, 0, 0, 0, 0\) is not"),
], ids=["v", "not-orthogonal", "eps,-eps", "eps,2eps", "zero"])
def test_invalid_seeds_are_rejected(base_space, seeds, match):
    with pytest.raises(ValueError, match=match):
        witt_decompose(base_space, 3, seeds=seeds)
    with pytest.raises(ValueError, match=match):
        q_rank(base_space, 3, seeds=seeds)


def test_the_seed_checks_take_one_elimination_for_two_seeds(monkeypatch,
                                                            base_space):
    # independence is one linalg.rank, and only for two or more seeds
    calls = []
    original = linalg.rank
    monkeypatch.setattr(linalg, "rank",
                        lambda m: calls.append(m) or original(m))
    ws = witt_decompose(base_space, 3).isotropic_witnesses
    for seeds, count in (((), 0), (ws[:1], 0), (ws, 1)):
        calls.clear()
        assert witt_decompose(base_space, 3, seeds=seeds) \
            .isotropic_witnesses[:len(seeds)] == seeds
        assert len(calls) == count, seeds


def _seeded_form(rng: random.Random):
    """A nondegenerate Gram of dimension 3-8 with int entries in [-3, 3],
    and up to three valid seeds of it (_valid_seeds)."""
    dim = rng.randint(3, 8)
    gram = [[0] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            gram[a][b] = gram[b][a] = rng.randint(-3, 3)
    if linalg.det(gram) == 0:
        return gram, []
    return gram, _valid_seeds(rng, gram, 3)


# the partner search once kept every pending seed orthogonal and looked
# only among the basis rows and their pair sums: it lost a seed (lo < 2,
# mostly 0) on about one form in eight with two seeds, and on most forms
# with three
@pytest.mark.parametrize("chunk", range(4))
def test_valid_seeds_are_the_first_witnesses(chunk):
    rng = random.Random(7 + chunk)
    counts = Counter()
    for _ in range(750):
        gram, seeds = _seeded_form(rng)
        space = space_of(gram)
        for count in (2, 3):
            if len(seeds) < count:
                continue
            counts[count] += 1
            cert = witt_decompose(space, 1, seeds=seeds[:count])
            assert cert.isotropic_witnesses[:count] == tuple(seeds[:count]), \
                (gram, seeds[:count])
            assert cert.lo >= count
            quadform._check_certificate(space, cert)
    assert counts[2] > 250 and counts[3] > 10, counts


def test_certificate_check_rejects_a_witness_of_the_wrong_length(base_space):
    for w in ((1, 0, -1), (1, 0, -1, 0, 0, 7)):
        cert = RankCertificate(lo=1, hi=1, isotropic_witnesses=(w,),
                               residual_diagonal=())
        with pytest.raises(OracleMismatchError, match="not the dimension"):
            quadform._check_certificate(base_space, cert)


def test_q_rank_checks_hi_against_the_signature(monkeypatch, base_space):
    # q_rank takes min(p, q) from signature(space) itself; a certificate
    # with hi one above it is an inconsistency between the two routes
    assert (q_rank(base_space, 3).hi, min(signature(base_space))) == (2, 2)
    original = quadform.witt_decompose
    monkeypatch.setattr(
        quadform, "witt_decompose", lambda space, bound, seeds=():
        original(space, bound, seeds)._replace(
            hi=original(space, bound, seeds).hi + 1))
    with pytest.raises(OracleMismatchError,
                       match=r"certificate hi exceeds min\(p, q\)"):
        q_rank(base_space, 3)


def test_q_rank_matches_witt_on_the_gram(base_space):
    direct = witt_decompose(base_space, 3)
    via_pair = q_rank(base_space, 3)
    assert (direct.lo, direct.hi) == (via_pair.lo, via_pair.hi)
    assert direct.isotropic_witnesses == via_pair.isotropic_witnesses


# the note of a stage in >= 5 variables that the cap stopped
CAP_NOTE = ("a rational isotropic vector exists in the residual "
            "(indefinite, >= 5 variables) but the bounded search stopped "
            "at the enumeration cap")


def test_a_doubling_resumes_at_the_empty_stage(cyclotomic_pairs):
    # battery pairs 32 and 34 (n = 7) split one plane at bound 3 and
    # find nothing in the 5-variable stage after it.  That stage doubles
    # to 6 (13^5 tuples) and stops before 12 (25^5 > SEARCH_CAP); a
    # restart at stage 1 would have been over the cap (13^7) at once
    cert = q_rank(invariant_space(build_pair(*cyclotomic_pairs[32])), 3)
    assert (cert.lo, cert.hi) == (2, 3)
    assert cert.isotropic_witnesses[0] == (0, 0, 0, 0, 1, 0, -1)
    cert = q_rank(invariant_space(build_pair(*cyclotomic_pairs[34])), 3)
    assert (cert.lo, cert.hi) == (1, 2)
    assert cert.notes == (CAP_NOTE,)


def test_q_rank_is_one_witt_decompose(monkeypatch, cyclotomic_pairs):
    # the quintic with an 81-bit residual entry finds its one witness
    # only after its 5-variable stage doubles from 3 to 6
    spaces = [invariant_space(build_pair(f, g)) for f, g in cyclotomic_pairs]
    spaces.append(invariant_space(pair_of(
        "x^5-8*x^4+22*x^3-22*x^2+8*x-1", "x^5-28*x^4+77*x^3+77*x^2-28*x+1")))
    original = quadform.witt_decompose
    calls = []

    def witt(space, bound, seeds=()):
        calls.append(original(space, bound, seeds))
        return calls[-1]

    monkeypatch.setattr(quadform, "witt_decompose", witt)
    for space in spaces:
        for bound in (1, 2, 3):
            calls.clear()
            cert = q_rank(space, bound)
            assert len(calls) == 1, (space.gram, bound)
            assert (cert.lo, cert.isotropic_witnesses) == \
                (calls[0].lo, calls[0].isotropic_witnesses), (space.gram, bound)
    assert q_rank(spaces[-1], 3).lo == 1


def test_definite_stage_stops_before_the_cap(cyclotomic_pairs):
    # battery pair 15 has signature (8, 0): 7^8 tuples are over the cap,
    # but a definite form has no isotropic vector, so lo = hi = 0 is
    # certified and no cap note says it may not be tight
    space = invariant_space(build_pair(*cyclotomic_pairs[15]))
    assert signature(space) == (8, 0) and 7 ** 8 > SEARCH_CAP
    for cert in (witt_decompose(space, 3), q_rank(space, 3)):
        assert (cert.lo, cert.hi, cert.notes) == (0, 0, ())


# ------------------------------------------- witt, rebuilt-lattice reference

def _int_kernel(rows, n):
    """Basis of the integer kernel lattice of the given integer rows."""
    basis = linalg.identity(n)
    for r in rows:
        projected = linalg.mat_vec(basis, r)
        if all(x == 0 for x in projected):
            continue
        basis = linalg.mat_mul(int_row_kernel(projected), basis)
    return basis


def _scaled_int_row(space_gram, vec):
    """G.vec cleared to a primitive integer row (same kernel)."""
    return list(linalg.primitive_integer(linalg.mat_vec(space_gram, vec)))


def _reference_witt_decompose(gram, bound, seeds=()):
    """Reference: the greedy splitting with every stage's lattice rebuilt
    from all constraints so far and its restricted Gram B G B^T rebuilt
    from the full form, and the partner's lattice rebuilt from them and
    the unused seeds' rows.  The seeds must be valid: each stage takes
    the next one."""
    n = len(gram)
    witnesses = []
    constraints = []
    notes = []
    pending = [tuple(s) for s in seeds]
    while True:
        basis = _int_kernel(constraints, n)
        k = len(basis)
        if k == 0:
            residual_diag = ()
            break
        restricted = linalg.mat_mul(
            basis, linalg.mat_mul(gram, linalg.transpose(basis)))
        residual_diag, _ = ref_diagonalize(restricted)
        w = pending.pop(0) if pending else None
        if w is None:
            # a definite stage stops before the cap is checked
            if all(d > 0 for d in residual_diag) or \
                    all(d < 0 for d in residual_diag):
                break
            if (2 * bound + 1) ** k > SEARCH_CAP:
                notes.append(
                    f"stage {len(witnesses) + 1}: search over "
                    f"{(2 * bound + 1) ** k} tuples exceeds the cap; "
                    "lower bound may not be tight")
                if k >= 5:
                    notes.append(CAP_NOTE)
                break
            # an indefinite stage in >= 5 variables has a rational zero:
            # an empty box doubles the bound while the doubled box fits
            while True:
                c = next(_box_solutions(restricted, bound), None)
                if c is not None or k < 5:
                    break
                if (2 * (2 * bound) + 1) ** k > SEARCH_CAP:
                    notes.append(CAP_NOTE)
                    break
                bound = 2 * bound
            if c is None:
                break
            x = tuple(sum(c[j] * basis[j][i] for j in range(k))
                      for i in range(n))
            lead = next(t for t in x if t != 0)
            w = x if lead > 0 else tuple(-t for t in x)
        # the partner lattice, rebuilt from the constraints and the unused
        # seeds' rows
        candidates = _int_kernel(
            constraints + [_scaled_int_row(gram, s) for s in pending], n)
        partner = next((u for u in candidates
                        if linalg.vec_dot(w, gram, u) != 0), None)
        if partner is None:
            notes.append(f"stage {len(witnesses) + 1}: isotropic vector "
                         "without a pairing partner; stopped")
            break
        witnesses.append(w)
        constraints.append(_scaled_int_row(gram, w))
        constraints.append(_scaled_int_row(gram, partner))
    pr = sum(1 for d in residual_diag if d > 0)
    qr = sum(1 for d in residual_diag if d < 0)
    lo = len(witnesses)
    return RankCertificate(lo=lo, hi=lo + min(pr, qr),
                           isotropic_witnesses=tuple(witnesses),
                           residual_diagonal=residual_diag,
                           notes=tuple(notes))


def _carried_witt_decompose(space, bound, seeds=()):
    """Reference: the loop that carried R beside B, updating it as
    R <- K R K^T by two dense products at every cut, and took every
    stage's congruence diagonal whether or not the stage read it; each
    cut, the partner's too, is a matrix product with an int_row_kernel
    basis."""
    gram = space.gram
    n = len(gram)
    basis, restricted = linalg.identity(n), gram
    witnesses, notes = [], []
    pending = [tuple(s) for s in seeds]
    carried = space.diagonal
    while True:
        k = len(basis)
        if k == 0:
            residual_diag = ()
            break
        residual_diag = carried if carried is not None \
            else congruence_diagonal(restricted)
        carried = None
        w = pending.pop(0) if pending else None
        if w is None:
            # a definite stage stops before the cap is checked
            if all(d > 0 for d in residual_diag) or \
                    all(d < 0 for d in residual_diag):
                break
            over = (2 * bound + 1) ** k > SEARCH_CAP
            if over:
                notes.append(
                    f"stage {len(witnesses) + 1}: search over "
                    f"{(2 * bound + 1) ** k} tuples exceeds the cap; "
                    "lower bound may not be tight")
            # the bounds this stage may search: b, 2b, 4b, ... while the
            # box fits, past b only in >= 5 variables
            tries = [] if over else [bound]
            while k > 4 and tries and \
                    (4 * tries[-1] + 1) ** k <= SEARCH_CAP:
                tries.append(2 * tries[-1])
            for bound in tries:
                c = next(_box_solutions(restricted, bound), None)
                if c is not None:
                    break
            else:
                if k > 4:
                    notes.append(CAP_NOTE)
                break
            x = tuple(sum(c[j] * basis[j][i] for j in range(k))
                      for i in range(n))
            lead = next(t for t in x if t != 0)
            w = x if lead > 0 else tuple(-t for t in x)
        # the partner lattice: B cut by each unused seed's row
        candidates = basis
        for s in pending:
            projected = linalg.mat_vec(
                candidates, linalg.primitive_integer(linalg.mat_vec(gram, s)))
            if any(x != 0 for x in projected):
                candidates = linalg.mat_mul(int_row_kernel(projected),
                                            candidates)
        partner = next((u for u in candidates
                        if linalg.vec_dot(w, gram, u) != 0), None)
        if partner is None:
            notes.append(f"stage {len(witnesses) + 1}: isotropic vector "
                         "without a pairing partner; stopped")
            break
        witnesses.append(w)
        for vec in (w, partner):
            row = linalg.primitive_integer(linalg.mat_vec(gram, vec))
            projected = linalg.mat_vec(basis, row)
            if any(x != 0 for x in projected):
                cut = int_row_kernel(projected)
                basis = linalg.mat_mul(cut, basis)
                # cut R cut^T entrywise: a cut with no rows has no
                # transpose of the right shape to multiply by
                restricted = [[linalg.vec_dot(x, restricted, y) for y in cut]
                              for x in cut]
    pr = sum(1 for d in residual_diag if d > 0)
    qr = sum(1 for d in residual_diag if d < 0)
    lo = len(witnesses)
    return RankCertificate(lo=lo, hi=lo + min(pr, qr),
                           isotropic_witnesses=tuple(witnesses),
                           residual_diagonal=residual_diag,
                           notes=tuple(notes))


def _same_witt(space, bound, seeds=()):
    got = witt_decompose(space, bound, seeds=seeds)
    # repr tells an int from an equal Fraction, which == does not
    assert repr(got) == repr(_reference_witt_decompose(space.gram, bound,
                                                       seeds)), \
        (space.gram, bound, seeds)
    assert repr(got) == repr(_carried_witt_decompose(space, bound, seeds)), \
        (space.gram, bound, seeds)
    return got


def _witt_pairs():
    cases = [pytest.param(e.f_text, e.g_text, id=e.name)
             for e in corpus.ENTRIES]
    cases += [pytest.param(render(f), render(g), id=f"battery-{i:02d}")
              for i, (f, g) in enumerate(random_cyclotomic_pairs())]
    return cases


@pytest.mark.parametrize("f_text, g_text", _witt_pairs())
def test_witt_matches_rebuilt_lattice_reference(f_text, g_text):
    space = invariant_space(pair_of(f_text, g_text))
    for bound in (1, 2, 3):
        _same_witt(space, bound)


# the padded pass takes the lifted base witnesses as seeds, so its first
# stages form no R; at bound 1 the stage after them walks a
# 13-dimensional box
@pytest.mark.parametrize("P, Q, bound", [(P, Q, b) for P, Q in PADS
                                         for b in (1, 2, 3)])
def test_witt_matches_reference_on_pads_with_lifted_seeds(P, Q, bound):
    f0, g0 = parse_poly(BASE_F), parse_poly(BASE_G)
    pp = pad_pair(f0, g0, parse_poly(P, var="y"), parse_poly(Q, var="y"))
    seeds = tuple(embed_vector(pp, w) for w in witt_decompose(
        invariant_space(build_pair(f0, g0)), bound).isotropic_witnesses)
    assert seeds
    cert = _same_witt(invariant_space(pp.pair), bound, seeds)
    assert cert.isotropic_witnesses[:len(seeds)] == seeds


def _valid_seeds(rng: random.Random, gram, count: int) -> list:
    """Up to count of the form's nonzero isotropic vectors at bound 1, in
    random order, each kept if it is orthogonal to the ones kept before
    it and independent of them: a seed set witt_decompose accepts."""
    hits = list(_box_solutions(gram, 1))
    rng.shuffle(hits)
    seeds = []
    for h in hits:
        if len(seeds) == count:
            break
        if all(linalg.vec_dot(s, gram, h) == 0 for s in seeds) \
                and linalg.rank(seeds + [h]) == len(seeds) + 1:
            seeds.append(h)
    return seeds


def _witt_case(rng: random.Random, i: int):
    """A symmetric int Gram of dimension 1-7: random entries, with a zero
    row (a radical), or block diagonal from definite, indefinite,
    hyperbolic and degenerate blocks, plain or congruent under a random
    unimodular matrix.  Every third case takes seeds: up to two of the
    form's isotropic vectors at bound 1, in random order, each kept if
    it is orthogonal to and independent of those before it."""
    dim = rng.randint(1, 7)
    gram = [[0] * dim for _ in range(dim)]
    kind = i % 4
    if kind >= 2:
        k = 0
        while k < dim:
            block = rng.choice([b for b in _BLOCKS if len(b) <= dim - k])
            for a, row in enumerate(block):
                for b, x in enumerate(row):
                    gram[k + a][k + b] = x
            k += len(block)
        if kind == 3:
            m = random_unimodular(rng, dim)
            gram = linalg.mat_mul(linalg.transpose(m),
                                  linalg.mat_mul(gram, m))
    else:
        for a in range(dim):
            for b in range(a, dim):
                gram[a][b] = gram[b][a] = rng.randint(-3, 3)
        if kind == 1:
            z = rng.randrange(dim)
            for a in range(dim):
                gram[a][z] = gram[z][a] = 0
    seeds = _valid_seeds(rng, gram, 2) if i % 3 == 0 else []
    return gram, rng.choice((1, 2)), seeds


@pytest.mark.parametrize("chunk", range(4))
def test_witt_matches_reference_on_random_grams(chunk):
    rng = random.Random(20261019 + chunk)
    stops = set()
    for i in range(80):
        gram, bound, seeds = _witt_case(rng, i)
        cert = _same_witt(space_of(gram), bound, seeds)
        stops.update(note.split(": ", 1)[1] for note in cert.notes)
        if cert.lo and cert.residual_diagonal == ():
            stops.add("empty lattice")
    assert {"isotropic vector without a pairing partner; stopped",
            "empty lattice"} <= stops
