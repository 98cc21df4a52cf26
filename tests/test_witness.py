"""Reflections, parabolic line stabilizers, translation vectors, and the
unipotent witness machinery, pinned on the reference quintic pair."""
from fractions import Fraction

import pytest

from orthomono import cli, corpus, linalg
from orthomono.monodromy import build_pair
from orthomono.parsing import parse_poly
from orthomono.quadform import invariant_space, q_rank, signature
from orthomono.witness import (INCONCLUSIVE, OUT_OF_SCOPE, WITNESSED,
                               GroupElement, WitnessContext,
                               arithmeticity_report, conjugate,
                               integral_reflection_vectors,
                               line_stabilizer_test, orthocomplement, reflect,
                               reflection_matrix, span_rank_witness,
                               translation_vector, unipotent_from_reflections)
from orthomono.witness import _radical_factors


@pytest.fixture(scope="module")
def ctx(base_pair, base_space):
    return WitnessContext(base_pair, base_space)


def e(k, n=5):
    return tuple(int(i == k) for i in range(n))

EPS = (-1, 0, 1, 0, 0)          # A^2 v - v in the cyclic basis
VPRIME = (-1, 0, 0, 1, 1)       # A^3 v + A^4 v - v
U_MATRIX = ((-1, -1, -2, -2, -1),
            (0, 1, 0, 0, 0),
            (2, 1, 3, 3, 0),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1))


@pytest.fixture(scope="module")
def u(ctx):
    cv = reflection_matrix(ctx.gram, e(0))
    ca2v = reflection_matrix(ctx.gram, e(2))
    return ctx.verified(ca2v.word + cv.word,
                        linalg.mat_mul(ca2v.matrix, cv.matrix))


# --------------------------------------------------------------- reflections

def test_reflect_formula(ctx):
    H = ctx.gram
    v = e(0)
    assert reflect(H, v, v) == tuple(-Fraction(x) for x in v)
    x = (3, 1, -2, 0, 4)
    image = reflect(H, v, x)
    # v has norm 2, so the formula drops to x - (x.v) v
    xv = linalg.vec_dot(x, H, v)
    assert image == tuple(Fraction(a) - xv * b for a, b in zip(x, v))
    assert reflect(H, v, image) == tuple(Fraction(a) for a in x)  # involution
    assert linalg.vec_dot(image, H, image) == linalg.vec_dot(x, H, x)


def test_reflect_rejects_isotropic_axis(ctx):
    with pytest.raises(ValueError, match="isotropic"):
        reflect(ctx.gram, EPS, e(0))


def test_reflection_matrix_is_the_generator(ctx):
    cv = reflection_matrix(ctx.gram, e(0))
    assert cv.matrix == ctx.C
    assert cv.word == ("C[1,0,0,0,0]",)
    assert not cv.is_identity
    assert linalg.mat_eq(linalg.mat_mul(cv.matrix, cv.matrix),
                         linalg.identity(5))


def test_reflection_matrix_integrality_guard(ctx):
    # norm 6 axis: 2 (e3 . w) / (w . w) = 8/6 is not integral
    with pytest.raises(ValueError, match="not integral"):
        reflection_matrix(ctx.gram, (1, 1, 0, 0, 0))


def test_conjugate(ctx):
    a = ctx.element(("A",))
    c = ctx.element(("C",))
    g = conjugate(a, c)
    assert g.word == ("A", "C", "A^-1")
    expected = linalg.mat_mul(ctx.A, linalg.mat_mul(ctx.C, ctx.A_inv))
    assert linalg.mat_eq(g.matrix, expected)
    # C_{Av} = A C_v A^-1: conjugation moves the reflection axis
    assert g.matrix == reflection_matrix(ctx.gram, e(1)).matrix


# ------------------------------------------------------------------- context

def test_context_generators_preserve_form(ctx):
    H = ctx.gram
    for m in (ctx.A, ctx.A_inv, ctx.B, ctx.B_inv, ctx.C):
        assert linalg.mat_eq(
            linalg.mat_mul(linalg.transpose(m), linalg.mat_mul(H, m)), H)


def test_verified_rejects_mismatch(ctx):
    with pytest.raises(ValueError, match="does not match"):
        ctx.verified(("A",), ctx.C)


def test_word_orbit_deterministic_and_cached(ctx):
    first = ctx.word_orbit(4)
    again = ctx.word_orbit(4)
    assert first == again
    fresh = WitnessContext(ctx.pair, ctx.space).word_orbit(4)
    assert first[0] == fresh[0] and first[1] == fresh[1]


# ------------------------------------------------------------ orthocomplement

def test_orthocomplement_base(ctx):
    perp, quotient = orthocomplement(ctx.gram, EPS)
    assert perp == [(-1, 0, 1, 0, 0), (0, 1, 0, 0, 0),
                    (0, 0, 1, 0, 0), (0, 0, 0, 1, 1)]
    assert quotient == perp[1:]
    for w in perp:
        assert linalg.vec_dot(w, ctx.gram, EPS) == 0
    assert linalg.rank([list(w) for w in perp]) == 4


def test_orthocomplement_matches_lemma_span(ctx):
    # eps-perp is also spanned by eps, v, Av, v' = A^3v + A^4v - v
    perp, _ = orthocomplement(ctx.gram, EPS)
    stated = [list(EPS), list(e(0)), list(e(1)), list(VPRIME)]
    assert linalg.rank(stated) == 4
    assert linalg.rank(stated + [list(w) for w in perp]) == 4


def test_orthocomplement_validation(ctx):
    with pytest.raises(ValueError, match="nonzero"):
        orthocomplement(ctx.gram, (0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="isotropic"):
        orthocomplement(ctx.gram, e(0))
    with pytest.raises(ValueError, match="primitive"):
        orthocomplement(ctx.gram, tuple(2 * x for x in EPS))


# ------------------------------------------------------- stabilizer and u

def test_u_is_the_expected_matrix(u):
    assert u.matrix == U_MATRIX


def test_u_line_stabilizer(ctx, u):
    st = line_stabilizer_test(u, EPS, ctx.gram)
    assert (st.fixes_line, st.fixes_vector, st.in_unipotent_radical) \
        == (True, True, True)


def test_u_moves_v_by_twice_eps(ctx, u):
    image = tuple(linalg.mat_vec(u.matrix, e(0)))
    assert image == (-1, 0, 2, 0, 0)
    assert image == tuple(a + 2 * b for a, b in zip(e(0), EPS))


def test_reflection_stabilizes_but_is_not_unipotent(ctx):
    cv = reflection_matrix(ctx.gram, e(0))
    st = line_stabilizer_test(cv, EPS, ctx.gram)
    assert (st.fixes_line, st.fixes_vector, st.in_unipotent_radical) \
        == (True, True, False)


def test_generic_element_moves_the_line(ctx):
    a = ctx.element(("A",))
    st = line_stabilizer_test(a, EPS, ctx.gram)
    assert (st.fixes_line, st.fixes_vector, st.in_unipotent_radical) \
        == (False, False, False)


def test_translation_vector(ctx, u):
    assert translation_vector(u, EPS, ctx.gram) == (0, 1, 0)
    with pytest.raises(ValueError, match="radical"):
        translation_vector(reflection_matrix(ctx.gram, e(0)), EPS, ctx.gram)


def test_translation_moves_under_conjugation(ctx, u):
    r = reflection_matrix(ctx.gram, e(1))  # Av is orthogonal to eps
    moved = conjugate(r, u)
    t0 = translation_vector(u, EPS, ctx.gram)
    t1 = translation_vector(moved, EPS, ctx.gram)
    assert t1 != t0


# ----------------------------------------------------------------- searches

def test_unipotent_from_reflections(ctx, u):
    found = unipotent_from_reflections(ctx, EPS, 8)
    assert found.word == ("A", "A", "C", "A^-1", "A^-1", "C")
    assert found.matrix == u.matrix


def test_unipotent_search_can_come_up_empty(ctx):
    assert unipotent_from_reflections(ctx, EPS, 1) is None


def test_unipotent_search_validates_eps(ctx):
    with pytest.raises(ValueError, match="isotropic"):
        unipotent_from_reflections(ctx, e(0), 8)


def test_integral_reflection_vectors(ctx):
    vectors = integral_reflection_vectors(ctx, EPS)
    assert len(vectors) == 12
    assert vectors[:3] == [e(0), e(1), e(2)]
    for w in vectors:
        assert linalg.vec_dot(w, ctx.gram, w) == 2
        assert linalg.vec_dot(w, ctx.gram, EPS) == 0
        assert next(x for x in w if x != 0) > 0


# ----------------------------------------------------------------- span rank

def test_span_rank_with_lemma_triple(ctx, u):
    refl = [reflection_matrix(ctx.gram, w) for w in (e(0), e(1), VPRIME)]
    assert span_rank_witness(u, refl, EPS, ctx.gram) == 3


def test_span_rank_with_proof_triple_falls_short(ctx, u):
    # A^2 v is congruent to v modulo eps, so this triple spans only a
    # plane of the quotient and the conjugates cannot fill the
    # translation group
    refl = [reflection_matrix(ctx.gram, w) for w in (e(0), e(2), VPRIME)]
    assert span_rank_witness(u, refl, EPS, ctx.gram) == 2
    quotient_span = [list(EPS), list(e(0)), list(e(2)), list(VPRIME)]
    assert linalg.rank(quotient_span) == 3  # not all of eps-perp


def test_span_rank_validation(ctx, u):
    cv = reflection_matrix(ctx.gram, e(0))
    with pytest.raises(ValueError, match="radical"):
        span_rank_witness(cv, [cv], EPS, ctx.gram)
    a = ctx.element(("A",))
    with pytest.raises(ValueError, match="fix the line"):
        span_rank_witness(u, [a], EPS, ctx.gram)
    # u fixes the line but is no involution, so it cannot carry its own
    # inverse through the conjugate products
    with pytest.raises(ValueError, match="involution"):
        span_rank_witness(u, [u], EPS, ctx.gram)


# ------------------------------------------------------------------- reports

def hunt(pair):
    """Signature, rank certificate and witness report, as analyze runs
    them, with search bound 3 and word bound 8."""
    space = invariant_space(pair)
    sig = signature(space)
    cert = q_rank(space, sig, 3)
    return sig, cert, arithmeticity_report(WitnessContext(pair, space), sig,
                                           cert, 3, 8)


def test_report_base(base_pair):
    sig, cert, rep = hunt(base_pair)
    assert rep.conclusion == WITNESSED
    assert sig == (3, 2)
    assert rep.translation_rank == 3
    assert rep.epsilon == (0, 1, 0, 0, -1)
    assert rep.unipotent.word == ("A", "C", "A^-1", "C", "A^-1", "C",
                                  "A", "C", "A", "C", "A^-1", "C")
    assert len(rep.caveats) == 2
    assert (cert.lo, cert.hi) == (2, 2)


def test_report_deterministic(base_pair):
    assert hunt(base_pair) == hunt(base_pair)


def test_report_symplectic():
    # symplectic pairs stop at classification, before any witness hunt
    doc = cli.build_report("x^2-x+1", "x^2+x+1")
    assert doc["witness"]["conclusion"] == OUT_OF_SCOPE
    assert doc["signature"] is None
    assert doc["q_rank"] is None
    assert doc["witness"]["unipotent"] is None


def test_report_degree_one():
    sig, cert, rep = hunt(build_pair(parse_poly("x-1"), parse_poly("x+1")))
    assert rep.conclusion == INCONCLUSIVE
    assert sig == (1, 0)
    assert (cert.lo, cert.hi) == (0, 0)
    assert rep.epsilon is None
    assert rep.unipotent is None


# ------------------------------------------------------- radical factors

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_radical_factors_on_worked_pair(entry):
    # the witnessed (eps, u) of the pair, conjugated by every product of
    # at most two of its span reflections
    pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
    space = invariant_space(pair)
    sig = signature(space)
    ctx = WitnessContext(pair, space)
    rep = arithmeticity_report(ctx, sig, q_rank(space, sig, 3), 3, 8)
    eps, u = rep.epsilon, rep.unipotent
    refl = [reflection_matrix(ctx.gram, w)
            for w in integral_reflection_vectors(ctx, eps)]
    products = [ctx.element(())] + refl + [ctx.element(a.word + b.word)
                                           for a in refl for b in refl]
    conjugates = [conjugate(m, u) for m in products]
    _, quotient = orthocomplement(ctx.gram, eps)

    factors = [_radical_factors(c.matrix, eps, quotient) for c in conjugates]
    translations = [translation_vector(c, eps, ctx.gram) for c in conjugates]
    for k in range(1, len(conjugates) + 1):
        assert linalg.rank(factors[:k]) == linalg.rank(translations[:k])
    assert linalg.rank(factors) == rep.translation_rank

    # the products themselves include elements outside the radical
    elements = conjugates + products + [ctx.element((t,))
                                        for t in ("A", "B", "C")]
    outcomes = set()
    for g in elements:
        radical = line_stabilizer_test(g, eps, ctx.gram).in_unipotent_radical
        assert (_radical_factors(g.matrix, eps, quotient) is None) \
            == (not radical)
        outcomes.add(radical)
    assert outcomes == {True, False}

    # x -> x + phi(x) eps moves each w by phi(w) eps; it fixes eps when
    # phi(eps) = 0 and sends eps to -eps when phi(eps) = -2
    def shear(phi):
        return tuple(tuple(int(i == j) + eps[i] * phi[j]
                           for j in range(pair.n)) for i in range(pair.n))
    q0 = linalg.mat_vec(ctx.gram, quotient[0])  # q0 . eps = 0
    assert _radical_factors(shear(q0), eps, quotient) \
        == [linalg.vec_dot(quotient[0], ctx.gram, w) for w in quotient]
    # column 0 of the inverse of a unimodular matrix with first row eps
    # pairs with eps to 1
    c = [row[0] for row in linalg.inverse(
        linalg.unimodular_with_first_row(eps))]
    flip = GroupElement((), shear([-2 * x for x in c]))
    assert _radical_factors(flip.matrix, eps, quotient) is None
    st = line_stabilizer_test(flip, eps, ctx.gram)
    assert (st.fixes_line, st.fixes_vector, st.in_unipotent_radical) \
        == (True, False, False)
