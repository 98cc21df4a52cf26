"""End-to-end gate: nine frozen checks covering the form, the rank
certificates, the unipotent witness, the padded families, the worked-example
catalogue, and the command line.  Every comparison is exact."""
import random

from orthomono import cli, linalg
from orthomono.corpus import ENTRIES, ERRATA, run_suite
from orthomono.monodromy import PairValidationError, build_pair
from orthomono.padding import (embed_vector, isometry_check, pad_pair,
                               remainder_coeff_check)
from orthomono.parsing import parse_poly
from orthomono.quadform import (QuadSpace, cyclic_gram_row, gram_invariance,
                                invariant_space, isotropic_search, q_rank,
                                signature, signature_interlace)
from orthomono.witness import (WitnessContext, in_unipotent_radical,
                               orthocomplement, reflection_matrix,
                               span_rank_witness)

from conftest import BASE_F, BASE_G, cleared, random_unimodular

import pytest


def P(text):
    return parse_poly(text)


def rank_certificate(pair):
    return q_rank(invariant_space(pair), 3)


@pytest.fixture(scope="module")
def base():
    return build_pair(P(BASE_F), P(BASE_G))


@pytest.fixture(scope="module")
def base_gram(base):
    return invariant_space(base).gram


def test_c1_gram_row_of_the_reference_pair():
    assert cyclic_gram_row(P(BASE_F), P(BASE_G)) == (2, 1, 2, 2, 1)


def test_c2_isotropic_vector_and_its_orthocomplement(base, base_gram):
    # cyclic coordinates: v = e0, Av = e1, A^2 v = e2
    eps = (1, 0, -1, 0, 0)  # v - A^2 v
    assert linalg.vec_dot(eps, base_gram, eps) == 0
    perp = orthocomplement(base_gram, eps)
    assert linalg.rank([list(w) for w in perp]) == 4
    # eps-perp = span{eps, v, Av, A^3 v + A^4 v - v}
    stated = [list(eps), [1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
              [-1, 0, 0, 1, 1]]
    assert linalg.rank(stated) == 4
    assert linalg.rank(stated + [list(w) for w in perp]) == 4


def test_c3_rank_certificates(base):
    cert = rank_certificate(base)
    assert (cert.lo, cert.hi) == (2, 2)
    assert cert.isotropic_witnesses == ((0, 0, 1, 0, -1), (1, 1, -1, -1, 1))
    assert cert.residual_diagonal == (8,)

    # the rank-1 neighbour: residual ternary of signature (2, 1) that a
    # mod 5^2 certificate closes
    rank1 = build_pair(P("(x-1)*(x^2+1)*(x^2+x+1)"),
                       P("(x+1)*(x^5-1)/(x-1)"))
    cert1 = rank_certificate(rank1)
    assert (cert1.lo, cert1.hi) == (1, 1)
    residual = cert1.residual_diagonal
    assert len(residual) == 3
    assert (sum(1 for d in residual if d > 0),
            sum(1 for d in residual if d < 0)) == (2, 1)
    assert [(o.prime, o.exponent) for o in cert1.obstructions] == [(5, 2)]

    # the printed companion of that example recomputes to rank 2; its
    # stated rank is carried as a catalogued misprint, not reproduced here
    neighbour = build_pair(P("(x-1)*(x^2+1)^2"), P("(x+1)*(x^5-1)/(x-1)"))
    certn = rank_certificate(neighbour)
    assert (certn.lo, certn.hi) == (2, 2)


def test_c4_interlacing_matches_diagonalization_everywhere():
    for entry in ENTRIES:
        pair = build_pair(P(entry.f_text), P(entry.g_text))
        p, q = signature(invariant_space(pair))
        assert signature_interlace(pair.f, pair.g) == abs(p - q) == 1
        if entry.name == "base":
            assert {p, q} == {2, 3}


def test_c5_unipotent_stabilizer_and_translation_span(base, base_gram):
    ctx = WitnessContext(base)
    e0 = (1, 0, 0, 0, 0)
    e1 = (0, 1, 0, 0, 0)
    e2 = (0, 0, 1, 0, 0)
    vprime = (-1, 0, 0, 1, 1)
    eps = (-1, 0, 1, 0, 0)  # A^2 v - v; u translates v by twice this
    # C_{A^2 v} C_v, the reflection about A^2 v being the word A^2 C A^-2
    u = ctx.verified(("A", "A", "C", "A^-1", "A^-1", "C"),
                     linalg.mat_mul(reflection_matrix(base_gram, e2),
                                    reflection_matrix(base_gram, e0)))
    assert in_unipotent_radical(u, eps, ctx)
    assert tuple(linalg.mat_vec(u.matrix, e0)) == (-1, 0, 2, 0, 0)
    # u as the pair (A^2 v, v), and the axes v, Av and v', each an image
    # of v with its word, so every reflection is a word in <A, C>
    vprime_word = ("A^-1", "A^-1", "C", "A", "A", "C", "A^-1")
    assert tuple(col[0] for col in ctx.element(vprime_word).matrix) \
        == vprime
    assert span_rank_witness([((("A", "A"), e2), ((), e0))],
                             [((), e0), (("A",), e1), (vprime_word, vprime)],
                             eps, ctx) == 3


def test_c6_padded_families_embed_and_keep_rank():
    f0, g0 = P(BASE_F), P(BASE_G)
    base_cert = rank_certificate(build_pair(f0, g0))
    for p_text in ("y^2+y+1", "y^2-y+1"):
        pp = pad_pair(f0, g0, parse_poly(p_text, var="y"),
                      parse_poly("y^2+1", var="y"))
        assert pp.f.degree == 17
        assert remainder_coeff_check(pp)
        assert isometry_check(pp)
        space = invariant_space(pp.pair)
        seeds = [embed_vector(pp, w) for w in base_cert.isotropic_witnesses]
        cert = q_rank(space, 3, seeds=seeds)
        assert cert.lo >= 2


def test_c7_worked_example_catalogue_is_fully_explained(capsys):
    suite = run_suite()
    assert suite.ok
    assert suite.out_of_order() == []
    found = suite.errata_found()
    assert found == set(ERRATA)
    assert "dropped-term" in found        # the omitted Av term
    assert "swapped-signs" in found       # the sign-flip family
    assert "aside-sign-slip" in found
    assert cli.main(["examples", "--quiet"]) == 0
    capsys.readouterr()


def test_c8_random_pair_battery(cyclotomic_pairs):
    pairs = [build_pair(f, g) for f, g in cyclotomic_pairs]
    assert len(pairs) == 50
    grams = []
    for pair in pairs:
        # raises unless A and C preserve the remainder Gram
        G = gram_invariance(pair, invariant_space(pair))
        for M in (pair.A, pair.B):
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
        # times its positive common denominator, an int Gram of the same
        # signature
        grams.append(tuple(map(tuple, cleared(G))))
    rng = random.Random(20260823)
    for k in range(20):
        G = grams[rng.randrange(len(grams))]
        t = random_unimodular(rng, len(G))
        moved = linalg.mat_mul(linalg.transpose(t), linalg.mat_mul(G, t))
        assert signature(QuadSpace(tuple(map(tuple, moved)))) \
            == signature(QuadSpace(G))


def test_c9_edge_cases(capsys):
    doc = cli.build_report("x^2-x+1", "x^2+x+1")
    assert doc["witness"]["conclusion"] == "out-of-scope(symplectic)"
    assert cli.main(["analyze", "--f", "x^2-x+1", "--g", "x^2+x+1",
                     "--quiet"]) == 0

    with pytest.raises(PairValidationError, match="coprime"):
        build_pair(P("x^3-1"), P("(x^2+x+1)*(x+1)"))
    assert cli.main(["analyze", "--f", "x^3-1",
                     "--g", "(x^2+x+1)*(x+1)", "--quiet"]) == 2

    tiny = build_pair(P("x-1"), P("x+1"))
    space = invariant_space(tiny)
    p, q = signature(space)
    assert abs(p - q) == 1
    assert isotropic_search(space.gram, 3) == []
    capsys.readouterr()
