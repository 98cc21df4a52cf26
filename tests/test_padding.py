"""Degree padding: hypothesis validation, the two embedding checks, and
witness lifting into the padded form."""
import random

import pytest

from orthomono import linalg
from orthomono.monodromy import PairValidationError, build_pair
from orthomono.padding import (DEFAULT_EXPONENT, PaddedPair, embed_vector,
                               isometry_check, pad_pair, remainder_coeff_check)
from orthomono.parsing import parse_poly
from orthomono.polynomials import IntPoly, cyclotomic, euler_phi
from orthomono.quadform import invariant_space, q_rank, signature

from conftest import gcd

F0 = parse_poly("x^5-1")
G0 = parse_poly("(x+1)*(x^2+1)^2")
FAMILY_P = {1: parse_poly("(y^2+y+1)", var="y"),
            2: parse_poly("(y^2-y+1)", var="y")}
FAMILY_Q = parse_poly("(y^2+1)", var="y")


@pytest.mark.parametrize("family", [1, 2])
def test_listed_families(family):
    pp = pad_pair(F0, G0, FAMILY_P[family], FAMILY_Q)
    assert pp.d == DEFAULT_EXPONENT == 6
    assert pp.m == 2
    assert pp.f.degree == 17
    assert remainder_coeff_check(pp)
    assert isometry_check(pp)
    # pad_pair built the composed pair through full validation
    assert (pp.pair.f, pp.pair.g) == (pp.f, pp.g)


def test_padded_rank_bound_inherits(base_space):
    base_cert = q_rank(base_space, 3)
    assert base_cert.lo == 2
    pp = pad_pair(F0, G0, FAMILY_P[1], FAMILY_Q)
    space = invariant_space(pp.pair)
    seeds = [embed_vector(pp, w) for w in base_cert.isotropic_witnesses]
    for seed in seeds:
        assert linalg.vec_dot(seed, space.gram, seed) == 0
    cert = q_rank(space, 3, seeds=seeds)
    assert cert.lo >= 2
    assert cert.hi >= cert.lo
    assert cert.notes  # at this size the search runs into its budget


def test_embedding_is_isometric_on_grams(base_space):
    pp = pad_pair(F0, G0, FAMILY_P[2], FAMILY_Q)
    space = invariant_space(pp.pair)
    images = [embed_vector(pp, tuple(int(i == k) for i in range(5)))
              for k in range(5)]
    for i in range(5):
        for j in range(5):
            assert linalg.vec_dot(images[i], space.gram,
                                  images[j]) == base_space.gram[i][j]
    # the padded Gram is Toeplitz, so any five consecutive cyclic basis
    # vectors have the base Gram; in cyclic coordinates the embedding must
    # also send v0 to v and commute with the generators, A0 w -> A w
    n = pp.f.degree
    assert images[0] == tuple(int(i == 0) for i in range(n))
    a0 = build_pair(F0, G0).A
    for k in range(4):
        assert embed_vector(pp, tuple(a0[i][k] for i in range(5))) \
            == tuple(linalg.mat_vec(pp.pair.A, images[k]))


def test_embed_vector():
    pp = pad_pair(F0, G0, FAMILY_P[1], FAMILY_Q)
    assert embed_vector(pp, (1, 1, -1, -1, 1)) == \
        (1, 1, -1, -1, 1) + (0,) * 12
    with pytest.raises(ValueError):
        embed_vector(pp, (1, 0, 0))


def test_exponent_threshold():
    # below d = 5 the low-degree terms of Q(x^d) interfere with the 5x5
    # block; at d = 5 they reach only t_5, which neither check reads
    expectations = {1: (False, False), 2: (False, False), 5: (True, True),
                    6: (True, True), 7: (True, True), 12: (True, True)}
    for d, (rem_ok, iso_ok) in expectations.items():
        pp = pad_pair(F0, G0, FAMILY_P[1], FAMILY_Q, d)
        assert remainder_coeff_check(pp) is rem_ok, d
        assert isometry_check(pp) is iso_ok, d


def test_zero_degree_padding_is_the_base_pair():
    one = parse_poly("(1)", var="y")
    pp = pad_pair(F0, G0, one, one)
    assert pp.m == 0
    assert pp.f == F0 and pp.g == G0
    assert remainder_coeff_check(pp) and isometry_check(pp)


def test_higher_multiplicity_family():
    pp = pad_pair(F0, G0, FAMILY_P[1] ** 2, FAMILY_Q ** 2)
    assert pp.f.degree == 29
    assert remainder_coeff_check(pp)
    assert isometry_check(pp)


@pytest.mark.parametrize("f0, g0, P, Q, d, fragment", [
    ("x^3-1", "(x+1)*(x^2+1)", "(y^2+y+1)", "(y^2+1)", 6, "degree 5"),
    ("x^5+1", "(x+1)*(x^2+1)^2", "(y^2+y+1)", "(y^2+1)", 6, r"f0\(0\)"),
    ("x^5-1", "(x+1)*(x^2+1)^2", "(2y^2+y+1)", "(y^2+1)", 6, "monic"),
    ("x^5-1", "(x+1)*(x^2+1)^2", "(y^3+1)", "(y^2+1)", 6, "equal degree"),
    ("x^5-1", "(x+1)*(x^2+1)^2", "(y^2+y+2)", "(y^2+1)", 6, "constant term 1"),
    ("x^5-1", "(x+1)*(x^2+1)^2", "(y^2+1)", "(y^2+1)", 6, "coprime"),
    ("x^5-1", "(x+1)*(x^2+1)^2", "(y^2+1)", "(y^2-2y+1)", 6, "coprime"),
    ("x^5-1", "(x+1)*(x^2+1)^2", "(y^2+y+1)", "(y^2+1)", 0, "exponent"),
])
def test_pad_pair_rejects(f0, g0, P, Q, d, fragment):
    with pytest.raises(PairValidationError, match=fragment):
        pad_pair(parse_poly(f0), parse_poly(g0),
                 parse_poly(P, var="y"), parse_poly(Q, var="y"), d)


def _monic_with_constant_one(rng: random.Random, m: int) -> IntPoly:
    if m == 0:
        return IntPoly((1,))
    return IntPoly(tuple([1] + [rng.randint(-3, 3) for _ in range(m - 1)]
                         + [1]))


def test_pad_coprimality_certificate_agrees_with_gcd():
    # pad's P, Q check is det(multiplication by Q on Q[y]/(P)) != 0; gcd
    # is the reference, on P = Q = 1 and random monic (P, Q) with
    # constant term 1, about half of which share a cyclotomic factor
    rng = random.Random(20261018)
    one = IntPoly((1,))
    cases = [(one, one)]
    for _ in range(300):
        m = rng.randint(0, 6)
        if m >= 1 and rng.random() < 0.5:
            phi = cyclotomic(rng.choice(
                [d for d in range(2, 31) if euler_phi(d) <= m]))
            k = m - phi.degree
            cases.append((phi * _monic_with_constant_one(rng, k),
                          phi * _monic_with_constant_one(rng, k)))
        else:
            cases.append((_monic_with_constant_one(rng, m),
                          _monic_with_constant_one(rng, m)))
    shared = 0
    for P, Q in cases:
        coprime = gcd(P, Q).degree == 0
        shared += not coprime
        try:
            pad_pair(F0, G0, P, Q, 1)
        except PairValidationError as exc:
            assert ("P and Q must be coprime" in str(exc)) is not coprime, \
                (P, Q, exc)
        else:
            assert coprime, (P, Q)
    assert 100 <= shared < len(cases)


def test_checks_catch_a_broken_pad():
    good = pad_pair(F0, G0, FAMILY_P[1], FAMILY_Q)
    bad = PaddedPair(f0=F0, g0=G0, P=FAMILY_P[1], Q=FAMILY_Q, d=6,
                     f=good.f, g=G0 * parse_poly("x^12+x^11+1"),
                     pair=good.pair)
    assert not remainder_coeff_check(bad)
    assert not isometry_check(bad)


def test_padded_signature_extends_base(base_space):
    # the padded form restricted to the embedded block is the base form,
    # so min(p, q) cannot drop
    p0, q0 = signature(base_space)
    pp = pad_pair(F0, G0, FAMILY_P[1], FAMILY_Q)
    p, q = signature(invariant_space(pp.pair))
    assert p >= min(p0, q0) and q >= min(p0, q0)
    assert p + q == 17
