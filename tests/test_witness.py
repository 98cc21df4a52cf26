"""Reflections, parabolic line stabilizers, translation vectors, and the
unipotent witness machinery, pinned on the reference quintic pair."""
import itertools
import math
import random
from fractions import Fraction

import pytest

from orthomono import cli, corpus, linalg, quadform, witness
from orthomono.monodromy import PairValidationError, build_pair, int_matrix
from orthomono.padding import pad_pair
from orthomono.parsing import parse_poly
from orthomono.polynomials import render
from orthomono.quadform import (SEARCH_CAP, OracleMismatchError, QuadSpace,
                                invariant_space, isotropic_search, q_rank,
                                signature)
from orthomono.witness import (INCONCLUSIVE, OUT_OF_SCOPE, WITNESSED,
                               GroupElement, WitnessContext,
                               arithmeticity_report,
                               in_unipotent_radical,
                               integral_reflection_vectors, orbit_candidates,
                               orthocomplement, reflection_matrix,
                               span_rank_witness,
                               unipotent_from_reflections)
from orthomono.witness import (_echelon_insert, _inverse_word,
                               _parallel_factor, _radical_factors)

from conftest import (BASE_F, BASE_G, cleared, column_eliminate,
                      quotient_perp, random_cyclotomic_pairs, reflect)


def conjugate(m, h):
    """Reference: the matrix m h m^-1, for a matrix m and an element h."""
    m_inv = int_matrix(linalg.inverse(m))
    return int_matrix(linalg.mat_mul(m, linalg.mat_mul(h.matrix, m_inv)))


def reflection_word(k):
    """The word A^k C A^-k of the reflection about A^k v."""
    return ("A",) * k + ("C",) + ("A^-1",) * k


def translation_coordinates(gram, quotient, factors):
    """The coordinates t, in the quotient basis, of the vector a with
    (w . a) = lambda_w for every quotient representative w."""
    qgram = [[linalg.vec_dot(wi, gram, wj) for wj in quotient]
             for wi in quotient]
    # the form descends nondegenerately to the quotient, so t is unique
    return tuple(Fraction(c)
                 for c in linalg.mat_vec(linalg.inverse(qgram), factors))


def quotient_indices(perp):
    """The indices i of the vectors perp[1:][i] that are independent
    modulo eps = perp[0], chosen greedily: each raises the rank of eps and
    the vectors chosen before it.  Over Q they represent a basis of
    eps-perp modulo the line through eps."""
    chosen, picked = [list(perp[0])], []
    for i, w in enumerate(perp[1:]):
        if linalg.rank(chosen + [list(w)]) > len(chosen):
            chosen.append(list(w))
            picked.append(i)
    return picked


def translation_vector(matrix, eps, ctx):
    """Reference: the quotient vector t with u(w) = w + (w.t) eps on
    eps-perp, in the quotient basis of quotient_indices over the basis of
    orthocomplement(), read off the matrix of u; zero iff u restricts to
    the identity on eps-perp."""
    perp = orthocomplement(ctx.gram, tuple(int(x) for x in eps))
    factors = _radical_factors(matrix, perp)
    if factors is None:
        raise ValueError("element is not in the unipotent radical")
    picked = quotient_indices(perp)
    return translation_coordinates(ctx.gram, [perp[1 + i] for i in picked],
                                   [factors[i] for i in picked])


@pytest.fixture(scope="module")
def ctx(base_pair, base_space):
    return WitnessContext(base_pair)


def e(k, n=5):
    return tuple(int(i == k) for i in range(n))

EPS = (-1, 0, 1, 0, 0)          # A^2 v - v in the cyclic basis
VPRIME = (-1, 0, 0, 1, 1)       # A^3 v + A^4 v - v
# the span axes as the hunt gives them, (word, image): A^k v and v'
VPRIME_AXIS = (("A^-1", "A^-1", "C", "A", "A", "C", "A^-1"), VPRIME)
# u = C_{A^2 v} C_v as the pair (A^2 v, v), which differ by EPS
U_PAIR = ((("A", "A"), e(2)), ((), e(0)))


def axis(k, n=5):
    """A^k v with its word A^k, a span axis."""
    return (("A",) * k, e(k, n))


def u_pair(ctx, eps, word_bound=8):
    """The pair of unipotent_from_reflections at eps: the key's image x
    and v, or -v = C(v) when x . v = -2, so C_x C_y is u."""
    word, x = ctx.word_orbit(word_bound)[1][linalg.sign_canonical(eps)]
    if linalg.vec_dot(x, ctx.gram, ctx.v) == 2:
        return (word, x), ((), ctx.v)
    return (word, x), (("C",), tuple(-a for a in ctx.v))
U_MATRIX = ((-1, -1, -2, -2, -1),
            (0, 1, 0, 0, 0),
            (2, 1, 3, 3, 0),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1))


@pytest.fixture(scope="module")
def u(ctx):
    # C_{A^2 v} C_v, checked against the product of the two reflections
    return ctx.verified(reflection_word(2) + reflection_word(0),
                        linalg.mat_mul(reflection_matrix(ctx.gram, e(2)),
                                       reflection_matrix(ctx.gram, e(0))))


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
    assert cv == ctx.generators["C"] == ctx.element(("C",)).matrix
    assert all(type(x) is int for row in cv for x in row)
    assert cv != int_matrix(linalg.identity(5))
    assert linalg.mat_eq(linalg.mat_mul(cv, cv), linalg.identity(5))


def test_reflection_matrix_integrality_guard(ctx):
    # norm 6 axis: 2 (e3 . w) / (w . w) = 8/6 is not integral
    with pytest.raises(ValueError, match="not integral"):
        reflection_matrix(ctx.gram, (1, 1, 0, 0, 0))


def test_conjugate(ctx):
    a = ctx.element(("A",))
    c = ctx.element(("C",))
    g = ctx.element(reflection_word(1))
    assert g.word == ("A", "C", "A^-1")
    assert g.matrix == conjugate(a.matrix, c)
    # C_{Av} = A C_v A^-1: conjugation moves the reflection axis
    assert g.matrix == reflection_matrix(ctx.gram, e(1))


# ------------------------------------------------------------------- context

def test_context_generators_preserve_form(ctx):
    H = ctx.gram
    assert list(ctx.generators) == ["A", "A^-1", "C"]
    # A C and its inverse C A^-1 are words in the generators
    b = ctx.element(("A", "C")).matrix
    b_inv = ctx.element(("C", "A^-1")).matrix
    assert linalg.mat_eq(linalg.mat_mul(b, b_inv), linalg.identity(5))
    for m in (ctx.A, ctx.A_inv, ctx.generators["C"], b, b_inv):
        assert linalg.mat_eq(
            linalg.mat_mul(linalg.transpose(m), linalg.mat_mul(H, m)), H)


def _dense_isometry(gram, m) -> bool:
    return linalg.mat_eq(linalg.mat_mul(linalg.transpose(m),
                                        linalg.mat_mul(gram, m)), gram)


# the isometry check pairs columns of m with columns of G m, entry by
# entry: moving any one entry of A, A^-1, C or u by one breaks the form,
# as the dense product m^T G m says too, and each breaks the check

def test_isometry_check_rejects_every_single_entry_change(ctx, u):
    n = ctx.n
    for label, m in (("A", ctx.A), ("A^-1", ctx.A_inv),
                     ("C", ctx.generators["C"]), ("u", u.matrix)):
        witness._check_isometry(ctx.gram, m, label)
        for i in range(n):
            for j in range(n):
                for delta in (1, -1):
                    bent = [list(row) for row in m]
                    bent[i][j] += delta
                    assert not _dense_isometry(ctx.gram, bent)
                    with pytest.raises(PairValidationError,
                                       match="does not preserve the form"):
                        witness._check_isometry(ctx.gram, bent, label)


# for a symmetric G the check compares m^T G m with G on and above the
# diagonal only; any other G is compared entry by entry, so a matrix that
# matches an asymmetric G above the diagonal alone is still rejected

def test_isometry_check_compares_every_entry_of_an_asymmetric_gram():
    gram = ((2, 2), (0, 2))
    m = ((1, 1), (0, 0))
    image = linalg.mat_mul(linalg.transpose(m), linalg.mat_mul(gram, m))
    assert image == [[2, 2], [2, 2]]
    assert all(image[i][j] == gram[i][j] for i in range(2)
               for j in range(i, 2))
    with pytest.raises(PairValidationError,
                       match="does not preserve the form"):
        witness._check_isometry(gram, m, "m")


def test_isometry_check_takes_n_by_n_matrices_only(ctx, u):
    m = [list(row) for row in u.matrix]
    for bad in (m[:-1], m + [m[0]], [row + [0] for row in m],
                m[:-1] + [m[-1][:-1]], [row[:-1] for row in m], []):
        with pytest.raises(ValueError):
            witness._check_isometry(ctx.gram, bad, "bad")


# the context builds its form through invariant_space, so a Gram that the
# pair's generators do not preserve fails _unpreserved_generator, and a
# context never holds one

def _context_with_remainder_gram(monkeypatch, pair, gram):
    monkeypatch.setattr(quadform, "gram_remainder",
                        lambda pair: QuadSpace(gram=gram))
    return WitnessContext(pair)


def test_unpreserved_generator_names_A_for_a_bent_gram(monkeypatch,
                                                       base_pair,
                                                       base_space):
    gram = [list(row) for row in base_space.gram]
    gram[0][1] += 1
    gram[1][0] += 1
    bent = tuple(map(tuple, gram))
    assert quadform._unpreserved_generator(base_pair, bent) == "A"
    with pytest.raises(OracleMismatchError, match="fails the A invariance"):
        _context_with_remainder_gram(monkeypatch, base_pair, bent)


def test_unpreserved_generator_names_C_for_a_doubled_gram(monkeypatch,
                                                          base_pair,
                                                          base_space):
    # A preserves 2 G, but its row 0 is not the normalization v.v = 2
    doubled = tuple(tuple(2 * x for x in row) for row in base_space.gram)
    assert quadform._unpreserved_generator(base_pair, doubled) == "C"
    with pytest.raises(OracleMismatchError, match="fails the C invariance"):
        _context_with_remainder_gram(monkeypatch, base_pair, doubled)


def test_context_certifies_its_own_form(base_pair, base_space):
    ctx = WitnessContext(base_pair)
    assert ctx.space == base_space
    assert ctx.gram == base_space.gram


def test_verified_rejects_mismatch(ctx):
    with pytest.raises(ValueError, match="does not match"):
        ctx.verified(("A",), ctx.generators["C"])


# element applies each token to the rows of the running product; the
# product of the token matrices is the reference, on random words built
# from A, A^-1, C and the reflection words A^k C A^-k of A^k v (the k-th
# unit vector), whose element is reflection_matrix of that vector

def _dense_element(ctx, word):
    """Reference: the matrix of word as the dense product of its token
    matrices, in word order."""
    m = linalg.identity(ctx.n)
    for token in word:
        m = linalg.mat_mul(m, ctx.generators[token])
    return int_matrix(m)


def _check_random_words(ctx, seed, count=12, length=10):
    for k in range(ctx.n):
        assert ctx.element(reflection_word(k)).matrix \
            == reflection_matrix(ctx.gram, e(k, ctx.n)), k
    rng = random.Random(seed)
    pieces = [("A",), ("A^-1",), ("C",)] + [reflection_word(k)
                                            for k in range(ctx.n)]
    for _ in range(count):
        word = tuple(t for _ in range(rng.randint(0, length))
                     for t in rng.choice(pieces))
        assert ctx.element(word).matrix == _dense_element(ctx, word), word


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_element_is_the_dense_product(entry):
    pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
    _check_random_words(WitnessContext(pair), 20261019)


@pytest.mark.parametrize("d, n", [(2, 9), (6, 17)])
def test_element_is_the_dense_product_on_pads(d, n):
    pair = pad_pair(parse_poly(BASE_F), parse_poly(BASE_G),
                    parse_poly("y^2+1", var="y"),
                    parse_poly("y^2-y+1", var="y"), d=d).pair
    assert pair.n == n
    _check_random_words(WitnessContext(pair), n,
                        count=6)


def test_element_rejects_an_unknown_token(ctx):
    with pytest.raises(ValueError, match="unknown word token 'B'"):
        ctx.element(("A", "B"))


def _within(orbit, bound):
    """The entries of word_orbit's (images, keys) whose words have at
    most bound tokens, in order: the orbit of that word bound."""
    images, keys = orbit
    return ([(x, word) for x, word in images.items() if len(word) <= bound],
            [(key, entry) for key, entry in keys.items()
             if len(entry[0]) <= bound])


def test_word_orbit_deterministic_and_cached(ctx):
    # the module's ctx may already be walked past bound 4, so its entries
    # are read by the read rule
    first = ctx.word_orbit(4)
    again = ctx.word_orbit(4)
    assert first == again
    fresh = WitnessContext(ctx.pair).word_orbit(4)
    assert _within(first, 4) == tuple(list(d.items()) for d in fresh)


@pytest.mark.parametrize("bound", [0, -1])
def test_word_orbit_rejects_bound_below_one(ctx, bound):
    with pytest.raises(ValueError, match="at least 1"):
        ctx.word_orbit(bound)


def test_word_orbit_rejects_bound_above_the_limit(ctx):
    fresh = WitnessContext(ctx.pair)
    with pytest.raises(ValueError, match="at most MAX_WORD_BOUND = 16"):
        fresh.word_orbit(witness.MAX_WORD_BOUND + 1)
    # no level past level 0, v, is walked
    assert fresh._ends == [1] and fresh._entries == [((), fresh.v)]


def _matrix_word_orbit(ctx, word_bound):
    """Reference: the orbit walked over matrices, breadth first, each new
    matrix extended by A, A^-1, C in turn and deduplicated by matrix, the
    first discovery of each key kept.  A nontrivial word that fixes v is
    recorded here under the keys 0 (minus) and 2v (plus)."""
    n, v = ctx.n, ctx.v
    minus, plus = {}, {}
    identity = int_matrix(linalg.identity(n))
    seen = {identity}
    idx = 0
    frontier = [(identity, ())]
    for _ in range(word_bound):
        grown = []
        for matrix, word in frontier:
            for token in ("A", "A^-1", "C"):
                m = int_matrix(linalg.mat_mul(matrix, ctx.generators[token]))
                if m in seen:
                    continue
                seen.add(m)
                w = word + (token,)
                grown.append((m, w))
                x = tuple(m[i][0] for i in range(n))
                minus.setdefault(tuple(a - b for a, b in zip(x, v)),
                                 (idx, w, x))
                plus.setdefault(tuple(a + b for a, b in zip(x, v)),
                                (idx, w, x))
                idx += 1
        frontier = grown
    return minus, plus


def _minus_plus_word_orbit(ctx, word_bound):
    """Reference: the image walk as it stood when word_orbit returned two
    full-orbit maps, breadth first over g(v), a seen set holding v, every
    image recorded under both g(v) - v (minus) and g(v) + v (plus) with
    (discovery index, word, g(v))."""
    v = ctx.v
    tokens = [(t, ctx.generators[t]) for t in ("A", "A^-1", "C")]
    minus, plus = {}, {}
    seen = {v}
    level = [(v, ())]
    for _ in range(word_bound):
        grown = {}
        for token, matrix in tokens:
            for y, word in level:
                x = tuple(linalg.mat_vec(matrix, y))
                if x not in seen and x not in grown:
                    grown[x] = (token,) + word
        seen.update(grown)
        for x, word in grown.items():
            entry = (len(minus), word, x)
            minus[tuple(a - b for a, b in zip(x, v))] = entry
            plus[tuple(a + b for a, b in zip(x, v))] = entry
        level = list(grown.items())
    return minus, plus


def _images_and_keys(ctx, minus, plus):
    """The (images, keys) of word_orbit derived from the two maps:
    each image with its index and word, and each nonzero isotropic key of
    either map, made sign-canonical, with its entries in index order."""
    images = {x: (idx, word) for idx, word, x in minus.values()}
    keys = {}
    for side, store in enumerate((minus, plus)):
        for key, (idx, word, x) in store.items():
            if any(key) and linalg.vec_dot(key, ctx.gram, key) == 0:
                canon = key if next(a for a in key if a) > 0 \
                    else tuple(-a for a in key)
                keys.setdefault(canon, []).append((idx, side, word, x))
    return images, {key: sorted(entries) for key, entries in keys.items()}


def _orbit_cases():
    cases = [pytest.param(e.f_text, e.g_text, 8, id=e.name)
             for e in corpus.ENTRIES]
    cases += [pytest.param(render(f), render(g), 8, id=f"battery-{i:02d}")
              for i, (f, g) in enumerate(random_cyclotomic_pairs())
              if f.degree <= 7]
    cases.append(pytest.param(BASE_F, BASE_G, 10, id="base-bound-10"))
    return cases


@pytest.mark.parametrize("f_text, g_text, bound", _orbit_cases())
def test_word_orbit_matches_matrix_reference(f_text, g_text, bound):
    # the two-map image walk against the matrix walk, then word_orbit's
    # (images, keys) against what its maps give
    pair = build_pair(parse_poly(f_text), parse_poly(g_text))
    ctx = WitnessContext(pair)
    v = ctx.v
    v_keys = (tuple(0 for _ in v), tuple(2 * a for a in v))
    two_maps = _minus_plus_word_orbit(ctx, bound)
    for got, want, v_key in zip(two_maps, _matrix_word_orbit(ctx, bound),
                                v_keys):
        # the image walk never records v itself
        assert all(x != v for _, _, x in got.values())
        fixed = {key for key, (_, _, x) in want.items() if x == v}
        assert fixed <= {v_key}
        assert set(got) == set(want) - fixed
        assert {key: entry[1:] for key, entry in got.items()} \
            == {key: entry[1:] for key, entry in want.items()
                if key not in fixed}
        # the same relative order of discovery indices
        assert [entry[1:] for entry in sorted(got.values())] \
            == [entry[1:] for entry in sorted(want.values())
                if entry[2] != v]
    images, keys = ctx.word_orbit(bound)
    want_images, want_keys = _images_and_keys(ctx, *two_maps)
    assert list(images.items()) == [
        (x, word) for x, (_, word) in sorted(want_images.items(),
                                             key=lambda item: item[1])]
    # each key holds the entry of its smallest discovery index
    assert keys == {key: min(entries)[2:]
                    for key, entries in want_keys.items()}
    assert list(keys) == sorted(want_keys,
                                key=lambda key: want_keys[key][0][0])
    for x, word in images.items():
        assert tuple(row[0] for row in ctx.element(word).matrix) == x
    # only images with g(v).v = +-2 give a key, g(v) - v or g(v) + v
    for key, entries in want_keys.items():
        for _, side, word, x in entries:
            assert images[x] == word
            assert linalg.vec_dot(x, ctx.gram, v) == 2 - 4 * side
            diff = tuple(a + (2 * side - 1) * b for a, b in zip(x, v))
            assert key in (diff, tuple(-a for a in diff))


def _generator_word_orbit(ctx, word_bound):
    """Reference: word_orbit's (images, keys) from the walk that applies
    the generator matrices A, A^-1 and C to every image of the level
    before, backtracks and C-fixed images included, and takes each
    image's pairing with v by vec_dot."""
    v = ctx.v
    images, keys = {}, {}
    level = [(v, ())]
    for _ in range(word_bound):
        grown = []
        for token in ("A", "A^-1", "C"):
            for y, parent in level:
                x = tuple(linalg.mat_vec(ctx.generators[token], y))
                if x == v or x in images:
                    continue
                word = (token,) + parent
                images[x] = (len(images), word)
                grown.append((x, word))
                pairing = linalg.vec_dot(x, ctx.gram, v)
                if pairing in (2, -2):
                    side = int(pairing < 0)
                    key = linalg.sign_canonical(
                        [a + (2 * side - 1) * b for a, b in zip(x, v)])
                    if any(key):
                        keys.setdefault(key, []).append(
                            (images[x][0], side, word, x))
        level = grown
    return images, keys


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_word_orbit_matches_the_generator_walk(entry):
    # word_orbit skips backtracks and C-fixed images and applies C
    # through the pairing; the orbit, its order and its keys must be
    # those of the plain walk at every bound
    pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
    ctx = WitnessContext(pair)
    for bound in range(1, 13):
        images, keys = ctx.word_orbit(bound)
        want_images, want_keys = _generator_word_orbit(ctx, bound)
        assert list(images.items()) == [
            (x, word) for x, (_, word) in want_images.items()], bound
        # each key holds the entry of its smallest discovery index
        assert list(keys.items()) == [
            (key, min(entries)[2:]) for key, entries in want_keys.items()
        ], bound


# a context keeps one orbit, walked as deep as the largest bound asked:
# for every bound, asked in any order, the images and keys whose words
# have at most that many tokens are those of a fresh walk, in the same
# order, and every bound returns the same two dicts

@pytest.mark.parametrize("name", ["ex02", "ex03"])
def test_word_orbit_across_bounds_equals_a_fresh_orbit(name):
    entry = next(e for e in corpus.ENTRIES if e.name == name)
    pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
    fresh = {b: tuple(list(d.items())
                      for d in WitnessContext(pair).word_orbit(b))
             for b in (3, 8, 10)}
    for order in ((8, 10, 8, 3), (10, 8, 3), (3, 10, 8)):
        ctx = WitnessContext(pair)
        for b in order:
            assert _within(ctx.word_orbit(b), b) == fresh[b], order
        eight, ten = ctx.word_orbit(8), ctx.word_orbit(10)
        assert eight[0] is ten[0] and eight[1] is ten[1]


def _hunt_reads(ctx, word_bound):
    """What every reader of the orbit gives at word_bound, each
    candidate's pairs and axes read in full."""
    candidates = orbit_candidates(ctx, 3, word_bound)
    return candidates, [
        (list(witness._gamma_pairs(ctx, eps, word_bound, [])),
         integral_reflection_vectors(ctx, eps, word_bound),
         unipotent_from_reflections(ctx, eps, word_bound))
        for eps in candidates]


# the readers apply the read rule: a context walked to bound 10 first
# gives at bounds 8 and 3 what a fresh context walked to that bound gives;
# ex03 has 8 candidates at bound 8 and 11 at bound 10, and a key first
# reached by a word of 9 or 10 tokens gives no unipotent at bound 8

@pytest.mark.parametrize("name", ["ex02", "ex03"])
def test_readers_of_a_deeper_orbit_equal_a_fresh_context(name):
    entry = next(e for e in corpus.ENTRIES if e.name == name)
    pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
    ctx = WitnessContext(pair)
    deep = orbit_candidates(ctx, 3, 10)
    for bound in (8, 3):
        assert _hunt_reads(ctx, bound) \
            == _hunt_reads(WitnessContext(pair), bound), bound
    late = sorted(set(deep) - set(orbit_candidates(ctx, 3, 8)))
    if name == "ex03":
        assert (len(orbit_candidates(ctx, 3, 8)), len(deep)) == (8, 11)
        assert len(late) == 3
    for eps in late:
        word, _ = ctx.word_orbit(10)[1][eps]
        assert len(word) in (9, 10)
        assert unipotent_from_reflections(ctx, eps, 8) is None
        assert unipotent_from_reflections(ctx, eps, 10) is not None


# ------------------------------------------------------------ orthocomplement

def test_orthocomplement_base(ctx):
    perp = orthocomplement(ctx.gram, EPS)
    assert perp == [(-1, 0, 1, 0, 0), (0, 1, 0, 0, 0),
                    (0, 0, 1, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 1, 1)]
    for w in perp:
        assert linalg.vec_dot(w, ctx.gram, EPS) == 0
    assert linalg.rank([list(w) for w in perp]) == 4


def test_orthocomplement_matches_lemma_span(ctx):
    # eps-perp is also spanned by eps, v, Av, v' = A^3v + A^4v - v
    perp = orthocomplement(ctx.gram, EPS)
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


# a coordinate that is not an int was once truncated, so (-1.9, 0, 1.9,
# 0, 0) ran as EPS; every entry point that takes eps rejects it instead

@pytest.mark.parametrize("bad", [(-1.9, 0, 1.9, 0, 0),
                                 (Fraction(-3, 2), 0, Fraction(3, 2), 0, 0),
                                 (Fraction(-1), 0, Fraction(1), 0, 0)],
                         ids=["float", "fraction", "integral-fraction"])
def test_eps_entry_points_reject_non_int_coordinates(ctx, u, bad):
    calls = [lambda: orthocomplement(ctx.gram, bad),
             lambda: in_unipotent_radical(u, bad, ctx),
             lambda: unipotent_from_reflections(ctx, bad, 8),
             lambda: integral_reflection_vectors(ctx, bad, 8),
             lambda: span_rank_witness([U_PAIR], [axis(0)], bad, ctx)]
    for call in calls:
        with pytest.raises(ValueError, match="int coordinates"):
            call()
    assert in_unipotent_radical(u, EPS, ctx)


# an eps of the wrong length once ran into zips that truncate: four entry
# points failed an internal assertion and the unipotent search came back
# empty; each raises ValueError instead

@pytest.mark.parametrize("entry", ["orthocomplement", "line", "unipotent",
                                   "axes", "span"])
def test_eps_entry_points_reject_the_wrong_length(ctx, u, entry):
    short = (1, 0, -1)
    call = {"orthocomplement": lambda: orthocomplement(ctx.gram, short),
            "line": lambda: in_unipotent_radical(u, short, ctx),
            "unipotent": lambda: unipotent_from_reflections(ctx, short, 8),
            "axes": lambda: integral_reflection_vectors(ctx, short, 8),
            "span": lambda: span_rank_witness([U_PAIR], [axis(0)], short,
                                              ctx)}[entry]
    with pytest.raises(ValueError, match="wrong dimension"):
        call()


# an axis of the wrong length gave a 6 x 5 reflection matrix that the
# isometry check passed, or a PairValidationError, the error class of a bad
# input pair

@pytest.mark.parametrize("axis", [(1, 0, 0, 0, 0, 7), (1, 0)],
                         ids=["long", "short"])
def test_reflection_axes_of_the_wrong_length_are_rejected(ctx, axis):
    with pytest.raises(ValueError, match="wrong dimension") as exc:
        reflection_matrix(ctx.gram, axis)
    assert not isinstance(exc.value, PairValidationError)


# a word is over A, A^-1 and C alone: a reflection about another axis is
# no token, even about v itself

@pytest.mark.parametrize("token", [
    "C[1,0,0,0,0]", "C[0,1,0,0,0]", "B", "a", "A^1", "A^-2", "C^-1", "",
    " C", "I"])
def test_element_rejects_tokens_outside_the_alphabet(ctx, token):
    for word in ((token,), ("A", token, "C")):
        with pytest.raises(ValueError, match="unknown word token"):
            ctx.element(word)
        with pytest.raises(ValueError, match="unknown word token"):
            ctx.verified(word, linalg.identity(5))


# ------------------------------------------------------- stabilizer and u

def test_u_is_the_expected_matrix(u):
    assert u.matrix == U_MATRIX


def test_u_line_stabilizer(ctx, u):
    assert in_unipotent_radical(u, EPS, ctx)


def test_u_moves_v_by_twice_eps(ctx, u):
    image = tuple(linalg.mat_vec(u.matrix, e(0)))
    assert image == (-1, 0, 2, 0, 0)
    assert image == tuple(a + 2 * b for a, b in zip(e(0), EPS))


def test_reflection_stabilizes_but_is_not_unipotent(ctx):
    cv = ctx.element(("C",))
    assert linalg.mat_vec(cv.matrix, EPS) == list(EPS)
    assert not in_unipotent_radical(cv, EPS, ctx)


def test_generic_element_moves_the_line(ctx):
    a = ctx.element(("A",))
    assert _parallel_factor(linalg.mat_vec(a.matrix, EPS), EPS) is None
    assert not in_unipotent_radical(a, EPS, ctx)


def test_translation_vector(ctx, u):
    assert translation_vector(u.matrix, EPS, ctx) == (0, 1, 0)
    with pytest.raises(ValueError, match="radical"):
        translation_vector(ctx.generators["C"], EPS, ctx)


def test_translation_moves_under_conjugation(ctx, u):
    r = ctx.element(reflection_word(1))  # Av is orthogonal to eps
    moved = conjugate(r.matrix, u)
    assert ctx.element(r.word + u.word + _inverse_word(r.word)).matrix \
        == moved
    t0 = translation_vector(u.matrix, EPS, ctx)
    t1 = translation_vector(moved, EPS, ctx)
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


def test_unipotent_off_the_radical_is_a_mismatch(monkeypatch, ctx):
    # the key's one entry always gives a u in the radical, so a u that
    # fails the check means a route is wrong, not that the search missed
    monkeypatch.setattr(witness, "_radical_factors",
                        lambda matrix, perp: None)
    with pytest.raises(OracleMismatchError, match="unipotent radical"):
        unipotent_from_reflections(ctx, EPS, 8)


def _indefinite_cases(max_degree):
    """The worked entries and the battery pairs of degree 3 to max_degree
    whose form is indefinite."""
    cases = [pytest.param(e.f_text, e.g_text, id=e.name)
             for e in corpus.ENTRIES]
    for i, (f, g) in enumerate(random_cyclotomic_pairs()):
        if 3 <= f.degree <= max_degree \
                and min(signature(invariant_space(build_pair(f, g)))) >= 1:
            cases.append(pytest.param(render(f), render(g),
                                      id=f"battery-{i:02d}"))
    return cases


@pytest.mark.parametrize("f_text, g_text", _indefinite_cases(7))
def test_key_unipotent_moves_w_by_its_pairing_with_v(f_text, g_text):
    # for the entry (g, x) of a key, x . v = +-2 and the key is
    # sigma (x -+ v), sigma = +-1 from the sign-canonical form; then
    # u = C_x C_v sends each w in eps-perp to w + (x . v / 2) sigma (w . v)
    # eps, so lambda_w is (w . v) up to that sign; an anisotropic form
    # has no keys
    ctx = WitnessContext(build_pair(parse_poly(f_text), parse_poly(g_text)))
    for key, (word, x) in ctx.word_orbit(8)[1].items():
        if math.gcd(*key) != 1:
            continue
        u = unipotent_from_reflections(ctx, key, 8)
        assert u.word == word + ("C",) + _inverse_word(word) + ("C",)
        half = linalg.vec_dot(x, ctx.gram, ctx.v) // 2
        assert half in (1, -1)
        raw = tuple(a - half * b for a, b in zip(x, ctx.v))
        sigma = 1 if raw == key else -1
        assert tuple(sigma * a for a in raw) == key
        perp = orthocomplement(ctx.gram, key)
        assert _radical_factors(u.matrix, perp) \
            == [half * sigma * linalg.vec_dot(w, ctx.gram, ctx.v)
                for w in perp[1:]]


def test_integral_reflection_vectors(ctx):
    axes = integral_reflection_vectors(ctx, EPS, 8)
    # v, then the orbit in order: A v, then C v = -v
    assert axes[:3] == [axis(0), axis(1), (("C",), (-1, 0, 0, 0, 0))]
    assert axis(2) in axes and VPRIME_AXIS in axes
    for word, w in axes:
        assert tuple(col[0] for col in ctx.element(word).matrix) == w
        assert linalg.vec_dot(w, ctx.gram, w) == 2
        assert linalg.vec_dot(w, ctx.gram, EPS) == 0


# the axes are v, then every image of the orbit at the word bound that is
# orthogonal to eps, in orbit order, each with its word; the reference
# walks the images on vectors, without word_orbit, and reads each word's
# image off column 0 of its element

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_axes_are_the_orbit_images_orthogonal_to_eps(entry):
    ctx = WitnessContext(build_pair(parse_poly(entry.f_text),
                                    parse_poly(entry.g_text)))
    seen = level = {ctx.v}
    for _ in range(6):
        level = {tuple(sum(a * b for a, b in zip(row, y))
                       for row in ctx.generators[token])
                 for y in level for token in ("A", "A^-1", "C")} - seen
        seen = seen | level
    candidates = orbit_candidates(ctx, 3, 6)
    assert candidates
    for eps in candidates:
        axes = integral_reflection_vectors(ctx, eps, 6)
        assert axes[0] == ((), ctx.v)
        assert {w for _, w in axes} == {
            w for w in seen if linalg.vec_dot(w, ctx.gram, eps) == 0}
        assert len(axes) == len({w for _, w in axes})
        for word, w in axes:
            assert len(word) <= 6
            assert tuple(col[0] for col in ctx.element(word).matrix) == w


# Y(eps): the axes y with y + eps, or else y - eps, an orbit image x, each
# as the pair (x, y); C_x C_y, the word of the two reflections, is a
# nontrivial element of the unipotent radical at eps that moves each
# basis vector w of eps-perp by +-(w . y) eps

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_gamma_pairs_are_unipotents_with_the_translation_of_y(entry):
    ctx = WitnessContext(build_pair(parse_poly(entry.f_text),
                                    parse_poly(entry.g_text)))
    eps = orbit_candidates(ctx, 3, 8)[0]
    perp = orthocomplement(ctx.gram, eps)
    axes = integral_reflection_vectors(ctx, eps, 8)
    by_vector = dict((w, word) for word, w in axes)
    pairs = list(witness._gamma_pairs(ctx, eps, 8, []))
    want = []
    for word, y in axes:
        for sign in (1, -1):
            x = tuple(a + sign * b for a, b in zip(y, eps))
            if x in by_vector:
                want.append(((by_vector[x], x), (word, y)))
                break
    assert pairs == want
    # eps is +-(x -+ v) for an image x, so v or -v is in Y(eps)
    assert {y for _, (_, y) in pairs} & {ctx.v, tuple(-a for a in ctx.v)}
    for (x_word, x), (y_word, y) in pairs[:8]:
        sign = 1 if tuple(a - b for a, b in zip(x, y)) == eps else -1
        g = ctx.element(x_word + ("C",) + _inverse_word(x_word)
                        + y_word + ("C",) + _inverse_word(y_word))
        assert not g.is_identity
        assert _radical_factors(g.matrix, perp) \
            == [sign * linalg.vec_dot(w, ctx.gram, y) for w in perp[1:]]


def _fresh_axes(ctx, eps, word_bound):
    """Reference: the images of v and of word_orbit(word_bound) that are
    orthogonal to eps, with their words, in orbit order, from one walk of
    their own."""
    images = ctx.word_orbit(word_bound)[0]
    return [(word, y) for y, word in [(ctx.v, ())] + list(images.items())
            if linalg.vec_dot(y, ctx.gram, eps) == 0]


# the pairs append every image they read to the list they are given, so
# it is a prefix of the axes however far they are read, and the axes once
# they run out: whenever layer 0 falls short of n - 2, the one closure
# of the hunt reads integral_reflection_vectors as its axes.  The axes
# do not depend on what was read before, and two readers of the walk
# taking turns see it in the same order

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_axes_do_not_depend_on_how_far_the_pairs_read(entry):
    pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
    want = {}
    for reads in (0, 1, 3, None):
        ctx = WitnessContext(pair)
        for eps in orbit_candidates(ctx, 3, 8):
            if eps not in want:
                want[eps] = _fresh_axes(ctx, eps, 8)
            seen = []
            pairs = list(itertools.islice(
                witness._gamma_pairs(ctx, eps, 8, seen), reads))
            assert seen == want[eps][:len(seen)]
            if reads is None:
                assert seen == want[eps]
            assert integral_reflection_vectors(ctx, eps, 8) == want[eps]
            assert list(witness._gamma_pairs(ctx, eps, 8, []))[:len(pairs)] \
                == pairs
    ctx = WitnessContext(pair)
    for eps in orbit_candidates(ctx, 3, 8):
        seen = []
        raising = witness._closure(witness._gamma_pairs(ctx, eps, 8, seen),
                                   seen, eps, ctx)
        if sum(not path for _, path, _ in raising) < ctx.n - 2:
            assert seen == integral_reflection_vectors(ctx, eps, 8) \
                == want[eps]
    for eps in orbit_candidates(ctx, 3, 8):
        # the second reader takes two steps for each step of the first
        readers = [witness._orbit_perp(ctx, eps, 8) for _ in range(2)]
        got = [[], []]
        for step in range(3 * len(want[eps])):
            k = int(step % 3 != 0)
            got[k].extend(itertools.islice(readers[k], 1))
        assert got == [want[eps], want[eps]]


# ----------------------------------------------------------------- span rank

def test_span_rank_with_lemma_triple(ctx):
    assert span_rank_witness([U_PAIR], [axis(0), axis(1), VPRIME_AXIS],
                             EPS, ctx) == 3


def test_span_rank_with_proof_triple_falls_short(ctx):
    # A^2 v is congruent to v modulo eps, so this triple spans only a
    # plane of the quotient and the conjugates cannot fill the
    # translation group
    assert span_rank_witness([U_PAIR], [axis(0), axis(2), VPRIME_AXIS],
                             EPS, ctx) == 2
    quotient_span = [list(EPS), list(e(0)), list(e(2)), list(VPRIME)]
    assert linalg.rank(quotient_span) == 3  # not all of eps-perp


def test_span_rank_validation(ctx):
    # A v - v is not +-eps, so C_{Av} C_v is no translation at eps
    with pytest.raises(ValueError, match="does not differ by"):
        span_rank_witness([(axis(1), axis(0))], [], EPS, ctx)
    # eps is isotropic: norm 0
    with pytest.raises(ValueError, match="norm 2"):
        span_rank_witness([U_PAIR], [((), EPS)], EPS, ctx)
    # A^3 v has norm 2 but pairs to -1 with eps, so its reflection moves
    # the line
    with pytest.raises(ValueError, match="not orthogonal to eps"):
        span_rank_witness([U_PAIR], [axis(0), axis(3)], EPS, ctx)
    with pytest.raises(ValueError, match="has length 4"):
        span_rank_witness([U_PAIR], [axis(0, 4)], EPS, ctx)
    # norm 6 and orthogonal to eps, but 2 (e1 . w) / (w . w) = 1/3, so
    # its reflection is not integral
    with pytest.raises(ValueError, match="norm 2"):
        span_rank_witness([U_PAIR], [((), (1, 1, 0, 0, 0))], EPS, ctx)


def test_span_rank_rejects_a_non_integral_axis_up_front(ctx):
    # the lemma triple alone reaches rank n - 2 = 3, so the search stops
    # before it reflects about the fourth axis; the axis is still rejected
    axes = [axis(0), axis(1), VPRIME_AXIS]
    assert span_rank_witness([U_PAIR], axes, EPS, ctx) == 3
    with pytest.raises(ValueError, match="norm 2"):
        span_rank_witness([U_PAIR], axes + [((), (1, 1, 0, 0, 0))], EPS,
                          ctx)


# an axis is an image of v with its word: v' with a word that does not
# give it is an element whose replay moves eps-perp otherwise than the
# translation read off v', and -v', which has the same reflection, with
# v''s word is the same element

def test_span_rank_rejects_an_axis_that_is_not_an_orbit_image(ctx):
    word = VPRIME_AXIS[0]
    assert ctx.word_orbit(8)[0][VPRIME] == word
    for wrong in (("A", "A", "A"), word[1:], ("C",) + word):
        assert tuple(col[0] for col in ctx.element(wrong).matrix) \
            not in (VPRIME, tuple(-x for x in VPRIME))
        with pytest.raises(OracleMismatchError, match="replayed"):
            span_rank_witness([U_PAIR], [axis(0), axis(1), (wrong, VPRIME)],
                              EPS, ctx)
    assert span_rank_witness([U_PAIR], [axis(0), axis(1),
                                         (word, tuple(-x for x in VPRIME))],
                             EPS, ctx) == 3


# ------------------------------------------------------------------- reports

def hunt(pair):
    """Signature, rank certificate and witness report, as analyze runs
    them, with search bound 3 and word bound 8."""
    ctx = WitnessContext(pair)
    cert = q_rank(ctx.space, 3)
    return signature(ctx.space), cert, arithmeticity_report(ctx, 3, 8)


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


# every worked example is witnessed by elements of <A, C> alone at the
# default bounds; ex03 is witnessed only by the second hunt, at word
# bound 8 + 2

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_every_worked_entry_is_witnessed_at_the_default_bounds(entry):
    doc = cli.build_report(entry.f_text, entry.g_text)
    assert doc["witness"]["conclusion"] == WITNESSED
    assert doc["witness"]["translation_rank"] == 3


def test_the_second_hunt_runs_two_levels_past_the_word_bound(
        monkeypatch):
    entry = next(e for e in corpus.ENTRIES if e.name == "ex03")
    ctx = WitnessContext(build_pair(parse_poly(entry.f_text),
                                    parse_poly(entry.g_text)))
    assert witness._hunt(ctx, 3, 8)[0] == 2
    rep = arithmeticity_report(ctx, 3, 8)
    assert rep.conclusion == WITNESSED and rep.translation_rank == 3
    # the one orbit holds levels 0 (v) to 10
    assert len(ctx._ends) == 11
    # a hunt that finds no candidate runs twice, but never past the limit
    hunted = []
    monkeypatch.setattr(witness, "_hunt",
                        lambda ctx, search, bound: hunted.append(bound))
    for bound in (1, 8, witness.MAX_WORD_BOUND - 2,
                  witness.MAX_WORD_BOUND - 1, witness.MAX_WORD_BOUND):
        hunted.clear()
        assert arithmeticity_report(ctx, 3, bound).epsilon is None
        assert hunted == [b for b in (bound, bound + 2)
                          if b <= witness.MAX_WORD_BOUND]


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
def test_radical_factors_on_worked_pair(monkeypatch, entry):
    # the witnessed (eps, u) of the pair and the elements that raised its
    # rank, each conjugated by every product of at most two of its first
    # six span reflections, as matrices
    replayed = []
    original = witness._replay

    def record(context, perp, word, lam):
        replayed.append(word)
        return original(context, perp, word, lam)
    monkeypatch.setattr(witness, "_replay", record)
    pair = build_pair(parse_poly(entry.f_text), parse_poly(entry.g_text))
    ctx = WitnessContext(pair)
    rep = arithmeticity_report(ctx, 3, 8)
    eps, u = rep.epsilon, rep.unipotent
    refl = [reflection_matrix(ctx.gram, w)
            for _, w in integral_reflection_vectors(ctx, eps, 8)[:6]]
    products = [int_matrix(linalg.identity(pair.n))] + refl + [
        int_matrix(linalg.mat_mul(a, b)) for a in refl for b in refl]
    conjugates = [conjugate(m, g) for g in [u] + [ctx.element(w)
                                                  for w in replayed]
                  for m in products]
    perp = orthocomplement(ctx.gram, eps)

    factors = [_radical_factors(c, perp) for c in conjugates]
    translations = [translation_vector(c, eps, ctx) for c in conjugates]
    for k in range(1, len(conjugates) + 1):
        assert linalg.rank(factors[:k]) \
            == linalg.rank(cleared(translations[:k]))
    assert linalg.rank(factors) == rep.translation_rank

    # the products themselves include elements outside the radical
    elements = [GroupElement((), m) for m in conjugates + products] + [
        ctx.element(w) for w in (("A",), ("A", "C"), ("C",))]
    outcomes = set()
    for g in elements:
        radical = in_unipotent_radical(g, eps, ctx)
        assert (_radical_factors(g.matrix, perp) is None) \
            == (not radical)
        outcomes.add(radical)
    assert outcomes == {True, False}

    # x -> x + phi(x) eps moves each w by phi(w) eps; it fixes eps when
    # phi(eps) = 0 and sends eps to -eps when phi(eps) = -2
    def shear(phi):
        return tuple(tuple(int(i == j) + eps[i] * phi[j]
                           for j in range(pair.n)) for i in range(pair.n))
    q0 = linalg.mat_vec(ctx.gram, perp[1])  # q0 . eps = 0
    assert _radical_factors(shear(q0), perp) \
        == [linalg.vec_dot(perp[1], ctx.gram, w) for w in perp[1:]]
    # eps is primitive, so column 0 of u in eps's column elimination,
    # eps . u = (r0, 0, ..., 0), r0 = +-1, pairs with eps to 1 up to sign
    r0, cols, _ = column_eliminate(eps)
    c = [r0 * x for x in cols[0]]
    assert sum(a * b for a, b in zip(c, eps)) == 1
    flip = GroupElement((), shear([-2 * x for x in c]))
    assert _radical_factors(flip.matrix, perp) is None
    assert linalg.mat_vec(flip.matrix, eps) == [-x for x in eps]
    assert not in_unipotent_radical(flip, eps, ctx)


# ------------------------------------------------ candidates from the orbit

def _pair_cases(max_degree=12):
    cases = [pytest.param(e.f_text, e.g_text, id=e.name)
             for e in corpus.ENTRIES]
    cases += [pytest.param(render(f), render(g), id=f"battery-{i:02d}")
              for i, (f, g) in enumerate(random_cyclotomic_pairs())
              if f.degree <= max_degree]
    return cases


@pytest.mark.parametrize("f_text, g_text", _pair_cases())
def test_orbit_candidates_equal_box_hits_with_orbit_keys(f_text, g_text):
    pair = build_pair(parse_poly(f_text), parse_poly(g_text))
    ctx = WitnessContext(pair)
    for bound in (1, 2, 3):
        if (2 * bound + 1) ** ctx.n > SEARCH_CAP:
            continue
        hits = isotropic_search(ctx.gram, bound)
        for word_bound in (4, 8):
            # the hits are sign-canonical, as the keys are; bound 4 is
            # asked after bound 8, so a key is read only if its word has
            # at most word_bound tokens
            keys = ctx.word_orbit(word_bound)[1]
            keyed = [e for e in hits
                     if e in keys and len(keys[e][0]) <= word_bound]
            assert orbit_candidates(ctx, bound, word_bound) == keyed


def _four_way_unipotent(ctx, two_maps, eps):
    """Reference: unipotent_from_reflections as it stood on the two maps
    of _minus_plus_word_orbit: eps and -eps looked up in both, the hits
    sorted by (index, minus before plus), each checked for
    g(v).g(v) = 2 and eps orthogonal to v and g(v)."""
    gram, v = ctx.gram, ctx.v
    minus, plus = two_maps
    hits = []
    for target in (eps, tuple(-x for x in eps)):
        for priority, store in ((0, minus), (1, plus)):
            if target in store:
                idx, word, x = store[target]
                hits.append((idx, priority, word, x))
    for _, _, word, x in sorted(hits):
        if linalg.vec_dot(x, gram, x) != 2:
            continue
        if linalg.vec_dot(eps, gram, v) != 0 or \
                linalg.vec_dot(eps, gram, x) != 0:
            continue
        u = ctx.verified(word + ("C",) + _inverse_word(word) + ("C",),
                         linalg.mat_mul(reflection_matrix(gram, x),
                                        ctx.generators["C"]))
        if u.is_identity:
            continue
        if in_unipotent_radical(u, eps, ctx):
            return u
    return None


@pytest.mark.parametrize("f_text, g_text", _pair_cases())
def test_unipotent_lookup_matches_the_four_way_lookup(f_text, g_text):
    pair = build_pair(parse_poly(f_text), parse_poly(g_text))
    ctx = WitnessContext(pair)
    # the word bound 8 candidates at word bound 4 too, where some miss
    candidates = orbit_candidates(ctx, 3, 8)
    for word_bound in (4, 8):
        two_maps = _minus_plus_word_orbit(ctx, word_bound)
        for eps in candidates:
            for signed in (eps, tuple(-x for x in eps)):
                assert unipotent_from_reflections(ctx, signed, word_bound) \
                    == _four_way_unipotent(ctx, two_maps, signed), signed


# ------------------------------------------------ span rank, matrix route

def _matrix_span_rank(seeds, reflections, eps, gram):
    """Reference: the span rank with every conjugate m s m^-1 of each seed
    element s built as a matrix, each product carrying its inverse, and
    ranked by its _radical_factors; the same layers, seen set and
    no-progress stop, over every product of at most three of the
    reflection matrices."""
    n = len(gram)
    eps = tuple(eps)
    perp = orthocomplement(gram, eps)
    identity = int_matrix(linalg.identity(n))
    for r in reflections:
        assert _parallel_factor(linalg.mat_vec(r, eps), eps) is not None
        assert int_matrix(linalg.mat_mul(r, r)) == identity
    echelon = []
    rank = sum(_echelon_insert(echelon, _radical_factors(s.matrix, perp))
               for s in seeds)
    if rank >= n - 2:
        return rank
    layer = [(identity, identity)]
    seen = {identity}
    for _ in range(3):
        grown = []
        progressed = False
        for prev, prev_inv in layer:
            for r in reflections:
                m = int_matrix(linalg.mat_mul(prev, r))
                if m in seen:
                    continue
                seen.add(m)
                m_inv = int_matrix(linalg.mat_mul(r, prev_inv))
                grown.append((m, m_inv))
                for s in seeds:
                    conj = linalg.mat_mul(m, linalg.mat_mul(s.matrix, m_inv))
                    if _echelon_insert(echelon,
                                       _radical_factors(conj, perp)):
                        rank += 1
                        progressed = True
                        if rank >= n - 2:
                            return rank
        if not progressed and rank > 0:
            break
        layer = grown
    return rank


def pair_element(ctx, pair):
    """C_x C_y, the element of a pair (x axis, y axis), from its word."""
    (x_word, _), (y_word, _) = pair
    return ctx.element(x_word + ("C",) + _inverse_word(x_word)
                       + y_word + ("C",) + _inverse_word(y_word))


# the battery pairs whose report carries a unipotent at search bound 3
# and word bound 8
UNIPOTENT_BATTERY = (7, 13, 20, 21, 26, 29, 31, 32, 37, 40, 43, 45)


def _span_cases():
    battery = random_cyclotomic_pairs()
    return [pytest.param(e.f_text, e.g_text, id=e.name)
            for e in corpus.ENTRIES] + [
        pytest.param(render(battery[i][0]), render(battery[i][1]),
                     id=f"battery-{i:02d}") for i in UNIPOTENT_BATTERY]


# the reported rank is that of every pair and every axis at the reported
# eps and the last word bound hunted, 10 whenever the hunt was short at 8
# and no smaller where it was not; on u's pair, and on the first three
# pairs, the vector closure agrees with the matrix reference

@pytest.mark.parametrize("f_text, g_text", _span_cases())
def test_span_rank_matches_matrix_reference(f_text, g_text):
    pair = build_pair(parse_poly(f_text), parse_poly(g_text))
    _, _, rep = hunt(pair)
    eps, u = rep.epsilon, rep.unipotent
    assert u is not None
    ctx = WitnessContext(pair)
    pairs = list(witness._gamma_pairs(ctx, eps, 10, []))
    axes = integral_reflection_vectors(ctx, eps, 10)
    assert span_rank_witness(pairs, axes, eps, ctx) == rep.translation_rank
    refl = [reflection_matrix(ctx.gram, w) for _, w in axes[:12]]
    assert pair_element(ctx, u_pair(ctx, eps, 10)).matrix == u.matrix
    for seeds in ([u_pair(ctx, eps, 10)], pairs[:3]):
        elements = [pair_element(ctx, p) for p in seeds]
        for k in (0, 1, 2, 3, 4, 12):
            assert span_rank_witness(seeds, axes[:k], eps, ctx) \
                == _matrix_span_rank(elements, refl[:k], eps, ctx.gram)


# span_rank_witness ranks a closure of vectors where the reference builds
# every product matrix; they must agree for every eps the hunt can reach,
# not only the reported one

@pytest.mark.parametrize("f_text, g_text", _span_cases())
def test_span_closure_matches_matrix_reference_on_every_candidate(
        f_text, g_text):
    pair = build_pair(parse_poly(f_text), parse_poly(g_text))
    ctx = WitnessContext(pair)
    checked = 0
    for eps in orbit_candidates(ctx, 3, 8):
        u = unipotent_from_reflections(ctx, eps, 8)
        seeds = [u_pair(ctx, eps)]
        assert pair_element(ctx, seeds[0]).matrix == u.matrix
        axes = integral_reflection_vectors(ctx, eps, 8)
        refl = [reflection_matrix(ctx.gram, w) for _, w in axes[:12]]
        for k in (1, 2, 3, 4, 12):
            assert span_rank_witness(seeds, axes[:k], eps, ctx) \
                == _matrix_span_rank([u], refl[:k], eps, ctx.gram), (eps, k)
        checked += 1
    assert checked >= 1


# u's translation vector can be read off one column of u:
# for y = e_j, the first unit vector with s = y . eps != 0, u fixes eps and
# moves each basis vector w of eps-perp by lambda_w eps, so
# y - u(y) = s a + c eps, where a has coordinates translation_vector in
# the basis vectors that are independent modulo eps

@pytest.mark.parametrize("f_text, g_text", _span_cases())
def test_translation_vector_read_off_u(f_text, g_text):
    pair = build_pair(parse_poly(f_text), parse_poly(g_text))
    ctx = WitnessContext(pair)
    checked = 0
    for eps in orbit_candidates(ctx, 3, 8):
        u = unipotent_from_reflections(ctx, eps, 8)
        if u is None:
            continue
        perp = orthocomplement(ctx.gram, eps)
        g_eps = linalg.mat_vec(ctx.gram, eps)
        j = next(j for j, x in enumerate(g_eps) if x)
        s = g_eps[j]
        y = e(j, ctx.n)
        moved = [a - b for a, b in zip(y, linalg.mat_vec(u.matrix, y))]
        g_basis = [linalg.mat_vec(ctx.gram, w) for w in perp[1:]]
        factors = _radical_factors(u.matrix, perp)
        assert linalg.mat_vec(g_basis, moved) == [s * x for x in factors]
        t = translation_vector(u.matrix, eps, ctx)
        quotient = [perp[1 + i] for i in quotient_indices(perp)]
        a = linalg.mat_vec(linalg.transpose(quotient), t)
        rest = [m - s * x for m, x in zip(moved, a)]
        assert linalg.rank(cleared([rest, list(eps)])) == 1
        checked += 1
    assert checked >= 1


# orthocomplement's basis after eps is a Z-basis of the whole lattice
# {x in Z^n : x . G eps = 0}: n - 1 vectors orthogonal to eps whose
# signed maximal minors are one sign times the primitive normal
# G eps / content, so their gcd is 1 and no finer lattice holds them

@pytest.mark.parametrize("f_text, g_text", _indefinite_cases(7))
def test_orthocomplement_is_a_z_basis_of_eps_perp(f_text, g_text):
    ctx = WitnessContext(build_pair(parse_poly(f_text), parse_poly(g_text)))
    n = ctx.n
    for eps in orbit_candidates(ctx, 3, 8):
        basis = [list(w) for w in orthocomplement(ctx.gram, eps)[1:]]
        assert len(basis) == n - 1
        assert all(linalg.vec_dot(w, ctx.gram, eps) == 0 for w in basis)
        minors = [(-1) ** i * linalg.det([row[:i] + row[i + 1:]
                                          for row in basis])
                  for i in range(n)]
        normal = list(linalg.primitive_integer(linalg.mat_vec(ctx.gram,
                                                              eps)))
        assert minors in (normal, [-x for x in normal]), eps


# the span rank and the radical test read pairings with a basis of
# eps-perp, whose kernel on eps-perp is the line through eps for every
# basis: with the eps-first quotient basis in place of the lattice cut,
# every hunt eps gives the same ranks and the same radical verdicts

@pytest.mark.parametrize("f_text, g_text", _indefinite_cases(7))
def test_quotient_basis_gives_the_same_ranks(monkeypatch, f_text, g_text):
    ctx = WitnessContext(build_pair(parse_poly(f_text), parse_poly(g_text)))
    runs = []
    for eps in orbit_candidates(ctx, 3, 8):
        u = unipotent_from_reflections(ctx, eps, 8)
        axes = integral_reflection_vectors(ctx, eps, 8)
        refl = [reflection_matrix(ctx.gram, w) for _, w in axes[:3]]
        elements = [u] + [GroupElement((), m)
                          for r in refl for m in (r, conjugate(r, u))] + [
            ctx.element(w) for w in (("A",), ("C",))]
        pairs = [[u_pair(ctx, eps)],
                 list(witness._gamma_pairs(ctx, eps, 8, []))]
        runs.append((eps, pairs, axes, elements))

    def outcomes():
        return [([span_rank_witness(seeds, axes[:k], eps, ctx)
                  for seeds in pairs for k in (0, 1, 2, 3, len(axes))],
                 [in_unipotent_radical(g, eps, ctx) for g in elements])
                for eps, pairs, axes, elements in runs]
    cut = outcomes()
    monkeypatch.setattr(witness, "orthocomplement", lambda gram, eps:
                        quotient_perp(gram, orthocomplement(gram, eps)[0]))
    assert all(len(witness.orthocomplement(ctx.gram, eps)) == ctx.n - 1
               for eps, *_ in runs)
    assert outcomes() == cut


@pytest.mark.parametrize("skew", ["shifted", "off-radical"])
def test_span_rank_routes_disagreeing_raise(monkeypatch, ctx, skew):
    # every _radical_factors call of span_rank_witness reads a replayed
    # element; one that disagrees with the translation read off m y, or
    # leaves the radical, stops the rank at once
    original = _radical_factors
    calls = []

    def skewed(matrix, perp):
        factors = original(matrix, perp)
        calls.append(matrix)
        return None if skew == "off-radical" else \
            [factors[0] + 1] + factors[1:]
    monkeypatch.setattr(witness, "_radical_factors", skewed)
    with pytest.raises(OracleMismatchError, match="replayed"):
        span_rank_witness([U_PAIR], [axis(0), axis(1), VPRIME_AXIS], EPS,
                          ctx)
    assert len(calls) == 1


@pytest.fixture
def replays(monkeypatch, ctx):
    """The (perp, word, translation) of every replay of the base pair's
    report, recorded; the report is witnessed at rank 3."""
    calls = []
    original = witness._replay

    def record(context, perp, word, lam):
        calls.append((perp, word, lam))
        return original(context, perp, word, lam)
    monkeypatch.setattr(witness, "_replay", record)
    rep = arithmeticity_report(ctx, 3, 8)
    assert rep.conclusion == WITNESSED and rep.translation_rank == 3
    assert len(calls) == 3
    return list(calls)


def test_replay_rejects_a_changed_token(ctx, replays):
    # each rank-raising element of the reported witness is replayed from
    # its word, so a word with any one token changed to another token is
    # another element, whose translation is not the claimed one
    for perp, word, lam in replays:
        for i, token in enumerate(word):
            for other in ("A", "A^-1", "C"):
                if other == token:
                    continue
                changed = word[:i] + (other,) + word[i + 1:]
                with pytest.raises(OracleMismatchError, match="replayed"):
                    witness._replay(ctx, perp, changed, lam)


def test_replay_rejects_a_bumped_translation(ctx, replays):
    # the element replayed from its word disagrees with a translation
    # moved by one in any entry
    for perp, word, lam in replays:
        witness._replay(ctx, perp, word, lam)
        for i in range(len(lam)):
            bumped = lam[:i] + [lam[i] + 1] + lam[i + 1:]
            with pytest.raises(OracleMismatchError, match="replayed"):
                witness._replay(ctx, perp, word, bumped)


def _reference_hunt(ctx, search_bound, word_bound):
    """_hunt with every walk its own: the pairs of each candidate, and
    the axes of a short one, listed from _fresh_axes."""
    images = ctx.word_orbit(word_bound)[0]
    best = None
    for eps in orbit_candidates(ctx, search_bound, word_bound):
        axes = _fresh_axes(ctx, eps, word_bound)
        pairs = []
        for word, y in axes:
            for sign in (1, -1):
                x = tuple(a + sign * b for a, b in zip(y, eps))
                x_word = () if x == ctx.v else images.get(x)
                if x_word is not None:
                    pairs.append(((x_word, x), (word, y)))
                    break
        raising = witness._closure(pairs, (), eps, ctx)
        if len(raising) == ctx.n - 2:
            axes = []
        else:
            raising = witness._closure([p for p, _, _ in raising], axes,
                                       eps, ctx)
        if best is None or len(raising) > best[0]:
            best = (len(raising), eps,
                    [p for p, path, _ in raising if not path], axes)
            if best[0] == ctx.n - 2:
                break
    return best


# the hunt walks each candidate's images once, its pairs filling its
# axes; it finds the same rank, eps, pairs and axes as a hunt that walks
# the orbit afresh for each and closes a short candidate twice, at both
# word bounds analyze runs

@pytest.mark.parametrize("f_text, g_text", _pair_cases())
def test_hunt_with_shared_walks_matches_the_reference(f_text, g_text):
    pair = build_pair(parse_poly(f_text), parse_poly(g_text))
    ctx = WitnessContext(pair)
    if min(signature(ctx.space)) < 1 or (2 * 3 + 1) ** ctx.n > SEARCH_CAP:
        return
    for bound in (8, 10):
        assert witness._hunt(ctx, 3, bound) \
            == _reference_hunt(WitnessContext(pair), 3, bound)


# one report does each candidate's work once: every hunt walks the
# images orthogonal to each candidate it tries once, and closes it once,
# trying the candidates in order until one reaches n - 2; the one more
# closure is span_rank_witness's, at the reported eps

@pytest.mark.parametrize("f_text, g_text", _pair_cases())
def test_report_walks_and_closes_each_candidate_once(monkeypatch, f_text,
                                                     g_text):
    ctx = WitnessContext(build_pair(parse_poly(f_text), parse_poly(g_text)))
    if min(signature(ctx.space)) < 1 or (2 * 3 + 1) ** ctx.n > SEARCH_CAP:
        return
    hunts, closed = [], []
    original_hunt, original_walk, original_closure = (
        witness._hunt, witness._orbit_perp, witness._closure)

    def hunt(context, search_bound, word_bound):
        hunts.append({"candidates": orbit_candidates(context, search_bound,
                                                     word_bound),
                      "walked": []})
        hunts[-1]["best"] = original_hunt(context, search_bound, word_bound)
        return hunts[-1]["best"]

    def walk(context, eps, word_bound):
        hunts[-1]["walked"].append(eps)
        return original_walk(context, eps, word_bound)

    def closure(pairs, axes, eps, context):
        closed.append(eps)
        return original_closure(pairs, axes, eps, context)
    monkeypatch.setattr(witness, "_hunt", hunt)
    monkeypatch.setattr(witness, "_orbit_perp", walk)
    monkeypatch.setattr(witness, "_closure", closure)
    rep = arithmeticity_report(ctx, 3, 8)
    assert hunts
    tried = []
    for run in hunts:
        walked, candidates = run["walked"], run["candidates"]
        assert walked == candidates[:len(walked)]
        if len(walked) < len(candidates):
            assert run["best"][:2] == (ctx.n - 2, walked[-1])
        tried += walked
    assert closed == tried + ([rep.epsilon] if rep.epsilon is not None
                             else [])


def _reference_closure(pairs, axes, eps, ctx):
    """_closure as it reflects every vector added in a layer about every
    axis, whether or not an earlier reflection put that axis in the
    span."""
    echelon = []
    _echelon_insert(echelon, eps)
    raising = []
    for pair in pairs:
        y = pair[1][1]
        if _echelon_insert(echelon, y):
            raising.append((pair, (), y))
            if len(raising) == ctx.n - 2:
                return raising
    added = list(raising)
    for _ in range(3):
        grown = []
        for pair, path, y in added:
            g_y = linalg.mat_vec(ctx.gram, y)
            for k, (_, z) in enumerate(axes):
                shift = sum(a * b for a, b in zip(g_y, z))
                if not shift:
                    continue
                x = tuple(a - shift * b for a, b in zip(y, z))
                if _echelon_insert(echelon, x):
                    grown.append((pair, (k,) + path, x))
                    raising.append(grown[-1])
                    if len(raising) == ctx.n - 2:
                        return raising
        added = grown
    return raising


# _closure tries an axis no more once a nonzero shift has put it in the
# span; for every candidate eps of the hunt at both word bounds, from the
# first pair alone and from the pairs that raise the rank in layer 0, it
# gives the reference's raising list, and layers 1 to 3 insert at most
# one vector per axis

@pytest.mark.parametrize("f_text, g_text", _pair_cases())
def test_closure_matches_the_reference_and_tries_each_axis_once(
        monkeypatch, f_text, g_text):
    pair = build_pair(parse_poly(f_text), parse_poly(g_text))
    ctx = WitnessContext(pair)
    if min(signature(ctx.space)) < 1 or (2 * 3 + 1) ** ctx.n > SEARCH_CAP:
        return
    inserts = 0

    def counted(echelon, vec):
        nonlocal inserts
        inserts += 1
        return _echelon_insert(echelon, vec)

    for bound in (8, 10):
        for eps in orbit_candidates(ctx, 3, bound):
            pairs = list(witness._gamma_pairs(ctx, eps, bound, []))
            axes = integral_reflection_vectors(ctx, eps, bound)
            layer_0 = [p for p, _, _ in _reference_closure(pairs, (), eps,
                                                           ctx)]
            for seeds in (pairs[:1], layer_0):
                expected = _reference_closure(seeds, axes, eps, ctx)
                inserts = 0
                with monkeypatch.context() as patch:
                    patch.setattr(witness, "_echelon_insert", counted)
                    assert witness._closure(seeds, axes, eps, ctx) \
                        == expected, (eps, bound)
                # eps and each seed are inserted in layer 0
                assert inserts - 1 - len(seeds) <= len(axes), (eps, bound)
