"""One analysis pipeline: every command builds each per-pair object (pair,
form, signature, Q-rank certificate) once and hands it down, instead of
letting later stages rebuild it from the polynomials."""
import functools
import sys
from collections import Counter

import pytest

from orthomono import (cli, corpus, linalg, monodromy, polynomials,
                       quadform, witness)
from orthomono.parsing import parse_poly

from conftest import BASE_F, BASE_G

BUILDERS = ((monodromy, "build_pair"), (quadform, "invariant_space"),
            (quadform, "signature"), (quadform, "q_rank"))


def _counted(monkeypatch, functions) -> Counter:
    """Calls per function, counted through every package namespace that
    binds it, so a call made by any module is seen."""
    counts = Counter()
    modules = [m for key, m in sys.modules.items()
               if key == "orthomono" or key.startswith("orthomono.")]
    for owner, name in functions:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counts


@pytest.fixture
def calls(monkeypatch):
    return _counted(monkeypatch, BUILDERS)


@pytest.fixture
def gcd_calls(monkeypatch):
    """The degrees of the polynomials whose coprimality is tested, in
    call order, with True for a test that took the exact determinant."""
    calls, inside = [], []
    original, original_det = polynomials.coprime, linalg.det

    def counted(a, b):
        calls.append(a.degree)
        inside.append(True)
        try:
            return original(a, b)
        finally:
            inside.pop()

    def det(m):
        if inside:
            calls.append(True)
        return original_det(m)
    monkeypatch.setattr(polynomials, "coprime", counted)
    monkeypatch.setattr(polynomials.linalg, "det", det)
    return calls


def each(times):
    return {name: times for _, name in BUILDERS}


# signature counts the signs of the form's kept diagonal, so each stage
# that needs (p, q) takes it: the report's form fields, q_rank's
# hi <= min(p, q) check and the hunt's real-rank test, and in pad the
# base certificate's q_rank before them.  The elimination behind the
# diagonal is counted by the eliminations tests below.

def test_analyze_builds_each_object_once(calls):
    doc = cli.build_report(BASE_F, BASE_G)
    assert doc["witness"]["conclusion"] == "witnessed-arithmetic"
    assert calls == {**each(1), "signature": 3}


def test_pad_builds_base_and_padded_objects_once(calls):
    doc = cli.build_pad_report(BASE_F, BASE_G, "y^2+y+1", "y^2+1")
    assert doc["padding"]["n"] == 17
    assert calls == {**each(2), "signature": 4}


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_worked_example_builds_each_object_once(calls, entry):
    corpus.evaluate_entry(entry)
    assert calls == each(1)


def test_analyze_takes_each_determinant_once(monkeypatch):
    # det A and det B are read once each off the one nonzero entry in
    # row 0 of their companion matrices, det C is C's corner entry once
    # its columns are checked, and no exact determinant is taken: f and g
    # are coprime by one gcd over GCD_PRIME
    pair = monodromy.build_pair(parse_poly(BASE_F), parse_poly(BASE_G))
    seen, read, gcds = [], [], []
    original, original_read = linalg.det, monodromy._companion_det
    original_gcd = polynomials._gcd_degree_mod

    def counted(m):
        seen.append(tuple(map(tuple, m)))
        return original(m)

    def counted_read(m):
        read.append(m)
        return original_read(m)

    def counted_gcd(a, b, p):
        gcds.append((a, b))
        return original_gcd(a, b, p)
    monkeypatch.setattr(linalg, "det", counted)
    monkeypatch.setattr(monodromy, "_companion_det", counted_read)
    monkeypatch.setattr(polynomials, "_gcd_degree_mod", counted_gcd)
    doc = cli.build_report(BASE_F, BASE_G)
    assert (doc["derived"]["det_A"], doc["derived"]["det_B"],
            doc["derived"]["det_C"]) == (1, -1, -1)
    assert seen == []
    assert read == [pair.A, pair.B]
    assert gcds == [(pair.f.coeffs, pair.g.coeffs)]


# build_pair reads A^-1, C and S off the companion structure and checks
# them through A's sparse rows: no elimination, product or rank, and no
# exact determinant on a coprime pair, at any degree

@pytest.mark.parametrize("f_text, g_text", [
    (BASE_F, BASE_G), ("(x-1)^127", "(x+1)^127"),
    ("(x-1)*Phi(3)^63", "(x+1)*Phi(4)^63")], ids=["base", "127", "family"])
def test_build_pair_takes_no_elimination_and_no_product(monkeypatch, f_text,
                                                        g_text):
    inside = []
    counts = Counter()
    original_build = monodromy.build_pair

    def build_pair(*args):
        inside.append(True)
        try:
            return original_build(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(monodromy, "build_pair", build_pair)
    for name in ("_eliminate", "mat_mul", "rank", "det", "inverse"):
        def counted(*args, _name=name, _original=getattr(linalg, name)):
            if inside:
                counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(linalg, name, counted)
    pair = monodromy.build_pair(parse_poly(f_text), parse_poly(g_text))
    assert counts == {}
    # the counters see the kernels: the exact det A is one elimination
    inside.append(True)
    assert linalg.det(pair.A) == pair.det_A
    assert counts == {"det": 1, "_eliminate": 1}


# invariant_space certifies the remainder Gram entry by entry against A
# and C: it solves nothing and multiplies no matrices, and its one
# elimination is the congruence diagonal it keeps.  WitnessContext builds
# its form through invariant_space, so the form is certified once

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_invariant_space_solves_nothing(monkeypatch, entry):
    pair = monodromy.build_pair(parse_poly(entry.f_text),
                                parse_poly(entry.g_text))
    counts = _counted(monkeypatch, ((linalg, "_eliminate"),
                                    (linalg, "mat_mul"),
                                    (quadform, "congruence_diagonal"),
                                    (quadform, "_unpreserved_generator")))
    witness.WitnessContext(pair)
    assert counts == {"congruence_diagonal": 1, "_unpreserved_generator": 1}


@pytest.mark.parametrize("build, args, degrees", [
    (cli.build_report, (BASE_F, BASE_G), [5]),
    # pad certifies the base form for the base certificate, then the
    # padded one for the analysis of the padded pair
    (cli.build_pad_report, (BASE_F, BASE_G, "y^2+y+1", "y^2+1"), [5, 17])])
def test_each_command_certifies_each_form_once(monkeypatch, build, args,
                                               degrees):
    checked = []
    original = quadform._unpreserved_generator

    def counted(pair, gram):
        checked.append(pair.n)
        return original(pair, gram)
    monkeypatch.setattr(quadform, "_unpreserved_generator", counted)
    build(*args)
    assert checked == degrees


# invariant_space takes the one congruence diagonal of the certified form;
# signature and the first Witt stage read it, and each later Witt stage
# eliminates its smaller lattice once

@pytest.fixture
def eliminations(monkeypatch):
    dims = []
    original = quadform.congruence_diagonal

    def counted(gram):
        dims.append(len(gram))
        return original(gram)
    monkeypatch.setattr(quadform, "congruence_diagonal", counted)
    return dims


def test_analyze_takes_one_congruence_elimination_per_lattice(eliminations):
    doc = cli.build_report(BASE_F, BASE_G)
    assert doc["q_rank"]["lo"] == 2
    assert eliminations == [5, 3, 1]


def test_definite_analyze_takes_one_congruence_elimination(eliminations):
    doc = cli.build_report("Phi(1)*Phi(3)*Phi(5)", "Phi(2)*Phi(4)*Phi(8)")
    assert doc["signature"] == {"p": 7, "q": 0, "interlace_abs_diff": 7}
    assert eliminations == [7]


# no polynomial gcd over Q is taken: build_pair certifies that f and g
# are coprime by one gcd over GF(GCD_PRIME) (degree n), and pad that its
# P and Q are (degree m), before it builds the padded and then the base
# pair; on these pairs that gcd is 1, so no exact determinant is taken

def test_analyze_takes_no_polynomial_gcd(gcd_calls):
    cli.build_report(BASE_F, BASE_G)
    assert gcd_calls == [5]


def test_pad_takes_one_polynomial_gcd(gcd_calls):
    cli.build_pad_report(BASE_F, BASE_G, "y^2+y+1", "y^2+1")
    assert gcd_calls == [2, 17, 5]


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_worked_example_takes_no_polynomial_gcd(gcd_calls, entry):
    corpus.evaluate_entry(entry)
    assert gcd_calls == [5]


# the hunt takes its candidates from the word orbit, not from the box, and
# builds one perp basis per eps it walks (span_rank_witness runs once, on
# the reported eps)

@pytest.fixture
def hunt_calls(monkeypatch):
    return _counted(monkeypatch, ((quadform, "isotropic_search"),
                                  (witness, "orthocomplement"),
                                  (witness, "span_rank_witness")))


def test_analyze_walks_no_isotropic_box(hunt_calls):
    doc = cli.build_report(BASE_F, BASE_G)
    assert doc["witness"]["conclusion"] == "witnessed-arithmetic"
    assert hunt_calls["isotropic_search"] == 0


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_analyze_builds_one_perp_basis_per_eps(monkeypatch, hunt_calls,
                                               entry):
    walked = set()
    original = witness._gamma_pairs

    def pairs(ctx, eps, word_bound):
        walked.add(tuple(eps))
        return original(ctx, eps, word_bound)
    monkeypatch.setattr(witness, "_gamma_pairs", pairs)
    cli.build_report(entry.f_text, entry.g_text)
    assert hunt_calls["isotropic_search"] == 0
    assert hunt_calls["orthocomplement"] == len(walked) >= 1
    assert hunt_calls["span_rank_witness"] == 1


# the hunt runs on ints with no elimination: a basis of eps-perp is one
# lattice cut of Z^n by G eps, and the translation vector is read off u

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_witness_hunt_takes_no_elimination(monkeypatch, entry):
    counts = Counter()
    inside = []
    original_report, original_eliminate = (witness.arithmeticity_report,
                                           linalg._eliminate)

    def report(*args):
        inside.append(True)
        try:
            return original_report(*args)
        finally:
            inside.pop()

    def eliminate(rows):
        counts["inside" if inside else "outside"] += 1
        return original_eliminate(rows)
    monkeypatch.setattr(cli, "arithmeticity_report", report)
    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    doc = cli.build_report(entry.f_text, entry.g_text)
    assert doc["witness"]["unipotent"] is not None
    assert counts["inside"] == 0
    # nothing in analyze eliminates any more; the counter still sees the
    # kernels, as the exact determinant of the pair's S shows
    linalg.det(monodromy.build_pair(parse_poly(entry.f_text),
                                    parse_poly(entry.g_text)).S)
    assert counts["outside"] == 1


# span_rank_witness reflects vectors, so it builds no reflection matrix
# and multiplies no matrices, itself or in the isometry check of each
# element it replays, one per rank it counts

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_span_rank_multiplies_matrices_only_to_check(monkeypatch, entry):
    spans, where = [], []
    original_span = witness.span_rank_witness
    original_replay = witness._replay
    original_refl = witness.reflection_matrix
    original_mul = linalg.mat_mul

    def inside(key, fn, *args):
        where.append(key)
        try:
            return fn(*args)
        finally:
            where.pop()

    def span(*args):
        spans.append(Counter())
        rank = inside("span", original_span, *args)
        spans[-1]["rank"] = rank
        return rank

    def replay(*args):
        spans[-1]["replays"] += 1
        return inside("replay", original_replay, *args)

    def counted(name, fn):
        def wrapper(*args):
            if where:
                spans[-1][f"{name} in {where[-1]}"] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(witness, "span_rank_witness", span)
    monkeypatch.setattr(witness, "_replay", replay)
    monkeypatch.setattr(witness, "reflection_matrix",
                        counted("reflection_matrix", original_refl))
    monkeypatch.setattr(linalg, "mat_mul", counted("mat_mul", original_mul))
    cli.build_report(entry.f_text, entry.g_text)
    assert len(spans) == 1
    for s in spans:
        assert s["rank"] == s["replays"] == 3
        assert s["reflection_matrix in span"] == s["mat_mul in span"] \
            == s["reflection_matrix in replay"] == s["mat_mul in replay"] \
            == 0


# element applies each token to the rows of the product so far, and its
# isometry check pairs columns, so it takes no dense product

@pytest.mark.parametrize("word", [
    (), ("A",), ("A", "C", "A^-1", "C"), ("C", "A^-1", "A^-1", "C", "A"),
    ("A", "C", "A^-1", "A", "A", "A", "C", "A^-1", "A^-1", "C")])
def test_element_multiplies_matrices_only_to_check(monkeypatch, base_pair,
                                                   word):
    ctx = witness.WitnessContext(base_pair)
    ctx.element(("A",))  # the generators are built and checked on first use
    where, counts, checks = [], Counter(), []
    original_check, original_mul = witness._check_isometry, linalg.mat_mul

    def check(*args):
        checks.append(args[2])
        where.append(True)
        try:
            return original_check(*args)
        finally:
            where.pop()

    def mat_mul(a, b):
        counts["in check" if where else "outside"] += 1
        return original_mul(a, b)
    monkeypatch.setattr(witness, "_check_isometry", check)
    monkeypatch.setattr(linalg, "mat_mul", mat_mul)
    ctx.element(word)
    assert len(checks) == 1
    assert counts == {}


# the whole hunt takes no dense product, not even in an isometry check:
# of a replayed word, of a reflection_matrix or of a generator

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_hunt_multiplies_matrices_only_to_check(monkeypatch, entry):
    where, counts = [], Counter()
    original_hunt = witness.arithmeticity_report
    original_check, original_mul = witness._check_isometry, linalg.mat_mul

    def inside(key, fn):
        def wrapper(*args):
            where.append(key)
            try:
                return fn(*args)
            finally:
                where.pop()
        return wrapper

    def mat_mul(a, b):
        counts[where[-1] if where else "outside"] += 1
        return original_mul(a, b)

    def check(*args):
        checks.append(where[-1] if where else "outside")
        return inside("check", original_check)(*args)
    checks = []
    monkeypatch.setattr(cli, "arithmeticity_report",
                        inside("hunt", original_hunt))
    monkeypatch.setattr(witness, "_check_isometry", check)
    monkeypatch.setattr(linalg, "mat_mul", mat_mul)
    cli.build_report(entry.f_text, entry.g_text)
    assert len(checks) >= 2 and set(checks) == {"hunt"}
    assert counts == {}


# span_rank_witness ranks a closure: eps, the y of each pair, then each
# axis applied to each vector that raised the rank, so it reduces at most
# 1 + len(pairs) + len(axes) * rank vectors

@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_span_rank_reduces_at_most_axes_times_rank_vectors(monkeypatch,
                                                           entry):
    spans = []
    original_span = witness.span_rank_witness
    original_insert = witness._echelon_insert

    def span(pairs, axes, eps, ctx):
        spans.append([len(pairs), len(axes), 0])
        rank = original_span(pairs, axes, eps, ctx)
        spans[-1].append(rank)
        return rank

    def insert(echelon, vec):
        if spans:
            spans[-1][2] += 1
        return original_insert(echelon, vec)
    monkeypatch.setattr(witness, "span_rank_witness", span)
    monkeypatch.setattr(witness, "_echelon_insert", insert)
    cli.build_report(entry.f_text, entry.g_text)
    assert spans
    for pairs, axes, inserts, rank in spans:
        assert 1 <= inserts <= 1 + pairs + axes * rank


# the Witt pass carries only its lattice basis from stage to stage, and
# cuts it by steps on two basis rows at a time, so it multiplies no
# matrices, dense or sparse: not on a definite form, which stops at
# stage 1, nor on the base pair, which splits two planes; the counter
# sees the product of the base pair's standard-basis form

def test_definite_witt_pass_multiplies_no_matrices(monkeypatch):
    inside = []
    counts = Counter()
    original_witt = quadform.witt_decompose

    def witt(*args, **kwargs):
        inside.append(True)
        try:
            return original_witt(*args, **kwargs)
        finally:
            inside.pop()

    def counted(name, original):
        def product(a, b):
            counts[f"{name} {'inside' if inside else 'outside'}"] += 1
            return original(a, b)
        return product
    monkeypatch.setattr(quadform, "witt_decompose", witt)
    for name in ("mat_mul", "sparse_mul"):
        monkeypatch.setattr(linalg, name,
                            counted(name, getattr(linalg, name)))
    doc = cli.build_report("Phi(1)*Phi(3)*Phi(5)", "Phi(2)*Phi(4)*Phi(8)")
    assert (doc["signature"]["p"], doc["signature"]["q"]) == (7, 0)
    assert (doc["q_rank"]["lo"], doc["q_rank"]["hi"]) == (0, 0)
    # build_pair's two sparse checks of A^-1 and B are outside
    assert counts == {"sparse_mul outside": 2}
    doc = cli.build_report(BASE_F, BASE_G)
    assert doc["q_rank"]["lo"] == 2
    assert counts["mat_mul inside"] == counts["sparse_mul inside"] == 0
    pair = monodromy.build_pair(parse_poly(BASE_F), parse_poly(BASE_G))
    quadform.gram_invariance(pair, quadform.invariant_space(pair))
    assert counts["mat_mul outside"] == 2


# R = B G B^T is formed only at a stage that reads it: the pad's padded
# pass takes its first two stages from the lifted base witnesses and
# forms R once, at the stage after them, which stops at the cap; the
# base pass searches at stages 2 and 3

def test_seeded_witt_stages_form_no_restricted_gram(monkeypatch,
                                                    eliminations):
    formed = []
    original = quadform._restricted_gram

    def restricted(basis, gram):
        formed.append((len(basis), len(gram)))
        return original(basis, gram)
    monkeypatch.setattr(quadform, "_restricted_gram", restricted)
    doc = cli.build_pad_report(BASE_F, BASE_G, "y^2+y+1", "y^2+1")
    assert (doc["q_rank"]["lo"], doc["q_rank"]["hi"]) == (2, 7)
    assert formed == [(3, 5), (1, 5), (13, 17)]
    assert eliminations == [5, 3, 1, 17, 13]


# the hunt's generators A, A^-1 and C are checked and built on first
# use, so a pair whose hunt never runs builds no reflection at all

@pytest.fixture
def reflection_calls(monkeypatch):
    return _counted(monkeypatch, ((witness, "reflection_matrix"),))


def test_definite_pair_builds_no_reflection(reflection_calls):
    doc = cli.build_report("Phi(1)*Phi(3)*Phi(5)", "Phi(2)*Phi(4)*Phi(8)")
    assert (doc["signature"]["p"], doc["signature"]["q"]) == (7, 0)
    assert reflection_calls["reflection_matrix"] == 0


def test_pair_over_the_cap_with_no_witness_builds_no_reflection(
        reflection_calls):
    doc = cli.build_report("Phi(1)*Phi(7)*Phi(9)",
                           "Phi(2)*Phi(4)^2*Phi(12)*Phi(10)")
    assert doc["derived"]["n"] == 13
    assert (doc["q_rank"]["lo"], doc["q_rank"]["hi"]) == (0, 6)
    assert doc["q_rank"]["witnesses"] == []
    assert reflection_calls["reflection_matrix"] == 0


def test_analyze_builds_the_generators_once(monkeypatch):
    built = []
    build = witness.WitnessContext.generators.func

    def counted(self):
        built.append(self)
        return build(self)
    prop = functools.cached_property(counted)
    prop.__set_name__(witness.WitnessContext, "generators")
    monkeypatch.setattr(witness.WitnessContext, "generators", prop)
    doc = cli.build_report(BASE_F, BASE_G)
    assert doc["witness"]["conclusion"] == "witnessed-arithmetic"
    assert len(built) == 1
