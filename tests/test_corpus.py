"""The worked-example catalogue must reproduce every stated value, and every
entry tagged as a misprint must fail to reproduce for the documented reason."""
from orthomono import corpus, linalg
from orthomono.corpus import ENTRIES, ERRATA, evaluate_entry, run_suite
from orthomono.witness import reflection_matrix


def test_suite_is_clean():
    suite = run_suite()
    assert suite.ok
    assert suite.out_of_order() == []


def test_suite_shape():
    suite = run_suite()
    assert len(suite.entries) == 11
    assert sum(len(e.results) for e in suite.entries) == 142


def test_every_erratum_is_exercised():
    suite = run_suite()
    assert suite.errata_found() == set(ERRATA)
    # a slug may tag several stated values (a wrong Av poisons every
    # inner product derived from it) but each slug must appear
    tagged = [d for entry in ENTRIES for d in entry.data
              if d.erratum is not None]
    assert {d.erratum for d in tagged} == set(ERRATA)
    assert all(d.erratum in ERRATA for d in tagged)


def test_untagged_match_and_tagged_mismatch():
    for entry in ENTRIES:
        result = evaluate_entry(entry)
        for r in result.results:
            if r.erratum is None:
                assert r.match, (entry.name, r.label)
            else:
                assert not r.match, (entry.name, r.label, r.erratum)


def test_tampering_is_detected():
    entry = ENTRIES[0]
    bad = entry.data[0]._replace(stated=999)
    tampered = entry._replace(data=(bad,) + tuple(entry.data[1:]))
    result = evaluate_entry(tampered)
    assert not result.results[0].ok
    assert result.results[0].found == str(entry.data[0].stated)


def test_entry_titles_show_both_polynomials():
    for entry in ENTRIES:
        result = evaluate_entry(entry)
        assert entry.f_text in result.title
        assert entry.g_text in result.title


# word_matrix freely reduces its word before evaluating it, as replays
# do; every word-image and unipotent datum reads as it does from the
# unreduced word, and a word whose exponents meet loses its cancelled
# tokens but keeps its matrix, the product of the two reflections

def test_reduced_words_read_as_the_unreduced_ones(monkeypatch):
    kinds = ("word-image", "unipotent")

    def found():
        return [(e.name, d.label, r.found) for e in ENTRIES
                for d, r in zip(e.data, evaluate_entry(e).results)
                if d.kind in kinds]

    reduced = found()
    assert len(reduced) == 15
    monkeypatch.setattr(corpus, "_reduced", tuple)
    assert found() == reduced


def test_word_matrix_cancels_where_exponents_meet():
    ctx = corpus._Context(ENTRIES[0])
    u = ctx.word_matrix((2, 3))
    assert u.word == ("A", "A", "C", "A", "C", "A^-1", "A^-1", "A^-1")
    gram = ctx.space.gram
    assert u.matrix == tuple(map(tuple, linalg.mat_mul(
        reflection_matrix(gram, (0, 0, 1, 0, 0)),
        reflection_matrix(gram, (0, 0, 0, 1, 0)))))
