"""The worked-example catalogue must reproduce every stated value, and every
entry tagged as a misprint must fail to reproduce for the documented reason."""
from orthomono.corpus import ENTRIES, ERRATA, evaluate_entry, run_suite


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
