"""One analysis pipeline: every command builds each per-pair object (pair,
form, signature, Q-rank certificate) once and hands it down, instead of
letting later stages rebuild it from the polynomials."""
import sys
from collections import Counter

import pytest

from orthomono import cli, corpus, linalg, monodromy, quadform

from conftest import BASE_F, BASE_G

BUILDERS = ((monodromy, "build_pair"), (quadform, "invariant_space"),
            (quadform, "signature"), (quadform, "q_rank"))


@pytest.fixture
def calls(monkeypatch):
    """Calls per builder, counted through every package namespace that
    binds it, so a call made by any module is seen."""
    counts = Counter()
    modules = [m for key, m in sys.modules.items()
               if key == "orthomono" or key.startswith("orthomono.")]
    for owner, name in BUILDERS:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return counts


def each(times):
    return {name: times for _, name in BUILDERS}


def test_analyze_builds_each_object_once(calls):
    doc = cli.build_report(BASE_F, BASE_G)
    assert doc["witness"]["conclusion"] == "witnessed-arithmetic"
    assert calls == each(1)


def test_pad_builds_base_and_padded_objects_once(calls):
    doc = cli.build_pad_report(BASE_F, BASE_G, "y^2+y+1", "y^2+1")
    assert doc["padding"]["n"] == 17
    assert calls == each(2)


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_worked_example_builds_each_object_once(calls, entry):
    corpus.evaluate_entry(entry)
    assert calls == each(1)


def test_analyze_takes_each_determinant_once(monkeypatch):
    # det A, det B and det C in build_pair, the cyclic basis matrix, and
    # the invariance-route form: five distinct matrices, one det each
    seen = []
    original = linalg.det

    def counted(m):
        seen.append(tuple(map(tuple, m)))
        return original(m)
    monkeypatch.setattr(linalg, "det", counted)
    doc = cli.build_report(BASE_F, BASE_G)
    assert (doc["derived"]["det_A"], doc["derived"]["det_B"],
            doc["derived"]["det_C"]) == (1, -1, -1)
    assert len(seen) == len(set(seen)) == 5
