"""Command line surface: report construction, serialization, exit codes."""
import copy
import gc
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import orthomono
from orthomono import cli, quadform, witness
from orthomono.quadform import (Obstruction, OracleMismatchError,
                                RankCertificate)
from orthomono.polynomials import render
from orthomono.witness import GroupElement

from conftest import BASE_F, BASE_G, random_cyclotomic_pairs, strict_json

SUMMARY = "142 stated values checked, 0 unexplained, " \
    "9 catalogued misprints confirmed"


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr()


def strip_timings(doc):
    doc = copy.deepcopy(doc)
    doc.pop("timings", None)
    return doc


# ------------------------------------------------------------------ reports

def test_build_report_base():
    doc = cli.build_report(BASE_F, BASE_G)
    assert doc["schema_version"] == "orthomono/1"
    assert doc["input"] == {"f": BASE_F, "g": BASE_G}
    assert doc["derived"]["n"] == 5
    assert doc["derived"]["type"] == "orthogonal"
    assert doc["derived"]["normalized_by_scalar_shift"] is False
    assert doc["gram"][0] == ["2/1", "1/1", "2/1", "2/1", "1/1"]
    assert doc["signature"] == {"p": 3, "q": 2, "interlace_abs_diff": 1}
    assert doc["q_rank"]["lo"] == 2 and doc["q_rank"]["hi"] == 2
    assert doc["witness"]["conclusion"] == "witnessed-arithmetic"
    assert doc["witness"]["translation_rank"] == 3
    assert all(isinstance(t, int) for t in doc["timings"].values())


def test_build_report_deterministic_modulo_timings():
    a = strip_timings(cli.build_report(BASE_F, BASE_G))
    b = strip_timings(cli.build_report(BASE_F, BASE_G))
    assert cli.serialize_report(a) == cli.serialize_report(b)


def test_serialize_round_trip():
    doc = cli.build_report(BASE_F, BASE_G)
    text = cli.serialize_report(doc)
    assert text.endswith("\n")
    assert cli.parse_report(text) == doc
    with pytest.raises(ValueError):
        cli.parse_report("[1, 2]")


# report-shaped documents: every scalar type the writer takes, strings
# over every code point (non-ASCII, control characters and lone
# surrogates), ints far past 64 bits, and nested, empty and mixed
# containers
TEXT = st.text(st.characters(blacklist_categories=()))
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-10 ** 1000, -10 ** 200) | TEXT)
DOCS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300)
@given(DOCS)
@example({"a": [], "b": {}, "c": [[], {}, [[]]], "d": ({},)})
@example([True, 1, False, 0, None, "1", -2 ** 4000])
@example({"\u00e9\x00\x1f\"\\": ["\ud800", "\u2028", "tab\there"]})
def test_writer_is_the_stdlib_json_text(doc):
    assert cli.serialize_report(doc) == \
        json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    1.5, Fraction(1, 2), {1, 2}, {1: "a"}, {"a": [0, {"b": 0.5}]},
    [Fraction(3)], {"a": {(1,): 2}}, {"a": frozenset()}, {"a": b"x"},
    # records are NamedTuples, so tuples, but not report values
    RankCertificate(lo=1, hi=1, isotropic_witnesses=((1, 0),),
                    residual_diagonal=()),
    GroupElement(word=("C",), matrix=((1,),)),
    {"a": Obstruction(prime=2, exponent=1, statement="no zero mod 2")},
], ids=["float", "fraction", "set", "int-key", "nested-float",
        "integral-fraction", "tuple-key", "frozenset", "bytes",
        "rank-certificate", "group-element", "nested-obstruction"])
def test_writer_rejects_what_a_report_does_not_hold(doc):
    with pytest.raises(TypeError):
        cli.serialize_report(doc)


def test_commands_leave_no_cyclic_garbage(capsys, tmp_path):
    # a command's garbage must go when its last reference does: cycles
    # wait for a full collection, so a long-running caller's memory
    # would grow with the number of commands it runs
    commands = [
        ["analyze", "--f", BASE_F, "--g", BASE_G],
        ["pad", "--f0", BASE_F, "--g0", BASE_G, "--P", "y^2+1",
         "--Q", "y^2+y+1"],
        ["examples", "--quiet", "--json", str(tmp_path / "examples.json")],
        # an error record, exit 2
        ["analyze", "--f", "x^3-1", "--g", "(x^2+x+1)*(x+1)"],
    ]
    for argv in commands:  # the first use fills the per-process caches
        cli.main(argv)
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            cli.main(argv)
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_all_rationals_are_strings():
    doc = cli.build_report(BASE_F, BASE_G)
    for row in doc["gram"]:
        for cell in row:
            num, den = cell.split("/")
            int(num), int(den)
    for cell in doc["q_rank"]["residual_diagonal"]:
        int(cell.split("/")[0])


def test_scalar_shift_normalization():
    doc = cli.build_report("x^5+1", "(x-1)*(x^2+1)^2")
    assert doc["derived"]["normalized_by_scalar_shift"] is True
    assert doc["derived"]["f"] == "(x^5-1)"
    base = cli.build_report(BASE_F, BASE_G)
    assert doc["gram"] == base["gram"]
    assert doc["signature"] == base["signature"]


def test_symplectic_report_short_circuits():
    doc = cli.build_report("x^2-x+1", "x^2+x+1")
    assert doc["derived"]["type"] == "symplectic"
    assert doc["gram"] is None
    assert doc["signature"] is None
    assert doc["q_rank"] is None
    assert doc["witness"] == {"conclusion": "out-of-scope(symplectic)",
                              "epsilon": None, "unipotent": None,
                              "translation_rank": None, "caveats": []}


def test_build_pad_report():
    doc = cli.build_pad_report("x^5-1", "(x+1)*(x^2+1)^2",
                               "y^2+y+1", "y^2+1")
    pad = doc["padding"]
    assert (pad["m"], pad["n"]) == (2, 17)
    assert pad["remainder_coeff_check"] and pad["isometry_check"]
    assert pad["base_q_rank"]["lo"] == 2
    assert len(pad["embedded_witnesses"][0]) == 17
    assert doc["q_rank"]["lo"] >= 2
    # the hunt runs as in analyze; 7^17 is over SEARCH_CAP, so it finds
    # nothing
    assert doc["witness"]["conclusion"] == "inconclusive"
    assert doc["witness"]["unipotent"] is None


def test_build_pad_report_trivial_exponent():
    doc = cli.build_pad_report("x^5-1", "(x+1)*(x^2+1)^2", "1", "1")
    assert doc["padding"]["m"] == 0
    assert doc["padding"]["n"] == 5
    assert doc["padding"]["f"] == "(x^5-1)"


# --------------------------------------------------------------- exit codes

def test_analyze_ok(capsys):
    code, cap = run(capsys, "analyze", "--f", BASE_F, "--g", BASE_G)
    assert code == 0
    doc = json.loads(cap.out)
    assert doc["witness"]["conclusion"] == "witnessed-arithmetic"


def test_analyze_symplectic_is_ok(capsys):
    code, cap = run(capsys, "analyze", "--f", "x^2-x+1", "--g", "x^2+x+1")
    assert code == 0
    assert json.loads(cap.out)["derived"]["type"] == "symplectic"


# a symplectic pair builds no form, but its input is held to build_pair's
# checks: it once exited 0 with an out-of-scope report on any of these
SYMPLECTIC_INVALID = [
    ({"f": "2x^2+1", "g": "x^2+1"}, "f and g must be monic"),
    ({"f": "x^2+1", "g": "x^2+1"}, "f and g must be coprime"),
    ({"f": "1", "g": "1"}, "degree must be at least 1"),
]


@pytest.mark.parametrize("pair, message", SYMPLECTIC_INVALID,
                         ids=["not-monic", "not-coprime", "degree-0"])
def test_analyze_invalid_symplectic_pair_exits_2(capsys, pair, message):
    code, cap = run(capsys, "analyze", "--f", pair["f"], "--g", pair["g"])
    assert code == 2
    assert json.loads(cap.out)["error"] == {"kind": "validation",
                                            "message": message}


def test_batch_line_invalid_symplectic_pair(capsys, tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(json.dumps(pair) + "\n"
                            for pair, _ in SYMPLECTIC_INVALID)
                    + json.dumps({"f": "x^2-x+1", "g": "x^2+x+1"}) + "\n")
    code, cap = run(capsys, "analyze", "--batch", str(path))
    assert code == 2
    *bad, good = [json.loads(ln) for ln in cap.out.splitlines()]
    assert bad == [{"error": {"kind": "validation", "message": message},
                    "input": pair} for pair, message in SYMPLECTIC_INVALID]
    assert good["witness"]["conclusion"] == "out-of-scope(symplectic)"


def test_analyze_parse_error(capsys):
    code, cap = run(capsys, "analyze", "--f", "x^5-", "--g", "x+1")
    assert code == 2
    doc = json.loads(cap.out)
    assert doc["error"]["kind"] == "validation"
    assert "position" in doc["error"]["message"]


def test_analyze_pair_validation_error(capsys):
    # shared factor x^2+x+1, constants still (-1, 1)
    code, cap = run(capsys, "analyze", "--f", "x^3-1",
                    "--g", "(x^2+x+1)*(x+1)")
    assert code == 2
    doc = json.loads(cap.out)
    assert doc["error"]["kind"] == "validation"
    assert "coprime" in doc["error"]["message"]


# coprime, f(0) = -1 and g(0) = 1, but x^4 f(1/x) != -f: no form is
# invariant, and the message names f
NOT_RECIPROCAL = {"f": "x^4-x^2-1", "g": "x^4+x^2+1"}
NOT_RECIPROCAL_ERROR = {
    "kind": "validation",
    "message": "f = (x^4-x^2-1) is not self-reciprocal, so no quadratic "
               "form is invariant under the pair"}


def test_analyze_not_self_reciprocal_exits_2(capsys):
    code, cap = run(capsys, "analyze", "--f", NOT_RECIPROCAL["f"],
                    "--g", NOT_RECIPROCAL["g"])
    assert code == 2
    assert json.loads(cap.out)["error"] == NOT_RECIPROCAL_ERROR


def test_batch_line_not_self_reciprocal(capsys, tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps(NOT_RECIPROCAL) + "\n"
                    + json.dumps({"f": BASE_F, "g": BASE_G}) + "\n")
    code, cap = run(capsys, "analyze", "--batch", str(path))
    assert code == 2
    bad, good = [json.loads(ln) for ln in cap.out.splitlines()]
    assert bad == {"error": NOT_RECIPROCAL_ERROR, "input": NOT_RECIPROCAL}
    assert good["witness"]["conclusion"] == "witnessed-arithmetic"


def test_analyze_missing_arguments(capsys):
    code, cap = run(capsys, "analyze", "--f", BASE_F)
    assert code == 2
    assert "--batch" in cap.err


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["analyze", "--f", BASE_F, "--g", BASE_G],
    ["pad", "--f0", BASE_F, "--g0", BASE_G, "--P", "y^2+y+1", "--Q", "y^2+1"],
    ["examples"]], ids=["analyze", "pad", "examples"])
def test_search_bound_below_one_exits_2(capsys, command, bound):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + [f"--search-bound={bound}"])
    assert exc.value.code == 2
    assert "--search-bound: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["analyze", "--f", BASE_F, "--g", BASE_G]], ids=["analyze"])
def test_word_bound_below_one_exits_2(capsys, command, bound):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + [f"--word-bound={bound}"])
    assert exc.value.code == 2
    assert "--word-bound: must be at least 1" in capsys.readouterr().err


def test_word_bound_above_the_limit_exits_2_without_an_orbit(capsys,
                                                            monkeypatch):
    walked = []
    monkeypatch.setattr(witness.WitnessContext, "word_orbit",
                        lambda self, bound: walked.append(bound))
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--f", BASE_F, "--g", BASE_G,
                  f"--word-bound={witness.MAX_WORD_BOUND + 1}"])
    assert exc.value.code == 2
    assert "--word-bound: must be at most MAX_WORD_BOUND = 16, got 17" \
        in capsys.readouterr().err
    assert walked == []


def test_word_bound_at_the_limit_runs(capsys):
    code, cap = run(capsys, "analyze", "--f", BASE_F, "--g", BASE_G,
                    f"--word-bound={witness.MAX_WORD_BOUND}")
    assert code == 0
    assert json.loads(cap.out)["witness"]["conclusion"] \
        == "witnessed-arithmetic"


@pytest.mark.parametrize("command", [
    ["pad", "--f0", BASE_F, "--g0", BASE_G, "--P", "y^2+y+1", "--Q", "y^2+1"],
    ["examples"]], ids=["pad", "examples"])
def test_word_bound_is_analyze_only(capsys, command):
    # pad hunts at the default word bound and examples runs no hunt, so
    # neither takes the flag
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--word-bound=8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --word-bound=8" \
        in capsys.readouterr().err


def test_search_bound_help_names_the_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "exceeds SEARCH_CAP = 5,000,000 searches nothing" \
        in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("bound", ["10", pytest.param("11", marks=(
    pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: a stage whose box (2b+1)^k exceeds SEARCH_CAP "
        "searches nothing, so at degree 5 bound 11 (23^5 > SEARCH_CAP) "
        "finds less than bound 10 does"))))])
def test_a_larger_search_bound_never_weakens_the_certificate(capsys, bound):
    code, cap = run(capsys, "analyze", "--f", BASE_F, "--g", BASE_G,
                    f"--search-bound={bound}")
    doc = json.loads(cap.out)
    assert (code, doc["witness"]["conclusion"]) \
        == (0, "witnessed-arithmetic")
    assert (doc["q_rank"]["lo"], doc["q_rank"]["hi"]) == (2, 2)
    code, cap = run(capsys, "examples", "--quiet", f"--search-bound={bound}")
    assert code == 0, cap.out


@pytest.mark.parametrize("bound", [2, pytest.param(3, marks=(
    pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: at n = 8 the default bound's boxes, 7^8, exceed "
        "SEARCH_CAP, so no Witt stage searches and no hunt runs, where "
        "bound 2's 5^8 fit"))))])
def test_battery_pair_18_keeps_its_witness_at_a_larger_bound(bound):
    f, g = random_cyclotomic_pairs()[18]
    doc = cli.build_report(render(f), render(g), search_bound=bound)
    assert doc["witness"]["conclusion"] == "witnessed-arithmetic"
    assert (doc["q_rank"]["lo"], doc["q_rank"]["hi"]) == (2, 2)


def test_oracle_failure_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise OracleMismatchError("routes disagree")
    monkeypatch.setattr(cli, "build_report", boom)
    code, cap = run(capsys, "analyze", "--f", BASE_F, "--g", BASE_G)
    assert code == 3
    doc = json.loads(cap.out)
    assert doc["error"]["kind"] == "oracle-mismatch"


def test_interlacing_that_disagrees_with_the_signature_exits_3(
        capsys, monkeypatch):
    # the base pair has |p - q| = |3 - 2| = 1; None (no second route)
    # is no disagreement
    monkeypatch.setattr(cli, "signature_interlace", lambda f, g: None)
    assert cli.build_report(BASE_F, BASE_G)["signature"][
        "interlace_abs_diff"] is None
    monkeypatch.setattr(cli, "signature_interlace", lambda f, g: 3)
    with pytest.raises(OracleMismatchError,
                       match=r"interlacing gives \|p - q\| = 3 but the "
                             r"diagonalized form has \|3 - 2\| = 1"):
        cli.build_report(BASE_F, BASE_G)
    code, cap = run(capsys, "analyze", "--f", BASE_F, "--g", BASE_G)
    assert code == 3
    assert json.loads(cap.out)["error"]["kind"] == "oracle-mismatch"


# the hunt builds u = C_x C_v twice, as its word and as the product of
# the two reflections; a product off the word is a disagreement of the
# routes, exit 3 with its record, not a traceback

def test_unipotent_off_its_word_exits_3(capsys, monkeypatch):
    original = witness._times_reflection

    def skewed(rows, h, w_d):
        out = [list(row) for row in original(rows, h, w_d)]
        out[0][0] += 1
        return out
    monkeypatch.setattr(witness, "_times_reflection", skewed)
    with pytest.raises(OracleMismatchError, match="does not match its word"):
        cli.build_report(BASE_F, BASE_G)
    code, cap = run(capsys, "analyze", "--f", BASE_F, "--g", BASE_G)
    assert code == 3
    assert json.loads(cap.out)["error"]["kind"] == "oracle-mismatch"


# every element that raises the translation rank is replayed from its
# word; a word that gives another element is exit 3 with its record

def test_replayed_word_off_its_translation_exits_3(capsys, monkeypatch):
    original = witness._reduced

    def skewed(word):
        word = original(word)
        return ("C" if word[0] == "A" else "A",) + word[1:]
    monkeypatch.setattr(witness, "_reduced", skewed)
    with pytest.raises(OracleMismatchError, match="replayed"):
        cli.build_report(BASE_F, BASE_G)
    code, cap = run(capsys, "analyze", "--f", BASE_F, "--g", BASE_G)
    assert code == 3
    assert json.loads(cap.out)["error"]["kind"] == "oracle-mismatch"


@pytest.mark.parametrize("command", [
    ["analyze", "--f", BASE_F, "--g", BASE_G],
    ["pad", "--f0", BASE_F, "--g0", BASE_G, "--P", "y^2+y+1", "--Q", "y^2+1"]],
    ids=["analyze", "pad"])
def test_degenerate_form_exits_2(capsys, monkeypatch, command):
    # coprime f, g always give a nondegenerate form, so a zero pivot on the
    # diagonal of the agreed Gram is simulated here
    original = quadform.congruence_diagonal
    monkeypatch.setattr(quadform, "congruence_diagonal",
                        lambda gram: original(gram)[:-1] + (Fraction(0),))
    code, cap = run(capsys, *command)
    assert code == 2
    assert json.loads(cap.out)["error"] == {
        "kind": "validation", "message": "invariant form is degenerate"}


def test_quiet_suppresses_stdout(capsys):
    code, cap = run(capsys, "analyze", "--f", BASE_F, "--g", BASE_G,
                    "--quiet")
    assert code == 0
    assert cap.out == ""


def test_json_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, cap = run(capsys, "analyze", "--f", BASE_F, "--g", BASE_G,
                    "--quiet", "--json", str(out))
    assert code == 0
    doc = cli.parse_report(out.read_text())
    assert doc["input"] == {"f": BASE_F, "g": BASE_G}


# -------------------------------------------------------------------- batch

def test_batch(capsys, tmp_path):
    malformed = ["[1,2]", '"str"', '{"f": 5}']
    lines = [json.dumps({"f": "x^2-1", "g": "x^2+x+1"}),
             "not json",
             json.dumps({"f": BASE_F, "g": BASE_G})] + malformed
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code, cap = run(capsys, "analyze", "--batch", str(path))
    assert code == 2  # worst record wins
    records = [json.loads(ln) for ln in cap.out.splitlines()]
    assert len(records) == 6
    assert records[0]["derived"]["type"] == "orthogonal"
    assert records[1]["error"]["kind"] == "validation"
    assert records[1]["input"] == {"raw": "not json"}
    assert records[2]["witness"]["conclusion"] == "witnessed-arithmetic"
    # valid JSON that is not an {"f", "g"} object gets its own record
    for raw, record in zip(malformed, records[3:]):
        assert record["error"]["kind"] == "validation"
        assert record["input"] == {"raw": raw}


def test_batch_all_good_exits_0(capsys, tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps({"f": "x^2-1", "g": "x^2+x+1"}) + "\n")
    code, cap = run(capsys, "analyze", "--batch", str(path))
    assert code == 0


def test_batch_line_over_the_degree_limit(capsys, tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps({"f": "x^30000000-1", "g": "x^30000000+1"})
                    + "\n" + json.dumps({"f": BASE_F, "g": BASE_G}) + "\n")
    code, cap = run(capsys, "analyze", "--batch", str(path))
    assert code == 2
    bad, good = [json.loads(ln) for ln in cap.out.splitlines()]
    assert bad["error"]["kind"] == "validation"
    assert "degree limit" in bad["error"]["message"]
    assert good["witness"]["conclusion"] == "witnessed-arithmetic"


@pytest.mark.parametrize("bad", [
    "[" * 100_000,
    '{"f": 1' + "0" * 4400 + ', "g": "x+1"}',
    '{"f": NaN, "g": "x+1"}',
    '{"f": "x-1", "g": -Infinity}',
    '{"f": 1e400, "g": "x+1"}',
], ids=["deep-nesting", "long-int", "nan", "infinity", "float-overflow"])
def test_batch_line_json_cannot_take(capsys, tmp_path, bad):
    path = tmp_path / "pairs.jsonl"
    path.write_text(bad + "\n" + json.dumps({"f": "x^2-1", "g": "x^2+x+1"})
                    + "\n")
    code, cap = run(capsys, "analyze", "--batch", str(path))
    assert code == 2
    records = [strict_json(ln) for ln in cap.out.splitlines()]
    assert len(records) == 2
    assert records[0]["error"]["kind"] == "validation"
    assert records[0]["error"]["message"].startswith("bad JSON line")
    assert records[0]["input"] == {"raw": bad}
    assert records[1]["derived"]["type"] == "orthogonal"


def _raise_on_middle_line(monkeypatch):
    original = cli.build_report

    def build_report(f_text, g_text, **kwargs):
        if f_text == "x^3-1":
            raise ValueError("not a mapped failure")
        return original(f_text, g_text, **kwargs)
    monkeypatch.setattr(cli, "build_report", build_report)


def test_batch_keeps_going_on_an_unmapped_error(capsys, tmp_path,
                                               monkeypatch):
    _raise_on_middle_line(monkeypatch)
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(json.dumps(item) for item in (
        {"f": "x^2-1", "g": "x^2+x+1"}, {"f": "x^3-1", "g": "x^3+1"},
        {"f": BASE_F, "g": BASE_G})) + "\n")
    code, cap = run(capsys, "analyze", "--batch", str(path))
    assert code == 3
    first, middle, last = [strict_json(ln) for ln in cap.out.splitlines()]
    assert first["derived"]["type"] == "orthogonal"
    assert middle == {"error": {"kind": "internal",
                                "message": "ValueError: not a mapped failure"},
                      "input": {"f": "x^3-1", "g": "x^3+1"}}
    assert last["witness"]["conclusion"] == "witnessed-arithmetic"


def test_single_command_reraises_an_unmapped_error(capsys, monkeypatch):
    _raise_on_middle_line(monkeypatch)
    with pytest.raises(ValueError, match="not a mapped failure"):
        cli.main(["analyze", "--f", "x^3-1", "--g", "x^3+1"])
    assert capsys.readouterr().out == ""


# ------------------------------------------------------- files that fail

def _one_line_naming(err, path):
    assert err.count("\n") == 1 and err.endswith("\n")
    assert str(path) in err
    assert "Traceback" not in err


def test_batch_missing_file_exits_2(capsys, tmp_path):
    path = tmp_path / "absent.jsonl"
    code, cap = run(capsys, "analyze", "--batch", str(path))
    assert code == 2
    assert cap.out == ""
    _one_line_naming(cap.err, path)


def test_batch_file_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_bytes(b'{"f": "x^2-1", "g": "x^2+x+1"}\n\xff\xfe\n')
    code, cap = run(capsys, "analyze", "--batch", str(path))
    assert code == 2
    assert cap.out == ""
    _one_line_naming(cap.err, path)


@pytest.mark.parametrize("command", [
    ["analyze", "--f", BASE_F, "--g", BASE_G],
    ["analyze", "--f", "x^5-", "--g", "x+1"],
    ["analyze", "--batch", None],
    ["pad", "--f0", BASE_F, "--g0", BASE_G, "--P", "y^2+y+1", "--Q", "y^2+1"],
    ["examples"]],
    ids=["analyze", "analyze-invalid", "analyze-batch", "pad", "examples"])
def test_json_into_missing_directory_exits_2(capsys, tmp_path, command):
    batch = tmp_path / "pairs.jsonl"
    batch.write_text(json.dumps({"f": BASE_F, "g": BASE_G}) + "\n")
    out = tmp_path / "absent" / "report.json"
    argv = [str(batch) if a is None else a for a in command]
    code, cap = run(capsys, *argv, "--json", str(out))
    assert code == 2
    assert cap.out == ""
    _one_line_naming(cap.err, out)


# ------------------------------------------------------------- input limits

SRC = os.path.dirname(os.path.dirname(os.path.abspath(orthomono.__file__)))


def run_module(*argv, memory_bytes=None, timeout=60):
    """`python -m orthomono argv...` in a child process, optionally under an
    address-space limit like `ulimit -v`."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "orthomono", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout,
                          preexec_fn=limit if memory_bytes else None)


@pytest.mark.parametrize("f, g", [
    ("x^30000000-1", "x^30000000+1"),
    ("Phi(1)*Phi(100000)", "Phi(2)*Phi(4)"),
], ids=["huge-power", "huge-phi"])
def test_inputs_over_the_degree_limit_exit_2(f, g):
    # at 400 MB the unchecked power died with a MemoryError traceback
    proc = run_module("analyze", "--f", f, "--g", g,
                      memory_bytes=400_000_000)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"]["kind"] == "validation"
    assert "degree limit" in doc["error"]["message"]


def test_pad_over_the_degree_limit_exits_2(capsys):
    # d*m + 5 = 62*2 + 5 = 129; d = 61 gives 127 and is accepted
    code, cap = run(capsys, "pad", "--f0", BASE_F, "--g0", BASE_G,
                    "--P", "y^2+y+1", "--Q", "y^2+1", "--d", "62")
    assert code == 2
    doc = json.loads(cap.out)
    assert doc["error"]["kind"] == "validation"
    assert "129 is above the degree limit 128" in doc["error"]["message"]
    code, cap = run(capsys, "pad", "--f0", BASE_F, "--g0", BASE_G,
                    "--P", "y^2+y+1", "--Q", "y^2+1", "--d", "1000000000")
    assert code == 2


def test_python_dash_m_runs_the_command_line():
    proc = run_module("examples", "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SUMMARY + "\n"


# ---------------------------------------------------------------------- pad

def test_pad_command(capsys):
    code, cap = run(capsys, "pad", "--f0", "x^5-1",
                    "--g0", "(x+1)*(x^2+1)^2",
                    "--P", "y^2+y+1", "--Q", "y^2+1", "--d", "6")
    assert code == 0
    doc = json.loads(cap.out)
    assert doc["padding"]["n"] == 17
    assert doc["input"]["d"] == 6


def test_pad_exponent_below_six_is_bad_input(capsys):
    # d >= deg f0 + 1 = 6 guarantees the embedding; below that a failed
    # embedding check is an input the padding does not cover, not a bug.
    # At d = 5 this pad changes only t_5 of the Gram row, outside the 5x5
    # block, so both checks pass
    for d in range(1, 9):
        code, cap = run(capsys, "pad", "--f0", "x^5-1",
                        "--g0", "(x+1)*(x^2+1)^2",
                        "--P", "y^2+y+1", "--Q", "y^2+1", "--d", str(d))
        assert code == (2 if d <= 4 else 0), d
        if d <= 4:
            message = json.loads(cap.out)["error"]["message"]
            assert "remainder top-coefficient check" in message
            assert "d >= 6 guarantees the embedding" in message
        else:
            padding = json.loads(cap.out)["padding"]
            assert padding["n"] == 2 * d + 5, d
            assert padding["remainder_coeff_check"] is True, d
            assert padding["isometry_check"] is True, d
    # an input that passes both checks below d = 6 is padded as usual
    code, cap = run(capsys, "pad", "--f0", "x^5-1",
                    "--g0", "(x+1)*(x^2+1)^2", "--P", "y^4+y^3+y^2+y+1",
                    "--Q", "y^4+y^3+3*y^2+y+1", "--d", "3")
    assert code == 0
    assert json.loads(cap.out)["padding"]["n"] == 17


@pytest.mark.parametrize("check", ["remainder_coeff_check",
                                   "isometry_check"])
def test_pad_embedding_failure_from_six_on_exits_3(capsys, monkeypatch,
                                                     check):
    # from d = 6 on the embedding is guaranteed, so a failed check is a bug
    monkeypatch.setattr(cli, check, lambda pp: False)
    code, cap = run(capsys, "pad", "--f0", "x^5-1",
                    "--g0", "(x+1)*(x^2+1)^2",
                    "--P", "y^2+y+1", "--Q", "y^2+1", "--d", "6")
    assert code == 3
    assert json.loads(cap.out)["error"]["kind"] == "oracle-mismatch"


def test_pad_rejects_common_factor(capsys):
    code, cap = run(capsys, "pad", "--f0", "x^5-1",
                    "--g0", "(x+1)*(x^2+1)^2",
                    "--P", "y^2+1", "--Q", "y^2+1")
    assert code == 2
    assert json.loads(cap.out)["error"]["kind"] == "validation"


def test_pad_rejects_padded_pair_that_is_not_coprime(capsys):
    # P and Q are coprime, but Q(x^6) = (x^6 - 1)^2 shares x - 1 with f0
    code, cap = run(capsys, "pad", "--f0", "x^5-1",
                    "--g0", "(x+1)*(x^2+1)^2",
                    "--P", "y^2+1", "--Q", "y^2-2y+1")
    assert code == 2
    assert json.loads(cap.out)["error"] == {
        "kind": "validation", "message": "f and g must be coprime"}


# ----------------------------------------------------------------- examples

def test_examples_command(capsys):
    code, cap = run(capsys, "examples")
    assert code == 0
    lines = cap.out.splitlines()
    assert lines[-1] == SUMMARY
    assert any(ln.lstrip().startswith("misprint") for ln in lines)


def test_examples_quiet(capsys):
    code, cap = run(capsys, "examples", "--quiet")
    assert code == 0
    assert cap.out == SUMMARY + "\n"
