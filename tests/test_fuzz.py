"""Fuzzing of the two surfaces that take outside text: the polynomial
parser and the batch command.  Whatever they are given, they answer with
a value or a validation error, never a traceback."""
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthomono import cli
from orthomono.parsing import PolyParseError, parse_poly
from orthomono.polynomials import IntPoly

from conftest import BASE_F, BASE_G, strict_json

FUZZ = settings(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

GRAMMAR_TOKENS = ("x", "y", "Phi(", "(", ")", "+", "-", "*", "/", "^", " ",
                  "0", "1", "2", "3", "5", "7", "12", "128", "129",
                  "\u0663", "\u00b2")  # Arabic-Indic three, superscript two


def parses_or_rejects(text, var="x"):
    try:
        value = parse_poly(text, var=var)
    except PolyParseError:
        return
    assert isinstance(value, IntPoly)


@FUZZ
@given(st.text())
def test_parse_poly_on_any_text(text):
    parses_or_rejects(text)


@FUZZ
@given(st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=24).map("".join),
       st.sampled_from(("x", "y")))
def test_parse_poly_on_the_grammar_alphabet(text, var):
    parses_or_rejects(text, var)


# pairs of degree <= 8: witnessed, definite, wide, symplectic, shifted,
# not coprime, of unequal degree and unparsable
PAIRS = (
    (BASE_F, BASE_G),
    ("x^2-1", "x^2+x+1"),
    ("Phi(1)*Phi(3)*Phi(5)", "Phi(2)*Phi(4)*Phi(8)"),
    ("Phi(1)*Phi(2)*Phi(3)*Phi(4)*Phi(6)", "Phi(5)*Phi(8)"),
    ("x^2+1", "x^2+x+1"),
    ("x^5+1", "(x-1)*(x^2+1)^2"),
    ("x^2-1", "(x+1)^2"),
    ("x^3-1", "x^2+1"),
    ("x^2-", "x+1"),
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)

BATCH_LINES = st.one_of(
    st.text().map(lambda s: s.replace("\r", "").replace("\n", "")),
    JSON_VALUES.map(json.dumps),
    st.sampled_from(PAIRS).map(lambda p: json.dumps({"f": p[0], "g": p[1]})),
)


@settings(FUZZ, max_examples=40)
@given(st.lists(BATCH_LINES, max_size=6))
def test_batch_gives_one_strict_record_per_line(lines):
    with tempfile.TemporaryDirectory() as tmp:
        batch = os.path.join(tmp, "pairs.jsonl")
        out = os.path.join(tmp, "out.jsonl")
        with open(batch, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        code = cli.main(["analyze", "--batch", batch, "--json", out,
                         "--quiet"])
        with open(out, encoding="utf-8") as fh:
            records = [strict_json(ln) for ln in fh.read().splitlines()]
    assert code in (0, 2, 3)
    assert len(records) == sum(1 for ln in lines if ln.strip())
    assert all(isinstance(r, dict) for r in records)
    assert (code == 0) == all("error" not in r for r in records)
