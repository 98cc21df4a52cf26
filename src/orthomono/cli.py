"""Command line front end producing canonical JSON reports.

Three subcommands:

  analyze   full pipeline for one pair: monodromy construction, invariant
            form from remainder coefficients certified by the invariance
            check, signature, Q-rank certificate, unipotent witness hunt.
            This module builds each of those objects once per command and
            hands it to the next stage; no later stage rebuilds one from
            the polynomials.
  pad       degree padding of a quintic pair; verifies the isometric
            embedding, then analyzes the padded pair as analyze does, at
            the default word bound, its Q-rank search seeded with the
            lifted base witnesses.
  examples  recheck the built-in worked-example table against exact
            recomputation, reporting catalogued misprints.

Reports are deterministic: identical inputs give byte-identical JSON
except for the timings block.  Every rational is serialized as an exact
"num/den" string; nothing is ever rounded.

Exit codes: 0 when the analysis completed (including a clean inconclusive
verdict or an out-of-scope symplectic pair), 2 for invalid input, 3 when
two independent computation routes disagreed on the same quantity, or
when a batch line's analysis raised any other error (its record has kind
"internal"); outside a batch such an error propagates.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import corpus
from .monodromy import (ORTHOGONAL, HyperPair, PairType, PairValidationError,
                        build_pair, classify_type, scalar_shift)
from .padding import (DEFAULT_EXPONENT, embed_vector, isometry_check,
                      pad_pair, remainder_coeff_check)
from .parsing import PolyParseError, parse_poly
from .polynomials import IntPoly, coprime, render
from .quadform import (DEFAULT_SEARCH_BOUND, SEARCH_CAP, OracleMismatchError,
                       QuadSpace, invariant_space, q_rank, signature,
                       signature_interlace)
from .witness import (MAX_WORD_BOUND, OUT_OF_SCOPE, WitnessContext,
                      WitnessReport, arithmeticity_report)

SCHEMA_VERSION = "orthomono/1"
DEFAULT_WORD_BOUND = 8

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ORACLE = 3


# ---------------------------------------------------------------- JSON layer

def _rat(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _gram_json(space: QuadSpace) -> list[list[str]]:
    return [[_rat(entry) for entry in row] for row in space.gram]


def _certificate_json(cert) -> dict:
    return {
        "lo": cert.lo,
        "hi": cert.hi,
        "witnesses": [list(w) for w in cert.isotropic_witnesses],
        "residual_diagonal": [_rat(x) for x in cert.residual_diagonal],
        "obstructions": [{"prime": ob.prime, "exponent": ob.exponent,
                          "statement": ob.statement}
                         for ob in cert.obstructions],
        "notes": list(cert.notes),
    }


def _witness_json(rep: WitnessReport) -> dict:
    unipotent = None
    if rep.unipotent is not None:
        unipotent = {"word": list(rep.unipotent.word),
                     "matrix": [list(row) for row in rep.unipotent.matrix]}
    return {
        "conclusion": rep.conclusion,
        "epsilon": None if rep.epsilon is None else list(rep.epsilon),
        "unipotent": unipotent,
        "translation_rank": rep.translation_rank,
        "caveats": list(rep.caveats),
    }


def _true_false(x: bool) -> str:
    return "true" if x else "false"


# the JSON text of each scalar type a report holds
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: _true_false, type(None): lambda _: "null"}


def _write(value, indent: str, out: list[str]) -> None:
    """Append the canonical text of value, nested at indent, to out."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif type(value) is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not "
                                f"{type(key).__name__}")
            out += (sep, encode_basestring_ascii(key), ": ")
            _write(value[key], inner, out)
            sep = ",\n" + inner
        out += ("\n", indent, "}")
    elif type(value) is list or type(value) is tuple:
        # by exact type, as _SCALARS: a record, itself a NamedTuple, is
        # not a report value
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        _write(value[0], inner, out)
        for x in value[1:]:
            out.append(sep)
            _write(x, inner, out)
        out += ("\n", indent, "]")
    else:
        raise TypeError(f"{type(value).__name__} is not a report value")


def serialize_report(doc: dict) -> str:
    """Canonical text: the bytes of json.dumps(doc, sort_keys=True,
    indent=2) plus a newline, written directly over str, int, bool,
    None, list, tuple and dict with str keys; a TypeError on any other
    value, subclasses of these included."""
    out: list[str] = []
    _write(doc, "", out)
    out.append("\n")
    return "".join(out)


def parse_report(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("report must be a JSON object")
    return doc


# ------------------------------------------------------------- report build

def _ms(seconds: float) -> int:
    return int(round(seconds * 1000))


def _new_doc(inputs: dict, f: IntPoly, g: IntPoly, pair_type: PairType,
             shifted: bool) -> dict:
    """Report skeleton for a classified pair; the form and rank fields
    stay None until the analysis fills them in."""
    return {
        "schema_version": SCHEMA_VERSION,
        "input": inputs,
        "derived": {
            "n": f.degree,
            "type": pair_type.kind,
            "constant_ratio": pair_type.ratio,
            "f": render(f),
            "g": render(g),
            "normalized_by_scalar_shift": shifted,
        },
        "gram": None,
        "signature": None,
        "q_rank": None,
        "witness": None,
    }


def _analyze_pair(doc: dict, pair: HyperPair | None, seeds: Sequence,
                  search_bound: int, word_bound: int, t0: float) -> dict:
    """Fill in doc, a _new_doc skeleton, with the analysis of pair, the
    Q-rank search seeded with seeds, and the timings from the command's
    start t0 (parse_ms is all the caller did first); return doc.  A
    symplectic pair, None, has no symmetric form and is out of scope.

    The WitnessContext builds and certifies the form once, and the rank
    and witness stages read the signature off its kept diagonal.
    """
    t1 = t2 = time.perf_counter()
    if pair is None:
        rep = WitnessReport(epsilon=None, unipotent=None,
                            translation_rank=None, conclusion=OUT_OF_SCOPE,
                            caveats=())
    else:
        ctx = WitnessContext(pair)
        space = ctx.space
        sig = signature(space)
        # the second route to |p - q|; a disagreement means one is wrong
        abs_diff = signature_interlace(pair.f, pair.g)
        if abs_diff not in (None, abs(sig[0] - sig[1])):
            raise OracleMismatchError(
                f"root-argument interlacing gives |p - q| = {abs_diff} but "
                f"the diagonalized form has |{sig[0]} - {sig[1]}| = "
                f"{abs(sig[0] - sig[1])}")
        doc["derived"]["det_A"] = pair.det_A
        doc["derived"]["det_B"] = pair.det_B
        doc["derived"]["det_C"] = pair.det_C
        doc["gram"] = _gram_json(space)
        doc["signature"] = {"p": sig[0], "q": sig[1],
                            "interlace_abs_diff": abs_diff}
        t2 = time.perf_counter()
        doc["q_rank"] = _certificate_json(
            q_rank(space, search_bound, seeds=seeds))
        rep = arithmeticity_report(ctx, search_bound, word_bound)
    doc["witness"] = _witness_json(rep)
    t3 = time.perf_counter()
    doc["timings"] = {"parse_ms": _ms(t1 - t0),
                      "forms_ms": _ms(t2 - t1),
                      "witness_ms": _ms(t3 - t2),
                      "total_ms": _ms(t3 - t0)}
    return doc


def build_report(f_text: str, g_text: str,
                 search_bound: int = DEFAULT_SEARCH_BOUND,
                 word_bound: int = DEFAULT_WORD_BOUND) -> dict:
    """Analysis document for one pair given as polynomial text.

    The pair is built once here and analyzed by _analyze_pair.  Raises
    PolyParseError or PairValidationError for bad input and
    OracleMismatchError when independent routes disagree; the command
    layer maps those to exit codes 2 and 3.
    """
    t0 = time.perf_counter()
    f = parse_poly(f_text)
    g = parse_poly(g_text)
    # Odd-degree pairs with constants (1, -1) are off by the x -> -x
    # substitution; fix that silently but record it.
    shifted = (f.is_monic and g.is_monic and f.degree == g.degree
               and f.degree % 2 == 1 and f(0) == 1 and g(0) == -1)
    if shifted:
        f, g = scalar_shift(f), scalar_shift(g)
    pair_type = classify_type(f, g)
    if pair_type.kind == ORTHOGONAL:
        pair = build_pair(f, g)
    else:
        # a symplectic pair builds no form, but its input is held to
        # build_pair's checks all the same
        if not (f.is_monic and g.is_monic):
            raise PairValidationError("f and g must be monic")
        if f.degree < 1:
            raise PairValidationError("degree must be at least 1")
        if not coprime(f, g):
            raise PairValidationError("f and g must be coprime")
        pair = None
    doc = _new_doc({"f": f_text, "g": g_text}, f, g, pair_type, shifted)
    return _analyze_pair(doc, pair, (), search_bound, word_bound, t0)


def build_pad_report(f0_text: str, g0_text: str, p_text: str, q_text: str,
                     d: int = DEFAULT_EXPONENT,
                     search_bound: int = DEFAULT_SEARCH_BOUND) -> dict:
    """Padding document: the analysis of the padded pair, as analyze
    writes it at DEFAULT_WORD_BOUND, with its Q-rank search seeded, plus
    the padding block.

    The base certificate's isotropic witnesses are lifted through the
    embedding and seed the padded search.  They are valid seeds whenever
    the isometry check passes, and q_rank keeps valid seeds as its first
    witnesses, so the padded lower bound is at least the base one.  Below
    d = deg f0 + 1 = 6 the embedding is not guaranteed, and a failed
    check is bad input (PairValidationError); from d = 6 on it is
    guaranteed, and a failed check is an OracleMismatchError.
    """
    t0 = time.perf_counter()
    f0 = parse_poly(f0_text)
    g0 = parse_poly(g0_text)
    P = parse_poly(p_text, var="y")
    Q = parse_poly(q_text, var="y")
    pp = pad_pair(f0, g0, P, Q, d)

    remainder_ok = remainder_coeff_check(pp)
    isometry_ok = isometry_check(pp)
    if not (remainder_ok and isometry_ok):
        failed = ("remainder top-coefficient"
                  if not remainder_ok else "Gram isometry")
        if d <= f0.degree:
            raise PairValidationError(
                f"padding embedding failed the {failed} check at d = {d}; "
                f"d >= {f0.degree + 1} guarantees the embedding")
        raise OracleMismatchError(
            f"padding embedding failed the {failed} check; the direct "
            "construction and the base form disagree")

    base_cert = q_rank(invariant_space(build_pair(f0, g0)), search_bound)
    seeds = tuple(embed_vector(pp, w) for w in base_cert.isotropic_witnesses)

    doc = _new_doc({"f0": f0_text, "g0": g0_text, "P": p_text, "Q": q_text,
                    "d": d}, pp.f, pp.g, classify_type(pp.f, pp.g), False)
    _analyze_pair(doc, pp.pair, seeds, search_bound, DEFAULT_WORD_BOUND, t0)
    doc["padding"] = {
        "m": pp.m,
        "n": pp.f.degree,
        "f": render(pp.f),
        "g": render(pp.g),
        "remainder_coeff_check": remainder_ok,
        "isometry_check": isometry_ok,
        "base_q_rank": _certificate_json(base_cert),
        "embedded_witnesses": [list(w) for w in seeds],
    }
    return doc


# ------------------------------------------------------------- suite output

def _suite_doc(suite: corpus.SuiteResult) -> dict:
    entries = []
    for entry in suite.entries:
        entries.append({
            "name": entry.name,
            "title": entry.title,
            "ok": entry.ok,
            "data": [{"label": r.label, "stated": r.stated, "found": r.found,
                      "match": r.match, "erratum": r.erratum, "ok": r.ok}
                     for r in entry.results],
        })
    return {"schema_version": SCHEMA_VERSION,
            "entries": entries,
            "errata_found": sorted(suite.errata_found()),
            "out_of_order": [f"{name}: {label}"
                             for name, label in suite.out_of_order()],
            "ok": suite.ok}


def _suite_lines(suite: corpus.SuiteResult, quiet: bool) -> list[str]:
    lines: list[str] = []
    for entry in suite.entries:
        if not quiet:
            lines.append(entry.name + ": " + entry.title)
        for r in entry.results:
            if r.erratum is not None:
                status = ("misprint" if not r.match
                          else "MISPRINT NOT REPRODUCED")
            else:
                status = "ok" if r.match else "MISMATCH"
            if quiet and r.ok:
                continue
            flag = "" if r.erratum is None else f"  [{r.erratum}]"
            lines.append(f"  {status:<24} {r.label}: stated {r.stated}"
                         + ("" if r.match else f", found {r.found}")
                         + flag)
    total = sum(len(e.results) for e in suite.entries)
    bad = sum(1 for e in suite.entries for r in e.results if not r.ok)
    lines.append(f"{total} stated values checked, {bad} unexplained, "
                 f"{len(suite.errata_found())} catalogued misprints confirmed")
    return lines


# ----------------------------------------------------------------- commands

def _emit(text: str, args) -> None:
    """Write text to the --json file, if one is given, and, unless
    --quiet, to stdout."""
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    if not args.quiet:
        sys.stdout.write(text)


def _failure_doc(exc: Exception) -> tuple[int, dict] | None:
    """(exit code, error record) for a failure the exit codes name, None
    for any other exception."""
    if isinstance(exc, (PolyParseError, PairValidationError)):
        return EXIT_VALIDATION, {"error": {"kind": "validation",
                                           "message": str(exc)}}
    if isinstance(exc, OracleMismatchError):
        return EXIT_ORACLE, {"error": {"kind": "oracle-mismatch",
                                       "message": str(exc)}}
    return None


def _run_one(build, args) -> int:
    """Emit the report build() returns, exit 0, or the error record of a
    failure the exit codes name, with its code; any other exception
    propagates."""
    try:
        code, doc = EXIT_OK, build()
    except Exception as exc:  # noqa: BLE001 - mapped or re-raised
        failure = _failure_doc(exc)
        if failure is None:
            raise
        code, doc = failure
    _emit(serialize_report(doc), args)
    return code


def cmd_analyze(args) -> int:
    if args.batch is not None:
        return _run_batch(args)
    if args.f is None or args.g is None:
        sys.stderr.write("analyze needs --f and --g (or --batch)\n")
        return EXIT_VALIDATION
    return _run_one(lambda: build_report(
        args.f, args.g, search_bound=args.search_bound,
        word_bound=args.word_bound), args)


def _reject_number(text: str):
    """parse_constant hook: NaN and +-Infinity are not strict JSON, and a
    record echoing one would not be either."""
    raise ValueError(f"{text} is not a JSON number")


def _finite_float(text: str) -> float:
    """parse_float hook: a literal such as 1e400 would read as infinity."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is out of the range of a float")
    return x


def _run_batch(args) -> int:
    """One JSON object {"f": ..., "g": ...} per line; a bad line yields an
    error record in place of its report and the batch keeps going.  The
    exit code is the worst of the lines', an internal error counting as
    exit 3."""
    try:
        with open(args.batch, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        sys.stderr.write(f"cannot read --batch {args.batch}: "
                         f"{exc.strerror}\n")
        return EXIT_VALIDATION
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"--batch {args.batch} is not UTF-8: {exc}\n")
        return EXIT_VALIDATION
    worst = EXIT_OK
    out_lines: list[str] = []
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        problem = None
        try:
            item = json.loads(raw, parse_constant=_reject_number,
                              parse_float=_finite_float)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, an int literal over the
            # interpreter's digit limit and the two hooks above;
            # RecursionError a line nested deeper than the decoder goes
            problem = f"bad JSON line: {exc}"
        else:
            if not (isinstance(item, dict) and "f" in item
                    and "g" in item):
                problem = 'batch lines must be objects with "f" and "g"'
        if problem is not None:
            code, doc = EXIT_VALIDATION, {
                "error": {"kind": "validation", "message": problem},
                "input": {"raw": raw}}
        else:
            try:
                doc = build_report(str(item["f"]), str(item["g"]),
                                   search_bound=args.search_bound,
                                   word_bound=args.word_bound)
                code = EXIT_OK
            except Exception as exc:  # noqa: BLE001 - one line's failure
                # an exception the exit codes do not name is an internal
                # error of this line, and the batch goes on
                code, doc = _failure_doc(exc) or (EXIT_ORACLE, {"error": {
                    "kind": "internal",
                    "message": f"{type(exc).__name__}: {exc}"}})
                doc["input"] = {"f": item["f"], "g": item["g"]}
        worst = max(worst, code)
        out_lines.append(json.dumps(doc, sort_keys=True))
    _emit("\n".join(out_lines) + ("\n" if out_lines else ""), args)
    return worst


def cmd_pad(args) -> int:
    return _run_one(lambda: build_pad_report(
        args.f0, args.g0, args.P, args.Q, d=args.d,
        search_bound=args.search_bound), args)


def cmd_paper_suite(args) -> int:
    """Exit 0 iff every untagged value matches recomputation and every
    catalogued misprint really fails to match."""
    suite = corpus.run_suite(bound=args.search_bound)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(serialize_report(_suite_doc(suite)))
    for line in _suite_lines(suite, args.quiet):
        print(line)
    return EXIT_OK if suite.ok else EXIT_VALIDATION


# --------------------------------------------------------------- arg parsing

def _at_least_one(text: str) -> int:
    """--search-bound and --word-bound value: an int of at least 1.  A
    Witt stage's bound doubling never leaves a bound of 0 or less, and a
    word bound below 1 walks no orbit at all."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _word_bound(text: str) -> int:
    """--word-bound value: an int from 1 to MAX_WORD_BOUND, the input
    limit that bounds the orbit of v, which about doubles per step."""
    value = _at_least_one(text)
    if value > MAX_WORD_BOUND:
        raise argparse.ArgumentTypeError(
            f"must be at most MAX_WORD_BOUND = {MAX_WORD_BOUND}, got {value}")
    return value


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--search-bound", type=_at_least_one,
                     default=DEFAULT_SEARCH_BOUND,
                     help="coefficient bound for the isotropic vector search, "
                          "at least 1 (default %(default)s); a stage in k "
                          "variables whose box (2b+1)^k, for bound b, "
                          f"exceeds SEARCH_CAP = {SEARCH_CAP:,} "
                          "searches nothing, so at degree 5 a bound above 10 "
                          "weakens the certificate; at degree 8 and 9 the "
                          "default's 7^n is already over the cap, so "
                          "neither the first Witt stage nor the witness "
                          "hunt runs there, and bound 2 can do better")
    sub.add_argument("--json", metavar="PATH", default=None,
                     help="also write the report to PATH")
    sub.add_argument("--quiet", action="store_true",
                     help="analyze and pad: no report on stdout (the --json "
                          "file is still written); examples: print only "
                          "unexplained values and the summary line")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="orthomono",
        description="Exact invariant-form analysis of hypergeometric "
                    "monodromy pairs.")
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser(
        "analyze", help="analyze one pair, or a batch file of pairs")
    analyze.add_argument("--f", help="first polynomial, constant term -1")
    analyze.add_argument("--g", help="second polynomial, constant term +1")
    analyze.add_argument("--batch", metavar="FILE", default=None,
                         help="JSON-lines file of {\"f\": ..., \"g\": ...} "
                              "pairs; per-line failures do not abort")
    _common_flags(analyze)
    # pad hunts at DEFAULT_WORD_BOUND and examples runs no hunt
    analyze.add_argument("--word-bound", type=_word_bound,
                         default=DEFAULT_WORD_BOUND,
                         help="word length bound of the witness hunt's "
                              f"orbit of v, 1 to {MAX_WORD_BOUND} (default "
                              "%(default)s); a hunt that falls short of full "
                              "rank runs once more at bound + 2, within "
                              f"{MAX_WORD_BOUND}")
    analyze.set_defaults(func=cmd_analyze)

    pad = subs.add_parser(
        "pad", help="pad a quintic pair and certify the embedded form")
    pad.add_argument("--f0", required=True, help="base polynomial, degree 5")
    pad.add_argument("--g0", required=True, help="base polynomial, degree 5")
    pad.add_argument("--P", required=True,
                     help="monic factor in y, constant term 1")
    pad.add_argument("--Q", required=True,
                     help="monic factor in y, constant term 1, coprime to P")
    pad.add_argument("--d", type=int, default=DEFAULT_EXPONENT,
                     help="substitution exponent: pads by P(x^d), Q(x^d) "
                          "(default %(default)s)")
    _common_flags(pad)
    pad.set_defaults(func=cmd_pad)

    examples = subs.add_parser(
        "examples", help="recheck the built-in worked-example table")
    _common_flags(examples)
    examples.set_defaults(func=cmd_paper_suite)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        if args.json is None or exc.filename != args.json:
            raise
        sys.stderr.write(f"cannot write --json {args.json}: "
                         f"{exc.strerror}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
