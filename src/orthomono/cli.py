"""Command line front end producing canonical JSON reports.

Three subcommands:

  analyze   full pipeline for one pair: monodromy construction, invariant
            form by two independent routes, signature, Q-rank certificate,
            unipotent witness hunt.  This module builds each of those
            objects once per command and hands it to the next stage; no
            later stage rebuilds one from the polynomials.
  pad       degree padding of a quintic pair; verifies the isometric
            embedding and re-certifies the rank bound with lifted seeds.
  examples  recheck the built-in worked-example table against exact
            recomputation, reporting catalogued misprints.

Reports are deterministic: identical inputs give byte-identical JSON
except for the timings block.  Every rational is serialized as an exact
"num/den" string; nothing is ever rounded.

Exit codes: 0 when the analysis completed (including a clean inconclusive
verdict or an out-of-scope symplectic pair), 2 for invalid input, 3 when
two independent computation routes disagreed on the same quantity.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import corpus
from .monodromy import (ORTHOGONAL, HyperPair, PairType, PairValidationError,
                        build_pair, classify_type, scalar_shift)
from .padding import (DEFAULT_EXPONENT, embed_vector, isometry_check,
                      pad_pair, remainder_coeff_check)
from .parsing import PolyParseError, parse_poly
from .polynomials import IntPoly, cyclo_factor, render, root_parameters
from .quadform import (OracleMismatchError, QuadSpace, invariant_space,
                       q_rank, signature, signature_interlace)
from .witness import (OUT_OF_SCOPE, WitnessContext, WitnessReport,
                      arithmeticity_report)

SCHEMA_VERSION = "orthomono/1"
DEFAULT_SEARCH_BOUND = 3
DEFAULT_WORD_BOUND = 8

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ORACLE = 3


# ---------------------------------------------------------------- JSON layer

def _rat(x) -> str:
    fr = Fraction(x)
    return f"{fr.numerator}/{fr.denominator}"


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


def serialize_report(doc: dict) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_report(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("report must be a JSON object")
    return doc


# ------------------------------------------------------------- report build

def _interlace_abs_diff(f: IntPoly, g: IntPoly,
                        sig: tuple[int, int]) -> int | None:
    """|p - q| recounted from the unit-circle root arguments.

    Only available when both polynomials are products of cyclotomics;
    coprimality makes the two argument lists disjoint.  Disagreement with
    the diagonalization signature means one of the routes is wrong.
    """
    fac_f, fac_g = cyclo_factor(f), cyclo_factor(g)
    if not (fac_f.remainder_is_one and fac_g.remainder_is_one):
        return None
    expected = signature_interlace(root_parameters(fac_f),
                                   root_parameters(fac_g))
    actual = abs(sig[0] - sig[1])
    if expected != actual:
        raise OracleMismatchError(
            f"root-argument interlacing gives |p - q| = {expected} but the "
            f"diagonalized form has |{sig[0]} - {sig[1]}| = {actual}")
    return expected


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


def _form_fields(doc: dict, pair: HyperPair) -> tuple[QuadSpace,
                                                       tuple[int, int]]:
    """Build the route-checked form and its signature once, record them
    in doc, and hand both back for the rank and witness stages."""
    space = invariant_space(pair)
    sig = signature(space)
    doc["derived"]["det_A"] = pair.det_A
    doc["derived"]["det_B"] = pair.det_B
    doc["derived"]["det_C"] = pair.det_C
    doc["gram"] = _gram_json(space)
    doc["signature"] = {"p": sig[0], "q": sig[1],
                        "interlace_abs_diff": _interlace_abs_diff(
                            pair.f, pair.g, sig)}
    return space, sig


def build_report(f_text: str, g_text: str,
                 search_bound: int = DEFAULT_SEARCH_BOUND,
                 word_bound: int = DEFAULT_WORD_BOUND) -> dict:
    """Analysis document for one pair given as polynomial text.

    Pair, form, signature, Q-rank certificate and witness context are
    each built once here and handed down.  Raises PolyParseError or
    PairValidationError for bad input and OracleMismatchError when
    independent routes disagree; the command layer maps those to exit
    codes 2 and 3.
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
    t1 = time.perf_counter()

    doc = _new_doc({"f": f_text, "g": g_text}, f, g, pair_type, shifted)
    if pair_type.kind == ORTHOGONAL:
        pair = build_pair(f, g)
        space, sig = _form_fields(doc, pair)
        t2 = time.perf_counter()
        ctx = WitnessContext(pair, space)
        cert = q_rank(space, sig, search_bound)
        doc["q_rank"] = _certificate_json(cert)
        doc["witness"] = _witness_json(arithmeticity_report(
            ctx, sig, cert, search_bound, word_bound))
    else:
        # Symplectic pairs carry no symmetric invariant form; report the
        # classification and stop.
        t2 = t1
        doc["witness"] = {"conclusion": OUT_OF_SCOPE,
                          "epsilon": None, "unipotent": None,
                          "translation_rank": None, "caveats": []}

    t3 = time.perf_counter()
    doc["timings"] = {"parse_ms": _ms(t1 - t0),
                      "forms_ms": _ms(t2 - t1),
                      "witness_ms": _ms(t3 - t2),
                      "total_ms": _ms(t3 - t0)}
    return doc


def build_pad_report(f0_text: str, g0_text: str, p_text: str, q_text: str,
                     d: int = DEFAULT_EXPONENT,
                     search_bound: int = DEFAULT_SEARCH_BOUND) -> dict:
    """Padding document: construction, embedding checks, inherited bound.

    The base certificate's isotropic witnesses are lifted through the
    embedding and seed the padded search, so the padded lower bound is at
    least the base one whenever the isometry check passes.  The unipotent
    hunt is not run here; analyze the padded polynomials directly for
    that.
    """
    t0 = time.perf_counter()
    f0 = parse_poly(f0_text)
    g0 = parse_poly(g0_text)
    P = parse_poly(p_text, var="y")
    Q = parse_poly(q_text, var="y")
    pp = pad_pair(f0, g0, P, Q, d)
    t1 = time.perf_counter()

    remainder_ok = remainder_coeff_check(pp)
    isometry_ok = isometry_check(pp)
    if not (remainder_ok and isometry_ok):
        failed = ("remainder top-coefficient"
                  if not remainder_ok else "Gram isometry")
        raise OracleMismatchError(
            f"padding embedding failed the {failed} check; the direct "
            "construction and the base form disagree")

    base_space = invariant_space(build_pair(f0, g0))
    base_cert = q_rank(base_space, signature(base_space), search_bound)
    seeds = tuple(embed_vector(pp, w) for w in base_cert.isotropic_witnesses)
    t2 = time.perf_counter()

    doc = _new_doc({"f0": f0_text, "g0": g0_text, "P": p_text, "Q": q_text,
                    "d": d}, pp.f, pp.g, classify_type(pp.f, pp.g), False)
    space, sig = _form_fields(doc, pp.pair)
    doc["q_rank"] = _certificate_json(
        q_rank(space, sig, search_bound, seeds=seeds))
    t3 = time.perf_counter()

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
    doc["timings"] = {"construct_ms": _ms(t1 - t0),
                      "checks_ms": _ms(t2 - t1),
                      "analysis_ms": _ms(t3 - t2),
                      "total_ms": _ms(t3 - t0)}
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

def _emit(doc: dict, args) -> None:
    text = serialize_report(doc)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text)
    if not args.quiet:
        sys.stdout.write(text)


def _failure_doc(exc: Exception) -> tuple[int, dict]:
    if isinstance(exc, (PolyParseError, PairValidationError)):
        return EXIT_VALIDATION, {"error": {"kind": "validation",
                                           "message": str(exc)}}
    if isinstance(exc, OracleMismatchError):
        return EXIT_ORACLE, {"error": {"kind": "oracle-mismatch",
                                       "message": str(exc)}}
    raise exc


def cmd_analyze(args) -> int:
    if args.batch is not None:
        return _run_batch(args)
    if args.f is None or args.g is None:
        sys.stderr.write("analyze needs --f and --g (or --batch)\n")
        return EXIT_VALIDATION
    try:
        doc = build_report(args.f, args.g, search_bound=args.search_bound,
                           word_bound=args.word_bound)
    except Exception as exc:  # noqa: BLE001 - mapped or re-raised
        code, doc = _failure_doc(exc)
        _emit(doc, args)
        return code
    _emit(doc, args)
    return EXIT_OK


def _run_batch(args) -> int:
    """One JSON object {"f": ..., "g": ...} per line; a bad line yields an
    error record in place of its report and the batch keeps going."""
    worst = EXIT_OK
    out_lines: list[str] = []
    with open(args.batch) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            problem = None
            try:
                item = json.loads(raw)
            except json.JSONDecodeError as exc:
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
                except Exception as exc:  # noqa: BLE001
                    code, doc = _failure_doc(exc)
                    doc["input"] = {"f": item["f"], "g": item["g"]}
            worst = max(worst, code)
            out_lines.append(json.dumps(doc, sort_keys=True))
    text = "\n".join(out_lines) + ("\n" if out_lines else "")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    if not args.quiet:
        sys.stdout.write(text)
    return worst


def cmd_pad(args) -> int:
    try:
        doc = build_pad_report(args.f0, args.g0, args.P, args.Q, d=args.d,
                               search_bound=args.search_bound)
    except Exception as exc:  # noqa: BLE001
        code, doc = _failure_doc(exc)
        _emit(doc, args)
        return code
    _emit(doc, args)
    return EXIT_OK


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

def _search_bound(text: str) -> int:
    """--search-bound value: an int of at least 1, since the Q-rank bound
    doubling never leaves a bound of 0 or less."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--search-bound", type=_search_bound,
                     default=DEFAULT_SEARCH_BOUND,
                     help="coefficient bound for the isotropic vector search, "
                          "at least 1 (default %(default)s)")
    sub.add_argument("--word-bound", type=int, default=DEFAULT_WORD_BOUND,
                     help="maximum reflection-word length in the witness "
                          "hunt (default %(default)s)")
    sub.add_argument("--json", metavar="PATH", default=None,
                     help="also write the report to PATH")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress stdout output (files still written)")


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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
