"""Built-in regression table for the worked five-dimensional examples.

ENTRIES records, for the base pair and the ten worked examples of the
source article, every value the article states: the inner products
v.A^k v, expanded polynomials and reduction steps, isotropic vectors,
complement memberships, reflection images, one quotient Gram matrix,
the claimed Witt indices, and two explicit unipotent stabilizer
elements.  evaluate_entry() recomputes each datum from (f, g) alone and
reports agreement datum by datum.

Stated values are kept verbatim, including the ones that are wrong in
the article.  A wrong one carries an `erratum` key into ERRATA, and a
result is only considered in order when an erratum datum really does
disagree with recomputation and an untagged datum really does agree.
The table therefore doubles as a machine-checked errata list: silently
"correcting" a stated value would make the suite fail.

All vectors here live in the cyclic basis (v, Av, A^2v, A^3v, A^4v)
unless a datum says otherwise; the one standard-basis datum is the
literal reading of a misprint that escapes the cyclic lattice.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg
from .monodromy import HyperPair, build_pair
from .parsing import parse_poly
from .polynomials import IntPoly, divrem, render
from .quadform import (RankCertificate, cyclic_gram_row, gram_invariance,
                       invariant_space, q_rank, signature)
from .witness import (GroupElement, WitnessContext, _render_reflection,
                      line_stabilizer_test, reflect)

DEFAULT_BOUND = 3

ERRATA = {
    "dropped-term": "the stated Av omits the 4x^2 term of g - f; every "
                    "later stated value in the same example inherits the "
                    "error, including the rank claim",
    "negated-expansion": "the stated expansion of f negates its four "
                         "lower-order coefficients; a later reduction "
                         "step also writes 3x^3 for 2x^3",
    "missing-factor-x": "an unreduced product is stated with constant "
                        "term 2 where the term 2x belongs",
    "constant-for-v": "the vector v is printed as the constant "
                      "polynomial 1",
    "swapped-signs": "the stated A^2v.v and A^3v.v have exchanged "
                     "signs, so the vector claimed isotropic carries "
                     "the wrong sign as well (A^2v+v is the isotropic "
                     "one)",
    "aside-sign-slip": "a parenthetical aside restates the isotropic "
                       "vector with -v in place of +v",
    "mislabelled-square": "the norm computation squares A^2v+A^3v-v "
                          "while the vector under discussion is "
                          "A^3v+A^4v-Av; the named vector happens to be "
                          "isotropic too, but is not orthogonal to eps",
    "wrong-reflection-axis": "a displayed reflection formula about A^2v "
                             "subtracts along Av instead of A^2v",
    "mismatched-difference": "a basis listing for eps-perp writes "
                             "A^2v-A^4v where Av-A^4v is meant",
}


@dataclass(frozen=True)
class Datum:
    """One stated value: a label for the table, a dispatch kind, the
    parameters needed to recompute it, the value exactly as stated, and
    the erratum tag when the stated value is known to be wrong."""
    label: str
    kind: str
    spec: tuple
    stated: object
    erratum: str | None = None


@dataclass(frozen=True)
class Entry:
    name: str
    f_text: str
    g_text: str
    data: tuple[Datum, ...]

    @property
    def title(self) -> str:
        return f"f = {self.f_text},  g = {self.g_text}"


@dataclass(frozen=True)
class DatumResult:
    label: str
    stated: str
    found: str
    match: bool
    erratum: str | None

    @property
    def ok(self) -> bool:
        # untagged data must match; errata must genuinely mismatch
        return self.match == (self.erratum is None)


@dataclass(frozen=True)
class EntryResult:
    name: str
    title: str
    results: tuple[DatumResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


@dataclass(frozen=True)
class SuiteResult:
    entries: tuple[EntryResult, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def out_of_order(self) -> list[tuple[str, DatumResult]]:
        return [(e.name, r) for e in self.entries for r in e.results
                if not r.ok]

    def errata_found(self) -> set[str]:
        """Erratum tags whose datum really did mismatch recomputation."""
        return {r.erratum for e in self.entries for r in e.results
                if r.erratum is not None and not r.match}


def _basis_name(k: int) -> str:
    return "v" if k == 0 else ("Av" if k == 1 else f"A^{k}v")


def _combo_text(c: Sequence) -> str:
    parts = []
    for k, coeff in enumerate(c):
        coeff = Fraction(coeff)
        if coeff == 0:
            continue
        term = _basis_name(k)
        if abs(coeff) != 1:
            mag = abs(coeff)
            term = f"{mag.numerator if mag.denominator == 1 else mag}{term}"
        parts.append(("-" if coeff < 0 else "+", term))
    if not parts:
        return "0"
    first_sign, first_term = parts[0]
    text = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def _fractions(c: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in c)


def _matrix_text(m) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(x) for x in row) + "]" for row in m) + "]"


class _Context:
    """Shared per-entry state: the pair, the cyclic Gram and t-row, and
    a lazily built witness context that evaluates the reflection words."""

    def __init__(self, entry: Entry):
        self.f = parse_poly(entry.f_text)
        self.g = parse_poly(entry.g_text)
        self.pair = build_pair(self.f, self.g)
        self.space = invariant_space(self.pair)
        self.trow = cyclic_gram_row(self.f, self.g)

    @cached_property
    def witness(self) -> WitnessContext:
        return WitnessContext(self.pair, self.space)

    def dot(self, a: Sequence, b: Sequence) -> Fraction:
        return linalg.vec_dot(a, self.space.gram, b)

    def iterate(self, k: int) -> IntPoly:
        """A^k v as a polynomial of degree < n (k >= 1)."""
        power = IntPoly.monomial(k - 1) * (self.g - self.f)
        return divrem(power, self.f)[1]

    def word_matrix(self, word: Sequence[int]) -> GroupElement:
        """Product of reflections about A^k v, leftmost applied last,
        matching the written order C_{A^k1 v} C_{A^k2 v} ..."""
        n = self.pair.n
        return self.witness.element(tuple(
            _render_reflection(tuple(int(i == k) for i in range(n)))
            for k in word))


def _eval_poly(ctx: _Context, spec: tuple, stated) -> tuple[str, str, bool]:
    op = spec[0]
    if op == "expand":
        found = ctx.f if spec[1] == "f" else ctx.g
    elif op == "iterate":
        found = ctx.iterate(spec[1])
    elif op == "shift":
        # x * A^(k-1) v without reduction, as the intermediate line states
        found = IntPoly.monomial(1) * ctx.iterate(spec[1] - 1)
    elif op == "reduce":
        coeff, power = spec[1], spec[2]
        found = divrem(IntPoly.monomial(power, coeff), ctx.f)[1]
    else:
        raise ValueError(f"unknown polynomial datum {op!r}")
    target = IntPoly(tuple(stated))
    return render(target), render(found), found == target


def _eval_datum(ctx: _Context, d: Datum, bound: int) -> DatumResult:
    if d.kind == "inner":
        found = ctx.trow[d.spec[0]]
        return DatumResult(d.label, str(d.stated), str(found),
                           found == d.stated, d.erratum)
    if d.kind == "poly":
        stated, found, match = _eval_poly(ctx, d.spec, d.stated)
        return DatumResult(d.label, stated, found, match, d.erratum)
    if d.kind == "pairing":
        a, b = d.spec
        found = ctx.dot(a, b)
        return DatumResult(d.label, str(d.stated), str(found),
                           found == d.stated, d.erratum)
    if d.kind == "isotropic":
        w, orth = d.spec
        norm = ctx.dot(w, w)
        found = f"norm {norm}"
        match = norm == 0
        if orth is not None:
            pairing = ctx.dot(w, orth)
            found += f", pairing with {_combo_text(orth)}: {pairing}"
            match = match and pairing == 0
        return DatumResult(d.label, "isotropic", found, match, d.erratum)
    if d.kind == "isotropic-std":
        w = d.spec[0]
        std = gram_invariance(ctx.pair)
        norm = linalg.vec_dot(w, std.gram, w)
        return DatumResult(d.label, "isotropic", f"norm {norm}",
                           norm == 0, d.erratum)
    if d.kind == "member":
        w, eps = d.spec
        pairing = ctx.dot(w, eps)
        return DatumResult(d.label, "pairing 0 with eps",
                           f"pairing {pairing}", pairing == 0, d.erratum)
    if d.kind == "reflection":
        axis, arg = d.spec
        image = reflect(ctx.space.gram, axis, arg)
        return DatumResult(d.label, _combo_text(d.stated),
                           _combo_text(image),
                           image == _fractions(d.stated), d.erratum)
    if d.kind == "word-image":
        word, arg = d.spec
        image = linalg.mat_vec(ctx.word_matrix(word).matrix, arg)
        image = _fractions(image)
        return DatumResult(d.label, _combo_text(d.stated),
                           _combo_text(image),
                           image == _fractions(d.stated), d.erratum)
    if d.kind == "unipotent":
        word, eps = d.spec
        u = ctx.word_matrix(word)
        status = line_stabilizer_test(u, eps, ctx.space.gram)
        nontrivial = not u.is_identity
        found = (f"in_unipotent_radical={status.in_unipotent_radical}, "
                 f"nontrivial={nontrivial}")
        return DatumResult(d.label, "nontrivial unipotent element", found,
                           status.in_unipotent_radical and nontrivial,
                           d.erratum)
    if d.kind == "gram":
        exponents = d.spec[0]
        basis = [tuple(int(i == k) for i in range(ctx.pair.n))
                 for k in exponents]
        found = tuple(tuple(ctx.dot(a, b) for b in basis) for a in basis)
        stated = tuple(tuple(Fraction(x) for x in row) for row in d.stated)
        return DatumResult(d.label, _matrix_text(stated),
                           _matrix_text(found), found == stated, d.erratum)
    if d.kind == "witt":
        cert = q_rank(ctx.space, signature(ctx.space), bound)
        found = f"[{cert.lo}, {cert.hi}]"
        if cert.obstructions:
            o = cert.obstructions[0]
            found += f" (mod {o.prime}^{o.exponent} obstruction)"
        match = cert.lo == cert.hi == d.stated
        return DatumResult(d.label, str(d.stated), found, match, d.erratum)
    raise ValueError(f"unknown datum kind {d.kind!r}")


def evaluate_entry(entry: Entry, bound: int = DEFAULT_BOUND) -> EntryResult:
    ctx = _Context(entry)
    results = tuple(_eval_datum(ctx, d, bound) for d in entry.data)
    return EntryResult(name=entry.name, title=entry.title, results=results)


def run_suite(bound: int = DEFAULT_BOUND) -> SuiteResult:
    return SuiteResult(tuple(evaluate_entry(e, bound) for e in ENTRIES))


def _inner(k: int, stated: int, erratum: str | None = None) -> Datum:
    return Datum(f"{_basis_name(k)}.v = {stated}", "inner", (k,), stated,
                 erratum)


def _iso(label: str, w, orth=None, erratum: str | None = None) -> Datum:
    return Datum(label, "isotropic", (tuple(w),
                 None if orth is None else tuple(orth)), True, erratum)


def _member(label: str, w, eps, erratum: str | None = None) -> Datum:
    return Datum(label, "member", (tuple(w), tuple(eps)), 0, erratum)


ENTRIES = (
    Entry(
        name="base",
        f_text="x^5-1",
        g_text="(x+1)*(x^2+1)^2",
        data=(
            _inner(0, 2), _inner(1, 1), _inner(2, 2), _inner(3, 2),
            _inner(4, 1),
            Datum("Av = x^4+2x^3+2x^2+x+2", "poly", ("iterate", 1),
                  (2, 1, 2, 2, 1)),
            Datum("x*Av = x^5+2x^4+2x^3+x^2+2x before reduction", "poly",
                  ("shift", 2), (0, 2, 1, 2, 2, 1)),
            Datum("A^2v = 2x^4+2x^3+x^2+2x+1", "poly", ("iterate", 2),
                  (1, 2, 1, 2, 2)),
            _iso("eps = v - A^2v is isotropic", (1, 0, -1, 0, 0)),
            Datum("C_v(A^4v) = A^4v - v", "reflection",
                  ((1, 0, 0, 0, 0), (0, 0, 0, 0, 1)), (-1, 0, 0, 0, 1)),
            Datum("C_{A^3v}(A^4v - v) = v' = A^3v + A^4v - v",
                  "reflection", ((0, 0, 0, 1, 0), (-1, 0, 0, 0, 1)),
                  (-1, 0, 0, 1, 1)),
            _iso("eps' = A^3v + A^4v - Av is isotropic and orthogonal "
                 "to eps", (0, -1, 0, 1, 1), (1, 0, -1, 0, 0)),
            _iso("the squared vector as printed, A^2v + A^3v - v, "
                 "also orthogonal to eps", (-1, 0, 1, 1, 0),
                 (1, 0, -1, 0, 0), erratum="mislabelled-square"),
            Datum("C_{A^2v}(v) = v - (v.A^2v)Av per the stated formula",
                  "reflection", ((0, 0, 1, 0, 0), (1, 0, 0, 0, 0)),
                  (1, -2, 0, 0, 0), erratum="wrong-reflection-axis"),
            Datum("u = C_{A^2v} C_v lies in the unipotent radical of "
                  "P(eps)", "unipotent", ((2, 0), (1, 0, -1, 0, 0)), True),
            Datum("u(v) = v + 2(A^2v - v)", "word-image",
                  ((2, 0), (1, 0, 0, 0, 0)), (-1, 0, 2, 0, 0)),
            Datum("Q-rank = 2", "witt", (), 2),
        )),
    Entry(
        name="ex01",
        f_text="(x-1)*(x^2+1)^2",
        g_text="(x+1)*(x^2-x+1)^2",
        data=(
            Datum("f expands to x^5-x^4-2x^3+2x^2-x+1", "poly",
                  ("expand", "f"), (1, -1, 2, -2, -1, 1),
                  erratum="negated-expansion"),
            Datum("Av = -x^3+3x^2-2x+2", "poly", ("iterate", 1),
                  (2, -2, 3, -1)),
            _inner(1, 0), _inner(2, -1), _inner(3, 2), _inner(4, 2),
            Datum("A^2v = -x^4+3x^3-2x^2+2x", "poly", ("iterate", 2),
                  (0, 2, -2, 3, -1)),
            Datum("-x^5 reduces to -x^4+3x^3-2x^2+x-1", "poly",
                  ("reduce", -1, 5), (-1, 1, -2, 3, -1),
                  erratum="negated-expansion"),
            Datum("A^3v = 2x^4+x-1", "poly", ("iterate", 3),
                  (-1, 1, 0, 0, 2)),
            Datum("A^4v = 2x^4-4x^3+5x^2-3x+2", "poly", ("iterate", 4),
                  (2, -3, 5, -4, 2)),
            _iso("eps = A^4v - v is isotropic", (-1, 0, 0, 0, 1)),
            Datum("eps.v = 0", "pairing",
                  ((-1, 0, 0, 0, 1), (1, 0, 0, 0, 0)), 0),
            Datum("eps.Av = 2", "pairing",
                  ((-1, 0, 0, 0, 1), (0, 1, 0, 0, 0)), 2),
            Datum("eps.A^3v = -2", "pairing",
                  ((-1, 0, 0, 0, 1), (0, 0, 0, 1, 0)), -2),
            _member("A^2v lies in eps-perp", (0, 0, 1, 0, 0),
                    (-1, 0, 0, 0, 1)),
            _member("v' = Av + A^3v lies in eps-perp", (0, 1, 0, 1, 0),
                    (-1, 0, 0, 0, 1)),
            Datum("C_{Av}(A^3v) = A^3v + Av", "reflection",
                  ((0, 1, 0, 0, 0), (0, 0, 0, 1, 0)), (0, 1, 0, 1, 0)),
            _iso("eps' = Av + A^3v - v is isotropic and orthogonal to "
                 "eps", (-1, 1, 0, 1, 0), (-1, 0, 0, 0, 1)),
            Datum("Q-rank = 2", "witt", (), 2),
        )),
    Entry(
        name="ex02",
        f_text="(x-1)*(x^2+1)^2",
        g_text="(x+1)*(x^5-1)/(x-1)",
        data=(
            Datum("g expands to x^5+2x^4+2x^3+2x^2+2x+1", "poly",
                  ("expand", "g"), (1, 2, 2, 2, 2, 1)),
            Datum("f expands to x^5-x^4+2x^3-2x^2+x-1", "poly",
                  ("expand", "f"), (-1, 1, -2, 2, -1, 1)),
            Datum("Av = 3x^4+x+2", "poly", ("iterate", 1),
                  (2, 1, 0, 0, 3), erratum="dropped-term"),
            _inner(1, 3),
            Datum("x*Av = 3x^5+x^2+2x before reduction", "poly",
                  ("shift", 2), (0, 2, 1, 0, 0, 3),
                  erratum="dropped-term"),
            Datum("A^2v = 3x^4-6x^3+7x^2-x+5", "poly", ("iterate", 2),
                  (5, -1, 7, -6, 3), erratum="dropped-term"),
            _inner(2, 3),
            Datum("A^4v = -2x^4+11x^3-6x^2+6x-3", "poly", ("iterate", 4),
                  (-3, 6, -6, 11, -2), erratum="dropped-term"),
            _inner(3, -3, erratum="dropped-term"),
            _inner(4, -2, erratum="dropped-term"),
            _iso("eps = A^4v + v is isotropic", (1, 0, 0, 0, 1),
                 erratum="dropped-term"),
            Datum("Gram of (v, Av, A^3v) = [[2,3,-3],[3,2,3],[-3,3,2]]",
                  "gram", ((0, 1, 3),),
                  ((2, 3, -3), (3, 2, 3), (-3, 3, 2)),
                  erratum="dropped-term"),
            Datum("Q-rank = 1", "witt", (), 1, erratum="dropped-term"),
        )),
    Entry(
        name="ex03",
        f_text="(x-1)*(x^2+x+1)^2",
        g_text="(x+1)*(x^5-1)/(x-1)",
        data=(
            Datum("f expands to x^5+x^4+x^3-x^2-x-1", "poly",
                  ("expand", "f"), (-1, -1, -1, 1, 1, 1)),
            Datum("g expands to x^5+2x^4+2x^3+2x^2+2x+1", "poly",
                  ("expand", "g"), (1, 2, 2, 2, 2, 1)),
            Datum("Av = x^4+x^3+3x^2+3x+2", "poly", ("iterate", 1),
                  (2, 3, 3, 1, 1)),
            _inner(1, 1),
            Datum("x*Av = x^5+x^4+3x^3+3x^2+2 before reduction", "poly",
                  ("shift", 2), (2, 0, 3, 3, 1, 1),
                  erratum="missing-factor-x"),
            Datum("A^2v = 2x^3+4x^2+3x+1", "poly", ("iterate", 2),
                  (1, 3, 4, 2)),
            _inner(2, 0),
            Datum("A^3v = 2x^4+4x^3+3x^2+x", "poly", ("iterate", 3),
                  (0, 1, 3, 4, 2)),
            _inner(3, 2),
            Datum("A^4v = 2x^4+x^3+3x^2+2x+2", "poly", ("iterate", 4),
                  (2, 2, 3, 1, 2)),
            _inner(4, 2),
            _iso("eps = A^4v - v is isotropic", (-1, 0, 0, 0, 1)),
            Datum("eps.Av = 1", "pairing",
                  ((-1, 0, 0, 0, 1), (0, 1, 0, 0, 0)), 1),
            Datum("eps.A^3v = -1", "pairing",
                  ((-1, 0, 0, 0, 1), (0, 0, 0, 1, 0)), -1),
            Datum("eps.A^2v = 0", "pairing",
                  ((-1, 0, 0, 0, 1), (0, 0, 1, 0, 0)), 0),
            _member("A^3v + Av lies in eps-perp", (0, 1, 0, 1, 0),
                    (-1, 0, 0, 0, 1)),
            _member("v' = A^2v - A^3v - Av lies in eps-perp",
                    (0, -1, 1, -1, 0), (-1, 0, 0, 0, 1)),
            Datum("C_{A^3v}(A^2v) = A^2v - A^3v", "reflection",
                  ((0, 0, 0, 1, 0), (0, 0, 1, 0, 0)), (0, 0, 1, -1, 0)),
            Datum("C_{Av}(A^2v - A^3v) = A^2v - Av - A^3v", "reflection",
                  ((0, 1, 0, 0, 0), (0, 0, 1, -1, 0)), (0, -1, 1, -1, 0)),
            _iso("w = A^3v + Av - v is isotropic and orthogonal to eps",
                 (-1, 1, 0, 1, 0), (-1, 0, 0, 0, 1)),
            Datum("Q-rank = 2", "witt", (), 2),
        )),
    Entry(
        name="ex04",
        f_text="(x-1)*(x^2+1)*(x^2+x+1)",
        g_text="(x+1)*(x^5-1)/(x-1)",
        data=(
            # the text states the rank outcome only, no intermediate values
            Datum("Q-rank = 1", "witt", (), 1),
        )),
    Entry(
        name="ex05",
        f_text="x^5-1",
        g_text="(x+1)*(x^2-x+1)^2",
        data=(
            _inner(1, -1), _inner(2, 1), _inner(3, 1), _inner(4, -1),
            _iso("eps = A^2v + A^3v - v is isotropic", (-1, 0, 1, 1, 0)),
            _member("v lies in eps-perp", (1, 0, 0, 0, 0),
                    (-1, 0, 1, 1, 0)),
            _member("A^2v lies in eps-perp", (0, 0, 1, 0, 0),
                    (-1, 0, 1, 1, 0)),
            _member("A^4v - Av lies in eps-perp", (0, -1, 0, 0, 1),
                    (-1, 0, 1, 1, 0)),
            _iso("A^2v - A^4v + Av is isotropic and orthogonal to eps",
                 (0, 1, 1, 0, -1), (-1, 0, 1, 1, 0)),
            Datum("C_{A^4v}(Av) = Av - A^4v", "reflection",
                  ((0, 0, 0, 0, 1), (0, 1, 0, 0, 0)), (0, 1, 0, 0, -1)),
            _member("the basis listing's A^2v - A^4v lies in eps-perp",
                    (0, 0, 1, 0, -1), (-1, 0, 1, 1, 0),
                    erratum="mismatched-difference"),
            Datum("u = C_v C_{A^3v} C_v C_{A^2v} lies in the unipotent "
                  "radical of P(eps)", "unipotent",
                  ((0, 3, 0, 2), (-1, 0, 1, 1, 0)), True),
            Datum("Q-rank = 2", "witt", (), 2),
        )),
    Entry(
        name="ex06",
        f_text="x^5-1",
        g_text="(x+1)^3*(x^2-x+1)",
        data=(
            _inner(1, 2), _inner(2, 1), _inner(3, 1), _inner(4, 2),
            Datum("eps = Av - 1 read literally (standard coordinates) "
                  "is isotropic", "isotropic-std", ((1, 2, 1, 1, 2),),
                  True, erratum="constant-for-v"),
            _iso("eps = Av - v (the resolved reading) is isotropic",
                 (-1, 1, 0, 0, 0)),
            _member("v lies in eps-perp", (1, 0, 0, 0, 0),
                    (-1, 1, 0, 0, 0)),
            _member("A^3v lies in eps-perp", (0, 0, 0, 1, 0),
                    (-1, 1, 0, 0, 0)),
            _member("A^2v + A^4v lies in eps-perp", (0, 0, 1, 0, 1),
                    (-1, 1, 0, 0, 0)),
            _member("v' = A^2v + A^4v - 2v lies in eps-perp",
                    (-2, 0, 1, 0, 1), (-1, 1, 0, 0, 0)),
            Datum("C_v(A^4v) = A^4v - 2v", "reflection",
                  ((1, 0, 0, 0, 0), (0, 0, 0, 0, 1)), (-2, 0, 0, 0, 1)),
            Datum("C_{A^2v}(A^4v - 2v) = A^4v - 2v + A^2v", "reflection",
                  ((0, 0, 1, 0, 0), (-2, 0, 0, 0, 1)), (-2, 0, 1, 0, 1)),
            _iso("eps' = A^2v + A^4v - 2v - A^3v is isotropic and "
                 "orthogonal to eps", (-2, 0, 1, -1, 1),
                 (-1, 1, 0, 0, 0)),
            Datum("Q-rank = 2", "witt", (), 2),
        )),
    Entry(
        name="ex07",
        f_text="(x-1)*(x^2+x+1)^2",
        g_text="(x+1)*(x^2-x+1)^2",
        data=(
            _inner(1, -2), _inner(2, 2), _inner(3, 2), _inner(4, -6),
            _iso("eps = A^2v - v is isotropic", (-1, 0, 1, 0, 0)),
            _member("v lies in eps-perp", (1, 0, 0, 0, 0),
                    (-1, 0, 1, 0, 0)),
            _member("Av lies in eps-perp", (0, 1, 0, 0, 0),
                    (-1, 0, 1, 0, 0)),
            _member("v' = A^4v + 2A^3v lies in eps-perp", (0, 0, 0, 2, 1),
                    (-1, 0, 1, 0, 0)),
            Datum("C_{A^3v}(A^4v) = A^4v + 2A^3v", "reflection",
                  ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1)), (0, 0, 0, 2, 1)),
            Datum("Q-rank = 2", "witt", (), 2),
        )),
    Entry(
        name="ex08",
        f_text="(x-1)*(x^2+x+1)^2",
        g_text="(x+1)*(x^4-x^2+1)",
        data=(
            _inner(1, 0),
            _inner(2, 2, erratum="swapped-signs"),
            _inner(3, -2, erratum="swapped-signs"),
            _inner(4, 2),
            _iso("eps = A^2v - v as stated is isotropic",
                 (-1, 0, 1, 0, 0), erratum="swapped-signs"),
            _iso("eps = A^2v + v (the resolved reading) is isotropic",
                 (1, 0, 1, 0, 0)),
            _member("v lies in eps-perp", (1, 0, 0, 0, 0),
                    (1, 0, 1, 0, 0)),
            _member("Av lies in eps-perp", (0, 1, 0, 0, 0),
                    (1, 0, 1, 0, 0)),
            _member("A^4v lies in eps-perp", (0, 0, 0, 0, 1),
                    (1, 0, 1, 0, 0)),
            _iso("A^4v - v is isotropic and orthogonal to eps",
                 (-1, 0, 0, 0, 1), (1, 0, 1, 0, 0)),
            Datum("Q-rank = 2", "witt", (), 2),
        )),
    Entry(
        name="ex09",
        f_text="x^5-1",
        g_text="(x+1)*(x^4-x^2+1)",
        data=(
            _inner(1, 1), _inner(2, -1), _inner(3, -1), _inner(4, 1),
            _iso("eps = A^2v - Av + v is isotropic", (1, -1, 1, 0, 0)),
            _member("v lies in eps-perp", (1, 0, 0, 0, 0),
                    (1, -1, 1, 0, 0)),
            _member("Av lies in eps-perp", (0, 1, 0, 0, 0),
                    (1, -1, 1, 0, 0)),
            _member("A^4v - A^3v lies in eps-perp", (0, 0, 0, -1, 1),
                    (1, -1, 1, 0, 0)),
            _iso("eps' = A^4v - A^3v + A^2v is isotropic and orthogonal "
                 "to eps", (0, 0, 1, -1, 1), (1, -1, 1, 0, 0)),
            Datum("C_{A^3v}(A^4v) = A^4v - A^3v", "reflection",
                  ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1)), (0, 0, 0, -1, 1)),
            _iso("the aside's eps = A^2v - Av - v is isotropic",
                 (-1, -1, 1, 0, 0), erratum="aside-sign-slip"),
            Datum("Q-rank = 2", "witt", (), 2),
        )),
    Entry(
        name="ex10",
        f_text="(x-1)*(x^2+1)^2",
        g_text="(x+1)*(x^4-x^2+1)",
        data=(
            _inner(1, 2), _inner(2, -1), _inner(3, -4), _inner(4, 2),
            _iso("eps = A^4v - v is isotropic", (-1, 0, 0, 0, 1)),
            _member("v lies in eps-perp", (1, 0, 0, 0, 0),
                    (-1, 0, 0, 0, 1)),
            _member("A^2v lies in eps-perp", (0, 0, 1, 0, 0),
                    (-1, 0, 0, 0, 1)),
            _member("v' = Av + A^3v lies in eps-perp", (0, 1, 0, 1, 0),
                    (-1, 0, 0, 0, 1)),
            Datum("C_{A^3v}(Av) = Av + A^3v", "reflection",
                  ((0, 0, 0, 1, 0), (0, 1, 0, 0, 0)), (0, 1, 0, 1, 0)),
            _iso("eps' = v + A^2v - Av - A^3v is isotropic and "
                 "orthogonal to eps", (1, -1, 1, -1, 0),
                 (-1, 0, 0, 0, 1)),
            Datum("Q-rank = 2", "witt", (), 2),
        )),
)
