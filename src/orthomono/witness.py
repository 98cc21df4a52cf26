"""Reflection calculus and the assembled arithmeticity certificate.

Everything here acts in the cyclic basis v, Av, ..., A^{n-1}v, where the
first companion matrix keeps its shape, v is the first basis vector, and
the Gram matrix is the integer Toeplitz form.  A witness consists of an
isotropic vector eps, a nontrivial unipotent element fixing eps built
from two reflections, and enough reflection conjugates of it to span the
full translation group of the parabolic fixing the line through eps.

Each group element carries both its matrix and the word over
{A, A^-1, B, B^-1, C, C[coords]} that produced it, and the two are
cross-checked at construction, so every certificate is replayable.

arithmeticity_report runs the witness hunt alone: the pair, form,
signature and Q-rank certificate it needs are built by the caller and
passed in.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .monodromy import HyperPair, PairValidationError, int_matrix
from .quadform import (QuadSpace, RankCertificate, SearchBudgetError,
                       _box_solutions, _gram_of, isotropic_search)

WITNESSED = "witnessed-arithmetic"
INCONCLUSIVE = "inconclusive"
OUT_OF_SCOPE = "out-of-scope(symplectic)"

_TOKEN_INVERSE = {"A": "A^-1", "A^-1": "A", "B": "B^-1", "B^-1": "B"}

# conjugate-budget for the translation-span search; rank growth usually
# saturates within the first layer or two
SPAN_BUDGET = 600
MAX_SPAN_REFLECTIONS = 12
# enumeration ceiling for the ambient box of integral_reflection_vectors
AMBIENT_CAP = 200_000


@dataclass(frozen=True)
class GroupElement:
    word: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    @property
    def is_identity(self) -> bool:
        n = len(self.matrix)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))


@dataclass(frozen=True)
class LineStabilizer:
    fixes_line: bool
    fixes_vector: bool
    in_unipotent_radical: bool


@dataclass(frozen=True)
class WitnessReport:
    epsilon: tuple[int, ...] | None
    unipotent: GroupElement | None
    translation_rank: int | None
    conclusion: str
    caveats: tuple[str, ...]


CAVEATS = (
    "Zariski density of the group is assumed via the Beukers-Heckman "
    "criterion for hypergeometric monodromy; it is not re-verified here.",
    "for a witnessed pair, arithmeticity additionally invokes a cited "
    "finite-index theorem for higher-rank lattices; this report verifies "
    "that theorem's hypotheses mechanically and does not re-prove it.",
)


def _render_reflection(w: Sequence[int]) -> str:
    return "C[" + ",".join(str(int(x)) for x in w) + "]"


def _parse_reflection(token: str) -> tuple[int, ...]:
    return tuple(int(x) for x in token[2:-1].split(","))


def _inverse_word(word: Sequence[str]) -> tuple[str, ...]:
    # reflections and C are involutions; A, B invert by name
    return tuple(_TOKEN_INVERSE.get(t, t) for t in reversed(word))


def _check_isometry(gram, m, label: str) -> None:
    """Raise unless m^T G m = G."""
    if not linalg.mat_eq(linalg.mat_mul(linalg.transpose(m),
                                        linalg.mat_mul(gram, m)), gram):
        raise PairValidationError(f"{label} does not preserve the form")


class WitnessContext:
    """Cyclic-basis generators and form for one validated pair, with a
    cached orbit of v under short words for the witness search."""

    def __init__(self, pair: HyperPair, space: QuadSpace):
        self.pair = pair
        self.n = pair.n
        self.space = space
        self.gram = _gram_of(self.space)
        n = self.n
        # multiplication by x has the same matrix in the cyclic basis
        self.A = pair.A
        self.v = tuple(int(i == 0) for i in range(n))
        self.C = reflection_matrix(self.gram, self.v).matrix
        self.A_inv = pair.A_inv
        self.B = int_matrix(linalg.mat_mul(self.A, self.C))
        # B = A C with C an involution, so B^-1 = C A^-1
        self.B_inv = int_matrix(linalg.mat_mul(self.C, self.A_inv))
        if not linalg.mat_eq(linalg.mat_mul(self.B, self.B_inv),
                             linalg.identity(n)):
            raise PairValidationError("C A^-1 does not invert B")
        self._gens = {"A": self.A, "A^-1": self.A_inv, "B": self.B,
                      "B^-1": self.B_inv, "C": self.C}
        # reflection_matrix has checked C already
        for name in ("A", "A^-1", "B", "B^-1"):
            _check_isometry(self.gram, self._gens[name], name)
        self._orbits: dict[int, tuple[dict, dict]] = {}

    def token_matrix(self, token: str):
        if token in self._gens:
            return self._gens[token]
        if token.startswith("C[") and token.endswith("]"):
            return reflection_matrix(self.gram, _parse_reflection(token)).matrix
        raise ValueError(f"unknown word token {token!r}")

    def element(self, word: Sequence[str]) -> GroupElement:
        m = linalg.identity(self.n)
        for token in word:
            m = linalg.mat_mul(m, self.token_matrix(token))
        m = int_matrix(m)
        _check_isometry(self.gram, m, " ".join(word) if word else "identity")
        return GroupElement(word=tuple(word), matrix=m)

    def verified(self, word: Sequence[str], matrix) -> GroupElement:
        """GroupElement with both invariants checked: the matrix preserves
        the form and equals the evaluated word."""
        matrix = int_matrix(matrix)
        if self.element(word).matrix != matrix:
            raise ValueError("matrix does not match its word")
        return GroupElement(word=tuple(word), matrix=matrix)

    def word_orbit(self, word_bound: int) -> tuple[dict, dict]:
        """Breadth-first orbit of v under words in {A, A^-1, C} up to the
        bound, deduplicated by matrix, shortest-lexicographic first.

        Returns (minus, plus): maps from g(v) - v resp. g(v) + v to
        (discovery index, word, g(v)), first discovery kept.
        """
        if word_bound in self._orbits:
            return self._orbits[word_bound]
        n, v = self.n, self.v
        minus: dict = {}
        plus: dict = {}
        seen = {int_matrix(linalg.identity(n))}
        idx = 0
        frontier = [(int_matrix(linalg.identity(n)), ())]
        for _ in range(word_bound):
            grown = []
            for matrix, word in frontier:
                for token in ("A", "A^-1", "C"):
                    m = int_matrix(linalg.mat_mul(matrix,
                                                  self.token_matrix(token)))
                    if m in seen:
                        continue
                    seen.add(m)
                    w = word + (token,)
                    grown.append((m, w))
                    x = tuple(m[i][0] for i in range(n))  # image of v = e_0
                    key_minus = tuple(a - b for a, b in zip(x, v))
                    key_plus = tuple(a + b for a, b in zip(x, v))
                    minus.setdefault(key_minus, (idx, w, x))
                    plus.setdefault(key_plus, (idx, w, x))
                    idx += 1
            frontier = grown
        self._orbits[word_bound] = (minus, plus)
        return minus, plus


def reflect(H, w: Sequence[int], x: Sequence):
    """x - (2 (x.w) / (w.w)) w; requires w anisotropic."""
    gram = _gram_of(H)
    ww = linalg.vec_dot(w, gram, w)
    if ww == 0:
        raise ValueError("cannot reflect about an isotropic vector")
    xw = linalg.vec_dot(x, gram, w)
    factor = 2 * Fraction(xw) / ww
    return tuple(Fraction(a) - factor * b for a, b in zip(x, w))


def reflection_matrix(H, w: Sequence[int]) -> GroupElement:
    """GroupElement of the reflection about w; the matrix must come out
    integral to participate in group computations.

    Column j is reflect(H, w, e_j) = e_j - (2 (Gw)_j / w.w) w, built
    entry by entry with an exact-divisibility test in place of a
    division."""
    gram = _gram_of(H)
    n = len(gram)
    gw = linalg.mat_vec(gram, w)
    ww = sum(a * b for a, b in zip(w, gw))
    if ww == 0:
        raise ValueError("cannot reflect about an isotropic vector")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            shift, rest = divmod(2 * gw[j] * w[i], ww)
            if rest != 0:
                raise ValueError(
                    f"reflection about {tuple(w)} is not integral")
            row.append(int(i == j) - shift)
        rows.append(tuple(row))
    matrix = tuple(rows)
    word = _render_reflection(w)
    _check_isometry(gram, matrix, word)
    return GroupElement(word=(word,), matrix=matrix)


def conjugate(g: GroupElement, h: GroupElement) -> GroupElement:
    """g h g^-1 with the concatenated word."""
    g_inv = int_matrix(linalg.inverse(g.matrix))
    matrix = int_matrix(linalg.mat_mul(g.matrix,
                                       linalg.mat_mul(h.matrix, g_inv)))
    word = g.word + h.word + _inverse_word(g.word)
    return GroupElement(word=word, matrix=matrix)


def orthocomplement(H, eps: Sequence[int]
                    ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(basis of eps-perp containing eps, quotient representatives).

    The perp basis is an integral lattice basis with eps as its first
    vector; the remaining n-2 vectors represent eps-perp modulo the line
    through eps.  Deterministic.
    """
    gram = _gram_of(H)
    n = len(gram)
    eps = tuple(int(x) for x in eps)
    if all(x == 0 for x in eps):
        raise ValueError("eps must be nonzero")
    if linalg.vec_dot(eps, gram, eps) != 0:
        raise ValueError("eps must be isotropic")
    row = linalg.primitive_integer(linalg.mat_vec(gram, eps))
    kernel = linalg.int_row_kernel(list(row))
    coords = linalg.coordinates(kernel, eps)
    if coords is None:
        raise ValueError("eps does not lie in its own perp")
    ints = []
    acc = 0
    for c in coords:
        fc = Fraction(c)
        if fc.denominator != 1:
            raise ValueError("eps must be primitive")
        ints.append(int(fc))
        acc = math.gcd(acc, int(fc))
    if acc != 1:
        raise ValueError("eps must be primitive")
    u = linalg.unimodular_with_first_row(tuple(ints))
    k = len(kernel)
    basis = [tuple(sum(u[i][j] * kernel[j][col] for j in range(k))
                   for col in range(n)) for i in range(k)]
    if basis[0] != eps:
        raise AssertionError("perp basis must start with eps")
    return basis, basis[1:]


def _parallel_factor(d: Sequence[int], eps: Sequence[int]) -> int | None:
    """The integer lambda with d = lambda * eps, or None if there is none.
    For an integral d and a primitive eps, None means d is not parallel."""
    idx = next(i for i, x in enumerate(eps) if x != 0)
    lam = d[idx] // eps[idx]
    if all(a == lam * b for a, b in zip(d, eps)):
        return lam
    return None


def _radical_factors(matrix, eps: tuple[int, ...],
                     quotient: Sequence[Sequence[int]]) -> list[int] | None:
    """The integers lambda_w with g(w) = w + lambda_w eps, one per quotient
    representative w of orthocomplement(), or None when g is not in the
    unipotent radical of the parabolic fixing the line through eps (it
    moves eps, or moves some w off w + line).  lambda_w is an integer
    because eps is primitive."""
    if list(linalg.mat_vec(matrix, eps)) != list(eps):
        return None
    factors = []
    for w in quotient:
        lam = _parallel_factor(
            [a - b for a, b in zip(linalg.mat_vec(matrix, w), w)], eps)
        if lam is None:
            return None
        factors.append(lam)
    return factors


def line_stabilizer_test(g: GroupElement, eps: Sequence[int], H
                         ) -> LineStabilizer:
    """How g interacts with the isotropic line through eps: preserves it,
    fixes eps itself, and acts trivially on both the line and
    eps-perp/line (the unipotent-radical condition)."""
    eps = tuple(int(x) for x in eps)
    lam = _parallel_factor(linalg.mat_vec(g.matrix, eps), eps)
    fixes_vector = lam == 1
    radical = fixes_vector and _radical_factors(
        g.matrix, eps, orthocomplement(H, eps)[1]) is not None
    return LineStabilizer(fixes_line=lam is not None,
                          fixes_vector=fixes_vector,
                          in_unipotent_radical=radical)


def translation_vector(u: GroupElement, eps: Sequence[int], H
                       ) -> tuple[Fraction, ...]:
    """The quotient vector t with u(w) = w + (w.t) eps on eps-perp,
    written in the quotient basis of orthocomplement().

    Zero iff u restricts to the identity on eps-perp.
    """
    gram = _gram_of(H)
    eps = tuple(int(x) for x in eps)
    _, quotient = orthocomplement(gram, eps)
    factors = _radical_factors(u.matrix, eps, quotient)
    if factors is None:
        raise ValueError("element is not in the unipotent radical")
    qgram = [[linalg.vec_dot(wi, gram, wj) for wj in quotient]
             for wi in quotient]
    # the form descends nondegenerately to the quotient, so t is unique
    return tuple(Fraction(c)
                 for c in linalg.mat_vec(linalg.inverse(qgram), factors))


def unipotent_from_reflections(ctx: WitnessContext, eps: Sequence[int],
                               word_bound: int) -> GroupElement | None:
    """Search words g over {A, A^-1, C} (shortest first, lexicographic
    tie-break) for g(v) with g(v) -+ v = +-eps; the returned element is
    u = C_{g(v)} C_v, verified nontrivial and inside the unipotent
    radical of the parabolic fixing the line through eps.

    None when the bounded search finds nothing; that is a report outcome,
    not an error.
    """
    gram, v = ctx.gram, ctx.v
    eps = tuple(int(x) for x in eps)
    if linalg.vec_dot(eps, gram, eps) != 0:
        raise ValueError("eps must be isotropic")
    minus, plus = ctx.word_orbit(word_bound)
    hits = []
    for target in (eps, tuple(-x for x in eps)):
        for priority, store in ((0, minus), (1, plus)):
            if target in store:
                idx, word, x = store[target]
                hits.append((idx, priority, word, x))
    for _, _, word, x in sorted(hits):
        # g isometry forces g(v).g(v) = 2; isotropy of eps = g(v) -+ v
        # forces eps orthogonal to both v and g(v); checked anyway
        if linalg.vec_dot(x, gram, x) != 2:
            continue
        if linalg.vec_dot(eps, gram, v) != 0 or \
                linalg.vec_dot(eps, gram, x) != 0:
            continue
        cx = reflection_matrix(gram, x)
        u_matrix = int_matrix(linalg.mat_mul(cx.matrix, ctx.C))
        u_word = word + ("C",) + _inverse_word(word) + ("C",)
        u = ctx.verified(u_word, u_matrix)
        if u.is_identity:
            continue
        if line_stabilizer_test(u, eps, gram).in_unipotent_radical:
            return u
    return None


def integral_reflection_vectors(ctx: WitnessContext, eps: Sequence[int],
                                search_bound: int = 3
                                ) -> list[tuple[int, ...]]:
    """Norm-2 vectors orthogonal to eps, whose reflections are therefore
    integral and fix the line through eps: the images A^k v, the
    perp-basis vectors, then (dimension permitting) a bounded ambient
    search.  Deduplicated by sign, deterministic order."""
    gram, n = ctx.gram, ctx.n
    eps = tuple(int(x) for x in eps)
    # A^k v is the k-th unit vector of the cyclic basis
    images = (tuple(row) for row in linalg.identity(n))
    perp, _ = orthocomplement(gram, eps)
    candidates = itertools.chain(images, perp)
    if (2 * search_bound + 1) ** n <= AMBIENT_CAP:
        # lazily: the scan usually stops at MAX_SPAN_REFLECTIONS long
        # before the box is exhausted
        candidates = itertools.chain(
            candidates, _box_solutions(gram, search_bound, 2))
    g_eps = linalg.mat_vec(gram, eps)
    out: list[tuple[int, ...]] = []
    seen = set()
    for w in candidates:
        lead = next((a for a in w if a != 0), None)
        if lead is None:
            continue
        canon = w if lead > 0 else tuple(-a for a in w)
        if canon in seen:
            continue
        seen.add(canon)
        if sum(a * b for a, b in zip(canon, g_eps)) != 0:
            continue
        if linalg.vec_dot(canon, gram, canon) != 2:
            continue
        out.append(canon)
        if len(out) >= MAX_SPAN_REFLECTIONS:
            break
    return out


def span_rank_witness(u: GroupElement, reflections: Sequence[GroupElement],
                      eps: Sequence[int], H) -> int:
    """Rank over Q of the translation vectors of the conjugates of u by
    products (length <= 3) of the given reflections.

    The rank is that of the integer vectors from _radical_factors: the
    translation vectors are their images under the inverse quotient Gram,
    an invertible map.  Stops early when the rank reaches n - 2, the
    dimension of the full translation group, when SPAN_BUDGET conjugates
    are spent, or after a whole product layer adds no rank.  Every
    reflection must map eps to a multiple of itself and be its own
    inverse.
    """
    gram = _gram_of(H)
    n = len(gram)
    eps = tuple(int(x) for x in eps)
    _, quotient = orthocomplement(gram, eps)
    factors = _radical_factors(u.matrix, eps, quotient)
    if factors is None:
        raise ValueError("u is not in the unipotent radical")
    identity = int_matrix(linalg.identity(n))
    for r in reflections:
        if _parallel_factor(linalg.mat_vec(r.matrix, eps), eps) is None:
            raise ValueError("every reflection must fix the line through eps")
        if int_matrix(linalg.mat_mul(r.matrix, r.matrix)) != identity:
            raise ValueError("every reflection must be an involution")

    echelon: list[tuple[int, list[int]]] = []
    rank = int(_echelon_insert(echelon, factors))
    if rank >= n - 2:
        return rank
    # each product travels with its inverse: (prev r)^-1 = r prev^-1,
    # since every reflection is its own inverse
    layer = [(identity, identity)]
    seen = {identity}
    spent = 0
    for _ in range(3):
        grown = []
        progressed = False
        for prev, prev_inv in layer:
            for r in reflections:
                m = int_matrix(linalg.mat_mul(prev, r.matrix))
                if m in seen:
                    continue
                seen.add(m)
                m_inv = int_matrix(linalg.mat_mul(r.matrix, prev_inv))
                grown.append((m, m_inv))
                # m fixes the line, so the conjugate stays in the radical
                conj = linalg.mat_mul(m, linalg.mat_mul(u.matrix, m_inv))
                if _echelon_insert(echelon,
                                   _radical_factors(conj, eps, quotient)):
                    rank += 1
                    progressed = True
                    if rank >= n - 2:
                        return rank
                spent += 1
                if spent >= SPAN_BUDGET:
                    return rank
        if not progressed and rank > 0:
            break
        layer = grown
    return rank


def _echelon_insert(echelon: list[tuple[int, list[int]]],
                    vec: Sequence[int]) -> bool:
    """Reduce the int vector vec against the echelon rows (pivot column,
    primitive int row) without fractions; if something is left, append
    it and return True, so the rank of the rows seen so far grows by
    one."""
    rest = list(vec)
    for col, row in echelon:
        f = rest[col]
        if f:
            pv = row[col]
            rest = [pv * a - f * b for a, b in zip(rest, row)]
    if not any(rest):
        return False
    g = math.gcd(*rest)
    echelon.append((next(i for i, x in enumerate(rest) if x),
                    [x // g for x in rest]))
    return True


def arithmeticity_report(ctx: WitnessContext, sig: tuple[int, int],
                         cert: RankCertificate, search_bound: int,
                         word_bound: int) -> WitnessReport:
    """The unipotent witness hunt for an orthogonal pair whose form has
    signature sig and Q-rank certificate cert.

    witnessed-arithmetic requires all of: real rank >= 2, a verified
    nontrivial unipotent fixing an isotropic line, and reflection
    conjugates of it spanning the full n-2 dimensional translation group.
    Anything less is reported as inconclusive, with whatever partial
    evidence was found embedded in the report.
    """
    p, q = sig
    n = ctx.n
    epsilon = None
    unipotent = None
    translation_rank = None
    if min(p, q) >= 1 and n >= 3:
        try:
            candidates = isotropic_search(ctx.space, search_bound)
        except SearchBudgetError:
            candidates = list(cert.isotropic_witnesses)
        best = -1
        for eps in candidates:
            u = unipotent_from_reflections(ctx, eps, word_bound)
            if u is None:
                continue
            refl = [reflection_matrix(ctx.gram, w)
                    for w in integral_reflection_vectors(ctx, eps,
                                                         search_bound)]
            rank = span_rank_witness(u, refl, eps, ctx.gram)
            if rank > best:
                best, epsilon, unipotent, translation_rank = \
                    rank, tuple(eps), u, rank
            if rank == n - 2:
                break
    witnessed = (min(p, q) >= 2 and unipotent is not None
                 and translation_rank == n - 2)
    return WitnessReport(
        epsilon=epsilon, unipotent=unipotent,
        translation_rank=translation_rank,
        conclusion=WITNESSED if witnessed else INCONCLUSIVE,
        caveats=CAVEATS)
