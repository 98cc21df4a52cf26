"""Reflection calculus and the assembled arithmeticity certificate.

Everything here acts in the cyclic basis v, Av, ..., A^{n-1}v, where the
first companion matrix keeps its shape, v is the first basis vector, and
the Gram matrix is the integer Toeplitz form.  A witness consists of an
isotropic vector eps, a nontrivial unipotent element fixing eps built
from two reflections, and elements of the group in the unipotent radical
at eps whose translations span the full translation group of the
parabolic fixing the line through eps.

Each group element is an element of the monodromy group <A, C>: it
carries both its matrix and the word over {A, A^-1, C} that produced
it, and the two are cross-checked at construction, so every certificate
is replayable.  Every token acts through one table, the rows of its
checked generator that are not rows of the identity, by their nonzero
entries (every row of A and A^-1, at most two entries each, and row 0
alone of C).  word_orbit applies tokens to the images g(v), recomputing
those entries of a vector in O(n); element left-multiplies the rows of
its running product by each token, last first, where a unit row of the
token moves a row with no arithmetic and any other row is one
combination, led by its entry of value 1 where it has one.  The hunt
takes no dense product: the isometry check pairs the columns of m with
those of G m, one pass over one triangle of the symmetric Gram.  It
reflects only about images g(v), by g C g^-1, so every element it
counts is a word.

arithmeticity_report runs the witness hunt alone: the caller builds the
pair once, and the WitnessContext that the hunt's functions take builds
and certifies its form once; the signature is read off the form's kept
diagonal.
reflection_matrix and orthocomplement take Gram rows.

The hunt runs on ints over the integral cyclic Gram, with no elimination:
a basis of the lattice eps-perp is one lattice cut of Z^n by G eps, and
a translation is ranked by its vector m y modulo eps.

Each context walks one orbit of v, as deep as the largest word bound
asked; a word bound limits what is read of it, by the rule word_orbit
states.  The orbit maps each image g(v) to its word, and each
sign-canonical isotropic difference +-(g(v) -+ v) to the first image that
gives it, with its word, so the candidates eps are a filter over those
keys, the unipotent for an eps is one lookup, and the pairs at eps are two
lookups per image.  The hunt walks the images orthogonal to each
candidate once: its pairs read them, and its axes are the images read.
The context keeps nothing per eps.  Every public function that takes eps
validates it through orthocomplement; the hunt's candidates are orbit
keys, primitive and isotropic by construction.
SEARCH_CAP bounds the candidates' box.
"""
from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import NamedTuple, Sequence

from . import linalg
from .monodromy import HyperPair, PairValidationError, int_matrix
from .quadform import (SEARCH_CAP, OracleMismatchError, invariant_space,
                       signature)

WITNESSED = "witnessed-arithmetic"
INCONCLUSIVE = "inconclusive"
OUT_OF_SCOPE = "out-of-scope(symplectic)"

_TOKEN_INVERSE = {"A": "A^-1", "A^-1": "A"}

# input limit on the word bound: the orbit of v about doubles per step,
# and at 16 one orbit of a worked quintic pair holds ~126,000 images
MAX_WORD_BOUND = 16


class GroupElement(NamedTuple):
    word: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    @property
    def is_identity(self) -> bool:
        return linalg.mat_eq(self.matrix, linalg.identity(len(self.matrix)))


class WitnessReport(NamedTuple):
    epsilon: tuple[int, ...] | None
    unipotent: GroupElement | None
    translation_rank: int | None
    conclusion: str
    caveats: tuple[str, ...]


CAVEATS = (
    "Zariski density of the group is assumed via the Beukers-Heckman "
    "criterion for hypergeometric monodromy; it is not re-verified here.",
    "for a witnessed pair, arithmeticity additionally invokes a cited "
    "finite-index theorem for higher-rank lattices, not re-proved here.",
)


def _inverse_word(word: Sequence[str]) -> tuple[str, ...]:
    # C is an involution; A inverts by name
    return tuple(_TOKEN_INVERSE.get(t, t) for t in reversed(word))


def _check_isometry(gram, m, label: str) -> None:
    """Raise PairValidationError unless m^T G m = G, and ValueError
    unless m is n x n.  Entry (i, j) of m^T G m is column i of m paired
    with column j of G m; each column of G m is formed once, and the
    first entry that differs from G's stops the check.  When G is
    symmetric, so is m^T G m, and only its entries i <= j are compared;
    otherwise every entry is."""
    n = len(gram)
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"{label}: an isometry check takes an {n} x {n} "
                         f"matrix")
    symmetric = list(zip(*gram)) == list(map(tuple, gram))
    cols = list(zip(*m))
    for j, col in enumerate(cols):
        g_col = [sum(map(operator.mul, row, col)) for row in gram]
        if any(sum(map(operator.mul, c, g_col)) != row[j]
               for c, row in itertools.islice(zip(cols, gram),
                                              j + 1 if symmetric else n)):
            raise PairValidationError(f"{label} does not preserve the form")


class WitnessContext:
    """Cyclic-basis generators and form for one validated pair, with one
    orbit of v under short words for the witness search, walked as deep
    as the largest word bound asked.

    Construction builds the pair's form through invariant_space, whose
    invariance check against A and C certifies it, and keeps it as
    ctx.space; no other form can be handed in.  The matrix of C is built
    and checked on first use, so a pair whose hunt never runs (a definite
    form, or a search box over the cap) never builds it."""

    def __init__(self, pair: HyperPair):
        self.pair = pair
        self.n = pair.n
        self.space = invariant_space(pair)
        self.gram = self.space.gram
        # multiplication by x has the same matrix in the cyclic basis
        self.A = pair.A
        self.A_inv = pair.A_inv
        self.v = tuple(int(i == 0) for i in range(self.n))
        # the one orbit of v: word_orbit's (images, keys), every
        # (word, image) in orbit order from ((), v), and len(_entries) at
        # the end of each BFS level, level 0 being v
        self._images: dict = {}
        self._keys: dict = {}
        self._entries: list = [((), self.v)]
        self._ends: list[int] = [1]

    @cached_property
    def generators(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """The matrices of the tokens A, A^-1 and C, each checked to
        preserve the form; B is the word A C."""
        # reflection_matrix checks C, and invariant_space A
        _check_isometry(self.gram, self.A_inv, "A^-1")
        return {"A": self.A, "A^-1": self.A_inv,
                "C": reflection_matrix(self.gram, self.v)}

    @cached_property
    def _token_rows(self) -> dict[str, list[tuple[int, list]]]:
        """For each token, the rows of its matrix that are not rows of
        the identity, as (row index, nonzero (column, value) entries),
        read off the checked generators: every row of the companion
        matrix A and of A^-1, at most two entries each, and row 0 alone
        of C, the reflection about v: C y = y - (y . v) e_0.  An entry
        of value 1, where a row has one, comes first."""
        return {token: [(i, sorted(((j, a) for j, a in enumerate(row) if a),
                                   key=lambda entry: entry[1] != 1))
                        for i, row in enumerate(matrix)
                        if any(a != (i == j) for j, a in enumerate(row))]
                for token, matrix in self.generators.items()}

    def element(self, word: Sequence[str]) -> GroupElement:
        """The element of a word over {A, A^-1, C}, its matrix the product
        T1 (T2 (... (Tk I))) of the token matrices in word order: the
        tokens are applied last first to the rows of the running
        product by _times_rows, O(n) per changed row; any other token
        raises ValueError.  The product is checked to preserve the
        form."""
        table = self._token_rows
        steps = []
        for token in word:
            if token not in table:
                raise ValueError(f"unknown word token {token!r}")
            steps.append(table[token])
        m = linalg.identity(self.n)
        for rows in reversed(steps):
            m = _times_rows(rows, m)
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
        """Breadth-first orbit of v under words in {A, A^-1, C} of length
        1 to word_bound, walked on the images g(v) themselves.

        The word t1...tk sends v to T1(T2(...Tk(v))), so prepending a
        token to a word is one application of its _token_rows to the
        image.  A token is not applied to an image whose word starts with
        its inverse (A after A^-1, A^-1 after A, C after C): that product
        is the grandparent image, already recorded.  Level k+1 takes each
        new image from the least (token, parent) pair that reaches it,
        tokens ordered A, A^-1, C and parents in level-k order; every
        image thus carries its shortest-lexicographic word, and images
        are recorded in the order of those words.  v itself is never
        recorded.

        Returns the context's one (images, keys), not copies, walked to at
        least word_bound levels.  images maps each g(v) to its word.
        g(v).g(v) = v.v = 2, so (g(v) -+ v)^2 = 4 -+ 2 g(v).v vanishes
        iff g(v).v = +-2; keys maps the sign-canonical form of each such
        nonzero isotropic difference to (word, g(v)) of the first image
        that gives it.  v is the first unit vector, so the difference is
        g(v) with entry 0 moved by 1.

        The read rule: as each image keeps its shortest word and each key
        its first image, an image or key is in the orbit of word bound b
        iff its word has at most b tokens; the entries that pass, in
        order, are those of a fresh walk to b, whatever bounds were asked
        before.
        """
        if word_bound < 1:
            raise ValueError(f"word bound must be at least 1, got {word_bound}")
        if word_bound > MAX_WORD_BOUND:
            raise ValueError(f"word bound must be at most MAX_WORD_BOUND = "
                             f"{MAX_WORD_BOUND}, got {word_bound}")
        while len(self._ends) <= word_bound:
            self._grow()
        return self._images, self._keys

    def _grow(self) -> None:
        """Walk the next BFS level of word_orbit from the last one,
        _entries[_ends[-2]:] (all of _entries at level 0, v)."""
        v, images, keys, entries = (self.v, self._images, self._keys,
                                    self._entries)
        g_v = [row[0] for row in self.gram]  # G v, the Gram's column 0
        start = self._ends[-2] if len(self._ends) > 1 else 0
        end = len(entries)
        # token-major, so the first pair to reach an image is the least
        for token, rows in self._token_rows.items():
            back = _TOKEN_INVERSE.get(token, token)
            for parent, y in itertools.islice(entries, start, end):
                if parent and parent[0] == back:
                    continue
                x = _apply(rows, y)
                if x == v or x in images:
                    continue
                word = (token,) + parent
                images[x] = word
                entries.append((word, x))
                pairing = sum(map(operator.mul, x, g_v))
                if pairing in (2, -2):
                    # g(v) - v at pairing 2, g(v) + v at -2
                    key = linalg.sign_canonical(
                        (x[0] - pairing // 2,) + x[1:])
                    if any(key):  # g(v) = -v has no difference
                        keys.setdefault(key, (word, x))
        self._ends.append(len(entries))


def _apply(rows: Sequence[tuple[int, Sequence[tuple[int, int]]]],
           y: Sequence[int]) -> tuple[int, ...]:
    """T y from T's rows in WitnessContext._token_rows: y with each row
    where T differs from the identity recomputed, O(n) for A, A^-1 and
    C."""
    image = list(y)
    for i, row in rows:
        acc = 0
        for j, a in row:
            acc += a * y[j]
        image[i] = acc
    return tuple(image)


def _times_rows(rows: Sequence[tuple[int, Sequence[tuple[int, int]]]],
                m: list) -> list:
    """The rows of T m from T's rows in WitnessContext._token_rows and
    the rows of m, which are shared, not copied: a row where T is the
    identity is kept, a unit row e_j of T is row j of m, moved, and any
    other row is one combination of m's rows led by its first entry,
    the one of value 1 where it has one."""
    out = list(m)
    for i, row in rows:
        entries = iter(row)
        j, a = next(entries)
        acc = m[j] if a == 1 else [a * x for x in m[j]]
        for j, a in entries:
            if a == 1:
                acc = list(map(operator.add, acc, m[j]))
            elif a == -1:
                acc = list(map(operator.sub, acc, m[j]))
            else:
                acc = [x + a * y for x, y in zip(acc, m[j])]
        out[i] = acc
    return out


def _reflection_axis(gram: Sequence[Sequence], w: Sequence[int]
                     ) -> tuple[list[int], list[int]]:
    """(h, w / d) with 2 G w / (w . w) = h / d in lowest terms, so the
    reflection about w is x -> x - (h . x) (w / d).  Raises ValueError for
    a w of the wrong dimension, an isotropic w and a reflection that is
    not integral: as gcd(d, h) = 1, d divides every h_j w_i iff it divides
    every w_i."""
    if len(w) != len(gram):
        raise ValueError(f"reflection axis {w} has the wrong dimension")
    gw = linalg.mat_vec(gram, w)
    ww = sum(map(operator.mul, w, gw))
    if ww == 0:
        raise ValueError("cannot reflect about an isotropic vector")
    g = math.gcd(ww, *(2 * x for x in gw))
    d = ww // g
    if any(x % d for x in w):
        raise ValueError(f"reflection about {tuple(w)} is not integral")
    return [2 * x // g for x in gw], [x // d for x in w]


def _times_reflection(rows, h: Sequence[int], w_d: Sequence[int]) -> list:
    """The rows of m R from the rows of m, R = I - (w / d) h^T the
    reflection of _reflection_axis: each row r becomes r - (r . w / d) h,
    in O(n)."""
    out = []
    for r in rows:
        shift = sum(map(operator.mul, r, w_d))
        out.append([x - shift * y for x, y in zip(r, h)] if shift else r)
    return out


def reflection_matrix(gram: Sequence[Sequence], w: Sequence[int]
                      ) -> tuple[tuple[int, ...], ...]:
    """The int matrix of the reflection x -> x - (2 (x.w) / (w.w)) w
    about w, which must be integral: I - (w / d) h^T of _reflection_axis,
    checked to preserve the form.  For an image g(v) of v under a word g
    it is the group element g C g^-1, as A^k C A^-k for A^k v."""
    h, w_d = _reflection_axis(gram, w)
    matrix = tuple(tuple(int(i == j) - c * x for j, x in enumerate(h))
                   for i, c in enumerate(w_d))
    _check_isometry(gram, matrix, f"reflection about {tuple(w)}")
    return matrix


def orthocomplement(gram: Sequence[Sequence], eps: Sequence[int]
                    ) -> list[tuple[int, ...]]:
    """eps, validated, followed by a Z-basis of the lattice eps-perp =
    {x in Z^n : x . G eps = 0}: the n-1 rows of
    linalg.lattice_cut(I, G eps / content), one sequence of extended-gcd
    steps.  eps lies in that lattice, so the list is linearly dependent;
    every use reads only the pairings with the basis vectors, whose
    kernel on eps-perp is the line through eps for any basis.
    Deterministic.
    """
    n = len(gram)
    eps = linalg.int_vector(eps)
    if len(eps) != n:
        raise ValueError(f"eps {eps} has the wrong dimension")
    if all(x == 0 for x in eps):
        raise ValueError("eps must be nonzero")
    if linalg.vec_dot(eps, gram, eps) != 0:
        raise ValueError("eps must be isotropic")
    if math.gcd(*eps) != 1:
        raise ValueError("eps must be primitive")
    row = linalg.primitive_integer(linalg.mat_vec(gram, eps))
    cut = linalg.lattice_cut(linalg.identity(n), row)
    return [eps] + [tuple(w) for w in cut]


def _parallel_factor(d: Sequence[int], eps: Sequence[int]) -> int | None:
    """The integer lambda with d = lambda * eps, or None if there is none.
    For an integral d and a primitive eps, None means d is not parallel."""
    idx = next(i for i, x in enumerate(eps) if x != 0)
    lam = d[idx] // eps[idx]
    if all(a == lam * b for a, b in zip(d, eps)):
        return lam
    return None


def _radical_factors(matrix, perp: Sequence[tuple[int, ...]]
                     ) -> list[int] | None:
    """For perp = orthocomplement(), eps then a basis of eps-perp, the
    integers lambda_w with g(w) = w + lambda_w eps, one per basis vector
    w, or None when g is not in the unipotent radical of the parabolic
    fixing the line through eps (it moves eps, or moves some w off
    w + line).  lambda_w is an integer because eps is primitive."""
    eps = perp[0]
    if list(linalg.mat_vec(matrix, eps)) != list(eps):
        return None
    factors = []
    for w in perp[1:]:
        lam = _parallel_factor(
            [a - b for a, b in zip(linalg.mat_vec(matrix, w), w)], eps)
        if lam is None:
            return None
        factors.append(lam)
    return factors


def in_unipotent_radical(g: GroupElement, eps: Sequence[int],
                         ctx: WitnessContext) -> bool:
    """Whether g lies in the unipotent radical of the parabolic fixing
    the isotropic line through eps: g fixes eps and acts trivially on
    eps-perp/line.  eps is validated by orthocomplement.

    On the base pair, u = C_{A^2 v} C_v moves v to v - 2 eps for
    eps = v - A^2 v, and A moves the line through eps:

    >>> from orthomono.monodromy import build_pair
    >>> from orthomono.parsing import parse_poly
    >>> ctx = WitnessContext(build_pair(parse_poly("x^5-1"),
    ...                                 parse_poly("(x+1)*(x^2+1)^2")))
    >>> u = ctx.element(("A", "A", "C", "A^-1", "A^-1", "C"))
    >>> in_unipotent_radical(u, (1, 0, -1, 0, 0), ctx)
    True
    >>> in_unipotent_radical(ctx.element(("A",)), (1, 0, -1, 0, 0), ctx)
    False
    """
    return _radical_factors(g.matrix, orthocomplement(ctx.gram, eps)) \
        is not None


def unipotent_from_reflections(ctx: WitnessContext, eps: Sequence[int],
                               word_bound: int) -> GroupElement | None:
    """u = C_x C_v, the word g C g^-1 C verified against the product of
    the two reflections, for the one entry (g, x = g(v)) that word_orbit
    keeps at eps's sign-canonical form, if g has at most word_bound
    tokens.  eps is validated by orthocomplement.

    As x . v = +-2 and eps = +-(x -+ v), u fixes eps and moves each y in
    eps-perp by +-(y . v) eps, so it lies in the unipotent radical at eps,
    and it is not the identity, as v is no multiple of the isotropic eps.
    Both are checked, the first by _radical_factors on the one basis of
    eps-perp built here, as is the word against the product of the two
    reflections: a failure raises OracleMismatchError.  None when the
    bounded orbit does not reach eps, a report outcome, not an error.
    """
    perp = orthocomplement(ctx.gram, eps)
    eps = perp[0]
    entry = ctx.word_orbit(word_bound)[1].get(linalg.sign_canonical(eps))
    if entry is None or len(entry[0]) > word_bound:
        return None
    word, x = entry
    # C applied to the rows of C_x
    product = _times_reflection(reflection_matrix(ctx.gram, x),
                                *_reflection_axis(ctx.gram, ctx.v))
    try:
        u = ctx.verified(_reflection_word(word) + ("C",), product)
    except ValueError as exc:
        raise OracleMismatchError(f"C_x C_v for x = {x}: {exc}") from exc
    if u.is_identity or _radical_factors(u.matrix, perp) is None:
        raise OracleMismatchError(f"C_x C_v for x = {x} is not a nontrivial "
                                  f"element of the unipotent radical")
    return u


def _orbit_perp(ctx: WitnessContext, eps: Sequence[int], word_bound: int):
    """The orbit images orthogonal to eps, lazily, each as (word, image):
    the context's orbit entries, v first, through BFS level word_bound,
    in orbit order.  eps is taken as given: each caller passes one that
    orthocomplement validated or an orbit_candidates key."""
    g_eps = linalg.mat_vec(ctx.gram, eps)
    ctx.word_orbit(word_bound)  # walks levels up to word_bound
    for word, y in itertools.islice(ctx._entries, ctx._ends[word_bound]):
        if not sum(map(operator.mul, y, g_eps)):
            yield word, y


def integral_reflection_vectors(ctx: WitnessContext, eps: Sequence[int],
                                word_bound: int
                                ) -> list[tuple[tuple[str, ...],
                                                tuple[int, ...]]]:
    """The span axes at eps, every image of _orbit_perp: g(v) has norm 2,
    so its reflection x -> x - (x . g(v)) g(v), the element g C g^-1,
    is integral and fixes eps.  eps is validated by orthocomplement.  The
    hunt lists the same axes as its pairs read them (_gamma_pairs)."""
    return list(_orbit_perp(ctx, orthocomplement(ctx.gram, eps)[0],
                            word_bound))


def _gamma_pairs(ctx: WitnessContext, eps: Sequence[int], word_bound: int,
                 seen: list):
    """Y(eps) as pairs (x axis, y axis), lazily: each image y of
    _orbit_perp with y + eps, or else y - eps, an orbit image x within
    the word bound.  As x . y = 2, C_x C_y moves each z in eps-perp to
    z + (z . y)(x - y): it lies in the unipotent radical at eps, with
    translation z -> +-(z . y).  eps is an orbit_candidates key.
    Every image read is appended to seen, so once the pairs run out,
    seen is integral_reflection_vectors at eps and the bound."""
    orbit = ctx.word_orbit(word_bound)[0]
    for word, y in _orbit_perp(ctx, eps, word_bound):
        seen.append((word, y))
        for x in (tuple(map(operator.add, y, eps)),
                  tuple(map(operator.sub, y, eps))):
            x_word = () if x == ctx.v else orbit.get(x)
            if x_word is not None and len(x_word) <= word_bound:
                yield (x_word, x), (word, y)
                break


def _closure(pairs, axes, eps: tuple[int, ...], ctx: WitnessContext
             ) -> list[tuple[tuple, tuple[int, ...], tuple[int, ...]]]:
    """The rank-raising vectors m y of the translation closure, each as
    (pair, path of axis indices of m, outermost first, m y), stopping at
    n - 2; the pairs are read lazily, and the axes only once the pairs
    have run out, so a list the pairs fill as they are read can be the
    axes.  m C_x C_y m^-1 moves z in eps-perp by +-(z . m y) eps, so the
    rank is that of the m y modulo eps.  Layer k reflects the vectors
    that raised the rank in layer k - 1 about each axis, which by
    linearity spans every m of at most three reflections; so the pairs
    that raise the rank in layer 0 give the same steps alone.  Every
    vector y reflected lies in the span, so once one nonzero shift s has
    given x = y - s z, in the span too, the axis z is in the span and no
    later reflection about it can raise the rank: it is not tried again,
    and layers 1 to 3 insert at most one vector per axis."""
    echelon: list[tuple[int, list[int]]] = []
    _echelon_insert(echelon, eps)
    raising = []
    for pair in pairs:
        y = pair[1][1]
        if _echelon_insert(echelon, y):
            raising.append((pair, (), y))
            if len(raising) == ctx.n - 2:
                return raising
    added = list(raising)
    open_axes = [(k, z) for k, (_, z) in enumerate(axes)]
    for _ in range(3):
        grown = []
        for pair, path, y in added:
            g_y = linalg.mat_vec(ctx.gram, y)
            still_open = []
            for k, z in open_axes:
                shift = sum(map(operator.mul, g_y, z))
                if not shift:
                    still_open.append((k, z))
                    continue
                x = tuple(a - shift * b for a, b in zip(y, z))
                if _echelon_insert(echelon, x):
                    grown.append((pair, (k,) + path, x))
                    raising.append(grown[-1])
                    if len(raising) == ctx.n - 2:
                        return raising
            open_axes = still_open
        added = grown
    return raising


def _reflection_word(word: Sequence[str]) -> tuple[str, ...]:
    """g C g^-1, the word of the reflection about the image g(v)."""
    return tuple(word) + ("C",) + _inverse_word(word)


def _reduced(word: Sequence[str]) -> tuple[str, ...]:
    """The word with every adjacent pair of inverse tokens (A A^-1, A^-1 A
    and C C) cancelled: the same element, in fewer tokens to replay."""
    out: list[str] = []
    for token in word:
        if out and out[-1] == _TOKEN_INVERSE.get(token, token):
            out.pop()
        else:
            out.append(token)
    return tuple(out)


def _replay(ctx: WitnessContext, perp: Sequence[tuple[int, ...]],
            word: tuple[str, ...], lam: list[int]) -> None:
    """Raise OracleMismatchError unless the element of word, evaluated by
    ctx.element, lies in the unipotent radical at eps = perp[0] and moves
    each basis vector w of eps-perp by lam_w eps."""
    factors = _radical_factors(ctx.element(word).matrix, perp)
    if factors != lam:
        raise OracleMismatchError(
            f"replayed word of {len(word)} tokens moves eps-perp by "
            f"{factors}, not by the claimed {lam}")


def span_rank_witness(pairs, axes, eps: Sequence[int],
                      ctx: WitnessContext) -> int:
    """Rank over Q of the translations of the elements C_x C_y, one per
    pair, and of their conjugates by products (length <= 3) of the
    reflections about the axes: the rank of _closure, at most n - 2.

    An axis is (word, image), an image g(v) with its word g, whose
    reflection is g C g^-1, and a pair is (x axis, y axis) with
    x - y = +-eps, as integral_reflection_vectors and _gamma_pairs give
    them.  An axis of the wrong dimension, not of norm 2 or not
    orthogonal to eps raises ValueError up front, and so does a
    rank-raising pair that does not differ by +-eps.  Each rank-raising
    element, m C_x C_y m^-1 with m the product of the reflections on its
    path, is replayed from its word by ctx.element, and its translation
    must be the one read off m y, or OracleMismatchError: so an image
    whose word does not give it fails there, and every element the rank
    counts is a checked word over {A, A^-1, C}.  eps is validated by
    orthocomplement, whose basis of eps-perp the replays read."""
    perp = orthocomplement(ctx.gram, eps)
    eps = perp[0]
    g_eps = linalg.mat_vec(ctx.gram, eps)
    for _, z in axes:
        if linalg.vec_dot(z, ctx.gram, z) != 2:
            raise ValueError(f"reflection axis {z} does not have norm 2")
        if sum(map(operator.mul, z, g_eps)):
            raise ValueError(f"reflection axis {z} is not orthogonal to eps")
    g_perp = [linalg.mat_vec(ctx.gram, w) for w in perp[1:]]
    raising = _closure(pairs, axes, eps, ctx)
    for pair, path, vec in raising:
        (x_word, x), (y_word, y) = pair
        sign = _parallel_factor([a - b for a, b in zip(x, y)], eps)
        if sign not in (1, -1):
            raise ValueError(f"pair {tuple(x)}, {tuple(y)} does not "
                             f"differ by +-eps")
        m = sum((_reflection_word(axes[k][0]) for k in path), ())
        _replay(ctx, perp, _reduced(m + _reflection_word(x_word)
                                    + _reflection_word(y_word)
                                    + _inverse_word(m)),
                [sign * a for a in linalg.mat_vec(g_perp, vec)])
    return len(raising)


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


def orbit_candidates(ctx: WitnessContext, search_bound: int,
                     word_bound: int) -> list[tuple[int, ...]]:
    """The hits of isotropic_search(ctx.gram, search_bound) that can
    yield a unipotent, found without walking the box: the keys of
    word_orbit within word_bound, the sign-canonical isotropic
    differences +-(g(v) -+ v), that are primitive and inside
    [-search_bound, search_bound]^n, in lexicographic order."""
    keys = ctx.word_orbit(word_bound)[1]
    return sorted(key for key, (word, _) in keys.items()
                  if len(word) <= word_bound
                  and max(map(abs, key)) <= search_bound
                  and math.gcd(*key) == 1)


def _hunt(ctx: WitnessContext, search_bound: int, word_bound: int):
    """(rank, eps, pairs, axes) of the first candidate of greatest rank,
    stopping at n - 2, or None: the pairs that raised its rank in layer
    0, and its axes, empty when those pairs reach n - 2.  Each candidate
    takes one walk of the images orthogonal to it and one _closure: the
    pairs fill the axes list as they read, and _closure reads the axes
    only once the pairs run out, so a candidate whose pairs reach n - 2
    reads only as far as they need."""
    best = None
    for eps in orbit_candidates(ctx, search_bound, word_bound):
        axes = []
        raising = _closure(_gamma_pairs(ctx, eps, word_bound, axes), axes,
                           eps, ctx)
        if best is None or len(raising) > best[0]:
            layer_0 = [pair for pair, path, _ in raising if not path]
            best = (len(raising), eps, layer_0,
                    [] if len(layer_0) == ctx.n - 2 else axes)
            if best[0] == ctx.n - 2:
                break
    return best


def arithmeticity_report(ctx: WitnessContext, search_bound: int,
                         word_bound: int) -> WitnessReport:
    """The unipotent witness hunt for an orthogonal pair whose form is
    ctx.space.

    witnessed-arithmetic requires all of: real rank >= 2, a verified
    nontrivial unipotent fixing an isotropic line, and elements of
    <A, C> in its unipotent radical whose translations span the full
    n-2 dimensional translation group.  Anything less is reported as
    inconclusive, with whatever partial evidence was found embedded in
    the report.  No hunt runs when the search box is over SEARCH_CAP;
    every candidate gives a unipotent, built for the reported one.  When
    no candidate reaches rank n - 2, the hunt runs once more at word
    bound + 2, within MAX_WORD_BOUND.  span_rank_witness replays every
    element that raised the reported rank.
    """
    p, q = signature(ctx.space)
    n = ctx.n
    best = None
    if min(p, q) >= 1 and n >= 3 \
            and (2 * search_bound + 1) ** n <= SEARCH_CAP:
        for bound in range(word_bound,
                           min(word_bound + 2, MAX_WORD_BOUND) + 1, 2):
            best = _hunt(ctx, search_bound, bound)
            if best is not None and best[0] == n - 2:
                break
    epsilon = unipotent = translation_rank = None
    if best is not None:
        _, epsilon, pairs, axes = best
        unipotent = unipotent_from_reflections(ctx, epsilon, bound)
        translation_rank = span_rank_witness(pairs, axes, epsilon, ctx)
    witnessed = (min(p, q) >= 2 and unipotent is not None
                 and translation_rank == n - 2)
    return WitnessReport(
        epsilon=epsilon, unipotent=unipotent,
        translation_rank=translation_rank,
        conclusion=WITNESSED if witnessed else INCONCLUSIVE,
        caveats=CAVEATS)
