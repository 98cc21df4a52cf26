"""Invariant quadratic form, signatures, and Q-rank certificates.

The form is computed once, from remainder coefficients, and certified by
an invariance check against the generators A and C; nothing is solved
for it.  A form that fails the check is an internal-inconsistency error,
never silently resolved.  All arithmetic is exact; there are no
tolerances anywhere in this module.
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from . import linalg
from .monodromy import HyperPair, PairValidationError
from .polynomials import (IntPoly, _divrem_coeffs, _frozen, _over_x_mod,
                          _times_x_mod, cyclo_factor, render,
                          root_arguments)

# enumeration ceiling for bounded vector searches (number of tuples)
SEARCH_CAP = 5_000_000

# default coefficient bound of the isotropic vector searches: each Witt
# stage's box and the box of the witness hunt's candidates
DEFAULT_SEARCH_BOUND = 3

# anisotropy certificates: exhaustive mod-p^k checking stays desk-scale
CERT_MAX_DIM = 4
CERT_MAX_EXPONENT = 3
CERT_WORK_CAP = 4_000_000

# an indefinite residual in >= 5 variables stopped by SEARCH_CAP
_CAP_NOTE = ("a rational isotropic vector exists in the residual "
             "(indefinite, >= 5 variables) but the bounded search stopped "
             "at the enumeration cap")

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
           59, 61, 67, 71, 73, 79, 83, 89, 97)


class OracleMismatchError(RuntimeError):
    """Two independent routes disagree, or a computed object fails its
    certificate check."""


class SearchBudgetError(RuntimeError):
    """A bounded search would exceed the enumeration cap."""


class QuadSpace:
    """Immutable; equal, and hash-equal, to a QuadSpace with the same
    Gram.  The cyclic Gram is computed once and certified by
    invariant_space; the dimension and the diagonal are read off it."""
    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "gram", gram)

    # cached_property writes to __dict__ directly, past _frozen
    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object) -> bool:
        if other.__class__ is QuadSpace:
            return self.gram == other.gram
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.gram,))

    def __repr__(self) -> str:
        return f"QuadSpace(gram={self.gram!r})"

    @property
    def dim(self) -> int:
        return len(self.gram)

    @functools.cached_property
    def diagonal(self) -> tuple[Fraction, ...]:
        """congruence_diagonal(gram), taken on first use and kept, so
        invariant_space, signature and the first Witt stage share one
        elimination."""
        return congruence_diagonal(self.gram)


class Obstruction(NamedTuple):
    prime: int
    exponent: int
    statement: str


class RankCertificate(NamedTuple):
    lo: int
    hi: int
    isotropic_witnesses: tuple[tuple[int, ...], ...]
    residual_diagonal: tuple[Fraction, ...]
    obstructions: tuple[Obstruction, ...] = ()
    notes: tuple[str, ...] = ()


def _require_orthogonal(pair: HyperPair) -> None:
    if pair.f(0) * pair.g(0) != -1:
        raise PairValidationError(
            "form machinery requires an orthogonal pair "
            "(constant-term ratio -1); symplectic input is out of scope")


def cyclic_gram_row(f: IntPoly, g: IntPoly, count: int | None = None
                    ) -> tuple[int, ...]:
    """t_k = v . A^k v for k = 0 .. count-1, where t_k is the x^{n-1}
    coefficient of x^{k-1}(g - f) mod f.

    Performs no pair validation beyond what the arithmetic needs
    (f monic with f(0) = -1), so negative-control harnesses can reuse it
    on deliberately broken inputs.
    """
    n = f.degree
    if not f.is_monic or f(0) != -1:
        raise PairValidationError("gram row needs monic f with f(0) = -1")
    if count is None:
        count = n
    fc = f.coeffs
    # w = (g - f) mod f, then r = w / x mod f
    w = _divrem_coeffs((g - f).coeffs, fc)[1]
    r = _over_x_mod(w + [0] * (n - len(w)), fc)
    row = []
    for _ in range(count):
        row.append(r[-1])
        r = _times_x_mod(r, fc)
    return tuple(row)


def _toeplitz(row: Sequence, n: int) -> list[list]:
    return [[row[abs(i - j)] for j in range(n)] for i in range(n)]


def gram_remainder(pair: HyperPair) -> QuadSpace:
    """Cyclic-basis Gram matrix from remainder top-coefficients; Toeplitz
    by A-invariance, entry (0,0) = v.v = 2 by normalization, both
    certified by invariant_space."""
    _require_orthogonal(pair)
    row = cyclic_gram_row(pair.f, pair.g)
    return QuadSpace(gram=tuple(map(tuple, _toeplitz(row, pair.n))))


def gram_invariance(pair: HyperPair, space: QuadSpace
                    ) -> tuple[tuple[Fraction, ...], ...]:
    """The certified cyclic-basis form of invariant_space in the standard
    basis, S^-T G S^-1, as Fraction rows with v.v = 2.  With d the least
    common denominator of the entries of S^-1, X = d S^-1 is an int
    matrix, so the form is X^T G X, formed in ints, over d^2."""
    s_inv = linalg.inverse(pair.S)
    d = math.lcm(*(x.denominator for row in s_inv for x in row))
    x = [[e.numerator * (d // e.denominator) for e in row] for row in s_inv]
    std = linalg.mat_mul(linalg.transpose(x), linalg.mat_mul(space.gram, x))
    return tuple(tuple(Fraction(e, d * d) for e in row) for row in std)


def _require_self_reciprocal(pair: HyperPair) -> None:
    # an invariant form of the irreducible group is nondegenerate, so A is
    # conjugate to A^-T: the roots of f and of g are closed under
    # inversion, i.e. x^n p(1/x) = p(0) p
    for name, p in (("f", pair.f), ("g", pair.g)):
        c0 = p(0)
        if p.coeffs[::-1] != tuple(c0 * c for c in p.coeffs):
            raise PairValidationError(
                f"{name} = {render(p)} is not self-reciprocal, so no "
                "quadratic form is invariant under the pair")


def _unpreserved_generator(pair: HyperPair, gram: Sequence[Sequence]
                           ) -> str | None:
    """"A" or "C", the first generator that fails the invariance check of
    the cyclic-basis Gram, or None when both pass; O(n^2) comparisons.

    In the cyclic basis A is the companion matrix of f: it sends e_j to
    e_{j+1} for j < n-1 and e_{n-1} to c = -(f_0, ..., f_{n-1}).  So
    A^T G A = G reads G[i+1][j+1] = G[i][j] for i, j < n-1, then the last
    column against G c, the last row against c^T G, and the corner c.G.c.
    build_pair checked C = 1 - v e_{n-1}^T, which is 1 - e_0 s^T in the
    cyclic basis, s^T the last row of S, with s_0 = v_{n-1} = 2.  A
    symmetric G is C-invariant iff its row 0 is a multiple of s, and row
    0 = s is the normalization v.v = 2 (v pairs as the x^{n-1}
    coordinate), so the C half checks symmetry and row 0 = s.
    """
    n = pair.n
    c = [-x for x in pair.f.coeffs[:n]]
    gc = [sum(map(operator.mul, row, c)) for row in gram]
    cg = [sum(map(operator.mul, col, c)) for col in zip(*gram)]
    if (any(tuple(gram[i + 1][1:]) != tuple(gram[i][:-1])
            for i in range(n - 1))
            or any(gc[i + 1] != gram[i][n - 1] or cg[i + 1] != gram[n - 1][i]
                   for i in range(n - 1))
            or sum(map(operator.mul, c, gc)) != gram[n - 1][n - 1]):
        return "A"
    if tuple(zip(*gram)) != tuple(map(tuple, gram)) \
            or tuple(gram[0]) != pair.S[n - 1]:
        return "C"
    return None


def invariant_space(pair: HyperPair) -> QuadSpace:
    """The cyclic-basis form of gram_remainder, certified invariant and
    carrying its congruence diagonal.

    f and g coprime make the group irreducible, so an invariant form is
    unique up to scale (Beukers-Heckman, Invent. Math. 95 (1989), sec. 3,
    with Schur's lemma), and one exists only if f and g are
    self-reciprocal.  So the remainder Gram is checked, not solved for a
    second time: a generator that fails _unpreserved_generator is an
    internal-inconsistency error.  The certified form is degenerate iff
    its diagonal has a zero, which is a validation error."""
    _require_orthogonal(pair)
    _require_self_reciprocal(pair)
    cyc = gram_remainder(pair)
    gen = _unpreserved_generator(pair, cyc.gram)
    if gen is not None:
        raise OracleMismatchError(
            f"the remainder-route Gram fails the {gen} invariance check: "
            f"{cyc.gram}")
    if any(d.numerator == 0 for d in cyc.diagonal):
        raise PairValidationError("invariant form is degenerate")
    return cyc


def congruence_diagonal(gram: Sequence[Sequence[int]]
                        ) -> tuple[Fraction, ...]:
    """The diagonal of a congruence diagonalization T^T G T = diag, with
    no T built.

    Pivot rule (deterministic): use the first nonzero diagonal entry,
    swapping it into place; if every remaining diagonal entry is zero but
    some off-diagonal (i,j) is not, apply e_i -> e_i + e_j first.  Zero
    diagonal entries survive only for degenerate inputs.

    The elimination is fraction-free (Bareiss) on the int Gram: before
    step i the trailing block is d_i times the rational one, where d_i
    is the previous pivot (d_0 = 1).  The division by d_i below is exact,
    so diagonal entry i is pivot i / d_i.  The trailing block stays
    symmetric, so a step updates only its upper triangle, and the lower
    one is copied from it before a pivot move, which reads both.
    """
    m = linalg.int_rows(gram)
    n = len(m)
    diag: list[Fraction] = []
    prev = 1

    def mirror(i: int) -> None:
        # the trailing block from row i on, lower triangle from the upper
        for r in range(i, n):
            for c in range(r + 1, n):
                m[c][r] = m[r][c]

    def col_add(dst: int, src: int) -> None:
        # column dst += column src, symmetrically on rows
        for k in range(n):
            m[k][dst] += m[k][src]
        for k in range(n):
            m[dst][k] += m[src][k]

    def col_swap(a: int, b: int) -> None:
        for k in range(n):
            m[k][a], m[k][b] = m[k][b], m[k][a]
        m[a], m[b] = m[b], m[a]

    for i in range(n):
        if m[i][i] == 0:
            mirror(i)
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                col_swap(i, j)
            else:
                off = next(((r, c) for r in range(i, n)
                            for c in range(r + 1, n) if m[r][c] != 0), None)
                if off is None:
                    break  # remaining block is zero; degenerate input
                r, c = off
                col_add(r, c)
                if r != i:
                    col_swap(i, r)
        pivot = m[i][i]
        top = m[i]
        for j in range(i + 1, n):
            f = top[j]
            row = m[j]
            row[j:] = [(pivot * a - f * b) // prev
                       for a, b in zip(row[j:], top[j:])]
        diag.append(Fraction(pivot, prev))
        prev = pivot
    # after a break the trailing block is zero
    diag += [Fraction(0)] * (n - len(diag))
    return tuple(diag)


def signature(space: QuadSpace) -> tuple[int, int]:
    """(p, q) = counts of positive and negative entries of the space's
    kept congruence diagonal, read off their numerators."""
    nums = [d.numerator for d in space.diagonal]
    if 0 in nums:
        raise ValueError("degenerate form has no signature")
    p = sum(1 for x in nums if x > 0)
    return p, len(nums) - p


def signature_interlace(f: IntPoly, g: IntPoly) -> int | None:
    """|p - q| recounted from the unit-circle root arguments of f and g
    (Beukers-Heckman), or None unless both are products of cyclotomics.

    The arguments are compared by interlace_count as ints over the least
    common multiple of the factors' d; coprimality makes the two lists
    disjoint.

    >>> signature_interlace(IntPoly((-1, 0, 0, 0, 0, 1)),   # x^5 - 1
    ...                     IntPoly((1, 1, 2, 2, 1, 1)))    # (x+1)(x^2+1)^2
    1
    """
    fac_f, fac_g = cyclo_factor(f), cyclo_factor(g)
    if not (fac_f.remainder_is_one and fac_g.remainder_is_one):
        return None
    den = math.lcm(*(d for fac in (fac_f, fac_g) for d, _ in fac.factors))
    return interlace_count(root_arguments(fac_f, den),
                           root_arguments(fac_g, den))


def interlace_count(a: Sequence[int], b: Sequence[int]) -> int:
    """|p - q| from the interlacing count of root arguments given as
    ascending ints over one denominator: m_j = #{k : b_k < a_j} and the
    result is |sum (-1)^{j+m_j}| over 1-based j.

    One merge pass reads off every m_j and any value the lists share."""
    if len(a) != len(b):
        raise ValueError("parameter lists must have equal length")
    total = 0
    m = 0
    for j, aj in enumerate(a, start=1):
        while m < len(b) and b[m] < aj:
            m += 1
        if m < len(b) and b[m] == aj:
            raise ValueError("parameter lists must be disjoint")
        total += -1 if (j + m) % 2 else 1
    return abs(total)


def _canonical(c: tuple[int, ...]) -> bool:
    """Primitive with positive first nonzero entry."""
    lead = next((x for x in c if x != 0), None)
    return lead is not None and lead > 0 and math.gcd(*c) == 1


def _box_solutions(gram: Sequence[Sequence[int]], bound: int
                   ) -> Iterator[tuple[int, ...]]:
    """Canonical tuples c in [-bound, bound]^dim with c.G.c = 0, in
    lexicographic order, lazily; G must be symmetric.

    Depth first over the coordinates, carrying the form's value on the
    prefix and G times the prefix, so a node costs O(dim).  The frame of
    the second-to-last coordinate loops over it inline and solves for the
    last one as an integer quadratic, so no frame is opened per leaf.
    Only prefixes that a canonical tuple can extend are walked: the zero
    prefix and those whose first nonzero entry is positive, so below a
    zero prefix the next coordinate runs over 0..bound.  On dim >= 1 that
    is ((2 bound + 1)^(dim-1) + 1) / 2 quadratic solves."""
    if not gram:
        return
    gram = linalg.int_rows(gram)
    yield from _box_walk(gram, bound, (), 0, [0] * len(gram))


def _quadratic_roots(a: int, b: int, c: int, bound: int) -> list[int]:
    """The integers s in [-bound, bound] with a s^2 + b s + c = 0,
    ascending and without repeats."""
    if a == 0:
        if b == 0:
            return list(range(-bound, bound + 1)) if c == 0 else []
        s, rest = divmod(-c, b)
        return [s] if rest == 0 and -bound <= s <= bound else []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = math.isqrt(disc)
    if r * r != disc:
        return []
    roots = set()
    for num in (-b - r, -b + r):
        s, rest = divmod(num, 2 * a)
        if rest == 0 and -bound <= s <= bound:
            roots.add(s)
    return sorted(roots)


def _box_walk(gram, bound: int, prefix: tuple[int, ...], q: int,
              g_prefix: list) -> Iterator[tuple[int, ...]]:
    # q = prefix.G.prefix and g_prefix = G prefix, prefix zero-padded; the
    # value with coordinate k set to t is q + t (2 (G prefix)_k + G_kk t)
    k = len(prefix)
    last = len(gram) - 1
    if k == last:  # a one-dimensional form
        for s in _quadratic_roots(gram[k][k], 2 * g_prefix[k], q, bound):
            if _canonical(prefix + (s,)):
                yield prefix + (s,)
        return
    lin, diag = 2 * g_prefix[k], gram[k][k]
    # below a negative lead no tuple is canonical
    span = range(-bound if any(prefix) else 0, bound + 1)
    if k == last - 1:
        lin_last, diag_last = 2 * g_prefix[last], gram[last][last]
        cross = 2 * gram[k][last]
        for t in span:
            pre = prefix + (t,)
            for s in _quadratic_roots(diag_last, lin_last + cross * t,
                                      q + t * (lin + diag * t), bound):
                c = pre + (s,)
                if _canonical(c):
                    yield c
        return
    row = gram[k]  # column k, by symmetry
    for t in span:
        yield from _box_walk(gram, bound, prefix + (t,),
                             q + t * (lin + diag * t),
                             [a + t * b for a, b in zip(g_prefix, row)])


def isotropic_search(gram: Sequence[Sequence], bound: int
                     ) -> list[tuple[int, ...]]:
    """All primitive isotropic vectors with coefficients in
    [-bound, bound], deduplicated by sign, lexicographic order."""
    dim = len(gram)
    if (2 * bound + 1) ** dim > SEARCH_CAP:
        raise SearchBudgetError(
            f"bounded search over {(2 * bound + 1) ** dim} tuples exceeds "
            f"the cap {SEARCH_CAP}")
    return list(_box_solutions(gram, bound))


def _restricted_gram(basis: Sequence[Sequence[int]],
                     gram: Sequence[Sequence[int]]) -> list[list[int]]:
    """R = B G B^T, the Gram of the lattice spanned by B's rows."""
    bg = [linalg.mat_vec(gram, row) for row in basis]  # G symmetric
    return [[sum(map(operator.mul, x, y)) for y in basis] for x in bg]


def witt_decompose(space: QuadSpace, bound: int,
                   seeds: Sequence[Sequence[int]] = ()) -> RankCertificate:
    """Greedy hyperbolic-plane splitting.

    Finds an isotropic vector (the next seed, else bounded search in the
    current orthogonal-complement lattice), pairs it with a deterministic
    non-orthogonal partner, restricts to the complement of the plane, and
    repeats.  lo = planes split; the leftover block is diagonalized.
    A stage whose lattice is definite stops without a search or a note,
    since it has no isotropic vector; otherwise a stage whose enumeration
    would exceed SEARCH_CAP stops with a note.  An indefinite stage in
    k > CERT_MAX_DIM variables has a rational isotropic vector (Meyer's
    theorem), so an empty search there doubles the bound, for the later
    stages too, while the box fits; one stopped by the cap notes that
    the vector exists.  A bound below 1 is a ValueError, as the doubling
    would never leave it, and so is a seed of the wrong length, with a
    coordinate that is not an int, or that is not a nonzero isotropic
    vector orthogonal to the seeds before it, and so are two or more
    linearly dependent seeds.  Stage i takes seed i as it is: its partner
    is the first row of the lattice, cut by each unused seed's primitive
    G s, that pairs with it, so the unused seeds stay in the lattice.  On
    a nondegenerate form that row exists, so lo >= len(seeds).

    The current lattice is carried from stage to stage as a basis B
    (rows, in ambient coordinates), starting from B = I.  A split plane
    (w, partner) cuts it once per new row, primitive(G w) and then
    primitive(G partner), by linalg.lattice_cut: O(k n) for k rows, and
    no cut when B row = 0.  The restricted Gram R = B G B^T and its
    congruence diagonal are formed only at a stage that reads them: one
    with no unused seed, which searches R and stops on its diagonal, or
    one whose isotropic vector has no partner, whose diagonal is the
    residual.  At stage 1 they are G and the diagonal the space keeps.
    """
    if bound < 1:
        raise ValueError(f"search bound must be at least 1, got {bound}")
    gram = space.gram
    n = len(gram)
    basis = linalg.identity(n)
    witnesses: list[tuple[int, ...]] = []
    notes: list[str] = []
    checked: list[tuple[int, ...]] = []
    for s in seeds:
        # a wrong length would pair on the shorter prefix, and int() would
        # truncate a coordinate that is not an int
        if len(s) != n:
            raise ValueError(f"seed {tuple(s)} has length {len(s)}, "
                             f"not the dimension {n}")
        s = linalg.int_vector(s)
        checked.append(s)
        if not any(s) or any(linalg.vec_dot(t, gram, s) for t in checked):
            raise ValueError(f"seed {s} is not a nonzero isotropic vector "
                             "orthogonal to the seeds before it")
    if len(checked) >= 2 and linalg.rank(checked) < len(checked):
        raise ValueError("the seeds are linearly dependent")

    def form() -> tuple[Sequence[Sequence[int]], tuple[Fraction, ...]]:
        # this stage's R and its diagonal
        if not witnesses:
            return gram, space.diagonal
        restricted = _restricted_gram(basis, gram)
        return restricted, congruence_diagonal(restricted)

    while True:
        k = len(basis)
        if k == 0:
            residual_diag: tuple[Fraction, ...] = ()
            break
        residual_diag = None
        stage = len(witnesses)
        if stage < len(checked):
            w = checked[stage]
        else:
            restricted, residual_diag = form()
            nums = [d.numerator for d in residual_diag]
            if all(x > 0 for x in nums) or all(x < 0 for x in nums):
                break  # definite: the search could only come back empty
            if (2 * bound + 1) ** k > SEARCH_CAP:
                notes.append(
                    f"stage {stage + 1}: search over "
                    f"{(2 * bound + 1) ** k} tuples exceeds the cap; "
                    "lower bound may not be tight")
                if k > CERT_MAX_DIM:
                    notes.append(_CAP_NOTE)
                break
            # search in lattice coordinates against the restricted Gram;
            # c.(B G B^T).c = x.G.x for x = c B, so the hit is unchanged
            c = next(_box_solutions(restricted, bound), None)
            # indefinite in >= 5 variables: a rational zero exists (Meyer)
            while c is None and k > CERT_MAX_DIM:
                if (4 * bound + 1) ** k > SEARCH_CAP:
                    notes.append(_CAP_NOTE)
                    break
                bound *= 2
                c = next(_box_solutions(restricted, bound), None)
            if c is None:
                break
            x = tuple(sum(c[j] * basis[j][i] for j in range(k))
                      for i in range(n))
            w = linalg.sign_canonical(x)
        # partner: the first row pairing with w of the lattice orthogonal
        # to every unused seed
        candidates = basis
        for s in checked[stage + 1:]:
            candidates = linalg.lattice_cut(
                candidates, linalg.primitive_integer(linalg.mat_vec(gram, s)))
        g_w = linalg.mat_vec(gram, w)  # w . u = (G w) . u, as G = G^T
        partner = next((u for u in candidates
                        if sum(map(operator.mul, g_w, u)) != 0), None)
        if partner is None:
            # w is in the radical of the restricted lattice; cannot split
            notes.append(f"stage {stage + 1}: isotropic vector "
                         "without a pairing partner; stopped")
            if residual_diag is None:
                residual_diag = form()[1]
            break
        witnesses.append(w)
        for g_vec in (g_w, linalg.mat_vec(gram, partner)):
            basis = linalg.lattice_cut(basis,
                                       linalg.primitive_integer(g_vec))

    pr = sum(1 for d in residual_diag if d.numerator > 0)
    qr = sum(1 for d in residual_diag if d.numerator < 0)
    lo = len(witnesses)
    return RankCertificate(lo=lo, hi=lo + min(pr, qr),
                           isotropic_witnesses=tuple(witnesses),
                           residual_diagonal=residual_diag,
                           notes=tuple(notes))


def squarefree_at_cert_primes(d: Fraction) -> int:
    """The integer in the square class of d != 0 that the square of no
    prime in _PRIMES divides: num * den with those squares divided out.

    The square of a larger prime is left in place.  It is a unit square
    mod every p^k of the anisotropy scan, so the scan's counts do not
    see it, and the work stays bounded on entries too large to factor."""
    if d == 0:
        raise ValueError("zero has no square class")
    a = d.numerator * d.denominator
    for p in _PRIMES:
        while a % (p * p) == 0:
            a //= p * p
    return a


def anisotropy_certificate(diagonal: Sequence[int], p: int, k: int) -> bool:
    """True iff sum d_i x_i^2 has no primitive zero mod p^k, verified by
    exhaustive residue counting (one convolution per coordinate, so the
    work is dim * modulus^2, never an enumeration of tuples).  Success
    certifies Q-anisotropy of the diagonal form.

    For dim >= 3 the answer is False without counting when k = 1, or when
    p is odd and divides no d_i: Chevalley-Warning gives a nonzero zero
    mod p, which is primitive mod p itself, and which for a unit diagonal
    and odd p is nonsingular, as 2 d_i x_i is a unit for some i, so
    Hensel's lemma lifts it to a primitive zero mod every p^k (Serre, A
    Course in Arithmetic, ch. I-II).

    The primitive zeros are the zeros mod p^k less the p^dim lifts of
    each zero mod p^(k-2); at k = 2 that modulus is 1, with the one
    zero the convolution counts there.

    Raises SearchBudgetError when the (p, k, dim) instance is over
    CERT_WORK_CAP, before the shortcut is taken; ValueError for more
    than CERT_MAX_DIM entries, p not one of _PRIMES, the primes the scan
    uses, or k outside 1..CERT_MAX_EXPONENT.
    """
    dim = len(diagonal)
    if dim > CERT_MAX_DIM or p not in _PRIMES \
            or not 1 <= k <= CERT_MAX_EXPONENT:
        raise ValueError("certificate instance outside supported limits")
    if any(d == 0 for d in diagonal):
        raise ValueError("diagonal entries must be nonzero")
    q = p ** k

    def residue_counts(coeffs: Sequence[int], modulus: int) -> list[int]:
        # counts[s] = #{x : sum d_i x_i^2 = s (mod modulus)}, built by
        # convolving one coordinate at a time
        counts = [0] * modulus
        counts[0] = 1
        for d in coeffs:
            sq = [0] * modulus
            for r in range(modulus):
                sq[(d * r * r) % modulus] += 1
            new = [0] * modulus
            for t, ct in enumerate(counts):
                if ct:
                    for s, cs in enumerate(sq):
                        if cs:
                            new[(t + s) % modulus] += ct * cs
            counts = new
        return counts

    # mod p^(k-2) is under the cap whenever mod p^k is
    if dim * q * q > CERT_WORK_CAP:
        raise SearchBudgetError(
            f"certificate counting mod {q} exceeds the work cap")
    if dim >= 3 and (k == 1 or p != 2 and all(d % p for d in diagonal)):
        return False
    total = residue_counts(diagonal, q)[0]
    if k >= 2:
        nonprimitive = residue_counts(diagonal, p ** (k - 2))[0] * p ** dim
    else:
        nonprimitive = 1  # only the zero tuple
    primitive = total - nonprimitive
    if primitive < 0:
        raise OracleMismatchError("negative primitive-zero count")
    return primitive == 0


def find_anisotropy_certificate(diagonal: Sequence[Fraction]
                                ) -> tuple[Obstruction | None, list[str]]:
    """Scan (k ascending, then p ascending) for an exhaustive-checking
    anisotropy certificate of the diagonal form, each entry reduced by
    squarefree_at_cert_primes.
    Returns (obstruction, notes); obstruction None means unknown."""
    reduced = [squarefree_at_cert_primes(d) for d in diagonal]
    notes = []
    for k in range(1, CERT_MAX_EXPONENT + 1):
        for p in _PRIMES:
            try:
                if anisotropy_certificate(reduced, p, k):
                    return Obstruction(
                        prime=p, exponent=k,
                        statement=(f"diagonal form {tuple(reduced)} has no "
                                   f"primitive zero mod {p}^{k}")), notes
            except SearchBudgetError:
                notes.append(f"mod {p}^{k} check skipped (work cap)")
    return None, notes


def q_rank(space: QuadSpace, bound: int,
           seeds: Sequence[Sequence[int]] = ()) -> RankCertificate:
    """Q-rank interval [lo, hi] of the form, with witnesses and
    obstructions attached.

    One witt_decompose gives lo and hi, and hi is cross-checked against
    min(p, q) of signature(space).  An open residual in at most
    CERT_MAX_DIM variables is scanned for an anisotropy certificate,
    which tightens hi to lo; a larger one was searched up to the cap.
    A bound or a seed that witt_decompose rejects is a ValueError; valid
    seeds are the first witnesses, in order, on a nondegenerate form.
    """
    p, q = signature(space)
    cert = witt_decompose(space, bound, seeds=seeds)
    _check_certificate(space, cert)
    if cert.hi > min(p, q):
        raise OracleMismatchError("certificate hi exceeds min(p, q)")
    if cert.lo == cert.hi or len(cert.residual_diagonal) > CERT_MAX_DIM:
        return cert
    obstruction, notes = find_anisotropy_certificate(cert.residual_diagonal)
    if obstruction is not None:
        return cert._replace(hi=cert.lo, obstructions=(obstruction,),
                             notes=cert.notes + tuple(notes))
    return cert._replace(
        notes=cert.notes + tuple(notes) + (
            "interval open: residual neither split nor certified "
            "anisotropic within the configured bounds",))


def _check_certificate(space: QuadSpace, cert: RankCertificate) -> None:
    gram = space.gram
    ws = cert.isotropic_witnesses
    for w in ws:
        if len(w) != space.dim:
            raise OracleMismatchError(
                f"witness {w} has length {len(w)}, not the dimension "
                f"{space.dim}")
        if linalg.vec_dot(w, gram, w) != 0:
            raise OracleMismatchError(f"witness {w} is not isotropic")
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if linalg.vec_dot(ws[i], gram, ws[j]) != 0:
                raise OracleMismatchError(
                    f"witnesses {ws[i]}, {ws[j]} are not orthogonal")
    if len(ws) != cert.lo:
        raise OracleMismatchError("witness count differs from lo")
