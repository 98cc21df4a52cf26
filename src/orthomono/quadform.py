"""Invariant quadratic form, signatures, and Q-rank certificates.

The form is computed along two independent routes (remainder coefficients
vs. solving the invariance equations) and cross-checked; disagreement is
an internal-inconsistency error, never silently resolved.  All arithmetic
is exact; there are no tolerances anywhere in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import linalg
from .monodromy import HyperPair, PairValidationError
from .polynomials import IntPoly, divrem

STANDARD = "standard"
CYCLIC = "cyclic"

# enumeration ceiling for bounded vector searches (number of tuples)
SEARCH_CAP = 5_000_000

# anisotropy certificates: exhaustive mod-p^k checking stays desk-scale
CERT_MAX_DIM = 4
CERT_MAX_PRIME = 97
CERT_MAX_EXPONENT = 3
CERT_WORK_CAP = 4_000_000

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
           59, 61, 67, 71, 73, 79, 83, 89, 97)


class OracleMismatchError(RuntimeError):
    """The two independent form constructions disagree."""


class SearchBudgetError(RuntimeError):
    """A bounded search would exceed the enumeration cap."""


@dataclass(frozen=True)
class QuadSpace:
    dim: int
    # int entries for the cyclic Gram, Fraction entries for the standard one
    gram: tuple[tuple[int | Fraction, ...], ...]
    basis_label: str
    # columns of base_change are the cyclic basis vectors v, Av, ... in
    # standard coordinates; None when no second basis is attached
    base_change: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class Obstruction:
    prime: int
    exponent: int
    statement: str


@dataclass(frozen=True)
class RankCertificate:
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
    # 1/x mod f, valid exactly because f(0) = -1
    inv_x = IntPoly(tuple(f.coeffs[1:]))
    x = IntPoly((0, 1))
    r = divrem(inv_x * (g - f), f)[1]
    row = []
    for _ in range(count):
        row.append(r.coeff(n - 1))
        r = divrem(r * x, f)[1]
    return tuple(row)


def _toeplitz(row: Sequence, n: int) -> list[list]:
    return [[row[abs(i - j)] for j in range(n)] for i in range(n)]


def cyclic_basis_matrix(pair: HyperPair) -> tuple[tuple[int, ...], ...]:
    """Columns v, Av, ..., A^{n-1}v in standard coordinates; invertible
    for every valid pair (the A^k v form a basis)."""
    n = pair.n
    cols = [list(pair.v)]
    for _ in range(n - 1):
        cols.append([int(x) for x in linalg.mat_vec(pair.A, cols[-1])])
    s = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    if linalg.det(s) == 0:
        raise PairValidationError("v, Av, ..., A^{n-1}v are dependent")
    return s


def gram_remainder(pair: HyperPair) -> QuadSpace:
    """Cyclic-basis Gram matrix from remainder top-coefficients; Toeplitz
    by A-invariance, entry (0,0) = 2 by normalization."""
    _require_orthogonal(pair)
    row = cyclic_gram_row(pair.f, pair.g)
    if row[0] != 2:
        raise OracleMismatchError(
            f"v.v must be 2 by normalization, computed {row[0]}")
    gram = _toeplitz(row, pair.n)
    return QuadSpace(dim=pair.n,
                     gram=tuple(tuple(r) for r in gram),
                     basis_label=CYCLIC,
                     base_change=cyclic_basis_matrix(pair))


def gram_invariance(pair: HyperPair) -> QuadSpace:
    """Standard-basis Gram matrix solved from the invariance equations
    {A^T H A = H, B^T H B = H, H symmetric}, scaled so v.v = 2.

    Independent of gram_remainder.  Any symmetric solution of
    A^T H A = H is Toeplitz in the standard basis (for i, j <= n-2 the
    (i,j) entry of A^T H A is H[i+1][j+1]), so the solver parametrizes
    H by its first row s_0 .. s_{n-1} and imposes the remaining boundary
    equations coming from the last columns of A and B.
    """
    _require_orthogonal(pair)
    n = pair.n
    rows: list[list[int]] = []
    for mat in (pair.A, pair.B):
        last = [mat[i][n - 1] for i in range(n)]
        for i in range(n - 1):
            # (M^T H M)[i][n-1] = H[i][n-1]
            eq = [0] * n
            for k in range(n):
                eq[abs(i + 1 - k)] += last[k]
            eq[n - 1 - i] -= 1
            rows.append(eq)
        eq = [0] * n
        for k in range(n):
            for l in range(n):
                eq[abs(k - l)] += last[k] * last[l]
        eq[0] -= 1
        rows.append(eq)
    kernel = linalg.nullspace(rows)
    if len(kernel) != 1:
        raise PairValidationError(
            f"invariant-form solution space has dimension {len(kernel)}, "
            "expected 1 (imprimitive or degenerate input)")
    # an int multiple of the solution; H = 2 h / (v.h.v) whatever it is
    h = _toeplitz(linalg.primitive_integer(kernel[0]), n)
    scale = linalg.vec_dot(pair.v, h, pair.v)
    if scale == 0:
        raise PairValidationError("invariant form is degenerate on v")
    # cross-check: pairing against v extracts the top coefficient,
    # so H v must be the last standard basis vector
    hv = linalg.mat_vec(h, pair.v)
    if [2 * x for x in hv] != [scale * int(i == n - 1) for i in range(n)]:
        hv = [Fraction(2 * x, scale) for x in hv]
        raise OracleMismatchError("H v must equal the x^{n-1} coordinate "
                                  f"functional, got {hv}")
    if linalg.det(h) == 0:
        raise PairValidationError("invariant form is degenerate")
    return QuadSpace(dim=n, gram=tuple(tuple(Fraction(2 * x, scale)
                                             for x in r) for r in h),
                     basis_label=STANDARD)


def change_basis(space: QuadSpace, m: Sequence[Sequence], label: str = "custom"
                 ) -> QuadSpace:
    """Gram -> M^T Gram M for invertible integer M (not checked here: the
    caller passes cyclic_basis_matrix, which has checked it), multiplied
    out in int arithmetic on the Gram cleared of its common denominator."""
    gram, den = linalg.clear_denominators(space.gram)
    gram = linalg.mat_mul(linalg.transpose(m), linalg.mat_mul(gram, m))
    return QuadSpace(dim=space.dim,
                     gram=tuple(tuple(Fraction(x, den) for x in r)
                                for r in gram),
                     basis_label=label)


def invariant_space(pair: HyperPair) -> QuadSpace:
    """Cyclic-basis form agreed by both independent routes."""
    cyc = gram_remainder(pair)
    std = gram_invariance(pair)
    via_std = change_basis(std, cyc.base_change, label=CYCLIC)
    if not linalg.mat_eq(via_std.gram, cyc.gram):
        raise OracleMismatchError(
            "remainder-route and invariance-route Gram matrices disagree: "
            f"{cyc.gram} vs {via_std.gram}")
    return cyc


def _gram_of(space_or_gram) -> list[list]:
    """The Gram matrix as lists of int entries when every entry is
    integral (the cyclic Gram always is, and holds ints already), of
    Fraction entries otherwise.

    This is the one place the number domain is chosen: the searches and
    the reflection calculus run on whatever it returns without a branch,
    in int arithmetic on every integral form."""
    gram = getattr(space_or_gram, "gram", space_or_gram)
    if all(type(x) is int for row in gram for x in row):
        return [list(row) for row in gram]
    rows = [[Fraction(x) for x in row] for row in gram]
    if all(x.denominator == 1 for row in rows for x in row):
        return [[int(x) for x in row] for row in rows]
    return rows


def diagonalize(space_or_gram) -> tuple[tuple[Fraction, ...],
                                        tuple[tuple[Fraction, ...], ...]]:
    """Congruence diagonalization: returns (diagonal, T) with
    T^T G T = diag.

    Pivot rule (deterministic): use the first nonzero diagonal entry,
    swapping it into place; if every remaining diagonal entry is zero but
    some off-diagonal (i,j) is not, apply e_i -> e_i + e_j first.  Zero
    diagonal entries survive only for degenerate inputs.

    The elimination is fraction-free (Bareiss) on den * G with int
    entries: before step i the trailing block is d_i times the rational
    one, and each not yet final column of T is an int column divided by
    d_i, where d_i is the previous pivot (d_0 = 1).  Both divisions by d_i
    below are exact, so diagonal entry i is pivot i / (d_i * den) and
    column i of T is its int column / d_i.
    """
    m, den = linalg.clear_denominators(_gram_of(space_or_gram))
    n = len(m)
    cols = linalg.identity(n)  # cols[j] is the int column j of T
    diag: list[Fraction] = []
    prev = 1

    def col_add(dst: int, src: int) -> None:
        # column dst += column src, symmetrically on rows
        for k in range(n):
            m[k][dst] += m[k][src]
        for k in range(n):
            m[dst][k] += m[src][k]
        cols[dst] = [a + b for a, b in zip(cols[dst], cols[src])]

    def col_swap(a: int, b: int) -> None:
        for k in range(n):
            m[k][a], m[k][b] = m[k][b], m[k][a]
        m[a], m[b] = m[b], m[a]
        cols[a], cols[b] = cols[b], cols[a]

    for i in range(n):
        if m[i][i] == 0:
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
            for k in range(i + 1, n):
                row[k] = (pivot * row[k] - f * top[k]) // prev
            cols[j] = [(pivot * a - f * b) // prev
                       for a, b in zip(cols[j], cols[i])]
        diag.append(Fraction(pivot, prev * den))
        cols[i] = [Fraction(a, prev) for a in cols[i]]
        prev = pivot
    # after a break the trailing block is zero and shares the last d_i
    for i in range(len(diag), n):
        diag.append(Fraction(0))
        cols[i] = [Fraction(a, prev) for a in cols[i]]
    return tuple(diag), tuple(zip(*cols))


def signature(space_or_gram) -> tuple[int, int]:
    """(p, q) = counts of positive and negative diagonal entries."""
    diag, _ = diagonalize(space_or_gram)
    if any(d == 0 for d in diag):
        raise ValueError("degenerate form has no signature")
    p = sum(1 for d in diag if d > 0)
    return p, len(diag) - p


def signature_interlace(alpha: Sequence[Fraction], beta: Sequence[Fraction]
                        ) -> int:
    """|p - q| from the interlacing count: with alpha sorted ascending,
    m_j = #{k : beta_k < alpha_j} and the result is |sum (-1)^{j+m_j}|
    over 1-based j."""
    if len(alpha) != len(beta):
        raise ValueError("parameter lists must have equal length")
    a = sorted(Fraction(x) for x in alpha)
    b = sorted(Fraction(x) for x in beta)
    if set(a) & set(b):
        raise ValueError("parameter lists must be disjoint")
    total = 0
    for j, aj in enumerate(a, start=1):
        m = sum(1 for bk in b if bk < aj)
        total += (-1) ** (j + m)
    return abs(total)


def _canonical(c: tuple[int, ...]) -> bool:
    """Primitive with positive first nonzero entry."""
    lead = next((x for x in c if x != 0), None)
    if lead is None or lead < 0:
        return False
    g = 0
    for x in c:
        g = math.gcd(g, x)
    return g == 1


def _box_solutions(gram: Sequence[Sequence], bound: int, value=0
                   ) -> Iterator[tuple[int, ...]]:
    """Canonical tuples c in [-bound, bound]^dim with c.G.c = value, in
    lexicographic order, lazily; G must be symmetric.

    Depth first over the coordinates, carrying the form's value on the
    prefix and G times the prefix, so a node costs O(dim) and a full tuple
    one quadratic in its last coordinate."""
    if gram:
        yield from _box_walk(gram, range(-bound, bound + 1), value, (), 0,
                             [0] * len(gram))


def _box_walk(gram, span: range, value, prefix: tuple[int, ...], q,
              g_prefix: list) -> Iterator[tuple[int, ...]]:
    # q = prefix.G.prefix and g_prefix = G prefix, prefix zero-padded
    k = len(prefix)
    lin, diag = 2 * g_prefix[k], gram[k][k]
    if k == len(gram) - 1:
        for t in span:
            if q + t * (lin + diag * t) == value:
                c = prefix + (t,)
                if _canonical(c):
                    yield c
        return
    row = gram[k]  # column k, by symmetry
    for t in span:
        yield from _box_walk(gram, span, value, prefix + (t,),
                             q + t * (lin + diag * t),
                             [a + t * b for a, b in zip(g_prefix, row)])


def isotropic_search(space_or_gram, bound: int) -> list[tuple[int, ...]]:
    """All primitive isotropic vectors with coefficients in
    [-bound, bound], deduplicated by sign, lexicographic order."""
    gram = _gram_of(space_or_gram)
    dim = len(gram)
    if (2 * bound + 1) ** dim > SEARCH_CAP:
        raise SearchBudgetError(
            f"bounded search over {(2 * bound + 1) ** dim} tuples exceeds "
            f"the cap {SEARCH_CAP}")
    return list(_box_solutions(gram, bound))


def _int_kernel(rows: list[list[int]], n: int) -> list[list[int]]:
    """Basis of the integer kernel lattice of the given integer rows."""
    basis = linalg.identity(n)
    for r in rows:
        projected = linalg.mat_vec(basis, r)
        if all(x == 0 for x in projected):
            continue
        basis = linalg.mat_mul(linalg.int_row_kernel(projected), basis)
    return basis


def _scaled_int_row(space_gram, vec: Sequence[int]) -> list[int]:
    """G.vec cleared to a primitive integer row (same kernel)."""
    gv = linalg.mat_vec(space_gram, vec)
    prim = linalg.primitive_integer(gv)
    return list(prim)


def witt_decompose(space_or_gram, bound: int,
                   seeds: Sequence[Sequence[int]] = ()) -> RankCertificate:
    """Greedy hyperbolic-plane splitting.

    Finds an isotropic vector (seeds first, then bounded search in the
    current orthogonal-complement lattice), pairs it with a deterministic
    non-orthogonal partner, restricts to the complement of the plane, and
    repeats.  lo = planes split; the leftover block is diagonalized.
    Stages whose enumeration would exceed SEARCH_CAP stop with a note; a
    stage whose lattice is definite stops without a search, since it has
    no isotropic vector.
    """
    gram = _gram_of(space_or_gram)
    n = len(gram)
    witnesses: list[tuple[int, ...]] = []
    constraints: list[list[int]] = []
    notes: list[str] = []
    pending = [tuple(int(x) for x in s) for s in seeds]

    while True:
        basis = _int_kernel(constraints, n)
        k = len(basis)
        if k == 0:
            residual_diag: tuple[Fraction, ...] = ()
            break
        # restricted Gram B^T G B, whose diagonalization is the residual
        # one when this stage is the last
        restricted = linalg.mat_mul(
            basis, linalg.mat_mul(gram, linalg.transpose(basis)))
        residual_diag, _ = diagonalize(restricted)
        # isotropic vector: unused seeds first, then bounded search
        w: tuple[int, ...] | None = None
        for s in pending:
            in_lattice = all(
                sum(r[i] * s[i] for i in range(n)) == 0 for r in constraints)
            if in_lattice and linalg.vec_dot(s, gram, s) == 0 \
                    and any(x != 0 for x in s):
                w = s
                pending = [q for q in pending if q != s]
                break
        if w is None:
            if (2 * bound + 1) ** k > SEARCH_CAP:
                notes.append(
                    f"stage {len(witnesses) + 1}: search over "
                    f"{(2 * bound + 1) ** k} tuples exceeds the cap; "
                    "lower bound may not be tight")
                break
            if all(d > 0 for d in residual_diag) or \
                    all(d < 0 for d in residual_diag):
                break  # definite: the search could only come back empty
            # search in lattice coordinates against the restricted Gram;
            # c.(B^T G B).c = x.G.x for x = B c, so the hit is unchanged
            c = next(_box_solutions(restricted, bound), None)
            if c is None:
                break
            x = tuple(sum(c[j] * basis[j][i] for j in range(k))
                      for i in range(n))
            lead = next(t for t in x if t != 0)
            w = x if lead > 0 else tuple(-t for t in x)
        # partner: first current-lattice vector pairing nontrivially with
        # w while keeping every unused seed orthogonal (so later stages
        # can still accept them)
        lat_rows = [b for b in basis]
        seed_rows = [_scaled_int_row(gram, s) for s in pending]
        partner = None
        candidates: Iterable[list[int]] = lat_rows
        pairs = [[bi + bj for bi, bj in zip(lat_rows[i], lat_rows[j])]
                 for i in range(len(lat_rows)) for j in range(i + 1, len(lat_rows))]
        for u in list(candidates) + pairs:
            if linalg.vec_dot(w, gram, u) == 0:
                continue
            if all(sum(r[i] * u[i] for i in range(n)) == 0
                   for r in seed_rows) or not pending:
                partner = u
                break
        if partner is None:
            # w is in the radical of the restricted lattice; cannot split
            notes.append(f"stage {len(witnesses) + 1}: isotropic vector "
                         "without a pairing partner; stopped")
            break
        witnesses.append(w)
        constraints.append(_scaled_int_row(gram, w))
        constraints.append(_scaled_int_row(gram, partner))

    pr = sum(1 for d in residual_diag if d > 0)
    qr = sum(1 for d in residual_diag if d < 0)
    lo = len(witnesses)
    return RankCertificate(lo=lo, hi=lo + min(pr, qr),
                           isotropic_witnesses=tuple(witnesses),
                           residual_diagonal=residual_diag,
                           notes=tuple(notes))


def squarefree_class(d: Fraction) -> int:
    """Squarefree integer representing the square class of d != 0."""
    d = Fraction(d)
    if d == 0:
        raise ValueError("zero has no square class")
    n = d.numerator * d.denominator
    out = 1
    a = abs(n)
    p = 2
    while p * p <= a:
        e = 0
        while a % p == 0:
            a //= p
            e += 1
        if e % 2 == 1:
            out *= p
        p += 1 if p == 2 else 2
    out *= a
    return out if n > 0 else -out


def anisotropy_certificate(diagonal: Sequence[int], p: int, k: int) -> bool:
    """True iff sum d_i x_i^2 has no primitive zero mod p^k, verified by
    exhaustive residue counting (one convolution per coordinate, so the
    work is dim * modulus^2, never an enumeration of tuples).  Success
    certifies Q-anisotropy of the diagonal form.

    Raises SearchBudgetError when the (p, k, dim) instance is over
    CERT_WORK_CAP; inputs outside the documented limits are rejected.
    """
    dim = len(diagonal)
    if dim > CERT_MAX_DIM or p > CERT_MAX_PRIME or k > CERT_MAX_EXPONENT:
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

    def count_zeros(modulus: int) -> int:
        if modulus == 1:
            return 1
        if dim * modulus * modulus > CERT_WORK_CAP:
            raise SearchBudgetError(
                f"certificate counting mod {modulus} exceeds the work cap")
        return residue_counts(diagonal, modulus)[0]

    total = count_zeros(q)
    if k >= 2:
        nonprimitive = count_zeros(p ** (k - 2)) * p ** dim
    else:
        nonprimitive = 1  # only the zero tuple
    primitive = total - nonprimitive
    if primitive < 0:
        raise OracleMismatchError("negative primitive-zero count")
    return primitive == 0


def find_anisotropy_certificate(diagonal: Sequence[Fraction]
                                ) -> tuple[Obstruction | None, list[str]]:
    """Scan (k ascending, then p ascending) for an exhaustive-checking
    anisotropy certificate of the squarefree-reduced diagonal form.
    Returns (obstruction, notes); obstruction None means unknown."""
    if len(diagonal) > CERT_MAX_DIM:
        return None, [f"residual dimension {len(diagonal)} exceeds the "
                      f"certificate limit {CERT_MAX_DIM}"]
    reduced = [squarefree_class(d) for d in diagonal]
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


def q_rank(space: QuadSpace, sig: tuple[int, int], bound: int,
           seeds: Sequence[Sequence[int]] = ()) -> RankCertificate:
    """Q-rank interval [lo, hi] of the form with signature sig, with
    witnesses and obstructions attached.

    lo comes from greedy plane splitting, hi from the residual signature;
    hi is tightened to lo when an anisotropy certificate closes the
    residual, and for a real-isotropic residual in >= 5 variables the
    search bound is doubled (a rational witness is guaranteed to exist)
    until found or the enumeration cap intervenes.  hi is cross-checked
    against min(p, q).  A bound below 1 is a ValueError: the doubling
    would never leave it.
    """
    if bound < 1:
        raise ValueError(f"search bound must be at least 1, got {bound}")
    p, q = sig
    current_bound = bound
    while True:
        cert = witt_decompose(space, current_bound, seeds=seeds)
        _check_certificate(space, cert)
        residual_dim = len(cert.residual_diagonal)
        pr = sum(1 for d in cert.residual_diagonal if d > 0)
        qr = sum(1 for d in cert.residual_diagonal if d < 0)
        if cert.hi > min(p, q):
            raise OracleMismatchError("certificate hi exceeds min(p, q)")
        if cert.lo == cert.hi:
            return cert
        if residual_dim <= CERT_MAX_DIM:
            obstruction, notes = find_anisotropy_certificate(
                cert.residual_diagonal)
            if obstruction is not None:
                return replace(cert, hi=cert.lo, obstructions=(obstruction,),
                               notes=cert.notes + tuple(notes))
            return replace(
                cert, notes=cert.notes + tuple(notes) + (
                    "interval open: residual neither split nor certified "
                    "anisotropic within the configured bounds",))
        if residual_dim >= 5 and min(pr, qr) >= 1:
            doubled = current_bound * 2
            if (2 * doubled + 1) ** residual_dim > SEARCH_CAP:
                return replace(
                    cert, notes=cert.notes + (
                        "a rational isotropic vector exists in the "
                        "residual (indefinite, >= 5 variables) but the "
                        "bounded search stopped at the enumeration cap",))
            current_bound = doubled
            continue
        return cert


def _check_certificate(space: QuadSpace, cert: RankCertificate) -> None:
    gram = _gram_of(space)
    ws = cert.isotropic_witnesses
    for w in ws:
        if linalg.vec_dot(w, gram, w) != 0:
            raise OracleMismatchError(f"witness {w} is not isotropic")
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if linalg.vec_dot(ws[i], gram, ws[j]) != 0:
                raise OracleMismatchError(
                    f"witnesses {ws[i]}, {ws[j]} are not orthogonal")
    if len(ws) != cert.lo:
        raise OracleMismatchError("witness count differs from lo")
