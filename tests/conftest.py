"""Shared fixtures: the reference quintic pair, a reproducible batch
of random coprime cyclotomic pairs for property checks, and the
references that the int code is checked against: in Fractions, the
polynomial gcd over Q for the coprimality certificates and the
reflection formula for reflection_matrix; in ints, the column
elimination and integer row kernel behind the lattice cuts, and the
eps-first quotient basis of eps-perp that orthocomplement once built."""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

from orthomono import linalg
from orthomono.monodromy import HyperPair, build_pair
from orthomono.parsing import parse_poly
from orthomono.polynomials import IntPoly, ONE, cyclotomic, euler_phi
from orthomono.quadform import QuadSpace, invariant_space

BASE_F = "x^5-1"
BASE_G = "(x+1)*(x^2+1)^2"


def strict_json(text: str):
    """json.loads that also refuses NaN and +-Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Reference: greatest common divisor over Q, returned as a primitive
    integer polynomial with positive leading coefficient (monic whenever
    the monic gcd has integer coefficients, e.g. for products of
    cyclotomics), by the Euclidean algorithm on Fraction coefficients."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]

    def deg(p: list[Fraction]) -> int:
        return len(p) - 1

    def trim(p: list[Fraction]) -> list[Fraction]:
        while p and p[-1] == 0:
            p.pop()
        return p

    fa, fb = trim(fa), trim(fb)
    while fb:
        # fa mod fb over Q
        while deg(fa) >= deg(fb) and fa:
            q = fa[-1] / fb[-1]
            shift = deg(fa) - deg(fb)
            for j, c in enumerate(fb):
                fa[shift + j] -= q * c
            trim(fa)
        fa, fb = fb, fa
    if not fa:
        return IntPoly(())
    lcm_den = math.lcm(*(c.denominator for c in fa))
    ints = [c.numerator * (lcm_den // c.denominator) for c in fa]
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return IntPoly(tuple(c // content for c in ints))


def reflect(gram, w, x) -> tuple[Fraction, ...]:
    """Reference: the reflection x - (2 (x.w) / (w.w)) w about the
    anisotropic w, in Fractions."""
    ww = linalg.vec_dot(w, gram, w)
    if ww == 0:
        raise ValueError("cannot reflect about an isotropic vector")
    factor = 2 * Fraction(linalg.vec_dot(x, gram, w)) / ww
    return tuple(Fraction(a) - factor * b for a, b in zip(x, w))


def column_eliminate(row) -> tuple[int, list[list[int]], list[list[int]]]:
    """Reference: (r0, columns of u, rows of u^-1) for the steps of
    linalg._gcd_steps(row), row . u = (r0, 0, ..., 0).  Each step on
    columns 0 and i of u is undone by the matching step on rows 0 and i
    of u^-1; a column swap swaps the same rows."""
    n = len(row)
    r0, steps = linalg._gcd_steps(row)
    cols = linalg.identity(n)  # cols[j]: column j of u
    inv = linalg.identity(n)   # inv[j]: row j of u^-1
    for i, step in steps:
        if step is None:
            cols[0], cols[i] = cols[i], cols[0]
            inv[0], inv[i] = inv[i], inv[0]
            continue
        s, t, a, b = step
        # column i of u and row i of u^-1 are still e_i, and column 0 and
        # row 0 vanish from entry i on, so each step scales one vector
        c0, i0 = cols[0], inv[0]
        cols[0], cols[i] = [s * x for x in c0], [-b * x for x in c0]
        inv[0], inv[i] = [a * x for x in i0], [-t * x for x in i0]
        cols[0][i], cols[i][i] = t, a
        inv[0][i], inv[i][i] = b, s
    return r0, cols, inv


def int_row_kernel(row) -> list[list[int]]:
    """Reference: a basis of the lattice {x in Z^n : row . x = 0}, the
    columns of u after the first, u of the row's column elimination,
    row . u = (r0, 0, ..., 0); their kernel rows are K in the cut K B
    that linalg.lattice_cut makes without forming K."""
    return column_eliminate(row)[1][1:]


def quotient_perp(gram, eps) -> list[tuple[int, ...]]:
    """Reference: a Z-basis of eps-perp with eps first and n - 2 quotient
    representatives after it, for a primitive isotropic eps: the kernel
    columns of G eps's column elimination, changed by a unimodular matrix
    whose first row is eps's coordinates in them, the u^-1 of those
    coordinates' own elimination."""
    row = linalg.primitive_integer(linalg.mat_vec(gram, eps))
    _, cols, inv = column_eliminate(row)
    # entry 0 of u^-1 eps is (row . eps) / r0 = 0
    coords = linalg.mat_vec(inv[1:], eps)
    r0, _, change = column_eliminate(coords)
    assert abs(r0) == 1, "eps must be primitive"
    # coords = (r0, 0, ..., 0) u^-1, so row 0 of u^-1 is r0 coords
    change[0] = [r0 * x for x in change[0]]
    basis = [tuple(w) for w in linalg.mat_mul(change, cols[1:])]
    assert basis[0] == tuple(eps)
    return basis


def cleared(m) -> list[list[int]]:
    """den * m as int rows, den > 0 the least common denominator of the
    rational matrix m: the int matrix of the same rank and signature, for
    the int kernels."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m]


@pytest.fixture(scope="session")
def base_pair() -> HyperPair:
    return build_pair(parse_poly(BASE_F), parse_poly(BASE_G))


@pytest.fixture(scope="session")
def base_space(base_pair) -> QuadSpace:
    return invariant_space(base_pair)


def random_cyclotomic_pairs(count: int = 50, max_degree: int = 12,
                            seed: int = 20260823
                            ) -> list[tuple[IntPoly, IntPoly]]:
    """Distinct pairs of monic coprime cyclotomic products of equal degree
    with f(0) = -1 and g(0) = 1, drawn from a fixed seed.

    f(0) = -1 forces an odd multiplicity of x - 1 in f (every other
    cyclotomic has constant term 1), so f takes x - 1 exactly once and g,
    being coprime to f, avoids it entirely.
    """
    rng = random.Random(seed)
    pool = [d for d in range(2, 43) if euler_phi(d) <= max_degree]

    def fill(n: int, allowed: list[int]) -> dict[int, int] | None:
        out: dict[int, int] = {}
        remaining = n
        for _ in range(4 * n + 8):
            if remaining == 0:
                return out
            options = [d for d in allowed if euler_phi(d) <= remaining]
            if not options:
                return None
            d = rng.choice(options)
            out[d] = out.get(d, 0) + 1
            remaining -= euler_phi(d)
        return out if remaining == 0 else None

    pairs: list[tuple[IntPoly, IntPoly]] = []
    seen: set = set()
    attempts = 0
    while len(pairs) < count:
        attempts += 1
        if attempts > 100 * count:
            raise AssertionError("pair generation is not terminating")
        n = rng.randint(1, max_degree)
        f_divs = fill(n - 1, pool)
        if f_divs is None:
            continue
        g_divs = fill(n, [d for d in pool if d not in f_divs])
        if g_divs is None:
            continue
        f = cyclotomic(1)
        for d, mult in sorted(f_divs.items()):
            f = f * cyclotomic(d) ** mult
        g = ONE
        for d, mult in sorted(g_divs.items()):
            g = g * cyclotomic(d) ** mult
        key = (f.coeffs, g.coeffs)
        if key in seen:
            continue
        seen.add(key)
        pairs.append((f, g))
    return pairs


@pytest.fixture(scope="session")
def cyclotomic_pairs() -> list[tuple[IntPoly, IntPoly]]:
    return random_cyclotomic_pairs()


def random_unimodular(rng: random.Random, n: int,
                      shears: int = 6) -> list[list[int]]:
    """Integer matrix of determinant +-1 built from random row shears,
    so congruence by it must preserve the signature."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return m
