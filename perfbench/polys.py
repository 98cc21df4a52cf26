"""Small integer-polynomial toolkit of the benchmark's own.

Coefficient lists are ascending (index k holds the x^k coefficient).  The
benchmark generates its inputs and checks the program's reports with this
code, so it deliberately shares nothing with the package under test.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def trim(a: list[int]) -> list[int]:
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return trim([(a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0)
                 for k in range(n)])


def rem_monic(a: list[int], m: list[int]) -> list[int]:
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top]
        if c:
            for k in range(dm + 1):
                a[top - dm + k] -= c * m[k]
    return trim(a[:dm] or [0])


def compose_power(p: list[int], d: int) -> list[int]:
    """p(x^d)."""
    out = [0] * ((len(p) - 1) * d + 1)
    for k, c in enumerate(p):
        out[k * d] = c
    return out


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d as the quotient of x^d - 1 by every Phi_e with e | d, e < d."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = _exact_div_monic(num, list(cyclotomic(e)))
    return tuple(num)


def _exact_div_monic(a: list[int], m: list[int]) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    q = [0] * (len(a) - dm)
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top]
        q[top - dm] = c
        if c:
            for k in range(dm + 1):
                a[top - dm + k] -= c * m[k]
    if any(a[:dm]):
        raise ArithmeticError("inexact cyclotomic division")
    return q


def phi(d: int) -> int:
    return len(cyclotomic(d)) - 1


def product(factors: dict[int, int]) -> list[int]:
    out = [1]
    for d, mult in sorted(factors.items()):
        for _ in range(mult):
            out = mul(out, list(cyclotomic(d)))
    return out


def root_arguments(factors: dict[int, int]) -> list[Fraction]:
    """Arguments a/d of the roots exp(2 pi i a/d), with multiplicity."""
    out = []
    for d, mult in factors.items():
        for a in range(d):
            if math.gcd(a, d) == 1:
                out.extend([Fraction(a, d)] * mult)
    return sorted(out)


def interlace_count(f_factors: dict[int, int],
                    g_factors: dict[int, int]) -> int:
    """|p - q| of the invariant form, from how the root arguments of f and
    g interlace on the circle."""
    return interlace_sorted(root_arguments(f_factors),
                            root_arguments(g_factors))


def interlace_sorted(alpha: list[Fraction], beta: list[Fraction]) -> int:
    """|sum of (-1)^(j + m_j)| over the sorted arguments alpha_j of f, m_j
    counting the arguments of g below alpha_j; both lists ascending."""
    total, m = 0, 0
    for j, a in enumerate(alpha, start=1):
        while m < len(beta) and beta[m] < a:
            m += 1
        total += -1 if (j + m) % 2 else 1
    return abs(total)


def text(factors: dict[int, int]) -> str:
    """Program input in the Phi(d) grammar, e.g. "Phi(1)*Phi(4)^2"."""
    parts = []
    for d, mult in sorted(factors.items()):
        parts.append(f"Phi({d})" + (f"^{mult}" if mult > 1 else ""))
    return "*".join(parts)


def cyclotomic_factors(a: list[int]) -> dict[int, int]:
    """Multiplicities of the cyclotomic factors of a monic a; raises if a
    is not a product of cyclotomics.  phi(d) >= sqrt(d/2) bounds the d
    worth trying."""
    out: dict[int, int] = {}
    rest = list(a)
    deg = len(rest) - 1
    for d in range(1, 2 * max(deg, 1) ** 2 + 2):
        while len(rest) > 1 and phi(d) <= len(rest) - 1:
            try:
                rest = _exact_div_monic(rest, list(cyclotomic(d)))
            except ArithmeticError:
                break
            out[d] = out.get(d, 0) + 1
    if rest != [1]:
        raise ValueError("not a product of cyclotomic polynomials")
    return out


def parse(src: str, var: str = "x") -> list[int]:
    """Polynomial text in the grammar the benchmark writes and the program
    renders: sums of c*var^k terms, products, integer powers, exact
    division by monic factors, and Phi(d)."""
    toks = _tokens(src, var)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"bad polynomial text {src!r}")
        pos += 1
        return tok

    def expr():
        out = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            out = sub(out, rhs) if op == "-" else sub(out, sub([0], rhs))
        return out

    def term():
        out = factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = factor()
            out = mul(out, rhs) if op == "*" else _exact_div_monic(out, rhs)
        return out

    def factor():
        if peek() == "-":
            take()
            return sub([0], factor())
        base = atom()
        if peek() == "^":
            take()
            e = take()
            if not isinstance(e, int):
                raise ValueError(f"bad exponent in {src!r}")
            out = [1]
            for _ in range(e):
                out = mul(out, base)
            return out
        return base

    def atom():
        tok = take()
        if tok == "(":
            out = expr()
            take(")")
            return out
        if tok == "Phi":
            take("(")
            d = take()
            take(")")
            return list(cyclotomic(d))
        if isinstance(tok, int):
            if peek() == var:
                take()
                return [0] * _power() + [tok]
            return [tok]
        if tok == var:
            return [0] * _power() + [1]
        raise ValueError(f"bad polynomial text {src!r}")

    def _power():
        # a '^' right after the variable belongs to the monomial
        if peek() == "^":
            take()
            return take()
        return 1

    out = expr()
    if pos != len(toks):
        raise ValueError(f"trailing text in {src!r}")
    return trim(out)


def _tokens(src: str, var: str) -> list:
    toks: list = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(int(src[i:j]))
            i = j
        elif src.startswith("Phi", i):
            toks.append("Phi")
            i += 3
        elif ch == var or ch in "+-*/^()":
            toks.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected {ch!r} in {src!r}")
    return toks


def signature(gram: list[list[Fraction]]) -> tuple[int, int]:
    """(p, q) of a nondegenerate symmetric matrix by symmetric Gaussian
    elimination over Q: every row operation is mirrored on the columns."""
    m = [[Fraction(x) for x in row] for row in gram]
    n = len(m)

    def add(dst: int, src: int, c: Fraction) -> None:
        for k in range(n):
            m[dst][k] += c * m[src][k]
        for k in range(n):
            m[k][dst] += c * m[k][src]

    p = 0
    for i in range(n):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((k for k in range(i + 1, n) if m[i][k] != 0), None)
                if j is None:
                    raise ValueError("degenerate form")
                add(i, j, Fraction(1))  # pivot becomes 2 m_ij != 0
        for r in range(i + 1, n):
            if m[r][i]:
                add(r, i, -m[r][i] / m[i][i])
        p += m[i][i] > 0
    return p, n - p


def rank(rows: list[list[int]]) -> int:
    """Rank over Q of integer rows (fraction-free elimination)."""
    m = [list(r) for r in rows]
    rk = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rk, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for r in range(rk + 1, len(m)):
            if m[r][c]:
                a, b = m[rk][c], m[r][c]
                m[r] = [a * x - b * y for x, y in zip(m[r], m[rk])]
        rk += 1
    return rk
