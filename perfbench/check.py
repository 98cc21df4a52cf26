"""Independent checker for the program's reports.

Everything is recomputed from the benchmark's own inputs with the small
integer code in polys.py: the cyclic Gram row of (f, g), the signature,
the rank witnesses and the replay of a unipotent word.  A report that
disagrees raises CheckError.  tamper() builds corrupted copies of a good
report for the negative control: the checker must reject every one.
"""
from __future__ import annotations

import copy
from fractions import Fraction

import polys
import workloads


class CheckError(Exception):
    """A report contradicts what the benchmark recomputed."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def gram_row(f: list[int], g: list[int]) -> list[int]:
    """t_k = v . A^k v: the x^(n-1) coefficient of x^(k-1) (g - f) mod f.
    f(0) = -1 makes (f + 1) / x the inverse of x modulo f."""
    n = len(f) - 1
    r = polys.rem_monic(polys.mul(polys.sub(g, f), f[1:]), f)
    row = []
    for _ in range(n):
        row.append(r[n - 1] if len(r) >= n else 0)
        r = polys.rem_monic([0] + r, f)
    return row


def _rational(text) -> Fraction:
    num, den = str(text).split("/")
    return Fraction(int(num), int(den))


def _dot(x, gram, y) -> int:
    return sum(x[i] * gram[i][j] * y[j]
               for i in range(len(x)) for j in range(len(y)))


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _ints(vec, n: int, what: str) -> list[int]:
    require(isinstance(vec, list) and len(vec) == n
            and all(type(x) is int for x in vec), f"{what} is not {n} ints")
    return vec


def _generators(f: list[int], trow: list[int]) -> dict[str, list[list[int]]]:
    """A, A^-1 and the reflection C about v in the cyclic basis
    v, Av, ..., A^(n-1)v."""
    n = len(f) - 1
    a = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][n - 1] = -f[i]
    # A^-1 = A^(n-1) + sum_{k>=1} f_k A^(k-1), since f(A) = 0, f(0) = -1
    a_inv = [[int(i == j - 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        a_inv[i][0] = f[i + 1]
    c = [[int(i == j) - (trow[j] if i == 0 else 0) for j in range(n)]
         for i in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    require(_matmul(a, a_inv) == ident, "A^-1 derivation failed")
    return {"A": a, "A^-1": a_inv, "C": c}


def check_pair_report(doc: dict, cmd: workloads.Command) -> dict:
    """Check the form, signature and rank certificate of one analysis
    report; returns a summary of the verdict."""
    f, g = cmd.f, cmd.g
    n = len(f) - 1
    derived = doc.get("derived") or {}
    require(derived.get("n") == n, "derived.n is wrong")
    require(derived.get("type") == "orthogonal", "pair not orthogonal")
    require(polys.parse(derived.get("f", "")) == f, "derived.f is wrong")
    require(polys.parse(derived.get("g", "")) == g, "derived.g is wrong")

    trow = gram_row(f, g)
    require(trow[0] == 2, "v.v must be 2")
    gram = [[trow[abs(i - j)] for j in range(n)] for i in range(n)]
    got = doc.get("gram")
    require(isinstance(got, list) and len(got) == n
            and all(isinstance(r, list) and len(r) == n for r in got),
            "gram has the wrong shape")
    require([[_rational(x) for x in row] for row in got] == gram,
            "gram is not the Toeplitz matrix of the cyclic Gram row")

    p, q = polys.signature(gram)
    sig = doc.get("signature") or {}
    require((sig.get("p"), sig.get("q")) == (p, q),
            f"signature {sig} is not ({p}, {q})")
    require(abs(p - q) == cmd.abs_diff, "signature contradicts interlacing")

    cert = doc.get("q_rank") or {}
    lo, hi = cert.get("lo"), cert.get("hi")
    require(type(lo) is int and type(hi) is int and 0 <= lo <= hi <= min(p, q),
            f"rank interval [{lo}, {hi}] outside [0, {min(p, q)}]")
    ws = [_ints(w, n, "witness") for w in cert.get("witnesses", [])]
    require(len(ws) == lo, "witness count differs from lo")
    for i, w in enumerate(ws):
        require(any(w), "zero witness")
        for w2 in ws[i:]:
            require(_dot(w, gram, w2) == 0,
                    "witnesses not isotropic and pairwise orthogonal")
    require(polys.rank(ws) == lo, "witnesses are linearly dependent")
    if cmd.q_rank is not None:
        require(lo == hi == cmd.q_rank,
                f"Q-rank [{lo}, {hi}] is not the known {cmd.q_rank}")

    conclusion = (doc.get("witness") or {}).get("conclusion")
    if conclusion == "witnessed-arithmetic":
        _check_witness(doc["witness"], f, trow, gram, n, min(p, q))
    return {"lo": lo, "hi": hi, "witnessed":
            conclusion == "witnessed-arithmetic"}


def _check_witness(wit: dict, f, trow, gram, n: int, real_rank: int) -> None:
    require(real_rank >= 2, "witnessed with real rank below 2")
    eps = _ints(wit.get("epsilon"), n, "epsilon")
    require(any(eps) and _dot(eps, gram, eps) == 0, "epsilon not isotropic")
    uni = wit.get("unipotent") or {}
    matrix = uni.get("matrix")
    require(isinstance(matrix, list) and len(matrix) == n, "bad unipotent")
    matrix = [_ints(row, n, "unipotent row") for row in matrix]
    gens = _generators(f, trow)
    word = uni.get("word")
    require(isinstance(word, list) and all(t in gens for t in word),
            "word uses tokens other than A, A^-1, C")
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for token in word:
        m = _matmul(m, gens[token])
    require(m == matrix, "unipotent word does not evaluate to its matrix")
    mt = [list(col) for col in zip(*m)]
    require(_matmul(mt, _matmul(gram, m)) == gram,
            "unipotent does not preserve the form")
    require([sum(r[j] * eps[j] for j in range(n)) for r in m] == eps,
            "unipotent does not fix epsilon")
    nil = [[m[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    require(any(any(r) for r in nil), "unipotent is the identity")
    power = nil
    for _ in range(n - 1):
        power = _matmul(power, nil)
    require(not any(any(r) for r in power), "element is not unipotent")
    require(wit.get("translation_rank") == n - 2,
            "witnessed without full translation rank")


def check_pad_report(doc: dict, cmd: workloads.Command) -> dict:
    summary = check_pair_report(doc, cmd)
    pad = doc.get("padding") or {}
    require(pad.get("n") == len(cmd.f) - 1, "padding.n is wrong")
    require(pad.get("remainder_coeff_check") is True
            and pad.get("isometry_check") is True, "padding checks failed")
    base_row = gram_row(cmd.extra["f0"], cmd.extra["g0"])
    require(gram_row(cmd.f, cmd.g)[:5] == base_row,
            "padded form does not restrict to the base form")
    base = pad.get("base_q_rank") or {}
    rank = cmd.extra["base_q_rank"]
    require(base.get("lo") == base.get("hi") == rank, "base Q-rank is wrong")
    require(summary["lo"] >= rank, "padded lower bound below the base rank")
    return summary


def check_examples(doc: dict) -> dict:
    entries = doc.get("entries") or []
    require(doc.get("ok") is True and doc.get("out_of_order") == [],
            "worked examples out of order")
    require(len(entries) == workloads.EXAMPLES_ENTRIES, "missing examples")
    require(sum(len(e.get("data", [])) for e in entries)
            == workloads.EXAMPLES_VALUES, "wrong number of stated values")
    require(len(doc.get("errata_found", [])) == workloads.EXAMPLES_ERRATA,
            "wrong number of misprints confirmed")
    return {}


def check(doc: dict, cmd: workloads.Command) -> dict:
    """Raise CheckError unless doc is a correct report for cmd."""
    if cmd.kind == "examples":
        return check_examples(doc)
    if cmd.kind == "pad":
        return check_pad_report(doc, cmd)
    return check_pair_report(doc, cmd)


def tamper(doc: dict, cmd: workloads.Command) -> list[tuple[str, dict]]:
    """Corrupted copies of a report that passed check()."""
    out = []

    def variant(label, edit):
        bad = copy.deepcopy(doc)
        if edit(bad) is not False:
            out.append((label, bad))

    if cmd.kind == "examples":
        variant("examples not ok", lambda d: d.update(ok=False))
        variant("entry dropped", lambda d: d["entries"].pop())
        return out

    def bump_gram(d):
        num, den = d["gram"][0][1].split("/")
        d["gram"][0][1] = f"{int(num) + 1}/{den}"
    variant("gram entry changed", bump_gram)
    variant("signature swapped", lambda d: d["signature"].update(
        p=d["signature"]["q"], q=d["signature"]["p"])
        if d["signature"]["p"] != d["signature"]["q"] else False)
    variant("lo raised", lambda d: d["q_rank"].update(lo=d["q_rank"]["lo"] + 1))
    variant("hi above min(p, q)", lambda d: d["q_rank"].update(
        hi=min(d["signature"]["p"], d["signature"]["q"]) + 1))

    def replace_witness(d):
        ws = d["q_rank"]["witnesses"]
        if not ws:
            return False
        # v itself: v.v = 2, so never isotropic
        ws[0] = [int(i == 0) for i in range(len(ws[0]))]
    variant("witness replaced by v", replace_witness)

    def bump_unipotent(d):
        uni = (d.get("witness") or {}).get("unipotent")
        if not uni:
            return False
        uni["matrix"][0][0] += 1
    variant("unipotent matrix changed", bump_unipotent)

    def drop_token(d):
        uni = (d.get("witness") or {}).get("unipotent")
        if not uni:
            return False
        uni["word"].pop()
    variant("unipotent word shortened", drop_token)
    return out


def negative_control(doc: dict, cmd: workloads.Command) -> list[str]:
    """Labels of tampered reports that check() wrongly accepted."""
    accepted = []
    for label, bad in tamper(doc, cmd):
        try:
            check(bad, cmd)
        except CheckError:
            continue
        accepted.append(label)
    return accepted
