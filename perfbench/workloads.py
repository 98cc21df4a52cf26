"""Seeded workload generator: the commands one pass of each workload sends.

A pass is the unit of work a run repeats.  Its composition (how many
commands of each kind, degree and signature class) is fixed per workload,
and the seed only chooses which pairs fill it and in what order, so runs
on different seeds do the same amount and kind of work.

Every pair is drawn from one family: f = Phi_1 * (cyclotomic factors),
g = (cyclotomic factors without Phi_1), coprime, of equal degree n.  Then
f(0) = -1 and g(0) = 1, so every pair is orthogonal.  The class of a pair
is min(p, q) of its invariant form, computed here from the interlacing of
the root arguments; min(p, q) = 0 is a definite form.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import polys

WORKLOADS = ("quintic", "definite", "wide")

# The paper's worked examples with the Q-rank each must have.  The article
# states 1 for ex02; that value is a catalogued misprint and 2 is right.
QUINTIC_PAIRS = (
    ("x^5-1", "(x+1)*(x^2+1)^2", 2),
    ("(x-1)*(x^2+1)^2", "(x+1)*(x^2-x+1)^2", 2),
    ("(x-1)*(x^2+1)^2", "(x+1)*(x^5-1)/(x-1)", 2),
    ("(x-1)*(x^2+x+1)^2", "(x+1)*(x^5-1)/(x-1)", 2),
    ("(x-1)*(x^2+1)*(x^2+x+1)", "(x+1)*(x^5-1)/(x-1)", 1),
    ("x^5-1", "(x+1)*(x^2-x+1)^2", 2),
    ("x^5-1", "(x+1)^3*(x^2-x+1)", 2),
    ("(x-1)*(x^2+x+1)^2", "(x+1)*(x^2-x+1)^2", 2),
    ("(x-1)*(x^2+x+1)^2", "(x+1)*(x^4-x^2+1)", 2),
    ("x^5-1", "(x+1)*(x^4-x^2+1)", 2),
    ("(x-1)*(x^2+1)^2", "(x+1)*(x^4-x^2+1)", 2),
)

# `examples` rechecks this many stated values, and this many of them are
# catalogued misprints, over this many worked examples.
EXAMPLES_VALUES, EXAMPLES_ERRATA, EXAMPLES_ENTRIES = 142, 9, 11

# definite pairs per pass: every pair of degree 4 four times, every pair
# of degree 5 once, and one pair of degree 6 drawn by the seed (they take
# ~0.1 s, ~1.2 s and ~10 s each)
DEFINITE_REPEATS = {4: 4, 5: 1}
DEFINITE_DRAWN_DEGREE = 6

# wide pairs per pass by degree, and every (P, Q) pad choice twice.  The
# counts put the median inside the degree-10 pairs and the p90 tail among
# the pads (the slowest commands), not on the edge between two groups,
# where it would depend on which pairs the seed drew.
WIDE_MIX = {8: 24, 9: 24, 10: 20, 11: 16, 12: 16}
PAD_REPEATS = 2
PAD_BASE = ("x^5-1", "(x+1)*(x^2+1)^2")
PAD_EXPONENT = 6
# monic degree-2 cyclotomic products in y with constant term 1
PAD_FACTORS = ("y^2-2y+1", "y^2+2y+1", "y^2+y+1", "y^2+1", "y^2-y+1")

# cyclotomic indices with phi(d) <= 12, Phi_1 excluded (it goes into f)
_POOL = tuple(d for d in range(2, 61) if polys.phi(d) <= 12)


@dataclass
class Command:
    """One CLI invocation and what its report must satisfy."""
    kind: str                       # "analyze", "pad" or "examples"
    argv: list[str]
    f: list[int] | None = None      # the pair the report must be about
    g: list[int] | None = None
    abs_diff: int | None = None     # |p - q| from the interlacing count
    q_rank: int | None = None       # pinned Q-rank, when known
    extra: dict = field(default_factory=dict)


def _factor_sets(n: int, allowed: tuple[int, ...]):
    """Every multiset of cyclotomic indices from allowed of total degree n."""
    def rec(i: int, left: int):
        if left == 0:
            yield {}
            return
        if i == len(allowed):
            return
        d = allowed[i]
        for mult in range(left // polys.phi(d) + 1):
            for rest in rec(i + 1, left - mult * polys.phi(d)):
                yield {**rest, d: mult} if mult else rest
    yield from rec(0, n)


@lru_cache(maxsize=None)
def pairs_by_class(n: int) -> dict[int, list[tuple[dict, dict]]]:
    """All pairs of degree n in the family, grouped by min(p, q)."""
    fs = [({1: 1, **rest}, polys.root_arguments({1: 1, **rest}))
          for rest in _factor_sets(n - 1, _POOL)]
    gs = [(g, polys.root_arguments(g)) for g in _factor_sets(n, _POOL)]
    out: dict[int, list[tuple[dict, dict]]] = {}
    for f, alpha in fs:
        for g, beta in gs:
            if f.keys() & g.keys():
                continue
            cls = (n - polys.interlace_sorted(alpha, beta)) // 2
            out.setdefault(cls, []).append((f, g))
    return out


def _analyze(f: dict, g: dict, q_rank: int | None = None) -> Command:
    return Command("analyze",
                   ["analyze", "--f", polys.text(f), "--g", polys.text(g)],
                   f=polys.product(f), g=polys.product(g),
                   abs_diff=polys.interlace_count(f, g), q_rank=q_rank)


def _class_counts(n: int, total: int) -> dict[int, int]:
    """total split over the classes of degree n: one pair for each class,
    the rest in proportion to class size (largest remainder, ties to the
    lower min(p, q)), so rare classes such as the definite one stay in."""
    sizes = {c: len(p) for c, p in pairs_by_class(n).items()}
    counts = dict.fromkeys(sizes, 1)
    left = total - len(sizes)
    pop = sum(sizes.values())
    shares = {c: Fraction(left * s, pop) for c, s in sizes.items()}
    for c, s in shares.items():
        counts[c] += int(s)
    rest = left - sum(int(s) for s in shares.values())
    for c in sorted(shares, key=lambda c: (-(shares[c] - int(shares[c])), c))[:rest]:
        counts[c] += 1
    return counts


def _quintic(rng: random.Random) -> list[Command]:
    cmds = []
    for f_text, g_text, rank in QUINTIC_PAIRS:
        f, g = polys.parse(f_text), polys.parse(g_text)
        cmds.append(Command(
            "analyze", ["analyze", "--f", f_text, "--g", g_text], f=f, g=g,
            abs_diff=polys.interlace_count(polys.cyclotomic_factors(f),
                                           polys.cyclotomic_factors(g)),
            q_rank=rank))
    cmds.append(Command("examples", ["examples", "--quiet"]))
    rng.shuffle(cmds)
    return cmds


def _definite(rng: random.Random) -> list[Command]:
    cmds = []
    for n, repeats in DEFINITE_REPEATS.items():
        cmds.extend(_analyze(f, g, q_rank=0)
                    for f, g in pairs_by_class(n)[0] for _ in range(repeats))
    cmds.append(_analyze(*rng.choice(pairs_by_class(DEFINITE_DRAWN_DEGREE)[0]),
                         q_rank=0))
    rng.shuffle(cmds)
    return cmds


def _pad_choices() -> list[tuple[str, str]]:
    """(P, Q) whose padded pair is coprime, so pad_pair accepts it: the
    root arguments of f0 * P(x^d) and g0 * Q(x^d) must be disjoint."""
    def args(base: str, fac: str) -> set[Fraction]:
        roots = set(polys.root_arguments(
            polys.cyclotomic_factors(polys.parse(base))))
        for a in polys.root_arguments(
                polys.cyclotomic_factors(polys.parse(fac, var="y"))):
            roots |= {(a + k) / PAD_EXPONENT for k in range(PAD_EXPONENT)}
        return roots
    return [(p, q) for p in PAD_FACTORS for q in PAD_FACTORS
            if not args(PAD_BASE[0], p) & args(PAD_BASE[1], q)]


def _pad(p_text: str, q_text: str) -> Command:
    f0, g0 = (polys.parse(t) for t in PAD_BASE)
    f = polys.mul(f0, polys.compose_power(polys.parse(p_text, "y"),
                                          PAD_EXPONENT))
    g = polys.mul(g0, polys.compose_power(polys.parse(q_text, "y"),
                                          PAD_EXPONENT))
    return Command(
        "pad", ["pad", "--f0", PAD_BASE[0], "--g0", PAD_BASE[1],
                "--P", p_text, "--Q", q_text, "--d", str(PAD_EXPONENT)],
        f=f, g=g,
        abs_diff=polys.interlace_count(polys.cyclotomic_factors(f),
                                       polys.cyclotomic_factors(g)),
        extra={"f0": polys.parse(PAD_BASE[0]), "g0": polys.parse(PAD_BASE[1]),
               "base_q_rank": QUINTIC_PAIRS[0][2]})


def _wide(rng: random.Random) -> list[Command]:
    cmds = []
    for n, total in WIDE_MIX.items():
        classes = pairs_by_class(n)
        for cls, count in sorted(_class_counts(n, total).items()):
            cmds.extend(_analyze(*rng.choice(classes[cls]))
                        for _ in range(count))
    cmds.extend(_pad(p, q) for p, q in _pad_choices()
                for _ in range(PAD_REPEATS))
    rng.shuffle(cmds)
    return cmds


def make_pass(workload: str, rng: random.Random) -> list[Command]:
    """The commands of one pass, drawn from rng."""
    return {"quintic": _quintic, "definite": _definite,
            "wide": _wide}[workload](rng)
