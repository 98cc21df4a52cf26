"""The verdict figures of the battery and the degree 5-7 census.

    python3 tools/verdict_census.py

Runs orthomono.cli.build_report, in-process and from this checkout's
src/, at the default search and word bounds, over two sets of pairs:

- the 50-pair battery, random_cyclotomic_pairs() of tests/conftest.py:
  the Q-rank intervals [lo, hi] left open, their total gap hi - lo, and
  the pairs whose witness reads witnessed-arithmetic;
- for n = 5, 6 and 7, the pairs of pairs_by_class(n) of
  perfbench/workloads.py in the classes min(p, q) >= 2, less the pairs
  whose f and g both lie in Z[x^k] for some k >= 2: the pairs, the
  witnessed ones, the open intervals and their total gap.

Each set's line ends with the SHA-256 of its pairs' (conclusion,
translation rank, lo, hi), one line per pair in order, so two checkouts
that print the same line gave every pair of the set the same verdict
data, not just the same counts.  lines() returns the lines of the sets
it names, for tests/test_reports.py.

Standard library only; it changes nothing under tests/ or perfbench/.
"""
import hashlib
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEGREES = (5, 6, 7)


def _tally(reports) -> tuple[int, int, int, int, str]:
    """(pairs, witnessed, open intervals, total gap, SHA-256 of the
    per-pair verdict data) over the reports."""
    pairs = witnessed = open_ = gap = 0
    digest = hashlib.sha256()
    for doc in reports:
        pairs += 1
        witness = doc["witness"]
        witnessed += witness["conclusion"] == "witnessed-arithmetic"
        rank = doc["q_rank"]
        lo, hi = (rank["lo"], rank["hi"]) if rank else (None, None)
        if rank and hi > lo:
            open_ += 1
            gap += hi - lo
        digest.update(f"{witness['conclusion']} {witness['translation_rank']}"
                      f" {lo} {hi}\n".encode())
    return pairs, witnessed, open_, gap, digest.hexdigest()


def _in_power_ring(coeffs: list[int]) -> int:
    """The largest k with the polynomial in Z[x^k], 0 for a constant."""
    return math.gcd(*(i for i, c in enumerate(coeffs) if c))


def lines(sets=("battery",) + DEGREES) -> list[str]:
    """The census line of each named set, in order: "battery", or a
    degree n from DEGREES."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench"),
                    os.path.join(ROOT, "tests")]
    from orthomono import cli
    from orthomono.polynomials import render
    from conftest import random_cyclotomic_pairs
    import polys
    import workloads
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {cli.__file__}, "
                           "not the checkout's program")
    out = []
    for key in sets:
        if key == "battery":
            _, witnessed, open_, gap, sha = _tally(
                cli.build_report(render(f), render(g))
                for f, g in random_cyclotomic_pairs())
            out.append(f"battery: {open_} open, gap {gap}, {witnessed} "
                       f"witnessed; sha256 {sha}")
            continue
        pairs = [(f, g)
                 for cls, members in sorted(
                     workloads.pairs_by_class(key).items())
                 if cls >= 2 for f, g in members
                 if math.gcd(_in_power_ring(polys.product(f)),
                             _in_power_ring(polys.product(g))) == 1]
        count, witnessed, open_, gap, sha = _tally(
            cli.build_report(polys.text(f), polys.text(g)) for f, g in pairs)
        out.append(f"n = {key}: {count} pairs, {witnessed} witnessed, "
                   f"{open_} open, gap {gap}; sha256 {sha}")
    return out


def main() -> None:
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
