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

Standard library only; it changes nothing under tests/ or perfbench/.
"""
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEGREES = (5, 6, 7)


def _tally(reports) -> tuple[int, int, int, int]:
    """(pairs, witnessed, open intervals, total gap) over the reports."""
    pairs = witnessed = open_ = gap = 0
    for doc in reports:
        pairs += 1
        witnessed += doc["witness"]["conclusion"] == "witnessed-arithmetic"
        rank = doc["q_rank"]
        if rank is not None and rank["hi"] > rank["lo"]:
            open_ += 1
            gap += rank["hi"] - rank["lo"]
    return pairs, witnessed, open_, gap


def _in_power_ring(coeffs: list[int]) -> int:
    """The largest k with the polynomial in Z[x^k], 0 for a constant."""
    return math.gcd(*(i for i, c in enumerate(coeffs) if c))


def main() -> None:
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench"),
                    os.path.join(ROOT, "tests")]
    from orthomono import cli
    from orthomono.polynomials import render
    from conftest import random_cyclotomic_pairs
    import polys
    import workloads
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"imported {cli.__file__}, not the checkout's program")

    _, witnessed, open_, gap = _tally(
        cli.build_report(render(f), render(g))
        for f, g in random_cyclotomic_pairs())
    print(f"battery: {open_} open, gap {gap}, {witnessed} witnessed")
    for n in DEGREES:
        pairs = [(f, g)
                 for cls, members in sorted(workloads.pairs_by_class(n).items())
                 if cls >= 2 for f, g in members
                 if math.gcd(_in_power_ring(polys.product(f)),
                             _in_power_ring(polys.product(g))) == 1]
        count, witnessed, open_, gap = _tally(
            cli.build_report(polys.text(f), polys.text(g)) for f, g in pairs)
        print(f"n = {n}: {count} pairs, {witnessed} witnessed, "
              f"{open_} open, gap {gap}")


if __name__ == "__main__":
    main()
