"""The verdict figures of the battery, the degree 5-7 census and the pads.

    python3 tools/verdict_census.py

Runs orthomono.cli.build_report, in-process and from this checkout's
src/, at the default search and word bounds, over two sets of pairs:

- the 50-pair battery, random_cyclotomic_pairs() of tests/conftest.py:
  the Q-rank intervals [lo, hi] left open, their total gap hi - lo, and
  the pairs whose witness reads witnessed-arithmetic;
- for n = 5, 6 and 7, the pairs of pairs_by_class(n) of
  perfbench/workloads.py in the classes min(p, q) >= 2, less the pairs
  whose f and g both lie in Z[x^k] for some k >= 2: the pairs, the
  witnessed ones, the open intervals and their total gap;
- the pads: orthomono.cli.build_pad_report of each of the 11 worked
  examples of orthomono.corpus, padded by each ordered pair P != Q of
  PAD_FACTORS of perfbench/workloads.py at d = 6 and 12 (440 tries).
  The base's rank witnesses seed the padded Q-rank search, so the
  padded lo is at least the base lo.  The line gives the pads accepted,
  those rejected as invalid input (PairValidationError) and the accepted
  ones whose lo is below their base lo.

Each set's line ends with the SHA-256 of one line per pair in order:
the pair's (conclusion, translation rank, lo, hi), or for a pad its
(lo, hi, base lo, conclusion) or "rejected".  So two checkouts that
print the same line gave every pair of the set the same verdict data,
not just the same counts.  lines() returns the lines of the sets it
names, for tests/test_reports.py.

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


def _pads(cli, entries, factors) -> str:
    """The census line of the pads of the entries by the ordered pairs of
    distinct factors, at d = 6 and 12."""
    from orthomono.monodromy import PairValidationError
    accepted = rejected = below = 0
    digest = hashlib.sha256()
    for entry in entries:
        for p in factors:
            for q in factors:
                if p == q:
                    continue
                for d in (6, 12):
                    try:
                        doc = cli.build_pad_report(entry.f_text,
                                                   entry.g_text, p, q, d)
                    except PairValidationError:
                        rejected += 1
                        digest.update(b"rejected\n")
                        continue
                    accepted += 1
                    rank = doc["q_rank"]
                    base_lo = doc["padding"]["base_q_rank"]["lo"]
                    below += rank["lo"] < base_lo
                    digest.update(f"{rank['lo']} {rank['hi']} {base_lo} "
                                  f"{doc['witness']['conclusion']}\n"
                                  .encode())
    return (f"pads: {accepted} accepted, {rejected} rejected, {below} "
            f"below base lo; sha256 {digest.hexdigest()}")


def lines(sets=("battery",) + DEGREES + ("pads",)) -> list[str]:
    """The census line of each named set, in order: "battery", a degree
    n from DEGREES, or "pads"."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench"),
                    os.path.join(ROOT, "tests")]
    from orthomono import cli, corpus
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
        if key == "pads":
            out.append(_pads(cli, corpus.ENTRIES, workloads.PAD_FACTORS))
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
