"""A/B timing of one workload pass: this checkout against another one.

    python3 tools/ab_pass.py OTHER_CHECKOUT [--workload W] [--rounds N]

Imports orthomono twice in one process, from this checkout's src/ and
from OTHER_CHECKOUT/src/, as two separate sets of modules.  Then it runs
the seed-1 pass of workload W (default quintic) of perfbench/workloads.py,
which it only reads, through each one's cli.main: one untimed warm-up
pass each, then N rounds (default 10), each timing one pass on both
sides, the side that goes first alternating from round to round.  Every
command is timed with time.perf_counter, its output discarded.

For each command kind, and for the whole pass, it prints the median over
the rounds of the time ratio this / other (below 1: this checkout is
faster), the lower and upper quartiles of that ratio, the number of
rounds in which this checkout was faster, and the two sides' median
times.  A command whose exit code differs between the two sides stops
the run.  Standard library only; it changes nothing under perfbench/.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "orthomono"


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def load(checkout: str) -> tuple[object, dict]:
    """(cli module, every package module) of orthomono imported afresh
    from checkout/src; a RuntimeError if it came from anywhere else."""
    for name in _package_modules():
        del sys.modules[name]
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module(PACKAGE + ".cli")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {cli.__file__}, not {src}'s program")
    return cli, _package_modules()


def run_pass(side: tuple[object, dict], commands) -> list[tuple[int, float]]:
    """(exit code, seconds) of each command run through side's cli.main,
    with side's modules in sys.modules while it runs."""
    cli, modules = side
    sys.modules.update(modules)
    gc.collect()
    out = []
    for cmd in commands:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main(list(cmd.argv))
            out.append((code, time.perf_counter() - start))
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    """(lower, upper) quartile of values, by the inclusive method, which
    keeps both within the values; a single value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", metavar="OTHER_CHECKOUT")
    ap.add_argument("--workload", default="quintic")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    commands = workloads.make_pass(args.workload, random.Random(1))
    kinds = sorted({cmd.kind for cmd in commands})

    sides = {"this": load(ROOT), "other": load(args.other)}
    for side in sides.values():
        run_pass(side, commands)
    times = {name: [] for name in sides}
    for r in range(args.rounds):
        order = ("this", "other") if r % 2 == 0 else ("other", "this")
        result = {name: run_pass(sides[name], commands) for name in order}
        for i, cmd in enumerate(commands):
            if result["this"][i][0] != result["other"][i][0]:
                raise SystemExit(f"exit codes differ on {' '.join(cmd.argv)}: "
                                 f"{result['this'][i][0]} here, "
                                 f"{result['other'][i][0]} there")
        for name in sides:
            per_kind = dict.fromkeys(kinds, 0.0)
            for cmd, (_, seconds) in zip(commands, result[name]):
                per_kind[cmd.kind] += seconds
            per_kind["pass"] = sum(per_kind.values())
            times[name].append(per_kind)

    print(f"workload {args.workload}, seed 1, {args.rounds} rounds; "
          f"this = {ROOT}, other = {os.path.abspath(args.other)}")
    print(f"{'kind':<10} {'commands':>8} {'this/other':>10} {'q1':>6} "
          f"{'q3':>6} {'faster':>7} {'this ms':>9} {'other ms':>9}")
    for kind in kinds + ["pass"]:
        count = len(commands) if kind == "pass" else sum(
            cmd.kind == kind for cmd in commands)
        this = [t[kind] for t in times["this"]]
        other = [t[kind] for t in times["other"]]
        ratios = [a / b for a, b in zip(this, other)]
        q1, q3 = quartiles(ratios)
        faster = f"{sum(a < b for a, b in zip(this, other))}/{args.rounds}"
        print(f"{kind:<10} {count:>8} {statistics.median(ratios):>10.3f} "
              f"{q1:>6.3f} {q3:>6.3f} {faster:>7} "
              f"{1e3 * statistics.median(this):>9.2f} "
              f"{1e3 * statistics.median(other):>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
