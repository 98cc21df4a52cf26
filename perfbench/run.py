"""Benchmark of the orthomono command line, run from a checkout's root:

    python3 perfbench/run.py --workload quintic|definite|wide --seed N \
        --seconds S --trace 0|1

Workloads (closed loop, one client; see workloads.py):
  quintic   `analyze` on the 11 worked-example pairs plus `examples`; the
            seed only permutes the order.  The witness search is the work.
  definite  `analyze` on definite pairs of degree 4-6: the Q-rank box
            search enumerates everything and finds nothing.
  wide      `analyze` on pairs of degree 8-12 and `pad` to degree 17: all
            box searches are over the cap, so forms and bookkeeping remain.

Each run starts fresh worker processes (worker.py), which import the
program and call orthomono.cli.main in-process, one command at a time.
Every report is checked by check.py; a command that raises, exits with an
unexpected code or fails the check counts as failed and the run goes on.

--trace 0 prints the end-to-end metrics.  Set-up and command times are in
reference-speed seconds (hostspeed.py), because the speed of a CPU of a
shared host swings within seconds; the wall-clock figures are kept in the
run record.  --trace 1 runs one pass under the outside-in tracer
(tracer.py) and prints the per-layer metrics; trace.overhead_s is the
first tenth of the pass run traced minus the same commands run untraced.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the full record of the run, with every command, the host
calibration and, when traced, the spans, goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("quintic", "definite", "wide")

SETUP_PROBES = 5     # before and again after the worker, so 2 x 5 + 1
RUN_LIMIT_S = 170      # every run ends well inside the 180 s allowed
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10

# per-layer metrics printed with --trace 1: (function, statistic, unit).
# Times are only given for functions every workload calls; the others'
# times are in the run record, beside their counts.
PER_LAYER = (
    ("quadform.witt_decompose", "self_s", "s"),
    ("quadform.witt_decompose", "vec_dot", "count"),
    ("quadform.q_rank", "calls", "count"),
    ("quadform.q_rank", "self_s", "s"),
    ("quadform.isotropic_search", "calls", "count"),
    ("quadform.isotropic_search", "vec_dot", "count"),
    ("quadform.isotropic_search", "found", "count"),
    ("quadform.isotropic_search", "budget_errors", "count"),
    ("witness.WitnessContext.word_orbit", "calls", "count"),
    ("witness.WitnessContext.word_orbit", "orbit_size", "count"),
    ("witness.span_rank_witness", "calls", "count"),
    ("witness.span_rank_witness", "rank", "count"),
    ("witness.reflection_matrix", "calls", "count"),
    ("witness.integral_reflection_vectors", "calls", "count"),
    ("witness.integral_reflection_vectors", "vec_dot", "count"),
    ("witness.unipotent_from_reflections", "calls", "count"),
    ("witness.unipotent_from_reflections", "hits", "count"),
    ("witness.unipotent_from_reflections", "hit_ratio", "ratio"),
    ("witness.arithmeticity_report", "calls", "count"),
    ("witness.arithmeticity_report", "witnessed", "count"),
    ("witness.arithmeticity_report", "self_s", "s"),
    ("witness.WitnessContext.init", "self_s", "s"),
    ("linalg.inverse", "calls", "count"),
    ("linalg.rank", "calls", "count"),
    ("linalg.mat_mul", "calls", "count"),
    ("linalg.vec_dot", "calls", "count"),
    ("monodromy.build_pair", "calls", "count"),
    ("monodromy.build_pair", "self_s", "s"),
    ("quadform.invariant_space", "calls", "count"),
    ("quadform.signature", "calls", "count"),
    ("quadform.signature", "self_s", "s"),
    ("quadform.gram_remainder", "self_s", "s"),
    ("quadform.gram_invariance", "self_s", "s"),
    ("padding.pad_pair", "calls", "count"),
    ("cli.build_report", "self_s", "s"),
    ("cli.serialize_report", "self_s", "s"),
    ("cli.serialize_report", "bytes", "count"),
    ("parsing.parse_poly", "self_s", "s"),
)


def spawn_worker(extra: list[str], timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--spawned-at", repr(time.perf_counter()), "--root", ROOT, *extra]
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)


def probe_setup(samples: list[dict]) -> bool:
    """Start SETUP_PROBES fresh workers that only set up; add what each
    measured to samples.  False, with the error shown, if one fails."""
    for _ in range(SETUP_PROBES):
        probe = spawn_worker(["--probe"], timeout=30)
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            return False
        samples.append(json.loads(probe.stdout))
    return True


def adjusted_setup(sample: dict) -> float:
    """Set-up seconds at reference speed, by the probe the worker ran as
    soon as it was set up."""
    return sample["setup_s"] * hostspeed.PROBE_NOMINAL_S / sample["probe_s"]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile of
    the ladder with at least TAIL_BEYOND samples above its nearest-rank
    position, or the maximum when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100.0, 0


def end_to_end(work: dict, setup: list[dict]) -> tuple[dict, dict]:
    """(metrics, details) of an untraced run.  Over the orthogonal
    analyses (analyze and pad reports), decided_share is the share with
    lo == hi and open_ranks the mean of hi - lo + 1, the number of Q-ranks
    the certificate leaves possible.  ok_share is the share of commands
    attempted that did not fail.  Times are in reference-speed seconds;
    the wall-clock figures are in the details."""
    recs = work["records"]
    times = [r["adjusted_s"] for r in recs]
    wall = [r["seconds"] for r in recs]
    pairs = [r for r in recs if "lo" in r]
    t_val, t_pct, t_beyond = tail(times)
    failed = sum(1 for r in recs if r["error"] is not None)
    metrics = {
        "setup_s": (statistics.median(adjusted_setup(x) for x in setup), "s"),
        "command_s.p50": (statistics.median(times), "s"),
        "command_s.tail": (t_val, "s"),
        "commands_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (work["peak_rss_kb"] / 1024, "MB"),
        "decided_share": (sum(r["lo"] == r["hi"] for r in pairs)
                          / max(len(pairs), 1), "share"),
        "open_ranks": (statistics.fmean(r["hi"] - r["lo"] + 1 for r in pairs)
                       if pairs else 0.0, "ranks"),
        "ok_share": ((len(recs) - failed) / len(recs), "share"),
    }
    details = {
        "wall": {"setup_s": statistics.median(x["setup_s"] for x in setup),
                 "command_s.p50": statistics.median(wall),
                 "command_s.tail": tail(wall)[0],
                 "commands_per_s": len(wall) / sum(wall)},
        "probe_s": {"median": statistics.median(work["probes_s"]),
                    "min": min(work["probes_s"]),
                    "max": max(work["probes_s"]),
                    "count": len(work["probes_s"])},
        "setup_samples": setup,
        "command_samples": len(times),
        "tail_percentile": t_pct,
        "tail_samples_beyond": t_beyond,
        "passes": 1 + max(r["pass"] for r in recs),
        "failed_share": failed / len(recs),
        "witnessed_share": sum(bool(r.get("witnessed")) for r in pairs)
        / max(len(pairs), 1),
        "rank_gap": statistics.fmean(r["hi"] - r["lo"] for r in pairs)
        if pairs else None,
        "orthogonal_analyses": len(pairs),
    }
    return metrics, details


def per_layer(work: dict, calib: list[float]) -> dict:
    layers = work["layers"]
    metrics = {}
    for fn, stat, unit in PER_LAYER:
        stats = layers.get(fn, {})
        if stat == "budget_errors":
            value = stats.get("errors.SearchBudgetError", 0)
        elif stat == "hit_ratio":
            value = stats.get("hits", 0) / stats["calls"] \
                if stats.get("calls") else 0.0
        else:
            value = stats.get(stat, 0)
        metrics[f"{fn}.{stat}"] = (value, unit)
    metrics["trace.overhead_s"] = (work["trace_overhead_s"], "s")
    metrics["host.calib_s"] = (statistics.fmean(calib), "s")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    begun = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "orthomono", "cli.py")):
        sys.stderr.write(f"no orthomono sources under {ROOT}/src\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    calib = [hostspeed.reference_loop(hostspeed.CALIB_ITERATIONS)]
    setup: list[dict] = []
    if not args.trace and not probe_setup(setup):
        return 1
    left = RUN_LIMIT_S - (time.perf_counter() - begun)
    try:
        proc = spawn_worker(
            ["--out", stem, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=left)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker did not finish within {left:.0f} s\n")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    with open(stem + ".worker.json") as fh:
        work = json.load(fh)
    os.remove(stem + ".worker.json")
    if not args.trace and not probe_setup(setup):
        return 1
    calib.append(hostspeed.reference_loop(hostspeed.CALIB_ITERATIONS))

    recs = work["records"]
    failed = sum(1 for r in recs if r["error"] is not None)
    leaks = {k: v for k, v in work["negative_control"].items() if v}
    if args.trace:
        metrics, details = per_layer(work, calib), {
            "trace_overhead_base_s": work["trace_overhead_base_s"],
            "layers": work["layers"],
            "spans": os.path.relpath(stem + ".spans.jsonl", ROOT)}
    else:
        metrics, details = end_to_end(work, [work["setup"]] + setup)
    correct = failed == 0 and not leaks and bool(work["negative_control"])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct,
        "host_calib_s": {"start": calib[0], "end": calib[1]},
        "measured_s": work["measured_s"],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **details,
        "negative_control": work["negative_control"],
        "failures": [{"argv": r["argv"], "error": r["error"]}
                     for r in recs if r["error"] is not None],
        "commands": recs,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    for r in recs:
        if r["error"] is not None:
            sys.stderr.write(f"FAILED {' '.join(r['argv'])}: {r['error']}\n")
    for shape, labels in leaks.items():
        sys.stderr.write(f"checker accepted tampered {shape}: {labels}\n")
    print(json.dumps({
        "correct": correct, "attempted": len(recs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
