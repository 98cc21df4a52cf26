"""One benchmark worker: a fresh process that imports the program, then
runs a workload's commands through orthomono.cli.main in-process, one at
a time (a closed loop with one client), and checks every report.

    python3 perfbench/worker.py --spawned-at T --root DIR --probe
    python3 perfbench/worker.py --spawned-at T --root DIR --out STEM \
        --workload NAME --seed N --seconds S --trace 0|1

T is the parent's time.perf_counter() just before it started this
process.  On Linux that clock is system-wide, so setup_s (start until
orthomono.cli is imported and its argument parser built) includes
interpreter start-up.  The benchmark's own modules are imported after
that point.
"""
import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback


def _invoke(cli, argv: list[str], out: io.StringIO):
    """(exit code, error message) of cli.main(argv), stdout into out."""
    try:
        with contextlib.redirect_stdout(out):
            return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, f"SystemExit({exc.code})"
    except Exception:  # noqa: BLE001 - recorded, the run goes on
        return None, traceback.format_exc(limit=-3)


def _plain_timer(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start, None


def run_command(cli, check, timer, cmd, examples_json: str) -> dict:
    """Run one command, time it, and check what it produced.  A command
    that raises or exits with an unexpected code is recorded with its
    message; nothing it does stops the run."""
    argv = list(cmd.argv)
    if cmd.kind == "examples":
        argv += ["--json", examples_json]
    out = io.StringIO()
    (code, error), seconds, adjusted = timer(_invoke, cli, argv, out)
    rec = {"kind": cmd.kind, "argv": cmd.argv, "seconds": seconds,
           "adjusted_s": adjusted, "exit": code, "error": error, "doc": None}
    if error is None and code != 0:
        rec["error"] = f"exit code {code}: {out.getvalue()[-300:]}"
    if rec["error"] is None:
        try:
            if cmd.kind == "examples":
                with open(examples_json) as fh:
                    rec["doc"] = json.load(fh)
            else:
                rec["doc"] = json.loads(out.getvalue())
            rec.update(check.check(rec["doc"], cmd))
        except Exception as exc:  # noqa: BLE001 - a malformed report can
            # trip the checker anywhere; it is a failed command either way
            rec["error"] = f"check failed: {type(exc).__name__}: {exc}"
    return rec


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import orthomono.cli as cli
    cli.build_arg_parser()
    setup_s = time.perf_counter() - args.spawned_at
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"imported {cli.__file__}, not the checkout's program")
    import hostspeed
    setup = {"setup_s": setup_s, "probe_s": hostspeed.probe()}
    if args.probe:
        print(json.dumps(setup))
        return

    import check
    import workloads
    from tracer import Tracer

    rng = random.Random(args.seed)
    examples_json = args.out + ".examples.json"
    records: list[dict] = []
    controls: dict[str, list[str]] = {}

    def run_all(cmds, pass_index, timer=_plain_timer):
        for cmd in cmds:
            rec = run_command(cli, check, timer, cmd, examples_json)
            rec["pass"] = pass_index
            if rec["error"] is None:
                # negative control on the first good report of each shape
                shape = f"{cmd.kind}, witnessed={bool(rec.get('witnessed'))}"
                if shape not in controls:
                    controls[shape] = check.negative_control(
                        rec["doc"], cmd)
            rec.pop("doc")
            records.append(rec)

    result = {"setup": setup}
    cmds = workloads.make_pass(args.workload, rng)
    start = time.perf_counter()
    if args.trace:
        # one pass, so every count is exact for the seed; the first tenth
        # of it is also run untraced beforehand to price the tracing
        head = cmds[:max(1, len(cmds) // 10)]
        run_all(head, -1)
        untraced = sum(r["seconds"] for r in records)
        tracer = Tracer()
        tracer.install()
        try:
            for i, cmd in enumerate(cmds):
                tracer.command = i
                run_all([cmd], 0)
        finally:
            tracer.uninstall()
        traced = sum(r["seconds"] for r in records[len(head):][:len(head)])
        result["trace_overhead_s"] = traced - untraced
        result["trace_overhead_base_s"] = untraced
        result["layers"] = tracer.layers()
        tracer.dump(args.out + ".spans.jsonl")
    else:
        # whole passes, so every run measures the same mix; another pass
        # starts only if one more as long as the last still fits
        deadline = start + args.seconds
        pass_index = 0
        timer = hostspeed.AdjustedTimer()
        while True:
            t0 = time.perf_counter()
            run_all(cmds, pass_index, timer.time)
            pass_index += 1
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break
            cmds = workloads.make_pass(args.workload, rng)
        result["probes_s"] = timer.probes
    result["measured_s"] = time.perf_counter() - start
    result["records"] = records
    result["negative_control"] = controls
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out + ".worker.json", "w") as fh:
        json.dump(result, fh)
    if os.path.exists(examples_json):
        os.remove(examples_json)


if __name__ == "__main__":
    main()
