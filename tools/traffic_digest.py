"""One SHA-256 per benchmark workload over the reports its traffic gets.

    python3 tools/traffic_digest.py

Runs the seed 1, 2 and 3 passes of every workload in
perfbench/workloads.py through orthomono.cli.main, in-process and from
this checkout's src/, and hashes each command's exit code with its
canonical report (sorted keys, indent 2, `timings` removed): the stdout
of `analyze` and `pad`, and the --json file of `examples`, which is
written to a temporary directory.  Two checkouts that print the same
lines gave every command of that traffic the same exit code and report.
digests() returns the same lines as a dict, for tests/test_reports.py.
Standard library only; it changes nothing under perfbench/.
"""
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


def digests() -> dict[str, str]:
    """The SHA-256 of each workload's traffic, by workload name."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    from orthomono import cli
    import workloads
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {cli.__file__}, "
                           "not the checkout's program")
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        examples_json = os.path.join(tmp, "examples.json")
        for name in workloads.WORKLOADS:
            digest = hashlib.sha256()
            for seed in SEEDS:
                for cmd in workloads.make_pass(name, random.Random(seed)):
                    argv = list(cmd.argv)
                    if cmd.kind == "examples":
                        argv += ["--json", examples_json]
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(argv)
                    if cmd.kind == "examples":
                        with open(examples_json) as fh:
                            text = fh.read()
                    else:
                        text = out.getvalue()
                    doc = json.loads(text)
                    doc.pop("timings", None)
                    digest.update(f"{code}\n".encode())
                    digest.update(json.dumps(doc, sort_keys=True, indent=2)
                                  .encode() + b"\n")
            result[name] = digest.hexdigest()
    return result


def main() -> None:
    for name, hexdigest in digests().items():
        print(f"{name} {hexdigest}")


if __name__ == "__main__":
    main()
