"""Run one workload of the repository's benchmark and print its result.

    python3 bxbench/run.py --workload browse_http --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  The line before it stamps the
run with the machine facts, the sample counts and the first
disagreements with the model, if any.  The exit code is 0 only when
every output matched the model.

The program under test is imported from ``src/`` next to this
directory; data goes to ``.bxbench_data/`` there and is removed after
the run, except the span file of a traced run.  The process pins
itself, and so every thread it starts, to one CPU.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("browse_http", "scan_cold", "curate_ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny corpus, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bxbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bxbench.measure import machine_facts, measure

    # One CPU for the whole run: on a small shared machine the other
    # CPU's load from other tenants otherwise decides how long every
    # cross-thread hand-off takes, and runs stop being comparable.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    data_root = ROOT / ".bxbench_data"
    data_root.mkdir(exist_ok=True)
    report = asyncio.run(measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.size, data_root))
    result, context = report["result"], report["context"]
    for line in context["failures"]:
        print(f"bxbench: mismatch: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "size": args.size,
                      "machine": machine_facts(data_root),
                      "pinned_cpu": cpu, **context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
