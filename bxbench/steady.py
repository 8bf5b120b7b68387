"""Steadiness check: run each workload N times and show the spread.

    python3 bxbench/steady.py --runs 10 --seconds 10
    python3 bxbench/steady.py --runs 2 --size smoke --seconds 0.3

Each run is a fresh ``run.py`` process; run ``k`` of a workload uses seed
``k`` (1 to N).  For every end-to-end metric the table gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median; a spread above the metric's bound in
``BENCHMARK.json`` is flagged.  Runs stamped with different machine
facts are refused rather than pooled.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("browse_http", "scan_cold", "curate_ingest")


def run_once(workload: str, seed: int, seconds: float,
             size: str) -> tuple[dict, dict]:
    """One fresh process; returns (context line, result line)."""
    start = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}")
    context = json.loads(lines[-2])
    context["wall_s"] = round(time.monotonic() - start, 1)
    return context, json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def bounds() -> dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all three")
    parser.add_argument("--out", type=Path,
                        help="also write every run's lines to this file")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    limits = bounds()
    flagged = 0
    machines: set[str] = set()
    raw: dict[str, list] = {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(1, args.runs + 1):
            context, result = run_once(workload, seed, args.seconds,
                                       args.size)
            machines.add(json.dumps(context["machine"], sort_keys=True))
            if len(machines) > 1:
                print("steady: runs came from different machines or "
                      f"filesystems: {sorted(machines)}", file=sys.stderr)
                return 2
            runs.append((context, result))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        raw[workload] = [{"context": c, "result": r} for c, r in runs]
        if args.out is not None:
            args.out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
        walls = [context["wall_s"] for context, _ in runs]
        print(f"\n{workload}: {args.runs} runs, "
              f"{statistics.mean(walls):.1f} s each (max {max(walls)}), "
              f"machine {runs[0][0]['machine']}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0][1]["metrics"]:
            values = [r["metrics"][name]["value"] for _, r in runs]
            median, q1, q3, rel = spread(values)
            bound = limits.get(name)
            flag = ""
            if bound is not None and rel > bound:
                flag = "  OVER BOUND"
                flagged += 1
            print(f"  {name:28} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{rel:8.3f} {bound if bound is not None else '-':>6}"
                  f"{flag}")
        shares = {r["failed"] / r["attempted"] for _, r in runs}
        incorrect = sum(not r["correct"] for _, r in runs)
        print(f"  failed share per run: {sorted(shares)}; "
              f"incorrect runs: {incorrect}")
        flagged += incorrect
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
