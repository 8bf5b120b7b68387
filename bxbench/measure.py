"""One benchmark run: set up, measure, check, and report one workload.

``measure()`` returns the report that ``run.py`` prints: the result
object (``correct``, ``attempted``, ``failed``, ``metrics``) and a
context object stamped with the machine facts, sample counts and any
disagreement with the model.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

from bxbench.layers import LAYER_METRICS, layer_metrics
from bxbench.tracing import Tracer
from bxbench.workloads import OP_KINDS, WORKLOADS, Phase

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("wiki_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_user_byte", "B/B"),
)


def machine_facts(directory: Path) -> dict[str, object]:
    """What makes two runs comparable: cores, Python, CPU, filesystem."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "data_fs": filesystem_type(directory),
    }


def filesystem_type(directory: Path) -> str:
    """The type of the mount holding ``directory`` (from /proc/mounts)."""
    target = str(directory.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1]
                inside = target == point or target.startswith(
                    point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def _measured_phase(phase: Phase, *, seconds: float | None = None,
                          rounds: int | None = None) -> tuple:
    """Warm up, then measure; returns (counters before, after, window)."""
    phase.start_reference()
    await phase.run_rounds(count=phase.workload.size.warmup_rounds,
                           record=False)
    before = phase.stack.counters()
    start = time.perf_counter()
    await phase.run_rounds(count=rounds, seconds=seconds)
    end = time.perf_counter()
    return before, phase.stack.counters(), (start, end)


async def measure(workload_name: str, seed: int, seconds: float,
                  trace: bool, size: str, data_root: Path) -> dict:
    """Run one workload; returns {"result": ..., "context": ...}."""
    workload = WORKLOADS[workload_name](seed, size)
    data = data_root / f"{workload_name}-{os.getpid()}"
    try:
        return await _measure(workload, seconds, trace, data, data_root)
    finally:
        shutil.rmtree(data, ignore_errors=True)


async def _measure(workload, seconds, trace, data, data_root) -> dict:
    phase = Phase(workload, data / "run")
    await phase.set_up()
    await _measured_phase(phase, seconds=seconds)
    peak_rss = _peak_rss_mb()
    await phase.check_final_state()
    stored = await phase.tear_down()
    # The further set-ups that setup_s takes its median over come after
    # the measured phase, so their file churn cannot slow it down.  A
    # traced run reports no setup_s and skips them.
    setups = [phase.setup_s]
    for index in range(0 if trace else workload.size.setups - 1):
        spare = Phase(workload, data / f"spare{index}")
        await spare.set_up()
        setups.append(spare.setup_s)
        await spare.tear_down()
    metrics = {"setup_s": statistics.median(setups), **phase.end_to_end(),
               "peak_rss_mb": peak_rss,
               "stored_bytes_per_user_byte": stored / phase.model.user_bytes()}
    checks = [phase.checks]
    attempted, failed = phase.recorder.attempted, phase.recorder.failed
    context = {
        "rounds": phase.measured_rounds,
        "samples": {kind: len(phase.recorder.samples[kind])
                    for kind in OP_KINDS},
    }
    units = dict(END_TO_END)
    if trace:
        tracer = Tracer()
        traced = Phase(workload, data / "traced", tracer)
        await traced.set_up()
        before, after, window = await _measured_phase(
            traced, rounds=phase.measured_rounds)
        await traced.check_final_state()
        await traced.tear_down()
        checks.append(traced.checks)
        attempted += traced.recorder.attempted
        failed += traced.recorder.failed
        context["untraced"] = {name: round(metrics[name], 6)
                               for name, _ in END_TO_END}
        metrics = layer_metrics(traced, tracer, before, after, window,
                                metrics)
        units = dict(LAYER_METRICS)
        trace_file = (data_root / "traces"
                      / f"{workload.name}-seed{workload.seed}.jsonl")
        tracer.dump(trace_file)
        context["trace_file"] = str(trace_file)
        context["spans"] = len(tracer.spans)
    context["compared"] = sum(check.compared for check in checks)
    context["failures"] = [line for check in checks
                           for line in check.failures]
    result = {
        "correct": all(check.ok for check in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    return {"result": result, "context": context}
