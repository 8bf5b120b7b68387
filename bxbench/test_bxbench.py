"""The benchmark's own tests, on the tiny ``smoke`` size.

Run from the repository root:

    PYTHONPATH=src python -m pytest bxbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bxbench import steady
from bxbench.layers import LAYER_METRICS
from bxbench.measure import END_TO_END, measure
from bxbench.model import Model
from bxbench.workloads import ScanCold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _smoke(workload: str, tmp_path: Path, trace: bool = False) -> dict:
    return asyncio.run(measure(workload, 3, 0.2, trace, "smoke", tmp_path))


@pytest.mark.parametrize("workload",
                         ["browse_http", "scan_cold", "curate_ingest"])
def test_each_workload_is_correct_and_reports_every_metric(workload,
                                                           tmp_path):
    report = _smoke(workload, tmp_path)
    result = report["result"]
    assert result["correct"], report["context"]["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == sum(report["context"]["samples"].values())
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    # Whole rounds only: every operation type in a fixed share.
    samples = report["context"]["samples"]
    assert samples["query"] == samples["batch"] == report["context"]["rounds"]


def test_traced_run_reports_every_layer_metric(tmp_path):
    report = _smoke("curate_ingest", tmp_path, trace=True)
    result = report["result"]
    assert result["correct"], report["context"]["failures"]
    assert list(result["metrics"]) == [name for name, _ in LAYER_METRICS]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["aservice.write_queue_wait_ms"] > 0
    assert metrics["backends.sqlite.index_build_ms"] > 0
    assert metrics["trace.unattributed.write_ms"] >= 0
    spans = Path(report["context"]["trace_file"]).read_text().splitlines()
    assert len(spans) == report["context"]["spans"]
    first = json.loads(spans[0])
    assert {"name", "start", "end", "parent", "trace"} <= set(first)


def test_corrupting_one_expected_entry_fails_the_run(monkeypatch, tmp_path):
    built = Model.__init__

    def corrupted(self, entries) -> None:
        built(self, entries)
        first = next(iter(self.versions))
        self.versions[first][-1] = replace(
            self.versions[first][-1], overview="Not what was stored.")

    monkeypatch.setattr(Model, "__init__", corrupted)
    report = _smoke("scan_cold", tmp_path)
    assert not report["result"]["correct"]
    assert report["context"]["failures"]


def test_a_query_page_off_by_one_fails_the_run(monkeypatch, tmp_path):
    served = ScanCold.query

    async def shifted(self, query_plan):
        return await served(
            self, replace(query_plan, offset=query_plan.offset + 1))

    monkeypatch.setattr(ScanCold, "query", shifted)
    report = _smoke("scan_cold", tmp_path)
    assert not report["result"]["correct"]
    # Caught on the query itself, not only by the plans at the end.
    assert any(line.startswith("query ") and " ids: " in line
               for line in report["context"]["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bxbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bxbench/run.py", "--workload", "scan_cold",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_steadiness_command_smoke(tmp_path, capsys):
    out = tmp_path / "runs.json"
    code = steady.main(["--runs", "2", "--size", "smoke", "--seconds", "0.1",
                        "--workload", "browse_http", "--out", str(out)])
    table = capsys.readouterr().out
    assert "read_p50_ms" in table and "spread" in table
    runs = json.loads(out.read_text())["browse_http"]
    assert [run["context"]["seed"] for run in runs] == [1, 2]
    assert code in (0, 1)  # 1 only flags a spread above its bound
