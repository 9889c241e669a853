"""Smoke tests of the benchmark harness itself, at minimal sizes.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    tracer.item = 7
    traced_outer()
    spans = {s[3]: s for s in tracer.spans}
    assert spans["inner"][2] == spans["outer"][1]  # parent id
    assert spans["outer"][2] is None
    assert all(s[0] == 7 for s in tracer.spans)
    inner_s = spans["inner"][5] - spans["inner"][4]
    outer_s = spans["outer"][5] - spans["outer"][4]
    assert abs(spans["outer"][6] - (outer_s - inner_s)) < 1e-9
    assert spans["inner"][6] == inner_s


def test_install_and_uninstall_restore_bindings():
    import vortexcascade.cascade as cascade
    import vortexcascade.cli as cli

    before = (cascade.far_field, cli.extract_charge)
    tracer = Tracer()
    tracer.install()
    try:
        assert cascade.far_field is not before[0]
        assert cli.extract_charge.__wrapped__ is before[1]
    finally:
        tracer.uninstall()
    assert (cascade.far_field, cli.extract_charge) == before


def test_item_that_exits_non_zero_is_failed(tmp_path):
    import worker

    item = worker.Item(
        "missing image", [["analyze", str(tmp_path / "none.pgm"), "--out", str(tmp_path)]],
        check=lambda stdout: {"ok": True}, truth=None,
    )
    seconds, verdict = worker.run_item(item)
    assert verdict == {"failed": True, "ok": False, "error": "exit code 2"}


def test_untraced_run_reports_end_to_end_metrics():
    proc = bench("--workload", "pulse_train", "--seed", "2", "--seconds", "1", "--trace", "0",
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_covers_every_workload_and_layer():
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"], proc.stdout
    names = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["figure3_pulse.beams.far_field.calls"] > 0
    assert metrics["figure3_pulse.pulses.synthesize_waveform.calls"] == 1
    assert metrics["readout_batch.beams.far_field.calls"] == 0
    assert metrics["readout_batch.interferometry.detect_carrier.found_frac"] == 1.0
    assert metrics["pulse_train.pulses.synthesize_waveform.calls"] == 1
    for w in WORKLOADS:
        record = json.loads(
            (ROOT / ".bench_run" / "results" / f"{w}_seed3_trace1.json").read_text()
        )
        assert record["traced_same_outputs"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "pulse_train", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
