"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest e2ebench/selftest.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0


@pytest.mark.parametrize("workload", list(run.BATCH))
def test_traced_and_untraced_records_are_byte_identical(workload, tmp_path):
    records = []
    for trace in (False, True):
        report = tmp_path / f"report-{trace}.json"
        args, record = run.batch_command(workload, 0, True, trace, tmp_path / f"out-{trace}")
        done = subprocess.run(
            [*run._launcher(report, trace), "--", *args], cwd=ROOT, env=run.child_env(),
            stdout=subprocess.DEVNULL, timeout=300,
        )
        assert done.returncode == 0
        assert ("trace" in json.loads(report.read_text(encoding="utf-8"))) is trace
        records.append(record.read_bytes())
    assert records[0] == records[1]


def test_tree_peak_sums_child_and_grandchild():
    import proctree

    grandchild = "import time; b = bytearray(40 << 20); time.sleep(1.0)"
    child = subprocess.Popen([sys.executable, "-c", (
        "import subprocess, sys; a = bytearray(60 << 20); "
        f"subprocess.run([sys.executable, '-c', {grandchild!r}])")])
    peak = proctree.TreePeak(child.pid)
    child.wait(timeout=60)
    assert peak.stop() > 100
    assert len(peak._peaks) == 2


def test_serve_phase_fails_when_the_daemon_stops_answering(monkeypatch):
    import socket

    import serve_session

    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(serve_session, "PHASE_TIMEOUT_S", 1.0)
    with socket.create_server(("127.0.0.1", 0)) as silent:
        silent.listen(serve_session.CONNECTIONS)
        driver = serve_session._Driver(silent.getsockname())
        try:
            with pytest.raises(TimeoutError):
                driver.run(serve_session.Phase([{"verb": "score", "tokens": ["a"]}] * 50))
        finally:
            driver.close()


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "e2ebench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "e2ebench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "roni-stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
