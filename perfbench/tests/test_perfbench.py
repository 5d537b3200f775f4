"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from common import Span, Tracer, sample_positions  # noqa: E402
from run import result_line  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_end_to_end_at_tiny_size(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _bench_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_answer_counts_as_failure():
    params = workloads.WORKLOADS["paper-queries"]["sizes"]["tiny"]
    _, spg_pairs, _ = workloads.make_paper_inputs(params, 4)
    audited = sample_positions(min(200, len(spg_pairs)),
                               params["spg_checks"], 4)
    target = spg_pairs[audited[0]]

    def corrupt(index):
        honest = index.query

        def query(u, v):
            spg = honest(u, v)
            if (u, v) != target:
                return spg
            return type(spg)(u, v, spg.distance + 1, spg.edges)

        index.query = query
        return index

    report = workloads.run("paper-queries", 4, 0.5, False, "tiny",
                           wrap_index=corrupt)
    assert report.outcome.mismatches == 1
    assert report.outcome.failed >= 1
    result = result_line(report, trace=False)
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_inputs(name):
    same = workloads.input_fingerprint(name, 5, "tiny")
    assert workloads.input_fingerprint(name, 5, "tiny") == same
    assert workloads.input_fingerprint(name, 6, "tiny") != same


def test_benchmark_json_matches_the_code():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for entry in bench["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]]["why"]
        assert len(entry["why"]) <= 200
    assert [m["name"] for m in bench["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == \
        list(workloads.PER_LAYER)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == workloads.unit_of(metric["name"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def _group(pgid):
    """Live (non-zombie) processes of a process group, with cmdlines."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            stat = Path(f"/proc/{entry}/stat").read_bytes()
            cmd = Path(f"/proc/{entry}/cmdline").read_bytes()
        except (OSError, ValueError):
            continue
        fields = stat[stat.rindex(b")") + 2:].split()
        if fields[0] != b"Z" and int(fields[2]) == pgid:
            found.append(cmd.replace(b"\0", b" ").decode())
    return found


def _start(*args):
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_no_process_outlives_a_run():
    proc = _start("--workload", "http-read", "--seed", "3", "--seconds",
                  "1", "--trace", "1", "--size", "tiny")
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err[-3000:]
    assert _group(proc.pid) == []


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigterm_mid_run_ends_every_process():
    proc = _start("--workload", "http-read", "--seed", "3", "--seconds",
                  "30", "--trace", "0", "--size", "tiny")
    try:
        deadline = time.monotonic() + 120
        while not any("repro serve" in c for c in _group(proc.pid)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.1)
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode != 0
    assert b"metrics" not in out
    assert _group(proc.pid) == []


def test_tracer_self_time_and_uncovered_share():
    tracer = Tracer(True)
    tracer.spans = [
        Span("request", 0.0, 10.0, -1, 1),
        Span("serving.http", 1.0, 9.0, 0, 1),
        Span("core.sketch", 2.0, 4.0, 1, 1),
        Span("core.sketch", 3.0, 5.0, 1, 1),     # overlaps its sibling
    ]
    summary = tracer.summary()
    assert summary["trace.uncovered_share"] == pytest.approx(0.2)
    assert summary["trace.self_share.serving"] == pytest.approx(0.5)
    assert summary["trace.self_share.core"] == pytest.approx(0.4)
    assert summary["trace.self_share.shard"] == 0.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.request(), tracer.span("core.sketch"):
        pass
    assert tracer.spans == []
    assert tracer.summary()["trace.uncovered_share"] == 0.0
