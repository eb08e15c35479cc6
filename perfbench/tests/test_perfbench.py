"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

The smoke test runs every workload at small parameters through
``sets.py`` (about a minute on two vCPUs).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import host, stats  # noqa: E402
from perfbench.clock import SpeedClock  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(100)), 0.9) == 89
    assert stats.percentile(list(range(99)), 0.9) is None
    assert stats.percentile(list(range(20)), 0.5) == 9
    assert stats.percentile(list(range(19)), 0.5) is None
    assert stats.percentile([], 0.5) is None
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.0)


def test_metric_names_and_units_match_the_pattern_and_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == stats.END_TO_END
    assert declared_layer == stats.PER_LAYER
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOAD_NAMES
    names = (
        list(declared_e2e) + list(declared_layer)
        + [w["name"] for w in bench["workloads"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert stats.NAME_PATTERN.match(name), name
    for unit in list(declared_e2e.values()) + list(declared_layer.values()):
        assert stats.UNIT_PATTERN.match(unit), unit
    for bad in ("_wall", "wall s", "a" * 65, ""):
        assert not stats.NAME_PATTERN.match(bad)


def test_tracer_records_only_active_calls_and_restores():
    class Layer:
        def call(self, x):
            return x + 1

    original = Layer.call
    tracer = Tracer(enabled=True)
    tracer.patch(Layer, "call", "layer.call")
    assert Layer().call(1) == 2  # inactive: not recorded
    tracer.active = True
    with tracer.span("outer"):
        assert Layer().call(2) == 3
    tracer.active = False
    totals = tracer.totals()
    assert totals["layer.call"][1] == 1 and totals["outer"][1] == 1
    assert tracer.spans[1].parent == 0
    tracer.restore()
    assert Layer.call is original


def test_speed_clock_scales_by_the_kernel_and_never_times_its_ticks():
    # A tick kernel taking twice the reference time: the clock runs at
    # half speed.  Each tick runs the kernel twice and times the second.
    def probe():  # busy-waits: a sleep may overshoot by milliseconds
        end = time.perf_counter() + 0.004
        while time.perf_counter() < end:
            pass

    clock = SpeedClock(period=0.02, reference=0.002, probe=probe)
    begin = time.perf_counter()
    clock.start()
    while time.perf_counter() - begin < 0.5:
        pass
    clocked = clock.stop()
    wall = time.perf_counter() - begin
    assert clock.ticks >= 10
    assert clock.raw < wall - clock.ticks * 0.008
    assert clocked == pytest.approx(clock.raw / 2, rel=0.25)
    assert clock.now() == clocked  # frozen once stopped


def test_peak_rss_reset_forgets_memory_freed_before_it():
    block = b"x" * (100 * 2**20)  # 100 MB, written
    del block
    high = host.peak_rss_mb()
    host.reset_peak_rss()
    low = host.peak_rss_mb()
    assert high - low > 80
    block = b"x" * (50 * 2**20)
    assert host.peak_rss_mb() - low > 40
    del block


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-j1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_small_sets_run_every_workload_and_counts_repeat(tmp_path):
    out = tmp_path / "runs.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/sets.py", "--small", "--reps", "1",
         "--traced", "2", "--seconds", "0.5", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(out.read_text())
    for workload in WORKLOAD_NAMES:
        mine = [r for r in runs if r["workload"] == workload]
        assert len(mine) == 3
        for run in mine:
            result = run["result"]
            assert set(result) == RESULT_KEYS
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            expected = stats.PER_LAYER if run["trace"] else stats.END_TO_END
            assert {
                name: m["unit"] for name, m in result["metrics"].items()
            } == expected
        first, second = (r["result"]["metrics"] for r in mine if r["trace"])
        for name in stats.COUNTS:
            assert first[name]["value"] == second[name]["value"], name
        assert f"== {workload}" in proc.stdout
    assert "tracing overhead" in proc.stdout
