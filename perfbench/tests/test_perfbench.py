"""Tests of the benchmark itself: tracer arithmetic, wrapper hygiene, smoke runs.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hermspec  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EXIT_PATHS, TARGETS, Tracer, leaked_wrappers  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_synthetic_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
    a = tr.open("a")
    clock.now = 1.0
    b = tr.open("b")
    clock.now = 4.0
    tr.close(b)
    clock.now = 5.0
    c = tr.open("c")
    clock.now = 6.0
    d = tr.open("spectra.d")
    clock.now = 8.0
    tr.close(d)
    clock.now = 9.0
    tr.close(c)
    clock.now = 10.0
    tr.close(a)
    assert tr.self_s == {"a": 3.0, "b": 3.0, "c": 2.0, "spectra.d": 2.0}
    assert tr.calls == {"a": 1, "b": 1, "c": 1, "spectra.d": 1}
    assert tr.edges == {(None, "a"): 1, ("a", "b"): 1, ("a", "c"): 1, ("c", "spectra.d"): 1}
    assert c.spectra_s == 2.0 and a.spectra_s == 0.0
    # Self times partition the root's duration.
    assert sum(tr.self_s.values()) == 10.0


def test_spans_must_close_in_order():
    tr = Tracer(clock=FakeClock())
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_traced_run_restores_every_binding():
    originals = {
        (mod, name): getattr(sys.modules[f"hermspec.{mod}"], name)
        for mod, name in TARGETS if "." not in name
    }
    texts = workloads.generate_mix(3, 40)
    tr = Tracer()
    tr.install()
    try:
        assert leaked_wrappers(), "install wrapped nothing"
        workloads.run_census(n_max=3)
        result = workloads.run_classify(texts, None)
    finally:
        tr.uninstall()
    assert leaked_wrappers() == []
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[f"hermspec.{mod}"], name) is fn
    assert hermspec.char_poly is originals[("spectra", "char_poly")]
    layers = tr.metrics()
    assert layers["census.verify_main_theorem.calls"] == 1
    assert layers["classify.classify_threshold.calls"] >= 40
    assert sum(layers[f"classify.exit.{p}.calls"] for p in EXIT_PATHS) == (
        layers["classify.classify_threshold.calls"]
    )
    assert layers["mgfile.parse_mgfile.calls"] == result["items"] == 40


def test_census_smoke():
    assert workloads.run_census(n_max=3)["failed"] == 0


def test_classify_mix_smoke():
    texts = workloads.generate_mix(7, 60)
    assert texts == workloads.generate_mix(7, 60)
    assert texts != workloads.generate_mix(8, 60)
    result = workloads.run_classify(texts, None)
    assert result["items"] == 60
    assert workloads.count_failures(texts, result["verdicts"]) == 0
    # A wrong verdict and a raising item both count as failures.
    bad = list(result["verdicts"])
    bad[0] = not bad[0]
    bad[1] = None
    assert workloads.count_failures(texts, bad) == 2


def test_workers_smoke():
    census = run.spawn("census5", {"n_max": 3})
    assert census["failed"] == 0 and census["items"] == 40
    texts = run.spawn("generate", {"seed": 5, "count": 30})["texts"]
    mix = run.spawn("classify_mix", {"texts": texts, "seconds": None}, trace=True)
    assert mix["failed"] == 0 and mix["items"] == 30
    assert mix["leaks"] == []
    assert mix["layers"]["mgfile.parse_mgfile.calls"] == 30
    assert 0 < mix["setup_s"] < 30


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layers = set(Tracer().metrics()) | {
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_ratio",
    }
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "throughput_per_s", "latency_p50_ms", "latency_p99_ms",
        "peak_rss_mb",
    }


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 201)]
    assert run.percentile(values, 50) == 100.0
    assert run.percentile(values, 99) == 198.0
    assert run.percentile([3.0], 99) == 3.0


def test_windows_group_calls_by_end_time():
    latencies = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    ends = [0.5, 1.5, 2.5, 9.0, 9.9, 10.0]
    assert run.WINDOWS == 5
    assert run.windows(latencies, ends, 10.0) == [[0.1, 0.2], [0.3], [], [], [0.4, 0.5, 0.6]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
