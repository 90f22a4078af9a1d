"""Benchmark of hermspec: the census and single classify calls.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload census5|classify_mix \
        --seed N --seconds S --trace 0|1

Every measurement runs in a fresh worker interpreter (``worker.py``), one
at a time, because the package's caches are process-global and a command
line user starts with them cold.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it describe the machine and the run.  See README.md for
the metrics, the workloads and the known gaps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import RATIOS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("census5", "classify_mix")

#: Fresh interpreters timed for ``setup_s``, after one unmeasured warm-up
#: that also compiles the package's bytecode.
SETUP_SAMPLES = 11
#: Length of the classify_mix stream; a run ends at --seconds or at its end.
MIX_STREAM = 25000
#: classify_mix runs are cut into this many equal time windows.  Throughput
#: and p99 are medians over the windows, so a burst of load from elsewhere on
#: a shared machine moves one window, not the result; a 25 s run still leaves
#: over 2,000 calls, so over 20 beyond p99, in each window.
WINDOWS = 5
#: A run gives up, without a result, once this much time has passed.
RUN_BUDGET_S = 175.0
#: Monotonic time at which running workers are killed; ``main`` sets it.
_deadline = math.inf


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def spawn(mode: str, request: dict | None = None, trace: bool = False) -> dict:
    """Run one worker interpreter to completion and return its JSON result."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(WORKER), mode] + (["--trace"] if trace else [])
    env["PERFBENCH_LAUNCH"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            cmd, input=json.dumps(request or {}), stdout=subprocess.PIPE,
            text=True, env=env, cwd=ROOT,
            timeout=None if _deadline == math.inf else max(_deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} ran past the {RUN_BUDGET_S:.0f}s run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_sha": git_sha(ROOT),
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from its .git directory; 'unknown' without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup() -> list[float]:
    spawn("setup")
    return [spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]


def repeat(mode: str, seconds: float) -> list[dict]:
    """Fresh-interpreter repetitions, at least one, while another fits in ``seconds``.

    A repetition is started only if the timed work so far plus the mean
    repetition stays within ``seconds``, so a call longer than half of
    ``seconds`` runs once instead of twice.
    """
    reps = [spawn(mode)]
    while sum(r["wall_s"] for r in reps) * (1 + 1 / len(reps)) <= seconds:
        reps.append(spawn(mode))
    return reps


def windows(latencies: list[float], ends: list[float], wall: float) -> list[list[float]]:
    """Latencies grouped by which of ``WINDOWS`` equal spans of ``wall`` the call ended in."""
    groups: list[list[float]] = [[] for _ in range(WINDOWS)]
    for latency, end in zip(latencies, ends):
        groups[min(int(end / wall * WINDOWS), WINDOWS - 1)].append(latency)
    return groups


def mix_texts(seed: int) -> list[str]:
    return spawn("generate", {"seed": seed, "count": MIX_STREAM})["texts"]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, report: list[str]) -> dict:
    setup = measure_setup()
    if workload == "classify_mix":
        texts = mix_texts(seed)
        reps = [spawn("classify_mix", {"texts": texts, "seconds": seconds})]
        mix = reps[0]
        latencies = mix["latencies"]
        groups = windows(latencies, mix["ends"], mix["wall_s"])
        throughput = statistics.median(len(g) / (mix["wall_s"] / WINDOWS) for g in groups)
        p99 = statistics.median(percentile(g, 99) for g in groups)
        samples = min(len(g) for g in groups)
        report.append(f"exit paths: {json.dumps(mix['paths'])}")
        report.append(f"windows: {WINDOWS}, fewest latency samples in a window: {samples}")
    else:
        reps = repeat(workload, seconds)
        latencies = [r["wall_s"] for r in reps]
        throughput = sum(r["items"] for r in reps) / sum(latencies)
        p99 = percentile(latencies, 99)
        samples = len(latencies)
    items = sum(r["items"] for r in reps)
    report.append(
        f"repetitions: {len(reps)}, items: {items}, latency samples: {len(latencies)}"
        + ("" if samples >= 1000 else " (under 1000: p99 is not resolved)")
    )
    report.append(f"setup samples: {len(setup)}")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in reps), "s"),
        "throughput_per_s": metric(throughput, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": metric(p99 * 1e3, "ms"),
        "peak_rss_mb": metric(max(r["rss_mb"] for r in reps), "MB"),
    }
    return {"reps": reps, "metrics": metrics}


def traced(workload: str, seed: int, seconds: float, report: list[str]) -> dict:
    """One untraced and one traced repetition of the same work."""
    if workload == "classify_mix":
        texts = mix_texts(seed)
        plain = spawn("classify_mix", {"texts": texts, "seconds": seconds})
        request = {"texts": texts[: plain["items"]], "seconds": None}
        layered = spawn("classify_mix", request, trace=True)
    else:
        plain = spawn(workload)
        layered = spawn(workload, trace=True)
    if layered["leaks"]:
        raise BenchError(f"wrappers left after the traced run: {layered['leaks']}")
    if layered["items"] != plain["items"]:
        raise BenchError("traced and untraced runs did different work")
    layers = layered["layers"]
    metrics = {name: metric(value, _unit(name)) for name, value in layers.items()}
    metrics["trace.wall_s"] = metric(layered["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = metric(plain["wall_s"], "s")
    metrics["trace.overhead_ratio"] = metric(layered["wall_s"] / plain["wall_s"], "ratio")
    report.append(
        f"tracing overhead: traced {layered['wall_s']:.3f}s / untraced"
        f" {plain['wall_s']:.3f}s = {layered['wall_s'] / plain['wall_s']:.3f}"
    )
    for name, (hits, base) in RATIOS.items():
        report.append(
            f"ratio {name} = {layers[name]:.6f}: {hits} = {layers[hits]} of {base} = {layers[base]}"
        )
    report.append("wrappers restored: no binding left wrapped")
    return {"reps": [plain, layered], "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hermspec" / "__init__.py").is_file():
        print(f"error: no hermspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = [f"machine: {json.dumps(machine_facts())}",
              f"workload: {args.workload} seed={args.seed} seconds={args.seconds}"
              f" trace={args.trace}"]
    run = traced if args.trace else end_to_end
    try:
        out = run(args.workload, args.seed, args.seconds, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["items"] for r in out["reps"])
    failed = sum(r["failed"] for r in out["reps"])
    report.append(f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted})")
    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
