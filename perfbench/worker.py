"""One fresh interpreter of the hermspec benchmark.

Usage: ``python3 perfbench/worker.py MODE [--trace]`` with ``PYTHONPATH``
naming the checkout's ``src`` and ``PERFBENCH_LAUNCH`` holding the
``time.monotonic()`` reading taken just before the process was started.

MODE is ``setup``, ``generate``, ``census5`` or ``classify_mix``.  A JSON
request is read from standard input after set-up (``seed``/``count`` for
generate, ``texts``/``seconds`` for classify_mix, optionally ``n_max`` for
census5) and one JSON result is written to standard output.  ``setup_s`` in the result is the time from launch until
``import hermspec`` and ``load_builtin()`` are done.  With ``--trace`` the
layer wrappers go in before ``load_builtin`` and come out before any check
runs; the result then carries the layer metrics and the list of leaked
wrappers, which must be empty.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, leaked_wrappers


def _run_mode(mode: str, request: dict) -> dict:
    import workloads

    if mode == "census5":
        return workloads.run_census(request.get("n_max", 5))
    if mode == "classify_mix":
        return workloads.run_classify(request["texts"], request.get("seconds"))
    if mode == "generate":
        return {"texts": workloads.generate_mix(request["seed"], request["count"])}
    if mode == "setup":
        return {}
    raise SystemExit(f"unknown mode {mode!r}")


def main(argv: list[str]) -> int:
    mode = argv[1]
    trace = "--trace" in argv[2:]
    import hermspec

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(hermspec.__file__).resolve().parents:
        print(f"hermspec imported from {hermspec.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    hermspec.load_builtin()
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_LAUNCH"])

    request = json.loads(sys.stdin.read() or "{}")
    try:
        result = _run_mode(mode, request)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["setup_s"] = setup_s
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["leaks"] = leaked_wrappers()
    if mode == "classify_mix":
        import workloads

        result["failed"] = workloads.count_failures(request["texts"], result.pop("verdicts"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
