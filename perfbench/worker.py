"""One benchmark operation in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import flipforge and make the inputs, then stop),
``plain`` (run the operation untraced), ``traced`` (run it under the
tracer) or ``reference`` (run it and print the output summary that
``reference.json`` stores). The other modes print one JSON line: the
``time.monotonic()`` reading when set-up ended (the parent measured the
start) and the calibration loop's time after set-up; for an operation also
its wall time, the calibration loop's time after it, peak RSS up to the end
of the operation, the problems the checks found, a digest of the outputs,
and, when traced, the per-layer metrics and the spans.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: dict look-ups on a small table, then set
    building and membership tests on a table too large for the caches. The
    cyclic collector is off meanwhile, so the heap around it does not matter."""
    gc.disable()
    start = time.perf_counter()
    table, hits = {}, 0
    for i in range(300_000):
        key = (i % 251, i % 13)
        c = table.get(key)
        if c is None:
            table[key] = i & 3
        else:
            hits += c
    big = {(i, i * 7 % 1009) for i in range(100_000)}
    folded = frozenset((a % 997, b) for a, b in big)
    hits += sum(1 for a, b in folded if (a + 1, b) in big)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    import flipforge
    if not Path(flipforge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"flipforge imported from {flipforge.__file__}, not from {ROOT / 'src'}")
    import workloads
    workload = workloads.WORKLOADS[name]()
    inp = workload.inputs(seed)
    ready = time.monotonic()
    calibration = [calibration_s()]
    if mode == "setup":
        print(json.dumps({"ready": ready, "calibration_s": calibration}))
        return 0

    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=RESULTS))
    try:
        if mode == "traced":
            import tracer as tr
            tracer = tr.Tracer()
            undo = tr.install(tracer, flipforge, {"pipelines": (workloads.RELAXED_PLAN_ENTRY,)})
            tracer.enter("op")
            try:
                out = workload.run(inp, workdir)
            finally:
                tracer.exit()
                tr.uninstall(undo)
            wall = tracer.total_s("op")
        else:
            start = time.perf_counter()
            out = workload.run(inp, workdir)
            wall = time.perf_counter() - start
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        calibration.append(calibration_s())

        if mode == "reference":
            summary = workload.summary(out, workload.graphs(out))
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        problems, digest = workload.check(inp, out)
        report = {"ready": ready, "wall_s": wall, "peak_rss_mb": peak_rss_kb / 1024,
                  "problems": problems, "digest": digest, "calibration_s": calibration}
        if mode == "traced":
            report["layers"] = tr.layer_metrics(tracer, "op") | workload.byte_counts(out)
            report["spans"] = tracer.spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
