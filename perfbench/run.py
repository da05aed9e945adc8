"""flipforge benchmark: run a workload for a fixed time, check it, print its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every operation runs ``worker.py`` in a fresh interpreter, one at a time
(a closed loop with one client and no threads), until ``--seconds`` have
passed. With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` operations alternate between untraced
and traced, traced outputs must equal untraced ones, and the JSON carries
the per-layer metrics. Metric names, units and workloads come from
``BENCHMARK.json``. Each result is also appended to
``perfbench/results/results.jsonl`` with the revision, the Python version
and the processor count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 5  # set-up-only interpreters per run, besides each operation's own
WORKER_TIMEOUT_S = 120
# Every worker times worker.calibration_s() after its set-up and again after
# its operation. The speed of a shared machine drifts by tens of percent over
# minutes, so times are reported at a reference speed:
# seconds * REFERENCE_CALIBRATION_S / (mean calibration time).
REFERENCE_CALIBRATION_S = 0.15


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker to completion; its report, with ``setup_s`` measured from the spawn."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {tail[0]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def tail_percentile(values: list[float]):
    """(percentile, value) of the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def tally(ops: list) -> tuple[int, list[str]]:
    """Failed operations and their first problems. Every output must equal the first one's."""
    digests = [report["digest"] for _, report, _ in ops if report is not None]
    failed, failures = 0, []
    for mode, report, problems in ops:
        if report is not None and report["digest"] != digests[0]:
            problems = problems + ["output differs from the first operation's output"]
        failed += bool(problems)
        failures += [f"{mode}: {p}" for p in problems[:3]]
    return failed, failures


def at_reference_speed(report: dict, key: str) -> float:
    return report[key] * REFERENCE_CALIBRATION_S / statistics.mean(report["calibration_s"])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    probes = [spawn(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    modes = ["plain", "traced"] if trace else ["plain"]
    ops = []  # (mode, report or None, problems)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(ops) < len(modes):
        mode = modes[len(ops) % len(modes)]
        try:
            report = spawn(workload, seed, mode)
            ops.append((mode, report, report["problems"]))
        except WorkerFailed as exc:
            ops.append((mode, None, [str(exc)]))
    done = [(mode, r) for mode, r, _ in ops if r is not None]
    failed, failures = tally(ops)
    plain = [r for mode, r in done if mode == "plain"]
    traced = [r for mode, r in done if mode == "traced"]
    if not plain or len(traced) < trace:
        raise WorkerFailed(f"every {workload} operation of one kind failed: {failures[0]}")
    workers = probes + [r for _, r in done]
    walls = [at_reference_speed(r, "wall_s") for r in plain]
    result = {
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "walls": walls,
        "raw": {"wall_s": statistics.median(r["wall_s"] for r in plain),
                "setup_s": statistics.median(r["setup_s"] for r in workers)},
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(at_reference_speed(r, "setup_s") for r in workers),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        },
    }
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = statistics.median(
            at_reference_speed(r, "wall_s") for r in traced) / statistics.median(walls)
        result["per_layer"] = layers
        result["spans"] = [r["spans"] for r in traced]
    return result


def revision() -> str:
    """Commit from ``.git`` when there is one, else 'none'."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flipforge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def report_workload(name: str, args, spec: dict, env: dict) -> dict:
    print(f"== {name}  seed={args.seed} seconds={args.seconds} trace={args.trace}  "
          f"revision={env['revision'][:12]} src={env['src_sha256']} "
          f"python={env['python']} nproc={env['nproc']}")
    m = measure(name, args.seed, args.seconds, bool(args.trace))
    walls = m["walls"]
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail
                 else "no tail percentile: fewer than 11 samples")
    print(f"wall_s: median {m['end_to_end']['wall_s']:.4f} s at reference speed, {tail_text}, "
          f"n={len(walls)}; raw median {m['raw']['wall_s']:.4f} s")
    print(f"setup_s: median {m['end_to_end']['setup_s']:.4f} s at reference speed; "
          f"raw median {m['raw']['setup_s']:.4f} s")
    print(f"peak_rss_mb: median {m['end_to_end']['peak_rss_mb']:.2f} MB")
    print(f"ops_failed_ratio: {m['failed']}/{m['attempted']} = {m['failed'] / m['attempted']:.4f}")
    for line in m["failures"][:10]:
        print(f"  failure: {line}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = m["per_layer"] if args.trace else m["end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise WorkerFailed(f"metrics not measured: {missing}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    if args.trace:
        for d in declared:
            print(f"  {d['name']}: {values[d['name']]:.6g} {d['unit']}")
        spans_path = RESULTS / f"spans-{name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent"],
                                          "operations": m["spans"]}))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    result = {"correct": m["failed"] == 0, "attempted": m["attempted"],
              "failed": m["failed"], "metrics": metrics}
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **env, "walls": walls, "raw": m["raw"], **result}
    with open(RESULTS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flipforge" / "__init__.py").is_file():
        print(f"error: no flipforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = {"revision": revision(), "src_sha256": source_digest(),
           "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {name: report_workload(name, args, spec, env) for name in chosen}
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[chosen[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
