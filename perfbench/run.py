"""Run one benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload live-detect --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a source checkout; the program is imported from its
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full record (host facts, samples, and with tracing the spans) is written to
``perfbench/out/``. ``--workload all`` runs each workload in its own process
and prints one line per metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("paper-eval", "live-detect", "cli-files")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s", "op_ms_p50": "ms",
         "windows_per_s": "windows/s"}


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads(limit: int) -> None:
    """Keep numpy's BLAS pool at most ``limit`` threads; must run before
    numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= limit):
            os.environ[var] = str(limit)


def git_sha():
    """HEAD's commit from ``.git``, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def steal_ticks():
    """CPU time the hypervisor gave to others, in clock ticks since boot."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def end_to_end(summary: dict, scale: float) -> dict:
    """The end-to-end metrics, times multiplied by ``scale`` (the probe's
    reference speed over the run's, or 1 for the times as measured)."""
    values = {
        "setup_s": statistics.median(summary["setup_seconds"]) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "round_s": statistics.median(summary["round_seconds"]) * scale,
        "op_ms_p50": statistics.median(summary["op_seconds"]) * 1000 * scale,
        "windows_per_s": summary["windows"] / summary["window_seconds"] / scale,
    }
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}


def named_figures(workload: str, summary: dict, metrics: dict) -> dict:
    """The workload's figures under the names the workload design uses, at
    the probe's reference speed."""
    value = {name: m["value"] for name, m in metrics.items()}
    scale = summary["speed_scale"]
    if workload == "paper-eval":
        return {"eval_s": value["round_s"]}
    if workload == "live-detect":
        ms = summary["op_seconds"]
        return {"windows_per_s": value["windows_per_s"],
                "detect_session_ms_p50": value["op_ms_p50"],
                "detect_session_ms_p95": statistics.quantiles(ms, n=20)[18] * 1000 * scale,
                "detect_session_samples": len(ms)}
    return {"cli_chain_s": value["round_s"],
            "cli_detect_ms_p50": statistics.median(summary["detect_seconds"]) * 1000 * scale,
            "cli_detect_samples": len(summary["detect_seconds"])}


def run_one(args) -> int:
    cap_blas_threads(nproc())
    for key in [k for k in os.environ if k.startswith("GAZE_SENTINEL_")]:
        del os.environ[key]  # the CLI reads options from these
    sys.path[:0] = [SRC, HERE]
    import numpy

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    steal_before = steal_ticks()
    try:
        summary = workloads.run(args.workload, args.seed, args.seconds, tracer)
    finally:
        if args.trace:
            tracer.uninstall()
    steal_after = steal_ticks()
    correct = summary["error"] is None
    if not correct:
        print(f"check failed: {summary['error']}", file=sys.stderr)
    metrics = end_to_end(summary, summary["speed_scale"])
    host = {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "steal_ticks": None if steal_before is None else steal_after - steal_before}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "correct": correct,
              "end_to_end": metrics, "measured_end_to_end": end_to_end(summary, 1.0),
              "figures": named_figures(args.workload, summary, metrics), "summary": summary}
    if args.trace:
        per_layer = tracer.per_layer()
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in per_layer.items()}
        record["per_layer"] = metrics
        record["trace"] = tracer.record()
        if tracer.absent:
            print(f"absent from the program: {', '.join(tracer.absent)}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"host: {json.dumps(host)}")
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    for name, v in record["figures"].items():
        print(f"{args.workload}  ({name} = {v:.6g})")
    print(f"{args.workload}  attempted {summary['attempted']}, failed {summary['failed']}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "gaze_sentinel")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
