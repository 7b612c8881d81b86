"""gasmld benchmark: experiment throughput on ber, query-cdf and circuit.

    python3 perfbench/run.py --workload ber --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  Each run starts SETUP_SAMPLES
single-threaded workload processes (worker.py).  Every one of them times its
own set-up; the last one then runs the timed closed loop.  Times are scaled
to a nominal machine speed measured by a probe (worker.PROBE_NOMINAL_S); the
unscaled values go into the manifest.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced replay.  A manifest line (seed, generated spec,
machine, pinning) precedes it, and the full record is written under
``.perfbench/``.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

# BLAS and OpenMP pools pinned to one thread: the experiments are
# single-threaded Python and the benchmark measures them that way.
PINNING = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = {"items_per_s": "item/s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "failed_frac": "ratio",
    "harness.self_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.absent_targets": "count",
    "channel.calls": "count",
    "channel.s": "s",
    "spaces.calls": "count",
    "spaces.s": "s",
    "spaces.states": "count",
    "spaces.states_per_s": "state/s",
    "gas.runs": "count",
    "gas.self_s": "s",
    "gas.queries": "count",
    "gas.rotations": "count",
    "gas.us_per_query": "us",
    "gas.converged_frac": "ratio",
    "gas.invalid_final": "count",
    "thresholds.mmse.calls": "count",
    "thresholds.mmse.s": "s",
    "statevector.measurements": "count",
    "statevector.simulations": "count",
    "statevector.cache_hit_frac": "ratio",
    "statevector.iterates": "count",
    "statevector.ms_per_iterate": "ms",
    "statevector.self_s": "s",
    "statevector.init_s": "s",
    "statevector.state_bytes": "B",
    "hubo.calls": "count",
    "hubo.s": "s",
    "hubo.terms": "count",
    "indicators.calibrate.s": "s",
    "indicators.calls": "count",
    "indicators.s": "s",
    "indicators.usable_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, or a worker died."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def worker_env() -> dict:
    env = dict(os.environ, **PINNING)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def run_worker(args, mode: str, deadline: float, spans: Path | None = None) -> dict:
    """Start one workload process and return its report plus its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready_monotonic"] - started
    return report


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not Path("src/gasmld/harness.py").is_file():
        print("perfbench: run from the root of a gasmld checkout "
              "(src/gasmld/harness.py not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        reports = [run_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        main_report = run_worker(args, "trace" if args.trace else "measure", deadline,
                                 spans=stem.with_suffix(".spans.jsonl") if args.trace else None)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reports.append(main_report)
    setup_raw = [r["setup_s"] for r in reports]
    setup = [r["setup_s"] * r["speed_scale"] for r in reports]
    attempted, failed = main_report["attempted"], main_report["failed"]
    raw = {"items_per_s": main_report["items"] / main_report["wall_s"],
           "setup_s": statistics.median(setup_raw)}
    if args.trace:
        layers = dict(main_report["layers"], failed_frac=failed / attempted)
        metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "items_per_s": metric(main_report["items"] / main_report["scaled_wall_s"],
                                  END_TO_END["items_per_s"]),
            "setup_s": metric(statistics.median(setup), END_TO_END["setup_s"]),
            "peak_rss_mb": metric(main_report["peak_rss_mb"], END_TO_END["peak_rss_mb"]),
        }
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "spec": workloads.chunk_spec(args.workload, args.seed, 0),
        "warmup_spec": workloads.warmup_spec(args.workload, args.seed),
        "chunk_seeds": main_report["chunk_seeds"],
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": main_report["numpy"], "thread_pinning": PINNING,
        "setup_samples_s": setup, "setup_samples_raw_s": setup_raw,
        "unscaled": raw,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"manifest": manifest, "result": result,
              "problems": main_report["problems"],
              "items": main_report["items"], "wall_s": main_report["wall_s"],
              "scaled_wall_s": main_report["scaled_wall_s"],
              "call_walls_s": main_report["call_walls_s"], "probes_s": main_report["probes_s"],
              "absent_targets": main_report.get("absent_targets", []),
              "broken_observers": main_report.get("broken_observers", [])}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in main_report["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
