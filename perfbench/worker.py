"""One workload process: set up, run the closed loop, check, report.

Started by run.py with BLAS threads pinned to one and ``src`` on the import
path.  Set-up (imports, spec validation, one warm-up item) ends when this
process stamps the shared monotonic clock; run.py subtracts the stamp it took
before starting the process.  The last line of standard output is one JSON
object for run.py.

A short probe, timed right after set-up and around every call, measures
how fast the machine runs at that moment (see PROBE_NOMINAL_S).

Modes: ``setup`` stops after set-up; ``measure`` runs the untraced timed
phase; ``trace`` runs the untraced phase for half the time, then replays the
same calls with spans recorded, so that the traced and untraced walls cover
identical work.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time
import traceback

import numpy as np

import tracing
import workloads


def call_experiment(harness, workload: str, spec_dict: dict):
    """(result, error) of one experiment call; exceptions are results too."""
    try:
        spec = harness.load_spec(spec_dict)
        return getattr(harness, workloads.RUNNERS[workload])(spec), None
    except Exception as exc:  # the benchmark must report, not die, on a raising run
        return None, "".join(traceback.format_exception_only(type(exc), exc)).strip()


# The host's speed swings: one ber call, repeated, has taken from 0.29 s to
# 0.70 s within two minutes.  Times are therefore scaled to the speed at which
# the probe below takes PROBE_NOMINAL_S, using the probe run just before and
# just after each call.  Raw times are reported alongside.
PROBE_NOMINAL_S = 0.004


def make_probe():
    """A fixed kernel, about 4 ms: interpreter-bound small numpy calls plus
    FFTs over 64 Ki elements, like the program's mix.  Best of two runs."""
    rng = np.random.Generator(np.random.Philox(7))
    grid = np.sort(rng.random(256))
    a = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    eye = np.eye(2)
    block = rng.standard_normal((256, 256)) + 0j

    def once():
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100):
            acc += math.sin(int(np.searchsorted(grid, (i * 0.618) % 1.0))) ** 2
            acc += abs(np.linalg.solve(a @ a.conj().T + 0.1 * eye, a[:, i % 2]).sum())
        np.fft.ifft(np.fft.fft(block, axis=1) * np.exp(1j * block.real[:, :1]), axis=1)
        return time.perf_counter() - t0

    return lambda: min(once(), once())


def scaled_seconds(walls, probes) -> float:
    """Calls' wall time at nominal speed: each wall times PROBE_NOMINAL_S over
    the mean of the probes just before and just after that call."""
    return sum(w * PROBE_NOMINAL_S / ((before + after) / 2)
               for w, before, after in zip(walls, probes, probes[1:]))


def timed_phase(harness, workload: str, seed: int, seconds: float, probe,
                n_calls: int | None = None, tracer=None):
    """Call after call until ``seconds`` pass (or ``n_calls`` calls are made),
    with the probe before the first call and after every call."""
    outputs, walls, probes = [], [], [probe()]
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds) if n_calls is None else len(outputs) < n_calls:
        index = len(outputs)
        spec_dict = workloads.chunk_spec(workload, seed, index)
        if tracer is not None:
            tracer.call = index
        t0 = time.perf_counter()
        outputs.append((spec_dict, *call_experiment(harness, workload, spec_dict)))
        walls.append(time.perf_counter() - t0)
        probes.append(probe())
    return outputs, walls, probes


def check_call(workload: str, spec: dict, result, totals: dict, items_at_snr: dict):
    """Problems with one call's output; ber bit and error counts of a call
    without problems are added to ``totals`` for the run-wide check."""
    if workload != "ber":
        return workloads.check_query_chunk(spec, result)
    rows, _aux = result
    found = workloads.check_ber_chunk(spec, rows)
    if not found:
        for det, snr, _tp, bits, errors, _ber in rows:
            acc = totals.setdefault((det, float(snr)), [0, 0])
            acc[0] += bits
            acc[1] += errors
        for snr in spec["snr_sweep"]:
            items_at_snr[float(snr)] = items_at_snr.get(float(snr), 0) + \
                spec["trials"] * spec["cfg"]["T_D"]
    return found


def check_outputs(workload: str, outputs) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): an item fails when its call raised or
    any check on the call's output fails."""
    attempted = failed = 0
    problems: list[str] = []
    totals: dict = {}
    items_at_snr: dict = {}
    for spec, result, error in outputs:
        n = workloads.items_in(workload, spec)
        attempted += n
        if error is None:
            try:
                found = check_call(workload, spec, result, totals, items_at_snr)
            except (TypeError, ValueError, KeyError, IndexError) as exc:
                found = [f"malformed output: {exc!r}"]
        else:
            found = [error]
        if found:
            failed += n
            problems.extend(found)
    if workload == "ber":
        for snr in workloads.check_ber_run(totals):
            failed += items_at_snr[snr]
            problems.append(f"{snr} dB: a GAS detector's 95% Wilson interval "
                            f"misses the exhaustive one")
    return attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    ap.add_argument("--spans", help="file to write the trace's spans to")
    args = ap.parse_args(argv)

    from gasmld import harness

    # the warm-up call validates its spec, which has the shape of every call
    warm = workloads.warmup_spec(args.workload, args.seed)
    _, warm_error = call_experiment(harness, args.workload, warm)
    ready = time.monotonic()
    probe = make_probe()
    report = {"ready_monotonic": ready, "speed_scale": PROBE_NOMINAL_S / probe(),
              "numpy": np.__version__, "warmup_error": warm_error}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
    outputs, walls, probes = timed_phase(harness, args.workload, args.seed, seconds, probe)
    scaled = scaled_seconds(walls, probes)
    report.update(items=sum(workloads.items_in(args.workload, o[0]) for o in outputs),
                  wall_s=sum(walls), scaled_wall_s=scaled, call_walls_s=walls,
                  probes_s=probes, chunk_seeds=[o[0]["cfg"]["seed"] for o in outputs])
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
        cpu0 = time.process_time()
        try:
            traced, traced_walls, traced_probes = timed_phase(
                harness, args.workload, args.seed, 0.0, probe,
                n_calls=len(outputs), tracer=tracer)
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        layers["process.cpu_s"] = time.process_time() - cpu0
        layers["trace.overhead_frac"] = scaled_seconds(traced_walls, traced_probes) / scaled - 1.0
        report.update(layers=layers, absent_targets=tracer.absent,
                      broken_observers=tracer.broken_observers)
        outputs = outputs + traced
        if args.spans:
            with open(args.spans, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s.__dict__) + "\n")
    attempted, failed, problems = check_outputs(args.workload, outputs)
    if warm_error is not None:
        attempted, failed = attempted + 1, failed + 1
        problems.insert(0, f"warm-up: {warm_error}")
    report.update(attempted=attempted, failed=failed, problems=problems[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
