"""Workload definitions: experiment specs generated from a seed, item counts
and the output checks every correct implementation passes.

A workload is a closed loop of experiment calls.  Call ``i`` of a run uses
the spec ``chunk_spec(workload, seed, i)``: the shape is fixed per workload
and only ``cfg.seed`` changes, so the same ``--seed`` always gives the same
inputs.  This module imports nothing from the program; it works on plain
dicts and rows so that a broken program cannot break the checks.
"""

from __future__ import annotations

import copy
import math

# Shapes follow the shipped configs (configs/ber_thresholds.json and
# configs/query_cdf_lmin.json) at sizes that give many items per run.
_SYSTEM = {"modulation": "psk2", "T_P": 128, "P_X": 1.0, "snr_db": 20.0}

_LMIN_VARIANTS = [
    {"name": "lmin-zero", "threshold": "mvd", "lmin": "zero", "restart": True},
    {"name": "lmin-c", "threshold": "mvd", "lmin": "conventional-c", "restart": True},
    {"name": "lmin-cprime", "threshold": "mvd", "lmin": "proposed-cprime", "restart": True},
]

BER_DETECTORS = ["exhaustive", "gas-mvd", "gas-mmse", "gas-rand"]
GAS_BER_DETECTORS = ["gas-mvd", "gas-mmse", "gas-rand"]

_TEMPLATES = {
    # many 256-state spaces: GAS and MMSE dominate
    "ber": {
        "name": "bench-ber",
        "cfg": {"N": 2, "M": 4, "tau_max": 1, "T_D": 32, **_SYSTEM},
        "trials": 1,
        "snr_sweep": [10.0, 15.0, 20.0],
        "detectors": BER_DETECTORS,
    },
    # few 20 736-state spaces: enumeration and its sort dominate; calibration
    # keeps the shipped config's ratio of four samples per trial
    "query-cdf": {
        "name": "bench-query-cdf",
        "cfg": {"N": 2, "M": 4, "tau_max": 5, "T_D": 128, **_SYSTEM},
        "trials": 25,
        "gas": {"mvd_p": 1e-3},
        "calibration": {"samples": 100},
        "variants": _LMIN_VARIANTS,
    },
    # 16-qubit dense statevector.  The rotation budget is a tenth of the
    # default 50*sqrt(Nt) = 300: a trial the convergence defect keeps from
    # stopping then costs about as much as a converged one, so a run sees
    # enough trials for a steady rate.  Most converged trials need fewer
    # rotations than this, so the defect still shows in gas.converged_frac.
    "circuit": {
        "name": "bench-circuit",
        "cfg": {"N": 2, "M": 2, "tau_max": 2, "T_D": 128, **_SYSTEM},
        "trials": 1,
        "gas": {"backend": "circuit", "q_v": 8, "budget_rotations": 30},
        "variants": [{"name": "mvd-restart", "threshold": "mvd", "lmin": "zero",
                      "restart": True}],
    },
}

WORKLOADS = tuple(_TEMPLATES)

# Warm-up is one item.  The circuit warm-up caps its query count so that
# set-up time does not depend on whether that one trial converges.
_WARMUP_OVERRIDES = {
    "ber": {"cfg": {"T_D": 1}, "snr_sweep": [10.0]},
    "query-cdf": {"trials": 1},
    "circuit": {"gas": {"budget_iterations": 4}},
}

RUNNERS = {"ber": "run_ber", "query-cdf": "run_query_cdf", "circuit": "run_query_cdf"}


def chunk_spec(workload: str, seed: int, index: int) -> dict:
    """Spec of call ``index`` in a run started with ``seed``."""
    spec = copy.deepcopy(_TEMPLATES[workload])
    spec["cfg"]["seed"] = seed * 100_000 + index
    return spec


def warmup_spec(workload: str, seed: int) -> dict:
    spec = chunk_spec(workload, seed, 0)
    for key, value in _WARMUP_OVERRIDES[workload].items():
        if isinstance(value, dict):
            spec.setdefault(key, {}).update(value)
        else:
            spec[key] = value
    return spec


def items_in(workload: str, spec: dict) -> int:
    """Items one call completes: a slot seen by every detector (ber) or a
    trial of every variant (query-cdf, circuit)."""
    if workload == "ber":
        return spec["trials"] * spec["cfg"]["T_D"] * len(spec["snr_sweep"])
    return spec["trials"]


def default_rotation_budget(cfg: dict) -> int:
    """run_gas's default 50*sqrt(Nt), Nt the one-hot space for pi/2-BPSK."""
    n_states = (2 * (cfg["tau_max"] + 1)) ** cfg["M"]
    return int(math.ceil(50 * math.sqrt(n_states)))


def wilson_interval(errors: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval of a binomial proportion."""
    if n <= 0:
        raise ValueError("Wilson interval needs n >= 1")
    p = errors / n
    den = 1 + z * z / n
    center = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
    return center - half, center + half


def intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return not (a[0] > b[1] or b[0] > a[1])


def check_ber_chunk(spec: dict, rows) -> list[str]:
    """Per-call checks of run_ber rows (detector, snr, t_p, bits, errors, ber)."""
    problems = []
    n_b = spec["cfg"]["M"]  # pi/2-BPSK: one payload bit per user
    want_bits = spec["trials"] * spec["cfg"]["T_D"] * n_b
    want = {(d, float(s)) for d in spec["detectors"] for s in spec["snr_sweep"]}
    got = {(r[0], float(r[1])) for r in rows}
    if got != want or len(rows) != len(want):
        problems.append(f"rows cover {sorted(got)}, expected {sorted(want)}")
    for det, snr, _tp, bits, errors, _ber in rows:
        if bits != want_bits:
            problems.append(f"{det}@{snr}: {bits} bits, expected {want_bits}")
        if not 0 <= errors <= bits:
            problems.append(f"{det}@{snr}: {errors} errors of {bits} bits")
    return problems


def check_ber_run(totals: dict) -> list[float]:
    """SNR points where a GAS detector's 95% Wilson interval misses the
    exhaustive detector's, over all calls of a run.

    totals maps (detector, snr) to [bits, errors] summed over calls.
    """
    bad = []
    for snr in sorted({s for _, s in totals}):
        if ("exhaustive", snr) not in totals:
            continue
        ref = wilson_interval(totals[("exhaustive", snr)][1], totals[("exhaustive", snr)][0])
        for det in GAS_BER_DETECTORS:
            if (det, snr) in totals:
                bits, errors = totals[(det, snr)]
                if not intervals_overlap(wilson_interval(errors, bits), ref):
                    bad.append(snr)
                    break
    return bad


def check_query_chunk(spec: dict, rows) -> list[str]:
    """Checks of run_query_cdf rows (variant, trial, cd, qd, converged)."""
    problems = []
    names = [v["name"] for v in spec["variants"]]
    want = {(n, t) for n in names for t in range(spec["trials"])}
    got = {(r[0], r[1]) for r in rows}
    if got != want or len(rows) != len(want):
        problems.append(f"{len(rows)} rows, expected trials x variants = {len(want)}")
    budget = spec.get("gas", {}).get("budget_rotations") or default_rotation_budget(spec["cfg"])
    for name, trial, cd, qd, converged in rows:
        if not 0 <= qd <= budget:
            problems.append(f"{name}/{trial}: {qd} rotations exceed the budget {budget}")
        if cd < 0 or converged not in (True, False):
            problems.append(f"{name}/{trial}: malformed row {(cd, qd, converged)!r}")
    return problems
