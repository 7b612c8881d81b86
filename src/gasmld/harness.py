"""Batch runners for the query-complexity, BER, calibration and gate-count
experiments, plus the single-instance solver behind the CLI.

Every run is a pure function of (config, seed): instances, noise and search
randomness come from counter-based streams keyed by trial coordinates, and
rows are canonically ordered, so repeated runs write byte-identical CSVs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import streams
from .channel import (PSK2, QPSK, SystemConfig, generate_instance, objective_direct, received_slots,
                      slot_draws)
from .errors import ConfigError
from .gas import (BACKEND_AMPLITUDE, BACKEND_CIRCUIT, STOP_OPTIMUM, Backend, GasBatch, GasParams,
                  LMIN_CONVENTIONAL_C, LMIN_PROPOSED_CPRIME, LMIN_ZERO, channel_bound,
                  prepared_state, register_width, run_gas, run_gas_batch, run_gas_ranks)
from .gates import build_report
from .indicators import (CalibrationTable, calibrate, config_hash, indicator_c,
                         indicator_c_prime, select_lmin, select_lmin_conventional)
from .spaces import (BELOW_ROWS, HADAMARD_FULL, W_STATE_REDUCED, SpaceStack, channel_below,
                     channel_keys, channel_spaces)
from .thresholds import MvdParams, mmse_detect, y_mvd

CALIBRATION_ID_OFFSET = 1_000_000

# ber's GAS detectors in the query-cdf variant vocabulary, where only ber
# seeds the "mmse" threshold; the threshold comparison runs the plain
# adaptive schedule (no rotation lower bound: its calibration is specific to
# one SNR point)
GAS_DETECTORS = {"gas-mvd": {"threshold": "mvd", "restart": True},
                 "gas-mmse": {"threshold": "mmse"},
                 "gas-rand": {}}
SOLVE_ARM = {"threshold": "mvd", "lmin": LMIN_CONVENTIONAL_C, "restart": True}


@dataclass(frozen=True)
class _Required:
    kind: object


@dataclass(frozen=True)
class _Nullable:
    kind: object


COUNT = "an integer >= 1"
# each scalar kind: the types it takes, and its name in an error
_SCALARS = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number"),
            bool: (bool, "true or false"), COUNT: (int, COUNT)}

# The config schema.  A kind is str, int, float (any number), bool, COUNT, a
# tuple of choices, [kind] for a list of distinct items (objects are told
# apart by their name) or a dict for an object with those keys.  A key is
# optional unless _Required, and not null unless _Nullable.
_SCHEMA = {
    "name": _Nullable(str),
    "cfg": {"N": _Required(int), "M": _Required(int), "tau_max": _Required(int),
            "modulation": (PSK2, QPSK), "T_P": int, "T_D": int, "P_X": float,
            "snr_db": float, "seed": int},
    "trials": COUNT,
    "output_dir": _Nullable(str),
    "gas": {"backend": (BACKEND_AMPLITUDE, BACKEND_CIRCUIT), "mvd_p": float, "lambda": float,
            "budget_iterations": _Nullable(COUNT), "budget_rotations": _Nullable(COUNT),
            "q_v": _Nullable(COUNT)},
    "calibration": {"samples": COUNT},
    "variants": [{"name": _Required(str), "prep": (W_STATE_REDUCED, HADAMARD_FULL),
                  "threshold": ("random", "mvd"),
                  "lmin": (LMIN_ZERO, LMIN_CONVENTIONAL_C, LMIN_PROPOSED_CPRIME),
                  "restart": bool}],
    "snr_sweep": [float],
    "detectors": [("exhaustive", "mmse", *GAS_DETECTORS)],
    "grid": [{"M": _Required(int), "tau_max": _Required(int), "q_v": COUNT,
              "modulation": (PSK2, QPSK)}],
}

_GAS_KEYS = {f"gas.{key}" for key in _SCHEMA["gas"]}
_BOTH = (BACKEND_AMPLITUDE, BACKEND_CIRCUIT)
# Per command, the config keys it reads (a gas key as gas.<key>), those of
# them it requires and the backends it runs on (none: gate-count runs no search)
COMMANDS = {
    "solve": ({"cfg", *_GAS_KEYS}, ("cfg",), _BOTH),
    "query-cdf": ({"cfg", "variants", "name", "trials", "output_dir", *_GAS_KEYS, "calibration"},
                  ("cfg", "variants"), _BOTH),
    "ber": ({"cfg", "name", "trials", "output_dir", *_GAS_KEYS - {"gas.q_v"}, "snr_sweep",
             "detectors"}, ("cfg",), (BACKEND_AMPLITUDE,)),
    "calibrate": ({"cfg", "name", "output_dir", "gas.backend", "gas.mvd_p", "calibration"},
                  ("cfg",), (BACKEND_AMPLITUDE,)),
    "gate-count": ({"grid", "name", "output_dir"}, ("grid",), ()),
}


@dataclass
class ExperimentSpec:
    """A loaded config; the one place its defaults are stated."""
    cfg: SystemConfig | None = None
    name: str = "experiment"
    trials: int = 100
    output_dir: str = "out"
    backend: str = BACKEND_AMPLITUDE
    mvd_p: float = 1e-3
    gas: GasParams = field(default_factory=GasParams)   # lambda and budgets of every run
    calibration_samples: int = 2000
    variants: list[dict] = field(default_factory=list)
    snr_sweep: list[float] = field(default_factory=list)
    detectors: list[str] = field(default_factory=list)
    grid: list[dict] = field(default_factory=list)
    q_v: int | None = None
    given: tuple[str, ...] = field(default=(), compare=False)  # config keys, null ones too


def load_spec(source) -> ExperimentSpec:
    """Check and load an experiment configuration (path or dict)."""
    if isinstance(source, (str, Path)):
        try:
            source = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
    check(source, _SCHEMA, "config")
    given = (*[k for k in source if k != "gas"], *[f"gas.{k}" for k in source.get("gas", ())])
    # an absent or null key keeps its field's default
    data = {key: value for key, value in source.items() if value is not None}
    gas = {("lam" if key == "lambda" else key): value
           for key, value in data.pop("gas", {}).items() if value is not None}
    if "samples" in (calibration := data.pop("calibration", {})):
        data["calibration_samples"] = calibration["samples"]
    # the gas keys the spec holds; the rest make the GasParams template
    engine = {key: gas.pop(key) for key in ("backend", "mvd_p", "q_v") if key in gas}
    try:
        if "cfg" in data:
            data["cfg"] = SystemConfig(**data["cfg"])
        spec = ExperimentSpec(gas=GasParams(**gas), given=given, **engine, **data)
        if spec.cfg is not None:
            MvdParams.from_config(spec.cfg, spec.mvd_p)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    return spec


def check(value, kind, name: str) -> None:
    """Raise ConfigError unless value is of kind, naming the path from name
    to the first value that is not."""
    try:
        _fit(value, kind)
    except ConfigError as exc:
        raise ConfigError(f"{name}{exc}") from None


def _fit(value, kind) -> None:
    """Raise ConfigError, its message the path from value to the misfit and
    what is wrong there, unless value is of kind."""
    if type(kind) is dict:
        if not isinstance(value, dict):
            raise ConfigError(f" must be an object, got {value!r}")
        for key, item in value.items():
            if key not in kind:
                raise ConfigError(f".{key} is not a known key")
            sub = kind[key]
            if type(sub) is _Nullable:
                if item is None:
                    continue
                sub = sub.kind
            elif type(sub) is _Required:
                sub = sub.kind
            if type(item) is not sub:  # a value of exactly its scalar type fits
                try:
                    _fit(item, sub)
                except ConfigError as exc:
                    raise ConfigError(f".{key}{exc}") from None
        if len(value) < len(kind):
            for key, sub in kind.items():
                if type(sub) is _Required and key not in value:
                    raise ConfigError(f".{key} is required")
    elif type(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f" must be a list, got {value!r}")
        if not value:
            raise ConfigError(" is empty")
        seen = []
        for i, item in enumerate(value):
            if type(item) is not kind[0]:
                try:
                    _fit(item, kind[0])
                except ConfigError as exc:
                    raise ConfigError(f"[{i}]{exc}") from None
            ident = item["name"] if isinstance(item, dict) and "name" in item else item
            if ident in seen:
                raise ConfigError(f"[{i}] repeats {ident!r}")
            seen.append(ident)
    elif type(kind) is tuple:
        if value not in kind:
            raise ConfigError(f" must be one of {list(kind)}, got {value!r}")
    else:
        types, what = _SCALARS[kind]
        # a JSON boolean is a Python int, but never a count or a quantity
        if (not isinstance(value, types) or (isinstance(value, bool) and kind is not bool)
                or (kind is COUNT and value < 1)):
            raise ConfigError(f" must be {what}, got {value!r}")


def check_command(spec: ExperimentSpec, command: str) -> None:
    """Raise ConfigError unless spec gives only keys command reads and every
    key it requires, and names a backend it runs on."""
    reads, requires, backends = COMMANDS[command]
    for key in spec.given:
        if key not in reads:
            raise ConfigError(f"{command} does not read config.{key}")
    for key in requires:
        if key not in spec.given:
            raise ConfigError(f"{command} requires config.{key}")
    if backends and spec.backend not in backends:
        raise ConfigError(f"{command} runs on backend {' or '.join(backends)}, "
                          f"not {spec.backend!r}")


def fmt(value) -> str:
    """Floats carry 17 significant digits so CSVs round-trip exactly."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header: list[str], rows: list[tuple]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _calibration_table(cfg: SystemConfig, spec: ExperimentSpec) -> CalibrationTable:
    return calibrate(cfg, spec.calibration_samples, P=spec.mvd_p,
                     id_offset=CALIBRATION_ID_OFFSET)[0]


def _lmins(policy: str, H: np.ndarray, table: CalibrationTable | None) -> list[int]:
    """The rotation lower bound under policy of each channel of a (k, N, M)
    stack, its indicator taken for the whole stack in one call."""
    if policy == LMIN_ZERO:
        return [0] * len(H)
    if policy == LMIN_CONVENTIONAL_C:
        return [select_lmin_conventional(c) for c in indicator_c(H).tolist()]
    # the schema admits three policies, and run_query_cdf builds the table
    # whenever a variant takes proposed-cprime
    return [select_lmin(table, c) for c in indicator_c_prime(H).tolist()]


def _gas_params(spec: ExperimentSpec, arm: dict, ymvd: float, lmin: int) -> GasParams:
    """A query-cdf variant or GAS_DETECTORS arm: spec.gas with the arm's
    initial threshold (mvd, else none; an mmse arm's runs are seeded with
    x0) and restart, and the rotation lower bound lmin (_lmins)."""
    return dataclasses.replace(
        spec.gas, y0=ymvd if arm.get("threshold") == "mvd" else None, lmin=lmin,
        restart_enabled=arm.get("restart", False))


def _gas_backend(spec: ExperimentSpec, inst, r, space, y0: float | None, where: str):
    """The configured backend over space.  Without a configured q_v the
    circuit's value register is fitted to a run from y0 over [0, the
    channel's objective bound]; a configured q_v too narrow for a run from
    y0 over the table's values is a config error, raised before the run
    searches."""
    if spec.backend == BACKEND_AMPLITUDE:
        return Backend(space)
    if spec.q_v is None:
        return Backend(space, register_width(
            0.0, channel_bound(inst.H, r, space.prep, space.reg.taud), y0))
    e = space.e_values[0]
    need = register_width(float(e.min()), float(e.max()), y0)
    if need > spec.q_v:
        raise ConfigError(f"{where}: gas.q_v = {spec.q_v} cannot hold E - y over this "
                          f"arm's objective values; it needs q_v >= {need}")
    return Backend(space, spec.q_v)


def run_query_cdf(spec: ExperimentSpec):
    """First-hit query complexities of the configured GAS variants.

    Row schema: variant, trial, cd_queries, qd_rotations, converged.

    When every variant starts at the MVD threshold on the w-state-reduced
    space and the backend is amplitude, the trials' arms first run on their
    states below y_mvd alone, all of them in one run_gas_ranks call
    (_prefix_runs), and no value table is built or sorted.  A trial falls
    back to its full tables (_full_runs) when it has no such state, an arm
    reaches a restart or an arm ends unconverged, so every run is field for
    field the full table's.  A converged output is re-verified against
    objective_direct, once per space and output.
    """
    cfg = spec.cfg
    check_command(spec, "query-cdf")
    needs_table = any(v.get("lmin") == LMIN_PROPOSED_CPRIME for v in spec.variants)
    table = _calibration_table(cfg, spec) if needs_table else None
    ymvd = y_mvd(MvdParams.from_config(cfg, spec.mvd_p))
    # every trial's instance and slot 0 in one stack, and each variant's
    # rotation lower bounds in one indicator call over it
    trials, ts = range(spec.trials), np.zeros(spec.trials, dtype=np.intp)
    insts = generate_instance(cfg, trials)
    r_all = received_slots(insts, cfg, ts, *slot_draws(cfg, ts, instance_id=trials))
    lmins = [_lmins(v.get("lmin", LMIN_ZERO), insts.H, table) for v in spec.variants]
    # each variant's GasParams once per distinct rotation lower bound
    arms = [{lmin: _gas_params(spec, variant, ymvd, lmin) for lmin in set(ls)}
            for variant, ls in zip(spec.variants, lmins)]
    params = [[arm[ls[trial]] for arm, ls in zip(arms, lmins)] for trial in trials]
    rngs = streams.substreams(cfg.seed, [(streams.TRIAL, trial, vi) for trial in trials
                                         for vi in range(len(spec.variants))])
    gens = [[next(rngs) for _ in spec.variants] for _ in trials]
    on_prefix = spec.backend == BACKEND_AMPLITUDE and all(
        v.get("threshold") == "mvd" and v.get("prep", W_STATE_REDUCED) == W_STATE_REDUCED
        for v in spec.variants)
    found = (_prefix_runs(cfg, _prefixes(insts, r_all, cfg, ymvd), params, gens) if on_prefix
             else [None] * spec.trials)
    rows = []
    for trial in trials:
        inst, r = insts[trial], r_all[trial:trial + 1]
        oracle_min, runs = found[trial] or _full_runs(spec, inst, r, trial, params[trial],
                                                      gens[trial])
        checked = set()
        for variant, (space, run) in zip(spec.variants, runs):
            # re-verify against the exhaustive oracle; no mismatch tolerated
            if run.converged and (space.prep, run.final) not in checked:
                checked.add((space.prep, run.final))
                b, d = space.reg.split_assignment(space.assignment(run.final))
                check = objective_direct(inst, r[0], 0, b, d)
                if check > oracle_min + 1e-9 * (1.0 + abs(oracle_min)):
                    raise RuntimeError(
                        f"converged run disagrees with exhaustive search: "
                        f"E={check!r} > minimum {oracle_min!r}")
            rows.append((variant["name"], trial, run.cd_queries, run.qd_rotations, run.converged))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def _prefixes(insts, r: np.ndarray, cfg: SystemConfig, y: float) -> list:
    """Per row of an instance stack, what a search of its states below y
    reads, None where there is none: (their count ns0, the least value, the
    ordinals at it in ordinal order, and the start of each state's tie
    group over the states sorted by (value, ordinal), None without ties).
    That sort is the head of the table's.  One channel_below call per
    BELOW_ROWS rows, so at most that many rows' states are held at once."""
    found = []
    for k in range(0, len(r), BELOW_ROWS):
        chunk = slice(k, k + BELOW_ROWS)
        row, ordinal, value = channel_below(insts[chunk], r[chunk], cfg, y)
        order = np.lexsort((ordinal, value, row))
        row, ordinal, value = row[order], ordinal[order], value[order]
        counts = np.bincount(row, minlength=len(r[chunk]))
        tie = np.zeros(row.size, bool)
        tie[1:] = (value[1:] == value[:-1]) & (row[1:] == row[:-1])
        group = np.maximum.accumulate(np.where(tie, 0, np.arange(row.size)))
        for start, ns0 in zip((np.cumsum(counts) - counts).tolist(), counts.tolist()):
            if not ns0:
                found.append(None)
                continue
            below = group[start:start + ns0] - start
            hit = int(np.count_nonzero(below == 0))
            found.append((ns0, float(value[start]), ordinal[start:start + hit],
                          below if tie[start + 1:start + ns0].any() else None))
    return found


def _prefix_runs(cfg: SystemConfig, prefixes: list, params: list[list[GasParams]],
                 gens: list[list]) -> list:
    """Every trial's arms, each from its generator, on its states below
    y_mvd alone (_prefixes), in one run_gas_ranks call over the trials that
    have such states.  Per trial (the minimum, [(keys, run)]), keys the
    stack of no rows that decodes the runs' ordinals; None, its generators
    back in their states before the runs, when it has no such state, an arm
    reaches a restart or an arm ends unconverged."""
    keys = channel_keys(cfg, W_STATE_REDUCED)
    on = [trial for trial, prefix in enumerate(prefixes) if prefix is not None]
    runs = [(trial, p, g) for trial in on for p, g in zip(params[trial], gens[trial])]
    saved = [g.bit_generator.state for *_, g in runs]
    ns0, _, heads, below = zip(*(prefixes[trial] for trial, *_ in runs)) if runs else [()] * 4
    ranks = run_gas_ranks(keys, [(p, g) for _, p, g in runs], ns0, [h.size for h in heads],
                          None if all(b is None for b in below) else below)
    hit_at, cd, qd, stop = (a.tolist() for a in (ranks.hit_at, ranks.cd_queries,
                                                 ranks.qd_rotations, ranks.stop_reason))
    found = [None] * len(prefixes)
    per_trial = len(params[0]) if params else 0
    for k, trial in enumerate(on):
        mine = range(k * per_trial, (k + 1) * per_trial)
        if all(stop[a] == STOP_OPTIMUM for a in mine):
            _, oracle_min, head, _ = prefixes[trial]
            found[trial] = oracle_min, [
                (keys, GasBatch(final=int(head[hit_at[a]]), final_y=oracle_min,
                                invalid_final=False, cd_queries=cd[a], qd_rotations=qd[a],
                                stop_reason=STOP_OPTIMUM)) for a in mine]
        else:
            for a in mine:
                runs[a][2].bit_generator.state = saved[a]
    return found


def _full_runs(spec: ExperimentSpec, inst, r: np.ndarray, trial: int,
               params: list[GasParams], gens):
    """A trial's arms, each from its generator, on its full tables: (the
    minimum, [(space, run)]).  Every arm's backend is built before any
    search, so that a value register too narrow for one arm fails the
    trial before it starts."""
    spaces = {W_STATE_REDUCED: channel_spaces(inst, r, [0], spec.cfg, W_STATE_REDUCED)}
    oracle_min = float(spaces[W_STATE_REDUCED].e_values.min())
    backends = []
    for variant, p in zip(spec.variants, params):
        prep = variant.get("prep", W_STATE_REDUCED)
        if prep not in spaces:
            spaces[prep] = channel_spaces(inst, r, [0], spec.cfg, prep)
        where = f"variant {variant['name']!r}, trial {trial}"
        backends.append(_gas_backend(spec, inst, r[0], spaces[prep], p.y0, where))
    return oracle_min, [(backend.space, run_gas(backend, p, g, oracle_min=oracle_min))
                        for backend, p, g in zip(backends, params, gens)]


def run_ber(spec: ExperimentSpec):
    """Bit error rates per detector and SNR point, and the GAS detectors'
    first-hit rotations.

    Returns two row lists.  BER rows: detector, snr_db, t_p, bits, errors,
    ber.  Rotation rows, one per GAS detector and SNR point: detector,
    snr_db, runs, censored, median_qd, that is the GAS runs, how many ended
    without measuring the optimum, and the median rotation count to the
    first hit, a censored run counting as +inf.  Each trial is one batch of
    its T_D slots at every SNR point of the sweep (_ber_trial).
    """
    cfg0 = spec.cfg
    check_command(spec, "ber")
    detectors = spec.detectors or ["exhaustive", "gas-mvd"]
    snrs = spec.snr_sweep or [cfg0.snr_db]
    cfgs = [cfg0.with_snr(snr) for snr in snrs]
    ymvds = [y_mvd(MvdParams.from_config(cfg, spec.mvd_p)) for cfg in cfgs]
    errors = np.zeros((len(snrs), len(detectors)), dtype=np.int64)
    hits: dict[tuple[int, str], list[np.ndarray]] = {}
    for trial in range(spec.trials):
        bits_true, bits_hat, first_hits = _ber_trial(spec, cfgs, detectors, ymvds, trial)
        errors += np.count_nonzero(bits_hat != bits_true, axis=(2, 3))
        for key, qd in first_hits:
            hits.setdefault(key, []).append(qd)
    nbits = spec.trials * cfg0.T_D * cfg0.bits_per_slot
    rows = [(det, float(snr), cfg0.T_P, nbits, err, err / max(1, nbits))
            for snr, errs in zip(snrs, errors.tolist()) for det, err in zip(detectors, errs)]
    rotations = []
    for (si, det), qds in hits.items():
        qd = np.sort(np.concatenate(qds))
        # np.median's mean of the middle pair; np.median itself imports
        # numpy.ma on first use, about 1.5 MiB resident
        median = (qd[(qd.size - 1) // 2] + qd[qd.size // 2]) / 2
        rotations.append((det, float(snrs[si]), qd.size, int(np.count_nonzero(np.isinf(qd))),
                          float(median)))
    rows.sort(key=lambda r: (r[0], r[1]))
    rotations.sort(key=lambda r: (r[0], r[1]))
    return rows, rotations


def _ber_trial(spec: ExperimentSpec, cfgs: list[SystemConfig], detectors: list[str],
               ymvds: list[float], trial: int):
    """One trial of run_ber: its T_D slots at the S SNR points of cfgs.

    The instance and each slot's payload bits and unit-variance noise are
    drawn once: neither a stream key nor the instance holds the SNR, so
    SNR point s differs only in cfgs[s], whose sigma_v and est_err_var
    scale the noise.  The S x T_D value tables form one SpaceStack, row
    s T_D + t for SNR point s and slot t, and the exhaustive argmins are
    one call over it.  The MMSE seeds of every SNR point are one
    mmse_detect call over the stack, each point under its own config.
    Every GAS detector at every SNR point is one arm of T_D runs in one
    run_gas_batch.  Detector d (its index in the detector list) draws from
    the stream (seed, GAS, trial, d), a generator of its own at each SNR
    point, and gas-mmse's runs are seeded with the MMSE ordinals.  All
    outputs are decoded through the key-index table at once.  Each GAS run
    halts at its first measurement of its slot's minimum; its output is
    fixed by then, since GAS accepts only strictly lower values and none
    lies below the minimum.

    Returns the payload bits (T_D, n_b), every detector's decisions
    (S, detectors, T_D, n_b) and, per GAS detector and SNR point,
    ((s, detector), first-hit rotations of its runs), +inf for a censored
    run.
    """
    cfg0, n_snr, n_slots = cfgs[0], len(cfgs), cfgs[0].T_D
    slots = np.arange(n_slots)
    inst = generate_instance(cfg0, instance_id=trial)
    bits_true, v, e = slot_draws(cfg0, slots, instance_id=trial)
    r = np.concatenate([received_slots(inst, cfg, slots, bits_true, v, e) for cfg in cfgs])
    stack = channel_spaces(inst, r, np.tile(slots, n_snr), cfg0, W_STATE_REDUCED)
    gas = [(di, det) for di, det in enumerate(detectors) if det in GAS_DETECTORS]
    seeds_mmse = "mmse" in detectors or any(
        GAS_DETECTORS[det].get("threshold") == "mmse" for _, det in gas)
    x_mmse = mmse_detect(inst, r, slots, cfgs, stack) if seeds_mmse else None
    outputs = {"exhaustive": stack.e_values.argmin(axis=1), "mmse": x_mmse}
    first_hits = []
    if gas:
        arms, x0 = [], []
        rngs = streams.substreams(cfg0.seed, [(streams.GAS, trial, di) for di, _ in gas] * n_snr)
        for si, ymvd in enumerate(ymvds):
            for di, det in gas:
                arm = GAS_DETECTORS[det]
                arms.append((_gas_params(spec, arm, ymvd, 0), next(rngs), n_slots))
                x0.append(x_mmse[si * n_slots:(si + 1) * n_slots]
                          if arm.get("threshold") == "mmse" else np.full(n_slots, -1))
        runs = np.repeat(np.arange(n_snr * n_slots).reshape(n_snr, n_slots), len(gas),
                         axis=0).ravel()
        batch = run_gas_batch(stack, runs, arms, x0=np.concatenate(x0),
                              oracle_min=stack.e_values.min(axis=1)[runs])
        finals = batch.final.reshape(n_snr, len(gas), n_slots)
        qd_hit = np.where(batch.converged, batch.qd_rotations, math.inf).reshape(finals.shape)
        for j, (di, det) in enumerate(gas):
            outputs[di] = finals[:, j].ravel()
            first_hits.extend(((si, det), qd_hit[si, j]) for si in range(n_snr))
    ordinals = np.stack([outputs[di if det in GAS_DETECTORS else det]
                         for di, det in enumerate(detectors)])
    ordinals = ordinals.reshape(len(detectors), n_snr, n_slots).swapaxes(0, 1)
    return bits_true, stack.assignment(ordinals)[..., :stack.reg.n_b], first_hits


def run_calibration(spec: ExperimentSpec, out_dir: Path | None = None):
    """Scatter of (indicator value, L_opt) for all four indicators."""
    cfg = spec.cfg
    check_command(spec, "calibrate")
    table, scatter = calibrate(cfg, spec.calibration_samples, P=spec.mvd_p)
    rows = []
    for key in ("c", "c1", "c2", "c_prime"):
        for value, lo in zip(scatter[key], table.l_opt):
            rows.append((key, float(value), int(lo)))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        table.save(out_dir / "calibration_table.csv",
                   cfg_hash=config_hash(cfg, spec.calibration_samples, spec.mvd_p))
    return rows, table


def run_gate_count(spec: ExperimentSpec) -> list[dict]:
    check_command(spec, "gate-count")
    return [build_report(cell["M"], cell["tau_max"], cell.get("q_v", 1),
                         cell.get("modulation", PSK2)) for cell in spec.grid]


def solve_single(spec: ExperimentSpec,
                 dump_state: Path | None = None) -> tuple[SpaceStack, GasBatch]:
    """One recorded GAS run on a fresh instance, and the space its ordinals
    index."""
    cfg = spec.cfg
    check_command(spec, "solve")
    if dump_state is not None and spec.backend != BACKEND_CIRCUIT:
        # the prepared state exists only in the circuit model
        raise ConfigError(f"solve does not take --dump-state on backend {spec.backend!r}")
    inst = generate_instance(cfg, instance_id=0)
    r = received_slots(inst, cfg, [0], *slot_draws(cfg, [0], instance_id=0))
    space = channel_spaces(inst, r, [0], cfg, W_STATE_REDUCED)
    ymvd = y_mvd(MvdParams.from_config(cfg, spec.mvd_p))
    params = _gas_params(spec, SOLVE_ARM, ymvd,
                         _lmins(SOLVE_ARM["lmin"], inst.H[None], None)[0])
    backend = _gas_backend(spec, inst, r[0], space, params.y0, "solve, trial 0")
    if dump_state is not None:
        # little-endian complex128 is float64 re/im interleaved
        prepared_state(space, backend.q_v, ymvd).astype("<c16").tofile(dump_state)
    rng = streams.substream(cfg.seed, streams.GAS, 0, 0, 0)
    return space, run_gas(backend, params, rng, oracle_min=float(space.e_values.min()),
                          record=True)
