"""Command-line entry point.

Subcommands: solve, query-cdf, ber, calibrate, gate-count.  Exit codes:
0 success, 2 when the requested problem exceeds simulation capacity,
1 for any other error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import CapacityError, ConfigError
from .harness import (COMMANDS, COUNT, ExperimentSpec, check, fmt, load_spec, run_ber,
                      run_calibration, run_gate_count, run_query_cdf, solve_single, write_csv)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override cfg.seed")
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    # checked by each subcommand, which names the backends it runs on
    p.add_argument("--backend", default=None, metavar="{amplitude,circuit}")
    p.add_argument("--out", default=None, help="override output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasmld",
        description="Grover adaptive search workbench for overloaded-MIMO "
                    "maximum likelihood detection")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run one instance and print the trace")
    _add_common(solve)
    solve.add_argument("--dump-state", default=None,
                       help="write the prepared state A_y|0> (circuit backend)")
    for name in ("query-cdf", "ber", "calibrate", "gate-count"):
        _add_common(sub.add_parser(name))
    return parser


# the config key each override flag sets; a command that does not read the
# key does not take the flag
_FLAG_KEYS = {"seed": "cfg", "trials": "trials", "backend": "gas.backend", "out": "output_dir"}


def _spec_from_args(args) -> ExperimentSpec:
    reads = COMMANDS[args.command][0]
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag) is not None and key not in reads:
            raise ConfigError(f"{args.command} does not take --{flag}")
    spec = load_spec(args.config)
    # the overrides get the checks their config values get at load
    if args.seed is not None and spec.cfg is not None:  # else the runner reports it missing
        try:
            spec.cfg = dataclasses.replace(spec.cfg, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if args.trials is not None:
        check(args.trials, COUNT, "--trials")
        spec.trials = args.trials
    if args.backend is not None:
        spec.backend = args.backend
    if args.out is not None:
        spec.output_dir = args.out
    return spec


def _run(args) -> int:
    spec = _spec_from_args(args)
    out = Path(spec.output_dir)
    if args.command == "solve":
        dump = Path(args.dump_state) if args.dump_state else None
        space, run = solve_single(spec, dump_state=dump)
        print("\n".join(json.dumps({
            "i": step["i"], "y": step["y"], "L": step["L"], "k": step["k"],
            "x": "".join(map(str, space.assignment(step["x"]))), "Ex": step["Ex"],
            "accepted": step["accepted"], "cum_rot": step["cum_rot"],
            "restart": step["restarted"]}) for step in run.steps))
        summary = {"final_y": run.final_y, "cd_queries": run.cd_queries,
                   "qd_rotations": run.qd_rotations, "converged": run.converged,
                   "stop_reason": run.stop_reason}
        print(json.dumps(summary), file=sys.stderr)
    elif args.command == "query-cdf":
        print(write_csv(out / f"{spec.name}_query_cdf.csv",
                        ["variant", "trial", "cd_queries", "qd_rotations", "converged"],
                        run_query_cdf(spec)))
    elif args.command == "ber":
        rows, rotations = run_ber(spec)
        print(write_csv(out / f"{spec.name}_ber.csv",
                        ["detector", "snr_db", "t_p", "bits", "errors", "ber"], rows))
        print(write_csv(out / f"{spec.name}_ber_rotations.csv",
                        ["detector", "snr_db", "runs", "censored", "median_qd"], rotations))
    elif args.command == "calibrate":
        rows, _ = run_calibration(spec, out_dir=out)
        print(write_csv(out / f"{spec.name}_calibration.csv",
                        ["indicator", "value", "l_opt"], rows))
    else:
        reports = run_gate_count(spec)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{spec.name}_gate_count.json"
        path.write_text(json.dumps(reports, indent=2) + "\n")
        for rep in reports:
            print(f"M={rep['M']} tau_max={rep['tau_max']} q_v={rep['q_v']} "
                  f"{rep['modulation']}: q_k={rep['q_k']} G_UG={rep['g_ug_cnot']} "
                  f"G_prop={rep['g_prop_cnot']} ratio={fmt(rep['ratio'])}")
        print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
