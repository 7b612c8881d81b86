import copy
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasmld import cli, harness, streams
from gasmld.channel import SystemConfig, generate_instance, objective_direct
from gasmld.errors import ConfigError
from gasmld.gas import OutsidePrefix, run_gas, run_gas_batch
from gasmld.harness import (ExperimentSpec, fmt, load_spec, run_ber, run_calibration,
                            run_gate_count, run_query_cdf, solve_single, write_csv)
from gasmld.spaces import HADAMARD_FULL, W_STATE_REDUCED, build_registry, channel_spaces
from gasmld.thresholds import MvdParams, y_mvd
from oracles import (GroverCircuit, build_hubo, random_payload_bits, received_slot,
                     reference_load_spec)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
README = Path(__file__).resolve().parent.parent / "README.md"


def small_cdf_spec(trials=12, seed=5):
    return load_spec({
        "name": "t",
        "cfg": {"N": 2, "M": 3, "tau_max": 1, "T_P": 64, "T_D": 4,
                "snr_db": 20.0, "seed": seed},
        "trials": trials,
        "variants": [
            {"name": "w-prep", "prep": "w-state-reduced", "threshold": "random", "lmin": "zero"},
            {"name": "hadamard", "prep": "hadamard-full", "threshold": "random", "lmin": "zero"},
        ],
    })


CFG = {"N": 2, "M": 2, "tau_max": 1}
W_PREP = {"name": "w", "prep": "w-state-reduced", "threshold": "random", "lmin": "zero"}


class TestLoader:
    def test_missing_cfg(self):
        # the loader takes a config without cfg; every command that reads
        # cfg requires it, and gate-count, which does not, runs without it
        for runner, config in ((solve_single, {}), (run_query_cdf, {"variants": [W_PREP]}),
                               (run_ber, {"name": "x"}), (run_calibration, {"name": "x"})):
            with pytest.raises(ConfigError, match=r"requires config\.cfg$"):
                runner(load_spec(config))
        assert len(run_gate_count(load_spec({"grid": [{"M": 2, "tau_max": 1}]}))) == 1

    def test_unknown_cfg_field(self):
        with pytest.raises(ConfigError):
            load_spec({"cfg": {"N": 2, "M": 2, "tau_max": 1, "bogus": 3}})
        # unknown top-level, variant and detector names are rejected by name
        for bad, word in (({"cfg": CFG, "trails": 5}, "trails"),
                          ({"cfg": CFG, "variants": [{**W_PREP, "lmn": "zero"}]}, "lmn"),
                          ({"cfg": CFG, "detectors": ["exhaustive", "gas-sdr"]}, "gas-sdr"),
                          ({"cfg": CFG, "gas": {"lamda": 1.2}}, "lamda"),
                          ({"cfg": CFG, "gas": {"budget_rotation": 5}}, "budget_rotation"),
                          ({"cfg": CFG, "calibration": {"sample": 10}}, "sample"),
                          ({"cfg": CFG, "grid": [{"M": 2, "tau_max": 1, "qv": 8}]}, "qv")):
            with pytest.raises(ConfigError, match=word):
                load_spec(bad)

    def test_wrong_type(self):
        with pytest.raises(ConfigError):
            load_spec({"cfg": {"N": "two", "M": 2, "tau_max": 1}})
        for bad in ({"trials": 2.7}, {"trials": True}, {"trials": "5"},
                    {"variants": W_PREP}, {"variants": [{**W_PREP, "name": 3}]},
                    {"variants": [{**W_PREP, "restart": "yes"}]},
                    {"variants": [{**W_PREP, "restart": 1}]},
                    {"detectors": "mmse"}, {"detectors": [["mmse"]]},
                    {"gas": []}, {"gas": {"lambda": "1.2"}}, {"gas": {"mvd_p": True}},
                    {"gas": {"budget_rotations": 2.5}}, {"gas": {"budget_iterations": True}},
                    {"gas": {"q_v": "8"}}, {"calibration": 10},
                    {"calibration": {"samples": 10.0}},
                    {"snr_sweep": "10"}, {"snr_sweep": 10.0}, {"snr_sweep": [10.0, "15"]},
                    {"snr_sweep": [True]}, {"grid": {"M": 2, "tau_max": 1}},
                    {"grid": [[2, 1]]}, {"grid": [{"M": 2.0, "tau_max": 1}]},
                    {"grid": [{"M": 2}]}, {"grid": [{"M": 2, "tau_max": 1, "q_v": 1.0}]},
                    {"name": 5}, {"output_dir": 7}, {"name": 5, "output_dir": 7},
                    {"name": ["x"]}, {"output_dir": True}):
            with pytest.raises(ConfigError):
                load_spec({"cfg": CFG, **bad})

    def test_invalid_system_values(self):
        with pytest.raises(ConfigError):
            load_spec({"cfg": {"N": 0, "M": 2, "tau_max": 1}})
        with pytest.raises(ConfigError, match="seed"):
            load_spec({"cfg": {**CFG, "seed": -4}})
        # a JSON boolean is no integer or number
        for bad_cfg in ({"N": True, "M": 2, "tau_max": 1, "seed": True},
                        {**CFG, "N": True}, {**CFG, "tau_max": False}, {**CFG, "seed": True},
                        {**CFG, "T_D": True}, {**CFG, "P_X": True}, {**CFG, "snr_db": False}):
            with pytest.raises(ConfigError):
                load_spec({"cfg": bad_cfg})
        for bad in ({"trials": 0}, {"trials": -3},
                    {"variants": [{**W_PREP, "threshold": "MVD"}]},
                    {"variants": [{**W_PREP, "prep": "w-state"}]},
                    {"variants": [{**W_PREP, "lmin": "proposed-c"}]},
                    {"variants": [{k: v for k, v in W_PREP.items() if k != "name"}]},
                    {"detectors": ["gas-MVD"]},
                    {"gas": {"budget_rotations": 0}}, {"gas": {"q_v": -1}},
                    {"gas": {"lambda": 1.5}}, {"gas": {"lambda": 1.0}},
                    {"gas": {"mvd_p": 2.0}}, {"gas": {"mvd_p": 0.0}},
                    {"calibration": {"samples": 0}},
                    {"grid": [{"M": 2, "tau_max": 1, "q_v": 0}]},
                    {"grid": [{"M": 2, "tau_max": 1, "modulation": "bpsk"}]},
                    {"variants": [W_PREP, {**W_PREP, "threshold": "mvd"}]},
                    {"detectors": ["exhaustive", "gas-mvd", "gas-mvd"]},
                    {"snr_sweep": [10.0, 15.0, 10]},
                    {"variants": []}, {"grid": []}, {"detectors": []}, {"snr_sweep": []}):
            with pytest.raises(ConfigError):
                load_spec({"cfg": CFG, **bad})

    def test_errors_name_the_key_path(self):
        for bad, path in (({"cfg": {"M": 2, "tau_max": 1}}, "cfg.N is required"),
                          ({"cfg": CFG, "gas": {"q_v": 0}}, "gas.q_v must be an integer >= 1"),
                          ({"cfg": CFG, "variants": [W_PREP, {**W_PREP, "name": "v", "lmin": 0}]},
                           r"variants\[1\]\.lmin must be one of"),
                          ({"cfg": CFG, "grid": [{"M": 2, "tau_max": 1, "qv": 8}]},
                           r"grid\[0\]\.qv is not a known key"),
                          ([CFG], "config must be an object"),
                          # a repeated variant name, detector, SNR point or
                          # grid cell would repeat or pool output rows
                          ({"cfg": CFG, "variants": [W_PREP, {**W_PREP, "threshold": "mvd"}]},
                           r"variants\[1\] repeats 'w'"),
                          ({"cfg": CFG, "detectors": ["exhaustive", "gas-mvd", "gas-mvd"]},
                           r"detectors\[2\] repeats 'gas-mvd'"),
                          ({"cfg": CFG, "snr_sweep": [10.0, 15.0, 10]},
                           r"snr_sweep\[2\] repeats 10"),
                          ({"cfg": CFG, "grid": [{"M": 2, "tau_max": 1}] * 2},
                           r"grid\[1\] repeats"),
                          # an empty list is no default
                          ({"cfg": CFG, "detectors": []}, r"config\.detectors is empty")):
            with pytest.raises(ConfigError, match=path):
                load_spec(bad)

    def test_sample_configs_load(self):
        for path in CONFIG_DIR.glob("*.json"):
            spec = load_spec(path)
            assert isinstance(spec, ExperimentSpec)
        # null engine settings keep their defaults
        spec = load_spec({"cfg": CFG, "gas": {"q_v": None, "budget_iterations": None,
                                              "budget_rotations": None}})
        assert spec.q_v is None and spec.gas.budget_iterations is None


def readme_example() -> dict:
    """The jsonc example of README's configuration section, comments stripped."""
    block = README.read_text().split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"\s*//.*", "", block))


def key_tree(node):
    """The nested keys of a JSON value or a schema kind; a list's tree is
    the merged trees of its items."""
    node = getattr(node, "kind", node)  # a required or nullable schema key
    if isinstance(node, dict):
        return {key: key_tree(value) for key, value in node.items()}
    if isinstance(node, list):
        trees = [key_tree(item) for item in node]
        return [{k: v for tree in trees for k, v in tree.items()}
                if isinstance(trees[0], dict) else None]
    return None


class TestSchema:
    EXAMPLES = [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]
    EXAMPLES.append(readme_example())
    # what a swap puts in place of a value: null, each JSON kind, 0 and -1
    SWAPS = [None, True, False, "x", 0.5, 2.5, [], {}, 0, -1]

    def test_readme_example_is_the_schema(self):
        example = readme_example()
        assert isinstance(load_spec(example), ExperimentSpec)
        assert key_tree(example) == key_tree(harness._SCHEMA)
        assert set(harness._SCHEMA["cfg"]) == {
            f.name for f in dataclasses.fields(SystemConfig)}

    @staticmethod
    def nodes(tree, path=()):
        """(path, value) of every node of a JSON tree, the root first."""
        yield path, tree
        if isinstance(tree, (dict, list)):
            for key, value in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
                yield from TestSchema.nodes(value, path + (key,))

    @staticmethod
    def repeats(config) -> bool:
        """Whether a list in config holds an item twice, items told apart as
        the loader tells them: an object by its name."""
        for _, node in TestSchema.nodes(config):
            if isinstance(node, list):
                idents = [item["name"] if isinstance(item, dict) and "name" in item else item
                          for item in node]
                if any(ident in idents[:i] for i, ident in enumerate(idents)):
                    return True
        return False

    @staticmethod
    @st.composite
    def mutated(draw):
        """An example config after one to three mutations."""
        config = copy.deepcopy(draw(st.sampled_from(TestSchema.EXAMPLES)))
        for _ in range(draw(st.integers(1, 3))):
            path, node = draw(st.sampled_from(list(TestSchema.nodes(config))))
            moves = ["swap"] if path else []
            if isinstance(node, dict):
                moves += ["add"] + (["drop"] if node else [])
            if isinstance(node, list) and node:
                moves.append("repeat")
            move = draw(st.sampled_from(moves))
            if move == "swap":
                parent = config
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(TestSchema.SWAPS)))
            elif move == "add":
                node[draw(st.sampled_from(["bogus", "Name", "trial"]))] = 1
            elif move == "drop":
                del node[draw(st.sampled_from(sorted(node)))]
            else:
                node.append(copy.deepcopy(draw(st.sampled_from(node))))
        return config

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(config=mutated())
    def test_loader_matches_the_reference(self, config):
        # both reject, or both load equal specs; only a repeated list item
        # or an empty list is rejected by load_spec alone.  A missing cfg is
        # an error of the commands that read it, so both loaders get one.
        if isinstance(config, dict) and "cfg" not in config:
            config["cfg"] = CFG
        try:
            expected = reference_load_spec(config)
        except ConfigError:
            expected = None
        try:
            got, error = load_spec(config), ""
        except ConfigError as exc:
            got, error = None, str(exc)
        if expected is not None and got is None:
            assert (self.repeats(config) and " repeats " in error) or error.endswith(" is empty")
        else:
            assert got == expected


def perfbench_workloads():
    """perfbench/workloads.py, loaded by path: it imports nothing from gasmld."""
    path = README.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCommands:
    CONFIG_COMMANDS = {"ber_thresholds.json": "ber", "calibration_fig5.json": "calibrate",
                       "gate_count.json": "gate-count", "query_cdf_fig3.json": "query-cdf",
                       "query_cdf_lmin.json": "query-cdf", "solve_single.json": "solve"}

    def test_shipped_configs_pass_their_command(self):
        assert sorted(self.CONFIG_COMMANDS) == sorted(p.name for p in CONFIG_DIR.glob("*.json"))
        for name, command in self.CONFIG_COMMANDS.items():
            harness.check_command(load_spec(CONFIG_DIR / name), command)

    @pytest.mark.parametrize("seed", [0, 1, 7, 61])
    def test_benchmark_specs_pass_their_command(self, seed):
        # the benchmark counts a call that raises as a failed item
        workloads = perfbench_workloads()
        for workload in workloads.WORKLOADS:
            command = {"run_ber": "ber",
                       "run_query_cdf": "query-cdf"}[workloads.RUNNERS[workload]]
            for config in (workloads.warmup_spec(workload, seed),
                           *(workloads.chunk_spec(workload, seed, i) for i in (0, 1, 99))):
                harness.check_command(load_spec(config), command)

    def test_readme_table_is_the_literal(self):
        section = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
        table = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                (command,), reads, requires, backends = (
                    re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:-1])
                table[command] = (set(reads), tuple(requires), tuple(backends))
        assert table == {command: (set(reads), requires, backends)
                         for command, (reads, requires, backends) in harness.COMMANDS.items()}


class TestFormatting:
    def test_seventeen_digits(self):
        assert fmt(0.1) == f"{0.1:.17g}"
        assert fmt(3) == "3"
        assert fmt(True) == "true"

    def test_write_csv(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", ["a", "b"], [(1, 0.5), (2, 0.25)])
        text = p.read_text().splitlines()
        assert text[0] == "a,b"
        assert len(text) == 3


class TestQueryCdf:
    def test_rows_and_verification(self):
        spec = small_cdf_spec()
        rows = run_query_cdf(spec)
        assert len(rows) == 24
        for variant, trial, cd, qd, conv in rows:
            assert variant in ("w-prep", "hadamard")
            assert cd >= 0 and qd >= 0

    def test_byte_identical_reruns(self, tmp_path):
        spec = small_cdf_spec()
        a = write_csv(tmp_path / "a.csv", ["v", "t", "cd", "qd", "c"], run_query_cdf(spec))
        b = write_csv(tmp_path / "b.csv", ["v", "t", "cd", "qd", "c"], run_query_cdf(spec))
        assert a.read_bytes() == b.read_bytes()

    def test_converged_runs_match_exhaustive(self):
        from gasmld.channel import generate_instance
        from oracles import random_payload_bits, received_slot
        spec = small_cdf_spec(trials=6, seed=9)
        rows = run_query_cdf(spec)
        assert any(conv for *_, conv in rows)


    def test_each_preparation_is_enumerated_once_per_trial(self, monkeypatch):
        # two hadamard-full variants share one full table per trial
        spec = small_cdf_spec(trials=3, seed=9)
        spec.variants.append({**spec.variants[1], "name": "hadamard-again"})
        preps = []

        def counted(inst, r, ts, cfg, prep):
            preps.append(prep)
            return channel_spaces(inst, r, ts, cfg, prep)

        monkeypatch.setattr(harness, "channel_spaces", counted)
        rows = run_query_cdf(spec)
        assert preps == [W_STATE_REDUCED, HADAMARD_FULL] * 3
        # the shared table gives a variant the rows its own table gives:
        # with a w-state variant in the first one's place, the third builds
        # the trial's full table itself
        monkeypatch.undo()
        spec.variants[1] = {**spec.variants[0], "name": "w-instead"}
        assert [row[1:] for row in rows if row[0] == "hadamard-again"] == \
            [row[1:] for row in run_query_cdf(spec) if row[0] == "hadamard-again"]

    def test_each_converged_output_is_checked_once(self, monkeypatch):
        # variants that converge to the same state of the same space share
        # one objective_direct check per trial; every other converged
        # output is checked
        spec = small_cdf_spec(trials=6, seed=9)
        spec.variants.append({**spec.variants[0], "name": "w-prep-again"})
        runs, checks = [], []

        def recording(backend, params, rng, **kwargs):
            run = run_gas(backend, params, rng, **kwargs)
            runs.append((backend.space.prep, run))
            return run

        def counted(*args):
            checks.append(args)
            return objective_direct(*args)

        monkeypatch.setattr(harness, "run_gas", recording)
        monkeypatch.setattr(harness, "objective_direct", counted)
        run_query_cdf(spec)
        per_trial = [runs[k:k + 3] for k in range(0, len(runs), 3)]
        outputs = [{(prep, run.final) for prep, run in trial if run.converged}
                   for trial in per_trial]
        assert len(checks) == sum(map(len, outputs))
        assert any(len(trial_outputs) < sum(run.converged for _, run in trial)
                   for trial_outputs, trial in zip(outputs, per_trial))

    @pytest.mark.parametrize("backend,threshold", [
        ("amplitude", "random"), ("circuit", "random"), ("amplitude", "mvd")],
        ids=["amplitude", "circuit", "amplitude-mvd"])
    def test_a_disagreeing_check_stops_the_run(self, monkeypatch, backend, threshold):
        # a converged output that re-evaluates above the oracle minimum is an
        # error, not a row; an mvd arm's output is checked on its prefix,
        # with no value table built
        spec = small_cdf_spec(trials=8, seed=31)
        spec.backend, spec.q_v = backend, 8
        if threshold == "mvd":
            spec.variants = [{"name": "w-mvd", "threshold": "mvd", "restart": True}]
            monkeypatch.setattr(harness, "channel_spaces", no_table)
        monkeypatch.setattr(harness, "objective_direct",
                            lambda *args: objective_direct(*args) + 1.0)
        with pytest.raises(RuntimeError, match="converged run disagrees with exhaustive search"):
            run_query_cdf(spec)


def no_table(*args):
    raise AssertionError("built a value table")


def lmin_spec(trials, variants=("zero", "conventional-c", "proposed-cprime"), tau_max=2, **gas):
    """query-cdf's lmin arms at (N, M) = (2, 4), each from the MVD threshold
    with restart: the prefix path's shape."""
    return load_spec({
        "cfg": {"N": 2, "M": 4, "tau_max": tau_max, "T_P": 128, "T_D": 128, "snr_db": 20.0,
                "seed": 2028},
        "trials": trials, "gas": gas, "calibration": {"samples": 200},
        "variants": [{"name": lmin, "threshold": "mvd", "lmin": lmin, "restart": True}
                     for lmin in variants]})


def record(monkeypatch, name):
    """Every result of harness.<name>, in call order."""
    results, fn = [], getattr(harness, name)

    def recording(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(harness, name, recording)
    return results


def on_full_tables(monkeypatch, spec):
    """run_query_cdf's rows with every trial on its full tables, and each
    trial's (minimum, [(space, run)])."""
    monkeypatch.setattr(harness, "_runs_below", lambda *args: None)
    full = record(monkeypatch, "_full_runs")
    return run_query_cdf(spec), full


class NoMarkedDraw:
    """A generator whose u_class draws are next to 1, so that no draw is
    marked, and whose other draws and state are the wrapped generator's."""

    def __init__(self, rng):
        self.rng, self.bit_generator = rng, rng.bit_generator

    def random(self, shape=None):
        u = self.rng.random(shape)
        if shape is not None:
            u[:, 1] = np.nextafter(1.0, 0.0)
        return u


class TestPrefixPath:
    """An all-MVD w-state query-cdf on the amplitude backend runs each trial
    on its states below y_mvd, and falls back to the full tables, its
    generators restored, where that cannot give the full table's runs."""

    @pytest.mark.parametrize("tau_max", [2, 5])
    def test_prefix_runs_equal_the_full_table(self, monkeypatch, tau_max):
        # each kept prefix run is, field for field, the run the trial's full
        # table gives on the same generator, and so are the rows
        spec = lmin_spec(100, tau_max=tau_max)
        kept = record(monkeypatch, "_runs_below")
        rows = run_query_cdf(spec)
        assert len(kept) == 100 and sum(found is not None for found in kept) >= 90
        full_rows, full = on_full_tables(monkeypatch, spec)
        assert full_rows == rows
        for found, (oracle_min, runs) in zip(kept, full):
            if found is not None:
                assert found[0] == oracle_min
                assert [run for _, run in found[1]] == [run for _, run in runs]

    def test_a_trial_on_its_prefix_builds_no_table(self, monkeypatch):
        spec = lmin_spec(12)
        rows = run_query_cdf(spec)
        monkeypatch.setattr(harness, "channel_spaces", no_table)
        assert run_query_cdf(spec) == rows

    def test_a_restart_falls_back(self, monkeypatch):
        # with no marked draw, lmin-c's runs never accept and restart after
        # their window; the restart draw reads a state by ordinal
        spec = lmin_spec(6, variants=["conventional-c"], budget_rotations=10 ** 6)
        substreams = streams.substreams

        def trials_without_marked_draws(seed, paths):
            paths = list(paths)
            return (NoMarkedDraw(rng) if path[0] == streams.TRIAL else rng
                    for path, rng in zip(paths, substreams(seed, paths)))

        monkeypatch.setattr(streams, "substreams", trials_without_marked_draws)
        raised = []

        def recording(*args, **kwargs):
            try:
                return run_gas(*args, **kwargs)
            except OutsidePrefix as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(harness, "run_gas", recording)
        kept = record(monkeypatch, "_runs_below")
        rows = run_query_cdf(spec)
        assert kept == [None] * 6 and len(raised) == 6
        assert on_full_tables(monkeypatch, spec)[0] == rows

    def test_no_state_below_y_mvd_falls_back(self, monkeypatch):
        # at P = 0.9 y_mvd lies below the minimum of most trials
        spec = lmin_spec(12, variants=["zero", "conventional-c"], mvd_p=0.9)
        ymvd = y_mvd(MvdParams.from_config(spec.cfg, spec.mvd_p))
        kept = record(monkeypatch, "_runs_below")
        rows = run_query_cdf(spec)
        full_rows, full = on_full_tables(monkeypatch, spec)
        assert full_rows == rows
        empty = [oracle_min >= ymvd for oracle_min, _ in full]
        assert 0 < sum(empty) < len(empty)
        assert all(found is None for found, none in zip(kept, empty) if none)

    def test_an_unconverged_run_falls_back(self, monkeypatch):
        # 20 rotations end some runs unconverged, and no restart window fits
        spec = lmin_spec(12, variants=["zero", "conventional-c"], budget_rotations=20)
        kept = record(monkeypatch, "_runs_below")
        rows = run_query_cdf(spec)
        full_rows, full = on_full_tables(monkeypatch, spec)
        assert full_rows == rows
        converged = [all(run.converged for _, run in runs) for _, runs in full]
        assert 0 < sum(converged) < len(converged)
        assert [found is not None for found in kept] == converged

    @pytest.mark.parametrize("change", ["random", "hadamard-full", "circuit"])
    def test_a_mixed_config_stays_on_full_tables(self, monkeypatch, change):
        # a random arm, a hadamard-full arm or the circuit backend keeps
        # every trial on its full tables: no search below y_mvd
        spec = lmin_spec(4, variants=["zero", "conventional-c"])
        if change == "circuit":
            spec.backend = "circuit"
        else:
            spec.variants[1] = {**spec.variants[1], **(
                {"threshold": "random"} if change == "random" else {"prep": change})}
        monkeypatch.setattr(harness, "channel_below", no_table)
        full = record(monkeypatch, "_full_runs")
        assert len(run_query_cdf(spec)) == 8 and len(full) == 4


class TestFixedValueRegister:
    def test_too_narrow_q_v_is_a_config_error_before_any_search(self, tmp_path, monkeypatch,
                                                                capsys):
        # the hadamard-full arm's values at trial 0 span about 126, beyond
        # the 7-qubit window of 64 that holds the w-state arm's 34; the
        # w-state arm ahead of it never runs
        config = {"name": "narrow", "cfg": {"N": 2, "M": 2, "tau_max": 2, "seed": 33},
                  "trials": 3, "gas": {"backend": "circuit", "q_v": 7},
                  "variants": [{"name": "w-mvd", "threshold": "mvd"},
                               {"name": "full-mvd", "prep": "hadamard-full",
                                "threshold": "mvd"}]}
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        calls = []
        monkeypatch.setattr(harness, "run_gas", lambda *a, **k: calls.append(a))
        assert cli.main(["query-cdf", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "variant 'full-mvd', trial 0" in err and "q_v >= 8" in err
        assert calls == [] and not out.exists()


class TestFittedValueRegister:
    def test_an_mvd_threshold_above_the_channel_bound_fits(self):
        # at -5 dB y_mvd exceeds the objective bound of some trials, and a
        # register fitted to the bound alone left E - y outside its window
        # mid-run; the fitted width now holds y_mvd too
        spec = load_spec({"cfg": {"N": 2, "M": 2, "tau_max": 2, "snr_db": -5.0, "seed": 3},
                          "trials": 20, "gas": {"backend": "circuit"},
                          "variants": [{"name": "mvd", "threshold": "mvd", "restart": True}]})
        rows = run_query_cdf(spec)
        assert len(rows) == 20 and any(converged for *_, converged in rows)


class TestCircuitConvergence:
    def test_converged_trials_reach_the_exhaustive_minimum(self, monkeypatch):
        # converged exactly when the optimum was measured, on either backend
        runs = []

        def recording(backend, params, rng, **kwargs):
            run = run_gas(backend, params, rng, **kwargs)
            runs.append((backend.space, kwargs["oracle_min"], run))
            return run

        monkeypatch.setattr(harness, "run_gas", recording)
        for backend in ("amplitude", "circuit"):
            spec = small_cdf_spec(trials=8, seed=31)
            spec.backend, spec.q_v = backend, 8
            runs.clear()
            rows = run_query_cdf(spec)
            assert len(runs) == len(rows) == 16
            assert sum(t.converged for _, _, t in runs) == sum(conv for *_, conv in rows) >= 1
            for space, oracle_min, run in runs:
                assert run.converged == (run.stop_reason == "optimum")
                key = int("".join(map(str, space.assignment(run.final))), 2)
                value = space.e_values[0, int(np.flatnonzero(space.key_indices == key)[0])]
                if run.converged:
                    assert value == pytest.approx(oracle_min, rel=1e-12, abs=1e-12)
                elif space.prep == W_STATE_REDUCED:
                    # an unconverged run never measured the argmin, not even
                    # at a value one rounding away from the minimum
                    assert value > oracle_min + 1e-9 * (1.0 + abs(oracle_min))


class TestBer:
    def test_schema_and_bit_accounting(self):
        spec = load_spec({
            "name": "b",
            "cfg": {"N": 2, "M": 2, "tau_max": 1, "T_P": 64, "T_D": 6,
                    "snr_db": 20.0, "seed": 4},
            "trials": 3,
            "snr_sweep": [20.0],
            "detectors": ["exhaustive", "gas-mvd"],
        })
        rows, rotations = run_ber(spec)
        for det, snr, tp, bits, errors, ber in rows:
            assert bits == 3 * 6 * 2
            assert 0 <= errors <= bits
            assert ber == errors / bits
            assert tp == 64
        # one rotation row per GAS detector and SNR point, over every slot
        [(det, snr, runs, censored, median)] = rotations
        assert (det, snr, runs) == ("gas-mvd", 20.0, 3 * 6)
        assert 0 <= censored <= runs and median >= 0

    def test_snr_points_are_independent(self):
        # a trial's SNR points share one batch; each row must equal the
        # row of a run at that SNR point alone
        config = {"cfg": {"N": 2, "M": 3, "tau_max": 1, "T_D": 6, "seed": 17},
                  "trials": 2,
                  "detectors": ["exhaustive", "mmse", "gas-mvd", "gas-mmse", "gas-rand"]}
        rows, rotations = run_ber(load_spec({**config, "snr_sweep": [10.0, 15.0, 20.0]}))
        alone = [run_ber(load_spec({**config, "snr_sweep": [snr]})) for snr in (10.0, 15.0, 20.0)]
        assert rows == sorted((r for one, _ in alone for r in one), key=lambda r: (r[0], r[1]))
        assert rotations == sorted((r for _, one in alone for r in one),
                                   key=lambda r: (r[0], r[1]))

    def test_one_mmse_and_one_batch_call_per_trial(self, monkeypatch):
        # a trial's MMSE seeds over the whole sweep are one mmse_detect call,
        # and all of its GAS runs one run_gas_batch call
        calls = {"mmse_detect": 0, "run_gas_batch": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(harness, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(harness, name, counted)
        run_ber(load_spec({"cfg": {"N": 2, "M": 2, "tau_max": 1, "T_D": 4, "seed": 5},
                           "trials": 3, "snr_sweep": [10.0, 15.0, 20.0],
                           "detectors": ["exhaustive", "mmse", "gas-mvd", "gas-mmse",
                                         "gas-rand"]}))
        assert calls == {"mmse_detect": 3, "run_gas_batch": 3}

    def test_cd_qd_bookkeeping(self):
        # CD queries never exceed rotations plus zero-rotation iterations
        from gasmld.channel import SystemConfig, generate_instance
        from oracles import random_payload_bits, received_slot
        from gasmld.gas import Backend, GasParams, run_gas
        from gasmld.spaces import channel_spaces
        cfg = SystemConfig(N=2, M=2, tau_max=1, T_P=64, T_D=4, snr_db=20.0, seed=6)
        inst = generate_instance(cfg)
        bits = random_payload_bits(cfg, 0, instance_id=0)
        slot = received_slot(inst, cfg, 0, bits, instance_id=0)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        run = run_gas(Backend(space), GasParams(budget_iterations=60),
                      np.random.default_rng(1), record=True)
        zero_l = sum(1 for step in run.steps if step["L"] == 0)
        assert run.cd_queries <= run.qd_rotations + zero_l + 1  # +1 initial draw

    def test_gas_mmse_never_accepts_its_incumbent(self, monkeypatch):
        # the MMSE threshold is the table value of the MMSE ordinal, so a
        # re-measurement of that state ties the threshold and is rejected
        runs = []

        def recording(stack, rows, arms, **kwargs):
            batch = run_gas_batch(stack, rows, arms, **{**kwargs, "record": True})
            runs.extend((stack, row, x0, batch, j)
                        for j, (row, x0) in enumerate(zip(rows, kwargs["x0"])))
            return batch

        monkeypatch.setattr(harness, "run_gas_batch", recording)
        spec = load_spec({
            "cfg": {"N": 2, "M": 4, "tau_max": 1, "T_D": 16, "seed": 2026},
            "trials": 1,
            "snr_sweep": [10.0, 15.0, 20.0],
            "detectors": ["gas-mmse"],
        })
        run_ber(spec)
        assert len(runs) == 48
        for stack, row, x0, batch, j in runs:
            iterations = [step for step in batch.steps if step["ran"][j]]
            assert iterations[0]["y"][j] == stack.e_values[row, x0]
            assert not any(it["accepted"][j] and it["x"][j] == x0 for it in iterations)

    def test_halt_at_first_hit_keeps_the_detection(self, monkeypatch):
        # each GAS detector batch run again from the same streams without
        # oracle_min, to its full budget: the same outputs, never more queries
        runs = []

        def paired(stack, rows, arms, **kwargs):
            free = run_gas_batch(stack, rows, copy.deepcopy(arms),
                                 **{**kwargs, "oracle_min": None})
            halted = run_gas_batch(stack, rows, arms, **kwargs)
            runs.extend(zip(halted.final, halted.cd_queries, free.final, free.cd_queries))
            return halted

        monkeypatch.setattr(harness, "run_gas_batch", paired)
        spec = load_spec({
            "cfg": {"N": 2, "M": 4, "tau_max": 1, "T_D": 8, "seed": 2026},
            "trials": 1,
            "snr_sweep": [10.0, 20.0],
            "detectors": ["gas-mvd", "gas-mmse", "gas-rand"],
        })
        run_ber(spec)
        assert len(runs) == 48
        for halted_x, halted_cd, free_x, free_cd in runs:
            assert halted_x == free_x
            assert halted_cd <= free_cd
        assert sum(r[1] for r in runs) < sum(r[3] for r in runs)


class TestCalibrationRunner:
    def test_scatter_and_table(self, tmp_path):
        spec = load_spec({
            "name": "cal",
            "cfg": {"N": 2, "M": 3, "tau_max": 1, "T_P": 64, "T_D": 4,
                    "snr_db": 20.0, "seed": 8},
            "calibration": {"samples": 60},
        })
        rows, table = run_calibration(spec, out_dir=tmp_path)
        indicators = {r[0] for r in rows}
        assert indicators == {"c", "c1", "c2", "c_prime"}
        assert (tmp_path / "calibration_table.csv").exists()
        meta = json.loads((tmp_path / "calibration_table.csv.meta.json").read_text())
        assert meta["delta"] == pytest.approx(0.01 * meta["c_prime_max"])
        assert len(meta["cfg_hash"]) == 16

    def test_sidecar_hash_covers_seed_samples_and_p(self, tmp_path):
        def sidecar_hash(seed=8, samples=20, mvd_p=1e-3):
            spec = load_spec({"cfg": {"N": 2, "M": 2, "tau_max": 1, "T_D": 4, "seed": seed},
                              "gas": {"mvd_p": mvd_p}, "calibration": {"samples": samples}})
            out = tmp_path / f"{seed}-{samples}-{mvd_p}"
            run_calibration(spec, out_dir=out)
            return json.loads((out / "calibration_table.csv.meta.json").read_text())["cfg_hash"]

        base = sidecar_hash()
        assert sidecar_hash() == base
        assert sidecar_hash(seed=9) != base
        assert sidecar_hash(samples=21) != base
        assert sidecar_hash(mvd_p=2e-3) != base


class TestGateCountRunner:
    def test_grid(self):
        spec = load_spec(CONFIG_DIR / "gate_count.json")
        reports = run_gate_count(spec)
        assert reports[0]["g_ug_cnot"] == 17016
        assert reports[0]["g_prop_cnot"] == 13
        assert reports[2]["g_ug_source"] == "assembled-from-term-table"

    def test_missing_grid(self):
        spec = load_spec({"name": "x"})
        with pytest.raises(ConfigError, match=r"gate-count requires config\.grid"):
            run_gate_count(spec)


class TestSolve:
    def test_trace_converges(self):
        spec = load_spec(CONFIG_DIR / "solve_single.json")
        spec.backend = "amplitude"
        _, run = solve_single(spec)
        assert run.converged
        assert run.final >= 0

    def test_circuit_backend_and_dump(self, tmp_path):
        spec = load_spec(CONFIG_DIR / "solve_single.json")
        dump = tmp_path / "state.bin"
        _, run = solve_single(spec, dump_state=dump)
        assert run.final >= 0
        # the optimum is read from the table the circuit measures
        assert run.converged and run.stop_reason == "optimum"
        raw = np.fromfile(dump, dtype="<f8")
        amps = raw[0::2] + 1j * raw[1::2]
        assert amps.size == 2 ** (6 + 8)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_dump_equals_the_dense_circuit(self, tmp_path):
        # A_y|0> at y_mvd, closed form against the gate-by-gate simulation
        spec = load_spec(CONFIG_DIR / "solve_single.json")
        dump = tmp_path / "state.bin"
        solve_single(spec, dump_state=dump)
        raw = np.fromfile(dump, dtype="<f8")
        amps = raw[0::2] + 1j * raw[1::2]
        cfg = spec.cfg
        inst = generate_instance(cfg, instance_id=0)
        slot = received_slot(inst, cfg, 0, random_payload_bits(cfg, 0, instance_id=0),
                             instance_id=0)
        poly, _ = build_hubo(inst, slot.r, 0, cfg)
        reg = build_registry(cfg)
        ymvd = y_mvd(MvdParams.from_config(cfg, spec.mvd_p))
        dense = GroverCircuit(poly, reg, W_STATE_REDUCED, spec.q_v).prepare(ymvd)
        assert amps.size == dense.amps.size == 2 ** (6 + 8)
        assert np.abs(amps - dense.amps).max() <= 1e-12

    def test_dump_beyond_the_qubit_guard_exits_2(self, tmp_path, capsys):
        # 6 key qubits + 21 value qubits = 27 > 26: refused before any state exists
        config = json.loads((CONFIG_DIR / "solve_single.json").read_text())
        config["gas"]["q_v"] = 21
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(config))
        dump = tmp_path / "state.bin"
        assert cli.main(["solve", "--config", str(path), "--dump-state", str(dump)]) == 2
        assert "27 qubits" in capsys.readouterr().err
        assert not dump.exists()

    @pytest.mark.parametrize("backend", ["amplitude", "circuit"])
    def test_trace_x_is_the_measured_assignment(self, backend, capsys):
        # every trace line's "x" is a one-hot assignment whose objective is "Ex"
        config = CONFIG_DIR / "solve_single.json"
        cfg = load_spec(config).cfg
        reg = build_registry(cfg)
        inst = generate_instance(cfg, instance_id=0)
        slot = received_slot(inst, cfg, 0, random_payload_bits(cfg, 0, instance_id=0),
                             instance_id=0)
        assert cli.main(["solve", "--config", str(config), "--backend", backend]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows
        for row in rows:
            x = np.array([int(c) for c in row["x"]], dtype=np.uint8)
            b, d = reg.split_assignment(x)
            assert np.all(d.reshape(reg.M, reg.taud).sum(axis=1) == 1)
            assert objective_direct(inst, slot.r, 0, b, d) == pytest.approx(row["Ex"], rel=1e-12)


class TestCli:
    def run_cli(self, *args):
        # the child imports gasmld from where this process found it
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "gasmld", *args], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})

    def test_gate_count_command(self, tmp_path):
        res = self.run_cli("gate-count", "--config", str(CONFIG_DIR / "gate_count.json"),
                           "--out", str(tmp_path))
        assert res.returncode == 0
        assert "G_UG=17016" in res.stdout

    def test_solve_command(self, tmp_path):
        res = self.run_cli("solve", "--config", str(CONFIG_DIR / "solve_single.json"),
                           "--backend", "amplitude")
        assert res.returncode == 0
        first = json.loads(res.stdout.splitlines()[0])
        assert {"i", "y", "L", "k", "x", "Ex", "accepted", "cum_rot", "restart"} == set(first)
        summary = json.loads(res.stderr.splitlines()[-1])
        assert summary["stop_reason"] in ("optimum", "budget_iterations", "budget_rotations")

    def test_query_cdf_command(self, tmp_path):
        cfg = {
            "name": "mini",
            "cfg": {"N": 2, "M": 2, "tau_max": 1, "T_P": 64, "T_D": 4,
                    "snr_db": 20.0, "seed": 5},
            "trials": 3,
            "variants": [{"name": "w-prep", "prep": "w-state-reduced",
                          "threshold": "random", "lmin": "zero"}],
        }
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(cfg))
        res = self.run_cli("query-cdf", "--config", str(path), "--out", str(tmp_path))
        assert res.returncode == 0
        out = Path(res.stdout.strip())
        assert out.read_text().splitlines()[0] == "variant,trial,cd_queries,qd_rotations,converged"

    def test_capacity_exit_code(self, tmp_path):
        cfg = {
            "name": "huge",
            "cfg": {"N": 2, "M": 16, "tau_max": 2, "T_P": 64, "T_D": 4,
                    "snr_db": 20.0, "seed": 5},
            "trials": 1,
            "variants": [{"name": "w-prep", "prep": "w-state-reduced",
                          "threshold": "random", "lmin": "zero"}],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        res = self.run_cli("query-cdf", "--config", str(path))
        assert res.returncode == 2

    @pytest.mark.parametrize("command,config,backend", [
        ("ber", "ber_thresholds.json", "circuit"),
        ("ber", "ber_thresholds.json", "auto"),
        ("calibrate", "calibration_fig5.json", "circuit"),
        ("calibrate", "calibration_fig5.json", "auto"),
        ("query-cdf", "query_cdf_fig3.json", "auto"),
        ("solve", "solve_single.json", "auto"),
    ])
    def test_unsupported_backend_exit_code(self, tmp_path, command, config, backend):
        # solve writes no files and takes no --out
        out = () if command == "solve" else ("--out", str(tmp_path))
        res = self.run_cli(command, "--config", str(CONFIG_DIR / config),
                           "--backend", backend, *out)
        assert res.returncode == 1
        assert f"not {backend!r}" in res.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,config,extra,flag", [
        ("gate-count", "gate_count.json", ("--seed", "3"), "--seed"),
        ("gate-count", "gate_count.json", ("--trials", "9"), "--trials"),
        ("gate-count", "gate_count.json", ("--backend", "circuit"), "--backend"),
        ("calibrate", "calibration_fig5.json", ("--trials", "9"), "--trials"),
        ("solve", "solve_single.json", ("--backend", "amplitude", "--dump-state", os.devnull),
         "--dump-state"),
        ("solve", "solve_single.json", ("--trials", "7"), "--trials"),
        ("solve", "solve_single.json", ("--out", "DIR"), "--out"),
    ])
    def test_unused_flag_exit_code(self, tmp_path, command, config, extra, flag):
        # solve writes no files and takes no --out; DIR stands for tmp_path
        out = () if command == "solve" else ("--out", "DIR")
        res = self.run_cli(command, "--config", str(CONFIG_DIR / config),
                           *[str(tmp_path) if arg == "DIR" else arg for arg in (*extra, *out)])
        assert res.returncode == 1
        assert f"does not take {flag}" in res.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,config,extra,key", [
        ("ber", "ber_thresholds.json", {"variants": [W_PREP]}, "variants"),
        ("gate-count", "gate_count.json", {"cfg": CFG}, "cfg"),
        ("solve", "solve_single.json", {"output_dir": "out"}, "output_dir"),
        ("solve", "solve_single.json", {"name": None}, "name"),
        ("calibrate", "calibration_fig5.json", {"trials": 5}, "trials"),
        ("query-cdf", "query_cdf_fig3.json", {"detectors": ["mmse"]}, "detectors"),
        ("gate-count", "gate_count.json",
         {"detectors": ["mmse"], "trials": 7, "variants": [{"name": "x"}]}, "detectors"),
        ("ber", "ber_thresholds.json", {"gas": {"q_v": 8}}, "gas.q_v"),
    ])
    def test_unread_key_exit_code(self, tmp_path, capsys, command, config, extra, key):
        # a config key the command does not read is an error, null or not,
        # before any output; solve takes no --out, so its output_dir is out
        out = tmp_path / "out"
        config = {**json.loads((CONFIG_DIR / config).read_text()), **extra}
        if "output_dir" in extra:
            config["output_dir"] = str(out)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = () if command == "solve" else ("--out", str(out))
        assert cli.main([command, "--config", str(path), *flags]) == 1
        assert f"{command} does not read config.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_without_cfg_exit_code(self, tmp_path, capsys):
        # --seed overrides the seed of a cfg the config must give
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"variants": [W_PREP]}))
        out = tmp_path / "out"
        assert cli.main(["query-cdf", "--config", str(path), "--seed", "3", "--out", str(out)]) == 1
        assert "query-cdf requires config.cfg" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"cfg\": {\"N\": 0, \"M\": 1, \"tau_max\": 0}}")
        res = self.run_cli("ber", "--config", str(path))
        assert res.returncode == 1

    def test_bad_gas_value_fails_before_calibration(self, tmp_path, monkeypatch, capsys):
        config = json.loads((CONFIG_DIR / "query_cdf_lmin.json").read_text())
        config["gas"]["lambda"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        calls = []
        monkeypatch.setattr(harness, "calibrate", lambda *a, **k: calls.append(a))
        assert cli.main(["query-cdf", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "lambda" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("where,extra,word", [
        ("flag", ("--trials", "-3"), "--trials"),
        ("flag", ("--trials", "0"), "--trials"),
        ("flag", ("--seed", "-4"), "seed"),
        ("config", (), "seed"),
    ])
    def test_bad_override_fails_before_work(self, tmp_path, monkeypatch, capsys,
                                            where, extra, word):
        # --trials and --seed are checked as the config's trials and cfg.seed
        # are, before calibration or any output
        config = json.loads((CONFIG_DIR / "query_cdf_lmin.json").read_text())
        if where == "config":
            config["cfg"]["seed"] = -4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        calls = []
        monkeypatch.setattr(harness, "calibrate", lambda *a, **k: calls.append(a))
        assert cli.main(["query-cdf", "--config", str(path), *extra, "--out", str(out)]) == 1
        assert word in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_non_string_name_is_a_config_error(self, tmp_path, capsys):
        # before: a TypeError traceback from Path(7), or a file named 5_gate_count.json
        config = json.loads((CONFIG_DIR / "gate_count.json").read_text())
        for bad in ({"name": 5, "output_dir": 7}, {"name": 5}):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({**config, **bad}))
            out = tmp_path / "out"
            assert cli.main(["gate-count", "--config", str(path), "--out", str(out)]) == 1
            assert "must be a string" in capsys.readouterr().err
            assert not out.exists()
