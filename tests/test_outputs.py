"""Pinned bytes of the fast CLI outputs.

Each case runs one subcommand in-process through cli.main on a shipped
config, or on a config written out from a dict, and compares the sha256 of
what it writes.  A change that alters an output on purpose updates the pin
here and records the old and new digests in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gasmld import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# the QPSK path of ber: two SNR points in one batch per trial, every detector
QPSK_BER = {"name": "qpsk-ber",
            "cfg": {"N": 2, "M": 2, "tau_max": 1, "modulation": "qpsk", "T_P": 64, "T_D": 4,
                    "seed": 2027},
            "trials": 2, "snr_sweep": [10.0, 20.0],
            "detectors": ["exhaustive", "mmse", "gas-mvd", "gas-mmse", "gas-rand"]}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command,config,extra,digests", [
    ("query-cdf", "query_cdf_fig3.json", ("--trials", "30"), {
        "space-reduction_query_cdf.csv":
            "bf120d855876f38f793d0b017bc9ce8e6ec85c486c5741fc0ca083189f699ff9"}),
    ("ber", "ber_thresholds.json", ("--trials", "2"), {
        "threshold-comparison_ber.csv":
            "381ca1367c67fce29540ecad6bfd9cef1f36280866538aed78112b7254c48cd4",
        "threshold-comparison_ber_rotations.csv":
            "f17972d366bc3a2700c3d4d80261b5bed6a87e381350883b3bbf240b5169ae90"}),
    ("ber", QPSK_BER, (), {
        "qpsk-ber_ber.csv":
            "670b7c101f63d5abf3cef8d6421cae7408628d3757c09b36e2d8ba0ff27a0044",
        "qpsk-ber_ber_rotations.csv":
            "24750216fea33f3edaddef29c1187ec17036ca7da300854a544088161ace0081"}),
    # the mvd threshold, restart and all three lmin arms
    ("query-cdf", "query_cdf_lmin.json", ("--trials", "10"), {
        "rotation-lower-bound_query_cdf.csv":
            "6caafc0eeb08e3d5377e963413cc58f1dea750186f8d94c8537a52981810192a"}),
    # the circuit law with a fitted q_v across many trials
    ("query-cdf", "query_cdf_lmin.json", ("--trials", "10", "--backend", "circuit"), {
        "rotation-lower-bound_query_cdf.csv":
            "6f7f986bd642e97b51e0901677fbdbc73cce17bb0ae1323a5ca3b8f71ad633ca"}),
    ("calibrate", "calibration_fig5.json", (), {
        "indicator-scatter_calibration.csv":
            "7088c70a1e5a8993156c59e23bcf3c0dc2de91f91aac764ad4e87af107682818",
        "calibration_table.csv":
            "cd2201f29ee9deee34fd60641cafd5993834ae826f68666a982a37d79f148ea3",
        "calibration_table.csv.meta.json":
            "6bc60fd161766cc45a5251bfe15f6cd15a0faa003bfde6cc197cb52467086441"}),
    ("gate-count", "gate_count.json", (), {
        "gate-budget_gate_count.json":
            "574ef14839c4cf4a31ae489da7e53fe8f053e3976d4ad140a1f11535d8cada5d"}),
], ids=["query-cdf", "ber", "ber-qpsk", "query-cdf-lmin", "query-cdf-lmin-circuit",
        "calibrate", "gate-count"])
def test_written_file(tmp_path, capsys, command, config, extra, digests):
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = CONFIG_DIR / config
    code = cli.main([command, "--config", str(path), *extra, "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert {name: sha256((tmp_path / name).read_bytes()) for name in digests} == digests


@pytest.mark.parametrize("backend,stdout_digest,stderr_digest", [
    ("circuit", "5066da0e803a51792535b16ba872b51f231130c52b243add163423c080ce892a",
     "64c29057506a092b8c76662e67a05c15e9e3478e0a3cd4a7c33c675bf4403e14"),
    ("amplitude", "5d5555988e17bd525bc67a488a736c37e669e268374eef539c488814dd7466dc",
     "fdb75a60fed79dcdcc3ec808e1b2704adefafae10bb63f94e88f3b735f944108"),
], ids=["circuit", "amplitude"])
def test_solve_trace_and_summary(capsys, backend, stdout_digest, stderr_digest):
    code = cli.main(["solve", "--config", str(CONFIG_DIR / "solve_single.json"),
                     "--backend", backend])
    out, err = capsys.readouterr()
    assert code == 0
    assert sha256(out.encode()) == stdout_digest
    assert sha256(err.encode()) == stderr_digest
