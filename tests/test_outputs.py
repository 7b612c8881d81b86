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
            "78063eea702f9b4950c2dc354e9ec864a74c563f526e0cf51425079afce46534"}),
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
            "c113f9bbd56bfddf9183c3bb68ecb87a10feb5a88aa403dff879ae0f476a2e8c"}),
    # the circuit law with a fitted q_v across many trials
    ("query-cdf", "query_cdf_lmin.json", ("--trials", "10", "--backend", "circuit"), {
        "rotation-lower-bound_query_cdf.csv":
            "0788b3566ee2fe3b01b38628ac881a81a2a7c5d1160d3dbbbe891e31c310b919"}),
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
    ("circuit", "365fa3d0181bbe14505f752eb2d07d86234b9343618d9e0b7e5c205fad024b27",
     "92ca8e1336b3d34ba014d949fd9217a2e816b659e32562e2ede408a15066aa8e"),
    ("amplitude", "2d3b759ce84699cbb8a5773bc34de3ae9cff7d1c54f37318fe4839f1cb2c9340",
     "fd97adbdf4cbc122df5e3183e3523d3581d1322c79db9853e4be38d65b8a136f"),
], ids=["circuit", "amplitude"])
def test_solve_trace_and_summary(capsys, backend, stdout_digest, stderr_digest):
    code = cli.main(["solve", "--config", str(CONFIG_DIR / "solve_single.json"),
                     "--backend", backend])
    out, err = capsys.readouterr()
    assert code == 0
    assert sha256(out.encode()) == stdout_digest
    assert sha256(err.encode()) == stderr_digest
