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
            "700dcbb01445dc4e841da417f5a1f0c70021a70bfadd493bbcf9857870a0a95d"}),
    ("ber", "ber_thresholds.json", ("--trials", "2"), {
        "threshold-comparison_ber.csv":
            "1adf35a0f67cb4913b9a179a699dc74bbc29d39e440f7e37c8cd3a5fa7000c3c",
        "threshold-comparison_ber_rotations.csv":
            "7f6d833fe46eba8711af2d97d21464dd3fbc8e9430d3f3f82dfae1877f2aaeef"}),
    ("ber", QPSK_BER, (), {
        "qpsk-ber_ber.csv":
            "0a0e36eee84be5a5d8b694053e2a8bc9b841ece0b892fcfafb71adb48d951801",
        "qpsk-ber_ber_rotations.csv":
            "0fcdcd1c0808947f2ef15be5e7a4b6a5c3ff5bc3e9df93cb67ab18cb014d6106"}),
    # the mvd threshold, restart and all three lmin arms
    ("query-cdf", "query_cdf_lmin.json", ("--trials", "10"), {
        "rotation-lower-bound_query_cdf.csv":
            "f95e348c7495d586052ad3d3ef3228f791c0624f0bf1e5ff9019149a4e0fcbb2"}),
    # the circuit law with a fitted q_v across many trials
    ("query-cdf", "query_cdf_lmin.json", ("--trials", "10", "--backend", "circuit"), {
        "rotation-lower-bound_query_cdf.csv":
            "198aaf96864366ee471b80fb41caca01d19d4ce1149ac0efa003d665ecaecaaf"}),
    ("calibrate", "calibration_fig5.json", (), {
        "indicator-scatter_calibration.csv":
            "8c6043dce0eeaa02d7eb4600e4b38afbc55d8f5a611647f43b62073dc0384be1",
        "calibration_table.csv":
            "d029ea6909ac7e447b1a51c591786be5631119584de43e4db12dcde184a0e5c3",
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
    ("circuit", "9d3fd5fbcb59c81de8bee111b99e6b98b6f83c0c1eaacce7113832b76dda70ba",
     "a153fdb2e3f7734edd8bec42676d57cf107609a5fc24d15dbe43f2f198dddccb"),
    ("amplitude", "5e01410ee80f278751873d97cd99b1cd3e0906fe2b81a2e427066c93710841f4",
     "741e7d77d122baf9c134577883644b2125c47e6ee00af8470433e85e60644f84"),
], ids=["circuit", "amplitude"])
def test_solve_trace_and_summary(capsys, backend, stdout_digest, stderr_digest):
    code = cli.main(["solve", "--config", str(CONFIG_DIR / "solve_single.json"),
                     "--backend", backend])
    out, err = capsys.readouterr()
    assert code == 0
    assert sha256(out.encode()) == stdout_digest
    assert sha256(err.encode()) == stderr_digest
