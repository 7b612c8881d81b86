"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import worker
import workloads


# the pattern that BENCHMARK.json names must follow
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(sid, parent, t0, t1, layer="x"):
    return tracing.Span(sid, parent, layer, layer, 0, t0, t1)


def test_self_time_subtracts_children():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 5.0, 6.0),
             span(3, 1, 1.5, 2.0)]
    st = tracing.self_times(spans)
    assert st == pytest.approx({0: 7.0, 1: 1.5, 2: 1.0, 3: 0.5})


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 6.0), span(2, 0, 4.0, 8.0),
             span(3, 0, 9.0, 12.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_merges_touching_intervals():
    assert tracing.covered([(0, 1), (1, 2), (5, 6)]) == pytest.approx(3.0)
    assert tracing.covered([]) == 0.0


def test_tracer_records_parents_and_layer_self_times():
    tracer = tracing.Tracer()
    inner = tracer.wrap("spaces", "inner", lambda: 1)
    outer = tracer.wrap("harness", "outer", lambda: inner() + inner())
    assert outer() == 2
    parents = [(s.name, s.parent) for s in tracer.spans]
    assert parents == [("outer", None), ("inner", 0), ("inner", 0)]
    m = tracing.layer_metrics(tracer)
    assert m["spaces.calls"] == 2
    assert m["harness.self_s"] <= tracer.spans[0].t1 - tracer.spans[0].t0


def test_absent_target_warns_and_does_not_abort(capsys):
    tracer = tracing.Tracer()
    tracer.install([("gas", "json", "no_such_function"),
                    ("gas", "no_such_module_for_perfbench", "f"),
                    ("gas", "json", "dumps")], observers={})
    try:
        assert json.dumps(1) == "1"
    finally:
        tracer.uninstall()
    assert tracer.absent == ["json.no_such_function", "no_such_module_for_perfbench.f"]
    assert "absent" in capsys.readouterr().err
    assert [s.name for s in tracer.spans] == ["json.dumps"]
    assert json.dumps.__name__ == "dumps" and not hasattr(json.dumps, "__wrapped__")
    assert tracing.layer_metrics(tracer)["trace.absent_targets"] == 2


def test_broken_observer_keeps_the_call_result(capsys):
    tracer = tracing.Tracer()
    f = tracer.wrap("gas", "f", lambda: 7, observe=lambda *a: 1 / 0)
    assert f() == 7 and f() == 7
    assert tracer.broken_observers == ["gas"]
    assert capsys.readouterr().err.count("unavailable") == 1


def test_wilson_interval_known_values():
    lo, hi = workloads.wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.0370, abs=1e-4)
    lo, hi = workloads.wilson_interval(50, 100)
    assert (lo, hi) == pytest.approx((0.4038, 0.5962), abs=1e-4)
    assert lo < 0.5 < hi and 0.5 - lo == pytest.approx(hi - 0.5)
    with pytest.raises(ValueError):
        workloads.wilson_interval(0, 0)


def test_scaled_seconds_uses_the_probes_around_each_call():
    nominal = worker.PROBE_NOMINAL_S
    walls = [1.0, 2.0]
    probes = [nominal, nominal, 3 * nominal]   # machine twice as slow around call 2
    assert worker.scaled_seconds(walls, probes) == pytest.approx(1.0 + 2.0 / 2.0)
    assert worker.scaled_seconds([], [nominal]) == 0.0


def test_probe_measures_a_positive_time():
    probe = worker.make_probe()
    assert 0.0 < probe() < 1.0


def test_intervals_overlap():
    assert workloads.intervals_overlap((0.1, 0.2), (0.2, 0.3))
    assert not workloads.intervals_overlap((0.1, 0.2), (0.21, 0.3))


def ber_rows(spec, errors):
    bits = spec["trials"] * spec["cfg"]["T_D"] * spec["cfg"]["M"]
    return [(d, s, 128, bits, errors.get(d, 0), errors.get(d, 0) / bits)
            for d in spec["detectors"] for s in spec["snr_sweep"]]


def test_ber_checks():
    spec = workloads.chunk_spec("ber", 1, 0)
    assert workloads.check_ber_chunk(spec, ber_rows(spec, {})) == []
    rows = ber_rows(spec, {})
    rows[0] = rows[0][:3] + (rows[0][3] - 1,) + rows[0][4:]
    assert workloads.check_ber_chunk(spec, rows)
    assert workloads.check_ber_chunk(spec, rows[1:])


def test_ber_run_check_fails_only_the_snr_points_that_disagree():
    spec = workloads.chunk_spec("ber", 1, 0)
    good = (spec, (ber_rows(spec, {}), {}), None)
    bad_rows = [r if not (r[0] == "gas-rand" and r[1] == 15.0) else r[:4] + (60, 60 / r[3])
                for r in ber_rows(spec, {})]
    bad = (spec, (bad_rows, {}), None)
    per_call = workloads.items_in("ber", spec)
    attempted, failed, problems = worker.check_outputs("ber", [good, bad])
    assert attempted == 2 * per_call
    assert failed == 2 * spec["trials"] * spec["cfg"]["T_D"]
    assert "15.0 dB" in problems[0]


def test_query_checks_and_raising_calls():
    spec = workloads.chunk_spec("query-cdf", 3, 0)
    rows = [(v["name"], t, 5, 40, True) for v in spec["variants"] for t in range(spec["trials"])]
    assert workloads.check_query_chunk(spec, rows) == []
    over = workloads.default_rotation_budget(spec["cfg"]) + 1
    assert workloads.default_rotation_budget(spec["cfg"]) == math.ceil(50 * 144)
    assert workloads.check_query_chunk(spec, rows[:-1] + [rows[-1][:3] + (over, False)])
    assert workloads.check_query_chunk(spec, rows[:-1])
    circuit = workloads.chunk_spec("circuit", 3, 0)
    assert workloads.check_query_chunk(circuit, [("mvd-restart", 0, 9, 31, False)])
    outputs = [(spec, rows, None), (spec, None, "RuntimeError: disagrees")]
    assert worker.check_outputs("query-cdf", outputs)[:2] == (50, 25)
    np_bool_rows = [r[:4] + (np.bool_(r[4]),) for r in rows]
    assert workloads.check_query_chunk(spec, np_bool_rows) == []


def test_malformed_outputs_fail_their_items_instead_of_crashing():
    for wl in workloads.WORKLOADS:
        spec = workloads.chunk_spec(wl, 4, 0)
        attempted, failed, problems = worker.check_outputs(wl, [(spec, None, None)])
        assert attempted == failed == workloads.items_in(wl, spec)
        assert problems[0].startswith("malformed output")


def test_specs_depend_only_on_seed_and_call_index():
    for wl in workloads.WORKLOADS:
        assert workloads.chunk_spec(wl, 5, 2) == workloads.chunk_spec(wl, 5, 2)
        assert workloads.chunk_spec(wl, 5, 2) != workloads.chunk_spec(wl, 6, 2)
        assert workloads.chunk_spec(wl, 5, 2) != workloads.chunk_spec(wl, 5, 3)
        assert workloads.items_in(wl, workloads.warmup_spec(wl, 5)) == 1


def test_metric_names_and_units_match_benchmark_json():
    pattern = METRIC_NAME
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for group, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in bench[group]} == table
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert pattern.fullmatch(name) and len(name) <= 64 and name[0].isalnum()
    assert not pattern.fullmatch("gas self_s") and not pattern.fullmatch("gas/s")
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_every_traced_layer_metric_is_reported():
    m = tracing.layer_metrics(tracing.Tracer())
    m.update({"failed_frac": 0.0, "process.cpu_s": 0.0, "trace.overhead_frac": 0.0})
    assert set(m) == set(run.PER_LAYER)
