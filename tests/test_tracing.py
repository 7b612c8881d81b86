"""The benchmark tracer's contract with the package.

perfbench/tracing.py wraps program functions from outside by name and reads
counters off what they return.  Its TARGETS list is parsed here with ast, so
the benchmark is neither imported nor changed.  A target the tracer finds
today must keep resolving, and run_gas must keep returning plain Python
values: CHANGES.md's FOUND line on `_observe_gas` records that a traced
worker dies in its final json.dumps when run_gas's fields are arrays.
`_observe_calibrate` reads calibrate's `n_samples` argument, by keyword or
as the second positional one, and the size of the returned table's c_prime.
"""

import ast
import dataclasses
import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from gasmld.channel import SystemConfig
from gasmld.gas import Backend, GasParams, run_gas
from gasmld.indicators import CalibrationTable
from gasmld.spaces import HADAMARD_FULL, build_registry
from oracles import HuboPolynomial, from_polynomial

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# the (module, attribute path) targets that resolve on the package
RESOLVING = {
    ("gasmld.harness", "run_ber"),
    ("gasmld.harness", "run_query_cdf"),
    ("gasmld.harness", "generate_instance"),
    ("gasmld.indicators", "generate_instance"),
    ("gasmld.harness", "run_gas"),
    ("gasmld.harness", "mmse_detect"),
    ("gasmld.harness", "calibrate"),
    ("gasmld.harness", "indicator_c"),
    ("gasmld.harness", "indicator_c_prime"),
    ("gasmld.harness", "select_lmin"),
    ("gasmld.harness", "select_lmin_conventional"),
    ("gasmld.indicators", "indicator_c_prime"),
}


def tracing_module() -> ast.Module:
    return ast.parse(TRACING.read_text(), filename=str(TRACING))


def tracer_targets() -> list[tuple[str, str, str]]:
    """TARGETS from perfbench/tracing.py: (layer, module, attribute path)."""
    for node in tracing_module().body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_targets_still_resolve():
    targets = {(module, path) for _, module, path in tracer_targets()}
    assert RESOLVING <= targets
    for module, path in sorted(RESOLVING):
        assert callable(resolve(module, path)), f"{module}.{path}"


def toy_space(n_vars=3):
    cfg = SystemConfig(N=1, M=1, tau_max=n_vars - 2, seed=0)
    poly = HuboPolynomial(n_vars=n_vars, constant=2.0,
                          terms={(0,): 1.0, (1, 2): -3.0, (0, 1, 2): 1.0})
    return from_polynomial(poly, build_registry(cfg), HADAMARD_FULL)


@pytest.mark.parametrize("backend", ["amplitude", "circuit"])
@pytest.mark.parametrize("params,halts", [
    (GasParams(budget_iterations=200), True),
    (GasParams(y0=-2.0, budget_iterations=10), False),
    (GasParams(lmin=2, restart_enabled=True, budget_rotations=40), False),
], ids=["optimum", "budget-iterations", "restart-one-hot"])
def test_run_gas_returns_plain_values(backend, params, halts):
    space = toy_space()
    engine = Backend(space, None if backend == "amplitude" else 4)
    # the optimum a run halts at is the least one-hot value
    one_hot_min = float(space.e_values[0][space.one_hot].min())
    run = run_gas(engine, params, np.random.default_rng(3),
                  oracle_min=one_hot_min if halts else None, record=True)
    assert run.converged == halts
    fields = {f.name: getattr(run, f.name) for f in dataclasses.fields(run) if f.name != "steps"}
    # the fields _observe_gas counts, converged among them
    fields["converged"] = run.converged
    for name, value in fields.items():
        assert type(value) in (int, float, bool, str), (name, type(value))
    assert type(run.converged) is bool and type(run.invalid_final) is bool
    for step in run.steps:
        for name, value in step.items():
            assert type(value) in (int, float, bool, str), (name, type(value))
    json.dumps({**fields, "steps": run.steps})


def test_calibrate_returns_what_the_tracer_reads():
    observer = next(node for node in tracing_module().body
                    if isinstance(node, ast.FunctionDef) and node.name == "_observe_calibrate")
    strings = {n.value for n in ast.walk(observer) if isinstance(n, ast.Constant)}
    attributes = {n.attr for n in ast.walk(observer) if isinstance(n, ast.Attribute)}
    assert "n_samples" in strings and {"c_prime", "size"} <= attributes

    calibrate = resolve("gasmld.harness", "calibrate")
    assert list(inspect.signature(calibrate).parameters)[1] == "n_samples"
    result = calibrate(SystemConfig(N=2, M=4, tau_max=1, seed=5), 6)
    assert isinstance(result, tuple) and len(result) == 2
    table, scatter = result
    assert isinstance(table, CalibrationTable) and isinstance(table.c_prime, np.ndarray)
    assert set(scatter) == {"c", "c1", "c2", "c_prime"}
    assert 0 < table.c_prime.size <= 6
