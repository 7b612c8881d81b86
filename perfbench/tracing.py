"""Spans around the program's public functions, recorded from outside.

Each target is wrapped at the name its callers look up (a module global such
as ``gasmld.harness.from_channel``, or a class attribute such as
``GroverCircuit.grover_iterate``), so nothing in the program changes.  Spans
carry a parent id and the index of the experiment call that caused them; they
stay in memory until the run ends.  A target that no longer exists is
reported as absent and never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

# (layer, module, attribute path).  A layer may be reached under several
# names: calibration looks up the channel and space builders in
# gasmld.indicators, the experiments in gasmld.harness.
TARGETS = [
    ("harness", "gasmld.harness", "run_ber"),
    ("harness", "gasmld.harness", "run_query_cdf"),
    ("channel", "gasmld.harness", "generate_instance"),
    ("channel", "gasmld.harness", "received_slot"),
    ("channel", "gasmld.harness", "random_payload_bits"),
    ("channel", "gasmld.indicators", "generate_instance"),
    ("channel", "gasmld.indicators", "received_slot"),
    ("channel", "gasmld.indicators", "random_payload_bits"),
    ("spaces", "gasmld.harness", "from_channel"),
    ("spaces", "gasmld.indicators", "from_channel"),
    ("gas", "gasmld.harness", "run_gas"),
    ("thresholds.mmse", "gasmld.harness", "mmse_detect"),
    ("hubo", "gasmld.harness", "build_hubo"),
    ("statevector.init", "gasmld.statevector", "GroverCircuit.__init__"),
    ("statevector.measure", "gasmld.gas", "CircuitBackend.distribution"),
    ("statevector.run", "gasmld.statevector", "GroverCircuit.run"),
    ("statevector.prepare", "gasmld.statevector", "GroverCircuit.prepare"),
    ("statevector.iterate", "gasmld.statevector", "GroverCircuit.grover_iterate"),
    ("indicators.calibrate", "gasmld.harness", "calibrate"),
    ("indicators", "gasmld.harness", "indicator_c"),
    ("indicators", "gasmld.harness", "indicator_c_prime"),
    ("indicators", "gasmld.harness", "select_lmin"),
    ("indicators", "gasmld.harness", "select_lmin_conventional"),
    ("indicators", "gasmld.indicators", "indicator_c_prime"),
]


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    call: int
    t0: float
    t1: float = math.nan


@dataclass
class Tracer:
    """In-memory span recorder plus counters taken from returned objects."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    broken_observers: list = field(default_factory=list)
    call: int = 0
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, layer: str, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        layer, name, self.call, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except Exception as exc:  # a renamed field must not stop the run
                    self._observer_failed(layer, exc)
            return result
        return traced

    def _observer_failed(self, layer: str, exc: Exception) -> None:
        if layer not in self.broken_observers:
            self.broken_observers.append(layer)
            print(f"perfbench: counters of layer {layer!r} are unavailable "
                  f"({type(exc).__name__}: {exc})", file=sys.stderr)

    def install(self, targets=TARGETS, observers=None) -> None:
        """Wrap every target that exists; note the others as absent."""
        observers = OBSERVERS if observers is None else observers
        for layer, module, path in targets:
            name = f"{module}.{path}"
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.absent.append(name)
                print(f"perfbench: trace target {name} is absent ({exc}); "
                      f"layer {layer!r} loses this span", file=sys.stderr)
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, name, original, observers.get(layer)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.sid, [])]
        out[s.sid] = (s.t1 - s.t0) - covered([k for k in kids if k[1] > k[0]])
    return out


def _observe_space(tracer, args, kwargs, space):
    tracer.count("spaces.states", space.n_states)


def _observe_gas(tracer, args, kwargs, trace):
    tracer.count("gas.queries", trace.cd_queries)
    tracer.count("gas.rotations", trace.qd_rotations)
    tracer.count("gas.converged", int(trace.converged))
    tracer.count("gas.invalid_final", int(trace.invalid_final))


def _observe_hubo(tracer, args, kwargs, result):
    poly = result[0]
    tracer.count("hubo.terms", len(poly.terms))


def _observe_calibrate(tracer, args, kwargs, result):
    table = result[0] if isinstance(result, tuple) else result
    n_samples = kwargs.get("n_samples", args[1] if len(args) > 1 else 0)
    tracer.count("indicators.samples", n_samples)
    tracer.count("indicators.usable", int(table.c_prime.size))


def _observe_circuit_init(tracer, args, kwargs, result):
    circuit = args[0]
    state_bytes = 16 * (1 << (circuit.reg.q_k + circuit.q_v))
    tracer.counters["statevector.state_bytes"] = max(
        tracer.counters.get("statevector.state_bytes", 0), state_bytes)


OBSERVERS = {
    "spaces": _observe_space,
    "gas": _observe_gas,
    "hubo": _observe_hubo,
    "indicators.calibrate": _observe_calibrate,
    "statevector.init": _observe_circuit_init,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from span self times and the observed counters.

    ``<layer>.s`` is time spent in the layer's outermost spans (children
    included), ``<layer>.self_s`` excludes every traced child.
    """
    spans = [s for s in tracer.spans if not math.isnan(s.t1)]
    selft = self_times(spans)
    by_id = {s.sid: s for s in spans}
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    for s in spans:
        calls[s.layer] = calls.get(s.layer, 0) + 1
        own[s.layer] = own.get(s.layer, 0.0) + selft[s.sid]
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            incl[s.layer] = incl.get(s.layer, 0.0) + (s.t1 - s.t0)
    c = tracer.counters

    def n(layer):
        return calls.get(layer, 0)

    def t(layer):
        return incl.get(layer, 0.0)

    sv_layers = [k for k in calls if k.startswith("statevector.")]
    return {
        "harness.self_s": own.get("harness", 0.0),
        "channel.calls": n("channel"),
        "channel.s": t("channel"),
        "spaces.calls": n("spaces"),
        "spaces.s": t("spaces"),
        "spaces.states": c.get("spaces.states", 0),
        "spaces.states_per_s": _ratio(c.get("spaces.states", 0), t("spaces")),
        "gas.runs": n("gas"),
        "gas.self_s": own.get("gas", 0.0),
        "gas.queries": c.get("gas.queries", 0),
        "gas.rotations": c.get("gas.rotations", 0),
        "gas.us_per_query": 1e6 * _ratio(own.get("gas", 0.0), c.get("gas.queries", 0)),
        "gas.converged_frac": _ratio(c.get("gas.converged", 0), n("gas")),
        "gas.invalid_final": c.get("gas.invalid_final", 0),
        "thresholds.mmse.calls": n("thresholds.mmse"),
        "thresholds.mmse.s": t("thresholds.mmse"),
        "statevector.measurements": n("statevector.measure"),
        "statevector.simulations": n("statevector.run"),
        "statevector.cache_hit_frac": _ratio(
            n("statevector.measure") - n("statevector.run"), n("statevector.measure")),
        "statevector.iterates": n("statevector.iterate"),
        "statevector.ms_per_iterate": 1e3 * _ratio(t("statevector.iterate"),
                                                   n("statevector.iterate")),
        "statevector.self_s": sum(own[k] for k in sv_layers),
        "statevector.init_s": t("statevector.init"),
        "statevector.state_bytes": c.get("statevector.state_bytes", 0),
        "hubo.calls": n("hubo"),
        "hubo.s": t("hubo"),
        "hubo.terms": c.get("hubo.terms", 0),
        "indicators.calibrate.s": t("indicators.calibrate"),
        "indicators.calls": n("indicators"),
        "indicators.s": t("indicators"),
        "indicators.usable_frac": _ratio(c.get("indicators.usable", 0),
                                         c.get("indicators.samples", 0)),
        "trace.spans": len(spans),
        "trace.absent_targets": len(tracer.absent),
    }
