"""Reference implementations the tests check the package against.

- A dense statevector simulation of the GAS circuit at unitary-block level:
  initial preparations (Hadamard, and per-user W states restricting delay
  blocks to one-hot patterns), phase encoding of the objective into a
  two's-complement value register via an inverse QFT, oracle, diffusion and
  Grover iteration.  gas.Backend samples the same circuit from its exact
  two-dimensional law, which distribution states over ordinals, and
  gas.prepared_state writes A_y|0> in closed form.
- The HUBO expansion: || r - H D s ||_F^2 expanded symbolically into a
  multilinear binary polynomial over the payload bits b, optionally the
  pi/2-BPSK parity bits c, and the one-hot delay bits d (ParityLayout, in
  that order), with its parity-aware direct objective.  The value tables of
  spaces.channel_spaces and the term counts of criterion 06 are checked
  against it.
- Generic polynomial objectives: evaluation at an assignment, per-order
  term counts, values over every key index, search spaces built from them,
  and the coefficient-sum value-register width.
- The per-slot channel model: one slot's payload bits, noise and received
  vector, computed slot by slot as channel.slot_draws and
  channel.received_slots do for many slots at once.  Slot t of an instance
  is row t of each of its streams (seed, purpose, instance): the reference
  draws and discards rows 0 .. t-1, then draws row t.
- The reference value-table kernel: channel_spaces as it was before its
  full-table passes ran along the long axis, laid out (slots, states,
  antennas), which the new layout must match bit for bit.
- The reference indicators: C, C1, C2 and C' of one channel, pair by pair
  with np.vdot and scalar powers, as before indicators.channel_indicators
  took a whole channel stack at once.
- The reference calibration: indicators.calibrate sample by sample, each
  sample's marked states counted over its whole value table, as before
  spaces.channel_below found them without it.
- The reference config loader: harness.load_spec as it was before one
  schema literal and one checker replaced its key tables and per-section
  checks.  It accepts and rejects what load_spec does, except that it lets
  a repeated list item through.
- Small helpers: the amplitude law's marked-class probability, the first
  argmin ordinal, the binned L_opt spread of criterion 10 and reading a
  saved calibration table back.

Qubit layout: key register first (one qubit per registry variable, variable
0 is the most significant bit of the key index), then the value register
whose most significant bit is the two's-complement sign qubit targeted by
the oracle.  The state is held as a (2^q_k, 2^q_v) matrix of amplitudes.

The objective encoding applies, per monomial with coefficient a, the phase
ladder Rz(2^{q_v-1} theta) x ... x Rz(2^0 theta) with theta = 2 pi a / 2^q_v
controlled on the monomial's key bits; collectively this is the diagonal
phase exp(j Theta(x) (v - (2^q_v - 1)/2)) with Theta(x) = 2 pi (E(x) - y) /
2^q_v, followed by an inverse QFT on the value register.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from gasmld import streams
from gasmld.channel import (PSK2, QPSK, ChannelInstance, SystemConfig, delay_phases,
                            generate_instance, map_symbols, psk2_base, received_slots, slot_draws)
from gasmld.errors import CapacityError, ConfigError
from gasmld.gas import (BACKEND_AMPLITUDE, BACKEND_CIRCUIT, LMIN_CONVENTIONAL_C,
                        LMIN_PROPOSED_CPRIME, LMIN_ZERO, MAX_QUBITS, Backend, GasParams,
                        check_value_range, l_opt, marked_angle, sign_probabilities,
                        value_scale)
from gasmld.harness import GAS_DETECTORS, ExperimentSpec
from gasmld.indicators import _ALPHA_NORM, TIE_EXPONENT, CalibrationTable, indicator_c
from gasmld.spaces import (HADAMARD_FULL, MAX_ENUMERABLE, W_STATE_REDUCED, SpaceStack, VarRegistry,
                           _broadcast_sum, _key_weights, build_registry, channel_spaces)
from gasmld.thresholds import MvdParams, y_mvd

_SQRT_HALF = math.sqrt(0.5)


# --- the per-slot channel model ----------------------------------------------

@dataclass(frozen=True)
class ReceivedSlot:
    t: int
    r: np.ndarray
    b_true: np.ndarray = field(repr=False)


def _cn_row(rng: np.random.Generator, t: int, N: int) -> np.ndarray:
    """Row t of a CN(0, 1) stream drawn as rows of (real, imaginary)."""
    rng.standard_normal((t, 2, N))  # rows 0 .. t-1, discarded
    re, im = rng.standard_normal((2, N))
    return (re + 1j * im) * _SQRT_HALF


def noise_realization(cfg: SystemConfig, t: int, *, instance_id: int):
    """(v, e) of slot t of instance instance_id, v unit variance and e
    scaled to cfg's estimation-error variance: row t of the instance's
    NOISE and EST_ERR streams."""
    v = _cn_row(streams.substream(cfg.seed, streams.NOISE, instance_id), t, cfg.N)
    e = _cn_row(streams.substream(cfg.seed, streams.EST_ERR, instance_id), t, cfg.N)
    return v, np.sqrt(cfg.est_err_var) * e


def random_payload_bits(cfg: SystemConfig, t: int, *, instance_id: int) -> np.ndarray:
    """Payload bits of slot t: row t of the instance's PAYLOAD stream."""
    rng = streams.substream(cfg.seed, streams.PAYLOAD, instance_id)
    rng.integers(0, 2, size=(t, cfg.bits_per_slot))  # rows 0 .. t-1, discarded
    return rng.integers(0, 2, size=cfg.bits_per_slot).astype(np.uint8)


def received_slot(inst: ChannelInstance, cfg: SystemConfig, t: int, b_true, *,
                  instance_id: int) -> ReceivedSlot:
    """Received vector r = H D s + sigma_v v + e for one payload slot of
    instance instance_id, sigma_v and e's variance from cfg."""
    b_true = np.asarray(b_true, dtype=np.uint8)
    if b_true.shape != (cfg.bits_per_slot,):
        raise ValueError(f"expected {cfg.bits_per_slot} payload bits, got {b_true.shape}")
    if t < 0:
        raise ValueError("slot index must be >= 0")
    if cfg.modulation == PSK2:
        phase = np.exp(1j * np.pi * (t % 2) / 2.0) * (1.0 + 1.0j) * np.sqrt(0.5)
        s = phase * (1.0 - 2.0 * b_true.astype(float))
    else:
        b = b_true.reshape(-1, 2).astype(float)
        s = ((1.0 - 2.0 * b[:, 0]) + 1j * (1.0 - 2.0 * b[:, 1])) * np.sqrt(0.5)
    d_phase = np.exp(1j * 2.0 * np.pi * inst.f * (t - inst.delays))
    v, e = noise_realization(cfg, t, instance_id=instance_id)
    r = inst.H @ (d_phase * s) + cfg.sigma_v * v + e
    return ReceivedSlot(t=t, r=r, b_true=b_true)


# --- the reference value-table kernel -----------------------------------------

def _reference_broadcast_sum(parts: list[np.ndarray]) -> np.ndarray:
    """Sum per-user tables (slots, choices, *rest) over the product space
    of the choices, giving (slots, product of the choices, *rest)."""
    acc = parts[0]
    for p in parts[1:]:
        acc = acc[:, :, None] + p[:, None]
        acc = acc.reshape(acc.shape[0], -1, *acc.shape[3:])
    return acc


def reference_channel_values(inst: ChannelInstance, r: np.ndarray, ts, cfg: SystemConfig,
                             prep: str, reg: VarRegistry) -> tuple[np.ndarray, np.ndarray]:
    """(e_values, key_indices) of slots ts, r[i] received in slot ts[i], by
    the (slots, states, antennas) kernel spaces.channel_spaces replaced.

    Per user the contribution to H D s is a small table over that user's
    local choices, built for every slot by one einsum; the objective over
    the whole product space follows by broadcasting.
    """
    M, taud, N = cfg.M, cfg.taud, cfg.N
    weights = _key_weights(reg)
    ts = np.asarray(ts)
    phases = delay_phases(inst.f, ts, taud)                         # (T, M, taud)

    n_bbits = 1 if cfg.modulation == PSK2 else 2
    bit_combos = np.array(np.meshgrid(*([[0, 1]] * n_bbits), indexing="ij"),
                          dtype=np.uint8).reshape(n_bbits, -1).T  # (2^n_bbits, n_bbits)
    # one symbol per combo and slot, (T, 2^n_bbits)
    sym = map_symbols(cfg.modulation, ts, bit_combos.reshape(1, -1).repeat(ts.size, axis=0))

    contribs = []
    idx_parts = []
    for m in range(M):
        h = inst.H[:, m]
        if prep == W_STATE_REDUCED:
            d_factors = phases[:, m]                               # (T, taud)
            d_idx = weights[[reg.d_position(m, k) for k in range(taud)]]
        elif prep == HADAMARD_FULL:
            masks = np.arange(1 << taud, dtype=np.uint64)
            shifts = np.arange(taud, dtype=np.uint64)
            sel = ((masks[:, None] >> shifts[None, :]) & np.uint64(1)).astype(float)
            d_factors = np.stack([sel @ ph[m] for ph in phases])  # (T, 2^taud)
            d_idx = sel.astype(np.uint64) @ weights[[reg.d_position(m, k) for k in range(taud)]]
        else:
            raise ValueError(f"unknown preparation {prep!r}")
        b_idx = bit_combos.astype(np.uint64) @ weights[[reg.b_position(m, s) for s in range(n_bbits)]]
        local = np.einsum("tb,td,n->tbdn", sym, d_factors, h).reshape(len(phases), -1, N)
        local_idx = (b_idx[:, None] + d_idx[None, :]).reshape(-1)
        contribs.append(local)
        idx_parts.append(local_idx)

    n_total = 1
    for c in contribs:
        n_total *= c.shape[1]
    if n_total > MAX_ENUMERABLE:
        raise CapacityError(f"search space of {n_total} states exceeds {MAX_ENUMERABLE}")

    residual = np.asarray(r)[:, None, :] - _reference_broadcast_sum(contribs)
    # summed column by column in antenna order: the same bits as a sum over
    # the antenna axis for N < 8, where numpy's pairwise reduction is still
    # sequential
    e = np.abs(residual[..., 0]) ** 2
    for n in range(1, N):
        e += np.abs(residual[..., n]) ** 2
    key_idx = _reference_broadcast_sum([p[None, :] for p in idx_parts])[0]
    return e, key_idx


# --- the HUBO expansion -------------------------------------------------------

_IMAG_TOL = 1e-9
_PRUNE_REL = 1e-12


class Var(NamedTuple):
    kind: str  # "b", "c" or "d"
    m: int     # user index, 0-based
    sub: int   # bit index within the user: QPSK bit 0/1, or delay slot k


@dataclass(frozen=True)
class ParityLayout:
    """The expansion's variable order: all b, then the pi/2-BPSK parity bits
    c when they are variables (n_c = M), then all d.  With n_c = 0 it is the
    package registry's key layout."""

    reg: VarRegistry
    n_c: int = 0

    @property
    def q_k(self) -> int:
        return self.reg.q_k + self.n_c

    @property
    def entries(self) -> tuple[Var, ...]:
        reg = self.reg
        return (tuple(Var("b", m, s) for m in range(reg.M) for s in range(reg.n_b // reg.M))
                + tuple(Var("c", m, 0) for m in range(self.n_c))
                + tuple(Var("d", m, k) for m in range(reg.M) for k in range(reg.taud)))

    def c_position(self, m: int) -> int:
        return self.reg.n_b + m

    def d_position(self, m: int, k: int) -> int:
        return self.n_c + self.reg.d_position(m, k)

    def split_assignment(self, x: np.ndarray):
        """Return (b bits, c bits or None, d bits) views of a flat assignment."""
        x = np.asarray(x)
        nb, nc = self.reg.n_b, self.n_c
        return x[:nb], (x[nb:nb + nc] if nc else None), x[nb + nc:]


def parity_layout(cfg: SystemConfig, include_c_as_variable: bool = False) -> ParityLayout:
    if include_c_as_variable and cfg.modulation != PSK2:
        raise ValueError("parity bits exist only for pi/2-BPSK")
    return ParityLayout(build_registry(cfg), cfg.M if include_c_as_variable else 0)


def parity_objective(inst: ChannelInstance, r: np.ndarray, t: int, b, c, d) -> float:
    """channel.objective_direct for pi/2-BPSK with each user's parity bit
    c_m free instead of t mod 2: s_m = e^{j pi c_m / 2} (1 + j)/sqrt(2) (1 - 2 b_m)."""
    M = inst.H.shape[1]
    d = np.asarray(d, dtype=float)
    D = np.sum(delay_phases(inst.f, t, d.size // M) * d.reshape(M, -1), axis=1)
    c = np.asarray(c).astype(float)
    s = np.exp(1j * np.pi * c / 2.0) * (1.0 + 1.0j) * _SQRT_HALF * (1.0 - 2.0 * np.asarray(b))
    return float(np.sum(np.abs(r - inst.H @ (D * s)) ** 2))


@dataclass(frozen=True)
class HuboPolynomial:
    """Real multilinear polynomial: sum over terms coeff * prod x_i + constant."""

    n_vars: int
    constant: float
    terms: dict[tuple[int, ...], float] = field(repr=False)


def _pmul(p1: dict, p2: dict) -> dict:
    out: dict[frozenset, complex] = {}
    for s1, a1 in p1.items():
        for s2, a2 in p2.items():
            key = s1 | s2
            out[key] = out.get(key, 0.0) + a1 * a2
    return out


def _padd_scaled(acc: dict, p: dict, scale: complex) -> None:
    for s, a in p.items():
        acc[s] = acc.get(s, 0.0) + scale * a


def _symbol_poly(layout: ParityLayout, m: int, t: int) -> dict:
    """Symbol of user m as a complex polynomial in its bit variables."""
    base = (1.0 + 1.0j) * np.sqrt(0.5)
    if layout.reg.modulation == PSK2:
        bkey = frozenset([layout.reg.b_position(m)])
        if layout.n_c:
            ckey = frozenset([layout.c_position(m)])
            # e^{j pi c / 2} interpolates to 1 + (j - 1) c on binary c
            p = _pmul({frozenset(): 1.0, ckey: (1j - 1.0)},
                      {frozenset(): 1.0, bkey: -2.0})
            return {k: v * base for k, v in p.items()}
        phase = psk2_base(t)
        return {frozenset(): phase, bkey: -2.0 * phase}
    b0 = frozenset([layout.reg.b_position(m, 0)])
    b1 = frozenset([layout.reg.b_position(m, 1)])
    return {frozenset(): base, b0: -np.sqrt(2.0), b1: -1j * np.sqrt(2.0)}


def build_hubo(inst: ChannelInstance, r: np.ndarray, t: int, cfg: SystemConfig,
               include_c_as_variable: bool = False) -> tuple[HuboPolynomial, ParityLayout]:
    """Expand || r - H D s ||_F^2 into a HUBO over the layout's variables.

    Products of repeated variables reduce with x^2 = x, the imaginary parts
    of the collected coefficients must cancel, and near-null monomials are
    pruned.
    """
    layout = parity_layout(cfg, include_c_as_variable)
    M, taud, N = cfg.M, cfg.taud, cfg.N

    phases = delay_phases(inst.f, t, taud)
    user_polys = []
    for m in range(M):
        d_poly = {frozenset([layout.d_position(m, k)]): phases[m, k] for k in range(taud)}
        user_polys.append(_pmul(d_poly, _symbol_poly(layout, m, t)))

    total: dict[frozenset, complex] = {}
    for n in range(N):
        resid = {frozenset(): complex(r[n])}
        for m in range(M):
            _padd_scaled(resid, user_polys[m], -inst.H[n, m])
        conj = {s: np.conj(a) for s, a in resid.items()}
        _padd_scaled(total, _pmul(conj, resid), 1.0)

    max_abs = max(abs(a) for a in total.values())
    if not np.isfinite(max_abs):
        raise ValueError("non-finite coefficient in objective expansion")
    imag_worst = max(abs(a.imag) for a in total.values())
    if imag_worst > _IMAG_TOL * max(1.0, max_abs):
        raise ValueError(f"imaginary residue {imag_worst:g} exceeds tolerance")

    constant = float(total.pop(frozenset(), 0.0).real)
    cutoff = _PRUNE_REL * max_abs
    terms = {
        tuple(sorted(s)): float(a.real)
        for s, a in total.items()
        if abs(a.real) > cutoff
    }
    return HuboPolynomial(n_vars=layout.q_k, constant=constant, terms=terms), layout


# --- generic polynomial objectives -------------------------------------------

def evaluate(poly: HuboPolynomial, x) -> float:
    """Objective value at a 0/1 assignment."""
    x = np.asarray(x)
    if x.size != poly.n_vars:
        raise ValueError(f"assignment has {x.size} bits, polynomial has {poly.n_vars}")
    total = poly.constant
    for vars_, coeff in poly.terms.items():
        prod = 1.0
        for i in vars_:
            if not x[i]:
                prod = 0.0
                break
        total += coeff * prod
    return float(total)


def term_counts_by_order(poly: HuboPolynomial) -> dict[int, int]:
    counts: dict[int, int] = {}
    for vars_ in poly.terms:
        counts[len(vars_)] = counts.get(len(vars_), 0) + 1
    return counts


def poly_values_over_keys(poly: HuboPolynomial, q_k: int) -> np.ndarray:
    """Evaluate the polynomial at every key index 0 .. 2^q_k - 1."""
    n = 1 << q_k
    if n > MAX_ENUMERABLE:
        raise CapacityError(f"2^{q_k} key states exceed {MAX_ENUMERABLE}")
    xs = np.arange(n, dtype=np.uint64)
    e = np.full(n, poly.constant, dtype=float)
    for vars_, coeff in poly.terms.items():
        mask = np.uint64(0)
        for i in vars_:
            mask |= np.uint64(1 << (q_k - 1 - i))
        e[(xs & mask) == mask] += coeff
    return e


def from_polynomial(poly: HuboPolynomial, reg: VarRegistry, prep: str) -> SpaceStack:
    """The search space of a generic polynomial objective, a one-row stack."""
    q = reg.q_k
    e_full = poly_values_over_keys(poly, q)
    if prep == HADAMARD_FULL:
        key_idx = np.arange(1 << q, dtype=np.uint64)
        e = e_full
    elif prep == W_STATE_REDUCED:
        weights = _key_weights(reg)
        b_idx = np.zeros(1, dtype=np.uint64)
        for i in range(reg.n_b):
            b_idx = (b_idx[:, None] + np.array([0, weights[i]], dtype=np.uint64)).ravel()
        parts = [b_idx]
        for m in range(reg.M):
            parts.append(weights[[reg.d_position(m, k) for k in range(reg.taud)]])
        key_idx = _broadcast_sum(parts)
        e = e_full[key_idx]
    else:
        raise ValueError(f"unknown preparation {prep!r}")
    return SpaceStack(reg=reg, prep=prep, e_values=e[None], key_indices=key_idx)


def choose_qv(poly: HuboPolynomial, y: float) -> int:
    """Value-register width from coefficient-sum bounds on the objective:
    the smallest two's-complement window holding E - y at the one threshold
    y (gas.register_width also holds every threshold a run reaches)."""
    pos = sum(c for c in poly.terms.values() if c > 0)
    neg = sum(c for c in poly.terms.values() if c < 0)
    lo, hi = poly.constant + neg - y, poly.constant + pos - y
    q_v = 1
    while not (lo >= -(1 << (q_v - 1)) and hi < (1 << (q_v - 1))):
        q_v += 1
    return q_v


# --- small helpers -----------------------------------------------------------

def success_probability(Ns: float, Nt: int, L: int) -> float:
    """Marked-class probability after L rotations at marked weight Ns of Nt,
    sin^2((2L+1) theta) at gas.marked_angle's theta, as gas.Backend.measure
    reads it."""
    return math.sin((2 * L + 1) * marked_angle(Ns, Nt)) ** 2


def argmin_ordinal(space: SpaceStack) -> int:
    """First ordinal attaining the minimum, the stable order's head."""
    return int(np.argmin(space.e_values[0]))


def binned_spread(values, l_values, n_bins: int = 20,
                  lo_q: float = 10.0, hi_q: float = 90.0) -> float:
    """Average (p90 - p10) of L_opt over equal-width indicator bins."""
    values = np.asarray(values, dtype=float)
    l_values = np.asarray(l_values, dtype=float)
    edges = np.linspace(values.min(), values.max(), n_bins + 1)
    spreads = []
    for b in range(n_bins):
        upper = values < edges[b + 1] if b < n_bins - 1 else values <= edges[b + 1]
        mask = (values >= edges[b]) & upper
        if mask.sum() < 2:
            continue
        sel = l_values[mask]
        spreads.append(np.percentile(sel, hi_q) - np.percentile(sel, lo_q))
    if not spreads:
        raise ValueError("no populated bins")
    return float(np.mean(spreads))


def load_calibration_table(csv_path) -> CalibrationTable:
    """Read back a table written by CalibrationTable.save."""
    path = Path(csv_path)
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["c_prime", "l_opt"]:
            raise ValueError(f"unexpected calibration header {header}")
        rows = [(float(c), int(lo)) for c, lo in reader]
    meta = json.loads(path.with_suffix(path.suffix + ".meta.json").read_text())
    c = np.array([r[0] for r in rows])
    lo = np.array([r[1] for r in rows], dtype=int)
    return CalibrationTable(c_prime=c, l_opt=lo,
                            c_prime_max=meta["c_prime_max"], delta=meta["delta"])


# --- the reference indicators -------------------------------------------------

def _alpha(H_est: np.ndarray) -> float:
    sv = np.linalg.svd(H_est, compute_uv=False)
    sv = sv[sv > 1e-12]
    return float(sv.min() / _ALPHA_NORM)


def _pair_betas(H_est: np.ndarray):
    """Minimum beta1 and beta2 over the C(M,2) user pairs.

    Each user's channel column enters through its norm; the pair's phase
    difference is the argument of the column inner product, folded into
    [0, pi/2) by the constellation's rotational symmetry.  For a single
    antenna this is exactly the scalar norm-ratio / phase-difference pair.
    The beta1 base can be negative for norm ratios above 1/sqrt(2), so its
    absolute value is taken before the fractional power.
    """
    m = H_est.shape[1]
    radii = np.linalg.norm(H_est, axis=0)
    beta1_min = 1.0
    beta2_min = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            ri, rj = radii[i], radii[j]
            if ri > rj:
                ri, rj = rj, ri
            if rj <= 1e-300:
                continue
            ratio = ri / rj
            theta = math.fmod(float(np.angle(np.vdot(H_est[:, j], H_est[:, i]))),
                              0.5 * math.pi) % (0.5 * math.pi)
            g = abs(4.0 * theta / math.pi - 1.0)
            beta1 = abs((1.0 / math.sqrt(2.0) - ratio) * g) ** TIE_EXPONENT
            beta2 = 1.0 - (ratio * g) ** TIE_EXPONENT
            beta1_min = min(beta1_min, beta1)
            beta2_min = min(beta2_min, beta2)
    return beta1_min, beta2_min


def reference_indicators(H_est: np.ndarray) -> dict[str, float]:
    C = indicator_c(H_est)
    al = _alpha(H_est)
    b1, b2 = _pair_betas(H_est)
    return {"c": C, "c1": al * C, "c2": b1 * b2 * C, "c_prime": al * b1 * b2 * C}


# --- the reference calibration ------------------------------------------------

def reference_calibrate(cfg: SystemConfig, n_samples: int, P: float = 1e-3,
                        id_offset: int = 0):
    """indicators.calibrate sample by sample, counting each sample's marked
    states over its whole value table."""
    y = y_mvd(MvdParams.from_config(cfg, P))
    l_vals = []
    scatter = {"c": [], "c1": [], "c2": [], "c_prime": []}
    for idx in range(id_offset, id_offset + n_samples):
        inst = generate_instance(cfg, instance_id=idx)
        r = received_slots(inst, cfg, [0], *slot_draws(cfg, [0], instance_id=idx))
        space = channel_spaces(inst, r, [0], cfg, W_STATE_REDUCED)
        ns = int(np.count_nonzero(space.e_values < y))
        if ns == 0:
            continue
        vals = reference_indicators(inst.H)
        for key in scatter:
            scatter[key].append(vals[key])
        l_vals.append(l_opt(ns, space.n_states))
    return CalibrationTable.from_samples(scatter["c_prime"], l_vals), scatter


# --- the reference config loader ---------------------------------------------

_CFG_FIELDS = {"N": int, "M": int, "tau_max": int, "modulation": str, "T_P": int,
               "T_D": int, "P_X": (int, float), "snr_db": (int, float), "seed": int}
_TOP_LEVEL_FIELDS = {"name", "cfg", "trials", "output_dir", "gas", "calibration",
                     "variants", "snr_sweep", "detectors", "grid"}
_GAS_FIELDS = {"backend", "mvd_p", "lambda", "budget_iterations", "budget_rotations", "q_v"}
_GRID_FIELDS = {"M", "tau_max", "q_v", "modulation"}
_VARIANT_CHOICES = {"prep": (W_STATE_REDUCED, HADAMARD_FULL),
                    "threshold": ("random", "mvd"),
                    "lmin": (LMIN_ZERO, LMIN_CONVENTIONAL_C, LMIN_PROPOSED_CPRIME)}
_DETECTORS = {"exhaustive", "mmse", *GAS_DETECTORS}
# config keys whose ExperimentSpec or GasParams field has another name
_RENAMED = {"lambda": "lam", "samples": "calibration_samples"}


def reference_load_spec(source) -> ExperimentSpec:
    """Validate and load an experiment configuration (path or dict)."""
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
    else:
        data = dict(source)
    _check_keys(data, _TOP_LEVEL_FIELDS, "config")
    if "cfg" not in data:
        raise ConfigError("config requires a 'cfg' object with the system parameters")
    cfg_in = _check_keys(data["cfg"], _CFG_FIELDS, "cfg")
    for key, typ in _CFG_FIELDS.items():
        # a JSON boolean is a Python int, but never a count or a quantity
        if key in cfg_in and (isinstance(cfg_in[key], bool)
                              or not isinstance(cfg_in[key], typ)):
            raise ConfigError(f"cfg.{key} has wrong type {type(cfg_in[key]).__name__}")
    for key in ("N", "M", "tau_max"):
        if key not in cfg_in:
            raise ConfigError(f"cfg.{key} is required")
    try:
        cfg = SystemConfig(**cfg_in)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    gas = _check_keys(data.get("gas", {}), _GAS_FIELDS, "gas")
    for key in ("mvd_p", "lambda"):
        if key in gas and not _is_number(gas[key]):
            raise ConfigError(f"gas.{key} must be a number, got {gas[key]!r}")
    for key in ("budget_iterations", "budget_rotations", "q_v"):
        if gas.get(key) is not None:
            _check_count(f"gas.{key}", gas[key])
    if "backend" in gas and gas["backend"] not in (BACKEND_AMPLITUDE, BACKEND_CIRCUIT):
        raise ConfigError(f"unknown backend {gas['backend']!r}")
    calibration = _check_keys(data.get("calibration", {}), {"samples"}, "calibration")
    if "samples" in calibration:
        _check_count("calibration.samples", calibration["samples"])
    if "trials" in data:
        _check_count("trials", data["trials"])
    for key in ("name", "output_dir"):
        if data.get(key) is not None and not isinstance(data[key], str):
            raise ConfigError(f"'{key}' must be a string, got {data[key]!r}")
    for key in ("variants", "snr_sweep", "detectors", "grid"):
        if not isinstance(data.get(key, []), list):
            raise ConfigError(f"'{key}' must be a list, got {data[key]!r}")
    if not all(map(_is_number, data.get("snr_sweep", []))):
        raise ConfigError(f"'snr_sweep' must be a list of numbers, got {data['snr_sweep']!r}")
    for cell in data.get("grid", []):
        _check_grid_cell(cell)
    for variant in data.get("variants", []):
        _check_variant(variant)
    bad = [d for d in data.get("detectors", []) if not isinstance(d, str) or d not in _DETECTORS]
    if bad:
        raise ConfigError(f"unknown detectors {bad}; choose from {sorted(_DETECTORS)}")
    try:
        spec = ExperimentSpec(
            cfg=cfg,
            gas=GasParams(**_given(gas, ("lambda", "budget_iterations", "budget_rotations"))),
            **_given(data, ("name", "trials", "output_dir", "variants", "snr_sweep",
                            "detectors", "grid")),
            **_given(gas, ("backend", "mvd_p", "q_v")),
            **_given(calibration, ("samples",)))
        MvdParams.from_config(cfg, spec.mvd_p)
    except ValueError as exc:
        raise ConfigError(f"gas: {exc}") from exc
    return spec


def _given(obj: dict, keys: tuple[str, ...]) -> dict:
    """The present, non-null keys of obj as field keyword arguments; an
    absent or null key leaves the field's default."""
    return {_RENAMED.get(key, key): obj[key] for key in keys if obj.get(key) is not None}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


def _check_keys(obj, fields, what: str) -> dict:
    """obj must be a JSON object whose keys all come from fields."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object, got {obj!r}")
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    return obj


def _check_grid_cell(cell) -> None:
    """A gate-count cell: integer M and tau_max, optional q_v and modulation."""
    _check_keys(cell, _GRID_FIELDS, "grid cell")
    for key in ("M", "tau_max"):
        if key not in cell or isinstance(cell[key], bool) or not isinstance(cell[key], int):
            raise ConfigError(f"grid cell {cell!r} needs an integer {key!r}")
    if "q_v" in cell:
        _check_count("grid q_v", cell["q_v"])
    if cell.get("modulation", PSK2) not in (PSK2, QPSK):
        raise ConfigError(f"grid cell {cell!r}: modulation must be {PSK2!r} or {QPSK!r}")


def _check_variant(variant) -> None:
    """A query-cdf arm: a string name plus choices from _VARIANT_CHOICES and
    a bool restart."""
    if not isinstance(variant, dict) or not isinstance(variant.get("name"), str):
        raise ConfigError(f"each variant needs a string 'name', got {variant!r}")
    name = variant["name"]
    _check_keys(variant, {"name", "restart", *_VARIANT_CHOICES}, f"variant {name!r}")
    for key, choices in _VARIANT_CHOICES.items():
        if key in variant and variant[key] not in choices:
            raise ConfigError(f"variant {name!r}: {key} must be one of {list(choices)}, "
                              f"got {variant[key]!r}")
    if not isinstance(variant.get("restart", False), bool):
        raise ConfigError(f"variant {name!r}: restart must be true or false")


# --- dense statevector simulation --------------------------------------------

@dataclass
class StateVector:
    amps: np.ndarray  # flat, length 2^(q_k + q_v)
    q_k: int
    q_v: int

    def matrix(self) -> np.ndarray:
        return self.amps.reshape(1 << self.q_k, 1 << self.q_v)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def key_marginal(self) -> np.ndarray:
        return np.sum(np.abs(self.matrix()) ** 2, axis=1)


def w_cascade_angles(n: int) -> list[float]:
    """Angles that make the cascade exactly uniform,
    theta_i = 2 arcsin(sqrt((n - i) / (n + 1 - i))) for i = 1 .. n-1.

    The printed schedule takes 2 arctan of the same fraction; tan and sin of
    the half-angle differ, and only the arcsin form yields amplitude
    1/sqrt(n) on every weight-1 state, which the preparation below requires.
    """
    if n < 2:
        raise ValueError("cascade needs at least two qubits")
    return [2.0 * math.asin(math.sqrt((n - i) / (n + 1 - i))) for i in range(1, n)]


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def _embed(U: np.ndarray, targets: list[int], n: int) -> np.ndarray:
    """Expand a small gate matrix to the full 2^n space (n is small here)."""
    k = len(targets)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for col in range(1 << n):
        tbits = sum(((col >> (n - 1 - targets[j])) & 1) << (k - 1 - j) for j in range(k))
        base = col
        for j in range(k):
            base &= ~(1 << (n - 1 - targets[j]))
        for tout in range(1 << k):
            a = U[tout, tbits]
            if a == 0:
                continue
            row = base
            for j in range(k):
                if (tout >> (k - 1 - j)) & 1:
                    row |= 1 << (n - 1 - targets[j])
            full[row, col] += a
    return full


def w_block_unitary(n: int) -> np.ndarray:
    """Unitary of the cascade X - CRy - CX that maps |0..0> to the uniform
    weight-1 superposition on n qubits."""
    if n == 1:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    dim = 1 << n
    U = _embed(np.array([[0, 1], [1, 0]], dtype=complex), [0], n)
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    for i, theta in enumerate(w_cascade_angles(n)):
        cry = np.eye(4, dtype=complex)
        cry[2:, 2:] = _ry(theta)
        U = _embed(cry, [i, i + 1], n) @ U
        U = _embed(cx, [i + 1, i], n) @ U
    assert U.shape == (dim, dim)
    return U


def _hadamard_on_key_bit(mat: np.ndarray, bit: int) -> None:
    view = mat.reshape(1 << bit, 2, -1)
    a = view[:, 0, :].copy()
    b = view[:, 1, :]
    view[:, 0, :] = (a + b) * _SQRT_HALF
    view[:, 1, :] = (a - b) * _SQRT_HALF


def _apply_block_on_key(mat: np.ndarray, U: np.ndarray, first: int, nbits: int) -> np.ndarray:
    """Apply a 2^nbits unitary on contiguous key qubits [first, first+nbits)."""
    view = mat.reshape(1 << first, 1 << nbits, -1)
    out = np.einsum("ij,ajb->aib", U, view)
    return out.reshape(mat.shape)


def _value_hadamard(mat: np.ndarray, q_v: int) -> None:
    k = mat.shape[0]
    for bit in range(q_v):
        view = mat.reshape(k << bit, 2, -1)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = (a + b) * _SQRT_HALF
        view[:, 1, :] = (a - b) * _SQRT_HALF


def distribution(backend: Backend, y: float, L: int) -> np.ndarray:
    """The law a q_v backend's measure samples, over ordinals after G^L A_y|0>."""
    q1 = sign_probabilities(backend.space, backend.q_v, y)
    p_good = float(q1.mean())
    theta = math.asin(math.sqrt(p_good))
    a = 2 * L + 1
    # p_good > 0, every Fejer term being positive; with all states marked
    # the unmarked ratio takes its limit a^2
    good = math.sin(a * theta) ** 2 / p_good
    bad = math.cos(a * theta) ** 2 / (1.0 - p_good) if p_good < 1.0 else a * a
    return (good * q1 + bad * (1.0 - q1)) / backend.space.n_states


class Preparation:
    """Initial-state operator on the key register plus value Hadamards."""

    def __init__(self, prep: str, reg: VarRegistry):
        if prep not in (HADAMARD_FULL, W_STATE_REDUCED):
            raise ValueError(f"unknown preparation {prep!r}")
        self.prep = prep
        self.reg = reg
        self._w_block = w_block_unitary(reg.taud) if prep == W_STATE_REDUCED else None

    def apply(self, mat: np.ndarray, q_v: int, dagger: bool = False) -> np.ndarray:
        reg = self.reg
        if self.prep == HADAMARD_FULL:
            for bit in range(reg.q_k):
                _hadamard_on_key_bit(mat, bit)
        else:
            for bit in range(reg.n_b):
                _hadamard_on_key_bit(mat, bit)
            W = self._w_block.T if dagger else self._w_block
            for m in range(reg.M):
                first = reg.d_position(m, 0)
                mat = _apply_block_on_key(mat, W, first, reg.taud)
        _value_hadamard(mat, q_v)
        return mat


def _check_capacity(q_k: int, q_v: int) -> None:
    if q_k + q_v > MAX_QUBITS:
        raise CapacityError(f"{q_k + q_v} qubits exceed the dense-simulation guard "
                            f"of {MAX_QUBITS}")


def prepare_initial(prep: str, reg: VarRegistry, q_v: int) -> StateVector:
    """A_y's state preparation applied to |0...0>."""
    _check_capacity(reg.q_k, q_v)
    mat = np.zeros((1 << reg.q_k, 1 << q_v), dtype=complex)
    mat[0, 0] = 1.0
    mat = Preparation(prep, reg).apply(mat, q_v)
    return StateVector(mat.reshape(-1), reg.q_k, q_v)


def _phase_table(e_vec: np.ndarray, y: float, q_v: int) -> np.ndarray:
    theta = 2.0 * np.pi * (e_vec - y) / (1 << q_v)
    v = np.arange(1 << q_v) - ((1 << q_v) - 1) / 2.0
    return np.exp(1j * np.outer(theta, v))


def _apply_encoding(mat: np.ndarray, e_vec: np.ndarray, y: float, q_v: int) -> np.ndarray:
    mat *= _phase_table(e_vec, y, q_v)
    return np.fft.fft(mat, axis=1) / math.sqrt(1 << q_v)


def _apply_encoding_dagger(mat: np.ndarray, e_vec: np.ndarray, y: float, q_v: int) -> np.ndarray:
    mat = np.fft.ifft(mat, axis=1) * math.sqrt(1 << q_v)
    mat *= np.conj(_phase_table(e_vec, y, q_v))
    return mat


def oracle_flip(mat: np.ndarray, q_v: int) -> None:
    """Pauli-Z on the sign qubit: negate amplitudes whose value MSB is 1."""
    half = 1 << (q_v - 1)
    mat[:, half:] *= -1.0


def reflect_about_zero(mat: np.ndarray) -> None:
    """Grover diffusion: +1 on |0...0><0...0|, -1 elsewhere."""
    keep = mat[0, 0]
    mat *= -1.0
    mat[0, 0] = keep


class GroverCircuit:
    """A_y and G = A_y D A_y^H O for a fixed polynomial and preparation.

    The objective and threshold are multiplied by gas.value_scale's integer
    factor for the preparation's support, as gas.scale_for does.
    """

    def __init__(self, poly: HuboPolynomial, reg: VarRegistry, prep: str, q_v: int):
        _check_capacity(reg.q_k, q_v)
        self.reg = reg
        self.q_v = q_v
        self.prep = Preparation(prep, reg)
        self.e_vec = poly_values_over_keys(poly, reg.q_k)
        key_probs = prepare_initial(prep, reg, 0).key_marginal()
        self.support = key_probs > 1e-24
        sup_vals = self.e_vec[self.support]
        self._hi = float(sup_vals.max())
        self._lo = float(sup_vals.min())

    def scale_for(self, y: float) -> int:
        return value_scale(self._lo, self._hi, y, self.q_v)

    def prepare(self, y: float) -> StateVector:
        s = self.scale_for(y)
        check_value_range(s * self.e_vec[self.support], s * y, self.q_v)
        mat = np.zeros((1 << self.reg.q_k, 1 << self.q_v), dtype=complex)
        mat[0, 0] = 1.0
        mat = self.prep.apply(mat, self.q_v)
        mat = _apply_encoding(mat, s * self.e_vec, s * y, self.q_v)
        return StateVector(mat.reshape(-1), self.reg.q_k, self.q_v)

    def grover_iterate(self, sv: StateVector, y: float) -> StateVector:
        """One Grover step: oracle, uncompute A_y, reflect about zero, A_y."""
        s = self.scale_for(y)
        mat = sv.matrix().copy()
        oracle_flip(mat, self.q_v)
        mat = _apply_encoding_dagger(mat, s * self.e_vec, s * y, self.q_v)
        mat = self.prep.apply(mat, self.q_v, dagger=True)
        reflect_about_zero(mat)
        mat = self.prep.apply(mat, self.q_v)
        mat = _apply_encoding(mat, s * self.e_vec, s * y, self.q_v)
        return StateVector(mat.reshape(-1), sv.q_k, sv.q_v)

    def run(self, y: float, L: int) -> StateVector:
        sv = self.prepare(y)
        for _ in range(L):
            sv = self.grover_iterate(sv, y)
        return sv
