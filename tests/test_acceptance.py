"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line with the
measured quantities before asserting, so a failing criterion still leaves a
full record in the test output.
"""

import itertools
import math
import time

import numpy as np
import pytest

from gasmld import streams
from gasmld.channel import PSK2, QPSK, SystemConfig, generate_instance
from gasmld.gas import Backend, GasParams, l_opt, restart_iterations, run_gas, scale_for
from gasmld.gates import cku_g_costs, g_prop, g_ug_total, table1_counts
from gasmld.harness import load_spec, run_ber, run_query_cdf
from gasmld.indicators import (calibrate, channel_indicators, indicator_c, indicator_c_prime,
                               select_lmin, select_lmin_conventional)
from gasmld.spaces import HADAMARD_FULL, W_STATE_REDUCED, build_registry, channel_spaces
from oracles import (HuboPolynomial, binned_spread, build_hubo, choose_qv, distribution,
                     from_polynomial, random_payload_bits, received_slot, success_probability,
                     term_counts_by_order)
from gasmld.thresholds import MvdParams, mvd_rate, regularized_gamma_q, y_mvd

# experiment seed.  Trial 79 is a threshold-failure trial (its slot-0
# minimum lies above y_mvd) in criteria 1, 3 and 4 at tau_max 1 and 2; it
# sets every arm's maximum in criterion 04 at tau_max 2
SEED = 2028


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def base_cfg(**over):
    d = dict(N=2, M=4, tau_max=1, modulation=PSK2, T_P=128, T_D=128,
             P_X=1.0, snr_db=20.0, seed=SEED)
    d.update(over)
    return SystemConfig(**d)


@pytest.fixture(scope="module")
def fig5_table():
    return calibrate(base_cfg(), 2000, P=1e-3, id_offset=1_000_000)[0]


def test_criterion_01_oracle_equivalence(fig5_table):
    """GAS with the proposed settings always lands on the exhaustive argmin."""
    cfg = base_cfg()
    ymvd = y_mvd(MvdParams.from_config(cfg, 1e-3))
    t0 = time.time()
    converged = 0
    argmin_ok = 0
    within_budget = 0
    for trial in range(500):
        inst = generate_instance(cfg, instance_id=trial)
        bits = random_payload_bits(cfg, 0, instance_id=trial)
        slot = received_slot(inst, cfg, 0, bits, instance_id=trial)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        backend = Backend(space)
        lmin = select_lmin(fig5_table, indicator_c_prime(inst.H))
        params = GasParams(y0=ymvd, lmin=lmin, restart_enabled=True)
        rng = streams.substream(cfg.seed, streams.TRIAL, trial, 0)
        trace = run_gas(backend, params, rng, oracle_min=float(space.e_values.min()))
        budget_rot = int(math.ceil(50 * math.sqrt(space.n_states)))
        converged += bool(trace.converged)
        within_budget += trace.qd_rotations <= budget_rot
        if trace.converged:
            argmin_ok += space.e_values[0, trace.final] <= float(space.e_values.min()) + 1e-12
    elapsed = time.time() - t0
    # the wall time on a line of its own, so the ACCEPTANCE line of two
    # runs compares byte for byte
    print(f"criterion 01 runtime {elapsed:.1f}s (limit 300s)")
    ok = converged == 500 and argmin_ok == 500 and within_budget == 500 and elapsed <= 300
    assert report(1, ok, f"converged {converged}/500, argmin matches {argmin_ok}/500")


def _integer_toy(seed):
    rng = np.random.default_rng(seed)
    q_k = int(rng.integers(4, 11))
    n_terms = int(rng.integers(q_k, 2 * q_k))
    terms = {}
    for _ in range(n_terms):
        order = int(rng.integers(1, 4))
        key = tuple(sorted(rng.choice(q_k, size=order, replace=False).tolist()))
        terms[key] = float(rng.integers(-3, 4)) or 1.0
    poly = HuboPolynomial(n_vars=q_k, constant=float(rng.integers(0, 5)), terms=terms)
    cfg = SystemConfig(N=1, M=1, tau_max=q_k - 2, seed=0)
    reg = build_registry(cfg)
    return poly, reg


def test_criterion_02_backend_cross_check():
    """Circuit and amplitude measurement statistics agree."""
    shots = 10_000
    worst_int = 0.0
    n_toys = 0
    seed = 0
    rng_shots = np.random.default_rng(999)
    while n_toys < 50:
        seed += 1
        poly, reg = _integer_toy(seed)
        e = from_polynomial(poly, reg, HADAMARD_FULL)
        ys = sorted({int(math.floor(np.quantile(e.e_values, q))) for q in (0.2, 0.5, 0.8)})
        ys.append(int(math.ceil(e.e_sorted[0, -1])) + 1)
        q_v = max(choose_qv(poly, float(y)) for y in ys)
        if q_v > 6:
            continue
        n_toys += 1
        circ = Backend(e, q_v)
        for y in ys:
            ns = int(np.count_nonzero(e.e_values < y))
            for L in (0, 1, 2, 5):
                p_amp = success_probability(ns, e.n_states, L) if ns else 0.0
                p_circ = float(distribution(circ, float(y), L)[circ.e_values < y].sum())
                u = rng_shots.random(shots)
                tv = abs(float(np.mean(u < p_circ)) - float(np.mean(u < p_amp)))
                worst_int = max(worst_int, tv)

    worst_real = 0.0
    n_mimo = 0
    seed = 0
    while n_mimo < 20:
        seed += 1
        cfg = SystemConfig(N=2, M=2, tau_max=1, T_P=128, T_D=4, snr_db=20.0,
                           seed=10_000 + seed)
        inst = generate_instance(cfg)
        bits = random_payload_bits(cfg, 0, instance_id=0)
        slot = received_slot(inst, cfg, 0, bits, instance_id=0)
        reg = build_registry(cfg)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        circ = Backend(space, q_v=8)
        es = space.e_sorted[0]
        half = es.size // 2
        gaps = es[1:half + 1] - es[:half]
        ys = []
        for i in np.argsort(gaps)[::-1]:
            y = float(0.5 * (es[i] + es[i + 1]))
            if gaps[i] * scale_for(circ.space, circ.q_v, y) >= 20 and len(ys) < 2:
                ys.append(y)
        if not ys:
            continue
        n_mimo += 1
        ys.append(float(es[-1]) + 1.0)
        for y in ys:
            ns = int(np.count_nonzero(space.e_values < y))
            for L in (0, 1, 2, 3):
                p_amp = success_probability(ns, space.n_states, L) if ns else 0.0
                p_circ = float(distribution(circ, y, L)[circ.e_values < y].sum())
                u = rng_shots.random(shots)
                tv = abs(float(np.mean(u < p_circ)) - float(np.mean(u < p_amp)))
                worst_real = max(worst_real, tv)

    ok = worst_int <= 0.02 and worst_real <= 0.05
    assert report(2, ok, f"worst TV integer {worst_int:.4f} (limit 0.02) over 50 toys, "
                         f"real-coefficient {worst_real:.4f} (limit 0.05) over 20 instances")


def test_criterion_03_search_space_reduction():
    """One-hot preparation beats the plain superposition at every quantile."""
    spec = load_spec({
        "name": "fig3",
        "cfg": {"N": 2, "M": 4, "tau_max": 1, "T_P": 128, "T_D": 128,
                "snr_db": 20.0, "seed": SEED},
        "trials": 500,
        "variants": [
            {"name": "w-prep", "prep": W_STATE_REDUCED, "threshold": "random", "lmin": "zero"},
            {"name": "hadamard", "prep": HADAMARD_FULL, "threshold": "random", "lmin": "zero"},
        ],
    })
    rows = run_query_cdf(spec)

    def pull(name, col):
        vals = np.array([r[col] for r in rows if r[0] == name], dtype=float)
        conv = np.array([r[4] for r in rows if r[0] == name])
        return np.where(conv, vals, np.inf)

    w_cd, w_qd = pull("w-prep", 2), pull("w-prep", 3)
    h_cd, h_qd = pull("hadamard", 2), pull("hadamard", 3)
    med = (np.median(w_cd), np.median(w_qd))
    in_range = all(16 <= m <= 64 for m in med)
    qs = np.arange(0.02, 0.99, 0.02)
    dom = all(np.quantile(w_cd, q) <= np.quantile(h_cd, q) for q in qs) and \
        all(np.quantile(w_qd, q) <= np.quantile(h_qd, q) for q in qs)
    strict = np.median(w_cd) < np.median(h_cd) and np.median(w_qd) < np.median(h_qd)
    ok = in_range and dom and strict
    assert report(3, ok, f"w-prep medians cd={med[0]:.0f} qd={med[1]:.0f} (range [16,64]), "
                         f"dominates hadamard at all quantiles={dom}, strictly at median={strict}")


def _table2_arms(tau_max, trials=500):
    spec = load_spec({
        "name": f"tableII-{tau_max}",
        "cfg": {"N": 2, "M": 4, "tau_max": tau_max, "T_P": 128, "T_D": 128,
                "snr_db": 20.0, "seed": SEED},
        "trials": trials,
        "calibration": {"samples": 2000},
        "variants": [
            {"name": "lmin-zero", "threshold": "mvd", "lmin": "zero", "restart": True},
            {"name": "lmin-c", "threshold": "mvd", "lmin": "conventional-c", "restart": True},
            {"name": "lmin-cprime", "threshold": "mvd", "lmin": "proposed-cprime", "restart": True},
        ],
    })
    rows = run_query_cdf(spec)
    out = {}
    for name in ("lmin-zero", "lmin-c", "lmin-cprime"):
        qd = np.array([r[3] for r in rows if r[0] == name])
        conv = np.array([r[4] for r in rows if r[0] == name])
        out[name] = (int(qd.max()), float(conv.mean()), float(np.median(qd)),
                     float(np.percentile(qd, 99)))
    return out


def _arm_quantiles(res) -> str:
    return ", ".join(f"{name} {v[2]:g}/{v[3]:g}" for name, v in res.items())


def test_criterion_04_rotation_bound_trend():
    """Rotation counts to full convergence across the lower-bound policies."""
    res2 = _table2_arms(2)
    l_conv, l_c, l_prop = (res2["lmin-zero"][0], res2["lmin-c"][0],
                           res2["lmin-cprime"][0])
    all_conv2 = all(v[1] == 1.0 for v in res2.values())
    reduction2 = (l_conv - l_prop) / l_conv

    res5 = _table2_arms(5)
    l_conv5, l_prop5 = res5["lmin-zero"][0], res5["lmin-cprime"][0]
    all_conv5 = all(v[1] == 1.0 for v in res5.values())
    reduction5 = (l_conv5 - l_prop5) / l_conv5

    # the largest case runs on the closed-form backend only
    cfg8 = base_cfg(M=8, tau_max=2, seed=SEED)
    ymvd8 = y_mvd(MvdParams.from_config(cfg8, 1e-3))
    big_ok = 0
    for trial in range(30):
        inst = generate_instance(cfg8, instance_id=trial)
        bits = random_payload_bits(cfg8, 0, instance_id=trial)
        slot = received_slot(inst, cfg8, 0, bits, instance_id=trial)
        space = channel_spaces(inst, slot.r[None], [0], cfg8, W_STATE_REDUCED)
        lmin = select_lmin_conventional(indicator_c(inst.H))
        params = GasParams(y0=ymvd8, lmin=lmin, restart_enabled=True)
        rng = streams.substream(cfg8.seed, streams.TRIAL, trial, 9)
        trace = run_gas(Backend(space), params, rng,
                        oracle_min=float(space.e_values.min()))
        big_ok += bool(trace.converged)

    ordering = l_prop <= l_c <= l_conv
    in_band2 = 0.04 <= reduction2 <= 0.24
    big_runs = big_ok == 30
    ok = all_conv2 and all_conv5 and ordering and in_band2 and reduction5 >= 0.40 and big_runs
    assert report(4, ok, f"(2,4,2,2): L_conv={l_conv} L_conv'={l_c} L_prop={l_prop} "
                         f"ordering={ordering} reduction={100*reduction2:.1f}% (band [4,24]); "
                         f"(2,4,5,2): reduction={100*reduction5:.1f}% (>=40); "
                         f"(2,8,2,2) amplitude runs converged {big_ok}/30; "
                         f"median/p99 rotations tau=2: {_arm_quantiles(res2)}, "
                         f"tau=5: {_arm_quantiles(res5)}")


def test_criterion_05_gate_arithmetic():
    g_ug = g_ug_total(4, 1, 1, PSK2)
    gp = g_prop(4, 1)
    ratio = gp / g_ug
    costs_ok = all(
        cku_g_costs(k) == ({"H": 0, "T": 0, "CX": 2, "Rz": 2} if k == 1 else
                           {"H": 4 * (k - 1), "T": 16 * (k - 1),
                            "CX": 12 * k - 10, "Rz": 3})
        for k in range(1, 7))
    ok = g_ug == 17016 and gp == 13 and f"{100 * ratio:.3g}" == "0.0764" and costs_ok
    assert report(5, ok, f"G_UG(4,1,1)={g_ug} (=17016), G_prop={gp} (=13), "
                         f"ratio={100*ratio:.4f}% (0.0764%), ladder costs k=1..6 {costs_ok}")


def _cancelled_same_user_monomials(layout) -> set[tuple[int, ...]]:
    """Monomials d_{m,k} d_{m,k'} * (payload monomial of user m), k != k'.

    Every delay hypothesis of user m multiplies the same symbol s_m, and
    |s_m|^2 = 1 on every binary assignment for both constellations, so these
    monomials have coefficient zero in the unique multilinear form.
    """
    out = set()
    for m in range(layout.reg.M):
        payload = [i for i, v in enumerate(layout.entries) if v.m == m and v.kind != "d"]
        for k, k2 in itertools.combinations(range(layout.reg.taud), 2):
            pair = (layout.d_position(m, k), layout.d_position(m, k2))
            for n in range(1, len(payload) + 1):
                for sub in itertools.combinations(payload, n):
                    out.add(tuple(sorted(pair + sub)))
    return out


def _published_excess(M: int, taud: int, modulation: str) -> dict[int, int]:
    """Published minus exact term count at orders 3 and 4.

    Per same-user delay pair the cancelled monomials are two of order 3 and
    one of order 4 (payload subsets {b}, {c}, {b, c} for pi/2-BPSK, {b0},
    {b1}, {b0, b1} for QPSK).  The published QPSK rows count each once; the
    published pi/2-BPSK rows count them inside 4 C(M taud, 2) and
    2 C(M taud, 2), i.e. twice, as if the pair belonged to two users.
    """
    pairs = M * math.comb(taud, 2)
    if modulation == PSK2:
        return {3: 4 * pairs, 4: 2 * pairs}
    return {3: 2 * pairs, 4: pairs}


def test_criterion_06_term_counts():
    """Symbolic monomial counts reconciled with the published per-order table.

    Orders 1, 2, 5 and 6 must equal the published table; at orders 3 and 4
    the published table must exceed the exact expansion by exactly the
    cancelled same-user monomials, and none of those may survive the prune.
    """
    mismatches = []
    for modulation in (PSK2, QPSK):
        for M in (2, 3, 4):
            for taud in (2, 3):
                published = table1_counts(M, taud - 1, modulation)
                excess = _published_excess(M, taud, modulation)
                for rep in range(10):
                    cfg = SystemConfig(N=2, M=M, tau_max=taud - 1, modulation=modulation,
                                       T_P=64, T_D=4, snr_db=20.0,
                                       seed=50_000 + 997 * rep + 31 * M + taud)
                    inst = generate_instance(cfg)
                    bits = random_payload_bits(cfg, 0, instance_id=0)
                    slot = received_slot(inst, cfg, 0, bits, instance_id=0)
                    poly, layout = build_hubo(inst, slot.r, 0, cfg,
                                              include_c_as_variable=modulation == PSK2)
                    counts = term_counts_by_order(poly)
                    for order in sorted(set(counts) | set(published)):
                        got = counts.get(order, 0)
                        diff = published.get(order, 0) - got
                        if diff != excess.get(order, 0):
                            mismatches.append((modulation, M, taud, order, got, diff))
                    survivors = _cancelled_same_user_monomials(layout) & set(poly.terms)
                    if survivors:
                        mismatches.append((modulation, M, taud, "cancelled", len(survivors), 0))
    by_order = sorted({(m[0], m[3]) for m in mismatches}, key=str)
    ok = not mismatches
    assert report(6, ok, f"{len(mismatches)} mismatches over 120 draws; published - exact "
                         f"= 0 at orders 1,2,5,6 and at orders 3,4 "
                         f"psk2 {{3: 4 M C(taud,2), 4: 2 M C(taud,2)}}, "
                         f"qpsk {{3: 2 M C(taud,2), 4: M C(taud,2)}}: the same-user "
                         f"cross-delay payload monomials, which cancel because |s_m|^2 = 1"
                         + (f"; affected (modulation, order): {by_order}" if mismatches else ""))


def test_criterion_07_mvd_statistics():
    worst_ks = 0.0
    for (N, tppx, sv2) in ((2, 128.0, 0.01), (1, 64.0, 0.1)):
        rng = np.random.default_rng(4242)
        n = 10_000
        sv = math.sqrt(sv2)
        v = (rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))) * np.sqrt(0.5)
        e = math.sqrt(sv2 / tppx) * (rng.standard_normal((n, N)) +
                                     1j * rng.standard_normal((n, N))) * np.sqrt(0.5)
        emin = np.sort(np.sum(np.abs(sv * v + e) ** 2, axis=1))
        lam = mvd_rate(sv2, tppx)
        cdf = np.array([1.0 - regularized_gamma_q(N, lam * float(x)) for x in emin])
        i = np.arange(1, n + 1)
        ks = max(np.max(np.abs(i / n - cdf)), np.max(np.abs((i - 1) / n - cdf)))
        worst_ks = max(worst_ks, ks)

    # exceedance of the P = 1e-3 threshold at the first parameter set
    rng = np.random.default_rng(777)
    n = 100_000
    sv2, tppx, N = 0.01, 128.0, 2
    sv = math.sqrt(sv2)
    v = (rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))) * np.sqrt(0.5)
    e = math.sqrt(sv2 / tppx) * (rng.standard_normal((n, N)) +
                                 1j * rng.standard_normal((n, N))) * np.sqrt(0.5)
    emin = np.sum(np.abs(sv * v + e) ** 2, axis=1)
    thr = y_mvd(MvdParams(N=N, lambda_v=mvd_rate(sv2, tppx), P=1e-3))
    exceed = float(np.mean(emin > thr))
    ok = worst_ks <= 0.02 and 2e-4 <= exceed <= 5e-3
    assert report(7, ok, f"worst KS {worst_ks:.4f} (limit 0.02), "
                         f"exceedance {exceed:.2e} in [2e-4, 5e-3]")


def test_criterion_08_restart_bound():
    got = restart_iterations(5, 256, 1)
    assert report(8, got == 14, f"restart_iterations(5, 256, 1) = {got} (= 14)")


def _wilson_interval(errors, n, z=1.96):
    p = errors / n
    den = 1 + z * z / n
    center = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
    return center - half, center + half


def test_criterion_09_ber_optimality():
    spec = load_spec({
        "name": "ber",
        "cfg": {"N": 2, "M": 4, "tau_max": 1, "T_P": 128, "T_D": 128,
                "snr_db": 20.0, "seed": SEED},
        "trials": 204,
        "snr_sweep": [10.0, 15.0, 20.0],
        "detectors": ["exhaustive", "gas-mvd", "gas-mmse", "gas-rand"],
    })
    rows, rotations = run_ber(spec)
    table = {(r[0], r[1]): (r[3], r[4]) for r in rows}
    details = []
    overlap_ok = True
    median_ok = True
    enough_bits = True
    for snr in (10.0, 15.0, 20.0):
        n_exh, e_exh = table[("exhaustive", snr)]
        enough_bits &= n_exh >= 100_000
        ci_exh = _wilson_interval(e_exh, n_exh)
        for det in ("gas-mvd", "gas-mmse", "gas-rand"):
            n, e = table[(det, snr)]
            ci = _wilson_interval(e, n)
            if ci[0] > ci_exh[1] or ci_exh[0] > ci[1]:
                overlap_ok = False
        med = {det: median for det, s, _, _, median in rotations if s == snr}
        if not (med["gas-mvd"] < med["gas-mmse"] and med["gas-mvd"] < med["gas-rand"]):
            median_ok = False
        details.append(f"{snr:.0f}dB ber(exh)={e_exh/n_exh:.2e} "
                       f"medians mvd/mmse/rand={med['gas-mvd']:.0f}/"
                       f"{med['gas-mmse']:.0f}/{med['gas-rand']:.0f}")
    ok = overlap_ok and median_ok and enough_bits
    assert report(9, ok, f"CI overlap={overlap_ok}, mvd has strictly smallest median "
                         f"qd={median_ok}, >=1e5 bits={enough_bits}; " + "; ".join(details))


def test_criterion_10_indicator_localization():
    cfg = base_cfg()
    thr = y_mvd(MvdParams.from_config(cfg, 1e-3))
    channels, lopts = [], []
    idx = 0
    while len(lopts) < 2000:
        inst = generate_instance(cfg, instance_id=idx)
        bits = random_payload_bits(cfg, 0, instance_id=idx)
        slot = received_slot(inst, cfg, 0, bits, instance_id=idx)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        idx += 1
        ns = int(np.count_nonzero(space.e_values < thr))
        if ns == 0:
            continue
        channels.append(inst.H)
        lopts.append(l_opt(ns, space.n_states))
    ind = channel_indicators(np.array(channels))
    spread_c = binned_spread(ind["c"], np.array(lopts), n_bins=20)
    spread_cp = binned_spread(ind["c_prime"], np.array(lopts), n_bins=20)
    ok = spread_cp < spread_c
    assert report(10, ok, f"mean p90-p10 spread over 20 bins: C'={spread_cp:.3f} "
                          f"< C={spread_c:.3f} on {len(lopts)} samples")
