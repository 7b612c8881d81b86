import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest

from gasmld.channel import (PSK2, QPSK, SystemConfig, generate_instance, received_slots,
                            slot_draws)
from gasmld import gas, harness, streams
from gasmld.gas import (STOP_BUDGET_ITERATIONS, STOP_BUDGET_ROTATIONS, STOP_OPTIMUM,
                        Backend, GasParams, OutsidePrefix, l_opt, channel_bound, prepared_state,
                        register_width, restart_iterations, run_gas, run_gas_batch, scale_for)
from gasmld.indicators import indicator_c, select_lmin_conventional
from gasmld.spaces import (HADAMARD_FULL, W_STATE_REDUCED, SpaceStack, build_registry,
                           channel_keys, channel_spaces)
from gasmld.thresholds import MvdParams, mmse_detect, y_mvd
from oracles import (GroverCircuit, HuboPolynomial, build_hubo, distribution, evaluate,
                     from_polynomial, random_payload_bits, received_slot, success_probability)

FIG2_TERMS = {(0,): 1.0, (1, 2): -3.0, (0, 1, 2): 1.0}


def toy_poly(n_vars=3):
    return HuboPolynomial(n_vars=n_vars, constant=2.0, terms=dict(FIG2_TERMS))


def toy_backend(n_vars=3):
    cfg = SystemConfig(N=1, M=1, tau_max=n_vars - 2, seed=0)
    reg = build_registry(cfg)
    assert reg.q_k == n_vars
    poly = toy_poly(n_vars)
    return poly, reg, Backend(from_polynomial(poly, reg, HADAMARD_FULL))


def one_hot_min(space) -> float:
    """The least value of a one-hot state, the optimum a run halts at; on
    the toy full space it lies above the table's minimum."""
    return float(space.e_values[0][space.one_hot].min())


class FixedUniforms:
    """A generator stub whose every uniform is u."""

    def __init__(self, u: float):
        self.u = u

    def random(self, shape=None, out=None):
        if out is not None:
            out.fill(self.u)
            return out
        return self.u if shape is None else np.full(shape, self.u)


class TestFormulas:
    def test_success_probability_reference(self):
        assert success_probability(6, 256, 5) == pytest.approx(
            math.sin(11 * math.asin(math.sqrt(6 / 256))) ** 2)
        # frozen from the formula itself (evaluates to 0.98570, not 0.9996)
        assert success_probability(6, 256, 5) == pytest.approx(0.9856983397679344, abs=1e-12)

    def test_success_probability_l_zero(self):
        assert success_probability(3, 8, 0) == pytest.approx(3 / 8)

    def test_l_opt_values(self):
        assert l_opt(6, 256) == 5
        assert l_opt(1, 4) == 1

    def test_restart_reference_values(self):
        assert restart_iterations(5, 256, 1) == 14
        assert restart_iterations(0, 4, 1) == 25

    def test_restart_certain_success(self):
        # P_success = 1/2 at L=0: smallest I with 0.5^I <= 1e-3 is 10
        assert restart_iterations(0, 4, 2) == 10
        # P_success = 1 exactly: Ns = Nt at L = 0
        assert restart_iterations(0, 4, 4) == 1

    @pytest.mark.parametrize("lo,hi,y0", [(0.0, 3.2, None), (0.0, 3.2, 0.0), (0.0, 8.0, 2.0),
                                          (0.0, 7.9, 27.0), (-5.0, 3.0, -9.5), (1.0, 2.0, 1.5)])
    def test_register_width_holds_every_reachable_threshold(self, lo, hi, y0):
        # E - y for E in [lo, hi] and y at y0 or any E fits the window at
        # the returned width and not at one qubit less
        ys = [lo, hi] if y0 is None else [lo, hi, y0]
        span = (lo - max(ys), hi - min(ys))

        def fits(q_v):
            return -(1 << (q_v - 1)) <= span[0] and span[1] < (1 << (q_v - 1))

        q_v = register_width(lo, hi, y0)
        assert fits(q_v) and (q_v == 1 or not fits(q_v - 1))

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            GasParams(lam=1.0)
        with pytest.raises(ValueError):
            GasParams(lam=4 / 3)


class TestAmplitudeBackend:
    def test_all_marked_returns_marked(self):
        poly, reg, backend = toy_backend()
        rng = np.random.default_rng(0)
        y = float(backend.space.e_sorted[0, -1]) + 1.0
        for L in (0, 1, 5):
            _, ex = backend.measure(y, L, *rng.random(2))
            assert ex < y

    def test_no_marked_uniform(self):
        poly, reg, backend = toy_backend()
        rng = np.random.default_rng(1)
        y = float(backend.space.e_sorted[0, 0]) - 1.0
        counts = np.zeros(8)
        n = 16000
        for _ in range(n):
            state, _ = backend.measure(y, 3, *rng.random(2))
            counts[state] += 1
        # chi-square against uniform, 7 dof: 99.9% quantile ~ 24.3
        expected = n / 8
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 24.3

    def test_marked_hit_rate_matches_law(self):
        poly, reg, backend = toy_backend()
        y = 2.0
        ns = int(np.count_nonzero(backend.space.e_values < y))
        rng = np.random.default_rng(2)
        n = 20000
        for L in (1, 2):
            hits = 0
            for _ in range(n):
                _, ex = backend.measure(y, L, *rng.random(2))
                hits += ex < y
            p = success_probability(ns, 8, L)
            assert hits / n == pytest.approx(p, abs=4 * math.sqrt(p * (1 - p) / n) + 1e-3)


class TestPrefixBackend:
    """A Backend over the states below y0 alone measures what the full
    table's Backend measures, and reads no value by ordinal."""

    cfg = SystemConfig(N=2, M=4, tau_max=2, T_P=128, T_D=128, snr_db=20.0, seed=2028)

    def backends(self, trial):
        """The full table's Backend of a trial, its Backend over the states
        below y_mvd and y_mvd."""
        cfg = self.cfg
        inst = generate_instance(cfg, instance_id=trial)
        r = received_slots(inst, cfg, [0], *slot_draws(cfg, [0], instance_id=trial))
        space = channel_spaces(inst, r, [0], cfg, W_STATE_REDUCED)
        ymvd = y_mvd(MvdParams.from_config(cfg, 1e-3))
        ns0 = int(np.count_nonzero(space.e_values < ymvd))
        prefix = (space.order[0, :ns0], space.e_sorted[0, :ns0])
        return Backend(space), Backend(channel_keys(cfg, W_STATE_REDUCED), prefix=prefix), ymvd

    def test_measure_matches_the_full_table(self):
        # at every threshold a run from y_mvd can reach, a draw inside the
        # prefix is the full table's state and value, bit for bit, and a
        # draw past it is (-1, inf) where the full table's value is >= y_mvd
        rng = np.random.default_rng(40)
        past = 0
        for trial in range(4):
            full, prefix, ymvd = self.backends(trial)
            es = full.space.e_sorted[0]
            ns0 = int(np.count_nonzero(es < ymvd))
            assert ns0 > 1
            for y in (ymvd, float(es[ns0 - 1]), float(es[1])):
                for L in (0, 2, 7):
                    for u_class, u_state in rng.random((100, 2)).tolist():
                        ordinal, value = full.measure(y, L, u_class, u_state)
                        got = prefix.measure(y, L, u_class, u_state)
                        assert got == ((ordinal, value) if value < ymvd else (-1, math.inf))
                        past += value >= ymvd
        assert past > 0

    def test_a_read_by_ordinal_raises(self):
        # a uniform start, a seed and a restart draw each need a value only
        # the full table holds
        _, backend, ymvd = self.backends(0)
        with pytest.raises(OutsidePrefix):
            run_gas(backend, GasParams(), np.random.default_rng(41))
        with pytest.raises(OutsidePrefix):
            run_gas(backend, GasParams(), np.random.default_rng(42), x0=0)
        # every uniform next to 1: no draw is marked or accepted, so the
        # run restarts after lmin 12's window of 14 steps
        params = GasParams(y0=ymvd, lmin=12, restart_enabled=True, budget_rotations=10 ** 6)
        assert gas.run_limits(backend.space, params)[2] == 14
        with pytest.raises(OutsidePrefix):
            run_gas(backend, params, FixedUniforms(float(np.nextafter(1.0, 0.0))))


class TestCircuitBackend:
    def test_integer_distribution_matches_amplitude_exactly(self):
        poly, reg, amp = toy_backend()
        circ = Backend(from_polynomial(poly, reg, HADAMARD_FULL), q_v=4)
        for y in (-1.0, 1.0, 2.0, 4.0):
            ns = int(np.count_nonzero(amp.space.e_values < y))
            for L in (0, 1, 2, 4):
                p = distribution(circ, y, L)
                marked = circ.e_values < y
                p_marked = float(p[marked].sum()) if ns else 0.0
                assert p_marked == pytest.approx(success_probability(ns, 8, L), abs=1e-9)
                # uniform within each class
                if ns:
                    assert np.allclose(p[marked], p[marked][0], atol=1e-10)
                if ns < 8:
                    assert np.allclose(p[~marked], p[~marked][0], atol=1e-10)

    def test_sampled_tv_integer(self):
        # paired uniforms: the marked-hit TV estimate carries no two-sample noise
        poly, reg, amp = toy_backend()
        circ = Backend(from_polynomial(poly, reg, HADAMARD_FULL), q_v=4)
        rng = np.random.default_rng(3)
        shots = 10_000
        for (y, L) in ((2.0, 1), (1.0, 2)):
            u = rng.random(shots)
            ns = int(np.count_nonzero(amp.space.e_values < y))
            p_amp = success_probability(ns, 8, L)
            p_circ = float(distribution(circ, y, L)[circ.e_values < y].sum())
            tv = abs(np.mean(u < p_circ) - np.mean(u < p_amp))
            assert tv <= 0.02

    def test_real_coefficient_mimo_tv(self):
        # thresholds mid-gap in the lower spectrum, at least 10 scaled units
        # from every level: the regime where fractional marking is reliable
        cfg = SystemConfig(N=2, M=2, tau_max=1, seed=8)
        inst = generate_instance(cfg)
        bits = random_payload_bits(cfg, 0, instance_id=0)
        slot = received_slot(inst, cfg, 0, bits, instance_id=0)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        amp = Backend(space)
        circ = Backend(space, q_v=8)
        es = space.e_sorted[0]
        half = es.size // 2
        gaps = es[1:half + 1] - es[:half]
        ys = []
        for i in np.argsort(gaps)[::-1]:
            y = 0.5 * (es[i] + es[i + 1])
            if gaps[i] * scale_for(circ.space, circ.q_v, y) >= 20 and len(ys) < 2:
                ys.append(float(y))
        assert ys
        rng = np.random.default_rng(5)
        shots = 10_000
        for y in ys:
            ns = int(np.count_nonzero(space.e_values < y))
            for L in (1, 3):
                u = rng.random(shots)
                p_amp = success_probability(ns, space.n_states, L)
                p_circ = float(distribution(circ, y, L)[circ.e_values < y].sum())
                tv = abs(np.mean(u < p_circ) - np.mean(u < p_amp))
                assert tv <= 0.05

    def test_measure_decodes_to_assignment(self):
        # both backends: a measured state decodes to an assignment whose
        # objective is the value the measurement reported
        poly, reg, amp = toy_backend()
        circ = Backend(from_polynomial(poly, reg, HADAMARD_FULL), q_v=4)
        rng = np.random.default_rng(9)
        for backend in (amp, circ):
            for _ in range(10):
                state, ex = backend.measure(2.0, 1, *rng.random(2))
                x = backend.space.assignment(state)
                assert x.shape == (3,)
                assert evaluate(poly, x) == pytest.approx(ex, abs=1e-12)

    @staticmethod
    def forced(monkeypatch, sign_table):
        """A q_v backend over the toy space whose sign-qubit probabilities
        at any threshold are sign_table(space, y), per ordinal."""
        poly, reg, _ = toy_backend()
        monkeypatch.setattr(gas, "sign_probabilities",
                            lambda space, q_v, y: np.asarray(sign_table(space, y), float))
        return Backend(from_polynomial(poly, reg, HADAMARD_FULL), q_v=4)

    @pytest.mark.parametrize("q1", [[1, 1, 0.25, -0.25, 0, 0, 0, 0],
                                    [1, 1, np.nan, 0, 0, 0, 0, 0],
                                    [1, 1, 1 + 1e-6, 0, 0, 0, 0, 0],
                                    [1, 1, np.inf, 0, 0, 0, 0, 0]],
                             ids=["negative", "nan", "over", "inf"])
    def test_measure_rejects_a_bad_distribution(self, monkeypatch, q1):
        # a sign table that is not finite or leaves [0, 1] is no law
        circ = self.forced(monkeypatch, lambda space, y: q1)
        with pytest.raises(ValueError):
            circ.measure(2.0, 1, 0.5, 0.5)

    def test_measure_inverts_the_cdf(self, monkeypatch):
        # within a class of cumulative weights cum over the sorted order,
        # u_state measures the j-th state with cum[j-1] <= u_state cum[-1] <
        # cum[j]; zero-weight states are never drawn
        q1 = np.array([0.5, 1.0, 0.0, 0.5, 1.0, 0.0, 0.0, 1.0])
        circ = self.forced(monkeypatch, lambda space, y: q1)
        position = np.argsort(circ.space.order[0])
        weights = q1[circ.space.order[0]]
        grid = np.linspace(0.0, 1.0, 1001)[:-1]
        for u_class, w in ((0.0, weights), (np.nextafter(1.0, 0.0), 1.0 - weights)):
            cum = np.cumsum(w)
            edges = cum[:-1] / cum[-1]
            for u in np.concatenate([grid, edges, np.nextafter(edges, 0.0)]).tolist():
                if not 0.0 <= u < 1.0:
                    continue
                j = position[circ.measure(2.0, 1, u_class, u)[0]]
                assert w[j] > 0.0
                assert (cum[j - 1] if j else 0.0) <= u * cum[-1] < cum[j]

    @pytest.mark.parametrize("w", [[1, 0.5, 1, 0, 0.25, 1, 0, 0], [0, 0.5, 1, 0, 0.25, 0, 0, 1]],
                             ids=["marked-tail-empty", "unmarked-tail-empty"])
    def test_u_state_below_one_stays_in_range(self, monkeypatch, w):
        # the largest uniform measures the last state of its class with
        # weight, past the zero-weight states that end the sorted order
        w = np.array(w, float)
        circ = self.forced(monkeypatch, lambda space, y: w[np.argsort(space.order[0])])
        order = circ.space.order[0]
        u = np.nextafter(1.0, 0.0)
        for u_class, weights in ((0.0, w), (u, 1.0 - w)):
            ordinal, _ = circ.measure(2.0, 1, u_class, u)
            assert ordinal == order[np.flatnonzero(weights)[-1]]

    @pytest.mark.parametrize("q_v", [None, 4])
    def test_all_marked_never_draws_the_unmarked_class(self, monkeypatch, q_v):
        # p_good = 1 leaves the unmarked class no weight: whatever u_class, up
        # to its closed end, a draw is uniform over the whole sorted order
        if q_v is None:
            poly, reg, backend = toy_backend()
        else:
            backend = self.forced(monkeypatch, lambda space, y: np.ones(space.n_states))
        order = backend.space.order[0]
        y = float(backend.space.e_sorted[0, -1]) + 1.0
        for L in range(6):
            for u_class in (0.0, 0.5, np.nextafter(1.0, 0.0), 1.0):
                for u_state in (0.0, 0.3, 0.6):
                    ordinal, _ = backend.measure(y, L, u_class, u_state)
                    assert ordinal == order[int(u_state * backend.space.n_states)]

    def test_ideal_sign_table_gives_the_ideal_law(self, monkeypatch):
        # with q1 forced to 1[E < y], the q_v path measures the ideal path's
        # state from the same uniforms: on the toy's tied values and on a
        # W-state channel space, below, inside and above the spectrum
        cfg = SystemConfig(N=2, M=2, tau_max=1, seed=8)
        inst = generate_instance(cfg)
        r = received_slots(inst, cfg, [0], *slot_draws(cfg, [0], instance_id=0))
        circ = self.forced(monkeypatch, lambda space, y: space.e_values[0] < y)
        rng = np.random.default_rng(31)
        for space in (circ.space, channel_spaces(inst, r, [0], cfg, W_STATE_REDUCED)):
            ideal, forced = Backend(space), Backend(space, q_v=8)
            es = space.e_sorted[0]
            ys = [es[0] - 1.0, es[0], es[1], 0.5 * (es[2] + es[3]), es[es.size // 2],
                  es[-1], es[-1] + 1.0]
            for y in map(float, ys):
                for L in (0, 1, 3, 7):
                    for u_class, u_state in rng.random((200, 2)).tolist():
                        assert (forced.measure(y, L, u_class, u_state)
                                == ideal.measure(y, L, u_class, u_state))


class TestDenseOracle:
    """The closed-form circuit law against the dense statevector simulator,
    mapped from key indices to the space's ordinals."""

    def assert_matches(self, circ, dense, ys):
        keys = circ.space.key_indices.astype(np.intp)
        for y in ys:
            for L in (0, 1, 3, 6):
                p_dense = dense.run(y, L).key_marginal()
                assert p_dense[keys].sum() == pytest.approx(1.0, abs=1e-12)
                assert np.abs(distribution(circ, y, L) - p_dense[keys]).sum() <= 1e-12

    @pytest.mark.parametrize("modulation", [PSK2, QPSK])
    @pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
    def test_channel_space(self, modulation, prep):
        cfg = SystemConfig(N=2, M=2, tau_max=1, modulation=modulation, seed=21)
        inst = generate_instance(cfg)
        slot = received_slot(inst, cfg, 0, random_payload_bits(cfg, 0, instance_id=0),
                             instance_id=0)
        poly, _ = build_hubo(inst, slot.r, 0, cfg)
        reg = build_registry(cfg)
        space = channel_spaces(inst, slot.r[None], [0], cfg, prep)
        q_v = register_width(0.0, channel_bound(inst.H, slot.r, prep, reg.taud), 0.0)
        circ = Backend(space, q_v)
        es = np.sort(space.e_values[0])
        # none marked, mid-gap, on a spectrum level, an integer, all marked
        ys = [es[0] - 0.25, 0.5 * (es[3] + es[4]), es[es.size // 2], 2.0, es[-1] + 0.5]
        self.assert_matches(circ, GroverCircuit(poly, reg, prep, q_v), map(float, ys))
        # every ordinal decodes to the assignment whose objective it carries
        for ordinal in range(space.n_states):
            assert evaluate(poly, space.assignment(ordinal)) == pytest.approx(
                space.e_values[0, ordinal], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
    def test_prepared_state(self, prep):
        # the closed-form A_y|0> on fitted registers, 20 instances per preparation
        for seed in range(20):
            cfg = SystemConfig(N=2, M=2, tau_max=1 + seed % 2, seed=300 + seed)
            inst = generate_instance(cfg)
            slot = received_slot(inst, cfg, 0, random_payload_bits(cfg, 0, instance_id=0),
                                 instance_id=0)
            poly, _ = build_hubo(inst, slot.r, 0, cfg)
            reg = build_registry(cfg)
            space = channel_spaces(inst, slot.r[None], [0], cfg, prep)
            q_v = register_width(0.0, channel_bound(inst.H, slot.r, prep, reg.taud), 0.0)
            circ = Backend(space, q_v)
            dense = GroverCircuit(poly, reg, prep, q_v)
            for y in (float(np.median(space.e_values)), float(space.e_values.min()) + 0.01):
                state = prepared_state(circ.space, circ.q_v, y)
                assert np.abs(state.reshape(-1) - dense.prepare(y).amps).max() <= 1e-12

    @pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
    def test_integer_toy(self, prep):
        # integer offsets put the Fejer kernel's peak exactly on a basis state
        cfg = SystemConfig(N=1, M=1, tau_max=1, seed=0)
        reg = build_registry(cfg)
        poly = toy_poly()
        circ = Backend(from_polynomial(poly, reg, prep), q_v=4)
        self.assert_matches(circ, GroverCircuit(poly, reg, prep, 4),
                            (-1.5, -1.0, 1.0, 2.0, 2.5, 4.0))


def measured(run) -> list[dict]:
    """The recorded steps in which the run measured."""
    return [step for step in run.steps if step["ran"]]


class TestRunGas:
    engine = staticmethod(run_gas)
    # about two fifths of runs measure the one-hot optimum before the first
    # restart can fire; seed 16 restarts first
    restart_seed = 16

    def test_toy_convergence_rate(self):
        poly, reg, backend = toy_backend()
        best = one_hot_min(backend.space)
        found = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            params = GasParams(budget_iterations=200, budget_rotations=2000)
            run = self.engine(backend, params, rng, oracle_min=best)
            found += bool(run.converged and backend.space.e_values[0, run.final] == best)
        assert found >= 99

    def test_threshold_sequence_strictly_decreasing(self):
        poly, reg, backend = toy_backend()
        rng = np.random.default_rng(11)
        run = self.engine(backend, GasParams(budget_iterations=100), rng, record=True)
        accepted = [step["Ex"] for step in measured(run) if step["accepted"]]
        assert all(b < a for a, b in zip(accepted, accepted[1:]))

    def test_tie_is_rejected(self):
        # E(x) == y must not be accepted
        cfg = SystemConfig(N=1, M=1, tau_max=0, seed=0)
        reg = build_registry(cfg)
        poly = HuboPolynomial(n_vars=2, constant=1.0, terms={})  # constant everywhere
        backend = Backend(from_polynomial(poly, reg, HADAMARD_FULL))
        rng = np.random.default_rng(12)
        params = GasParams(y0=1.0, budget_iterations=30)
        run = self.engine(backend, params, rng, record=True)
        assert not any(step["accepted"] for step in measured(run))

    def test_k_growth_law(self):
        poly, reg, backend = toy_backend()
        rng = np.random.default_rng(13)
        # threshold below the minimum: every iteration rejects
        params = GasParams(y0=float(backend.space.e_sorted[0, 0]) - 1.0,
                           budget_iterations=40, budget_rotations=10_000)
        run = self.engine(backend, params, rng, record=True)
        lam = 8 / 7
        cap = math.sqrt(8)
        for j, step in enumerate(measured(run), start=1):
            assert step["k"] == pytest.approx(min(lam ** j, cap), rel=1e-12)

    def test_restart_fires_and_recovers(self):
        poly, reg, backend = toy_backend()
        best = one_hot_min(backend.space)
        rng = np.random.default_rng(self.restart_seed)
        # restart window restart_iterations(2, 8) = 3; a threshold below
        # every value accepts nothing until the restart
        params = GasParams(y0=float(backend.space.e_sorted[0, 0]) - 0.5, lmin=2,
                           restart_enabled=True, budget_iterations=300, budget_rotations=5000)
        run = self.engine(backend, params, rng, oracle_min=best, record=True)
        assert any(step["restarted"] for step in measured(run))
        assert run.converged
        assert backend.space.e_values[0, run.final] == best

    def test_final_equals_argmin_at_convergence(self):
        # the toy's one-hot minimum is tied: the output is one of its states
        poly, reg, backend = toy_backend()
        space = backend.space
        best = one_hot_min(space)
        argmins = np.flatnonzero(space.one_hot & (space.e_values[0] == best))
        assert argmins.size == 2
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            run = self.engine(backend, GasParams(budget_iterations=300, budget_rotations=3000),
                              rng, oracle_min=best)
            if run.converged:
                assert run.final in argmins

    def test_invalid_incumbent_is_not_the_output(self):
        # on the full space the FIG2 minimum (0,1,1), E = -1, is not one-hot:
        # it becomes the incumbent, and the output is the best one-hot state
        poly, reg, backend = toy_backend()
        params = GasParams(budget_iterations=40)
        run = self.engine(backend, params, np.random.default_rng(22))
        assert run.final_y == -1.0
        x = backend.space.assignment(run.final).reshape(-1)
        _, d = reg.split_assignment(x)
        assert d.sum() == 1
        assert evaluate(poly, x) == 2.0
        assert not run.invalid_final

    def test_w_prep_measurements_always_valid(self):
        cfg = SystemConfig(N=2, M=2, tau_max=2, seed=15)
        inst = generate_instance(cfg)
        bits = random_payload_bits(cfg, 0, instance_id=0)
        slot = received_slot(inst, cfg, 0, bits, instance_id=0)
        reg = build_registry(cfg)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        backend = Backend(space)
        rng = np.random.default_rng(16)
        run = self.engine(backend, GasParams(budget_iterations=60), rng, record=True)
        for step in measured(run):
            _, d = reg.split_assignment(space.assignment(step["x"]).reshape(-1))
            assert np.all(d.reshape(reg.M, reg.taud).sum(axis=1) == 1)

    def test_budget_exhaustion_not_an_error(self):
        poly, reg, backend = toy_backend()
        rng = np.random.default_rng(17)
        params = GasParams(y0=float(backend.space.e_sorted[0, 0]) - 1.0,
                           budget_iterations=10)
        run = self.engine(backend, params, rng, oracle_min=-10.0)
        assert not run.converged and run.stop_reason == STOP_BUDGET_ITERATIONS
        assert run.cd_queries <= 11

    @pytest.mark.parametrize("reason", [STOP_OPTIMUM, STOP_BUDGET_ITERATIONS,
                                        STOP_BUDGET_ROTATIONS])
    def test_stop_reason(self, reason):
        poly, reg, backend = toy_backend()
        lowest = float(backend.space.e_sorted[0, 0])
        params = {
            STOP_OPTIMUM: GasParams(budget_iterations=200, budget_rotations=2000),
            # threshold below the minimum: no iteration accepts
            STOP_BUDGET_ITERATIONS: GasParams(y0=lowest - 1.0, budget_iterations=10,
                                              budget_rotations=10_000),
            STOP_BUDGET_ROTATIONS: GasParams(y0=lowest - 1.0, lmin=3, budget_iterations=1000,
                                             budget_rotations=50),
        }[reason]
        # a run given oracle_min halts at the optimum; the budget cases run without it
        best = one_hot_min(backend.space) if reason == STOP_OPTIMUM else None
        run = self.engine(backend, params, np.random.default_rng(21), oracle_min=best,
                          record=True)
        assert run.stop_reason == reason
        if reason == STOP_OPTIMUM:
            assert run.converged
        elif reason == STOP_BUDGET_ITERATIONS:
            assert len(measured(run)) == 10
        else:
            assert run.qd_rotations <= 50 and len(measured(run)) < 1000

    def test_rotation_budget_respected(self):
        poly, reg, backend = toy_backend()
        rng = np.random.default_rng(18)
        params = GasParams(y0=float(backend.space.e_sorted[0, 0]) - 1.0, lmin=3,
                           budget_iterations=1000, budget_rotations=50)
        run = self.engine(backend, params, rng)
        assert run.qd_rotations <= 50

    def test_cum_rotations_consistency(self):
        poly, reg, backend = toy_backend()
        rng = np.random.default_rng(19)
        run = self.engine(backend, GasParams(budget_iterations=80), rng, record=True)
        assert run.qd_rotations == sum(step["L"] for step in measured(run))
        zero_l = sum(1 for step in measured(run) if step["L"] == 0)
        assert len(measured(run)) <= run.qd_rotations + zero_l

    def test_steps_schema(self):
        # both engines record one format; solve writes its lines from it
        poly, reg, backend = toy_backend()
        rng = np.random.default_rng(20)
        run = self.engine(backend, GasParams(budget_iterations=10), rng, record=True)
        assert run.steps
        assert set(run.steps[0]) == {"i", "ran", "y", "L", "k", "x", "Ex", "accepted",
                                     "cum_rot", "restarted"}
        assert backend.space.assignment(run.steps[0]["x"]).shape[-1] == reg.q_k

    def test_unmarked_index_stays_below_nt(self):
        # at y the largest of Nt tie-free values ns = Nt - 1, and the
        # unmarked index ns + u (Nt - ns) rounds up to Nt at u = nextafter(1,
        # 0): the draw is the last state of the sorted order, not past it
        cfg = SystemConfig(N=2, M=4, tau_max=2, seed=2028)
        inst = generate_instance(cfg)
        r = received_slots(inst, cfg, [0], *slot_draws(cfg, [0], instance_id=0))
        space = channel_spaces(inst, r, [0], cfg, W_STATE_REDUCED)
        es, nt = space.e_sorted[0], space.n_states
        assert np.all(es[1:] > es[:-1])
        u = float(np.nextafter(1.0, 0.0))
        assert int(nt - 1 + u) == nt
        # every uniform u: L = 0, the unmarked class, its last state
        run = self.engine(Backend(space), GasParams(y0=float(es[-1]), budget_iterations=1),
                          FixedUniforms(u), record=True)
        (step,) = measured(run)
        assert step["x"] == space.order[0, -1] and not step["accepted"]

    def test_seed_with_threshold_rejected(self):
        # a seeded incumbent carries its own threshold
        poly, reg, backend = toy_backend()
        with pytest.raises(ValueError):
            self.engine(backend, GasParams(y0=1.0), np.random.default_rng(23), x0=0)


# the outputs the two engines must agree on, run for run
AGREED = ("final", "final_y", "invalid_final", "cd_queries", "qd_rotations", "stop_reason",
          "converged")


def assert_runs_agree(runs, batch):
    """Run j of run_gas equals run j of the batch in every AGREED output and,
    when recorded, in each measurement's L, state and restart."""
    assert len(runs) == batch.final.size
    for j, run in enumerate(runs):
        assert [getattr(run, f) for f in AGREED] == [getattr(batch, f)[j] for f in AGREED], j
        if run.steps is not None:
            assert [(s["L"], s["x"], s["restarted"]) for s in run.steps] == [
                (s["L"][j], s["x"][j], s["restarted"][j]) for s in batch.steps if s["ran"][j]], j


class TestRunGasBatch(TestRunGas):
    """Every TestRunGas rule on the lockstep engine, run as a batch of one
    that agrees run for run with run_gas on the same generator's draws."""

    @staticmethod
    def engine(backend, params, rng, **kw):
        twin = copy.deepcopy(rng)
        batch = run_gas_batch(backend.space, [0], [(params, rng, 1)], **kw)
        assert_runs_agree([run_gas(backend, params, twin, **kw)], batch)
        return batch


class TestEnginesAgree:
    """run_gas and run_gas_batch, each run its own one-run arm, on the same
    generators' draws give the same runs."""

    def test_toy_full_space(self):
        # tied values, one-hot enforcement and restarts on the full space, whose
        # minimum is not one-hot; one batch holds every run, each its own arm
        poly, reg, backend = toy_backend()
        best = one_hot_min(backend.space)
        arms = [GasParams(restart_enabled=restart, lmin=lmin, budget_iterations=60,
                          budget_rotations=300)
                for restart in (False, True) for lmin in (0, 2)] * 30
        targets = [best if j % 3 else None for j in range(len(arms))]
        runs = [run_gas(backend, params, np.random.default_rng(j), oracle_min=target,
                        record=True) for j, (params, target) in enumerate(zip(arms, targets))]
        batch = run_gas_batch(backend.space, np.zeros(len(arms), int),
                              [(params, np.random.default_rng(j), 1)
                               for j, params in enumerate(arms)],
                              oracle_min=[-math.inf if t is None else t for t in targets],
                              record=True)
        assert_runs_agree(runs, batch)
        assert 0 < batch.converged.sum() < len(arms)

    def test_tied_seeds_with_restarts(self):
        # a fourth, free variable doubles every tie group of the toy full
        # space; each seed is a later member of its group, one-hot or not,
        # with and without restart and oracle_min.  A seed the run never
        # improves on is the output as its own ordinal, not a tie-mate, and
        # invalid when it is not one-hot
        poly, reg, backend = toy_backend(4)
        space = backend.space
        es, order = space.e_sorted[0], space.order[0]
        seeds = [int(x) for x, tied in zip(order[1:], es[1:] == es[:-1]) if tied]
        assert space.one_hot[seeds].any() and not space.one_hot[seeds].all()
        arms = [GasParams(restart_enabled=restart, lmin=lmin, budget_iterations=iterations,
                          budget_rotations=300)
                for restart in (False, True) for lmin in (0, 2) for iterations in (1, 40)]
        cases = [(params, x, j % 2) for j, (params, x) in
                 enumerate(itertools.product(arms * 3, seeds))]
        best = one_hot_min(space)
        runs = [run_gas(backend, params, np.random.default_rng([31, j]), x0=x,
                        oracle_min=best if halts else None, record=True)
                for j, (params, x, halts) in enumerate(cases)]
        batch = run_gas_batch(space, np.zeros(len(cases), int),
                              [(params, np.random.default_rng([31, j]), 1)
                               for j, (params, _, _) in enumerate(cases)],
                              x0=[x for _, x, _ in cases],
                              oracle_min=[best if halts else -math.inf for *_, halts in cases],
                              record=True)
        assert_runs_agree(runs, batch)
        kept = batch.final == np.array([x for _, x, _ in cases])
        assert batch.invalid_final[kept].any() and not batch.invalid_final[kept].all()
        assert any(step["restarted"].any() for step in batch.steps)
        assert 0 < batch.converged.sum() < len(cases)

    def test_query_cdf_shape(self):
        # query-cdf's 20 736-state W-state spaces: the mvd threshold with
        # restart at two lmin, a uniform start, and mmse-seeded x0; an lmin of
        # 20-30 makes the restart window (38-85 steps) shorter than the budget
        cfg = SystemConfig(N=2, M=4, tau_max=5, T_D=128, snr_db=20.0, seed=2029)
        inst = generate_instance(cfg)
        slots = np.arange(4)
        r = received_slots(inst, cfg, slots, *slot_draws(cfg, slots, instance_id=0))
        stack = channel_spaces(inst, r, slots, cfg, W_STATE_REDUCED)
        ymvd = y_mvd(MvdParams.from_config(cfg, 1e-3))
        x_mmse = mmse_detect(inst, r, slots, cfg, stack)
        minima = stack.e_values.min(axis=1)
        arms = [(GasParams(y0=ymvd, lmin=lmin, restart_enabled=True), False) for lmin in (0, 30)]
        arms += [(GasParams(lmin=20, restart_enabled=True), False),
                 (GasParams(lmin=25, restart_enabled=True), True)]
        rows, x0, runs, batch_arms = [], [], [], []
        for j, ((params, seeded), t) in enumerate(itertools.product(arms * 3, slots)):
            row = SpaceStack(stack.reg, W_STATE_REDUCED, stack.e_values[t:t + 1],
                             stack.key_indices)
            start = int(x_mmse[t]) if seeded else None
            runs.append(run_gas(Backend(row), params, np.random.default_rng([7, j]),
                                x0=start, oracle_min=float(minima[t]), record=True))
            rows.append(t)
            x0.append(-1 if start is None else start)
            batch_arms.append((params, np.random.default_rng([7, j]), 1))
        batch = run_gas_batch(stack, rows, batch_arms, x0=x0, oracle_min=minima[rows],
                              record=True)
        assert_runs_agree(runs, batch)
        assert batch.converged.any()


class TestRankInvariance:
    """The ideal law reads a value only to compare it, so on a tie-free
    table a run depends on its trial only through Nt, ns0 (the states below
    y0) and lmin: over the table's ranks, with y0 = ns0 - 0.5 and oracle_min
    = 0, every run is the same run."""

    def test_rank_table_gives_identical_runs(self):
        cfg = SystemConfig(N=2, M=4, tau_max=2, T_P=128, T_D=128, snr_db=20.0, seed=2028)
        ymvd = y_mvd(MvdParams.from_config(cfg, 1e-3))
        outputs = ("cd_queries", "qd_rotations", "converged", "stop_reason", "final")
        converged = 0
        for trial in range(20):
            inst = generate_instance(cfg, instance_id=trial)
            r = received_slots(inst, cfg, [0], *slot_draws(cfg, [0], instance_id=trial))
            space = channel_spaces(inst, r, [0], cfg, W_STATE_REDUCED)
            es = space.e_sorted[0]
            assert np.all(es[1:] > es[:-1])
            ranks = np.empty(space.n_states)
            ranks[space.order[0]] = np.arange(space.n_states)
            ranked = SpaceStack(space.reg, space.prep, ranks[None], space.key_indices)
            ns0 = int(np.count_nonzero(space.e_values < ymvd))
            lmin_c = select_lmin_conventional(indicator_c(inst.H))
            arms = [GasParams(y0=ymvd, restart_enabled=True),
                    GasParams(y0=ymvd, lmin=lmin_c, restart_enabled=True), GasParams()]
            for a, params in enumerate(arms):
                rank_params = (params if params.y0 is None
                               else dataclasses.replace(params, y0=ns0 - 0.5))
                run = run_gas(Backend(space), params, np.random.default_rng([trial, a]),
                              oracle_min=float(es[0]))
                rank_run = run_gas(Backend(ranked), rank_params,
                                   np.random.default_rng([trial, a]), oracle_min=0.0)
                assert ([getattr(rank_run, f) for f in outputs]
                        == [getattr(run, f) for f in outputs]), (trial, a)
                converged += run.converged
        assert converged > 0


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance between the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, at, side="right") / a.size
                               - np.searchsorted(b, at, side="right") / b.size)))


class TestBatchLaw:
    def test_ber_arms_first_hits_match_run_gas(self):
        # the same 2 048 bench-shape spaces (256 states) per ber arm, each
        # searched once by either engine from independent streams: the
        # first-hit rotations, censored runs as +inf, share one law
        spec = harness.load_spec({"cfg": {"N": 2, "M": 4, "tau_max": 1, "T_D": 128,
                                          "snr_db": 15.0, "seed": 7}})
        cfg = spec.cfg
        reg = build_registry(cfg)
        ymvd = y_mvd(MvdParams.from_config(cfg, spec.mvd_p))
        slots = np.arange(cfg.T_D)
        qd = {det: ([], []) for det in harness.GAS_DETECTORS}
        for trial in range(16):
            inst = generate_instance(cfg, instance_id=trial)
            r = np.stack([received_slot(inst, cfg, t,
                                        random_payload_bits(cfg, t, instance_id=trial),
                                        instance_id=trial).r for t in slots])
            stack = channel_spaces(inst, r, slots, cfg, W_STATE_REDUCED)
            x_mmse = mmse_detect(inst, r, slots, cfg, stack)
            minima = stack.e_values.min(axis=1)
            for di, (det, arm) in enumerate(harness.GAS_DETECTORS.items()):
                params = harness._gas_params(spec, arm, ymvd, 0)
                x0 = x_mmse if arm.get("threshold") == "mmse" else None
                for t in slots:
                    row = SpaceStack(reg, W_STATE_REDUCED, stack.e_values[t:t + 1],
                                     stack.key_indices)
                    run = run_gas(Backend(row), params,
                                  streams.substream(cfg.seed, trial, t, di),
                                  x0=None if x0 is None else int(x0[t]), oracle_min=minima[t])
                    qd[det][0].append(run.qd_rotations if run.converged else math.inf)
                batch = run_gas_batch(stack, slots,
                                      [(params, streams.substream(cfg.seed + 1, trial, di),
                                        cfg.T_D)],
                                      x0=x0, oracle_min=minima)
                qd[det][1].extend(np.where(batch.converged, batch.qd_rotations, math.inf))
        for det, (scalar, lockstep) in qd.items():
            n = len(scalar)
            assert n == len(lockstep) == 2048
            # 1% critical value of the two-sample statistic, c(0.01) = 1.628
            assert ks_statistic(scalar, lockstep) < 1.628 * math.sqrt(2 / n), det
