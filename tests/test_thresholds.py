import dataclasses
import math

import numpy as np
import pytest

from gasmld import thresholds
from gasmld.channel import (PSK2, QPSK, SystemConfig, generate_instance, map_symbols,
                            objective_direct, received_slots, slot_draws)
from gasmld.spaces import W_STATE_REDUCED, SpaceStack, build_registry, channel_spaces
from gasmld.thresholds import (MvdParams, mmse_detect, mmse_estimates, mvd_rate,
                               regularized_gamma_q, y_mvd)
from oracles import (build_hubo, evaluate, noise_realization, random_payload_bits,
                     received_slot)


class TestGammaQ:
    def test_shape_one_is_exponential(self):
        for x in (0.0, 0.3, 2.0, 9.0):
            assert regularized_gamma_q(1, x) == pytest.approx(math.exp(-x), rel=1e-14)

    def test_q_at_zero(self):
        for n in (1, 2, 5):
            assert regularized_gamma_q(n, 0.0) == 1.0

    def test_reference_point_via_bisection_oracle(self):
        # solve Q(2, x) = 1e-3 independently by bisection on the finite sum
        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if math.exp(-mid) * (1 + mid) > 1e-3:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(9.2334, abs=2e-4)
        assert regularized_gamma_q(2, 9.2334) == pytest.approx(1.000e-3, rel=1e-3)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 30.0, 200)
        vals = [regularized_gamma_q(3, float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestYMvd:
    def test_closed_form_shape_one(self):
        p = MvdParams(N=1, lambda_v=4.0, P=1e-2)
        assert y_mvd(p) == pytest.approx(-math.log(1e-2) / 4.0, rel=1e-12)

    def test_reference_value(self):
        p = MvdParams(N=2, lambda_v=25.0, P=1e-3)
        assert y_mvd(p) == pytest.approx(0.36934, abs=2e-5)

    def test_inverse_consistency(self):
        p = MvdParams(N=3, lambda_v=7.0, P=1e-3)
        y = y_mvd(p)
        assert regularized_gamma_q(3, 7.0 * y) == pytest.approx(1e-3, abs=1e-11)

    def test_monotone_in_p(self):
        a = y_mvd(MvdParams(N=2, lambda_v=25.0, P=1e-3))
        b = y_mvd(MvdParams(N=2, lambda_v=25.0, P=1e-2))
        assert a > b

    def test_repeated_call_is_memoized(self, monkeypatch):
        first = y_mvd(MvdParams(N=4, lambda_v=3.25, P=2.5e-4))
        calls = []

        def counted(N, x):
            calls.append(x)
            return regularized_gamma_q(N, x)

        monkeypatch.setattr(thresholds, "regularized_gamma_q", counted)
        # equal params, another object: no evaluation
        assert y_mvd(MvdParams(N=4, lambda_v=3.25, P=2.5e-4)) == first
        assert calls == []
        # the bisection itself gives the memoized value bit for bit
        assert y_mvd.__wrapped__(MvdParams(N=4, lambda_v=3.25, P=2.5e-4)) == first
        assert calls

    def test_tiny_p_rejected(self):
        with pytest.raises(ValueError):
            MvdParams(N=2, lambda_v=25.0, P=1e-13)
        with pytest.raises(ValueError):
            MvdParams(N=2, lambda_v=25.0, P=0.0)

    def test_empirical_exceedance(self):
        cfg = SystemConfig(N=2, M=4, tau_max=1, T_P=128, T_D=4, snr_db=20.0, seed=2)
        params = MvdParams.from_config(cfg, P=1e-3)
        y = y_mvd(params)
        rng = np.random.default_rng(0)
        n = 200_000
        v = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) * np.sqrt(0.5)
        e = np.sqrt(cfg.est_err_var) * (rng.standard_normal((n, 2)) +
                                        1j * rng.standard_normal((n, 2))) * np.sqrt(0.5)
        emin = np.sum(np.abs(cfg.sigma_v * v + e) ** 2, axis=1)
        rate = float(np.mean(emin > y))
        sigma = math.sqrt(1e-3 * (1 - 1e-3) / n)
        assert abs(rate - 1e-3) <= 3.5 * sigma


class TestEminDistribution:
    @pytest.mark.parametrize("N,tppx,sv2", [(2, 128.0, 0.01), (1, 64.0, 0.1)])
    def test_ks_against_gamma_cdf(self, N, tppx, sv2):
        rng = np.random.default_rng(17)
        n = 10_000
        sv = math.sqrt(sv2)
        v = (rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))) * np.sqrt(0.5)
        e = math.sqrt(sv2 / tppx) * (rng.standard_normal((n, N)) +
                                     1j * rng.standard_normal((n, N))) * np.sqrt(0.5)
        emin = np.sort(np.sum(np.abs(sv * v + e) ** 2, axis=1))
        lam = mvd_rate(sv2, tppx)
        cdf = np.array([1.0 - regularized_gamma_q(N, lam * float(x)) for x in emin])
        i = np.arange(1, n + 1)
        d = max(np.max(np.abs(i / n - cdf)), np.max(np.abs((i - 1) / n - cdf)))
        assert d <= 0.02

    def test_e_min_from_seeded_slots_follows_model(self):
        # regenerate the actual slot noise and check the realized minima
        cfg = SystemConfig(N=2, M=2, tau_max=1, T_P=64, T_D=16, snr_db=15.0, seed=5)
        lam = mvd_rate(cfg.sigma_v2, cfg.T_P * cfg.P_X)
        samples = []
        for inst_id in range(40):
            for t in range(cfg.T_D):
                v, e = noise_realization(cfg, t, instance_id=inst_id)
                samples.append(float(np.sum(np.abs(cfg.sigma_v * v + e) ** 2)))
        samples = np.sort(samples)
        n = samples.size
        cdf = np.array([1.0 - regularized_gamma_q(2, lam * x) for x in samples])
        i = np.arange(1, n + 1)
        d = max(np.max(np.abs(i / n - cdf)), np.max(np.abs((i - 1) / n - cdf)))
        assert d <= 1.63 / math.sqrt(n)  # 99% Kolmogorov quantile


def detect_one(inst, r, t, cfg, space):
    """mmse_detect on one slot: a stack of one row."""
    return int(mmse_detect(inst, r[None], [t], cfg, space)[0])


def test_one_instance_serves_every_snr_point():
    # the instance and the slot draws hold no SNR: received slots and MMSE
    # estimates take sigma_v and est_err_var from the config they are given
    cfg_a = SystemConfig(N=3, M=2, tau_max=1, snr_db=5.0, seed=21)
    cfg_b = cfg_a.with_snr(25.0)
    inst = generate_instance(cfg_a, instance_id=2)
    slots = np.arange(4)
    bits, v, e = slot_draws(cfg_a, slots, instance_id=2)
    r_a = received_slots(inst, cfg_a, slots, bits, v, e)
    r_b = received_slots(inst, cfg_b, slots, bits, v, e)
    expect = ((cfg_a.sigma_v - cfg_b.sigma_v) * v
              + (np.sqrt(cfg_a.est_err_var) - np.sqrt(cfg_b.est_err_var)) * e)
    np.testing.assert_allclose(r_a - r_b, expect, rtol=1e-9, atol=1e-12)
    # one received vector, so only the config's noise level tells them apart
    combos, s_a = mmse_estimates(inst, r_a, slots, cfg_a)
    _, s_b = mmse_estimates(inst, r_a, slots, cfg_b)
    assert not np.allclose(s_a, s_b)
    for cfg, stacked in ((cfg_a, s_a), (cfg_b, s_b)):
        for t in slots:
            for combo, s_hat in zip(combos, stacked[t]):
                A = inst.H * np.exp(1j * 2 * np.pi * inst.f * (t - combo))[None, :]
                G = A @ A.conj().T + cfg.sigma_v ** 2 * np.eye(cfg.N)
                np.testing.assert_allclose(s_hat, A.conj().T @ np.linalg.solve(G, r_a[t]),
                                           rtol=1e-10)


class TestMmse:
    def test_noiseless_recovery(self):
        cfg = SystemConfig(N=2, M=2, tau_max=1, T_P=0, T_D=1, snr_db=300.0, seed=7)
        inst = generate_instance(cfg)
        bits = random_payload_bits(cfg, 0, instance_id=0)
        slot = received_slot(inst, cfg, 0, bits, instance_id=0)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        ordinal = detect_one(inst, slot.r, 0, cfg, space)
        assert space.e_values[0, ordinal] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(space.assignment(ordinal)[:cfg.M], bits)

    def test_never_beats_exhaustive(self):
        cfg = SystemConfig(N=2, M=3, tau_max=1, snr_db=10.0, seed=8)
        for inst_id in range(10):
            inst = generate_instance(cfg, instance_id=inst_id)
            bits = random_payload_bits(cfg, 0, instance_id=inst_id)
            slot = received_slot(inst, cfg, 0, bits, instance_id=inst_id)
            space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
            ordinal = detect_one(inst, slot.r, 0, cfg, space)
            assert space.e_values[0, ordinal] >= space.e_values.min() - 1e-12

    def test_matches_bruteforce_recomputation(self):
        import itertools
        cfg = SystemConfig(N=2, M=2, tau_max=1, snr_db=15.0, seed=9)
        inst = generate_instance(cfg)
        bits = random_payload_bits(cfg, 0, instance_id=0)
        slot = received_slot(inst, cfg, 0, bits, instance_id=0)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        got = space.e_values[0, detect_one(inst, slot.r, 0, cfg, space)]
        best = math.inf
        for combo in itertools.product(range(cfg.taud), repeat=cfg.M):
            d_phase = np.array([np.exp(1j * 2 * np.pi * inst.f[m] * (0 - combo[m]))
                                for m in range(cfg.M)])
            A = inst.H * d_phase[None, :]
            G = A @ A.conj().T + cfg.sigma_v2 * np.eye(cfg.N)
            s_hat = A.conj().T @ np.linalg.solve(G, slot.r)
            base = map_symbols(PSK2, 0, np.zeros(cfg.M, dtype=int))
            b = (np.real(np.conj(base) * s_hat) < 0).astype(np.uint8)
            d = np.zeros(cfg.M * cfg.taud, dtype=np.uint8)
            for m, k in enumerate(combo):
                d[m * cfg.taud + k] = 1
            best = min(best, objective_direct(inst, slot.r, 0, b, d))
        assert got == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("modulation", [PSK2, QPSK])
    def test_first_lowest_candidate_by_space_value(self, modulation):
        # the returned ordinal decodes to the candidate whose table value is
        # the lowest, found here by key lookup rather than mixed-radix ordinals;
        # the stacked estimates match one solve per delay combination
        import itertools
        cfg = SystemConfig(N=2, M=3, tau_max=2, modulation=modulation, snr_db=10.0, seed=10)
        for inst_id in range(4):
            inst = generate_instance(cfg, instance_id=inst_id)
            t = inst_id
            bits = random_payload_bits(cfg, t, instance_id=inst_id)
            slot = received_slot(inst, cfg, t, bits, instance_id=inst_id)
            space = channel_spaces(inst, slot.r[None], [t], cfg, W_STATE_REDUCED)
            combos, (stacked,) = mmse_estimates(inst, slot.r[None], [t], cfg)
            candidates = []
            for i, combo in enumerate(itertools.product(range(cfg.taud), repeat=cfg.M)):
                d_phase = np.exp(1j * 2 * np.pi * inst.f * (t - np.array(combo)))
                A = inst.H * d_phase[None, :]
                G = A @ A.conj().T + cfg.sigma_v2 * np.eye(cfg.N)
                s_hat = A.conj().T @ np.linalg.solve(G, slot.r)
                assert tuple(combos[i]) == combo
                np.testing.assert_allclose(stacked[i], s_hat, rtol=1e-12, atol=0)
                if modulation == PSK2:
                    base = map_symbols(PSK2, t, np.zeros(cfg.M, dtype=int))[0]
                    b = (np.real(np.conj(base) * s_hat) < 0).astype(int)
                else:
                    b = np.stack([np.real(s_hat) < 0, np.imag(s_hat) < 0], axis=1).ravel()
                d = np.zeros((cfg.M, cfg.taud), dtype=int)
                d[np.arange(cfg.M), combo] = 1
                key = int("".join(map(str, np.concatenate([b, d.ravel()]).astype(int))), 2)
                candidates.append(int(np.flatnonzero(space.key_indices == key)[0]))
            assert len(stacked) == len(candidates)
            values = space.e_values[0, candidates]
            ordinal = detect_one(inst, slot.r, t, cfg, space)
            assert space.e_values[0, ordinal] == values.min()
            assert ordinal == candidates[int(np.argmin(values))]


    @pytest.mark.parametrize("modulation", [PSK2, QPSK])
    def test_stack_matches_one_slot_calls(self, modulation):
        # a many-slot call gives each slot the estimates and ordinal of its
        # one-slot call, bit for bit
        cfg = SystemConfig(N=2, M=3, tau_max=1, modulation=modulation, T_D=6, snr_db=10.0,
                           seed=11)
        reg = build_registry(cfg)
        inst = generate_instance(cfg)
        slots = np.arange(cfg.T_D)
        r = np.stack([received_slot(inst, cfg, t, random_payload_bits(cfg, t, instance_id=0),
                                    instance_id=0).r
                      for t in slots])
        stack = channel_spaces(inst, r, slots, cfg, W_STATE_REDUCED)
        ordinals = mmse_detect(inst, r, slots, cfg, stack)
        _, estimates = mmse_estimates(inst, r, slots, cfg)
        for t in slots:
            _, (one,) = mmse_estimates(inst, r[t][None], [t], cfg)
            assert estimates[t].tobytes() == one.tobytes()
            row = SpaceStack(reg, W_STATE_REDUCED, stack.e_values[t:t + 1], stack.key_indices)
            assert ordinals[t] == detect_one(inst, r[t], t, cfg, row)


    @staticmethod
    def sweep(modulation, snrs, H=None):
        """One instance's slots at each SNR point of snrs, as run_ber draws
        them: (instance, r of S T rows, slots, configs, stack); H replaces
        the instance's channel."""
        cfg = SystemConfig(N=3, M=2, tau_max=1, modulation=modulation, T_D=5, seed=13)
        inst = generate_instance(cfg)
        if H is not None:
            inst = dataclasses.replace(inst, H=H(inst.H))
        cfgs = [cfg.with_snr(snr) for snr in snrs]
        slots = np.arange(cfg.T_D)
        draws = slot_draws(cfg, slots, instance_id=0)
        r = np.concatenate([received_slots(inst, c, slots, *draws) for c in cfgs])
        stack = channel_spaces(inst, r, np.tile(slots, len(cfgs)), cfg, W_STATE_REDUCED)
        return inst, r, slots, cfgs, stack

    @staticmethod
    def assert_points_match(inst, r, slots, cfgs, stack):
        """A call over the whole sweep gives each SNR point the estimates
        and ordinals of its own call, bit for bit."""
        _, estimates = mmse_estimates(inst, r, slots, cfgs)
        ordinals = mmse_detect(inst, r, slots, cfgs, stack)
        n = len(slots)
        for s, cfg in enumerate(cfgs):
            rows = slice(s * n, (s + 1) * n)
            _, alone = mmse_estimates(inst, r[rows], slots, cfg)
            assert estimates[rows].tobytes() == alone.tobytes(), s
            point = SpaceStack(stack.reg, stack.prep, stack.e_values[rows], stack.key_indices)
            assert ordinals[rows].tobytes() == mmse_detect(inst, r[rows], slots, cfg,
                                                           point).tobytes(), s

    @pytest.mark.parametrize("modulation", [PSK2, QPSK])
    def test_sweep_matches_per_point_calls(self, modulation):
        self.assert_points_match(*self.sweep(modulation, (10.0, 15.0, 20.0)))

    def test_a_singular_point_keeps_its_own_fallback(self, monkeypatch):
        # a silent antenna and no noise make the middle point's systems
        # exactly singular: that point alone takes the pseudo-inverse, and
        # the others keep their solves
        def silent(H):
            H = H.copy()
            H[0] = 0.0
            return H

        inst, r, slots, cfgs, stack = self.sweep(PSK2, (10.0, math.inf, 20.0), silent)
        inverted = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda G: inverted.append(G.shape) or pinv(G))
        mmse_estimates(inst, r, slots, cfgs)
        # one point's stack of (slots, delay combinations) systems
        assert inverted == [(len(slots), 4, 3, 3)]
        self.assert_points_match(inst, r, slots, cfgs, stack)


class TestYRand:
    """The random threshold: the value of a uniform draw from the space, as
    run_gas takes it when no initial threshold is given."""

    def _setup(self):
        cfg = SystemConfig(N=2, M=2, tau_max=1, snr_db=20.0, seed=12)
        inst = generate_instance(cfg)
        bits = random_payload_bits(cfg, 0, instance_id=0)
        slot = received_slot(inst, cfg, 0, bits, instance_id=0)
        poly, _ = build_hubo(inst, slot.r, 0, cfg)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        return poly, space

    @staticmethod
    def draw(space, rng):
        ordinal = int(rng.integers(space.n_states))
        return space.assignment(ordinal), float(space.e_values[0, ordinal])

    def test_reproducible(self):
        _, space = self._setup()
        x1, v1 = self.draw(space, np.random.default_rng(3))
        x2, v2 = self.draw(space, np.random.default_rng(3))
        assert np.array_equal(x1, x2) and v1 == v2

    def test_value_matches_eval(self):
        poly, space = self._setup()
        x, v = self.draw(space, np.random.default_rng(4))
        assert v == pytest.approx(evaluate(poly, x), rel=1e-12)

    def test_mean_matches_space_average(self):
        _, space = self._setup()
        rng = np.random.default_rng(5)
        vals = [self.draw(space, rng)[1] for _ in range(10_000)]
        expect = float(space.e_values.mean())
        spread = float(space.e_values.std()) / math.sqrt(len(vals))
        assert np.mean(vals) == pytest.approx(expect, abs=4 * spread)
