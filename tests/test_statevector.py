import math

import numpy as np
import pytest

from gasmld.channel import SystemConfig, generate_instance
from gasmld.errors import CapacityError
from gasmld.gas import Backend, channel_bound, check_value_range, register_width
from gasmld.spaces import HADAMARD_FULL, W_STATE_REDUCED, build_registry
from oracles import (GroverCircuit, HuboPolynomial, _apply_encoding, _apply_encoding_dagger,
                     build_hubo, choose_qv, distribution, from_polynomial, poly_values_over_keys,
                     prepare_initial, random_payload_bits, received_slot, reflect_about_zero,
                     w_block_unitary, w_cascade_angles)

FIG2_POLY = HuboPolynomial(n_vars=3, constant=2.0,
                           terms={(0,): 1.0, (1, 2): -3.0, (0, 1, 2): 1.0})


class TestWState:
    def test_angle_formula_values(self):
        # the printed schedule theta_i = 2 arctan(sqrt((n - i) / (n + 1 - i)))
        angles = [2.0 * math.atan(math.sqrt((2 - i) / (3 - i))) for i in range(1, 2)]
        assert angles == [pytest.approx(2 * math.atan(math.sqrt(0.5)), abs=1e-12)]
        assert angles[0] == pytest.approx(1.2310, abs=1e-4)
        assert len(w_cascade_angles(5)) == 4

    def test_cascade_angle_relation(self):
        # same fraction under arcsin; identical only at the trivial endpoints
        for n in (2, 3, 4):
            printed = [2.0 * math.atan(math.sqrt((n - i) / (n + 1 - i))) for i in range(1, n)]
            used = w_cascade_angles(n)
            assert len(printed) == len(used)
            for a, b in zip(printed, used):
                assert math.tan(a / 2) == pytest.approx(math.sin(b / 2), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_uniform_weight_one_support(self, n):
        vec = w_block_unitary(n)[:, 0]
        for idx in range(1 << n):
            amp = vec[idx]
            if idx and (idx & (idx - 1)) == 0:  # exactly one bit set
                assert amp == pytest.approx(1 / math.sqrt(n), abs=1e-12)
            else:
                assert abs(amp) < 1e-12

    def test_w2_is_bell_like(self):
        vec = w_block_unitary(2)[:, 0]
        assert vec[0b01] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert vec[0b10] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_block_unitary_is_unitary(self):
        U = w_block_unitary(3)
        assert np.allclose(U @ U.conj().T, np.eye(8), atol=1e-12)


class TestPreparation:
    def test_hadamard_full_uniform(self):
        cfg = SystemConfig(N=1, M=1, tau_max=1, seed=0)
        reg = build_registry(cfg)  # q_k = 3
        sv = prepare_initial(HADAMARD_FULL, reg, 0)
        assert np.allclose(sv.amps, 1 / math.sqrt(8), atol=1e-12)

    def test_w_reduced_uniform_on_valid(self):
        cfg = SystemConfig(N=1, M=1, tau_max=1, seed=0)
        reg = build_registry(cfg)
        sv = prepare_initial(W_STATE_REDUCED, reg, 0)
        poly = HuboPolynomial(n_vars=reg.q_k, constant=0.0, terms={})
        valid = {int(k) for k in from_polynomial(poly, reg, W_STATE_REDUCED).key_indices}
        assert len(valid) == 4
        for idx in range(8):
            if idx in valid:
                assert sv.amps[idx] == pytest.approx(0.5, abs=1e-12)
            else:
                assert abs(sv.amps[idx]) < 1e-12

    def test_w_reduced_multiuser_support(self):
        cfg = SystemConfig(N=1, M=2, tau_max=2, seed=0)
        reg = build_registry(cfg)
        sv = prepare_initial(W_STATE_REDUCED, reg, 0)
        probs = sv.key_marginal()
        nonzero = np.flatnonzero(probs > 1e-18)
        assert nonzero.size == 36  # (2*3)^2
        assert np.allclose(probs[nonzero], 1 / 36, atol=1e-12)

    def test_norm_one(self):
        cfg = SystemConfig(N=1, M=2, tau_max=1, seed=0)
        reg = build_registry(cfg)
        for prep in (HADAMARD_FULL, W_STATE_REDUCED):
            sv = prepare_initial(prep, reg, 3)
            assert sv.norm() == pytest.approx(1.0, abs=1e-12)

    def test_capacity_guard(self):
        cfg = SystemConfig(N=2, M=8, tau_max=2, seed=0)
        reg = build_registry(cfg)  # q_k = 32
        with pytest.raises(CapacityError):
            prepare_initial(W_STATE_REDUCED, reg, 8)


def toy_circuit(q_v=3, y=0.0, prep=HADAMARD_FULL):
    cfg = SystemConfig(N=1, M=1, tau_max=1, seed=0)
    reg = build_registry(cfg)
    e = poly_values_over_keys(FIG2_POLY, 3)
    return reg, e


def encode(sv, poly, y, q_v):
    """Phase-encode E(x) - y of the polynomial onto the value register."""
    e_vec = poly_values_over_keys(poly, sv.q_k)
    check_value_range(e_vec[sv.key_marginal() > 1e-24], y, q_v)
    return _apply_encoding(sv.matrix().copy(), e_vec, y, q_v)


class TestEncoding:
    def test_constant_polynomial_exact_register(self):
        # E = 1, empty key register influence: value register reads 001
        poly = HuboPolynomial(n_vars=2, constant=1.0, terms={})
        cfg = SystemConfig(N=1, M=1, tau_max=0, seed=0)
        reg = build_registry(cfg)
        sv = prepare_initial(HADAMARD_FULL, reg, 3)
        mat = encode(sv, poly, 0.0, 3)
        probs = np.sum(np.abs(mat) ** 2, axis=0)
        assert probs[0b001] == pytest.approx(1.0, abs=1e-12)

    def test_fig2_function_twos_complement(self):
        cfg = SystemConfig(N=1, M=1, tau_max=1, seed=0)
        reg = build_registry(cfg)
        sv = prepare_initial(HADAMARD_FULL, reg, 4)
        mat = encode(sv, FIG2_POLY, 0.0, 4)
        e = poly_values_over_keys(FIG2_POLY, 3)
        # at x = (0,1,1): E = 2 - 3 = -1 -> two's complement 1111
        x = 0b011
        probs = np.abs(mat[x]) ** 2
        probs /= probs.sum()
        assert int(e[x]) == -1
        assert probs[0b1111] == pytest.approx(1.0, abs=1e-10)
        # every key state lands on one exact basis state
        for key in range(8):
            p = np.abs(mat[key]) ** 2
            p /= p.sum()
            assert p.max() == pytest.approx(1.0, abs=1e-10)
            assert int(np.argmax(p)) == int(e[key]) % 16

    def test_range_violation_rejected(self):
        poly = HuboPolynomial(n_vars=2, constant=5.0, terms={})
        cfg = SystemConfig(N=1, M=1, tau_max=0, seed=0)
        reg = build_registry(cfg)
        sv = prepare_initial(HADAMARD_FULL, reg, 3)
        with pytest.raises(ValueError):
            encode(sv, poly, 0.0, 3)  # 5 >= 2^2

    def test_fractional_coefficient_dirichlet_mass(self):
        # constant objective a = 0.5 at q_v = 4: mass concentrates around 0.5
        poly = HuboPolynomial(n_vars=2, constant=0.5, terms={})
        cfg = SystemConfig(N=1, M=1, tau_max=0, seed=0)
        reg = build_registry(cfg)
        q_v = 4
        sv = prepare_initial(HADAMARD_FULL, reg, q_v)
        probs = np.sum(np.abs(encode(sv, poly, 0.0, q_v)) ** 2, axis=0)
        n = 1 << q_v
        # closed-form Dirichlet-kernel mass
        expect = np.empty(n)
        for u in range(n):
            delta = 0.5 - u
            expect[u] = (math.sin(math.pi * delta) ** 2 /
                         (n ** 2 * math.sin(math.pi * delta / n) ** 2))
        assert np.allclose(probs, expect, atol=1e-12)
        # signed wrap distance <= 1.5 captures at least 90% of the mass
        mass = sum(expect[u % n] for u in (-1, 0, 1, 2))
        assert mass >= 0.90
        assert probs[0] == pytest.approx(expect[0], abs=1e-12)

    def test_encoding_inverse_roundtrip(self):
        cfg = SystemConfig(N=1, M=2, tau_max=1, seed=1)
        reg = build_registry(cfg)
        circuit = GroverCircuit(FIG2_POLY_PAD(reg.q_k), reg, HADAMARD_FULL, 4)
        sv = circuit.prepare(1.0)
        mat = sv.matrix().copy()
        back = _apply_encoding_dagger(mat, circuit.e_vec, 1.0, 4)
        back = _apply_encoding(back, circuit.e_vec, 1.0, 4)
        assert np.allclose(back, sv.matrix(), atol=1e-9)


def FIG2_POLY_PAD(n_vars):
    return HuboPolynomial(n_vars=n_vars, constant=2.0,
                          terms={(0,): 1.0, (1, 2): -3.0, (0, 1, 2): 1.0})


class TestGrover:
    def law(self, ns, nt, L):
        return math.sin((2 * L + 1) * math.asin(math.sqrt(ns / nt))) ** 2

    def test_marked_probability_matches_law(self):
        cfg = SystemConfig(N=1, M=1, tau_max=1, seed=0)
        reg = build_registry(cfg)  # q_k = 3, N_t = 8
        e = poly_values_over_keys(FIG2_POLY, 3)
        y = 2.0
        marked = e < y
        ns = int(marked.sum())
        assert ns == 2
        circuit = GroverCircuit(FIG2_POLY_PAD(3), reg, HADAMARD_FULL, 4)
        for L in (0, 1, 2, 3):
            sv = circuit.run(y, L)
            p = sv.key_marginal()
            assert p[marked].sum() == pytest.approx(self.law(ns, 8, L), abs=1e-9)

    def test_l_zero_is_preparation_distribution(self):
        cfg = SystemConfig(N=1, M=1, tau_max=2, seed=0)
        reg = build_registry(cfg)
        poly = HuboPolynomial(n_vars=reg.q_k, constant=1.0, terms={(0,): 1.0})
        circuit = GroverCircuit(poly, reg, W_STATE_REDUCED, 3)
        sv = circuit.run(1.5, 0)
        prep = prepare_initial(W_STATE_REDUCED, reg, 0)
        assert np.allclose(sv.key_marginal(), prep.key_marginal(), atol=1e-12)

    def test_one_qubit_diffusion_matrix(self):
        for basis in (0, 1):
            mat = np.zeros((2, 1), dtype=complex)
            mat[basis, 0] = 1.0
            reflect_about_zero(mat)
            assert mat[basis, 0] == pytest.approx(1.0 if basis == 0 else -1.0)

    def test_norm_preserved_across_iterations(self):
        cfg = SystemConfig(N=1, M=2, tau_max=1, seed=2)
        reg = build_registry(cfg)
        circuit = GroverCircuit(FIG2_POLY_PAD(reg.q_k), reg, HADAMARD_FULL, 4)
        sv = circuit.prepare(1.0)
        for _ in range(4):
            sv = circuit.grover_iterate(sv, 1.0)
            assert sv.norm() == pytest.approx(1.0, abs=1e-9)

    def test_w_support_preserved_under_iterations(self):
        cfg = SystemConfig(N=2, M=2, tau_max=1, seed=5)
        inst = generate_instance(cfg)
        bits = random_payload_bits(cfg, 0, instance_id=0)
        slot = received_slot(inst, cfg, 0, bits, instance_id=0)
        poly, _ = build_hubo(inst, slot.r, 0, cfg)
        reg = build_registry(cfg)
        q_v = register_width(0.0, channel_bound(inst.H, slot.r, W_STATE_REDUCED, reg.taud),
                             0.0)
        circuit = GroverCircuit(poly, reg, W_STATE_REDUCED, q_v)
        valid = circuit.support
        y = float(np.median(circuit.e_vec[valid]))
        sv = circuit.run(y, 3)
        p = sv.key_marginal()
        assert p[~valid].max() < 1e-12


class TestMeasurement:
    """Sampling the key register through Backend.measure/assignment."""

    def test_point_mass(self):
        # one marked key of four at L = 1: sin^2(3 arcsin(1/2)) = 1
        cfg = SystemConfig(N=1, M=1, tau_max=0, seed=0)
        reg = build_registry(cfg)  # q_k = 2
        poly = HuboPolynomial(n_vars=2, constant=0.0, terms={(0,): -2.0, (1,): 1.0})
        backend = Backend(from_polynomial(poly, reg, HADAMARD_FULL), q_v=3)
        assert distribution(backend, -1.0, 1)[0b10] == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(0)
        key, ex = backend.measure(-1.0, 1, *rng.random(2))
        assert np.array_equal(backend.space.assignment(key), [1, 0])
        assert ex == -2.0

    def test_deterministic_given_seed(self):
        cfg = SystemConfig(N=1, M=1, tau_max=0, seed=0)
        reg = build_registry(cfg)
        poly = HuboPolynomial(n_vars=reg.q_k, constant=1.0, terms={})
        backend = Backend(from_polynomial(poly, reg, HADAMARD_FULL), q_v=2)
        a = backend.measure(0.0, 0, *np.random.default_rng(42).random(2))
        b = backend.measure(0.0, 0, *np.random.default_rng(42).random(2))
        assert a == b

    def test_empirical_frequencies_match_marginals(self):
        # W-state support of four keys, two of them marked: p = 1/2 at L = 1
        cfg = SystemConfig(N=1, M=1, tau_max=1, seed=0)
        reg = build_registry(cfg)
        backend = Backend(from_polynomial(FIG2_POLY_PAD(3), reg, W_STATE_REDUCED), q_v=3)
        p = distribution(backend, 3.0, 1)
        assert p[backend.e_values < 3.0].sum() == pytest.approx(0.5, abs=1e-9)
        rng = np.random.default_rng(7)
        n = 100_000
        # the uniforms of n successive rng.random(2) draws
        ordinals = [backend.measure(3.0, 1, u_class, u_state)[0]
                    for u_class, u_state in rng.random((n, 2)).tolist()]
        freq = np.bincount(ordinals, minlength=p.size) / n
        # 3.5-sigma multinomial bound per cell
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 3.5 * sigma + 1e-12)


class TestChooseQv:
    def test_simple_bound(self):
        poly = HuboPolynomial(n_vars=2, constant=0.0, terms={(0,): 3.2})
        assert choose_qv(poly, 0.0) == 3

    def test_boundary_is_strict(self):
        for k in (2, 3, 4):
            poly = HuboPolynomial(n_vars=2, constant=0.0, terms={(0,): float(2 ** (k - 1))})
            assert choose_qv(poly, 0.0) == k + 1

    def test_bound_dominates_exhaustive_max(self):
        rng = np.random.default_rng(11)
        from gasmld.spaces import channel_spaces
        for trial in range(100):
            cfg = SystemConfig(N=2, M=2, tau_max=1, seed=int(rng.integers(1 << 30)))
            inst = generate_instance(cfg)
            bits = random_payload_bits(cfg, 0, instance_id=0)
            slot = received_slot(inst, cfg, 0, bits, instance_id=0)
            reg = build_registry(cfg)
            for prep in (W_STATE_REDUCED, HADAMARD_FULL):
                bound = channel_bound(inst.H, slot.r, prep, reg.taud)
                space = channel_spaces(inst, slot.r[None], [0], cfg, prep)
                assert space.e_values.max() <= bound + 1e-9
