"""The HUBO reference expansion of tests/oracles.py, its variable layouts
and the state counts of the enumerated spaces."""

import itertools

import numpy as np
import pytest

from gasmld.channel import PSK2, QPSK, SystemConfig, generate_instance, objective_direct
from gasmld.spaces import HADAMARD_FULL, W_STATE_REDUCED, build_registry, channel_spaces
from oracles import (HuboPolynomial, Var, build_hubo, evaluate, from_polynomial, parity_layout,
                     parity_objective, random_payload_bits, received_slot, term_counts_by_order)


def make_problem(N=2, M=2, tau_max=1, modulation=PSK2, seed=3, t=0, snr_db=20.0,
                 include_c=False):
    cfg = SystemConfig(N=N, M=M, tau_max=tau_max, modulation=modulation,
                       T_P=128, T_D=8, P_X=1.0, snr_db=snr_db, seed=seed)
    inst = generate_instance(cfg)
    bits = random_payload_bits(cfg, t, instance_id=0)
    slot = received_slot(inst, cfg, t, bits, instance_id=0)
    poly, reg = build_hubo(inst, slot.r, t, cfg, include_c_as_variable=include_c)
    return cfg, inst, slot, poly, reg


def mobius_coefficients(func, n_vars):
    """Exact multilinear coefficients via inclusion-exclusion over subsets."""
    coeffs = {}
    for subset in itertools.product((0, 1), repeat=n_vars):
        s = tuple(i for i, b in enumerate(subset) if b)
        total = 0.0
        for sub in itertools.chain.from_iterable(
                itertools.combinations(s, k) for k in range(len(s) + 1)):
            x = np.zeros(n_vars, dtype=np.uint8)
            x[list(sub)] = 1
            total += (-1) ** (len(s) - len(sub)) * func(x)
        coeffs[s] = total
    return coeffs


class TestRegistry:
    def test_psk2_count(self):
        cfg = SystemConfig(N=2, M=4, tau_max=1, seed=0)
        assert build_registry(cfg).q_k == 4 * (1 + 2)
        kinds = [v.kind for v in parity_layout(cfg).entries]
        assert kinds == ["b"] * 4 + ["d"] * 8

    def test_qpsk_count(self):
        cfg = SystemConfig(N=2, M=3, tau_max=2, modulation=QPSK, seed=0)
        reg = build_registry(cfg)
        assert reg.q_k == 2 * 3 + 3 * 3
        assert reg.b_position(1, 1) == 3
        assert reg.d_position(2, 1) == 6 + 2 * 3 + 1

    def test_c_variable_count(self):
        cfg = SystemConfig(N=1, M=2, tau_max=1, seed=0)
        layout = parity_layout(cfg, include_c_as_variable=True)
        assert layout.q_k == 2 + 2 + 4
        assert layout.c_position(0) == 2

    def test_qubit_indices_gapless(self):
        cfg = SystemConfig(N=2, M=3, tau_max=1, seed=0)
        layout = parity_layout(cfg)
        assert [layout.entries.index(Var(v.kind, v.m, v.sub)) for v in layout.entries] == \
            list(range(build_registry(cfg).q_k))


class TestBuild:
    def test_single_user_reference_polynomial(self):
        # H=1, f=0, no noise, truth b=0: value 0 at truth, 4 at flipped bit
        from dataclasses import replace
        cfg = SystemConfig(N=1, M=1, tau_max=0, T_P=0, T_D=1, snr_db=300.0, seed=0)
        inst = generate_instance(cfg)
        inst = replace(inst, H=np.array([[1.0 + 0j]]), f=np.zeros(1),
                       delays=np.zeros(1, dtype=int))
        slot = received_slot(inst, cfg, 0, [0], instance_id=0)
        poly, reg = build_hubo(inst, slot.r, 0, cfg)
        assert reg.q_k == 2
        assert evaluate(poly, [0, 1]) == pytest.approx(0.0, abs=1e-12)
        assert evaluate(poly, [1, 1]) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("modulation,include_c", [(PSK2, False), (PSK2, True), (QPSK, False)])
    def test_poly_matches_objective_direct(self, modulation, include_c):
        t = 1
        cfg, inst, slot, poly, reg = make_problem(M=3, tau_max=1, modulation=modulation,
                                                  include_c=include_c, seed=7, t=t)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.integers(0, 2, reg.q_k).astype(np.uint8)
            b, c, d = reg.split_assignment(x)
            if include_c:
                direct = parity_objective(inst, slot.r, t, b, c, d)
                # at the slot's own parity c = t mod 2 it is the package's objective
                assert parity_objective(inst, slot.r, t, b, np.full(cfg.M, t % 2), d) == \
                    pytest.approx(objective_direct(inst, slot.r, t, b, d), rel=1e-12)
            else:
                direct = objective_direct(inst, slot.r, t, b, d)
            val = evaluate(poly, x)
            assert abs(val - direct) <= 1e-9 * (1.0 + abs(val))

    def test_all_zero_assignment_gives_received_power(self):
        cfg, inst, slot, poly, reg = make_problem(seed=9)
        x = np.zeros(reg.q_k, dtype=np.uint8)
        assert evaluate(poly, x) == pytest.approx(float(np.sum(np.abs(slot.r) ** 2)), rel=1e-12)

    def test_degree_bounds(self):
        def max_order(poly):
            return max((len(k) for k in poly.terms), default=0)

        _, _, _, poly_fixed, _ = make_problem(M=3, tau_max=2, seed=11)
        assert max_order(poly_fixed) <= 4
        _, _, _, poly_c, _ = make_problem(M=3, tau_max=2, include_c=True, seed=11)
        assert max_order(poly_c) <= 6
        _, _, _, poly_q, _ = make_problem(M=3, tau_max=2, modulation=QPSK, seed=11)
        assert max_order(poly_q) <= 4

    def test_coefficients_match_mobius_oracle(self):
        cfg, inst, slot, poly, reg = make_problem(M=2, tau_max=1, seed=13)

        def func(x):
            b, _, d = reg.split_assignment(x)
            return objective_direct(inst, slot.r, 0, b, d)

        oracle = mobius_coefficients(func, reg.q_k)
        for key, coeff in oracle.items():
            if key == ():
                assert poly.constant == pytest.approx(coeff, abs=1e-9)
            elif abs(coeff) > 1e-9:
                assert key in poly.terms
                assert poly.terms[key] == pytest.approx(coeff, rel=1e-8)
        for key in poly.terms:
            assert abs(oracle[key]) > 1e-12


class TestEvaluate:
    def test_constant_only(self):
        poly = HuboPolynomial(n_vars=0, constant=2.0, terms={})
        assert evaluate(poly, []) == 2.0

    def test_reference_toy_function(self):
        # 2 - y + x1 - 3 x2 x3 + x1 x2 x3 at x = (1,1,1), y = 0
        poly = HuboPolynomial(n_vars=3, constant=2.0,
                              terms={(0,): 1.0, (1, 2): -3.0, (0, 1, 2): 1.0})
        assert evaluate(poly, [1, 1, 1]) == pytest.approx(1.0)

    def test_against_termwise_summation(self):
        rng = np.random.default_rng(3)
        n = 6
        terms = {}
        for _ in range(15):
            size = rng.integers(1, 4)
            key = tuple(sorted(rng.choice(n, size=size, replace=False)))
            terms[key] = float(rng.normal())
        poly = HuboPolynomial(n_vars=n, constant=float(rng.normal()), terms=terms)
        for _ in range(30):
            x = rng.integers(0, 2, n)
            expect = poly.constant + sum(
                c for key, c in terms.items() if all(x[i] for i in key))
            assert evaluate(poly, x) == pytest.approx(expect, rel=1e-12)

    def test_length_mismatch(self):
        poly = HuboPolynomial(n_vars=3, constant=0.0, terms={})
        with pytest.raises(ValueError):
            evaluate(poly, [0, 1])


class TestTermCounts:
    """Structural count checks against independent symbolic expansion.

    The published per-order table matches the exact expansion at orders 1, 2,
    5 and 6; at orders 3 and 4 the exact expansion has strictly fewer terms
    because same-user monomials decorated with payload bits cancel (PSK
    symbols have unit modulus).  The counts asserted here are the exact ones,
    cross-checked against the subset-sum oracle in
    test_coefficients_match_mobius_oracle.
    """

    @pytest.mark.parametrize("M,taud", [(2, 2), (2, 3), (3, 2)])
    def test_exact_counts_psk2_c_variable(self, M, taud):
        from math import comb
        _, _, _, poly, _ = make_problem(M=M, tau_max=taud - 1, include_c=True, seed=M * taud)
        counts = term_counts_by_order(poly)
        c2 = comb(M, 2)
        assert counts[6] == c2 * taud ** 2
        assert counts[5] == 4 * c2 * taud ** 2
        assert counts[4] == 6 * c2 * taud ** 2
        assert counts[3] == 4 * c2 * taud ** 2 + M * taud
        assert counts[2] == comb(M * taud, 2) + 2 * M * taud
        assert counts[1] == M * taud

    @pytest.mark.parametrize("M,taud", [(2, 2), (2, 3), (3, 2)])
    def test_exact_counts_qpsk(self, M, taud):
        from math import comb
        _, _, _, poly, _ = make_problem(M=M, tau_max=taud - 1, modulation=QPSK, seed=M + taud)
        counts = term_counts_by_order(poly)
        c2 = comb(M, 2)
        assert counts[4] == 4 * c2 * taud ** 2
        assert counts[3] == 4 * c2 * taud ** 2
        assert counts[2] == comb(M * taud, 2) + 2 * M * taud
        assert counts[1] == M * taud

    def test_published_rows_that_match_exactly(self):
        from gasmld.gates import table1_counts
        _, _, _, poly, _ = make_problem(M=2, tau_max=1, include_c=True, seed=4)
        counts = term_counts_by_order(poly)
        published = table1_counts(2, 1, PSK2)
        for order in (1, 2, 5, 6):
            assert counts[order] == published[order]


class TestEnumeration:
    """State counts of the enumerated spaces: (symbols * taud)^M one-hot
    states against 2^q_k for the full preparation."""

    @staticmethod
    def space(cfg, prep):
        inst = generate_instance(cfg)
        slot = received_slot(inst, cfg, 0, random_payload_bits(cfg, 0, instance_id=0),
                             instance_id=0)
        return channel_spaces(inst, slot.r[None], [0], cfg, prep)

    def test_reduced_count_small(self):
        cfg = SystemConfig(N=1, M=1, tau_max=2, seed=0)
        assert self.space(cfg, W_STATE_REDUCED).n_states == 6
        assert self.space(cfg, HADAMARD_FULL).n_states == 16
        reg = build_registry(cfg)
        poly = HuboPolynomial(n_vars=reg.q_k, constant=0.0, terms={})
        assert from_polynomial(poly, reg, W_STATE_REDUCED).n_states == 6
        assert from_polynomial(poly, reg, HADAMARD_FULL).n_states == 16

    def test_reduced_count_paper_case(self):
        cfg = SystemConfig(N=2, M=4, tau_max=1, seed=0)
        space = self.space(cfg, W_STATE_REDUCED)
        assert space.n_states == 256
        assert np.unique(space.key_indices).size == 256

    def test_reduced_assignments_one_hot(self):
        cfg = SystemConfig(N=1, M=2, tau_max=2, seed=0)
        space = self.space(cfg, W_STATE_REDUCED)
        reg = space.reg
        for ordinal in range(space.n_states):
            _, d = reg.split_assignment(space.assignment(ordinal))
            assert np.all(d.reshape(2, 3).sum(axis=1) == 1)

    def test_qpsk_reduced_count(self):
        cfg = SystemConfig(N=1, M=2, tau_max=1, modulation=QPSK, seed=0)
        assert self.space(cfg, W_STATE_REDUCED).n_states == (4 * 2) ** 2


def test_imaginary_residue_guard():
    cfg, inst, slot, poly, reg = make_problem(seed=19)
    # all collected coefficients were real; evaluate parity with direct obj
    x = np.zeros(reg.q_k, dtype=np.uint8)
    x[reg.d_position(0, 0)] = 1
    b, _, d = reg.split_assignment(x)
    assert evaluate(poly, x) == pytest.approx(objective_direct(inst, slot.r, 0, b, d), rel=1e-9)
