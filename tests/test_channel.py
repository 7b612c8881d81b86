import numpy as np
import pytest

from gasmld import streams
from gasmld.channel import (PSK2, QPSK, SystemConfig, delay_phases, generate_instance,
                            map_symbols, objective_direct, received_slots, slot_draws)
from gasmld.harness import CALIBRATION_ID_OFFSET
from oracles import noise_realization, random_payload_bits, received_slot


def cfg_small(**over):
    base = dict(N=2, M=4, tau_max=1, modulation=PSK2, T_P=128, T_D=128,
                P_X=1.0, snr_db=20.0, seed=11)
    base.update(over)
    return SystemConfig(**base)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        cfg_small(N=0)
    with pytest.raises(ValueError):
        cfg_small(M=0)
    with pytest.raises(ValueError):
        cfg_small(tau_max=-1)
    with pytest.raises(ValueError):
        cfg_small(T_D=0)
    with pytest.raises(ValueError):
        cfg_small(P_X=0.0)
    with pytest.raises(ValueError):
        cfg_small(modulation="16qam")


def test_sigma_v_from_snr():
    assert cfg_small(snr_db=20.0).sigma_v == pytest.approx(0.1)
    assert cfg_small(snr_db=10.0).sigma_v2 == pytest.approx(0.1)


def test_est_err_var_formula():
    cfg = cfg_small(T_P=128, P_X=1.0, snr_db=20.0)
    assert cfg.est_err_var == pytest.approx(0.01 / 128)
    assert cfg_small(T_P=0).est_err_var == 0.0


def test_delays_within_range():
    cfg = cfg_small(tau_max=1, seed=3)
    inst = generate_instance(cfg)
    assert set(np.unique(inst.delays)) <= {0, 1}
    assert np.all(np.abs(inst.f) <= 1.0)


def test_channel_statistics():
    cfg = cfg_small(N=40, M=50, seed=5)
    inst = generate_instance(cfg)
    power = np.mean(np.abs(inst.H) ** 2)
    assert power == pytest.approx(1.0, abs=0.1)


def _ideal_cfg(**over):
    # noiseless, perfect estimation
    base = dict(N=1, M=1, tau_max=0, modulation=PSK2, T_P=0, T_D=1,
                P_X=1.0, snr_db=300.0, seed=0)
    base.update(over)
    return SystemConfig(**base)


def _force_instance(inst, H=None, f=None, delays=None):
    from dataclasses import replace
    kw = {}
    if H is not None:
        H = np.asarray(H, dtype=complex)
        kw.update(H=H)
    if f is not None:
        f = np.asarray(f, dtype=float)
        kw.update(f=f)
    if delays is not None:
        kw.update(delays=np.asarray(delays))
    return replace(inst, **kw)


def test_received_slot_psk2_reference_points():
    cfg = _ideal_cfg()
    inst = _force_instance(generate_instance(cfg), H=[[1.0]], f=[0.0], delays=[0])
    r0 = received_slot(inst, cfg, 0, [0], instance_id=0).r
    assert r0[0] == pytest.approx((1 + 1j) / np.sqrt(2), abs=1e-12)
    r1 = received_slot(inst, cfg, 0, [1], instance_id=0).r
    assert r1[0] == pytest.approx(-(1 + 1j) / np.sqrt(2), abs=1e-12)


def test_received_slot_delay_phase_cancellation():
    # t=1, tau=1, f=0.25: phase exponent 2*pi*0.25*(1-1) = 0 so r equals s
    cfg = _ideal_cfg(tau_max=1)
    inst = _force_instance(generate_instance(cfg), H=[[1.0]], f=[0.25], delays=[1])
    r = received_slot(inst, cfg, 1, [0], instance_id=0).r
    s = map_symbols(PSK2, 1, np.array([0]))
    assert r[0] == pytest.approx(s[0], abs=1e-12)


def test_qpsk_symbols():
    s = map_symbols(QPSK, 0, np.array([0, 0, 1, 1]))
    assert s[0] == pytest.approx((1 + 1j) / np.sqrt(2))
    assert s[1] == pytest.approx((-1 - 1j) / np.sqrt(2))


def test_objective_direct_zero_at_truth():
    cfg = cfg_small(T_P=0, snr_db=300.0, seed=21)
    inst = generate_instance(cfg)
    bits = random_payload_bits(cfg, 0, instance_id=0)
    slot = received_slot(inst, cfg, 0, bits, instance_id=0)
    d = np.zeros(cfg.M * cfg.taud, dtype=np.uint8)
    for m, tau in enumerate(inst.delays):
        d[m * cfg.taud + tau] = 1
    assert objective_direct(inst, slot.r, 0, bits, d) == pytest.approx(0.0, abs=1e-18)


def test_objective_direct_all_zero_delay_bits():
    cfg = cfg_small(seed=22)
    inst = generate_instance(cfg)
    bits = random_payload_bits(cfg, 0, instance_id=0)
    slot = received_slot(inst, cfg, 0, bits, instance_id=0)
    d = np.zeros(cfg.M * cfg.taud, dtype=np.uint8)
    expect = float(np.sum(np.abs(slot.r) ** 2))
    assert objective_direct(inst, slot.r, 0, bits, d) == pytest.approx(expect, rel=1e-12)


def test_objective_direct_matches_matrix_oracle():
    cfg = cfg_small(seed=23)
    inst = generate_instance(cfg)
    bits = random_payload_bits(cfg, 3, instance_id=0)
    slot = received_slot(inst, cfg, 3, bits, instance_id=0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = rng.integers(0, 2, cfg.M)
        d = rng.integers(0, 2, cfg.M * cfg.taud)
        # independent recomputation with explicit matrices
        D = np.zeros((cfg.M, cfg.M), dtype=complex)
        for m in range(cfg.M):
            for k in range(cfg.taud):
                D[m, m] += np.exp(1j * 2 * np.pi * inst.f[m] * (3 - k)) * d[m * cfg.taud + k]
        s = map_symbols(PSK2, 3, b)
        expect = float(np.linalg.norm(slot.r - inst.H @ D @ s) ** 2)
        got = objective_direct(inst, slot.r, 3, b, d)
        assert got == pytest.approx(expect, rel=1e-10)


def test_objective_antenna_permutation_invariance():
    from dataclasses import replace
    cfg = cfg_small(seed=24)
    inst = generate_instance(cfg)
    bits = random_payload_bits(cfg, 0, instance_id=0)
    slot = received_slot(inst, cfg, 0, bits, instance_id=0)
    rng = np.random.default_rng(1)
    b = rng.integers(0, 2, cfg.M)
    d = rng.integers(0, 2, cfg.M * cfg.taud)
    perm = rng.permutation(cfg.N)
    inst_p = replace(inst, H=inst.H[perm])
    assert objective_direct(inst, slot.r, 0, b, d) == pytest.approx(
        objective_direct(inst_p, slot.r[perm], 0, b, d), rel=1e-12)


@pytest.mark.parametrize("over", [{"modulation": PSK2}, {"modulation": QPSK},
                                  {"modulation": PSK2, "T_P": 0}],
                         ids=["psk2", "qpsk", "tp0"])
def test_received_slots_match_the_per_slot_reference(over):
    # many slots in one call, bit for bit the slot-by-slot model
    cfg = cfg_small(seed=12, tau_max=2, **over)
    inst = generate_instance(cfg, instance_id=3)
    ts = np.arange(9)
    bits, v, e = slot_draws(cfg, ts, instance_id=3)
    r = received_slots(inst, cfg, ts, bits, v, e)
    for t in ts:
        assert np.array_equal(bits[t], random_payload_bits(cfg, t, instance_id=3))
        slot = received_slot(inst, cfg, t, bits[t], instance_id=3)
        assert r[t].tobytes() == slot.r.tobytes()
    # and one row at a time
    one = received_slots(inst, cfg, [5], *slot_draws(cfg, [5], instance_id=3))
    assert one.tobytes() == r[5].tobytes()


def test_received_slots_rejects_bad_input():
    cfg = cfg_small()
    inst = generate_instance(cfg)
    bits, v, e = slot_draws(cfg, [0, 1], instance_id=0)
    with pytest.raises(ValueError):
        received_slots(inst, cfg, [0], bits, v, e)
    with pytest.raises(ValueError):
        received_slots(inst, cfg, [0, -1], bits, v, e)


@pytest.mark.parametrize("modulation", [PSK2, QPSK])
def test_slot_draws_row_t_is_slot_t(modulation):
    # a row depends on its slot only, not on the other slots drawn with it:
    # every slot alone, then shuffled and repeated slots
    cfg = cfg_small(seed=13, modulation=modulation, T_D=16)
    full = slot_draws(cfg, np.arange(cfg.T_D), instance_id=2)
    for ts in [[t] for t in range(cfg.T_D)] + [[7, 2, 15, 0], [3, 3, 9, 3]]:
        some = slot_draws(cfg, ts, instance_id=2)
        assert [a.tobytes() for a in some] == [b[ts].tobytes() for b in full]


@pytest.mark.parametrize("n_slots", [0, 1, 64])
def test_slot_draws_make_one_stream_per_purpose(monkeypatch, n_slots):
    keys = []
    substreams = streams.substreams

    def counted(seed, paths):
        paths = list(paths)
        keys.extend((seed, *path) for path in paths)
        return substreams(seed, paths)

    monkeypatch.setattr(streams, "substreams", counted)
    slot_draws(cfg_small(seed=14), np.arange(n_slots), instance_id=5)
    assert sorted(keys) == sorted((14, purpose, 5) for purpose in
                                  (streams.PAYLOAD, streams.NOISE, streams.EST_ERR))


def test_slot_draws_reject_a_negative_slot():
    # numpy would read slot -1 as the last row drawn
    with pytest.raises(ValueError):
        slot_draws(cfg_small(), [2, -1], instance_id=0)


def test_slot_draws_of_no_slots():
    cfg = cfg_small()
    for instance_id in (0, []):
        bits, v, e = slot_draws(cfg, [], instance_id=instance_id)
        assert bits.shape == (0, cfg.bits_per_slot) and bits.dtype == np.uint8
        assert v.shape == e.shape == (0, cfg.N) and v.dtype == e.dtype == complex


@pytest.mark.parametrize("ids", [range(CALIBRATION_ID_OFFSET, CALIBRATION_ID_OFFSET + 6),
                                 [9, 2, 40, 3, CALIBRATION_ID_OFFSET + 17]],
                         ids=["calibration", "scattered"])
@pytest.mark.parametrize("N,M", [(1, 1), (1, 4), (2, 1), (2, 4)])
@pytest.mark.parametrize("modulation", [PSK2, QPSK])
def test_stacked_draws_equal_the_one_id_calls(modulation, N, M, ids):
    # one instance stack and one slot-0 draw for many ids, as calibration
    # and query-cdf take them: row k is instance ids[k], bit for bit
    cfg = cfg_small(seed=15, N=N, M=M, tau_max=2, modulation=modulation)
    ts = np.zeros(len(ids), dtype=int)
    stack = generate_instance(cfg, ids)
    draws = slot_draws(cfg, ts, instance_id=ids)
    r = received_slots(stack, cfg, ts, *draws)
    assert stack.H.shape == (len(ids), N, M) and stack.f.shape == stack.delays.shape == (len(ids), M)
    for k, i in enumerate(ids):
        one = generate_instance(cfg, instance_id=i)
        for got in (stack[k], generate_instance(cfg, [i])[0]):
            assert [got.H.tobytes(), got.f.tobytes(), got.delays.tobytes()] == \
                [one.H.tobytes(), one.f.tobytes(), one.delays.tobytes()]
        one_draws = slot_draws(cfg, [0], instance_id=i)
        assert [a[k].tobytes() for a in draws] == [a[0].tobytes() for a in one_draws]
        assert r[k].tobytes() == received_slots(one, cfg, [0], *one_draws)[0].tobytes()


def test_slot_draws_take_one_id_per_row():
    # every row is its slot of its instance, repeated ids and slots too
    cfg = cfg_small(seed=16, modulation=QPSK)
    ids, ts = [4, 2, 4, 7, 4], [3, 0, 1, 5, 3]
    draws = slot_draws(cfg, ts, instance_id=ids)
    for k, (i, t) in enumerate(zip(ids, ts)):
        assert [a[k].tobytes() for a in draws] == \
            [a[0].tobytes() for a in slot_draws(cfg, [t], instance_id=i)]
    with pytest.raises(ValueError, match="one instance id per slot"):
        slot_draws(cfg, [0, 1], instance_id=[4, 2, 7])


def test_received_slot_deterministic():
    cfg = cfg_small(seed=9)
    inst = generate_instance(cfg, instance_id=4)
    bits = random_payload_bits(cfg, 7, instance_id=4)
    a = received_slot(inst, cfg, 7, bits, instance_id=4)
    b = received_slot(inst, cfg, 7, bits, instance_id=4)
    assert np.array_equal(a.r, b.r)


def test_e_min_equals_noise_power_at_truth():
    cfg = cfg_small(seed=31)
    inst = generate_instance(cfg)
    bits = random_payload_bits(cfg, 5, instance_id=0)
    slot = received_slot(inst, cfg, 5, bits, instance_id=0)
    d = np.zeros(cfg.M * cfg.taud, dtype=np.uint8)
    for m, tau in enumerate(inst.delays):
        d[m * cfg.taud + tau] = 1
    v, e = noise_realization(cfg, 5, instance_id=0)
    expect = float(np.sum(np.abs(cfg.sigma_v * v + e) ** 2))
    assert objective_direct(inst, slot.r, 5, bits, d) == pytest.approx(expect, rel=1e-10)


def test_delay_phases_table():
    cfg = cfg_small(seed=51, tau_max=2)
    inst = generate_instance(cfg)
    tab = delay_phases(inst.f, 4, cfg.taud)
    assert tab.shape == (cfg.M, 3)
    assert tab[1, 2] == pytest.approx(np.exp(1j * 2 * np.pi * inst.f[1] * (4 - 2)))
    # an array of slots gives each slot's table, bit for bit
    many = delay_phases(inst.f, np.arange(9), cfg.taud)
    each = np.stack([delay_phases(inst.f, t, cfg.taud) for t in range(9)])
    assert many.tobytes() == each.tobytes()
