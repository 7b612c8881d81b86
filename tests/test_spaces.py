import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gasmld.channel import (PSK2, QPSK, SystemConfig, generate_instance, objective_direct,
                            received_slots, slot_draws)
from gasmld.errors import CapacityError
from gasmld.gas import Backend, GasParams, run_gas_batch
from gasmld import spaces
from gasmld.spaces import (HADAMARD_FULL, W_STATE_REDUCED, SpaceStack, build_registry,
                           channel_below, channel_spaces)
from gasmld.thresholds import MvdParams, y_mvd
from oracles import (argmin_ordinal, build_hubo, evaluate, from_polynomial, poly_values_over_keys,
                     random_payload_bits, received_slot, reference_channel_values)


def make(N=2, M=2, tau_max=1, modulation=PSK2, seed=3, t=0, **over):
    base = dict(T_P=64, T_D=4, snr_db=15.0)
    base.update(over)
    cfg = SystemConfig(N=N, M=M, tau_max=tau_max, modulation=modulation, seed=seed, **base)
    inst = generate_instance(cfg)
    bits = random_payload_bits(cfg, t, instance_id=0)
    slot = received_slot(inst, cfg, t, bits, instance_id=0)
    reg = build_registry(cfg)
    return cfg, inst, slot, reg


def enumerate_search_space(reg, prep):
    """Independent oracle: the key assignments a preparation reaches, built
    with itertools instead of the vectorized enumeration under test.

    HADAMARD_FULL walks all 2^q_k bitstrings; W_STATE_REDUCED walks only
    assignments whose delay blocks are exactly one-hot.
    """
    if prep == HADAMARD_FULL:
        for bits in itertools.product((0, 1), repeat=reg.q_k):
            yield np.array(bits, dtype=np.uint8)
        return
    for bbits in itertools.product((0, 1), repeat=reg.n_b):
        for hots in itertools.product(range(reg.taud), repeat=reg.M):
            x = np.zeros(reg.q_k, dtype=np.uint8)
            x[:reg.n_b] = bbits
            for m, k in enumerate(hots):
                x[reg.d_position(m, k)] = 1
            yield x


@pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
@pytest.mark.parametrize("modulation,N", [(PSK2, 2), (QPSK, 2), (PSK2, 3)],
                         ids=["psk2", "qpsk", "psk2-N3"])
def test_stack_rows_match_from_channel(modulation, N, prep):
    # row t of a many-slot stack has the bits of slot t's one-row stack
    cfg, inst, _, _ = make(N=N, M=3, modulation=modulation, T_D=8)
    slots = np.arange(cfg.T_D)
    r = np.stack([received_slot(inst, cfg, t, random_payload_bits(cfg, t, instance_id=0),
                                instance_id=0).r
                  for t in slots])
    stack = spaces.channel_spaces(inst, r, slots, cfg, prep)
    assert stack.e_values.shape == (cfg.T_D, stack.n_states)
    for t in slots:
        space = channel_spaces(inst, r[t][None], [t], cfg, prep)
        assert stack.e_values[t].tobytes() == space.e_values[0].tobytes()
        assert np.array_equal(stack.key_indices, space.key_indices)
        assert np.array_equal(stack.one_hot, space.one_hot)


@pytest.mark.parametrize("modulation", [PSK2, QPSK])
@pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
def test_space_matches_objective_direct(modulation, prep):
    cfg, inst, slot, reg = make(modulation=modulation)
    space = channel_spaces(inst, slot.r[None], [0], cfg, prep)
    seen = set()
    for ordinal in range(space.n_states):
        x = space.assignment(ordinal)
        b, d = reg.split_assignment(x)
        expect = objective_direct(inst, slot.r, 0, b, d)
        assert space.e_values[0, ordinal] == pytest.approx(expect, rel=1e-10, abs=1e-12)
        seen.add(int(space.key_indices[ordinal]))
    # key indices enumerate exactly the preparation-consistent assignments
    expect_keys = set()
    for x in enumerate_search_space(reg, prep):
        expect_keys.add(int("".join(map(str, x)), 2))
    assert seen == expect_keys


@pytest.mark.parametrize("modulation", [PSK2, QPSK])
@pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
def test_space_matches_polynomial_values(modulation, prep):
    # three evaluators agree: the matrix model, the HUBO expansion and the
    # direct residual at each decoded assignment
    cfg, inst, slot, reg = make(modulation=modulation, seed=9)
    poly, _ = build_hubo(inst, slot.r, 0, cfg)
    ch = channel_spaces(inst, slot.r[None], [0], cfg, prep)
    po = from_polynomial(poly, reg, prep)
    ch_map = {int(k): v for k, v in zip(ch.key_indices, ch.e_values[0])}
    po_map = {int(k): v for k, v in zip(po.key_indices, po.e_values[0])}
    assert set(ch_map) == set(po_map)
    for k, v in ch_map.items():
        assert v == pytest.approx(po_map[k], rel=1e-9, abs=1e-9)
    for ordinal in range(ch.n_states):
        b, d = reg.split_assignment(ch.assignment(ordinal))
        direct = objective_direct(inst, slot.r, 0, b, d)
        assert ch.e_values[0, ordinal] == pytest.approx(direct, rel=1e-9)


def test_poly_values_over_keys_matches_evaluate():
    cfg, inst, slot, reg = make(seed=10, M=2, tau_max=1)
    poly, _ = build_hubo(inst, slot.r, 0, cfg)
    e = poly_values_over_keys(poly, reg.q_k)
    rng = np.random.default_rng(1)
    for _ in range(30):
        idx = int(rng.integers(1 << reg.q_k))
        x = [(idx >> (reg.q_k - 1 - i)) & 1 for i in range(reg.q_k)]
        assert e[idx] == pytest.approx(evaluate(poly, x), rel=1e-12)


def test_count_below_and_sampling():
    cfg, inst, slot, _ = make(seed=11)
    space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
    # one rotation measures a marked state with certainty at Ns/Nt = 1/4
    # (sin^2(3 pi/6) = 1) and an unmarked one at Ns/Nt = 3/4 (sin^2(3 pi/3) = 0)
    backend = Backend(space)
    e, n = np.sort(space.e_values[0]), space.n_states
    y_marked = float(0.5 * (e[n // 4 - 1] + e[n // 4]))
    y_unmarked = float(0.5 * (e[3 * n // 4 - 1] + e[3 * n // 4]))
    rng = np.random.default_rng(2)
    for _ in range(50):
        ordinal, value = backend.measure(y_marked, 1, *rng.random(2))
        assert value == space.e_values[0, ordinal] < y_marked
        ordinal, value = backend.measure(y_unmarked, 1, *rng.random(2))
        assert y_unmarked <= value == space.e_values[0, ordinal]


def test_capacity_guard():
    cfg = SystemConfig(N=2, M=16, tau_max=2, seed=0)
    inst = generate_instance(cfg)
    bits = random_payload_bits(cfg, 0, instance_id=0)
    slot = received_slot(inst, cfg, 0, bits, instance_id=0)
    with pytest.raises(CapacityError):
        channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)


class TestExhaustive:
    """The exhaustive reference detector is the argmin of the one-hot space."""

    def test_noiseless_truth(self):
        cfg, inst, slot, reg = make(T_P=0, snr_db=300.0, seed=5)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        b, d = reg.split_assignment(space.assignment(argmin_ordinal(space)))
        assert np.array_equal(b, slot.b_true)
        assert space.e_values.min() == pytest.approx(0.0, abs=1e-15)
        for m in range(cfg.M):
            k = int(np.flatnonzero(d.reshape(cfg.M, cfg.taud)[m])[0])
            assert k == inst.delays[m]

    def test_min_below_all(self):
        cfg, inst, slot, _ = make(snr_db=20.0, seed=6)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        values = space.e_sorted[0]
        assert np.all(values[0] <= space.e_values[0] + 1e-15)
        assert np.all(np.diff(values) >= 0)
        assert space.e_values[0, argmin_ordinal(space)] == values[0]

    def test_counts_from_sorted_values(self):
        cfg, inst, slot, _ = make(snr_db=20.0, seed=7)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        y = float(np.median(space.e_sorted))
        assert int(np.searchsorted(space.e_sorted[0], y, side="left")) == \
            int(np.sum(space.e_values < y))


def count_below(space, y) -> int:
    """The marked-state count of a one-row stack."""
    return int(np.count_nonzero(space.e_values < y))


class TestLazyOrder:
    """The per-row sorted order is built on first sampling, never by
    counting or the minimum, and equals the stable argsort whichever sort
    built it."""

    @pytest.mark.parametrize("modulation", [PSK2, QPSK])
    @pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
    def test_order_is_stable_argsort(self, modulation, prep):
        cfg, inst, slot, _ = make(modulation=modulation, seed=12)
        space = channel_spaces(inst, slot.r[None], [0], cfg, prep)
        expect = np.argsort(space.e_values, axis=1, kind="stable")
        assert np.array_equal(space.order, expect)
        assert np.array_equal(space.e_sorted, np.take_along_axis(space.e_values, expect, axis=1))

    def test_order_with_ties(self):
        # long enough that numpy's default sort is not an insertion sort; a
        # tied row stacked over an untied one, so only the first re-sorts
        _, _, _, reg = make()
        rng = np.random.default_rng(4)
        e = np.stack([np.repeat([3.0, 1.0, 2.0, 0.5, 2.5], 40)[rng.permutation(200)],
                      rng.permutation(200) / 7.0])
        space = SpaceStack(reg=reg, prep=W_STATE_REDUCED, e_values=e,
                           key_indices=np.arange(e.shape[1], dtype=np.uint64))
        assert argmin_ordinal(space) == int(np.flatnonzero(e[0] == 0.5)[0])
        assert np.array_equal(space.order, np.argsort(e, axis=1, kind="stable"))

    @pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
    def test_count_and_minimum_without_sorting(self, prep):
        cfg, inst, slot, _ = make(seed=13)
        space = channel_spaces(inst, slot.r[None], [0], cfg, prep)
        distinct = np.unique(space.e_values)
        probes = np.concatenate([distinct, 0.5 * (distinct[1:] + distinct[:-1]),
                                 [distinct[0] - 1.0, distinct[-1] + 1.0]])
        counts = [count_below(space, float(y)) for y in probes]
        head = (float(space.e_values.min()), argmin_ordinal(space))
        assert "_sorted" not in space.__dict__
        space.order  # noqa: B018  (build the order)
        assert counts == [count_below(space, float(y)) for y in probes]
        assert counts == [int(np.sum(space.e_values < y)) for y in probes]
        assert head == (float(space.e_sorted[0, 0]), int(space.order[0, 0]))

    @pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
    def test_one_sort_per_space(self, prep, monkeypatch):
        # hadamard-full spaces always tie and sort stably at once; an untied
        # w-state space takes one default sort and keeps it
        kinds = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        cfg, inst, slot, _ = make(seed=15)
        space = channel_spaces(inst, slot.r[None], [0], cfg, prep)
        space.order  # noqa: B018  (build the order)
        assert kinds == (["stable"] if prep == HADAMARD_FULL else [None])
        assert np.array_equal(space.order, argsort(space.e_values, axis=1, kind="stable"))

    @pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
    def test_batch_reads_the_stack_order(self, prep, monkeypatch):
        # the lockstep engine searches through the stack's cached sort: a
        # stack whose order was read is never sorted again
        cfg, inst, _, _ = make(M=3, seed=17)
        slots = np.arange(cfg.T_D)
        r = np.stack([received_slot(inst, cfg, t, random_payload_bits(cfg, t, instance_id=0),
                                    instance_id=0).r
                      for t in slots])
        stack = channel_spaces(inst, r, slots, cfg, prep)
        stack.order  # noqa: B018  (build the order)
        calls = []
        argsort = np.argsort

        def recording(*args, **kwargs):
            calls.append(kwargs.get("kind"))
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        batch = run_gas_batch(stack, slots,
                              [(GasParams(budget_iterations=20), np.random.default_rng(18),
                                slots.size)],
                              oracle_min=stack.e_values.min(axis=1))
        assert batch.cd_queries.min() >= 1
        assert calls == []

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
    def test_values_match_axis_sum(self, N, prep):
        # the value table and the key table equal, bit for bit, those of the
        # reference kernel, which lays the full table out (slots, states,
        # antennas) and sums the antenna axis column by column; whatever the
        # intermediate layout, on every modulation, user count (one user has
        # no prefix) and stack height
        for modulation, M, rows in itertools.product([PSK2, QPSK], [1, 2, 3, 4], [1, 5]):
            cfg, inst, _, reg = make(N=N, M=M, modulation=modulation, seed=14)
            slots = np.arange(rows) + 1
            r = np.stack([received_slot(inst, cfg, t, random_payload_bits(cfg, t, instance_id=0),
                                        instance_id=0).r
                          for t in slots])
            stack = channel_spaces(inst, r, slots, cfg, prep)
            e, key_idx = reference_channel_values(inst, r, slots, cfg, prep, reg)
            case = (modulation, M, rows)
            assert stack.e_values.shape == e.shape, case
            assert stack.e_values.tobytes() == e.tobytes(), case
            assert stack.key_indices.tobytes() == key_idx.tobytes(), case


def test_key_table_shared_and_read_only():
    # the key-index table depends only on (registry, preparation): calls of
    # one pair share one array, which no caller can write, though each call
    # builds its own registry from the config
    cfg, inst, slot, reg = make(M=3, modulation=QPSK, seed=19)
    first = channel_spaces(inst, slot.r[None], [0], cfg, HADAMARD_FULL)
    again = channel_spaces(inst, 2.0 * slot.r[None], [1], cfg, HADAMARD_FULL)
    assert again.key_indices is first.key_indices
    assert not first.key_indices.flags.writeable
    with pytest.raises(ValueError):
        first.key_indices[0] = 0
    w_state = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
    assert w_state.key_indices is not first.key_indices
    assert not w_state.key_indices.flags.writeable
    # the stack's decoders read the shared table
    x = first.assignment(np.arange(first.n_states))
    assert np.array_equal(x @ (1 << np.arange(reg.q_k - 1, -1, -1, dtype=np.uint64)),
                          first.key_indices)
    d = x[:, reg.d_position(0, 0):].reshape(-1, cfg.M, cfg.taud)
    assert np.array_equal(first.one_hot, np.all(d.sum(axis=2) == 1, axis=1))
    assert w_state.one_hot.all()


def test_local_choices_shared_and_read_only():
    # the per-user choice tables are cached like the key table: one pair, one
    # pair of arrays, which no caller can write
    _, _, _, reg = make(M=3, modulation=QPSK, seed=19)
    for prep in (W_STATE_REDUCED, HADAMARD_FULL):
        bits, sel = spaces._local_choices(reg, prep)
        again = spaces._local_choices(build_registry(SystemConfig(N=1, M=3, tau_max=1,
                                                                  modulation=QPSK)), prep)
        assert again[0] is bits and again[1] is sel
        for table in (bits, sel):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
    assert spaces._local_choices(reg, W_STATE_REDUCED)[1] is not \
        spaces._local_choices(reg, HADAMARD_FULL)[1]
    with pytest.raises(ValueError):
        spaces._local_choices(reg, "no-such-preparation")


def count_chunk(cfg, ids):
    """Slot 0 of instances ids as calibration draws it: the instance stack,
    its received vectors (K, N) and its w-state value tables (K, states)."""
    insts = generate_instance(cfg, ids)
    ts = np.zeros(len(ids), dtype=int)
    r = received_slots(insts, cfg, ts, *slot_draws(cfg, ts, instance_id=ids))
    e = np.concatenate([channel_spaces(insts[k], r[k][None], [0], cfg, W_STATE_REDUCED).e_values
                        for k in range(len(ids))])
    return insts, r, e


def probes(cfg, e):
    """Thresholds at the edges of the counter: the MVD threshold, exact table
    values (strictness) and their successors, zero, below the minimum and
    above the maximum."""
    rows = np.arange(e.shape[0])
    picks = np.sort(e, axis=1)[:, [0, e.shape[1] // 7, e.shape[1] // 2, -1]]
    return [y_mvd(MvdParams.from_config(cfg, 1e-3)), 0.0, float(e.min()) / 2,
            float(e.max()) + 1.0, *map(float, picks[rows, rows % 4]),
            *(float(np.nextafter(v, np.inf)) for v in picks[0]), float(np.median(e))]


def counts_below(insts, r, cfg, y):
    """Per row, the number of states channel_below finds below y."""
    return np.bincount(channel_below(insts, r, cfg, y)[0], minlength=len(r))


def table_stack(cfg, e):
    """The w-state stack of the value tables e, one row per instance."""
    reg = build_registry(cfg)
    return SpaceStack(reg=reg, prep=W_STATE_REDUCED, e_values=e,
                      key_indices=spaces._key_table(reg, W_STATE_REDUCED))


def checked_counts(cfg, insts, r, stack, y):
    """Per row, the number of states channel_below finds below y, once
    those states, sorted by (value, ordinal), are asserted to be the head of
    the sort of that row's table in stack, bit for bit."""
    row, ordinal, value = channel_below(insts, r, cfg, y)
    counts = np.bincount(row, minlength=len(r))
    order = np.lexsort((ordinal, value, row))
    heads = [(stack.order[k, :n], stack.e_sorted[k, :n]) for k, n in enumerate(counts)]
    assert np.array_equal(ordinal[order], np.concatenate([o for o, _ in heads])), (cfg, y)
    assert value[order].tobytes() == np.concatenate([v for _, v in heads]).tobytes(), (cfg, y)
    return counts


def assert_counts_equal(cfg, insts, r, e, ys):
    reg = build_registry(cfg)
    ref = np.concatenate([reference_channel_values(insts[k], r[k][None], [0], cfg,
                                                   W_STATE_REDUCED, reg)[0]
                          for k in range(len(r))])
    assert ref.tobytes() == e.tobytes()
    stack = table_stack(cfg, e)
    for y in ys:
        got = checked_counts(cfg, insts, r, stack, y)
        assert got.tolist() == (e < y).sum(axis=1).tolist(), (cfg, y)
        assert got.tolist() == (ref < y).sum(axis=1).tolist(), (cfg, y)


def no_table(*args, **kwargs):
    raise AssertionError("channel_below built a value table")


def by_row(found, rows):
    """channel_below's states per row sorted by ordinal, as (ordinal bytes,
    value bytes)."""
    row, ordinal, value = found
    order = np.lexsort((ordinal, row))
    ends = np.cumsum(np.bincount(row, minlength=rows))[:-1]
    return [(o.tobytes(), v.tobytes())
            for o, v in zip(np.split(ordinal[order], ends), np.split(value[order], ends))]


def assert_margin_case(monkeypatch, residual, edge=False):
    """Per instance, y is the successor of E(x) for a drawn state x whose
    received vector is its noiseless H D s plus residual (one antenna):
    channel_below, on its search path alone, finds x and the table's states
    below y, bit for bit.  With edge, x's last M // 2 users take the choices
    whose sum B has the row's least real part, which lies on the lower edge
    of the first cell."""
    monkeypatch.setattr(spaces, "TABLE_SHARE", math.inf)
    cfg = SystemConfig(N=1, M=4, tau_max=2, seed=8)
    h, C = cfg.M // 2, 2 * cfg.taud
    rng = np.random.default_rng(8)
    for ids in np.arange(40).reshape(10, 4):
        insts = generate_instance(cfg, ids)
        bits = rng.integers(0, 2, size=(4, cfg.bits_per_slot))
        delays = rng.integers(0, cfg.taud, size=(4, cfg.M))
        if edge:
            tables = spaces._user_tables(insts.H, insts.f, np.zeros(4, dtype=int), cfg,
                                         W_STATE_REDUCED)
            least = spaces._broadcast_sum(tables[h:])[0].real.argmin(axis=1)
            for m in range(h, cfg.M):
                bits[:, m], delays[:, m] = np.divmod(least // C ** (cfg.M - 1 - m) % C, cfg.taud)
        r = received_slots(replace(insts, delays=delays), cfg, np.zeros(4, dtype=int), bits,
                           np.zeros((4, 1)), np.zeros((4, 1))) + residual
        stacks = [channel_spaces(insts[k], r[k][None], [0], cfg, W_STATE_REDUCED)
                  for k in range(4)]
        e = np.concatenate([stack.e_values for stack in stacks])
        tables = table_stack(cfg, e)
        for k, stack in enumerate(stacks):
            x = spaces.channel_ordinals(stack, bits[k][None], delays[k][None])[0]
            if edge:
                assert x % C ** (cfg.M - h) == least[k]
            y = float(np.nextafter(e[k, x], np.inf))
            got = checked_counts(cfg, insts, r, tables, y)
            assert got.tolist() == (e < y).sum(axis=1).tolist()
            assert got[k] >= 1


class TestChannelCounts:
    """channel_below finds the states below a threshold without the value
    table: its count per row equals the count over channel_spaces' table and
    over the reference kernel's, exactly, and its states sorted by (value,
    ordinal) are the head of the table's sort, bit for bit: at table values,
    zero and the extremes."""

    @pytest.mark.parametrize("tau_max", [0, 1, 2, 5])
    @pytest.mark.parametrize("modulation", [PSK2, QPSK])
    def test_counts_match_tables(self, modulation, tau_max):
        # M = 1 has an empty first half; spaces above 40 000 states are left
        # to the property test's smaller draws
        choices = (2 if modulation == PSK2 else 4) * (tau_max + 1)
        for N, M in itertools.product([1, 2, 4], [1, 2, 3, 4, 5]):
            if choices ** M > 40_000:
                continue
            cfg = SystemConfig(N=N, M=M, tau_max=tau_max, modulation=modulation,
                               snr_db=10.0 + 2 * M, seed=100 + 10 * N + M)
            insts, r, e = count_chunk(cfg, range(3, 7))
            assert_counts_equal(cfg, insts, r, e, probes(cfg, e))

    def test_low_snr_many_candidates(self):
        # at 0 dB sqrt(y_mvd) is about 3, so the first stage lets almost
        # every pair through, about a third of the states are marked, and
        # channel_below reads the rows off their tables
        cfg = SystemConfig(N=2, M=4, tau_max=2, snr_db=0.0, seed=5)
        insts, r, e = count_chunk(cfg, range(4))
        y = y_mvd(MvdParams.from_config(cfg, 1e-3))
        assert (e < y).mean() > 0.25
        assert_counts_equal(cfg, insts, r, e, probes(cfg, e))

    def test_low_snr_through_the_search(self, monkeypatch):
        # the same rows with the crossover never taken: every probe's states
        # come from the first stage and the box filter
        monkeypatch.setattr(spaces, "TABLE_SHARE", math.inf)
        monkeypatch.setattr(spaces, "channel_spaces", no_table)
        cfg = SystemConfig(N=2, M=4, tau_max=2, snr_db=0.0, seed=5)
        insts, r, e = count_chunk(cfg, range(4))
        assert_counts_equal(cfg, insts, r, e, probes(cfg, e))

    @pytest.mark.parametrize("snr_db", [0.0, 7.0])
    def test_crossover_reads_the_tables(self, monkeypatch, snr_db):
        # past TABLE_SHARE each row's table is built once, and the states and
        # values equal the search's, bit for bit, whichever path a row takes
        cfg = SystemConfig(N=2, M=4, tau_max=3, snr_db=snr_db, seed=9)
        insts, r, e = count_chunk(cfg, range(6))
        y = y_mvd(MvdParams.from_config(cfg, 1e-3))
        built = []
        monkeypatch.setattr(spaces, "channel_spaces",
                            lambda *args: built.append(args[0]) or channel_spaces(*args))
        tables = by_row(channel_below(insts, r, cfg, y), len(r))
        assert len(built) == len(r)
        assert checked_counts(cfg, insts, r, table_stack(cfg, e), y).sum() > 0
        monkeypatch.setattr(spaces, "TABLE_SHARE", math.inf)
        monkeypatch.setattr(spaces, "channel_spaces", no_table)
        assert by_row(channel_below(insts, r, cfg, y), len(r)) == tables

    @pytest.mark.parametrize("snr_db", [0.0, 6.0, 20.0])
    def test_a_row_does_not_depend_on_its_call(self, snr_db):
        # each row's states and values, one row a call and BELOW_ROWS rows
        # a call, byte for byte; near 6 dB a lone row and the stack can
        # fall on either side of the crossover
        cfg = SystemConfig(N=2, M=4, tau_max=5, snr_db=snr_db, seed=12)
        ids = range(spaces.BELOW_ROWS)
        insts = generate_instance(cfg, ids)
        ts = np.zeros(len(ids), dtype=int)
        r = received_slots(insts, cfg, ts, *slot_draws(cfg, ts, instance_id=ids))
        y = y_mvd(MvdParams.from_config(cfg, 1e-3))
        alone = [by_row(channel_below(insts[k:k + 1], r[k:k + 1], cfg, y), 1)[0]
                 for k in range(len(r))]
        assert by_row(channel_below(insts, r, cfg, y), len(r)) == alone

    def test_zero_count_sample_in_chunk(self):
        cfg = SystemConfig(N=2, M=4, tau_max=1, seed=6)
        insts, r, e = count_chunk(cfg, range(10, 15))
        y = float(e.min(axis=1).max())   # the row of the largest minimum marks nothing
        got = counts_below(insts, r, cfg, y)
        assert got.min() == 0 and got.max() > 0
        assert got.tolist() == (e < y).sum(axis=1).tolist()

    def test_margin_covers_the_grouping(self, monkeypatch):
        # r is state x's noiseless H D s plus 0.3, so x's residual is all in
        # antenna 0's real part and y = E(x)'s successor puts that component
        # at sqrt(y) up to an ulp; the split's grouping rounds it differently
        # from the table's, and only the margin keeps x a candidate.  Cells
        # are then about as wide as x's distance from its a, so the margin
        # also keeps x's B in a neighbour of a's cell
        assert_margin_case(monkeypatch, 0.3)

    @pytest.mark.parametrize("edge", [False, True])
    def test_margin_covers_the_imaginary_part(self, monkeypatch, edge):
        # as above with the residual in antenna 0's imaginary part, which
        # puts x's B at the edge of its a's window in a's own cell.  With
        # edge, x's B is also on the lower edge of cell 0, and a's real part
        # equals it up to rounding, so a may fall in cell -1: the margin
        # argument must keep x's B in a neighbour of a's cell
        assert_margin_case(monkeypatch, 0.3j, edge)

    def test_capacity_guard_before_any_work(self, monkeypatch):
        cfg = SystemConfig(N=2, M=16, tau_max=2, seed=0)
        insts = generate_instance(cfg, range(2))
        r = np.zeros((2, cfg.N), complex)

        def no_work(*args, **kwargs):
            raise AssertionError("built a table over a space above MAX_ENUMERABLE")

        monkeypatch.setattr(spaces, "delay_phases", no_work)
        monkeypatch.setattr(spaces, "map_symbols", no_work)
        with pytest.raises(CapacityError):
            counts_below(insts, r, cfg, 1.0)

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(modulation=st.sampled_from([PSK2, QPSK]), N=st.integers(1, 3),
           M=st.integers(1, 4), tau_max=st.integers(0, 3),
           snr_db=st.floats(0.0, 30.0), seed=st.integers(0, 2 ** 31),
           rows=st.integers(1, 5), q=st.floats(0.0, 1.0))
    def test_counts_property(self, modulation, N, M, tau_max, snr_db, seed, rows, q):
        cfg = SystemConfig(N=N, M=M, tau_max=min(tau_max, 6 // M), modulation=modulation,
                           snr_db=snr_db, seed=seed)
        insts, r, e = count_chunk(cfg, range(rows))
        values = np.sort(e.ravel())
        exact = float(values[int(q * (values.size - 1))])
        ys = [exact, float(np.nextafter(exact, np.inf)), float(np.quantile(values, q)),
              y_mvd(MvdParams.from_config(cfg, 1e-3))]
        stack = table_stack(cfg, e)
        for y in ys:
            got = checked_counts(cfg, insts, r, stack, y)
            assert got.tolist() == (e < y).sum(axis=1).tolist()


class TestOrdinals:
    """Per-ordinal one-hot validity and the mixed-radix ordinal of a
    (payload bits, delays) pair, both checked against decoded assignments."""

    @staticmethod
    def decoded(space, reg):
        for ordinal in range(space.n_states):
            b, d = reg.split_assignment(space.assignment(ordinal))
            yield ordinal, b, d.reshape(reg.M, reg.taud)

    @pytest.mark.parametrize("prep", [W_STATE_REDUCED, HADAMARD_FULL])
    def test_one_hot(self, prep):
        cfg, inst, slot, reg = make(M=3, modulation=QPSK, seed=16)
        space = channel_spaces(inst, slot.r[None], [0], cfg, prep)
        expect = [np.all(d.sum(axis=1) == 1) for _, _, d in self.decoded(space, reg)]
        assert np.array_equal(space.one_hot, expect)

    @pytest.mark.parametrize("modulation", [PSK2, QPSK])
    def test_channel_ordinals(self, modulation):
        cfg, inst, slot, reg = make(M=3, tau_max=2, modulation=modulation, seed=16)
        space = channel_spaces(inst, slot.r[None], [0], cfg, W_STATE_REDUCED)
        rows = list(self.decoded(space, reg))
        got = spaces.channel_ordinals(space, np.array([b for _, b, _ in rows]),
                                      np.array([d.argmax(axis=1) for _, _, d in rows]))
        assert np.array_equal(got, np.arange(space.n_states))
        full = channel_spaces(inst, slot.r[None], [0], cfg, HADAMARD_FULL)
        with pytest.raises(ValueError):
            spaces.channel_ordinals(full, rows[0][1][None, :], [[0, 0, 0]])
