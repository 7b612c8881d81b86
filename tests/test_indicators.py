import math

import numpy as np
import pytest

from gasmld.channel import PSK2, QPSK, SystemConfig
from gasmld.indicators import (CalibrationTable, calibrate, channel_indicators, config_hash,
                               indicator_c, indicator_c_prime, select_lmin,
                               select_lmin_conventional)
from oracles import (binned_spread, load_calibration_table, reference_calibrate,
                     reference_indicators)

SQRT2 = math.sqrt(2.0)


def one_channel(H):
    """The four indicators of one channel, as a one-row stack call."""
    return {key: float(v[0]) for key, v in channel_indicators(H[None]).items()}


def cn_stack(rng, k, N, M):
    return (rng.standard_normal((k, N, M)) + 1j * rng.standard_normal((k, N, M))) * math.sqrt(0.5)


def assert_stack_matches_reference(H):
    got = channel_indicators(H)
    refs = [reference_indicators(h) for h in H]
    assert set(got) == {"c", "c1", "c2", "c_prime"}
    for key, values in got.items():
        assert values.shape == (len(H),)
        assert values.tobytes() == np.array([ref[key] for ref in refs]).tobytes(), key
    rows = [channel_indicators(h[None]) for h in H]
    for key, values in got.items():
        assert values.tobytes() == np.concatenate([row[key] for row in rows]).tobytes(), key


class TestIndicatorC:
    def test_identity_matrix(self):
        assert indicator_c(np.eye(2, dtype=complex)) == pytest.approx(0.5)

    def test_unit_magnitude_entries(self):
        H = np.exp(1j * np.linspace(0, 3, 8)).reshape(2, 4)
        assert indicator_c(H) == pytest.approx(1.0)

    def test_matches_entry_sum(self):
        rng = np.random.default_rng(0)
        H = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        assert indicator_c(H) == pytest.approx(float(np.sum(np.abs(H) ** 2)) / 8, rel=1e-12)


class TestIndicatorC1:
    def test_alpha_unity_when_sigma_min_matches(self):
        H = 3 * SQRT2 * np.eye(2, dtype=complex)
        C = indicator_c(H)
        assert one_channel(H)["c1"] == pytest.approx(C)

    def test_diagonal_embedding(self):
        H = np.eye(2, dtype=complex)
        assert one_channel(H)["c1"] == pytest.approx(0.5 / (3 * SQRT2))

    def test_sigma_min_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        G = H @ H.conj().T
        a = float(np.real(G[0, 0])), float(np.real(G[1, 1]))
        tr = a[0] + a[1]
        det = float(np.real(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]))
        lam_min = (tr - math.sqrt(tr ** 2 - 4 * det)) / 2
        expect = math.sqrt(lam_min) / (3 * SQRT2) * indicator_c(H)
        assert one_channel(H)["c1"] == pytest.approx(expect, rel=1e-9)


class TestIndicatorC2:
    def test_tie_at_norm_ratio_and_quarter_pi(self):
        H = np.array([[1.0, SQRT2 * np.exp(1j * math.pi / 4)]])
        assert one_channel(H)["c2"] == pytest.approx(0.0, abs=1e-12)

    def test_tie_at_equal_norms_zero_phase(self):
        H = np.array([[1.0 + 0j, 1.0 + 0j]])
        assert one_channel(H)["c2"] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_pair_recomputation(self):
        H = np.array([[1.0, 2.0 * np.exp(1j * math.pi / 8)]])
        ratio = 0.5
        g = abs(4 * (math.pi / 8) / math.pi - 1)  # 0.5
        b1 = abs((1 / SQRT2 - ratio) * g) ** 0.2
        b2 = 1 - (ratio * g) ** 0.2
        assert 0 < b1 < 1 and 0 < b2 < 1
        assert one_channel(H)["c2"] == pytest.approx(b1 * b2 * indicator_c(H), rel=1e-12)

    def test_beta_bounds_random(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            H = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            vals = one_channel(H)
            assert 0.0 <= vals["c2"] <= vals["c"] + 1e-12
            assert vals["c_prime"] <= vals["c1"] + 1e-12


class TestIndicatorCPrime:
    def test_zero_on_tie_pair(self):
        H = np.array([[1.0 + 0j, 1.0 + 0j, 0.3 + 0.1j]])
        assert indicator_c_prime(H) == pytest.approx(0.0, abs=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        vals = one_channel(H)
        alpha = vals["c1"] / vals["c"]
        betas = vals["c2"] / vals["c"]
        assert indicator_c_prime(H) == pytest.approx(alpha * betas * vals["c"], rel=1e-9)


    @pytest.mark.parametrize("N,M", [(1, 1), (1, 4), (2, 1), (2, 4), (2, 8)])
    def test_stack_equals_its_one_row_calls(self, N, M):
        # run_query_cdf takes every trial's C (conventional-c) and C'
        # (proposed-cprime) in one call over the trials' channel stack
        H = cn_stack(np.random.default_rng(30 + 10 * N + M), 40, N, M)
        for indicator in (indicator_c_prime, indicator_c):
            stacked = indicator(H)
            rows = [indicator(h) for h in H]
            assert isinstance(stacked, np.ndarray) and stacked.shape == (len(H),)
            assert all(type(value) is float for value in rows)
            assert stacked.tobytes() == np.array(rows).tobytes()


class TestChannelIndicators:
    # the stack equals the per-channel reference bit for bit (a whole Gram
    # matmul and numpy's vectorized ** both differ in the last bit on some
    # channels); M = 1 has no user pairs
    @pytest.mark.parametrize("M", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("N", [1, 2])
    def test_random_stack_matches_reference(self, N, M):
        assert_stack_matches_reference(cn_stack(np.random.default_rng(10 * N + M), 400, N, M))

    @pytest.mark.parametrize("H", [
        np.array([[1.0, SQRT2 * np.exp(1j * math.pi / 4)]]),
        np.array([[1.0 + 0j, 1.0 + 0j]]),
        np.array([[1.0, 2.0 * np.exp(1j * math.pi / 8)]]),
        np.array([[1.0 + 0j, 1.0 + 0j, 0.3 + 0.1j]]),
    ], ids=["tie-ratio-quarter-pi", "tie-equal-norms", "scalar-pair", "tie-among-three"])
    def test_tie_geometries_match_reference(self, H):
        assert_stack_matches_reference(np.stack([H, 2.0 * H, H.conj()]))

    def test_zero_columns(self):
        # columns 1 and 2 of the first channel are zero, so that pair is
        # skipped; a zero column against a live one has norm ratio 0
        H = cn_stack(np.random.default_rng(4), 3, 2, 3)
        H[0, :, 1:] = 0.0
        H[1, :, 2] = 0.0
        assert_stack_matches_reference(H)

    def test_channel_without_singular_value_raises(self):
        H = cn_stack(np.random.default_rng(6), 3, 2, 4)
        H[1] = 1e-14
        with pytest.raises(ValueError, match="channel 1 has no singular value above 1e-12"):
            channel_indicators(H)
        with pytest.raises(ValueError, match="no singular value"):
            indicator_c_prime(np.zeros((2, 4), dtype=complex))

class TestConventionalLmin:
    @pytest.mark.parametrize("c,expect", [
        (0.5, 5), (0.7, 6), (1.0, 6), (1.1, 8), (1.2, 8), (1.3, 12), (2.0, 12)])
    def test_lookup(self, c, expect):
        assert select_lmin_conventional(c) == expect


@pytest.fixture(scope="module")
def table():
    cfg = SystemConfig(N=2, M=4, tau_max=1, T_P=128, T_D=128, snr_db=20.0, seed=77)
    return calibrate(cfg, 400, P=1e-3)[0]


class TestCalibration:
    def test_minimum_l_opt(self, table):
        # rotation counts of 5 occur near the bottom of the usable range;
        # rare tie-heavy channels push a few samples slightly lower
        assert 5 in set(table.l_opt.tolist())
        assert 1 <= int(table.l_opt.min()) <= 5

    def test_exclusions_shrink_table(self, table):
        assert table.c_prime.size <= 400
        assert table.delta == pytest.approx(0.01 * table.c_prime_max)

    def test_select_min_in_window(self, table):
        c = float(np.median(table.c_prime))
        got = select_lmin(table, c)
        lo, hi = c - table.delta, c + table.delta
        mask = (table.c_prime >= max(0, lo)) & (table.c_prime <= min(hi, table.c_prime_max))
        assert got == int(table.l_opt[mask].min())

    def test_select_clips_beyond_max(self, table):
        got = select_lmin(table, table.c_prime_max * 1.5)
        assert got >= int(table.l_opt.min())

    def test_single_sample_window(self):
        t = CalibrationTable.from_samples([0.1, 0.5, 0.9], [7, 5, 12])
        assert select_lmin(t, 0.5) == 5
        assert select_lmin(t, 0.099) == 7

    def test_window_min(self):
        t = CalibrationTable.from_samples([0.50, 0.500001, 0.5000005], [5, 6, 12])
        assert select_lmin(t, 0.5) == 5

    def test_empty_window_widens(self):
        t = CalibrationTable.from_samples([0.1, 100.0], [9, 3])
        # far from both samples: doubling eventually reaches one
        assert select_lmin(t, 50.0) in (3, 9)

    def test_refinement_monotone(self, table):
        c = float(np.median(table.c_prime))
        base = select_lmin(table, c)
        extended = CalibrationTable.from_samples(
            np.concatenate([table.c_prime, [c]]),
            np.concatenate([table.l_opt, [base + 5]]))
        # keep the original window width for a like-for-like comparison
        extended.delta = table.delta
        extended.c_prime_max = table.c_prime_max
        assert select_lmin(extended, c) <= base + 5

    def test_csv_roundtrip(self, table, tmp_path):
        path = tmp_path / "table.csv"
        table.save(path, cfg_hash="abc123")
        back = load_calibration_table(path)
        assert np.allclose(back.c_prime, table.c_prime)
        assert np.array_equal(back.l_opt, table.l_opt)
        assert back.delta == pytest.approx(table.delta)


@pytest.mark.parametrize("tau_max", [1, 2, 5])
@pytest.mark.parametrize("modulation", [PSK2, QPSK])
def test_calibrate_matches_reference(modulation, tau_max):
    # chunked counting without value tables and one stacked indicator call
    # give the per-sample reference's table and scatter, bit for bit (the
    # QPSK M = 3 case is one where a whole Gram matmul would differ); 42
    # samples end on a partial chunk, and at P = 0.5 the threshold undercuts
    # about half the minima, so chunks mix kept and excluded samples
    M = 3 if (modulation, tau_max) == (QPSK, 5) else 4
    cfg = SystemConfig(N=2, M=M, tau_max=tau_max, modulation=modulation, seed=31 + tau_max)
    for P in (1e-3, 0.5):
        table, scatter = calibrate(cfg, 42, P=P, id_offset=7)
        ref, ref_scatter = reference_calibrate(cfg, 42, P=P, id_offset=7)
        assert table.c_prime.tobytes() == ref.c_prime.tobytes()
        assert table.l_opt.tolist() == ref.l_opt.tolist()
        assert (table.c_prime_max, table.delta) == (ref.c_prime_max, ref.delta)
        assert set(scatter) == set(ref_scatter) == {"c", "c1", "c2", "c_prime"}
        for key, values in scatter.items():
            assert values.tobytes() == np.array(ref_scatter[key]).tobytes(), key
    assert 0 < table.l_opt.size < 42


def test_binned_spread_simple():
    values = np.concatenate([np.zeros(50), np.ones(50)])
    l_tight = np.concatenate([np.full(50, 5), np.full(50, 6)])
    l_wide = np.concatenate([np.arange(50) % 10 + 5, np.arange(50) % 10 + 5])
    assert binned_spread(values, l_tight, n_bins=2) < binned_spread(values, l_wide, n_bins=2)
