import pytest

from gasmld.channel import PSK2, QPSK
from gasmld.gates import build_report, cku_g_costs, g_prop, g_ug_total, table1_counts


class TestCkuCosts:
    def test_single_control(self):
        assert cku_g_costs(1) == {"H": 0, "T": 0, "CX": 2, "Rz": 2}

    def test_printed_formulas(self):
        for k in range(2, 7):
            costs = cku_g_costs(k)
            assert costs["H"] == 4 * (k - 1)
            assert costs["T"] == 16 * (k - 1)
            assert costs["CX"] == 12 * k - 10
            assert costs["Rz"] == 3

    def test_reference_points(self):
        assert cku_g_costs(2)["CX"] == 14
        assert cku_g_costs(3)["CX"] == 26


class TestTable1:
    def test_psk2_reference_rows(self):
        counts = table1_counts(2, 1, PSK2)  # taud = 2
        assert counts[1] == 4
        assert counts[2] == 14
        assert counts[4] == 28
        assert counts[5] == 16
        assert counts[6] == 4

    def test_qpsk_reference_rows(self):
        counts = table1_counts(2, 1, QPSK)
        assert counts[3] == 20
        assert counts[4] == 18

    def test_taud_validity(self):
        with pytest.raises(ValueError):
            table1_counts(2, 0, PSK2)


class TestGUg:
    def test_reference_value(self):
        assert g_ug_total(4, 1, 1, PSK2) == 17016

    def test_prop_overhead(self):
        assert g_prop(4, 1) == 13
        assert g_prop(2, 3) == 3 * 2 * 3 + 2

    def test_reference_ratio(self):
        ratio = g_prop(4, 1) / g_ug_total(4, 1, 1, PSK2)
        assert ratio == pytest.approx(0.000764, abs=5e-7)
        assert f"{100 * ratio:.3g}" == "0.0764"

    def test_ratio_decreasing_in_m(self):
        ratios = [g_prop(m, 1) / g_ug_total(m, 1, 1, PSK2) for m in (2, 4, 8, 16, 32)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_ratio_vanishes_quadratically(self):
        # value-register width grows linearly with the user count
        scaled = [m * m * g_prop(m, 1) / g_ug_total(m, 1, 2 * m, PSK2)
                  for m in (4, 8, 16, 32)]
        assert all(b < a for a, b in zip(scaled, scaled[1:]))
        assert max(scaled) <= 1.3 * (3 / 2432)

    def test_qpsk_assembled_from_table(self):
        total = sum(c * cku_g_costs(k)["CX"] for k, c in table1_counts(3, 1, QPSK).items())
        assert g_ug_total(3, 1, 2, QPSK) == 2 * total


class TestReport:
    def test_fields(self):
        rep = build_report(4, 1, 1, PSK2)
        assert rep["q_k"] == 12
        assert rep["ancilla_max"] == 5
        assert rep["g_ug_cnot"] == 17016
        assert rep["g_prop_cnot"] == 13
        assert rep["g_ug_source"] == "closed-form"
        assert rep["per_order_terms"]["6"] == 24

    def test_qpsk_report_labelled_derived(self):
        rep = build_report(2, 1, 1, QPSK)
        assert rep["q_k"] == 2 * (1 + 3)
        assert rep["ancilla_max"] == 3
        assert rep["g_ug_source"] == "assembled-from-term-table"
