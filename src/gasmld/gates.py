"""Closed-form gate and qubit accounting for the GAS circuit.

Counts follow the published decomposition: a controlled phase ladder with k
control qubits costs 4(k-1) H, 16(k-1) T, (12k-10) CX and three Rz gates
(two CX / two Rz when k = 1), and the one-hot state preparation adds
3 M tau_max + ceil((tau_max+1)/2) CX gates.
"""

from __future__ import annotations

import math

from .channel import PSK2, QPSK
from .spaces import VarRegistry


def cku_g_costs(k: int) -> dict[str, int]:
    """Per-gate cost of one phase-ladder application with k control qubits."""
    if k < 1:
        raise ValueError("term order must be >= 1")
    if k == 1:
        return {"H": 0, "T": 0, "CX": 2, "Rz": 2}
    return {"H": 4 * (k - 1), "T": 16 * (k - 1), "CX": 12 * k - 10, "Rz": 3}


def table1_counts(M: int, tau_max: int, modulation: str) -> dict[int, int]:
    """Published per-order term counts of the expanded objective (Table I).

    These are the published values, not the counts of the exact expansion:
    the HUBO reference in tests/oracles.py expands the objective with the
    pi/2-BPSK parity as a variable, and acceptance criterion 06 reconciles
    its counts with this table.  Orders 1, 2, 5 and 6 agree.  At orders 3
    and 4 the table also counts the monomials d_{m,k} d_{m,k'} * (payload
    monomial of user m), k != k', whose coefficients are identically zero
    because |s_m|^2 = 1 on every binary assignment.  Published minus exact,
    with P = M * C(tau_max + 1, 2) same-user delay pairs, is
    {3: 4P, 4: 2P} for pi/2-BPSK (each such monomial counted twice, as if
    the pair belonged to two users) and {3: 2P, 4: P} for QPSK.

    The QPSK ``g_ug_total`` and the report's ``per_order_terms`` are built
    from this table and so inherit the published counts.
    """
    taud = tau_max + 1
    if taud < 2:
        raise ValueError("the term table assumes tau_max + 1 >= 2")
    c2 = math.comb(M, 2)
    cmt2 = math.comb(M * taud, 2)
    ct2 = math.comb(taud, 2)
    if modulation == PSK2:
        return {
            6: c2 * taud ** 2,
            5: 4 * c2 * taud ** 2,
            4: 4 * c2 * taud ** 2 + 2 * cmt2,
            3: 4 * cmt2 + M * taud,
            2: cmt2 + 2 * M * taud,
            1: M * taud,
        }
    if modulation == QPSK:
        return {
            4: 4 * c2 * taud ** 2 + M * ct2,
            3: 4 * c2 * taud ** 2 + 2 * M * ct2,
            2: cmt2 + 2 * M * taud,
            1: M * taud,
        }
    raise ValueError(f"unknown modulation {modulation!r}")


def g_prop(M: int, tau_max: int) -> int:
    """CX overhead of the one-hot initial state preparation."""
    return 3 * M * tau_max + math.ceil((tau_max + 1) / 2)


def g_ug_total(M: int, tau_max: int, q_v: int, modulation: str = PSK2) -> int:
    """Total CX count of the objective-encoding section of one A_y.

    The pi/2-BPSK value is the published closed form.  No closed form is
    published for QPSK; it is assembled from the per-order term counts and
    the per-gate costs, and reports label it accordingly.
    """
    taud = tau_max + 1
    if taud < 2:
        raise ValueError("the closed form assumes tau_max + 1 >= 2")
    if modulation == PSK2:
        return (304 * M ** 2 * taud ** 2 - 132 * M * taud ** 2 - 41 * M * taud) * q_v
    total = 0
    for order, count in table1_counts(M, tau_max, modulation).items():
        total += count * cku_g_costs(order)["CX"]
    return total * q_v


def build_report(M: int, tau_max: int, q_v: int, modulation: str = PSK2) -> dict:
    """One gate-count grid cell as the JSON object gate-count writes."""
    counts = table1_counts(M, tau_max, modulation)
    max_order = max(counts)
    g_ug = g_ug_total(M, tau_max, q_v, modulation)
    g_pr = g_prop(M, tau_max)
    return {
        "M": M, "tau_max": tau_max, "q_v": q_v, "modulation": modulation,
        "q_k": VarRegistry(modulation, M, tau_max + 1).q_k,
        "ancilla_max": max_order - 1,
        "per_order_terms": {str(k): v for k, v in sorted(counts.items())},
        "g_ug_cnot": g_ug,
        "g_prop_cnot": g_pr,
        "ratio": g_pr / g_ug,
        "per_gate_breakdown": cku_g_costs(max_order),
        "g_ug_source": "closed-form" if modulation == PSK2 else "assembled-from-term-table",
    }
