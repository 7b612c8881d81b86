"""Vectorized enumeration of GAS search spaces.

A search space is the set of key assignments a state preparation can reach,
together with the objective value of every assignment.  Values factor per
user, so the full table is assembled by broadcasting per-user contribution
tables over the product space instead of looping over assignments.
channel_spaces is the one builder and SpaceStack the one space type: the
tables of many slots of one instance share one enumeration, and a single
slot is a stack of one row.  Both GAS engines search a stack's rows through
its one lazily built per-row sort.

Key index convention: registry variable i maps to bit weight 2^(q_k - 1 - i),
i.e. variable 0 is the most significant bit of the integer key index, the
key register's qubit order in the circuit (gas.CircuitBackend).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import PSK2, ChannelInstance, SystemConfig, delay_phases, map_symbols
from .errors import CapacityError
from .hubo import HADAMARD_FULL, W_STATE_REDUCED, VarRegistry

MAX_ENUMERABLE = 1 << 24


@dataclass
class SpaceStack:
    """The value tables of one or more slots over one enumeration, the one
    search-space type: a single slot is a one-row stack.

    Row i of e_values is slot i's table.  The slots share the registry, the
    preparation and the key index of every ordinal, so an ordinal means the
    same assignment in every row.  The per-row sorted order is built on first
    use: counting and the minimum read the value table directly, so stacks
    that are only counted (calibration) or minimized (the exhaustive
    detector) are never sorted.
    """

    reg: VarRegistry
    prep: str
    e_values: np.ndarray      # (slots, states)
    key_indices: np.ndarray   # big-endian key index per state ordinal, uint64

    @property
    def n_states(self) -> int:
        return self.key_indices.size

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, ordinals sorted by objective value, ties in ordinal
        order, and the sorted values.

        Without ties the sorting permutation is unique, so the unstable
        default sort gives the stable one; only tied rows pay for the stable
        sort. hadamard-full spaces always tie and take it directly. The
        sorted values are the same under either sort.
        """
        e = self.e_values
        stable = self.prep == HADAMARD_FULL
        order = np.argsort(e, axis=1, kind="stable" if stable else None)
        # a flat gather; np.take_along_axis takes 2-3x as long on one row
        e_sorted = e.ravel()[order + np.arange(0, e.size, e.shape[1])[:, None]]
        if not stable:
            tied = ~np.all(e_sorted[:, 1:] > e_sorted[:, :-1], axis=1)
            if tied.any():
                order[tied] = np.argsort(e[tied], axis=1, kind="stable")
        return order, e_sorted

    @property
    def order(self) -> np.ndarray:
        return self._sorted[0]

    @property
    def e_sorted(self) -> np.ndarray:
        return self._sorted[1]

    @cached_property
    def one_hot(self) -> np.ndarray:
        """Per ordinal, True when every delay block of its assignment is
        one-hot: always under w-state-reduced, decoded from the key index
        under hadamard-full."""
        ok = np.ones(self.n_states, dtype=bool)
        if self.prep == W_STATE_REDUCED:
            return ok
        reg, q = self.reg, self.reg.q_k
        for m in range(reg.M):
            hot = np.zeros(self.n_states, dtype=np.uint64)
            for k in range(reg.taud):
                hot += (self.key_indices >> np.uint64(q - 1 - reg.d_position(m, k))) & np.uint64(1)
            ok &= hot == 1
        return ok

    def assignment(self, ordinal) -> np.ndarray:
        """Decode a state ordinal, or an array of them, to 0/1 assignments in
        registry order (the last axis)."""
        shifts = np.arange(self.reg.q_k - 1, -1, -1, dtype=np.uint64)
        return ((self.key_indices[ordinal][..., None] >> shifts) & np.uint64(1)).astype(np.uint8)


def _key_weights(reg: VarRegistry) -> np.ndarray:
    q = reg.q_k
    return np.array([1 << (q - 1 - i) for i in range(q)], dtype=np.uint64)


def _broadcast_sum(parts: list[np.ndarray]) -> np.ndarray:
    """Sum per-user tables (slots, choices, *rest) over the product space
    of the choices, giving (slots, product of the choices, *rest)."""
    acc = parts[0]
    for p in parts[1:]:
        acc = acc[:, :, None] + p[:, None]
        acc = acc.reshape(acc.shape[0], -1, *acc.shape[3:])
    return acc


def channel_spaces(inst: ChannelInstance, r: np.ndarray, ts, cfg: SystemConfig,
                   prep: str, reg: VarRegistry) -> SpaceStack:
    """Build the spaces of slots ts, r[i] received in slot ts[i], directly
    from the matrix model (fast path).

    Per user the contribution to H D s is a small table over that user's
    local choices, built for every slot by one einsum; the objective over
    the whole product space follows by broadcasting.  Every float operation
    is the same per slot whatever the number of slots, so a row does not
    depend on the slots stacked with it.
    """
    if reg.n_c:
        raise ValueError("spaces are built for the solver path (parity fixed)")
    M, taud, N = cfg.M, cfg.taud, cfg.N
    weights = _key_weights(reg)
    ts = np.asarray(ts)
    phases = delay_phases(inst, ts, taud)                           # (T, M, taud)

    n_bbits = 1 if cfg.modulation == PSK2 else 2
    bit_combos = np.array(np.meshgrid(*([[0, 1]] * n_bbits), indexing="ij"),
                          dtype=np.uint8).reshape(n_bbits, -1).T  # (2^n_bbits, n_bbits)
    # one symbol per combo and slot, (T, 2^n_bbits)
    sym = map_symbols(cfg.modulation, ts, bit_combos.reshape(1, -1).repeat(ts.size, axis=0))

    contribs = []
    idx_parts = []
    for m in range(M):
        h = inst.H_est[:, m]
        if prep == W_STATE_REDUCED:
            d_factors = phases[:, m]                               # (T, taud)
            d_idx = weights[[reg.d_position(m, k) for k in range(taud)]]
        elif prep == HADAMARD_FULL:
            masks = np.arange(1 << taud, dtype=np.uint64)
            shifts = np.arange(taud, dtype=np.uint64)
            sel = ((masks[:, None] >> shifts[None, :]) & np.uint64(1)).astype(float)
            d_factors = np.stack([sel @ ph[m] for ph in phases])  # (T, 2^taud)
            d_idx = sel.astype(np.uint64) @ weights[[reg.d_position(m, k) for k in range(taud)]]
        else:
            raise ValueError(f"unknown preparation {prep!r}")
        b_idx = bit_combos.astype(np.uint64) @ weights[[reg.b_position(m, s) for s in range(n_bbits)]]
        local = np.einsum("tb,td,n->tbdn", sym, d_factors, h).reshape(len(phases), -1, N)
        local_idx = (b_idx[:, None] + d_idx[None, :]).reshape(-1)
        contribs.append(local)
        idx_parts.append(local_idx)

    n_total = 1
    for c in contribs:
        n_total *= c.shape[1]
    if n_total > MAX_ENUMERABLE:
        raise CapacityError(f"search space of {n_total} states exceeds {MAX_ENUMERABLE}")

    residual = np.asarray(r)[:, None, :] - _broadcast_sum(contribs)
    # summed column by column in antenna order: the same bits as a sum over
    # the antenna axis for N < 8, where numpy's pairwise reduction is still
    # sequential
    e = np.abs(residual[..., 0]) ** 2
    for n in range(1, N):
        e += np.abs(residual[..., n]) ** 2
    key_idx = _broadcast_sum([p[None, :] for p in idx_parts])[0]
    return SpaceStack(reg=reg, prep=prep, e_values=e, key_indices=key_idx)


def channel_ordinals(stack: SpaceStack, b_bits: np.ndarray,
                     delays: np.ndarray) -> np.ndarray:
    """Ordinals, in a w-state-reduced channel stack, of payload bits b_bits
    (n, n_b) in registry order with user m at delay delays[:, m].

    channel_spaces lays a user's local choices out as b_index * taud + k,
    b_index the user's bits read most significant first; user 0 is the most
    significant digit.
    """
    reg = stack.reg
    if stack.prep != W_STATE_REDUCED:
        raise ValueError(f"ordinals by delay index need a {W_STATE_REDUCED} space, "
                         f"not {stack.prep!r}")
    n_bbits = reg.n_b // reg.M
    delays = np.asarray(delays, dtype=np.int64)
    b = np.asarray(b_bits, dtype=np.int64).reshape(len(delays), reg.M, n_bbits)
    digits = (b @ (1 << np.arange(n_bbits - 1, -1, -1))) * reg.taud + delays
    return digits @ (reg.taud << n_bbits) ** np.arange(reg.M - 1, -1, -1)
