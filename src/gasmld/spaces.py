"""Vectorized enumeration of GAS search spaces.

A search space is the set of key assignments a state preparation can reach,
together with the objective value of every assignment.  Values factor per
user, so the full table is assembled by broadcasting per-user contribution
tables over the product space instead of looping over assignments.

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
class EnumeratedSpace:
    """Objective values over an enumerable search space.

    The sorted order is built on first use, by sampling: counting and the
    minimum read the value table directly, so spaces that are only counted
    (calibration) or minimized (the exhaustive detector) are never sorted.
    """

    reg: VarRegistry
    prep: str
    e_values: np.ndarray      # objective per state ordinal
    key_indices: np.ndarray   # big-endian key index per state ordinal, uint64

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """Ordinals sorted by objective value, ties in ordinal order, and the
        sorted values.

        Without ties the sorting permutation is unique, so the unstable
        default sort gives the stable one; only tied tables pay for the
        stable sort. hadamard-full spaces always tie and take it directly.
        The sorted values are the same under either sort.
        """
        if self.prep == HADAMARD_FULL:
            order = np.argsort(self.e_values, kind="stable")
            return order, self.e_values[order]
        order = np.argsort(self.e_values)
        e_sorted = self.e_values[order]
        if not np.all(e_sorted[1:] > e_sorted[:-1]):
            order = np.argsort(self.e_values, kind="stable")
        return order, e_sorted

    @property
    def order(self) -> np.ndarray:
        return self._sorted[0]

    @property
    def e_sorted(self) -> np.ndarray:
        return self._sorted[1]

    @property
    def n_states(self) -> int:
        return self.e_values.size

    def count_below(self, y: float) -> int:
        """Number of states with E(x) - y < 0 (strict)."""
        return int(np.count_nonzero(self.e_values < y))

    def min_value(self) -> float:
        return float(self.e_values.min())

    def sample_uniform(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.n_states))

    def assignment(self, ordinal) -> np.ndarray:
        """Decode a state ordinal, or an array of them, to 0/1 assignments in
        registry order (the last axis)."""
        return _decode(self.reg, self.key_indices, ordinal)

    def value_of(self, ordinal: int) -> float:
        return float(self.e_values[ordinal])

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


@dataclass
class SpaceStack:
    """The value tables of several slots over one enumeration.

    Row i of e_values is slot i's table.  The slots share the registry, the
    preparation and the key index of every ordinal, so an ordinal means the
    same assignment in every row and space(i) is slot i's EnumeratedSpace.
    """

    reg: VarRegistry
    prep: str
    e_values: np.ndarray      # (slots, states)
    key_indices: np.ndarray   # big-endian key index per state ordinal, uint64

    @property
    def n_states(self) -> int:
        return self.key_indices.size

    def space(self, i: int) -> EnumeratedSpace:
        return EnumeratedSpace(reg=self.reg, prep=self.prep, e_values=self.e_values[i],
                               key_indices=self.key_indices)

    @cached_property
    def one_hot(self) -> np.ndarray:
        return self.space(0).one_hot

    def assignment(self, ordinal) -> np.ndarray:
        return _decode(self.reg, self.key_indices, ordinal)


def _decode(reg: VarRegistry, key_indices: np.ndarray, ordinal) -> np.ndarray:
    shifts = np.arange(reg.q_k - 1, -1, -1, dtype=np.uint64)
    return ((key_indices[ordinal][..., None] >> shifts) & np.uint64(1)).astype(np.uint8)


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
    phases = np.array([delay_phases(inst, t, taud) for t in ts])   # (T, M, taud)

    n_bbits = 1 if cfg.modulation == PSK2 else 2
    bit_combos = np.array(np.meshgrid(*([[0, 1]] * n_bbits), indexing="ij"),
                          dtype=np.uint8).reshape(n_bbits, -1).T  # (2^n_bbits, n_bbits)
    # one symbol per combo and slot, (T, 2^n_bbits)
    sym = np.array([map_symbols(cfg.modulation, t, bit_combos.ravel()) for t in ts])

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


def from_channel(inst: ChannelInstance, r: np.ndarray, t: int, cfg: SystemConfig,
                 prep: str, reg: VarRegistry) -> EnumeratedSpace:
    """The space of slot t, received as r: channel_spaces for one slot."""
    return channel_spaces(inst, np.asarray(r)[None, :], [t], cfg, prep, reg).space(0)


def channel_ordinals(space: EnumeratedSpace | SpaceStack, b_bits: np.ndarray,
                     delays: np.ndarray) -> np.ndarray:
    """Ordinals, in a w-state-reduced channel space or stack of them, of
    payload bits b_bits (n, n_b) in registry order with user m at delay
    delays[:, m].

    from_channel lays a user's local choices out as b_index * taud + k,
    b_index the user's bits read most significant first; user 0 is the most
    significant digit.
    """
    reg = space.reg
    if space.prep != W_STATE_REDUCED:
        raise ValueError(f"ordinals by delay index need a {W_STATE_REDUCED} space, "
                         f"not {space.prep!r}")
    n_bbits = reg.n_b // reg.M
    delays = np.asarray(delays, dtype=np.int64)
    b = np.asarray(b_bits, dtype=np.int64).reshape(len(delays), reg.M, n_bbits)
    digits = (b @ (1 << np.arange(n_bbits - 1, -1, -1))) * reg.taud + delays
    return digits @ (reg.taud << n_bbits) ** np.arange(reg.M - 1, -1, -1)
