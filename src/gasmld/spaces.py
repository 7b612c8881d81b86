"""Vectorized enumeration of GAS search spaces.

A search space is the set of key assignments a state preparation can reach,
together with the objective value of every assignment.  Values factor per
user, so the full table is assembled by broadcasting per-user contribution
tables over the product space, the full-table passes running along its long
axis, instead of looping over assignments.  channel_spaces is the one builder
and SpaceStack the one space type: the tables of many slots of one instance
share one enumeration and one read-only key-index table, and a single slot
is a stack of one row.  Both GAS engines search a stack's rows through its
one lazily built per-row sort.

The key layout is the VarRegistry: every user's payload bits b, then every
user's delay bits d, user-major.  Registry variable i maps to bit weight
2^(q_k - 1 - i), i.e. variable 0 is the most significant bit of the integer
key index, the key register's qubit order in the circuit (gas.CircuitBackend).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .channel import PSK2, ChannelInstance, SystemConfig, delay_phases, map_symbols
from .errors import CapacityError

HADAMARD_FULL = "hadamard-full"
W_STATE_REDUCED = "w-state-reduced"

MAX_ENUMERABLE = 1 << 24


@dataclass(frozen=True)
class VarRegistry:
    """Key-register layout: all payload bits b, then all one-hot delay bits d."""

    modulation: str
    M: int
    taud: int

    @property
    def n_b(self) -> int:
        return self.M if self.modulation == PSK2 else 2 * self.M

    @property
    def q_k(self) -> int:
        return self.n_b + self.M * self.taud

    def b_position(self, m: int, sub: int = 0) -> int:
        if self.modulation == PSK2:
            return m
        return 2 * m + sub

    def d_position(self, m: int, k: int) -> int:
        return self.n_b + m * self.taud + k

    def split_assignment(self, x: np.ndarray):
        """Return (b bits, d bits) views of a flat assignment."""
        x = np.asarray(x)
        return x[:self.n_b], x[self.n_b:]


def build_registry(cfg: SystemConfig) -> VarRegistry:
    return VarRegistry(cfg.modulation, cfg.M, cfg.taud)


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
    """Sum per-user tables (*lead, choices) over the product space of the
    choices, giving (*lead, product of the choices), user 0 most significant."""
    acc = parts[0]
    for p in parts[1:]:
        acc = (acc[..., :, None] + p[..., None, :]).reshape(*acc.shape[:-1], -1)
    return acc


def _local_choices(reg: VarRegistry, prep: str) -> tuple[np.ndarray, np.ndarray]:
    """One user's payload bits (2^n_bbits, n_bbits), most significant first,
    and delay choices (choices, taud), one-hot or (hadamard-full) all of them."""
    n_bbits = reg.n_b // reg.M
    bits = np.array(np.meshgrid(*([[0, 1]] * n_bbits), indexing="ij"),
                    dtype=np.uint8).reshape(n_bbits, -1).T
    if prep == W_STATE_REDUCED:
        return bits, np.eye(reg.taud, dtype=np.uint64)
    if prep == HADAMARD_FULL:
        masks = np.arange(1 << reg.taud, dtype=np.uint64)
        return bits, (masks[:, None] >> np.arange(reg.taud, dtype=np.uint64)) & np.uint64(1)
    raise ValueError(f"unknown preparation {prep!r}")


@cache
def _key_table(reg: VarRegistry, prep: str) -> np.ndarray:
    """Key index per state ordinal, read-only: it depends only on the
    registry and the preparation, so every stack of the pair shares it."""
    bits, sel = _local_choices(reg, prep)
    n_total = (len(bits) * len(sel)) ** reg.M
    if n_total > MAX_ENUMERABLE:
        raise CapacityError(f"search space of {n_total} states exceeds {MAX_ENUMERABLE}")
    w = _key_weights(reg)
    key = _broadcast_sum([
        ((bits.astype(np.uint64) @ w[[reg.b_position(m, s) for s in range(bits.shape[1])]])[:, None]
         + sel @ w[[reg.d_position(m, k) for k in range(reg.taud)]]).reshape(-1)
        for m in range(reg.M)])
    key.flags.writeable = False
    return key


def channel_spaces(inst: ChannelInstance, r: np.ndarray, ts, cfg: SystemConfig,
                   prep: str) -> SpaceStack:
    """Build the spaces of slots ts, r[i] received in slot ts[i], directly
    from the matrix model (fast path), keyed by build_registry(cfg).

    Per user the contribution to H D s is a small antenna-leading table
    (N, slots, choices), one einsum for all slots.  The users but the last
    are broadcast-summed into a prefix table; per antenna the full-table
    passes (the last add, r - total, abs()**2, the antenna sum) run on
    (slots, last choices, prefix), along the long prefix axis, and one
    transpose of the real table restores the ordinal order.  Each state
    still computes r - (((p0 + p1) + p2) + p3), its squared modulus and the
    sum in antenna order, so only the layout differs, not the bits; and no
    float operation depends on the number of slots, so neither does a row.
    """
    reg = build_registry(cfg)
    key_idx = _key_table(reg, prep)
    ts = np.asarray(ts)
    N, T = cfg.N, ts.size
    phases = delay_phases(inst, ts, cfg.taud)                       # (T, M, taud)
    bits, sel = _local_choices(reg, prep)
    # one symbol per bit choice and slot, (T, 2^n_bbits)
    sym = map_symbols(cfg.modulation, ts, bits.reshape(1, -1).repeat(T, axis=0))
    tables = []
    for m in range(cfg.M):
        if prep == W_STATE_REDUCED:
            d_factors = phases[:, m]                               # (T, taud)
        else:
            d_factors = np.stack([sel @ ph[m] for ph in phases])  # (T, 2^taud)
        local = np.einsum("tb,td,n->ntbd", sym, d_factors, inst.H[:, m], order="C")
        tables.append(local.reshape(N, T, -1))
    # the sum over no users is zero: a one-choice prefix when M = 1
    prefix = _broadcast_sum(tables[:-1]) if cfg.M > 1 else np.zeros((N, T, 1), complex)
    r = np.asarray(r)
    # one set of buffers for every antenna: fresh pages cost more than the sums
    shape = (T, tables[-1].shape[-1], prefix.shape[-1])            # (T, C_last, prefix)
    total, sq, e = np.empty(shape, complex), np.empty(shape), np.zeros(shape)
    for n in range(N):
        np.add(prefix[n][:, None, :], tables[-1][n][:, :, None], out=total)
        np.subtract(r[:, n, None, None], total, out=total)
        np.abs(total, out=sq)
        sq **= 2
        e += sq                                 # 0 + x is x: the sum in antenna order
    return SpaceStack(reg=reg, prep=prep, key_indices=key_idx,
                      e_values=e.transpose(0, 2, 1).reshape(T, key_idx.size))


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
