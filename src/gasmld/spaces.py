"""Vectorized enumeration of GAS search spaces.

A search space is the set of key assignments a state preparation can reach,
together with the objective value of every assignment.  Values factor per
user, so the full table is assembled by broadcasting per-user contribution
tables over the product space, the full-table passes running along its long
axis, instead of looping over assignments.  channel_spaces is the one builder
and SpaceStack the one space type: the tables of many slots of one instance
share one enumeration and one read-only key-index table, and a single slot
is a stack of one row.  Both GAS engines search a stack's rows through its
one lazily built per-row sort; channel_below finds the states below a
threshold without any table.

The key layout is the VarRegistry: every user's payload bits b, then every
user's delay bits d, user-major.  Registry variable i maps to bit weight
2^(q_k - 1 - i), i.e. variable 0 is the most significant bit of the integer
key index, the key register's qubit order in the circuit (gas.prepared_state).
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
# instance rows per channel_below call: candidate arrays of bounded size
BELOW_ROWS = 4


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
    use: the minimum reads the value table directly, so a stack that is only
    minimized (the exhaustive detector) is never sorted, and the states below
    a threshold are found without building a stack (channel_below).
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
        one-hot: always under w-state-reduced, where every stack of Nt
        states shares one read-only mask, and decoded from the key index
        under hadamard-full."""
        if self.prep == W_STATE_REDUCED:
            return _all_one_hot(self.n_states)
        ok = np.ones(self.n_states, dtype=bool)
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


@cache
def _all_one_hot(n_states: int) -> np.ndarray:
    ok = np.ones(n_states, dtype=bool)
    ok.flags.writeable = False
    return ok


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


@cache
def _local_choices(reg: VarRegistry, prep: str) -> tuple[np.ndarray, np.ndarray]:
    """One user's payload bits (2^n_bbits, n_bbits), most significant first,
    and delay choices (choices, taud), one-hot or (hadamard-full) all of them,
    read-only and shared; every table starts here, so a space above
    MAX_ENUMERABLE fails before any work."""
    n_bbits = reg.n_b // reg.M
    bits = np.array(np.meshgrid(*([[0, 1]] * n_bbits), indexing="ij"),
                    dtype=np.uint8).reshape(n_bbits, -1).T
    masks = np.arange(1 << reg.taud, dtype=np.uint64)
    sel = {W_STATE_REDUCED: np.eye(reg.taud, dtype=np.uint64),
           HADAMARD_FULL: (masks[:, None] >> np.arange(reg.taud, dtype=np.uint64)) & np.uint64(1)}
    if prep not in sel:
        raise ValueError(f"unknown preparation {prep!r}")
    n_total = (len(bits) * len(sel[prep])) ** reg.M
    if n_total > MAX_ENUMERABLE:
        raise CapacityError(f"search space of {n_total} states exceeds {MAX_ENUMERABLE}")
    bits.flags.writeable = sel[prep].flags.writeable = False
    return bits, sel[prep]


@cache
def _key_table(reg: VarRegistry, prep: str) -> np.ndarray:
    """Key index per state ordinal, read-only: it depends only on the
    registry and the preparation, so every stack of the pair shares it."""
    bits, sel = _local_choices(reg, prep)
    w = _key_weights(reg)
    key = _broadcast_sum([
        ((bits.astype(np.uint64) @ w[[reg.b_position(m, s) for s in range(bits.shape[1])]])[:, None]
         + sel @ w[[reg.d_position(m, k) for k in range(reg.taud)]]).reshape(-1)
        for m in range(reg.M)])
    key.flags.writeable = False
    return key


def _user_tables(H, f, ts: np.ndarray, cfg: SystemConfig, prep: str) -> list[np.ndarray]:
    """Per user, the contribution to H D s of each local choice (N, rows,
    choices), row i with channel H[i] (N, M), deviations f[i] and slot ts[i]."""
    bits, sel = _local_choices(build_registry(cfg), prep)
    phases = delay_phases(f, ts, cfg.taud)                          # (T, M, taud)
    # one symbol per bit choice and row, (T, 2^n_bbits)
    sym = map_symbols(cfg.modulation, ts, bits.reshape(1, -1).repeat(ts.size, axis=0))
    tables = []
    for m in range(cfg.M):
        if prep == W_STATE_REDUCED:
            d_factors = phases[:, m]                               # (T, taud)
        else:
            d_factors = np.stack([sel @ ph[m] for ph in phases])  # (T, 2^taud)
        local = np.einsum("tb,td,tn->ntbd", sym, d_factors, H[:, :, m], order="C")
        tables.append(local.reshape(cfg.N, ts.size, -1))
    return tables


def channel_spaces(inst: ChannelInstance, r: np.ndarray, ts, cfg: SystemConfig,
                   prep: str) -> SpaceStack:
    """Build the spaces of slots ts, r[i] received in slot ts[i], directly
    from the matrix model (fast path), keyed by build_registry(cfg).

    Per user the contribution to H D s is a small antenna-leading table
    (N, slots, choices) from _user_tables.  The users but the last are
    broadcast-summed into a prefix table; per antenna the full-table
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
    tables = _user_tables(np.broadcast_to(inst.H, (T, *inst.H.shape)), inst.f, ts, cfg, prep)
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


def channel_keys(cfg: SystemConfig, prep: str) -> SpaceStack:
    """The stack of no rows over cfg's space under prep: its registry, key
    table and one-hot validity without any value table, the space of a
    search that holds only the values it reads (gas.Backend's prefix)."""
    reg = build_registry(cfg)
    key_idx = _key_table(reg, prep)
    return SpaceStack(reg=reg, prep=prep, key_indices=key_idx,
                      e_values=np.empty((0, key_idx.size)))


def channel_below(insts: ChannelInstance, r: np.ndarray, cfg: SystemConfig,
                  y: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states below y of each row of the instance stack insts: their
    rows, ordinals and values as three flat arrays, unsorted.  Row i's
    space is its w-state-reduced space at slot 0, r[i] received.

    A meet in the middle, the sphere-decoding question of Fincke and Pohst
    (1985) over the whole space: users 0 .. M//2 - 1 sum to A
    (channel_spaces' prefix adds), the others to B, and state (a, b) is
    ordinal a n_B + b.  A pair is a candidate only if each component of
    r - A[a] - B[b] lies within R = sqrt(y) + margin, antenna 0's real part
    found by a sorted search over B.  Candidates are evaluated with
    channel_spaces' operations in its order, so each value is the table's,
    bit for bit.  The candidate arrays grow with the rows and with y, so
    callers pass at most BELOW_ROWS rows a call.

    Rounding: with u = 2^-53 and S = max over antennas of |r_n| plus the sum
    over users of max |table|, either grouping's component lies within about
    M u S of the exact one, and E < y gives |component| < sqrt(y) (1 + 3u) +
    2^-537 (hypot is faithful, the antenna sum monotone, squares may be
    subnormal).  margin = 8 (M + 2) u (S + sqrt(y)) + 2^-536 covers both.
    """
    K, N, M, h = len(insts.H), cfg.N, cfg.M, cfg.M // 2
    tables = _user_tables(insts.H, insts.f, np.zeros(K, dtype=int), cfg, W_STATE_REDUCED)
    A = _broadcast_sum(tables[:h]) if h else np.zeros((N, K, 1), complex)
    B = _broadcast_sum(tables[h:])
    n_a, n_b, r = A.shape[2], B.shape[2], np.asarray(r)
    scale = (np.abs(r).T + sum(np.abs(t).max(axis=2) for t in tables)).max(axis=0)
    root = np.sqrt(max(y, 0.0))
    radius = root + 4 * (M + 2) * np.finfo(float).eps * (scale + root) + 2.0 ** -536
    # re/im of r - A[a] and of B[b], (N, 2, K n_a) and (N, 2, K n_b)
    rest, parts_b = (np.stack([x.real, x.imag], axis=1)
                     for x in ((r.T[:, :, None] - A).reshape(N, -1), B.reshape(N, -1)))
    order = np.argsort(B[0].real, axis=1) + n_b * np.arange(K)[:, None]   # k n_b + b
    v, u = parts_b[0, 0][order], rest[0, 0].reshape(K, n_a)
    lo = np.concatenate([np.searchsorted(v[k], u[k] - radius[k]) + k * n_b for k in range(K)])
    width = np.concatenate([np.searchsorted(v[k], u[k] + radius[k], "right") + k * n_b
                            for k in range(K)]) - lo
    flat = np.repeat(np.arange(K * n_a), width)                     # k n_a + a
    fb = order.ravel()[np.arange(flat.size) - np.repeat(np.cumsum(width) - width - lo, width)]
    for n, part in list(np.ndindex(N, 2))[1:]:
        keep = np.abs(rest[n, part][flat] - parts_b[n, part][fb]) <= radius[flat // n_a]
        flat, fb = flat[keep], fb[keep]
    row, a, b, C, e = flat // n_a, flat % n_a, fb % n_b, tables[0].shape[2], 0.0
    for n in range(N):
        total = A[n, row, a]
        for m in range(h, M):
            total = total + tables[m][n, row, b // C ** (M - 1 - m) % C]
        e = e + np.abs(r[row, n] - total) ** 2
    below = e < y
    return row[below], a[below] * n_b + b[below], e[below]


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
