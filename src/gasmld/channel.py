"""Slot-level model of the overloaded random-access channel.

The received vector in slot t is r = H D s + sigma_v v + e, where D folds the
per-user integer delay and frequency deviation into a diagonal phase factor,
s maps payload bits onto pi/2-BPSK or QPSK symbols, and e is the aggregate
channel/frequency estimation error, modelled as additive complex Gaussian
noise with variance sigma_v^2 / (T_P * P_X).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import streams

PSK2 = "psk2"
QPSK = "qpsk"

_SQRT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class SystemConfig:
    N: int
    M: int
    tau_max: int
    modulation: str = PSK2
    T_P: int = 128
    T_D: int = 128
    P_X: float = 1.0
    snr_db: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise ValueError("antenna and user counts must be >= 1")
        if self.tau_max < 0:
            raise ValueError("tau_max must be >= 0")
        if self.modulation not in (PSK2, QPSK):
            raise ValueError(f"unknown modulation {self.modulation!r}")
        if self.T_P < 0 or self.T_D < 1:
            raise ValueError("T_P must be >= 0 and T_D >= 1")
        if self.P_X <= 0:
            raise ValueError("P_X must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def taud(self) -> int:
        return self.tau_max + 1

    @property
    def sigma_v(self) -> float:
        return 10.0 ** (-self.snr_db / 20.0)

    @property
    def sigma_v2(self) -> float:
        return 10.0 ** (-self.snr_db / 10.0)

    @property
    def est_err_var(self) -> float:
        # T_P = 0 is the ideal-estimation limit (no preamble error modelled)
        if self.T_P == 0:
            return 0.0
        return self.sigma_v2 / (self.T_P * self.P_X)

    @property
    def bits_per_slot(self) -> int:
        return self.M if self.modulation == PSK2 else 2 * self.M

    def with_snr(self, snr_db: float) -> "SystemConfig":
        return replace(self, snr_db=snr_db)


@dataclass(frozen=True)
class ChannelInstance:
    """One channel realization: coefficients H (N, M), frequency deviations
    f and integer delays per user (M,), or a stack of K of them with a
    leading instance axis, H (K, N, M), f and delays (K, M).  It holds no
    SNR, so one instance serves every point of an SNR sweep.

    Transmission and detection use the same H and f: estimation error enters
    only as the additive sqrt(est_err_var) e term of each received slot.
    """

    H: np.ndarray
    f: np.ndarray
    delays: np.ndarray

    def __getitem__(self, index) -> "ChannelInstance":
        """Row index of a stack: an instance for an int, a stack for a slice."""
        return ChannelInstance(H=self.H[index], f=self.f[index], delays=self.delays[index])


def generate_instance(cfg: SystemConfig, instance_id=0) -> ChannelInstance:
    """Draw one channel realization: coefficients, delays, frequency offsets.

    A sequence of ids draws their stack, row k bit for bit the instance of
    ids[k]: each id has its own stream (seed, CHANNEL, id).
    """
    ids = np.asarray(instance_id)
    shape = (cfg.N, cfg.M)
    parts, delays, f = [], [], []
    for rng in streams.substreams(cfg.seed, [(streams.CHANNEL, i) for i in ids.ravel().tolist()]):
        parts.append(rng.standard_normal((2, *shape)))  # every real part drawn first
        delays.append(rng.integers(0, cfg.tau_max + 1, size=cfg.M))
        f.append(rng.uniform(-1.0, 1.0, size=cfg.M))
    parts = np.array(parts).reshape(*ids.shape, 2, *shape)
    H = (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) * _SQRT_HALF   # CN(0, 1) entries
    return ChannelInstance(H=H, f=np.array(f).reshape(*ids.shape, cfg.M),
                           delays=np.array(delays, dtype=np.int64).reshape(*ids.shape, cfg.M))


# e^{j pi c / 2} (1+j)/sqrt(2) for the parity c = 0, 1
_PSK2_BASES = np.array([np.exp(1j * np.pi * c / 2.0) * (1.0 + 1.0j) * _SQRT_HALF for c in (0, 1)])


def psk2_base(t):
    """Constellation point for bit 0 in slot t, the one of parity c = t mod 2.

    t is a slot index or an array of them.
    """
    return _PSK2_BASES[t % 2]


def map_symbols(modulation: str, t, bits: np.ndarray) -> np.ndarray:
    """Bits -> symbols, M of them on the last axis.

    t is a slot index, or an array of them with one per row of bits (..., b).
    For pi/2-BPSK the parity bit is t mod 2. For QPSK bits are laid out
    (b_11, b_12, b_21, b_22, ...).
    """
    bits = np.asarray(bits)
    if modulation == PSK2:
        return psk2_base(t)[..., None] * (1.0 - 2.0 * bits.astype(float))
    b = bits.reshape(*bits.shape[:-1], -1, 2).astype(float)
    return ((1.0 - 2.0 * b[..., 0]) + 1j * (1.0 - 2.0 * b[..., 1])) * _SQRT_HALF


def slot_draws(cfg: SystemConfig, ts, *,
               instance_id) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Payload bits (T, bits_per_slot) and unit-variance noise v and
    estimation error e (T, N) of slots ts of one instance, or, for a
    sequence of ids, slot ts[i] of instance instance_id[i] in row i.

    Each purpose draws rows 0 .. max(ts) of an instance (0 .. ts[i] for
    row i of a sequence) in C order from the stream (seed, purpose,
    instance), a complex row as its real then imaginary parts, and slot t
    takes row t whatever else is drawn.  No key holds the SNR, so one draw
    serves every SNR point.
    """
    ts = np.asarray(ts, dtype=np.intp)
    if (ts < 0).any():
        raise ValueError("slot index must be >= 0")
    ids = np.asarray(instance_id)
    if ids.ndim == 0:
        groups = [(int(ids), int(ts.max(initial=-1)) + 1, ts)]
    elif ids.shape == ts.shape:
        # each row draws its own instance's rows 0 .. ts[i] and keeps the last;
        # no rows: zero rows of any instance give the arrays their shapes
        groups = [(i, t + 1, slice(t, t + 1))
                  for i, t in zip(ids.tolist(), ts.tolist())] or [(0, 0, ts)]
    else:
        raise ValueError(f"expected one instance id per slot, got {ids.shape} for {ts.shape}")
    purposes = (streams.PAYLOAD, streams.NOISE, streams.EST_ERR)
    rngs = streams.substreams(cfg.seed, [(purpose, i) for i, _, _ in groups
                                         for purpose in purposes])
    bits, v, e = [], [], []
    for _, rows, pick in groups:
        bits.append(next(rngs).integers(0, 2, size=(rows, cfg.bits_per_slot))[pick])
        for out in (v, e):
            out.append(next(rngs).standard_normal((rows, 2, cfg.N))[pick])
    bits, v, e = (np.concatenate(draws) for draws in (bits, v, e))
    return (bits.astype(np.uint8), (v[:, 0] + 1j * v[:, 1]) * _SQRT_HALF,
            (e[:, 0] + 1j * e[:, 1]) * _SQRT_HALF)


def received_slots(inst: ChannelInstance, cfg: SystemConfig, ts, bits, v, e) -> np.ndarray:
    """Received vectors r[i] = H D s + sigma_v v[i] + sqrt(est_err_var) e[i]
    of payload bits[i] in slot ts[i], shape (T, N); v and e are unit
    variance (slot_draws) and cfg gives sigma_v and est_err_var.  inst is
    one instance for every row, or a stack of T with row i under instance
    row i.

    The one slot model: a single slot is a one-row call.  Every float
    operation is the same per slot whatever the number of slots (H D s is
    one matrix-vector product per slot), so a row does not depend on the
    slots or instances computed with it.
    """
    ts = np.asarray(ts)
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (ts.size, cfg.bits_per_slot):
        raise ValueError(f"expected {ts.size} x {cfg.bits_per_slot} payload bits, "
                         f"got {bits.shape}")
    if (ts < 0).any():
        raise ValueError("slot index must be >= 0")
    s = map_symbols(cfg.modulation, ts, bits)
    d_phase = np.exp(1j * 2.0 * np.pi * inst.f * (ts[:, None] - inst.delays))
    hds = (inst.H @ (d_phase * s)[..., None])[..., 0]
    return hds + cfg.sigma_v * v + np.sqrt(cfg.est_err_var) * e


def delay_phases(f: np.ndarray, t, taud: int) -> np.ndarray:
    """Per-user phase factors e^{j 2 pi f (t - k)}, shape (M, taud) for a
    slot index t and (T, M, taud) for T of them, f (M,) or one row per slot.

    Column k is the factor multiplying the k-th delay indicator bit.
    """
    k, f = np.arange(taud), np.asarray(f)[..., None]
    return np.exp(1j * 2.0 * np.pi * f * (np.asarray(t)[..., None, None] - k))


def objective_direct(inst: ChannelInstance, r: np.ndarray, t: int, b, d) -> float:
    """Squared-residual objective || r - H D s ||_F^2.

    d is a flat (M * taud) 0/1 vector and need not be one-hot: D_m is the
    literal sum of the selected phase factors (zero when no bit is set).
    """
    d_len = np.asarray(d).size
    b = np.asarray(b)
    d = np.asarray(d, dtype=float)
    M = inst.H.shape[1]
    taud = d_len // M
    if M * taud != d_len:
        raise ValueError("delay bit vector length is not a multiple of M")
    D = np.sum(delay_phases(inst.f, t, taud) * d.reshape(M, taud), axis=1)
    modulation = PSK2 if b.size == M else QPSK
    s = map_symbols(modulation, t, b)
    resid = r - inst.H @ (D * s)
    return float(np.sum(np.abs(resid) ** 2))
