"""Slot-level model of the overloaded random-access channel.

The received vector in slot t is r = H D s + sigma_v v + e, where D folds the
per-user integer delay and frequency deviation into a diagonal phase factor,
s maps payload bits onto pi/2-BPSK or QPSK symbols, and e is the aggregate
channel/frequency estimation error, modelled as additive complex Gaussian
noise with variance sigma_v^2 / (T_P * P_X).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    seed: int
    instance_id: int
    H_true: np.ndarray
    H_est: np.ndarray
    f_true: np.ndarray
    f_est: np.ndarray
    delays: np.ndarray
    sigma_v: float
    est_err_var: float


@dataclass(frozen=True)
class ReceivedSlot:
    t: int
    r: np.ndarray
    b_true: np.ndarray = field(repr=False)


def _cn(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian CN(0, 1), i.i.d. entries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * _SQRT_HALF


def generate_instance(cfg: SystemConfig, instance_id: int = 0) -> ChannelInstance:
    """Draw one channel realization: coefficients, delays, frequency offsets.

    Detection-side knowledge carries no explicit estimate mismatch; the
    estimation error is realized per slot through the additive e vector.
    """
    rng = streams.substream(cfg.seed, streams.CHANNEL, instance_id)
    H = _cn(rng, (cfg.N, cfg.M))
    delays = rng.integers(0, cfg.tau_max + 1, size=cfg.M)
    f = rng.uniform(-1.0, 1.0, size=cfg.M)
    return ChannelInstance(
        seed=cfg.seed,
        instance_id=instance_id,
        H_true=H,
        H_est=H.copy(),
        f_true=f,
        f_est=f.copy(),
        delays=delays,
        sigma_v=cfg.sigma_v,
        est_err_var=cfg.est_err_var,
    )


def psk2_base(t: int) -> complex:
    """Constellation point for bit 0 in slot t: e^{j pi c / 2} (1+j)/sqrt(2)."""
    c = t % 2
    return np.exp(1j * np.pi * c / 2.0) * (1.0 + 1.0j) * _SQRT_HALF


def map_symbols(modulation: str, t: int, bits: np.ndarray, c_bits=None) -> np.ndarray:
    """Bits -> symbol vector of length M.

    For pi/2-BPSK the parity bit defaults to t mod 2 unless c_bits overrides
    it. For QPSK bits are laid out (b_11, b_12, b_21, b_22, ...).
    """
    bits = np.asarray(bits)
    if modulation == PSK2:
        if c_bits is None:
            phase = psk2_base(t)
            return phase * (1.0 - 2.0 * bits.astype(float))
        c = np.asarray(c_bits).astype(float)
        phase = np.exp(1j * np.pi * c / 2.0) * (1.0 + 1.0j) * _SQRT_HALF
        return phase * (1.0 - 2.0 * bits.astype(float))
    b = bits.reshape(-1, 2).astype(float)
    return ((1.0 - 2.0 * b[:, 0]) + 1j * (1.0 - 2.0 * b[:, 1])) * _SQRT_HALF


def noise_realization(inst: ChannelInstance, t: int):
    """Regenerate (v, e) for slot t from the seeded streams."""
    rng_v = streams.substream(inst.seed, streams.NOISE, inst.instance_id, t)
    rng_e = streams.substream(inst.seed, streams.EST_ERR, inst.instance_id, t)
    n = inst.H_true.shape[0]
    v = _cn(rng_v, n)
    e = np.sqrt(inst.est_err_var) * _cn(rng_e, n)
    return v, e


def random_payload_bits(cfg: SystemConfig, t: int, instance_id: int = 0) -> np.ndarray:
    rng = streams.substream(cfg.seed, streams.PAYLOAD, instance_id, t)
    return rng.integers(0, 2, size=cfg.bits_per_slot).astype(np.uint8)


def received_slot(inst: ChannelInstance, cfg: SystemConfig, t: int, b_true) -> ReceivedSlot:
    """Received vector r = H D s + sigma_v v + e for one payload slot."""
    b_true = np.asarray(b_true, dtype=np.uint8)
    if b_true.shape != (cfg.bits_per_slot,):
        raise ValueError(f"expected {cfg.bits_per_slot} payload bits, got {b_true.shape}")
    if t < 0:
        raise ValueError("slot index must be >= 0")
    s = map_symbols(cfg.modulation, t, b_true)
    d_phase = np.exp(1j * 2.0 * np.pi * inst.f_true * (t - inst.delays))
    v, e = noise_realization(inst, t)
    r = inst.H_true @ (d_phase * s) + inst.sigma_v * v + e
    return ReceivedSlot(t=t, r=r, b_true=b_true)


def delay_phases(inst: ChannelInstance, t: int, taud: int) -> np.ndarray:
    """Estimated per-user phase factors e^{j 2 pi f_hat (t - k)}, shape (M, taud).

    Column k is the factor multiplying the k-th delay indicator bit.
    """
    k = np.arange(taud)
    return np.exp(1j * 2.0 * np.pi * inst.f_est[:, None] * (t - k[None, :]))


def objective_direct(inst: ChannelInstance, r: np.ndarray, t: int, b, d, c=None) -> float:
    """Squared-residual objective || r - H_est D s ||_F^2.

    d is a flat (M * taud) 0/1 vector and need not be one-hot: D_m is the
    literal sum of the selected phase factors (zero when no bit is set).
    """
    d_len = np.asarray(d).size
    b = np.asarray(b)
    d = np.asarray(d, dtype=float)
    M = inst.H_est.shape[1]
    taud = d_len // M
    if M * taud != d_len:
        raise ValueError("delay bit vector length is not a multiple of M")
    D = np.sum(delay_phases(inst, t, taud) * d.reshape(M, taud), axis=1)
    modulation = PSK2 if b.size == M else QPSK
    s = map_symbols(modulation, t, b, c_bits=c)
    resid = r - inst.H_est @ (D * s)
    return float(np.sum(np.abs(resid) ** 2))
