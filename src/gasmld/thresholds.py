"""Initial thresholds for the adaptive search: MVD and MMSE.

The random threshold is the value of a uniform draw from the search space,
a run's uniform start, taken inside both GAS engines (run_gas and
run_gas_batch).

Under correct detection only noise and estimation error remain in the
residual, so the objective minimum is gamma distributed with integer shape N.
Inverting its survival function at a small exceedance probability P gives a
threshold that almost always sits just above the true minimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import PSK2, ChannelInstance, SystemConfig, delay_phases, psk2_base
from .spaces import SpaceStack, channel_ordinals


def mvd_rate(sigma_v2: float, tp_px: float) -> float:
    """Gamma rate of the per-antenna residual power sigma_v^2 (1 + 1/(T_P P_X)).

    sigma_v v_n and e_n are independent complex Gaussians, so their variances
    add; the amplitude-level combination (sqrt(T_P P_X)/(sqrt(T_P P_X)+1))^2 /
    sigma_v^2 is a conservative bound, not the distribution, and fails the
    distributional check this module is validated against.
    """
    if tp_px <= 0:
        return 1.0 / sigma_v2
    return 1.0 / (sigma_v2 * (1.0 + 1.0 / tp_px))


@dataclass(frozen=True)
class MvdParams:
    N: int
    lambda_v: float
    P: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0.0 < self.P < 1.0:
            raise ValueError("P must lie in (0, 1)")
        if self.P < 1e-12:
            raise ValueError("P below 1e-12 drives the threshold to infinity")
        if self.lambda_v <= 0:
            raise ValueError("rate must be positive")

    @staticmethod
    def from_config(cfg: SystemConfig, P: float) -> "MvdParams":
        return MvdParams(N=cfg.N, lambda_v=mvd_rate(cfg.sigma_v2, cfg.T_P * cfg.P_X), P=P)


def regularized_gamma_q(N: int, x: float) -> float:
    """Q(N, x) = e^-x sum_{n<N} x^n / n!, the integer-shape survival function."""
    if N < 1:
        raise ValueError("shape must be a positive integer")
    if x < 0:
        raise ValueError("x must be >= 0")
    term = 1.0
    total = 1.0
    for n in range(1, N):
        term *= x / n
        total += term
    return math.exp(-x) * total


@lru_cache(maxsize=64)
def y_mvd(params: MvdParams) -> float:
    """Threshold with exceedance probability P: (1/lambda) Q^{-1}(N, P).

    Memoized on params: an experiment asks for the same few thresholds once
    per call or SNR point, and each costs a bisection.
    """
    if params.N == 1:
        return -math.log(params.P) / params.lambda_v
    lo, hi = 0.0, 1.0
    while regularized_gamma_q(params.N, hi) > params.P:
        hi *= 2.0
    # Q is strictly decreasing, so plain bisection cannot fail
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        q = regularized_gamma_q(params.N, mid)
        if abs(q - params.P) <= 1e-12:
            return mid / params.lambda_v
        if q > params.P:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / params.lambda_v


def mmse_estimates(inst: ChannelInstance, r: np.ndarray, ts,
                   cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Linear MMSE symbol estimates under every delay combination, for slots
    ts, r[i] received in slot ts[i].

    Returns the combinations (C, M), in itertools.product order, and the
    estimates s_hat (T, C, M), solved as one stack of N x N systems.  Should
    a system be exactly singular, the whole stack takes the pseudo-inverse.
    """
    M, taud = cfg.M, cfg.taud
    phases = delay_phases(inst.f, ts, taud)                                # (T, M, taud)
    combos = np.array(list(itertools.product(range(taud), repeat=M)))
    # C order, as one slot's stack is: matmul's bits depend on the memory layout
    factors = np.ascontiguousarray(phases[:, np.arange(M), combos])       # (T, C, M)
    A = inst.H * factors[:, :, None, :]                                # (T, C, N, M)
    A_h = A.conj().swapaxes(-1, -2)
    G = A @ A_h + cfg.sigma_v ** 2 * np.eye(cfg.N)
    b = np.asarray(r)[:, None, :, None]
    try:
        s_hat = A_h @ np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        s_hat = A_h @ (np.linalg.pinv(G) @ b)
    return combos, s_hat[..., 0]


def mmse_detect(inst: ChannelInstance, r: np.ndarray, ts, cfg: SystemConfig,
                stack: SpaceStack) -> np.ndarray:
    """Per-delay-combination linear MMSE with constellation quantization, for
    slots ts, r[i] received in slot ts[i] and valued by row i of stack.

    Each delay combination gives one candidate, its estimates quantized to
    the nearest constellation point (boundary values go to bit 0, the +1
    symbol); the candidates are ranked by the slot's table values and the
    ordinal of the first lowest is returned, one per slot.
    """
    combos, s_hat = mmse_estimates(inst, r, ts, cfg)
    n_slots, n_combos = s_hat.shape[:2]
    if cfg.modulation == PSK2:
        base = psk2_base(np.asarray(ts))
        bits = np.real(np.conj(base)[:, None, None] * s_hat) < 0
    else:
        bits = np.stack([np.real(s_hat) < 0, np.imag(s_hat) < 0], axis=3)
    ordinals = channel_ordinals(stack, bits.reshape(n_slots * n_combos, -1),
                                np.tile(combos, (n_slots, 1))).reshape(n_slots, n_combos)
    values = np.take_along_axis(stack.e_values, ordinals, axis=1)
    return ordinals[np.arange(n_slots), values.argmin(axis=1)]
