"""Initial thresholds for the adaptive search: MVD and MMSE.

The random threshold is the value of a uniform draw from the search space,
taken inside run_gas.

Under correct detection only noise and estimation error remain in the
residual, so the objective minimum is gamma distributed with integer shape N.
Inverting its survival function at a small exceedance probability P gives a
threshold that almost always sits just above the true minimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import PSK2, ChannelInstance, SystemConfig, delay_phases, psk2_base
from .spaces import EnumeratedSpace, channel_ordinals


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


def y_mvd(params: MvdParams) -> float:
    """Threshold with exceedance probability P: (1/lambda) Q^{-1}(N, P)."""
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


def mmse_estimates(inst: ChannelInstance, r: np.ndarray, t: int,
                   cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Linear MMSE symbol estimates under every delay combination.

    Returns the combinations (C, M), in itertools.product order, and the
    estimates s_hat (C, M), solved as one stack of N x N systems.
    """
    M, taud = cfg.M, cfg.taud
    phases = delay_phases(inst, t, taud)
    combos = np.array(list(itertools.product(range(taud), repeat=M)))
    A = inst.H_est[None, :, :] * phases[np.arange(M), combos][:, None, :]   # (C, N, M)
    A_h = A.conj().transpose(0, 2, 1)
    G = A @ A_h + inst.sigma_v ** 2 * np.eye(cfg.N)
    try:
        s_hat = A_h @ np.linalg.solve(G, r[:, None])
    except np.linalg.LinAlgError:
        s_hat = A_h @ (np.linalg.pinv(G) @ r[:, None])
    return combos, s_hat[..., 0]


def mmse_detect(inst: ChannelInstance, r: np.ndarray, t: int, cfg: SystemConfig,
                space: EnumeratedSpace) -> int:
    """Per-delay-combination linear MMSE with constellation quantization.

    Each delay combination gives one candidate, its estimates quantized to
    the nearest constellation point (boundary values go to bit 0, the +1
    symbol); the candidates are ranked by the space's values and the ordinal
    of the first lowest is returned.
    """
    combos, s_hat = mmse_estimates(inst, r, t, cfg)
    if cfg.modulation == PSK2:
        bits = np.real(np.conj(psk2_base(t)) * s_hat) < 0
    else:
        bits = np.stack([np.real(s_hat) < 0, np.imag(s_hat) < 0], axis=2).reshape(len(combos), -1)
    ordinals = channel_ordinals(space, bits, combos)
    return int(ordinals[np.argmin(space.e_values[ordinals])])
