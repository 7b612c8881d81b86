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


def _points(cfg: SystemConfig | list[SystemConfig]) -> list[SystemConfig]:
    """The SNR points of a config argument: one config, or a list of configs
    that differ only in their noise level."""
    return [cfg] if isinstance(cfg, SystemConfig) else list(cfg)


def mmse_estimates(inst: ChannelInstance, r: np.ndarray, ts,
                   cfg: SystemConfig | list[SystemConfig]) -> tuple[np.ndarray, np.ndarray]:
    """Linear MMSE symbol estimates under every delay combination, for slots
    ts at each SNR point of cfg, one config or a list of S that differ only
    in noise level (_points); r[s T + i] is received in slot ts[i] at point
    s, T = len(ts).

    Returns the combinations (C, M), in itertools.product order, and the
    estimates s_hat (S T, C, M).  The channel products A and A A^H are
    built once for every point, and the S T C regularized N x N systems are
    solved as one stack.  Should a system be exactly singular, its SNR
    point's whole stack takes the pseudo-inverse, and no other point does.
    """
    cfgs = _points(cfg)
    M, taud, N = cfgs[0].M, cfgs[0].taud, cfgs[0].N
    phases = delay_phases(inst.f, ts, taud)                                # (T, M, taud)
    combos = np.array(list(itertools.product(range(taud), repeat=M)))
    # C order, as one slot's stack is: matmul's bits depend on the memory layout
    factors = np.ascontiguousarray(phases[:, np.arange(M), combos])       # (T, C, M)
    A = inst.H * factors[:, :, None, :]                                # (T, C, N, M)
    A_h = A.conj().swapaxes(-1, -2)
    noise = np.array([c.sigma_v ** 2 for c in cfgs])[:, None, None, None, None]
    G = A @ A_h + noise * np.eye(N)                                    # (S, T, C, N, N)
    b = np.asarray(r).reshape(len(cfgs), -1, 1, N, 1)
    try:
        x = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        x = np.stack([_solve_point(g, bs) for g, bs in zip(G, b)])
    s_hat = A_h @ x
    return combos, s_hat[..., 0].reshape(-1, *s_hat.shape[2:4])


def _solve_point(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One SNR point's stack of systems, by the pseudo-inverse should any of
    them be exactly singular."""
    try:
        return np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(G) @ b


def mmse_detect(inst: ChannelInstance, r: np.ndarray, ts,
                cfg: SystemConfig | list[SystemConfig], stack: SpaceStack) -> np.ndarray:
    """Per-delay-combination linear MMSE with constellation quantization, for
    slots ts at each SNR point of cfg (mmse_estimates), r[i] valued by row i
    of stack: one call serves a whole SNR sweep.

    Each delay combination gives one candidate, its estimates quantized to
    the nearest constellation point (boundary values go to bit 0, the +1
    symbol); the candidates are ranked by the slot's table values and the
    ordinal of the first lowest is returned, one per row of r.
    """
    combos, s_hat = mmse_estimates(inst, r, ts, cfg)
    n_rows, n_combos = s_hat.shape[:2]
    if _points(cfg)[0].modulation == PSK2:
        base = np.tile(psk2_base(np.asarray(ts)), n_rows // len(ts))
        bits = np.real(np.conj(base)[:, None, None] * s_hat) < 0
    else:
        bits = np.stack([np.real(s_hat) < 0, np.imag(s_hat) < 0], axis=3)
    ordinals = channel_ordinals(stack, bits.reshape(n_rows * n_combos, -1),
                                np.tile(combos, (n_rows, 1))).reshape(n_rows, n_combos)
    values = np.take_along_axis(stack.e_values, ordinals, axis=1)
    return ordinals[np.arange(n_rows), values.argmin(axis=1)]
