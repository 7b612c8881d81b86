"""Channel indicators predicting the useful Grover-rotation count.

The Frobenius-norm indicator C is refined by the smallest singular value
(factor alpha) and by pairwise tie proximity (factors beta1, beta2): channel
pairs whose norm ratio and folded phase difference approach the geometries
where two transmit hypotheses collide produce many near-minimal objective
values, which calls for fewer rotations.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .channel import SystemConfig, generate_instance, received_slots, slot_draws
from .gas import l_opt
from .spaces import channel_counts
from .thresholds import MvdParams, y_mvd

_ALPHA_NORM = 3.0 * math.sqrt(2.0)  # CN(0,1) magnitude at the 0.995 quantile
TIE_EXPONENT = 0.2
_CHUNK = 4  # samples per channel_counts call: small candidate arrays


def indicator_c(H_est: np.ndarray) -> float:
    n, m = H_est.shape
    return float(np.sum(np.abs(H_est) ** 2) / (n * m))


def _alpha(H_est: np.ndarray) -> float:
    sv = np.linalg.svd(H_est, compute_uv=False)
    sv = sv[sv > 1e-12]
    return float(sv.min() / _ALPHA_NORM)


def _pair_betas(H_est: np.ndarray):
    """Minimum beta1 and beta2 over the C(M,2) user pairs.

    Each user's channel column enters through its norm; the pair's phase
    difference is the argument of the column inner product, folded into
    [0, pi/2) by the constellation's rotational symmetry.  For a single
    antenna this is exactly the scalar norm-ratio / phase-difference pair.
    The beta1 base can be negative for norm ratios above 1/sqrt(2), so its
    absolute value is taken before the fractional power.
    """
    m = H_est.shape[1]
    radii = np.linalg.norm(H_est, axis=0)
    beta1_min = 1.0
    beta2_min = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            ri, rj = radii[i], radii[j]
            if ri > rj:
                ri, rj = rj, ri
            if rj <= 1e-300:
                continue
            ratio = ri / rj
            theta = math.fmod(float(np.angle(np.vdot(H_est[:, j], H_est[:, i]))),
                              0.5 * math.pi) % (0.5 * math.pi)
            g = abs(4.0 * theta / math.pi - 1.0)
            beta1 = abs((1.0 / math.sqrt(2.0) - ratio) * g) ** TIE_EXPONENT
            beta2 = 1.0 - (ratio * g) ** TIE_EXPONENT
            beta1_min = min(beta1_min, beta1)
            beta2_min = min(beta2_min, beta2)
    return beta1_min, beta2_min


def indicator_c_prime(H_est: np.ndarray) -> float:
    C = indicator_c(H_est)
    b1, b2 = _pair_betas(H_est)
    return _alpha(H_est) * b1 * b2 * C


def all_indicators(H_est: np.ndarray) -> dict[str, float]:
    C = indicator_c(H_est)
    al = _alpha(H_est)
    b1, b2 = _pair_betas(H_est)
    return {"c": C, "c1": al * C, "c2": b1 * b2 * C, "c_prime": al * b1 * b2 * C}


@dataclass
class CalibrationTable:
    """Empirical (C', L_opt) samples driving the rotation lower bound."""

    c_prime: np.ndarray
    l_opt: np.ndarray
    c_prime_max: float
    delta: float

    @staticmethod
    def from_samples(c_values, l_values) -> "CalibrationTable":
        c = np.asarray(c_values, dtype=float)
        lo = np.asarray(l_values, dtype=int)
        if c.size == 0:
            raise ValueError("calibration produced no usable samples")
        cmax = float(c.max())
        return CalibrationTable(c_prime=c, l_opt=lo, c_prime_max=cmax, delta=0.01 * cmax)

    def save(self, csv_path, cfg_hash: str = "") -> None:
        path = Path(csv_path)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["c_prime", "l_opt"])
            for c, lo in zip(self.c_prime, self.l_opt):
                w.writerow([f"{c:.17g}", int(lo)])
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        sidecar.write_text(json.dumps({
            "c_prime_max": self.c_prime_max,
            "delta": self.delta,
            "cfg_hash": cfg_hash,
        }))


def config_hash(cfg: SystemConfig, n_samples: int, P: float) -> str:
    """Digest of everything a calibration depends on: the whole system
    config, seed included, the sample count and the MVD exceedance P."""
    payload = json.dumps({**asdict(cfg), "samples": n_samples, "P": P},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def calibrate(cfg: SystemConfig, n_samples: int, P: float = 1e-3, id_offset: int = 0):
    """Sample (indicator, L_opt) pairs at slot t = 0.

    L_opt comes from the exhaustive count of states below the MVD threshold;
    samples where the threshold undercuts the true minimum carry no marked
    state and are excluded.  id_offset keeps calibration instances disjoint
    from experiment trials drawn from the same seed.  Returns the C' table
    and the scatter, each indicator's values over the kept samples.  Each
    sample draws its own instance and slot; channel_counts counts _CHUNK of
    them at a time with the value table's own operations, so exactly.
    """
    y = y_mvd(MvdParams.from_config(cfg, P))
    n_states = 2 ** cfg.bits_per_slot * cfg.taud ** cfg.M    # of the w-state-reduced space
    l_vals = []
    scatter = {"c": [], "c1": [], "c2": [], "c_prime": []}
    for start in range(id_offset, id_offset + n_samples, _CHUNK):
        chunk = range(start, min(start + _CHUNK, id_offset + n_samples))
        insts = [generate_instance(cfg, instance_id=idx) for idx in chunk]
        r = np.concatenate([received_slots(inst, cfg, [0], *slot_draws(cfg, [0], instance_id=i))
                            for inst, i in zip(insts, chunk)])
        for inst, ns in zip(insts, channel_counts(insts, r, cfg, y)):
            if ns == 0:
                continue
            for key, value in all_indicators(inst.H).items():
                scatter[key].append(value)
            l_vals.append(l_opt(int(ns), n_states))
    return CalibrationTable.from_samples(scatter["c_prime"], l_vals), scatter


def select_lmin(table: CalibrationTable, c_prime: float) -> int:
    """Minimum observed L_opt whose C' lies in the +-delta window.

    An empty window widens delta by doubling; returning zero would silently
    turn the lower bound off.
    """
    if table.c_prime.size == 0:
        raise ValueError("empty calibration table")
    delta = table.delta
    for _ in range(80):
        lo = max(0.0, c_prime - delta)
        hi = min(c_prime + delta, table.c_prime_max)
        mask = (table.c_prime >= lo) & (table.c_prime <= hi)
        if mask.any():
            return int(table.l_opt[mask].min())
        delta *= 2.0
    return int(table.l_opt.min())


def select_lmin_conventional(C: float) -> int:
    if C < 0.7:
        return 5
    if C < 1.1:
        return 6
    if C < 1.3:
        return 8
    return 12
