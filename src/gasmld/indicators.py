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
from .spaces import BELOW_ROWS, channel_below
from .thresholds import MvdParams, y_mvd

_ALPHA_NORM = 3.0 * math.sqrt(2.0)  # CN(0,1) magnitude at the 0.995 quantile
TIE_EXPONENT = 0.2


def indicator_c(H: np.ndarray):
    """Mean squared entry over the last two axes: a float for one channel,
    an array for a (k, N, M) stack."""
    n, m = H.shape[-2:]
    c = np.sum(np.abs(H) ** 2, axis=(-2, -1)) / (n * m)
    return float(c) if c.ndim == 0 else c


def channel_indicators(H: np.ndarray) -> dict[str, np.ndarray]:
    """C, C1 = alpha C, C2 = beta1 beta2 C and C' = alpha beta1 beta2 C for
    each channel of a (k, N, M) stack, as arrays of length k.

    alpha is the smallest singular value above 1e-12 over _ALPHA_NORM.
    beta1 and beta2 are minima over the C(M,2) user pairs (1 for one user).
    A pair enters through its column norm ratio and the argument of its
    column inner product, folded into [0, pi/2) by the constellation's
    rotational symmetry; for one antenna, the scalar norm ratio and phase
    difference.  The beta1 base can be negative for norm ratios above
    1/sqrt(2), so its absolute value takes the fractional power.  A pair of
    two zero columns is skipped.  Each pair's inner product is its own
    (1, N) @ (N, 1) product, equal to np.vdot where a Gram matmul is not.
    """
    C = indicator_c(H)
    sv = np.linalg.svd(H, compute_uv=False)
    sv_min = np.where(sv > 1e-12, sv, np.inf).min(axis=1)
    if (bad := np.flatnonzero(sv_min == np.inf)).size:
        raise ValueError(f"channel {bad[0]} has no singular value above 1e-12: alpha is undefined")
    alpha = sv_min / _ALPHA_NORM
    m = H.shape[2]
    i, j = np.nonzero(np.arange(m)[:, None] < np.arange(m))    # the pairs i < j
    radii = np.linalg.norm(H, axis=1)
    hi = np.maximum(radii[:, i], radii[:, j])
    used = hi > 1e-300
    ratio = np.minimum(radii[:, i], radii[:, j]) / np.where(used, hi, 1.0)
    cols = H.swapaxes(1, 2)
    inner = (np.conj(cols[:, j])[:, :, None, :] @ cols[:, i, :, None])[..., 0, 0]
    theta = np.fmod(np.angle(inner), 0.5 * math.pi) % (0.5 * math.pi)
    g = np.abs(4.0 * theta / math.pi - 1.0)
    bases = np.stack([np.abs((1.0 / math.sqrt(2.0) - ratio) * g), ratio * g])
    # Python float ** is libm pow, as numpy scalars take it; numpy's
    # vectorized ** differs from it in the last bit on some channels
    powers = np.array([b ** TIE_EXPONENT for b in bases.ravel().tolist()]).reshape(bases.shape)
    b1, b2 = np.where(used, [powers[0], 1.0 - powers[1]], 1.0).min(axis=2, initial=1.0)
    return {"c": C, "c1": alpha * C, "c2": b1 * b2 * C, "c_prime": alpha * b1 * b2 * C}


def indicator_c_prime(H: np.ndarray):
    """C' of channel_indicators: a float for one channel, an array for a
    (k, N, M) stack."""
    c = channel_indicators(H.reshape(-1, *H.shape[-2:]))["c_prime"]
    return float(c[0]) if H.ndim == 2 else c


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
    and the scatter, each indicator's values over the kept samples as an
    array.  The samples' instances and slots are drawn as one stack, row k
    sample id_offset + k; each sample's count is an np.bincount over
    channel_below's states below the threshold, BELOW_ROWS rows a call,
    whose values are the table's own, so the counts are exact; one
    channel_indicators call takes the kept channels.
    """
    y = y_mvd(MvdParams.from_config(cfg, P))
    n_states = 2 ** cfg.bits_per_slot * cfg.taud ** cfg.M    # of the w-state-reduced space
    ids, ts = range(id_offset, id_offset + n_samples), np.zeros(n_samples, dtype=np.intp)
    insts = generate_instance(cfg, ids)
    r = received_slots(insts, cfg, ts, *slot_draws(cfg, ts, instance_id=ids))
    ns = np.zeros(n_samples, dtype=np.int64)
    for k in range(0, n_samples, BELOW_ROWS):
        chunk = slice(k, k + BELOW_ROWS)
        rows = channel_below(insts[chunk], r[chunk], cfg, y)[0]
        ns[chunk] = np.bincount(rows, minlength=len(r[chunk]))
    kept = np.flatnonzero(ns)
    scatter = channel_indicators(insts.H[kept])
    l_vals = [l_opt(int(n), n_states) for n in ns[kept].tolist()]
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
