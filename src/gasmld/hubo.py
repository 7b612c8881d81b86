"""Expansion of the detection objective into a multilinear binary polynomial.

The squared residual || r - H D s ||_F^2 is expanded symbolically over the
payload bits b, optional parity bits c and one-hot delay bits d.  Products of
repeated variables are reduced with x^2 = x, the imaginary parts of collected
coefficients must cancel, and near-null monomials are pruned before circuit
synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import PSK2, ChannelInstance, SystemConfig, delay_phases, psk2_base

HADAMARD_FULL = "hadamard-full"
W_STATE_REDUCED = "w-state-reduced"

_IMAG_TOL = 1e-9
_PRUNE_REL = 1e-12


class Var(NamedTuple):
    kind: str  # "b", "c" or "d"
    m: int     # user index, 0-based
    sub: int   # bit index within the user: QPSK bit 0/1, or delay slot k


@dataclass(frozen=True)
class VarRegistry:
    """Canonical variable ordering: all b, then all c, then all d."""

    entries: tuple[Var, ...]
    modulation: str
    M: int
    taud: int

    @property
    def q_k(self) -> int:
        return len(self.entries)

    @property
    def n_b(self) -> int:
        return self.M if self.modulation == PSK2 else 2 * self.M

    @cached_property
    def n_c(self) -> int:
        return sum(1 for v in self.entries if v.kind == "c")

    def b_position(self, m: int, sub: int = 0) -> int:
        if self.modulation == PSK2:
            return m
        return 2 * m + sub

    def c_position(self, m: int) -> int:
        return self.n_b + m

    def d_position(self, m: int, k: int) -> int:
        return self.n_b + self.n_c + m * self.taud + k

    def split_assignment(self, x: np.ndarray):
        """Return (b bits, c bits or None, d bits) views of a flat assignment."""
        x = np.asarray(x)
        nb, nc = self.n_b, self.n_c
        c = x[nb:nb + nc] if nc else None
        return x[:nb], c, x[nb + nc:]


def build_registry(cfg: SystemConfig, include_c_as_variable: bool = False) -> VarRegistry:
    entries: list[Var] = []
    if cfg.modulation == PSK2:
        entries.extend(Var("b", m, 0) for m in range(cfg.M))
        if include_c_as_variable:
            entries.extend(Var("c", m, 0) for m in range(cfg.M))
    else:
        if include_c_as_variable:
            raise ValueError("parity bits exist only for pi/2-BPSK")
        entries.extend(Var("b", m, s) for m in range(cfg.M) for s in range(2))
    entries.extend(Var("d", m, k) for m in range(cfg.M) for k in range(cfg.taud))
    return VarRegistry(tuple(entries), cfg.modulation, cfg.M, cfg.taud)


@dataclass(frozen=True)
class HuboPolynomial:
    """Real multilinear polynomial: sum over terms coeff * prod x_i + constant."""

    n_vars: int
    constant: float
    terms: dict[tuple[int, ...], float] = field(repr=False)


def _pmul(p1: dict, p2: dict) -> dict:
    out: dict[frozenset, complex] = {}
    for s1, a1 in p1.items():
        for s2, a2 in p2.items():
            key = s1 | s2
            out[key] = out.get(key, 0.0) + a1 * a2
    return out


def _padd_scaled(acc: dict, p: dict, scale: complex) -> None:
    for s, a in p.items():
        acc[s] = acc.get(s, 0.0) + scale * a


def _symbol_poly(reg: VarRegistry, m: int, t: int, c_variable: bool) -> dict:
    """Symbol of user m as a complex polynomial in its bit variables."""
    base = (1.0 + 1.0j) * np.sqrt(0.5)
    if reg.modulation == PSK2:
        bkey = frozenset([reg.b_position(m)])
        if c_variable:
            ckey = frozenset([reg.c_position(m)])
            # e^{j pi c / 2} interpolates to 1 + (j - 1) c on binary c
            p = _pmul({frozenset(): 1.0, ckey: (1j - 1.0)},
                      {frozenset(): 1.0, bkey: -2.0})
            return {k: v * base for k, v in p.items()}
        phase = psk2_base(t)
        return {frozenset(): phase, bkey: -2.0 * phase}
    b0 = frozenset([reg.b_position(m, 0)])
    b1 = frozenset([reg.b_position(m, 1)])
    return {frozenset(): base, b0: -np.sqrt(2.0), b1: -1j * np.sqrt(2.0)}


def build_hubo(inst: ChannelInstance, r: np.ndarray, t: int, cfg: SystemConfig,
               include_c_as_variable: bool = False) -> tuple[HuboPolynomial, VarRegistry]:
    """Expand || r - H D s ||_F^2 into a HUBO over the registry variables."""
    reg = build_registry(cfg, include_c_as_variable)
    M, taud, N = cfg.M, cfg.taud, cfg.N

    phases = delay_phases(inst, t, taud)
    user_polys = []
    for m in range(M):
        d_poly = {frozenset([reg.d_position(m, k)]): phases[m, k] for k in range(taud)}
        user_polys.append(_pmul(d_poly, _symbol_poly(reg, m, t, include_c_as_variable)))

    total: dict[frozenset, complex] = {}
    for n in range(N):
        resid = {frozenset(): complex(r[n])}
        for m in range(M):
            _padd_scaled(resid, user_polys[m], -inst.H_est[n, m])
        conj = {s: np.conj(a) for s, a in resid.items()}
        _padd_scaled(total, _pmul(conj, resid), 1.0)

    max_abs = max(abs(a) for a in total.values())
    if not np.isfinite(max_abs):
        raise ValueError("non-finite coefficient in objective expansion")
    imag_worst = max(abs(a.imag) for a in total.values())
    if imag_worst > _IMAG_TOL * max(1.0, max_abs):
        raise ValueError(f"imaginary residue {imag_worst:g} exceeds tolerance")

    constant = float(total.pop(frozenset(), 0.0).real)
    cutoff = _PRUNE_REL * max_abs
    terms = {
        tuple(sorted(s)): float(a.real)
        for s, a in total.items()
        if abs(a.real) > cutoff
    }
    return HuboPolynomial(n_vars=reg.q_k, constant=constant, terms=terms), reg
