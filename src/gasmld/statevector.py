"""Dense statevector simulation of the GAS circuit at unitary-block level.

No experiment runs it: gas.CircuitBackend samples the same circuit from its
exact two-dimensional Grover law, this simulator is that backend's test
oracle, and solve --dump-state writes its prepared state.  The value-register
rules both share (value_scale, check_value_range, choose_qv) live here.

Qubit layout: key register first (one qubit per registry variable, variable 0
is the most significant bit of the key index), then the value register whose
most significant bit is the two's-complement sign qubit targeted by the
oracle.  The state is held as a (2^q_k, 2^q_v) matrix of amplitudes.

The objective encoding applies, per monomial with coefficient a, the phase
ladder Rz(2^{q_v-1} theta) x ... x Rz(2^0 theta) with theta = 2 pi a / 2^q_v
controlled on the monomial's key bits; collectively this is the diagonal
phase exp(j Theta(x) (v - (2^q_v - 1)/2)) with Theta(x) = 2 pi (E(x) - y) /
2^q_v, followed by an inverse QFT on the value register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .hubo import HADAMARD_FULL, W_STATE_REDUCED, HuboPolynomial, VarRegistry
from .spaces import poly_values_over_keys

MAX_QUBITS = 26
_SQRT_HALF = math.sqrt(0.5)


@dataclass
class StateVector:
    amps: np.ndarray  # flat, length 2^(q_k + q_v)
    q_k: int
    q_v: int

    @property
    def q(self) -> int:
        return self.q_k + self.q_v

    def matrix(self) -> np.ndarray:
        return self.amps.reshape(1 << self.q_k, 1 << self.q_v)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def key_marginal(self) -> np.ndarray:
        return np.sum(np.abs(self.matrix()) ** 2, axis=1)

    def dump(self, path) -> None:
        """Little-endian float64 interleaved re/im."""
        inter = np.empty(2 * self.amps.size)
        inter[0::2] = self.amps.real
        inter[1::2] = self.amps.imag
        inter.astype("<f8").tofile(path)


def w_cascade_angles(n: int) -> list[float]:
    """Angles that make the cascade exactly uniform,
    theta_i = 2 arcsin(sqrt((n - i) / (n + 1 - i))) for i = 1 .. n-1.

    The printed schedule takes 2 arctan of the same fraction; tan and sin of
    the half-angle differ, and only the arcsin form yields amplitude
    1/sqrt(n) on every weight-1 state, which the preparation below requires.
    """
    if n < 2:
        raise ValueError("cascade needs at least two qubits")
    return [2.0 * math.asin(math.sqrt((n - i) / (n + 1 - i))) for i in range(1, n)]


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def _embed(U: np.ndarray, targets: list[int], n: int) -> np.ndarray:
    """Expand a small gate matrix to the full 2^n space (n is small here)."""
    k = len(targets)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    rest = [q for q in range(n) if q not in targets]
    for col in range(1 << n):
        tbits = sum(((col >> (n - 1 - targets[j])) & 1) << (k - 1 - j) for j in range(k))
        base = col
        for j in range(k):
            base &= ~(1 << (n - 1 - targets[j]))
        for tout in range(1 << k):
            a = U[tout, tbits]
            if a == 0:
                continue
            row = base
            for j in range(k):
                if (tout >> (k - 1 - j)) & 1:
                    row |= 1 << (n - 1 - targets[j])
            full[row, col] += a
    return full


def w_block_unitary(n: int) -> np.ndarray:
    """Unitary of the cascade X - CRy - CX that maps |0..0> to the uniform
    weight-1 superposition on n qubits."""
    if n == 1:
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    dim = 1 << n
    U = _embed(np.array([[0, 1], [1, 0]], dtype=complex), [0], n)
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    for i, theta in enumerate(w_cascade_angles(n)):
        cry = np.eye(4, dtype=complex)
        cry[2:, 2:] = _ry(theta)
        U = _embed(cry, [i, i + 1], n) @ U
        U = _embed(cx, [i + 1, i], n) @ U
    assert U.shape == (dim, dim)
    return U


def _hadamard_on_key_bit(mat: np.ndarray, bit: int) -> None:
    view = mat.reshape(1 << bit, 2, -1)
    a = view[:, 0, :].copy()
    b = view[:, 1, :]
    view[:, 0, :] = (a + b) * _SQRT_HALF
    view[:, 1, :] = (a - b) * _SQRT_HALF


def _apply_block_on_key(mat: np.ndarray, U: np.ndarray, first: int, nbits: int) -> np.ndarray:
    """Apply a 2^nbits unitary on contiguous key qubits [first, first+nbits)."""
    view = mat.reshape(1 << first, 1 << nbits, -1)
    out = np.einsum("ij,ajb->aib", U, view)
    return out.reshape(mat.shape)


def _value_hadamard(mat: np.ndarray, q_v: int) -> None:
    if q_v == 0:
        return
    k = mat.shape[0]
    for bit in range(q_v):
        view = mat.reshape(k << bit, 2, -1)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = (a + b) * _SQRT_HALF
        view[:, 1, :] = (a - b) * _SQRT_HALF


class Preparation:
    """Initial-state operator on the key register plus value Hadamards."""

    def __init__(self, prep: str, reg: VarRegistry):
        if prep not in (HADAMARD_FULL, W_STATE_REDUCED):
            raise ValueError(f"unknown preparation {prep!r}")
        if reg.n_c:
            raise ValueError("parity bits are folded into coefficients, not prepared")
        self.prep = prep
        self.reg = reg
        self._w_block = w_block_unitary(reg.taud) if prep == W_STATE_REDUCED else None

    def apply(self, mat: np.ndarray, q_v: int, dagger: bool = False) -> np.ndarray:
        reg = self.reg
        if self.prep == HADAMARD_FULL:
            for bit in range(reg.q_k):
                _hadamard_on_key_bit(mat, bit)
        else:
            for bit in range(reg.n_b):
                _hadamard_on_key_bit(mat, bit)
            W = self._w_block.T if dagger else self._w_block
            for m in range(reg.M):
                first = reg.d_position(m, 0)
                mat = _apply_block_on_key(mat, W, first, reg.taud)
        _value_hadamard(mat, q_v)
        return mat


def prepare_initial(prep: str, reg: VarRegistry, q_v: int) -> StateVector:
    """A_y's state preparation applied to |0...0>."""
    _check_capacity(reg.q_k, q_v)
    mat = np.zeros((1 << reg.q_k, 1 << q_v), dtype=complex)
    mat[0, 0] = 1.0
    mat = Preparation(prep, reg).apply(mat, q_v)
    return StateVector(mat.reshape(-1), reg.q_k, q_v)


def _check_capacity(q_k: int, q_v: int) -> None:
    if q_k + q_v > MAX_QUBITS:
        raise CapacityError(f"{q_k + q_v} qubits exceed the dense-simulation guard "
                            f"of {MAX_QUBITS}")


def _phase_table(e_vec: np.ndarray, y: float, q_v: int) -> np.ndarray:
    theta = 2.0 * np.pi * (e_vec - y) / (1 << q_v)
    v = np.arange(1 << q_v) - ((1 << q_v) - 1) / 2.0
    return np.exp(1j * np.outer(theta, v))


def _apply_encoding(mat: np.ndarray, e_vec: np.ndarray, y: float, q_v: int) -> np.ndarray:
    mat *= _phase_table(e_vec, y, q_v)
    return np.fft.fft(mat, axis=1) / math.sqrt(1 << q_v)


def _apply_encoding_dagger(mat: np.ndarray, e_vec: np.ndarray, y: float, q_v: int) -> np.ndarray:
    mat = np.fft.ifft(mat, axis=1) * math.sqrt(1 << q_v)
    mat *= np.conj(_phase_table(e_vec, y, q_v))
    return mat


def check_value_range(e_vec: np.ndarray, y: float, q_v: int, support=None) -> None:
    """Two's-complement range requirement on E(x) - y over the support."""
    vals = e_vec if support is None else e_vec[support]
    half = 1 << (q_v - 1)
    lo, hi = float(np.min(vals)) - y, float(np.max(vals)) - y
    if lo < -half or hi >= half:
        raise ValueError(
            f"E - y spans [{lo:g}, {hi:g}], outside the representable "
            f"[-2^{q_v - 1}, 2^{q_v - 1}) window")


def value_scale(lo: float, hi: float, y: float, q_v: int) -> int:
    """Largest integer factor s that keeps s (E - y) inside the window for
    objective values in [lo, hi]."""
    spread = max(hi - y, y - lo, 1e-12)
    # guard band: fractional values near the window edge would leak
    # across the two's-complement wrap and flip their sign bit
    guard = 8.0 if q_v >= 5 else 1.0
    room = (1 << (q_v - 1)) - guard
    return max(1, math.floor(room / spread))


def oracle_flip(mat: np.ndarray, q_v: int) -> None:
    """Pauli-Z on the sign qubit: negate amplitudes whose value MSB is 1."""
    half = 1 << (q_v - 1)
    mat[:, half:] *= -1.0


def reflect_about_zero(mat: np.ndarray) -> None:
    """Grover diffusion: +1 on |0...0><0...0|, -1 elsewhere."""
    keep = mat[0, 0]
    mat *= -1.0
    mat[0, 0] = keep


class GroverCircuit:
    """A_y and G = A_y D A_y^H O for a fixed polynomial and preparation.

    The value register resolves sign at a granularity of one coefficient
    unit, independent of its width, so thresholds closer than a unit to a
    spectrum level would be invisible to the oracle.  So the objective and
    threshold are multiplied by the largest integer factor that still fits
    the two's-complement window, sharpening the fractional encoding without
    spoiling exact integer arithmetic; the marked set (sign of E - y) is
    unchanged.
    """

    def __init__(self, poly: HuboPolynomial, reg: VarRegistry, prep: str, q_v: int):
        _check_capacity(reg.q_k, q_v)
        self.reg = reg
        self.q_v = q_v
        self.prep = Preparation(prep, reg)
        self.e_vec = poly_values_over_keys(poly, reg.q_k)
        key_probs = prepare_initial(prep, reg, 0).key_marginal()
        self.support = key_probs > 1e-24
        sup_vals = self.e_vec[self.support]
        self._hi = float(sup_vals.max())
        self._lo = float(sup_vals.min())

    def scale_for(self, y: float) -> int:
        return value_scale(self._lo, self._hi, y, self.q_v)

    def prepare(self, y: float) -> StateVector:
        s = self.scale_for(y)
        check_value_range(s * self.e_vec, s * y, self.q_v, support=self.support)
        mat = np.zeros((1 << self.reg.q_k, 1 << self.q_v), dtype=complex)
        mat[0, 0] = 1.0
        mat = self.prep.apply(mat, self.q_v)
        mat = _apply_encoding(mat, s * self.e_vec, s * y, self.q_v)
        return StateVector(mat.reshape(-1), self.reg.q_k, self.q_v)

    def grover_iterate(self, sv: StateVector, y: float) -> StateVector:
        """One Grover step: oracle, uncompute A_y, reflect about zero, A_y."""
        s = self.scale_for(y)
        mat = sv.matrix().copy()
        oracle_flip(mat, self.q_v)
        mat = _apply_encoding_dagger(mat, s * self.e_vec, s * y, self.q_v)
        mat = self.prep.apply(mat, self.q_v, dagger=True)
        reflect_about_zero(mat)
        mat = self.prep.apply(mat, self.q_v)
        mat = _apply_encoding(mat, s * self.e_vec, s * y, self.q_v)
        return StateVector(mat.reshape(-1), sv.q_k, sv.q_v)

    def run(self, y: float, L: int) -> StateVector:
        sv = self.prepare(y)
        for _ in range(L):
            sv = self.grover_iterate(sv, y)
        return sv


def choose_qv(poly: HuboPolynomial, y: float, prep: str) -> int:
    """Smallest value-register width whose two's-complement window holds E - y.

    Channel-built polynomials carry an analytic objective bound: with one-hot
    delay blocks |D_m| <= 1, on the full space |D_m| can reach tau_max + 1.
    Generic polynomials fall back to coefficient-sum bounds.
    """
    if prep == W_STATE_REDUCED and poly.bound_one_hot is not None:
        hi = poly.bound_one_hot
        lo = 0.0
    elif prep == HADAMARD_FULL and poly.bound_full is not None:
        hi = poly.bound_full
        lo = 0.0
    else:
        pos = sum(c for c in poly.terms.values() if c > 0)
        neg = sum(c for c in poly.terms.values() if c < 0)
        hi = poly.constant + pos
        lo = poly.constant + neg
    q_v = 1
    while not (lo - y >= -(1 << (q_v - 1)) and hi - y < (1 << (q_v - 1))):
        q_v += 1
        if q_v > 62:
            raise ValueError("objective bound does not fit any sane register")
    return q_v
