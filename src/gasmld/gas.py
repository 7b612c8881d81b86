"""Grover adaptive search: one measurement law, two engines.

Every search runs over rows of a spaces.SpaceStack, the one search-space
type, so the values GAS measures and the optimum it is checked against come
from one table.  Backend is the exact law of the GAS circuit measured after
G^L A_y, a marked-class draw and then a state drawn by its sign-qubit
probability q1 (or 1 - q1).  Without a value-register width q_v the sign
qubit is ideal, q1 = 1[E < y], and the law is the amplitude law
sin^2((2L+1) arcsin sqrt(Ns/Nt)), uniform within each class; with q_v, q1 is
the Fejer sum of the circuit's QFT value encoding.  A backend searches a
one-row stack and holds only its law, measure(y, L, u_class, u_state) ->
(ordinal, objective value), and the values a run reads by ordinal (value);
run_gas reads everything else from backend.space.  An ideal backend can
hold just the sorted states below a run's first threshold (a prefix).
run_gas_batch runs many searches over the rows of one stack in lockstep on
the amplitude law.  Both engines take an arm, a GasParams, plus the per-run
seed x0 and oracle_min, read the stack's one cached sort, take their
budgets, restart window and k cap from run_limits, draw one protocol of
uniforms and return a GasBatch of state ordinals; on the amplitude law they
agree run for run.  The value-register rules of the
circuit sit beside Backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spaces
from .errors import CapacityError
from .spaces import HADAMARD_FULL

LMIN_ZERO = "zero"
LMIN_CONVENTIONAL_C = "conventional-c"
LMIN_PROPOSED_CPRIME = "proposed-cprime"

BACKEND_AMPLITUDE = "amplitude"
BACKEND_CIRCUIT = "circuit"

# why run_gas left its loop
STOP_OPTIMUM = "optimum"
STOP_BUDGET_ITERATIONS = "budget_iterations"
STOP_BUDGET_ROTATIONS = "budget_rotations"

# qubits of the largest state prepared_state writes
MAX_QUBITS = 26

# uniforms a step takes per run: the rotation count L, the marked or
# unmarked class, the state within that class, and the restart draw
UNIFORMS_PER_STEP = 4
# steps per uniform block: a batch holds runs x 32 x 4 doubles of uniforms,
# whatever the budgets
STEPS_PER_BLOCK = 32


def marked_angle(Ns: float, Nt: int) -> float:
    """theta = arcsin sqrt(Ns / Nt) at marked weight Ns of Nt: after L
    rotations the marked class has probability sin^2((2L+1) theta)."""
    if not 0 <= Ns <= Nt:
        raise ValueError("need 0 <= Ns <= Nt")
    return math.asin(math.sqrt(Ns / Nt))


def l_opt(Ns: int, Nt: int) -> int:
    if Ns < 1:
        raise ValueError("l_opt needs at least one marked state")
    return int(math.floor((math.pi / 4.0) * math.sqrt(Nt / Ns)))


def restart_iterations(L_min: int, Nt: int, Ns: int = 1) -> int:
    """Consecutive-failure count at which the threshold is declared infeasible:
    smallest I with (1 - P_success)^I <= 1e-3 at the worst-case rotation L_min."""
    if Ns < 1:
        raise ValueError("Ns must be >= 1")
    c = abs(math.cos((2 * L_min + 1) * marked_angle(Ns, Nt)))
    if c == 0.0:
        return 1
    return max(1, math.ceil(-3.0 / (2.0 * math.log10(c))))


@dataclass
class GasParams:
    """One GAS arm: the settings every run of the arm shares.  One-hot
    validity is not a setting: every run reads it from its space."""
    lam: float = 8.0 / 7.0
    y0: float | None = None            # initial threshold; None -> the first state's value
    lmin: int = 0
    restart_enabled: bool = False
    budget_iterations: int | None = None
    budget_rotations: int | None = None

    def __post_init__(self):
        if not 1.0 < self.lam < 4.0 / 3.0:
            raise ValueError("growth factor must satisfy 1 < lambda < 4/3")


def run_limits(space: spaces.SpaceStack, params: GasParams) -> tuple[int, int, int, float]:
    """A run's iteration budget, rotation budget, restart window and k cap
    over a space of Nt states: the budgets default to ceil(10 sqrt(Nt)) and
    ceil(50 sqrt(Nt)), the window is restart_iterations(lmin, Nt) with
    restart enabled and 0 without, and k is capped at sqrt(2^q_k), the
    square root of the full key space even when the preparation reaches only
    Nt < 2^q_k states."""
    nt = space.n_states
    return (params.budget_iterations or int(math.ceil(10 * math.sqrt(nt))),
            params.budget_rotations or int(math.ceil(50 * math.sqrt(nt))),
            restart_iterations(params.lmin, nt) if params.restart_enabled else 0,
            math.sqrt(1 << space.reg.q_k))


def channel_bound(H_est: np.ndarray, r: np.ndarray, prep: str, taud: int) -> float:
    """Bound on the objective over the states prep reaches,
    sum_n (|r_n| + c sum_m |H_est[n, m]|)^2: a user's symbol times its delay
    block has modulus at most c, one unit-modulus phase (c = 1) on one-hot
    blocks and up to taud of them (c = taud) on the full space."""
    c = taud if prep == HADAMARD_FULL else 1
    row_abs = np.sum(np.abs(H_est), axis=1)
    return float(np.sum((np.abs(np.asarray(r)) + c * row_abs) ** 2))


def register_width(lo: float, hi: float, y0: float | None) -> int:
    """Smallest value-register width whose two's-complement window
    [-2^(q_v-1), 2^(q_v-1)) holds E - y at scale 1 for objective values E in
    [lo, hi] and every threshold y a run from y0 can reach: y0 and any E.  A
    larger scale only shrinks E - y, so q_v >= this never fails
    check_value_range."""
    y_lo, y_hi = (lo, hi) if y0 is None else (min(lo, y0), max(hi, y0))
    q_v = 1
    while not (lo - y_hi >= -(1 << (q_v - 1)) and hi - y_lo < (1 << (q_v - 1))):
        q_v += 1
        if q_v > 62:
            raise ValueError("objective bound does not fit any sane register")
    return q_v


def value_scale(lo: float, hi: float, y: float, q_v: int) -> int:
    """Largest integer factor s that keeps s (E - y) inside the window for
    objective values in [lo, hi].

    The value register resolves sign at a granularity of one unit whatever
    its width, so a threshold closer than a unit to a spectrum level would
    be invisible to the oracle; scaling sharpens the fractional encoding and
    leaves the marked set (the sign of E - y) unchanged.
    """
    spread = max(hi - y, y - lo, 1e-12)
    # guard band: fractional values near the window edge would leak
    # across the two's-complement wrap and flip their sign bit
    guard = 8.0 if q_v >= 5 else 1.0
    room = (1 << (q_v - 1)) - guard
    return max(1, math.floor(room / spread))


def check_value_range(e_vec: np.ndarray, y: float, q_v: int) -> None:
    """Two's-complement range requirement on E(x) - y."""
    half = 1 << (q_v - 1)
    lo, hi = float(np.min(e_vec)) - y, float(np.max(e_vec)) - y
    if lo < -half or hi >= half:
        raise ValueError(
            f"E - y spans [{lo:g}, {hi:g}], outside the representable "
            f"[-2^{q_v - 1}, 2^{q_v - 1}) window")


def scale_for(space: spaces.SpaceStack, q_v: int, y: float) -> int:
    """value_scale's factor over a one-row stack's values at threshold y."""
    e = space.e_values[0]
    return value_scale(float(e.min()), float(e.max()), y, q_v)


def _value_offsets(space: spaces.SpaceStack, q_v: int, y: float) -> np.ndarray:
    """s E - s y per ordinal at scale_for's s, checked by check_value_range."""
    s = scale_for(space, q_v, y)
    e = s * space.e_values[0]
    check_value_range(e, s * y, q_v)
    return e - s * y


def sign_probabilities(space: spaces.SpaceStack, q_v: int, y: float) -> np.ndarray:
    """q1 per state ordinal, P(sign qubit = 1) after the value encoding.

    With N = 2^q_v the value register holds the Fejer kernel F(phi) =
    sin^2(N phi / 2) / (N sin(phi / 2))^2 centred on 2 pi d_x / N, d_x the
    scaled offset (Gilliam, Woerner, Gonciulea, Quantum 2021), so q1_x sums
    it over the negative half u = N/2 .. N-1.
    """
    n = 1 << q_v
    # offset, in register units, from each negative-half basis state
    # u = n - k, wrapped into [-n/2, n/2): F has period n, and the
    # terms near its peak keep every digit of the offset
    delta = _value_offsets(space, q_v, y)[:, None] + np.arange(1, n // 2 + 1)
    delta[delta >= n // 2] -= n
    den = (n * np.sin(np.pi / n * delta)) ** 2
    f = np.divide(np.sin(np.pi * delta) ** 2, den, out=np.ones_like(den), where=den != 0.0)
    return np.minimum(f.sum(axis=1), 1.0)


def prepared_state(space: spaces.SpaceStack, q_v: int, y: float) -> np.ndarray:
    """A_y|0> as a (2^q_k, 2^q_v) amplitude matrix, rows by key index.

    The preparation is uniform, 1/sqrt(Nt), on the space's keys and the
    value Hadamards uniform on the register; the value encoding puts the
    phase exp(j Theta_x (v - (N - 1)/2)), Theta_x = 2 pi (s E_x - s y) / N,
    on key x and applies a QFT, so key x's row is the FFT of its phase
    row over N sqrt(Nt), and every key outside the space is zero.
    """
    q_k = space.reg.q_k
    if q_k + q_v > MAX_QUBITS:
        raise CapacityError(f"{q_k + q_v} qubits exceed the state-dump guard of {MAX_QUBITS}")
    n = 1 << q_v
    theta = 2.0 * np.pi * _value_offsets(space, q_v, y) / n
    phases = np.exp(1j * np.outer(theta, np.arange(n) - (n - 1) / 2.0))
    state = np.zeros((1 << q_k, n), dtype=complex)
    state[space.key_indices.astype(np.intp)] = (
        np.fft.fft(phases, axis=1) / (n * math.sqrt(space.n_states)))
    return state


class OutsidePrefix(LookupError):
    """A run on a prefix Backend read a state by its ordinal, a restart draw
    or a uniform start, whose value only the full table holds."""


class Backend:
    """The measurement law of G^L A_y over a one-row stack.

    G = A_y D A_y^H O keeps the circuit in the plane span{|psi>, O|psi>}
    (Boyer, Brassard, Hoyer, Tapp, Tight bounds on quantum searching, 1998).
    Every preparation here is uniform on its support, so with q1_x the
    probability that state x reads its sign qubit as 1 and p_good = mean(q1)
    = sin^2(theta), G^L A_y measures the marked class with probability
    sin^2((2L+1) theta), then x with weight q1_x, else x with weight
    1 - q1_x.  Without q_v the sign qubit is ideal, q1 = 1[E < y]; with q_v,
    q1 is sign_probabilities's, and no statevector is ever simulated.

    An ideal backend can serve a prefix in place of the table: prefix is
    (ordinals, values) of the states below the run's first threshold y0,
    sorted as the table's sort puts them first, and space is a stack of no
    rows (spaces.channel_keys).  Every later threshold lies at or below y0,
    so a marked draw indexes the prefix.  An unmarked draw past it is a
    state of value at least y that the run can neither accept, nor halt on,
    nor keep as its best; it reads as (-1, inf).  Reading a value by
    ordinal (value) raises OutsidePrefix.
    """

    def __init__(self, space: spaces.SpaceStack, q_v: int | None = None,
                 prefix: tuple[np.ndarray, np.ndarray] | None = None):
        self.space = space
        self.q_v = q_v
        self.n_states = space.n_states
        self.e_values = space.e_values[0] if prefix is None else None
        if prefix is not None:
            self._order, self._e_sorted = prefix
        # one-entry memo, law(y): y changes only on acceptance or restart
        self._memo = (None, 0, 0.0, None)

    # bound at the first measurement: a run that never measures never sorts
    @cached_property
    def _order(self) -> np.ndarray:
        return self.space.order[0]

    @cached_property
    def _e_sorted(self) -> np.ndarray:
        return self.space.e_sorted[0]

    def value(self, ordinal: int) -> float:
        """The table value of the state ordinal; a prefix backend holds none."""
        if self.e_values is None:
            raise OutsidePrefix(f"state {ordinal} is read by ordinal from a prefix")
        return self.e_values.item(ordinal)

    def law(self, y: float):
        """(y, the marked weight Nt p_good, its marked_angle, the cumulative
        weights q1 and 1 - q1 over the sorted order); the ideal law's weight
        is the marked count ns, and it needs no cumulative weights."""
        if self.q_v is None:
            # the ndarray searchsorted skips np.searchsorted's Python-level dispatch
            ns = int(self._e_sorted.searchsorted(y, side="left"))
            return y, ns, marked_angle(ns, self.n_states), None
        q1 = sign_probabilities(self.space, self.q_v, y)
        if not ((q1 >= 0.0) & (q1 <= 1.0)).all():
            raise ValueError("sign-qubit probabilities must be finite and in [0, 1]")
        q1 = q1[self._order]
        good = q1.cumsum()
        mass = float(good[-1])
        return y, mass, marked_angle(mass, self.n_states), (good, (1.0 - q1).cumsum())

    def measure(self, y: float, L: int, u_class: float, u_state: float):
        """(ordinal, objective value): u_class picks the class, u_state
        inverts its cumulative weight."""
        if self._memo[0] != y:
            self._memo = self.law(y)
        _, mass, theta, cdfs = self._memo
        nt = self.n_states
        marked = u_class < math.sin((2 * L + 1) * theta) ** 2 or mass == nt
        if cdfs is None:
            # the sorted order puts the ns marked states first; run_gas_batch's
            # index arithmetic, so the two engines agree run for run; the
            # unmarked sum can round up to nt when u_state is next to 1
            idx = (int(u_state * mass) if marked
                   else min(int(mass + u_state * (nt - mass)), nt - 1))
        else:
            # the first state whose cumulative weight exceeds u_state's share,
            # never a zero-weight one
            cdf = cdfs[0] if marked else cdfs[1]
            idx = min(int(cdf.searchsorted(u_state * cdf[-1], side="right")), nt - 1)
        if idx >= self._order.size:
            # past a prefix: a state whose value is at least y
            return -1, math.inf
        return self._order.item(idx), self._e_sorted.item(idx)


def run_gas(backend, params: GasParams, rng: np.random.Generator, x0: int | None = None,
            oracle_min: float | None = None, record: bool = False) -> GasBatch:
    """Adaptive-threshold Grover search (baseline and improved variants).

    The run starts from the seed ordinal x0 at its table value, else at
    threshold params.y0 with no incumbent, else from a uniform draw; a seed
    carries its own threshold, so x0 with params.y0 is rejected.  Each
    iteration samples L uniformly from {L_min, ..., L_min + ceil(k-1)},
    measures, accepts strictly improving values (resetting k), and otherwise
    grows k by the factor lambda up to run_limits's cap.  With restart
    enabled, a run of run_limits's window of consecutive iterations without
    any update since the last (re)start resamples the incumbent, resets the
    threshold to its value and drops L_min to zero.

    The incumbent, the best one-hot state and x0 are ordinals of
    backend.space, whose table supplies every value, so a re-measured
    incumbent is never an improvement; on a prefix backend a seed, a
    uniform start or a restart raises OutsidePrefix.  A run given oracle_min
    halts at the first measurement of a one-hot state attaining it, the
    first hit, so its cd_queries and qd_rotations count up to that hit.  The uniform draws are
    measurements; a seeded x0 is not, so it is never a first hit, even at
    the optimum.  stop_reason says which of that halt, the iteration budget
    or the rotation budget ended the run, and converged is stop_reason ==
    STOP_OPTIMUM.  The output is the best one-hot state seen, else the
    incumbent; invalid_final says that output is not one-hot, which happens
    only on the full space.  Halting changes no output a later iteration
    could have set: no later value undercuts the optimum, so the best
    one-hot state is final once the optimum is measured.

    The run draws as a one-run arm of run_gas_batch: one uniform u0 for the
    start, read only by a uniform start as ordinal floor(u0 Nt), then blocks
    of (STEPS_PER_BLOCK, UNIFORMS_PER_STEP) from rng, one row per step:
    u_l sets L = L_min + floor(u_l (ceil(k-1) + 1)), the backend measures
    from (u_class, u_state), and a restart draws ordinal floor(u_restart Nt).
    On the amplitude law the two engines agree run for run.
    """
    if x0 is not None and params.y0 is not None:
        raise ValueError("a seeded x0 carries its own threshold; give x0 or y0, not both")
    space = backend.space
    n_t = space.n_states
    budget_iter, budget_rot, restart_window, cap = run_limits(space, params)
    one_hot = space.one_hot
    target = -math.inf if oracle_min is None else oracle_min

    cd = 0
    cum_rot = 0
    lmin = params.lmin
    y = params.y0   # None: the next state seen becomes the incumbent, whatever its value
    inc = -1
    best = -1       # best one-hot state seen
    best_E = math.inf
    halted = False

    def see(ordinal, ex, measured: bool) -> bool:
        """Every state the run sees: the seed, a uniform draw or a Grover
        measurement.  Halts at the first hit, records the best one-hot
        state, and makes a state below the threshold the incumbent."""
        nonlocal cd, y, inc, best, best_E, halted
        if measured:
            cd += 1
            # invalid assignments can undercut the one-hot minimum on the full space
            if ex <= target and one_hot[ordinal]:
                halted = True
        if ex < best_E and one_hot[ordinal]:
            best, best_E = ordinal, ex
        if y is not None and ex >= y:
            return False
        inc, y = ordinal, ex
        return True

    def draw(u: float):
        ordinal = int(u * n_t)
        see(ordinal, backend.value(ordinal), measured=True)

    u0 = rng.random()
    if x0 is not None:
        see(x0, backend.value(x0), measured=False)
    elif y is None:
        draw(u0)

    updated_since_restart = False
    since_restart = 0
    k = 1.0
    i = 0
    steps = [] if record else None

    while not halted and i < budget_iter:
        if i % STEPS_PER_BLOCK == 0:
            block = rng.random((STEPS_PER_BLOCK, UNIFORMS_PER_STEP)).tolist()
        u_l, u_class, u_state, u_restart = block[i % STEPS_PER_BLOCK]
        L = lmin + int(u_l * (math.ceil(k - 1.0) + 1.0))
        if cum_rot + L > budget_rot:
            stop = STOP_BUDGET_ROTATIONS
            break
        state, ex = backend.measure(y, L, u_class, u_state)
        cum_rot += L
        accepted = see(state, ex, measured=True)
        if accepted:
            k = 1.0
            updated_since_restart = True
        else:
            k = min(params.lam * k, cap)

        restarted = False
        since_restart += 1
        # a window of 0 is no restart
        if not (halted or updated_since_restart) and 0 < restart_window <= since_restart:
            y = None
            draw(u_restart)
            lmin = 0
            k = 1.0
            since_restart = 0
            restarted = True

        if record:
            steps.append({"i": i, "ran": True, "y": y, "L": L, "k": k, "x": state, "Ex": ex,
                          "accepted": accepted, "cum_rot": cum_rot, "restarted": restarted})
        i += 1
    else:
        stop = STOP_OPTIMUM if halted else STOP_BUDGET_ITERATIONS

    final = best if best >= 0 else inc
    return GasBatch(final=final, final_y=y, invalid_final=final >= 0 and not one_hot[final],
                    cd_queries=cd, qd_rotations=cum_rot, stop_reason=stop, steps=steps)


_STOP_NAMES = np.array([STOP_OPTIMUM, STOP_BUDGET_ITERATIONS, STOP_BUDGET_ROTATIONS])


@dataclass
class GasBatch:
    """Outputs of GAS runs: arrays over the runs from run_gas_batch, and the
    one run's plain Python values from run_gas, which add up and serialize
    as numbers.  Ordinals index the runs' stack; -1 is none.  A run halts
    at its first hit, so a converged run's query counts are the first
    hit's."""
    final: np.ndarray           # output ordinal: best one-hot state seen, else the incumbent
    final_y: np.ndarray
    invalid_final: np.ndarray
    cd_queries: np.ndarray
    qd_rotations: np.ndarray
    stop_reason: np.ndarray     # STOP_* names
    # with record=True, one dict per step, its values of the kind above: the
    # step i, the threshold y after it, L, k, the measured ordinal x, its
    # value Ex, accepted, cum_rot, restarted, and "ran", the runs that measured
    steps: list[dict] | None = None

    @property
    def converged(self) -> np.ndarray:
        """Whether the run measured the optimum: a bool from run_gas, a bool
        array from run_gas_batch."""
        return self.stop_reason == STOP_OPTIMUM


def run_gas_batch(stack: spaces.SpaceStack, rows, arms, x0=None, oracle_min=None,
                  record: bool = False) -> GasBatch:
    """run_gas's search for many runs in lockstep, on the amplitude law.

    arms is a list of (GasParams, generator, n): the next n runs take that
    arm and draw their uniforms from that generator, first one each for the
    initial draw, then blocks of (n, STEPS_PER_BLOCK, UNIFORMS_PER_STEP), run
    i of the n taking row i.  Run j searches row rows[j] of stack from the
    seed ordinal x0[j] (none where it is -1, or without x0) and halts at its
    first measurement of a one-hot state at or below oracle_min[j], when
    given.  Its rules are run_gas's: no seed with a y0, strict acceptance
    against table values, a seed that is never a first hit, run_limits's
    budgets, restart window and k cap, the best one-hot state seen as
    output, and converged as stop_reason == STOP_OPTIMUM.

    The amplitude law reads a value only to compare it (the rank argument
    of Durr and Hoyer, quant-ph/9607014), so a run holds each state it sees
    as its position p in its row's sorted order.  Per row, below[p] counts
    the states strictly below position p, the start of its tie group.  A
    run's threshold is its marked count ns, Nt with none: p lies below it
    exactly when p < ns, and accepting p sets ns = below[p].  p improves on
    the best state b exactly when p < below[b], and it is a first hit
    exactly when p < hit, hit the count of the row's values at or below
    oracle_min.  Ordinals and values are read only for a seed, a uniform
    start or a restart draw, in record=True steps and for the returned
    GasBatch.  On a tie-free stack an ordinal's position is its value's
    count of smaller values in its row, one searchsorted over the (row,
    value) keys; only a tied stack builds below and the inverse
    permutation.

    A run's draws depend only on its generator, its place among the n and
    its step count, never on which other runs are still searching, so
    reruns are byte-identical and a halted run saw the draws an unhalted
    one would have.
    """
    rows = np.asarray(rows, dtype=np.intp)
    n = rows.size
    nt = stack.n_states
    order, e_sorted = stack.order, stack.e_sorted
    base = rows * nt                     # flat offset of each run's row
    one_hot = stack.one_hot
    # one-hot validity by sorted position, None when every state is one-hot
    hot = None if one_hot.all() else one_hot[order].ravel()
    # the marked angle arcsin sqrt(ns / Nt) of each marked count ns
    theta = np.arcsin(np.sqrt(np.arange(nt + 1) / nt))

    # each arm's settings, computed once and repeated over its runs
    params = [p for p, _, _ in arms]
    counts = [count for _, _, count in arms]
    lam = np.repeat([p.lam for p in params], counts)
    budget_iter, budget_rot, window, cap = (
        np.repeat(v, counts) for v in zip(*(run_limits(stack, p) for p in params)))
    lmin = np.repeat(np.array([p.lmin for p in params], np.int64), counts)
    y0 = np.repeat(np.array([math.nan if p.y0 is None else p.y0 for p in params], float), counts)
    x0 = np.full(n, -1, np.intp) if x0 is None else np.asarray(x0, np.intp)
    seeded = x0 >= 0
    unset = np.isnan(y0)
    if np.any(seeded & ~unset):
        raise ValueError("a seeded x0 carries its own threshold; give x0 or y0, not both")
    # (row, value) keys: numpy orders complex numbers lexicographically, so
    # one flat searchsorted counts each run's row values below a threshold
    keys = np.empty(order.shape, complex)
    keys.real = np.arange(len(order))[:, None]
    keys.imag = e_sorted
    query = np.empty(n, complex)
    query.real = rows
    query.imag = y0
    ns = np.where(unset, nt, keys.ravel().searchsorted(query) - base)
    hit = np.zeros(n, np.intp)
    if oracle_min is not None:
        query.imag = oracle_min
        hit = keys.ravel().searchsorted(query, side="right") - base
    below = place = None
    if stack.tied:
        # below[p], None on tie-free stacks, where it is p
        positions = np.arange(nt)
        tie = np.zeros(order.shape, dtype=bool)
        tie[:, 1:] = e_sorted[:, 1:] == e_sorted[:, :-1]
        below = np.maximum.accumulate(np.where(tie, 0, positions), axis=1).ravel()
        # place[x]: the sorted position of ordinal x, in its row's flat block
        place = np.empty(order.size, np.intp)
        place[(order + np.arange(0, order.size, nt)[:, None]).ravel()] = np.tile(positions, len(order))

    def positions_of(x):
        """The sorted positions of ordinals x in the runs' rows: on a
        tie-free row, its value's count of smaller values in the row."""
        if place is not None:
            return place[base + x]
        query.imag = stack.e_values[rows, x]
        return keys.ravel().searchsorted(query) - base

    cd = np.zeros(n, np.int64)
    cum_rot = np.zeros(n, np.int64)
    inc = np.full(n, -1, np.intp)          # positions, -1 none
    best = np.full(n, -1, np.intp)         # best one-hot state seen
    best_below = np.full(n, nt, np.intp)   # below[best], Nt with none
    halted = np.zeros(n, bool)

    def see(pos, seen, measured: bool):
        """run_gas's see() for the runs in seen at positions pos: counts a
        measurement and halts at the first hit, records the best one-hot
        state, and makes a state below the threshold the incumbent.
        Returns the accepted runs and, measured, the runs it halted."""
        b = pos if below is None else below[base + pos]
        valid = seen if hot is None else seen & hot[base + pos]
        hit_now = None
        if measured:
            np.add(cd, seen, out=cd)
            hit_now = valid & (pos < hit)
            np.logical_or(halted, hit_now, out=halted)
        better = valid & (pos < best_below)
        np.copyto(best, pos, where=better)
        np.copyto(best_below, b, where=better)
        accepted = seen & (pos < ns)
        np.copyto(inc, pos, where=accepted)
        np.copyto(ns, b, where=accepted)
        return accepted, hit_now

    def uniform_positions(u):
        return positions_of((u * nt).astype(np.intp))

    u0 = np.concatenate([g.random(count) for _, g, count in arms])
    start = np.where(seeded, positions_of(x0), uniform_positions(u0))
    see(start, seeded, measured=False)
    see(start, ~seeded & unset, measured=True)

    parts = [(g, slice(end - count, end)) for (_, g, count), end in zip(arms, np.cumsum(counts))]
    draws = np.empty((n, STEPS_PER_BLOCK, UNIFORMS_PER_STEP))
    block = np.empty((STEPS_PER_BLOCK, UNIFORMS_PER_STEP, n))
    k = np.ones(n)
    updated = np.zeros(n, bool)
    # a run restarts at step due, restart window steps after its last
    # restart (at step -1 for none); never without a window
    due = np.where(window > 0, window - 1, np.iinfo(np.int64).max)
    next_due = due.min()
    # a run restarts only inside its iteration budget
    restarts = bool(np.any(due < budget_iter))
    iter_ends = set(budget_iter.tolist())
    stop = np.full(n, 1, np.int8)          # index into _STOP_NAMES
    active = ~halted & (budget_iter > 0)
    steps = [] if record else None
    i = 0
    while active.any():
        s = i % STEPS_PER_BLOCK
        if s == 0:
            for g, part in parts:
                g.random(out=draws[part])
            np.copyto(block, draws.transpose(1, 2, 0))
        u_l, u_class, u_state, u_restart = block[s]
        L = lmin + (u_l * (np.ceil(k - 1.0) + 1.0)).astype(np.int64)
        rot = cum_rot + L
        over = rot > budget_rot
        over &= active
        stop[over] = 2
        active ^= over
        np.copyto(cum_rot, rot, where=active)
        # a marked draw is uniform over the ns lowest positions, an
        # unmarked one over the rest; all marked at ns = Nt
        p = np.sin((2 * L + 1) * theta[ns]) ** 2
        marked = u_class < p
        if i == 0:
            # ns = Nt only before a run's first acceptance, and an
            # all-marked step accepts, so only the first step is all marked
            marked |= ns == nt
        pos = np.where(marked, u_state * ns, ns + u_state * (nt - ns)).astype(np.intp)
        # the unmarked sum can round up to nt when u_state is next to 1
        np.minimum(pos, nt - 1, out=pos)
        ran = active.copy() if record else None
        accepted, hit_now = see(pos, active, measured=True)
        active ^= hit_now
        # a run that has left active never steps again, so its k is unread
        k = np.where(accepted, 1.0, np.minimum(lam * k, cap))
        restarted = None
        if restarts:
            updated |= accepted
        if restarts and i >= next_due:
            # halted runs have left active
            restarted = active & ~updated & (due <= i)
            if restarted.any():
                ns[restarted] = nt
                _, hit_now = see(uniform_positions(u_restart), restarted, measured=True)
                active ^= hit_now
                lmin[restarted] = 0
                k[restarted] = 1.0
                due[restarted] = i + window[restarted]
                next_due = due.min()
        if record:
            steps.append({"i": i, "ran": ran, "y": _values_at(e_sorted, base, inc, y0),
                          "L": L, "k": k.copy(), "x": order.ravel()[base + pos],
                          "Ex": e_sorted.ravel()[base + pos], "accepted": accepted,
                          "cum_rot": cum_rot.copy(),
                          "restarted": np.zeros(n, bool) if restarted is None else restarted})
        i += 1
        if i in iter_ends:
            active &= i < budget_iter

    stop[halted] = 0
    final_pos = np.where(best >= 0, best, inc)
    final = np.where(final_pos >= 0, order.ravel()[base + final_pos], -1)
    return GasBatch(final=final, final_y=_values_at(e_sorted, base, inc, y0),
                    invalid_final=(final >= 0) & ~one_hot[final], cd_queries=cd,
                    qd_rotations=cum_rot, stop_reason=_STOP_NAMES[stop], steps=steps)


def _values_at(e_sorted: np.ndarray, base: np.ndarray, pos: np.ndarray,
               default: np.ndarray) -> np.ndarray:
    """The sorted values at flat row offsets base and positions pos, default
    where pos is -1."""
    return np.where(pos >= 0, e_sorted.ravel()[base + pos], default)
