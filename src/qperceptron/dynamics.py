"""Two-level adiabatic activation dynamics and a small statevector engine.

The activation of one perceptron qubit is produced physically by evolving
H(t) = (x * sz + Omega(t) * sx) / 2 while the drive Omega ramps down from
omega_start to omega_end.  Here sz is diagonal with sz|0> = -|0> and
sz|1> = +|1>, matching the bit-to-spin map in `core`, so the excited-state
population at the end of the ramp approaches the activation value
f(x / Omega(t_f)).

Two ramps are provided.  "linear" (the default) drops the drive at a
constant rate from the equal superposition |+>; both its end slope and the
small offset of |+> from the starting eigenstate leave an error that falls
only slowly with t_f.  "smooth" follows the quintic smootherstep
s(u) = 10u^3 - 15u^4 + 6u^5, flat at both ends, and starts in the exact
upper eigenstate of H(0), so the error falls rapidly with t_f.

The propagator steps with the exact unitary of the midpoint Hamiltonian.
Each step is an element of SU(2), kept as a real unit quaternion (float64
arrays over the grid) and composed by Hamilton products in a pairwise tree;
the complex 2x2 matrix is formed once per grid point, to apply the whole
ramp to the start state.  A step's q component is 0, so a block of steps is
built as an even-offset and an odd-offset half of (w, p, r), which the
tree's first level pairs with the q = 0 product, 9 multiplies instead of
16; the upper levels write each product in place.  A grid may take at most
MAX_POINT_STEPS point-steps, and no |x|, omega_start or t_f may exceed
MAX_MAGNITUDE, below which no square or product of two of them overflows,
nor may omega_end fall below 1 / MAX_MAGNITUDE.  AdiabaticSchedule checks the
ramp, _evolve the potentials, for adiabatic_evolve and adiabatic_profile alike.

Statevector indexing: qubit 1 is the most significant bit of the basis
index, consistent with the MSB-first integer convention of `core`.

statevector_table evaluates a network on its whole truth table in one
register evolution: perceptron gates control only on the input qubits,
which no gate changes, so one superposed input register serves every row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    InvalidInputError,
    NeuralPotential,
    SpinConfig,
    _bit_rows,
    _pack,
    activation,
    features,
)

__all__ = [
    "InvalidWiringError",
    "ScheduleTooFastError",
    "IntegratorError",
    "AdiabaticSchedule",
    "AdiabaticProfile",
    "default_schedule",
    "instantaneous_upper_eigenstate",
    "adiabatic_evolve",
    "adiabatic_profile",
    "Statevector",
    "zero_state",
    "basis_state",
    "apply_hadamard",
    "apply_perceptron_gate",
    "apply_network",
    "excitation_probability",
    "statevector_table",
    "forward_statevector",
]

NORM_TOL = 1e-12
DRIFT_ABORT = 1e-6
# Largest grid, in points x steps, that one propagation may take on.
MAX_POINT_STEPS = 10**8
# Largest |x|, omega_start and t_f one propagation accepts: the square of
# each, and the product of any two, stay finite in float64.
MAX_MAGNITUDE = 1e150
# The default drive starts at OMEGA_START_FACTOR * max(1, |x|).
OMEGA_START_FACTOR = 50.0


class InvalidWiringError(ValueError):
    """A gate or network references qubits inconsistently."""


class ScheduleTooFastError(InvalidInputError):
    """The ramp starts with too small a drive for the requested potential."""


class IntegratorError(RuntimeError):
    """The propagator lost unitarity beyond the abort threshold."""


_RAMPS = ("linear", "smooth")


def _drive(omega_start, omega_end, t, t_f, ramp):
    """Omega(t) of the named ramp; broadcasts over array arguments."""
    if ramp == "linear":
        return omega_start + (omega_end - omega_start) * t / t_f
    u = t / t_f
    rest = 1.0 - u**3 * (10.0 + u * (6.0 * u - 15.0))  # 1 - smootherstep(u)
    return omega_end + (omega_start - omega_end) * rest


def _check_magnitudes(**values) -> None:
    """Reject a named value whose magnitude exceeds MAX_MAGNITUDE or is nan."""
    for name, value in values.items():
        if not np.all(np.abs(value) <= MAX_MAGNITUDE):
            raise InvalidInputError(
                f"|{name}| must be at most MAX_MAGNITUDE = {MAX_MAGNITUDE:.0e}"
            )


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Ramp of the transverse drive from omega_start down to omega_end.

    ramp is "linear" (constant rate, start in |+>) or "smooth" (quintic
    smootherstep with zero slope at both ends, start in the upper
    eigenstate of H(0)).  Construction checks every setting: |omega_start|
    and |t_f| at most MAX_MAGNITUDE, 1 / MAX_MAGNITUDE <= omega_end <=
    omega_start and 0 < dt <= t_f / 1000.
    """

    omega_start: float
    omega_end: float = 1.0
    t_f: float = 200.0
    dt: float = 1e-3
    ramp: str = "linear"

    def __post_init__(self) -> None:
        if self.ramp not in _RAMPS:
            raise InvalidInputError(f"unsupported ramp shape {self.ramp!r}")
        _check_magnitudes(omega_start=self.omega_start, t_f=self.t_f)
        if not 1.0 / MAX_MAGNITUDE <= self.omega_end <= self.omega_start:
            raise InvalidInputError(
                f"omega_end = {self.omega_end} must lie in [1 / MAX_MAGNITUDE, "
                f"omega_start = {self.omega_start}], where "
                f"MAX_MAGNITUDE = {MAX_MAGNITUDE:.0e}"
            )
        if not (0.0 < self.dt <= self.t_f / 1000.0):
            raise InvalidInputError("dt must satisfy 0 < dt <= t_f / 1000")

    def omega(self, t: float) -> float:
        return float(_drive(self.omega_start, self.omega_end, t, self.t_f, self.ramp))


def default_schedule(x: float) -> AdiabaticSchedule:
    """Default ramp for x: start at OMEGA_START_FACTOR * max(1, |x|), end at 1."""
    return AdiabaticSchedule(OMEGA_START_FACTOR * max(1.0, abs(float(x))))


def instantaneous_upper_eigenstate(x, omega):
    """Amplitudes (sqrt(1 - f(x/omega)), sqrt(f(x/omega))) of the upper branch.

    This is the eigenvector of H = (x * sz + omega * sx) / 2 with eigenvalue
    +sqrt(x^2 + omega^2) / 2; at x = 0 it reduces to the equal superposition.
    x and omega may also be arrays, which broadcast.
    """
    if not np.all(omega > 0.0):
        raise InvalidInputError("omega must be positive")
    p = activation(x / omega)
    return np.sqrt(1.0 - p), np.sqrt(p)


def _ramp_steps(points: int, t_f: float, dt: float) -> int:
    """Number of steps of a ramp of length t_f at step dt.

    Rejects a step dt that is not positive, and a grid whose points * steps
    exceed MAX_POINT_STEPS (or are not a number), before any work is done.
    """
    if not dt > 0.0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    steps = t_f / dt
    if steps <= MAX_POINT_STEPS:
        steps = max(1, int(round(steps)))
    if not points * steps <= MAX_POINT_STEPS:
        raise InvalidInputError(
            f"t_f / dt = {steps:.6g} steps over {points} points is outside "
            f"the budget of {MAX_POINT_STEPS:.0e} point-steps"
        )
    return steps


# The Hamilton product a * b term by term: row i lists the (j, k, sign) of
# each sign * a[j] * b[k] that sums to component i, in the order of
#   w = aw bw - ap bp - aq bq - ar br
#   p = aw bp + ap bw + aq br - ar bq
#   q = aw bq + aq bw + ar bp - ap br
#   r = aw br + ar bw + ap bq - aq bp
_HAMILTON = (
    ((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
    ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
    ((0, 2, 1), (2, 0, 1), (3, 1, 1), (1, 3, -1)),
    ((0, 3, 1), (3, 0, 1), (1, 2, 1), (2, 1, -1)),
)
# The product of two steps, whose q components are 0: the same rows without
# the terms that multiply a q.  Those terms are exact zeros, so every sum
# keeps its value.
_STEP_PAIR = tuple(tuple(t for t in row if 2 not in t[:2]) for row in _HAMILTON)


def _accumulate(a, b, out: np.ndarray, terms) -> np.ndarray:
    """Write the sums that terms (laid out as _HAMILTON) name into out.

    Each product goes into one scratch buffer and is added into out in the
    order of terms, so out equals the written-out expression bitwise and no
    other temporary is allocated.
    """
    scratch = np.empty_like(out[0])
    for dst, ((j, k, _), *rest) in zip(out, terms):
        np.multiply(a[j], b[k], out=dst)
        for j, k, sign in rest:
            np.multiply(a[j], b[k], out=scratch)
            (np.add if sign > 0 else np.subtract)(dst, scratch, out=dst)
    return out


def _hamilton(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the Hamilton products a * b into out and return it.

    a, b and out stack the components (w, p, q, r) on their first axis, and
    out must not overlap a or b.  The quaternion (w, p, q, r) stands for the
    SU(2) element w I - i (p X + q Y + r Z) in the standard Pauli matrices,
    Z = diag(+1, -1), so a * b stands for the matrix product of a and b.
    """
    return _accumulate(a, b, out, _HAMILTON)


def _propagate_grid(
    xs: np.ndarray,
    omega_starts: np.ndarray,
    omega_end: float,
    t_f: float,
    dt: float,
    ramp: str = "linear",
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve each (x, omega_start) pair; return final P(excited) and norm drift.

    The linear ramp starts in |+>, the smooth ramp in the upper eigenstate
    of H(0) = (x * sz + omega_start * sx) / 2.  Only _evolve, which checks
    x, calls it.

    Each step applies the exact unitary of the midpoint Hamiltonian,
    U = cos(E dt) I - i sin(E dt) / E * H with E = sqrt(x^2 + Omega^2) / 2.
    U lies in SU(2) and is held as a real unit quaternion (see _hamilton);
    since sz = -Z, a step is (cos(E dt), k Omega, 0, -k x) with
    k = sin(E dt) / (2 E).  Within a block of 16384 steps a pairwise tree
    composes the steps, later step on the left, carrying an odd tail to the
    next level; the blocks are then chained in time order.  A block holds
    its steps as two (point, step) halves of (w, p, r), one of the even
    offsets and one of the odd, and writes the tree's first level from
    them directly: each odd step times the even step before it.  With both
    q components 0 that product takes 9 multiplies instead of 16 and is
    bitwise the full one; an odd last step goes up as (w, p, 0, r).  The
    upper levels and the chaining use _hamilton, which composes in place
    without temporaries.  Only each point's final product
    becomes a complex 2x2 matrix, applied to the start state.  Every
    operation is elementwise over points, so a point's result does not
    depend on the rest of the grid, and the norm is preserved to rounding
    error by construction.

    Raises InvalidInputError, before any step, beyond MAX_POINT_STEPS.
    """
    g = xs.shape[0]
    n_steps = _ramp_steps(g, t_f, dt)
    step = t_f / n_steps
    x_sq, minus_x = xs[:, None] ** 2, -xs[:, None]

    def steps(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, p, r) of the steps numbered idx, each laid out (point, step)."""
        om = _drive(omega_starts[:, None], omega_end, (idx + 0.5) * step, t_f, ramp)
        rate = np.sqrt(x_sq + om**2)  # 2 E
        angle = (0.5 * step) * rate
        k = np.sin(angle) / rate
        return np.cos(angle), k * om, k * minus_x

    total: np.ndarray | None = None
    block = 1 << 14
    for start in range(0, n_steps, block):
        idx = np.arange(start, min(start + block, n_steps))
        ew, ep, er = steps(idx[0::2])
        lw, lp, lr = steps(idx[1::2])
        pairs = lw.shape[1]
        u = np.empty((4, g, ew.shape[1]))
        earlier = (ew[:, :pairs], ep[:, :pairs], None, er[:, :pairs])
        _accumulate((lw, lp, None, lr), earlier, u[..., :pairs], _STEP_PAIR)
        if pairs < u.shape[2]:  # the odd last step
            u[..., -1] = np.stack([ew[:, -1], ep[:, -1], np.zeros(g), er[:, -1]])
        while u.shape[2] > 1:
            pairs = u.shape[2] // 2
            nxt = np.empty((4, g, u.shape[2] - pairs))
            later, earlier = u[..., 1 : 2 * pairs : 2], u[..., 0 : 2 * pairs : 2]
            _hamilton(later, earlier, nxt[..., :pairs])
            if u.shape[2] % 2:
                nxt[..., -1] = u[..., -1]
            u = nxt
        if total is None:
            total = u[..., 0]
        else:
            total = _hamilton(u[..., 0], total, np.empty((4, g)))
    w, p, q, r = total
    mat = np.empty((g, 2, 2), dtype=complex)
    mat[:, 0, 0] = w - 1j * r
    mat[:, 0, 1] = -q - 1j * p
    mat[:, 1, 0] = q - 1j * p
    mat[:, 1, 1] = w + 1j * r
    if ramp == "linear":
        psi0 = np.full((g, 2), 1.0 / np.sqrt(2.0), dtype=complex)
    else:
        start = instantaneous_upper_eigenstate(xs, omega_starts)
        psi0 = np.stack(start, axis=1).astype(complex)
    psi = np.einsum("gij,gj->gi", mat, psi0)
    probs = np.abs(psi[:, 1]) ** 2
    drift = np.abs(np.sqrt(np.sum(np.abs(psi) ** 2, axis=1)) - 1.0)
    return probs, drift


def _evolve(xs: np.ndarray, starts: np.ndarray, schedule: AdiabaticSchedule):
    """_propagate_grid on each x from its start; returns P(excited), drift.

    Rejects an |x| above MAX_MAGNITUDE or nan, or above its start / 10 (the
    slow-start bound), and a norm drift above DRIFT_ABORT or nan.
    """
    _check_magnitudes(x=xs)
    # The first x past its bound, if any.  No array outlives this check: one
    # held through the propagation raised peak RSS by ~2 MB (glibc malloc).
    i = int(np.argmax(np.abs(xs) > starts / 10.0))
    x, bound = abs(xs[i]), starts[i] / 10.0
    if x > bound:
        raise ScheduleTooFastError(
            f"|x| = {x} exceeds the slow-start bound omega_start / 10 = {bound}"
        )
    probs, drift = _propagate_grid(
        xs, starts, schedule.omega_end, schedule.t_f, schedule.dt, schedule.ramp
    )
    if not np.all(drift <= DRIFT_ABORT):
        raise IntegratorError(f"norm drift {drift.max():.3e} exceeds {DRIFT_ABORT}")
    return probs, drift


def adiabatic_evolve(x: float, schedule: AdiabaticSchedule | None = None) -> float:
    """Excited-state population after ramping the drive down on potential x.

    Follows the upper dressed branch, so the result approaches
    f(x / omega_end) for slow ramps.  The linear ramp starts from the equal
    superposition, which is close to the upper eigenstate only while
    |x| <= omega_start / 10 (enforced for both ramps); the smooth ramp
    starts in that eigenstate exactly.  See AdiabaticSchedule.
    """
    sched = default_schedule(x) if schedule is None else schedule
    probs, _ = _evolve(np.array([float(x)]), np.array([sched.omega_start]), sched)
    return float(probs[0])


@dataclass(frozen=True)
class AdiabaticProfile:
    """Ramp outcomes over a grid of potential values."""

    xs: tuple[float, ...]
    probabilities: tuple[float, ...]
    targets: tuple[float, ...]
    errors: tuple[float, ...]
    max_error: float
    mean_error: float
    max_drift: float


def adiabatic_profile(
    xs: Sequence[float],
    t_f: float = AdiabaticSchedule.t_f,
    dt: float = AdiabaticSchedule.dt,
    omega_start_factor: float = OMEGA_START_FACTOR,
    omega_end: float = AdiabaticSchedule.omega_end,
    ramp: str = AdiabaticSchedule.ramp,
) -> AdiabaticProfile:
    """Ramp each x from omega_start_factor * max(1, |x|) down to omega_end.

    ramp names the drive shape and start state as in AdiabaticSchedule,
    which checks the ramp settings with the largest start, and omega_end
    also with the smallest; P is compared against f(x / omega_end).
    """
    grid = np.asarray(list(xs), dtype=float)
    if grid.size == 0:
        raise InvalidInputError("empty x grid")
    # Bound both before their product forms the drive, which could overflow.
    _check_magnitudes(x=grid, omega_start_factor=omega_start_factor)
    starts = omega_start_factor * np.maximum(1.0, np.abs(grid))
    schedule = AdiabaticSchedule(float(starts.max()), omega_end, t_f, dt, ramp)
    # omega_end <= omega_start must hold at every point: no drive ramps up.
    replace(schedule, omega_start=float(starts.min()))
    probs, drift = _evolve(grid, starts, schedule)
    targets = activation(grid / omega_end)
    errors = np.abs(probs - targets)
    return AdiabaticProfile(
        xs=tuple(float(v) for v in grid),
        probabilities=tuple(float(v) for v in probs),
        targets=tuple(float(v) for v in np.atleast_1d(targets)),
        errors=tuple(float(v) for v in errors),
        max_error=float(errors.max()),
        mean_error=float(errors.mean()),
        max_drift=float(drift.max()),
    )


@dataclass
class Statevector:
    """Dense complex amplitudes over n qubits, qubit 1 most significant."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.n < 1 or self.amplitudes.shape != (2**self.n,):
            raise InvalidInputError(
                f"amplitude vector of length {self.amplitudes.shape} does not match n={self.n}"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def zero_state(n: int) -> Statevector:
    """|0...0> on n qubits."""
    if n < 1:
        raise InvalidInputError("need at least one qubit")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return Statevector(amps, n)


def _basis_index(bits) -> np.ndarray:
    """Basis index of an MSB-first bit string (k,), or of each row of (N, k)."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def basis_state(n: int, bits: Sequence[int]) -> Statevector:
    """Computational basis state for an MSB-first bit string."""
    if len(bits) != n:
        raise InvalidInputError(f"expected {n} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise InvalidInputError("bits must be 0 or 1")
    amps = np.zeros(2**n, dtype=complex)
    amps[_basis_index(bits)] = 1.0
    return Statevector(amps, n)


def _check_qubit(state: Statevector, j: int) -> None:
    if not 1 <= j <= state.n:
        raise InvalidWiringError(f"qubit {j} outside register 1..{state.n}")


def _check_norm(state: Statevector) -> Statevector:
    if abs(state.norm() - 1.0) > NORM_TOL:
        raise IntegratorError(f"state norm drifted to {state.norm()!r}")
    return state


def apply_hadamard(state: Statevector, j: int) -> Statevector:
    """Hadamard on qubit j (an involution)."""
    _check_qubit(state, j)
    t = state.amplitudes.reshape([2] * state.n)
    axis = j - 1
    a0 = np.take(t, 0, axis=axis)
    a1 = np.take(t, 1, axis=axis)
    r = 1.0 / np.sqrt(2.0)
    new = np.stack([(a0 + a1) * r, (a0 - a1) * r], axis=axis)
    return _check_norm(Statevector(new.reshape(-1), state.n))


def excitation_probability(state: Statevector, j: int) -> float:
    """Marginal probability that qubit j reads 1."""
    _check_qubit(state, j)
    t = state.amplitudes.reshape([2] * state.n)
    a1 = np.take(t, 1, axis=j - 1)
    return float(np.sum(np.abs(a1) ** 2))


def apply_perceptron_gate(
    state: Statevector, p: NeuralPotential, target: int
) -> Statevector:
    """Rotate the target qubit conditioned on input qubits 1..p.arity.

    For each input basis configuration with potential value x, the target
    sees the rotation that maps |0> to sqrt(1 - f(x)) |0> + sqrt(f(x)) |1>,
    completed as a real rotation (angle 2 * arcsin(sqrt(f(x)))).
    """
    _check_qubit(state, target)
    if target <= p.arity:
        raise InvalidWiringError(
            f"target qubit {target} is among the input qubits 1..{p.arity}"
        )

    k = p.arity
    t = state.amplitudes.reshape([2] * state.n)
    # Potential value for every input configuration, in basis index order.
    spins = 2.0 * _bit_rows(k) - 1.0
    x = features(spins, [term.indices for term in p.multi_terms]) @ _pack(p)
    # Broadcast over the axes past the inputs, once the target axis is taken.
    prob = activation(x).reshape([2] * k + [1] * (state.n - 1 - k))
    c0, s0 = np.sqrt(1.0 - prob), np.sqrt(prob)
    axis = target - 1
    a0 = np.take(t, 0, axis=axis)
    a1 = np.take(t, 1, axis=axis)
    new = np.stack([c0 * a0 - s0 * a1, s0 * a0 + c0 * a1], axis=axis)
    return _check_norm(Statevector(new.reshape(-1), state.n))


def apply_network(
    state: Statevector, wiring: Sequence[tuple[NeuralPotential, int]]
) -> Statevector:
    """Apply perceptron gates in order; target qubits must be distinct."""
    targets = [t for _, t in wiring]
    if len(set(targets)) != len(targets):
        raise InvalidWiringError(f"duplicate target qubits in {targets}")
    out = state
    for p, target in wiring:
        out = apply_perceptron_gate(out, p, target)
    return out


def statevector_table(potentials: Sequence[NeuralPotential]) -> np.ndarray:
    """Network outputs on every basis input from one statevector evolution.

    Puts k input qubits in the uniform superposition (a Hadamard on each)
    and one |0> target per potential, applies every perceptron gate once,
    and returns the (2^k, outputs) table whose row i holds each target's
    excitation probability conditioned on the inputs reading basis state i:
    its marginal on that row, times 2^k.
    """
    if not potentials:
        raise InvalidInputError("need at least one potential")
    k = potentials[0].arity
    if any(p.arity != k for p in potentials):
        raise InvalidInputError("every potential must match the input arity")
    n_out = len(potentials)
    state = zero_state(k + n_out)
    for j in range(1, k + 1):
        state = apply_hadamard(state, j)
    state = apply_network(state, [(p, k + 1 + j) for j, p in enumerate(potentials)])
    probs = np.abs(state.amplitudes.reshape(2**k, 2**n_out)) ** 2
    return 2.0**k * (probs @ _bit_rows(n_out))  # column j: target j reads 1


def forward_statevector(
    potentials: Sequence[NeuralPotential], s: SpinConfig
) -> np.ndarray:
    """Network outputs on one basis input: the row of statevector_table for s."""
    if any(p.arity != len(s) for p in potentials):
        raise InvalidInputError("every potential must match the input arity")
    return statevector_table(potentials)[_basis_index(s.bits)]
