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

The propagator steps with the exact unitary of the midpoint Hamiltonian,
an element w I - i (p X + q Y + r Z) of SU(2), and composes the steps in
one pairwise tree over the whole ramp; each point's amplitudes are read
straight off its product and its start state.  A step is built from one
tangent T = tan(E dt) as the real quaternion
(w, p, q, r) = (1, T Omega, 0, -T x) / 2E, the unit step times
sqrt(1 + T^2) up to a global phase.  The tree's first level pairs the
steps with 4 real products; one pack writes its products as complex pairs
(alpha, gamma) = (w + i r, p + i q), which the upper levels compose with 4
complex products each, none written over an operand (see _compose).  The
tree runs depth first over chunks that share one 2.75 MiB workspace, which
starts on a 64-byte boundary (see _aligned_rows), so past the per-point
products (under 0.6 kB a point) the working set does not grow with the
grid.  H(-x) = X H(x) X, so the ramp of -x is the complex conjugate of
the ramp of x, exactly, and the tree runs once per distinct
(|x|, omega_start) of the grid: a grid mirrored about 0 costs about half.
A grid may take at most MAX_POINT_STEPS point-steps, and no |x|,
omega_start or t_f may exceed MAX_MAGNITUDE, below which no square or
product of two of them overflows, nor may omega_end fall below
1 / MAX_MAGNITUDE.  AdiabaticSchedule checks the ramp, _evolve the
potentials, for adiabatic_evolve and adiabatic_profile alike.

Statevector indexing: qubit 1 is the most significant bit of the basis
index, consistent with the MSB-first integer convention of `core`.

statevector_table evaluates a network on its whole truth table in one
register evolution: perceptron gates control only on the input qubits,
which no gate changes, so one superposed input register serves every row.
Every gate is one kernel, _update_qubit, that maps one amplitude array to a
new one and checks its norm; a Statevector is built only by a public call
(one per apply_* call).  The table writes the superposed inputs straight
into zero_state's array and runs its rotations on that bare array.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _POSITIVE,
    InvalidInputError,
    NeuralPotential,
    SpinConfig,
    _activations,
    _bit_rows,
    _instance,
    _integer,
    _real,
    _real_array,
    _sequence,
    activation,
    bits_to_spins,
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
    "apply_perceptron_gate",
    "apply_network",
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
# Largest register zero_state, basis_state and statevector_table build:
# 2^20 complex amplitudes, 16 MiB.  _QUBITS is the rule _integer checks.
MAX_QUBITS = 20
_QUBITS = dict(name="number of qubits", low=1, high=MAX_QUBITS, limit=f"MAX_QUBITS = {MAX_QUBITS}")


class InvalidWiringError(ValueError):
    """A gate or network references qubits inconsistently."""


class ScheduleTooFastError(InvalidInputError):
    """The ramp starts with too small a drive for the requested potential."""


class IntegratorError(RuntimeError):
    """The propagator lost unitarity beyond the abort threshold."""


_RAMPS = ("linear", "smooth")


def _drive(omega_start, omega_end, t, t_f, ramp, out=None):
    """Omega(t) of the named ramp; broadcasts over array arguments.

    The terms of the broadcast shape are written into out, if given.
    """
    u = t / t_f
    if ramp == "linear":
        drop = np.multiply(omega_end - omega_start, u, out=out)
        return np.add(omega_start, drop, out=out)
    rest = 1.0 - u**3 * (10.0 + u * (6.0 * u - 15.0))  # 1 - smootherstep(u)
    fall = np.multiply(omega_start - omega_end, rest, out=out)
    return np.add(omega_end, fall, out=out)


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
    eigenstate of H(0)).  Construction checks every setting: real numbers,
    |omega_start| and |t_f| at most MAX_MAGNITUDE, 1 / MAX_MAGNITUDE <=
    omega_end <= omega_start and 0 < dt <= t_f / 1000.
    """

    omega_start: float
    omega_end: float = 1.0
    t_f: float = 200.0
    dt: float = 1e-3
    ramp: str = "linear"

    def __post_init__(self) -> None:
        if self.ramp not in _RAMPS:
            raise InvalidInputError(f"unsupported ramp shape {self.ramp!r}")
        _real(self.omega_start, "omega_start", finite=False)
        _real(self.omega_end, "omega_end", finite=False)
        _real(self.t_f, "t_f", finite=False)
        _real(self.dt, "dt", finite=False)
        _check_magnitudes(omega_start=self.omega_start, t_f=self.t_f)
        if not 1.0 / MAX_MAGNITUDE <= self.omega_end <= self.omega_start:
            raise InvalidInputError(
                f"omega_end = {self.omega_end} must lie in [1 / MAX_MAGNITUDE, "
                f"omega_start = {self.omega_start}], where "
                f"MAX_MAGNITUDE = {MAX_MAGNITUDE:.0e}"
            )
        if not (0.0 < self.dt <= self.t_f / 1000.0):
            raise InvalidInputError("dt must satisfy 0 < dt <= t_f / 1000")


def default_schedule(x: float) -> AdiabaticSchedule:
    """Default ramp for x: start at OMEGA_START_FACTOR * max(1, |x|), end at 1."""
    x = _real(x, "x", finite=False)
    _check_magnitudes(x=x)
    return AdiabaticSchedule(OMEGA_START_FACTOR * max(1.0, abs(x)))


def instantaneous_upper_eigenstate(x, omega):
    """Amplitudes (sqrt(1 - f(x/omega)), sqrt(f(x/omega))) of the upper branch.

    This is the eigenvector of H = (x * sz + omega * sx) / 2 with eigenvalue
    +sqrt(x^2 + omega^2) / 2; at x = 0 it reduces to the equal superposition.
    x and omega may also be real arrays or sequences, which broadcast.
    """
    x, omega = _real_array(x), _real_array(omega)
    if x is None or omega is None:
        raise InvalidInputError("x and omega must be real: numbers or arrays of them")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(omega))):
        raise InvalidInputError("x and omega must be finite")
    if not np.all(omega > 0.0):
        raise InvalidInputError("omega must be positive")
    p = activation(x / omega)
    return np.sqrt(1.0 - p), np.sqrt(p)


def _ramp_steps(points: int, t_f: float, dt: float) -> int:
    """Number of steps of a ramp of length t_f at step dt.

    Rejects a step dt that is not positive, and a grid whose points * steps
    are not a count up to MAX_POINT_STEPS, before any work is done.
    """
    if not dt > 0.0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    steps = t_f / dt
    if abs(steps) <= MAX_POINT_STEPS:
        steps = max(1, int(round(steps)))
    if not 0 < points * steps <= MAX_POINT_STEPS:
        raise InvalidInputError(
            f"t_f / dt = {steps:.6g} steps over {points} points is outside "
            f"the budget of {MAX_POINT_STEPS:.0e} point-steps"
        )
    return steps


def _compose(later, earlier, out, scratch) -> np.ndarray:
    """Write the products later * earlier of SU(2) pairs into out and return it.

    later, earlier and out stack (alpha, gamma) = (w + i r, p + i q) on their
    first axis, for the element w I - i (p X + q Y + r Z) whose matrix is
    [[conj alpha, -i conj gamma], [-i gamma, alpha]], Z = diag(+1, -1), so
    alpha = alpha_L alpha_E - gamma_L conj(gamma_E) and
    gamma = gamma_L conj(alpha_E) + alpha_L gamma_E.  scratch is one
    component's complex buffer.  No multiply writes over an input: numpy
    rounds a complex product written in place, or into an expression's
    reused temporary, without its fused multiply-add, and a point's result
    would then depend on the size of its grid.
    """
    (al, gl), (ae, ge), (a, c) = later, earlier, out
    np.multiply(al, ae, out=a)
    np.subtract(a, np.multiply(gl, np.conjugate(ge, out=scratch), out=c), out=a)
    np.multiply(gl, np.conjugate(ae, out=scratch), out=c)
    np.add(c, np.multiply(al, ge, out=scratch), out=c)
    return out


# Most point-steps one chunk holds, unless the chunk is 2 steps.  A chunk's
# working set is 11 half-chunk rows of float64, 2.75 MiB at this budget.
# With the workspace 64-byte aligned (3 interleaved runs of the benchmark's
# adiabatic grids, one AVX-512 CPU of a 2-vCPU Xeon) 2^15 ran ~2% slower and
# 2^17 ~13%; before alignment 2^14 took ~45% longer and 2^18 7-25%.
_CHUNK_POINT_STEPS = 1 << 16


def _aligned_rows(count: int, width: int) -> np.ndarray:
    """count float64 rows of width starting on a 64-byte boundary, as does
    every row if width is a multiple of 8 (up to 2^11 distinct points):
    np.empty aligns to 16 bytes, and split AVX-512 loads ran ~2x slower."""
    buf = np.empty(count * width + 7)
    skip = -buf.ctypes.data % 64 // 8
    return buf[skip : skip + count * width].reshape(count, width)


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
    U lies in SU(2): since sz = -Z, it is the quaternion
    (cos(E dt), k Omega, 0, -k x) with k = sin(E dt) / (2 E) (see _compose).
    A step is built from one tangent, T = tan(E dt) and u = T / (2 E), as
    (1, P, 0, R) = (1, u Omega, 0, -u x): U / cos(E dt), so
    (1, P, 0, R) / sqrt(1 + T^2) is U times the sign of cos(E dt), a
    global phase that no probability or norm sees.  |T| stays below ~1.6e16
    for every double, so nothing overflows.  One pairwise tree over the
    whole ramp composes the steps, later step on the left, carrying an odd
    tail to the next level.

    The tree is evaluated depth first.  The ramp is cut into aligned chunks
    of the largest power of two of steps, at least 2, whose points x steps
    stay within _CHUNK_POINT_STEPS.  A chunk holds its steps as two
    (point, step) halves of (1 + T^2, P, R), one of the even offsets and
    one of the odd, and writes the tree's first level from them directly:
    each odd step L times the even step E before it,
    (1 - P_L P_E - R_L R_E, P_E + P_L, R_L P_E - P_L R_E, R_E + R_L), 4
    products, scaled by 1 / sqrt((1 + T_L^2)(1 + T_E^2)).  That is bitwise
    the 16-multiply product of (1, P, 0, R) steps, whose other terms are
    exact ones and zeros, then the scale; an odd last step goes up as
    (1, P, 0, R) / sqrt(1 + T^2).  The norm thus comes from T, not from the
    quaternion, so the drift below still measures the propagation.

    One pack writes the first level as the complex pairs of _compose, which
    composes the upper levels in the step rows and the first level's rows by
    turns.  The chunk products go on a binary-counter stack: two subtrees of
    equal size merge, the later on the left, and at the end of the ramp the
    stack folds from the top.  Each chunk is an aligned subtree, so that is
    the same pairwise-with-carry tree as over the whole ramp at once, and
    every product keeps its bits whatever the chunk size.

    Every chunk array is a contiguous view into one workspace of 11
    half-chunk rows, allocated once per call on a 64-byte boundary (see
    _aligned_rows), each array written over ones already read.  The working
    set is that workspace, at most 2.75 MiB (88 bytes a point beyond 2^15
    points, where a chunk is the minimum 2 steps), and a stack of at most
    13 (2, points) pairs within MAX_POINT_STEPS.  Every operation is
    elementwise over points, so a point's result does not depend on the rest
    of the grid, and the norm is preserved to rounding error by construction.

    The tree runs once per distinct (|x|, omega_start); a point whose x has
    its sign bit set takes the conjugate of that pair.  That is bitwise its
    own steps' product: -x's step is (1, P, 0, -R) with the same T, so its
    first-level pair is the conjugate, the product of conjugates is the
    conjugate of the product, and negation is exact and rounding symmetric
    (save for the sign of an exact 0, which no probability sees).  The
    amplitudes are then read off each point's pair (alpha, gamma) and real
    start (a, b): psi_down = conj(alpha) a - i conj(gamma) b and
    psi_up = alpha b - i gamma a.

    Raises InvalidInputError, before any step, beyond MAX_POINT_STEPS.
    """
    n_steps = _ramp_steps(xs.shape[0], t_f, dt)
    step = t_f / n_steps
    (mags, starts), inverse = np.unique(
        np.stack([np.abs(xs), omega_starts]), axis=1, return_inverse=True
    )
    g = mags.shape[0]
    x_sq, minus_x = mags[:, None] ** 2, -mags[:, None]
    chunk = 2
    while 2 * chunk * g <= _CHUNK_POINT_STEPS:
        chunk *= 2
    rows = _aligned_rows(11, g * (chunk // 2))
    even, odd, scratch = rows[0:3], rows[3:6], rows[6]
    four = rows[7:11].reshape(-1)
    # the complex levels: the step rows, the first level's rows and a spill
    low, high = rows[0:6].reshape(-1).view(complex), four.view(complex)
    spill_pairs = scratch[: scratch.shape[0] // 2 * 2].view(complex)
    stack = np.empty((math.ceil(n_steps / chunk).bit_length() + 1, 2, g), dtype=complex)
    sizes: list[int] = []  # chunks under each stack entry, bottom first

    def view(buf: np.ndarray, *shape: int) -> np.ndarray:
        """The contiguous front of buf laid out as shape."""
        return buf[: math.prod(shape)].reshape(shape)

    def steps(first: int, stop: int, bufs: np.ndarray):
        """(1 + T^2, P, R) of every other step from first to stop, (point, step)."""
        t = (np.arange(first, stop, 2) + 0.5) * step
        om, rate, tan = (view(b, g, t.shape[0]) for b in bufs)
        _drive(starts[:, None], omega_end, t, t_f, ramp, out=om)
        np.add(x_sq, np.square(om, out=rate), out=rate)
        np.sqrt(rate, out=rate)  # 2 E
        np.tan(np.multiply(0.5 * step, rate, out=tan), out=tan)
        u = np.divide(tan, rate, out=view(scratch, *om.shape))
        np.add(1.0, np.square(tan, out=tan), out=tan)
        return tan, np.multiply(u, om, out=om), np.multiply(u, minus_x, out=rate)

    def merge() -> None:
        """Replace the top two stack entries by their product, later on the left."""
        i = len(sizes) - 1
        _compose(stack[i], stack[i - 1], stack[i + 1], view(low, g))
        stack[i - 1] = stack[i + 1]
        sizes[-1] += sizes.pop(-2)

    for first in range(0, n_steps, chunk):
        last = min(first + chunk, n_steps)
        es, ep, er = steps(first, last, even)
        ls, lp, lr = steps(first + 1, last, odd)
        pairs = ls.shape[1]
        level = view(four, 4, g, es.shape[1])
        if pairs < level.shape[2]:  # the odd last step
            norm = 1.0 / np.sqrt(es[:, -1])
            level[0, :, -1], level[2, :, -1] = norm, 0.0
            level[1, :, -1], level[3, :, -1] = ep[:, -1] * norm, er[:, -1] * norm
        es, ep, er = es[:, :pairs], ep[:, :pairs], er[:, :pairs]
        w, p, q, r = fused = level[..., :pairs]
        spill = view(scratch, g, pairs)
        np.subtract(1.0, np.multiply(lp, ep, out=w), out=w)
        np.subtract(w, np.multiply(lr, er, out=spill), out=w)
        np.add(ep, lp, out=p)
        np.multiply(lr, ep, out=q)
        np.subtract(q, np.multiply(lp, er, out=spill), out=q)
        np.add(er, lr, out=r)
        np.divide(1.0, np.sqrt(np.multiply(ls, es, out=ls), out=ls), out=ls)
        np.multiply(fused, ls, out=fused)
        u = view(low, 2, g, level.shape[2])  # (w + i r, p + i q)
        np.copyto(u.real, level[:2])
        np.copyto(u.imag, level[3:1:-1])
        spare, held = high, low
        while u.shape[2] > 1:
            pairs = u.shape[2] // 2
            nxt = view(spare, 2, g, u.shape[2] - pairs)
            later, earlier = u[..., 1 : 2 * pairs : 2], u[..., 0 : 2 * pairs : 2]
            _compose(later, earlier, nxt[..., :pairs], view(spill_pairs, g, pairs))
            if u.shape[2] % 2:
                nxt[..., -1] = u[..., -1]
            u, spare, held = nxt, held, spare
        stack[len(sizes)] = u[..., 0]
        sizes.append(1)
        while len(sizes) > 1 and sizes[-1] == sizes[-2]:
            merge()
    while len(sizes) > 1:
        merge()
    alpha, gamma = pair = stack[0][:, inverse]
    np.conjugate(pair, out=pair, where=np.signbit(xs))
    if ramp == "linear":
        a = b = 1.0 / np.sqrt(2.0)
    else:
        a, b = instantaneous_upper_eigenstate(xs, omega_starts)
    down = np.conjugate(alpha) * a - 1j * np.conjugate(gamma) * b
    probs = np.abs(alpha * b - 1j * gamma * a) ** 2
    drift = np.abs(np.sqrt(np.abs(down) ** 2 + probs) - 1.0)
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
    x = _real(x, "x", finite=False)
    sched = default_schedule(x) if schedule is None else schedule
    _instance(sched, AdiabaticSchedule, "schedule")
    probs, _ = _evolve(np.array([x]), np.array([sched.omega_start]), sched)
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


def _profile_schedule(
    xs: np.ndarray,
    t_f: float,
    dt: float,
    omega_start_factor: float,
    omega_end: float,
    ramp: str,
) -> tuple[np.ndarray, AdiabaticSchedule]:
    """Each x's drive start, and the checked schedule of the largest start.

    The schedule depends on xs only through the largest |x|, which a grid's
    end points hold, so adiabatic-check checks it before building the grid.
    """
    # Bound both before their product forms the drive, which could overflow.
    _real(omega_start_factor, "omega_start_factor", _POSITIVE, finite=False)
    _check_magnitudes(x=xs, omega_start_factor=omega_start_factor)
    starts = omega_start_factor * np.maximum(1.0, np.abs(xs))
    return starts, AdiabaticSchedule(float(starts.max()), omega_end, t_f, dt, ramp)


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
    grid = _real_array(xs)
    if grid is None or grid.ndim == 0:
        raise InvalidInputError("x grid must be a sequence of real numbers")
    if grid.size == 0:
        raise InvalidInputError("empty x grid")
    if grid.ndim != 1:
        raise InvalidInputError(f"x grid must be one-dimensional, got shape {grid.shape}")
    starts, schedule = _profile_schedule(
        grid, t_f, dt, omega_start_factor, omega_end, ramp
    )
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


@dataclass(frozen=True, eq=False)
class Statevector:
    """Dense complex amplitudes over n qubits, qubit 1 most significant."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, **_QUBITS))
        amplitudes = _instance(self.amplitudes, (np.ndarray, Sequence), "amplitudes")
        amplitudes = np.asarray(amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amplitudes)
        if self.amplitudes.shape != (2**self.n,):
            raise InvalidInputError(
                f"amplitude vector of length {self.amplitudes.shape} does not match n={self.n}"
            )

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)


def zero_state(n: int) -> Statevector:
    """|0...0> on n qubits, at most MAX_QUBITS."""
    amps = np.zeros(2 ** _integer(n, **_QUBITS), dtype=complex)
    amps[0] = 1.0
    return Statevector(amps, n)


def _basis_index(bits) -> np.ndarray:
    """Basis index of an MSB-first bit string (k,), or of each row of (N, k)."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def basis_state(n: int, bits: Sequence[int]) -> Statevector:
    """Computational basis state for an MSB-first bit string."""
    n = _integer(n, **_QUBITS)
    if len(bits_to_spins(bits)) != n:
        raise InvalidInputError(f"expected {n} bits, got {len(bits)}")
    amps = np.zeros(2**n, dtype=complex)
    amps[_basis_index(bits)] = 1.0
    return Statevector(amps, n)


def _update_qubit(amps: np.ndarray, j: int, pair) -> np.ndarray:
    """The amplitudes (2^n,) with pair(a0, a1) over their halves on qubit j, the [:, 0] and
    [:, 1] of a (2^(j-1), 2, 2^(n-j)) view, as a new array; IntegratorError if its norm
    drifts past NORM_TOL.  Every gate runs through this one check."""
    view = amps.reshape(2 ** (j - 1), 2, -1)
    out = np.empty_like(view)
    out[:, 0], out[:, 1] = pair(view[:, 0], view[:, 1])
    norm = math.sqrt(np.vdot(out, out).real)  # vdot flattens both operands
    if abs(norm - 1.0) > NORM_TOL:
        raise IntegratorError(f"state norm drifted to {norm!r}")
    return out.reshape(-1)


def apply_perceptron_gate(
    state: Statevector, p: NeuralPotential, target: int
) -> Statevector:
    """Rotate the target qubit conditioned on input qubits 1..p.arity.

    For each input basis configuration with potential value x, the target
    sees the rotation that maps |0> to sqrt(1 - f(x)) |0> + sqrt(f(x)) |1>,
    completed as a real rotation (angle 2 * arcsin(sqrt(f(x)))).
    """
    n = _instance(state, Statevector, "state").n
    target = _integer(target, "target qubit", 1, n, error=InvalidWiringError)
    if target <= _instance(p, NeuralPotential, "p").arity:
        raise InvalidWiringError(f"target qubit {target} is among the input qubits 1..{p.arity}")
    prob = _activations([p], 2.0 * _bit_rows(p.arity) - 1.0)
    return Statevector(_rotate_target(state.amplitudes, prob[:, 0], p.arity, target), n)


def _rotate_target(amps: np.ndarray, prob: np.ndarray, k: int, target: int) -> np.ndarray:
    """The rotation of apply_perceptron_gate on target of the amplitudes, given
    f of its potential on every configuration of input qubits 1..k (2^k,) in
    basis index order."""
    # a row per setting of qubits 1..target-1, of which 1..k are the inputs
    prob = np.repeat(prob, 2 ** (target - 1 - k))[:, None]
    c0, s0 = np.sqrt(1.0 - prob), np.sqrt(prob)
    return _update_qubit(amps, target, lambda a0, a1: (c0 * a0 - s0 * a1, s0 * a0 + c0 * a1))


def apply_network(
    state: Statevector, wiring: Sequence[tuple[NeuralPotential, int]]
) -> Statevector:
    """Apply perceptron gates in order; target qubits must be distinct."""
    n = _instance(state, Statevector, "state").n
    wiring = _sequence(wiring, "wiring", lambda gate: _sequence(gate, "wiring entries"))
    if any(len(gate) != 2 for gate in wiring):
        raise InvalidWiringError("wiring entries must be (potential, target) pairs")
    targets = [_integer(t, "target qubit", 1, n, error=InvalidWiringError) for _, t in wiring]
    if len(set(targets)) != len(targets):
        raise InvalidWiringError(f"duplicate target qubits in {targets}")
    out = state
    for p, target in wiring:
        out = apply_perceptron_gate(out, p, target)
    return out


def statevector_table(potentials: Sequence[NeuralPotential]) -> np.ndarray:
    """Network outputs on every basis input from one statevector evolution.

    Puts k input qubits in the uniform superposition (the state a Hadamard
    on each would leave, written directly) and one |0> target per
    potential, applies every perceptron gate once, and returns the
    (2^k, outputs) table whose row i holds each target's excitation
    probability conditioned on the inputs reading basis state i: its
    marginal on that row, times 2^k.  zero_state checks the register,
    k + outputs qubits, against MAX_QUBITS before it allocates it.
    """
    potentials = _sequence(potentials, "potentials", NeuralPotential)
    if not potentials:
        raise InvalidInputError("need at least one potential")
    k = potentials[0].arity
    if any(p.arity != k for p in potentials):
        raise InvalidInputError("every potential must match the input arity")
    n_out = len(potentials)
    amps = zero_state(k + n_out).amplitudes
    # r^k, multiplied out as the k Hadamards do (r**k may round apart), where targets read 0
    amps.reshape(2**k, 2**n_out)[:, 0] = math.prod([1.0 / np.sqrt(2.0)] * k)
    prob = _activations(potentials, 2.0 * _bit_rows(k) - 1.0)
    for j in range(n_out):
        amps = _rotate_target(amps, prob[:, j], k, k + 1 + j)
    probs = np.abs(amps.reshape(2**k, 2**n_out)) ** 2
    return 2.0**k * (probs @ _bit_rows(n_out))  # column j: target j reads 1


def forward_statevector(
    potentials: Sequence[NeuralPotential], s: SpinConfig
) -> np.ndarray:
    """Network outputs on one basis input s, checked before the register is built."""
    k = len(_instance(s, SpinConfig, "s"))
    if any(p.arity != k for p in _sequence(potentials, "potentials", NeuralPotential)):
        raise InvalidInputError(f"s has {k} spins; every potential must take {k} inputs")
    return statevector_table(potentials)[_basis_index(s.bits)]
