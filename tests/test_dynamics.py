"""Two-level ramp dynamics, statevector register, and perceptron gates."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from qperceptron import (
    AdiabaticSchedule,
    InvalidInputError,
    MultiQubitTerm,
    NeuralPotential,
    ScheduleTooFastError,
    SpinConfig,
    activation,
    adiabatic_evolve,
    adiabatic_profile,
    apply_network,
    apply_perceptron_gate,
    basis_state,
    default_schedule,
    forward_statevector,
    instantaneous_upper_eigenstate,
    statevector_table,
    zero_state,
)
from qperceptron import dynamics
from qperceptron.core import _bit_rows
from qperceptron.dynamics import (
    MAX_MAGNITUDE,
    MAX_POINT_STEPS,
    MAX_QUBITS,
    IntegratorError,
    InvalidWiringError,
    Statevector,
    _basis_index,
    _compose,
    _drive,
    _propagate_grid,
    _ramp_steps,
)
from references import (
    excitation_probability,
    hamiltonian,
    potentials_over,
    update_qubit,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
# |+>|0>: qubit 1 in the equal superposition
PLUS_ZERO = Statevector([INV_SQRT2, 0.0, INV_SQRT2, 0.0], 2)


def _omega(s, t):
    """The drive of schedule s at time t."""
    return _drive(s.omega_start, s.omega_end, t, s.t_f, s.ramp)


class TestSchedule:
    def test_linear_interpolation_endpoints(self):
        s = AdiabaticSchedule(omega_start=50.0, omega_end=1.0, t_f=200.0)
        assert _omega(s, 0.0) == 50.0
        assert _omega(s, 200.0) == 1.0
        assert _omega(s, 100.0) == pytest.approx(25.5)

    def test_default_drive_scales_with_the_potential(self):
        assert default_schedule(0.3).omega_start == 50.0
        assert default_schedule(-2.0).omega_start == 100.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            AdiabaticSchedule(omega_start=50.0, omega_end=0.0)
        with pytest.raises(InvalidInputError):
            AdiabaticSchedule(omega_start=0.5, omega_end=1.0)
        with pytest.raises(InvalidInputError):
            AdiabaticSchedule(omega_start=50.0, t_f=200.0, dt=1.0)
        with pytest.raises(InvalidInputError):
            AdiabaticSchedule(omega_start=50.0, ramp="cosine")

    @pytest.mark.parametrize("name", ["omega_start", "omega_end", "t_f", "dt"])
    @pytest.mark.parametrize("value", ["a", None, 1j])
    def test_rejects_a_setting_that_is_not_a_real_number(self, name, value):
        with pytest.raises(InvalidInputError, match=f"{name} must be a real number"):
            AdiabaticSchedule(**{"omega_start": 50.0, name: value})


class TestSmoothRamp:
    def test_endpoints_and_flat_ends(self):
        s = AdiabaticSchedule(
            omega_start=50.0, omega_end=1.0, t_f=200.0, ramp="smooth"
        )
        assert _omega(s, 0.0) == 50.0
        assert _omega(s, 200.0) == 1.0
        assert _omega(s, 100.0) == pytest.approx(25.5)
        h = 1e-3
        # smootherstep leaves the ends with zero slope; the linear ramp
        # would have slope -49 / 200 there
        assert abs(_omega(s, 200.0) - _omega(s, 200.0 - h)) / h < 1e-6
        assert abs(_omega(s, h) - _omega(s, 0.0)) / h < 1e-6

    def test_evolve_matches_profile(self):
        x = 1.3
        schedule = AdiabaticSchedule(
            omega_start=50.0 * max(1.0, abs(x)), t_f=20.0, dt=1e-3, ramp="smooth"
        )
        profile = adiabatic_profile([x], t_f=20.0, dt=1e-3, ramp="smooth")
        assert adiabatic_evolve(x, schedule) == pytest.approx(
            profile.probabilities[0], abs=1e-12
        )

    def test_balanced_potential_stays_balanced(self):
        schedule = AdiabaticSchedule(omega_start=50.0, t_f=20.0, ramp="smooth")
        assert adiabatic_evolve(0.0, schedule) == pytest.approx(0.5, abs=1e-12)

    def test_tracks_the_activation_far_better_than_the_linear_ramp(self):
        xs = [-1.0, 0.5, 1.0]
        smooth = adiabatic_profile(xs, t_f=200.0, dt=1e-2, ramp="smooth")
        linear = adiabatic_profile(xs, t_f=200.0, dt=1e-2)
        assert smooth.max_error < 1e-5
        assert linear.max_error > 1e-3

    def test_profile_rejects_unknown_shape(self):
        with pytest.raises(InvalidInputError):
            adiabatic_profile([0.5], ramp="cosine")


class TestHamiltonianAndEigenstate:
    def test_matrix_entries(self):
        h = hamiltonian(2.0, 3.0)
        np.testing.assert_allclose(h, 0.5 * np.array([[-2.0, 3.0], [3.0, 2.0]]))
        np.testing.assert_allclose(h, h.conj().T)

    def test_balanced_point(self):
        v = instantaneous_upper_eigenstate(0.0, 1.0)
        assert v == pytest.approx((INV_SQRT2, INV_SQRT2))

    def test_unit_tilt(self):
        f1 = activation(1.0)
        v = instantaneous_upper_eigenstate(1.0, 1.0)
        assert v == pytest.approx((np.sqrt(1 - f1), np.sqrt(f1)), abs=1e-15)

    def test_eigen_residual_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = float(rng.uniform(-5, 5))
            omega = float(rng.uniform(0.1, 10))
            v = np.array(instantaneous_upper_eigenstate(x, omega), dtype=complex)
            e = 0.5 * np.hypot(x, omega)
            residual = np.linalg.norm(hamiltonian(x, omega) @ v - e * v)
            assert residual < 1e-12

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(InvalidInputError):
            instantaneous_upper_eigenstate(1.0, 0.0)

    @pytest.mark.parametrize(
        "x, omega",
        [(1.0, "a"), ("a", 1.0), (1j, 1.0), (1.0, [1.0, "a"]), ([[1.0], [1.0, 2.0]], 1.0)],
    )
    def test_rejects_an_argument_that_is_not_real(self, x, omega):
        with pytest.raises(InvalidInputError, match="must be real"):
            instantaneous_upper_eigenstate(x, omega)

    @pytest.mark.parametrize(
        "x, omega",
        [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf), ([0.0, -np.inf], 1.0)],
    )
    def test_rejects_an_argument_that_is_not_finite(self, x, omega):
        with pytest.raises(InvalidInputError, match="^x and omega must be finite$"):
            instantaneous_upper_eigenstate(x, omega)

    def test_array_arguments_broadcast(self):
        xs, omegas = np.array([[0.0], [1.0]]), np.array([1.0, 2.0, 4.0])
        lower, upper = instantaneous_upper_eigenstate(xs, omegas)
        assert lower.shape == upper.shape == (2, 3)
        for i, j in itertools.product(range(2), range(3)):
            one = instantaneous_upper_eigenstate(xs[i, 0], omegas[j])
            assert (lower[i, j], upper[i, j]) == one

    @pytest.mark.parametrize("container", [list, tuple])
    def test_a_list_or_tuple_is_its_array(self, container):
        xs, omegas = [-1.5, 0.0, 0.25, 3.0], [2.0, 0.5, 1.0, 7.0]
        for omega, given in [(np.array(omegas), container(omegas)), (2.0, 2.0)]:
            got = instantaneous_upper_eigenstate(container(xs), given)
            expected = instantaneous_upper_eigenstate(np.array(xs), omega)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]


class TestAdiabaticEvolve:
    def test_balanced_potential_stays_balanced(self):
        assert adiabatic_evolve(0.0) == pytest.approx(0.5, abs=1e-9)

    def test_default_ramp_regression_values(self):
        # frozen outputs of the default 50 -> 1 ramp over t_f = 200
        assert adiabatic_evolve(1.0) == pytest.approx(0.8390739986021529, abs=1e-9)
        assert adiabatic_evolve(0.5) == pytest.approx(0.7055445453303999, abs=1e-9)

    @pytest.mark.parametrize("x", ["a", 1j, None, [0.5]])
    def test_rejects_a_potential_that_is_not_a_real_number(self, x):
        for call in (
            lambda: adiabatic_evolve(x),
            lambda: adiabatic_evolve(x, AdiabaticSchedule(omega_start=50.0)),
            lambda: default_schedule(x),
        ):
            with pytest.raises(InvalidInputError, match="x must be a real number"):
                call()

    @pytest.mark.parametrize("x", [np.inf, -np.inf, 10**400], ids=["inf", "-inf", "10**400"])
    def test_rejects_a_potential_past_the_bound_by_its_name(self, x):
        for call in (lambda: adiabatic_evolve(x), lambda: default_schedule(x)):
            with pytest.raises(InvalidInputError, match=r"^\|x\| must be at most MAX_MAGNITUDE"):
                call()

    def test_rejects_a_schedule_of_another_type(self):
        with pytest.raises(InvalidInputError, match="must be an AdiabaticSchedule"):
            adiabatic_evolve(0.5, {"omega_start": 50.0})

    def test_guard_rejects_large_potential_for_the_drive(self):
        schedule = AdiabaticSchedule(omega_start=50.0)
        with pytest.raises(ScheduleTooFastError):
            adiabatic_evolve(6.0, schedule)

    def test_step_size_insensitivity(self):
        coarse = adiabatic_evolve(
            0.5, AdiabaticSchedule(omega_start=50.0, t_f=200.0, dt=1e-2)
        )
        fine = adiabatic_evolve(
            0.5, AdiabaticSchedule(omega_start=50.0, t_f=200.0, dt=1e-3)
        )
        assert coarse == pytest.approx(fine, abs=1e-6)

    def test_slower_ramp_tracks_the_activation_better(self):
        target = activation(0.5)
        fast = adiabatic_evolve(
            0.5, AdiabaticSchedule(omega_start=50.0, t_f=200.0, dt=1e-2)
        )
        slow = adiabatic_evolve(
            0.5, AdiabaticSchedule(omega_start=50.0, t_f=1000.0, dt=1e-2)
        )
        assert abs(slow - target) < abs(fast - target)

    def test_agrees_with_reference_integrator(self):
        # independent oracle: adaptive RK on the same time-dependent generator
        x, omega_start, omega_end, t_f = 1.0, 50.0, 1.0, 5.0

        def rhs(t, psi):
            omega = omega_start + (omega_end - omega_start) * t / t_f
            h = hamiltonian(x, omega)
            return -1j * (h @ psi)

        sol = solve_ivp(
            rhs,
            (0.0, t_f),
            np.array([INV_SQRT2, INV_SQRT2], dtype=complex),
            rtol=1e-11,
            atol=1e-13,
        )
        reference = float(np.abs(sol.y[1, -1]) ** 2)
        coarse = adiabatic_evolve(
            x, AdiabaticSchedule(omega_start, omega_end, t_f=t_f, dt=5e-3)
        )
        fine = adiabatic_evolve(
            x, AdiabaticSchedule(omega_start, omega_end, t_f=t_f, dt=1e-3)
        )
        assert fine == pytest.approx(reference, abs=1e-6)
        # halving the step shrinks the defect quadratically
        assert abs(fine - reference) < abs(coarse - reference) / 10


class TestAdiabaticProfile:
    def test_profile_fields_are_consistent(self):
        xs = np.array([-1.0, 0.0, 1.0])
        profile = adiabatic_profile(xs, t_f=50.0, dt=1e-2)
        probs = np.array(profile.probabilities)
        targets = np.array(profile.targets)
        errors = np.array(profile.errors)
        np.testing.assert_allclose(targets, activation(xs), atol=1e-15)
        np.testing.assert_allclose(errors, np.abs(probs - targets), atol=1e-15)
        assert profile.max_error == pytest.approx(float(errors.max()))
        assert profile.max_drift < 1e-9

    def test_rejects_an_empty_grid(self):
        with pytest.raises(InvalidInputError, match="empty x grid"):
            adiabatic_profile([])

    @pytest.mark.parametrize(
        "xs, settings, message",
        [
            ([[1.0, 2.0]], {}, r"one-dimensional, got shape \(1, 2\)"),
            (["a"], {}, "sequence of real numbers"),
            ([1j], {}, "sequence of real numbers"),
            (np.array([0.5 + 1j]), {}, "sequence of real numbers"),
            ([None], {}, "sequence of real numbers"),
            ([[1.0], [2.0, 3.0]], {}, "sequence of real numbers"),
            (5, {}, "sequence of real numbers"),
            ([1.0], {"dt": "x"}, "dt must be a real number"),
            ([1.0], {"t_f": None}, "t_f must be a real number"),
            ([1.0], {"omega_end": "a"}, "omega_end must be a real number"),
            ([1.0], {"omega_start_factor": "a"}, "omega_start_factor must be a real"),
            ([0.5], {"omega_start_factor": 0.0}, "omega_start_factor must be at least"),
            ([0.5], {"omega_start_factor": -1.0}, "omega_start_factor must be at least"),
        ],
    )
    def test_rejects_a_grid_or_setting_of_the_wrong_kind(self, xs, settings, message):
        with pytest.raises(InvalidInputError, match=message):
            adiabatic_profile(xs, **settings)

    def test_the_slow_start_bound_holds_per_point(self):
        # at factor 5, |x| = 0.5 sits on its bound 5 * 1 / 10, while |x| = 3
        # exceeds 5 * 3 / 10
        adiabatic_profile([0.5], t_f=1.0, omega_start_factor=5.0)
        with pytest.raises(
            ScheduleTooFastError, match=r"\|x\| = 3\.0 exceeds the slow-start bound"
        ):
            adiabatic_profile([0.5, 3.0], t_f=1.0, omega_start_factor=5.0)

    def test_omega_end_is_checked_against_the_smallest_start(self):
        # the starts are 50 and 150: an end of 100 would ramp the 0.5 point's
        # drive upward, so the grid must raise as the 0.5 point alone does
        match = r"omega_end = 100\.0 must lie in .*omega_start = 50\.0\]"
        for xs in ([0.5], [0.5, 3.0], [3.0, 0.5]):
            with pytest.raises(InvalidInputError, match=match):
                adiabatic_profile(xs, t_f=1.0, omega_end=100.0)
        adiabatic_profile([3.0], t_f=1.0, omega_end=100.0)


PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ]
)


def _su2(quaternions):
    """(4, n) quaternions (w, p, q, r) -> (n, 2, 2) w I - i (p X + q Y + r Z)."""
    w, vec = quaternions[0], quaternions[1:]
    return w[:, None, None] * np.eye(2) - 1j * np.einsum("kn,kij->nij", vec, PAULI)


def _matmul_propagate(xs, omega_starts, omega_end, t_f, dt, ramp):
    """The complex 2x2 matmul composition the quaternion kernel replaced."""
    n_steps = max(1, int(round(t_f / dt)))
    step = t_f / n_steps
    g = xs.shape[0]
    total = None
    block = 1 << 14
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        mid = (np.arange(start, stop) + 0.5) * step
        om = _drive(omega_starts[None, :], omega_end, mid[:, None], t_f, ramp)
        energy = 0.5 * np.sqrt(xs[None, :] ** 2 + om**2)
        c = np.cos(energy * step)
        s = np.sin(energy * step) / energy
        u = np.empty((stop - start, g, 2, 2), dtype=complex)
        u[..., 0, 0] = c + 0.5j * s * xs[None, :]
        u[..., 0, 1] = -0.5j * s * om
        u[..., 1, 0] = -0.5j * s * om
        u[..., 1, 1] = c - 0.5j * s * xs[None, :]
        while u.shape[0] > 1:
            if u.shape[0] % 2:
                tail = u[-1:]
                u = np.concatenate([np.matmul(u[1:-1:2], u[0:-1:2]), tail])
            else:
                u = np.matmul(u[1::2], u[0::2])
        total = u[0] if total is None else np.matmul(u[0], total)
    if ramp == "linear":
        psi0 = np.full((g, 2), INV_SQRT2, dtype=complex)
    else:
        p0 = activation(xs / omega_starts)
        psi0 = np.stack([np.sqrt(1.0 - p0), np.sqrt(p0)], axis=1).astype(complex)
    psi = np.einsum("gij,gj->gi", total, psi0)
    return np.abs(psi[:, 1]) ** 2


def _hamilton_expression(a, b, out):
    """The written-out Hamilton product of (w, p, q, r) quaternions, the
    reference's first tree level."""
    aw, ap, aq, ar = a
    bw, bp, bq, br = b
    out[0] = aw * bw - ap * bp - aq * bq - ar * br
    out[1] = aw * bp + ap * bw + aq * br - ar * bq
    out[2] = aw * bq + aq * bw + ar * bp - ap * br
    out[3] = aw * br + ar * bw + ap * bq - aq * bp
    return out


def _times(a, b):
    """The complex product a * b in a new array.  numpy rounds a product
    written in place, as into an expression's reused temporary, without its
    fused multiply-add, so no product here is written over an operand."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    return np.multiply(a, b, out=out)


def _pair_expression(later, earlier):
    """The written-out product later * earlier of (alpha, gamma) pairs, the
    reference's upper tree levels and chaining of blocks."""
    (al, gl), (ae, ge) = later, earlier
    return np.stack(
        [
            _times(al, ae) - _times(gl, np.conjugate(ge)),
            _times(gl, np.conjugate(ae)) + _times(al, ge),
        ]
    )


def _pairs(quaternions):
    """(w, p, q, r) -> (alpha, gamma) = (w + i r, p + i q), on the first axis."""
    w, p, q, r = quaternions
    return np.stack([w + 1j * r, p + 1j * q])


def _quaternions(pairs):
    """(alpha, gamma) -> (w, p, q, r), on the first axis."""
    alpha, gamma = pairs
    return np.stack([alpha.real, gamma.real, gamma.imag, alpha.imag])


def _quaternion_propagate(xs, omega_starts, omega_end, t_f, dt, ramp):
    """The tree breadth first over whole blocks: a (4, points, steps) array
    of steps (1, P, 0, R) per block from the tangents T of their angles,
    16-multiply Hamilton products at the first level, each scaled by
    1 / sqrt((1 + T_L^2)(1 + T_E^2)), then (w + i r, p + i q) pairs composed
    by written-out pair products at every upper level.  The blocks are
    aligned subtrees, so folding their products pairwise with carry gives
    the one tree over the whole ramp."""
    g = xs.shape[0]
    n_steps = _ramp_steps(g, t_f, dt)
    step = t_f / n_steps
    products = []
    block = 1 << 14
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        mid = (np.arange(start, stop) + 0.5) * step
        om = _drive(omega_starts[:, None], omega_end, mid, t_f, ramp)
        rate = np.sqrt(xs[:, None] ** 2 + om**2)  # 2 E
        tan = np.tan((0.5 * step) * rate)
        u = np.empty((4, g, stop - start))
        u[0] = 1.0
        np.multiply(tan / rate, om, out=u[1])
        u[2] = 0.0
        np.multiply(tan / rate, -xs[:, None], out=u[3])
        size = 1.0 + tan**2
        pairs = u.shape[2] // 2
        nxt = np.empty((4, g, u.shape[2] - pairs))
        later, earlier = u[..., 1 : 2 * pairs : 2], u[..., 0 : 2 * pairs : 2]
        _hamilton_expression(later, earlier, nxt[..., :pairs])
        scale = 1.0 / np.sqrt(size[:, 1 : 2 * pairs : 2] * size[:, 0 : 2 * pairs : 2])
        nxt[..., :pairs] *= scale
        if u.shape[2] % 2:
            nxt[..., -1] = u[..., -1] * (1.0 / np.sqrt(size[:, -1]))
        u = _pairs(nxt)
        while u.shape[2] > 1:
            pairs = u.shape[2] // 2
            later, earlier = u[..., 1 : 2 * pairs : 2], u[..., 0 : 2 * pairs : 2]
            product = _pair_expression(later, earlier)
            u = np.concatenate([product, u[..., 2 * pairs :]], axis=2)
        products.append(u[..., 0])
    while len(products) > 1:
        pairs = len(products) // 2
        later, earlier = products[1 : 2 * pairs : 2], products[0 : 2 * pairs : 2]
        products = [*map(_pair_expression, later, earlier), *products[2 * pairs :]]
    w, p, q, r = _quaternions(products[0])
    mat = np.empty((g, 2, 2), dtype=complex)
    mat[:, 0, 0] = w - 1j * r
    mat[:, 0, 1] = -q - 1j * p
    mat[:, 1, 0] = q - 1j * p
    mat[:, 1, 1] = w + 1j * r
    if ramp == "linear":
        psi0 = np.full((g, 2), 1.0 / np.sqrt(2.0), dtype=complex)
    else:
        p0 = np.atleast_1d(activation(xs / omega_starts))
        psi0 = np.stack([np.sqrt(1.0 - p0), np.sqrt(p0)], axis=1).astype(complex)
    psi = np.einsum("gij,gj->gi", mat, psi0)
    probs = np.abs(psi[:, 1]) ** 2
    drift = np.abs(np.sqrt(np.sum(np.abs(psi) ** 2, axis=1)) - 1.0)
    return probs, drift


class TestQuaternionPropagator:
    def test_pair_product_is_the_matrix_product(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 4, 500))
        a /= np.linalg.norm(a, axis=0)
        b /= np.linalg.norm(b, axis=0)
        product = _compose(
            _pairs(a), _pairs(b), np.empty((2, 500), complex), np.empty(500, complex)
        )
        np.testing.assert_allclose(
            _su2(_quaternions(product)), _su2(a) @ _su2(b), rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            np.linalg.norm(_quaternions(product), axis=0), 1.0, atol=1e-15
        )

    def test_the_product_of_mirrored_pairs_is_the_mirrored_product(self):
        # the ramp of -x is the conjugate of the ramp of x, bit for bit
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 4, 500))
        product, mirrored = (
            _compose(
                later, earlier, np.empty((2, 500), complex), np.empty(500, complex)
            )
            for later, earlier in [
                (_pairs(a), _pairs(b)),
                (np.conjugate(_pairs(a)), np.conjugate(_pairs(b))),
            ]
        )
        np.testing.assert_array_equal(
            mirrored.view(np.uint64), np.conjugate(product).view(np.uint64)
        )

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    # 100001 steps: six full blocks and a last one of 1697, odd at the first
    # level of its tree
    @pytest.mark.parametrize("t_f", [100.0, 100.001])
    def test_agrees_with_the_complex_matmul_composition(self, ramp, t_f):
        xs = np.linspace(-3.0, 3.0, 7)
        starts = 50.0 * np.maximum(1.0, np.abs(xs))
        probs, drift = _propagate_grid(xs, starts, 1.0, t_f, 1e-3, ramp)
        reference = _matmul_propagate(xs, starts, 1.0, t_f, 1e-3, ramp)
        np.testing.assert_allclose(probs, reference, rtol=0, atol=1e-12)
        assert drift.max() < 1e-11

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    # E dt starts at ~pi/2 from 3141.5926 and past it from 6000, where a
    # step's sign flips; drives from 1e6 and 1e12 sweep E dt over many
    # periods of tan
    @pytest.mark.parametrize("omega_start", [3141.0, 3141.5926, 6000.0, 1e6, 1e12])
    def test_agrees_where_the_tangent_is_large(self, ramp, omega_start):
        xs = np.linspace(-3.0, 3.0, 7)
        starts = np.full(7, omega_start)
        probs, drift = _propagate_grid(xs, starts, 1.0, 2.0, 1e-3, ramp)
        reference = _matmul_propagate(xs, starts, 1.0, 2.0, 1e-3, ramp)
        np.testing.assert_allclose(probs, reference, rtol=0, atol=3e-14)
        assert drift.max() <= 5e-14

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_a_built_step_is_a_unit_quaternion(self, ramp, n_steps):
        # One step goes up as the odd last step, two as one scaled pair.  The
        # drift of (w, p, 0, r) applied to a unit state is
        # |sqrt(w^2 + p^2 + r^2) - 1|, plus the rounding of the drift itself.
        rng = np.random.default_rng(n_steps)
        xs = rng.uniform(-3.0, 3.0, 4096)
        starts = 10.0 ** rng.uniform(0.0, 12.0, 4096)
        _, drift = _propagate_grid(xs, starts, 1.0, 1e-3 * n_steps, 1e-3, ramp)
        assert drift.max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    @pytest.mark.parametrize("points", [1, 7, 61])
    # odd first levels (1, 3, 16383, 16385), one exact block (16384), a
    # second block of one step (16385) and a last block of 1697 (100001)
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 16383, 16384, 16385, 100001])
    def test_is_bitwise_the_unfused_composition(self, ramp, points, n_steps):
        rng = np.random.default_rng(points)
        xs = np.sort(rng.uniform(-3.0, 3.0, points))
        starts = 50.0 * np.maximum(1.0, np.abs(xs))
        t_f = 1e-3 * n_steps
        probs, drift = _propagate_grid(xs, starts, 1.0, t_f, 1e-3, ramp)
        ref_probs, ref_drift = _quaternion_propagate(xs, starts, 1.0, t_f, 1e-3, ramp)
        assert _ramp_steps(points, t_f, 1e-3) == n_steps
        np.testing.assert_array_equal(probs, ref_probs)
        np.testing.assert_array_equal(drift, ref_drift)

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    def test_evolve_equals_the_profile_bitwise(self, ramp):
        rng = np.random.default_rng(3)
        spacing = 6.0 / 60
        xs = np.linspace(-3.0, 3.0, 61) + rng.uniform(
            -0.45 * spacing, 0.45 * spacing, 61
        )
        profile = adiabatic_profile(xs, t_f=20.0, dt=1e-3, ramp=ramp)
        evolved = [
            adiabatic_evolve(
                x,
                AdiabaticSchedule(
                    50.0 * max(1.0, abs(x)), t_f=20.0, dt=1e-3, ramp=ramp
                ),
            )
            for x in xs
        ]
        assert evolved == list(profile.probabilities)


# The chunk _propagate_grid cuts a ramp into, by the number of points: the
# largest power of two of steps, at least 2, with points x chunk <= 2^16.
_CHUNKS = {4: 16384, 5: 8192, 8: 8192, 9: 4096, 16: 4096, 17: 2048, 1000: 64}


def _boundary_cases():
    """(points, steps) at each side of a chunk, one block plus a step, and
    two blocks plus a chunk and 3 steps; one ramp each, alternating.

    1000 points skip the last, which alone would take ~2 s: their 256
    chunks a block already fill the stack at one block plus a step.
    """
    cases = sorted(
        {
            (points, n_steps)
            for points, chunk in _CHUNKS.items()
            for n_steps in (chunk - 1, chunk, chunk + 1, 16385, 2 * 16384 + chunk + 3)
            if (points, n_steps) != (1000, 2 * 16384 + chunk + 3)
        }
    )
    return [
        (points, n_steps, ("linear", "smooth")[i % 2])
        for i, (points, n_steps) in enumerate(cases)
    ]


def _grid(points, seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-3.0, 3.0, points))
    return xs, 50.0 * np.maximum(1.0, np.abs(xs))


class TestDepthFirstPropagator:
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 80),
        st.integers(1, 40_000),
        st.sampled_from(["linear", "smooth"]),
    )
    def test_is_bitwise_the_breadth_first_tree(self, points, n_steps, ramp):
        xs, starts = _grid(points, n_steps)
        t_f = 1e-3 * n_steps
        probs, drift = _propagate_grid(xs, starts, 1.0, t_f, 1e-3, ramp)
        ref_probs, ref_drift = _quaternion_propagate(xs, starts, 1.0, t_f, 1e-3, ramp)
        np.testing.assert_array_equal(probs, ref_probs)
        np.testing.assert_array_equal(drift, ref_drift)

    @pytest.mark.parametrize("points, n_steps, ramp", _boundary_cases())
    def test_is_bitwise_the_tree_across_chunk_boundaries(self, points, n_steps, ramp):
        xs, starts = _grid(points, points)
        t_f = 1e-3 * n_steps
        probs, drift = _propagate_grid(xs, starts, 1.0, t_f, 1e-3, ramp)
        # A point's result does not depend on the rest of the grid, so the
        # reference needs only some of the points.
        some = np.unique(np.linspace(0, points - 1, 9).astype(int))
        ref_probs, ref_drift = _quaternion_propagate(
            xs[some], starts[some], 1.0, t_f, 1e-3, ramp
        )
        np.testing.assert_array_equal(probs[some], ref_probs)
        np.testing.assert_array_equal(drift[some], ref_drift)

    def test_working_set_does_not_grow_with_the_grid(self):
        xs, starts = _grid(1000, 0)
        tracemalloc.start()
        try:
            _propagate_grid(xs, starts, 1.0, 2.048, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_a_call_leaves_no_reference_cycle(self):
        # a cycle would hold the call's workspace until the next collection,
        # which tracemalloc's peak inside one call cannot see
        xs, starts = _grid(7, 0)
        gc.collect()
        gc.disable()
        try:
            _propagate_grid(xs, starts, 1.0, 20.0, 1e-3)  # 20,000 steps
            assert gc.collect() == 0
        finally:
            gc.enable()


class _OffsetNumpy:
    """numpy for dynamics alone, whose empty returns buffers that start
    offset bytes past a 64-byte boundary, as numpy's own 16-byte-aligned ones
    may; each is appended to served."""

    def __init__(self, offset, served):
        self.offset, self.served = offset, served

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        raw = np.empty(nbytes + 128, dtype=np.uint8)
        start = (self.offset - raw.ctypes.data) % 64
        self.served.append(raw[start : start + nbytes].view(dtype).reshape(shape))
        return self.served[-1]


class TestAlignedWorkspace:
    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    # several chunks each, of 32768, 4096, 512, 8, 4 and 2 steps: past 2^11
    # points the half-chunk rows, of 16396, 16390 and 16387 floats, are not
    # whole 64-byte lines, so only the workspace's start is aligned
    @pytest.mark.parametrize(
        "points, n_steps",
        [(1, 70001), (7, 9001), (61, 5003), (4099, 19), (8195, 11), (16387, 7)],
    )
    def test_workspace_starts_on_64_bytes_and_no_bit_moves(
        self, monkeypatch, ramp, points, n_steps
    ):
        xs, starts = _grid(points, points)
        t_f = 1e-3 * n_steps
        want = _propagate_grid(xs, starts, 1.0, t_f, 1e-3, ramp)
        aligned_rows, workspaces = dynamics._aligned_rows, []

        def spy(*args):
            workspaces.append(aligned_rows(*args))
            return workspaces[-1]

        for offset in (0, 16, 32, 48):
            served, workspaces[:] = [], []
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "np", _OffsetNumpy(offset, served))
                patch.setattr(dynamics, "_aligned_rows", spy)
                got = _propagate_grid(xs, starts, 1.0, t_f, 1e-3, ramp)
            (rows,) = workspaces
            assert any(np.shares_memory(rows, buf) for buf in served)
            assert rows.ctypes.data % 64 == 0
            if points <= 61:
                assert [row.ctypes.data % 64 for row in rows] == [0] * 11
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


def _mirrored_grid(points, mirrors, duplicates, seed):
    """A shuffled grid of random points, the exact mirror -x of the first
    mirrors of them, exact duplicates of the first duplicates, +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-3.0, 3.0, points)
    xs = np.concatenate([xs, -xs[:mirrors], xs[:duplicates], [0.0, -0.0]])
    rng.shuffle(xs)
    return xs


def _drive_widths(monkeypatch):
    """The number of points each later call of dynamics._drive sees."""
    widths = []

    def spy(omega_start, *args, **kwargs):
        widths.append(np.shape(omega_start)[0])
        return _drive(omega_start, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_drive", spy)
    return widths


class TestMirroredGrid:
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 30),
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(1, 40_000),
        st.sampled_from(["linear", "smooth"]),
    )
    def test_is_bitwise_each_points_own_steps(
        self, points, mirrors, duplicates, n_steps, ramp
    ):
        xs = _mirrored_grid(points, mirrors, duplicates, n_steps)
        starts = 50.0 * np.maximum(1.0, np.abs(xs))
        t_f = 1e-3 * n_steps
        probs, drift = _propagate_grid(xs, starts, 1.0, t_f, 1e-3, ramp)
        ref_probs, ref_drift = _quaternion_propagate(xs, starts, 1.0, t_f, 1e-3, ramp)
        np.testing.assert_array_equal(probs, ref_probs)
        np.testing.assert_array_equal(drift, ref_drift)

    def test_the_criterion_grid_propagates_its_distinct_magnitudes(self, monkeypatch):
        widths = _drive_widths(monkeypatch)
        xs = np.linspace(-3.0, 3.0, 7)
        _propagate_grid(xs, 50.0 * np.maximum(1.0, np.abs(xs)), 1.0, 2.0, 1e-3)
        assert widths and set(widths) == {4}

    def test_a_grid_without_mirrors_propagates_every_point(self, monkeypatch):
        widths = _drive_widths(monkeypatch)
        xs, starts = _grid(9, 0)
        _propagate_grid(xs, starts, 1.0, 2.0, 1e-3)
        assert widths and set(widths) == {9}

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    def test_mirrors_with_different_starts_share_nothing(self, monkeypatch, ramp):
        widths = _drive_widths(monkeypatch)
        xs, starts = np.array([-1.5, 1.5, 0.0, -0.0]), np.array([75.0, 80.0, 50.0, 60.0])
        probs, drift = _propagate_grid(xs, starts, 1.0, 2.0, 1e-3, ramp)
        assert widths and set(widths) == {4}
        ref_probs, ref_drift = _quaternion_propagate(xs, starts, 1.0, 2.0, 1e-3, ramp)
        np.testing.assert_array_equal(probs, ref_probs)
        np.testing.assert_array_equal(drift, ref_drift)

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    @pytest.mark.parametrize("n_steps", [16383, 16384])
    def test_each_point_is_its_solo_run_at_numpys_elision_size(self, ramp, n_steps):
        # 4 distinct |x| take 16384-step chunks, whose second level is a
        # (4, 4096) complex array per component: 256 KiB, the size from
        # which numpy reuses an expression's temporary for its result
        xs = np.array([0.0, 1.0, 2.0, 3.0, -0.0, -1.0, -2.0, -3.0])
        starts = 50.0 * np.maximum(1.0, np.abs(xs))
        t_f = 1e-3 * n_steps
        probs, drift = _propagate_grid(xs, starts, 1.0, t_f, 1e-3, ramp)
        for i in range(xs.shape[0]):
            solo = _propagate_grid(
                xs[i : i + 1], starts[i : i + 1], 1.0, t_f, 1e-3, ramp
            )
            assert (probs[i], drift[i]) == (solo[0][0], solo[1][0])

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 4),
        st.integers(0, 4),
        st.floats(0.01, 5.0),
        st.integers(1000, 5000),
        st.floats(10.0, 100.0),
        st.floats(0.05, 10.0),
        st.sampled_from(["linear", "smooth"]),
    )
    def test_evolve_equals_the_profile_bitwise(
        self, points, mirrors, t_f, n_steps, factor, omega_end, ramp
    ):
        xs = _mirrored_grid(points, mirrors, 1, n_steps)
        dt = t_f / n_steps
        profile = adiabatic_profile(
            xs, t_f=t_f, dt=dt, omega_start_factor=factor, omega_end=omega_end, ramp=ramp
        )
        evolved = [
            adiabatic_evolve(
                x,
                AdiabaticSchedule(
                    factor * max(1.0, abs(x)), omega_end, t_f=t_f, dt=dt, ramp=ramp
                ),
            )
            for x in xs
        ]
        assert evolved == list(profile.probabilities)
        assert profile.max_drift < 1e-9


class TestStepBudget:
    def test_counts_steps_up_to_the_budget(self):
        assert _ramp_steps(7, 200.0, 1e-3) == 200_000
        assert _ramp_steps(1, 1e-3, 1e-3) == 1
        assert _ramp_steps(500, 200.0, 1e-3) * 500 == MAX_POINT_STEPS
        for points, t_f, dt in [
            (501, 200.0, 1e-3),
            (1, 1.0, 1e-9),
            (1, 1e300, 1e-10),
            (1, float("-inf"), 1e-3),
            (1, -1e300, 1e-10),
        ]:
            with pytest.raises(InvalidInputError, match="budget"):
                _ramp_steps(points, t_f, dt)

    @pytest.mark.parametrize("dt", [0.0, -0.0, -1e-3, float("nan")])
    def test_rejects_a_step_that_is_not_positive(self, dt):
        with pytest.raises(InvalidInputError, match="dt must be positive"):
            _ramp_steps(1, 1.0, dt)

    def test_profile_and_evolve_reject_before_stepping(self, monkeypatch):
        def no_steps(*args):
            raise AssertionError("the propagator started stepping")

        monkeypatch.setattr(dynamics, "_drive", no_steps)
        with pytest.raises(InvalidInputError, match="budget"):
            adiabatic_evolve(0.5, AdiabaticSchedule(omega_start=50.0, t_f=1.0, dt=1e-9))
        with pytest.raises(InvalidInputError, match="budget"):
            adiabatic_profile([0.0, 0.5], t_f=1e8, dt=1.0)


class TestMagnitudeBound:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: adiabatic_evolve(1e200),
            lambda: adiabatic_evolve(0.5, AdiabaticSchedule(omega_start=1e200)),
            lambda: adiabatic_evolve(
                0.5, AdiabaticSchedule(50.0, t_f=1.7e308, dt=1.7e304)
            ),
            lambda: adiabatic_profile([1e160]),
            lambda: adiabatic_profile([-1e307, 1e307]),
            lambda: adiabatic_profile([0.5], omega_start_factor=1e300),
            lambda: adiabatic_profile([0.5], omega_start_factor=float("nan")),
            lambda: adiabatic_profile([0.5], t_f=1.7e308, dt=1.7e304),
            # |x| / omega_end would overflow below 1 / MAX_MAGNITUDE
            lambda: adiabatic_evolve(0.5, AdiabaticSchedule(50.0, omega_end=1e-310)),
            lambda: adiabatic_profile([0.5], omega_end=1e-310),
        ],
        ids=[
            "evolve-x", "evolve-omega-start", "evolve-t-f", "profile-x",
            "profile-x-span", "profile-factor", "profile-nan-factor", "profile-t-f",
            "evolve-omega-end", "profile-omega-end",
        ],
    )
    def test_rejects_before_stepping(self, monkeypatch, call):
        def no_steps(*args):
            raise AssertionError("the propagator started stepping")

        monkeypatch.setattr(dynamics, "_drive", no_steps)
        with pytest.raises(InvalidInputError, match="MAX_MAGNITUDE = 1e\\+150"):
            call()

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    def test_the_bound_itself_stays_finite(self, ramp):
        xs = np.array([-0.1, 0.0, 0.1]) * MAX_MAGNITUDE
        starts = np.full(3, MAX_MAGNITUDE)
        probs, drift = _propagate_grid(
            xs, starts, 1.0, MAX_MAGNITUDE, MAX_MAGNITUDE / 1000, ramp
        )
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert drift.max() < 1e-12

    def test_a_drift_that_is_not_a_number_aborts(self, monkeypatch):
        def nan_drift(xs, *args):
            return np.full(len(xs), 0.5), np.full(len(xs), np.nan)

        monkeypatch.setattr(dynamics, "_propagate_grid", nan_drift)
        with pytest.raises(IntegratorError):
            adiabatic_evolve(0.5)
        with pytest.raises(IntegratorError):
            adiabatic_profile([0.0, 0.5])


class TestRegister:
    def test_zero_state(self):
        state = zero_state(2)
        assert state.amplitudes[0] == 1.0
        assert state.norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1.5, "2", None])
    def test_rejects_a_register_size_that_is_not_an_integer(self, n):
        with pytest.raises(InvalidInputError, match="qubits must be an integer"):
            zero_state(n)
        with pytest.raises(InvalidInputError, match="qubits must be an integer"):
            basis_state(n, (0, 0))

    def test_a_register_holds_at_most_max_qubits(self):
        assert zero_state(MAX_QUBITS).n == MAX_QUBITS
        too_wide = MAX_QUBITS + 1
        message = r"number of qubits must be in \[1, MAX_QUBITS = 20\], got 21"
        with pytest.raises(InvalidInputError, match=message):
            zero_state(too_wide)
        with pytest.raises(InvalidInputError, match=message):
            basis_state(too_wide, (0,) * too_wide)

    def test_basis_state_uses_first_qubit_as_most_significant(self):
        state = basis_state(2, (1, 0))
        assert state.amplitudes[2] == 1.0

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_basis_index_of_a_row_or_of_a_table(self, k):
        table = _bit_rows(k)
        np.testing.assert_array_equal(_basis_index(table), np.arange(2**k))
        assert _basis_index(table[-1].tolist()) == 2**k - 1
        assert _basis_index((1,) + (0,) * (k - 1)) == 2 ** (k - 1)

    def test_basis_state_rejects_bad_bits(self):
        with pytest.raises(InvalidInputError):
            basis_state(2, (1, 2))
        with pytest.raises(InvalidInputError):
            basis_state(2, (1,))

    def test_excitation_probability_basics(self):
        assert excitation_probability(zero_state(3), 2) == 0.0
        assert excitation_probability(PLUS_ZERO, 1) == pytest.approx(0.5)

    def test_excitation_sums_to_one_with_ground(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = Statevector(amps, 3)
        p1 = excitation_probability(state, 2)
        t = amps.reshape(2, 2, 2)
        p0 = float(np.sum(np.abs(t[:, 0, :]) ** 2))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_state_is_frozen_with_complex_amplitudes(self):
        state = Statevector([1.0, 0.0], 1)
        assert state.amplitudes.dtype == complex
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.amplitudes = np.zeros(2, dtype=complex)  # type: ignore[misc]

    def test_rejects_a_mismatched_length_and_an_empty_register(self):
        with pytest.raises(InvalidInputError, match="does not match n=2"):
            Statevector(np.zeros(3), 2)
        empty = r"number of qubits must be in \[1, MAX_QUBITS = 20\], got 0"
        with pytest.raises(InvalidInputError, match=empty):
            zero_state(0)

    def test_rejects_a_size_that_is_not_an_integer(self):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            Statevector([1.0, 0.0], "a")

    def test_rejects_a_size_past_the_bound_before_forming_its_length(self):
        # 2**n at n = 10**9 is a billion-bit integer, ~125 MB
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="MAX_QUBITS"):
                Statevector([1.0, 0.0], 10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_gate_output_off_unit_norm_aborts(self):
        # the gate preserves the norm, so a state 1e-9 off it stays off;
        # that is past NORM_TOL = 1e-12
        p = NeuralPotential((0.5,), 0.0, ())
        state = Statevector(basis_state(2, (1, 0)).amplitudes * (1.0 + 1e-9), 2)
        drifted = r"state norm drifted to 1\.0000000(0|1)"
        with pytest.raises(IntegratorError, match=drifted):
            apply_perceptron_gate(state, p, 2)

    @pytest.mark.parametrize("j", [1.5, 3.0, "1", None, [3]])
    def test_rejects_a_qubit_that_is_not_an_integer(self, j):
        p = NeuralPotential((0.5,), 0.0, ())
        with pytest.raises(InvalidWiringError, match="qubit must be an integer"):
            apply_perceptron_gate(zero_state(3), p, j)
        with pytest.raises(InvalidWiringError, match="qubit must be an integer"):
            apply_network(zero_state(3), [(p, j)])

    def test_an_integer_qubit_of_another_type_is_that_qubit(self):
        p = NeuralPotential((0.5,), 0.0, ())
        for j in (np.int64(2), np.uint8(2)):
            expected = apply_perceptron_gate(PLUS_ZERO, p, 2).amplitudes
            out = apply_perceptron_gate(PLUS_ZERO, p, j).amplitudes
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("j", [0, 3])
    def test_rejects_a_qubit_outside_the_register(self, j):
        p = NeuralPotential((0.5,), 0.0, ())
        with pytest.raises(InvalidWiringError, match=r"qubit must be in \[1, 2\], got"):
            apply_perceptron_gate(zero_state(2), p, j)


def _hadamard(a0, a1):
    """The Hadamard on a qubit's halves (a0, a1), for update_qubit."""
    return (a0 + a1) * INV_SQRT2, (a0 - a1) * INV_SQRT2


def _random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return Statevector(amps / np.linalg.norm(amps), n)


class TestQubitUpdate:
    """Both gates write through one view of the register; the reference takes
    each half along the qubit's axis and stacks the results."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_hadamard_is_the_reference_writer_bit_for_bit(self, n):
        rng = np.random.default_rng(700 + n)
        for j in range(1, n + 1):
            state = _random_state(rng, n)
            expected = update_qubit(state, j, _hadamard)
            got = dynamics._update_qubit(state.amplitudes, j, _hadamard)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_rotation_is_the_reference_writer_bit_for_bit(self, n):
        # every target past k inputs, for every k; the reference's halves
        # have n - 1 axes, the inputs first, and the rotation varies along
        # those alone
        rng = np.random.default_rng(710 + n)
        for k, target in itertools.combinations(range(n + 1), 2):
            state = _random_state(rng, n)
            prob = rng.uniform(0.0, 1.0, 2**k)
            shaped = prob.reshape([2] * k + [1] * (n - 1 - k))
            c0, s0 = np.sqrt(1.0 - shaped), np.sqrt(shaped)
            expected = update_qubit(
                state, target, lambda a0, a1: (c0 * a0 - s0 * a1, s0 * a0 + c0 * a1)
            )
            got = dynamics._rotate_target(state.amplitudes, prob, k, target)
            assert got.tobytes() == expected.tobytes()


class TestPerceptronGate:
    def _random_potential(self, rng, k=2, with_term=True):
        terms = (
            (MultiQubitTerm((1, 2), float(rng.uniform(-1, 1))),) if with_term else ()
        )
        return NeuralPotential(
            tuple(rng.uniform(-1, 1, k)), float(rng.uniform(-1, 1)), terms
        )

    def test_basis_input_excites_target_by_the_activation(self):
        rng = np.random.default_rng(5)
        p = self._random_potential(rng)
        for s in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
            spins = SpinConfig(s)
            state = basis_state(3, spins.bits + (0,))
            out = apply_perceptron_gate(state, p, 3)
            expected = activation(
                sum(w * v for w, v in zip(p.linear_weights, s))
                + p.multi_terms[0].weight * s[0] * s[1]
                - p.bias
            )
            assert excitation_probability(out, 3) == pytest.approx(
                expected, abs=1e-14
            )

    def test_entangled_input_branches_stay_unexcited_for_equal_bits(self):
        # (|00> + |11>)/sqrt(2) with a strong negative pair weight: both
        # branches have spin product +1, so the target stays essentially |0>
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = INV_SQRT2
        amps[0b110] = INV_SQRT2
        state = Statevector(amps, 3)
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), -20.0),))
        out = apply_perceptron_gate(state, p, 3)
        assert excitation_probability(out, 3) < 1e-3
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_on_random_states(self):
        rng = np.random.default_rng(17)
        p = self._random_potential(rng)
        for _ in range(100):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            out = apply_perceptron_gate(Statevector(amps, 3), p, 3)
            assert abs(out.norm() - 1.0) < 1e-12

    def test_target_must_not_be_an_input(self):
        p = NeuralPotential((0.1, 0.2), 0.0)
        with pytest.raises(InvalidWiringError):
            apply_perceptron_gate(zero_state(3), p, 2)

    def test_register_must_fit_inputs_and_target(self):
        p = NeuralPotential((0.1, 0.2, 0.3), 0.0)
        with pytest.raises(InvalidWiringError):
            apply_perceptron_gate(zero_state(3), p, 3)

    @pytest.mark.parametrize("target", [1, 2, 3, 4])
    def test_a_potential_that_fills_the_register_leaves_no_target(self, target):
        p = NeuralPotential((0.1, 0.2, 0.3), 0.0)
        with pytest.raises(InvalidWiringError):
            apply_perceptron_gate(zero_state(3), p, target)

    def test_an_excited_target_is_a_valid_rotation(self):
        state = basis_state(3, (0, 0, 1))
        p = NeuralPotential((0.1, 0.2), 0.0)
        out = apply_perceptron_gate(state, p, 3)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestNetworkApplication:
    def test_empty_wiring_is_identity(self):
        out = apply_network(PLUS_ZERO, [])
        np.testing.assert_allclose(out.amplitudes, PLUS_ZERO.amplitudes)

    def test_single_gate_matches_direct_application(self):
        rng = np.random.default_rng(29)
        p = NeuralPotential(tuple(rng.uniform(-1, 1, 2)), 0.3)
        state = basis_state(3, (1, 0, 0))
        a = apply_network(state, [(p, 3)])
        b = apply_perceptron_gate(state, p, 3)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-15)

    def test_disjoint_targets_commute(self):
        rng = np.random.default_rng(31)
        p1 = NeuralPotential(tuple(rng.uniform(-1, 1, 2)), 0.1)
        p2 = NeuralPotential(
            tuple(rng.uniform(-1, 1, 2)), -0.2, (MultiQubitTerm((1, 2), 0.4),)
        )
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        state = Statevector(amps, 4)
        ab = apply_network(state, [(p1, 3), (p2, 4)])
        ba = apply_network(state, [(p2, 4), (p1, 3)])
        np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)

    def test_duplicate_targets_rejected(self):
        p = NeuralPotential((0.1, 0.2), 0.0)
        with pytest.raises(InvalidWiringError):
            apply_network(zero_state(3), [(p, 3), (p, 3)])

    def test_an_entry_that_is_not_a_pair_is_rejected(self):
        p = NeuralPotential((0.1, 0.2), 0.0)
        match = r"wiring entries must be \(potential, target\) pairs"
        with pytest.raises(InvalidWiringError, match=match):
            apply_network(zero_state(3), [(p,)])

    def test_all_zero_network_outputs_half(self):
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), 0.0),))
        probs = forward_statevector([p, p], SpinConfig((1, -1)))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)


def _random_network_potentials(rng, k, n_out):
    potentials = []
    for _ in range(n_out):
        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        picks = rng.choice(len(pairs), min(len(pairs), 2), replace=False)
        terms = tuple(
            MultiQubitTerm(pairs[i], float(rng.uniform(-2, 2))) for i in sorted(picks)
        )
        if k >= 3:
            terms += (MultiQubitTerm((1, 2, 3), float(rng.uniform(-2, 2))),)
        potentials.append(
            NeuralPotential(tuple(rng.uniform(-2, 2, k)), float(rng.uniform(-2, 2)), terms)
        )
    return potentials


def _uniform_inputs(k, n_out):
    """The reference circuit's k Hadamards on inputs 1..k of |0> on k + n_out qubits."""
    state = zero_state(k + n_out)
    for j in range(1, k + 1):
        state = Statevector(update_qubit(state, j, _hadamard), k + n_out)
    return state


class TestStatevectorTable:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_agrees_with_one_register_per_row(self, k):
        rng = np.random.default_rng(600 + k)
        n_out = 1 + k % 3
        potentials = _random_network_potentials(rng, k, n_out)
        table = statevector_table(potentials)
        assert table.shape == (2**k, n_out)
        wiring = [(p, k + 1 + j) for j, p in enumerate(potentials)]
        for i in range(2**k):
            bits = tuple((i >> (k - 1 - b)) & 1 for b in range(k))
            state = apply_network(basis_state(k + n_out, bits + (0,) * n_out), wiring)
            row = [excitation_probability(state, k + 1 + j) for j in range(n_out)]
            np.testing.assert_allclose(table[i], row, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 3)).flatmap(
            lambda ko: st.lists(
                potentials_over(ko[0]), min_size=ko[1], max_size=ko[1]
            )
        )
    )
    def test_equals_one_register_per_row_and_every_gate_keeps_the_norm(self, network):
        k, n_out = network[0].arity, len(network)
        table = statevector_table(network)
        wiring = [(p, k + 1 + j) for j, p in enumerate(network)]
        for i, bits in enumerate(_bit_rows(k).tolist()):
            state = apply_network(basis_state(k + n_out, bits + [0] * n_out), wiring)
            row = [excitation_probability(state, t) for _, t in wiring]
            np.testing.assert_allclose(table[i], row, rtol=0, atol=1e-12)
        state = _uniform_inputs(k, n_out)
        for p, target in wiring:
            state = apply_perceptron_gate(state, p, target)
            assert abs(state.norm() - 1.0) <= 1e-12

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 3)).flatmap(
            lambda ko: st.lists(
                potentials_over(ko[0]), min_size=ko[1], max_size=ko[1]
            )
        )
    )
    def test_is_the_gate_by_gate_evolution_bit_for_bit(self, network):
        # the table takes every output's activations at once; the gates take
        # one potential each
        k, n_out = network[0].arity, len(network)
        state = _uniform_inputs(k, n_out)
        for j, p in enumerate(network):
            state = apply_perceptron_gate(state, p, k + 1 + j)
        probs = np.abs(state.amplitudes.reshape(2**k, 2**n_out)) ** 2
        expected = 2.0**k * (probs @ _bit_rows(n_out))
        np.testing.assert_array_equal(statevector_table(network), expected)

    @pytest.mark.parametrize("k", [1, 5, 6, 9, 12])
    def test_prepares_the_state_of_the_hadamards_bit_for_bit(self, k, monkeypatch):
        # from k = 6 on, r**k rounds apart from the gates' running product
        prepared, rotate = [], dynamics._rotate_target

        def spy(amps, prob, k, target):
            prepared.append(amps.tobytes())
            return rotate(amps, prob, k, target)

        monkeypatch.setattr(dynamics, "_rotate_target", spy)
        statevector_table([NeuralPotential((0.5,) * k, 0.0)] * 2)
        assert prepared[0] == _uniform_inputs(k, 2).amplitudes.tobytes()

    def test_forward_statevector_is_the_row_of_its_input(self):
        rng = np.random.default_rng(41)
        potentials = _random_network_potentials(rng, 3, 2)
        table = statevector_table(potentials)
        s = SpinConfig((1, -1, 1))  # bits 101, basis index 5
        np.testing.assert_array_equal(forward_statevector(potentials, s), table[5])

    def test_rejects_a_register_past_the_bound_before_allocating_it(self, monkeypatch):
        def no_register(shape, *args, **kwargs):
            raise AssertionError(f"a register of {shape} amplitudes was allocated")

        # 2^33 amplitudes would take 128 GiB
        monkeypatch.setattr(dynamics.np, "zeros", no_register)
        wide = [NeuralPotential((0.0,) * 16, 0.0)] * 17
        too_wide = r"number of qubits must be in \[1, MAX_QUBITS = 20\], got 33"
        with pytest.raises(InvalidInputError, match=too_wide):
            statevector_table(wide)
        with pytest.raises(InvalidInputError, match=too_wide):
            forward_statevector(wide, SpinConfig((1,) * 16))

    def test_rejects_no_potentials_and_mixed_arities(self):
        with pytest.raises(InvalidInputError):
            statevector_table([])
        mixed = [NeuralPotential((0.1, 0.2), 0.0), NeuralPotential((0.1,), 0.0)]
        with pytest.raises(InvalidInputError):
            statevector_table(mixed)
        with pytest.raises(InvalidInputError):
            forward_statevector(mixed[:1], SpinConfig((1, 1, 1)))

    def test_forward_statevector_checks_s_before_it_builds_the_register(self, monkeypatch):
        def no_table(potentials):
            raise AssertionError("the register was evolved before s was checked")

        monkeypatch.setattr(dynamics, "statevector_table", no_table)
        wide = [NeuralPotential((0.0,) * 16, 0.0)] * 4  # a register of 2^20 amplitudes
        with pytest.raises(InvalidInputError, match="s has 3 spins; every potential must take 3"):
            forward_statevector(wide, SpinConfig((1, -1, 1)))
        with pytest.raises(InvalidInputError, match=r"s must be a SpinConfig, got \(1, -1\)"):
            forward_statevector(wide, (1, -1))

    def test_builds_one_statevector(self, monkeypatch):
        # zero_state's; every gate runs on its bare amplitude array
        built, check = [], Statevector.__post_init__

        def spy(state):
            built.append(state.n)
            check(state)

        monkeypatch.setattr(Statevector, "__post_init__", spy)
        statevector_table(_random_network_potentials(np.random.default_rng(47), 3, 2))
        assert built == [5]

    def test_every_gate_of_the_table_checks_the_norm(self, monkeypatch):
        # one rotation per output, each through the kernel that holds the
        # check, the first on the prepared state; with NORM_TOL below 0 the
        # first one raises
        potentials = _random_network_potentials(np.random.default_rng(43), 3, 2)
        kernel, gates = dynamics._update_qubit, []

        def spy(amps, j, pair):
            gates.append(j)
            return kernel(amps, j, pair)

        monkeypatch.setattr(dynamics, "_update_qubit", spy)
        statevector_table(potentials)
        assert gates == [4, 5]
        monkeypatch.setattr(dynamics, "NORM_TOL", -1.0)
        with pytest.raises(IntegratorError, match="state norm drifted to "):
            statevector_table(potentials)
