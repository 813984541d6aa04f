"""Two-level ramp dynamics, statevector register, and perceptron gates."""

from __future__ import annotations

import numpy as np
import pytest
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
    apply_hadamard,
    apply_network,
    apply_perceptron_gate,
    basis_state,
    default_schedule,
    excitation_probability,
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
    IntegratorError,
    InvalidWiringError,
    Statevector,
    _basis_index,
    _drive,
    _hamilton,
    _propagate_grid,
    _ramp_steps,
)
from references import hamiltonian

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestSchedule:
    def test_linear_interpolation_endpoints(self):
        s = AdiabaticSchedule(omega_start=50.0, omega_end=1.0, t_f=200.0)
        assert s.omega(0.0) == 50.0
        assert s.omega(200.0) == 1.0
        assert s.omega(100.0) == pytest.approx(25.5)

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


class TestSmoothRamp:
    def test_endpoints_and_flat_ends(self):
        s = AdiabaticSchedule(
            omega_start=50.0, omega_end=1.0, t_f=200.0, ramp="smooth"
        )
        assert s.omega(0.0) == 50.0
        assert s.omega(200.0) == 1.0
        assert s.omega(100.0) == pytest.approx(25.5)
        h = 1e-3
        # smootherstep leaves the ends with zero slope; the linear ramp
        # would have slope -49 / 200 there
        assert abs(s.omega(200.0) - s.omega(200.0 - h)) / h < 1e-6
        assert abs(s.omega(h) - s.omega(0.0)) / h < 1e-6

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


class TestAdiabaticEvolve:
    def test_balanced_potential_stays_balanced(self):
        assert adiabatic_evolve(0.0) == pytest.approx(0.5, abs=1e-9)

    def test_default_ramp_regression_values(self):
        # frozen outputs of the default 50 -> 1 ramp over t_f = 200
        assert adiabatic_evolve(1.0) == pytest.approx(0.8390739986021529, abs=1e-9)
        assert adiabatic_evolve(0.5) == pytest.approx(0.7055445453303999, abs=1e-9)

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
    """The written-out Hamilton product that _hamilton evaluated before it
    composed in place."""
    aw, ap, aq, ar = a
    bw, bp, bq, br = b
    out[0] = aw * bw - ap * bp - aq * bq - ar * br
    out[1] = aw * bp + ap * bw + aq * br - ar * bq
    out[2] = aw * bq + aq * bw + ar * bp - ap * br
    out[3] = aw * br + ar * bw + ap * bq - aq * bp
    return out


def _quaternion_propagate(xs, omega_starts, omega_end, t_f, dt, ramp):
    """The quaternion composition before the first tree level was fused: a
    (4, points, steps) array of steps per block and 16-multiply products at
    every level."""
    g = xs.shape[0]
    n_steps = _ramp_steps(g, t_f, dt)
    step = t_f / n_steps
    total = None
    block = 1 << 14
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        mid = (np.arange(start, stop) + 0.5) * step
        om = _drive(omega_starts[:, None], omega_end, mid, t_f, ramp)
        rate = np.sqrt(xs[:, None] ** 2 + om**2)  # 2 E
        angle = (0.5 * step) * rate
        u = np.empty((4, g, stop - start))
        np.cos(angle, out=u[0])
        k = np.sin(angle) / rate
        np.multiply(k, om, out=u[1])
        u[2] = 0.0
        np.multiply(k, -xs[:, None], out=u[3])
        while u.shape[2] > 1:
            pairs = u.shape[2] // 2
            nxt = np.empty((4, g, u.shape[2] - pairs))
            later, earlier = u[..., 1 : 2 * pairs : 2], u[..., 0 : 2 * pairs : 2]
            _hamilton_expression(later, earlier, nxt[..., :pairs])
            if u.shape[2] % 2:
                nxt[..., -1] = u[..., -1]
            u = nxt
        if total is None:
            total = u[..., 0]
        else:
            total = _hamilton_expression(u[..., 0], total, np.empty((4, g)))
    w, p, q, r = total
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
    def test_hamilton_product_is_the_matrix_product(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 4, 500))
        a /= np.linalg.norm(a, axis=0)
        b /= np.linalg.norm(b, axis=0)
        product = _hamilton(a, b, np.empty((4, 500)))
        np.testing.assert_allclose(
            _su2(product), _su2(a) @ _su2(b), rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(np.linalg.norm(product, axis=0), 1.0, atol=1e-15)

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


class TestStepBudget:
    def test_counts_steps_up_to_the_budget(self):
        assert _ramp_steps(7, 200.0, 1e-3) == 200_000
        assert _ramp_steps(1, 1e-3, 1e-3) == 1
        assert _ramp_steps(500, 200.0, 1e-3) * 500 == MAX_POINT_STEPS
        for points, t_f, dt in [(501, 200.0, 1e-3), (1, 1.0, 1e-9), (1, 1e300, 1e-10)]:
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

    def test_single_qubit_superposition(self):
        state = apply_hadamard(zero_state(1), 1)
        np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_second_qubit_superposition(self):
        state = apply_hadamard(zero_state(2), 2)
        np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2, 0, 0])

    def test_hadamard_involution(self):
        state = basis_state(3, (0, 1, 0))
        back = apply_hadamard(apply_hadamard(state, 2), 2)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-15)

    def test_excitation_probability_basics(self):
        assert excitation_probability(zero_state(3), 2) == 0.0
        state = apply_hadamard(zero_state(2), 1)
        assert excitation_probability(state, 1) == pytest.approx(0.5)

    def test_excitation_sums_to_one_with_ground(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = Statevector(amps, 3)
        p1 = excitation_probability(state, 2)
        t = amps.reshape(2, 2, 2)
        p0 = float(np.sum(np.abs(t[:, 0, :]) ** 2))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_a_mismatched_length_and_an_empty_register(self):
        with pytest.raises(InvalidInputError, match="does not match n=2"):
            Statevector(np.zeros(3), 2)
        with pytest.raises(InvalidInputError, match="at least one qubit"):
            zero_state(0)

    def test_a_gate_output_off_unit_norm_aborts(self):
        # both gates preserve the norm, so a state 1e-9 off it stays off;
        # that is past NORM_TOL = 1e-12
        p = NeuralPotential((0.5,), 0.0, ())
        state = Statevector(basis_state(2, (1, 0)).amplitudes * (1.0 + 1e-9), 2)
        drifted = r"state norm drifted to 1\.0000000(0|1)"
        with pytest.raises(IntegratorError, match=drifted):
            apply_hadamard(state, 1)
        with pytest.raises(IntegratorError, match=drifted):
            apply_perceptron_gate(state, p, 2)

    @pytest.mark.parametrize("j", [0, 3])
    def test_rejects_a_qubit_outside_the_register(self, j):
        with pytest.raises(InvalidWiringError, match="outside register 1..2"):
            excitation_probability(zero_state(2), j)


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
        state = apply_hadamard(zero_state(2), 1)
        out = apply_network(state, [])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

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

    def test_forward_statevector_is_the_row_of_its_input(self):
        rng = np.random.default_rng(41)
        potentials = _random_network_potentials(rng, 3, 2)
        table = statevector_table(potentials)
        s = SpinConfig((1, -1, 1))  # bits 101, basis index 5
        np.testing.assert_array_equal(forward_statevector(potentials, s), table[5])

    def test_rejects_no_potentials_and_mixed_arities(self):
        with pytest.raises(InvalidInputError):
            statevector_table([])
        mixed = [NeuralPotential((0.1, 0.2), 0.0), NeuralPotential((0.1,), 0.0)]
        with pytest.raises(InvalidInputError):
            statevector_table(mixed)
        with pytest.raises(InvalidInputError):
            forward_statevector(mixed[:1], SpinConfig((1, 1, 1)))
