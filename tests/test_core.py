"""Core conventions: spin encoding, potentials, and the activation function."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
import sympy

from qperceptron import (
    InvalidInputError,
    MultiQubitTerm,
    NeuralPotential,
    SpinConfig,
    activation,
    activation_derivative,
    bits_to_spins,
    enumerate_inputs,
    features,
    reparameterize_bits_to_spins,
)
from references import evaluate_potential


class TestSpinEncoding:
    def test_zero_bits_map_to_down_spins(self):
        assert bits_to_spins((0, 0)).spins == (-1, -1)

    def test_mixed_bits(self):
        assert bits_to_spins((1, 0, 1)).spins == (1, -1, 1)

    def test_round_trip_all_three_bit_strings(self):
        for n in range(8):
            bits = tuple((n >> (2 - i)) & 1 for i in range(3))
            assert bits_to_spins(bits).bits == bits

    def test_rejects_non_binary_bits(self):
        with pytest.raises(InvalidInputError):
            bits_to_spins((0, 2))

    def test_spin_config_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            SpinConfig((1, 0))

    def test_spin_config_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            SpinConfig(())

    def test_bits_property(self):
        assert SpinConfig((1, -1, 1)).bits == (1, 0, 1)


class TestPotentialTypes:
    def test_term_needs_two_indices(self):
        with pytest.raises(InvalidInputError):
            MultiQubitTerm((1,), 0.5)

    def test_term_indices_strictly_increasing(self):
        with pytest.raises(InvalidInputError):
            MultiQubitTerm((2, 1), 0.5)
        with pytest.raises(InvalidInputError):
            MultiQubitTerm((1, 1), 0.5)

    def test_term_indices_are_one_based(self):
        with pytest.raises(InvalidInputError):
            MultiQubitTerm((0, 1), 0.5)

    def test_potential_rejects_term_beyond_arity(self):
        with pytest.raises(InvalidInputError):
            NeuralPotential((0.1, 0.2), 0.0, (MultiQubitTerm((1, 3), 0.5),))

    def test_potential_rejects_duplicate_term_index_sets(self):
        with pytest.raises(InvalidInputError):
            NeuralPotential(
                (0.1, 0.2),
                0.0,
                (MultiQubitTerm((1, 2), 0.5), MultiQubitTerm((1, 2), -0.5)),
            )

    def test_potential_rejects_a_term_that_is_not_a_multi_qubit_term(self):
        with pytest.raises(InvalidInputError, match="MultiQubitTerm"):
            NeuralPotential((0.1, 0.2), 0.0, (((1, 2), 0.5),))

    def test_potential_rejects_non_finite_weight(self):
        with pytest.raises(InvalidInputError):
            NeuralPotential((0.1, float("nan")), 0.0)

    def test_potential_needs_at_least_one_input(self):
        with pytest.raises(InvalidInputError):
            NeuralPotential((), 0.0)

    def test_arity(self):
        p = NeuralPotential((0.1, 0.2, 0.3), 0.0)
        assert p.arity == 3


class TestEvaluatePotential:
    def test_four_term_arithmetic(self):
        p = NeuralPotential((0.5, -0.5), 0.25, (MultiQubitTerm((1, 2), 1.0),))
        assert evaluate_potential(p, SpinConfig((1, 1))) == pytest.approx(0.75)

    def test_antiparallel_spins_flip_the_pair_term(self):
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), 0.7),))
        assert evaluate_potential(p, SpinConfig((1, -1))) == pytest.approx(-0.7)

    def test_all_zero_potential_vanishes_everywhere(self):
        p = NeuralPotential((0.0, 0.0, 0.0), 0.0, (MultiQubitTerm((1, 3), 0.0),))
        for s in enumerate_inputs(3):
            assert evaluate_potential(p, s) == 0.0

    def test_zero_term_weights_reduce_to_the_linear_form_exactly(self):
        rng = np.random.default_rng(11)
        w = tuple(rng.uniform(-2, 2, 3))
        b = float(rng.uniform(-2, 2))
        p = NeuralPotential(w, b, (MultiQubitTerm((2, 3), 0.0),))
        for s in enumerate_inputs(3):
            linear = w[0] * s[0] + w[1] * s[1] + w[2] * s[2] - b
            assert evaluate_potential(p, s) == linear

    def test_arity_mismatch_raises(self):
        p = NeuralPotential((0.5, -0.5), 0.0)
        with pytest.raises(InvalidInputError):
            evaluate_potential(p, SpinConfig((1, 1, 1)))


class TestActivation:
    def test_odd_symmetry_center(self):
        assert activation(0.0) == 0.5

    def test_unit_potential(self):
        # (1 + 1/sqrt(2)) / 2
        assert activation(1.0) == pytest.approx(0.8535533905932737, abs=1e-15)

    def test_value_at_ten_against_exact_arithmetic(self):
        exact = float(sympy.Rational(1, 2) * (1 + 10 / sympy.sqrt(101)))
        assert activation(10.0) == pytest.approx(exact, abs=1e-15)
        assert activation(10.0) == pytest.approx(0.9975185951049945, abs=1e-12)

    def test_complementarity_on_a_grid(self):
        xs = np.linspace(-6.0, 6.0, 100)
        np.testing.assert_allclose(activation(-xs) + activation(xs), 1.0, atol=1e-14)

    def test_open_unit_interval_and_monotonicity(self):
        xs = np.linspace(-50.0, 50.0, 501)
        ys = activation(xs)
        assert np.all(ys > 0.0) and np.all(ys < 1.0)
        assert np.all(np.diff(ys) > 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            activation(float("nan"))
        with pytest.raises(InvalidInputError):
            activation(float("inf"))

    def test_vectorized_matches_scalar(self):
        xs = np.array([-2.0, 0.0, 3.5])
        np.testing.assert_allclose(
            activation(xs), [activation(float(x)) for x in xs], atol=1e-16
        )

    def test_saturates_where_x_squared_overflows(self):
        assert activation(1e200) == 1.0
        assert activation(-1e200) == 0.0
        assert activation(np.finfo(float).max) == 1.0
        np.testing.assert_array_equal(
            activation(np.array([-1e300, 1e300, 0.0])), [0.0, 1.0, 0.5]
        )

    def test_unchanged_up_to_the_clip(self):
        rng = np.random.default_rng(11)
        xs = np.concatenate(
            [
                [0.0, -0.0, 1e-300, 1.0, 1e8, 1e100, 1e150],
                rng.standard_normal(200) * 10.0 ** rng.uniform(-5, 150, 200),
            ]
        )
        xs = np.concatenate([xs, -xs])
        formula = 0.5 * (1.0 + xs / np.sqrt(1.0 + xs * xs))
        np.testing.assert_array_equal(activation(xs), formula)
        assert [activation(float(x)) for x in xs] == list(formula)


class TestActivationDerivative:
    def test_slope_at_origin(self):
        assert activation_derivative(0.0) == 0.5

    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_matches_central_finite_difference(self, x):
        h = 1e-5
        fd = (activation(x + h) - activation(x - h)) / (2 * h)
        assert activation_derivative(x) == pytest.approx(fd, rel=1e-8)

    def test_tail_decay(self):
        assert activation_derivative(1000.0) < 1e-8
        assert activation_derivative(-1000.0) < 1e-8

    def test_far_tail_rounds_to_zero(self):
        # the true slope at 1e200 is ~5e-601, below the smallest subnormal
        with np.errstate(over="ignore"):
            assert activation_derivative(1e200) == 0.0
            assert activation_derivative(-1e200) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            activation_derivative(float("-inf"))


class TestEnumerateInputs:
    def test_single_qubit(self):
        assert [s.spins for s in enumerate_inputs(1)] == [(-1,), (1,)]

    def test_two_qubits_binary_order(self):
        assert [s.spins for s in enumerate_inputs(2)] == [
            (-1, -1),
            (-1, 1),
            (1, -1),
            (1, 1),
        ]

    def test_three_qubits_endpoints(self):
        configs = enumerate_inputs(3)
        assert len(configs) == 8
        assert configs[0].spins == (-1, -1, -1)
        assert configs[-1].spins == (1, 1, 1)

    def test_first_qubit_is_most_significant(self):
        # config at position n encodes the integer n
        configs = enumerate_inputs(3)
        assert configs[4].bits == (1, 0, 0)
        assert configs[1].bits == (0, 0, 1)

    def test_bounds(self):
        with pytest.raises(InvalidInputError):
            enumerate_inputs(0)
        with pytest.raises(InvalidInputError):
            enumerate_inputs(17)


class TestBitSpinReparameterization:
    def test_matches_bit_space_potential_on_all_inputs(self):
        rng = np.random.default_rng(23)
        w = tuple(rng.uniform(-2, 2, 4))
        b = float(rng.uniform(-2, 2))
        p_bits = NeuralPotential(w, b)
        p_spins = reparameterize_bits_to_spins(p_bits)
        for s in enumerate_inputs(4):
            x_bits = sum(wi * bi for wi, bi in zip(w, s.bits)) - b
            assert evaluate_potential(p_spins, s) == pytest.approx(x_bits, abs=1e-12)

    def test_rejects_multi_qubit_terms(self):
        p = NeuralPotential((0.5, 0.5), 0.0, (MultiQubitTerm((1, 2), 1.0),))
        with pytest.raises(InvalidInputError):
            reparameterize_bits_to_spins(p)


def _random_potential(rng, k):
    """Random weights on a random subset of the product terms over k spins."""
    candidates = [
        c for r in range(2, k + 1) for c in itertools.combinations(range(1, k + 1), r)
    ]
    n_terms = int(rng.integers(0, min(len(candidates), 6) + 1))
    picks = sorted(rng.choice(len(candidates), n_terms, replace=False)) if n_terms else []
    return NeuralPotential(
        tuple(rng.uniform(-2, 2, k)),
        float(rng.uniform(-2, 2)),
        tuple(MultiQubitTerm(candidates[i], float(rng.uniform(-2, 2))) for i in picks),
    )


class TestFeatures:
    def test_columns_are_inputs_products_then_minus_one(self):
        spins = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
        phi = features(spins, ((1, 2), (1, 2, 3)))
        np.testing.assert_array_equal(
            phi, [[1, -1, 1, -1, -1, -1], [-1, -1, 1, 1, 1, -1]]
        )

    def test_products_of_bits_are_conjunctions(self):
        bits = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(features(bits, ((2, 3), (1, 3))), [
            [0, 1, 1, 1, 0, -1],
            [1, 1, 1, 1, 1, -1],
        ])

    @pytest.mark.parametrize("k", range(1, 8))
    def test_matmul_agrees_with_evaluate_potential(self, k):
        rng = np.random.default_rng(300 + k)
        configs = enumerate_inputs(k)
        spins = np.array([s.spins for s in configs], dtype=float)
        for _ in range(5):
            p = _random_potential(rng, k)
            template = [t.indices for t in p.multi_terms]
            theta = np.array(
                p.linear_weights + tuple(t.weight for t in p.multi_terms) + (p.bias,)
            )
            x = features(spins, template) @ theta
            ref = [evaluate_potential(p, s) for s in configs]
            np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12)


def test_far_tail_slope_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert activation_derivative(1e200) == 0.0
        assert activation_derivative(np.array([-1e200, 0.0])).tolist() == [0.0, 0.5]
