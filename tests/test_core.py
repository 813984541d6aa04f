"""Core conventions: spin encoding, potentials, and the activation function."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qperceptron import (
    InvalidInputError,
    MultiQubitTerm,
    NeuralPotential,
    SpinConfig,
    activation,
    bits_to_spins,
    enumerate_inputs,
    features,
    reparameterize_bits_to_spins,
)
from qperceptron.core import ACTIVATION_CLIP, _activations, _pack
from references import evaluate_potential, potentials_over


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

    def test_spin_config_rejects_a_table_of_spins(self):
        # each row would meet "in (-1, 1)" as an array of ambiguous truth
        with pytest.raises(InvalidInputError, match=r"spins must be \+1 or -1, got \(array"):
            SpinConfig(np.array([[1, -1]]))

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

    @pytest.mark.parametrize("indices", [(1.5, 2.9), (1, 2.0), ("1", "2"), 12])
    def test_term_indices_must_be_integers(self, indices):
        # int() would have read (1.5, 2.9) as the term (1, 2)
        match = "term index must be an integer|term indices must be a sequence"
        with pytest.raises(InvalidInputError, match=match):
            MultiQubitTerm(indices, 0.5)

    def test_term_indices_may_be_numpy_integers(self):
        term = MultiQubitTerm(np.array([1, 3]), 0.5)
        assert term.indices == (1, 3)
        assert all(type(i) is int for i in term.indices)

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

    @pytest.mark.parametrize(
        "make, message",
        [
            (
                lambda: NeuralPotential((0.1, float("nan")), 0.0),
                "linear weights must be finite, got nan",
            ),
            (
                lambda: NeuralPotential((0.1,), np.float64("-inf")),
                "bias must be finite, got -inf",
            ),
            (
                lambda: MultiQubitTerm((1, 2), np.float32("nan")),
                "term weight must be finite, got nan",
            ),
        ],
        ids=["linear-nan", "bias-float64-inf", "term-float32-nan"],
    )
    def test_a_non_finite_weight_is_named_as_a_python_float(self, make, message):
        with pytest.raises(InvalidInputError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: MultiQubitTerm((1, 2), "1.0"), "term weight"),
            (lambda: NeuralPotential((1.0,), "0.5"), "bias"),
            (lambda: NeuralPotential(("1.0", 2.0), 0.0), "linear weights"),
            (lambda: NeuralPotential((1.0,), None), "bias"),
            (lambda: MultiQubitTerm((1, 2), 1j), "term weight"),
        ],
        ids=["term-str", "bias-str", "linear-str", "bias-none", "term-complex"],
    )
    def test_a_weight_that_is_not_a_real_number_is_rejected(self, make, field):
        with pytest.raises(InvalidInputError, match=f"^{field} must be a real number"):
            make()

    def test_numpy_and_bool_weights_are_stored_as_floats(self):
        term = MultiQubitTerm((1, 2), np.float32(0.5))
        p = NeuralPotential((np.int64(2), True), np.float16(-1.0), (term,))
        assert p.linear_weights == (2.0, 1.0) and p.bias == -1.0
        assert term.weight == 0.5
        values = (*p.linear_weights, p.bias, term.weight)
        assert all(type(v) is float for v in values)

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

    @pytest.mark.parametrize("x", [np.array([1j]), [0.5, 1j], "0.5", np.array(["0.5"])])
    def test_rejects_an_input_that_is_not_real(self, x):
        # a complex input read as float would lose its imaginary part
        with pytest.raises(InvalidInputError, match="activation input must be real"):
            activation(x)

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

    def test_agrees_with_exact_arithmetic_on_both_tails(self):
        rng = np.random.default_rng(11)
        xs = np.concatenate(
            [
                [0.0, -0.0, 1e-300, 1.0, 1e8, 1e100, 1e150],
                rng.standard_normal(200) * 10.0 ** rng.uniform(-5, 150, 200),
            ]
        )
        xs = np.concatenate([xs, -xs])
        inside = np.abs(xs) < ACTIVATION_CLIP
        # at 400 digits every float is exact, and 1 + x / sqrt(1 + x^2)
        # cancels at most ~300 of them
        exact = [
            float((1 + r / sympy.sqrt(1 + r * r)) / 2)
            for r in (sympy.Float(x, 400) for x in xs[inside])
        ]
        # relative, so the lower tail (down to 2.5e-301) is held to its own
        # scale; f rounds the upper tail to 1 from x ~ 1e8 on
        np.testing.assert_allclose(activation(xs[inside]), exact, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(
            activation(xs[~inside]), (xs[~inside] > 0).astype(float)
        )
        assert [activation(float(x)) for x in xs] == list(activation(xs))

    def test_never_decreases_between_adjacent_floats(self):
        # around x = -854.65, where f ~ 3.4e-7, the cancelling form
        # 0.5 * (1 + x / sqrt(1 + x^2)) dropped by up to 5.6e-17 (2^20 ulps
        # of f) between neighbouring floats: 702 drops in this window
        x0 = -854.65
        xs = x0 + np.arange(-200_000, 200_000) * abs(np.spacing(x0))
        assert np.all(np.diff(xs) > 0)
        assert np.all(np.diff(activation(xs)) >= 0)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_bounded_monotone_and_saturating_on_every_finite_float(self, x, y):
        fx, fy = activation(x), activation(y)
        assert 0.0 <= fx <= 1.0
        if x <= y:
            assert fx <= fy
        if x == 0.0:  # either sign
            assert fx == 0.5
        if abs(x) >= ACTIVATION_CLIP:
            assert fx == (1.0 if x > 0 else 0.0)


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
        for k in (1.5, np.float64(2.0)):
            with pytest.raises(InvalidInputError, match="arity must be an integer"):
                enumerate_inputs(k)


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

    @pytest.mark.parametrize(
        "term, message",
        [
            ((0, 2), r"outside spins 1\.\.2"),
            ((1, 3), r"outside spins 1\.\.2"),
            ((3,), r"outside spins 1\.\.2"),
            ((), "a multi-qubit term needs at least two indices"),
            ((1,), "a multi-qubit term needs at least two indices"),
            ((1.5, 2), r"term index must be an integer, got 1\.5"),
        ],
    )
    def test_an_index_outside_the_spins_raises(self, term, message):
        # index 0 would wrap to -1 and read spin k; 3 is past k = 2; 1.5
        # would reach numpy's indexing as a float, as would the empty term
        spins = np.array([[1.0, -1.0], [-1.0, -1.0]])
        with pytest.raises(InvalidInputError, match=message):
            features(spins, [(1, 2), term])

    @pytest.mark.parametrize("inputs", [np.array([[1.0, 1j]]), [["1", "-1"]], [1.0, -1.0]])
    def test_rejects_inputs_that_are_not_a_real_table(self, inputs):
        with pytest.raises(InvalidInputError, match=r"inputs must be a table \(N, k\) of real"):
            features(inputs, [(1, 2)])

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


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(
    st.integers(1, 7).flatmap(
        lambda k: st.lists(potentials_over(k), min_size=1, max_size=3)
    )
)
def test_the_evaluator_and_the_feature_map_agree_with_the_reference(network):
    k = network[0].arity
    configs = enumerate_inputs(k)
    spins = np.array([s.spins for s in configs], dtype=float)
    ref = np.array([[evaluate_potential(p, s) for p in network] for s in configs])
    templates = [[t.indices for t in p.multi_terms] for p in network]
    xs = np.column_stack(
        [features(spins, t) @ _pack(p) for p, t in zip(network, templates)]
    )
    np.testing.assert_allclose(xs, ref, rtol=0, atol=1e-12)
    y = _activations(network, spins)
    assert y.shape == (2**k, len(network))
    np.testing.assert_array_equal(y, activation(xs))
    np.testing.assert_allclose(y, activation(ref), rtol=0, atol=1e-12)
