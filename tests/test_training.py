"""Cost, gradients, and the full-batch training loop."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from qperceptron import (
    CostCurve,
    InvalidInputError,
    MultiQubitTerm,
    NeuralPotential,
    SpinConfig,
    TrainedNetwork,
    TrainerConfig,
    TrainingExample,
    bits_to_spins,
    cost,
    detect_plateau,
    forward_network,
    forward_statevector,
    initialize_network,
    quantum_gradients,
    reparameterize_bits_to_spins,
    resolve_task,
    train,
)


def _flatten(g):
    return np.concatenate([g.linear, g.multi, [g.bias]])


def _random_network(task, seed):
    config = TrainerConfig(seed=seed)
    return initialize_network(task.arity, task.templates, config, task.name)


def _fd_gradient(net, examples, encoding="spin", step=1e-6):
    """Central finite differences of the cost over every parameter."""
    grads = []
    for j, p in enumerate(net.perceptrons):
        theta = (
            list(p.linear_weights) + [t.weight for t in p.multi_terms] + [p.bias]
        )
        g = np.zeros(len(theta))
        for i in range(len(theta)):
            for sign in (+1, -1):
                shifted = list(theta)
                shifted[i] += sign * step
                k = p.arity
                new_p = NeuralPotential(
                    tuple(shifted[:k]),
                    shifted[-1],
                    tuple(
                        MultiQubitTerm(t.indices, shifted[k + m])
                        for m, t in enumerate(p.multi_terms)
                    ),
                )
                perceptrons = list(net.perceptrons)
                perceptrons[j] = new_p
                shifted_net = TrainedNetwork(tuple(perceptrons), net.arity)
                g[i] += sign * cost(shifted_net, examples, encoding)
        grads.append(g / (2 * step))
    return grads


class TestTrainingExample:
    def test_rejects_non_binary_targets(self):
        with pytest.raises(InvalidInputError):
            TrainingExample(SpinConfig((1, -1)), (0, 2))

    def test_rejects_empty_target(self):
        with pytest.raises(InvalidInputError):
            TrainingExample(SpinConfig((1, -1)), ())

    def test_bits_view(self):
        ex = TrainingExample(SpinConfig((1, -1)), (1,))
        assert ex.bits == (1, 0)


class TestTrainerConfig:
    def test_rejects_negative_eta(self):
        with pytest.raises(InvalidInputError):
            TrainerConfig(eta=-0.1)

    def test_rejects_tiny_window(self):
        with pytest.raises(InvalidInputError):
            TrainerConfig(plateau_window=1)

    def test_rejects_nonpositive_plateau_epsilon(self):
        with pytest.raises(InvalidInputError, match="plateau_epsilon"):
            TrainerConfig(plateau_epsilon=0)

    def test_zero_eta_is_allowed(self):
        assert TrainerConfig(eta=0.0).eta == 0.0

    def test_init_range_needs_a_finite_draw_span(self):
        # weights are drawn from [-init_range, init_range], a span of 2 * init_range
        widest = TrainerConfig(init_range=8e307)
        net = initialize_network(2, [((1, 2),)], widest)
        assert all(abs(w) <= 8e307 for w in net.perceptrons[0].linear_weights)
        with pytest.raises(InvalidInputError, match="init_range"):
            TrainerConfig(init_range=1e308)


class TestForwardNetwork:
    def test_all_zero_network_outputs_half_everywhere(self):
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), 0.0),))
        net = TrainedNetwork((p,), 2)
        for s in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
            assert forward_network(net, SpinConfig(s))[0] == 0.5

    def test_strong_pair_weight_saturates_on_antiparallel_input(self):
        # x = (-10) * (+1)(-1) = 10, so the output is f(10)
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), -10.0),))
        net = TrainedNetwork((p,), 2)
        y = forward_network(net, SpinConfig((1, -1)))[0]
        assert y == pytest.approx(0.9975185951049945, abs=1e-12)

    def test_agrees_with_statevector_on_all_toffoli_inputs(self):
        task = resolve_task("toffoli", template="extended")
        net = _random_network(task, seed=3)
        for ex in task.examples:
            scalar = forward_network(net, ex.spins)
            vector = forward_statevector(net.perceptrons, ex.spins)
            np.testing.assert_allclose(scalar, vector, atol=1e-12)

    def test_arity_mismatch_raises(self):
        net = TrainedNetwork((NeuralPotential((0.1, 0.2), 0.0),), 2)
        with pytest.raises(InvalidInputError):
            forward_network(net, SpinConfig((1, 1, 1)))


class TestCost:
    def test_balanced_targets_at_half_output(self):
        # every output 0.5 against balanced 0/1 targets: C = 0.125 exactly
        p = NeuralPotential((0.0, 0.0), 0.0)
        net = TrainedNetwork((p,), 2)
        assert cost(net, resolve_task("xor").examples) == 0.125

    def test_saturated_exact_solution_drives_cost_to_zero(self):
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), -500.0),))
        net = TrainedNetwork((p,), 2)
        assert cost(net, resolve_task("xor").examples) < 1e-12

    def test_empty_training_set_raises(self):
        net = TrainedNetwork((NeuralPotential((0.1, 0.2), 0.0),), 2)
        with pytest.raises(InvalidInputError):
            cost(net, [])

    def test_overflowing_potential_is_divergence(self):
        # x = +-1e200 is finite but x * x is not; the output must not read 0.5
        p = NeuralPotential((1e200, 0.0), 0.0, (MultiQubitTerm((1, 2), 0.0),))
        net = TrainedNetwork((p,), 2)
        with np.errstate(over="ignore"), pytest.raises(
            InvalidInputError, match="diverged"
        ):
            cost(net, resolve_task("xor").examples)

    def test_divergence_raises_without_an_overflow_warning(self):
        p = NeuralPotential((1e200, 0.0), 0.0, (MultiQubitTerm((1, 2), 0.0),))
        net = TrainedNetwork((p,), 2)
        examples = resolve_task("xor").examples
        start = _random_network(resolve_task("xor"), seed=0)
        calls = [
            lambda: cost(net, examples),
            lambda: quantum_gradients(net, examples),
            lambda: train(net, examples, TrainerConfig(max_epochs=5)),
            lambda: train(net, examples, TrainerConfig(max_epochs=5), "bit"),
            # a finite start whose first step overflows the potential
            lambda: train(start, examples, TrainerConfig(eta=1e308, max_epochs=5)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(InvalidInputError, match="diverged"):
                    call()


class TestQuantumGradients:
    def test_zero_initialization_on_xor(self):
        # y = 1/2 and f' = 1/2 on every row; only the pair weight feels
        # the error pattern, with slope +1/4
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), 0.0),))
        net = TrainedNetwork((p,), 2)
        (g,) = quantum_gradients(net, resolve_task("xor").examples)
        np.testing.assert_allclose(g.linear, [0.0, 0.0], atol=1e-15)
        assert g.bias == pytest.approx(0.0, abs=1e-15)
        assert g.multi[0] == pytest.approx(0.25, abs=1e-15)

    def test_near_exact_network_has_vanishing_gradient(self):
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), -500.0),))
        net = TrainedNetwork((p,), 2)
        (g,) = quantum_gradients(net, resolve_task("xor").examples)
        assert np.max(np.abs(_flatten(g))) < 1e-9

    @pytest.mark.parametrize("task_id", ["xor", "toffoli"])
    def test_matches_finite_differences(self, task_id):
        task = resolve_task(task_id)
        net = _random_network(task, seed=41)
        analytic = quantum_gradients(net, task.examples)
        numeric = _fd_gradient(net, task.examples)
        for a, n in zip(analytic, numeric):
            ref = max(float(np.linalg.norm(n)), 1e-12)
            assert float(np.linalg.norm(_flatten(a) - n)) / ref < 1e-6


class TestBitEncoding:
    def test_one_unit_step_matches_finite_differences_in_bit_space(self):
        # at eta = 1 one epoch moves theta by exactly minus its gradient
        task = resolve_task("xor", template="two-qubit")
        net = _random_network(task, seed=13)
        config = TrainerConfig(eta=1.0, max_epochs=1)
        stepped, _ = train(net, task.examples, config, "bit")
        g = np.subtract(_weights(net), _weights(stepped))
        (n,) = _fd_gradient(net, task.examples, encoding="bit")
        ref = max(float(np.linalg.norm(n)), 1e-12)
        assert float(np.linalg.norm(g - n)) / ref < 1e-6

    def test_reparameterized_potentials_agree_with_bit_space(self):
        rng = np.random.default_rng(19)
        p_bits = NeuralPotential(tuple(rng.uniform(-1, 1, 3)), 0.4)
        p_spins = reparameterize_bits_to_spins(p_bits)
        net_bits = TrainedNetwork((p_bits,), 3)
        net_spins = TrainedNetwork((p_spins,), 3)
        for n in range(8):
            bits = tuple((n >> (2 - i)) & 1 for i in range(3))
            s = bits_to_spins(bits)
            y_bit = forward_network(net_bits, s, encoding="bit")[0]
            y_spin = forward_network(net_spins, s, encoding="spin")[0]
            assert y_bit == pytest.approx(y_spin, abs=1e-12)


class TestUpdateStep:
    def test_zero_learning_rate_changes_nothing(self):
        task = resolve_task("xor")
        net = _random_network(task, seed=2)
        config = TrainerConfig(eta=0.0, max_epochs=3)
        updated, _ = train(net, task.examples, config)
        for before, after in zip(net.perceptrons, updated.perceptrons):
            assert before.linear_weights == after.linear_weights
            assert before.bias == after.bias
            assert [t.weight for t in before.multi_terms] == [
                t.weight for t in after.multi_terms
            ]

    def test_single_step_is_reproducible(self):
        task = resolve_task("xor")
        config = TrainerConfig(seed=6, max_epochs=1)
        a, _ = train(_random_network(task, 6), task.examples, config)
        b, _ = train(_random_network(task, 6), task.examples, config)
        assert a.perceptrons == b.perceptrons

    def test_small_steps_never_increase_the_cost(self):
        task = resolve_task("xor")
        net = _random_network(task, seed=8)
        config = TrainerConfig(eta=1e-3, max_epochs=100)
        _, curve = train(net, task.examples, config)
        assert len(curve.costs) == 100
        costs = np.concatenate([[cost(net, task.examples)], curve.costs])
        assert np.all(np.diff(costs) <= 1e-15)


class TestTrain:
    def test_xor_converges_and_counts_epochs(self):
        task = resolve_task("xor")
        config = TrainerConfig(seed=0, max_epochs=1000)
        net0 = initialize_network(task.arity, task.templates, config, task.name)
        net, curve = train(net0, task.examples, config)
        assert curve.epochs_to_tolerance == 7
        assert len(curve.costs) == 7
        assert curve.costs[-1] < 0.01
        assert np.all(curve.costs[:-1] >= 0.01)
        assert net.epochs_run == 7

    @pytest.mark.parametrize(
        "task_id, message", [("toffoli", "input arity"), ("cnot", "target width")]
    )
    def test_rejects_a_mismatched_training_set(self, task_id, message):
        net = TrainedNetwork((NeuralPotential((0.1, 0.2), 0.0),), 2)
        with pytest.raises(InvalidInputError, match=message):
            train(net, resolve_task(task_id).examples, TrainerConfig(max_epochs=1))

    def test_rejects_an_unknown_encoding(self):
        net = TrainedNetwork((NeuralPotential((0.1, 0.2), 0.0),), 2)
        examples, config = resolve_task("xor").examples, TrainerConfig(max_epochs=1)
        with pytest.raises(InvalidInputError, match="unknown encoding 'ternary'"):
            train(net, examples, config, "ternary")

    def test_cost_recorded_after_each_update(self):
        # the cost of epoch 1 is that of the network after one update
        task = resolve_task("xor")
        config = TrainerConfig(seed=4, max_epochs=1)
        net0 = initialize_network(task.arity, task.templates, config, task.name)
        stepped, curve = train(net0, task.examples, config)
        assert curve.costs[0] == pytest.approx(
            cost(stepped, task.examples), abs=1e-15
        )

    def test_linear_only_xor_stalls_at_an_eighth(self):
        task = resolve_task("xor", template="two-qubit")
        config = TrainerConfig(seed=0, max_epochs=2000)
        net0 = initialize_network(task.arity, task.templates, config, task.name)
        net, curve = train(net0, task.examples, config, encoding="bit")
        assert curve.epochs_to_tolerance is None
        plateau = detect_plateau(curve, config)
        assert plateau == pytest.approx(0.125, abs=1e-6)


def _weights(net):
    return [
        v
        for p in net.perceptrons
        for v in (*p.linear_weights, *(t.weight for t in p.multi_terms), p.bias)
    ]


# Recorded with the per-network trainer this batched kernel replaced, at
# eta 1.5, init range 0.5 and tolerance 0.01 on the published templates:
# (task, seed, budget, epochs run, epochs to tolerance, cost after chosen
# epochs, final weights per output: linear, term weights, bias).
PARITY_PINS = [
    (
        "toffoli", 0, 300, 300, None,
        {1: 0.08717717135042409, 10: 0.03968801034551115,
         150: 0.02294999284351872, 300: 0.022131626854644922},
        (1.928049098149485, -0.005842513033337083, -0.011388047366052182,
         -0.011823233136458035, 0.00801605666183311, 1.927957352043482,
         0.002762607886817488, 0.005881355688996871, -0.013634788529206595,
         0.013634788529207159, 0.9823357845497802, -0.9823357845497808,
         5.953138669523295e-09),
    ),
    (
        "toffoli", 1, 300, 300, None,
        {1: 0.13280225606081256, 10: 0.04514925165995514,
         150: 0.02304307033556739, 300: 0.022161208548608008},
        (1.9252057165528864, 0.010122971526180337, -0.008133535884142258,
         0.010090277370747917, -0.002514342228401619, 1.9174876065342772,
         0.00398742529635524, -0.0012341731449895645, 0.00509503567870753,
         -0.005095035678707519, 0.9622900803743335, -0.9622900803743336,
         -1.7146568886960978e-11),
    ),
    (
        "toffoli", 2, 300, 300, None,
        {1: 0.12071135913253793, 10: 0.04346043751164488,
         150: 0.023038494465777198, 300: 0.022159959797941758},
        (1.916572247072299, -0.0032148557534345907, 0.00488786297101143,
         -0.005952368040749542, 0.0023229406883863344, 1.9258308258573018,
         -0.007074186760870666, -0.009464428188577297, -0.0048583523634971966,
         0.0048583523634972, 0.9638709284721702, -0.9638709284721703,
         -7.506969351700477e-11),
    ),
    (
        "prime4", 0, 5000, 74, 74,
        {1: 0.20685501127158118, 10: 0.03672774119007857,
         37: 0.016066683719604583, 74: 0.009960511842286706},
        (-0.7352456495276819, 0.0837010064182451, 0.742043858144361,
         1.3726145144933461, -1.4003870562414036, 0.7420442175722652),
    ),
]


class TestBatchedTraining:
    @pytest.mark.parametrize(
        "task_id, kwargs, max_epochs, tol, encoding",
        [
            # ragged stops: seeds leave the batch at different epochs
            ("toffoli", {"template": "extended"}, 2000, 0.005, "spin"),
            # every seed runs past the first cost-buffer growth
            ("toffoli", {}, 1100, 0.01, "spin"),
            ("prime5", {"template": "extended"}, 2000, 0.01, "spin"),
            ("prime3", {"template": "two-qubit"}, 300, 0.01, "bit"),
        ],
    )
    def test_batch_equals_one_network_at_a_time(
        self, task_id, kwargs, max_epochs, tol, encoding
    ):
        task = resolve_task(task_id, **kwargs)
        config = TrainerConfig(max_epochs=max_epochs, cost_tolerance=tol)
        nets = [_random_network(task, seed) for seed in range(12)]
        batch = train(nets, task.examples, config, encoding)
        alone = [train(net, task.examples, config, encoding) for net in nets]
        assert len(batch) == len(nets)
        for (net_b, curve_b), (net_a, curve_a) in zip(batch, alone):
            assert net_b == net_a
            assert curve_b.costs.tobytes() == curve_a.costs.tobytes()
            assert curve_b.epochs_to_tolerance == curve_a.epochs_to_tolerance

    @pytest.mark.parametrize("pin", PARITY_PINS, ids=lambda p: f"{p[0]}-{p[1]}")
    def test_matches_the_per_network_trainer(self, pin):
        task_id, seed, budget, ran, to_tolerance, costs, weights = pin
        task = resolve_task(task_id)
        config = TrainerConfig(seed=seed, max_epochs=budget)
        net, curve = train(_random_network(task, seed), task.examples, config)
        assert len(curve.costs) == ran == net.epochs_run
        assert curve.epochs_to_tolerance == to_tolerance
        for epoch, value in costs.items():
            assert curve.costs[epoch - 1] == pytest.approx(value, abs=1e-12)
        np.testing.assert_allclose(_weights(net), weights, rtol=0, atol=1e-12)

    def test_mixed_templates_or_arities_raise(self):
        paper = resolve_task("toffoli")
        extended = resolve_task("toffoli", template="extended")
        config = TrainerConfig(max_epochs=5)
        with pytest.raises(InvalidInputError):
            train(
                [_random_network(paper, 0), _random_network(extended, 1)],
                paper.examples,
                config,
            )
        xor = resolve_task("xor", template="two-qubit")
        prime3 = resolve_task("prime3", template="two-qubit")
        assert xor.templates == prime3.templates
        with pytest.raises(InvalidInputError):
            train(
                [_random_network(xor, 0), _random_network(prime3, 1)],
                xor.examples,
                config,
            )
        with pytest.raises(InvalidInputError):
            train([], xor.examples, config)


class TestDetectPlateau:
    def test_constant_curve_reports_the_constant(self):
        curve = CostCurve(costs=np.full(500, 0.3), cost_tolerance=0.01)
        assert detect_plateau(curve, TrainerConfig()) == pytest.approx(0.3)

    def test_steep_descent_has_no_plateau(self):
        curve = CostCurve(costs=np.geomspace(1.0, 1e-4, 500), cost_tolerance=1e-9)
        assert detect_plateau(curve, TrainerConfig()) is None

    def test_short_curve_raises(self):
        curve = CostCurve(costs=np.full(100, 0.3), cost_tolerance=0.01)
        with pytest.raises(InvalidInputError):
            detect_plateau(curve, TrainerConfig(plateau_window=200))

    def test_classical_prime_search_stalls(self):
        task = resolve_task("prime3", template="two-qubit")
        config = TrainerConfig(seed=0, max_epochs=3500)
        net0 = initialize_network(task.arity, task.templates, config, task.name)
        _, curve = train(net0, task.examples, config, encoding="bit")
        assert curve.epochs_to_tolerance is None
        plateau = detect_plateau(curve, config)
        assert plateau == pytest.approx(0.06273320849461182, abs=1e-9)


class TestInitializeNetwork:
    def test_draw_order_is_linear_then_terms_then_bias(self):
        config = TrainerConfig(seed=5)
        net = initialize_network(2, [((1, 2),)], config)
        rng = np.random.default_rng(5)
        expected_linear = tuple(rng.uniform(-0.5, 0.5, 2))
        expected_term = float(rng.uniform(-0.5, 0.5))
        expected_bias = float(rng.uniform(-0.5, 0.5))
        p = net.perceptrons[0]
        assert p.linear_weights == expected_linear
        assert p.multi_terms[0].weight == expected_term
        assert p.bias == expected_bias

    def test_weights_respect_the_range(self):
        config = TrainerConfig(seed=1, init_range=0.5)
        net = initialize_network(3, [((1, 2), (2, 3)), ()], config)
        for p in net.perceptrons:
            values = list(p.linear_weights) + [t.weight for t in p.multi_terms]
            values.append(p.bias)
            assert all(abs(v) <= 0.5 for v in values)

    def test_network_shape_matches_templates(self):
        net = initialize_network(3, [((1, 2, 3),), ()], TrainerConfig(seed=0))
        assert net.n_outputs == 2
        assert net.perceptrons[0].multi_terms[0].indices == (1, 2, 3)
        assert net.perceptrons[1].multi_terms == ()


class TestTrainedNetworkValidation:
    def test_arity_consistency_enforced(self):
        p2 = NeuralPotential((0.1, 0.2), 0.0)
        p3 = NeuralPotential((0.1, 0.2, 0.3), 0.0)
        with pytest.raises(InvalidInputError):
            TrainedNetwork((p2, p3), 2)

    def test_needs_a_perceptron(self):
        with pytest.raises(InvalidInputError):
            TrainedNetwork((), 2)
