"""Benchmark truth tables and the exact-representability oracle."""

from __future__ import annotations

import numpy as np
import pytest
import sympy

from qperceptron import (
    InvalidInputError,
    MultiQubitTerm,
    NeuralPotential,
    TaskSpec,
    TrainedNetwork,
    TrainerConfig,
    TrainingExample,
    canonical_task_id,
    check_exact_representability,
    cost,
    enumerate_inputs,
    evaluate_potential,
    initialize_network,
    resolve_task,
    scale_potential,
    train,
    verify_truth_table,
)
from qperceptron.tasks import _is_prime


def _signed_potentials(task, output_index, potential):
    """sign * x over every row; positive everywhere means exact learnability."""
    values = []
    for ex in task.examples:
        sign = 2 * ex.target[output_index] - 1
        values.append(sign * evaluate_potential(potential, ex.spins))
    return values


class TestXorTask:
    def test_truth_table(self):
        task = resolve_task("xor")
        rows = {ex.bits: ex.target for ex in task.examples}
        assert rows == {
            (0, 0): (0,),
            (0, 1): (1,),
            (1, 0): (1,),
            (1, 1): (0,),
        }

    def test_template_is_one_pair_term(self):
        assert resolve_task("xor").templates == (((1, 2),),)

    def test_strong_pair_weight_solves_it(self):
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), -20.0),))
        net = TrainedNetwork((p,), 2)
        c = cost(net, resolve_task("xor").examples)
        assert c == pytest.approx(1.945822844672788e-07, rel=1e-9)
        assert c < 1e-6

    def test_linear_template_is_infeasible(self):
        task = resolve_task("xor", template="two-qubit")
        verdict = check_exact_representability(task, 0)
        assert not verdict.feasible
        assert verdict.witness is None


class TestPrimeTask:
    def test_is_prime_small_values(self):
        assert not _is_prime(0)
        assert not _is_prime(1)
        assert _is_prime(2)

    def test_is_prime_against_sympy(self):
        for n in range(64):
            assert _is_prime(n) == sympy.isprime(n)

    def test_three_bit_targets_by_value(self):
        task = resolve_task("prime3")
        targets = tuple(ex.target[0] for ex in task.examples)
        assert targets == (0, 0, 1, 1, 0, 1, 0, 1)

    def test_four_bit_primes(self):
        task = resolve_task("prime4")
        ones = {i for i, ex in enumerate(task.examples) if ex.target == (1,)}
        assert ones == {2, 3, 5, 7, 11, 13}

    def test_reversed_bit_order_permutes_targets(self):
        task = resolve_task("prime3", bit_order="lsb")
        by_bits = {ex.bits: ex.target[0] for ex in task.examples}
        # (1, 1, 0) reads as binary 011 = 3 when qubit 1 is least significant
        assert by_bits[(1, 1, 0)] == 1
        assert by_bits[(0, 0, 1)] == 0  # 100 = 4

    def test_template_is_the_second_third_pair(self):
        for bits in (3, 4, 5):
            assert resolve_task(f"prime{bits}").templates == (((2, 3),),)

    def test_rejects_unsupported_widths(self):
        with pytest.raises(InvalidInputError):
            resolve_task("prime6")
        with pytest.raises(InvalidInputError):
            resolve_task("prime2")


class TestGateTasks:
    def test_cnot_rows(self):
        task = resolve_task("cnot")
        rows = {ex.bits: ex.target for ex in task.examples}
        assert rows == {
            (0, 0): (0, 0),
            (0, 1): (0, 1),
            (1, 0): (1, 1),
            (1, 1): (1, 0),
        }

    def test_toffoli_flips_only_the_doubly_controlled_rows(self):
        task = resolve_task("toffoli")
        for ex in task.examples:
            expected = ex.bits if ex.bits[:2] != (1, 1) else (1, 1, 1 - ex.bits[2])
            assert ex.target == expected

    def test_fredkin_swaps_under_control(self):
        task = resolve_task("fredkin")
        rows = {ex.bits: ex.target for ex in task.examples}
        assert rows[(1, 0, 1)] == (1, 1, 0)
        assert rows[(1, 1, 0)] == (1, 0, 1)
        for bits, target in rows.items():
            if bits not in ((1, 0, 1), (1, 1, 0)):
                assert target == bits

    def test_published_templates(self):
        assert resolve_task("cnot").templates == ((), ((1, 2),))
        assert resolve_task("toffoli").templates == ((), (), ((1, 2, 3),))
        assert resolve_task("fredkin").templates == ((), (), ((2, 3),))

    def test_extended_templates(self):
        assert resolve_task("toffoli", template="extended").templates == (
            (),
            (),
            ((1, 2, 3), (1, 3), (2, 3)),
        )
        assert resolve_task("fredkin", template="extended").templates == (
            (),
            ((1, 2), (1, 3)),
            ((1, 2), (1, 3)),
        )

    def test_two_qubit_variant_strips_all_terms(self):
        for name in ("cnot", "toffoli", "fredkin"):
            task = resolve_task(name, template="two-qubit")
            assert all(t == () for t in task.templates)

    def test_unknown_gate_and_missing_variant(self):
        with pytest.raises(InvalidInputError):
            resolve_task("swap")
        with pytest.raises(InvalidInputError):
            resolve_task("cnot", template="extended")


class TestResolveTask:
    def test_known_ids(self):
        assert resolve_task("xor").name == "xor"
        assert resolve_task("prime4").arity == 4
        assert resolve_task("fredkin").n_outputs == 3

    def test_hyphenated_prime_alias(self):
        assert canonical_task_id("prime-5") == "prime5"
        assert canonical_task_id("toffoli") == "toffoli"
        assert resolve_task("prime-3").name == "prime3"

    def test_unknown_id(self):
        with pytest.raises(InvalidInputError):
            resolve_task("parity-5")

    def test_extended_reserved_for_the_three_qubit_gates(self):
        # and for prime5, the only other task with an extended template
        for task_id in ("xor", "cnot", "prime3", "prime4"):
            with pytest.raises(InvalidInputError):
                resolve_task(task_id, template="extended")

    def test_prime5_extended_template(self):
        task = resolve_task("prime5", template="extended")
        assert task.templates == (((2, 3), (1, 3, 4), (1, 2, 3, 5)),)
        assert task.examples == resolve_task("prime5").examples
        with pytest.raises(InvalidInputError):
            resolve_task("prime4", template="extended")

    def test_two_qubit_only_strips_prime_template(self):
        task = resolve_task("prime3", template="two-qubit")
        assert task.templates == ((),)
        assert len(task.examples) == 8


class TestVerifyTruthTable:
    def test_saturated_xor_network_passes_all_rows(self):
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), -20.0),))
        net = TrainedNetwork((p,), 2)
        report = verify_truth_table(net, resolve_task("xor"))
        assert report.all_correct
        assert report.max_abs_error == pytest.approx(6.238305610777317e-04, rel=1e-9)
        assert report.max_abs_error < 1e-3

    def test_half_outputs_read_as_zero(self):
        # untrained network answers exactly 0.5, which thresholds to 0
        task = resolve_task("cnot")
        p = NeuralPotential((0.0, 0.0), 0.0)
        net = TrainedNetwork((p, p), 2)
        report = verify_truth_table(net, task)
        assert report.n_correct == 1
        failed = {bits for bits, _, _ in report.mismatches}
        assert failed == {(0, 1), (1, 0), (1, 1)}
        assert report.max_abs_error == 0.5

    def test_trained_cnot_passes_on_both_engines(self):
        task = resolve_task("cnot")
        config = TrainerConfig(seed=0, max_epochs=600)
        net0 = initialize_network(task.arity, task.templates, config, task.name)
        net, curve = train(net0, task.examples, config)
        assert curve.epochs_to_tolerance is not None
        for engine in ("scalar", "statevector"):
            report = verify_truth_table(net, task, engine=engine)
            assert report.all_correct

    def test_shape_mismatch_raises(self):
        net = TrainedNetwork((NeuralPotential((0.1, 0.2), 0.0),), 2)
        with pytest.raises(InvalidInputError):
            verify_truth_table(net, resolve_task("toffoli"))

    @pytest.mark.parametrize("engine", ["scalar", "statevector"])
    def test_report_does_not_depend_on_example_order(self, engine):
        task = resolve_task("toffoli")  # the published template misses rows
        net = initialize_network(task.arity, task.templates, TrainerConfig(seed=4))
        order = np.random.default_rng(7).permutation(len(task.examples))
        shuffled = TaskSpec(
            name=task.name,
            arity=task.arity,
            templates=task.templates,
            examples=tuple(task.examples[i] for i in order),
        )
        report = verify_truth_table(net, task, engine=engine)
        permuted = verify_truth_table(net, shuffled, engine=engine)
        assert report.n_correct < report.n_rows
        assert permuted.n_correct == report.n_correct
        assert permuted.max_abs_error == report.max_abs_error
        assert sorted(permuted.mismatches) == sorted(report.mismatches)


class TestRepresentabilityOracle:
    def test_xor_pair_term_is_feasible(self):
        verdict = check_exact_representability(resolve_task("xor"), 0)
        assert verdict.feasible
        assert verdict.witness is not None

    def test_cnot_second_output_is_feasible(self):
        verdict = check_exact_representability(resolve_task("cnot"), 1)
        assert verdict.feasible

    def test_xor_linear_infeasibility_has_an_algebraic_certificate(self):
        # summing the signed feature rows with unit multipliers gives the
        # zero vector, so no weight choice makes every signed potential
        # positive: their sum is identically zero
        task = resolve_task("xor", template="two-qubit")
        rows = []
        for ex in task.examples:
            sign = 2 * ex.target[0] - 1
            rows.append(sign * np.array([*ex.spins.spins, -1.0]))
        np.testing.assert_allclose(np.sum(rows, axis=0), 0.0, atol=1e-15)
        assert not check_exact_representability(task, 0).feasible

    def test_witness_has_unit_margin(self):
        for task, j in [
            (resolve_task("xor"), 0),
            (resolve_task("cnot"), 0),
            (resolve_task("cnot"), 1),
            (resolve_task("prime3", "lsb"), 0),
            (resolve_task("toffoli", template="extended"), 2),
            (resolve_task("fredkin", template="extended"), 1),
            (resolve_task("prime5", template="extended"), 0),
        ]:
            verdict = check_exact_representability(task, j)
            assert verdict.feasible
            margins = _signed_potentials(task, j, verdict.witness)
            assert min(margins) == pytest.approx(1.0, abs=1e-7)

    def test_prime_search_feasibility_depends_on_bit_order(self):
        def feasible(task_id, order):
            return check_exact_representability(resolve_task(task_id, order), 0).feasible

        assert not feasible("prime3", "msb")
        assert feasible("prime3", "lsb")
        assert feasible("prime4", "msb")
        assert feasible("prime4", "lsb")

    def test_widest_prime_search_is_infeasible_under_both_orders(self):
        for order in ("msb", "lsb"):
            task = resolve_task("prime5", order)
            assert not check_exact_representability(task, 0).feasible

    def test_linear_prime3_floor_is_one_wrong_row(self):
        # certificate behind criterion 3's classical band: no linear
        # potential separates 3-bit primes, and one bit-encoded linear
        # classifier gets exactly one of the 8 rows wrong, so the linear
        # cost floor is about 1 / (2 * 8) = 1/16
        task = resolve_task("prime3", template="two-qubit")
        assert not check_exact_representability(task, 0).feasible
        weights, bias = np.array([-1.0, 1.0, 2.0]), 0.5
        wrong = [
            int("".join(map(str, ex.bits)), 2)
            for ex in task.examples
            if int(weights @ np.array(ex.bits) - bias > 0) != ex.target[0]
        ]
        assert wrong == [1]

    def test_published_three_qubit_gate_templates_are_infeasible(self):
        toffoli = resolve_task("toffoli")
        assert check_exact_representability(toffoli, 0).feasible
        assert check_exact_representability(toffoli, 1).feasible
        assert not check_exact_representability(toffoli, 2).feasible
        fredkin = resolve_task("fredkin")
        assert check_exact_representability(fredkin, 0).feasible
        assert not check_exact_representability(fredkin, 1).feasible
        assert not check_exact_representability(fredkin, 2).feasible

    def test_extended_templates_are_feasible(self):
        for name in ("toffoli", "fredkin"):
            task = resolve_task(name, template="extended")
            for j in range(task.n_outputs):
                assert check_exact_representability(task, j).feasible

    def test_output_index_bounds(self):
        with pytest.raises(InvalidInputError):
            check_exact_representability(resolve_task("xor"), 1)

    def test_arity_guard(self):
        examples = tuple(
            TrainingExample(s, (0,)) for s in enumerate_inputs(6)
        )
        wide = TaskSpec("wide", 6, ((),), examples)
        with pytest.raises(InvalidInputError):
            check_exact_representability(wide, 0)


class TestScalePotential:
    def test_scales_every_parameter(self):
        p = NeuralPotential((0.5, -1.0), 0.25, (MultiQubitTerm((1, 2), 2.0),))
        q = scale_potential(p, 20.0)
        assert q.linear_weights == (10.0, -20.0)
        assert q.bias == 5.0
        assert q.multi_terms[0].weight == 40.0
        assert q.multi_terms[0].indices == (1, 2)
