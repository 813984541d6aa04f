"""Benchmark truth tables and the exact-representability oracle."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from qperceptron import (
    TASK_IDS,
    TEMPLATES,
    IntegratorError,
    InvalidInputError,
    MultiQubitTerm,
    NeuralPotential,
    SpinConfig,
    TaskSpec,
    TrainedNetwork,
    TrainerConfig,
    TrainingExample,
    canonical_task_id,
    check_exact_representability,
    cost,
    dynamics,
    enumerate_inputs,
    initialize_network,
    resolve_task,
    scale_potential,
    statevector_table,
    tasks,
    train,
    verify_truth_table,
)
from qperceptron.core import _pack, _unpack, features
from qperceptron.dynamics import _basis_index
from qperceptron.tasks import FEASIBILITY_MARGIN, MAX_ORACLE_ARITY, _PIVOT_TOL, _is_prime
from references import evaluate_potential, simplex, staged_lp, xor_face


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


def _one_row(k):
    """A table of arity k holding only its all-ones row."""
    return (TrainingExample(SpinConfig((1,) * k), (0,)),)


class TestTaskSpec:
    @pytest.mark.parametrize(
        "arity, templates, examples, message",
        [
            (2, (), resolve_task("xor").examples, "at least one output"),
            # the row count is checked before any array of 2^arity rows
            (2, ((),), resolve_task("xor").examples[:3], "full truth table of 4 rows"),
            (2, ((),), resolve_task("toffoli").examples[:4], "example input arity"),
            (2, ((), ()), resolve_task("xor").examples, "example target width"),
            # row (1, 1) is missing and row (0, 0) is there twice: linear XOR
            # would be judged on a table it can represent
            (
                2,
                ((),),
                tuple(resolve_task("xor").examples[i] for i in (0, 0, 1, 2)),
                "full truth table",
            ),
            # a one-row table of its own arity: 2^40 rows would be 8 TiB of
            # basis indices, and 2^64 more than numpy can index
            (0, ((),), _one_row(1), r"arity must be in \[1, 16\], got 0"),
            (17, ((),), _one_row(17), "got 17"),
            (40, ((),), _one_row(40), "got 40"),
            (64, ((),), _one_row(64), "got 64"),
            ("2", ((),), resolve_task("xor").examples, "arity must be an integer"),
            (2.0, ((),), resolve_task("xor").examples, "arity must be an integer"),
            (2, 5, resolve_task("xor").examples, "templates must be a sequence"),
            (2, (5,), resolve_task("xor").examples, "templates must be a sequence"),
            (
                2,
                ((),),
                resolve_task("xor").examples[:3] + ((1, -1),),
                "every example must be a TrainingExample",
            ),
            (2, ((),), iter(resolve_task("xor").examples), "examples must be a sequence"),
        ],
        ids=[
            "templates0-examples0-at least one output",
            "templates1-examples1-full truth table",
            "templates2-examples2-example input arity",
            "templates3-examples3-example target width",
            "templates4-examples4-full truth table",
            "arity-0",
            "arity-17",
            "arity-40",
            "arity-64",
            "arity-str",
            "arity-float",
            "templates-not-a-sequence",
            "template-not-a-sequence",
            "example-not-a-training-example",
            "examples-an-iterator",
        ],
    )
    def test_rejects_an_inconsistent_table(self, arity, templates, examples, message):
        with pytest.raises(InvalidInputError, match=message):
            TaskSpec("table", arity, templates, examples)

    @pytest.mark.parametrize(
        "template, message",
        [
            (((0, 2),), "1-based"),  # features would read index 0 as spin 2
            (((1, 3),), "beyond arity 2"),
            (((1,),), "at least two indices"),
            (((1, 1),), "strictly increasing"),
            (((2, 1),), "strictly increasing"),
            (((1.5, 2),), "term index must be an integer"),
            (((1, 2), (1, 2)), "duplicate term"),
        ],
    )
    def test_rejects_a_template_no_potential_accepts(self, template, message):
        with pytest.raises(InvalidInputError, match=message):
            TaskSpec("xor", 2, (template,), resolve_task("xor").examples)

    @staticmethod
    def _assert_arrays_match_examples(task):
        assert task.bits.dtype.kind == task.targets.dtype.kind == "i"
        assert task.bits.tolist() == [list(ex.bits) for ex in task.examples]
        assert task.targets.tolist() == [list(ex.target) for ex in task.examples]

    @pytest.mark.parametrize("bit_order", ["msb", "lsb"])
    @pytest.mark.parametrize("task_id", TASK_IDS)
    def test_arrays_are_the_examples_row_for_row(self, task_id, bit_order):
        for template in TEMPLATES:
            try:
                task = resolve_task(task_id, bit_order, template)
            except InvalidInputError:  # no extended template for this task
                continue
            self._assert_arrays_match_examples(task)

    def test_templates_are_stored_as_tuples(self):
        examples = resolve_task("xor").examples
        forms = [
            TaskSpec("x", 2, template, examples)
            for template in ([((1, 2),)], [[[1, 2]]], (((1, 2),),))
        ]
        assert all(task.templates == (((1, 2),),) for task in forms)
        assert forms[0] == forms[1] == forms[2]
        assert len({hash(task) for task in forms}) == 1

    def test_equality_and_hash_see_only_the_four_fields(self):
        assert resolve_task("xor") == resolve_task("xor")
        assert hash(resolve_task("xor")) == hash(resolve_task("xor"))
        assert resolve_task("xor") != resolve_task("xor", template="two-qubit")
        assert "bits" not in repr(resolve_task("xor"))

    def test_arrays_cannot_be_set(self):
        task = resolve_task("xor")
        with pytest.raises(TypeError):
            TaskSpec(task.name, task.arity, task.templates, task.examples, task.bits)
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.targets = task.targets
        with pytest.raises(ValueError, match="read-only"):
            task.bits[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            task.targets[0, 0] = 1


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

    @pytest.mark.parametrize("task_id", [None, 5])
    def test_an_id_that_is_not_a_string(self, task_id):
        with pytest.raises(InvalidInputError, match="task id must be a string"):
            resolve_task(task_id)

    def test_a_template_that_is_not_a_string(self):
        with pytest.raises(InvalidInputError, match=r"no \['paper'\] template"):
            resolve_task("xor", template=["paper"])

    def test_unknown_bit_order(self):
        with pytest.raises(InvalidInputError, match="unknown bit_order 'middle'"):
            resolve_task("xor", bit_order="middle")

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
    def test_the_statevector_engine_checks_the_norm_of_its_register(self, monkeypatch):
        monkeypatch.setattr(dynamics, "NORM_TOL", -1.0)
        task = resolve_task("cnot")
        net = initialize_network(task.arity, task.templates, TrainerConfig())
        assert verify_truth_table(net, task, "scalar").n_rows == 4
        with pytest.raises(IntegratorError, match="state norm drifted to "):
            verify_truth_table(net, task, "statevector")

    def test_saturated_xor_network_passes_all_rows(self):
        p = NeuralPotential((0.0, 0.0), 0.0, (MultiQubitTerm((1, 2), -20.0),))
        net = TrainedNetwork((p,), 2)
        report = verify_truth_table(net, resolve_task("xor"))
        assert report.all_correct
        assert report.max_abs_error == pytest.approx(6.238305610777317e-04, rel=1e-9)
        assert report.max_abs_error < 1e-3

    @pytest.mark.parametrize("engine", ["scalar", "statevector"])
    def test_half_outputs_are_ties(self, engine):
        # an untrained network answers exactly 0.5 on every row: no row is
        # correct or wrong, each is a tie on both outputs
        task = resolve_task("cnot")
        p = NeuralPotential((0.0, 0.0), 0.0)
        report = verify_truth_table(TrainedNetwork((p, p), 2), task, engine)
        assert report.n_correct == 0
        assert report.mismatches == ()
        assert report.ties == tuple(
            (ex.bits, (1, 2), ex.target) for ex in task.examples
        )
        assert report.max_abs_error == 0.5

    @pytest.mark.parametrize("engine", ["scalar", "statevector"])
    def test_tie_band_edges(self, engine):
        # x = s1 + s2 - bias: rows 01 and 10 sit at -bias, so f(x) - 1/2 is
        # about -bias / 2 there; rows 00 and 11 are decided (11 wrongly)
        task = resolve_task("xor")

        def report(bias):
            net = TrainedNetwork((NeuralPotential((1.0, 1.0), bias),), 2)
            return verify_truth_table(net, task, engine)

        for bias in (0.0, 1e-16, -1e-16, 1e-12, -1.9e-12):
            tied = report(bias)
            assert tied.ties == (((0, 1), (1,), (1,)), ((1, 0), (1,), (1,)))
            assert tied.mismatches == (((1, 1), (1,), (0,)),)
            assert tied.n_correct == 1
        assert 1.9e-12 / 2 < tasks.TIE_BAND < 2.1e-12 / 2
        decided = report(-2.1e-12)  # just outside the band, on the right side
        assert decided.ties == ()
        assert decided.mismatches == (((1, 1), (1,), (0,)),)
        assert decided.n_correct == 3

    def test_trained_cnot_passes_on_both_engines(self):
        task = resolve_task("cnot")
        config = TrainerConfig(seed=0, max_epochs=600)
        net0 = initialize_network(task.arity, task.templates, config, task.name)
        ((net, curve),) = train([net0], task.examples, config)
        assert curve.epochs_to_tolerance is not None
        for engine in ("scalar", "statevector"):
            report = verify_truth_table(net, task, engine=engine)
            assert report.all_correct

    def test_shape_mismatch_raises(self):
        net = TrainedNetwork((NeuralPotential((0.1, 0.2), 0.0),), 2)
        with pytest.raises(InvalidInputError):
            verify_truth_table(net, resolve_task("toffoli"))

    @pytest.mark.parametrize(
        "outputs, engine, message",
        [(2, "scalar", "output count"), (1, "tensor", "unknown engine 'tensor'")],
    )
    def test_rejects_a_wrong_output_count_or_engine(self, outputs, engine, message):
        net = TrainedNetwork((NeuralPotential((0.0, 0.0), 0.0),) * outputs, 2)
        with pytest.raises(InvalidInputError, match=message):
            verify_truth_table(net, resolve_task("xor"), engine=engine)

    @pytest.mark.parametrize("engine", ["scalar", "statevector"])
    def test_an_overflowing_potential_raises_one_line(self, engine):
        # row (1, 1) sums to inf, or to nan where inf meets -inf
        term = MultiQubitTerm((1, 2), -1e308)
        net = TrainedNetwork((NeuralPotential((1e308, 1e308), 1e308, (term,)),), 2)
        with pytest.raises(InvalidInputError, match="must be finite") as info:
            verify_truth_table(net, resolve_task("xor"), engine=engine)
        assert "\n" not in str(info.value)

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

    @pytest.mark.parametrize("index", [1.5, "0", None, (0,)])
    def test_an_output_index_that_is_not_an_integer(self, index):
        with pytest.raises(InvalidInputError, match="output_index must be an integer"):
            check_exact_representability(resolve_task("cnot"), index)

    @pytest.mark.parametrize("index", [True, np.int64(1)])
    def test_an_integer_output_index_of_another_type(self, index):
        # True is the integer 1, not a boolean mask over the rows
        cnot = resolve_task("cnot")
        verdict = check_exact_representability(cnot, index)
        assert _fields(verdict) == _fields(check_exact_representability(cnot, 1))
        assert verdict.feasible
        with pytest.raises(InvalidInputError, match=r"output_index must be in \[0, 0\], got 1"):
            check_exact_representability(resolve_task("xor"), index)

    def test_arity_guard(self):
        examples = tuple(
            TrainingExample(s, (0,)) for s in enumerate_inputs(6)
        )
        wide = TaskSpec("wide", 6, ((),), examples)
        with pytest.raises(InvalidInputError):
            check_exact_representability(wide, 0)


def _linprog_reference(task, output_index):
    """The oracle's LP as scipy.optimize.linprog solves it (HiGHS).

    Returns (feasible, delta, witness), the witness None when infeasible.
    """
    template = task.templates[output_index]
    phi = features([ex.spins.spins for ex in task.examples], template)
    signs = np.array(
        [2 * ex.target[output_index] - 1 for ex in task.examples], dtype=float
    )
    n_rows, n_params = phi.shape
    # variables: theta (n_params) then delta; maximize delta
    c = np.zeros(n_params + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-signs[:, None] * phi, np.ones((n_rows, 1))])
    b_ub = np.zeros(n_rows)
    bounds = [(-1.0, 1.0)] * n_params + [(0.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success, res.message
    delta = float(res.x[-1])
    if delta <= FEASIBILITY_MARGIN:
        return False, delta, None
    return True, delta, _unpack(task.arity, template, res.x[:n_params] / delta)


def _table(name, k, template, labels):
    """A one-output TaskSpec with the given 0/1 labels in basis order."""
    examples = tuple(
        TrainingExample(s, (int(v),)) for s, v in zip(enumerate_inputs(k), labels)
    )
    return TaskSpec(name, k, (tuple(template),), examples)


def _planted_labels(k, template, theta):
    """Where the potential theta (features column order) is positive."""
    spins = [s.spins for s in enumerate_inputs(k)]
    return features(spins, template) @ theta > 0


def _product_terms(k):
    return [
        t for r in range(2, k + 1) for t in itertools.combinations(range(1, k + 1), r)
    ]


def _resolvable_tasks():
    cases = []
    for task_id, template, order in itertools.product(
        TASK_IDS, TEMPLATES, ("msb", "lsb")
    ):
        try:
            task = resolve_task(task_id, order, template)
        except InvalidInputError:  # "extended" exists for three tasks only
            continue
        cases += [
            pytest.param(task, j, id=f"{task_id}:{template}-{order}-{j + 1}")
            for j in range(task.n_outputs)
        ]
    return cases


def _random_tables():
    """Seeded tables at k = 2..5, each under a random product-term template:
    uniform random labels (mostly infeasible at k = 5) and labels planted by
    a random potential (always feasible)."""
    rng = np.random.default_rng(11)
    tables = []
    for k in range(2, MAX_ORACLE_ARITY + 1):
        terms = _product_terms(k)
        for i in range(8):
            size = rng.integers(0, min(3, len(terms)) + 1)
            template = [terms[m] for m in sorted(rng.choice(len(terms), size, False))]
            if i % 2:
                labels = rng.integers(0, 2, 2**k)
            else:
                theta = rng.normal(size=k + len(template) + 1)
                labels = _planted_labels(k, template, theta)
            tables.append(_table(f"random-k{k}-{i}", k, template, labels))
    return tables


def _feasible_templates(task_id, bit_order, output_index, templates):
    """The templates under which the oracle finds output_index feasible,
    each swapped in for the task's published one."""
    task = resolve_task(task_id, bit_order)
    found = []
    for template in templates:
        swapped = list(task.templates)
        swapped[output_index] = tuple(template)
        spec = dataclasses.replace(task, templates=tuple(swapped))
        if check_exact_representability(spec, output_index).feasible:
            found.append(tuple(template))
    return found


class TestTemplateFacts:
    """What the oracle says of smaller templates than the stored ones; the
    comment above tasks._TASKS rests on these."""

    @pytest.mark.parametrize("bit_order", ["msb", "lsb"])
    def test_prime5_needs_three_product_terms(self, bit_order):
        terms = _product_terms(5)
        small = [c for n in range(3) for c in itertools.combinations(terms, n)]
        assert _feasible_templates("prime5", bit_order, 0, small) == []

    @pytest.mark.parametrize(
        "bit_order, additions",
        [
            ("msb", [((1, 3, 4), (1, 2, 3, 5))]),
            (
                "lsb",
                [
                    ((2, 3, 4), (1, 3, 4, 5)),
                    ((2, 3, 5), (1, 3, 4, 5)),
                    ((1, 2, 3, 4), (1, 3, 4, 5)),
                    ((1, 2, 3, 5), (1, 3, 4, 5)),
                ],
            ),
        ],
    )
    def test_prime5_two_term_additions_to_the_published_pair(self, bit_order, additions):
        others = [t for t in _product_terms(5) if t != (2, 3)]
        pairs = list(itertools.combinations(others, 2))
        templates = [((2, 3), *pair) for pair in pairs]
        found = _feasible_templates("prime5", bit_order, 0, templates)
        assert found == [((2, 3), *pair) for pair in additions]
        stored = resolve_task("prime5", template="extended").templates[0]
        assert (bit_order == "msb") == (stored in found)

    def test_toffoli_target_needs_any_two_of_its_three_terms(self):
        terms = [(1, 3), (2, 3), (1, 2, 3)]
        singles = [(t,) for t in terms]
        assert _feasible_templates("toffoli", "msb", 2, singles) == []
        pairs = list(itertools.combinations(terms, 2))
        assert _feasible_templates("toffoli", "msb", 2, pairs) == pairs

    @pytest.mark.parametrize("output_index", [1, 2])
    def test_fredkin_swap_outputs_need_one_pair_term(self, output_index):
        singles = [(t,) for t in _product_terms(3)]
        found = _feasible_templates("fredkin", "msb", output_index, singles)
        assert found == [((1, 2),), ((1, 3),)]

    @pytest.mark.parametrize(
        "bit_order, feasible", [("msb", [(1, 2), (1, 3)]), ("lsb", [(1, 3), (2, 3)])]
    )
    def test_prime3_single_pair_terms(self, bit_order, feasible):
        singles = [(t,) for t in _product_terms(3)]
        found = _feasible_templates("prime3", bit_order, 0, singles)
        assert found == [(t,) for t in feasible]


class TestOracleMatchesLinprogReference:
    """check_exact_representability solves with its own simplex; the verdicts
    and margins must be those of scipy's linprog on the same LP.  A
    degenerate optimum may have other witnesses, so witnesses are checked by
    margin."""

    @staticmethod
    def _assert_matches(task, j):
        verdict = check_exact_representability(task, j)
        feasible, delta, reference = _linprog_reference(task, j)
        assert verdict.feasible == feasible
        assert abs(verdict.margin - delta) <= 1e-12
        if feasible:
            for witness in (verdict.witness, reference):
                margin = min(_signed_potentials(task, j, witness))
                # at delta* = 1 the cap on delta binds, not the rows, so the
                # rescaled witness may clear every row by more than 1
                assert margin >= 1.0 - 1e-7
                if verdict.margin < 1.0:
                    assert margin == pytest.approx(1.0, abs=1e-7)
        else:
            assert verdict.witness is None

    @pytest.mark.parametrize("task, j", _resolvable_tasks())
    def test_every_task_template_and_bit_order(self, task, j):
        self._assert_matches(task, j)

    def test_the_cases_cover_every_task_and_both_verdicts(self):
        cases = [case.values for case in _resolvable_tasks()]
        assert {task.name for task, _ in cases} == set(TASK_IDS)
        verdicts = {check_exact_representability(t, j).feasible for t, j in cases}
        assert verdicts == {True, False}

    @pytest.mark.parametrize("task", _random_tables(), ids=lambda t: t.name)
    def test_seeded_random_tables(self, task):
        self._assert_matches(task, 0)

    @pytest.mark.parametrize("order", ["msb", "lsb"])
    @pytest.mark.parametrize("terms", ["pair", "product"])
    def test_prime5_under_every_pair_or_product_term(self, terms, order):
        # the largest LPs the oracle solves: 32 rows, up to 32 parameters
        width = 2 if terms == "pair" else 5
        template = tuple(t for t in _product_terms(5) if len(t) <= width)
        examples = resolve_task("prime5", order).examples
        self._assert_matches(TaskSpec("prime5", 5, (template,), examples), 0)

    def test_a_failed_lp_raises(self, monkeypatch):
        monkeypatch.setattr(tasks, "_MAX_PIVOTS", 0)
        with pytest.raises(
            RuntimeError, match="feasibility LP failed: no optimum within 0 pivots"
        ):
            check_exact_representability(resolve_task("xor"), 0)


def test_a_ratio_within_the_tolerance_of_the_least_ties():
    # maximize x subject to x <= _PIVOT_TOL (row 0) and x <= 0 (row 1): the
    # ratios tie within _PIVOT_TOL and row 0 holds the lower basic variable,
    # so Bland's rule pivots there, as the reference does
    t = np.array([[1.0, _PIVOT_TOL], [1.0, 0.0], [-1.0, 0.0]])
    assert simplex(t[:2, :1], t[:2, 1], -t[2, :1]).tolist() == [_PIVOT_TOL]
    assert tasks._simplex(t).tolist() == [_PIVOT_TOL]


@st.composite
def _random_label_tables(draw):
    """Uniform random labels at k = 2..5 under any subset of the product
    terms, up to all 2^k - k - 1 of them."""
    k = draw(st.integers(2, MAX_ORACLE_ARITY))
    terms = _product_terms(k)
    template = draw(st.lists(st.sampled_from(terms), unique=True, max_size=len(terms)))
    labels = draw(st.lists(st.integers(0, 1), min_size=2**k, max_size=2**k))
    return _table("random", k, sorted(template), labels)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(_random_label_tables())
def test_a_random_table_matches_the_linprog_reference(task):
    TestOracleMatchesLinprogReference._assert_matches(task, 0)


@st.composite
def _planted_tables(draw):
    """A random template and integer weights with a half-integer bias, so the
    potential is at least 1/2 away from 0 on every row; labels are its sign."""
    k = draw(st.integers(2, MAX_ORACLE_ARITY))
    terms = st.sampled_from(_product_terms(k))
    template = draw(st.lists(terms, unique=True, max_size=3))
    n_weights = k + len(template)
    weights = draw(st.lists(st.integers(-3, 3), min_size=n_weights, max_size=n_weights))
    theta = np.array(weights + [draw(st.integers(-2, 2)) + 0.5])
    return _table("planted", k, template, _planted_labels(k, template, theta))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_planted_tables())
def test_a_planted_table_is_always_feasible(task):
    verdict = check_exact_representability(task, 0)
    assert verdict.feasible
    assert min(_signed_potentials(task, 0, verdict.witness)) >= 1.0 - 1e-7


def _fields(verdict):
    """A verdict's fields, each float also as its bits, so 0.0 and -0.0 differ."""
    bits = None if verdict.witness is None else _pack(verdict.witness).tobytes()
    margin = np.float64(verdict.margin).tobytes()
    return verdict.feasible, margin, verdict.witness, bits


class TestXorFace:
    """An output whose labels are the XOR of two bits on some face, with no
    template term joining the two, is infeasible without the LP."""

    @staticmethod
    def _face_labels(complement):
        # the XOR of bits 1 and 3 where bit 2 is 1, constant where it is 0
        rows = itertools.product((0, 1), repeat=3)
        return [(b2 & (b1 ^ b3)) ^ complement for b1, b2, b3 in rows]

    @pytest.mark.parametrize("complement", [0, 1])
    def test_a_face_needs_its_pair_unjoined(self, complement):
        labels = self._face_labels(complement)
        assert tasks._xor_face(_table("face", 3, [(1, 2), (2, 3)], labels), 0)
        for template in ([(1, 3)], [(1, 2, 3)]):
            assert not tasks._xor_face(_table("face", 3, template, labels), 0)

    @pytest.mark.parametrize("k", [7, 9, 10])
    def test_a_face_on_the_last_rows(self, k):
        # the XOR of the last two qubits where the others are all 1, on the
        # last four rows; row indices past 63 do not fit an int64 bit mask
        labels = np.zeros(2**k, dtype=int)
        labels[-4:] = [0, 1, 1, 0]
        task = _table("face", k, [], labels)
        assert xor_face(task, 0)
        assert tasks._xor_face(task, 0)
        assert not tasks._xor_face(_table("face", k, [(k - 1, k)], labels), 0)

    @pytest.mark.parametrize("bit_order", ["msb", "lsb"])
    @pytest.mark.parametrize(
        "task_id, template", [("xor", "two-qubit"), ("prime5", "paper")]
    )
    def test_decided_without_the_lp(self, monkeypatch, task_id, template, bit_order):
        def no_lp(*args):
            raise AssertionError("the LP was reached")

        monkeypatch.setattr(tasks, "_simplex", no_lp)
        task = resolve_task(task_id, bit_order, template)
        verdict = check_exact_representability(task, 0)
        infeasible = tasks.FeasibilityVerdict(False, 0.0, None)
        assert _fields(verdict) == _fields(infeasible)

    @pytest.mark.parametrize(
        "task_id, bit_order, output_index",
        [("toffoli", "msb", 2), ("prime3", "msb", 0)],
    )
    def test_infeasible_outputs_with_no_face_reach_the_lp(
        self, monkeypatch, task_id, bit_order, output_index
    ):
        # toffoli's (1, 2, 3) joins every pair; prime3's labels have no XOR face
        calls = []
        lp = tasks._simplex
        monkeypatch.setattr(
            tasks, "_simplex", lambda *args: calls.append(1) or lp(*args)
        )
        task = resolve_task(task_id, bit_order)
        assert not tasks._xor_face(task, output_index)
        assert not check_exact_representability(task, output_index).feasible
        assert calls == [1]


@st.composite
def _shuffled_tables(draw, max_k=MAX_ORACLE_ARITY, min_k=2):
    """(kind, a one-output table at k = min_k..max_k with its rows in a random
    order) under up to six product terms.  Labels are uniform, planted by a
    potential of the template, or a constant or the XOR of two bits (either
    complemented) with up to three rows flipped."""
    k = draw(st.integers(min_k, max_k))
    terms = st.sampled_from(_product_terms(k))
    template = sorted(draw(st.lists(terms, unique=True, max_size=6)))
    kind = draw(st.sampled_from(["uniform", "planted", "constant", "parity"]))
    n = 2**k
    if kind == "uniform":
        labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    elif kind == "planted":
        n_weights = k + len(template)
        weights = draw(
            st.lists(st.integers(-3, 3), min_size=n_weights, max_size=n_weights)
        )
        theta = np.array(weights + [draw(st.integers(-2, 2)) + 0.5])
        labels = _planted_labels(k, template, theta).astype(int)
    else:
        labels = np.full(n, draw(st.integers(0, 1)))
        if kind == "parity":
            pair = st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)
            i, j = draw(pair)
            bits = (np.arange(n)[:, None] >> np.arange(k - 1, -1, -1)) & 1
            labels ^= bits[:, i] ^ bits[:, j]
        for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            labels[row] ^= 1
    rows = list(zip(enumerate_inputs(k), labels))
    order = draw(st.permutations(range(n)))
    examples = tuple(TrainingExample(rows[i][0], (int(rows[i][1]),)) for i in order)
    return kind, TaskSpec(kind, k, (tuple(template),), examples)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_shuffled_tables())
def test_the_xor_face_gives_the_lps_verdict(table):
    kind, task = table
    verdict = check_exact_representability(task, 0)
    with mock.patch.object(tasks, "_xor_face", lambda task, output_index: False):
        assert _fields(verdict) == _fields(check_exact_representability(task, 0))
    if kind == "planted":
        assert not tasks._xor_face(task, 0)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_shuffled_tables())
def test_the_lp_is_the_staged_lps_bit_for_bit(table):
    _, task = table
    with mock.patch.object(tasks, "_xor_face", lambda task, output_index: False):
        verdict = check_exact_representability(task, 0)
    assert _fields(verdict) == _fields(staged_lp(task, 0))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_shuffled_tables(max_k=8))
def test_the_xor_face_is_found_by_searching_every_face(table):
    _, task = table
    assert tasks._xor_face(task, 0) == xor_face(task, 0)


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(_shuffled_tables(min_k=9, max_k=10))
def test_the_xor_face_is_found_by_searching_every_face_of_a_wide_table(table):
    # 2^9 and 2^10 rows: the label mask is far wider than any machine word
    _, task = table
    assert tasks._xor_face(task, 0) == xor_face(task, 0)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_shuffled_tables(), st.randoms(use_true_random=False))
@example(("gate", resolve_task("toffoli")), random.Random(5))
def test_a_permuted_table_is_the_same_task(table, rng):
    _, task = table
    rows = list(task.examples)
    rng.shuffle(rows)
    permuted = TaskSpec(task.name, task.arity, task.templates, tuple(rows))
    in_order = sorted(rows, key=lambda ex: ex.bits)
    ordered = TaskSpec(task.name, task.arity, task.templates, tuple(in_order))
    assert permuted == ordered
    assert hash(permuted) == hash(ordered)
    assert permuted.examples == tuple(in_order)
    np.testing.assert_array_equal(_basis_index(permuted.bits), np.arange(2**task.arity))
    for name in ("bits", "targets"):
        np.testing.assert_array_equal(getattr(permuted, name), getattr(ordered, name))
    for j in range(task.n_outputs):
        verdicts = [check_exact_representability(t, j) for t in (permuted, ordered)]
        assert _fields(verdicts[0]) == _fields(verdicts[1])
    net = initialize_network(task.arity, task.templates, TrainerConfig(seed=3))
    for engine in ("scalar", "statevector"):
        reports = [verify_truth_table(net, t, engine) for t in (permuted, ordered)]
        assert reports[0] == reports[1]
        assert reports[0].max_abs_error.hex() == reports[1].max_abs_error.hex()
    config = TrainerConfig(seed=3, max_epochs=25)
    runs = [train([net], t.examples, config)[0] for t in (permuted, ordered)]
    assert runs[0][1].costs.tobytes() == runs[1][1].costs.tobytes()
    assert [_pack(p).tobytes() for p in runs[0][0].perceptrons] == [
        _pack(p).tobytes() for p in runs[1][0].perceptrons
    ]


class TestScalePotential:
    def test_scales_every_parameter(self):
        p = NeuralPotential((0.5, -1.0), 0.25, (MultiQubitTerm((1, 2), 2.0),))
        q = scale_potential(p, 20.0)
        assert q.linear_weights == (10.0, -20.0)
        assert q.bias == 5.0
        assert q.multi_terms[0].weight == 40.0
        assert q.multi_terms[0].indices == (1, 2)

    @pytest.mark.parametrize(
        "factor, message",
        [
            (float("inf"), "scale factor must be finite"),
            (float("nan"), "scale factor must be finite"),
            ("2", "scale factor must be a real number"),
            # a finite factor whose product with the 2.0 weight overflows
            (1e308, "must be finite, got inf"),
        ],
    )
    def test_rejects_a_factor_that_is_not_finite_or_overflows(self, factor, message):
        # the suite turns warnings into errors, so a numpy overflow warning
        # raised on the way would fail this test as well
        p = NeuralPotential((0.5, -1.0), 0.25, (MultiQubitTerm((1, 2), 2.0),))
        with pytest.raises(InvalidInputError, match=message):
            scale_potential(p, factor)


def _planted_networks():
    """Seeded (task, network) pairs at k = 3..7, two outputs of two pair terms
    each: integer weights and a half-integer bias, whose signs are the labels."""
    rng = np.random.default_rng(12)
    cases = []
    for k in range(3, 8):
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        templates = tuple(
            tuple(sorted(pairs[i] for i in rng.choice(len(pairs), 2, replace=False)))
            for _ in range(2)
        )
        potentials = tuple(
            _unpack(k, t, np.append(rng.integers(-3, 4, k + 2), rng.integers(-2, 3) + 0.5))
            for t in templates
        )
        spins = [s.spins for s in enumerate_inputs(k)]
        labels = [features(spins, t) @ _pack(p) > 0 for t, p in zip(templates, potentials)]
        examples = tuple(
            TrainingExample(s, tuple(int(v) for v in row))
            for s, row in zip(enumerate_inputs(k), zip(*labels))
        )
        task = TaskSpec(f"planted-k{k}", k, templates, examples)
        cases.append((task, TrainedNetwork(potentials, k)))
    return cases


def _verifier_and_oracle_text():
    """One line per table: a digest of each output's verdict (margin and
    witness as bits) up to MAX_ORACLE_ARITY, and of the statevector table and
    both engines' reports for a seeded random network, the planting network
    if any, and the witnesses when every output is feasible.  The tables are
    every stored task x template x bit order, _random_tables()'s uniform and
    planted ones, and _planted_networks()'s."""
    cases = []
    for task_id, template, order in itertools.product(TASK_IDS, TEMPLATES, ("msb", "lsb")):
        try:
            cases.append((resolve_task(task_id, order, template), None))
        except InvalidInputError:  # "extended" exists for three tasks only
            continue
    cases += [(task, None) for task in _random_tables()] + _planted_networks()
    lines = []
    for i, (task, planted) in enumerate(cases):
        digest = hashlib.sha256()
        outputs = range(task.n_outputs) if task.arity <= MAX_ORACLE_ARITY else ()
        verdicts = [check_exact_representability(task, j) for j in outputs]
        nets = [initialize_network(task.arity, task.templates, TrainerConfig(init_range=2.0))]
        nets += [planted] if planted else []
        if verdicts and all(v.feasible for v in verdicts):
            nets.append(TrainedNetwork(tuple(v.witness for v in verdicts), task.arity))
        for verdict in verdicts:
            digest.update(repr(_fields(verdict)).encode())
        for net in nets:
            digest.update(statevector_table(net.perceptrons).tobytes())
            for engine in ("scalar", "statevector"):
                report = verify_truth_table(net, task, engine)
                digest.update(f"{report!r} {report.max_abs_error.hex()}".encode())
        lines.append(f"{i} {task.name} {task.templates} {digest.hexdigest()}\n")
    return "".join(lines)


def test_the_verifier_and_the_oracle_read_the_same_under_a_reduced_dispatch(tmp_path):
    # numpy picks its AVX-512 or AVX2 kernels at import; the statevector
    # tables, both engines' reports and the verdicts must not depend on it
    from numpy._core._multiarray_umath import __cpu_features__

    names = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
    disabled = [name for name in names if __cpu_features__.get(name)]
    if not disabled:
        pytest.skip(f"none of {', '.join(names)} is enabled in this process")
    src = str(Path(tasks.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path[:0] = [{src!r}, {tests!r}]; "
            "from test_tasks import _verifier_and_oracle_text; "
            "sys.stdout.write(_verifier_and_oracle_text())",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _verifier_and_oracle_text()
