"""Benchmark truth tables and the exact-representability oracle."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from qperceptron import (
    TASK_IDS,
    TEMPLATES,
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
    initialize_network,
    resolve_task,
    scale_potential,
    tasks,
    train,
    verify_truth_table,
)
from qperceptron.core import _unpack, features
from qperceptron.tasks import FEASIBILITY_MARGIN, MAX_ORACLE_ARITY, _is_prime
from references import evaluate_potential


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


class TestTaskSpec:
    @pytest.mark.parametrize(
        "templates, examples, message",
        [
            ((), resolve_task("xor").examples, "at least one output"),
            (((),), resolve_task("xor").examples[:3], "full truth table"),
            (((),), resolve_task("toffoli").examples[:4], "example input arity"),
            (((), ()), resolve_task("xor").examples, "example target width"),
        ],
    )
    def test_rejects_an_inconsistent_table(self, templates, examples, message):
        with pytest.raises(InvalidInputError, match=message):
            TaskSpec("table", 2, templates, examples)

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

    def test_arrays_follow_a_permuted_table(self):
        task = resolve_task("fredkin", template="extended")
        order = np.random.default_rng(5).permutation(len(task.examples))
        examples = tuple(task.examples[i] for i in order)
        shuffled = TaskSpec(task.name, task.arity, task.templates, examples)
        self._assert_arrays_match_examples(shuffled)
        np.testing.assert_array_equal(shuffled.bits, task.bits[order])

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

    @pytest.mark.parametrize(
        "outputs, engine, message",
        [(2, "scalar", "output count"), (1, "tensor", "unknown engine 'tensor'")],
    )
    def test_rejects_a_wrong_output_count_or_engine(self, outputs, engine, message):
        net = TrainedNetwork((NeuralPotential((0.0, 0.0), 0.0),) * outputs, 2)
        with pytest.raises(InvalidInputError, match=message):
            verify_truth_table(net, resolve_task("xor"), engine=engine)

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


class TestScalePotential:
    def test_scales_every_parameter(self):
        p = NeuralPotential((0.5, -1.0), 0.25, (MultiQubitTerm((1, 2), 2.0),))
        q = scale_potential(p, 20.0)
        assert q.linear_weights == (10.0, -20.0)
        assert q.bias == 5.0
        assert q.multi_terms[0].weight == 40.0
        assert q.multi_terms[0].indices == (1, 2)
