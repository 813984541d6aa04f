"""Experiment runner, artifact emission, and the command line interface."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qperceptron
from qperceptron import detect_plateau, harness
from qperceptron import (
    TASK_IDS,
    TEMPLATES,
    ConfigError,
    CostCurve,
    ExperimentConfig,
    TrainerConfig,
    cli,
    cost,
    emit_cost_curve_csv,
    emit_summary,
    load_summary,
    resolve_task,
    run_experiment,
)
from qperceptron.training import MAX_SEED_EPOCHS
from references import cost_csv_text, summary_text


def _run(config: ExperimentConfig):
    return run_experiment(config)


def load_network_from_summary(path, seed=None):
    """The network gate-verify reads for one seed (default: first) of a summary."""
    return harness._network_from_summary(load_summary(path), path, seed)


def _first_difference(got: str, expected: str):
    """None if the texts are equal, else (line number, got, expected) of the
    first line that differs: a short report where a diff of two long CSVs
    would take minutes."""
    lines = itertools.zip_longest(got.splitlines(), expected.splitlines())
    for number, (a, b) in enumerate(lines, 1):
        if a != b:
            return number, a, b
    return None


def _must_not_run(*args, **kwargs):
    raise AssertionError("a rejected configuration started a run")


class TestExperimentConfig:
    def test_rejects_unknown_task(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="majority")

    def test_normalizes_hyphenated_prime_alias(self):
        assert ExperimentConfig(task="prime-3").task == "prime3"

    def test_rejects_bad_mode_and_template(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="xor", mode="hybrid")
        with pytest.raises(ConfigError):
            ExperimentConfig(task="xor", template="full")

    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    @pytest.mark.parametrize("template", TEMPLATES)
    @pytest.mark.parametrize("task", TASK_IDS)
    def test_accepts_exactly_the_combinations_that_run(self, task, template, mode):
        # only prime5, toffoli and fredkin have an extended template, and
        # classical mode strips every product term
        runs = template != "extended" or (
            task in ("prime5", "toffoli", "fredkin") and mode == "quantum"
        )
        settings = dict(task=task, template=template, mode=mode, max_epochs=1)
        if runs:
            result = run_experiment(ExperimentConfig(**settings))
            assert result.config.spec.name == task
        else:
            with pytest.raises(ConfigError, match="'extended'") as info:
                ExperimentConfig(**settings)
            assert mode == "quantum" or "mode 'classical'" in str(info.value)

    def test_rejects_nonpositive_numbers(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="xor", eta=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(task="xor", max_epochs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(task="xor", cost_tolerance=-1.0)

    def test_rejects_empty_or_non_integer_seeds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="xor", seeds=())
        with pytest.raises(ConfigError):
            ExperimentConfig(task="xor", seeds=(True,))

    def test_rejects_a_repeated_seed(self):
        with pytest.raises(ConfigError, match="seeds must not repeat"):
            ExperimentConfig(task="xor", seeds=(2, 0, 2))

    def test_training_defaults_are_the_trainer_configs(self):
        assert ExperimentConfig(task="xor").trainer_config(0) == TrainerConfig()


class TestRunExperiment:
    def test_xor_single_seed(self):
        result = _run(ExperimentConfig(task="xor", seeds=(0,), max_epochs=1000))
        outcome = result.outcomes[0]
        assert outcome.epochs_to_tolerance == 7
        assert outcome.final_cost < 0.01
        assert result.median_epochs_to_tolerance == 7.0
        assert [v.feasible for v in result.oracle] == [True]

    def test_seed_order_is_preserved(self):
        result = _run(ExperimentConfig(task="xor", seeds=(5, 1, 3), max_epochs=50))
        assert [o.seed for o in result.outcomes] == [5, 1, 3]

    def test_classical_mode_strips_terms_and_stalls(self):
        result = _run(
            ExperimentConfig(task="xor", mode="classical", seeds=(0,), max_epochs=500)
        )
        outcome = result.outcomes[0]
        bit_cost = cost(outcome.network, result.config.spec.examples, encoding="bit")
        assert bit_cost == pytest.approx(outcome.final_cost, rel=1e-12)
        assert result.config.spec.templates == ((),)
        assert result.outcomes[0].epochs_to_tolerance is None
        assert result.median_epochs_to_tolerance is None

    @pytest.mark.parametrize(
        "task, template, max_epochs, tol",
        [
            # seeds stop at different epochs
            ("toffoli", "extended", 2000, 0.005),
            # every seed runs the whole budget and ends on a plateau
            ("toffoli", "paper", 800, 0.01),
        ],
    )
    def test_a_seed_does_not_depend_on_the_seeds_beside_it(
        self, tmp_path, task, template, max_epochs, tol
    ):
        def emit(seeds, out):
            result = _run(
                ExperimentConfig(
                    task=task,
                    template=template,
                    seeds=seeds,
                    max_epochs=max_epochs,
                    cost_tolerance=tol,
                )
            )
            emit_cost_curve_csv(result, out)
            return result, load_summary(emit_summary(result, out / "summary.json"))

        seeds = tuple(range(20))
        result, summary = emit(seeds, tmp_path / "all")
        if template == "paper":
            assert all(
                o.plateau is not None and len(o.curve.costs) == max_epochs
                for o in result.outcomes
            )
        else:
            assert len({len(o.curve.costs) for o in result.outcomes}) > 1
        for k, entry in zip(seeds, summary["per_seed"]):
            _, alone = emit((k,), tmp_path / f"seed{k}")
            name = f"cost_seed{k}.csv"
            csv_all = (tmp_path / "all" / name).read_bytes()
            assert (tmp_path / f"seed{k}" / name).read_bytes() == csv_all
            assert json.dumps(alone["per_seed"][0]) == json.dumps(entry)

    @pytest.mark.parametrize("task", ["toffoli", "xor"])
    def test_every_seed_goes_through_detect_plateau(self, monkeypatch, task):
        # toffoli's published template runs the whole budget; xor's curves
        # end within the window, so detect_plateau finds no plateau on them
        curves = []

        def spy(curve, config):
            curves.append(curve)
            return detect_plateau(curve, config)

        monkeypatch.setattr(harness, "detect_plateau", spy)
        result = _run(ExperimentConfig(task=task, seeds=(0, 1, 2), max_epochs=250))
        assert curves == [o.curve for o in result.outcomes]
        if task == "xor":
            assert all(len(c.costs) <= 200 for c in curves)
            assert all(o.plateau is None for o in result.outcomes)

    def test_median_is_the_middle_order_statistic(self):
        result = _run(ExperimentConfig(task="xor", seeds=(0, 1, 2, 3, 4)))
        counts = sorted(o.epochs_to_tolerance for o in result.outcomes)
        assert result.median_epochs_to_tolerance == counts[2]


class TestCostCurveCsv:
    def test_row_count_and_format(self, tmp_path):
        result = _run(ExperimentConfig(task="xor", seeds=(0,), max_epochs=3))
        (path,) = emit_cost_curve_csv(result, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,cost"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:], start=1):
            epoch, value = line.split(",")
            assert int(epoch) == i
            assert np.isfinite(float(value))

    def test_final_cost_is_the_last_row_and_the_summary_value(self, tmp_path):
        result = _run(ExperimentConfig(task="toffoli", seeds=(0, 1), max_epochs=40))
        paths = emit_cost_curve_csv(result, tmp_path)
        doc = load_summary(emit_summary(result, tmp_path / "summary.json"))
        for outcome, path, entry in zip(result.outcomes, paths, doc["per_seed"]):
            last = path.read_text().splitlines()[-1]
            assert last == "40,%.12g" % outcome.final_cost
            assert entry["final_cost"] == outcome.final_cost

    def test_rerun_is_byte_identical(self, tmp_path):
        config = ExperimentConfig(task="xor", seeds=(7,), max_epochs=100)
        (a,) = emit_cost_curve_csv(_run(config), tmp_path / "a")
        (b,) = emit_cost_curve_csv(_run(config), tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    # one cost per branch of %.12g: zero, exponent form, plain, subnormal,
    # rounded to 12 digits, and a large exponent
    BRANCHES = [0.0, 1e-05, 0.5, 5e-324, 0.1234567890125, 1e16]

    @staticmethod
    def _with_curves(curves):
        """An xor result whose seeds 0, 1, ... carry the given cost arrays."""
        result = _run(ExperimentConfig(task="xor", seeds=(0,), max_epochs=3))
        outcome = result.outcomes[0]
        outcomes = tuple(
            dataclasses.replace(outcome, seed=s, curve=CostCurve(costs, 0.01))
            for s, costs in enumerate(curves)
        )
        return dataclasses.replace(result, outcomes=outcomes)

    def _ragged_curves(self):
        block = harness.CSV_BLOCK_ROWS
        rng = np.random.default_rng(3)
        curves = []
        for n in (1, block - 1, block, block + 1, 2 * block + 3):
            costs = rng.random(n) * 10.0 ** rng.integers(-300, 300, n)
            costs[: len(self.BRANCHES)] = self.BRANCHES[:n]
            costs[-1] = self.BRANCHES[n % len(self.BRANCHES)]
            curves.append(costs)
        return curves

    def test_ragged_curves_match_the_row_by_row_writer(self, tmp_path):
        assert ["%.12g" % c for c in self.BRANCHES] == [
            "0", "1e-05", "0.5", "4.94065645841e-324", "0.123456789012", "1e+16"
        ]
        curves = self._ragged_curves()
        paths = emit_cost_curve_csv(self._with_curves(curves), tmp_path)
        for costs, path in zip(curves, paths):
            assert _first_difference(path.read_text(), cost_csv_text(costs)) is None

    def test_a_seeds_bytes_do_not_depend_on_the_curves_beside_it(self, tmp_path):
        # the writer reuses the previous seed's row format; equal lengths
        # with different costs, side by side, must not share their rows
        block = harness.CSV_BLOCK_ROWS
        rng = np.random.default_rng(5)
        curves = self._ragged_curves()
        curves[3:3] = [rng.random(block + 1), rng.random(70), rng.random(70)]
        alone = []
        for s, costs in enumerate(curves):
            (path,) = emit_cost_curve_csv(self._with_curves([costs]), tmp_path / f"{s}")
            alone.append(path.read_text())
        for order, out in [(1, "forward"), (-1, "backward")]:
            result = self._with_curves(curves[::order])
            paths = emit_cost_curve_csv(result, tmp_path / out)
            for path, text in zip(paths, alone[::order]):
                assert _first_difference(path.read_text(), text) is None

    def test_emitting_a_long_curve_takes_memory_per_block(self, tmp_path):
        rows = 10**5
        result = self._with_curves([np.random.default_rng(7).random(rows)])
        tracemalloc.start()
        try:
            emit_cost_curve_csv(result, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / rows <= 16  # bytes per row; the row-by-row writer took ~135


class TestSummary:
    def test_schema_for_a_converged_run(self, tmp_path):
        result = _run(ExperimentConfig(task="xor", seeds=(0, 1), max_epochs=1000))
        path = emit_summary(result, tmp_path / "summary.json")
        doc = json.loads(path.read_text())
        for key in (
            "task",
            "mode",
            "eta",
            "seeds",
            "per_seed",
            "median_epochs_to_tolerance",
            "oracle_verdict",
        ):
            assert doc[key] is not None
        assert doc["task"] == "xor"
        assert doc["seeds"] == [0, 1]
        assert doc["oracle_verdict"] == ["feasible"]
        for entry in doc["per_seed"]:
            assert entry["epochs_to_tolerance"] is not None
            assert entry["final_cost"] is not None
            assert "plateau" in entry
            assert entry["weights"][0]["multi"][0]["indices"] == [1, 2]

    def test_weights_round_trip_reproduces_the_cost(self, tmp_path):
        result = _run(ExperimentConfig(task="xor", seeds=(0, 3), max_epochs=1000))
        path = emit_summary(result, tmp_path / "summary.json")
        doc = load_summary(path)
        task = resolve_task("xor")
        for entry in doc["per_seed"]:
            net = load_network_from_summary(path, entry["seed"])
            reloaded = cost(net, task.examples)
            assert reloaded == pytest.approx(entry["final_cost"], abs=1e-12)

    def test_classical_round_trip_uses_bit_encoding(self, tmp_path):
        result = _run(
            ExperimentConfig(task="xor", mode="classical", seeds=(0,), max_epochs=300)
        )
        path = emit_summary(result, tmp_path / "summary.json")
        entry = load_summary(path)["per_seed"][0]
        net = load_network_from_summary(path)
        task = resolve_task("xor", template="two-qubit")
        reloaded = cost(net, task.examples, encoding="bit")
        assert reloaded == pytest.approx(entry["final_cost"], abs=1e-12)

    def test_one_write_equals_the_streaming_writer(self, tmp_path):
        result = _run(
            ExperimentConfig(task="toffoli", template="extended", seeds=(0, 1, 2))
        )
        text = emit_summary(result, tmp_path / "summary.json").read_text()
        assert text == summary_text(json.loads(text))

    def test_missing_seed_raises(self, tmp_path):
        result = _run(ExperimentConfig(task="xor", seeds=(0,), max_epochs=50))
        path = emit_summary(result, tmp_path / "summary.json")
        with pytest.raises(ConfigError):
            load_network_from_summary(path, 9)

    def test_non_summary_file_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            load_summary(path)


def _corrupt(doc, case):
    """One malformed variant of a good summary document, as text."""
    entry = doc["per_seed"][0]
    if case == "not-json":
        return "{not json"
    if case == "no-seeds":
        return json.dumps({"per_seed": []})
    if case == "empty-per-seed":
        return json.dumps({**doc, "per_seed": []})
    if case == "entry-without-weights":
        bad = {k: v for k, v in entry.items() if k != "weights"}
    elif case == "empty-weights":
        bad = {**entry, "weights": []}
    elif case == "fractional-index":  # int() would have read the term (1, 2)
        w = entry["weights"][0]
        multi = [{**w["multi"][0], "indices": [1.5, 2.9]}]
        bad = {**entry, "weights": [{**w, "multi": multi}]}
    elif case == "overflowing-weights":  # the potential sums past 1.8e308
        huge = [{**w, "linear": [1e308] * len(w["linear"])} for w in entry["weights"]]
        bad = {**entry, "weights": huge}
    else:  # "non-numeric-weight"
        weights = [{**entry["weights"][0], "linear": [1, "a"]}]
        bad = {**entry, "weights": weights}
    return json.dumps({**doc, "per_seed": [bad]})


class TestMalformedSummary:
    CASES = [
        "not-json",
        "no-seeds",
        "empty-per-seed",
        "entry-without-weights",
        "empty-weights",
        "non-numeric-weight",
        "fractional-index",
    ]

    @pytest.fixture(scope="class")
    def good_doc(self, tmp_path_factory):
        result = _run(ExperimentConfig(task="xor", seeds=(0,), max_epochs=50))
        path = emit_summary(result, tmp_path_factory.mktemp("good") / "summary.json")
        return json.loads(path.read_text())

    @pytest.mark.parametrize("case", CASES)
    def test_load_raises_config_error(self, tmp_path, good_doc, case):
        path = tmp_path / "summary.json"
        path.write_text(_corrupt(good_doc, case))
        with pytest.raises(ConfigError):
            load_network_from_summary(path)

    def test_gate_verify_rejects_weights_stored_as_numeric_strings(self, tmp_path, capsys):
        # float() would read each string, and the run would verify as passed
        result = _run(ExperimentConfig(task="xor", seeds=(0,)))
        path = emit_summary(result, tmp_path / "summary.json")
        assert cli(["gate-verify", "--summary", str(path)]) == 0
        assert capsys.readouterr().out.endswith("verdict=pass\n")
        doc = json.loads(path.read_text())
        for w in doc["per_seed"][0]["weights"]:
            w["linear"], w["bias"] = [str(v) for v in w["linear"]], str(w["bias"])
            w["multi"] = [{**t, "weight": str(t["weight"])} for t in w["multi"]]
        path.write_text(json.dumps(doc))
        assert cli(["gate-verify", "--summary", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: malformed seed entry: ")
        assert len(captured.err.splitlines()) == 1

    # read as a network, but no engine can evaluate it
    @pytest.mark.parametrize("case", [*CASES, "overflowing-weights"])
    def test_gate_verify_exits_one_with_one_line(
        self, tmp_path, capsys, good_doc, case
    ):
        path = tmp_path / "summary.json"
        path.write_text(_corrupt(good_doc, case))
        assert cli(["gate-verify", "--summary", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""


class TestCliTrain:
    def test_single_seed_run_writes_two_files(self, tmp_path):
        out = tmp_path / "run"
        code = cli(
            [
                "train",
                "--task",
                "xor",
                "--mode",
                "quantum",
                "--eta",
                "1.5",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "cost_seed7.csv").exists()
        assert (out / "summary.json").exists()

    def test_classical_run_fails_convergence_gate(self, tmp_path):
        code = cli(
            [
                "train",
                "--task",
                "xor",
                "--mode",
                "classical",
                "--require-convergence",
                "--max-epochs",
                "250",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert code == 2

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        args = [
            "train",
            "--task",
            "xor",
            "--seed",
            "7",
            "--max-epochs",
            "100",
        ]
        assert cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("cost_seed7.csv", "summary.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_seed_list_with_ranges(self, tmp_path):
        out = tmp_path / "run"
        code = cli(
            [
                "train",
                "--task",
                "xor",
                "--seeds",
                "0-2,5",
                "--max-epochs",
                "50",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = load_summary(out / "summary.json")
        assert doc["seeds"] == [0, 1, 2, 5]

    def test_task_suffix_selects_the_template(self, tmp_path):
        out = tmp_path / "run"
        code = cli(
            [
                "train",
                "--task",
                "toffoli:two-qubit",
                "--seed",
                "0",
                "--max-epochs",
                "50",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = load_summary(out / "summary.json")
        assert doc["template"] == "two-qubit"
        assert doc["per_seed"][0]["weights"][2]["multi"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--task", "majority"],
            ["train"],  # no task given
            ["train", "--task", "xor", "--seed", "1", "--seeds", "2"],
            ["train", "--task", "toffoli:paper", "--template", "extended"],
            ["train", "--task", "xor", "--seeds", "5-2"],
            ["train", "--task", "xor", "--eta", "-1"],
            # argparse's own errors, which it would follow with its usage block
            ["train", "--task", "xor", "--bogus-flag"],
            ["train", "--task", "xor", "--max-epochs", "ten"],
            ["adiabatic-check", "--x-min", "-1e2"],  # a flag to argparse: use --x-min=
            ["feasibility"],  # no task given
            ["bogus-command"],
            # 10^12 seed-epochs, over the budget
            ["sweep", "--task", "toffoli", "--seeds", "0-9999"]
            + ["--max-epochs", "100000000"],
        ],
    )
    def test_config_errors_exit_one(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(harness, "initialize_network", _must_not_run)
        assert cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--task", "toffoli:extended", "--mode", "classical"], "mode 'classical'"),
            (["--task", "xor:extended"], "task 'xor' has no 'extended' template"),
            (["--task", "xor", "--init-range", "1e308"], "init_range"),
            (["--task", "xor:bogus"], "unknown template suffix 'bogus'"),
        ],
    )
    def test_rejected_settings_exit_one_with_one_line(
        self, capsys, monkeypatch, flags, message
    ):
        monkeypatch.setattr(harness, "initialize_network", _must_not_run)
        assert cli(["train", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err

    def test_huge_epoch_budget_allocates_only_what_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        # one seed may spend the whole seed-epoch budget: the cost record is
        # allocated for it once, and only the 7 epochs that run touch it
        out = tmp_path / "run"
        args = ["train", "--task", "xor", "--max-epochs", str(MAX_SEED_EPOCHS)]
        assert cli(args + ["--out", str(out)]) == 0
        doc = load_summary(out / "summary.json")
        assert doc["per_seed"][0]["epochs_to_tolerance"] == 7
        assert len((out / "cost_seed0.csv").read_text().splitlines()) == 8
        capsys.readouterr()
        monkeypatch.setattr(harness, "initialize_network", _must_not_run)
        args = ["train", "--task", "xor", "--max-epochs", "100000000000"]
        assert cli(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: seeds x max_epochs = 1 x 100000000000 exceeds the budget "
            "of 50000000 seed-epochs\n"
        )

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0
        capsys.readouterr()

    def test_io_failure_exits_three(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = cli(
            [
                "train",
                "--task",
                "xor",
                "--seed",
                "0",
                "--max-epochs",
                "10",
                "--out",
                str(blocker / "sub"),
            ]
        )
        assert code == 3


class TestCliConfigFile:
    def test_file_values_apply_and_flags_override(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "task": "xor",
                    "eta": 0.5,
                    "seed": 3,
                    "max_epochs": 60,
                    "out_dir": str(tmp_path / "from_file"),
                }
            )
        )
        assert cli(["train", "--config", str(cfg)]) == 0
        doc = load_summary(tmp_path / "from_file" / "summary.json")
        assert doc["eta"] == 0.5
        assert doc["seeds"] == [3]

        out = tmp_path / "override"
        assert (
            cli(["train", "--config", str(cfg), "--eta", "1.5", "--out", str(out)])
            == 0
        )
        doc = load_summary(out / "summary.json")
        assert doc["eta"] == 1.5

    def test_unknown_keys_are_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"task": "xor", "learning_rate": 1.0}))
        assert cli(["train", "--config", str(cfg)]) == 1

    def test_conflicting_seed_keys_are_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"task": "xor", "seed": 1, "seeds": [1, 2]}))
        assert cli(["train", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "seeds",
        [
            {"seeds": [True, 2.7]},
            {"seed": True},
            {"seed": 2.0},
            {"eta": None},
            {"max_epochs": "abc"},
            {"max_epochs": 2.7},
            {"max_epochs": True},
            {"plateau_window": float("inf")},  # what JSON's 1e400 reads as
            {"require_convergence": "false"},
            {"cost_tolerance": "0.5"},
            {"seed": -1},
            {"seeds": 5},
            {"seeds": list(range(10_001))},
            {"task": 5},
            {"seeds": [3, 0, 3]},
        ],
    )
    def test_non_integer_seeds_are_rejected(self, tmp_path, capsys, seeds):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"task": "xor", "max_epochs": 5, **seeds}))
        assert cli(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            b'{"task": "xor", "plateau_window": 1e400}',
            b"[" * 100_000 + b"]" * 100_000,
            b"\xff\xfe{",
            b'["xor"]',
            b'{"task": "xor", "eta": 1' + b"0" * 400 + b"}",
        ],
        ids=["1e400", "deep", "undecodable", "not-an-object", "int-past-float"],
    )
    def test_malformed_file_text_exits_one_before_training(
        self, tmp_path, capsys, monkeypatch, text
    ):
        monkeypatch.setattr(harness, "initialize_network", _must_not_run)
        cfg = tmp_path / "config.json"
        cfg.write_bytes(text)
        assert cli(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_null_out_dir_is_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"task": "xor", "max_epochs": 5, "out_dir": None}))
        assert cli(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_integer_eta_is_written_as_a_float(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"task": "xor", "eta": 1, "max_epochs": 5}))
        out = tmp_path / "run"
        assert cli(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert '"eta": 1.0,' in (out / "summary.json").read_text()

    def test_malformed_json_is_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert cli(["train", "--config", str(cfg)]) == 1


class TestCliDefaults:
    """A setting no flag or file gives is ExperimentConfig's own default."""

    @staticmethod
    def _built_config(monkeypatch, argv):
        built = []

        def capture(config):
            built.append(config)
            raise ConfigError("captured")

        monkeypatch.setattr(harness, "run_experiment", capture)
        assert cli(argv) == 1
        return built[0]

    def test_train_defaults_are_the_config_defaults(self, monkeypatch):
        config = self._built_config(monkeypatch, ["train", "--task", "xor"])
        assert config == ExperimentConfig(task="xor")

    def test_sweep_only_widens_the_seeds(self, monkeypatch):
        config = self._built_config(monkeypatch, ["sweep", "--task", "xor"])
        assert config == ExperimentConfig(task="xor", seeds=tuple(range(20)))

    def test_flags_set_the_fields_they_name(self, monkeypatch):
        argv = ["train", "--task", "xor", "--tol", "0.25", "--out", "elsewhere"]
        config = self._built_config(monkeypatch, argv)
        assert config == ExperimentConfig(
            task="xor", cost_tolerance=0.25, out_dir="elsewhere"
        )


class TestCliSeedList:
    @pytest.mark.parametrize(
        "seeds, message",
        [
            ("0-1000000000", "more than 10000 seeds"),
            ("0-99999999999999999999999", "more than 10000 seeds"),
            ("0-5000,5001-10001", "more than 10000 seeds"),
            ("5-3", "descending seed range '5-3'"),
            ("1,x", "bad seed entry 'x'"),
            ("1,,2", "empty entry in seed list '1,,2'"),
            ("1,1,0-2", "seeds must not repeat"),
        ],
    )
    def test_bad_lists_exit_one_before_training(
        self, capsys, monkeypatch, seeds, message
    ):
        monkeypatch.setattr(harness, "initialize_network", _must_not_run)
        assert cli(["train", "--task", "xor", "--seeds", seeds]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err

    def test_a_list_of_max_seeds_is_accepted(self):
        seeds = harness._parse_seed_list(f"1-{harness.MAX_SEEDS - 1},0")
        assert sorted(seeds) == list(range(harness.MAX_SEEDS))


class TestSeedEpochBudget:
    def test_every_legal_seed_list_runs_at_the_default_budget(self):
        assert harness.MAX_SEEDS * TrainerConfig.max_epochs <= MAX_SEED_EPOCHS
        config = ExperimentConfig(task="xor", seeds=tuple(range(harness.MAX_SEEDS)))
        assert config.max_epochs == TrainerConfig.max_epochs

    def test_the_edge_of_the_budget(self, tmp_path, capsys, monkeypatch):
        half = MAX_SEED_EPOCHS // 2
        assert ExperimentConfig(task="xor", seeds=(0, 1), max_epochs=half)
        monkeypatch.setattr(harness, "initialize_network", _must_not_run)
        cfg = tmp_path / "config.json"
        doc = {"task": "xor", "seeds": [0, 1], "max_epochs": half + 1}
        cfg.write_text(json.dumps(doc))
        assert cli(["train", "--config", str(cfg)]) == 1
        assert "seeds x max_epochs = 2 x 25000001 exceeds" in capsys.readouterr().err


class TestCliSweep:
    def test_sweep_defaults_to_twenty_seeds(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli(
            ["sweep", "--task", "xor", "--max-epochs", "40", "--out", str(out)]
        )
        assert code == 0
        doc = load_summary(out / "summary.json")
        assert doc["seeds"] == list(range(20))
        assert "median_epochs_to_tolerance=" in capsys.readouterr().out


class TestCliAdiabaticCheck:
    def test_reports_errors_and_drift(self, capsys):
        code = cli(
            [
                "adiabatic-check",
                "--points",
                "3",
                "--x-min",
                "-1",
                "--x-max",
                "1",
                "--t-f",
                "5",
                "--dt",
                "0.005",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max_error=" in out
        assert "max_norm_drift=" in out
        assert len([l for l in out.splitlines() if l.count(",") == 3]) == 4

    def test_smooth_ramp_beats_the_linear_default(self, capsys):
        grid = ["--points", "3", "--x-min", "-1", "--x-max", "1"]
        grid += ["--t-f", "5", "--dt", "0.005"]

        def max_error(extra):
            assert cli(["adiabatic-check", *grid, *extra]) == 0
            (line,) = [
                l for l in capsys.readouterr().out.splitlines()
                if l.startswith("max_error=")
            ]
            return float(line.split("=")[1])

        assert max_error(["--ramp", "smooth"]) < max_error([])
        assert max_error([]) == max_error(["--ramp", "linear"])

    def test_unknown_ramp_exits_one(self, capsys):
        assert cli(["adiabatic-check", "--ramp", "cosine"]) == 1
        capsys.readouterr()

    def test_bad_grid_exits_one(self):
        assert cli(["adiabatic-check", "--points", "0"]) == 1

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dt", "0"], "dt must be positive"),
            (["--dt", "-0.0"], "dt must be positive"),
            (["--x-min", "inf"], "finite"),
            (["--x-min=-1e308", "--x-max=1e308"], "finite"),
            (["--omega-factor", "5"], "slow-start bound"),
            (["--x-min=1e306", "--x-max=1e306", "--points", "1"], "|x| must"),
            (["--x-min=-1e307", "--x-max=1e307"], "|x| must"),
            (["--omega-factor", "1e300"], "|omega_start_factor| must"),
            (["--t-f", "1.7e308", "--dt", "1.7e304", "--points", "2"], "|t_f| must"),
            (["--omega-end", "1e-310"], "omega_end = 1e-310 must lie in"),
        ],
    )
    def test_bad_flags_exit_one_with_one_line(self, capsys, flags, message):
        assert cli(["adiabatic-check", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err

    @staticmethod
    def _exits_one_before_building_the_grid(monkeypatch, capsys, flags, message):
        def never(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(harness.np, "linspace", never)
        monkeypatch.setattr(harness, "adiabatic_profile", never)
        assert cli(["adiabatic-check", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "grid",
        [
            ["--t-f", "1", "--dt", "1e-9"],
            ["--points", "1000000000"],
            ["--t-f=-inf"],  # -inf steps
        ],
    )
    def test_step_budget_exits_one_before_building_the_grid(
        self, monkeypatch, capsys, grid
    ):
        self._exits_one_before_building_the_grid(monkeypatch, capsys, grid, "budget")

    def test_dt_rule_exits_one_before_building_the_grid(self, monkeypatch, capsys):
        # t_f / dt rounds up to one step, so 1e8 points fit the step budget
        flags = ["--points", "100000000", "--t-f", "1", "--dt", "2"]
        message = "dt must satisfy 0 < dt <= t_f / 1000"
        self._exits_one_before_building_the_grid(monkeypatch, capsys, flags, message)


class TestCliFeasibility:
    def test_fredkin_published_template_verdicts(self, capsys):
        code = cli(["feasibility", "--task", "fredkin:paper"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[msb] output 3: infeasible" in out
        assert "[lsb] output 3: infeasible" in out
        assert "[msb] output 1: feasible" in out
        assert len(out.strip().splitlines()) == 6

    def test_prime_search_differs_by_bit_order(self, capsys):
        assert cli(["feasibility", "--task", "prime3"]) == 0
        out = capsys.readouterr().out
        assert "[msb] output 1: infeasible" in out
        assert "[lsb] output 1: feasible" in out

    def test_suffix_conflict_exits_one(self):
        assert (
            cli(["feasibility", "--task", "toffoli:paper", "--template", "extended"])
            == 1
        )

    def test_every_task_and_template_prints_the_recorded_lines(self, capsys):
        # recorded before the oracle decided XOR faces without its LP; a
        # header per call gives the exit code, then stdout and stderr
        golden = Path(__file__).parent / "golden" / "feasibility.txt"
        blocks = []
        for task_id, template in itertools.product(TASK_IDS, TEMPLATES):
            code = cli(["feasibility", "--task", task_id, "--template", template])
            captured = capsys.readouterr()
            blocks.append(f"# {task_id} {template} exit={code}\n")
            blocks.append(captured.out + captured.err)
        assert "".join(blocks) == golden.read_text()


# Six train/sweep runs over flags, config files (alone and under a flag)
# and both modes, each followed by gate-verify on its summary.json
_CLI_CONFIGS = {
    "toffoli.json": {"task": "toffoli:extended", "eta": 1},
    "prime3.json": {"task": "prime3", "mode": "classical", "seed": 5},
}
_CLI_RUNS = (
    ["train", "--task", "xor", "--seed", "7"],
    ["sweep", "--task", "toffoli:paper", "--max-epochs", "500"],
    ["train", "--config", "toffoli.json"],
    ["train", "--config", "prime3.json", "--tol", "0.2"],
    ["sweep", "--task", "prime5", "--template", "extended", "--seeds", "0-4,9",
     "--eta", "2"],
    ["train", "--task", "cnot:two-qubit", "--seeds", "3", "--init-range", "0.25",
     "--plateau-epsilon", "0.001"],
)


def _cli_call(argv):
    """(exit code, stdout) of one in-process cli call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(argv)
    return code, out.getvalue()


def _cli_runs_text():
    """Each of _CLI_RUNS, run in the working directory into run<n>, as text: a
    header with its argv and exit code, its stdout bar the elapsed_seconds
    line, the sha256 of each file written, then gate-verify on its summary."""
    for name, doc in _CLI_CONFIGS.items():
        Path(name).write_text(json.dumps(doc))
    blocks = []
    for n, argv in enumerate(_CLI_RUNS, 1):
        argv = [*argv, "--out", f"run{n}"]
        code, out = _cli_call(argv)
        lines = out.splitlines(keepends=True)
        blocks.append(f"# {' '.join(argv)} exit={code}\n")
        blocks += [line for line in lines if not line.startswith("elapsed_seconds=")]
        for path in sorted(Path(f"run{n}").iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            blocks.append(f"sha256 {digest} {path.as_posix()}\n")
        verify = ["gate-verify", "--summary", f"run{n}/summary.json"]
        code, out = _cli_call(verify)
        blocks.append(f"# {' '.join(verify)} exit={code}\n{out}")
    return "".join(blocks)


class TestCliRuns:
    def test_six_runs_print_and_write_the_recorded_bytes(self, tmp_path, monkeypatch):
        golden = (Path(__file__).parent / "golden" / "cli_runs.txt").read_text()
        monkeypatch.chdir(tmp_path)
        assert _cli_runs_text() == golden

    def test_six_runs_read_the_same_under_a_reduced_dispatch(self, tmp_path, monkeypatch):
        # numpy picks its AVX-512 or AVX2 kernels at import; the training path
        # must give the same bits under either
        from numpy._core._multiarray_umath import __cpu_features__

        names = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
        disabled = [name for name in names if __cpu_features__.get(name)]
        if not disabled:
            pytest.skip(f"none of {', '.join(names)} is enabled in this process")
        src = str(Path(qperceptron.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        (tmp_path / "reduced").mkdir()
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; sys.path[:0] = [{src!r}, {tests!r}]; "
                "from test_harness import _cli_runs_text; "
                "sys.stdout.write(_cli_runs_text())",
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path / "reduced",
            env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        (tmp_path / "full").mkdir()
        monkeypatch.chdir(tmp_path / "full")
        assert proc.stdout == _cli_runs_text()


class TestCliGateVerify:
    def test_trained_network_passes_both_engines(self, tmp_path, capsys):
        result = _run(ExperimentConfig(task="cnot", seeds=(0,), max_epochs=600))
        path = emit_summary(result, tmp_path / "summary.json")
        code = cli(["gate-verify", "--summary", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "scalar: 4/4" in out
        assert "statevector: 4/4" in out
        assert "verdict=pass" in out

    def test_both_engines_print_the_same_tie_rows(self, tmp_path, capsys):
        # toffoli:paper cannot learn its target: after 500 epochs seed 10's
        # third potential is within ~1e-16 of 0 on four rows, which the two
        # engines once rounded to different mismatches
        config = ExperimentConfig(task="toffoli", seeds=(10,), max_epochs=500)
        path = emit_summary(_run(config), tmp_path / "summary.json")
        assert cli(["gate-verify", "--summary", str(path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        ties = [
            f"  tie at input {bits}: output 3 within 1e-12 of 0.5, expected {target}"
            for bits, target in [
                ((0, 0, 0), (0, 0, 0)),
                ((0, 0, 1), (0, 0, 1)),
                ((1, 1, 0), (1, 1, 1)),
                ((1, 1, 1), (1, 1, 0)),
            ]
        ]
        report = "4/8 rows correct, max |y - t| = 0.5"
        assert lines == [
            f"scalar: {report}", *ties, f"statevector: {report}", *ties, "verdict=fail"
        ]

    def test_missing_summary_exits_three(self, tmp_path):
        assert (
            cli(["gate-verify", "--summary", str(tmp_path / "missing.json")]) == 3
        )

    @staticmethod
    def _cnot_summary(tmp_path, **fields):
        """A classical CNOT summary: output 1 is b1 (2 b1 + b2 - 1.5 > 0),
        output 2 reads b1 as well, so it misses the XOR rows 01 and 11."""
        doc = {
            "task": "cnot",
            "mode": "classical",
            "bit_order": "msb",
            "template": "paper",
            "per_seed": [
                {
                    "seed": 0,
                    "epochs_to_tolerance": None,
                    "weights": [
                        {"linear": [2.0, 1.0], "multi": [], "bias": 1.5},
                        {"linear": [1.0, 0.0], "multi": [], "bias": 0.5},
                    ],
                }
            ],
        }
        doc.update(fields)
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(doc))
        return path

    def test_classical_weights_are_read_as_bit_weights(self, tmp_path, capsys):
        path = self._cnot_summary(tmp_path)
        # two rows wrong: the check fails, in the non-convergence exit slot
        assert cli(["gate-verify", "--summary", str(path)]) == 2
        out = capsys.readouterr().out
        assert "scalar: 2/4 rows correct" in out
        assert "statevector: 2/4 rows correct" in out
        # read as spin weights, output 1 would also miss input (1, 0)
        assert "mismatch at input (1, 0)" not in out
        assert out.count("mismatch at input (0, 1)") == 2
        assert out.count("mismatch at input (1, 1)") == 2
        # a whole line, which a numpy scalar's repr (np.int64(0)) would break
        line = "  mismatch at input (0, 1): predicted (0, 0), expected (0, 1)\n"
        assert out.count(line) == 2
        assert "verdict=fail" in out

    @pytest.mark.parametrize(
        "fields",
        [
            {"template": "bogus"},
            {"template": 5},
            {"template": None},
            {"mode": "weird"},
            {"bit_order": "middle"},
        ],
    )
    def test_unknown_summary_settings_exit_one(self, tmp_path, capsys, fields):
        path = self._cnot_summary(tmp_path, **fields)
        assert cli(["gate-verify", "--summary", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_overflowing_bit_weights_exit_one_with_one_line(self, tmp_path, capsys):
        # their spin bias is a sum past the largest float
        path = self._cnot_summary(tmp_path)
        doc = json.loads(path.read_text())
        doc["per_seed"][0]["weights"][0]["linear"] = [1e308, 1e308]
        path.write_text(json.dumps(doc))
        assert cli(["gate-verify", "--summary", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: spin bias overflows: linear weights too large\n"
        assert captured.out == ""

    def test_summary_is_opened_once(self, tmp_path, capsys, monkeypatch):
        path = self._cnot_summary(tmp_path)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(harness, "open", counting_open, raising=False)
        assert cli(["gate-verify", "--summary", str(path)]) == 2
        assert opened == [path]


@pytest.fixture(
    scope="module",
    params=[("toffoli", "extended", "quantum"), ("xor", "paper", "classical")],
    ids=lambda p: f"{p[0]}-{p[2]}",
)
def trained_summary(request, tmp_path_factory):
    """A short run's summary document and a path to write variants of it to."""
    task, template, mode = request.param
    config = ExperimentConfig(task=task, template=template, mode=mode, max_epochs=20)
    path = emit_summary(_run(config), tmp_path_factory.mktemp("run") / "summary.json")
    return json.loads(path.read_text()), path


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_gate_verify_exits_cleanly_on_any_finite_weights(trained_summary, data):
    doc, path = trained_summary
    entry = doc["per_seed"][0]
    weights = [
        {
            "linear": [data.draw(FINITE) for _ in w["linear"]],
            "multi": [{**t, "weight": data.draw(FINITE)} for t in w["multi"]],
            "bias": data.draw(FINITE),
        }
        for w in entry["weights"]
    ]
    path.write_text(json.dumps({**doc, "per_seed": [{**entry, "weights": weights}]}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli(["gate-verify", "--summary", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["train", "--seed", "0"], 1),
        (["sweep", "--seeds", "0-2"], 1),
        (["gate-verify"], 1),
        (["feasibility"], 3),  # the config's own, then one per bit order
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_a_command_builds_each_task_spec_once(
    tmp_path, monkeypatch, capsys, argv, builds
):
    summary = tmp_path / "summary.json"
    run = ["--task", "xor", "--max-epochs", "50", "--out", str(tmp_path)]
    if argv[0] == "gate-verify":
        assert cli(["train", *run]) == 0
        argv = [*argv, "--summary", str(summary)]
    elif argv[0] == "feasibility":
        argv = [*argv, "--task", "prime5"]
    else:
        argv = [*argv, *run]
    calls = []

    def counting_resolve_task(*args, **kwargs):
        calls.append(args)
        return resolve_task(*args, **kwargs)

    monkeypatch.setattr(harness, "resolve_task", counting_resolve_task)
    assert cli(argv) == 0
    assert len(calls) == builds
    capsys.readouterr()


# Flag values for the CLI property: junk text, and numbers of every size.
# The budget flags (--max-epochs, --seeds, --points, --t-f, --dt) draw only
# small or invalid values, so no case trains or propagates for long.
JUNK = ["", "nan", "inf", "-inf", "-1", "0", "abc", "1e400", "9" * 30, "1.5", " 3"]
REALS = st.one_of(
    st.floats().map(repr), st.integers().map(str), st.sampled_from(JUNK)
)
INTS = st.one_of(st.integers().map(str), st.sampled_from(JUNK))


def _small_or_invalid(*valid: str):
    invalid = [*JUNK, "-3", "12345678901234567890", "1,1", "5-3", "0-99999"]
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


TASKS = st.sampled_from(
    ["xor", "cnot", "toffoli", "toffoli:extended", "fredkin:paper", "prime-3"]
    + ["prime5:extended", "prime3:two-qubit", "majority", "xor:bogus"]
)
RUN_FLAGS = {
    "--mode": st.sampled_from(["quantum", "classical", "hybrid"]),
    "--eta": REALS,
    "--seed": INTS,
    "--tol": REALS,
    "--init-range": REALS,
    "--plateau-window": INTS,
    "--plateau-epsilon": REALS,
    "--bit-order": st.sampled_from(["msb", "lsb", "big"]),
    "--template": st.sampled_from([*TEMPLATES, "full"]),
    "--config": st.sampled_from(["config.json", "missing.json", ""]),
}
COMMANDS = {
    "train": (
        {
            "--task": TASKS,
            "--max-epochs": _small_or_invalid("1", "5", "30"),
            "--out": st.just("out"),
        },
        RUN_FLAGS,
    ),
    "sweep": (
        {
            "--task": TASKS,
            "--max-epochs": _small_or_invalid("1", "5", "30"),
            "--seeds": _small_or_invalid("0", "0-2", "3,1"),
            "--out": st.sampled_from(["out", "", "blocker/out"]),
        },
        RUN_FLAGS,
    ),
    "adiabatic-check": (
        {
            "--points": _small_or_invalid("1", "3", "5"),
            "--t-f": _small_or_invalid("1", "2"),
            "--dt": _small_or_invalid("0.001", "0.002", "1e-12"),
        },
        {
            "--x-min": REALS,
            "--x-max": REALS,
            "--omega-factor": REALS,
            "--omega-end": REALS,
            "--ramp": st.sampled_from(["linear", "smooth", "cubic"]),
        },
    ),
    "gate-verify": (
        {"--summary": st.sampled_from(["good.json", "config.json", "missing.json", ""])},
        {"--seed": INTS},
    ),
    "feasibility": (
        {},
        {"--task": TASKS, "--template": st.sampled_from([*TEMPLATES, "full"])},
    ),
}
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
CONFIG_VALUES = {
    **dict.fromkeys(
        ["eta", "cost_tolerance", "init_range", "plateau_epsilon"],
        st.one_of(JSON_LEAVES, st.sampled_from([10**400, -(10**309)])),
    ),
    "task": TASKS,
    "max_epochs": st.sampled_from([1, 30, 0, -5, 2.7, "5", None, 10**30]),
    "seeds": st.sampled_from([[0], [0, 1], [1, 1], [], [-1], "0-2", [0.5], None]),
    "seed": st.sampled_from([0, 3, -1, 1.5, "0", None, True]),
}


@pytest.fixture(scope="module")
def good_summary_text(tmp_path_factory):
    config = ExperimentConfig(task="cnot", max_epochs=20)
    path = tmp_path_factory.mktemp("good") / "summary.json"
    return emit_summary(_run(config), path).read_text()


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_any_command_line_exits_cleanly(good_summary_text, tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    required, optional = COMMANDS[command]
    names = data.draw(
        st.lists(st.sampled_from(sorted(optional)), max_size=5, unique=True)
    )
    tmp = tmp_path_factory.mktemp("cli")
    paths = ("--out", "--config", "--summary")  # files live under tmp
    argv = [command]
    for name in [*required, *names]:
        value = data.draw({**required, **optional}[name], label=name)
        argv.append(f"{name}={tmp / value if name in paths else value}")
    if command in ("train", "sweep") and data.draw(st.booleans()):
        argv.append("--require-convergence")
    config = data.draw(
        st.one_of(
            st.fixed_dictionaries(
                {},
                optional={
                    key: CONFIG_VALUES.get(key, JSON_VALUES)
                    for key in sorted(harness._SETTINGS | {"seed", "bogus"})
                },
            ),
            JSON_VALUES,
        ),
        label="config.json",
    )
    (tmp / "config.json").write_text(json.dumps(config))
    (tmp / "good.json").write_text(good_summary_text)
    (tmp / "blocker").write_text("not a directory")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code != 0:
        assert len(err.getvalue().splitlines()) <= 1


class TestModuleEntryPoint:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize takes ~0.45 s to import; importing the package must
        # not pay for it
        src = str(Path(qperceptron.__file__).resolve().parents[1])
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; sys.path.insert(0, {src!r}); import qperceptron; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('scipy.optimize')))",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_the_oracle_runs_without_scipy(self):
        # the LP oracle is a numpy simplex; scipy is only a test dependency
        src = str(Path(qperceptron.__file__).resolve().parents[1])
        argv = ["feasibility", "--task", "toffoli", "--template", "extended"]
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; sys.path.insert(0, {src!r}); "
                "from qperceptron.harness import cli; "
                f"code = cli({argv!r}); "
                "print(code, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-1] == "0 []"
        assert sum(": feasible (margin=1)" in line for line in lines) == 6

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["feasibility", "--task", "xor"], 0),
            (["adiabatic-check", "--omega-end", "1e-310"], 1),
        ],
    )
    def test_the_entry_point_exits_with_the_cli_code(self, argv, code):
        # python -m qperceptron runs __main__ and main(), which exits with
        # cli()'s code; a warning would fail the run
        src = str(Path(qperceptron.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qperceptron", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == "" and "[msb] output 1" in proc.stdout
        else:
            assert proc.stderr.startswith("error: ")
            assert len(proc.stderr.splitlines()) == 1

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qperceptron", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "train" in proc.stdout
