"""Experiment runner, artifact emission, and the command line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qperceptron
from qperceptron import harness
from qperceptron import (
    TASK_IDS,
    TEMPLATES,
    ConfigError,
    ExperimentConfig,
    cli,
    cost,
    emit_cost_curve_csv,
    emit_summary,
    load_network_from_summary,
    load_summary,
    resolve_task,
    run_experiment,
)


def _run(config: ExperimentConfig):
    return run_experiment(config)


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
            assert result.task.name == task
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
        assert result.encoding == "bit"
        assert result.task.templates == ((),)
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

    def test_rerun_is_byte_identical(self, tmp_path):
        config = ExperimentConfig(task="xor", seeds=(7,), max_epochs=100)
        (a,) = emit_cost_curve_csv(_run(config), tmp_path / "a")
        (b,) = emit_cost_curve_csv(_run(config), tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()


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

    @pytest.mark.parametrize("case", CASES)
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

    def test_config_errors_exit_one(self, tmp_path):
        assert cli(["train", "--task", "majority"]) == 1
        assert cli(["train"]) == 1  # no task given
        assert cli(["train", "--task", "xor", "--bogus-flag"]) == 1
        assert cli(["train", "--task", "xor", "--seed", "1", "--seeds", "2"]) == 1
        assert (
            cli(["train", "--task", "toffoli:paper", "--template", "extended"]) == 1
        )
        assert cli(["train", "--task", "xor", "--seeds", "5-2"]) == 1
        assert cli(["train", "--task", "xor", "--eta", "-1"]) == 1

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

    def test_huge_epoch_budget_allocates_only_what_runs(self, tmp_path):
        out = tmp_path / "run"
        args = ["train", "--task", "xor", "--max-epochs", "100000000000"]
        assert cli(args + ["--out", str(out)]) == 0
        doc = load_summary(out / "summary.json")
        assert doc["per_seed"][0]["epochs_to_tolerance"] == 7
        assert len((out / "cost_seed0.csv").read_text().splitlines()) == 8

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
        ],
        ids=["1e400", "deep", "undecodable", "not-an-object"],
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

    @pytest.mark.parametrize(
        "grid", [["--t-f", "1", "--dt", "1e-9"], ["--points", "1000000000"]]
    )
    def test_step_budget_exits_one_before_building_the_grid(
        self, monkeypatch, capsys, grid
    ):
        def never(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(harness.np, "linspace", never)
        monkeypatch.setattr(harness, "adiabatic_profile", never)
        assert cli(["adiabatic-check", *grid]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err
        assert len(err.splitlines()) == 1


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
