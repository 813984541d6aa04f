"""Seeded inputs, output checks and reference fingerprints of the workloads.

A workload is a fixed list of operations built from the workload seed.  One
round runs every operation once, in order; a run repeats rounds.  Each
operation has a timed ``call`` into the public API of ``qperceptron`` and an
untimed ``check`` of what it returned.  The check raises ``CheckFailed`` when
an output is wrong and otherwise returns an ``Outcome``: the work done, the
totals the traced run reports per layer, and a fingerprint that the default
seed compares against ``reference.json``.

The benchmark calls the package through its submodules (``harness.run_...``,
``tasks.check_...``) so that the traced run can wrap those attributes.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qperceptron import core, dynamics, harness, tasks, training

DEFAULT_SEED = 0
ENGINE_TOLERANCE = 1e-9
DRIFT_TOLERANCE = 1e-9
REFERENCE_TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


@dataclass
class Outcome:
    work: float
    fingerprint: Any
    tally: dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    name: str
    inputs: Any  # what the generator made for this operation
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- sweep -------------------------------------------------------------------

SWEEP_SEEDS_PER_EXPERIMENT = 20
SWEEP_EPOCHS = 2000

# (task, template, cost tolerance, oracle verdict per output).  Templates
# whose every output is feasible must reach the tolerance on every seed; the
# rest must run the whole SWEEP_EPOCHS budget, which is long enough for
# detect_plateau to find their plateau.  A full-budget experiment takes 4 to
# 6 s, so a round holds one, on the published toffoli:paper template;
# fredkin:paper and the two-qubit templates run the same code at the same
# cost per seed-epoch and would only make rounds longer and fewer.
SWEEP_MIX = (
    ("prime4", "paper", 0.01, (True,)),
    ("toffoli", "extended", 0.005, (True, True, True)),
    ("fredkin", "extended", 0.005, (True, True, True)),
    ("toffoli", "paper", 0.01, (True, True, False)),
)


def sweep_ops(seed: int, scratch: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for task, template, tol, verdicts in SWEEP_MIX:
        seeds = tuple(
            int(s)
            for s in rng.choice(1_000_000, SWEEP_SEEDS_PER_EXPERIMENT, replace=False)
        )
        config = harness.ExperimentConfig(
            task=task,
            template=template,
            seeds=seeds,
            max_epochs=SWEEP_EPOCHS,
            cost_tolerance=tol,
            out_dir=str(scratch / f"{task}-{template}"),
        )
        ops.append(_sweep_op(config, verdicts))
    return ops


def _sweep_op(config: harness.ExperimentConfig, verdicts: tuple[bool, ...]) -> Op:
    out = Path(config.out_dir)

    def call():
        result = harness.run_experiment(config)
        csv_paths = harness.emit_cost_curve_csv(result, out)
        summary_path = harness.emit_summary(result, out / "summary.json")
        return result, csv_paths, summary_path

    def check(returned) -> Outcome:
        result, csv_paths, summary_path = returned
        try:
            return _check_sweep(config, verdicts, result, csv_paths, summary_path)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Op(f"{config.task}:{config.template}", config, call, check)


def _check_sweep(config, verdicts, result, csv_paths, summary_path) -> Outcome:
    name = f"{config.task}:{config.template}"
    got = tuple(v.feasible for v in result.oracle)
    _require(got == verdicts, f"{name}: oracle verdicts {got}, expected {verdicts}")
    converges = all(verdicts)
    _require(
        tuple(o.seed for o in result.outcomes) == config.seeds,
        f"{name}: outcomes not in seed order",
    )
    _require(len(csv_paths) == len(config.seeds), f"{name}: {len(csv_paths)} CSV files")
    emit_bytes = summary_path.stat().st_size
    per_seed = []
    for outcome, path in zip(result.outcomes, csv_paths):
        costs = outcome.curve.costs
        ran = len(costs)
        if converges:
            _require(
                outcome.epochs_to_tolerance == ran and costs[-1] < config.cost_tolerance,
                f"{name} seed {outcome.seed}: did not reach {config.cost_tolerance}",
            )
        else:
            _require(
                ran == config.max_epochs and outcome.epochs_to_tolerance is None,
                f"{name} seed {outcome.seed}: ran {ran} of {config.max_epochs} epochs",
            )
        emit_bytes += path.stat().st_size
        _check_csv(path, costs, f"{name} seed {outcome.seed}")
        per_seed.append([
            ran, outcome.epochs_to_tolerance, float(costs[-1]), float(np.mean(costs)),
            outcome.plateau,
        ])
    with open(summary_path) as fh:
        summary = json.load(fh)
    _require(
        summary["oracle_verdict"]
        == ["feasible" if v else "infeasible" for v in verdicts]
        and [s["epochs_to_tolerance"] for s in summary["per_seed"]]
        == [o.epochs_to_tolerance for o in result.outcomes],
        f"{name}: summary.json disagrees with the result",
    )
    epochs = sum(p[0] for p in per_seed)
    return Outcome(
        work=epochs,
        fingerprint={"verdicts": list(verdicts), "per_seed": per_seed},
        tally={
            "epochs": epochs,
            "emit_bytes": emit_bytes,
            "oracle_outputs": len(verdicts),
            "oracle_feasible": sum(verdicts),
        },
    )


def _check_csv(path: Path, costs: np.ndarray, label: str) -> None:
    """The CSV must read back equal to the curve at 12 significant digits."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["epoch", "cost"], f"{label}: bad CSV header {rows[0]}")
    _require(len(rows) == len(costs) + 1, f"{label}: {len(rows) - 1} CSV rows")
    epochs = np.array([int(r[0]) for r in rows[1:]])
    values = np.array([float(r[1]) for r in rows[1:]])
    _require(
        np.array_equal(epochs, np.arange(1, len(costs) + 1)), f"{label}: bad epoch column"
    )
    _require(
        bool(np.all(np.abs(values - costs) <= 1e-11 * np.abs(costs))),
        f"{label}: CSV costs differ from the curve beyond 12 significant digits",
    )


# --- audit -------------------------------------------------------------------

# Tables per round: (kind, arity, outputs, count).  "uniform" tables have
# random labels and random pair templates and only go through the oracle;
# "planted" tables take their labels from the sign of a random template
# potential.  Planted tables up to MAX_ORACLE_ARITY go through the oracle and
# their witnesses through both verification engines; larger ones verify the
# planting potential.  The counts put the median table in the middle of the
# uniform k=5 ones (oracle bound) and the 90th percentile in the middle of
# the planted k=5 ones (statevector bound), away from any class boundary.
AUDIT_MIX = (
    ("uniform", 3, 3, 10),
    ("uniform", 4, 3, 10),
    ("uniform", 5, 3, 20),
    ("planted", 3, 3, 4),
    ("planted", 4, 3, 4),
    ("planted", 5, 3, 6),
    ("planted", 6, 2, 2),
    ("planted", 7, 2, 1),
)
PAIRS_PER_OUTPUT = 2


def _random_templates(rng, k: int, outputs: int) -> tuple:
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    return tuple(
        tuple(sorted(pairs[i] for i in rng.choice(len(pairs), PAIRS_PER_OUTPUT, replace=False)))
        for _ in range(outputs)
    )


def _features(k: int, template: tuple) -> np.ndarray:
    """Rows of (spins, pair products, -1) in truth-table order, from numpy alone."""
    n = np.arange(2**k)
    spins = 2.0 * ((n[:, None] >> np.arange(k - 1, -1, -1)) & 1) - 1.0
    cols = [spins] + [np.prod(spins[:, [i - 1 for i in t]], axis=1, keepdims=True) for t in template]
    return np.hstack(cols + [-np.ones((2**k, 1))])


def _planted_potential(rng, k: int, template: tuple) -> core.NeuralPotential:
    """Integer weights and a half-integer bias: every |potential| >= 1/2."""
    return core.NeuralPotential(
        linear_weights=tuple(float(v) for v in rng.integers(-3, 4, k)),
        bias=float(rng.integers(-2, 3)) + 0.5,
        multi_terms=tuple(
            core.MultiQubitTerm(t, float(rng.integers(-3, 4))) for t in template
        ),
    )


def _theta(p: core.NeuralPotential) -> np.ndarray:
    return np.array(
        list(p.linear_weights) + [t.weight for t in p.multi_terms] + [p.bias]
    )


def _task(name: str, k: int, templates: tuple, labels: np.ndarray) -> tasks.TaskSpec:
    examples = tuple(
        training.TrainingExample(s, tuple(int(v) for v in row))
        for s, row in zip(core.enumerate_inputs(k), labels)
    )
    return tasks.TaskSpec(name=name, arity=k, templates=templates, examples=examples)


def audit_ops(seed: int, scratch: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for kind, k, outputs, count in AUDIT_MIX:
        for i in range(count):
            templates = _random_templates(rng, k, outputs)
            name = f"{kind}-k{k}-{i}"
            if kind == "uniform":
                labels = rng.integers(0, 2, (2**k, outputs))
                ops.append(_oracle_op(_task(name, k, templates, labels), labels))
                continue
            potentials = tuple(_planted_potential(rng, k, t) for t in templates)
            labels = np.column_stack(
                [_features(k, t) @ _theta(p) > 0 for t, p in zip(templates, potentials)]
            ).astype(int)
            task = _task(name, k, templates, labels)
            if k <= tasks.MAX_ORACLE_ARITY:
                ops.append(_planted_op(task))
            else:
                ops.append(_verify_op(task, training.TrainedNetwork(potentials, k)))
    return ops


def _verdicts(task: tasks.TaskSpec) -> list:
    return [tasks.check_exact_representability(task, j) for j in range(task.n_outputs)]


def _verify_both(net, task: tasks.TaskSpec) -> tuple:
    return (
        tasks.verify_truth_table(net, task, engine="scalar"),
        tasks.verify_truth_table(net, task, engine="statevector"),
    )


def _check_verdict(task: tasks.TaskSpec, j: int, verdict, labels: np.ndarray) -> None:
    """A feasible verdict's witness, scaled to unit margin, must sign every row right."""
    if not verdict.feasible:
        _require(verdict.witness is None, f"{task.name} output {j}: infeasible with a witness")
        return
    x = _features(task.arity, task.templates[j]) @ _theta(verdict.witness)
    margin = np.min((2 * labels[:, j] - 1) * x)
    _require(margin > 0.5, f"{task.name} output {j}: witness margin {margin}")


def _check_reports(task: tasks.TaskSpec, reports: tuple) -> dict[str, float]:
    scalar, statevector = reports
    for report in reports:
        _require(
            report.all_correct,
            f"{task.name}: {report.n_rows - report.n_correct} rows wrong, e.g. {report.mismatches[:1]}",
        )
    gap = abs(scalar.max_abs_error - statevector.max_abs_error)
    _require(gap <= ENGINE_TOLERANCE, f"{task.name}: engines differ by {gap:.3g}")
    rows = len(task.examples)
    return {"rows.scalar": rows, "rows.statevector": rows}


def _oracle_op(task: tasks.TaskSpec, labels: np.ndarray) -> Op:
    def check(verdicts) -> Outcome:
        for j, verdict in enumerate(verdicts):
            _check_verdict(task, j, verdict, labels)
        feasible = [v.feasible for v in verdicts]
        return Outcome(
            1, {"verdicts": feasible},
            {"oracle_outputs": len(feasible), "oracle_feasible": sum(feasible)},
        )

    return Op(task.name, task, lambda: _verdicts(task), check)


def _planted_op(task: tasks.TaskSpec) -> Op:
    labels = np.array([ex.target for ex in task.examples])

    def call():
        verdicts = _verdicts(task)
        if not all(v.feasible for v in verdicts):
            return verdicts, None
        net = training.TrainedNetwork(tuple(v.witness for v in verdicts), task.arity)
        return verdicts, _verify_both(net, task)

    def check(returned) -> Outcome:
        verdicts, reports = returned
        feasible = [v.feasible for v in verdicts]
        _require(all(feasible), f"{task.name}: planted table judged infeasible {feasible}")
        for j, verdict in enumerate(verdicts):
            _check_verdict(task, j, verdict, labels)
        tally = _check_reports(task, reports)
        tally.update(oracle_outputs=len(feasible), oracle_feasible=sum(feasible))
        return Outcome(1, {"verdicts": feasible}, tally)

    return Op(task.name, task, call, check)


def _verify_op(task: tasks.TaskSpec, net: training.TrainedNetwork) -> Op:
    def check(reports) -> Outcome:
        tally = _check_reports(task, reports)
        return Outcome(1, {"max_abs_error": reports[1].max_abs_error}, tally)

    return Op(task.name, (task, net), lambda: _verify_both(net, task), check)


# --- adiabatic ---------------------------------------------------------------

CRITERION9_GRID = tuple(float(x) for x in np.linspace(-3.0, 3.0, 7))
CRITERION9_T_F = (100.0, 200.0, 400.0)
DENSE_POINTS = 61
DENSE_T_F = 50.0
# Seven operations per round: the median is the t_f=100 profile, in the
# middle of its class rather than among the short, noisier evolve calls.
EVOLVE_CALLS = 3
DT = 1e-3
OMEGA_START_FACTOR = 50.0


def _steps(t_f: float) -> int:
    return max(1, int(round(t_f / DT)))


def adiabatic_ops(seed: int, scratch: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    spacing = 6.0 / (DENSE_POINTS - 1)
    dense = np.linspace(-3.0, 3.0, DENSE_POINTS) + rng.uniform(
        -0.45 * spacing, 0.45 * spacing, DENSE_POINTS
    )
    dense = tuple(float(x) for x in np.clip(dense, -3.0, 3.0))
    picks = sorted(int(i) for i in rng.choice(DENSE_POINTS, EVOLVE_CALLS, replace=False))
    # The dense profile's probabilities, for the scalar calls to agree with.
    shared: dict[str, tuple[float, ...]] = {}
    ops = [_profile_op(f"criterion9-t{int(t_f)}", CRITERION9_GRID, t_f, None) for t_f in CRITERION9_T_F]
    ops.append(_profile_op("dense", dense, DENSE_T_F, shared))
    ops.extend(_evolve_op(dense[i], i, shared) for i in picks)
    return ops


def _profile_op(name: str, xs: tuple, t_f: float, shared: dict | None) -> Op:
    def check(profile) -> Outcome:
        if shared is not None:
            shared.pop("dense", None)
        _require(
            profile.max_drift < DRIFT_TOLERANCE, f"{name}: norm drift {profile.max_drift:.3g}"
        )
        probs = np.array(profile.probabilities)
        _require(
            len(probs) == len(xs) and bool(np.all((probs >= 0) & (probs <= 1))),
            f"{name}: probabilities outside [0, 1]",
        )
        if shared is not None:
            shared["dense"] = profile.probabilities
        return Outcome(
            len(xs) * _steps(t_f),
            {"errors": list(profile.errors)},
            {"point_steps": len(xs) * _steps(t_f)},
        )

    return Op(name, (xs, t_f), lambda: dynamics.adiabatic_profile(xs, t_f=t_f, dt=DT), check)


def _evolve_op(x: float, index: int, shared: dict) -> Op:
    schedule = dynamics.AdiabaticSchedule(
        omega_start=OMEGA_START_FACTOR * max(1.0, abs(x)), t_f=DENSE_T_F, dt=DT
    )

    def check(p: float) -> Outcome:
        dense = shared.get("dense")
        _require(dense is not None, f"evolve x={x}: no dense profile to compare with")
        gap = abs(p - dense[index])
        _require(gap <= ENGINE_TOLERANCE, f"evolve x={x}: differs from its profile by {gap:.3g}")
        return Outcome(_steps(DENSE_T_F), {"probability": p}, {"point_steps": _steps(DENSE_T_F)})

    return Op(f"evolve-{index}", (x, schedule), lambda: dynamics.adiabatic_evolve(x, schedule), check)


# --- warm-up, registry, reference ------------------------------------------


def _warm_sweep(scratch: Path) -> None:
    config = harness.ExperimentConfig(task="xor", seeds=(0,), max_epochs=5)
    result = harness.run_experiment(config)
    harness.emit_cost_curve_csv(result, scratch / "warm-up")
    harness.emit_summary(result, scratch / "warm-up" / "summary.json")
    shutil.rmtree(scratch / "warm-up")


def _warm_audit(scratch: Path) -> None:
    task = tasks.resolve_task("cnot")
    net = training.TrainedNetwork(tuple(v.witness for v in _verdicts(task)), task.arity)
    _verify_both(net, task)


def _warm_adiabatic(scratch: Path) -> None:
    dynamics.adiabatic_profile([0.5], t_f=1.0, dt=DT)
    dynamics.adiabatic_evolve(0.5, dynamics.AdiabaticSchedule(omega_start=50.0, t_f=1.0, dt=DT))


WORKLOADS: dict[str, tuple[Callable[[int, Path], list[Op]], Callable[[Path], None]]] = {
    "sweep": (sweep_ops, _warm_sweep),
    "audit": (audit_ops, _warm_audit),
    "adiabatic": (adiabatic_ops, _warm_adiabatic),
}


def build(workload: str, seed: int, scratch: Path) -> list[Op]:
    """Generate the workload's inputs and make one warm-up call into each layer."""
    make_ops, warm_up = WORKLOADS[workload]
    ops = make_ops(seed, scratch)
    warm_up(scratch)
    return ops


def matches(got: Any, want: Any, tol: float = REFERENCE_TOLERANCE) -> bool:
    """Equal structure; ints, bools, strings and None exact, floats within tol."""
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, (int, float))
            and isinstance(want, (int, float))
            and not isinstance(got, bool)
            and not isinstance(want, bool)
            and math.isfinite(got)
            and abs(got - want) <= tol
        )
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            matches(got[k], want[k], tol) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            matches(g, w, tol) for g, w in zip(got, want)
        )
    return type(got) is type(want) and got == want
