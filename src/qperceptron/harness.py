"""Experiment runner and command line interface.

Runs seeded training sweeps over the benchmark tasks and emits two kinds of
artifact into an output directory: one cost-curve CSV per seed
(cost_seed<seed>.csv with header ``epoch,cost``) and a summary.json holding
per-seed outcomes, the median epoch count, and the representability oracle
verdict for the trained template.  Identical configuration produces
byte-identical files.

Config precedence is flags > JSON config file > defaults.  The config file
uses the field names of ExperimentConfig verbatim, plus seed for a single
seed; ExperimentConfig checks every value's type and range.
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, NoReturn, Sequence

import numpy as np

from .core import (
    InvalidInputError,
    MultiQubitTerm,
    NeuralPotential,
    _instance,
    reparameterize_bits_to_spins,
)
from .dynamics import _RAMPS, OMEGA_START_FACTOR, AdiabaticSchedule, _ramp_steps
from .dynamics import _profile_schedule, adiabatic_profile
from .tasks import (
    OUTPUT_THRESHOLD,
    TEMPLATES,
    TIE_BAND,
    FeasibilityVerdict,
    TaskSpec,
    check_exact_representability,
    resolve_task,
    verify_truth_table,
)
from .training import (
    CostCurve,
    TrainedNetwork,
    TrainerConfig,
    _check_seed_epochs,
    detect_plateau,
    initialize_network,
    train,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SeedOutcome",
    "ExperimentResult",
    "run_experiment",
    "emit_cost_curve_csv",
    "emit_summary",
    "load_summary",
    "cli",
    "main",
]


class ConfigError(ValueError):
    """Unresolvable or inconsistent experiment configuration."""


_CHOICES = {
    "template": TEMPLATES,
    "bit_order": ("msb", "lsb"),
    "mode": ("quantum", "classical"),
}

# at most this many seeds in one experiment (see training.MAX_SEED_EPOCHS)
MAX_SEEDS = 10_000

# cost CSV rows formatted per block (emit_cost_curve_csv)
CSV_BLOCK_ROWS = 8192

# annotation -> (accepted type, stored type)
_TYPES: dict[str, tuple[Any, type]] = {
    "str": (str, str),
    "bool": (bool, bool),
    "int": (numbers.Integral, int),
    "float": (numbers.Real, float),
}


def _typed(name: str, value: Any, annotation: str) -> Any:
    """value stored as its annotated type, and one of its _CHOICES if any.

    A bool passes only as a bool, not as an int or a real.
    """
    accepted, stored = _TYPES[annotation]
    if not isinstance(value, accepted) or isinstance(value, bool) != (stored is bool):
        raise ConfigError(f"{name} must be of type {annotation}, got {value!r}")
    if name in _CHOICES and value not in _CHOICES[name]:
        raise ConfigError(f"{name} must be one of {_CHOICES[name]}, got {value!r}")
    try:
        return stored(value)
    except OverflowError:  # an int past the largest float, from a JSON file
        raise ConfigError(f"{name} is an integer too large for a float") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for one training experiment.

    The one place a setting is named, defaulted, typed and checked: the CLI
    passes flag and config-file values straight in.  Each field's value must
    have its annotated type, and reals are stored as float.  The defaults
    and range rules shared with TrainerConfig are TrainerConfig's own.  Task,
    template and mode are checked together by building spec, the TaskSpec
    that run_experiment trains, and task is stored as its canonical id.
    """

    task: str
    mode: str = "quantum"
    eta: float = TrainerConfig.eta
    seeds: tuple[int, ...] = (0,)
    max_epochs: int = TrainerConfig.max_epochs
    cost_tolerance: float = TrainerConfig.cost_tolerance
    init_range: float = TrainerConfig.init_range
    plateau_window: int = TrainerConfig.plateau_window
    plateau_epsilon: float = TrainerConfig.plateau_epsilon
    bit_order: str = "msb"
    template: str = "paper"
    out_dir: str = "results"
    require_convergence: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):  # annotations are strings, e.g. "float"
            value = getattr(self, f.name)
            if f.name == "seeds":
                try:
                    value = tuple(_typed("seed", s, "int") for s in value)
                except TypeError:
                    raise ConfigError("seeds must be a list of integers") from None
            else:
                value = _typed(f.name, value, f.type)
            object.__setattr__(self, f.name, value)
        if not 0 < len(self.seeds) <= MAX_SEEDS or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be 1 to {MAX_SEEDS} non-negative integers")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError("seeds must not repeat")
        try:
            object.__setattr__(self, "task", self.spec.name)
            self.trainer_config(self.seeds[0])
            _check_seed_epochs(len(self.seeds), self.max_epochs)
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from None
        for name in ("eta", "init_range"):  # TrainerConfig allows 0
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")

    @functools.cached_property
    def spec(self) -> TaskSpec:
        """The TaskSpec run_experiment trains.  Classical mode strips every
        product term (the two-qubit template), so it rejects 'extended'."""
        template = self.template
        if self.mode == "classical":
            if template == "extended":
                raise ConfigError("mode 'classical' cannot train template 'extended'")
            template = "two-qubit"
        return resolve_task(self.task, bit_order=self.bit_order, template=template)

    @property
    def encoding(self) -> str:
        """The input encoding of training: "bit" in classical mode, else "spin"."""
        return "bit" if self.mode == "classical" else "spin"

    def trainer_config(self, seed: int) -> TrainerConfig:
        names = [f.name for f in fields(TrainerConfig) if f.name != "seed"]
        return TrainerConfig(seed=seed, **{n: getattr(self, n) for n in names})


_SETTINGS = frozenset(f.name for f in fields(ExperimentConfig))


@dataclass(frozen=True)
class SeedOutcome:
    """Everything one seeded run produced.

    elapsed_seconds is the wall time of the experiment's batched training,
    shared by every seed: an upper bound on the time of each seed.
    """

    seed: int
    curve: CostCurve
    network: TrainedNetwork
    plateau: float | None
    elapsed_seconds: float

    @property
    def epochs_to_tolerance(self) -> int | None:
        return self.curve.epochs_to_tolerance

    @property
    def final_cost(self) -> float:
        return float(self.curve.costs[-1])


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of a full seed sweep plus the template's oracle verdict."""

    config: ExperimentConfig
    outcomes: tuple[SeedOutcome, ...]
    oracle: tuple[FeasibilityVerdict, ...]
    median_epochs_to_tolerance: float | None
    elapsed_seconds: float


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Train every seed, detect plateaus, and audit the template."""
    started = time.perf_counter()
    task = _instance(config, ExperimentConfig, "config").spec

    nets = [
        initialize_network(task.arity, task.templates, config.trainer_config(seed), task.name)
        for seed in config.seeds
    ]
    # train and detect_plateau read every field but the seed, which only
    # initialize_network uses; all seeds train in one batch, in lockstep
    trainer = config.trainer_config(config.seeds[0])
    t0 = time.perf_counter()
    trained = train(nets, task.examples, trainer, config.encoding)  # type: ignore[arg-type]
    train_seconds = time.perf_counter() - t0
    outcomes = [
        SeedOutcome(seed, curve, net, detect_plateau(curve, trainer), train_seconds)
        for seed, (net, curve) in zip(config.seeds, trained)
    ]

    oracle = tuple(check_exact_representability(task, j) for j in range(task.n_outputs))
    epoch_counts = [
        float("inf") if o.epochs_to_tolerance is None else float(o.epochs_to_tolerance)
        for o in outcomes
    ]
    median = float(np.median(epoch_counts))
    return ExperimentResult(
        config=config,
        outcomes=tuple(outcomes),
        oracle=oracle,
        median_epochs_to_tolerance=None if np.isinf(median) else median,
        elapsed_seconds=time.perf_counter() - started,
    )


def emit_cost_curve_csv(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write cost_seed<seed>.csv per seed; 12 significant digits per cost.

    Row e is "%d,%.12g" % (e, cost), formatted CSV_BLOCK_ROWS rows at a
    time, so the memory needed does not grow with a curve's length.  A
    block's row format is built once and reused by the next seed whose
    block covers the same epochs.
    """
    outcomes = _instance(result, ExperimentResult, "result").outcomes
    out = Path(_instance(out_dir, (str, os.PathLike), "out_dir"))
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    span, rows = (0, 0), ""  # the last block's (start, length) and its row format
    for outcome in outcomes:
        path = out / f"cost_seed{outcome.seed}.csv"
        costs = outcome.curve.costs
        with open(path, "w", newline="\n") as fh:
            fh.write("epoch,cost\n")
            for start in range(0, len(costs), CSV_BLOCK_ROWS):
                block = costs[start : start + CSV_BLOCK_ROWS].tolist()
                if span != (start, len(block)):
                    span = (start, len(block))
                    epochs = tuple(range(start + 1, start + len(block) + 1))
                    rows = ("%d,%%.12g\n" * len(block)) % epochs
                fh.write(rows % tuple(block))
        paths.append(path)
    return paths


def _weights_payload(net: TrainedNetwork) -> list[dict[str, Any]]:
    return [
        {
            "linear": list(p.linear_weights),
            "multi": [{"indices": list(t.indices), "weight": t.weight} for t in p.multi_terms],
            "bias": p.bias,
        }
        for p in net.perceptrons
    ]


def emit_summary(result: ExperimentResult, path: str | Path) -> Path:
    """Write the experiment summary JSON; key set is part of the contract."""
    config = _instance(result, ExperimentResult, "result").config
    per_seed = [
        {
            "seed": o.seed,
            "epochs_to_tolerance": o.epochs_to_tolerance,
            "final_cost": o.final_cost,
            "plateau": o.plateau,
            "weights": _weights_payload(o.network),
        }
        for o in result.outcomes
    ]
    doc = {
        "task": config.task,
        "mode": config.mode,
        "eta": config.eta,
        "seeds": list(config.seeds),
        "max_epochs": config.max_epochs,
        "cost_tolerance": config.cost_tolerance,
        "init_range": config.init_range,
        "bit_order": config.bit_order,
        "template": config.template,
        "per_seed": per_seed,
        "median_epochs_to_tolerance": result.median_epochs_to_tolerance,
        "oracle_verdict": [
            "feasible" if v.feasible else "infeasible" for v in result.oracle
        ],
    }
    path = Path(_instance(path, (str, os.PathLike), "path"))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return path


def _read_json(path: str | Path) -> Any:
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_summary(path: str | Path) -> dict[str, Any]:
    """Read a summary.json; ConfigError unless it names a task and holds seeds."""
    doc = _read_json(path)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("task"), str)
        and isinstance(doc.get("per_seed"), list)
    ):
        raise ConfigError(f"{path} is not an experiment summary")
    if not doc["per_seed"]:
        raise ConfigError(f"{path} holds no seeds")
    return doc


def _potential_from_payload(w: dict[str, Any]) -> NeuralPotential:
    return NeuralPotential(
        linear_weights=w["linear"],
        bias=w["bias"],
        multi_terms=tuple(MultiQubitTerm(t["indices"], t["weight"]) for t in w["multi"]),
    )


def _network_from_summary(
    doc: dict[str, Any], path: str | Path, seed: int | None
) -> TrainedNetwork:
    """The trained network stored for one seed (default: first) of a summary
    read by load_summary from path.

    A malformed summary raises ConfigError, whatever part of it is wrong.
    """
    try:
        matches = [e for e in doc["per_seed"] if seed is None or e["seed"] == seed]
        if not matches:
            raise ConfigError(f"summary has no seed {seed}")
        entry = matches[0]
        perceptrons = tuple(_potential_from_payload(w) for w in entry["weights"])
        if not perceptrons:
            raise ConfigError(f"{path}: seed entry has no weights")
        return TrainedNetwork(perceptrons, perceptrons[0].arity, doc["task"])
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{path}: seed entry lacks the key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed seed entry: {exc}") from exc


# --- configuration assembly ---


def _config_from(values: dict[str, Any], template_flag: str | None) -> ExperimentConfig:
    """ExperimentConfig(**values), the task id's template suffix split off.

    A task id may carry a template suffix, e.g. fredkin:paper.  The
    --template flag wins over the suffix, which wins over a config file's
    template; a flag and a suffix that disagree raise ConfigError.
    """
    raw = values["task"]
    if isinstance(raw, str) and ":" in raw:
        task_id, _, suffix = raw.partition(":")
        if suffix not in _CHOICES["template"]:
            raise ConfigError(f"unknown template suffix {suffix!r} in task {raw!r}")
        if template_flag is not None and template_flag != suffix:
            raise ConfigError(
                f"--template {template_flag} conflicts with task suffix :{suffix}"
            )
        values.update(task=task_id, template=suffix)
    return ExperimentConfig(**values)


def _parse_seed_list(raw: str) -> tuple[int, ...]:
    """Comma-separated integers; a-b runs an inclusive range.

    ConfigError if the list names more than MAX_SEEDS seeds, counted from
    the range bounds before any range is expanded.
    """
    bounds = []
    count = 0
    for item in raw.split(","):
        item = item.strip()
        if not item:
            raise ConfigError(f"empty entry in seed list {raw!r}")
        lo, sep, hi = item.partition("-")
        if not (sep and lo):  # one seed; a bare leading - is a minus sign
            lo = hi = item
        try:
            a, b = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"bad seed entry {item!r}") from exc
        if b < a:
            raise ConfigError(f"descending seed range {item!r}")
        count += b - a + 1
        if count > MAX_SEEDS:
            raise ConfigError(f"seed list {raw!r} names more than {MAX_SEEDS} seeds")
        bounds.append((a, b))
    return tuple(s for a, b in bounds for s in range(a, b + 1))


def _settings(args: argparse.Namespace) -> dict[str, Any]:
    """The ExperimentConfig fields that flags set."""
    return {k: v for k, v in vars(args).items() if k in _SETTINGS and v is not None}


def _load_config_file(path: str) -> dict[str, Any]:
    """The settings of a JSON config file, its seed key read as seeds."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(doc) - _SETTINGS - {"seed"})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "seed" in doc:
        if "seeds" in doc:
            raise ConfigError("config file sets both seed and seeds")
        doc["seeds"] = [doc.pop("seed")]
    return doc


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """Flags over config-file values over ExperimentConfig's defaults."""
    values: dict[str, Any] = {"seeds": args.default_seeds} if args.default_seeds else {}
    if args.config:
        values.update(_load_config_file(args.config))
    flags = _settings(args)
    if args.seed is not None:
        if "seeds" in flags:
            raise ConfigError("--seed and --seeds are mutually exclusive")
        flags["seeds"] = (args.seed,)
    elif "seeds" in flags:
        flags["seeds"] = _parse_seed_list(flags["seeds"])
    values.update(flags)
    if "task" not in values:
        raise ConfigError("a task is required (--task or config file)")
    return _config_from(values, args.template)


# --- subcommands ---


def _cmd_train(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    result = run_experiment(config)
    csv_paths = emit_cost_curve_csv(result, config.out_dir)
    summary_path = emit_summary(result, Path(config.out_dir) / "summary.json")
    print(
        f"task={config.task} mode={config.mode} template={config.template} "
        f"bit_order={config.bit_order} eta={config.eta}"
    )
    for o in result.outcomes:
        epochs = "-" if o.epochs_to_tolerance is None else str(o.epochs_to_tolerance)
        plateau = "-" if o.plateau is None else f"{o.plateau:.6g}"
        print(
            f"seed {o.seed}: epochs_to_tolerance={epochs} "
            f"final_cost={o.final_cost:.6g} plateau={plateau}"
        )
    median = result.median_epochs_to_tolerance
    print(f"median_epochs_to_tolerance={'-' if median is None else median}")
    verdicts = ",".join(
        "feasible" if v.feasible else "infeasible" for v in result.oracle
    )
    print(f"oracle_verdict={verdicts}")
    for p in csv_paths:
        print(f"wrote {p}")
    print(f"wrote {summary_path}")
    print(f"elapsed_seconds={result.elapsed_seconds:.3f}")
    if config.require_convergence and any(
        o.epochs_to_tolerance is None for o in result.outcomes
    ):
        print("non-convergence under --require-convergence", file=sys.stderr)
        return 2
    return 0


def _cmd_adiabatic_check(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ConfigError("--points must be at least 1")
    _ramp_steps(args.points, args.t_f, args.dt)
    if not np.isfinite(args.x_max - args.x_min):  # also catches an inf or nan bound
        raise ConfigError("--x-min and --x-max must be finite, with a finite span")
    ramp = (args.t_f, args.dt, args.omega_factor, args.omega_end, args.ramp)
    # The grid's end points check its schedule's rules before the grid exists.
    _profile_schedule(np.array([args.x_min, args.x_max][: args.points]), *ramp)
    xs = np.linspace(args.x_min, args.x_max, args.points)
    profile = adiabatic_profile(xs, *ramp)
    print("x,probability,target,error")
    for x, p, t, e in zip(
        profile.xs, profile.probabilities, profile.targets, profile.errors
    ):
        print(f"{x:.6g},{p:.12g},{t:.12g},{e:.6g}")
    print(f"max_error={profile.max_error:.6g}")
    print(f"mean_error={profile.mean_error:.6g}")
    print(f"max_norm_drift={profile.max_drift:.6g}")
    return 0


def _cmd_gate_verify(args: argparse.Namespace) -> int:
    doc = load_summary(args.summary)
    keys = ("task", "template", "bit_order", "mode")
    config = ExperimentConfig(**{k: doc[k] for k in keys if k in doc})
    net = _network_from_summary(doc, args.summary, args.seed)
    if config.encoding == "bit":  # both engines read spins
        spins = tuple(reparameterize_bits_to_spins(p) for p in net.perceptrons)
        net = replace(net, perceptrons=spins)
    ok = True
    for engine in ("scalar", "statevector"):
        report = verify_truth_table(net, config.spec, engine=engine)  # type: ignore[arg-type]
        print(
            f"{engine}: {report.n_correct}/{report.n_rows} rows correct, "
            f"max |y - t| = {report.max_abs_error:.6g}"
        )
        for bits, predicted, expected in report.mismatches:
            print(f"  mismatch at input {bits}: predicted {predicted}, expected {expected}")
        for bits, outputs, expected in report.ties:
            print(
                f"  tie at input {bits}: output {', '.join(map(str, outputs))} "
                f"within {TIE_BAND:g} of {OUTPUT_THRESHOLD:g}, expected {expected}"
            )
        ok = ok and report.all_correct
    print("verdict=" + ("pass" if ok else "fail"))
    return 0 if ok else 2


def _cmd_feasibility(args: argparse.Namespace) -> int:
    config = _config_from(_settings(args), args.template)
    for bit_order in _CHOICES["bit_order"]:
        task = replace(config, bit_order=bit_order).spec
        for j in range(task.n_outputs):
            verdict = check_exact_representability(task, j)
            state = "feasible" if verdict.feasible else "infeasible"
            margin = verdict.margin + 0.0  # normalize -0.0 for display
            print(
                f"{task.name}:{config.template} [{bit_order}] output {j + 1}: "
                f"{state} (margin={margin:.6g})"
            )
    return 0


# --- parser ---


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, here and in every subparser."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", help="task id, optionally with :template suffix")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--mode", choices=_CHOICES["mode"])
    parser.add_argument("--eta", type=float, help="learning rate")
    parser.add_argument("--seed", type=int, help="single seed")
    parser.add_argument("--seeds", help="comma list of seeds, a-b for ranges")
    parser.add_argument("--max-epochs", type=int, dest="max_epochs")
    parser.add_argument(
        "--tol",
        type=float,
        dest="cost_tolerance",
        help="stop once the cost drops below this",
    )
    parser.add_argument("--init-range", type=float, dest="init_range")
    parser.add_argument("--plateau-window", type=int, dest="plateau_window")
    parser.add_argument("--plateau-epsilon", type=float, dest="plateau_epsilon")
    parser.add_argument("--bit-order", choices=_CHOICES["bit_order"])
    parser.add_argument("--template", choices=_CHOICES["template"])
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument(
        "--require-convergence",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="exit 2 unless every seed reaches the tolerance",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qperceptron",
        description=(
            "Train quantum perceptron networks on truth-table tasks and "
            "audit what their templates can represent."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, default_seeds, text in (
        ("train", None, "run one experiment (default: seed 0)"),
        ("sweep", range(20), "run a multi-seed experiment (default: seeds 0-19)"),
    ):
        p_run = sub.add_parser(name, help=text)
        _add_train_flags(p_run)
        p_run.set_defaults(handler=_cmd_train, default_seeds=default_seeds)

    p_adiabatic = sub.add_parser(
        "adiabatic-check",
        help="evolve a grid of potentials and compare against the activation",
    )
    p_adiabatic.add_argument("--x-min", type=float, default=-3.0, dest="x_min")
    p_adiabatic.add_argument("--x-max", type=float, default=3.0, dest="x_max")
    p_adiabatic.add_argument("--points", type=int, default=7)
    p_adiabatic.add_argument("--t-f", type=float, default=AdiabaticSchedule.t_f)
    p_adiabatic.add_argument("--dt", type=float, default=AdiabaticSchedule.dt)
    p_adiabatic.add_argument("--omega-factor", type=float, default=OMEGA_START_FACTOR)
    p_adiabatic.add_argument(
        "--omega-end", type=float, default=AdiabaticSchedule.omega_end
    )
    p_adiabatic.add_argument(
        "--ramp",
        choices=_RAMPS,
        default=AdiabaticSchedule.ramp,
        help="drive shape and start state (see adiabatic_profile)",
    )
    p_adiabatic.set_defaults(handler=_cmd_adiabatic_check)

    p_verify = sub.add_parser(
        "gate-verify",
        help="check a trained network against its truth table on both engines",
    )
    p_verify.add_argument("--summary", required=True, help="summary.json path")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(handler=_cmd_gate_verify)

    p_feas = sub.add_parser(
        "feasibility",
        help="representability verdict per output under both bit orders",
    )
    p_feas.add_argument("--task", required=True)
    p_feas.add_argument("--template", choices=_CHOICES["template"])
    p_feas.set_defaults(handler=_cmd_feasibility)

    return parser


def cli(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns 0 ok, 1 config, 2 non-convergence or a failed
    gate-verify, 3 I/O."""
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit:  # argparse exits only after printing --help
        return 0
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli(sys.argv[1:]))
