"""Every public entry point answers a bad argument with a one-line ValueError.

The property takes one valid call per entry point from CALLS and replaces
each of its arguments in turn with each value of _bad_values().  Every such
call must return, or raise a ValueError subclass whose message is one line.
A path argument may also meet an OSError from the file system.  The calls
run in a child process that bounds its own address space and the time of
each call, so an unbounded allocation or loop fails the test instead of
taking the host down.  Run this file as a script to print the violations.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

import qperceptron
from qperceptron import (
    AdiabaticSchedule,
    CostCurve,
    ExperimentConfig,
    MultiQubitTerm,
    NeuralPotential,
    SpinConfig,
    TrainedNetwork,
    TrainerConfig,
    resolve_task,
    run_experiment,
    zero_state,
)

# every library module: the package's files but its __init__ and __main__
MODULES = sorted(
    p.stem for p in Path(qperceptron.__file__).parent.glob("*.py") if not p.stem.startswith("__")
)
# a bad call may run this long, and the child may map this much beyond what
# it holds once every base call is built
CALL_SECONDS = 2
SPARE_ADDRESS_SPACE = 1 << 30


def _bad_values() -> list:
    """The replacements, made afresh for each call: one of them is an iterator."""
    return [
        "a", None, math.nan, math.inf, -1, 0, 1.5, 10**30, 1j, [1], (),
        iter([1]), object(), True, np.float64(2.0), {"a": 1},
    ]


P = NeuralPotential((0.5, -0.5), 0.25, (MultiQubitTerm((1, 2), 1.0),))
NET = TrainedNetwork((P,), 2, "xor")
XOR = resolve_task("xor")
SPINS = SpinConfig((1, -1))
TRAINER = TrainerConfig(max_epochs=3)
EXPERIMENT = ExperimentConfig("xor", max_epochs=3)
RESULT = run_experiment(EXPERIMENT)

# entry point -> (positional arguments, keyword arguments) of one valid call;
# every argument with a default is passed, so that each one is replaced
CALLS: dict[str, tuple[tuple, dict]] = {
    "SpinConfig": (((1, -1),), {}),
    "MultiQubitTerm": (((1, 2), 0.5), {}),
    "NeuralPotential": (((0.5, -0.5), 0.25, (MultiQubitTerm((1, 2), 1.0),)), {}),
    "activation": ((0.5,), {}),
    "bits_to_spins": (((0, 1),), {}),
    "features": (([[1.0, -1.0]], [(1, 2)]), {}),
    "enumerate_inputs": ((2,), {}),
    "reparameterize_bits_to_spins": ((NeuralPotential((0.5, -0.5), 0.25),), {}),
    "TrainingExample": ((SPINS, (1,)), {}),
    "TrainerConfig": (
        (),
        dict(
            eta=1.5, max_epochs=3, cost_tolerance=0.01, init_range=0.5, seed=0,
            plateau_window=2, plateau_epsilon=5e-4,
        ),
    ),
    "TrainedNetwork": (((P,), 2, "xor"), {}),
    "forward_network": ((NET, SPINS, "spin"), {}),
    "cost": ((NET, XOR.examples, "spin"), {}),
    "quantum_gradients": ((NET, XOR.examples), {}),
    "train": (([NET], XOR.examples, TRAINER, "spin"), {}),
    "detect_plateau": ((CostCurve(np.ones(3), 0.1), TrainerConfig(plateau_window=2)), {}),
    "initialize_network": ((2, (((1, 2),),), TRAINER, "xor"), {}),
    "TaskSpec": (("xor", 2, (((1, 2),),), XOR.examples), {}),
    "canonical_task_id": (("prime-3",), {}),
    "resolve_task": (("xor", "msb", "paper"), {}),
    "verify_truth_table": ((NET, XOR, "scalar"), {}),
    "check_exact_representability": ((XOR, 0), {}),
    "scale_potential": ((P, 2.0), {}),
    "AdiabaticSchedule": (
        (), dict(omega_start=5.0, omega_end=1.0, t_f=2.0, dt=1e-3, ramp="linear")
    ),
    "default_schedule": ((0.5,), {}),
    "instantaneous_upper_eigenstate": ((0.5, 2.0), {}),
    "adiabatic_evolve": ((0.25, AdiabaticSchedule(5.0, 1.0, 2.0, 1e-3)), {}),
    "adiabatic_profile": (
        ([0.0, 0.5],),
        dict(t_f=2.0, dt=1e-3, omega_start_factor=50.0, omega_end=1.0, ramp="linear"),
    ),
    "Statevector": (([1.0, 0.0], 1), {}),
    "zero_state": ((2,), {}),
    "basis_state": ((2, (0, 1)), {}),
    "apply_hadamard": ((zero_state(2), 1), {}),
    "apply_perceptron_gate": ((zero_state(3), P, 3), {}),
    "apply_network": ((zero_state(3), [(P, 3)]), {}),
    "statevector_table": (([P],), {}),
    "forward_statevector": (([P], SPINS), {}),
    "ExperimentConfig": (
        (),
        dict(
            task="xor", mode="quantum", eta=1.5, seeds=(0,), max_epochs=3,
            cost_tolerance=0.01, init_range=0.5, plateau_window=200,
            plateau_epsilon=5e-4, bit_order="msb", template="paper", out_dir="out",
            require_convergence=False,
        ),
    ),
    "run_experiment": ((EXPERIMENT,), {}),
    "emit_cost_curve_csv": ((RESULT, "out"), {}),
    "emit_summary": ((RESULT, "summary.json"), {}),
}
# entry point -> the argument that names a file or directory, any str or
# PathLike, where an OSError from the file system is an answer too
PATH_ARGUMENTS = {"emit_cost_curve_csv": 1, "emit_summary": 1}
# public callables outside the property, and why
EXEMPT = {
    **dict.fromkeys(
        [
            "PotentialGradient", "CostCurve", "TruthTableReport", "FeasibilityVerdict",
            "AdiabaticProfile", "SeedOutcome", "ExperimentResult",
        ],
        "a result record the package builds from checked values",
    ),
    **dict.fromkeys(
        ["load_summary", "cli", "main"],
        "the command line's boundary, which the CLI properties cover",
    ),
}


class _Overran(BaseException):
    """Raised by the alarm in a call that runs past CALL_SECONDS."""


def _overran(signum, frame):
    raise _Overran(f"ran past {CALL_SECONDS} s")


def _violations() -> list[str]:
    """One line per call that neither returns nor raises a one-line ValueError."""
    found = []
    for name, (args, kwargs) in CALLS.items():
        call = getattr(qperceptron, name)
        for slot in [*range(len(args)), *kwargs]:
            for bad in _bad_values():
                positional, keywords = list(args), dict(kwargs)
                if isinstance(slot, int):
                    positional[slot] = bad
                else:
                    keywords[slot] = bad
                shown = f"{name} with argument {slot} = {bad!r}"
                signal.alarm(CALL_SECONDS)
                try:
                    call(*positional, **keywords)
                except ValueError as exc:
                    if len(str(exc).splitlines()) != 1:
                        found.append(f"{shown}: a message of more than one line: {exc!r}")
                except BaseException as exc:  # an overrun and a MemoryError too
                    if not (slot == PATH_ARGUMENTS.get(name) and isinstance(exc, OSError)):
                        found.append(f"{shown}: {type(exc).__name__}: {exc}")
                finally:
                    signal.alarm(0)
    return found


def _bound_address_space() -> None:
    """Cap this process's address space at what it maps now plus the spare."""
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (mapped + SPARE_ADDRESS_SPACE, hard))


def test_every_entry_point_answers_a_bad_argument_with_one_line(tmp_path):
    src = str(Path(qperceptron.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, __file__],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _public_callables() -> set[str]:
    return {
        name
        for module in MODULES
        for name in importlib.import_module(f"qperceptron.{module}").__all__
        if callable(getattr(qperceptron, name))
    }


def test_every_public_callable_is_called_or_exempt():
    # an exception class takes any message, so it has no bad argument
    errors = {
        name
        for name in _public_callables()
        if inspect.isclass(getattr(qperceptron, name))
        and issubclass(getattr(qperceptron, name), BaseException)
    }
    assert set(CALLS).isdisjoint(EXEMPT) and set(PATH_ARGUMENTS) <= set(CALLS)
    assert set(CALLS) | set(EXEMPT) | errors == _public_callables()


if __name__ == "__main__":
    _bound_address_space()
    signal.signal(signal.SIGALRM, _overran)
    print(json.dumps(_violations(), indent=1))
