"""Benchmark task definitions and exact-representability checks.

Every task is a complete truth table over k input bits together with one
multi-qubit term template per output perceptron.  Inputs enumerate all 2^k
bit strings; targets are the task's output bits for each string.

The representability oracle answers, by linear programming over the full
truth table, whether some setting of a perceptron's parameters classifies
every row with the correct sign of the potential.  It is exhaustive and
only intended for small registers (k <= 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .core import (
    InvalidInputError,
    NeuralPotential,
    _pack,
    _unpack,
    enumerate_inputs,
    features,
)
from .dynamics import _basis_index, statevector_table
from .training import TrainedNetwork, TrainingExample, _input_matrix, _outputs

__all__ = [
    "TaskSpec",
    "TruthTableReport",
    "FeasibilityVerdict",
    "TASK_IDS",
    "TEMPLATES",
    "canonical_task_id",
    "resolve_task",
    "verify_truth_table",
    "check_exact_representability",
    "scale_potential",
]

BitOrder = Literal["msb", "lsb"]
Templates = tuple[tuple[tuple[int, ...], ...], ...]

FEASIBILITY_MARGIN = 1e-9
MAX_ORACLE_ARITY = 5


@dataclass(frozen=True)
class TaskSpec:
    """A truth-table learning problem with per-output term templates."""

    name: str
    arity: int
    templates: Templates
    examples: tuple[TrainingExample, ...]

    def __post_init__(self) -> None:
        if len(self.templates) == 0:
            raise InvalidInputError("task needs at least one output")
        if len(self.examples) != 2**self.arity:
            raise InvalidInputError("task must enumerate the full truth table")
        for ex in self.examples:
            if len(ex.spins) != self.arity:
                raise InvalidInputError("example arity mismatch")
            if len(ex.target) != len(self.templates):
                raise InvalidInputError("example target width mismatch")

    @property
    def n_outputs(self) -> int:
        return len(self.templates)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime(bits: tuple[int, ...], bit_order: BitOrder) -> tuple[int, ...]:
    """Primality of the register's integer; msb: qubit 1 is most significant."""
    value = 0
    for b in bits if bit_order == "msb" else bits[::-1]:
        value = 2 * value + b
    return (int(_is_prime(value)),)


# id -> (arity, output bits of (input bits, bit order), {template: per-output
# term templates}).  "two-qubit" is not stored: it is "paper" with every
# product term stripped.  No single product term, and not all ten pair terms
# together, can represent 5-bit primality (LP oracle, both bit orders);
# prime5's extended template is the smallest representable one that keeps
# the published (2,3) pair, and it is feasible under msb order.
_TASKS: dict[str, tuple[int, Callable, dict[str, Templates]]] = {
    "xor": (2, lambda b, _: (b[0] ^ b[1],), {"paper": (((1, 2),),)}),
    "prime3": (3, _prime, {"paper": (((2, 3),),)}),
    "prime4": (4, _prime, {"paper": (((2, 3),),)}),
    "prime5": (
        5,
        _prime,
        {"paper": (((2, 3),),), "extended": (((2, 3), (1, 3, 4), (1, 2, 3, 5)),)},
    ),
    "cnot": (2, lambda b, _: (b[0], b[0] ^ b[1]), {"paper": ((), ((1, 2),))}),
    "toffoli": (
        3,
        lambda b, _: (b[0], b[1], b[2] ^ (b[0] & b[1])),
        {
            "paper": ((), (), ((1, 2, 3),)),
            "extended": ((), (), ((1, 2, 3), (1, 3), (2, 3))),
        },
    ),
    "fredkin": (
        3,
        lambda b, _: (b[0], b[2], b[1]) if b[0] else b,
        {
            "paper": ((), (), ((2, 3),)),
            "extended": ((), ((1, 2), (1, 3)), ((1, 2), (1, 3))),
        },
    ),
}

TASK_IDS = tuple(_TASKS)
TEMPLATES = ("paper", "extended", "two-qubit")


def canonical_task_id(raw: str) -> str:
    """Accept prime-N as an alias for primeN; other ids pass through."""
    if raw.startswith("prime-"):
        return "prime" + raw[len("prime-"):]
    return raw


def resolve_task(
    task_id: str, bit_order: BitOrder = "msb", template: str = "paper"
) -> TaskSpec:
    """The TaskSpec of a task id (or its prime-N alias) under one of TEMPLATES.

    "paper" is the published template, "extended" (prime5, toffoli and
    fredkin only) the exactly representable one, and "two-qubit" the paper
    template with every product term stripped.  bit_order selects whether
    qubit 1 holds the most or the least significant bit of a prime task's
    integer; the other tasks read the bits in register order either way.
    """
    task_id = canonical_task_id(task_id)
    if task_id not in _TASKS:
        raise InvalidInputError(
            f"unknown task {task_id!r}, expected one of {', '.join(TASK_IDS)}"
        )
    if bit_order not in ("msb", "lsb"):
        raise InvalidInputError(f"unknown bit_order {bit_order!r}")
    arity, fn, stored = _TASKS[task_id]
    if template == "two-qubit":
        templates = ((),) * len(stored["paper"])
    elif template in stored:
        templates = stored[template]
    else:
        raise InvalidInputError(
            f"task {task_id!r} has no {template!r} template, "
            f"only {', '.join([*stored, 'two-qubit'])}"
        )
    examples = tuple(
        TrainingExample(spins=s, target=fn(s.bits, bit_order))
        for s in enumerate_inputs(arity)
    )
    return TaskSpec(task_id, arity, templates, examples)


@dataclass(frozen=True)
class TruthTableReport:
    """Row-by-row comparison of thresholded network outputs to targets."""

    task_name: str
    n_rows: int
    n_correct: int
    mismatches: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    max_abs_error: float

    @property
    def all_correct(self) -> bool:
        return self.n_correct == self.n_rows


def verify_truth_table(
    net: TrainedNetwork,
    task: TaskSpec,
    threshold: float = 0.5,
    engine: Literal["scalar", "statevector"] = "scalar",
) -> TruthTableReport:
    """Threshold every output on every row; outputs at the threshold read 0.

    The scalar engine evaluates every row at once with the activation of
    each output's potential; the statevector engine builds
    statevector_table once and reads each row's outputs at its input bits.
    """
    if net.arity != task.arity:
        raise InvalidInputError("network arity does not match task")
    if net.n_outputs != task.n_outputs:
        raise InvalidInputError("network output count does not match task")
    if engine == "scalar":
        y = _outputs(net, _input_matrix([ex.spins for ex in task.examples], "spin"))
    elif engine == "statevector":
        rows = [_basis_index(ex.bits) for ex in task.examples]
        y = statevector_table(net.perceptrons)[rows]
    else:
        raise InvalidInputError(f"unknown engine {engine!r}")
    predicted = [tuple(row) for row in (y > threshold).astype(int).tolist()]
    mismatches = tuple(
        (ex.bits, row, ex.target)
        for ex, row in zip(task.examples, predicted)
        if row != ex.target
    )
    targets = np.array([ex.target for ex in task.examples])
    return TruthTableReport(
        task_name=task.name,
        n_rows=len(task.examples),
        n_correct=len(task.examples) - len(mismatches),
        mismatches=mismatches,
        max_abs_error=float(np.max(np.abs(y - targets))),
    )


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the sign-representability LP for one output perceptron."""

    task_name: str
    output_index: int
    feasible: bool
    margin: float
    witness: NeuralPotential | None


def check_exact_representability(
    task: TaskSpec, output_index: int
) -> FeasibilityVerdict:
    """Decide whether output_index is exactly learnable under its template.

    Exact learnability means some parameter vector gives the potential the
    target's sign on every truth-table row; scaling such a witness then
    drives the cost arbitrarily close to zero.  Solved as

        maximize delta  s.t.  sign_n * (phi_n . theta) >= delta,
                              |theta| <= 1, 0 <= delta <= 1

    which is strictly feasible iff delta* > 0.  The returned witness is
    rescaled to unit margin: min_n sign_n * (phi_n . theta) = 1.
    """
    from scipy.optimize import linprog  # slow to import, and only needed here

    if task.arity > MAX_ORACLE_ARITY:
        raise InvalidInputError(
            f"oracle is exhaustive and limited to arity {MAX_ORACLE_ARITY}"
        )
    if not (0 <= output_index < task.n_outputs):
        raise InvalidInputError(f"output_index {output_index} out of range")
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
    if not res.success:
        raise RuntimeError(f"feasibility LP failed: {res.message}")
    delta = float(res.x[-1])
    if delta <= FEASIBILITY_MARGIN:
        return FeasibilityVerdict(task.name, output_index, False, delta, None)
    witness = _unpack(task.arity, template, res.x[:n_params] / delta)
    return FeasibilityVerdict(task.name, output_index, True, delta, witness)


def scale_potential(p: NeuralPotential, factor: float) -> NeuralPotential:
    """Multiply every weight and the bias by factor; the sign pattern is kept."""
    return _unpack(p.arity, [t.indices for t in p.multi_terms], _pack(p) * factor)
