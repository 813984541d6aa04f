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

from dataclasses import dataclass, field
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
from .training import TrainedNetwork, TrainingExample, _input_matrix, _outputs, _rows

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
# verify_truth_table reads an output above this as 1, at or below it as 0
OUTPUT_THRESHOLD = 0.5
MAX_ORACLE_ARITY = 5
# Bland's rule ends every solve in exact arithmetic; the cap, ~7x the most
# pivots seen on 4,900 random k <= 5 tables (147), stops a numerical stall
_MAX_PIVOTS = 1000
_PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class TaskSpec:
    """A truth-table learning problem with per-output term templates.

    bits (2^arity, arity) and targets (2^arity, n_outputs) are the examples'
    input bits and target bits as read-only int arrays, row for row; they
    are derived once, on construction, and take no part in equality.
    """

    name: str
    arity: int
    templates: Templates
    examples: tuple[TrainingExample, ...]
    bits: np.ndarray = field(init=False, repr=False, compare=False)
    targets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.templates) == 0:
            raise InvalidInputError("task needs at least one output")
        if len(self.examples) != 2**self.arity:
            raise InvalidInputError("task must enumerate the full truth table")
        arrays = _rows(self.examples, self.arity, len(self.templates))
        for name, array in zip(("bits", "targets"), arrays):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

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
    engine: Literal["scalar", "statevector"] = "scalar",
) -> TruthTableReport:
    """Threshold every output on every row at OUTPUT_THRESHOLD.

    The scalar engine evaluates every row at once with the activation of
    each output's potential; the statevector engine builds
    statevector_table once and reads each row's outputs at its input bits.
    """
    if net.arity != task.arity:
        raise InvalidInputError("network arity does not match task")
    if net.n_outputs != task.n_outputs:
        raise InvalidInputError("network output count does not match task")
    if engine == "scalar":
        y = _outputs(net, _input_matrix(task.bits, "spin"))
    elif engine == "statevector":
        y = statevector_table(net.perceptrons)[_basis_index(task.bits)]
    else:
        raise InvalidInputError(f"unknown engine {engine!r}")
    predicted = (y > OUTPUT_THRESHOLD).astype(int)
    wrong = (predicted != task.targets).any(axis=1)
    columns = (a[wrong].tolist() for a in (task.bits, predicted, task.targets))
    mismatches = tuple(tuple(map(tuple, row)) for row in zip(*columns))
    n_rows = len(task.bits)
    return TruthTableReport(
        task_name=task.name,
        n_rows=n_rows,
        n_correct=n_rows - len(mismatches),
        mismatches=mismatches,
        max_abs_error=float(np.max(np.abs(y - task.targets))),
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

    which is strictly feasible iff delta* > 0, by _simplex with theta split
    as theta+ - theta- (both >= 0, theta+ + theta- <= 1), so that every
    right-hand side is >= 0.  The returned witness is theta / delta*, whose
    margin min_n sign_n * (phi_n . theta) is 1, or at least 1 when the cap
    delta <= 1 binds (delta* = 1).  Raises RuntimeError if the solve does not
    end within _MAX_PIVOTS pivots.
    """
    if task.arity > MAX_ORACLE_ARITY:
        raise InvalidInputError(
            f"oracle is exhaustive and limited to arity {MAX_ORACLE_ARITY}"
        )
    if not (0 <= output_index < task.n_outputs):
        raise InvalidInputError(f"output_index {output_index} out of range")
    template = task.templates[output_index]
    phi = features(_input_matrix(task.bits, "spin"), template)
    signs = 2.0 * task.targets[:, output_index] - 1.0
    n_rows, n_params = phi.shape
    signed = signs[:, None] * phi
    eye = np.eye(n_params + 1)
    # variables: theta+ (n_params), theta- (n_params), then delta
    a = np.vstack(
        [
            np.hstack([-signed, signed, np.ones((n_rows, 1))]),
            np.hstack([eye[:, :-1], eye]),  # theta+_i + theta-_i <= 1, delta <= 1
        ]
    )
    b = np.concatenate([np.zeros(n_rows), np.ones(n_params + 1)])
    x = _simplex(a, b, np.concatenate([np.zeros(2 * n_params), [1.0]]))
    delta = float(x[-1])
    if delta <= FEASIBILITY_MARGIN:
        return FeasibilityVerdict(task.name, output_index, False, delta, None)
    theta = x[:n_params] - x[n_params:-1]
    witness = _unpack(task.arity, template, theta / delta)
    return FeasibilityVerdict(task.name, output_index, True, delta, witness)


def _simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """x maximizing c . x subject to a @ x <= b and x >= 0, given b >= 0.

    Dense primal simplex from the all-slack basis, which b >= 0 makes
    feasible.  The tableau keeps one row per basic variable and one column
    per nonbasic one (x is numbered 0..n-1, the slacks n..n+m-1), plus the
    objective row and the right-hand side.  Bland's rule picks the
    lowest-numbered improving column and, among rows tied in the ratio test,
    the lowest-numbered basic variable, so degenerate pivots cannot cycle.
    The LP must be bounded, as the oracle's is by its rows.
    """
    m, n = a.shape
    t = np.zeros((m + 1, n + 1))
    t[:m, :n] = a
    t[:m, -1] = b
    t[m, :n] = -c
    cost, rhs = t[m, :-1], t[:m, -1]
    basic = np.arange(n, n + m)
    nonbasic = np.arange(n)
    for _ in range(_MAX_PIVOTS):
        e = np.where(cost < -_PIVOT_TOL, nonbasic, n + m).argmin()
        if cost[e] >= -_PIVOT_TOL:
            x = np.zeros(n + m)
            x[basic] = rhs
            return x[:n]
        col = t[:, e].copy()
        rows = (col[:m] > _PIVOT_TOL).nonzero()[0]
        ratios = rhs[rows] / col[rows]
        ties = rows[ratios <= ratios.min() + _PIVOT_TOL]
        r = ties[basic[ties].argmin()]
        row = t[r] / col[r]
        # an outer product by np.dot: one product per entry, so exact, and
        # faster than np.outer at this size
        t -= np.dot(col[:, None], row[None])
        t[r] = row
        t[:, e] = col / -col[r]
        t[r, e] = 1.0 / col[r]
        basic[r], nonbasic[e] = nonbasic[e], basic[r]
    raise RuntimeError(f"feasibility LP failed: no optimum within {_MAX_PIVOTS} pivots")


def scale_potential(p: NeuralPotential, factor: float) -> NeuralPotential:
    """Multiply every weight and the bias by factor; the sign pattern is kept."""
    return _unpack(p.arity, [t.indices for t in p.multi_terms], _pack(p) * factor)
