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

from dataclasses import dataclass, replace
from typing import Callable, Literal, Sequence

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
from .training import TrainedNetwork, TrainingExample, forward_network

__all__ = [
    "TaskSpec",
    "TruthTableReport",
    "FeasibilityVerdict",
    "TASK_IDS",
    "xor_task",
    "prime_task",
    "gate_task",
    "canonical_task_id",
    "resolve_task",
    "verify_truth_table",
    "check_exact_representability",
    "scale_potential",
]

BitOrder = Literal["msb", "lsb"]
GateVariant = Literal["paper", "extended", "two_qubit"]

TASK_IDS = ("xor", "prime3", "prime4", "prime5", "cnot", "toffoli", "fredkin")
EXTENDED_TASK_IDS = ("prime5", "toffoli", "fredkin")

FEASIBILITY_MARGIN = 1e-9
MAX_ORACLE_ARITY = 5


@dataclass(frozen=True)
class TaskSpec:
    """A truth-table learning problem with per-output term templates."""

    name: str
    arity: int
    templates: tuple[tuple[tuple[int, ...], ...], ...]
    examples: tuple[TrainingExample, ...]
    description: str = ""

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


def _truth_table(
    arity: int, fn: Callable[[tuple[int, ...]], tuple[int, ...]]
) -> tuple[TrainingExample, ...]:
    examples = []
    for s in enumerate_inputs(arity):
        examples.append(TrainingExample(spins=s, target=fn(s.bits)))
    return tuple(examples)


def xor_task() -> TaskSpec:
    """Two-bit parity with a single two-qubit product term."""
    return TaskSpec(
        name="xor",
        arity=2,
        templates=(((1, 2),),),
        examples=_truth_table(2, lambda b: (b[0] ^ b[1],)),
        description="y = b1 XOR b2",
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _bits_value(bits: tuple[int, ...], bit_order: BitOrder) -> int:
    if bit_order == "msb":
        ordered = bits
    elif bit_order == "lsb":
        ordered = bits[::-1]
    else:
        raise InvalidInputError(f"unknown bit_order {bit_order!r}")
    value = 0
    for b in ordered:
        value = 2 * value + b
    return value


# No single product term, and not all ten pair terms together, can represent
# 5-bit primality (LP oracle, both bit orders).  This smallest representable
# template keeps the published (2,3) pair; it is feasible under msb order.
_PRIME5_EXTENDED = ((2, 3), (1, 3, 4), (1, 2, 3, 5))


def prime_task(
    bits: int,
    bit_order: BitOrder = "msb",
    variant: Literal["paper", "extended"] = "paper",
) -> TaskSpec:
    """Primality of the integer read off the register, one output.

    bit_order selects whether qubit 1 holds the most or the least
    significant bit of the integer.  The "paper" template carries one
    product term on qubits 2 and 3.  The "extended" template (5 bits only)
    adds the triple (1,3,4) and the 4-qubit product (1,2,3,5), which makes
    the msb-ordered task exactly representable.
    """
    if bits not in (3, 4, 5):
        raise InvalidInputError(f"prime task supports 3 to 5 bits, got {bits}")
    _bits_value((0,) * bits, bit_order)  # validate bit_order early
    if variant == "paper":
        template: tuple[tuple[int, ...], ...] = ((2, 3),)
    elif variant == "extended" and bits == 5:
        template = _PRIME5_EXTENDED
    else:
        raise InvalidInputError(f"prime{bits} has no {variant!r} template")
    return TaskSpec(
        name=f"prime{bits}",
        arity=bits,
        templates=(template,),
        examples=_truth_table(
            bits, lambda b: (int(_is_prime(_bits_value(b, bit_order))),)
        ),
        description=f"y = 1 iff the {bits}-bit register ({bit_order} first) is prime",
    )


def _cnot_fn(b: tuple[int, ...]) -> tuple[int, ...]:
    return (b[0], b[0] ^ b[1])


def _toffoli_fn(b: tuple[int, ...]) -> tuple[int, ...]:
    return (b[0], b[1], b[2] ^ (b[0] & b[1]))


def _fredkin_fn(b: tuple[int, ...]) -> tuple[int, ...]:
    if b[0]:
        return (b[0], b[2], b[1])
    return b


_GATE_TEMPLATES: dict[str, dict[str, tuple[tuple[tuple[int, ...], ...], ...]]] = {
    "cnot": {
        "paper": ((), ((1, 2),)),
    },
    "toffoli": {
        "paper": ((), (), ((1, 2, 3),)),
        "extended": ((), (), ((1, 2, 3), (1, 3), (2, 3))),
    },
    "fredkin": {
        "paper": ((), (), ((2, 3),)),
        "extended": ((), ((1, 2), (1, 3)), ((1, 2), (1, 3))),
    },
}

_GATE_FNS: dict[str, tuple[int, Callable[[tuple[int, ...]], tuple[int, ...]]]] = {
    "cnot": (2, _cnot_fn),
    "toffoli": (3, _toffoli_fn),
    "fredkin": (3, _fredkin_fn),
}


def gate_task(name: str, variant: GateVariant = "paper") -> TaskSpec:
    """Truth table of a reversible gate, one perceptron per output bit.

    variant "paper" uses the published single-term templates, "extended"
    adds the cross terms needed for exact representability (Toffoli and
    Fredkin; CNOT has none), and "two_qubit" strips every product term.
    """
    if name not in _GATE_FNS:
        raise InvalidInputError(f"unknown gate {name!r}")
    arity, fn = _GATE_FNS[name]
    if variant == "two_qubit":
        templates: tuple[tuple[tuple[int, ...], ...], ...] = ((),) * arity
    else:
        by_variant = _GATE_TEMPLATES[name]
        if variant not in by_variant:
            raise InvalidInputError(f"gate {name!r} has no {variant!r} variant")
        templates = by_variant[variant]
    return TaskSpec(
        name=name,
        arity=arity,
        templates=templates,
        examples=_truth_table(arity, fn),
        description=f"{name} truth table, {variant} template",
    )


def canonical_task_id(raw: str) -> str:
    """Accept prime-N as an alias for primeN; other ids pass through."""
    if raw.startswith("prime-"):
        return "prime" + raw[len("prime-"):]
    return raw


def resolve_task(
    task_id: str,
    bit_order: BitOrder = "msb",
    two_qubit_only: bool = False,
    extended: bool = False,
) -> TaskSpec:
    """Map a task id to its TaskSpec, applying template modifiers.

    extended selects the extended template, which exists for prime5,
    toffoli and fredkin (EXTENDED_TASK_IDS); two_qubit_only strips every
    product term from any task.
    """
    task_id = canonical_task_id(task_id)
    if task_id not in TASK_IDS:
        raise InvalidInputError(
            f"unknown task {task_id!r}, expected one of {', '.join(TASK_IDS)}"
        )
    if extended and two_qubit_only:
        raise InvalidInputError("extended and two_qubit_only are mutually exclusive")
    if extended and task_id not in EXTENDED_TASK_IDS:
        raise InvalidInputError(f"task {task_id!r} has no extended template")
    variant = "extended" if extended else "paper"
    if task_id == "xor":
        task = xor_task()
    elif task_id.startswith("prime"):
        task = prime_task(int(task_id[len("prime"):]), bit_order, variant)
    else:
        task = gate_task(task_id, variant)
    if two_qubit_only:
        description = task.description + ", product terms stripped"
        task = replace(task, templates=((),) * task.n_outputs, description=description)
    return task


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

    The scalar engine evaluates each row with forward_network; the
    statevector engine builds statevector_table once and reads each row's
    outputs at its input bits.
    """
    if net.arity != task.arity:
        raise InvalidInputError("network arity does not match task")
    if net.n_outputs != task.n_outputs:
        raise InvalidInputError("network output count does not match task")
    if engine == "scalar":
        y = np.array([forward_network(net, ex.spins) for ex in task.examples])
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
