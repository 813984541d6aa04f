"""Benchmark task definitions and exact-representability checks.

Every task is a complete truth table over k input bits together with one
multi-qubit term template per output perceptron.  Inputs enumerate all 2^k
bit strings; targets are the task's output bits for each string.  A TaskSpec
holds its rows in basis order, row r on basis state r, whatever order they
were given in, so no consumer re-indexes them.

The representability oracle answers whether some setting of a perceptron's
parameters classifies every row with the correct sign of the potential.  It
first looks for an XOR face in the labels as one Python int, a parity
obstruction that proves the answer is no at once; linear programming over
the full truth table decides every output without one.  It is exhaustive
and only intended for small registers (k <= 5).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .core import (
    MAX_ARITY,
    InvalidInputError,
    NeuralPotential,
    _activations,
    _bit_rows,
    _features,
    _instance,
    _integer,
    _pack,
    _real,
    _sequence,
    _unpack,
    enumerate_inputs,
)
from .dynamics import statevector_table
from .training import TrainedNetwork, TrainingExample, _input_matrix, _rows

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
# verify_truth_table reads an output above this as 1, at or below it as 0,
# and an output within TIE_BAND of it as a tie, neither: its potential is
# within rounding of 0, so each engine's last bits would decide it
OUTPUT_THRESHOLD = 0.5
TIE_BAND = 1e-12
MAX_ORACLE_ARITY = 5
# Bland's rule ends every solve in exact arithmetic; the cap, ~7x the most
# pivots seen on 4,900 random k <= 5 tables (147), stops a numerical stall
_MAX_PIVOTS = 1000
_PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class TaskSpec:
    """A truth-table learning problem with per-output term templates.

    Row r of the table is basis state r: construction sorts the examples by
    input once, so a table compares, hashes and computes the same in any
    order its rows are given.  bits (2^arity, arity) and targets
    (2^arity, n_outputs) are the sorted rows' input bits and target bits as
    read-only int arrays; they take no part in equality.  Construction
    checks that arity is an integer in 1..MAX_ARITY, that the examples are a
    sequence of TrainingExample rows holding each input exactly once, and
    that every template is one a NeuralPotential over arity spins accepts;
    a template is stored as a tuple of index tuples.
    """

    name: str
    arity: int
    templates: Templates
    examples: tuple[TrainingExample, ...]
    bits: np.ndarray = field(init=False, repr=False, compare=False)
    targets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arity = _integer(self.arity, "arity", 1, MAX_ARITY)
        templates = _sequence(self.templates, "templates", lambda t: _sequence(t, "templates"))
        if len(templates) == 0:
            raise InvalidInputError("task needs at least one output")
        potentials = [_unpack(arity, t, np.zeros(arity + len(t) + 1)) for t in templates]
        templates = tuple(tuple(t.indices for t in p.multi_terms) for p in potentials)
        examples = _sequence(
            self.examples, "examples", lambda ex: _instance(ex, TrainingExample, "every example")
        )
        if len(examples) != 2**arity:  # before any array of 2^arity rows
            raise InvalidInputError(f"task must hold the full truth table of {2**arity} rows")
        examples = tuple(sorted(examples, key=operator.attrgetter("spins.spins")))
        bits, targets = _rows(examples, arity, len(templates))
        if not np.array_equal(bits, _bit_rows(arity)):
            raise InvalidInputError("task must enumerate the full truth table")
        bits.flags.writeable = targets.flags.writeable = False
        names = ("arity", "templates", "examples", "bits", "targets")
        for name, value in zip(names, (arity, templates, examples, bits, targets)):
            object.__setattr__(self, name, value)

    @property
    def n_outputs(self) -> int:
        return len(self.templates)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


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
    if not isinstance(raw, str):
        raise InvalidInputError(f"task id must be a string, got {raw!r}")
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
    elif isinstance(template, str) and template in stored:
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


Rows = tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class TruthTableReport:
    """Row-by-row comparison of thresholded network outputs to targets.

    mismatches holds (input bits, predicted, expected) per wrong row; ties
    holds (input bits, 1-based outputs in the tie band, expected) per row
    with an output within TIE_BAND of OUTPUT_THRESHOLD, which is neither
    correct nor wrong.
    """

    n_rows: int
    n_correct: int
    mismatches: Rows
    max_abs_error: float
    ties: Rows

    @property
    def all_correct(self) -> bool:
        return self.n_correct == self.n_rows


def verify_truth_table(
    net: TrainedNetwork,
    task: TaskSpec,
    engine: Literal["scalar", "statevector"] = "scalar",
) -> TruthTableReport:
    """Threshold every output on every row at OUTPUT_THRESHOLD; a row with
    an output within TIE_BAND of it is a tie.

    The scalar engine evaluates every row at once with the activation of
    each output's potential; the statevector engine builds
    statevector_table once, whose row r is basis state r, as is the task's.
    """
    if _instance(net, TrainedNetwork, "net").arity != _instance(task, TaskSpec, "task").arity:
        raise InvalidInputError("network arity does not match task")
    if net.n_outputs != task.n_outputs:
        raise InvalidInputError("network output count does not match task")
    if engine == "scalar":
        y = _activations(net.perceptrons, _input_matrix(task.bits, "spin"))
    elif engine == "statevector":
        y = statevector_table(net.perceptrons)
    else:
        raise InvalidInputError(f"unknown engine {engine!r}")
    predicted = (y > OUTPUT_THRESHOLD).astype(int)
    tied = np.abs(y - OUTPUT_THRESHOLD) <= TIE_BAND
    tie = tied.any(axis=1)
    wrong = (predicted != task.targets).any(axis=1) & ~tie
    mismatches = _rows_at(wrong, task.bits, predicted, task.targets)
    ties = tuple(
        (bits, tuple(j + 1 for j, t in enumerate(row) if t), expected)
        for bits, row, expected in _rows_at(tie, task.bits, tied, task.targets)
    )
    n_rows = len(task.bits)
    return TruthTableReport(
        n_rows=n_rows,
        n_correct=n_rows - len(mismatches) - len(ties),
        mismatches=mismatches,
        max_abs_error=float(np.max(np.abs(y - task.targets))),
        ties=ties,
    )


def _rows_at(mask: np.ndarray, *columns: np.ndarray) -> Rows:
    """Per row where mask holds, its row of each column as a tuple of ints."""
    picked = (c[mask].tolist() for c in columns)
    return tuple(tuple(map(tuple, row)) for row in zip(*picked)) if mask.any() else ()


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the sign-representability oracle for one output perceptron."""

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

    Before the LP, an output with an XOR face (see _xor_face) is returned
    infeasible with margin 0.0 and no witness, the LP's own answer there,
    since the face certifies delta* = 0 exactly.  The LP decides the rest.
    """
    if _instance(task, TaskSpec, "task").arity > MAX_ORACLE_ARITY:
        raise InvalidInputError(f"oracle is exhaustive and limited to arity {MAX_ORACLE_ARITY}")
    output_index = _integer(output_index, "output_index", 0, task.n_outputs - 1)
    if _xor_face(task, output_index):
        return FeasibilityVerdict(False, 0.0, None)
    template = task.templates[output_index]
    phi = _features(_input_matrix(task.bits, "spin"), template)
    signs = 2.0 * task.targets[:, output_index] - 1.0
    n_rows, n_params = phi.shape
    signed = signs[:, None] * phi
    # _simplex's tableau.  Columns: theta+, theta-, delta, right-hand side;
    # rows: the truth table, theta+_i + theta-_i <= 1, delta <= 1, objective
    t = np.zeros((n_rows + n_params + 2, 2 * n_params + 2))
    t[:n_rows, :n_params] = -signed
    t[:n_rows, n_params:-2] = signed
    t[:n_rows, -2] = 1.0
    box = np.arange(n_params)
    t[n_rows + box, box] = t[n_rows + box, n_params + box] = 1.0
    t[-2, -2] = 1.0
    t[n_rows:-1, -1] = 1.0
    t[-1, -2] = -1.0
    x = _simplex(t)
    delta = float(x[-1])
    if delta <= FEASIBILITY_MARGIN:
        return FeasibilityVerdict(False, delta, None)
    theta = x[:n_params] - x[n_params:-1]
    witness = _unpack(task.arity, template, theta / delta)
    return FeasibilityVerdict(True, delta, witness)


def _xor_face(task: TaskSpec, output_index: int) -> bool:
    """Whether the output has an XOR face: qubits i < j that no template term
    holds both of, and a setting of the other bits on which the labels are
    the XOR of bits i and j or its complement.

    Every feature then holds at most one of s_i and s_j, so the face's four
    signed feature rows sum to zero (a Gordan certificate): delta* = 0.
    Bit r of labels is the label of the task's row r, which is basis state r;
    flip(mask, i) moves bit r to r with qubit i + 1 flipped (low holds the
    rows where it is 0).  The face through r is XOR iff the label flips
    along i at r and at r with qubit j flipped, and along j at r.  Python
    ints have no width: any arity works.
    """
    k = task.arity
    labels = sum(1 << r for r, y in enumerate(task.targets[:, output_index].tolist()) if y)

    def flip(mask: int, i: int) -> int:
        s = 1 << (k - 1 - i)
        low = ((1 << s) - 1) * (((1 << 2**k) - 1) // ((1 << 2 * s) - 1))
        return (mask & low) << s | (mask >> s) & low

    flips = [labels ^ flip(labels, i) for i in range(k)]
    template = task.templates[output_index]
    joined = {pair for term in template for pair in itertools.combinations(term, 2)}
    return any(
        flips[i] & flips[j] & flip(flips[i], j)
        for i, j in itertools.combinations(range(k), 2)
        if (i + 1, j + 1) not in joined
    )


def _simplex(t: np.ndarray) -> np.ndarray:
    """x maximizing c . x subject to a @ x <= b and x >= 0, given b >= 0,
    pivoting in place on the (m + 1) x (n + 1) tableau t = [[a, b], [-c, 0]].

    Dense primal simplex from the all-slack basis, which b >= 0 makes
    feasible.  The tableau keeps one row per basic variable and one column
    per nonbasic one (x is numbered 0..n-1, the slacks n..n+m-1), plus the
    objective row and the right-hand side.  Bland's rule, read off the
    tableau as Python floats, picks the lowest-numbered improving column
    and, among rows tied in the ratio test, the lowest-numbered basic
    variable, so degenerate pivots cannot cycle; numpy does the pivot.  The
    LP must be bounded, as the oracle's is by its rows.
    """
    m, n = t.shape[0] - 1, t.shape[1] - 1
    basic = list(range(n, n + m))
    nonbasic = list(range(n))
    for _ in range(_MAX_PIVOTS):
        improving = [v for v, c in zip(nonbasic, t[m, :-1].tolist()) if c < -_PIVOT_TOL]
        if not improving:
            x = np.zeros(n + m)
            x[basic] = t[:m, -1]
            return x[:n]
        e = nonbasic.index(min(improving))
        col = t[:, e].copy()
        entries, rhs = col[:m].tolist(), t[:m, -1].tolist()
        rows = [i for i, c in enumerate(entries) if c > _PIVOT_TOL]
        least = min([rhs[i] / entries[i] for i in rows]) + _PIVOT_TOL
        r = min([(basic[i], i) for i in rows if rhs[i] / entries[i] <= least])[1]
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
    """Multiply every weight and the bias by factor; the sign pattern is kept.
    A factor that is not a finite real, or a product that overflows, raises
    InvalidInputError."""
    factor = _real(factor, "scale factor")
    with np.errstate(over="ignore"):  # _unpack rejects an overflowed weight
        terms = [t.indices for t in _instance(p, NeuralPotential, "p").multi_terms]
        return _unpack(p.arity, terms, _pack(p) * factor)
