"""Full-batch gradient-descent training of perceptron networks.

The forward model for each output j is y_j = f(x_j) with x_j the neural
potential of perceptron j evaluated on the encoded input row.  Quantum runs
encode inputs as spins (+1/-1), classical runs as raw bits (0/1).  The cost
is the mean squared error with a global 1/2 factor,

    C = 1 / (2 N k) * sum_n sum_j (y_j - t_j)^2,

whose exact parameter gradient is (1 / (N k)) * sum (y - t) f'(x) * feature,
where the feature is the input value for a linear weight, the product of
input values for a multi-qubit weight, and -1 for the bias.

All training runs one batched kernel: the parameters of S networks that
share a template (one per seed) form one tensor (S, O, P), evaluated against
one zero-padded design tensor (O, N, P) for O outputs, N rows and P
parameter slots.  One forward pass per epoch gives the errors of that epoch
and the next epoch's gradient.  Epochs run in blocks of _BLOCK_EPOCHS that
keep their epochs' parameters and errors; one einsum at a block's end gives
all its costs, and each seed's first cost below the tolerance fixes its stop
epoch.  cost and quantum_gradients are batches of one.

Training uses only correctly rounded operations and fixed-order einsums,
never a power, so its bits do not depend on numpy's CPU dispatch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .core import (
    _POSITIVE,
    MAX_ARITY,
    InvalidInputError,
    NeuralPotential,
    SpinConfig,
    _activations,
    _instance,
    _integer,
    _pack,
    _real,
    _sequence,
    _unpack,
    features,
)

__all__ = [
    "TrainingExample",
    "TrainerConfig",
    "PotentialGradient",
    "TrainedNetwork",
    "CostCurve",
    "forward_network",
    "cost",
    "quantum_gradients",
    "train",
    "detect_plateau",
    "initialize_network",
]

Encoding = Literal["spin", "bit"]

# at most this many seed-epochs (seeds x max_epochs) in one run: 10,000 seeds
# at the default max_epochs, a cost record of at most 400 MB
MAX_SEED_EPOCHS = 5 * 10**7

# epochs in one of train's blocks
_BLOCK_EPOCHS = 8


@dataclass(frozen=True)
class TrainingExample:
    """One truth-table row: an input configuration and its target bits."""

    spins: SpinConfig
    target: tuple[int, ...]

    def __post_init__(self) -> None:
        _instance(self.spins, SpinConfig, "example spins")
        target = _sequence(self.target, "target")
        if len(target) == 0:
            raise InvalidInputError("target must have at least one output bit")
        if any(t not in (0, 1) for t in target):
            raise InvalidInputError(f"targets must be 0 or 1, got {target}")
        object.__setattr__(self, "target", tuple(int(t) for t in target))

    @property
    def bits(self) -> tuple[int, ...]:
        return self.spins.bits


@dataclass(frozen=True)
class TrainerConfig:
    """Gradient-descent hyperparameters and stopping rules."""

    eta: float = 1.5
    max_epochs: int = 5000
    cost_tolerance: float = 0.01
    init_range: float = 0.5
    seed: int = 0
    plateau_window: int = 200
    plateau_epsilon: float = 5e-4

    def __post_init__(self) -> None:
        _real(self.eta, "eta", 0.0)
        _integer(self.max_epochs, "max_epochs", 1)
        _real(self.cost_tolerance, "cost_tolerance", _POSITIVE)
        # weights are drawn from [-init_range, init_range], a finite span
        _real(self.init_range, "init_range", 0.0, sys.float_info.max / 2)
        _integer(self.seed, "seed", 0)
        _integer(self.plateau_window, "plateau_window", 2)
        _real(self.plateau_epsilon, "plateau_epsilon", _POSITIVE)


@dataclass(frozen=True, eq=False)
class PotentialGradient:
    """Cost gradient with the same layout as a NeuralPotential."""

    linear: np.ndarray
    multi: np.ndarray
    bias: float


@dataclass(frozen=True)
class TrainedNetwork:
    """One perceptron per output, all sharing the same input arity."""

    perceptrons: tuple[NeuralPotential, ...]
    arity: int
    task_name: str = ""

    def __post_init__(self) -> None:
        perceptrons = _sequence(self.perceptrons, "perceptrons", NeuralPotential)
        arity = _integer(self.arity, "arity", 1)
        if len(perceptrons) == 0:
            raise InvalidInputError("network needs at least one perceptron")
        if any(p.arity != arity for p in perceptrons):
            raise InvalidInputError("all perceptrons must share the network arity")
        object.__setattr__(self, "perceptrons", perceptrons)
        object.__setattr__(self, "arity", arity)

    @property
    def n_outputs(self) -> int:
        return len(self.perceptrons)


@dataclass(frozen=True, eq=False)
class CostCurve:
    """Per-epoch cost trace; epoch e corresponds to costs[e - 1]."""

    costs: np.ndarray
    cost_tolerance: float

    @property
    def epochs_to_tolerance(self) -> int | None:
        """Epochs run if the last cost is below the tolerance, else None."""
        n = len(self.costs)
        return n if n and self.costs[-1] < self.cost_tolerance else None


def _rows(
    rows: Sequence[TrainingExample], arity: int, n_outputs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Input bits (N, arity) and targets (N, n_outputs) of rows, as int arrays."""
    rows = _sequence(rows, "training_set", TrainingExample)
    if len(rows) == 0:
        raise InvalidInputError("training set must not be empty")
    for ex in rows:
        if len(ex.spins) != arity:
            raise InvalidInputError(f"example input arity {len(ex.spins)} does not match {arity}")
        if len(ex.target) != n_outputs:
            raise InvalidInputError(
                f"example target width {len(ex.target)} does not match "
                f"{n_outputs} outputs"
            )
    spins = np.array([ex.spins.spins for ex in rows])
    return (spins + 1) // 2, np.array([ex.target for ex in rows])


def _input_matrix(bits: np.ndarray, encoding: Encoding) -> np.ndarray:
    """Bit rows (N, k) encoded as spins or bits, as floats."""
    if encoding == "spin":
        return 2.0 * bits - 1.0
    if encoding == "bit":
        return bits.astype(float)
    raise InvalidInputError(f"unknown encoding {encoding!r}")


def _template(net: TrainedNetwork) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(tuple(t.indices for t in p.multi_terms) for p in net.perceptrons)


def _stack(
    nets: Sequence[TrainedNetwork],
    training_set: Sequence[TrainingExample],
    encoding: Encoding,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design tensor (O, N, P), parameters (S, O, P) and targets (O, N).

    Output j fills its first arity + len(terms_j) + 1 slots in _pack order;
    the slots past them are zero in both tensors, so they add exact zeros.
    """
    if len(nets) == 0:
        raise InvalidInputError("training needs at least one network")
    first = nets[0]
    template = _template(first)
    if any(n.arity != first.arity or _template(n) != template for n in nets):
        raise InvalidInputError(
            "networks trained together must share arity and template"
        )
    bits, targets = _rows(training_set, first.arity, first.n_outputs)
    inputs = _input_matrix(bits, encoding)
    widths = [first.arity + len(terms) + 1 for terms in template]
    design = np.zeros((len(widths), len(training_set), max(widths)))
    theta = np.zeros((len(nets), len(widths), max(widths)))
    for j, terms in enumerate(template):
        design[j, :, : widths[j]] = features(inputs, terms)
    for s, net in enumerate(nets):
        for j, p in enumerate(net.perceptrons):
            theta[s, j, : widths[j]] = _pack(p)
    return design, theta, targets.T.astype(float)


def _forward(
    design: np.ndarray,
    theta: np.ndarray,
    targets: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """q32 = q * sqrt(q), q = 1 + x^2, and the errors f(x) - t of every
    potential x, both (S, O, N); the errors go to out when it is given.

    einsum sums each entry over one seed's own row in a fixed order (BLAS
    blocking would depend on the number of rows), so a seed's numbers do not
    depend on which other seeds share the batch.  Callers scope
    np.errstate(over="ignore"), so an overflowing 1 + x^2 only raises.
    q = 1 + x^2 is at least 1 unless it is inf or NaN, and max propagates
    NaN, so one reduce tests every potential.
    """
    x = np.einsum("sop,onp->son", theta, design)
    q = 1.0 + x * x
    if not q.max() < np.inf:
        raise InvalidInputError(
            "training diverged: a potential is not finite or overflows"
        )
    root = np.sqrt(q)
    return q * root, np.subtract(0.5 * (1.0 + x / root), targets, out=out)


def _gradients(design: np.ndarray, q32: np.ndarray, err: np.ndarray) -> np.ndarray:
    """(1 / (N k)) * sum_n (y - t) f'(x) * feature, shaped like theta; f'(x) = 0.5 / q32."""
    n_outputs, n_examples, _ = design.shape
    delta = err * (0.5 / q32)
    scale = 1.0 / (n_examples * n_outputs)
    return scale * np.einsum("son,onp->sop", delta, design)


def _costs(errs: np.ndarray) -> np.ndarray:
    """Costs (E, S) of the errors (E, S, O, N) of E epochs."""
    *_, n_outputs, n_examples = errs.shape
    return np.einsum("eson,eson->es", errs, errs) / (2.0 * n_examples * n_outputs)


def _network(net: TrainedNetwork, theta: np.ndarray) -> TrainedNetwork:
    perceptrons = tuple(
        _unpack(net.arity, terms, th) for terms, th in zip(_template(net), theta)
    )
    return replace(net, perceptrons=perceptrons)


def forward_network(
    net: TrainedNetwork, s: SpinConfig, encoding: Encoding = "spin"
) -> np.ndarray:
    """Output vector y = f(x_j) for one input configuration."""
    if len(_instance(s, SpinConfig, "s")) != _instance(net, TrainedNetwork, "net").arity:
        raise InvalidInputError("input arity does not match network")
    inputs = _input_matrix(np.array([s.bits]), encoding)
    return _activations(net.perceptrons, inputs)[0]


def cost(
    net: TrainedNetwork,
    training_set: Sequence[TrainingExample],
    encoding: Encoding = "spin",
) -> float:
    """Mean squared error with the 1 / (2 N k) normalization."""
    net = _instance(net, TrainedNetwork, "net")
    design, theta, targets = _stack([net], training_set, encoding)
    with np.errstate(over="ignore"):  # an overflow raises "diverged" instead
        return float(_costs(_forward(design, theta, targets)[1][None])[0, 0])


def quantum_gradients(
    net: TrainedNetwork, training_set: Sequence[TrainingExample]
) -> tuple[PotentialGradient, ...]:
    """Exact cost gradients for every perceptron under the spin encoding."""
    design, theta, targets = _stack([_instance(net, TrainedNetwork, "net")], training_set, "spin")
    with np.errstate(over="ignore"):  # an overflow raises "diverged" instead
        grad = _gradients(design, *_forward(design, theta, targets))[0]
    sizes = [(p.arity, len(p.multi_terms)) for p in net.perceptrons]
    return tuple(
        PotentialGradient(g[:k].copy(), g[k : k + m].copy(), float(g[k + m]))
        for (k, m), g in zip(sizes, grad)
    )


def _check_seed_epochs(seeds: int, max_epochs: int) -> None:
    """InvalidInputError if seeds x max_epochs exceeds MAX_SEED_EPOCHS."""
    if seeds * max_epochs > MAX_SEED_EPOCHS:
        raise InvalidInputError(
            f"seeds x max_epochs = {seeds} x {max_epochs} exceeds the budget of "
            f"{MAX_SEED_EPOCHS} seed-epochs"
        )


def train(
    nets: Sequence[TrainedNetwork],
    training_set: Sequence[TrainingExample],
    config: TrainerConfig,
    encoding: Encoding = "spin",
) -> list[tuple[TrainedNetwork, CostCurve]]:
    """Run full-batch epochs until the cost tolerance or the epoch budget.

    The cost recorded for epoch e is evaluated after the e-th update, so
    epochs_to_tolerance counts the updates needed to cross the tolerance.

    nets share one arity and template (one per seed, say); the result holds
    one (network, curve) pair per network, in order.  Networks train in
    lockstep on one stacked parameter tensor, and each stops at the first
    epoch its cost falls below the tolerance, with that epoch's weights.
    Epochs run in blocks of _BLOCK_EPOCHS; the block's costs, and so the
    stops, are computed once at its end, and a network that stopped leaves
    the batch there.  A potential that is not finite ends its block before
    its epoch, which reruns for the networks that had not stopped, so
    "diverged" is raised only if one of them diverges.  A network's results
    are the same whatever other networks share its batch.  The block
    buffers, whose leading rows the running networks fill, are allocated
    once, as is the cost record: (len(nets), max_epochs), at most
    MAX_SEED_EPOCHS entries, written only through each network's last epoch,
    so only the epochs that run touch its memory.  Each curve is a view of
    its network's row, so it keeps the whole record alive.
    """
    nets = _sequence(nets, "nets", TrainedNetwork)
    _check_seed_epochs(len(nets), _instance(config, TrainerConfig, "config").max_epochs)
    design, theta, targets = _stack(nets, training_set, encoding)
    n_nets = len(nets)
    tol = config.cost_tolerance
    costs = np.empty((n_nets, config.max_epochs))
    ran = np.full(n_nets, config.max_epochs)
    final = np.empty_like(theta)
    active = np.arange(n_nets)
    start = 0  # the first epoch of the block
    # one scope for the whole run: an overflow raises "diverged" instead
    with np.errstate(over="ignore"):
        q32, err = _forward(design, theta, targets)
        thetas = np.empty((_BLOCK_EPOCHS, *theta.shape))
        errs = np.empty((_BLOCK_EPOCHS, *err.shape))
        while active.size and start < config.max_epochs:
            n = active.size  # the running networks fill the leading rows
            size = min(_BLOCK_EPOCHS, config.max_epochs - start)
            for i in range(size):
                grad = _gradients(design, q32, err)
                theta = np.subtract(theta, config.eta * grad, out=thetas[i, :n])
                try:
                    q32, err = _forward(design, theta, targets, errs[i, :n])
                except InvalidInputError:
                    if i == 0:  # no network in the batch has stopped
                        raise
                    size, theta = i, thetas[i - 1, :n]  # q32, err: still epoch i - 1's
                    break
            c = _costs(errs[:size, :n])
            if c.min() < tol:  # costs are finite: _forward checks
                below = c < tol
                done = below.any(axis=0)
                stop = below.argmax(axis=0)  # the first epoch below, per network
                for s in done.nonzero()[0]:
                    costs[active[s], start : start + stop[s] + 1] = c[: stop[s] + 1, s]
                ran[active[done]] = start + stop[done] + 1
                final[active[done]] = thetas[stop[done], done.nonzero()[0]]
                keep = ~done
                active, c, theta, q32, err = (
                    active[keep], c[:, keep], theta[keep], q32[keep], err[keep]
                )
            costs[active, start : start + size] = c.T
            start += size
    final[active] = theta
    return [
        (_network(net_s, final[s]), CostCurve(costs[s, : ran[s]], tol))
        for s, net_s in enumerate(nets)
    ]


def detect_plateau(curve: CostCurve, config: TrainerConfig) -> float | None:
    """Mean of the trailing window when its spread is below plateau_epsilon;
    None otherwise, and for a curve no longer than the window."""
    _instance(curve, CostCurve, "curve")
    if len(curve.costs) <= _instance(config, TrainerConfig, "config").plateau_window:
        return None
    window = curve.costs[-config.plateau_window :]
    if float(window.max() - window.min()) < config.plateau_epsilon:
        return float(window.mean())
    return None


def initialize_network(
    arity: int,
    templates: Sequence[Sequence[tuple[int, ...]]],
    config: TrainerConfig,
    task_name: str = "",
) -> TrainedNetwork:
    """Draw every weight uniformly from [-init_range, init_range].

    templates[j] lists the multi-qubit index tuples of perceptron j.  Draw
    order is fixed per perceptron: linear weights, term weights, bias, in
    one draw laid out as core's feature map.  arity is at most MAX_ARITY.
    """
    arity = _integer(arity, "arity", 1, MAX_ARITY)
    templates = _sequence(templates, "templates", lambda t: _sequence(t, "templates"))
    rng = np.random.default_rng(_instance(config, TrainerConfig, "config").seed)
    r = config.init_range
    perceptrons = tuple(
        _unpack(arity, terms, rng.uniform(-r, r, arity + len(terms) + 1))
        for terms in templates
    )
    return TrainedNetwork(perceptrons, arity, task_name=task_name)
