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
parameter slots.  One forward pass per epoch gives both the cost recorded
for that epoch and the next epoch's gradient.  cost and quantum_gradients
are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .core import (
    InvalidInputError,
    NeuralPotential,
    SpinConfig,
    _pack,
    _unpack,
    activation,
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

# columns of the cost buffer at the start; it doubles when training runs longer
_INITIAL_EPOCHS = 1024


@dataclass(frozen=True)
class TrainingExample:
    """One truth-table row: an input configuration and its target bits."""

    spins: SpinConfig
    target: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.target) == 0:
            raise InvalidInputError("target must have at least one output bit")
        if any(t not in (0, 1) for t in self.target):
            raise InvalidInputError(f"targets must be 0 or 1, got {self.target}")
        object.__setattr__(self, "target", tuple(int(t) for t in self.target))

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
        if not (self.eta >= 0.0 and np.isfinite(self.eta)):
            raise InvalidInputError("eta must be a finite non-negative real")
        if self.max_epochs < 1:
            raise InvalidInputError("max_epochs must be at least 1")
        if not (self.cost_tolerance > 0.0):
            raise InvalidInputError("cost_tolerance must be positive")
        if not (self.init_range >= 0.0 and np.isfinite(2.0 * self.init_range)):
            raise InvalidInputError("init_range must be >= 0 and 2 * init_range finite")
        if self.plateau_window < 2:
            raise InvalidInputError("plateau_window must be at least 2")
        if not (self.plateau_epsilon > 0.0):
            raise InvalidInputError("plateau_epsilon must be positive")


@dataclass(frozen=True)
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
    seed: int | None = None
    epochs_run: int = 0

    def __post_init__(self) -> None:
        if len(self.perceptrons) == 0:
            raise InvalidInputError("network needs at least one perceptron")
        if any(p.arity != self.arity for p in self.perceptrons):
            raise InvalidInputError("all perceptrons must share the network arity")
        object.__setattr__(self, "perceptrons", tuple(self.perceptrons))

    @property
    def n_outputs(self) -> int:
        return len(self.perceptrons)


@dataclass
class CostCurve:
    """Per-epoch cost trace; epoch e corresponds to costs[e - 1]."""

    costs: np.ndarray
    cost_tolerance: float
    epochs_to_tolerance: int | None = None


def _rows(
    rows: Sequence[TrainingExample], arity: int, n_outputs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Input bits (N, arity) and targets (N, n_outputs) of rows, as int arrays."""
    if len(rows) == 0:
        raise InvalidInputError("training set must not be empty")
    for ex in rows:
        if len(ex.spins) != arity:
            raise InvalidInputError(
                f"example input arity {len(ex.spins)} does not match {arity}"
            )
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
    design: np.ndarray, theta: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """1 + x^2 and the errors f(x) - t of every potential x, both (S, O, N).

    einsum sums each entry over one seed's own row in a fixed order (BLAS
    blocking would depend on the number of rows), so a seed's numbers do not
    depend on which other seeds share the batch.  Callers scope
    np.errstate(over="ignore"), so an overflowing 1 + x^2 only raises.
    """
    x = np.einsum("sop,onp->son", theta, design)
    q = 1.0 + x * x
    if not np.isfinite(q).all():
        raise InvalidInputError(
            "training diverged: a potential is not finite or overflows"
        )
    return q, 0.5 * (1.0 + x / np.sqrt(q)) - targets


def _gradients(design: np.ndarray, q: np.ndarray, err: np.ndarray) -> np.ndarray:
    """(1 / (N k)) * sum_n (y - t) f'(x) * feature, shaped like theta."""
    n_outputs, n_examples, _ = design.shape
    delta = err * (0.5 / np.power(q, 1.5))
    scale = 1.0 / (n_examples * n_outputs)
    return scale * np.einsum("son,onp->sop", delta, design)


def _costs(err: np.ndarray) -> np.ndarray:
    _, n_outputs, n_examples = err.shape
    return np.einsum("son,son->s", err, err) / (2.0 * n_examples * n_outputs)


def _network(net: TrainedNetwork, theta: np.ndarray, epochs_run: int) -> TrainedNetwork:
    perceptrons = tuple(
        _unpack(net.arity, terms, th) for terms, th in zip(_template(net), theta)
    )
    return replace(net, perceptrons=perceptrons, epochs_run=epochs_run)


def _outputs(net: TrainedNetwork, inputs: np.ndarray) -> np.ndarray:
    """Outputs f(x_j) (N, O) of every output j on every input row (N, k)."""
    pairs = zip(net.perceptrons, _template(net))
    xs = [features(inputs, t) @ _pack(p) for p, t in pairs]
    return activation(np.stack(xs, axis=1))


def forward_network(
    net: TrainedNetwork, s: SpinConfig, encoding: Encoding = "spin"
) -> np.ndarray:
    """Output vector y = f(x_j) for one input configuration."""
    if len(s) != net.arity:
        raise InvalidInputError("input arity does not match network")
    return _outputs(net, _input_matrix(np.array([s.bits]), encoding))[0]


def cost(
    net: TrainedNetwork,
    training_set: Sequence[TrainingExample],
    encoding: Encoding = "spin",
) -> float:
    """Mean squared error with the 1 / (2 N k) normalization."""
    return float(_costs(_batch_of_one(net, training_set, encoding)[0])[0])


def _batch_of_one(
    net: TrainedNetwork, training_set: Sequence[TrainingExample], encoding: Encoding
) -> tuple[np.ndarray, np.ndarray]:
    """Errors and gradient of one network as a batch of one."""
    design, theta, targets = _stack([net], training_set, encoding)
    with np.errstate(over="ignore"):  # an overflow raises "diverged" instead
        q, err = _forward(design, theta, targets)
        return err, _gradients(design, q, err)


def quantum_gradients(
    net: TrainedNetwork, training_set: Sequence[TrainingExample]
) -> tuple[PotentialGradient, ...]:
    """Exact cost gradients for every perceptron under the spin encoding."""
    grad = _batch_of_one(net, training_set, "spin")[1][0]
    sizes = [(p.arity, len(p.multi_terms)) for p in net.perceptrons]
    return tuple(
        PotentialGradient(g[:k].copy(), g[k : k + m].copy(), float(g[k + m]))
        for (k, m), g in zip(sizes, grad)
    )


def train(
    net: TrainedNetwork | Sequence[TrainedNetwork],
    training_set: Sequence[TrainingExample],
    config: TrainerConfig,
    encoding: Encoding = "spin",
) -> tuple[TrainedNetwork, CostCurve] | list[tuple[TrainedNetwork, CostCurve]]:
    """Run full-batch epochs until the cost tolerance or the epoch budget.

    The cost recorded for epoch e is evaluated after the e-th update, so
    epochs_to_tolerance counts the updates needed to cross the tolerance.

    net is one network, or a sequence of networks sharing one arity and
    template (one per seed, say); a sequence returns one (network, curve)
    pair per network, in order.  Networks train in lockstep on one stacked
    parameter tensor, and each leaves the batch at the first epoch its cost
    falls below the tolerance.  A network's results are the same whatever
    other networks share its batch.
    """
    single = isinstance(net, TrainedNetwork)
    nets = [net] if single else list(net)
    design, theta, targets = _stack(nets, training_set, encoding)
    n_nets = len(nets)
    costs = np.empty((n_nets, min(config.max_epochs, _INITIAL_EPOCHS)))
    ran = np.full(n_nets, config.max_epochs)
    final = np.empty_like(theta)
    active = np.arange(n_nets)
    # one scope for the whole run: an overflow raises "diverged" instead
    with np.errstate(over="ignore"):
        q, err = _forward(design, theta, targets)
        for e in range(config.max_epochs):
            theta = theta - config.eta * _gradients(design, q, err)
            q, err = _forward(design, theta, targets)
            c = _costs(err)
            if e == costs.shape[1]:  # double the buffer, up to the budget
                more = np.empty((n_nets, min(e, config.max_epochs - e)))
                costs = np.hstack([costs, more])
            costs[active, e] = c
            done = c < config.cost_tolerance
            if done.any():
                stopped = active[done]
                ran[stopped] = e + 1
                final[stopped] = theta[done]
                keep = ~done
                active, theta, q, err = active[keep], theta[keep], q[keep], err[keep]
                if active.size == 0:
                    break
    final[active] = theta
    pairs = []
    for s, net_s in enumerate(nets):
        n = int(ran[s])
        curve = CostCurve(costs[s, :n].copy(), config.cost_tolerance)
        if curve.costs[-1] < config.cost_tolerance:
            curve.epochs_to_tolerance = n
        pairs.append((_network(net_s, final[s], net_s.epochs_run + n), curve))
    return pairs[0] if single else pairs


def detect_plateau(curve: CostCurve, config: TrainerConfig) -> float | None:
    """Mean of the trailing window when its spread is below plateau_epsilon."""
    if len(curve.costs) <= config.plateau_window:
        raise InvalidInputError(
            f"curve of {len(curve.costs)} epochs is too short for window "
            f"{config.plateau_window}"
        )
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
    one draw laid out as core's feature map.
    """
    rng = np.random.default_rng(config.seed)
    r = config.init_range
    perceptrons = tuple(
        _unpack(arity, terms, rng.uniform(-r, r, arity + len(terms) + 1))
        for terms in templates
    )
    return TrainedNetwork(perceptrons, arity, task_name=task_name, seed=config.seed)
