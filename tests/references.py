"""Term-by-term references that the tests check the package's code against.

evaluate_potential sums a potential on one spin configuration, the
reference for core.features; hamiltonian is the 2x2 generator whose upper
eigenvector dynamics.instantaneous_upper_eigenstate returns;
excitation_probability reads one qubit's marginal off a register, the
reference for dynamics.statevector_table; update_qubit is the take, take
and stack writer that dynamics._update_qubit must match bit for bit;
cost_csv_text and summary_text are the row-by-row and streaming writers
that harness's emitters must match byte for byte; xor_face searches every
face of a truth table for the oracle's parity obstruction, and staged_lp
stages the oracle's LP as a @ x <= b, c . x and solves it with a simplex
that builds its own tableau and makes Bland's choices in numpy; train is
the per-epoch loop that training.train's blocks of epochs must match bit
for bit, one cost and one tolerance test per epoch.  Nothing in
the package calls them, so they live with the tests, as does
potentials_over, the hypothesis strategy that the engine properties draw
from.
"""

from __future__ import annotations

import io
import itertools
import json

import numpy as np
from hypothesis import strategies as st

from qperceptron import InvalidInputError, MultiQubitTerm, NeuralPotential, SpinConfig
from qperceptron.core import _unpack, features
from qperceptron.dynamics import Statevector
from qperceptron.tasks import (
    _MAX_PIVOTS,
    _PIVOT_TOL,
    FEASIBILITY_MARGIN,
    FeasibilityVerdict,
    TaskSpec,
)
from qperceptron.training import (
    CostCurve,
    _check_seed_epochs,
    _forward,
    _gradients,
    _input_matrix,
    _network,
    _stack,
)


def evaluate_potential(p: NeuralPotential, s: SpinConfig) -> float:
    """Evaluate the potential on one spin configuration.

    Summation order is fixed: linear terms in index order, then multi-qubit
    terms in declaration order, then the bias is subtracted.
    """
    if len(s) != p.arity:
        raise InvalidInputError(
            f"configuration has {len(s)} spins, potential expects {p.arity}"
        )
    total = 0.0
    for w, spin in zip(p.linear_weights, s):
        total += w * spin
    for term in p.multi_terms:
        prod = 1
        for i in term.indices:
            prod *= s[i - 1]
        total += term.weight * prod
    return total - p.bias


def hamiltonian(x: float, omega: float) -> np.ndarray:
    """The 2x2 generator (x * sz + omega * sx) / 2 with sz = diag(-1, +1)."""
    return 0.5 * np.array([[-x, omega], [omega, x]], dtype=complex)


def excitation_probability(state: Statevector, j: int) -> float:
    """Marginal probability that qubit j (1-based, 1 most significant) reads 1."""
    t = state.amplitudes.reshape([2] * state.n)
    return float(np.sum(np.abs(np.take(t, 1, axis=j - 1)) ** 2))


def update_qubit(state: Statevector, j: int, pair) -> np.ndarray:
    """The amplitudes of state with its halves (a0, a1) on qubit j replaced by
    pair(a0, a1): each half taken, and the two results stacked, along axis
    j - 1 of the amplitudes as an n-axis tensor."""
    t = state.amplitudes.reshape([2] * state.n)
    halves = np.take(t, 0, axis=j - 1), np.take(t, 1, axis=j - 1)
    return np.stack(pair(*halves), axis=j - 1).reshape(-1)


def cost_csv_text(costs: np.ndarray) -> str:
    """A cost_seed<seed>.csv formatted one row at a time."""
    rows = ["%d,%.12g\n" % ec for ec in enumerate(costs.tolist(), 1)]
    return "epoch,cost\n" + "".join(rows)


def summary_text(doc) -> str:
    """A summary.json streamed by json.dump, then a newline."""
    fh = io.StringIO()
    json.dump(doc, fh, indent=2)
    fh.write("\n")
    return fh.getvalue()


@st.composite
def potentials_over(draw, k: int) -> NeuralPotential:
    """A potential over k spins: weights in [-2, 2] on up to six product
    terms, drawn from every index set of two or more spins, in any order."""
    weight = st.floats(-2.0, 2.0)
    candidates = [
        c for r in range(2, k + 1) for c in itertools.combinations(range(1, k + 1), r)
    ]
    picks = []
    if candidates:
        picks = draw(st.lists(st.sampled_from(candidates), max_size=6, unique=True))
    return NeuralPotential(
        tuple(draw(weight) for _ in range(k)),
        draw(weight),
        tuple(MultiQubitTerm(t, draw(weight)) for t in picks),
    )


def xor_face(task: TaskSpec, output_index: int) -> bool:
    """Whether some pair of qubits i < j that no template term holds both of
    has a setting of the other bits on which the output's labels are the
    XOR of bits i and j or its complement: every pair, every setting."""
    k = task.arity
    label = {
        tuple(bits): target[output_index]
        for bits, target in zip(task.bits.tolist(), task.targets.tolist())
    }
    template = task.templates[output_index]
    for i, j in itertools.combinations(range(k), 2):
        if any(i + 1 in term and j + 1 in term for term in template):
            continue
        for rest in itertools.product((0, 1), repeat=k - 2):
            face = []
            for bi, bj in ((0, 0), (0, 1), (1, 0), (1, 1)):
                bits = list(rest)
                bits.insert(i, bi)
                bits.insert(j, bj)
                face.append(label[tuple(bits)])
            if face[0] == face[3] != face[1] == face[2]:
                return True
    return False


def staged_lp(task: TaskSpec, output_index: int) -> FeasibilityVerdict:
    """The oracle's LP alone, with no XOR face check: the constraints staged
    as a, b and c, then solved by simplex."""
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
    x = simplex(a, b, np.concatenate([np.zeros(2 * n_params), [1.0]]))
    delta = float(x[-1])
    if delta <= FEASIBILITY_MARGIN:
        return FeasibilityVerdict(False, delta, None)
    theta = x[:n_params] - x[n_params:-1]
    witness = _unpack(task.arity, template, theta / delta)
    return FeasibilityVerdict(True, delta, witness)


def simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """x maximizing c . x subject to a @ x <= b and x >= 0, given b >= 0, by
    the oracle's pivots (Bland's rule) on a tableau built here from a, b, c."""
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
        t -= np.dot(col[:, None], row[None])
        t[r] = row
        t[:, e] = col / -col[r]
        t[r, e] = 1.0 / col[r]
        basic[r], nonbasic[e] = nonbasic[e], basic[r]
    raise RuntimeError(f"feasibility LP failed: no optimum within {_MAX_PIVOTS} pivots")


def train(nets, training_set, config, encoding="spin"):
    """training.train one epoch at a time: each epoch's costs recorded and
    tested against the tolerance, and a network leaving the batch at once."""
    _check_seed_epochs(len(nets), config.max_epochs)
    design, theta, targets = _stack(nets, training_set, encoding)
    n_outputs, n_examples, _ = design.shape
    tol = config.cost_tolerance
    costs = np.empty((len(nets), config.max_epochs))
    ran = np.full(len(nets), config.max_epochs)
    final = np.empty_like(theta)
    active = np.arange(len(nets))
    with np.errstate(over="ignore"):
        q, err = _forward(design, theta, targets)
        for e in range(config.max_epochs):
            theta = theta - config.eta * _gradients(design, q, err)
            q, err = _forward(design, theta, targets)
            c = np.einsum("son,son->s", err, err) / (2.0 * n_examples * n_outputs)
            costs[active, e] = c
            done = c < tol
            ran[active[done]] = e + 1
            final[active[done]] = theta[done]
            keep = ~done
            active, theta, q, err = active[keep], theta[keep], q[keep], err[keep]
            if active.size == 0:
                break
    final[active] = theta
    return [
        (_network(net_s, final[s]), CostCurve(costs[s, : ran[s]], tol))
        for s, net_s in enumerate(nets)
    ]
