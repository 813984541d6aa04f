"""Term-by-term references that the tests check the package's code against.

evaluate_potential sums a potential on one spin configuration, the
reference for core.features; hamiltonian is the 2x2 generator whose upper
eigenvector dynamics.instantaneous_upper_eigenstate returns;
excitation_probability reads one qubit's marginal off a register, the
reference for dynamics.statevector_table; cost_csv_text and summary_text
are the row-by-row and streaming writers that harness's emitters must
match byte for byte.  Nothing in the package calls them, so they live with
the tests, as does potentials_over, the hypothesis strategy that the engine
properties draw from.
"""

from __future__ import annotations

import io
import itertools
import json

import numpy as np
from hypothesis import strategies as st

from qperceptron import InvalidInputError, MultiQubitTerm, NeuralPotential, SpinConfig
from qperceptron.dynamics import Statevector


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
