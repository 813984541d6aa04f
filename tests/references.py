"""Term-by-term references that the tests check the package's code against.

evaluate_potential sums a potential on one spin configuration, the
reference for core.features; hamiltonian is the 2x2 generator whose upper
eigenvector dynamics.instantaneous_upper_eigenstate returns.  Nothing in the
package calls either, so they live with the tests.
"""

from __future__ import annotations

import numpy as np

from qperceptron import InvalidInputError, NeuralPotential, SpinConfig


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
