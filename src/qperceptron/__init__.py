"""Simulator and trainer for qubit perceptrons with multi-qubit potentials.

A perceptron here is an output qubit whose excitation probability follows
f(x) = (1 + x / sqrt(1 + x^2)) / 2, with x a weighted Ising potential over
the input qubits: linear couplings, optional multi-qubit product terms, and
a bias.  The package trains networks of such perceptrons on truth-table
tasks by exact full-batch gradient descent, simulates the underlying
adiabatic and gate-level dynamics, and audits which truth tables each
template can represent at all.
"""

from .core import *
from .dynamics import *
from .harness import *
from .tasks import *
from .training import *

__version__ = "0.1.0"
