"""Simulator and trainer for qubit perceptrons with multi-qubit potentials.

A perceptron here is an output qubit whose excitation probability follows
f(x) = (1 + x / sqrt(1 + x^2)) / 2, with x a weighted Ising potential over
the input qubits: linear couplings, optional multi-qubit product terms, and
a bias.  The package trains networks of such perceptrons on truth-table
tasks by exact full-batch gradient descent, simulates the underlying
adiabatic and gate-level dynamics, and audits which truth tables each
template can represent at all.
"""

from __future__ import annotations

from .core import (
    MAX_ARITY,
    InvalidInputError,
    MultiQubitTerm,
    NeuralPotential,
    SpinConfig,
    activation,
    activation_derivative,
    bits_to_spins,
    enumerate_inputs,
    features,
    reparameterize_bits_to_spins,
)
from .dynamics import (
    AdiabaticProfile,
    AdiabaticSchedule,
    IntegratorError,
    InvalidWiringError,
    ScheduleTooFastError,
    Statevector,
    adiabatic_evolve,
    adiabatic_profile,
    apply_hadamard,
    apply_network,
    apply_perceptron_gate,
    basis_state,
    default_schedule,
    excitation_probability,
    forward_statevector,
    instantaneous_upper_eigenstate,
    statevector_table,
    zero_state,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    SeedOutcome,
    cli,
    emit_cost_curve_csv,
    emit_summary,
    load_network_from_summary,
    load_summary,
    main,
    run_experiment,
)
from .tasks import (
    TASK_IDS,
    TEMPLATES,
    FeasibilityVerdict,
    TaskSpec,
    TruthTableReport,
    canonical_task_id,
    check_exact_representability,
    resolve_task,
    scale_potential,
    verify_truth_table,
)
from .training import (
    CostCurve,
    PotentialGradient,
    TrainedNetwork,
    TrainerConfig,
    TrainingExample,
    cost,
    detect_plateau,
    forward_network,
    initialize_network,
    quantum_gradients,
    train,
)

__version__ = "0.1.0"
