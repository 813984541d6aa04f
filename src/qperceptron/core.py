"""Spin configurations, neural potentials, and the qubit activation response.

Conventions used throughout the package:

* a classical bit b in {0, 1} maps to the spin value 2*b - 1, so the qubit
  ground state carries spin -1 and the excited state spin +1;
* input registers are written most-significant bit first, so the integer 6
  on three qubits is the bit string (1, 1, 0);
* a neural potential over k spins is a linear form plus optional products
  of two or more spins minus a threshold (bias).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "MAX_ARITY",
    "InvalidInputError",
    "SpinConfig",
    "MultiQubitTerm",
    "NeuralPotential",
    "activation",
    "activation_derivative",
    "bits_to_spins",
    "features",
    "enumerate_inputs",
    "reparameterize_bits_to_spins",
]

MAX_ARITY = 16
# activation clips its input to +-ACTIVATION_CLIP, where x * x stays finite
# and f already rounds to exactly 0 or 1.
ACTIVATION_CLIP = 1e150


class InvalidInputError(ValueError):
    """Raised when a value violates a documented precondition."""


def _check_finite(x: np.ndarray | float, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} must be finite, got {x!r}")


def activation(x):
    """Excitation probability response f(x) = (1 + x / sqrt(1 + x^2)) / 2.

    Smooth, strictly increasing, f(0) = 1/2, with limits 0 and 1 at -inf
    and +inf, reached exactly beyond |x| = ACTIVATION_CLIP.  Accepts scalars
    or arrays; rejects non-finite input.
    """
    x = np.asarray(x, dtype=float)
    _check_finite(x, "activation input")
    # np.minimum/np.maximum cost about half as much as np.clip per call
    x = np.minimum(np.maximum(x, -ACTIVATION_CLIP), ACTIVATION_CLIP)
    out = 0.5 * (1.0 + x / np.sqrt(1.0 + x * x))
    return float(out) if out.ndim == 0 else out


def activation_derivative(x):
    """Slope of the activation, f'(x) = 1 / (2 (1 + x^2)^(3/2))."""
    x = np.asarray(x, dtype=float)
    _check_finite(x, "activation input")
    with np.errstate(over="ignore"):  # beyond |x| ~ 1e154 the slope is exactly 0
        out = 0.5 / np.power(1.0 + x * x, 1.5)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SpinConfig:
    """Ordered spin assignment, one entry of +1 or -1 per qubit."""

    spins: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.spins) == 0:
            raise InvalidInputError("spin configuration must not be empty")
        if any(s not in (-1, 1) for s in self.spins):
            raise InvalidInputError(f"spins must be +1 or -1, got {self.spins}")
        object.__setattr__(self, "spins", tuple(int(s) for s in self.spins))

    def __len__(self) -> int:
        return len(self.spins)

    def __iter__(self) -> Iterator[int]:
        return iter(self.spins)

    def __getitem__(self, i: int) -> int:
        return self.spins[i]

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((s + 1) // 2 for s in self.spins)


def bits_to_spins(bits: Sequence[int]) -> SpinConfig:
    """Map a bit sequence to spins via b -> 2*b - 1."""
    if any(b not in (0, 1) for b in bits):
        raise InvalidInputError(f"bits must be 0 or 1, got {tuple(bits)}")
    return SpinConfig(tuple(2 * int(b) - 1 for b in bits))


@dataclass(frozen=True)
class MultiQubitTerm:
    """A weighted product of two or more spins, indexed 1-based."""

    indices: tuple[int, ...]
    weight: float = 0.0

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if len(idx) < 2:
            raise InvalidInputError("a multi-qubit term needs at least two indices")
        if any(i < 1 for i in idx):
            raise InvalidInputError(f"term indices are 1-based, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise InvalidInputError(f"term indices must be strictly increasing, got {idx}")
        _check_finite(self.weight, "term weight")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class NeuralPotential:
    """Diagonal neural potential: sum_i w_i s_i + sum_m w_m prod s_l - bias."""

    linear_weights: tuple[float, ...]
    bias: float = 0.0
    multi_terms: tuple[MultiQubitTerm, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        w = tuple(float(v) for v in self.linear_weights)
        if len(w) == 0:
            raise InvalidInputError("potential needs at least one input spin")
        _check_finite(np.array(w), "linear weights")
        _check_finite(self.bias, "bias")
        terms = tuple(self.multi_terms)
        seen: set[tuple[int, ...]] = set()
        for t in terms:
            if not isinstance(t, MultiQubitTerm):
                raise InvalidInputError("multi_terms entries must be MultiQubitTerm")
            if t.indices[-1] > len(w):
                raise InvalidInputError(
                    f"term {t.indices} references a spin beyond arity {len(w)}"
                )
            if t.indices in seen:
                raise InvalidInputError(f"duplicate term over indices {t.indices}")
            seen.add(t.indices)
        object.__setattr__(self, "linear_weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "multi_terms", terms)

    @property
    def arity(self) -> int:
        return len(self.linear_weights)


def features(inputs, template: Sequence[Sequence[int]]) -> np.ndarray:
    """Feature rows of the potential's linear form, one per input row.

    inputs is (N, k), spins or bits; template lists the 1-based indices of
    each product term.  The k + len(template) + 1 columns are the inputs,
    each term's product, then -1, so features(inputs, template) @ _pack(p)
    evaluates p on every row.  On spins or bits every entry is exact.
    """
    inputs = np.asarray(inputs, dtype=float)
    n, k = inputs.shape
    out = np.empty((n, k + len(template) + 1))
    out[:, :k] = inputs
    for m, indices in enumerate(template):
        out[:, k + m] = np.prod(inputs[:, np.subtract(indices, 1)], axis=1)
    out[:, -1] = -1.0
    return out


def _pack(p: NeuralPotential) -> np.ndarray:
    """Parameters of p in the column order of features: weights, then bias."""
    return np.array(
        p.linear_weights + tuple(t.weight for t in p.multi_terms) + (p.bias,)
    )


def _unpack(
    k: int, template: Sequence[Sequence[int]], theta: np.ndarray
) -> NeuralPotential:
    """The potential over k inputs whose _pack is theta; later slots are padding."""
    terms = tuple(
        MultiQubitTerm(tuple(indices), float(theta[k + m]))
        for m, indices in enumerate(template)
    )
    bias = float(theta[k + len(terms)])
    return NeuralPotential(tuple(float(v) for v in theta[:k]), bias, terms)


def enumerate_inputs(k: int) -> list[SpinConfig]:
    """All 2^k spin configurations in ascending binary order, MSB first."""
    if not 1 <= k <= MAX_ARITY:
        raise InvalidInputError(f"arity must be in [1, {MAX_ARITY}], got {k}")
    return [bits_to_spins(bits) for bits in _bit_rows(k).tolist()]


def _bit_rows(n: int) -> np.ndarray:
    """(2^n, n) table of the bits of every basis index, MSB first."""
    return (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def reparameterize_bits_to_spins(p: NeuralPotential) -> NeuralPotential:
    """Convert a linear potential over bits into one over spins.

    With b = (s + 1) / 2 the form sum w_i b_i - c equals
    sum (w_i / 2) s_i - (c - sum w_i / 2), so both potentials take identical
    values on corresponding inputs.  Product terms do not reparameterize this
    way and are rejected.
    """
    if p.multi_terms:
        raise InvalidInputError("only linear potentials admit the bit-to-spin map")
    half = tuple(w / 2.0 for w in p.linear_weights)
    return NeuralPotential(half, p.bias - math.fsum(p.linear_weights) / 2.0)
