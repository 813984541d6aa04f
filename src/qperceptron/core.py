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
import numbers
import operator
import reprlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_ARITY",
    "InvalidInputError",
    "SpinConfig",
    "MultiQubitTerm",
    "NeuralPotential",
    "activation",
    "bits_to_spins",
    "features",
    "enumerate_inputs",
    "reparameterize_bits_to_spins",
]

MAX_ARITY = 16
# activation is exactly 0 or 1 at and beyond +-ACTIVATION_CLIP; below it
# x * x stays finite.
ACTIVATION_CLIP = 1e150
# the least float above 0: _real(value, name, _POSITIVE) asks for value > 0
_POSITIVE = math.ulp(0.0)


class InvalidInputError(ValueError):
    """Raised when a value violates a documented precondition."""


def _shown(value) -> str:
    """repr(value), shortened by reprlib, on one line."""
    return " ".join(reprlib.repr(value).split())


def _in_range(x, name: str, low, high, error, limit=None):
    """x, else error naming name if it lies outside [low, high]; limit shows high."""
    if x < low or x > high:
        span = f"at least {low}" if high == math.inf else f"in [{low}, {limit or high}]"
        raise error(f"{name} must be {span}, got {_shown(x)}")
    return x


def _real(value, name: str, low=-math.inf, high=math.inf, *, finite=True) -> float:
    """value as a float, else InvalidInputError naming name: a numbers.Real (bools
    count), finite unless finite is False, in [low, high]; a huge int reads as inf."""
    if not isinstance(value, (float, numbers.Real)):  # float skips the slower ABC check
        raise InvalidInputError(f"{name} must be a real number, got {_shown(value)}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(x):
        raise InvalidInputError(f"{name} must be finite, got {x!r}")
    return x if low <= x <= high else _in_range(x, name, low, high, InvalidInputError)


def _integer(value, name, low=-math.inf, high=math.inf, *, limit=None, error=InvalidInputError):
    """value as an int, else error naming name: an integer to operator.index (bools
    and numpy integers count, floats do not) in [low, high], shown as limit if given."""
    try:
        i = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {_shown(value)}") from None
    return i if low <= i <= high else _in_range(i, name, low, high, error, limit)


def _instance(value, cls, name: str):
    """value, else InvalidInputError naming name unless it is a cls (or a tuple of them)."""
    if not isinstance(value, cls):
        what = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        article = "an" if what[0] in "AEIOU" else "a"
        raise InvalidInputError(f"{name} must be {article} {what}, got {_shown(value)}")
    return value


def _sequence(value, name: str, entry=None) -> tuple:
    """value as a tuple, else InvalidInputError naming name: a tuple, list (both before the
    slower ABC test) or other Sequence, not a str or bytes, or a numpy array of 1 or more
    dimensions; entry is a class each entry must be an instance of, or a function checking one."""
    ordered = isinstance(value, (tuple, list, Sequence)) and not isinstance(value, (str, bytes))
    if not (ordered or isinstance(value, np.ndarray) and value.ndim > 0):
        raise InvalidInputError(f"{name} must be a sequence, got {_shown(value)}")
    if isinstance(entry, type):
        label = f"{name} entries"
        return tuple(_instance(v, entry, label) for v in value)
    return tuple(value if entry is None else map(entry, value))


def _real_array(value) -> np.ndarray | None:
    """value as a float array, or None unless numpy reads it as bools, ints or floats."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):  # a ragged sequence
        return None
    return array.astype(float, copy=False) if array.dtype.kind in "biuf" else None


def activation(x):
    """Excitation probability response f(x) = (1 + x / sqrt(1 + x^2)) / 2.

    Smooth, strictly increasing, f(0) = 1/2, with limits 0 and 1 at -inf
    and +inf, reached exactly from |x| = ACTIVATION_CLIP on.  f is t for
    x < 0, else 1 - t, with t = 1 / (2 s (s + |x|)) and s = sqrt(1 + x^2):
    no step cancels and each is monotone, so f never decreases from one
    float to the next.  Accepts scalars or arrays; rejects non-finite input.
    """
    x, given = _real_array(x), x
    if x is None:
        raise InvalidInputError(f"activation input must be real, got {_shown(given)}")
    finite = np.isfinite(x)
    if not finite.all():
        bad = float(x[~finite].flat[0])
        raise InvalidInputError(f"activation input must be finite, got {bad!r}")
    a = np.abs(x)
    a = np.where(a < ACTIVATION_CLIP, a, np.inf)  # an infinite |x| gives t = 0
    s = np.sqrt(1.0 + a * a)
    t = 0.5 / (s * (s + a))
    out = np.where(x < 0.0, t, 1.0 - t)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SpinConfig:
    """Ordered spin assignment, one entry of +1 or -1 per qubit."""

    spins: tuple[int, ...]

    def __post_init__(self) -> None:
        spins = _sequence(self.spins, "spins")
        if len(spins) == 0:
            raise InvalidInputError("spin configuration must not be empty")
        # a number, so that an array entry cannot reach the ambiguous s in (-1, 1)
        if any(not isinstance(s, (int, numbers.Real)) or s not in (-1, 1) for s in spins):
            raise InvalidInputError(f"spins must be +1 or -1, got {_shown(spins)}")
        object.__setattr__(self, "spins", tuple(int(s) for s in spins))

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
    bits = _sequence(bits, "bits")
    if any(b not in (0, 1) for b in bits):
        raise InvalidInputError(f"bits must be 0 or 1, got {_shown(bits)}")
    return SpinConfig(tuple(2 * int(b) - 1 for b in bits))


def _term(indices, k: int | None = None) -> tuple[int, ...]:
    """indices as a tuple of ints, else InvalidInputError: the rule of a product term,
    at least two strictly increasing integers, each in 1..k (at least 1 if k is None)."""
    term = _sequence(indices, "term indices", lambda i: _integer(i, "term index"))
    if k is not None and not all(1 <= i <= k for i in term):
        raise InvalidInputError(f"term {term} is outside spins 1..{k}")
    if len(term) < 2:
        raise InvalidInputError("a multi-qubit term needs at least two indices")
    if any(i < 1 for i in term):
        raise InvalidInputError(f"term indices are 1-based, got {term}")
    if any(a >= b for a, b in zip(term, term[1:])):
        raise InvalidInputError(f"term indices must be strictly increasing, got {term}")
    return term


@dataclass(frozen=True)
class MultiQubitTerm:
    """A weighted product of two or more spins, indexed 1-based."""

    indices: tuple[int, ...]
    weight: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", _term(self.indices))
        object.__setattr__(self, "weight", _real(self.weight, "term weight"))


@dataclass(frozen=True)
class NeuralPotential:
    """Diagonal neural potential: sum_i w_i s_i + sum_m w_m prod s_l - bias."""

    linear_weights: tuple[float, ...]
    bias: float = 0.0
    multi_terms: tuple[MultiQubitTerm, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        name = "linear weights"
        w = _sequence(self.linear_weights, name, lambda v: _real(v, name))
        if len(w) == 0:
            raise InvalidInputError("potential needs at least one input spin")
        bias = _real(self.bias, "bias")
        terms = _sequence(self.multi_terms, "multi_terms", MultiQubitTerm)
        seen: set[tuple[int, ...]] = set()
        for t in terms:
            if t.indices[-1] > len(w):
                raise InvalidInputError(
                    f"term {t.indices} references a spin beyond arity {len(w)}"
                )
            if t.indices in seen:
                raise InvalidInputError(f"duplicate term over indices {t.indices}")
            seen.add(t.indices)
        object.__setattr__(self, "linear_weights", w)
        object.__setattr__(self, "bias", bias)
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
    Each term must follow the rule of _term over spins 1..k.
    """
    inputs = _real_array(inputs)
    if inputs is None or inputs.ndim != 2:
        raise InvalidInputError("inputs must be a table (N, k) of real numbers")
    k = inputs.shape[1]
    return _features(inputs, _sequence(template, "template", lambda indices: _term(indices, k)))


def _features(inputs: np.ndarray, template) -> np.ndarray:
    """features of a float table (N, k) and a template of terms _term accepts."""
    n, k = inputs.shape
    out = np.empty((n, k + len(template) + 1))
    out[:, :k] = inputs
    for m, indices in enumerate(template):
        cols = np.subtract(indices, 1)
        np.multiply.reduce(inputs[:, cols], axis=1, out=out[:, k + m])
    out[:, -1] = -1.0
    return out


def _pack(p: NeuralPotential) -> np.ndarray:
    """Parameters of p in the column order of features: weights, then bias."""
    return np.array(
        p.linear_weights + tuple(t.weight for t in p.multi_terms) + (p.bias,)
    )


def _activations(potentials: Sequence[NeuralPotential], inputs) -> np.ndarray:
    """f(x) (N, len(potentials)) of each potential x on every encoded row (N, k)."""
    xs = np.empty((len(inputs), len(potentials)))
    with np.errstate(over="ignore", invalid="ignore"):  # activation rejects inf, nan
        for j, p in enumerate(potentials):
            xs[:, j] = _features(inputs, [t.indices for t in p.multi_terms]) @ _pack(p)
    return activation(xs)


def _unpack(
    k: int, template: Sequence[Sequence[int]], theta: np.ndarray
) -> NeuralPotential:
    """The potential over k inputs whose _pack is theta; later slots are padding."""
    th = theta.tolist()
    terms = tuple(
        MultiQubitTerm(indices, th[k + m]) for m, indices in enumerate(template)
    )
    return NeuralPotential(tuple(th[:k]), th[k + len(terms)], terms)


def enumerate_inputs(k: int) -> list[SpinConfig]:
    """All 2^k spin configurations in ascending binary order, MSB first."""
    k = _integer(k, "arity", 1, MAX_ARITY)
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
    if _instance(p, NeuralPotential, "p").multi_terms:
        raise InvalidInputError("only linear potentials admit the bit-to-spin map")
    half = tuple(w / 2.0 for w in p.linear_weights)
    try:
        shift = math.fsum(p.linear_weights) / 2.0
    except OverflowError:  # a partial sum passed the largest float
        raise InvalidInputError("spin bias overflows: linear weights too large") from None
    return NeuralPotential(half, p.bias - shift)
