"""Heap-ordered per-interval arrays against the DyadicIndex-keyed dicts they
replaced: shift coefficients, their operator, Carleson measures and Haar
expansions must all be byte-identical."""
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
import pytest

from dyadlab import embedding, shifts, tree
from dyadlab.tree import (
    DomainError,
    DyadicIndex,
    LeafFunction,
    StructureError,
    _synthesis_values,
    internal_indices,
    n_internal,
)
from dyadlab.weights import Weight, _carleson_norm, gen_cascade, gen_power

# -- the dict code, kept verbatim as the reference ---------------------------


def reference_valid_pairs(complexity: int, depth: int):
    """All (I, J) with J inside I, |J| = 2^-n |I|, both internal."""
    if complexity < 0:
        raise DomainError("complexity must be >= 0")
    for I in internal_indices(depth):
        if I.level + complexity >= depth and complexity > 0:
            continue
        base = I.position << complexity
        for k in range(1 << complexity):
            J = DyadicIndex(I.level + complexity, base + k)
            yield I, J


@dataclass(frozen=True)
class ReferenceShiftSpec:
    complexity: int
    depth: int
    coeffs: Dict[Tuple[DyadicIndex, DyadicIndex], float]

    def __post_init__(self):
        if self.complexity < 0:
            raise DomainError("complexity must be >= 0")
        if self.depth < 1:
            raise DomainError("depth must be >= 1")
        for (I, J), c in self.coeffs.items():
            if abs(c) > 1.0:
                raise DomainError(f"|c| must be <= 1, got {c} at ({I}, {J})")
            if J.level != I.level + self.complexity or not I.contains(J):
                raise DomainError(f"pair ({I}, {J}) violates the shift pattern")
            if I.level >= self.depth or J.level >= self.depth:
                raise DomainError(f"pair ({I}, {J}) is not internal at depth {self.depth}")

    @classmethod
    def constant(cls, complexity: int, depth: int, value: float = 1.0) -> "ReferenceShiftSpec":
        coeffs = {pair: value for pair in reference_valid_pairs(complexity, depth)}
        return cls(complexity=complexity, depth=depth, coeffs=coeffs)

    @classmethod
    def random(cls, complexity: int, depth: int, seed: int) -> "ReferenceShiftSpec":
        rng = np.random.default_rng(seed)
        coeffs = {pair: float(rng.uniform(-1, 1))
                  for pair in reference_valid_pairs(complexity, depth)}
        return cls(complexity=complexity, depth=depth, coeffs=coeffs)


def reference_shift_blocks(spec: ReferenceShiftSpec) -> np.ndarray:
    """The fill loop of ShiftOperator.__init__."""
    width = 1 << spec.complexity
    blocks = np.zeros(((1 << max(spec.depth - spec.complexity, 0)) - 1, width))
    scale = 2.0 ** (-spec.complexity / 2.0)
    for (I, J), c in spec.coeffs.items():
        blocks[(1 << I.level) - 1 + I.position,
               J.position - (I.position << spec.complexity)] = scale * abs(c)
    return blocks


@dataclass(frozen=True)
class ReferenceCarlesonMeasure:
    """Nonnegative values alpha_I over internal intervals."""

    depth: int
    alpha: Dict[DyadicIndex, float]

    def __post_init__(self):
        for I, a in self.alpha.items():
            if a < 0:
                raise DomainError(f"negative mass {a} at {I}")
            if I.level >= self.depth:
                raise DomainError(f"{I} is not internal at depth {self.depth}")

    def level_arrays(self):
        out = [np.zeros(1 << lev) for lev in range(self.depth)]
        for I, a in self.alpha.items():
            out[I.level][I.position] = a
        return out


def reference_carleson_measure_of(w: Weight) -> ReferenceCarlesonMeasure:
    """alpha_I = |Delta_I w| |Delta_I sigma| |I| over internal intervals."""
    return ReferenceCarlesonMeasure(depth=w.depth, alpha={
        I: float(a) for I, a in zip(internal_indices(w.depth), w._alpha)})


def reference_carleson_norm(m: ReferenceCarlesonMeasure) -> float:
    """Max over internal L of (1/|L|) sum_{I inside or equal to L} alpha_I."""
    return _carleson_norm(np.concatenate(m.level_arrays()))


@dataclass(frozen=True)
class ReferenceHaarExpansion:
    """Mean plus one Haar coefficient per internal interval."""

    depth: int
    mean: float
    coefficients: dict


def reference_haar_analysis(f: LeafFunction) -> ReferenceHaarExpansion:
    coeffs = {}
    heap = tree.haar_analysis(f).coefficients
    for I in internal_indices(f.depth):
        coeffs[I] = float(heap[I.heap_index])
    return ReferenceHaarExpansion(depth=f.depth, mean=f.integral(), coefficients=coeffs)


def reference_haar_synthesis(e: ReferenceHaarExpansion) -> LeafFunction:
    """Exact inverse of haar_analysis."""
    coeffs = []
    for I in internal_indices(e.depth):
        if I not in e.coefficients:
            raise StructureError(f"missing Haar coefficient for {I}")
        coeffs.append(e.coefficients[I])
    return LeafFunction(_synthesis_values(e.mean, np.array(coeffs, dtype=float)))


# -- inputs -------------------------------------------------------------------

DEPTHS = range(1, 13)
COMPLEXITIES = range(4)
SEEDS = (0, 7, 2024)


def bits(x):
    """The bytes of a float or an array, for exact comparison."""
    return np.asarray(x, dtype=float).tobytes()


def flat_index(I: DyadicIndex, J: DyadicIndex, complexity: int) -> int:
    """Position of the pair (I, J) in the row-major coefficient array."""
    return (((1 << I.level) - 1 + I.position) << complexity) + J.position - (
        I.position << complexity)


def spec_pairs(n, depth):
    """(new, reference) shift specs: the constant one, a partial-magnitude
    constant and one random spec per seed."""
    yield shifts.ShiftSpec.constant(n, depth), ReferenceShiftSpec.constant(n, depth)
    yield (shifts.ShiftSpec.constant(n, depth, value=-0.375),
           ReferenceShiftSpec.constant(n, depth, value=-0.375))
    for seed in SEEDS:
        yield (shifts.ShiftSpec.random(n, depth, seed=seed),
               ReferenceShiftSpec.random(n, depth, seed=seed))


def _weights(depth):
    yield gen_power(depth, 0.7)
    yield Weight(LeafFunction.constant(depth, 3.0))
    for seed in SEEDS:
        yield gen_cascade(depth, 0.8, seed)


def _leaves(depth):
    for seed in SEEDS:
        yield LeafFunction(np.random.default_rng([depth, seed]).standard_normal(1 << depth))
    yield LeafFunction(np.zeros(1 << depth))


# -- byte identity --------------------------------------------------------------


@pytest.mark.parametrize("n", COMPLEXITIES)
@pytest.mark.parametrize("depth", DEPTHS)
def test_shift_specs_match(depth, n):
    for new, ref in spec_pairs(n, depth):
        assert new.coeffs.shape == (n_internal(max(depth - n, 0)), 1 << n)
        assert [flat_index(I, J, n) for I, J in ref.coeffs] == list(range(new.coeffs.size))
        assert bits(new.coeffs) == bits(list(ref.coeffs.values()))
        assert bits(shifts.ShiftOperator(new).blocks) == bits(reference_shift_blocks(ref))


@pytest.mark.parametrize("depth", DEPTHS)
def test_carleson_measures_match(depth):
    for w in _weights(depth):
        new, ref = embedding.carleson_measure_of(w), reference_carleson_measure_of(w)
        assert list(ref.alpha) == list(internal_indices(depth))
        assert bits(new.alpha) == bits(list(ref.alpha.values()))
        assert bits(np.concatenate(ref.level_arrays())) == bits(new.alpha)
        assert bits(embedding.carleson_norm(new)) == bits(reference_carleson_norm(ref))


@pytest.mark.parametrize("depth", DEPTHS)
def test_haar_expansions_match(depth):
    for f in _leaves(depth):
        new, ref = tree.haar_analysis(f), reference_haar_analysis(f)
        assert list(ref.coefficients) == list(internal_indices(depth))
        assert bits(new.mean) == bits(ref.mean)
        assert bits(new.coefficients) == bits(list(ref.coefficients.values()))
        assert bits(tree.haar_synthesis(new).values) == bits(
            reference_haar_synthesis(ref).values)

