"""Finite dyadic tree on [0,1): intervals, leaf functions, Haar analysis.

Everything downstream computes on a depth-n binary subdivision of [0,1).
A function is represented by its 2^n leaf values; dyadic intervals are
(level, position) pairs.  All objects are immutable after construction and
all operations are pure, so they are safe to share across workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

# 2^20 leaves is already past anything useful at desk scale.
MAX_DEPTH = 20
# Dense (2^d - 1) x 2^d float matrices take 134 MB at depth 12, 537 MB at
# depth 13 and 2 GB at depth 14, so the dense form builders stop at 12.
MAX_DENSE_DEPTH = 12


class DomainError(ValueError):
    """An index or parameter falls outside its allowed range."""


class StructureError(ValueError):
    """Mismatched depths or missing structural data."""


class InvariantError(AssertionError):
    """A checked mathematical invariant failed at runtime."""


@dataclass(frozen=True, order=True)
class DyadicIndex:
    """The dyadic interval [position*2^-level, (position+1)*2^-level)."""

    level: int
    position: int

    def __post_init__(self):
        if self.level < 0:
            raise DomainError(f"negative level {self.level}")
        if not 0 <= self.position < (1 << self.level):
            raise DomainError(
                f"position {self.position} out of range at level {self.level}"
            )

    @property
    def length(self) -> float:
        return 2.0 ** -self.level

    @property
    def left_endpoint(self) -> float:
        return self.position * self.length

    @property
    def right_endpoint(self) -> float:
        return (self.position + 1) * self.length

    def child_left(self) -> "DyadicIndex":
        return DyadicIndex(self.level + 1, 2 * self.position)

    def child_right(self) -> "DyadicIndex":
        return DyadicIndex(self.level + 1, 2 * self.position + 1)

    def parent(self) -> "DyadicIndex":
        if self.level == 0:
            raise DomainError("root has no parent")
        return DyadicIndex(self.level - 1, self.position // 2)

    def contains(self, other: "DyadicIndex") -> bool:
        if other.level < self.level:
            return False
        return (other.position >> (other.level - self.level)) == self.position

    def leaf_slice(self, depth: int) -> slice:
        """Slice of the leaf array (at the given depth) covered by this interval."""
        if self.level > depth:
            raise DomainError(f"level {self.level} exceeds depth {depth}")
        span = 1 << (depth - self.level)
        return slice(self.position * span, (self.position + 1) * span)


ROOT = DyadicIndex(0, 0)


def internal_indices(depth: int) -> Iterator[DyadicIndex]:
    """All intervals strictly above leaf level, root first, left to right."""
    for level in range(depth):
        for position in range(1 << level):
            yield DyadicIndex(level, position)


def n_internal(depth: int) -> int:
    return (1 << depth) - 1


class LeafFunction:
    """Real-valued function on the 2^depth leaves, ordered left to right."""

    __slots__ = ("depth", "values")

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise StructureError("leaf values must be a 1-d array")
        n = arr.size
        depth = n.bit_length() - 1
        if n < 2 or (1 << depth) != n:
            raise StructureError(f"number of leaves must be a power of two >= 2, got {n}")
        if depth > MAX_DEPTH:
            raise DomainError(f"depth {depth} exceeds cap {MAX_DEPTH}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("leaf values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LeafFunction is immutable")

    @classmethod
    def constant(cls, depth: int, c: float) -> "LeafFunction":
        return cls(np.full(1 << depth, float(c)))

    def integral(self) -> float:
        return float(self.values.mean())

    def norm2(self) -> float:
        return float(np.sqrt(np.mean(self.values**2)))

    def __repr__(self):
        return f"LeafFunction(depth={self.depth}, values={self.values!r})"


@dataclass(frozen=True)
class HaarExpansion:
    """Mean plus one Haar coefficient per internal interval."""

    depth: int
    mean: float
    coefficients: dict


def average(f: LeafFunction, I: DyadicIndex) -> float:
    """Average of f over I."""
    if I.level > f.depth:
        raise DomainError(f"interval level {I.level} below leaf level {f.depth}")
    return float(f.values[I.leaf_slice(f.depth)].mean())


def martingale_difference(f: LeafFunction, I: DyadicIndex) -> float:
    """Half-difference of the children averages: (<f>_left - <f>_right) / 2."""
    if I.level >= f.depth:
        raise DomainError("martingale difference needs an internal interval")
    return (average(f, I.child_left()) - average(f, I.child_right())) / 2.0


def haar_coefficient(f: LeafFunction, I: DyadicIndex) -> float:
    """(f, h_I) with h_I = |I|^{-1/2} on the left half, -|I|^{-1/2} on the right."""
    return np.sqrt(I.length) * martingale_difference(f, I)


def level_averages(values: np.ndarray) -> list:
    """Averages at every level: result[level] has 2^level entries, result[depth] = values."""
    depth = int(np.asarray(values).size).bit_length() - 1
    out = [None] * (depth + 1)
    out[depth] = np.asarray(values, dtype=float)
    for level in range(depth - 1, -1, -1):
        upper = out[level + 1]
        out[level] = (upper[0::2] + upper[1::2]) / 2.0
    return out


def level_diffs(avgs: list) -> list:
    """Martingale differences per internal level, from precomputed level averages."""
    depth = len(avgs) - 1
    return [(avgs[lev + 1][0::2] - avgs[lev + 1][1::2]) / 2.0 for lev in range(depth)]


def level_haar_coeffs(values: np.ndarray) -> list:
    """Haar coefficients (f, h_I) per internal level, as arrays."""
    avgs = level_averages(values)
    diffs = level_diffs(avgs)
    return [d * np.sqrt(2.0**-lev) for lev, d in enumerate(diffs)]


def haar_analysis(f: LeafFunction) -> HaarExpansion:
    coeffs = {}
    per_level = level_haar_coeffs(f.values)
    for level, arr in enumerate(per_level):
        for position, c in enumerate(arr):
            coeffs[DyadicIndex(level, position)] = float(c)
    return HaarExpansion(depth=f.depth, mean=f.integral(), coefficients=coeffs)


def _synthesis_values(mean: float, coeffs: np.ndarray) -> np.ndarray:
    """Leaf values with the given mean and Haar coefficients (f, h_I), the
    coefficients ordered like internal_indices; the inverse of haar analysis."""
    avgs = np.array([mean])
    for level in range((coeffs.size + 1).bit_length() - 1):
        k = 1 << level
        deltas = coeffs[k - 1 : 2 * k - 1] / np.sqrt(2.0**-level)
        nxt = np.empty(2 * k)
        nxt[0::2] = avgs + deltas
        nxt[1::2] = avgs - deltas
        avgs = nxt
    return avgs


def haar_synthesis(e: HaarExpansion) -> LeafFunction:
    """Exact inverse of haar_analysis."""
    coeffs = []
    for I in internal_indices(e.depth):
        if I not in e.coefficients:
            raise StructureError(f"missing Haar coefficient for {I}")
        coeffs.append(e.coefficients[I])
    return LeafFunction(_synthesis_values(e.mean, np.array(coeffs, dtype=float)))


def _check_dense_depth(depth: int, rows: int, cols: int) -> None:
    """Refuse a dense rows x cols float matrix above MAX_DENSE_DEPTH."""
    if depth > MAX_DENSE_DEPTH:
        raise DomainError(
            f"depth {depth} exceeds the dense-matrix cap {MAX_DENSE_DEPTH}: one "
            f"{rows} x {cols} matrix would take {8 * rows * cols} bytes"
        )


def _two_valued_matrix(depth: int, levels) -> np.ndarray:
    """Rows ordered like internal_indices; row I takes levels[I.level][0] on the
    left half of I and levels[I.level][1] on the right half, each a scalar or
    an array over the positions of the level."""
    n = 1 << depth
    _check_dense_depth(depth, n - 1, n)
    out = np.zeros((n - 1, n))
    for level, (left, right) in enumerate(levels):
        k = 1 << level
        # row block of this level, viewed as (row, interval, half, leaf in half)
        block = out[k - 1 : 2 * k - 1].reshape(k, k, 2, n // (2 * k))
        rows = np.arange(k)
        block[rows, rows, 0] = np.reshape(left, (-1, 1))
        block[rows, rows, 1] = np.reshape(right, (-1, 1))
    return out


def haar_analysis_matrix(depth: int) -> np.ndarray:
    """Matrix H with (H f)_I = (f, h_I); rows follow internal_indices order."""
    scale = 2.0**-depth
    amps = [1.0 / np.sqrt(2.0**-level) for level in range(depth)]
    return _two_valued_matrix(depth, [(amp * scale, -amp * scale) for amp in amps])


def _subtree_sum(J: DyadicIndex, levels) -> float:
    """Sum over I inside or equal to J of |I| t_I, where levels[lev] holds t_I
    for the intervals at level lev (the sum stops at the last given level)."""
    total = 0.0
    for lev in range(J.level, len(levels)):
        span = 1 << (lev - J.level)
        total += 2.0**-lev * np.sum(levels[lev][J.position * span : (J.position + 1) * span])
    return total


def save_leaf_function(f: LeafFunction, path, comments=()) -> None:
    """Text format: `depth=<n>` first, optional `# ...` lines, one value per line."""
    with open(path, "w") as fh:
        fh.write(f"depth={f.depth}\n")
        for c in comments:
            fh.write(f"# {c}\n")
        for v in f.values:
            fh.write(f"{float(v)!r}\n")


def load_leaf_function(path) -> LeafFunction:
    depth = None
    vals = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("depth="):
                depth = int(line.split("=", 1)[1])
                continue
            vals.append(float(line))
    if depth is None:
        raise StructureError("missing depth= header line")
    if len(vals) != 1 << depth:
        raise StructureError(f"expected {1 << depth} values, got {len(vals)}")
    return LeafFunction(vals)
