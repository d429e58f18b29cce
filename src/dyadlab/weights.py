"""A2 weights on the dyadic tree.

Holds the weight w, its dual sigma = 1/w (leafwise reciprocal, so that
w*sigma == 1 exactly at leaf level), the A2 characteristic, weighted norms,
the weighted Haar basis with its split against the ordinary Haar function,
and two controlled weight generators (power profile, multiplicative cascade).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tree import (
    DomainError,
    DyadicIndex,
    LeafFunction,
    StructureError,
    TwoValuedRowOperator,
    _dense,
    level_averages,
    level_diffs,
    load_leaf_function,
    save_leaf_function,
)

VALUE_FLOOR = 1e-8
VALUE_CEIL = 1e8


class Weight:
    """Strictly positive leaf function with values in [1e-8, 1e8]."""

    __slots__ = ("base",)

    def __init__(self, base: LeafFunction):
        v = base.values
        if np.any(v < VALUE_FLOOR) or np.any(v > VALUE_CEIL):
            raise DomainError(
                f"weight values must lie in [{VALUE_FLOOR}, {VALUE_CEIL}]"
            )
        object.__setattr__(self, "base", base)

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @property
    def depth(self) -> int:
        return self.base.depth

    @property
    def values(self) -> np.ndarray:
        return self.base.values

    @classmethod
    def from_values(cls, values) -> "Weight":
        return cls(LeafFunction(values))

    def __repr__(self):
        return f"Weight(depth={self.depth})"


@dataclass(frozen=True)
class A2Report:
    characteristic: float
    witness: DyadicIndex


@dataclass(frozen=True)
class WeightedHaar:
    """Two-valued function on the halves of I, L2(w)-normalized, value_left > 0."""

    index: DyadicIndex
    value_left: float
    value_right: float


@dataclass(frozen=True)
class HaarSplit:
    """Coefficients of h_I = alpha * h_I^w + beta * chi_I / sqrt|I|.

    alpha_bound_ratio = |alpha| / sqrt(<w>_I) (always <= 1).
    beta_bound_ratio = |beta| * <w>_I / |Delta_I w|, None in the 0/0 case.
    """

    alpha: float
    beta: float
    alpha_bound_ratio: float
    beta_bound_ratio: Optional[float]


def dual(w: Weight) -> Weight:
    return Weight(LeafFunction(1.0 / w.values))


def a2_characteristic(w: Weight) -> A2Report:
    """Exact max of <w>_I <1/w>_I over all dyadic I (leaves included)."""
    aw = level_averages(w.values)
    asig = level_averages(1.0 / w.values)
    best = -np.inf
    witness = None
    for level in range(w.depth + 1):
        prod = aw[level] * asig[level]
        k = int(np.argmax(prod))
        if prod[k] > best:
            best = float(prod[k])
            witness = DyadicIndex(level, k)
    return A2Report(characteristic=best, witness=witness)


def weighted_norm(f: LeafFunction, w: Weight) -> float:
    if f.depth != w.depth:
        raise StructureError(f"depth mismatch: {f.depth} vs {w.depth}")
    return float(np.sqrt(np.mean(f.values**2 * w.values)))


def weighted_inner(f: LeafFunction, g: LeafFunction, w: Weight) -> float:
    if f.depth != g.depth or f.depth != w.depth:
        raise StructureError("depth mismatch")
    return float(np.mean(f.values * g.values * w.values))


def _children_averages(w: Weight, I: DyadicIndex):
    if I.level >= w.depth:
        raise DomainError("weighted Haar needs an internal interval")
    avgs = level_averages(w.values)
    wl = float(avgs[I.level + 1][2 * I.position])
    wr = float(avgs[I.level + 1][2 * I.position + 1])
    return wl, wr


def weighted_haar(w: Weight, I: DyadicIndex) -> WeightedHaar:
    """The L2(w)-normalized mean-zero (w.r.t. w) two-valued function on I."""
    if I.level >= w.depth:
        raise DomainError("weighted Haar needs an internal interval")
    a, b = weighted_haar_levels(w)[I.level]
    return WeightedHaar(index=I, value_left=float(a[I.position]),
                        value_right=float(b[I.position]))


def haar_split(w: Weight, I: DyadicIndex) -> HaarSplit:
    """Solve h_I = alpha * h_I^w + beta * chi_I/sqrt|I| on the two halves of I."""
    wl, wr = _children_averages(w, I)
    alpha, beta = (float(arr[I.position]) for arr in haar_split_levels(w)[I.level])
    mean_w = (wl + wr) / 2.0
    delta_w = (wl - wr) / 2.0
    if delta_w == 0.0:
        beta = 0.0
        beta_ratio = None
    else:
        beta_ratio = abs(beta) * mean_w / abs(delta_w)
    return HaarSplit(
        alpha=alpha,
        beta=beta,
        alpha_bound_ratio=float(abs(alpha) / np.sqrt(mean_w)),
        beta_bound_ratio=beta_ratio,
    )


def _haar_values(avgs: list):
    """Per-level (a, b) arrays: the left and right values of h_I^w for every
    internal I, from the level averages of w (tree.level_averages)."""
    out = []
    for lev in range(len(avgs) - 1):
        wl = avgs[lev + 1][0::2]
        wr = avgs[lev + 1][1::2]
        a = np.sqrt(2.0 * wr / (2.0**-lev * wl * (wl + wr)))
        out.append((a, -a * wl / wr))
    return out


def weighted_haar_levels(w: Weight):
    """Per-level (a, b) arrays of weighted Haar values for all internal intervals.

    Returns a list indexed by level; entry lev is a pair of arrays of length
    2^lev holding the left and right values of h_I^w for every I at that level.
    """
    return _haar_values(level_averages(w.values))


def haar_split_levels(w: Weight):
    """Per-level (alpha, beta) arrays for all internal intervals."""
    out = []
    for lev, (a, b) in enumerate(weighted_haar_levels(w)):
        sL = np.sqrt(2.0**-lev)
        alpha = 2.0 / (sL * (a - b))
        beta = -alpha * (a + b) * sL / 2.0
        out.append((alpha, beta))
    return out


def weighted_haar_matrix(w: Weight) -> np.ndarray:
    """Rows are leaf samplings of h_I^w, ordered like internal_indices."""
    return _dense(TwoValuedRowOperator(w.depth, weighted_haar_levels(w)), w.depth)


def gen_power(depth: int, a: float) -> Weight:
    """Leafwise exact averages of x^a over the leaves; needs a > -1."""
    if a <= -1:
        raise DomainError("exponent must exceed -1 for integrability")
    n = 1 << depth
    k = np.arange(n, dtype=float)
    left = k / n
    right = (k + 1) / n
    vals = (right ** (a + 1) - left ** (a + 1)) / ((a + 1) * (right - left))
    return Weight(LeafFunction(vals))


def gen_cascade(depth: int, eps: float, seed: int) -> Weight:
    """Multiplicative cascade: children multiply the parent by (1 +- xi_I)."""
    if not 0.0 <= eps < 1.0:
        raise DomainError("cascade amplitude must lie in [0, 1)")
    if seed < 0:
        raise DomainError("cascade seed must be >= 0")
    rng = np.random.default_rng(seed)
    vals = np.ones(1)
    for _ in range(depth):
        xi = rng.uniform(-eps, eps, size=vals.size)
        vals = np.stack([vals * (1.0 + xi), vals * (1.0 - xi)], axis=1).reshape(-1)
    return Weight(LeafFunction(vals))


def save_weight(w: Weight, path, provenance: Optional[str] = None) -> None:
    comments = [provenance] if provenance else []
    save_leaf_function(w.base, path, comments=comments)


def load_weight(path) -> Weight:
    return Weight(load_leaf_function(path))


def interval_stats(w: Weight):
    """Per-level arrays (<w>, <sigma>, Delta w, Delta sigma) reused everywhere."""
    aw = level_averages(w.values)
    asig = level_averages(1.0 / w.values)
    dw = level_diffs(aw)
    dsig = level_diffs(asig)
    return aw, asig, dw, dsig
