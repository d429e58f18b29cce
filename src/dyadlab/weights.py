"""A2 weights on the dyadic tree.

Holds the weight w, its dual sigma = fl(1/w) leafwise (w*sigma can miss 1
by an ulp, as for w = 49), the A2 characteristic, weighted norms,
the weighted Haar basis with its split against the ordinary Haar function,
and two controlled weight generators (power profile, multiplicative cascade).

Every weight-only quantity is a heap-ordered, read-only array that the
Weight computes on its first use and keeps as a cached property (listed in
its docstring); every reader takes these arrays as they are.  A Weight and
its leaf values cannot be changed after construction and every cached array
is read-only, so the cache never needs invalidating and no caller can alter
it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .tree import (
    DomainError,
    DyadicIndex,
    LeafFunction,
    StructureError,
    TwoValuedRowOperator,
    _check_depth,
    _dense,
    _heap_diffs,
    _interval_lengths,
    _mean,
    _read_only,
    _subtree_sums,
    heap_averages,
    load_leaf_function,
    save_leaf_function,
)

VALUE_FLOOR = 1e-8
VALUE_CEIL = 1e8


def _haar_values(avg: np.ndarray, lengths: np.ndarray):
    """(a, b): the left and right values of h_I^w for every internal I,
    heap-ordered along the last axis, from the heap averages of w
    (tree.heap_averages; a stack of weights gives stacks of values)."""
    wl = avg[..., 1::2]
    wr = avg[..., 2::2]
    a = np.sqrt(2.0 * wr / (lengths * wl * (wl + wr)))
    return a, -a * wl / wr


def _carleson_norm(alpha: np.ndarray) -> float:
    """Max over internal L of (1/|L|) sum_{I inside or equal to L} alpha_I,
    alpha heap-ordered."""
    if alpha.size == 0:
        return 0.0
    depth = (alpha.size + 1).bit_length() - 1
    return float((_subtree_sums(alpha) / _interval_lengths(depth)).max())


class Weight:
    """Strictly positive leaf function with values in [1e-8, 1e8]; sigma, the
    dual's leaf values 1.0 / w, is formed with it.

    Its weight-only quantities are heap-ordered, read-only and each computed
    on first use: _avg[0] and _avg[1], the averages of w and sigma over every
    dyadic interval (their leaf entries are w and sigma); _delta[k], the
    martingale differences of _avg[k]; _haar[0, k] and _haar[1, k], the left
    and right values of the weighted Haar functions of w (k = 0) and sigma
    (k = 1); _alpha, alpha_I = |Delta_I w| |Delta_I sigma| |I|, and
    _carleson, its Carleson norm."""

    def __init__(self, base: LeafFunction):
        v = base.values
        if (v < VALUE_FLOOR).any() or (v > VALUE_CEIL).any():
            raise DomainError(
                f"weight values must lie in [{VALUE_FLOOR}, {VALUE_CEIL}]"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sigma", _read_only(1.0 / v))

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @cached_property
    def _avg(self) -> np.ndarray:
        return _read_only(heap_averages([self.values, self.sigma]))

    @cached_property
    def _delta(self) -> np.ndarray:
        return _read_only(_heap_diffs(self._avg))

    @cached_property
    def _haar(self) -> np.ndarray:
        return _read_only(np.array(_haar_values(self._avg, _interval_lengths(self.depth))))

    @cached_property
    def _alpha(self) -> np.ndarray:
        return _read_only(np.abs(self._delta[0]) * np.abs(self._delta[1])
                          * _interval_lengths(self.depth))

    @cached_property
    def _carleson(self) -> float:
        return _carleson_norm(self._alpha)

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
    return Weight(LeafFunction(w.sigma))


def a2_characteristic(w: Weight) -> A2Report:
    """Exact max of <w>_I <1/w>_I over all dyadic I (leaves included), and at
    least 1, as Cauchy-Schwarz gives, where rounding falls short (49 fl(1/49) < 1).

    The witness is the first maximum in heap order: the coarsest level that
    reaches the maximum, at its leftmost position there."""
    avg = w._avg
    prod = avg[0] * avg[1]
    k = int(prod.argmax())
    level = (k + 1).bit_length() - 1
    return A2Report(characteristic=max(float(prod[k]), 1.0),
                    witness=DyadicIndex(level, k + 1 - (1 << level)))


def _weighted_norm(f: np.ndarray, w: np.ndarray) -> float:
    """||f||_w from leaf values."""
    return float(np.sqrt(_mean(f**2 * w)))


def weighted_norm(f: LeafFunction, w: Weight) -> float:
    if f.depth != w.depth:
        raise StructureError(f"depth mismatch: {f.depth} vs {w.depth}")
    return _weighted_norm(f.values, w.values)


def weighted_inner(f: LeafFunction, g: LeafFunction, w: Weight) -> float:
    if f.depth != g.depth or f.depth != w.depth:
        raise StructureError("depth mismatch")
    return float(_mean(f.values * g.values * w.values))


def _internal_entry(w: Weight, I: DyadicIndex) -> int:
    """The heap index of I, which must be an internal interval of w's tree."""
    if I.level >= w.depth:
        raise DomainError("weighted Haar needs an internal interval")
    return I.heap_index


def weighted_haar(w: Weight, I: DyadicIndex) -> WeightedHaar:
    """The L2(w)-normalized mean-zero (w.r.t. w) two-valued function on I."""
    a, b = w._haar[:, 0, _internal_entry(w, I)]
    return WeightedHaar(index=I, value_left=float(a), value_right=float(b))


def haar_splits(w: Weight) -> np.ndarray:
    """(alpha, beta) of haar_split for every internal interval: a (2, 2^d - 1)
    array whose column i is the interval with heap index i."""
    a, b = w._haar[:, 0]
    sL = np.sqrt(_interval_lengths(w.depth))
    alpha = 2.0 / (sL * (a - b))
    return np.array([alpha, -alpha * (a + b) * sL / 2.0])


def haar_split(w: Weight, I: DyadicIndex) -> HaarSplit:
    """Solve h_I = alpha * h_I^w + beta * chi_I/sqrt|I| on the two halves of I."""
    i = _internal_entry(w, I)
    alpha, beta = (float(x) for x in haar_splits(w)[:, i])
    mean_w = float(w._avg[0, i])
    delta_w = float(w._delta[0, i])
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


def weighted_haar_matrix(w: Weight) -> np.ndarray:
    """Rows are leaf samplings of h_I^w, ordered like internal_indices."""
    return _dense(TwoValuedRowOperator(w.depth, *w._haar[:, 0]), w.depth)


def gen_power(depth: int, a: float) -> Weight:
    """Leafwise exact averages of x^a over the leaves; needs a > -1."""
    _check_depth(depth)
    if not a > -1:  # nan fails too
        raise DomainError(f"exponent must exceed -1 for integrability, got {a}")
    n = 1 << depth
    k = np.arange(n, dtype=float)
    left = k / n
    right = (k + 1) / n
    vals = (right ** (a + 1) - left ** (a + 1)) / ((a + 1) * (right - left))
    return Weight(LeafFunction(vals))


def gen_cascade(depth: int, eps: float, seed: int) -> Weight:
    """Multiplicative cascade: children multiply the parent by (1 +- xi_I)."""
    _check_depth(depth)
    if not 0.0 <= eps < 1.0:  # nan fails too
        raise DomainError(f"cascade amplitude must lie in [0, 1), got {eps}")
    if seed < 0:
        raise DomainError(f"cascade seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    vals = np.ones(1)
    for _ in range(depth):
        xi = rng.uniform(-eps, eps, size=vals.size)
        children = np.empty(2 * vals.size)
        np.multiply(vals, 1.0 + xi, out=children[0::2])
        np.multiply(vals, 1.0 - xi, out=children[1::2])
        vals = children
    return Weight(LeafFunction(vals))


def save_weight(w: Weight, path, provenance: Optional[str] = None) -> None:
    comments = [provenance] if provenance else []
    save_leaf_function(w.base, path, comments=comments)


def load_weight(path) -> Weight:
    return Weight(load_leaf_function(path))
