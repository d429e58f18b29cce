"""Bilinear embedding machinery: the key sum, its four-term decomposition,
weighted maximal functions, Carleson measures built from an A2 weight, and
the two-function difference-sum lemma used to bound the Carleson norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .forms import AbsBilinearForm, weighted_form
from .tree import (
    DomainError,
    IdentityOperator,
    InvariantError,
    LeafFunction,
    StructureError,
    TwoValuedRowOperator,
    _haar_operator,
    _heap_diffs,
    _heap_levels,
    _interval_lengths,
    _mean,
    _subtree_sum,
    _subtree_sums,
    heap_averages,
    level_averages,
    level_diffs,
    n_internal,
)
from .weights import Weight, _carleson_norm, _weighted_norm


def _check_depths(*fns):
    depths = {f.depth for f in fns}
    if len(depths) != 1:
        raise StructureError(f"depth mismatch: {sorted(depths)}")
    return depths.pop()


def _level_total(t: np.ndarray):
    """Sum of t over every internal interval (heap-ordered along the last
    axis): each level is summed on its contiguous slice, then the levels are
    added in order."""
    total = 0.0
    for level in _heap_levels(t):
        total += np.add.reduce(level, axis=-1)
    return total


@dataclass(frozen=True)
class FourTerms:
    term_i: float
    term_ii: float
    term_iii: float
    term_iv: float

    def total(self) -> float:
        return self.term_i + self.term_ii + self.term_iii + self.term_iv


@dataclass(frozen=True, eq=False)
class CarlesonMeasure:
    """Nonnegative values alpha_I over internal intervals, heap-ordered."""

    depth: int
    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        n = n_internal(self.depth)
        if alpha.shape != (n,):
            raise StructureError(f"expected {n} masses, got {alpha.shape}")
        if not (alpha >= 0.0).all():  # also false for nan
            raise DomainError("masses must be >= 0")
        object.__setattr__(self, "alpha", alpha)


def key_sum(phi: LeafFunction, psi: LeafFunction, w: Weight) -> float:
    """Sum over internal I of |(phi*w, h_I)| * |(psi*sigma, h_I)|."""
    _check_depths(phi, psi, w.base)
    da = level_diffs(level_averages(phi.values * w.values))
    db = level_diffs(level_averages(psi.values * w.sigma))
    return float(_subtree_sum(np.abs(np.concatenate(da)) * np.abs(np.concatenate(db)), 0))


def four_terms(phi: LeafFunction, psi: LeafFunction, w: Weight) -> FourTerms:
    """The four sums whose total dominates key_sum (triangle inequality on
    the split of h_I into its weighted Haar part and a constant part)."""
    depth = _check_depths(phi, psi, w.base)
    inner = (1 << depth) - 1
    # row 0 belongs to phi w (with w), row 1 to psi sigma (with sigma)
    avg = heap_averages([phi.values * w.values, psi.values * w.sigma])
    L = _interval_lengths(depth)

    # unweighted inner products (g, h^w_I) = (|I|/2)(a <g>_- + b <g>_+)
    ip = np.abs((L / 2.0) * (w._haar[0] * avg[:, 1::2] + w._haar[1] * avg[:, 2::2]))
    m = w._avg[:, :inner]
    mp = np.abs(avg[:, :inner])
    r = np.abs(w._delta) / m
    sm = np.sqrt(m)
    sL = np.sqrt(L)

    t = _level_total(np.array([
        ip[0] * sm[0] * ip[1] * sm[1],
        mp[0] * r[0] * ip[1] * sm[1] * sL,
        mp[1] * r[1] * ip[0] * sm[0] * sL,
        mp[0] * mp[1] * r[0] * r[1] * L,
    ]))
    return FourTerms(term_i=float(t[0]), term_ii=float(t[1]), term_iii=float(t[2]),
                     term_iv=float(t[3]))


def _maximal(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Leafwise max of num / den over the dyadic intervals containing each
    leaf, from heap averages (last axis): a running max from the root down,
    in O(2^d) memory."""
    levels = _heap_levels(num / den)
    running = levels[0]
    for ratio in levels[1:]:
        running = np.maximum(running.repeat(2, axis=-1), ratio)
    return running


def maximal_weighted(phi: LeafFunction, w: Weight) -> LeafFunction:
    """Leafwise max over containing dyadic I of <|phi| w>_I / <w>_I."""
    _check_depths(phi, w.base)
    return LeafFunction(_maximal(heap_averages(np.abs(phi.values) * w.values), w._avg[0]))


@dataclass(frozen=True)
class DualityReport:
    product: float
    ratio: float


def _maximal_product(num: np.ndarray, w: Weight) -> float:
    """Integral of M_w phi * M_sigma psi, from num: the heap averages of
    |phi| w and |psi| sigma."""
    m = _maximal(num, w._avg)
    return float(_mean(m[0] * m[1]))


def duality_product(phi: LeafFunction, psi: LeafFunction, w: Weight) -> DualityReport:
    """Integral of M_w phi * M_sigma psi, and its ratio to ||phi||_w ||psi||_sigma."""
    _check_depths(phi, psi, w.base)
    product = _maximal_product(
        heap_averages([np.abs(phi.values) * w.values, np.abs(psi.values) * w.sigma]), w)
    denom = _weighted_norm(phi.values, w.values) * _weighted_norm(psi.values, w.sigma)
    return DualityReport(product=product, ratio=product / denom if denom > 0 else 0.0)


def carleson_measure_of(w: Weight) -> CarlesonMeasure:
    """alpha_I = |Delta_I w| |Delta_I sigma| |I| over internal intervals."""
    return CarlesonMeasure(depth=w.depth, alpha=w._alpha)


def carleson_norm(m: CarlesonMeasure) -> float:
    """Max over internal L of (1/|L|) sum_{I inside or equal to L} alpha_I."""
    return _carleson_norm(m.alpha)


def two_weight_ratio_max(u: LeafFunction, v: LeafFunction) -> float:
    """Max over every internal L of the difference-sum ratio of two strictly
    positive functions, [(1/|L|) sum_{I inside L} |Delta_I u||Delta_I v||I|]
    / sqrt(<u>_L <v>_L)."""
    depth = _check_depths(u, v)
    if (u.values <= 0).any() or (v.values <= 0).any():
        raise DomainError("both functions must be strictly positive")
    inner = (1 << depth) - 1
    avg = heap_averages([u.values, v.values])
    d = _heap_diffs(avg)
    L = _interval_lengths(depth)
    sums = _subtree_sums(L * np.abs(d[0]) * np.abs(d[1]))
    return float(((sums * (1.0 / L)) / np.sqrt(avg[0, :inner] * avg[1, :inner])).max())


def carleson_box_check(phi: LeafFunction, psi: LeafFunction, w: Weight) -> Tuple[float, float]:
    """lhs = sum_I (|<phi w>_I|/<w>_I)(|<psi sigma>_I|/<sigma>_I) alpha_I,
    rhs = Carleson norm of alpha times the maximal-function duality product.

    The inequality lhs <= rhs is asserted on every call (it is the standard
    Carleson embedding with constant one: each summand is dominated by the
    pointwise product of the two maximal functions on its interval).
    """
    depth = _check_depths(phi, psi, w.base)
    inner = (1 << depth) - 1
    # rows 0, 1 give the box sum, rows 2, 3 the maximal functions of the bound
    avg = heap_averages([phi.values * w.values, psi.values / w.values,
                         np.abs(phi.values) * w.values, np.abs(psi.values) * w.sigma])
    r = np.abs(avg[:2, :inner]) / w._avg[:, :inner]
    lhs = float(_level_total(r[0] * r[1] * w._alpha))
    rhs = w._carleson * _maximal_product(avg[2:], w)
    if lhs > rhs * (1.0 + 1e-12) + 1e-15:
        raise InvariantError(f"Carleson box bound violated: {lhs} > {rhs}")
    return lhs, rhs


# -- form builders for scaling sweeps ------------------------------------


def key_sum_form(w: Weight) -> AbsBilinearForm:
    """sup over ||phi||_w = ||psi||_sigma = 1 of key_sum, as an AbsBilinearForm."""
    # Haar coefficients of phi w and psi sigma as linear maps of the leaf values
    return weighted_form(w, IdentityOperator(n_internal(w.depth)),
                         _haar_operator(w.depth, w.values), _haar_operator(w.depth, w.sigma))


def term1_form(w: Weight) -> AbsBilinearForm:
    """sup of the first decomposition term over the same unit balls.

    The supremum is exactly sqrt(Q), Q = a2_characteristic(w).characteristic,
    which is what a sweep row reports as termI_max.  The form is

        sum_I |(phi w, h^w_I)| sqrt(<w>_I) |(psi sigma, h^sigma_I)| sqrt(<sigma>_I)

    over internal I, with ||phi||_w = ||psi||_sigma = 1.  The h^w_I are
    orthonormal in L2(w), so (phi w, h^w_I) is the inner product of phi and
    h^w_I in L2(w), and Bessel gives sum_I (phi w, h^w_I)^2 <= ||phi||_w^2;
    likewise for psi in L2(sigma).  So, by Cauchy-Schwarz, the form is at
    most max_I sqrt(<w>_I <sigma>_I) ||phi||_w ||psi||_sigma.  Put
    differently: the metric-normalized maps have orthogonal rows, of norms
    sqrt(<w>_I) and sqrt(<sigma>_I), and m is the identity.  That max is
    sqrt(Q): <w>_I <sigma>_I >= 1 by Cauchy-Schwarz, with equality on a leaf
    up to the rounding of fl(1/w).  The A2 witness J attains it with
    phi = h^w_J and psi = h^sigma_J, both unit vectors in the form's
    metrics, for which only the term of J is nonzero; J is internal unless
    every product is 1 (a constant weight), where the supremum is 1 up to
    rounding.
    """
    depth = w.depth
    scale = 2.0**-depth

    def rows(k, mult):
        # (phi mult, h^mult_I) sqrt(<mult>_I) as a linear map of phi's leaf values
        root = np.sqrt(w._avg[k, : (1 << depth) - 1])
        return TwoValuedRowOperator(depth, root * w._haar[0, k], root * w._haar[1, k], mult * scale)

    return weighted_form(w, IdentityOperator(n_internal(depth)),
                         rows(0, w.values), rows(1, w.sigma))
