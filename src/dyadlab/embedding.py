"""Bilinear embedding machinery: the key sum, its four-term decomposition,
weighted maximal functions, Carleson measures built from an A2 weight, and
the two-function difference-sum lemma used to bound the Carleson norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .forms import AbsBilinearForm, _form_operands
from .tree import (
    ROOT,
    DomainError,
    DyadicIndex,
    IdentityOperator,
    InvariantError,
    LeafFunction,
    StructureError,
    TwoValuedRowOperator,
    _haar_operator,
    _heap_diffs,
    _heap_levels,
    _interval_lengths,
    _subtree_slices,
    _subtree_sum,
    _subtree_sums,
    heap_averages,
    level_averages,
    level_diffs,
)
from .weights import Weight, _carleson_norm, _weighted_norm, weighted_norm


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
        if alpha.shape != ((1 << self.depth) - 1,):
            raise StructureError(f"expected {(1 << self.depth) - 1} masses, got {alpha.shape}")
        if not np.all(alpha >= 0.0):  # also false for nan
            raise DomainError("masses must be >= 0")
        object.__setattr__(self, "alpha", alpha)


def _key_terms(phi: LeafFunction, psi: LeafFunction, w: Weight) -> np.ndarray:
    """|Delta_I (phi w)| |Delta_I (psi sigma)| for every internal I, heap-ordered.

    sigma is taken from the leaf values, so the key sum builds no weight cache."""
    da = level_diffs(level_averages(phi.values * w.values))
    db = level_diffs(level_averages(psi.values * (1.0 / w.values)))
    return np.abs(np.concatenate(da)) * np.abs(np.concatenate(db))


def key_sum(phi: LeafFunction, psi: LeafFunction, w: Weight) -> float:
    """Sum over internal I of |(phi*w, h_I)| * |(psi*sigma, h_I)|."""
    _check_depths(phi, psi, w.base)
    return float(_subtree_sum(ROOT, _key_terms(phi, psi, w)))


def four_terms(phi: LeafFunction, psi: LeafFunction, w: Weight) -> FourTerms:
    """The four sums whose total dominates key_sum (triangle inequality on
    the split of h_I into its weighted Haar part and a constant part)."""
    depth = _check_depths(phi, psi, w.base)
    inner = (1 << depth) - 1
    st = w._stats
    # row 0 belongs to phi w (with w), row 1 to psi sigma (with sigma)
    avg = heap_averages([phi.values * w.values, psi.values * w.sigma])
    L = _interval_lengths(depth)

    # unweighted inner products (g, h^w_I) = (|I|/2)(a <g>_- + b <g>_+)
    ip = np.abs((L / 2.0) * (st.haar[0] * avg[:, 1::2] + st.haar[1] * avg[:, 2::2]))
    m = st.avg[:, :inner]
    mp = np.abs(avg[:, :inner])
    r = np.abs(st.delta) / m
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
        running = np.maximum(np.repeat(running, 2, axis=-1), ratio)
    return running


def maximal_weighted(phi: LeafFunction, w: Weight) -> LeafFunction:
    """Leafwise max over containing dyadic I of <|phi| w>_I / <w>_I."""
    _check_depths(phi, w.base)
    return LeafFunction(_maximal(heap_averages(np.abs(phi.values) * w.values), w._stats.avg[0]))


@dataclass(frozen=True)
class DualityReport:
    product: float
    ratio: float


def _duality(num: np.ndarray, phi: LeafFunction, psi: LeafFunction, w: Weight) -> DualityReport:
    """The duality report, from num: the heap averages of |phi| w and |psi| sigma."""
    m = _maximal(num, w._stats.avg)
    product = float(np.mean(m[0] * m[1]))
    denom = _weighted_norm(phi.values, w.values) * _weighted_norm(psi.values, w.sigma)
    return DualityReport(product=product, ratio=product / denom if denom > 0 else 0.0)


def duality_product(phi: LeafFunction, psi: LeafFunction, w: Weight) -> DualityReport:
    """Integral of M_w phi * M_sigma psi, and its ratio to ||phi||_w ||psi||_sigma."""
    _check_depths(phi, psi, w.base)
    num = heap_averages([np.abs(phi.values) * w.values, np.abs(psi.values) * w.sigma])
    return _duality(num, phi, psi, w)


def carleson_measure_of(w: Weight) -> CarlesonMeasure:
    """alpha_I = |Delta_I w| |Delta_I sigma| |I| over internal intervals."""
    return CarlesonMeasure(depth=w.depth, alpha=w._stats.alpha)


def carleson_norm(m: CarlesonMeasure) -> float:
    """Max over internal L of (1/|L|) sum_{I inside or equal to L} alpha_I."""
    return _carleson_norm(m.alpha)


@dataclass(frozen=True)
class TwoWeightReport:
    ratio: float
    hypothesis_ok: bool
    worst_product: float


def two_weight_ratio(u: LeafFunction, v: LeafFunction, L: DyadicIndex) -> TwoWeightReport:
    """Difference-sum ratio for two positive functions, localized to L.

    ratio = [(1/|L|) sum_{I inside L} |Delta_I u||Delta_I v||I|] / sqrt(<u>_L <v>_L).
    The hypothesis <u>_I <v>_I <= 1 is checked over every dyadic I inside L
    (leaves included) and reported; a violation flags the report but the
    ratio is still computed.
    """
    depth = _check_depths(u, v)
    if np.any(u.values <= 0) or np.any(v.values <= 0):
        raise DomainError("both functions must be strictly positive")
    if L.level > depth:
        raise DomainError("interval below leaf level")
    avg = heap_averages([u.values, v.values])
    d = _heap_diffs(avg)
    prod = avg[0] * avg[1]
    worst = max(float(np.max(prod[sl])) for _, sl in _subtree_slices(L, depth + 1))

    total = _subtree_sum(L, np.abs(d[0]) * np.abs(d[1]))
    i = (1 << L.level) - 1 + L.position
    mean_u = avg[0, i]
    mean_v = avg[1, i]
    ratio = (total / L.length) / np.sqrt(mean_u * mean_v)
    return TwoWeightReport(ratio=float(ratio), hypothesis_ok=bool(worst <= 1.0 + 1e-12),
                           worst_product=float(worst))


def two_weight_ratio_max(u: LeafFunction, v: LeafFunction) -> float:
    """Max of the difference-sum ratio over every internal L (vectorized)."""
    depth = _check_depths(u, v)
    inner = (1 << depth) - 1
    avg = heap_averages([u.values, v.values])
    d = _heap_diffs(avg)
    L = _interval_lengths(depth)
    sums = _subtree_sums(L * np.abs(d[0]) * np.abs(d[1]))
    ratios = _heap_levels((sums * (1.0 / L)) / np.sqrt(avg[0, :inner] * avg[1, :inner]))
    best = 0.0
    for lev in range(depth - 1, -1, -1):
        best = max(best, float(np.max(ratios[lev])))
    return best


def carleson_box_check(phi: LeafFunction, psi: LeafFunction, w: Weight) -> Tuple[float, float]:
    """lhs = sum_I (|<phi w>_I|/<w>_I)(|<psi sigma>_I|/<sigma>_I) alpha_I,
    rhs = Carleson norm of alpha times the maximal-function duality product.

    The inequality lhs <= rhs is asserted on every call (it is the standard
    Carleson embedding with constant one: each summand is dominated by the
    pointwise product of the two maximal functions on its interval).
    """
    depth = _check_depths(phi, psi, w.base)
    inner = (1 << depth) - 1
    st = w._stats
    # rows 0, 1 give the box sum, rows 2, 3 the maximal functions of the bound
    avg = heap_averages([phi.values * w.values, psi.values / w.values,
                         np.abs(phi.values) * w.values, np.abs(psi.values) * w.sigma])
    r = np.abs(avg[:2, :inner]) / st.avg[:, :inner]
    lhs = float(_level_total(r[0] * r[1] * st.alpha))
    rhs = st.carleson * _duality(avg[2:], phi, psi, w).product
    if lhs > rhs * (1.0 + 1e-12) + 1e-15:
        raise InvariantError(f"Carleson box bound violated: {lhs} > {rhs}")
    return lhs, rhs


def ltrick_ratios(phi: LeafFunction, psi: LeafFunction, w: Weight) -> Tuple[float, float]:
    """The box-sum lhs normalized by Q and each of the two norm readings.

    Returns (lhs / (Q ||phi||_w ||psi||_sigma), lhs / (Q ||phi||_sigma ||psi||_sigma)).
    """
    from .weights import a2_characteristic, dual as dual_weight

    lhs, _ = carleson_box_check(phi, psi, w)
    q = a2_characteristic(w).characteristic
    sig = dual_weight(w)
    r_w = lhs / (q * weighted_norm(phi, w) * weighted_norm(psi, sig))
    r_s = lhs / (q * weighted_norm(phi, sig) * weighted_norm(psi, sig))
    return r_w, r_s


# -- form builders for scaling sweeps ------------------------------------


def key_sum_form(w: Weight) -> AbsBilinearForm:
    """sup over ||phi||_w = ||psi||_sigma = 1 of key_sum, as an AbsBilinearForm."""
    depth = w.depth
    scale = 2.0**-depth
    # Haar coefficients of phi w and psi sigma as linear maps of the leaf values
    m, left, right = _form_operands(
        depth, IdentityOperator((1 << depth) - 1),
        _haar_operator(depth, w.values), _haar_operator(depth, 1.0 / w.values))
    return AbsBilinearForm(
        m=m,
        left_map=left,
        right_map=right,
        left_metric=w.values * scale,
        right_metric=(1.0 / w.values) * scale,
    )


def term1_form(w: Weight) -> AbsBilinearForm:
    """sup of the first decomposition term over the same unit balls."""
    depth = w.depth
    scale = 2.0**-depth
    sig_vals = w.sigma
    st = w._stats

    def rows(k, mult):
        # (phi mult, h^mult_I) sqrt(<mult>_I) as a linear map of phi's leaf values
        root = np.sqrt(st.avg[k, : (1 << depth) - 1])
        levels = zip(_heap_levels(root * st.haar[0, k]), _heap_levels(root * st.haar[1, k]))
        return TwoValuedRowOperator(depth, list(levels), mult * scale)

    m, left, right = _form_operands(
        depth, IdentityOperator((1 << depth) - 1), rows(0, w.values), rows(1, sig_vals))
    return AbsBilinearForm(
        m=m,
        left_map=left,
        right_map=right,
        left_metric=w.values * scale,
        right_metric=sig_vals * scale,
    )
