"""Bilinear embedding machinery: the key sum, its four-term decomposition,
weighted maximal functions, Carleson measures built from an A2 weight, and
the two-function difference-sum lemma used to bound the Carleson norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .forms import AbsBilinearForm, _form_operands
from .tree import (
    DomainError,
    DyadicIndex,
    IdentityOperator,
    InvariantError,
    LeafFunction,
    StructureError,
    TwoValuedRowOperator,
    _haar_operator,
    _subtree_sum,
    internal_indices,
    level_averages,
    level_diffs,
)
from .weights import Weight, _haar_values, interval_stats, weighted_norm


def _check_depths(*fns):
    depths = {f.depth for f in fns}
    if len(depths) != 1:
        raise StructureError(f"depth mismatch: {sorted(depths)}")
    return depths.pop()


@dataclass(frozen=True)
class FourTerms:
    term_i: float
    term_ii: float
    term_iii: float
    term_iv: float

    def total(self) -> float:
        return self.term_i + self.term_ii + self.term_iii + self.term_iv


@dataclass(frozen=True)
class CarlesonMeasure:
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


def key_sum(phi: LeafFunction, psi: LeafFunction, w: Weight) -> float:
    """Sum over internal I of |(phi*w, h_I)| * |(psi*sigma, h_I)|."""
    _check_depths(phi, psi, w.base)
    pw = phi.values * w.values
    ps = psi.values * (1.0 / w.values)
    da = level_diffs(level_averages(pw))
    db = level_diffs(level_averages(ps))
    total = 0.0
    for lev in range(w.depth):
        L = 2.0**-lev
        total += L * np.sum(np.abs(da[lev]) * np.abs(db[lev]))
    return float(total)


def _halved(avgs, lev):
    """Children averages at level lev, as (left, right) arrays."""
    return avgs[lev + 1][0::2], avgs[lev + 1][1::2]


def four_terms(phi: LeafFunction, psi: LeafFunction, w: Weight) -> FourTerms:
    """The four sums whose total dominates key_sum (triangle inequality on
    the split of h_I into its weighted Haar part and a constant part)."""
    depth = _check_depths(phi, psi, w.base)
    sig_vals = 1.0 / w.values
    pw = phi.values * w.values
    ps = psi.values * sig_vals

    aw, asig, dw, dsig = interval_stats(w)
    a_pw = level_averages(pw)
    a_ps = level_averages(ps)
    haar_w = _haar_values(aw)
    haar_s = _haar_values(asig)

    t1 = t2 = t3 = t4 = 0.0
    for lev in range(depth):
        L = 2.0**-lev
        gl, gr = _halved(a_pw, lev)
        ql, qr = _halved(a_ps, lev)
        a_w, b_w = haar_w[lev]
        a_s, b_s = haar_s[lev]

        # unweighted inner products (g, h^w_I) = (|I|/2)(a <g>_- + b <g>_+)
        ip_w = (L / 2.0) * (a_w * gl + b_w * gr)
        ip_s = (L / 2.0) * (a_s * ql + b_s * qr)

        mw = aw[lev]
        ms = asig[lev]
        mpw = a_pw[lev]
        mps = a_ps[lev]
        rw = np.abs(dw[lev]) / mw
        rs = np.abs(dsig[lev]) / ms
        sL = np.sqrt(L)

        t1 += np.sum(np.abs(ip_w) * np.sqrt(mw) * np.abs(ip_s) * np.sqrt(ms))
        t2 += np.sum(np.abs(mpw) * rw * np.abs(ip_s) * np.sqrt(ms) * sL)
        t3 += np.sum(np.abs(mps) * rs * np.abs(ip_w) * np.sqrt(mw) * sL)
        t4 += np.sum(np.abs(mpw) * np.abs(mps) * rw * rs * L)
    return FourTerms(term_i=float(t1), term_ii=float(t2), term_iii=float(t3),
                     term_iv=float(t4))


def maximal_weighted(phi: LeafFunction, w: Weight) -> LeafFunction:
    """Leafwise max over containing dyadic I of <|phi| w>_I / <w>_I."""
    _check_depths(phi, w.base)
    num = level_averages(np.abs(phi.values) * w.values)
    den = level_averages(w.values)
    running = None
    for lev in range(w.depth + 1):
        ratio = num[lev] / den[lev]
        if running is None:
            running = ratio
        else:
            running = np.maximum(np.repeat(running, 2), ratio)
    return LeafFunction(running)


@dataclass(frozen=True)
class DualityReport:
    product: float
    ratio: float


def duality_product(phi: LeafFunction, psi: LeafFunction, w: Weight) -> DualityReport:
    """Integral of M_w phi * M_sigma psi, and its ratio to ||phi||_w ||psi||_sigma."""
    _check_depths(phi, psi, w.base)
    sig = Weight(LeafFunction(1.0 / w.values))
    mphi = maximal_weighted(phi, w)
    mpsi = maximal_weighted(psi, sig)
    product = float(np.mean(mphi.values * mpsi.values))
    denom = weighted_norm(phi, w) * weighted_norm(psi, sig)
    return DualityReport(product=product, ratio=product / denom if denom > 0 else 0.0)


def _alpha_levels(dw, dsig):
    """Per-level arrays of alpha_I = |Delta_I w| |Delta_I sigma| |I|."""
    return [np.abs(a) * np.abs(b) * 2.0**-lev for lev, (a, b) in enumerate(zip(dw, dsig))]


def _subtree_sums(levels):
    """Per-level arrays of sum_{I inside or equal to L} t_I for every L, where
    levels[lev] holds t_I at level lev (accumulated from the bottom up)."""
    sums = list(levels)
    for lev in range(len(levels) - 2, -1, -1):
        sums[lev] = levels[lev] + sums[lev + 1][0::2] + sums[lev + 1][1::2]
    return sums


def _carleson_norm_levels(alpha) -> float:
    sums = _subtree_sums(alpha)
    return max((float(np.max(sums[lev]) * 2.0**lev) for lev in reversed(range(len(sums)))),
               default=0.0)


def carleson_measure_of(w: Weight) -> CarlesonMeasure:
    """alpha_I = |Delta_I w| |Delta_I sigma| |I| over internal intervals."""
    _, _, dw, dsig = interval_stats(w)
    alpha = np.concatenate(_alpha_levels(dw, dsig))
    return CarlesonMeasure(depth=w.depth, alpha={
        I: float(a) for I, a in zip(internal_indices(w.depth), alpha)})


def carleson_norm(m: CarlesonMeasure) -> float:
    """Max over internal L of (1/|L|) sum_{I inside or equal to L} alpha_I."""
    return _carleson_norm_levels(m.level_arrays())


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
    au = level_averages(u.values)
    av = level_averages(v.values)
    du = level_diffs(au)
    dv = level_diffs(av)

    worst = -np.inf
    for lev in range(L.level, depth + 1):
        span = 1 << (lev - L.level)
        sl = slice(L.position * span, (L.position + 1) * span)
        worst = max(worst, float(np.max(au[lev][sl] * av[lev][sl])))

    total = _subtree_sum(L, [np.abs(a) * np.abs(b) for a, b in zip(du, dv)])
    mean_u = au[L.level][L.position]
    mean_v = av[L.level][L.position]
    ratio = (total / L.length) / np.sqrt(mean_u * mean_v)
    return TwoWeightReport(ratio=float(ratio), hypothesis_ok=bool(worst <= 1.0 + 1e-12),
                           worst_product=float(worst))


def two_weight_ratio_max(u: LeafFunction, v: LeafFunction) -> float:
    """Max of the difference-sum ratio over every internal L (vectorized)."""
    depth = _check_depths(u, v)
    au = level_averages(u.values)
    av = level_averages(v.values)
    du = level_diffs(au)
    dv = level_diffs(av)
    per_level = [2.0**-lev * np.abs(du[lev]) * np.abs(dv[lev]) for lev in range(depth)]
    sums = _subtree_sums(per_level)
    best = 0.0
    for lev in range(depth - 1, -1, -1):
        ratios = (sums[lev] * 2.0**lev) / np.sqrt(au[lev] * av[lev])
        best = max(best, float(np.max(ratios)))
    return best


def carleson_box_check(phi: LeafFunction, psi: LeafFunction, w: Weight) -> Tuple[float, float]:
    """lhs = sum_I (|<phi w>_I|/<w>_I)(|<psi sigma>_I|/<sigma>_I) alpha_I,
    rhs = Carleson norm of alpha times the maximal-function duality product.

    The inequality lhs <= rhs is asserted on every call (it is the standard
    Carleson embedding with constant one: each summand is dominated by the
    pointwise product of the two maximal functions on its interval).
    """
    depth = _check_depths(phi, psi, w.base)
    aw, asig, dw, dsig = interval_stats(w)
    a_pw = level_averages(phi.values * w.values)
    a_ps = level_averages(psi.values / w.values)
    alpha = _alpha_levels(dw, dsig)
    lhs = 0.0
    for lev in range(depth):
        lhs += np.sum(
            (np.abs(a_pw[lev]) / aw[lev]) * (np.abs(a_ps[lev]) / asig[lev]) * alpha[lev]
        )
    lhs = float(lhs)
    rhs = _carleson_norm_levels(alpha) * duality_product(phi, psi, w).product
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
    sig_vals = 1.0 / w.values
    aw, asig, _, _ = interval_stats(w)

    def rows(avgs, mult):
        # (phi mult, h^mult_I) sqrt(<mult>_I) as a linear map of phi's leaf values
        levels = [(np.sqrt(avgs[lev]) * a, np.sqrt(avgs[lev]) * b)
                  for lev, (a, b) in enumerate(_haar_values(avgs))]
        return TwoValuedRowOperator(depth, levels, mult * scale)

    m, left, right = _form_operands(
        depth, IdentityOperator((1 << depth) - 1), rows(aw, w.values), rows(asig, sig_vals))
    return AbsBilinearForm(
        m=m,
        left_map=left,
        right_map=right,
        left_metric=w.values * scale,
        right_metric=sig_vals * scale,
    )
