"""The heap-ordered interval averages, the weight cache and the level-vectorized
kernels against the per-level code they replaced: every output must be
bit-identical."""
import numpy as np
import pytest

from dyadlab import bellman, embedding, tree, weights
from dyadlab.bellman import BellmanPoint
from dyadlab.embedding import DualityReport, FourTerms, TwoWeightReport
from dyadlab.forms import AbsBilinearForm, _form_operands
from dyadlab.tree import (
    DomainError,
    DyadicIndex,
    IdentityOperator,
    LeafFunction,
    StructureError,
    TwoValuedRowOperator,
)
from dyadlab.weights import A2Report, Weight

# -- the per-level code, kept verbatim as the reference ----------------------


def reference_level_averages(values: np.ndarray) -> list:
    """Averages at every level: result[level] has 2^level entries, result[depth] = values."""
    depth = int(np.asarray(values).size).bit_length() - 1
    out = [None] * (depth + 1)
    out[depth] = np.asarray(values, dtype=float)
    for level in range(depth - 1, -1, -1):
        upper = out[level + 1]
        out[level] = (upper[0::2] + upper[1::2]) / 2.0
    return out


def reference_level_diffs(avgs: list) -> list:
    """Martingale differences per internal level, from precomputed level averages."""
    depth = len(avgs) - 1
    return [(avgs[lev + 1][0::2] - avgs[lev + 1][1::2]) / 2.0 for lev in range(depth)]


def reference_level_haar_coeffs(values: np.ndarray) -> list:
    """Haar coefficients (f, h_I) per internal level, as arrays."""
    avgs = reference_level_averages(values)
    diffs = reference_level_diffs(avgs)
    return [d * np.sqrt(2.0**-lev) for lev, d in enumerate(diffs)]


def reference_subtree_sum(J: DyadicIndex, levels) -> float:
    """Sum over I inside or equal to J of |I| t_I, where levels[lev] holds t_I
    for the intervals at level lev (the sum stops at the last given level)."""
    total = 0.0
    for lev in range(J.level, len(levels)):
        span = 1 << (lev - J.level)
        total += 2.0**-lev * np.sum(levels[lev][J.position * span : (J.position + 1) * span])
    return total


def reference_a2_characteristic(w: Weight) -> A2Report:
    """Exact max of <w>_I <1/w>_I over all dyadic I (leaves included)."""
    aw = reference_level_averages(w.values)
    asig = reference_level_averages(1.0 / w.values)
    best = -np.inf
    witness = None
    for level in range(w.depth + 1):
        prod = aw[level] * asig[level]
        k = int(np.argmax(prod))
        if prod[k] > best:
            best = float(prod[k])
            witness = DyadicIndex(level, k)
    return A2Report(characteristic=best, witness=witness)


def reference_weighted_norm(f: LeafFunction, w: Weight) -> float:
    if f.depth != w.depth:
        raise StructureError(f"depth mismatch: {f.depth} vs {w.depth}")
    return float(np.sqrt(np.mean(f.values**2 * w.values)))


def reference_haar_values(avgs: list):
    """Per-level (a, b) arrays: the left and right values of h_I^w for every
    internal I, from the level averages of w (tree.level_averages)."""
    out = []
    for lev in range(len(avgs) - 1):
        wl = avgs[lev + 1][0::2]
        wr = avgs[lev + 1][1::2]
        a = np.sqrt(2.0 * wr / (2.0**-lev * wl * (wl + wr)))
        out.append((a, -a * wl / wr))
    return out


def reference_weighted_haar_levels(w: Weight):
    return reference_haar_values(reference_level_averages(w.values))


def reference_interval_stats(w: Weight):
    """Per-level arrays (<w>, <sigma>, Delta w, Delta sigma) reused everywhere."""
    aw = reference_level_averages(w.values)
    asig = reference_level_averages(1.0 / w.values)
    dw = reference_level_diffs(aw)
    dsig = reference_level_diffs(asig)
    return aw, asig, dw, dsig


def reference_key_sum(phi: LeafFunction, psi: LeafFunction, w: Weight) -> float:
    """Sum over internal I of |(phi*w, h_I)| * |(psi*sigma, h_I)|."""
    pw = phi.values * w.values
    ps = psi.values * (1.0 / w.values)
    da = reference_level_diffs(reference_level_averages(pw))
    db = reference_level_diffs(reference_level_averages(ps))
    total = 0.0
    for lev in range(w.depth):
        L = 2.0**-lev
        total += L * np.sum(np.abs(da[lev]) * np.abs(db[lev]))
    return float(total)


def _halved(avgs, lev):
    """Children averages at level lev, as (left, right) arrays."""
    return avgs[lev + 1][0::2], avgs[lev + 1][1::2]


def reference_four_terms(phi: LeafFunction, psi: LeafFunction, w: Weight) -> FourTerms:
    depth = w.depth
    sig_vals = 1.0 / w.values
    pw = phi.values * w.values
    ps = psi.values * sig_vals

    aw, asig, dw, dsig = reference_interval_stats(w)
    a_pw = reference_level_averages(pw)
    a_ps = reference_level_averages(ps)
    haar_w = reference_haar_values(aw)
    haar_s = reference_haar_values(asig)

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


def reference_maximal_weighted(phi: LeafFunction, w: Weight) -> LeafFunction:
    """Leafwise max over containing dyadic I of <|phi| w>_I / <w>_I."""
    num = reference_level_averages(np.abs(phi.values) * w.values)
    den = reference_level_averages(w.values)
    running = None
    for lev in range(w.depth + 1):
        ratio = num[lev] / den[lev]
        if running is None:
            running = ratio
        else:
            running = np.maximum(np.repeat(running, 2), ratio)
    return LeafFunction(running)


def reference_duality_product(phi: LeafFunction, psi: LeafFunction, w: Weight) -> DualityReport:
    """Integral of M_w phi * M_sigma psi, and its ratio to ||phi||_w ||psi||_sigma."""
    sig = Weight(LeafFunction(1.0 / w.values))
    mphi = reference_maximal_weighted(phi, w)
    mpsi = reference_maximal_weighted(psi, sig)
    product = float(np.mean(mphi.values * mpsi.values))
    denom = reference_weighted_norm(phi, w) * reference_weighted_norm(psi, sig)
    return DualityReport(product=product, ratio=product / denom if denom > 0 else 0.0)


def reference_alpha_levels(dw, dsig):
    """Per-level arrays of alpha_I = |Delta_I w| |Delta_I sigma| |I|."""
    return [np.abs(a) * np.abs(b) * 2.0**-lev for lev, (a, b) in enumerate(zip(dw, dsig))]


def reference_subtree_sums(levels):
    sums = list(levels)
    for lev in range(len(levels) - 2, -1, -1):
        sums[lev] = levels[lev] + sums[lev + 1][0::2] + sums[lev + 1][1::2]
    return sums


def reference_carleson_norm_levels(alpha) -> float:
    sums = reference_subtree_sums(alpha)
    return max((float(np.max(sums[lev]) * 2.0**lev) for lev in reversed(range(len(sums)))),
               default=0.0)


def reference_carleson_measure_of(w: Weight) -> dict:
    """alpha_I = |Delta_I w| |Delta_I sigma| |I| over internal intervals, by interval."""
    _, _, dw, dsig = reference_interval_stats(w)
    alpha = np.concatenate(reference_alpha_levels(dw, dsig))
    return {I: float(a) for I, a in zip(tree.internal_indices(w.depth), alpha)}


def reference_carleson_norm(alpha: dict, depth: int) -> float:
    levels = [np.zeros(1 << lev) for lev in range(depth)]
    for I, a in alpha.items():
        levels[I.level][I.position] = a
    return reference_carleson_norm_levels(levels)


def reference_two_weight_ratio(u: LeafFunction, v: LeafFunction, L: DyadicIndex):
    depth = u.depth
    au = reference_level_averages(u.values)
    av = reference_level_averages(v.values)
    du = reference_level_diffs(au)
    dv = reference_level_diffs(av)

    worst = -np.inf
    for lev in range(L.level, depth + 1):
        span = 1 << (lev - L.level)
        sl = slice(L.position * span, (L.position + 1) * span)
        worst = max(worst, float(np.max(au[lev][sl] * av[lev][sl])))

    total = reference_subtree_sum(L, [np.abs(a) * np.abs(b) for a, b in zip(du, dv)])
    mean_u = au[L.level][L.position]
    mean_v = av[L.level][L.position]
    ratio = (total / L.length) / np.sqrt(mean_u * mean_v)
    return TwoWeightReport(ratio=float(ratio), hypothesis_ok=bool(worst <= 1.0 + 1e-12),
                           worst_product=float(worst))


def reference_two_weight_ratio_max(u: LeafFunction, v: LeafFunction) -> float:
    depth = u.depth
    au = reference_level_averages(u.values)
    av = reference_level_averages(v.values)
    du = reference_level_diffs(au)
    dv = reference_level_diffs(av)
    per_level = [2.0**-lev * np.abs(du[lev]) * np.abs(dv[lev]) for lev in range(depth)]
    sums = reference_subtree_sums(per_level)
    best = 0.0
    for lev in range(depth - 1, -1, -1):
        ratios = (sums[lev] * 2.0**lev) / np.sqrt(au[lev] * av[lev])
        best = max(best, float(np.max(ratios)))
    return best


def reference_carleson_box_check(phi: LeafFunction, psi: LeafFunction, w: Weight):
    depth = w.depth
    aw, asig, dw, dsig = reference_interval_stats(w)
    a_pw = reference_level_averages(phi.values * w.values)
    a_ps = reference_level_averages(psi.values / w.values)
    alpha = reference_alpha_levels(dw, dsig)
    lhs = 0.0
    for lev in range(depth):
        lhs += np.sum(
            (np.abs(a_pw[lev]) / aw[lev]) * (np.abs(a_ps[lev]) / asig[lev]) * alpha[lev]
        )
    lhs = float(lhs)
    rhs = reference_carleson_norm_levels(alpha) * reference_duality_product(phi, psi, w).product
    return lhs, rhs


def reference_point_from_data(phi: LeafFunction, psi: LeafFunction, w: Weight,
                              J: DyadicIndex):
    depth = w.depth
    sig_vals = 1.0 / w.values
    sl = J.leaf_slice(depth)
    u = float(reference_level_averages(w.values)[J.level][J.position])
    v = float(reference_level_averages(sig_vals)[J.level][J.position])
    X = float(np.mean(phi.values[sl] ** 2 * w.values[sl]))
    Y = float(np.mean(psi.values[sl] ** 2 * sig_vals[sl]))
    x = float(np.mean(phi.values[sl]))
    y = float(np.mean(psi.values[sl]))
    for _ in range(4):
        if x * x > X * v:
            x *= 1.0 - 4e-16
        if y * y > Y * u:
            y *= 1.0 - 4e-16
        if u * v < 1.0:
            u *= 1.0 + 4e-16
    point = BellmanPoint(X=X, Y=Y, x=x, y=y, u=u, v=v)
    da = reference_level_diffs(reference_level_averages(phi.values * w.values))
    db = reference_level_diffs(reference_level_averages(psi.values * sig_vals))
    local_sum = reference_subtree_sum(
        J, [np.abs(a) * np.abs(b) for a, b in zip(da, db)]) / J.length
    return point, float(local_sum)


def reference_tree_sum_ratio(f1: LeafFunction, f2: LeafFunction, w: Weight, I: DyadicIndex):
    depth = w.depth
    d1 = reference_level_diffs(reference_level_averages(f1.values))
    d2 = reference_level_diffs(reference_level_averages(f2.values))
    kids = [np.abs(d).reshape(-1, 2).sum(axis=1) for d in d2[1:]]
    lhs = reference_subtree_sum(I, [np.abs(d) * k for d, k in zip(d1, kids)])
    q = reference_a2_characteristic(w).characteristic
    sl = I.leaf_slice(depth)
    sig = 1.0 / w.values
    rhs0 = 40.0 * q * (
        float(np.mean(f1.values[sl] ** 2 * w.values[sl]))
        + float(np.mean(f2.values[sl] ** 2 * sig[sl]))
    ) * I.length
    return float(lhs), rhs0, float(lhs / rhs0) if rhs0 > 0 else 0.0


def reference_term1_form(w: Weight) -> AbsBilinearForm:
    depth = w.depth
    scale = 2.0**-depth
    sig_vals = 1.0 / w.values
    aw, asig, _, _ = reference_interval_stats(w)

    def rows(avgs, mult):
        levels = [(np.sqrt(avgs[lev]) * a, np.sqrt(avgs[lev]) * b)
                  for lev, (a, b) in enumerate(reference_haar_values(avgs))]
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


# -- inputs -------------------------------------------------------------------

DEPTHS = range(1, 11)
SEEDS = range(20)


def _weight(depth, seed):
    """Cascades of every roughness, a power weight and a constant weight, in turn."""
    rng = np.random.default_rng(1000 * depth + seed)
    kind = seed % 4
    if kind == 0:
        return weights.gen_power(depth, float(rng.uniform(-0.9, 2.0)))
    if kind == 1:
        return Weight(LeafFunction.constant(depth, float(rng.uniform(0.1, 10.0))))
    if kind == 2:
        return Weight.from_values(np.exp(rng.uniform(-3.0, 3.0, 1 << depth)))
    return weights.gen_cascade(depth, float(rng.uniform(0.05, 0.95)),
                               int(rng.integers(1 << 30)))


def _leaf(depth, seed, salt):
    """Random leaf values; every fifth input is identically zero."""
    if (seed + salt) % 5 == 0:
        return LeafFunction(np.zeros(1 << depth))
    rng = np.random.default_rng([depth, seed, salt])
    return LeafFunction(rng.standard_normal(1 << depth) * 3.0)


def _intervals(depth, seed):
    """One interval at every level, leaves included."""
    rng = np.random.default_rng([depth, seed, 99])
    return [DyadicIndex(lev, int(rng.integers(1 << lev))) for lev in range(depth + 1)]


CASES = [(d, s) for d in DEPTHS for s in SEEDS]


def bits(x):
    """The bytes of a float, an array or a list of arrays, for exact comparison."""
    if isinstance(x, (list, tuple)):
        return [bits(e) for e in x]
    return np.asarray(x, dtype=float).tobytes()


def _inputs(depth, seed):
    return _weight(depth, seed), _leaf(depth, seed, 1), _leaf(depth, seed, 2)


# -- bit identity ---------------------------------------------------------------


@pytest.mark.parametrize("depth,seed", CASES)
def test_tree_level_functions_match(depth, seed):
    w, phi, _ = _inputs(depth, seed)
    for vals in (phi.values, w.values, 1.0 / w.values):
        avgs = reference_level_averages(vals)
        assert bits(tree.level_averages(vals)) == bits(avgs)
        diffs = tree.level_diffs(tree.level_averages(vals))
        assert bits(diffs) == bits(reference_level_diffs(avgs))
        assert bits(tree.level_haar_coeffs(vals)) == bits(reference_level_haar_coeffs(vals))
    stack = np.array([phi.values, w.values, 1.0 / w.values])
    heap = tree.heap_averages(stack)
    assert heap.flags.c_contiguous
    assert [bits(row) for row in heap] == [bits(tree.heap_averages(v)) for v in stack]


@pytest.mark.parametrize("depth,seed", CASES)
def test_weight_quantities_match(depth, seed):
    w, _, _ = _inputs(depth, seed)
    assert bits(weights.interval_stats(w)) == bits(reference_interval_stats(w))
    assert bits(weights.weighted_haar_levels(w)) == bits(reference_weighted_haar_levels(w))
    assert weights.a2_characteristic(w) == reference_a2_characteristic(w)
    m = embedding.carleson_measure_of(w)
    ref = reference_carleson_measure_of(w)
    assert m.alpha is w._stats.alpha
    assert list(ref) == list(tree.internal_indices(depth))
    assert bits(m.alpha) == bits(np.array(list(ref.values())))
    assert bits(embedding.carleson_norm(m)) == bits(reference_carleson_norm(ref, depth))


@pytest.mark.parametrize("depth,seed", CASES[::3])
def test_term1_form_matches(depth, seed):
    w, _, _ = _inputs(depth, seed)
    new, ref = embedding.term1_form(w), reference_term1_form(w)
    n = 1 << depth
    for attr in ("left_map", "right_map"):
        assert bits(getattr(new, attr) @ np.eye(n)) == bits(getattr(ref, attr) @ np.eye(n))
    assert bits([new.left_metric, new.right_metric]) == bits(
        [ref.left_metric, ref.right_metric])


@pytest.mark.parametrize("depth,seed", CASES)
def test_embedding_kernels_match(depth, seed):
    w, phi, psi = _inputs(depth, seed)
    assert bits(embedding.key_sum(phi, psi, w)) == bits(reference_key_sum(phi, psi, w))
    new, ref = embedding.four_terms(phi, psi, w), reference_four_terms(phi, psi, w)
    assert bits([new.term_i, new.term_ii, new.term_iii, new.term_iv]) == bits(
        [ref.term_i, ref.term_ii, ref.term_iii, ref.term_iv])
    assert bits(embedding.maximal_weighted(phi, w).values) == bits(
        reference_maximal_weighted(phi, w).values)
    new, ref = embedding.duality_product(phi, psi, w), reference_duality_product(phi, psi, w)
    assert bits([new.product, new.ratio]) == bits([ref.product, ref.ratio])
    assert bits(embedding.carleson_box_check(phi, psi, w)) == bits(
        reference_carleson_box_check(phi, psi, w))


@pytest.mark.parametrize("depth,seed", CASES)
def test_localized_quantities_match_at_every_level(depth, seed):
    w, phi, psi = _inputs(depth, seed)
    sig = LeafFunction(1.0 / w.values)
    for J in _intervals(depth, seed):
        point, local = bellman.point_from_data(phi, psi, w, J)
        ref_point, ref_local = reference_point_from_data(phi, psi, w, J)
        assert bits(point.as_array()) == bits(ref_point.as_array())
        assert bits(local) == bits(ref_local)
        assert bits(bellman.tree_sum_ratio(phi, psi, w, J)) == bits(
            reference_tree_sum_ratio(phi, psi, w, J))
        new = embedding.two_weight_ratio(w.base, sig, J)
        ref = reference_two_weight_ratio(w.base, sig, J)
        assert bits([new.ratio, new.worst_product]) == bits([ref.ratio, ref.worst_product])
        assert new.hypothesis_ok == ref.hypothesis_ok
    assert bits(embedding.two_weight_ratio_max(w.base, sig)) == bits(
        reference_two_weight_ratio_max(w.base, sig))


@pytest.mark.parametrize("depth,seed", CASES[::7])
def test_two_weight_ratio_matches_on_unrelated_pairs(depth, seed):
    rng = np.random.default_rng([depth, seed, 7])
    u = LeafFunction(np.exp(rng.standard_normal(1 << depth)))
    v = LeafFunction(np.exp(rng.standard_normal(1 << depth)))
    for L in _intervals(depth, seed):
        new, ref = embedding.two_weight_ratio(u, v, L), reference_two_weight_ratio(u, v, L)
        assert bits([new.ratio, new.worst_product]) == bits([ref.ratio, ref.worst_product])
        assert new.hypothesis_ok == ref.hypothesis_ok
    assert bits(embedding.two_weight_ratio_max(u, v)) == bits(
        reference_two_weight_ratio_max(u, v))


def test_constant_weight_and_zero_functions():
    w = Weight(LeafFunction.constant(3, 2.5))
    zero = LeafFunction(np.zeros(8))
    _, _, dw, dsig = weights.interval_stats(w)
    assert all(not d.any() for d in dw + dsig)
    assert embedding.key_sum(zero, zero, w) == 0.0
    assert embedding.duality_product(zero, zero, w) == DualityReport(product=0.0, ratio=0.0)
    assert embedding.carleson_box_check(zero, zero, w) == (0.0, 0.0)
    assert embedding.carleson_norm(embedding.carleson_measure_of(w)) == 0.0
    assert weights.a2_characteristic(w) == A2Report(characteristic=1.0,
                                                    witness=DyadicIndex(0, 0))


# -- the cache cannot leak ------------------------------------------------------


def _cached_arrays(w):
    aw, asig, dw, dsig = weights.interval_stats(w)
    yield from aw + asig + dw + dsig
    for a, b in weights.weighted_haar_levels(w):
        yield a
        yield b
    yield from tree.level_averages(w.values)


def test_cached_arrays_are_read_only():
    w = weights.gen_cascade(4, 0.6, 3)
    arrays = list(_cached_arrays(w))
    assert len(arrays) == 2 * 5 + 2 * 4 + 2 * 4 + 5
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(AttributeError):
        w._cache = None


def test_a_modified_copy_leaves_later_results_unchanged():
    w = weights.gen_cascade(5, 0.7, 11)
    phi = _leaf(5, 1, 1)
    psi = _leaf(5, 1, 2)
    before = (bits(weights.interval_stats(w)), bits(weights.weighted_haar_levels(w)),
              weights.a2_characteristic(w), embedding.key_sum(phi, psi, w),
              embedding.carleson_box_check(phi, psi, w))
    for arr in _cached_arrays(w):
        mine = arr.copy()
        mine *= 3.0
    aw, _, dw, _ = weights.interval_stats(w)
    aw_mine = [a.copy() for a in aw]
    aw_mine[0][0] = -1.0
    dw[0].copy().fill(9.0)
    after = (bits(weights.interval_stats(w)), bits(weights.weighted_haar_levels(w)),
             weights.a2_characteristic(w), embedding.key_sum(phi, psi, w),
             embedding.carleson_box_check(phi, psi, w))
    assert after == before
    assert before[0] == bits(reference_interval_stats(w))


def test_kernels_still_validate_their_inputs():
    w = weights.gen_cascade(3, 0.5, 0)
    short = LeafFunction(np.ones(4))
    full = LeafFunction(np.ones(8))
    for kernel in (embedding.key_sum, embedding.four_terms, embedding.carleson_box_check,
                   embedding.duality_product):
        with pytest.raises(StructureError):
            kernel(short, full, w)
    with pytest.raises(StructureError):
        embedding.maximal_weighted(short, w)
    with pytest.raises(DomainError):
        bellman.point_from_data(full, full, w, DyadicIndex(4, 0))
