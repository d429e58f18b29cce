"""Embedding machinery: key sum, decomposition, maximal functions, Carleson."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.tree import (
    DomainError,
    DyadicIndex,
    InvariantError,
    LeafFunction,
    ROOT,
    StructureError,
    internal_indices,
)
from dyadlab.weights import Weight, a2_characteristic, dual, gen_cascade, gen_power
from dyadlab.embedding import (
    CarlesonMeasure,
    carleson_box_check,
    carleson_measure_of,
    carleson_norm,
    duality_product,
    four_terms,
    key_sum,
    key_sum_form,
    ltrick_ratios,
    maximal_weighted,
    term1_form,
    two_weight_ratio,
    two_weight_ratio_max,
)


def haar_leaf(depth, I):
    vals = np.zeros(1 << depth)
    half = 1 << (depth - I.level - 1)
    start = I.position * 2 * half
    amp = 1.0 / np.sqrt(I.length)
    vals[start : start + half] = amp
    vals[start + half : start + 2 * half] = -amp
    return LeafFunction(vals)


def random_pair(depth, seed):
    rng = np.random.default_rng(seed)
    return (LeafFunction(rng.standard_normal(1 << depth)),
            LeafFunction(rng.standard_normal(1 << depth)))


class TestKeySum:
    def test_unweighted_haar(self):
        h = haar_leaf(2, ROOT)
        w = Weight.from_values([1.0] * 4)
        assert key_sum(h, h, w) == pytest.approx(1.0)

    def test_constant_input(self):
        w = Weight.from_values([1.0] * 4)
        c = LeafFunction.constant(2, 3.0)
        g = LeafFunction([1.0, -1.0, 2.0, 0.0])
        assert key_sum(c, g, w) == 0.0

    def test_depth1_example(self):
        w = Weight.from_values([2.0, 2.0 / 3.0])
        phi = LeafFunction([1.0, 0.0])
        assert key_sum(phi, phi, w) == pytest.approx(0.25)

    def test_depth_mismatch(self):
        with pytest.raises(StructureError):
            key_sum(LeafFunction([1.0, 0.0]), LeafFunction([1.0] * 4),
                    Weight.from_values([1.0] * 4))


class TestFourTerms:
    def test_unweighted_collapses(self):
        w = Weight.from_values([1.0] * 8)
        phi, psi = random_pair(3, 0)
        t = four_terms(phi, psi, w)
        assert t.term_ii == pytest.approx(0.0, abs=1e-14)
        assert t.term_iii == pytest.approx(0.0, abs=1e-14)
        assert t.term_iv == pytest.approx(0.0, abs=1e-14)
        assert t.term_i == pytest.approx(key_sum(phi, psi, w), rel=1e-12)

    def test_depth1_term_iv(self):
        w = Weight.from_values([2.0, 2.0 / 3.0])
        phi = LeafFunction([1.0, 0.0])
        t = four_terms(phi, phi, w)
        assert t.term_iv == pytest.approx(1.0 / 16.0)

    @given(st.integers(0, 5000), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_decomposition_inequality(self, seed, depth):
        rng = np.random.default_rng(seed)
        w = gen_cascade(depth, 0.8, seed)
        phi = LeafFunction(rng.standard_normal(1 << depth))
        psi = LeafFunction(rng.standard_normal(1 << depth))
        t = four_terms(phi, psi, w)
        assert key_sum(phi, psi, w) <= t.total() * (1.0 + 1e-12) + 1e-15


class TestMaximalWeighted:
    def test_constant_one(self):
        w = gen_cascade(5, 0.8, seed=1)
        out = maximal_weighted(LeafFunction.constant(5, 1.0), w)
        assert np.allclose(out.values, 1.0)

    def test_leftmost_indicator(self):
        w = Weight.from_values([1.0] * 4)
        phi = LeafFunction([1.0, 0.0, 0.0, 0.0])
        out = maximal_weighted(phi, w)
        assert np.allclose(out.values, [1.0, 0.5, 0.25, 0.25])

    def test_dominates_absolute_value(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = gen_cascade(5, 0.7, int(rng.integers(10**6)))
            phi = LeafFunction(rng.standard_normal(32))
            out = maximal_weighted(phi, w)
            assert np.all(out.values >= np.abs(phi.values) - 1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = gen_cascade(5, 0.7, int(rng.integers(10**6)))
            small = np.abs(rng.standard_normal(32))
            big = small + np.abs(rng.standard_normal(32))
            ms = maximal_weighted(LeafFunction(small), w)
            mb = maximal_weighted(LeafFunction(big), w)
            assert np.all(mb.values >= ms.values - 1e-12)


class TestDualityProduct:
    def test_constants(self):
        w = Weight.from_values([1.0] * 8)
        rep = duality_product(LeafFunction.constant(3, 1.0),
                              LeafFunction.constant(3, 1.0), w)
        assert rep.product == pytest.approx(1.0)
        assert rep.ratio == pytest.approx(1.0)

    def test_invariant_under_absolute_value(self):
        rng = np.random.default_rng(6)
        w = gen_cascade(4, 0.7, seed=2)
        phi = LeafFunction(rng.standard_normal(16))
        psi = LeafFunction(rng.standard_normal(16))
        a = duality_product(phi, psi, w)
        b = duality_product(LeafFunction(np.abs(phi.values)),
                            LeafFunction(np.abs(psi.values)), w)
        assert a.product == pytest.approx(b.product)

    def test_ratio_bounded_sampled(self):
        best = 0.0
        rng = np.random.default_rng(7)
        for _ in range(200):
            depth = int(rng.integers(2, 8))
            w = gen_cascade(depth, 0.8, int(rng.integers(10**6)))
            phi = LeafFunction(rng.standard_normal(1 << depth))
            psi = LeafFunction(rng.standard_normal(1 << depth))
            best = max(best, duality_product(phi, psi, w).ratio)
        assert np.isfinite(best)


class TestCarlesonMeasure:
    def test_constant_weight(self):
        m = carleson_measure_of(Weight.from_values([1.0] * 8))
        assert all(a == 0.0 for a in m.alpha)
        assert carleson_norm(m) == 0.0

    def test_depth1_mild(self):
        m = carleson_measure_of(Weight.from_values([2.0, 2.0 / 3.0]))
        assert m.alpha[0] == pytest.approx(1.0 / 3.0)
        assert carleson_norm(m) == pytest.approx(1.0 / 3.0)

    def test_depth1_extreme(self):
        w = Weight.from_values([4.0, 0.25])
        m = carleson_measure_of(w)
        assert m.alpha[0] == pytest.approx(225.0 / 64.0)
        assert carleson_norm(m) == pytest.approx(225.0 / 64.0)
        q = a2_characteristic(w).characteristic
        assert carleson_norm(m) / q == pytest.approx(225.0 / 289.0)

    def test_symmetric_in_dual(self):
        w = gen_cascade(6, 0.8, seed=3)
        a = carleson_measure_of(w).alpha
        b = carleson_measure_of(dual(w)).alpha
        assert a.shape == b.shape == (63,)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_negative_mass(self):
        with pytest.raises(DomainError):
            CarlesonMeasure(depth=2, alpha=[-1.0, 0.0, 0.0])

    def test_rejects_nan_mass(self):
        with pytest.raises(DomainError):
            CarlesonMeasure(depth=1, alpha=[np.nan])

    def test_rejects_wrong_length(self):
        with pytest.raises(StructureError):
            CarlesonMeasure(depth=2, alpha=[1.0])

    def test_norm_matches_bruteforce(self):
        w = gen_cascade(5, 0.8, seed=9)
        m = carleson_measure_of(w)
        best = 0.0
        for L in internal_indices(5):
            s = sum(a for I, a in zip(internal_indices(5), m.alpha) if L.contains(I))
            best = max(best, s / L.length)
        assert carleson_norm(m) == pytest.approx(best, rel=1e-12)


class TestTwoWeightRatio:
    def test_constants(self):
        one = LeafFunction.constant(4, 1.0)
        rep = two_weight_ratio(one, one, ROOT)
        assert rep.ratio == 0.0
        assert rep.hypothesis_ok

    def test_weight_over_q_hypothesis(self):
        for seed in range(10):
            w = gen_cascade(6, 0.8, seed)
            q = a2_characteristic(w).characteristic
            u = LeafFunction(w.values / q)
            rep = two_weight_ratio(u, dual(w).base, ROOT)
            assert rep.hypothesis_ok
            assert np.isfinite(rep.ratio)

    def test_hypothesis_violation_flagged(self):
        u = LeafFunction([4.0, 4.0, 4.0, 4.0])
        v = LeafFunction([1.0, 1.0, 1.0, 1.0])
        rep = two_weight_ratio(u, v, ROOT)
        assert not rep.hypothesis_ok
        assert rep.worst_product == pytest.approx(4.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            two_weight_ratio(LeafFunction([1.0, -1.0]), LeafFunction([1.0, 1.0]), ROOT)

    def test_max_matches_scalar(self):
        w = gen_cascade(5, 0.8, seed=21)
        q = a2_characteristic(w).characteristic
        u = LeafFunction(w.values / q)
        v = dual(w).base
        best = max(two_weight_ratio(u, v, L).ratio for L in internal_indices(5))
        assert two_weight_ratio_max(u, v) == pytest.approx(best, rel=1e-12)


class TestCarlesonBoxCheck:
    def test_constant_weight(self):
        w = Weight.from_values([1.0] * 8)
        phi, psi = random_pair(3, 11)
        lhs, rhs = carleson_box_check(phi, psi, w)
        assert lhs == 0.0

    def test_constant_inputs(self):
        w = gen_cascade(5, 0.8, seed=12)
        one = LeafFunction.constant(5, 1.0)
        lhs, rhs = carleson_box_check(one, one, w)
        m = carleson_measure_of(w)
        assert lhs == pytest.approx(sum(m.alpha), rel=1e-12)
        assert rhs == pytest.approx(carleson_norm(m), rel=1e-12)
        assert lhs <= rhs * (1.0 + 1e-12)

    @given(st.integers(0, 5000), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_never_violated(self, seed, depth):
        rng = np.random.default_rng(seed)
        w = gen_cascade(depth, 0.8, seed)
        phi = LeafFunction(rng.standard_normal(1 << depth))
        psi = LeafFunction(rng.standard_normal(1 << depth))
        lhs, rhs = carleson_box_check(phi, psi, w)  # raises on violation
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-15

    def test_ltrick_ratios_finite(self):
        w = gen_cascade(5, 0.7, seed=13)
        phi, psi = random_pair(5, 14)
        r_w, r_s = ltrick_ratios(phi, psi, w)
        assert np.isfinite(r_w) and np.isfinite(r_s)


class TestFormBuilders:
    def test_key_sum_form_matches_direct(self):
        w = gen_cascade(3, 0.7, seed=15)
        phi, psi = random_pair(3, 16)
        form = key_sum_form(w)
        assert form.value(phi.values, psi.values) == pytest.approx(
            key_sum(phi, psi, w), rel=1e-12
        )

    def test_term1_form_matches_direct(self):
        w = gen_cascade(3, 0.7, seed=17)
        phi, psi = random_pair(3, 18)
        form = term1_form(w)
        assert form.value(phi.values, psi.values) == pytest.approx(
            four_terms(phi, psi, w).term_i, rel=1e-10
        )

    def test_search_calibration_small(self):
        # the alternating estimator must track the exhaustive value closely
        for seed in range(8):
            w = gen_cascade(3, 0.7, seed)
            form = key_sum_form(w)
            ex = form.exact_sup().value
            se = form.search_sup(iters=60, seed=seed, restarts=8).value
            assert abs(ex - se) <= 0.01 * max(ex, 1e-12)
