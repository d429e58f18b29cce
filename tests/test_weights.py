"""Weights: characteristic, duals, weighted Haar system, split, generators."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.tree import (
    DomainError,
    DyadicIndex,
    LeafFunction,
    ROOT,
    StructureError,
    internal_indices,
)
from dyadlab.weights import (
    Weight,
    a2_characteristic,
    dual,
    gen_cascade,
    gen_power,
    haar_split,
    haar_splits,
    load_weight,
    save_weight,
    weighted_haar,
    weighted_haar_matrix,
    weighted_inner,
    weighted_norm,
)


def cascade(depth, eps=0.6, seed=0):
    return gen_cascade(depth, eps, seed)


class TestWeight:
    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Weight.from_values([1.0, 0.0])
        with pytest.raises(DomainError):
            Weight.from_values([1.0, -2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Weight.from_values([1.0, 1e9])

    def test_immutable(self):
        w = Weight.from_values([1.0, 2.0])
        with pytest.raises(AttributeError):
            w.base = None


class TestDual:
    def test_identity_weight(self):
        w = Weight.from_values([1.0, 1.0])
        assert np.array_equal(dual(w).values, [1.0, 1.0])

    def test_reciprocal(self):
        w = Weight.from_values([2.0, 2.0 / 3.0])
        assert np.allclose(dual(w).values, [0.5, 1.5])

    def test_involution(self):
        w = cascade(6)
        assert np.allclose(dual(dual(w)).values, w.values, rtol=1e-15)

    def test_product_is_one_leafwise(self):
        w = cascade(7, eps=0.8, seed=3)
        assert np.allclose(w.values * dual(w).values, 1.0, rtol=1e-14)


class TestA2Characteristic:
    def test_constant(self):
        rep = a2_characteristic(Weight.from_values([5.0] * 8))
        assert rep.characteristic == pytest.approx(1.0)

    def test_depth1_example(self):
        rep = a2_characteristic(Weight.from_values([2.0, 2.0 / 3.0]))
        assert rep.characteristic == pytest.approx(4.0 / 3.0)
        assert rep.witness == ROOT

    def test_extreme_depth1(self):
        rep = a2_characteristic(Weight.from_values([4.0, 0.25]))
        assert rep.characteristic == pytest.approx(289.0 / 64.0)

    def test_at_least_one(self):
        for seed in range(20):
            assert a2_characteristic(cascade(6, 0.9, seed)).characteristic >= 1.0

    def test_duality_symmetry(self):
        for seed in range(10):
            w = cascade(6, 0.7, seed)
            q = a2_characteristic(w).characteristic
            assert q == pytest.approx(a2_characteristic(dual(w)).characteristic, rel=1e-13)
            # <c w>_I <1/(c w)>_I = <w>_I <1/w>_I, bitwise for a power of two
            assert a2_characteristic(Weight.from_values(3.0 * w.values)).characteristic \
                == pytest.approx(q, rel=1e-13)
            assert a2_characteristic(Weight.from_values(4.0 * w.values)).characteristic == q


class TestWeightedNorm:
    def test_unweighted(self):
        assert weighted_norm(LeafFunction.constant(3, 1.0),
                             Weight.from_values([1.0] * 8)) == 1.0

    def test_depth1(self):
        f = LeafFunction([1.0, 0.0])
        w = Weight.from_values([2.0, 2.0 / 3.0])
        assert weighted_norm(f, w) == pytest.approx(1.0)

    def test_depth_mismatch(self):
        with pytest.raises(StructureError):
            weighted_norm(LeafFunction([1.0, 0.0]), Weight.from_values([1.0] * 4))

    @given(st.floats(-5, 5, allow_nan=False), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, c, seed):
        rng = np.random.default_rng(seed)
        f = LeafFunction(rng.standard_normal(16))
        w = cascade(4, 0.7, seed)
        scaled = LeafFunction(c * f.values)
        assert weighted_norm(scaled, w) == pytest.approx(
            abs(c) * weighted_norm(f, w), abs=1e-12
        )


class TestWeightedHaar:
    def test_unweighted_is_haar(self):
        wh = weighted_haar(Weight.from_values([1.0, 1.0]), ROOT)
        assert wh.value_left == pytest.approx(1.0)
        assert wh.value_right == pytest.approx(-1.0)

    def test_depth1_example(self):
        wh = weighted_haar(Weight.from_values([2.0, 2.0 / 3.0]), ROOT)
        assert wh.value_left == pytest.approx(0.5)
        assert wh.value_right == pytest.approx(-1.5)

    def test_leaf_rejected(self):
        with pytest.raises(DomainError):
            weighted_haar(Weight.from_values([1.0, 2.0]), DyadicIndex(1, 0))

    def test_orthogonal_to_constants_and_normalized(self):
        w = cascade(6, 0.8, seed=11)
        for I in internal_indices(6):
            wh = weighted_haar(w, I)
            vals = np.zeros(1 << 6)
            sl = I.child_left().leaf_slice(6)
            sr = I.child_right().leaf_slice(6)
            vals[sl] = wh.value_left
            vals[sr] = wh.value_right
            f = LeafFunction(vals)
            assert weighted_inner(f, LeafFunction.constant(6, 1.0), w) == \
                pytest.approx(0.0, abs=1e-12)
            assert weighted_norm(f, w) == pytest.approx(1.0, rel=1e-12)

    def test_gram_identity(self):
        for seed in range(5):
            w = cascade(6, 0.7, seed)
            M = weighted_haar_matrix(w)
            D = w.values * 2.0**-6
            gram = M @ np.diag(D) @ M.T
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


class TestHaarSplit:
    def test_unweighted(self):
        s = haar_split(Weight.from_values([1.0, 1.0]), ROOT)
        assert s.alpha == pytest.approx(1.0)
        assert s.beta == 0.0
        assert s.beta_bound_ratio is None

    def test_depth1_example(self):
        s = haar_split(Weight.from_values([2.0, 2.0 / 3.0]), ROOT)
        assert s.alpha == pytest.approx(1.0)
        assert s.beta == pytest.approx(0.5)
        assert s.alpha_bound_ratio == pytest.approx(1.0 / np.sqrt(4.0 / 3.0))
        assert s.beta_bound_ratio == pytest.approx(1.0)

    def test_reconstruction(self):
        w = cascade(5, 0.8, seed=4)
        for I in internal_indices(5):
            s = haar_split(w, I)
            wh = weighted_haar(w, I)
            inv_sqrt_len = 1.0 / np.sqrt(I.length)
            # identity on the two halves of I
            left = s.alpha * wh.value_left + s.beta * np.sqrt(1.0 / I.length)
            right = s.alpha * wh.value_right + s.beta * np.sqrt(1.0 / I.length)
            assert left == pytest.approx(inv_sqrt_len, abs=1e-12)
            assert right == pytest.approx(-inv_sqrt_len, abs=1e-12)

    def test_alpha_bound_sampled(self):
        for seed in range(30):
            w = cascade(6, 0.9, seed)
            for I in internal_indices(6):
                assert haar_split(w, I).alpha_bound_ratio <= 1.0 + 1e-12

    def test_level_arrays_match_scalar(self):
        w = cascade(5, 0.7, seed=9)
        splits = haar_splits(w)
        for I in internal_indices(5):
            s = haar_split(w, I)
            assert splits[0, I.heap_index] == pytest.approx(s.alpha)
            assert splits[1, I.heap_index] == pytest.approx(s.beta)


class TestGenerators:
    def test_power_zero_exponent(self):
        assert np.allclose(gen_power(4, 0.0).values, 1.0)

    def test_power_linear_depth1(self):
        assert np.allclose(gen_power(1, 1.0).values, [0.25, 0.75])

    def test_power_linear_depth2(self):
        assert np.allclose(gen_power(2, 1.0).values, [1 / 8, 3 / 8, 5 / 8, 7 / 8])

    def test_power_rejects_nonintegrable(self):
        with pytest.raises(DomainError):
            gen_power(3, -1.0)

    def test_power_names_a_nan_exponent(self):
        with pytest.raises(DomainError,
                           match=r"^exponent must exceed -1 for integrability, got nan$"):
            gen_power(3, float("nan"))

    @pytest.mark.parametrize("eps", [float("nan"), 1.5, -0.5])
    def test_cascade_names_a_bad_amplitude(self, eps):
        with pytest.raises(DomainError,
                           match=rf"^cascade amplitude must lie in \[0, 1\), got {eps}$"):
            gen_cascade(3, eps, 0)

    def test_cascade_names_a_negative_seed(self):
        with pytest.raises(DomainError, match=r"^cascade seed must be >= 0, got -1$"):
            gen_cascade(3, 0.5, -1)

    def test_cascade_zero_eps(self):
        assert np.allclose(gen_cascade(5, 0.0, 7).values, 1.0)

    def test_cascade_determinism(self):
        a = gen_cascade(8, 0.5, seed=42)
        b = gen_cascade(8, 0.5, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_cascade_rejects_large_eps(self):
        with pytest.raises(DomainError):
            gen_cascade(3, 1.0, 0)

    def test_cascade_rejects_negative_seed(self):
        with pytest.raises(DomainError):
            gen_cascade(3, 0.5, -1)

    @pytest.mark.parametrize("depth", [-1, 0, 21])
    @pytest.mark.parametrize("make", [lambda d: gen_power(d, 0.5),
                                      lambda d: gen_cascade(d, 0.5, 0)],
                             ids=["power", "cascade"])
    def test_depth_refused_before_allocating(self, make, depth):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"depth must lie in \[1, 20\], got {depth}$"):
                make(depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # 2^21 leaves would take 16 MiB

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("seed", [0, 1, 42, 12345])
    def test_cascade_matches_stacked_levels(self, eps, seed):
        # the level formula before the children were written into one buffer
        for depth in range(1, 13):
            rng = np.random.default_rng(seed)
            vals = np.ones(1)
            for _ in range(depth):
                xi = rng.uniform(-eps, eps, size=vals.size)
                vals = np.stack([vals * (1.0 + xi), vals * (1.0 - xi)], axis=1).reshape(-1)
            assert gen_cascade(depth, eps, seed).values.tobytes() == vals.tobytes()

    def test_cascade_characteristic_grows_with_eps(self):
        means = []
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            qs = [a2_characteristic(gen_cascade(8, eps, s)).characteristic
                  for s in range(100)]
            means.append(np.mean(qs))
        assert all(a < b for a, b in zip(means, means[1:]))


class TestWeightedParseval:
    @given(st.integers(0, 1000), st.integers(2, 10))
    @settings(max_examples=20, deadline=None)
    def test_mean_zero_energy(self, seed, depth):
        rng = np.random.default_rng(seed)
        w = gen_cascade(depth, 0.7, seed)
        raw = rng.standard_normal(1 << depth)
        # project out the w-mean so f is orthogonal to constants in L2(w)
        raw -= np.sum(raw * w.values) / np.sum(w.values)
        f = LeafFunction(raw)
        M = weighted_haar_matrix(w)
        D = w.values * 2.0**-depth
        coeffs = M @ (f.values * D)
        energy = float(np.sum(coeffs**2))
        assert energy == pytest.approx(weighted_norm(f, w) ** 2, rel=1e-9)


class TestWeightFiles:
    def test_round_trip_with_provenance(self, tmp_path):
        w = gen_cascade(5, 0.5, seed=7)
        path = tmp_path / "w.txt"
        save_weight(w, path, provenance="family=cascade eps=0.5 seed=7")
        back = load_weight(path)
        assert np.array_equal(back.values, w.values)
        assert "# family=cascade eps=0.5 seed=7" in path.read_text()

    def test_round_trip_with_multi_line_provenance(self, tmp_path):
        w = gen_cascade(2, 0.5, seed=7)
        path = tmp_path / "w.txt"
        save_weight(w, path, provenance="a\nb")
        assert path.read_text().splitlines()[:3] == ["depth=2", "# a", "# b"]
        assert np.array_equal(load_weight(path).values, w.values)
