"""Shift forms: specification validation, form values, exact/heuristic norms."""
import numpy as np
import pytest

from dyadlab.tree import (
    DomainError,
    DyadicIndex,
    LeafFunction,
    ROOT,
    StructureError,
    haar_analysis_matrix,
    internal_indices,
    level_haar_coeffs,
)
from dyadlab.weights import Weight, gen_cascade, weighted_norm, dual
from dyadlab.shifts import (
    ShiftSpec,
    form_value,
    load_shift_spec,
    martingale_transform_apply,
    norm_exact_small,
    norm_lower_search,
    save_shift_spec,
    shift_matrix,
)


def haar_leaf(depth, I):
    vals = np.zeros(1 << depth)
    half = 1 << (depth - I.level - 1)
    start = I.position * 2 * half
    amp = 1.0 / np.sqrt(I.length)
    vals[start : start + half] = amp
    vals[start + half : start + 2 * half] = -amp
    return LeafFunction(vals)


def write_spec_file(path, header, *pairs):
    """A shift file with the given header line and `I_level I_pos J_level J_pos c` lines."""
    path.write_text("".join(f"{line}\n" for line in (header, *pairs)))
    return path


class TestShiftSpec:
    def test_pair_counts(self):
        # complexity 0: one pair per internal interval
        assert ShiftSpec.constant(0, 3).coeffs.shape == (7, 1)
        # complexity 1: two children per internal I whose children are internal
        assert ShiftSpec.constant(1, 3).coeffs.shape == (3, 2)

    def test_rejects_large_coefficient(self):
        with pytest.raises(DomainError):
            ShiftSpec(complexity=0, depth=2, coeffs=[[1.5], [0.0], [0.0]])

    @pytest.mark.parametrize("build", [
        lambda: ShiftSpec.constant(0, 3, value=np.nan),
        lambda: ShiftSpec(complexity=1, depth=2, coeffs=[[0.5, np.nan]]),
    ])
    def test_rejects_nan_coefficient(self, build):
        with pytest.raises(DomainError):
            build()

    def test_rejects_wrong_shape(self):
        with pytest.raises(StructureError):
            ShiftSpec(complexity=1, depth=3, coeffs=np.zeros((7, 2)))

    def test_coefficients_are_read_only(self):
        spec = ShiftSpec.constant(1, 3)
        with pytest.raises(ValueError):
            spec.coeffs[0, 0] = 0.5

    def test_rejects_wrong_pattern(self, tmp_path):
        # grandchild under complexity 0
        path = write_spec_file(tmp_path / "s.txt", "complexity=0 depth=3", "0 0 2 0 0.5")
        with pytest.raises(DomainError, match="line 2"):
            load_shift_spec(path)
        # disjoint child under complexity 1
        path = write_spec_file(tmp_path / "s.txt", "complexity=1 depth=3", "1 0 2 2 0.5")
        with pytest.raises(DomainError, match="line 2"):
            load_shift_spec(path)

    def test_rejects_leaf_pairs(self, tmp_path):
        path = write_spec_file(tmp_path / "s.txt", "complexity=1 depth=2", "1 0 2 0 0.5")
        with pytest.raises(DomainError, match="line 2"):
            load_shift_spec(path)

    @pytest.mark.parametrize("build", [
        lambda: ShiftSpec.constant(-1, 3),
        lambda: ShiftSpec.random(-1, 3, seed=0),
    ])
    def test_rejects_negative_complexity(self, build):
        with pytest.raises(DomainError):
            build()

    def test_random_is_deterministic(self):
        a = ShiftSpec.random(1, 4, seed=5)
        b = ShiftSpec.random(1, 4, seed=5)
        assert np.array_equal(a.coeffs, b.coeffs)


class TestShiftMatrix:
    def test_over_deep_refused(self, time_limit):
        spec = ShiftSpec.constant(0, 13)
        with time_limit(5.0):
            with pytest.raises(DomainError, match=r"depth 13 .* 536739848 bytes"):
                shift_matrix(spec)


class TestFormValue:
    def test_single_surviving_term(self):
        f1 = haar_leaf(2, ROOT)
        f2 = haar_leaf(2, DyadicIndex(1, 0))
        spec = ShiftSpec.constant(1, 2)
        assert form_value(spec, f1, f2) == pytest.approx(2.0**-0.5)

    def test_constant_input_vanishes(self):
        spec = ShiftSpec.constant(1, 3)
        f = LeafFunction.constant(3, 4.0)
        g = LeafFunction(np.random.default_rng(0).standard_normal(8))
        assert form_value(spec, f, g) == 0.0
        assert form_value(spec, g, f) == 0.0

    def test_complexity0_haar_input(self):
        spec = ShiftSpec.constant(0, 3)
        for I in internal_indices(3):
            h = haar_leaf(3, I)
            assert form_value(spec, h, h) == pytest.approx(1.0)

    def test_depth_mismatch(self):
        spec = ShiftSpec.constant(0, 3)
        with pytest.raises(StructureError):
            form_value(spec, LeafFunction([1.0, 0.0]), LeafFunction([1.0, 0.0]))

    def test_sign_invariance(self):
        rng = np.random.default_rng(3)
        spec = ShiftSpec.random(1, 3, seed=9)
        flipped = ShiftSpec(complexity=1, depth=3, coeffs=-spec.coeffs)
        f = LeafFunction(rng.standard_normal(8))
        g = LeafFunction(rng.standard_normal(8))
        assert form_value(spec, f, g) == pytest.approx(form_value(flipped, f, g))

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_matches_dense_formula(self, depth):
        rng = np.random.default_rng(depth)
        f = LeafFunction(rng.standard_normal(1 << depth))
        g = LeafFunction(rng.standard_normal(1 << depth))
        a = np.abs(haar_analysis_matrix(depth) @ f.values)
        b = np.abs(haar_analysis_matrix(depth) @ g.values)
        for n in (0, 1, 2):
            spec = ShiftSpec.random(n, depth, seed=depth + 10 * n)
            assert form_value(spec, f, g) == pytest.approx(a @ shift_matrix(spec) @ b,
                                                           rel=1e-12)

    def test_past_the_dense_cap(self, time_limit):
        # an N x N shift matrix is refused at depth 13; the form value is not
        rng = np.random.default_rng(13)
        f = LeafFunction(rng.standard_normal(1 << 13))
        g = LeafFunction(rng.standard_normal(1 << 13))
        with time_limit(10.0):
            diag = form_value(ShiftSpec.constant(0, 13), f, g)
            value = form_value(ShiftSpec.random(1, 13, seed=1), f, g)
        a = np.abs(np.concatenate(level_haar_coeffs(f.values)))
        b = np.abs(np.concatenate(level_haar_coeffs(g.values)))
        assert diag == pytest.approx(float(a @ b), rel=1e-12)
        assert np.isfinite(value) and value > 0.0


class TestNormExact:
    def test_mt_unweighted(self):
        spec = ShiftSpec.constant(0, 2)
        est = norm_exact_small(spec, Weight.from_values([1.0] * 4))
        assert est.value == pytest.approx(1.0, abs=1e-9)
        assert est.mode == "exact"

    def test_complexity1_unweighted(self):
        spec = ShiftSpec.constant(1, 2)
        est = norm_exact_small(spec, Weight.from_values([1.0] * 4))
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_zero_coefficients(self):
        spec = ShiftSpec(complexity=0, depth=2, coeffs=np.zeros((3, 1)))
        est = norm_exact_small(spec, gen_cascade(2, 0.5, 1))
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_refuses_large(self):
        spec = ShiftSpec.constant(0, 5)
        with pytest.raises(DomainError):
            norm_exact_small(spec, Weight.from_values([1.0] * 32))

    def test_witness_consistency(self):
        spec = ShiftSpec.random(1, 3, seed=2)
        w = gen_cascade(3, 0.7, seed=5)
        est = norm_exact_small(spec, w)
        achieved = form_value(spec, est.witness_f1, est.witness_f2)
        denom = weighted_norm(est.witness_f1, w) * weighted_norm(est.witness_f2, dual(w))
        assert est.value == pytest.approx(achieved / denom, abs=1e-9)

    def test_fold_bounded_by_upper_bound(self):
        # depth 4 exercises the folded path (15 internal intervals)
        spec = ShiftSpec.random(1, 4, seed=3)
        w = gen_cascade(4, 0.6, seed=8)
        est = norm_exact_small(spec, w)
        assert est.upper_bound is not None
        assert est.value <= est.upper_bound * (1.0 + 1e-9)

    def test_monotone_in_coefficients(self):
        w = gen_cascade(3, 0.6, seed=1)
        small = ShiftSpec.random(0, 3, seed=4)
        c = small.coeffs
        grown = ShiftSpec(complexity=0, depth=3,
                          coeffs=np.sign(c) * np.minimum(1.0, np.abs(c) * 1.5))
        assert norm_exact_small(grown, w).value >= \
            norm_exact_small(small, w).value - 1e-12


class TestNormSearch:
    def test_agrees_with_exact(self):
        worst = 0.0
        for k in range(50):
            rng = np.random.default_rng(1000 + k)
            depth = int(rng.integers(2, 4))
            n = int(rng.integers(0, 2))
            spec = ShiftSpec.random(n, depth, seed=2000 + k)
            w = gen_cascade(depth, 0.7, seed=3000 + k)
            ex = norm_exact_small(spec, w)
            se = norm_lower_search(spec, w, iters=60, seed=k, restarts=10)
            worst = max(worst, abs(ex.value - se.value))
        assert worst < 1e-6

    def test_mt_depth8_unweighted(self):
        spec = ShiftSpec.constant(0, 8)
        est = norm_lower_search(spec, Weight.from_values([1.0] * 256),
                                iters=60, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-6)
        assert est.mode == "lower_bound"

    def test_determinism(self):
        spec = ShiftSpec.random(1, 4, seed=6)
        w = gen_cascade(4, 0.6, seed=7)
        a = norm_lower_search(spec, w, iters=30, seed=11)
        b = norm_lower_search(spec, w, iters=30, seed=11)
        assert a.value == b.value

    def test_rejects_zero_iters(self):
        spec = ShiftSpec.constant(0, 2)
        with pytest.raises(DomainError):
            norm_lower_search(spec, Weight.from_values([1.0] * 4), iters=0, seed=0)

    def test_homogeneity_of_witnesses(self):
        spec = ShiftSpec.random(1, 3, seed=12)
        w = gen_cascade(3, 0.6, seed=13)
        est = norm_lower_search(spec, w, iters=40, seed=1)
        f_scaled = LeafFunction(3.0 * est.witness_f1.values)
        num = form_value(spec, f_scaled, est.witness_f2)
        den = weighted_norm(f_scaled, w) * weighted_norm(est.witness_f2, dual(w))
        assert num / den == pytest.approx(est.value, rel=1e-9)


class TestMartingaleTransform:
    def test_all_plus_one(self):
        f = LeafFunction(np.random.default_rng(1).standard_normal(16))
        signs = np.ones(15)
        out = martingale_transform_apply(signs, f)
        assert np.allclose(out.values, f.values - f.integral(), atol=1e-12)

    def test_all_minus_one(self):
        f = LeafFunction(np.random.default_rng(2).standard_normal(16))
        signs = -np.ones(15)
        out = martingale_transform_apply(signs, f)
        assert np.allclose(out.values, f.integral() - f.values, atol=1e-12)

    def test_contraction(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = LeafFunction(rng.standard_normal(32))
            signs = rng.uniform(-1, 1, 31)
            assert martingale_transform_apply(signs, f).norm2() <= f.norm2() + 1e-12

    def test_missing_sign(self):
        f = LeafFunction([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(StructureError):
            martingale_transform_apply([1.0], f)

    def test_rejects_large_sign(self):
        f = LeafFunction([1.0, 2.0])
        with pytest.raises(DomainError):
            martingale_transform_apply([2.0], f)

    def test_rejects_nan_sign(self):
        f = LeafFunction([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DomainError):
            martingale_transform_apply([1.0, np.nan, -1.0], f)


class TestShiftFiles:
    def test_round_trip(self, tmp_path):
        spec = ShiftSpec.random(1, 3, seed=77)
        path = tmp_path / "spec.txt"
        save_shift_spec(spec, path)
        back = load_shift_spec(path)
        assert back.complexity == spec.complexity
        assert back.depth == spec.depth
        assert np.array_equal(back.coeffs, spec.coeffs)

    @pytest.mark.parametrize("build", [
        lambda: ShiftSpec.constant(0, 4, value=-0.5),
        lambda: ShiftSpec.random(1, 5, seed=3),
        lambda: ShiftSpec.random(4, 3, seed=3),
    ])
    def test_save_load_save_is_byte_identical(self, build, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_shift_spec(build(), first)
        save_shift_spec(load_shift_spec(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_pairs_load_as_zero(self, tmp_path):
        path = write_spec_file(tmp_path / "s.txt", "complexity=1 depth=3", "1 1 2 3 -0.25")
        spec = load_shift_spec(path)
        expected = np.zeros((3, 2))
        expected[2, 1] = -0.25
        assert np.array_equal(spec.coeffs, expected)

    @pytest.mark.parametrize("lines,error,where", [
        (["depth=3", "0 0 0 0 0.5"], StructureError, "line 1"),
        (["complexity=0 depth=x"], StructureError, "line 1"),
        (["complexity=0 depth=30"], DomainError, "depth must lie"),
        (["complexity=0 depth=2", "0 0 0 0"], StructureError, "line 2"),
        (["complexity=0 depth=2", "0 0 0 0 0.5 7"], StructureError, "line 2"),
        (["complexity=0 depth=2", "0 0 0 0 half"], StructureError, "line 2"),
        (["complexity=0 depth=2", "0 0 0 0 0.5", "", "0 0 0 0 0.5"], StructureError, "line 4"),
        (["complexity=0 depth=2", "0 0 0 0 nan"], DomainError, "line 2"),
        (["complexity=0 depth=2", "0 0 0 0 1.5"], DomainError, "line 2"),
        (["complexity=0 depth=2", "1 2 1 2 0.5"], DomainError, "line 2"),
        (["complexity=0 depth=2", "-1 0 -1 0 0.5"], DomainError, "line 2"),
    ])
    def test_rejects_bad_files(self, lines, error, where, tmp_path):
        path = write_spec_file(tmp_path / "s.txt", *lines)
        with pytest.raises(error, match=where):
            load_shift_spec(path)
