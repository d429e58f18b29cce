"""Shift forms: specification validation, form values, exact/heuristic norms."""
import numpy as np
import pytest

from dyadlab.embedding import key_sum_form, term1_form
from dyadlab.forms import ENUM_LIMIT, weighted_form
from dyadlab.tree import (
    DomainError,
    DyadicIndex,
    LeafFunction,
    ROOT,
    StructureError,
    _haar_operator,
    haar_analysis,
    haar_analysis_matrix,
    internal_indices,
)
from dyadlab.weights import Weight, gen_cascade, gen_power, weighted_norm, dual
from dyadlab.shifts import (
    ShiftOperator,
    ShiftSpec,
    form_value,
    shift_form,
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


def sweep_form(kind, w):
    if kind == "key_sum":
        return key_sum_form(w)
    if kind == "term1":
        return term1_form(w)
    return shift_form(ShiftSpec.constant(int(kind[-1]), w.depth), w)


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
        a = np.abs(haar_analysis(f).coefficients)
        b = np.abs(haar_analysis(g).coefficients)
        assert diag == pytest.approx(float(a @ b), rel=1e-12)
        assert np.isfinite(value) and value > 0.0


class TestNormExact:
    def test_mt_unweighted(self):
        spec = ShiftSpec.constant(0, 2)
        est = shift_form(spec, Weight.from_values([1.0] * 4)).exact_sup()
        assert est.value == pytest.approx(1.0, abs=1e-9)
        assert est.mode == "exact"

    def test_complexity1_unweighted(self):
        spec = ShiftSpec.constant(1, 2)
        est = shift_form(spec, Weight.from_values([1.0] * 4)).exact_sup()
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_zero_coefficients(self):
        spec = ShiftSpec(complexity=0, depth=2, coeffs=np.zeros((3, 1)))
        est = shift_form(spec, gen_cascade(2, 0.5, 1)).exact_sup()
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_refuses_large(self):
        spec = ShiftSpec.constant(0, 5)
        with pytest.raises(DomainError):
            shift_form(spec, Weight.from_values([1.0] * 32)).exact_sup()

    def test_witness_consistency(self):
        spec = ShiftSpec.random(1, 3, seed=2)
        w = gen_cascade(3, 0.7, seed=5)
        est = shift_form(spec, w).exact_sup()
        f1, f2 = LeafFunction(est.left), LeafFunction(est.right)
        achieved = form_value(spec, f1, f2)
        denom = weighted_norm(f1, w) * weighted_norm(f2, dual(w))
        assert est.value == pytest.approx(achieved / denom, abs=1e-9)

    @pytest.mark.parametrize("complexity", [0, 1])
    @pytest.mark.parametrize("w", [gen_power(3, 0.8), gen_cascade(3, 0.7, seed=2)],
                             ids=["power", "cascade"])
    def test_full_enumeration_is_exact(self, complexity, w):
        est = shift_form(ShiftSpec.constant(complexity, 3), w).exact_sup()
        assert est.mode == "exact"
        assert est.value == pytest.approx(est.upper_bound, rel=1e-9)

    @pytest.mark.parametrize("kind", ["key_sum", "term1", "shift0", "shift1"])
    @pytest.mark.parametrize("w", [gen_power(4, 0.8), gen_cascade(4, 0.7, seed=2)],
                             ids=["power", "cascade"])
    def test_depth4_is_exact(self, kind, w):
        # every sweep form has at most 15 nonzero coefficients at depth 4
        form = sweep_form(kind, w)
        est = form.exact_sup()
        assert est.mode == "exact"
        assert est.value == pytest.approx(est.upper_bound, rel=1e-9)
        found = form.search_sup(iters=40, seed=0, restarts=6).value
        assert est.value >= found * (1.0 - 1e-12)

    def test_refuses_operators_and_more_than_enum_limit(self):
        # depth 9 passes its maps as operators, though K = 0 there; the
        # depth-5 complexity-4 shift has K = 16 nonzeros
        for spec, w in ((ShiftSpec.constant(9, 9), gen_power(9, 0.5)),
                        (ShiftSpec.constant(4, 5), gen_power(5, 0.5))):
            with pytest.raises(DomainError) as info:
                shift_form(spec, w).exact_sup()
            assert "\n" not in str(info.value)
        assert np.count_nonzero(ShiftSpec.constant(4, 5).coeffs) == ENUM_LIMIT + 1

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("make", [
        lambda d: gen_power(d, 0.5),
        lambda d: gen_power(d, -0.7),
        lambda d: gen_cascade(d, 0.7, seed=3),
        lambda d: gen_cascade(d, 0.9, seed=11),
        lambda d: gen_cascade(d, 0.7, seed=2),
    ], ids=["power0.5", "power-0.7", "cascade0.7s3", "cascade0.9s11", "cascade0.7s2"])
    def test_key_sum_form_has_the_complexity0_supremum(self, make, depth):
        # f1 = w phi and f2 = sigma psi map the key-sum form onto the
        # complexity-0 shift form with its two sides swapped
        w = make(depth)
        key = key_sum_form(w).exact_sup().value
        shift = shift_form(ShiftSpec.constant(0, depth), w).exact_sup().value
        assert key == pytest.approx(shift, rel=1e-12)

    @pytest.mark.parametrize("depth", range(1, 13))
    @pytest.mark.parametrize("make", [
        lambda d: gen_power(d, 0.5),
        lambda d: gen_cascade(d, 0.7, seed=3),
    ], ids=["power0.5", "cascade0.7s3"])
    def test_complexity0_form_is_the_key_sum_form_swapped(self, make, depth):
        # the identity behind a sweep row writing key_sum_max into
        # shift0_norm: both m are the identity, and the metric-normalized
        # maps are H diag(sqrt w) 2^(d/2) and H diag(1 / sqrt w) 2^(d/2) on
        # one side each
        w = make(depth)
        key = key_sum_form(w)
        shift = shift_form(ShiftSpec.constant(0, depth), w)
        n = (1 << depth) - 1  # internal intervals
        if depth <= 8:  # dense maps
            for form in (key, shift):
                assert np.array_equal(form.m, np.eye(n))
            (key_l, key_r), (shift_l, shift_r) = key._normalized, shift._normalized
            np.testing.assert_allclose(shift_l, key_r, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(shift_r, key_l, rtol=1e-15, atol=0.0)
            return
        # operator maps: the normalized maps A D^(-1/2) applied to vectors
        rng = np.random.default_rng(depth)
        y = rng.standard_normal((n, 3))
        for form in (key, shift):
            assert np.array_equal(form.m @ y, y)
        x = rng.standard_normal((1 << depth, 3))

        def normalized(amap, metric):
            return amap @ (x / np.sqrt(metric)[:, None])

        for got, want in [
            (normalized(shift.left_map, shift.left_metric),
             normalized(key.right_map, key.right_metric)),
            (normalized(shift.right_map, shift.right_metric),
             normalized(key.left_map, key.left_metric)),
        ]:
            err = np.linalg.norm(got - want, axis=0)
            assert np.all(err <= 1e-15 * np.linalg.norm(want, axis=0))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_key_sum_supremum_is_scale_invariant(self, depth):
        w = gen_cascade(depth, 0.7, seed=3)
        key = key_sum_form(w).exact_sup().value
        scaled = key_sum_form(Weight.from_values(3.5 * w.values)).exact_sup().value
        assert scaled == pytest.approx(key, rel=1e-12)
        # and the shift forms of complexity 1 ... depth - 1
        for spec in (ShiftSpec.random(n, depth, seed=n) for n in range(1, depth)):
            value = shift_form(spec, w).exact_sup().value
            scaled = shift_form(spec, Weight.from_values(3.0 * w.values)).exact_sup().value
            assert scaled == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_key_sum_supremum_is_symmetric_in_w_and_sigma(self, depth):
        # swapping w with sigma = 1/w swaps the form's two sides
        w = gen_power(depth, -0.7)
        key = key_sum_form(w).exact_sup().value
        assert key_sum_form(dual(w)).exact_sup().value == pytest.approx(key, rel=1e-12)
        # a shift form's sides swap with w <-> sigma and m <-> m'
        h = _haar_operator(depth)
        for spec in (ShiftSpec.random(n, depth, seed=n) for n in range(1, depth)):
            value = shift_form(spec, w).exact_sup().value
            swapped = weighted_form(w.sigma, ShiftOperator(spec).T, h, h).exact_sup().value
            assert swapped == pytest.approx(value, rel=1e-12)

    def test_monotone_in_coefficients(self):
        w = gen_cascade(3, 0.6, seed=1)
        small = ShiftSpec.random(0, 3, seed=4)
        c = small.coeffs
        grown = ShiftSpec(complexity=0, depth=3,
                          coeffs=np.sign(c) * np.minimum(1.0, np.abs(c) * 1.5))
        assert shift_form(grown, w).exact_sup().value >= \
            shift_form(small, w).exact_sup().value - 1e-12


def assert_same_result(got, want):
    assert got.value == want.value and got.mode == want.mode
    for field in ("left", "right"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


class TestSup:
    """sup is exact_sup wherever the sign enumeration runs, else search_sup."""

    @pytest.mark.parametrize("kind", ["key_sum", "shift1"])
    def test_exact_at_depth4(self, kind):
        form = sweep_form(kind, gen_cascade(4, 0.7, seed=2))
        got = form.sup(iters=40, seed=3, restarts=6)
        assert got.mode == "exact"
        assert_same_result(got, form.exact_sup())

    @pytest.mark.parametrize("kind", ["key_sum", "shift1"])
    def test_search_at_depth5(self, kind):
        form = sweep_form(kind, gen_cascade(5, 0.7, seed=2))
        got = form.sup(iters=40, seed=3, restarts=2)
        assert got.mode == "lower_bound"
        assert_same_result(got, form.search_sup(iters=40, seed=3, restarts=2))

    def test_no_coefficient_with_dense_maps_is_exact(self):
        # complexity 5 at depth 5 pairs no interval: K = 0
        est = shift_form(ShiftSpec.constant(5, 5), gen_power(5, 0.5)).sup(40, 0, 2)
        assert est.mode == "exact" and est.value == 0.0

    def test_operator_maps_are_searched(self):
        # depth 9 passes its maps as operators, so K = 0 does not make it exact
        est = shift_form(ShiftSpec.constant(9, 9), gen_power(9, 0.5)).sup(5, 0, 1)
        assert est.mode == "lower_bound" and est.value == 0.0

    @pytest.mark.parametrize("iters, restarts, message", [
        (0, 2, "iters must be >= 1"), (40, 0, "restarts must be >= 1")])
    def test_counts_checked_on_the_exact_path(self, iters, restarts, message):
        # depth 3 is exact, which reads neither count; sup refuses them anyway
        with pytest.raises(DomainError, match=message):
            key_sum_form(gen_power(3, 0.5)).sup(iters, 0, restarts)


class TestNormSearch:
    def test_agrees_with_exact(self):
        worst = 0.0
        for k in range(50):
            rng = np.random.default_rng(1000 + k)
            depth = int(rng.integers(2, 4))
            n = int(rng.integers(0, 2))
            spec = ShiftSpec.random(n, depth, seed=2000 + k)
            w = gen_cascade(depth, 0.7, seed=3000 + k)
            form = shift_form(spec, w)
            ex = form.exact_sup()
            se = form.search_sup(iters=60, seed=k, restarts=10)
            worst = max(worst, abs(ex.value - se.value))
        assert worst < 1e-6

    def test_mt_depth8_unweighted(self):
        spec = ShiftSpec.constant(0, 8)
        est = shift_form(spec, Weight.from_values([1.0] * 256)).search_sup(iters=60, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-6)
        assert est.mode == "lower_bound"

    def test_determinism(self):
        spec = ShiftSpec.random(1, 4, seed=6)
        w = gen_cascade(4, 0.6, seed=7)
        a = shift_form(spec, w).search_sup(iters=30, seed=11)
        b = shift_form(spec, w).search_sup(iters=30, seed=11)
        assert a.value == b.value

    def test_rejects_zero_iters(self):
        spec = ShiftSpec.constant(0, 2)
        with pytest.raises(DomainError):
            shift_form(spec, Weight.from_values([1.0] * 4)).search_sup(iters=0, seed=0)

    def test_homogeneity_of_witnesses(self):
        spec = ShiftSpec.random(1, 3, seed=12)
        w = gen_cascade(3, 0.6, seed=13)
        est = shift_form(spec, w).search_sup(iters=40, seed=1)
        f_scaled = LeafFunction(3.0 * est.left)
        f2 = LeafFunction(est.right)
        num = form_value(spec, f_scaled, f2)
        den = weighted_norm(f_scaled, w) * weighted_norm(f2, dual(w))
        assert num / den == pytest.approx(est.value, rel=1e-9)

