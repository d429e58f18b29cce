"""Dyadic tree, Haar analysis/synthesis, and the leaf-function file format."""
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
    average,
    haar_analysis,
    haar_analysis_matrix,
    haar_coefficient,
    haar_synthesis,
    heap_averages,
    internal_indices,
    load_leaf_function,
    martingale_difference,
    n_internal,
    save_leaf_function,
)


def random_leaf(depth, seed):
    rng = np.random.default_rng(seed)
    return LeafFunction(rng.standard_normal(1 << depth))


def haar_leaf(depth, I):
    """h_I sampled on the leaves (positive on the left half)."""
    vals = np.zeros(1 << depth)
    half = 1 << (depth - I.level - 1)
    start = I.position * 2 * half
    amp = 1.0 / np.sqrt(I.length)
    vals[start : start + half] = amp
    vals[start + half : start + 2 * half] = -amp
    return LeafFunction(vals)


class TestDyadicIndex:
    def test_children_and_parent(self):
        I = DyadicIndex(2, 3)
        assert I.child_left() == DyadicIndex(3, 6)
        assert I.child_right() == DyadicIndex(3, 7)
        assert I.length == 0.25

    def test_bad_position_rejected(self):
        with pytest.raises(DomainError):
            DyadicIndex(2, 4)
        with pytest.raises(DomainError):
            DyadicIndex(-1, 0)

    def test_contains(self):
        assert ROOT.contains(DyadicIndex(3, 5))
        assert DyadicIndex(1, 1).contains(DyadicIndex(2, 2))
        assert not DyadicIndex(1, 0).contains(DyadicIndex(2, 2))
        assert not DyadicIndex(2, 2).contains(DyadicIndex(1, 1))

    def test_internal_enumeration(self):
        idx = list(internal_indices(3))
        assert len(idx) == n_internal(3) == 7
        assert idx[0] == ROOT
        assert idx[1:3] == [DyadicIndex(1, 0), DyadicIndex(1, 1)]
        assert all(i.level < 3 for i in idx)


class TestLeafFunction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(StructureError):
            LeafFunction([1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            LeafFunction([1.0, np.nan])

    def test_immutable(self):
        f = LeafFunction([1.0, 2.0])
        with pytest.raises(AttributeError):
            f.depth = 3
        with pytest.raises(ValueError):
            f.values[0] = 0.0


class TestAverage:
    def test_constant(self):
        f = LeafFunction.constant(2, 3.0)
        assert average(f, ROOT) == 3.0

    def test_half_interval(self):
        f = LeafFunction([1.0, 2.0, 3.0, 4.0])
        assert average(f, DyadicIndex(1, 0)) == 1.5

    def test_indicator(self):
        f = LeafFunction([1.0, 0.0])
        assert average(f, ROOT) == 0.5

    def test_out_of_range(self):
        f = LeafFunction([1.0, 2.0])
        with pytest.raises(DomainError):
            average(f, DyadicIndex(5, 0))


class TestMartingaleDifference:
    def test_constant_vanishes(self):
        f = LeafFunction.constant(3, 2.5)
        for I in internal_indices(3):
            assert martingale_difference(f, I) == 0.0

    def test_depth1(self):
        assert martingale_difference(LeafFunction([1.0, 0.0]), ROOT) == 0.5

    def test_depth2_right(self):
        f = LeafFunction([1.0, 2.0, 3.0, 4.0])
        assert martingale_difference(f, DyadicIndex(1, 1)) == -0.5

    def test_leaf_level_rejected(self):
        f = LeafFunction([1.0, 0.0])
        with pytest.raises(DomainError):
            martingale_difference(f, DyadicIndex(1, 0))

    @given(st.integers(0, 2**10))
    @settings(max_examples=30, deadline=None)
    def test_telescoping(self, seed):
        f = random_leaf(5, seed)
        for I in internal_indices(5):
            m = average(f, I)
            d = martingale_difference(f, I)
            assert average(f, I.child_left()) == pytest.approx(m + d, abs=1e-13)
            assert average(f, I.child_right()) == pytest.approx(m - d, abs=1e-13)


class TestHaarCoefficient:
    def test_basis_vector(self):
        f = haar_leaf(3, ROOT)
        assert haar_coefficient(f, ROOT) == pytest.approx(1.0, abs=1e-13)
        for I in internal_indices(3):
            if I != ROOT:
                assert haar_coefficient(f, I) == pytest.approx(0.0, abs=1e-13)

    def test_depth1(self):
        assert haar_coefficient(LeafFunction([1.0, 0.0]), ROOT) == 0.5

    def test_direct_formula(self):
        f = LeafFunction([1.0, 2.0, 3.0, 4.0])
        expected = np.sqrt(0.5) * (1.0 - 2.0) / 2.0
        assert haar_coefficient(f, DyadicIndex(1, 0)) == pytest.approx(expected)


class TestAnalysisSynthesis:
    def test_constant(self):
        e = haar_analysis(LeafFunction.constant(4, 7.0))
        assert e.mean == 7.0
        assert all(abs(c) < 1e-14 for c in e.coefficients)
        back = haar_synthesis(e)
        assert np.allclose(back.values, 7.0)

    def test_round_trip_random(self):
        f = random_leaf(8, 12345)
        back = haar_synthesis(haar_analysis(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-13

    def test_single_coefficient(self):
        coeffs = np.array([1.0 if I == ROOT else 0.0 for I in internal_indices(3)])
        e = haar_analysis(LeafFunction.constant(3, 0.0))
        e = type(e)(depth=3, mean=0.0, coefficients=coeffs)
        f = haar_synthesis(e)
        assert np.allclose(f.values[:4], 1.0)
        assert np.allclose(f.values[4:], -1.0)

    def test_missing_coefficient(self):
        e = haar_analysis(random_leaf(3, 0))
        broken = type(e)(depth=3, mean=e.mean, coefficients=e.coefficients[1:])
        with pytest.raises(StructureError):
            haar_synthesis(broken)

    def test_negative_depth(self):
        e = haar_analysis(random_leaf(3, 0))
        with pytest.raises(DomainError, match="depth must be >= 0"):
            haar_synthesis(type(e)(depth=-1, mean=e.mean, coefficients=e.coefficients[:0]))

    @given(st.integers(0, 2**10), st.integers(2, 10))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed, depth):
        f = random_leaf(depth, seed)
        e = haar_analysis(f)
        energy = e.mean**2 + sum(c**2 for c in e.coefficients)
        assert abs(f.norm2() ** 2 - energy) < 1e-10 * max(f.norm2() ** 2, 1.0)


class TestAnalysisMatrix:
    def test_matches_scalar_op(self):
        depth = 4
        f = random_leaf(depth, 7)
        H = haar_analysis_matrix(depth)
        coeffs = H @ f.values
        for k, I in enumerate(internal_indices(depth)):
            assert coeffs[k] == pytest.approx(haar_coefficient(f, I), abs=1e-13)

    def test_gram_identity(self):
        depth = 5
        H = haar_analysis_matrix(depth)
        # rows are h_I * 2^{-depth}; the L2 Gram is H (2^depth) H^T
        gram = H @ H.T * (1 << depth)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12

    def test_over_deep_refused(self, time_limit):
        # one 8191 x 8192 matrix would take 537 MB; refused before allocation
        with time_limit(5.0):
            with pytest.raises(DomainError, match=r"depth 13 exceeds the dense-matrix "
                                                  r"cap 12: .* 536805376 bytes"):
                haar_analysis_matrix(13)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_no_internal_interval_refused(self, depth):
        # depth 0 has a single leaf and no Haar function
        with pytest.raises(DomainError, match=f"depth >= 1, got {depth}"):
            haar_analysis_matrix(depth)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        f = random_leaf(5, 99)
        path = tmp_path / "f.txt"
        save_leaf_function(f, path, comments=["generated for a test"])
        back = load_leaf_function(path)
        assert back.depth == f.depth
        assert np.array_equal(back.values, f.values)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(StructureError):
            load_leaf_function(path)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("depth=2\n1.0\n2.0\n")
        with pytest.raises(StructureError):
            load_leaf_function(path)

    @pytest.mark.parametrize("text, error, message", [
        ("depth=2\n1.0\nabc\n3.0\n4.0\n", StructureError,
         "line 3: expected a number, got 'abc'"),
        ("# w\ndepth=x\n1.0\n2.0\n", StructureError, "line 2: expected `depth=<n>`, got 'depth=x'"),
        ("depth=\n1.0\n2.0\n", StructureError, "line 1: expected `depth=<n>`, got 'depth='"),
        ("depth=-1\n1.0\n", DomainError, "line 1: depth must lie in [1, 20], got -1"),
        ("depth=0\n1.0\n", DomainError, "line 1: depth must lie in [1, 20], got 0"),
        ("depth=100000000000000000000\n", DomainError,
         "line 1: depth must lie in [1, 20], got 100000000000000000000"),
        ("depth=2\n1.0\n2.0\n3.0\n4.0\ndepth=1\n", StructureError,
         "line 6: a second `depth=` header"),
        ("# w\n1.0\n2.0\ndepth=1\n", StructureError, "line 2: a value before `depth=`"),
    ], ids=["value", "depth-word", "depth-empty", "depth-negative", "depth-zero", "depth-huge",
            "depth-twice", "value-first"])
    def test_malformed_line_is_named(self, tmp_path, text, error, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(error) as info:
            load_leaf_function(path)
        assert str(info.value) == message


@pytest.mark.parametrize("rows", [1, 2, 4])
@pytest.mark.parametrize("depth", range(14))
def test_heap_averages_of_a_stack_are_those_of_its_rows(depth, rows):
    # every level of a stack is one flat array across its rows, so a row's
    # averages must be those it gets alone: no pair may span two rows
    x = np.random.default_rng(depth).standard_normal((rows, 1 << depth)) * 3.0
    heap = heap_averages(x)
    assert heap.shape == (rows, (2 << depth) - 1)
    assert heap.tobytes() == heap_averages(list(x)).tobytes()
    assert [row.tobytes() for row in heap] == [heap_averages(v).tobytes() for v in x]
