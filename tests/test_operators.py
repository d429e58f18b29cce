"""Matrix-free operators against the dense matrices they replace.

The references below fill each matrix entry by entry from its definition,
independently of the operators; the forms built from operators are checked
against the same forms built from their dense matrices.
"""
import numpy as np
import pytest

from dyadlab.embedding import four_terms, key_sum, key_sum_form, term1_form
from dyadlab.forms import DENSE_MAX_COLUMNS, AbsBilinearForm
from dyadlab.shifts import ShiftOperator, ShiftSpec, _weighted_form
from dyadlab.tree import (
    DyadicIndex,
    IdentityOperator,
    LeafFunction,
    StructureError,
    TwoValuedRowOperator,
    _haar_operator,
    internal_indices,
)
from dyadlab.weights import gen_cascade, weighted_haar_levels

DEPTHS = range(1, 11)


def reference_two_valued(depth, levels, mult=None):
    n = 1 << depth
    out = np.zeros((n - 1, n))
    for k, I in enumerate(internal_indices(depth)):
        leaves = I.leaf_slice(depth)
        mid = (leaves.start + leaves.stop) // 2
        left, right = (np.broadcast_to(v, (1 << I.level,))[I.position]
                       for v in levels[I.level])
        out[k, leaves.start : mid] = left
        out[k, mid : leaves.stop] = right
    return out if mult is None else out * mult[None, :]


def reference_shift(spec):
    n = spec.complexity
    order = {I: k for k, I in enumerate(internal_indices(spec.depth))}
    m = np.zeros((len(order), len(order)))
    for I, row in zip(internal_indices(max(spec.depth - n, 0)), spec.coeffs):
        for k, c in enumerate(row):
            J = DyadicIndex(I.level + n, (I.position << n) + k)
            m[order[I], order[J]] = 2.0 ** (-n / 2.0) * abs(c)
    return m


def haar_levels(depth):
    return [(2.0**-depth / np.sqrt(2.0**-lev), -(2.0**-depth) / np.sqrt(2.0**-lev))
            for lev in range(depth)]


def cases(depth):
    """(name, operator, reference matrix) for every operator kind."""
    rng = np.random.default_rng(depth)
    mult = rng.uniform(0.1, 3.0, 1 << depth)
    w = gen_cascade(depth, 0.7, depth)
    random_levels = [(rng.standard_normal(1 << lev), rng.standard_normal(1 << lev))
                     for lev in range(depth)]
    out = [
        ("haar", _haar_operator(depth), reference_two_valued(depth, haar_levels(depth))),
        ("haar_times_w", _haar_operator(depth, mult),
         reference_two_valued(depth, haar_levels(depth), mult)),
        ("weighted_haar", TwoValuedRowOperator(depth, weighted_haar_levels(w)),
         reference_two_valued(depth, weighted_haar_levels(w))),
        ("random_rows", TwoValuedRowOperator(depth, random_levels, mult),
         reference_two_valued(depth, random_levels, mult)),
        ("identity", IdentityOperator((1 << depth) - 1), np.eye((1 << depth) - 1)),
    ]
    for n in (0, 1, 2):
        spec = ShiftSpec.random(n, depth, seed=10 * depth + n)
        out.append((f"shift{n}", ShiftOperator(spec), reference_shift(spec)))
    return out


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(
        1.0, np.max(np.abs(want), initial=0.0))


@pytest.mark.parametrize("depth", DEPTHS)
def test_operators_match_dense(depth):
    rng = np.random.default_rng(100 + depth)
    for name, op, ref in cases(depth):
        rows, cols = ref.shape
        assert op.shape == ref.shape, name
        x = rng.standard_normal(cols)
        y = rng.standard_normal(rows)
        assert_close(op @ x, ref @ x)
        assert_close(op.T @ y, ref.T @ y)
        assert_close(y @ op, y @ ref)
        assert op.T.T is op
        xblock = rng.standard_normal((cols, 3))
        yblock = rng.standard_normal((rows, 2))
        assert_close(op @ xblock, ref @ xblock)
        assert_close(op.T @ yblock, ref.T @ yblock)
        # entries are exact sums of one product, so op @ I is the matrix itself
        assert np.array_equal(op @ np.eye(cols), ref), name


def test_shape_mismatch_refused():
    with pytest.raises(StructureError, match="cannot apply"):
        _haar_operator(3) @ np.ones(7)
    with pytest.raises(StructureError, match="cannot apply"):
        np.ones(8) @ _haar_operator(3)


def form_bytes(form):
    # what the benchmark's tracer charges to a form
    return form.m.nbytes + form.left_map.nbytes + form.right_map.nbytes


def builders(depth):
    w = gen_cascade(depth, 0.7, 3)
    return {
        "key_sum": lambda: key_sum_form(w),
        "term_i": lambda: term1_form(w),
        "shift0": lambda: _weighted_form(ShiftSpec.constant(0, depth), w),
        "shift1": lambda: _weighted_form(ShiftSpec.constant(1, depth), w),
    }


def test_storage_is_linear_at_depth_10():
    n = 1 << 10
    for name, build in builders(10).items():
        form = build()
        # a dense form would hold three ~8 MB matrices
        assert form_bytes(form) <= 64 * n, name
    for _, op, _ in cases(10):
        assert op.nbytes <= 24 * n


def test_builders_dense_up_to_crossover():
    for depth in (8, 9):
        dense = (1 << depth) <= DENSE_MAX_COLUMNS
        for name, build in builders(depth).items():
            form = build()
            for a in (form.m, form.left_map, form.right_map):
                assert isinstance(a, np.ndarray) == dense, (name, depth)


def densified(form):
    def dense(a):
        return a @ np.eye(a.shape[1])

    return AbsBilinearForm(dense(form.m), dense(form.left_map), dense(form.right_map),
                           form.left_metric, form.right_metric)


@pytest.mark.parametrize("depth", [9, 10])
@pytest.mark.parametrize("kind", ["key_sum", "term_i", "shift0", "shift1"])
def test_search_on_operators_matches_dense(kind, depth):
    form = builders(depth)[kind]()
    assert not isinstance(form.left_map, np.ndarray)
    got = form.search_sup(iters=40, seed=depth, restarts=2)
    want = densified(form).search_sup(iters=40, seed=depth, restarts=2)
    assert got.value == pytest.approx(want.value, rel=1e-9)


@pytest.mark.parametrize("depth", [9, 10])
def test_operator_forms_match_direct_sums(depth):
    w = gen_cascade(depth, 0.7, 5)
    rng = np.random.default_rng(depth)
    phi = LeafFunction(rng.standard_normal(1 << depth))
    psi = LeafFunction(rng.standard_normal(1 << depth))
    assert key_sum_form(w).value(phi.values, psi.values) == pytest.approx(
        key_sum(phi, psi, w), rel=1e-12)
    assert term1_form(w).value(phi.values, psi.values) == pytest.approx(
        four_terms(phi, psi, w).term_i, rel=1e-10)


def test_shift_operator_without_pairs():
    # complexity above the depth: no valid pair, the zero map
    spec = ShiftSpec.constant(4, 3)
    assert spec.coeffs.size == 0
    op = ShiftOperator(spec)
    assert np.array_equal(op @ np.ones(7), np.zeros(7))
    assert np.array_equal(op.T @ np.ones((7, 2)), np.zeros((7, 2)))
