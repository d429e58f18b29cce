"""The heap-ordered interval averages, the weight cache and the
level-vectorized kernels, on 200 inputs to depth 10 (cascades of every
roughness, power and constant weights, random and zero functions).  Each
case's outputs are pinned by digest in tests/corpus.json, under the entries
test_corpus.embedding_outputs names.  The pins were taken while the
per-level code these replaced still agreed bit for bit, and the cases keep
the ids they had when they compared with it.  The cache's read-only arrays
and the kernels' edge cases are checked live."""
import numpy as np
import pytest

from dyadlab import bellman, embedding, tree
from dyadlab.embedding import (
    DualityReport,
    carleson_box_check,
    carleson_measure_of,
    carleson_norm,
    duality_product,
    four_terms,
    key_sum,
    maximal_weighted,
)
from dyadlab.tree import DomainError, DyadicIndex, LeafFunction, StructureError
from dyadlab.weights import A2Report, Weight, a2_characteristic, gen_cascade
from test_corpus import EMBEDDING_CASES, assert_pinned, embedding_inputs, embedding_outputs, entry


@pytest.mark.parametrize("depth,seed", EMBEDDING_CASES)
def test_tree_level_functions_match(depth, seed):
    # level averages, differences and Haar coefficients of a function, a
    # weight and its dual, and the heap averages of the three stacked
    assert_pinned(embedding_outputs, entry("tree.level_functions", d=depth, seed=seed),
                  entry("tree.heap_averages", "stack", d=depth, seed=seed))
    w, phi, _ = embedding_inputs(depth, seed)
    stack = np.array([phi.values, w.values, 1.0 / w.values])
    heap = tree.heap_averages(stack)
    assert heap.flags.c_contiguous
    assert [row.tobytes() for row in heap] == [tree.heap_averages(v).tobytes() for v in stack]


@pytest.mark.parametrize("depth,seed", EMBEDDING_CASES)
def test_weight_quantities_match(depth, seed):
    # the cached averages, differences and weighted Haar values, [w]_A2 and
    # the Carleson measure, which shares the cache's array
    w, _, _ = embedding_inputs(depth, seed)
    assert embedding.carleson_measure_of(w).alpha is w._alpha
    assert_pinned(embedding_outputs, entry("weights.cache", d=depth, seed=seed))


@pytest.mark.parametrize("depth,seed", EMBEDDING_CASES[::3])
def test_term1_form_matches(depth, seed):
    assert_pinned(embedding_outputs, entry("embedding.term1_form", d=depth, seed=seed))


@pytest.mark.parametrize("depth,seed", EMBEDDING_CASES)
def test_embedding_kernels_match(depth, seed):
    # the key sum, the four terms, the maximal function, the duality
    # product and the Carleson box check
    assert_pinned(embedding_outputs, entry("embedding.kernels", d=depth, seed=seed))


@pytest.mark.parametrize("depth,seed", EMBEDDING_CASES)
def test_localized_quantities_match_at_every_level(depth, seed):
    # the Bellman point of one interval at every level, and the ratio of w
    # and sigma
    assert_pinned(embedding_outputs, entry("bellman.point_from_data", d=depth, seed=seed),
                  entry("embedding.two_weight_ratio_max", "w-sigma", d=depth, seed=seed))


@pytest.mark.parametrize("depth,seed", EMBEDDING_CASES[::7])
def test_two_weight_ratio_matches_on_unrelated_pairs(depth, seed):
    assert_pinned(embedding_outputs,
                  entry("embedding.two_weight_ratio_max", "unrelated", d=depth, seed=seed))


# -- the weight cache and the kernels' edges -----------------------------------


def test_constant_weight_and_zero_functions():
    w = Weight(LeafFunction.constant(3, 2.5))
    zero = LeafFunction(np.zeros(8))
    assert not w._delta.any()
    assert key_sum(zero, zero, w) == 0.0
    assert duality_product(zero, zero, w) == DualityReport(product=0.0, ratio=0.0)
    assert carleson_box_check(zero, zero, w) == (0.0, 0.0)
    assert carleson_norm(carleson_measure_of(w)) == 0.0
    assert a2_characteristic(w) == A2Report(characteristic=1.0, witness=DyadicIndex(0, 0))


def _cached_arrays(w):
    yield from (w._avg, w._delta, w._haar)
    yield from tree.level_averages(w.values)


def test_cached_arrays_are_read_only():
    w = gen_cascade(4, 0.6, 3)
    arrays = list(_cached_arrays(w))
    assert len(arrays) == 3 + 5
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(AttributeError):
        w._cache = None


def test_a_modified_copy_leaves_later_results_unchanged():
    w = gen_cascade(5, 0.7, 11)
    phi, psi = (LeafFunction(np.random.default_rng([5, 1, salt]).standard_normal(32) * 3.0)
                for salt in (1, 2))
    before = ([a.tobytes() for a in (w._avg, w._delta, w._haar)],
              a2_characteristic(w), key_sum(phi, psi, w), carleson_box_check(phi, psi, w))
    for arr in _cached_arrays(w):
        mine = arr.copy()
        mine *= 3.0
    after = ([a.tobytes() for a in (w._avg, w._delta, w._haar)],
             a2_characteristic(w), key_sum(phi, psi, w), carleson_box_check(phi, psi, w))
    assert after == before
    # a fresh weight on a copy of the values builds the same cache
    fresh = Weight.from_values(np.array(w.values))
    assert before[0][:2] == [fresh._avg.tobytes(), fresh._delta.tobytes()]


def test_kernels_still_validate_their_inputs():
    w = gen_cascade(3, 0.5, 0)
    short = LeafFunction(np.ones(4))
    full = LeafFunction(np.ones(8))
    for kernel in (key_sum, four_terms, carleson_box_check, duality_product):
        with pytest.raises(StructureError):
            kernel(short, full, w)
    with pytest.raises(StructureError):
        maximal_weighted(short, w)
    with pytest.raises(DomainError):
        bellman.point_from_data(full, full, w, DyadicIndex(4, 0))
