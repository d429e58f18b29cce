"""The heap-array readers: the row operators, Haar analysis, weighted Haar
lookups and splits, the weight's own cached arrays and the two maxima over
intervals.  Each case's outputs are pinned by digest in tests/corpus.json,
under the entries test_corpus.heap_outputs names.  The pins were taken
while the per-level code these replaced still agreed bit for bit, and the
cases keep the ids they had when they compared with it."""
import numpy as np
import pytest

from dyadlab import weights
from dyadlab.tree import DomainError, DyadicIndex, _heap_levels, _interval_lengths, _subtree_sums
from test_corpus import _heap_weights, _tied, assert_pinned, entry, heap_outputs

DEPTHS = range(1, 11)


@pytest.mark.parametrize("depth", DEPTHS)
def test_row_operators_match_the_per_level_ones(depth):
    # plain and multiplied Haar operators and weighted ones, applied to
    # vectors and blocks on either side, and the dense analysis matrix
    assert_pinned(heap_outputs, entry("tree.haar_analysis_matrix", d=depth), *(
        entry("tree.TwoValuedRowOperator", kind, d=depth)
        for kind in ("haar", "haar,mult", "weighted power,mult", "weighted cascade,mult")))


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("kind", ["power", "cascade"])
def test_weight_readers_match_the_per_level_ones(depth, kind):
    assert_pinned(heap_outputs, entry("weights.readers", kind, d=depth))
    leaf = DyadicIndex(depth, 0)
    for lookup in (weights.weighted_haar, weights.haar_split):
        with pytest.raises(DomainError, match="internal interval"):
            lookup(_heap_weights(depth)[kind], leaf)


@pytest.mark.parametrize("depth", DEPTHS)
def test_haar_analysis_matches_the_per_level_one(depth):
    assert_pinned(heap_outputs, entry("tree.haar_analysis", d=depth))


@pytest.mark.parametrize("depth", DEPTHS)
def test_maxima_over_intervals_match_the_per_level_loops(depth):
    # Carleson norms of zero, tied, spiked, random and weight sequences, and
    # two-weight ratios of (w, sigma) pairs either way round
    assert_pinned(heap_outputs, entry("embedding.carleson_norm", d=depth),
                  entry("embedding.two_weight_ratio_max", "heap pairs", d=depth),
                  entry("weights._carleson_norm", "empty"))


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_tied_sequence_reaches_its_maximum_at_every_level(depth):
    sums = _subtree_sums(_tied(depth)) / _interval_lengths(depth)
    assert [float(np.max(level)) for level in _heap_levels(sums)] == [1.0] * depth
