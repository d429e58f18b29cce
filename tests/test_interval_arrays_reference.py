"""Heap-ordered per-interval arrays: shift coefficients, their operator,
Carleson measures and Haar expansions to depth 12.  Each case's arrays are
pinned by digest in tests/corpus.json, under the entries
test_corpus.interval_outputs names.  The pins were taken while the
DyadicIndex-keyed dicts these replaced still agreed bit for bit, and the
cases keep the ids they had when they compared with them."""
import pytest

from dyadlab import shifts
from dyadlab.tree import n_internal
from test_corpus import SEEDS, assert_pinned, entry, interval_outputs

DEPTHS = range(1, 13)
COMPLEXITIES = range(4)


@pytest.mark.parametrize("n", COMPLEXITIES)
@pytest.mark.parametrize("depth", DEPTHS)
def test_shift_specs_match(depth, n):
    # a row of 2^n coefficients for each internal interval with internal
    # intervals n levels below it
    for seed in SEEDS:
        spec = shifts.ShiftSpec.random(n, depth, seed=seed)
        assert spec.coeffs.shape == (n_internal(max(depth - n, 0)), 1 << n)
    assert_pinned(interval_outputs, entry("shifts.ShiftSpec", n=n, d=depth))


@pytest.mark.parametrize("depth", DEPTHS)
def test_carleson_measures_match(depth):
    assert_pinned(interval_outputs, entry("embedding.carleson_measure_of", d=depth))


@pytest.mark.parametrize("depth", DEPTHS)
def test_haar_expansions_match(depth):
    # analysis of random and zero leaves, and synthesis back
    assert_pinned(interval_outputs, entry("tree.haar_synthesis", d=depth))
