"""The heap-array readers against the per-level code they replaced: the row
operators, Haar analysis, weighted Haar lookups and splits, the weight's own
cached arrays and the two maxima over intervals must all be byte-identical.

The references below are the per-level implementations, kept verbatim
(renamed, and reading the weight through ReferenceWeightStats)."""
from functools import cached_property

import numpy as np
import pytest

from dyadlab import embedding, tree, weights
from dyadlab.tree import (
    DomainError,
    DyadicIndex,
    HaarExpansion,
    LeafFunction,
    TwoValuedRowOperator,
    _dense,
    _heap_diffs,
    _heap_levels,
    _interval_lengths,
    _read_only,
    _subtree_sums,
    heap_averages,
    internal_indices,
)
from dyadlab.weights import (
    HaarSplit,
    WeightedHaar,
    _haar_values,
    gen_cascade,
    gen_power,
)

DEPTHS = range(1, 11)

# -- the per-level code, kept verbatim as the reference ----------------------


class ReferenceTwoValuedRowOperator(TwoValuedRowOperator):
    """The operator built from a list of per-level (left, right) pairs."""

    def __init__(self, depth: int, levels, mult=None):
        n = 1 << depth
        self.depth = depth
        self.shape = (n - 1, n)

        def rows(half):
            """The value of every row on that half, ordered like internal_indices."""
            return np.concatenate([np.broadcast_to(np.asarray(pair[half], dtype=float),
                                                   (1 << lev,))
                                   for lev, pair in enumerate(levels)])

        self.left, self.right = rows(0), rows(1)
        self.mult = None if mult is None else np.asarray(mult, dtype=float)


def reference_haar_operator(depth: int, mult=None) -> ReferenceTwoValuedRowOperator:
    """H with (H f)_I = (f, h_I), times the leafwise multiplier when given."""
    scale = 2.0**-depth
    amps = [1.0 / np.sqrt(2.0**-level) for level in range(depth)]
    return ReferenceTwoValuedRowOperator(depth, [(amp * scale, -amp * scale) for amp in amps],
                                         mult)


def reference_level_haar_coeffs(values: np.ndarray) -> list:
    """Haar coefficients (f, h_I) per internal level, as arrays."""
    diffs = _heap_diffs(heap_averages(values))
    return [d * np.sqrt(2.0**-lev) for lev, d in enumerate(_heap_levels(diffs))]


def reference_haar_analysis(f: LeafFunction) -> HaarExpansion:
    return HaarExpansion(depth=f.depth, mean=f.integral(),
                         coefficients=_read_only(np.concatenate(
                             reference_level_haar_coeffs(f.values))))


def reference_carleson_norm(alpha: np.ndarray) -> float:
    """Max over internal L of (1/|L|) sum_{I inside or equal to L} alpha_I,
    alpha heap-ordered."""
    levels = _heap_levels(_subtree_sums(alpha))
    return max((float(np.max(levels[lev]) * 2.0**lev) for lev in reversed(range(len(levels)))),
               default=0.0)


class ReferenceWeightStats:
    """The weight-only quantities of one Weight, heap-ordered, read-only."""

    def __init__(self, w: np.ndarray):
        self.depth = w.size.bit_length() - 1
        self.avg = _read_only(heap_averages([w, 1.0 / w]))

    @cached_property
    def delta(self) -> np.ndarray:
        return _read_only(_heap_diffs(self.avg))

    @cached_property
    def haar(self) -> np.ndarray:
        return _read_only(np.array(_haar_values(self.avg, _interval_lengths(self.depth))))

    @cached_property
    def alpha(self) -> np.ndarray:
        return _read_only(np.abs(self.delta[0]) * np.abs(self.delta[1])
                          * _interval_lengths(self.depth))

    @cached_property
    def carleson(self) -> float:
        return reference_carleson_norm(self.alpha)


def _children_averages(st: ReferenceWeightStats, I: DyadicIndex):
    if I.level >= st.depth:
        raise DomainError("weighted Haar needs an internal interval")
    i = (1 << I.level) - 1 + I.position
    avg = st.avg[0]
    return float(avg[2 * i + 1]), float(avg[2 * i + 2])


def reference_weighted_haar_levels(st: ReferenceWeightStats):
    return [tuple(pair) for pair in _heap_levels(st.haar[:, 0])]


def reference_weighted_haar(st: ReferenceWeightStats, I: DyadicIndex) -> WeightedHaar:
    """The L2(w)-normalized mean-zero (w.r.t. w) two-valued function on I."""
    if I.level >= st.depth:
        raise DomainError("weighted Haar needs an internal interval")
    a, b = reference_weighted_haar_levels(st)[I.level]
    return WeightedHaar(index=I, value_left=float(a[I.position]),
                        value_right=float(b[I.position]))


def reference_haar_split_levels(st: ReferenceWeightStats):
    """Per-level (alpha, beta) arrays for all internal intervals."""
    out = []
    for lev, (a, b) in enumerate(reference_weighted_haar_levels(st)):
        sL = np.sqrt(2.0**-lev)
        alpha = 2.0 / (sL * (a - b))
        beta = -alpha * (a + b) * sL / 2.0
        out.append((alpha, beta))
    return out


def reference_haar_split(st: ReferenceWeightStats, I: DyadicIndex) -> HaarSplit:
    """Solve h_I = alpha * h_I^w + beta * chi_I/sqrt|I| on the two halves of I."""
    wl, wr = _children_averages(st, I)
    alpha, beta = (float(arr[I.position]) for arr in reference_haar_split_levels(st)[I.level])
    mean_w = (wl + wr) / 2.0
    delta_w = (wl - wr) / 2.0
    if delta_w == 0.0:
        beta = 0.0
        beta_ratio = None
    else:
        beta_ratio = abs(beta) * mean_w / abs(delta_w)
    return HaarSplit(
        alpha=alpha,
        beta=beta,
        alpha_bound_ratio=float(abs(alpha) / np.sqrt(mean_w)),
        beta_bound_ratio=beta_ratio,
    )


def reference_weighted_haar_matrix(st: ReferenceWeightStats) -> np.ndarray:
    """Rows are leaf samplings of h_I^w, ordered like internal_indices."""
    return _dense(ReferenceTwoValuedRowOperator(st.depth, reference_weighted_haar_levels(st)),
                  st.depth)


def reference_two_weight_ratio_max(u: LeafFunction, v: LeafFunction) -> float:
    """Max of the difference-sum ratio over every internal L (vectorized)."""
    depth = u.depth
    inner = (1 << depth) - 1
    avg = heap_averages([u.values, v.values])
    d = _heap_diffs(avg)
    L = _interval_lengths(depth)
    sums = _subtree_sums(L * np.abs(d[0]) * np.abs(d[1]))
    ratios = _heap_levels((sums * (1.0 / L)) / np.sqrt(avg[0, :inner] * avg[1, :inner]))
    best = 0.0
    for lev in range(depth - 1, -1, -1):
        best = max(best, float(np.max(ratios[lev])))
    return best


# -- the comparisons ---------------------------------------------------------


def bits(x):
    """The bytes of a float, an array or a list or tuple of them, for exact comparison."""
    if isinstance(x, (list, tuple)):
        return [bits(e) for e in x]
    return np.asarray(x, dtype=float).tobytes()


def _weights(depth):
    return {"power": gen_power(depth, 0.6), "cascade": gen_cascade(depth, 0.8, depth)}


def _assert_same_operator(new, ref, rng):
    assert new.shape == ref.shape
    assert new.nbytes == ref.nbytes
    rows, cols = new.shape
    for x in (rng.standard_normal(cols), rng.standard_normal((cols, 3))):
        assert bits(new @ x) == bits(ref @ x)
    for y in (rng.standard_normal(rows), rng.standard_normal((rows, 2))):
        assert bits(new.T @ y) == bits(ref.T @ y)
        assert bits(y.T @ new) == bits(y.T @ ref)
    assert bits(new @ np.eye(cols)) == bits(ref @ np.eye(cols))


@pytest.mark.parametrize("depth", DEPTHS)
def test_row_operators_match_the_per_level_ones(depth):
    rng = np.random.default_rng(depth)
    mult = rng.uniform(0.1, 3.0, 1 << depth)
    _assert_same_operator(tree._haar_operator(depth), reference_haar_operator(depth), rng)
    _assert_same_operator(tree._haar_operator(depth, mult),
                          reference_haar_operator(depth, mult), rng)
    for w in _weights(depth).values():
        st = ReferenceWeightStats(w.values)
        levels = reference_weighted_haar_levels(st)
        _assert_same_operator(TwoValuedRowOperator(depth, *w._haar[:, 0], mult),
                              ReferenceTwoValuedRowOperator(depth, levels, mult), rng)
    assert bits(tree.haar_analysis_matrix(depth)) == bits(
        _dense(reference_haar_operator(depth), depth))


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("kind", ["power", "cascade"])
def test_weight_readers_match_the_per_level_ones(depth, kind):
    w = _weights(depth)[kind]
    st = ReferenceWeightStats(w.values)
    assert bits([w._avg, w._delta, w._haar, w._alpha, w._carleson]) == bits(
        [st.avg, st.delta, st.haar, st.alpha, st.carleson])
    assert bits(w.sigma) == bits(st.avg[1, w.values.size - 1 :])
    assert bits(weights.weighted_haar_matrix(w)) == bits(reference_weighted_haar_matrix(st))
    assert bits([tuple(pair) for pair in _heap_levels(weights.haar_splits(w))]) == bits(
        reference_haar_split_levels(st))
    for I in internal_indices(depth):
        assert weights.weighted_haar(w, I) == reference_weighted_haar(st, I)
        new, ref = weights.haar_split(w, I), reference_haar_split(st, I)
        assert bits([new.alpha, new.beta, new.alpha_bound_ratio]) == bits(
            [ref.alpha, ref.beta, ref.alpha_bound_ratio])
        assert (new.beta_bound_ratio is None) == (ref.beta_bound_ratio is None)
        if ref.beta_bound_ratio is not None:
            assert bits(new.beta_bound_ratio) == bits(ref.beta_bound_ratio)
    leaf = DyadicIndex(depth, 0)
    for lookup in (weights.weighted_haar, weights.haar_split):
        with pytest.raises(DomainError, match="internal interval"):
            lookup(w, leaf)


@pytest.mark.parametrize("depth", DEPTHS)
def test_haar_analysis_matches_the_per_level_one(depth):
    rng = np.random.default_rng(50 + depth)
    for values in (rng.standard_normal(1 << depth), _weights(depth)["cascade"].values):
        f = LeafFunction(values)
        new, ref = tree.haar_analysis(f), reference_haar_analysis(f)
        assert bits([new.mean, new.coefficients]) == bits([ref.mean, ref.coefficients])


def _tied(depth):
    """A Carleson sequence on the leftmost path whose ratio
    (1/|L|) sum_{I inside or equal to L} alpha_I is exactly 1, its maximum,
    at every level: alpha = 2^-(lev + 1) above the last internal level and
    2^-(depth - 1) on it."""
    alpha = np.zeros((1 << depth) - 1)
    for lev in range(depth):
        alpha[(1 << lev) - 1] = 2.0 ** -min(lev + 1, depth - 1)
    return alpha


@pytest.mark.parametrize("depth", DEPTHS)
def test_maxima_over_intervals_match_the_per_level_loops(depth):
    n = (1 << depth) - 1
    rng = np.random.default_rng(90 + depth)
    # the spike peaks at the deepest internal level, its ratio 2^(depth - 1)
    spike = np.zeros(n)
    spike[-1] = 1.0
    for alpha in (np.zeros(n), _tied(depth), spike, rng.uniform(0.0, 1.0, n),
                  *(w._alpha for w in _weights(depth).values())):
        m = embedding.CarlesonMeasure(depth=depth, alpha=alpha)
        assert bits(embedding.carleson_norm(m)) == bits(reference_carleson_norm(m.alpha))
    assert bits(weights._carleson_norm(np.zeros(0))) == bits(reference_carleson_norm(np.zeros(0)))
    for w in _weights(depth).values():
        sig = LeafFunction(w.sigma)
        for u, v in ((w.base, sig), (sig, w.base), (w.base, w.base)):
            assert bits(embedding.two_weight_ratio_max(u, v)) == bits(
                reference_two_weight_ratio_max(u, v))
    one = LeafFunction(np.ones(1 << depth))
    assert bits(embedding.two_weight_ratio_max(one, one)) == bits(
        reference_two_weight_ratio_max(one, one))


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_tied_sequence_reaches_its_maximum_at_every_level(depth):
    sums = _subtree_sums(_tied(depth)) / _interval_lengths(depth)
    assert [float(np.max(level)) for level in _heap_levels(sums)] == [1.0] * depth
