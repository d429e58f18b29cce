"""The segment kernel and the triangle campaign's strip premise.  Every value
and mask of the cases below, NaN, infinities, signed zeros and 0-d inputs
included, is pinned by digest in tests/corpus.json, under the entries
test_corpus.segment_outputs names; each case checks its own entries.  The
pins were taken while the code these replaced (_quad_max_01 computing the
vertex on every entry, _segment_checks copying for positivity, the triangle
premise running the six-coordinate kernel on slack points) still agreed bit
for bit, and the cases keep the ids they had when they compared with it."""
import numpy as np
import pytest

from dyadlab import bellman
from dyadlab.bellman import (CAMPAIGN_TOL, _quad_max_01, _segment_checks, _slack_points,
                             _strip_segments_ok, _triangle_sampler)
from test_corpus import (SPECIAL, assert_pinned, entry, segment_outputs, segment_points,
                         strip_segments, strided_rows)

# -- _quad_max_01 ------------------------------------------------------------------


def test_quad_max_special_values():
    assert_pinned(segment_outputs, entry("bellman._quad_max_01", "special"))
    # every 4-tuple of special values, one per column, reaches the vertex
    # inside and t rounded to 0
    g = np.array(np.meshgrid(*[SPECIAL] * 4, indexing="ij")).reshape(4, -1)
    with np.errstate(all="ignore"):
        got = _quad_max_01(*g)
        t = -g[1] / (2.0 * g[2])
    inside = (g[2] < 0.0) & (t > 0.0) & (t < 1.0)
    assert inside.any() and ((g[2] < 0) & (g[1] > 0) & (t == 0.0)).any()
    assert (got[inside] > np.maximum(g[0], g[3])[inside]).any()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_quad_max_random(seed, scale):
    assert_pinned(segment_outputs, entry("bellman._quad_max_01", "random", seed=seed,
                                         scale=scale))


def test_quad_max_strided_rows():
    # the kernel reads rows of (n, 6) arrays through .T, which are strided
    assert not strided_rows()[0].flags.c_contiguous
    assert_pinned(segment_outputs, entry("bellman._quad_max_01", "strided"))


@pytest.mark.parametrize("zero_d", [np.float64, np.array])
def test_quad_max_zero_d(zero_d):
    # the scalar checks pass (6,) points, whose rows are numpy scalars
    assert_pinned(segment_outputs,
                  entry("bellman._quad_max_01", "special", f"0-d {zero_d.__name__}"))


# -- _segment_checks -----------------------------------------------------------------


@pytest.mark.parametrize("tol", [0.0, 1e-12, -1e-9, 1e3])
def test_segment_checks_general_points(tol):
    # (6, n) points of mixed size and special coordinates, and (6,) points
    assert_pinned(segment_outputs, entry("bellman._segment_checks", tol=tol))
    with np.errstate(all="ignore"):
        got = _segment_checks(*segment_points(), tol)
    assert got[0].any() and not got[0].all()


def test_checks_on_their_tolerance_edges():
    # segments along both cap cones at tol = 0, and a median premise whose
    # segment touches uv = Q + tol: each mask turns on the last bits
    assert_pinned(segment_outputs, entry("bellman._segment_checks", "along the cap cones"),
                  entry("bellman._median_premise", "tolerance edge"))


# -- the strip premise -----------------------------------------------------------------

STRIP_Q = [1.0, 1.5, 50.0]
STRIP_TOLS = [CAMPAIGN_TOL]  # the one tol the strip premise runs at, and the pins


@pytest.mark.parametrize("Q", STRIP_Q)
@pytest.mark.parametrize("tol", STRIP_TOLS)
def test_strip_segments_match_slack_points(Q, tol):
    assert_pinned(segment_outputs, entry("bellman._strip_segments_ok", Q=Q))
    with np.errstate(all="ignore"):
        got = _strip_segments_ok(*strip_segments(Q), Q)
    assert got.dtype == bool
    if Q > 1:
        assert 0 < got.sum() < got.size


@pytest.mark.parametrize("Q", STRIP_Q)
@pytest.mark.parametrize("tol", STRIP_TOLS)
def test_median_premise_on_strips(Q, tol):
    assert_pinned(segment_outputs, entry("bellman._median_premise", Q=Q))


@pytest.mark.parametrize("Q", STRIP_Q)
@pytest.mark.parametrize("tol", STRIP_TOLS)
def test_triangle_sampler_every_tol(Q, tol):
    # two draws: valid indices, points and the stream position after
    assert_pinned(segment_outputs, entry("bellman._triangle_sampler", Q=Q, batch=4000))


def test_slack_points_for_valid_rows_only(monkeypatch):
    # the sampler embeds just the premise-valid rows as slack points
    widths = []

    def recording(u, v):
        widths.append(u.size)
        return _slack_points(u, v)

    monkeypatch.setattr(bellman, "_slack_points", recording)
    rows, _ = _triangle_sampler(1.5, 40000)(np.random.default_rng(0))
    assert widths == [rows.size] * 3 and 0 < rows.size < 40000 // 5
