"""Coordinate-major sampling and lemma campaigns.  Every draw, mask and
report of the cases below is pinned by digest in tests/corpus.json, under
the entries test_corpus.campaign_outputs names; each case checks its own
entries, so a failure names the case.  The pins were taken while the
row-major code these replaced still agreed bit for bit, and the cases keep
the ids they had when they compared with it.  What needs no pinned output
(one random stream, the redraw set, memory order) is checked live."""
import numpy as np
import pytest

from dyadlab import bellman
from dyadlab.bellman import (
    _LOG_SPREAD,
    _barycenter_premise,
    _barycenter_sampler,
    _member,
    _omega_points,
    _outside_rows,
    _segment_checks,
    _strip,
    _strip_rows,
    _triangle_sampler,
    in_domain_arr,
    run_barycenter_campaign,
    run_triangle_campaign,
    sample_omega,
)
from dyadlab.tree import DomainError
from test_corpus import SAMPLE_Q, assert_pinned, barycenter_points, campaign_outputs, entry

# -- sampling --------------------------------------------------------------------


def test_uniform_and_random_share_one_stream():
    # the coordinate-major sampler draws rng.random blocks and maps each row
    # as Generator.uniform does; if numpy ever changes either, this fails
    n = 1000
    for seed in range(4):
        for low, high in [(0.0, np.log(1.5)), (0.0, np.log(1e6)), (0.0, 1.0),
                          (-np.log(10.0), np.log(10.0)), (np.log(1e-2), np.log(1e2))]:
            got = np.random.default_rng(seed).uniform(low, high, size=n)
            want = low + (high - low) * np.random.default_rng(seed).random(n)
            assert got.tobytes() == want.tobytes(), (low, high)
        rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = block_rng.random((10, n))
        for row in block:
            assert rng.uniform(size=n).tobytes() == row.tobytes()
        assert rng.random() == block_rng.random()
        # a barycenter draw fills one buffer of blocks in place
        for Q in (1.0, 1.5):
            r = _strip_rows(Q)
            rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            buf = np.empty((4, r + 8, n))
            for k in range(4):
                rng.random(out=buf[k])
                assert buf[k].tobytes() == block_rng.random((r + 8, n)).tobytes()
            assert rng.random() == block_rng.random()


@pytest.mark.parametrize("Q", SAMPLE_Q + [1e300, float(np.finfo(float).max)])
@pytest.mark.parametrize("n", [1, 7, 40000])
def test_sample_omega_bit_identical(Q, n):
    assert_pinned(campaign_outputs, entry("bellman.sample_omega", Q=Q, n=n))


@pytest.mark.parametrize("Q", SAMPLE_Q)
@pytest.mark.parametrize("n", [1, 7, 40000])
def test_sample_strip_bit_identical(Q, n):
    assert_pinned(campaign_outputs, entry("bellman._sample_strip", Q=Q, n=n))


def test_sample_omega_is_a_view_of_coordinate_rows():
    P = sample_omega(3.0, 100, np.random.default_rng(0))
    assert P.shape == (100, 6)
    assert P.T.flags.c_contiguous


@pytest.mark.parametrize("Q", SAMPLE_Q)
@pytest.mark.parametrize("boundary_prob", [1.0, 0.1])
@pytest.mark.parametrize("log_spread", [np.log(10.0)])
def test_redraw_rows_only_from_strip_outside(Q, boundary_prob, log_spread):
    # the rows whose strip (u, v) start outside 1 <= uv <= Q, built and
    # tested, are the whole redraw set: building every point finds no other;
    # the final (u, v) handed back are the built points' own.  The one
    # spread drawn keeps u and v in [0.1, 10 sqrt(Q)], which that rests on.
    assert _LOG_SPREAD == log_spread
    n = 40000
    for seed in range(4):
        U = np.random.default_rng(seed).random((_strip_rows(Q) + 8, n))
        if seed == 3 and Q > 1:
            # uv drawn as exactly 1: about half the products round below 1
            # and are nudged in, so rows start outside and end inside
            U[0] = 0.0
        bad, u, v = _outside_rows(U, Q, boundary_prob)
        pts = _omega_points(U, Q, boundary_prob)
        eager = np.nonzero(~_member(pts, Q, 0.0))[0]
        assert np.array_equal(bad, eager), (Q, seed)
        assert u.tobytes() == pts[4].tobytes() and v.tobytes() == pts[5].tobytes()
        moved = u != _strip(U[: _strip_rows(Q)], Q)[0]
        if Q == 1.0:
            assert bad.size > 0  # the redraws do happen
        elif seed == 3:
            assert moved.sum() > n // 10 and bad.size == 0


# -- the campaigns' draws ----------------------------------------------------------


@pytest.mark.parametrize("Q", [1.0, 1.5, 50.0])
def test_draws_bit_identical(Q):
    # valid indices, points and stream position after two consecutive draws
    assert_pinned(campaign_outputs, *(entry(f"bellman.{sampler.__name__}", Q=Q, batch=5000)
                                      for sampler in (_triangle_sampler, _barycenter_sampler)))
    for sampler in (_triangle_sampler, _barycenter_sampler):
        rows, _ = sampler(np.random.default_rng(0), Q, 5000)
        assert rows.size == 0 if Q == 1.0 else 0 < rows.size < 5000


def test_barycenter_points_built_only_for_candidates(monkeypatch):
    # the columns-to-points step sees the rows that start outside the strip
    # and then the rows whose barycenter passes 1 <= uv <= Q, never the batch
    Q, batch = 1.5, 40000
    widths = []

    def recording(U, *args):
        widths.append(U.shape[1])
        return _omega_points(U, *args)

    monkeypatch.setattr(bellman, "_omega_points", recording)
    rows, got = _barycenter_sampler(np.random.default_rng(6), Q, batch)
    # a batch's four blocks are four sample_omega draws from the same stream
    monkeypatch.undo()
    rng = np.random.default_rng(6)
    bary = sum(sample_omega(Q, batch, rng) for _ in range(4)) / 4.0
    uv = bary[:, 4] * bary[:, 5]
    candidates = int(np.sum((uv >= 1.0 - 1e-12) & (uv <= Q + 1e-12)))
    assert widths[-4:] == [candidates] * 4
    assert max(widths) == candidates < batch // 10
    assert 0 < rows.size <= candidates


# -- campaigns ---------------------------------------------------------------------

# each id names the row-major runner the case once compared with
RUNNERS = [pytest.param(runner, id=f"{runner.__name__}-reference_{runner.__name__[4:]}")
           for runner in (run_triangle_campaign, run_barycenter_campaign)]


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("Q", [1.5, 3.0, 50.0])
@pytest.mark.parametrize("seed, trials, batch", [
    (0, 20000, 40000),  # one default batch
    (1, 3000, 4000),  # several batches: counts and worst point carried over
    (2, 3000, 4000),
    (3, 1, 4000),  # stops at the first valid draw
])
def test_campaign_bit_identical(runner, Q, seed, trials, batch):
    assert_pinned(campaign_outputs, entry(f"bellman.{runner.__name__}", Q=Q, seed=seed,
                                          trials=trials, batch=batch))


@pytest.mark.parametrize("lemma", ["triangle", "barycenter"])
def test_campaign_keeps_the_first_of_tied_worst_cases(lemma):
    # each draw followed by its mirror image, which needs the same k, so
    # every new worst case is a tie
    assert_pinned(campaign_outputs, entry("bellman._run_campaign", lemma, "mirrored draws"))


@pytest.mark.parametrize("runner", RUNNERS)
def test_no_valid_draw_at_q_one_same_error(runner, time_limit):
    # no triple and no barycenter can meet its premise at Q = 1, whatever
    # the seed; the barycenter draws are redrawn there, and both give up
    # with one message, which the corpus pins
    messages = []
    with time_limit(20.0):
        for seed in (4, 5):
            with pytest.raises(DomainError) as info:
                runner(Q=1.0, valid_trials=5, seed=seed, batch=2000)
            messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "no premise-valid draw in 20000 consecutive draws" in messages[0]
    assert_pinned(campaign_outputs, entry(f"bellman.{runner.__name__}", Q=1.0, seed=4,
                                          batch=2000))


def test_barycenter_draw_redraws_at_q_one():
    # at Q = 1 the sampler draws some rows again: no row is valid, and the
    # stream has moved past the draws without any redraw
    rng = np.random.default_rng(5)
    rows, got = _barycenter_sampler(rng, 1.0, 40000)
    assert rows.size == 0
    assert [g.shape for g in got] == [(6, 0)] * 5
    consumed = np.random.default_rng(5)
    consumed.random((4 * 9, 40000))  # the draws without any redraw
    assert rng.random() != consumed.random()
    assert_pinned(campaign_outputs, entry("bellman._barycenter_sampler", Q=1.0, batch=40000))


# -- premises on either memory order -------------------------------------------------


@pytest.mark.parametrize("Q", [1.5, 50.0])
def test_premise_masks_bit_identical(Q):
    # the barycenter campaign's point-level premise on coordinate-major
    # points, and membership on the row-major ones
    assert_pinned(campaign_outputs, entry("bellman._barycenter_premise", Q=Q))
    got = _barycenter_premise([np.ascontiguousarray(p.T) for p in barycenter_points(Q)], Q)
    assert got.dtype == bool and 0 < got.sum() < got.size


def test_array_checks_same_on_either_memory_order():
    # sample_omega returns a transposed view; C-ordered copies and
    # F-ordered arrays must give the same masks and values, and the
    # segment kernel the same on the .T views of either
    rng = np.random.default_rng(11)
    P = sample_omega(3.0, 5000, rng)
    R = sample_omega(3.0, 5000, rng)
    orders = (np.ascontiguousarray, np.asfortranarray)
    want = _segment_checks(P.T, R.T, 1e-12)
    for to_p in orders:
        p = to_p(P)
        for Q in (1.5, 3.0, 6.0):
            assert np.array_equal(in_domain_arr(p, Q, 1e-12), in_domain_arr(P, Q, 1e-12))
        for to_r in orders:
            got = _segment_checks(p.T, to_r(R).T, 1e-12)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert np.ascontiguousarray(P).flags.c_contiguous and P.flags.f_contiguous
    mask = want[0] & (want[1] <= 3.0 + 1e-12)
    assert 0 < mask.sum() < mask.size


@pytest.mark.parametrize("Q", [0.5, float("inf"), float("nan")])
def test_sample_omega_rejects_no_finite_domain(Q):
    # rng.uniform(0, log Q) raised OverflowError at Q = inf; the block draw
    # would map it to inf, so the sampler refuses it up front
    with pytest.raises(DomainError, match="finite and >= 1"):
        sample_omega(Q, 10, np.random.default_rng(0))
