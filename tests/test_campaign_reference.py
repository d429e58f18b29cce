"""Coordinate-major sampling and lemma campaigns against the row-major code
they replaced: every draw, mask and report must be bit-identical."""
import numpy as np
import pytest

from dyadlab import bellman
from dyadlab.bellman import (
    MAX_EMPTY_BATCHES,
    CampaignReport,
    _LOG_SPREAD,
    _barycenter_premise,
    _barycenter_sampler,
    _member,
    _omega_points,
    _outside_rows,
    _sample_strip,
    _segment_checks,
    _strip,
    _strip_rows,
    _triangle_sampler,
    in_domain_arr,
    run_barycenter_campaign,
    run_triangle_campaign,
    sample_omega,
    segments_in_domain_arr,
)
from dyadlab.tree import DomainError

# -- the row-major code, kept verbatim as the reference ----------------------


def reference_sample_strip(Q: float, n: int, rng, log_spread: float = np.log(10.0)):
    """(u, v) pairs in the hyperbolic strip 1 <= uv <= Q."""
    P = np.exp(rng.uniform(0.0, np.log(Q), size=n)) if Q > 1 else np.ones(n)
    h = rng.uniform(-log_spread, log_spread, size=n)
    u = np.sqrt(P) * np.exp(h)
    return u, P / u


def reference_sample_omega(Q: float, n: int, rng, boundary_prob: float = 0.1,
                           log_spread: float = np.log(10.0)) -> np.ndarray:
    """Random members of Omega_Q with full boundary coverage, as an (n, 6) array.

    uv is log-uniform in [1, Q] and split log-uniformly; x and y are drawn as
    signed fractions of their caps, with a boundary_prob chance of sitting
    exactly on the cap.
    """
    if not Q >= 1.0:
        raise DomainError("domain parameter must be >= 1")
    u, v = reference_sample_strip(Q, n, rng, log_spread)
    X = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=n))
    Y = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=n))
    fx = rng.uniform(0.0, 1.0, size=n)
    fy = rng.uniform(0.0, 1.0, size=n)
    fx = np.where(rng.uniform(size=n) < boundary_prob, 1.0, fx)
    fy = np.where(rng.uniform(size=n) < boundary_prob, 1.0, fy)
    sx = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    sy = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    x = sx * fx * np.sqrt(X * v)
    y = sy * fy * np.sqrt(Y * u)
    # exact-cap draws can land an ulp outside under exact comparisons; nudge in
    for _ in range(4):
        x = np.where(x * x > X * v, x * (1.0 - 4e-16), x)
        y = np.where(y * y > Y * u, y * (1.0 - 4e-16), y)
        uv = u * v
        f = np.where(uv > Q, 1.0 - 4e-16, np.where(uv < 1.0, 1.0 + 4e-16, 1.0))
        u = u * f
        v = v * f
    out = np.column_stack([X, Y, x, y, u, v])
    # at Q = 1 some u admit no double v with fl(u v) = 1; only those rows are
    # drawn again, so draws that need no mending consume no extra randomness
    bad = ~_member((X, Y, x, y, u, v), Q, 0.0)
    if bad.any():
        out[bad] = reference_sample_omega(Q, int(bad.sum()), rng, boundary_prob, log_spread)
    return out


def reference_slack_points(u: np.ndarray, v: np.ndarray, big: float = 1e6) -> np.ndarray:
    """Embed strip points into 6-tuples with slack remaining coordinates."""
    n = u.size
    out = np.empty((n, 6))
    out[:, 0] = big
    out[:, 1] = big
    out[:, 2] = 0.0
    out[:, 3] = 0.0
    out[:, 4] = u
    out[:, 5] = v
    return out


def reference_run_campaign(lemma: str, draw, premise, segments, Q: float, valid_trials: int,
                           seed: int, asserted_k: float, tol: float,
                           batch: int) -> CampaignReport:
    """Rejection sampling shared by the lemma campaigns.

    draw(Q, batch, rng) returns a list of (batch, 6) point arrays and
    premise(points, Q, tol) the mask of premise-valid draws.  A valid draw
    needs k = max(1, max uv / Q) over its segments (points[i], points[j]),
    (i, j) in segments, or k = inf when a segment leaves the caps.
    """
    if not 1.0 <= Q < np.inf:  # also false for nan
        raise DomainError(f"domain parameter must be finite and >= 1, got {Q}")
    if valid_trials < 1:
        raise DomainError("a campaign needs at least 1 trial")
    rng = np.random.default_rng(seed)
    valid = total = violations = empty = 0
    max_needed = 1.0
    worst = None
    while valid < valid_trials:
        pts = draw(Q, batch, rng)
        need = valid_trials - valid
        take = np.nonzero(premise(pts, Q, tol))[0][:need]
        # the campaign stops at the draw that completes it
        total += int(take[-1]) + 1 if take.size == need else batch
        if take.size == 0:
            empty += 1
            if empty == MAX_EMPTY_BATCHES:
                raise DomainError(f"{lemma} campaign at Q = {Q}: no premise-valid "
                                  f"draw in {empty * batch} consecutive draws")
            continue
        empty = 0
        pts = [arr[take] for arr in pts]
        needed = np.ones(take.size)
        caps_ok = np.ones(take.size, dtype=bool)
        for i, j in segments:
            seg_caps_ok, max_uv = _segment_checks(pts[i].T, pts[j].T, tol)
            caps_ok &= seg_caps_ok
            needed = np.maximum(needed, max_uv / Q)
        needed = np.where(caps_ok, needed, np.inf)
        bad = needed > asserted_k * (1.0 + 1e-12)
        violations += int(np.sum(bad))
        k = int(np.argmax(needed))
        if needed[k] > max_needed:
            max_needed = float(needed[k])
            worst = [arr[k].tolist() for arr in pts]
        valid += take.size
    return CampaignReport(
        lemma=lemma, trials_valid=valid, trials_total=total,
        violations=violations, max_needed_k=max_needed, asserted_k=asserted_k,
        worst_case_point=worst,
    )


def reference_triangle_draw(Q: float, batch: int, rng):
    return [reference_slack_points(*reference_sample_strip(Q, batch, rng)) for _ in range(3)]


def reference_triangle_premise(pts, Q: float, tol: float):
    A, B, C = pts
    return segments_in_domain_arr(A, B, Q, tol) & segments_in_domain_arr(C, (A + B) / 2.0, Q, tol)


def reference_barycenter_draw(Q: float, batch: int, rng):
    pts = [reference_sample_omega(Q, batch, rng) for _ in range(4)]
    return [sum(pts) / 4.0] + pts


def reference_barycenter_premise(pts, Q: float, tol: float):
    member = in_domain_arr(pts[0], Q, tol)
    for arr in pts[1:]:
        member &= in_domain_arr(arr, Q, tol)
    return member


def reference_triangle_campaign(Q, valid_trials, seed, asserted_k=4.5, tol=1e-12,
                                batch=40000):
    return reference_run_campaign("triangle", reference_triangle_draw,
                                  reference_triangle_premise, ((2, 0), (2, 1)),
                                  Q, valid_trials, seed, asserted_k, tol, batch)


def reference_barycenter_campaign(Q, valid_trials, seed, asserted_k=40.0, tol=1e-12,
                                  batch=40000):
    return reference_run_campaign("barycenter", reference_barycenter_draw,
                                  reference_barycenter_premise,
                                  ((0, 1), (0, 2), (0, 3), (0, 4)),
                                  Q, valid_trials, seed, asserted_k, tol, batch)


# -- the random stream -------------------------------------------------------

SAMPLE_Q = [1.0, 1.0 + 1e-7, 1.5, 3.0, 50.0, 1e6]


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
        # the barycenter campaign refills one buffer of blocks in place
        for Q in (1.0, 1.5):
            r = _strip_rows(Q)
            rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            buf = np.empty((4, r + 8, n))
            for k in range(4):
                rng.random(out=buf[k])
                assert buf[k].tobytes() == block_rng.random((r + 8, n)).tobytes()
            assert rng.random() == block_rng.random()


# -- sampling ----------------------------------------------------------------


# u, v in [0.1, 10 sqrt(Q)] keep X v and Y u normal up to the largest finite Q
@pytest.mark.parametrize("Q", SAMPLE_Q + [1e300, np.finfo(float).max])
@pytest.mark.parametrize("n", [1, 7, 40000])
def test_sample_omega_bit_identical(Q, n):
    for seed in range(8):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_omega(Q, n, rng)
        want = reference_sample_omega(Q, n, ref_rng)
        assert got.shape == want.shape == (n, 6)
        assert got.tobytes() == want.tobytes(), (Q, n, seed)
        # the same randomness was consumed, redraws at Q = 1 included
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("Q", SAMPLE_Q)
@pytest.mark.parametrize("n", [1, 7, 40000])
def test_sample_strip_bit_identical(Q, n):
    for seed in range(8):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for got, want in zip(_sample_strip(Q, n, rng), reference_sample_strip(Q, n, ref_rng),
                             strict=True):
            assert got.tobytes() == want.tobytes(), (Q, n, seed)
        assert rng.random() == ref_rng.random()


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


def reference_valid(draw, premise, Q, batch, rng, tol=1e-12):
    pts = draw(Q, batch, rng)
    take = np.nonzero(premise(pts, Q, tol))[0]
    return take, [arr[take] for arr in pts]


SAMPLERS = [(_triangle_sampler, reference_triangle_draw, reference_triangle_premise),
            (_barycenter_sampler, reference_barycenter_draw, reference_barycenter_premise)]


@pytest.mark.parametrize("Q", [1.0, 1.5, 50.0])
def test_draws_bit_identical(Q):
    # a batch of the campaign's draw against the reference draw, premise
    # and take: the same valid indices, points and stream position after
    for seed in range(3):
        for sampler, ref_draw, ref_premise in SAMPLERS:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            draw = sampler(Q, 5000)
            for _ in range(2):  # a reused buffer gives the same as a fresh one
                rows, got = draw(rng)
                take, want = reference_valid(ref_draw, ref_premise, Q, 5000, ref_rng)
                assert rows.tobytes() == take.tobytes()
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.shape == (6, take.size)
                    assert g.T.tobytes() == w.tobytes()
                assert rng.random() == ref_rng.random()
            if Q == 1.0:
                assert rows.size == 0
            else:
                assert 0 < rows.size < 5000


def test_barycenter_points_built_only_for_candidates(monkeypatch):
    # the columns-to-points step sees the rows that start outside the strip
    # and then the rows whose barycenter passes 1 <= uv <= Q, never the batch
    Q, batch = 1.5, 40000
    widths = []

    def recording(U, *args):
        widths.append(U.shape[1])
        return _omega_points(U, *args)

    monkeypatch.setattr(bellman, "_omega_points", recording)
    rows, got = _barycenter_sampler(Q, batch)(np.random.default_rng(6))
    bary = reference_barycenter_draw(Q, batch, np.random.default_rng(6))[0]
    uv = bary[:, 4] * bary[:, 5]
    candidates = int(np.sum((uv >= 1.0 - 1e-12) & (uv <= Q + 1e-12)))
    assert widths[-4:] == [candidates] * 4
    assert max(widths) == candidates < batch // 10
    assert 0 < rows.size <= candidates


# -- campaigns ---------------------------------------------------------------

CAMPAIGNS = [(run_triangle_campaign, reference_triangle_campaign),
             (run_barycenter_campaign, reference_barycenter_campaign)]


@pytest.mark.parametrize("runner, reference", CAMPAIGNS)
@pytest.mark.parametrize("Q", [1.5, 3.0, 50.0])
@pytest.mark.parametrize("seed, trials, batch", [
    (0, 20000, 40000),  # one default batch
    (1, 3000, 4000),  # several batches: counts and worst point carried over
    (2, 3000, 4000),
    (3, 1, 4000),  # stops at the first valid draw
])
def test_campaign_bit_identical(runner, reference, Q, seed, trials, batch):
    got = runner(Q=Q, valid_trials=trials, seed=seed, batch=batch)
    want = reference(Q=Q, valid_trials=trials, seed=seed, batch=batch)
    assert got.to_json() == want.to_json()
    assert got.worst_case_point == want.worst_case_point
    assert got.max_needed_k == want.max_needed_k


@pytest.mark.parametrize("runner, reference", CAMPAIGNS)
def test_no_valid_draw_at_q_one_same_error(runner, reference, time_limit):
    # no triple and no barycenter can meet its premise at Q = 1; the
    # barycenter draws are redrawn there, and both give up with one message
    messages = []
    with time_limit(20.0):
        for run in (runner, reference):
            with pytest.raises(DomainError) as info:
                run(Q=1.0, valid_trials=5, seed=4, batch=2000)
            messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "no premise-valid draw in 20000 consecutive draws" in messages[0]


def test_barycenter_draw_redraws_at_q_one():
    # at Q = 1 the sampler draws some rows again; what is left of the stream
    # after a batch matches the reference draw, premise and take
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    rows, got = _barycenter_sampler(1.0, 40000)(rng)
    take, want = reference_valid(reference_barycenter_draw, reference_barycenter_premise,
                                 1.0, 40000, ref_rng)
    assert rows.size == take.size == 0
    assert [g.shape for g in got] == [(6, 0)] * 5
    consumed = np.random.default_rng(5)
    consumed.random((4 * 9, 40000))  # the draws without any redraw
    assert rng.random() == ref_rng.random() != consumed.random()


# -- premises on either memory order -----------------------------------------


@pytest.mark.parametrize("Q", [1.5, 50.0])
def test_premise_masks_bit_identical(Q):
    # the barycenter campaign's point-level premise, on coordinate-major
    # points, against the reference premise on row-major ones
    pts = reference_barycenter_draw(Q, 20000, np.random.default_rng(9))
    got = _barycenter_premise([np.ascontiguousarray(p.T) for p in pts], Q)
    want = reference_barycenter_premise(pts, Q, 1e-12)
    assert got.dtype == bool and np.array_equal(got, want)
    assert 0 < got.sum() < got.size


def test_array_checks_same_on_either_memory_order():
    # sample_omega returns a transposed view; C-ordered copies and
    # F-ordered arrays must give the same masks and values
    rng = np.random.default_rng(11)
    P = sample_omega(3.0, 5000, rng)
    R = sample_omega(3.0, 5000, rng)
    orders = (np.ascontiguousarray, np.asfortranarray)
    for to_p in orders:
        p = to_p(P)
        for Q in (1.5, 3.0, 6.0):
            assert np.array_equal(in_domain_arr(p, Q, 1e-12), in_domain_arr(P, Q, 1e-12))
        for to_r in orders:
            r = to_r(R)
            assert np.array_equal(segments_in_domain_arr(p, r, 3.0, 1e-12),
                                  segments_in_domain_arr(P, R, 3.0, 1e-12))
    assert np.ascontiguousarray(P).flags.c_contiguous and P.flags.f_contiguous
    mask = segments_in_domain_arr(P, R, 3.0, 1e-12)
    assert 0 < mask.sum() < mask.size


@pytest.mark.parametrize("Q", [0.5, float("inf"), float("nan")])
def test_sample_omega_rejects_no_finite_domain(Q):
    # rng.uniform(0, log Q) raised OverflowError at Q = inf; the block draw
    # would map it to inf, so the sampler refuses it up front
    with pytest.raises(DomainError, match="finite and >= 1"):
        sample_omega(Q, 10, np.random.default_rng(0))
