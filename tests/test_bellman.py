"""Domain geometry, lemma campaigns, DP estimator, and dyadic-data points."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import bellman
from dyadlab.tree import DomainError, DyadicIndex, LeafFunction, ROOT, StructureError
from dyadlab.weights import Weight, a2_characteristic, gen_cascade
from dyadlab.bellman import (
    BellmanPoint,
    CampaignReport,
    DpEstimator,
    _quad_max_01,
    _segment_checks,
    in_domain,
    in_domain_arr,
    point_from_data,
    run_barycenter_campaign,
    run_triangle_campaign,
    sample_omega,
    segment_in_domain,
)
from test_corpus import assert_pinned, campaign_outputs, entry


def segment_max_uv(p: BellmanPoint, q: BellmanPoint) -> float:
    """Max of u(t) v(t) along the segment (closed form)."""
    return float(_segment_checks(p.as_array(), q.as_array(), 0.0)[1])


def strip_point(u, v, big=1e6):
    return BellmanPoint(X=big, Y=big, x=0.0, y=0.0, u=u, v=v)


class TestInDomain:
    def test_base_point(self):
        assert in_domain(BellmanPoint(1, 1, 0, 0, 1, 1), Q=1.0)

    def test_cap_violation(self):
        assert not in_domain(BellmanPoint(1, 1, 2, 0, 1, 1), Q=100.0)

    def test_uv_boundary_inclusive(self):
        assert in_domain(BellmanPoint(10, 10, 1, 1, 2.0, 1.5), Q=3.0)
        assert not in_domain(BellmanPoint(10, 10, 1, 1, 2.0, 1.5), Q=2.9)

    def test_nonpositive_rejected(self):
        assert not in_domain(BellmanPoint(0.0, 1, 0, 0, 1, 1), Q=2.0)
        assert not in_domain(BellmanPoint(1, 1, 0, 0, -1, -1), Q=2.0)

    def test_bad_q(self):
        with pytest.raises(DomainError):
            in_domain(BellmanPoint(1, 1, 0, 0, 1, 1), Q=0.5)

    @pytest.mark.parametrize("build", [
        lambda: in_domain(BellmanPoint(1, 1, 0, 0, 1, 1), Q=float("nan")),
        lambda: segment_in_domain(BellmanPoint(1, 1, 0, 0, 1, 1),
                                  BellmanPoint(1, 1, 0, 0, 1, 1), Q=float("nan")),
        lambda: DpEstimator(Q=float("nan")),
    ])
    def test_nan_q(self, build):
        with pytest.raises(DomainError, match="domain parameter must be >= 1, got nan"):
            build()

    def test_infinite_q_is_no_cap(self):
        far = BellmanPoint(1, 1, 0, 0, 1e6, 1e6)
        assert in_domain(far, Q=np.inf)
        assert segment_in_domain(BellmanPoint(1, 1, 0, 0, 1, 1), far, Q=np.inf)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("coord", range(6))
    def test_non_finite_coordinate_is_outside(self, coord, value):
        # an infinite X passes every constraint of the membership formula
        arr = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        arr[coord] = value
        assert not in_domain(BellmanPoint.from_array(arr), Q=np.inf)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("coord", range(6))
    def test_non_finite_coordinate_is_outside_every_reader(self, coord, value):
        # the array and segment readers agree with in_domain, without a
        # warning from inf - inf in the segment quadratics; in a batch the
        # finite row keeps its verdict next to the others
        member = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        bad = member.copy()
        bad[coord] = value
        P = np.array([member, member, bad])
        R = np.array([member, bad, member])
        pairs = [(BellmanPoint.from_array(a), BellmanPoint.from_array(b)) for a, b in zip(P, R)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for Q in (4.0, np.inf):
                assert in_domain_arr(np.array([member, bad]), Q).tolist() == [True, False]
                assert [segment_in_domain(p, q, Q) for p, q in pairs] == [True, False, False]
        # the kernel over .T views, which the campaigns run on finite draws
        # only: the finiteness check that rejects the other rows is
        # segment_in_domain's
        with np.errstate(all="ignore"):
            caps_ok, max_uv = _segment_checks(P.T, R.T, 0.0)
        assert caps_ok[0] and max_uv[0] == 1.0


# (g0, g1, g2, g_end) rows on which the vertex divides by zero, overflows or
# is NaN: none of that may warn, and none of it may reach the result
QUAD_EDGES = np.array([
    (1.0, 2.0, 0.0, 3.0),          # g2 = 0: t = -inf
    (1.0, 0.0, 0.0, 1.0),          # g1 = g2 = 0: t = NaN
    (0.0, 1.0, -1e-300, 1.0),      # t = 5e299, far outside
    (0.0, 1e300, -1e-300, 0.0),    # t overflows to inf
    (0.0, 1e160, -0.1, 0.0),       # g2 t t overflows
    (0.0, np.inf, -np.inf, 0.0),   # t = inf / inf
    (np.nan, 1.0, -1.0, 0.0),
    (0.0, np.nan, -1.0, 0.0),
    (0.0, 1.0, np.nan, 0.0),
    (0.0, 1.0, -1.0, np.nan),
    (0.0, 1.0, -1.0, 0.0),         # vertex 1/4 at t = 1/2
    (-1.0, 3.0, -1.0, 1.0),        # vertex at t = 3/2 > 1
    (1e308, 1e308, -1e308, 1e308),
])


def brute_quad_max(g0, g1, g2, g_end):
    """max(g0, g_end), and the vertex value where g2 < 0 < g1 puts it inside
    (0, 1), one entry at a time with numpy's NaN-propagating maximum."""
    best = np.maximum(g0, g_end)
    if g2 < 0.0 < g1:
        with np.errstate(all="ignore"):
            t = -g1 / (2.0 * g2)
            if 0.0 < t < 1.0:
                best = np.maximum(best, g0 + g1 * t + g2 * t * t)
    return best


def test_quad_max_edge_inputs_are_silent_and_exact():
    want = np.array([brute_quad_max(*row) for row in QUAD_EDGES])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _quad_max_01(*QUAD_EDGES.T.copy())
        scalars = [_quad_max_01(*row) for row in QUAD_EDGES]
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(scalars, want, equal_nan=True)
    assert want[10] == 0.25 and want[11] == 1.0 and np.isnan(want[6:10]).sum() == 2


class TestSegmentInDomain:
    def test_degenerate(self):
        p = BellmanPoint(1, 1, 0, 0, 1, 1)
        assert segment_in_domain(p, p, Q=2.0)

    def test_hyperbola_midpoint(self):
        # endpoints on uv = Q; the midpoint product (1+Q)^2/4 decides
        Q = 3.0
        p = strip_point(1.0, Q)
        q = strip_point(Q, 1.0)
        assert not segment_in_domain(p, q, Q=3.0)
        assert segment_in_domain(p, q, Q=4.0)
        assert segment_max_uv(p, q) == pytest.approx((1.0 + Q) ** 2 / 4.0)

    def test_monotone_uv_segments(self):
        rng = np.random.default_rng(0)
        Q = 5.0
        for _ in range(200):
            u0, v0 = np.exp(rng.uniform(-1, 1, 2))
            fu, fv = np.exp(rng.uniform(0.0, 0.3, 2))
            uv0 = max(u0 * v0, 1.0 / (u0 * v0))
            u0, v0 = np.sqrt(uv0) * u0 / np.sqrt(u0 * v0), np.sqrt(uv0) * v0 / np.sqrt(u0 * v0)
            u1, v1 = u0 * fu, v0 * fv
            if u1 * v1 > Q or u0 * v0 > Q:
                continue
            assert segment_in_domain(strip_point(u0, v0), strip_point(u1, v1), Q)

    @staticmethod
    def dense_violation(pa, qa, Q, n_samples=2001):
        """Worst constraint violation along the segment, by brute sampling."""
        ts = np.linspace(0.0, 1.0, n_samples)[:, None]
        pts = pa[None, :] + ts * (qa - pa)[None, :]
        X, Y, x, y, u, v = (pts[:, i] for i in range(6))
        viol = np.max([
            np.max(x * x - X * v),
            np.max(y * y - Y * u),
            np.max(u * v - Q),
            np.max(1.0 - u * v),
        ])
        return float(viol)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_sampling(self, seed):
        rng = np.random.default_rng(seed)
        Q = 6.0
        P = sample_omega(Q, 2, rng)
        p = BellmanPoint.from_array(P[0])
        q = BellmanPoint.from_array(P[1])
        tol = 1e-9
        closed = segment_in_domain(p, q, Q, tol=tol)
        dense = self.dense_violation(P[0], P[1], Q)
        # sampling resolves the quadratic vertex up to curvature * (dt/2)^2;
        # skip cases inside that band instead of misreporting them
        band = 1e-6 * (1.0 + float(np.max(np.abs(P))) ** 2)
        if abs(dense - tol) > band:
            assert closed == (dense <= tol)


class TestSampling:
    def test_members(self):
        rng = np.random.default_rng(1)
        P = sample_omega(8.0, 5000, rng)
        for row in P:
            assert in_domain(BellmanPoint.from_array(row), 8.0, tol=1e-9)

    def test_members_at_q_one(self):
        # at Q = 1 some u admit no double v with fl(u v) = 1
        for seed in range(20):
            P = sample_omega(1.0, 1000, np.random.default_rng(seed))
            assert np.all(in_domain_arr(P, 1.0, 0.0))

    @pytest.mark.parametrize("Q", [1.5, 4.0, 50.0])
    def test_unchanged_above_q_one(self, Q):
        # rows that need no mending are drawn as before, from the same
        # stream: 20 seeds' draws and the stream position after, as pinned
        assert_pinned(campaign_outputs, entry("bellman.sample_omega", "above Q = 1", Q=Q, n=1000))

    @pytest.mark.parametrize("Q", [0.5, float("nan")])
    def test_rejects_no_domain(self, Q):
        with pytest.raises(DomainError):
            sample_omega(Q, 10, np.random.default_rng(0))

    def test_boundary_coverage(self):
        rng = np.random.default_rng(2)
        P = sample_omega(8.0, 5000, rng)
        X, Y, x, y, u, v = (P[:, i] for i in range(6))
        on_cap = np.isclose(x * x, X * v, rtol=1e-9)
        assert np.mean(on_cap) > 0.05


class TestTriangleLemma:
    def test_campaign_small(self):
        rep = run_triangle_campaign(Q=4.0, valid_trials=2000, seed=0)
        assert rep.violations == 0
        assert rep.max_needed_k <= 4.5
        assert rep.trials_valid == 2000

    def test_campaign_json_schema(self):
        rep = run_triangle_campaign(Q=2.0, valid_trials=500, seed=1)
        j = rep.to_json()
        for key in ("lemma", "trials", "vacuous", "max_needed_k",
                    "worst_case_point", "violations"):
            assert key in j
        assert "min_k_holding" not in j

    def test_campaign_json_accept_ratio(self):
        rep = run_triangle_campaign(Q=2.0, valid_trials=500, seed=1)
        j = rep.to_json()
        assert j["accept_ratio"] == rep.trials_valid / rep.trials_total
        empty = CampaignReport(
            lemma="triangle", trials_valid=0, trials_total=0, violations=0,
            max_needed_k=1.0, asserted_k=4.5, worst_case_point=None)
        assert empty.to_json()["accept_ratio"] == 0.0

    def test_campaign_json_max_needed_k(self):
        rep = run_triangle_campaign(Q=2.0, valid_trials=500, seed=1)
        assert rep.to_json()["max_needed_k"] == rep.max_needed_k


class TestBarycenterLemma:
    def test_campaign_small(self):
        rep = run_barycenter_campaign(Q=4.0, valid_trials=2000, seed=0)
        assert rep.violations == 0
        assert rep.max_needed_k <= 40.0


class TestCampaignRobustness:
    @pytest.mark.parametrize("runner", [run_triangle_campaign, run_barycenter_campaign])
    @pytest.mark.parametrize("Q", [0.5, 1.0])
    def test_no_valid_draw_raises(self, runner, Q, time_limit):
        # Q < 1 is no domain; at Q = 1 no premise can hold
        with time_limit(5.0):
            with pytest.raises(DomainError):
                runner(Q=Q, valid_trials=10, seed=0)

    def test_member_end_point_on_cap(self):
        # a barycenter-campaign draw (Q = 50, seed 603764293) whose end point
        # lies exactly on the x cap: x^2 - X v is 0 there, but the segment
        # quadratic summed to t = 1 gave ~1e-12 and failed the segment
        P = BellmanPoint(21.82531333320576, 10.278697361221674, 17.20650599530855,
                         -0.20572765301821316, 2.974380833136564, 16.03971511031972)
        end = BellmanPoint(76.65309110727966, 35.61662128504723, 65.16956210327164,
                           -0.115495577808272, 0.7819158059164839, 55.40639996876576)
        assert end.x * end.x - end.X * end.v == 0.0
        assert in_domain(P, 50.0) and in_domain(end, 50.0)
        assert segment_in_domain(P, end, np.inf, tol=1e-12)

    @pytest.mark.parametrize("seed", [137677007, 603764293])
    def test_barycenter_cap_draws_no_violation(self, seed):
        rep = run_barycenter_campaign(Q=50.0, valid_trials=50_000, seed=seed)
        assert rep.violations == 0
        assert np.isfinite(rep.max_needed_k)

    @pytest.mark.parametrize("runner", [run_triangle_campaign, run_barycenter_campaign])
    def test_negative_seed_raises(self, runner):
        with pytest.raises(DomainError, match="campaign seed must be >= 0"):
            runner(Q=1.5, valid_trials=10, seed=-1)

    @pytest.mark.parametrize("runner", [run_triangle_campaign, run_barycenter_campaign])
    def test_q_above_the_cap_raises(self, runner, monkeypatch):
        # at Q = 1e308 the segment products overflow; the campaign is
        # refused before it sets anything up
        self.refuse_set_up(monkeypatch)
        with pytest.raises(DomainError, match="exceeds the cap 1e\\+300"):
            runner(Q=1e308, valid_trials=10, seed=0)

    @pytest.mark.parametrize("runner", [run_triangle_campaign, run_barycenter_campaign])
    def test_q_at_the_cap_runs_without_overflow(self, runner):
        # a RuntimeWarning from a dyadlab module fails the test
        rep = runner(Q=bellman.MAX_CAMPAIGN_Q, valid_trials=200, seed=0)
        assert rep.trials_valid == 200 and np.isfinite(rep.max_needed_k)

    @pytest.mark.parametrize("runner", [run_triangle_campaign, run_barycenter_campaign])
    @pytest.mark.parametrize("trials", [0, -5])
    def test_needs_a_trial(self, runner, trials):
        with pytest.raises(DomainError):
            runner(Q=2.0, valid_trials=trials, seed=0)

    @staticmethod
    def refuse_set_up(monkeypatch):
        # a refused campaign must not draw anything (a barycenter draw
        # allocates its buffer first)
        def draw(*args):
            raise AssertionError("a refused campaign drew")
        for name in ("_triangle_sampler", "_barycenter_sampler"):
            monkeypatch.setattr(bellman, name, draw)

    @pytest.mark.parametrize("runner", [run_triangle_campaign, run_barycenter_campaign])
    @pytest.mark.parametrize("batch", [0, -5])
    def test_bad_batch_raises(self, runner, batch, monkeypatch):
        self.refuse_set_up(monkeypatch)
        with pytest.raises(DomainError, match=f"^campaign batch must be >= 1, got {batch}$"):
            runner(Q=1.5, valid_trials=10, seed=0, batch=batch)

    def test_draws_counted_up_to_last_taken(self):
        # about one draw in ten is valid, so ten valid trials need about a
        # hundred draws, not the whole 40000-draw batch
        rep = run_triangle_campaign(Q=1.5, valid_trials=10, seed=0)
        js = rep.to_json()
        assert js["trials"] == 10
        assert js["vacuous"] < 1000
        assert js["trials_total"] == js["trials"] + js["vacuous"]


class TestDpEstimator:
    BASE = BellmanPoint(1.0, 1.0, 0.0, 0.0, 1.0, 1.0)

    def test_depth_zero(self):
        rng = np.random.default_rng(3)
        for row in sample_omega(4.0, 20, rng):
            assert DpEstimator(4.0, 4, 0).estimate(BellmanPoint.from_array(row), 0) == 0.0

    def test_analytic_depth_one(self):
        assert DpEstimator(2.0, 4, 0).estimate(self.BASE, 1) == pytest.approx(1.0)

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(4)
        est = DpEstimator(Q=4.0, samples=4, seed=0)
        for row in sample_omega(4.0, 10, rng):
            p = BellmanPoint.from_array(row)
            vals = [est.estimate(p, d) for d in range(5)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_samples(self):
        rng = np.random.default_rng(5)
        for row in sample_omega(4.0, 5, rng):
            p = BellmanPoint.from_array(row)
            vals = [DpEstimator(Q=4.0, samples=s, seed=0).estimate(p, 3)
                    for s in (2, 4, 8)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_swap_symmetry(self):
        rng = np.random.default_rng(6)
        for row in sample_omega(4.0, 8, rng):
            p = BellmanPoint.from_array(row)
            a = DpEstimator(4.0, 4, 0).estimate(p, 3)
            b = DpEstimator(4.0, 4, 0).estimate(p.swapped(), 3)
            assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_outsider(self):
        with pytest.raises(DomainError):
            DpEstimator(2.0, 4, 0).estimate(BellmanPoint(1, 1, 5, 0, 1, 1), 2)

    def test_rejects_negative_samples(self):
        with pytest.raises(DomainError):
            DpEstimator(Q=2.0, samples=-1)

    def test_b1_ratio_finite(self):
        rng = np.random.default_rng(7)
        est = DpEstimator(Q=4.0, samples=4, seed=0)
        for row in sample_omega(4.0, 5, rng):
            r = est.b1_ratio(BellmanPoint.from_array(row), 4)
            assert np.isfinite(r) and r >= 0.0

    def test_huge_member_has_finite_estimate(self):
        # gx * gy overflows here; the game value is sqrt(gx) * sqrt(gy) = 1e300
        p = BellmanPoint(1e300, 1e300, 0.0, 0.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = DpEstimator(Q=4.0, samples=4).estimate(p, 3)
        assert 0.99e300 <= value < np.inf

    def test_reused_estimator_gives_the_fresh_value(self):
        # both X round to inf under the rng's 10-decimal key, yet each point
        # keeps its own memo entry
        est = DpEstimator(Q=4.0, samples=4, seed=0)
        est.estimate(BellmanPoint(1e300, 1e300, 0.0, 0.0, 1.0, 1.0), 3)
        p = BellmanPoint(4e300, 1e300, 0.0, 0.0, 1.0, 1.0)
        fresh = DpEstimator(Q=4.0, samples=4, seed=0).estimate(p, 3)
        assert fresh > 2e300
        assert est.estimate(p, 3) == fresh
        assert len(est.memo) == 2

    def test_rejects_infinite_point(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="point outside the domain"):
                DpEstimator(Q=4.0, samples=4).estimate(BellmanPoint(np.inf, 1, 0, 0, 1, 1), 3)

    def test_node_rng_stream_is_pinned(self):
        # the node seed hashes repr of numpy scalars, which numpy >= 2 writes
        # as np.float64(1.0) and numpy 1.x as 1.0; this pins the numpy 2 stream
        for arr, swapped in (([1.0, 2.0, 0.5, -0.25, 1.5, 1.0], False),
                             ([2.0, 1.0, -0.25, 0.5, 1.0, 1.5], True)):
            rng, flag = bellman._node_rng(np.array(arr), 7)
            assert (flag, rng.standard_normal()) == (swapped, 1.637885524959176)


class TestPointFromData:
    def test_trivial(self):
        w = Weight.from_values([1.0] * 4)
        one = LeafFunction.constant(2, 1.0)
        point, local = point_from_data(one, one, w, ROOT)
        assert point == BellmanPoint(1, 1, 1, 1, 1, 1)
        assert local == 0.0

    def test_always_in_domain(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            depth = int(rng.integers(1, 7))
            w = gen_cascade(depth, 0.8, int(rng.integers(10**6)))
            q = a2_characteristic(w).characteristic
            phi = LeafFunction(rng.standard_normal(1 << depth))
            psi = LeafFunction(rng.standard_normal(1 << depth))
            lev = int(rng.integers(0, depth + 1))
            J = DyadicIndex(lev, int(rng.integers(0, 1 << lev)))
            point, _ = point_from_data(phi, psi, w, J)
            assert in_domain(point, q, tol=1e-9 * max(point.X, point.Y, 1.0))

    def test_depth_mismatch_raises(self):
        phi = LeafFunction.constant(1, 1.0)
        psi = LeafFunction.constant(2, 1.0)
        with pytest.raises(StructureError):
            point_from_data(phi, psi, Weight.from_values([1.0] * 4), ROOT)

