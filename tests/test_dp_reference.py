"""DpEstimator against the memoized depth recursion it replaced."""
from typing import Dict

import numpy as np
import pytest

from dyadlab.bellman import (
    _LOG_STEP,
    _XY_FRACS,
    _XY_STEP,
    BellmanPoint,
    DpEstimator,
    _key,
    _member,
    _node_rng,
    _snap,
    in_domain,
    sample_omega,
)
from dyadlab.tree import DomainError

GAIN_FACTOR = 1.0  # the reference's gain factor, as it was in bellman


class RecursiveDp:
    """The memoized depth recursion, kept verbatim as the reference, with
    the scalar snapping and x/y game value it was checked with."""

    def __init__(self, Q: float, samples: int = 6, seed: int = 0):
        if Q < 1.0:
            raise DomainError("domain parameter must be >= 1")
        self.Q = Q
        self.samples = samples
        self.seed = seed
        self.memo: Dict[tuple, float] = {}

    @staticmethod
    def _snap(arr: np.ndarray, Q: float) -> np.ndarray:
        """Quantize a member point onto the grid of child points, staying inside."""
        X, Y, x, y, u, v = arr
        X = np.exp(round(np.log(X) / _LOG_STEP) * _LOG_STEP)
        Y = np.exp(round(np.log(Y) / _LOG_STEP) * _LOG_STEP)
        u = np.exp(round(np.log(u) / _LOG_STEP) * _LOG_STEP)
        v = np.exp(round(np.log(v) / _LOG_STEP) * _LOG_STEP)
        P = u * v
        if P > Q:
            f = np.sqrt(Q / P) * (1.0 - 1e-14)
            u *= f
            v *= f
        elif P < 1.0:
            f = np.sqrt(1.0 / P) * (1.0 + 1e-14)
            u *= f
            v *= f
        cx = np.sqrt(X * v)
        cy = np.sqrt(Y * u)
        x = np.clip(round((x / cx) / _XY_STEP) * _XY_STEP, -1.0, 1.0) * cx
        y = np.clip(round((y / cy) / _XY_STEP) * _XY_STEP, -1.0, 1.0) * cy
        return np.array([X, Y, x, y, u, v])

    @staticmethod
    def _xy_game_value(arr: np.ndarray) -> float:
        """Exact value of the x,y-only split game at fixed (X, Y, u, v)."""
        X, Y, x, y, u, v = arr
        return float(np.sqrt(max(X * v - x * x, 0.0) * max(Y * u - y * y, 0.0)))

    def estimate(self, p: BellmanPoint, depth: int) -> float:
        if not in_domain(p, self.Q):
            raise DomainError("point outside the domain")
        if depth < 0:
            raise DomainError("depth must be >= 0")
        return self._rec(p.as_array(), depth, root=True)

    def _rec(self, arr: np.ndarray, d: int, root: bool = False) -> float:
        if d == 0:
            return 0.0
        key = (_key(arr), d, root)
        if key in self.memo:
            return self.memo[key]
        # null split keeps the point; it makes the estimate monotone in depth
        best = self._rec(arr, d - 1, root=root) if d > 1 else 0.0
        if d >= 2:
            # exact x/y-only tail value; it dominates every one-step x/y
            # split followed by further x/y play, so those are only searched
            # explicitly where a genuine one-step value is needed
            best = max(best, self._xy_game_value(arr))
        if root or d == 1:
            X, Y, x, y, u, v = arr
            cx = np.sqrt(X * v)
            cy = np.sqrt(Y * u)
            tmax = cx - abs(x)
            smax = cy - abs(y)
            eq = min(tmax, smax)
            for fr in _XY_FRACS:
                # proportional moves plus equal-increment moves in both sign
                # patterns (|dx||dy| = (dx^2 + dy^2)/2 when |dx| = |dy|)
                for t, s in ((fr * tmax, fr * smax),
                             (fr * eq, fr * eq),
                             (fr * eq, -fr * eq)):
                    if t == 0.0 or s == 0.0:
                        continue
                    plus = arr.copy()
                    minus = arr.copy()
                    plus[2] += t
                    plus[3] += s
                    minus[2] -= t
                    minus[3] -= s
                    sp = self._snap(plus, self.Q)
                    sm = self._snap(minus, self.Q)
                    val = 0.5 * (
                        self._rec(sp, d - 1) + self._rec(sm, d - 1)
                    ) + GAIN_FACTOR * abs(t) * abs(s)
                    best = max(best, val)
        if root:
            rng, swap = self._directions(arr)
            for delta in rng:
                if swap:
                    delta = delta[[1, 0, 3, 2, 5, 4]]
                val = self._try_direction(arr, delta, d)
                if val is not None:
                    best = max(best, val)
        self.memo[key] = best
        return best

    def _directions(self, arr: np.ndarray):
        rng, swapped = _node_rng(arr, self.seed)
        base = arr if not swapped else arr[[1, 0, 3, 2, 5, 4]]
        X, Y, x, y, u, v = base
        scales = np.array([0.3 * X, 0.3 * Y, 0.5 * np.sqrt(X * v),
                           0.5 * np.sqrt(Y * u), 0.2 * u, 0.2 * v])
        dirs = rng.standard_normal((self.samples, 6)) * scales[None, :]
        return list(dirs), swapped

    def _try_direction(self, arr: np.ndarray, delta: np.ndarray, d: int):
        parent = _key(arr)
        for _ in range(8):
            plus = arr + delta
            minus = arr - delta
            if _member(plus, self.Q, 0.0) and _member(minus, self.Q, 0.0):
                sp = self._snap(plus, self.Q)
                sm = self._snap(minus, self.Q)
                if _key(sp) == parent and _key(sm) == parent:
                    return None
                gain = GAIN_FACTOR * abs(delta[2]) * abs(delta[3])
                return 0.5 * (self._rec(sp, d - 1) + self._rec(sm, d - 1)) + gain
            delta = delta / 2.0
        return None


def reference_estimate(p: BellmanPoint, Q: float, depth: int, samples: int, seed: int) -> float:
    return RecursiveDp(Q=Q, samples=samples, seed=seed).estimate(p, depth)


DEPTHS = range(13)


def members(Q, n, seed):
    rows = sample_omega(Q, n, np.random.default_rng(seed))
    points = [BellmanPoint.from_array(r) for r in rows]
    assert all(in_domain(p, Q) for p in points)
    return points


@pytest.mark.parametrize("Q", [1.0, 1.5, 4.0, 20.0, 100.0])
def test_bit_identical_to_recursion(Q):
    # 3 sample counts x 26 points x 13 depths = 1014 cases per Q, each
    # valued by a shared and a fresh estimator against a shared reference
    # that is queried in increasing depth, as the recursion memoizes
    cases = 0
    for samples in (1, 4, 8):
        ref = RecursiveDp(Q=Q, samples=samples, seed=3)
        est = DpEstimator(Q=Q, samples=samples, seed=3)
        for p in members(Q, 26, seed=int(10 * Q) + samples):
            for d in DEPTHS:
                want = ref.estimate(p, d)
                assert est.estimate(p, d) == want, (Q, samples, p, d)
                assert DpEstimator(Q=Q, samples=samples, seed=3).estimate(p, d) == want
                cases += 1
    assert cases == 1014


@pytest.mark.parametrize("Q", [1.0, 4.0, 100.0])
def test_fresh_reference_at_each_depth(Q):
    for p in members(Q, 4, seed=50):
        for d in (1, 2, 3, 5, 8, 12):
            got = DpEstimator(Q=Q, samples=4, seed=0).estimate(p, d)
            assert got == reference_estimate(p, Q, d, 4, 0)


def test_depth_eight_stores_one_estimate():
    est = DpEstimator(Q=4.0, samples=6, seed=0)
    p = members(4.0, 1, seed=8)[0]
    est.estimate(p, 8)
    assert len(est.memo) == 1
    est.estimate(p, 12)
    assert len(est.memo) == 1
    est.estimate(p, 0)
    assert len(est.memo) == 1
    est.estimate(p, 2)
    assert len(est.memo) == 2


def test_same_at_every_depth_from_three():
    est = DpEstimator(Q=20.0, samples=4, seed=1)
    for p in members(20.0, 10, seed=9):
        assert len({est.estimate(p, d) for d in range(3, 13)}) == 1


@pytest.mark.parametrize("Q", [1.0, 1.5, 4.0, 20.0, 100.0])
def test_array_snap_matches_scalar_copy(Q):
    n = 10_000
    rng = np.random.default_rng(int(10 * Q) + 1)
    pts = sample_omega(Q, n, rng).T.copy()
    # shift u and v by up to a grid step and scale x and y by 0.5-1.5, so
    # that grid uv lands both above Q and below 1, and x and y clip at +-1
    pts[4:6] *= np.exp(rng.uniform(-_LOG_STEP, _LOG_STEP, (2, n)))
    pts[2:4] *= rng.uniform(0.5, 1.5, (2, n))
    got = _snap(pts, Q)
    want = np.array([RecursiveDp._snap(col, Q) for col in pts.T]).T
    assert np.flatnonzero((got.view(np.uint64) != want.view(np.uint64)).any(axis=0)).tolist() == []
    grid_uv = np.exp(np.rint(np.log(pts[4:6]) / _LOG_STEP) * _LOG_STEP).prod(axis=0)
    assert (grid_uv > Q).any() and (grid_uv < 1.0).any()
    ratio = pts[2:4] / np.sqrt(got[[0, 1]] * got[[5, 4]])
    assert (ratio > 1.0 + _XY_STEP / 2).any(axis=1).all()
    assert (ratio < -1.0 - _XY_STEP / 2).any(axis=1).all()


def never_fits(arr, delta, Q):
    """No halving of delta puts both children of arr in the domain."""
    return not any(_member(arr + delta / 2.0 ** k, Q, 0.0)
                   and _member(arr - delta / 2.0 ** k, Q, 0.0) for k in range(8))


def grid_points_under_cap(n, seed):
    """(Q, point) pairs: snapped points, so on the grid, with Q just above
    uv.  Directions there fit only at late halvings, when both children
    often snap back onto the point."""
    rng = np.random.default_rng(seed)
    out = []
    for Q0 in (1.5, 4.0, 20.0):
        for row in _snap(sample_omega(Q0, n, rng).T, Q0).T:
            out.append((float(row[4] * row[5] * (1.0 + 10 ** rng.uniform(-4, -1))),
                        BellmanPoint.from_array(row)))
    return out


# uv = Q: a direction with du dv > 0 raises the children's mean uv above Q
ON_UV_CAP = BellmanPoint(1.0, 1.0, 0.5, 0.5, 2.0, 2.0)

EDGE_CASES = (
    # no directions at all
    [(Q, 0, p) for Q in (1.0, 4.0, 20.0) for p in members(Q, 3, seed=70)]
    # every grid move is zero: x, y sit on their caps
    + [(Q, s, BellmanPoint(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)) for Q in (1.0, 4.0) for s in (0, 6)]
    # Q = 1: uv = 1 at every member
    + [(1.0, 6, p) for p in members(1.0, 3, seed=71)]
    + [(4.0, 8, ON_UV_CAP)]
    # both children of a direction snap back onto the point
    + [(Q, 8, p) for Q, p in grid_points_under_cap(3, seed=72)]
)


@pytest.mark.parametrize("Q, samples, p", EDGE_CASES)
def test_edge_case_matches_recursion(Q, samples, p):
    ref = RecursiveDp(Q=Q, samples=samples, seed=2)
    for d in range(6):
        assert DpEstimator(Q=Q, samples=samples, seed=2).estimate(p, d) == ref.estimate(p, d)


def test_edge_cases_reach_every_skip_rule():
    arr = ON_UV_CAP.as_array()
    assert any(never_fits(arr, delta, 4.0)
               for delta in DpEstimator(Q=4.0, samples=8, seed=2)._directions(arr))
    # a direction that fits but gives no split: both children snap back
    home = 0
    for Q, p in grid_points_under_cap(3, seed=72):
        arr = p.as_array()
        ref = RecursiveDp(Q=Q, samples=8, seed=2)
        home += sum(not never_fits(arr, delta, Q) and ref._try_direction(arr, delta, 1) is None
                    for delta in DpEstimator(Q=Q, samples=8, seed=2)._directions(arr))
    assert home > 0


# Members near the float range: a child's snapped cap sqrt(X v) or sqrt(Y u)
# overflows and its x or y is nan.  The recursion above raises on them (it
# rounds the nan), so these values, from the scalar closed form that the
# array pass replaced, pin that a child's nan grid gain counts as 0.
NEAR_OVERFLOW = [
    ((1.0255518530536323e+308, 1.2109947090937305, 1.0459562078615785e+154,
      -0.4255433345512157, 1.3930057219142336, 1.1181335252212548),
     (6.0305038775897224e+153, 7.198750881897916e+153, 8.462403945436255e+153)),
    ((1.6048900375756627, 5.714846362046858e+307, 0.42947329974757065,
      -8.237774281752449e+153, 1.9756941697378065, 1.049028863023579),
     (5.167490739825823e+153, 8.230110884765437e+153, 1.0086137731422096e+154)),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow and its nan warn
@pytest.mark.parametrize("coords, values", NEAR_OVERFLOW)
def test_children_with_nan_coordinates_keep_their_values(coords, values):
    p = BellmanPoint(*coords)
    assert [DpEstimator(Q=4.0, samples=4, seed=2).estimate(p, d) for d in (1, 2, 3)] == list(values)
