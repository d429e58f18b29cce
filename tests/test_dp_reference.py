"""DpEstimator against the memoized depth recursion it replaced."""
from typing import Dict

import numpy as np
import pytest

from dyadlab.bellman import (
    _XY_FRACS,
    BellmanPoint,
    DpEstimator,
    _key,
    _member,
    _node_rng,
    _snap,
    _xy_game_value,
    in_domain,
    sample_omega,
)
from dyadlab.tree import DomainError

GAIN_FACTOR = 1.0  # the reference's gain factor, as it was in bellman


class RecursiveDp:
    """The memoized depth recursion, kept verbatim as the reference."""

    def __init__(self, Q: float, samples: int = 6, seed: int = 0):
        if Q < 1.0:
            raise DomainError("domain parameter must be >= 1")
        self.Q = Q
        self.samples = samples
        self.seed = seed
        self.memo: Dict[tuple, float] = {}

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
            best = max(best, _xy_game_value(arr))
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
                    sp = _snap(plus, self.Q)
                    sm = _snap(minus, self.Q)
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
                sp = _snap(plus, self.Q)
                sm = _snap(minus, self.Q)
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
