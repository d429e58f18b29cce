"""Domain geometry and dynamic programming for the six-variable value function.

The domain Omega_Q collects 6-tuples (X, Y, x, y, u, v) of positive numbers
with x^2 <= X v, y^2 <= Y u and 1 <= u v <= Q.  This module provides:

* exact membership and closed-form segment containment (every constraint is
  a quadratic along a segment, so no sampling is needed);
* randomized verification campaigns for the two convexity-repair lemmas
  (triangle/median and barycenter);
* a depth-limited dynamic-programming lower estimate of the value function,
  with gain |dx||dy| per node split: the best split at the query point, its
  children valued in closed form (the best grid split and the exactly solved
  x/y-only split game), so every depth >= 3 gives the same estimate;
* extraction of domain points from concrete dyadic data, together with the
  localized key sum they witness.

Point arrays at the API are (n, 6), one point per row.  The campaigns keep
their points coordinate-major, as (6, n) C-contiguous arrays whose rows
are the six coordinates: every formula here works one coordinate at a
time, and contiguous rows make those elementwise passes cheaper.
sample_omega fills one (6, n) buffer and returns its (n, 6) `.T` view; the
campaigns pass `.T` views of their (6, n) arrays to the (n, 6) functions,
which take `.T` again, so no copy is made either way.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .embedding import _key_terms
from .tree import (
    DomainError,
    DyadicIndex,
    LeafFunction,
    StructureError,
    _heap_diffs,
    _subtree_sum,
    heap_averages,
)
from .weights import Weight, a2_characteristic

# Gain per node is GAIN_FACTOR * |x_+ - x_-| * |y_+ - y_-| / 4.  The factor
# is calibrated against concrete dyadic data (see calibrate_gain) and kept
# at one named constant.
GAIN_FACTOR = 1.0

_XY_FRACS = (0.25, 0.5, 0.75, 1.0)
_XY_STEP = 0.125  # quantization of x, y as fractions of their caps
_LOG_STEP = 0.25  # quantization of log X, log Y, log u, log v

DEFAULT_K_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 6.0, 9.0, 20.0, 40.0)


@dataclass(frozen=True)
class BellmanPoint:
    X: float
    Y: float
    x: float
    y: float
    u: float
    v: float

    def as_array(self) -> np.ndarray:
        return np.array([self.X, self.Y, self.x, self.y, self.u, self.v])

    @classmethod
    def from_array(cls, arr) -> "BellmanPoint":
        return cls(*[float(t) for t in arr])

    def swapped(self) -> "BellmanPoint":
        """The (X, x, v) <-> (Y, y, u) symmetry of the domain."""
        return BellmanPoint(X=self.Y, Y=self.X, x=self.y, y=self.x, u=self.v, v=self.u)


def _check_q(Q: float, finite: bool = False) -> None:
    """Refuse Q < 1 or nan, and inf too when finite (membership takes inf as no cap)."""
    if not (1.0 <= Q < np.inf if finite else Q >= 1.0):  # both false for nan
        raise DomainError(
            f"domain parameter must be {'finite and ' if finite else ''}>= 1, got {Q}")


@dataclass(frozen=True)
class OmegaDomain:
    Q: float

    def __post_init__(self):
        _check_q(self.Q)

    def contains(self, p: BellmanPoint, tol: float = 0.0) -> bool:
        return in_domain(p, self.Q, tol)


def _member(c, Q: float, tol: float):
    """Membership of the coordinates c = (X, Y, x, y, u, v) in Omega_Q; each
    coordinate is a float or an array, and so is the result."""
    X, Y, x, y, u, v = c
    uv = u * v
    return (
        (X > 0.0) & (Y > 0.0) & (u > 0.0) & (v > 0.0)
        & (x * x <= X * v + tol)
        & (y * y <= Y * u + tol)
        & (uv >= 1.0 - tol)
        & (uv <= Q + tol)
    )


def in_domain(p: BellmanPoint, Q: float, tol: float = 0.0) -> bool:
    _check_q(Q)
    return bool(_member((p.X, p.Y, p.x, p.y, p.u, p.v), Q, tol))


def in_domain_arr(P: np.ndarray, Q: float, tol: float = 0.0):
    return _member(P.T, Q, tol)


def _quad_max_01(g0, g1, g2, g_end):
    """Max of g(t) = g0 + g1 t + g2 t^2 over t in [0, 1], elementwise, where
    g_end = g(1) as computed from the segment's end point itself."""
    best = np.maximum(g0, g_end)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(g2 < 0.0, -g1 / (2.0 * g2), -1.0)
    interior = (t > 0.0) & (t < 1.0)
    vertex = g0 + g1 * t + g2 * t * t
    return np.where(interior & (g2 < 0.0), np.maximum(best, vertex), best)


def _segment_checks(p: np.ndarray, q: np.ndarray, tol: float):
    """Closed-form checks along the segments p + t(q - p), t in [0, 1], for
    coordinate arrays of shape (6,) or (6, n).

    Returns (caps_ok, max_uv): whether every constraint but uv <= Q holds
    within tol all along, and the max of u(t) v(t).  Each constraint is a
    quadratic g(t) (violation iff g > 0); positivity of X, Y, u, v is linear,
    so the endpoints decide it.  g(0) and g(1) come from the end points' own
    coordinates, as in membership: the sum g0 + g1 + g2 can miss g(1) by more
    than tol where the terms are large.
    """
    X, Y, x, y, u, v = p
    qX, qY, qx, qy, qu, qv = q
    dX, dY, dx, dy, du, dv = q - p
    pos = np.all((p[[0, 1, 4, 5]] > 0.0) & (q[[0, 1, 4, 5]] > 0.0), axis=0)
    # x(t)^2 - X(t) v(t) and y(t)^2 - Y(t) u(t)
    cap_x = _quad_max_01(x * x - X * v, 2 * x * dx - (X * dv + v * dX), dx * dx - dX * dv,
                         qx * qx - qX * qv)
    cap_y = _quad_max_01(y * y - Y * u, 2 * y * dy - (Y * du + u * dY), dy * dy - dY * du,
                         qy * qy - qY * qu)
    # u(t) v(t)
    g0, g1, g2, g_end = u * v, u * dv + v * du, du * dv, qu * qv
    caps_ok = (pos & (cap_x <= tol) & (cap_y <= tol)
               & (_quad_max_01(1.0 - g0, -g1, -g2, 1.0 - g_end) <= tol))
    return caps_ok, _quad_max_01(g0, g1, g2, g_end)


def segment_in_domain(p: BellmanPoint, q: BellmanPoint, Q: float, tol: float = 0.0) -> bool:
    """Closed-form check that the whole segment [p, q] lies in Omega_Q."""
    _check_q(Q)
    caps_ok, max_uv = _segment_checks(p.as_array(), q.as_array(), tol)
    return bool(caps_ok & (max_uv <= Q + tol))


def segment_max_uv(p: BellmanPoint, q: BellmanPoint) -> float:
    """Max of u(t) v(t) along the segment (closed form)."""
    return float(_segment_checks(p.as_array(), q.as_array(), 0.0)[1])


def segments_in_domain_arr(P: np.ndarray, R: np.ndarray, Q: float, tol: float = 0.0):
    """Vectorized segment containment for (n, 6) endpoint arrays."""
    caps_ok, max_uv = _segment_checks(P.T, R.T, tol)
    return caps_ok & (max_uv <= Q + tol)


def segments_max_uv_arr(P: np.ndarray, R: np.ndarray):
    return _segment_checks(P.T, R.T, 0.0)[1]


def segments_caps_ok_arr(P: np.ndarray, R: np.ndarray, tol: float = 0.0):
    """The Q-independent constraints along the segments (caps, uv >= 1, positivity)."""
    return _segment_checks(P.T, R.T, tol)[0]


# -- sampling -------------------------------------------------------------


def _uniform(U: np.ndarray, low: float, high: float) -> np.ndarray:
    """A row of rng.random values mapped onto [low, high) by the same
    low + (high - low) * U that Generator.uniform applies to the same draws."""
    return low + (high - low) * U


def _strip_rows(Q: float) -> int:
    """Uniform rows a strip draw uses: log uv (none at Q = 1) and the split."""
    return 2 if Q > 1 else 1


def _strip(U: np.ndarray, Q: float, log_spread: float):
    """(u, v) in the hyperbolic strip 1 <= uv <= Q from _strip_rows(Q) rows
    of uniform draws: uv log-uniform in [1, Q], split log-uniformly."""
    P = np.exp(_uniform(U[0], 0.0, np.log(Q))) if Q > 1 else np.ones(U.shape[1])
    h = _uniform(U[-1], -log_spread, log_spread)
    u = np.sqrt(P) * np.exp(h)
    return u, P / u


def _sample_strip(Q: float, n: int, rng, log_spread: float = np.log(10.0)):
    """(u, v) pairs in the hyperbolic strip 1 <= uv <= Q."""
    return _strip(rng.random((_strip_rows(Q), n)), Q, log_spread)


def sample_omega(Q: float, n: int, rng, boundary_prob: float = 0.1,
                 log_spread: float = np.log(10.0)) -> np.ndarray:
    """Random members of Omega_Q with full boundary coverage, as an (n, 6) array.

    uv is log-uniform in [1, Q] and split log-uniformly; x and y are drawn as
    signed fractions of their caps, with a boundary_prob chance of sitting
    exactly on the cap.

    The points are stored coordinate-major: the result is the (n, 6)
    transposed view of one C-contiguous (6, n) buffer, so callers that work
    per coordinate take `.T` and get contiguous rows without a copy.  All
    randomness is one rng.random((k, n)) block, k = 10 (9 at Q = 1, where
    uv = 1 needs no draw).  Generator.uniform(low, high) maps each
    rng.random draw by low + (high - low) * U, and a block fills its rows
    one after the other, so each row, mapped that way, equals the
    corresponding call of n uniform draws, and the stream and every value
    are those of one uniform call per coordinate and per coin.
    """
    _check_q(Q, finite=True)
    r = _strip_rows(Q)
    U = rng.random((r + 8, n))
    out = np.empty((6, n))
    X, Y, x, y, u, v = out  # row views
    out[4:] = _strip(U[:r], Q, log_spread)
    np.exp(_uniform(U[r], np.log(1e-2), np.log(1e2)), out=X)
    np.exp(_uniform(U[r + 1], np.log(1e-2), np.log(1e2)), out=Y)
    # cap fractions U[r + 2], U[r + 3]; exactly on the cap with boundary_prob
    fx = np.where(U[r + 4] < boundary_prob, 1.0, U[r + 2])
    fy = np.where(U[r + 5] < boundary_prob, 1.0, U[r + 3])
    sx = np.where(U[r + 6] < 0.5, -1.0, 1.0)
    sy = np.where(U[r + 7] < 0.5, -1.0, 1.0)
    np.multiply(sx * fx, np.sqrt(X * v), out=x)
    np.multiply(sy * fy, np.sqrt(Y * u), out=y)
    # exact-cap draws can land an ulp outside under exact comparisons; nudge
    # in, stopping at the first pass that changes nothing (a no-op pass
    # leaves every later pass a no-op too)
    for _ in range(4):
        fix_x = x * x > X * v
        fix_y = y * y > Y * u
        uv = u * v
        high = uv > Q
        low = uv < 1.0
        if not (fix_x.any() or fix_y.any() or high.any() or low.any()):
            break
        np.multiply(x, 1.0 - 4e-16, out=x, where=fix_x)
        np.multiply(y, 1.0 - 4e-16, out=y, where=fix_y)
        for row in (u, v):
            np.multiply(row, 1.0 - 4e-16, out=row, where=high)
            np.multiply(row, 1.0 + 4e-16, out=row, where=low)
    # at Q = 1 some u admit no double v with fl(u v) = 1; only those rows are
    # drawn again, so draws that need no mending consume no extra randomness
    bad = ~_member(out, Q, 0.0)
    if bad.any():
        out[:, bad] = sample_omega(Q, int(bad.sum()), rng, boundary_prob, log_spread).T
    return out.T


def _slack_points(u: np.ndarray, v: np.ndarray, big: float = 1e6) -> np.ndarray:
    """Embed strip points into 6-tuples with slack remaining coordinates,
    as a (6, n) coordinate-major array."""
    out = np.empty((6, u.size))
    out[0] = big
    out[1] = big
    out[2] = 0.0
    out[3] = 0.0
    out[4] = u
    out[5] = v
    return out


# -- lemma checks ---------------------------------------------------------


@dataclass
class LemmaReport:
    lemma: str
    vacuous: bool
    holds_at: Dict[float, bool] = field(default_factory=dict)
    min_k_holding: Optional[float] = None
    needed_k: Optional[float] = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "vacuous": self.vacuous,
            "holds_at": {str(k): bool(b) for k, b in self.holds_at.items()},
            "min_k_holding": self.min_k_holding,
            "needed_k": self.needed_k,
            "detail": self.detail,
        }


def _midpoint(a: BellmanPoint, b: BellmanPoint) -> BellmanPoint:
    return BellmanPoint.from_array((a.as_array() + b.as_array()) / 2.0)


def triangle_lemma_check(A: BellmanPoint, B: BellmanPoint, C: BellmanPoint,
                         Q: float, k_grid=DEFAULT_K_GRID,
                         tol: float = 1e-12) -> LemmaReport:
    """Median-repair lemma: membership of A, B, C, [A,B] and [C, mid(A,B)]
    in Omega_Q forces [C,A] and [C,B] into an enlarged domain."""
    M = _midpoint(A, B)
    premises = (
        in_domain(A, Q, tol) and in_domain(B, Q, tol) and in_domain(C, Q, tol)
        and segment_in_domain(A, B, Q, tol) and segment_in_domain(C, M, Q, tol)
    )
    rep = LemmaReport(lemma="triangle", vacuous=not premises)
    if not premises:
        return rep
    for k in k_grid:
        ok = segment_in_domain(C, A, k * Q, tol) and segment_in_domain(C, B, k * Q, tol)
        rep.holds_at[k] = ok
        if ok and rep.min_k_holding is None:
            rep.min_k_holding = k
    if segment_in_domain(C, A, np.inf, tol) and segment_in_domain(C, B, np.inf, tol):
        rep.needed_k = max(
            1.0, max(segment_max_uv(C, A), segment_max_uv(C, B)) / Q
        )
    return rep


def barycenter_lemma_check(P1, P2, P3, P4, Q: float, k_grid=DEFAULT_K_GRID,
                           tol: float = 1e-12) -> LemmaReport:
    """Barycenter lemma: if the four points and their barycenter are members,
    the four connecting segments lie in the 40-fold enlarged domain."""
    pts = [P1, P2, P3, P4]
    P = BellmanPoint.from_array(np.mean([p.as_array() for p in pts], axis=0))
    premises = in_domain(P, Q, tol) and all(in_domain(p, Q, tol) for p in pts)
    rep = LemmaReport(lemma="barycenter", vacuous=not premises)
    if not premises:
        return rep
    for k in k_grid:
        ok = all(segment_in_domain(P, p, k * Q, tol) for p in pts)
        rep.holds_at[k] = ok
        if ok and rep.min_k_holding is None:
            rep.min_k_holding = k
    if all(segment_in_domain(P, p, np.inf, tol) for p in pts):
        rep.needed_k = max(1.0, max(segment_max_uv(P, p) for p in pts) / Q)
    return rep


@dataclass
class CampaignReport:
    lemma: str
    trials_valid: int
    trials_total: int
    violations: int
    max_needed_k: float
    asserted_k: float
    worst_case_point: Optional[list]

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "trials": self.trials_valid,
            "trials_total": self.trials_total,
            "vacuous": self.trials_total - self.trials_valid,
            "accept_ratio": (self.trials_valid / self.trials_total
                             if self.trials_total else 0.0),
            "violations": self.violations,
            "max_needed_k": self.max_needed_k,
            # the same value under its former, misleading key
            "min_k_holding": self.max_needed_k,
            "asserted_k": self.asserted_k,
            "worst_case_point": self.worst_case_point,
        }


# A campaign gives up after this many consecutive batches without a
# premise-valid draw.  At Q = 1.5 about one triangle draw in ten and one
# barycenter draw in twenty is valid, so a default batch is never empty.
MAX_EMPTY_BATCHES = 10


def _run_campaign(lemma: str, draw, premise, segments, Q: float, valid_trials: int,
                  seed: int, asserted_k: float, tol: float, batch: int) -> CampaignReport:
    """Rejection sampling shared by the lemma campaigns.

    draw(Q, batch, rng) returns a list of (6, batch) coordinate-major point
    arrays and premise(points, Q, tol) the mask of premise-valid draws.  A
    valid draw needs k = max(1, max uv / Q) over its segments
    (points[i], points[j]), (i, j) in segments, or k = inf when a segment
    leaves the caps.
    """
    _check_q(Q, finite=True)
    if valid_trials < 1:
        raise DomainError("a campaign needs at least 1 trial")
    if seed < 0:
        raise DomainError("campaign seed must be >= 0")
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
        pts = [arr[:, take] for arr in pts]
        needed = np.ones(take.size)
        caps_ok = np.ones(take.size, dtype=bool)
        for i, j in segments:
            seg_caps_ok, max_uv = _segment_checks(pts[i], pts[j], tol)
            caps_ok &= seg_caps_ok
            needed = np.maximum(needed, max_uv / Q)
        needed = np.where(caps_ok, needed, np.inf)
        bad = needed > asserted_k * (1.0 + 1e-12)
        violations += int(np.sum(bad))
        k = int(np.argmax(needed))
        if needed[k] > max_needed:
            max_needed = float(needed[k])
            worst = [arr[:, k].tolist() for arr in pts]
        valid += take.size
    return CampaignReport(
        lemma=lemma, trials_valid=valid, trials_total=total,
        violations=violations, max_needed_k=max_needed, asserted_k=asserted_k,
        worst_case_point=worst,
    )


def _triangle_draw(Q: float, batch: int, rng):
    return [_slack_points(*_sample_strip(Q, batch, rng)) for _ in range(3)]


def _triangle_premise(pts, Q: float, tol: float):
    """[A, B] in the domain, then [C, mid(A, B)] on the rows where it is."""
    A, B, C = pts
    ok = segments_in_domain_arr(A.T, B.T, Q, tol)
    rows = np.nonzero(ok)[0]
    A, B, C = A[:, rows], B[:, rows], C[:, rows]
    ok[rows] = segments_in_domain_arr(C.T, ((A + B) / 2.0).T, Q, tol)
    return ok


def run_triangle_campaign(Q: float, valid_trials: int, seed: int,
                          asserted_k: float = 4.5, tol: float = 1e-12,
                          batch: int = 40000) -> CampaignReport:
    """Randomized verification of the median-repair lemma on slack-coordinate
    triples (rejection sampling in the hyperbolic strip)."""
    # worst_case_point lists A, B, C; the segments are [C, A] and [C, B]
    return _run_campaign("triangle", _triangle_draw, _triangle_premise, ((2, 0), (2, 1)),
                         Q, valid_trials, seed, asserted_k, tol, batch)


def _barycenter_draw(Q: float, batch: int, rng):
    pts = [sample_omega(Q, batch, rng).T for _ in range(4)]
    return [sum(pts) / 4.0] + pts


def _barycenter_premise(pts, Q: float, tol: float):
    member = in_domain_arr(pts[0].T, Q, tol)
    for arr in pts[1:]:
        member &= in_domain_arr(arr.T, Q, tol)
    return member


def run_barycenter_campaign(Q: float, valid_trials: int, seed: int,
                            asserted_k: float = 40.0, tol: float = 1e-12,
                            batch: int = 40000) -> CampaignReport:
    """Randomized verification of the barycenter lemma on general members."""
    # worst_case_point lists the barycenter, then the four points it joins
    return _run_campaign("barycenter", _barycenter_draw, _barycenter_premise,
                         ((0, 1), (0, 2), (0, 3), (0, 4)),
                         Q, valid_trials, seed, asserted_k, tol, batch)


# -- node splits ----------------------------------------------------------


@dataclass(frozen=True)
class NodeSplit:
    """A grandparent point with its two children and four grandchildren.

    Midpoint coherence (each parent is the coordinatewise midpoint of its two
    children) holds by construction.  The named increments follow the x and y
    coordinates: children move by (alpha, lam), grandchildren by
    (beta1, delta1) under the + child and (beta2, delta2) under the - child.
    """

    b: BellmanPoint
    b_plus: BellmanPoint
    b_minus: BellmanPoint
    b_pp: BellmanPoint
    b_pm: BellmanPoint
    b_mp: BellmanPoint
    b_mm: BellmanPoint

    @classmethod
    def from_grandchildren(cls, b_pp, b_pm, b_mp, b_mm) -> "NodeSplit":
        b_plus = _midpoint(b_pp, b_pm)
        b_minus = _midpoint(b_mp, b_mm)
        return cls(b=_midpoint(b_plus, b_minus), b_plus=b_plus, b_minus=b_minus,
                   b_pp=b_pp, b_pm=b_pm, b_mp=b_mp, b_mm=b_mm)

    @property
    def alpha(self) -> float:
        return self.b_plus.x - self.b.x

    @property
    def lam(self) -> float:
        return self.b_plus.y - self.b.y

    @property
    def beta1(self) -> float:
        return self.b_pp.x - self.b_plus.x

    @property
    def delta1(self) -> float:
        return self.b_pp.y - self.b_plus.y

    @property
    def beta2(self) -> float:
        return self.b_mp.x - self.b_minus.x

    @property
    def delta2(self) -> float:
        return self.b_mp.y - self.b_minus.y

    def all_points(self) -> List[BellmanPoint]:
        return [self.b, self.b_plus, self.b_minus,
                self.b_pp, self.b_pm, self.b_mp, self.b_mm]


def node_pattern_check(split: NodeSplit, Q: float, tol: float = 1e-12) -> dict:
    """The application pattern of the geometric lemmas at one node: children
    segments sit in the doubled domain, grandchildren segments in the
    40-fold domain."""
    member = all(in_domain(p, Q, tol) for p in split.all_points())
    out = {"members": member}
    if not member:
        return out
    out["child_segments_2Q"] = (
        segment_in_domain(split.b, split.b_plus, 2.0 * Q, tol)
        and segment_in_domain(split.b, split.b_minus, 2.0 * Q, tol)
    )
    out["grandchild_segments_40Q"] = all(
        segment_in_domain(split.b, g, 40.0 * Q, tol)
        for g in (split.b_pp, split.b_pm, split.b_mp, split.b_mm)
    )
    return out


def node_defect(split: NodeSplit, Q: float,
                evaluator: Callable[[BellmanPoint], float],
                tol: float = 1e-12) -> Tuple[float, float, Optional[float]]:
    """Defect of the evaluator at the node against the target lower bound.

    D = evaluator(b) - (1/4) sum evaluator(b_ij);
    rhs = |alpha| (|delta1| + |delta2|).  Returns (D, rhs, D/rhs or None).
    """
    for p in split.all_points():
        if not in_domain(p, Q, tol):
            raise DomainError(f"split point {p} outside the domain")
    d = evaluator(split.b) - 0.25 * (
        evaluator(split.b_pp) + evaluator(split.b_pm)
        + evaluator(split.b_mp) + evaluator(split.b_mm)
    )
    rhs = abs(split.alpha) * (abs(split.delta1) + abs(split.delta2))
    c = d / rhs if rhs > 0 else None
    return d, rhs, c


# -- dynamic programming estimator ----------------------------------------


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


def _key(arr: np.ndarray) -> tuple:
    return tuple(np.round(arr, 10))


def _node_rng(arr: np.ndarray, seed: int):
    """Seeded per-node generator, equivariant under the X<->Y symmetry."""
    k = _key(arr)
    swapped = (k[1], k[0], k[3], k[2], k[5], k[4])
    canonical = min(k, swapped)
    crc = zlib.crc32(repr(canonical).encode())
    rng = np.random.default_rng([seed & 0xFFFFFFFF, crc])
    return rng, canonical != k


def _xy_game_value(arr: np.ndarray) -> float:
    """Exact value of the x,y-only split game at fixed (X, Y, u, v).

    With gx = Xv - x^2 and gy = Yu - y^2, the value is sqrt(gx * gy):
    it dominates one split plus the children average because
    sqrt(gx gy) >= |t||s| + sqrt((gx - t^2)(gy - s^2)) (square both sides
    and apply AM-GM to s^2 (gx - t^2) + t^2 (gy - s^2)), and increment
    strategies with |t|/|s| = sqrt(gx/gy) approach it as the splits refine,
    so it is the supremum of the depth-limited values over all depths."""
    X, Y, x, y, u, v = arr
    return GAIN_FACTOR * float(
        np.sqrt(max(X * v - x * x, 0.0) * max(Y * u - y * y, 0.0))
    )


def _grid_moves(arr: np.ndarray):
    """The deterministic one-step x/y-only increments (t, s) at a point:
    proportional moves plus equal-increment moves in both sign patterns
    (|dx||dy| = (dx^2 + dy^2)/2 when |dx| = |dy|), at each of _XY_FRACS."""
    X, Y, x, y, u, v = arr
    tmax = np.sqrt(X * v) - abs(x)
    smax = np.sqrt(Y * u) - abs(y)
    eq = min(tmax, smax)
    for fr in _XY_FRACS:
        for t, s in ((fr * tmax, fr * smax),
                     (fr * eq, fr * eq),
                     (fr * eq, -fr * eq)):
            if t != 0.0 and s != 0.0:
                yield t, s


def _child_value(arr: np.ndarray, levels: int) -> float:
    """Value of a child with 0, 1 or >= 2 levels left below it: 0, the best
    grid move G, or max(G, _xy_game_value), which no deeper play beats."""
    if levels == 0:
        return 0.0
    g = max([0.0] + [GAIN_FACTOR * abs(t) * abs(s) for t, s in _grid_moves(arr)])
    return g if levels == 1 else max(g, _xy_game_value(arr))


# DpEstimator values every depth >= DP_SATURATION_DEPTH alike (its closed
# form stops growing there), so deeper requests repeat this depth's estimate.
DP_SATURATION_DEPTH = 3


class DpEstimator:
    """Depth-limited lower estimate of the value function on Omega_Q.

    B^0 = 0 and B^d(p) is the best found over candidate midpoint splits of p
    of (average of children values) + GAIN_FACTOR |dx||dy|, and over the
    exactly solved x/y-only split game (_xy_game_value) once d >= 2.  The
    candidates are a deterministic grid of one-step x/y-only splits and
    seeded random six-coordinate directions (a prefix sequence, making the
    estimate monotone in the sample count), halved until both children are
    members.  Children are snapped to a grid and valued in closed form with
    d - 1 levels left (_child_value).  Child values grow with d up to d = 3
    and then stay put, so the estimate is monotone in depth and the same at
    every depth >= 3.  memo holds finished estimates by (point, min(d, 3))."""

    def __init__(self, Q: float, samples: int = 6, seed: int = 0):
        _check_q(Q)
        if samples < 0:
            raise DomainError("samples must be >= 0")
        self.Q = Q
        self.samples = samples
        self.seed = seed
        self.memo: Dict[tuple, float] = {}

    def estimate(self, p: BellmanPoint, depth: int) -> float:
        if not in_domain(p, self.Q):
            raise DomainError("point outside the domain")
        if depth < 0:
            raise DomainError("depth must be >= 0")
        if depth == 0:
            return 0.0
        arr = p.as_array()
        d = min(depth, DP_SATURATION_DEPTH)
        key = (_key(arr), d)
        if key not in self.memo:
            best = _xy_game_value(arr) if d >= 2 else 0.0
            for sp, sm, gain in self._splits(arr):
                val = 0.5 * (_child_value(sp, d - 1) + _child_value(sm, d - 1)) + gain
                best = max(best, val)
            self.memo[key] = best
        return self.memo[key]

    def b1_ratio(self, p: BellmanPoint, depth: int) -> float:
        return self.estimate(p, depth) / (self.Q * (p.X + p.Y))

    def _splits(self, arr: np.ndarray):
        """(plus child, minus child, gain) of every candidate split at arr."""
        for t, s in _grid_moves(arr):
            step = np.array([0.0, 0.0, t, s, 0.0, 0.0])
            gain = GAIN_FACTOR * abs(t) * abs(s)
            yield _snap(arr + step, self.Q), _snap(arr - step, self.Q), gain
        for delta in self._directions(arr):
            split = self._try_direction(arr, delta)
            if split is not None:
                yield split

    def _directions(self, arr: np.ndarray) -> np.ndarray:
        rng, swapped = _node_rng(arr, self.seed)
        base = arr if not swapped else arr[[1, 0, 3, 2, 5, 4]]
        X, Y, x, y, u, v = base
        scales = np.array([0.3 * X, 0.3 * Y, 0.5 * np.sqrt(X * v),
                           0.5 * np.sqrt(Y * u), 0.2 * u, 0.2 * v])
        dirs = rng.standard_normal((self.samples, 6)) * scales[None, :]
        return dirs[:, [1, 0, 3, 2, 5, 4]] if swapped else dirs

    def _try_direction(self, arr: np.ndarray, delta: np.ndarray):
        """The split along the first of 8 halvings of delta that keeps both
        children members; None if none does or both snap back onto arr."""
        parent = _key(arr)
        for _ in range(8):
            plus = arr + delta
            minus = arr - delta
            if _member(plus, self.Q, 0.0) and _member(minus, self.Q, 0.0):
                sp = _snap(plus, self.Q)
                sm = _snap(minus, self.Q)
                if _key(sp) == parent and _key(sm) == parent:
                    return None
                return sp, sm, GAIN_FACTOR * abs(delta[2]) * abs(delta[3])
            delta = delta / 2.0
        return None


def dp_estimate(p: BellmanPoint, Q: float, depth: int, samples: int, seed: int) -> float:
    """One-shot convenience wrapper around DpEstimator."""
    return DpEstimator(Q=Q, samples=samples, seed=seed).estimate(p, depth)


# -- dyadic data ----------------------------------------------------------


def point_from_data(phi: LeafFunction, psi: LeafFunction, w: Weight,
                    J: DyadicIndex) -> Tuple[BellmanPoint, float]:
    """Six interval averages at J plus the localized key sum they witness."""
    depth = w.depth
    if phi.depth != depth or psi.depth != depth:
        raise StructureError("depth mismatch")
    if J.level > depth:
        raise DomainError("interval below leaf level")
    sig_vals = w.sigma
    sl = J.leaf_slice(depth)
    # <w>_J and <sigma>_J come from the weight's cached averages, the ones
    # a2_characteristic reads, so u*v here is bitwise one of the products
    # whose max defines Q and u*v <= Q holds in floating point, not just in
    # exact arithmetic
    avg = w._stats.avg
    u = float(avg[0, (1 << J.level) - 1 + J.position])
    v = float(avg[1, (1 << J.level) - 1 + J.position])
    X = float(np.mean(phi.values[sl] ** 2 * w.values[sl]))
    Y = float(np.mean(psi.values[sl] ** 2 * sig_vals[sl]))
    x = float(np.mean(phi.values[sl]))
    y = float(np.mean(psi.values[sl]))
    # the remaining constraints (Cauchy-Schwarz, u*v >= 1) are theorem-true
    # but can overshoot by an ulp in floating point; pull back minimally
    for _ in range(4):
        if x * x > X * v:
            x *= 1.0 - 4e-16
        if y * y > Y * u:
            y *= 1.0 - 4e-16
        if u * v < 1.0:
            u *= 1.0 + 4e-16
    point = BellmanPoint(X=X, Y=Y, x=x, y=y, u=u, v=v)
    local_sum = _subtree_sum(J, _key_terms(phi, psi, w)) / J.length
    return point, float(local_sum)


def calibrate_gain(phi: LeafFunction, psi: LeafFunction, w: Weight,
                   J: DyadicIndex, samples: int = 6, seed: int = 0) -> dict:
    """Compare the localized key sum against the DP estimate at its point.

    The recursion's gain convention is implicit in the source material; this
    reports local_sum / dp_estimate so the discrepancy (if any) is visible
    rather than hidden.  Ratios <= 1 mean the DP sup dominates the witness.
    """
    q = a2_characteristic(w).characteristic
    point, local = point_from_data(phi, psi, w, J)
    d = w.depth - J.level
    est = dp_estimate(point, q, d, samples, seed)
    return {
        "local_sum": local,
        "dp_estimate": est,
        "ratio": local / est if est > 0 else (0.0 if local == 0 else np.inf),
        "dp_depth": d,
    }


def tree_sum_ratio(f1: LeafFunction, f2: LeafFunction, w: Weight,
                   I: DyadicIndex) -> Tuple[float, float, float]:
    """Node-sum inequality over the subtree of I, dimensionally consistent
    reading: lhs = sum_{J in I} |J| |Delta_J f1| (|Delta_{J-} f2| + |Delta_{J+} f2|),
    rhs0 = 40 Q (<f1^2 w>_I + <f2^2 sigma>_I) |I|.  Returns (lhs, rhs0, lhs/rhs0).
    """
    depth = w.depth
    if f1.depth != depth or f2.depth != depth:
        raise StructureError("depth mismatch")
    d = _heap_diffs(heap_averages([f1.values, f2.values]))
    # |Delta_{J-} f2| + |Delta_{J+} f2| for J at levels 0 .. depth - 2, heap-ordered
    kids = np.abs(d[1, 1:]).reshape(-1, 2).sum(axis=1)
    lhs = _subtree_sum(I, np.abs(d[0, : kids.size]) * kids)
    q = a2_characteristic(w).characteristic
    sl = I.leaf_slice(depth)
    sig = w.sigma
    rhs0 = 40.0 * q * (
        float(np.mean(f1.values[sl] ** 2 * w.values[sl]))
        + float(np.mean(f2.values[sl] ** 2 * sig[sl]))
    ) * I.length
    return float(lhs), rhs0, float(lhs / rhs0) if rhs0 > 0 else 0.0
