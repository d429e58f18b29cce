"""Domain geometry and dynamic programming for the six-variable value function.

The domain Omega_Q collects 6-tuples (X, Y, x, y, u, v) of positive numbers
with x^2 <= X v, y^2 <= Y u and 1 <= u v <= Q.  This module provides:

* exact membership and closed-form segment containment (every constraint is
  a quadratic along a segment, so no sampling is needed);
* randomized verification campaigns for the two convexity-repair lemmas
  (triangle/median and barycenter): one vectorized strip kernel checks uv
  along every segment, and the six-coordinate kernel adds the caps;
* a depth-limited dynamic-programming lower estimate of the value function,
  with gain |dx||dy| per node split: the best split at the query point, its
  children valued in closed form (the best grid split and the exactly solved
  x/y-only split game), so every depth >= 3 gives the same estimate; one
  estimate is one array pass over the children of every candidate split;
* extraction of domain points from concrete dyadic data, together with the
  localized key sum they witness.

Point arrays at the API are (n, 6), one point per row.  The campaigns and
the DP estimator keep their points coordinate-major, as (6, n) arrays whose
rows are the six coordinates, or (2, n) (u, v) arrays in the triangle
campaign (C-contiguous in the campaigns): every formula
here works one coordinate at a time, and contiguous rows make those
elementwise passes cheaper.
sample_omega fills one (6, n) buffer and returns its (n, 6) `.T` view; the
campaigns pass `.T` views of their (6, n) arrays to the (n, 6) functions,
which take `.T` again, so no copy is made either way.

Sampling runs in two steps on a block of rng.random draws, one column per
point: _redraw replaces the columns whose points would end outside the
domain by fresh columns, and _omega_points maps columns to points.  A point
depends on its own column alone, and its final (u, v) on the strip rows
alone, so the first step builds only the points whose strip (u, v) start
outside 1 <= uv <= Q.  The barycenter campaign decides on the
barycenter's uv <= Q first, from those (u, v), and builds the other
coordinates only for the rows that pass; each draw fills its four blocks
in one buffer and moves the candidate columns within it.

The campaigns' draws are plain functions draw(rng, Q, batch), each run
with its lemma's segment kernel.  The triangle campaign never leaves the
strip: its draws, premise and segment checks read (u, v) alone, and only
its report writes the worst case as a slack point (X = Y = 1e6,
x = y = 0), whose caps x^2 <= X v and y^2 <= Y u cannot bind for positive
u, v.  A six-coordinate triangle campaign, where the caps do bind, is
still open (ROADMAP item 3).
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .tree import (
    DomainError,
    DyadicIndex,
    LeafFunction,
    StructureError,
    _heap_diffs,
    _mean,
    _subtree_sum,
    heap_averages,
)
from .weights import Weight

_XY_FRACS = (0.25, 0.5, 0.75, 1.0)
_XY_STEP = 0.125  # quantization of x, y as fractions of their caps
_LOG_STEP = 0.25  # quantization of log X, log Y, log u, log v

# The (i, j) segments a lemma concludes about, indexing its points as its
# worst_case_point lists them: A, B, C; the barycenter, then the four others.
TRIANGLE_SEGMENTS = ((2, 0), (2, 1))
BARYCENTER_SEGMENTS = ((0, 1), (0, 2), (0, 3), (0, 4))


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
    """Membership of p in Omega_Q; a non-finite coordinate is never a member
    (an infinite one would pass every constraint)."""
    _check_q(Q)
    c = (p.X, p.Y, p.x, p.y, p.u, p.v)
    return all(map(math.isfinite, c)) and bool(_member(c, Q, tol))


def in_domain_arr(P: np.ndarray, Q: float, tol: float = 0.0):
    """in_domain for each row of the (n, 6) array P, without its check of Q."""
    c = P.T
    return _member(c, Q, tol) & np.isfinite(c).all(axis=0)


def _quad_max_01(g0, g1, g2, g_end):
    """Max of g(t) = g0 + g1 t + g2 t^2 over t in [0, 1], elementwise, where
    g_end = g(1) as computed from the segment's end point itself.  The
    arguments are arrays (or numpy scalars) of one shape; the result is an
    array of that shape.

    The vertex t = -g1 / (2 g2) lies in (0, 1) only where g2 < 0 < g1, so
    it is computed on those entries alone (NaN fails both tests); 0 < t < 1
    is still tested there, since t can round to 0 or reach 1 or beyond.
    """
    best = np.asarray(np.maximum(g0, g_end))
    at = np.flatnonzero((g2 < 0.0) & (g1 > 0.0))
    if at.size:
        g0, g1, g2, b = g0.take(at), g1.take(at), g2.take(at), best.take(at)
        with np.errstate(invalid="ignore"):  # inf / inf where g1 = inf, g2 = -inf
            t = -g1 / (2.0 * g2)
        vertex = g0 + g1 * t + g2 * t * t
        best.put(at, np.where((t > 0.0) & (t < 1.0), np.maximum(b, vertex), b))
    return best


def _strip_checks(p, q, tol: float):
    """Closed-form uv checks along the segments p + t(q - p), t in [0, 1],
    for (u, v) coordinate arrays of shape (2,) or (2, n).

    Returns (uv_ok, max_uv): whether u and v are positive at both ends and
    u(t) v(t) >= 1 - tol all along, and the max of u(t) v(t).  Positivity
    is linear, so the endpoints decide it; u(t) v(t) is a quadratic, whose
    g(0) and g(1) come from the end points' own coordinates."""
    (u, v), (qu, qv) = p, q
    du, dv = qu - u, qv - v
    g0, g1, g2, g_end = u * v, u * dv + v * du, du * dv, qu * qv
    pos = (u > 0.0) & (v > 0.0) & (qu > 0.0) & (qv > 0.0)
    return (pos & (_quad_max_01(1.0 - g0, -g1, -g2, 1.0 - g_end) <= tol),
            _quad_max_01(g0, g1, g2, g_end))


def _segment_checks(p: np.ndarray, q: np.ndarray, tol: float):
    """Closed-form checks along the segments p + t(q - p), t in [0, 1], for
    coordinate arrays of shape (6,) or (6, n).

    Returns (caps_ok, max_uv): whether every constraint but uv <= Q holds
    within tol all along, and the max of u(t) v(t).  The uv half is
    _strip_checks on the (u, v) rows; each cap is a quadratic g(t)
    (violation iff g > 0), and positivity of X and Y is linear, so the
    endpoints decide it.  g(0) and g(1) come from the end points' own
    coordinates, as in membership: the sum g0 + g1 + g2 can miss g(1) by
    more than tol where the terms are large.
    """
    X, Y, x, y, u, v = p
    qX, qY, qx, qy, qu, qv = q
    dX, dY, dx, dy = qX - X, qY - Y, qx - x, qy - y
    du, dv = qu - u, qv - v
    # x(t)^2 - X(t) v(t) and y(t)^2 - Y(t) u(t)
    cap_x = _quad_max_01(x * x - X * v, 2 * x * dx - (X * dv + v * dX), dx * dx - dX * dv,
                         qx * qx - qX * qv)
    cap_y = _quad_max_01(y * y - Y * u, 2 * y * dy - (Y * du + u * dY), dy * dy - dY * du,
                         qy * qy - qY * qu)
    uv_ok, max_uv = _strip_checks(p[4:], q[4:], tol)
    return ((X > 0.0) & (Y > 0.0) & (qX > 0.0) & (qY > 0.0)
            & (cap_x <= tol) & (cap_y <= tol) & uv_ok), max_uv


def segment_in_domain(p: BellmanPoint, q: BellmanPoint, Q: float, tol: float = 0.0) -> bool:
    """Closed-form check that the whole segment [p, q] lies in Omega_Q.  A
    segment with a non-finite end coordinate is outside, and is not put
    through the quadratics, where inf - inf would warn."""
    _check_q(Q)
    a, b = p.as_array(), q.as_array()
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return False
    caps_ok, max_uv = _segment_checks(a, b, tol)
    return bool(caps_ok & (max_uv <= Q + tol))


# _joint_segment_checks works through its columns in chunks of this many,
# which bounds its temporaries; every check is elementwise, so the chunking
# changes no result.
_SEGMENT_CHUNK = 8192


def _joint_segment_checks(kernel, pts, segments):
    """kernel (_strip_checks or _segment_checks) at CAMPAIGN_TOL over the
    segments (pts[i], pts[j]), (i, j) in segments, of coordinate-major point
    arrays with one column per point: (ok, max uv), each over all
    segments."""
    n = pts[0].shape[1]
    ok = np.ones(n, dtype=bool)
    max_uv = np.full(n, -np.inf)
    for lo in range(0, n, _SEGMENT_CHUNK):
        cols = slice(lo, lo + _SEGMENT_CHUNK)
        for i, j in segments:
            seg_ok, seg_max_uv = kernel(pts[i][:, cols], pts[j][:, cols], CAMPAIGN_TOL)
            ok[cols] &= seg_ok
            np.maximum(max_uv[cols], seg_max_uv, out=max_uv[cols])
    return ok, max_uv


# -- sampling -------------------------------------------------------------


def _uniform(U: np.ndarray, low: float, high: float) -> np.ndarray:
    """A row of rng.random values mapped onto [low, high) by the same
    low + (high - low) * U that Generator.uniform applies to the same draws."""
    return low + (high - low) * U


def _strip_rows(Q: float) -> int:
    """Uniform rows a strip draw uses: log uv (none at Q = 1) and the split."""
    return 2 if Q > 1 else 1


_LOG_SPREAD = np.log(10.0)
_BOUNDARY_PROB = 0.1


def _strip(U: np.ndarray, Q: float):
    """(u, v) in the hyperbolic strip 1 <= uv <= Q from _strip_rows(Q) rows
    of uniform draws: uv log-uniform in [1, Q], split log-uniformly."""
    P = np.exp(_uniform(U[0], 0.0, np.log(Q))) if Q > 1 else np.ones(U.shape[1])
    h = _uniform(U[-1], -_LOG_SPREAD, _LOG_SPREAD)
    u = np.sqrt(P) * np.exp(h)
    return u, P / u


def _sample_strip(Q: float, n: int, rng):
    """(u, v) pairs in the hyperbolic strip 1 <= uv <= Q."""
    return _strip(rng.random((_strip_rows(Q), n)), Q)


def _omega_points(U: np.ndarray, Q: float, boundary_prob: float) -> np.ndarray:
    """The (6, n) points that sample_omega maps the uniform columns U to,
    before any redraw.  Every step is elementwise, so each point depends on
    its own column alone."""
    r = _strip_rows(Q)
    out = np.empty((6, U.shape[1]))
    X, Y, x, y, u, v = out  # row views
    out[4:] = _strip(U[:r], Q)
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
    return out


def _outside_rows(U: np.ndarray, Q: float, boundary_prob: float):
    """(rows, u, v): the columns of U whose points end outside Omega_Q, and
    the final (u, v) of every column's point.  Only the columns whose strip
    (u, v) start outside 1 <= uv <= Q are built, with _omega_points, and
    tested with _member; sample_omega says why no other column can end
    outside."""
    u, v = _strip(U[: _strip_rows(Q)], Q)
    uv = u * v
    rows = np.nonzero(~((uv >= 1.0) & (uv <= Q)))[0]
    pts = _omega_points(U[:, rows], Q, boundary_prob)
    u[rows], v[rows] = pts[4], pts[5]
    return rows[~_member(pts, Q, 0.0)], u, v


def _redraw(U: np.ndarray, Q: float, rng, boundary_prob: float):
    """Step one of sample_omega: replace, in place, each column of the
    uniform block U whose point ends outside Omega_Q by a fresh draw's
    column, itself redrawn the same way, and return every column's final
    (u, v).  At Q = 1 some u admit no double v with fl(u v) = 1; only those
    rows are drawn again, so draws that need no mending consume no extra
    randomness."""
    bad, u, v = _outside_rows(U, Q, boundary_prob)
    if bad.size:
        V = rng.random((U.shape[0], bad.size))
        u[bad], v[bad] = _redraw(V, Q, rng, boundary_prob)
        U[:, bad] = V
    return u, v


def sample_omega(Q: float, n: int, rng, boundary_prob: float = _BOUNDARY_PROB) -> np.ndarray:
    """Random members of Omega_Q with full boundary coverage, as an (n, 6) array.

    uv is log-uniform in [1, Q] and split log-uniformly; x and y are drawn as
    signed fractions of their caps, with a boundary_prob chance of sitting
    exactly on the cap.

    The points are stored coordinate-major: the result is the (n, 6)
    transposed view of one C-contiguous (6, n) buffer, so callers that work
    per coordinate take `.T` and get contiguous rows without a copy.  All
    randomness is one rng.random((k, n)) block, k = 10 (9 at Q = 1, where
    uv = 1 needs no draw), plus one smaller block per round of redraws.
    Generator.uniform(low, high) maps each rng.random draw by
    low + (high - low) * U, and a block fills its rows one after the other,
    so each row, mapped that way, equals the corresponding call of n uniform
    draws, and the stream and every value are those of one uniform call per
    coordinate and per coin.

    Sampling takes two steps.  _redraw settles the uniform block: each
    column whose point ends outside the domain is replaced by its redraw's
    column, in the order the redraws consume the stream.  _omega_points then
    maps the final columns to points.  Every operation is elementwise and a
    nudge pass changes a row only when one of that row's own masks is set
    (a row unchanged by one pass is unchanged by every later pass), so a
    point built from some columns of a block is bitwise the point built from
    the whole block, and the result is that of building every point and
    redrawing the rows that fail.

    To find the rows that fail, only the rows whose strip (u, v) start
    outside 1 <= uv <= Q are built, since no other row can fail.  u and v
    never read x or y, so a row whose strip (u, v) start inside is never
    nudged in u or v.  Its x starts at +-f fl(sqrt(X v)) with f <= 1, so
    fl(x^2) <= X v (1 + 5 2^-53) under round to nearest, and one nudge by
    fl(1 - 4e-16) = 1 - 4 2^-53 brings fl(x^2) below X v; y alike.  The
    argument needs X v and Y u normal and finite, and they are for every
    finite Q: u and v lie in [0.1, 10 sqrt(Q)] and X, Y in [1e-2, 1e2].  A
    uv that overflows fails 1 <= uv <= Q, so its row is built and redrawn.
    """
    _check_q(Q, finite=True)
    U = rng.random((_strip_rows(Q) + 8, n))
    _redraw(U, Q, rng, boundary_prob)
    return _omega_points(U, Q, boundary_prob).T


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
            "asserted_k": self.asserted_k,
            "worst_case_point": self.worst_case_point,
        }


# A campaign gives up after this many consecutive batches without a
# premise-valid draw.  At Q = 1.5 about one triangle draw in ten and one
# barycenter draw in twenty is valid, so a default batch is never empty.
MAX_EMPTY_BATCHES = 10

# The tolerance of every campaign's premises and segment checks.
CAMPAIGN_TOL = 1e-12


# The largest Q a campaign takes.  Strip draws have u, v <= 10 sqrt(Q) (uv
# <= Q, split by a factor in [1/10, 10]), so the largest product a campaign
# forms, u dv + v du in _strip_checks, reaches about 200 Q, and the
# barycenter's (bu / 4) (bv / 4) about 100 Q.  Both stay finite below
# 1e306; 1e300 leaves room for the vertex terms of _quad_max_01.
MAX_CAMPAIGN_Q = 1e300


def _check_campaign(Q: float, valid_trials: int, seed: int) -> None:
    """Refuse a campaign that could not run: Q not finite or below 1, Q
    above MAX_CAMPAIGN_Q (its products would overflow), no trial, or a
    negative seed."""
    _check_q(Q, finite=True)
    if Q > MAX_CAMPAIGN_Q:
        raise DomainError(f"campaign Q {Q} exceeds the cap {MAX_CAMPAIGN_Q}: "
                          f"its segment products would overflow")
    if valid_trials < 1:
        raise DomainError("a campaign needs at least 1 trial")
    if seed < 0:
        raise DomainError("campaign seed must be >= 0")


def _run_campaign(lemma: str, draw, segments, kernel, Q: float, valid_trials: int,
                  seed: int, asserted_k: float, batch: int) -> CampaignReport:
    """Rejection sampling shared by the lemma campaigns, at CAMPAIGN_TOL.

    draw(rng, Q, batch) draws one batch and returns its premise-valid
    indices, in increasing order, and a list of coordinate-major point
    arrays, one column per valid index.  A valid draw needs k = max(1,
    max uv / Q) over its segments (points[i], points[j]), (i, j) in
    segments, or k = inf where a segment fails kernel's other checks;
    kernel is _strip_checks for (2, k) (u, v) arrays and _segment_checks
    for (6, k) points.  The inputs are checked before the first draw, so a
    refused campaign draws nothing.  A draw may decide its premise before
    building the points (the triangle one entirely from (u, v), the
    barycenter one in part, from the barycenter's uv), but it returns
    exactly the draws the full premise accepts.
    """
    _check_campaign(Q, valid_trials, seed)
    if not batch >= 1:
        raise DomainError(f"campaign batch must be >= 1, got {batch}")
    rng = np.random.default_rng(seed)
    valid = total = violations = empty = 0
    max_needed = 1.0
    worst = None
    while valid < valid_trials:
        rows, pts = draw(rng, Q, batch)
        need = valid_trials - valid
        take = rows[:need]
        # the campaign stops at the draw that completes it
        total += int(take[-1]) + 1 if take.size == need else batch
        if take.size == 0:
            empty += 1
            if empty == MAX_EMPTY_BATCHES:
                raise DomainError(f"{lemma} campaign at Q = {Q}: no premise-valid "
                                  f"draw in {empty * batch} consecutive draws")
            continue
        empty = 0
        pts = [arr[:, : take.size] for arr in pts]
        ok, max_uv = _joint_segment_checks(kernel, pts, segments)
        needed = np.maximum(np.divide(max_uv, Q, out=max_uv), 1.0, out=max_uv)
        needed = np.where(ok, needed, np.inf)
        bad = needed > asserted_k * (1.0 + 1e-12)
        violations += int(np.sum(bad))
        k = int(np.argmax(needed))
        if needed[k] > max_needed:
            max_needed = float(needed[k])
            worst = [arr[:, k].tolist() for arr in pts]
        valid += take.size
        del pts  # free this batch's points before the next batch is drawn
    return CampaignReport(
        lemma=lemma, trials_valid=valid, trials_total=total,
        violations=violations, max_needed_k=max_needed, asserted_k=asserted_k,
        worst_case_point=worst,
    )


def _triangle_sampler(rng, Q: float, batch: int):
    """The triangle campaign's draw: the median premise on the strip samples
    of A, B and C, three (2, batch) (u, v) arrays, and the valid columns of
    each."""
    strips = [np.array(_sample_strip(Q, batch, rng)) for _ in range(3)]
    rows = np.nonzero(_median_premise(strips, Q))[0]
    return rows, [S[:, rows] for S in strips]


def _median_premise(strips, Q: float):
    """The median premise on the (2, n) (u, v) arrays of A, B and C, by
    _strip_segments_ok: [A, B], then [C, mid(A, B)] on the rows where it
    holds."""
    A, B, C = strips
    ok = _strip_segments_ok(A, B, Q)
    rows = np.nonzero(ok)[0]
    A, B, C = A[:, rows], B[:, rows], C[:, rows]
    ok[rows] = _strip_segments_ok(C, (A + B) / 2.0, Q)
    return ok


def _strip_segments_ok(p, q, Q: float):
    """Segment containment in the strip 1 <= uv <= Q at CAMPAIGN_TOL for the
    (2, n) (u, v) arrays p and q: _strip_checks and max uv <= Q + tol.  It
    is the full segment check on the slack points (1e6, 1e6, 0, 0, u, v):
    their caps, max(-1e6 v, -1e6 qv) and alike in u, are negative where u
    and v are positive at both ends, so they hold."""
    ok, max_uv = _strip_checks(p, q, CAMPAIGN_TOL)
    return ok & (max_uv <= Q + CAMPAIGN_TOL)


def run_triangle_campaign(Q: float, valid_trials: int, seed: int,
                          batch: int = 40000) -> CampaignReport:
    """Randomized verification of the median-repair lemma, k = 4.5, in the
    hyperbolic strip (rejection sampling of (u, v) triples).

    The lemma constrains u and v alone, so the draws, the premise and the
    segment checks (_strip_checks) never leave (u, v).  The report writes
    its worst case as slack points, X = Y = 1e6 and x = y = 0, whose caps
    x^2 <= X v and y^2 <= Y u cannot bind for positive u, v; a
    six-coordinate campaign, where the caps do bind, is still open
    (ROADMAP item 3).
    """
    report = _run_campaign("triangle", _triangle_sampler, TRIANGLE_SEGMENTS, _strip_checks,
                           Q, valid_trials, seed, 4.5, batch)
    if report.worst_case_point is not None:
        report.worst_case_point = [[1e6, 1e6, 0.0, 0.0, u, v]
                                   for u, v in report.worst_case_point]
    return report


def _barycenter_candidates(blocks: np.ndarray, Q: float, rng):
    """Fill the four uniform blocks of a barycenter draw, settle each with
    _redraw, and return the columns whose barycenter has 1 <= uv <= Q
    within CAMPAIGN_TOL.  The barycenter's (u, v) are the four final (u, v)
    that _redraw hands back, summed from 0 in point order and divided by
    4.0, as sum(points) / 4.0 does."""
    bu = bv = 0
    for U in blocks:
        rng.random(out=U)
        u, v = _redraw(U, Q, rng, _BOUNDARY_PROB)
        bu, bv = bu + u, bv + v
    uv = (bu / 4.0) * (bv / 4.0)
    return np.nonzero((uv >= 1.0 - CAMPAIGN_TOL) & (uv <= Q + CAMPAIGN_TOL))[0]


def _barycenter_sampler(rng, Q: float, batch: int):
    """The barycenter campaign's draw: four batches of sample_omega points
    and their barycenter, deciding on the barycenter's uv first.

    A draw allocates one (4, k, batch) buffer for its four uniform blocks,
    fills each by rng.random(out=...), which consumes the stream as
    rng.random((k, batch)) does, and keeps only the candidate columns of
    _barycenter_candidates, a superset of the premise-valid ones.  Only
    those are mapped to points, and the full premise decides them.  The
    buffer is most of the memory a draw holds: the candidate columns are
    moved to its front one row at a time, and the batch-wide sums die with
    _barycenter_candidates before any point is built.

    Both the buffer and the in-place moves were measured (medians of 6
    rotated 8 s `perfbench/run.py --workload campaigns --seed 1` runs on a
    shared 2-core Xeon box).  A per-draw buffer reads as one kept for the
    whole campaign: 0.786 against 0.821 s wall, 71.2 against 71.4 MB peak
    RSS.  Fancy-index copies U[:, rows] in place of the moves read 73.1 MB
    and 83.3 ms median item time, against 71.2 MB and 80.1 ms.  Four
    rng.random((k, batch)) blocks with copied candidates read 1.170 s and
    74.2 MB.
    """
    blocks = np.empty((4, _strip_rows(Q) + 8, batch))
    rows = _barycenter_candidates(blocks, Q, rng)
    m = rows.size
    for U in blocks:
        for row in U:
            row[:m] = row[rows]
    pts = [_omega_points(U[:, :m], Q, _BOUNDARY_PROB) for U in blocks]
    pts = [sum(pts) / 4.0] + pts
    ok = _barycenter_premise(pts, Q)
    # the barycenter of members keeps every convex constraint, so ok seldom
    # drops a row and the points are copied only when it does
    if not ok.all():
        rows, pts = rows[ok], [arr[:, ok] for arr in pts]
    return rows, pts


def _barycenter_premise(pts, Q: float):
    """Membership at CAMPAIGN_TOL of every (6, n) point array in pts."""
    member = in_domain_arr(pts[0].T, Q, CAMPAIGN_TOL)
    for arr in pts[1:]:
        member &= in_domain_arr(arr.T, Q, CAMPAIGN_TOL)
    return member


def run_barycenter_campaign(Q: float, valid_trials: int, seed: int,
                            batch: int = 40000) -> CampaignReport:
    """Randomized verification of the barycenter lemma, k = 40, on general
    members."""
    return _run_campaign("barycenter", _barycenter_sampler, BARYCENTER_SEGMENTS,
                         _segment_checks, Q, valid_trials, seed, 40.0, batch)


# -- dynamic programming estimator ----------------------------------------


def _snap(c: np.ndarray, Q: float) -> np.ndarray:
    """Quantize member points onto the grid of child points, staying inside."""
    out = np.empty(c.shape)
    logs = np.log(c[[0, 1, 4, 5]])
    out[[0, 1, 4, 5]] = np.exp(np.rint(logs / _LOG_STEP) * _LOG_STEP)
    P = out[4] * out[5]
    out[4:6] *= np.where(P > Q, np.sqrt(Q / P) * (1.0 - 1e-14),
                         np.where(P < 1.0, np.sqrt(1.0 / P) * (1.0 + 1e-14), 1.0))
    caps = np.sqrt(out[[0, 1]] * out[[5, 4]])  # sqrt(X v), sqrt(Y u)
    # + 0.0 turns the -0.0 that rint gives small negative ratios into 0.0
    steps = np.rint(c[2:4] / caps / _XY_STEP) + 0.0
    out[2:4] = np.clip(steps * _XY_STEP, -1.0, 1.0) * caps
    return out


def _rounded(c: np.ndarray) -> np.ndarray:
    """Points rounded to 10 decimals, as _node_rng keys them.  A coordinate
    past about 1.8e298 overflows there and keys as inf."""
    with np.errstate(over="ignore"):
        return np.round(c, 10)


def _key(arr: np.ndarray) -> tuple:
    return tuple(_rounded(arr))


def _node_rng(arr: np.ndarray, seed: int):
    """Seeded per-node generator, equivariant under the X<->Y symmetry."""
    k = _key(arr)
    swapped = (k[1], k[0], k[3], k[2], k[5], k[4])
    canonical = min(k, swapped)
    crc = zlib.crc32(repr(canonical).encode())
    rng = np.random.default_rng([seed & 0xFFFFFFFF, crc])
    return rng, canonical != k


def _xy_game_value(c: np.ndarray) -> np.ndarray:
    """Exact value of the x,y-only split game at fixed (X, Y, u, v).

    With gx = Xv - x^2 and gy = Yu - y^2, the value is sqrt(gx * gy):
    it dominates one split plus the children average because
    sqrt(gx gy) >= |t||s| + sqrt((gx - t^2)(gy - s^2)) (square both sides
    and apply AM-GM to s^2 (gx - t^2) + t^2 (gy - s^2)), and increment
    strategies with |t|/|s| = sqrt(gx/gy) approach it as the splits refine,
    so it is the supremum of the depth-limited values over all depths.
    Where gx * gy overflows, sqrt(gx) * sqrt(gy) is the value."""
    X, Y, x, y, u, v = c
    gx = np.maximum(X * v - x * x, 0.0)
    gy = np.maximum(Y * u - y * y, 0.0)
    with np.errstate(over="ignore"):
        g = gx * gy
        return np.where(np.isinf(g), np.sqrt(gx) * np.sqrt(gy), np.sqrt(g))


def _grid_steps(arr: np.ndarray) -> np.ndarray:
    """(6, k) steps of the deterministic one-step x/y-only moves (t, s) at
    arr, k <= 12, those with t = 0 or s = 0 left out: proportional moves plus
    equal-increment moves in both sign patterns (|dx||dy| = (dx^2 + dy^2)/2
    when |dx| = |dy|), at each of _XY_FRACS."""
    X, Y, x, y, u, v = arr
    tmax = np.sqrt(X * v) - abs(x)
    smax = np.sqrt(Y * u) - abs(y)
    fr = np.array(_XY_FRACS)
    fe = fr * min(tmax, smax)
    steps = np.zeros((6, 3 * len(fr)))
    steps[2] = np.concatenate([fr * tmax, fe, fe])
    steps[3] = np.concatenate([fr * smax, fe, -fe])
    return steps[:, (steps[2] != 0.0) & (steps[3] != 0.0)]


def _child_values(c: np.ndarray, levels: int) -> np.ndarray:
    """Values of snapped children with 0, 1 or >= 2 levels left below them:
    0, the best grid move G, or max(G, _xy_game_value), which no deeper play
    beats.

    G = tmax * smax, the gain of the proportional move at fraction 1.
    _snap leaves |x| <= sqrt(Xv) and |y| <= sqrt(Yu) exactly, so tmax and
    smax are >= 0; then min(tmax, smax)^2 <= tmax smax, and as float
    rounding is monotone, no smaller fraction gives a larger gain.  Where a
    cap passes the float range, tmax or smax is nan, and G skips that nan
    gain."""
    if levels == 0:
        return np.zeros(c.shape[1])
    X, Y, x, y, u, v = c
    tmax = np.sqrt(X * v) - np.abs(x)
    smax = np.sqrt(Y * u) - np.abs(y)
    g = np.fmax(tmax * smax, 0.0)
    return g if levels == 1 else np.fmax(g, _xy_game_value(c))


# DpEstimator values every depth >= DP_SATURATION_DEPTH alike (its closed
# form stops growing there), so deeper requests repeat this depth's estimate.
DP_SATURATION_DEPTH = 3
# A DpEstimator's (6, 8, samples) block of candidate steps takes 384 bytes
# per sample, 25 MB at this cap (a `dyadlab bellman` run then peaks near
# 100 MB resident), so larger sample counts are refused before anything is
# allocated.
MAX_SAMPLES = 1 << 16


class DpEstimator:
    """Depth-limited lower estimate of the value function on Omega_Q.

    B^0 = 0 and B^d(p) is the best found over candidate midpoint splits of p
    of (average of children values) + |dx||dy|, and over the
    exactly solved x/y-only split game (_xy_game_value) once d >= 2.  The
    candidates are a deterministic grid of one-step x/y-only splits and
    seeded random six-coordinate directions (a prefix sequence, making the
    estimate monotone in the sample count), each at the first of 8 halvings
    that keeps both children members.  Children are snapped to a grid and
    valued in closed form with d - 1 levels left (_child_values).  Child
    values grow with d up to d = 3 and then stay put, so the estimate is
    monotone in depth and the same at every depth >= 3.  memo holds
    finished estimates by (the point's exact bytes, min(d, 3)), so distinct
    points never share an entry; _node_rng still seeds from the rounded
    key, so points that round alike draw the same normals.

    One estimate is one array pass: the children of every candidate split
    sit in one (6, n) array, all 8 halvings of every direction are tested
    at once, and the snapping, child values and split values are computed
    on the whole array."""

    def __init__(self, Q: float, samples: int = 6, seed: int = 0):
        _check_q(Q)
        if samples < 0:
            raise DomainError("samples must be >= 0")
        if samples > MAX_SAMPLES:
            raise DomainError(
                f"samples {samples} exceeds the cap {MAX_SAMPLES}: the (6, 8, samples) "
                f"candidate block would take {6 * 8 * 8 * samples} bytes")
        self.Q = Q
        self.samples = samples
        self.seed = seed
        self.memo: Dict[Tuple[bytes, int], float] = {}

    def estimate(self, p: BellmanPoint, depth: int) -> float:
        if not in_domain(p, self.Q):
            raise DomainError("point outside the domain")
        if depth < 0:
            raise DomainError("depth must be >= 0")
        if depth == 0:
            return 0.0
        arr = p.as_array()
        d = min(depth, DP_SATURATION_DEPTH)
        key = (arr.tobytes(), d)
        if key not in self.memo:
            self.memo[key] = self._best_split(arr, d)
        return self.memo[key]

    def b1_ratio(self, p: BellmanPoint, depth: int) -> float:
        return self.estimate(p, depth) / (self.Q * (p.X + p.Y))

    def _best_split(self, arr: np.ndarray, d: int) -> float:
        grid = _grid_steps(arr)
        steps = np.concatenate([grid, self._direction_steps(arr)], axis=1)
        m = steps.shape[1]
        c = arr[:, None]
        kids = _snap(np.concatenate([c + steps, c - steps], axis=1), self.Q)
        kv = _child_values(kids, d - 1)
        vals = 0.5 * (kv[:m] + kv[m:]) + np.abs(steps[2]) * np.abs(steps[3])
        # a direction whose children both snap back onto arr gives no split
        home = (_rounded(kids) == _rounded(c)).all(axis=0)
        keep = ~(home[:m] & home[m:])
        keep[:grid.shape[1]] = True
        best = float(_xy_game_value(arr)) if d >= 2 else 0.0
        if keep.any():
            best = max(best, float(vals[keep].max()))
        return best

    def _directions(self, arr: np.ndarray) -> np.ndarray:
        rng, swapped = _node_rng(arr, self.seed)
        base = arr if not swapped else arr[[1, 0, 3, 2, 5, 4]]
        X, Y, x, y, u, v = base
        scales = np.array([0.3 * X, 0.3 * Y, 0.5 * np.sqrt(X * v),
                           0.5 * np.sqrt(Y * u), 0.2 * u, 0.2 * v])
        dirs = rng.standard_normal((self.samples, 6)) * scales[None, :]
        return dirs[:, [1, 0, 3, 2, 5, 4]] if swapped else dirs

    def _direction_steps(self, arr: np.ndarray) -> np.ndarray:
        """(6, j) steps of the seeded directions, each halved to the first of
        its 8 halvings that keeps both children members; a direction with
        none is left out.  Halving is multiplying by 0.5, as exact as /2."""
        halvings = np.full((6, 8, self.samples), 0.5)
        halvings[:, 0] = self._directions(arr).T
        halvings = np.multiply.accumulate(halvings, axis=1)
        c = arr[:, None, None]
        ok = _member(c + halvings, self.Q, 0.0) & _member(c - halvings, self.Q, 0.0)
        cols = np.flatnonzero(ok.any(axis=0))
        return halvings[:, ok.argmax(axis=0)[cols], cols]


# -- dyadic data ----------------------------------------------------------


def point_from_data(phi: LeafFunction, psi: LeafFunction, w: Weight,
                    J: DyadicIndex) -> Tuple[BellmanPoint, float]:
    """Six interval averages at J plus the localized key sum they witness."""
    depth = w.depth
    if phi.depth != depth or psi.depth != depth:
        raise StructureError("depth mismatch")
    if J.level > depth:
        raise DomainError("interval below leaf level")
    sl = J.leaf_slice(depth)
    phi_j, psi_j, w_j = phi.values[sl], psi.values[sl], w.values[sl]
    # <w>_J and <sigma>_J come from the weight's cached averages, the ones
    # a2_characteristic reads, so u*v here is bitwise one of the products
    # whose max defines Q and u*v <= Q holds in floating point, not just in
    # exact arithmetic
    avg = w._avg
    u = float(avg[0, J.heap_index])
    v = float(avg[1, J.heap_index])
    X = float(_mean(phi_j**2 * w_j))
    Y = float(_mean(psi_j**2 * w.sigma[sl]))
    x = float(_mean(phi_j))
    y = float(_mean(psi_j))
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
    # the key terms of J's subtree from J's leaves alone: heap averages are
    # built bottom up, so a subtree's are bitwise those of the whole tree
    da, db = _heap_diffs(heap_averages([phi_j * w_j, psi_j * (1.0 / w_j)]))
    local_sum = _subtree_sum(np.abs(da) * np.abs(db), J.level) / J.length
    return point, float(local_sum)

