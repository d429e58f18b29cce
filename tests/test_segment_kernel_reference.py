"""The segment kernel and the triangle campaign's strip premise against the
code they replaced, kept verbatim: _quad_max_01 computed the vertex on
every entry, _segment_checks made fancy-index copies for positivity, and
the triangle premise ran the six-coordinate kernel on slack points.  Every
value and mask must be byte-identical, NaN, infinities, signed zeros and
0-d inputs included."""
import itertools

import numpy as np
import pytest

from dyadlab.bellman import (
    CAMPAIGN_TOL,
    _median_premise,
    _quad_max_01,
    _segment_checks,
    _slack_points,
    _strip_segments_ok,
    _triangle_sampler,
)

# -- the kernel as it was ------------------------------------------------------


def reference_quad_max_01(g0, g1, g2, g_end):
    """Max of g(t) = g0 + g1 t + g2 t^2 over t in [0, 1], elementwise, where
    g_end = g(1) as computed from the segment's end point itself."""
    best = np.maximum(g0, g_end)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(g2 < 0.0, -g1 / (2.0 * g2), -1.0)
    interior = (t > 0.0) & (t < 1.0)
    vertex = g0 + g1 * t + g2 * t * t
    return np.where(interior & (g2 < 0.0), np.maximum(best, vertex), best)


def reference_segment_checks(p: np.ndarray, q: np.ndarray, tol: float):
    X, Y, x, y, u, v = p
    qX, qY, qx, qy, qu, qv = q
    dX, dY, dx, dy, du, dv = q - p
    pos = np.all((p[[0, 1, 4, 5]] > 0.0) & (q[[0, 1, 4, 5]] > 0.0), axis=0)
    # x(t)^2 - X(t) v(t) and y(t)^2 - Y(t) u(t)
    cap_x = reference_quad_max_01(x * x - X * v, 2 * x * dx - (X * dv + v * dX),
                                  dx * dx - dX * dv, qx * qx - qX * qv)
    cap_y = reference_quad_max_01(y * y - Y * u, 2 * y * dy - (Y * du + u * dY),
                                  dy * dy - dY * du, qy * qy - qY * qu)
    # u(t) v(t)
    g0, g1, g2, g_end = u * v, u * dv + v * du, du * dv, qu * qv
    caps_ok = (pos & (cap_x <= tol) & (cap_y <= tol)
               & (reference_quad_max_01(1.0 - g0, -g1, -g2, 1.0 - g_end) <= tol))
    return caps_ok, reference_quad_max_01(g0, g1, g2, g_end)


def reference_segments_in_domain_arr(P: np.ndarray, R: np.ndarray, Q: float, tol: float = 0.0):
    caps_ok, max_uv = reference_segment_checks(P.T, R.T, tol)
    return caps_ok & (max_uv <= Q + tol)


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


def reference_sample_strip(Q: float, n: int, rng, log_spread: float = np.log(10.0)):
    P = np.exp(rng.uniform(0.0, np.log(Q), size=n)) if Q > 1 else np.ones(n)
    h = rng.uniform(-log_spread, log_spread, size=n)
    u = np.sqrt(P) * np.exp(h)
    return u, P / u


def reference_triangle_premise(pts, Q: float, tol: float):
    A, B, C = pts
    return (reference_segments_in_domain_arr(A, B, Q, tol)
            & reference_segments_in_domain_arr(C, (A + B) / 2.0, Q, tol))


def same(got, want) -> bool:
    """Same type, shape and bytes."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


# -- _quad_max_01 ----------------------------------------------------------------

TINY = 5e-324  # the smallest subnormal
SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0, TINY, -TINY, 1e-310, 1.0, -1.0, 0.5, -0.5,
           2.0, -3.0, 1e-300, -1e300, 1e308, -1e308)


def special_grid():
    """Every 4-tuple of special values, one per column."""
    return np.array(list(itertools.product(SPECIAL, repeat=4))).T.copy()


def test_quad_max_special_values():
    g = special_grid()
    with np.errstate(all="ignore"):
        got, want = _quad_max_01(*g), reference_quad_max_01(*g)
        t = -g[1] / (2.0 * g[2])
    assert same(got, want)
    # the grid reaches the vertex inside and t rounded to 0
    inside = (g[2] < 0.0) & (t > 0.0) & (t < 1.0)
    assert inside.any() and ((g[2] < 0) & (g[1] > 0) & (t == 0.0)).any()
    assert (want[inside] > np.maximum(g[0], g[3])[inside]).any()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_quad_max_random(seed, scale):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 5000)) * scale
    g[3] = g[0] + g[1] + g[2] + rng.standard_normal(5000) * scale * 1e-12
    # exact-t cases: g1 = -g2 gives t = 1/2, g1 = -2 g2 gives t = 1
    g[1, :100] = -g[2, :100]
    g[1, 100:200] = -2.0 * g[2, 100:200]
    assert same(_quad_max_01(*g), reference_quad_max_01(*g))


def test_quad_max_strided_rows():
    # the kernel reads rows of (n, 6) arrays through .T, which are strided
    rng = np.random.default_rng(3)
    P = rng.standard_normal((3000, 8))
    rows = [P.T[i] for i in range(4)]
    assert not rows[0].flags.c_contiguous
    assert same(_quad_max_01(*rows), reference_quad_max_01(*rows))


@pytest.mark.parametrize("zero_d", [np.float64, np.array])
def test_quad_max_zero_d(zero_d):
    # the scalar checks pass (6,) points, whose rows are numpy scalars
    g = special_grid()
    with np.errstate(all="ignore"):
        for col in g.T[::7]:
            args = [zero_d(c) for c in col]
            assert same(_quad_max_01(*args), reference_quad_max_01(*args)), col


# -- _segment_checks -------------------------------------------------------------


def general_points(rng, n):
    """(6, n) points of mixed size: X, Y, u, v mostly positive, x, y of
    either sign, and a few negative or special coordinates."""
    p = np.abs(rng.standard_normal((6, n))) * np.exp(rng.uniform(-3.0, 3.0, (6, n)))
    p[2:4] *= rng.choice([-1.0, 1.0], size=(2, n))
    p[rng.random((6, n)) < 0.02] *= -1.0
    special = rng.random((6, n)) < 0.02
    p[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return p


@pytest.mark.parametrize("tol", [0.0, 1e-12, -1e-9, 1e3])
def test_segment_checks_general_points(tol):
    rng = np.random.default_rng(21)
    p, q = general_points(rng, 4000), general_points(rng, 4000)
    with np.errstate(all="ignore"):
        got, want = _segment_checks(p, q, tol), reference_segment_checks(p, q, tol)
        assert all(same(g, w) for g, w in zip(got, want))
        assert want[0].any() and not want[0].all()
        for i in range(0, 4000, 97):  # (6,) points, as the scalar checks pass
            got = _segment_checks(p[:, i], q[:, i], tol)
            want = reference_segment_checks(p[:, i], q[:, i], tol)
            assert all(same(g, w) for g, w in zip(got, want)), i


# -- the strip premise -------------------------------------------------------------

STRIP_Q = [1.0, 1.5, 50.0]
STRIP_TOLS = [CAMPAIGN_TOL]  # the one tol the strip premise runs at
UV_SPECIAL = (0.0, -0.0, -1.0, -1e-3, np.nan, np.inf)


def strip_pairs(Q, rng, n=6000):
    """(2, n) (u, v) arrays: strip samples, a fifth of them spread so wide
    that u or v can be below 1e-15, points just off the strip, and zero,
    negative and nan entries."""
    spread = np.where(rng.random(n) < 0.2, 40.0, np.log(10.0))
    u = np.exp(rng.uniform(-spread, spread))
    v = np.exp(rng.uniform(0.0, np.log(Q) if Q > 1 else 0.0, n)) / u
    off = rng.random(n) < 0.2
    v[off] *= 1.0 + 1e-9 * rng.standard_normal(int(off.sum()))
    special = rng.random((2, n)) < 0.03
    uv = np.array([u, v])
    uv[special] = rng.choice(UV_SPECIAL, size=int(special.sum()))
    return uv


@pytest.mark.parametrize("Q", STRIP_Q)
@pytest.mark.parametrize("tol", STRIP_TOLS)
def test_strip_segments_match_slack_points(Q, tol):
    rng = np.random.default_rng(5)
    p, q = strip_pairs(Q, rng), strip_pairs(Q, rng)
    with np.errstate(all="ignore"):
        got = _strip_segments_ok(p, q, Q)
        want = reference_segments_in_domain_arr(reference_slack_points(*p),
                                                reference_slack_points(*q), Q, tol)
    assert got.dtype == bool and got.tobytes() == want.tobytes()
    if Q > 1:
        assert 0 < want.sum() < want.size


@pytest.mark.parametrize("Q", STRIP_Q)
@pytest.mark.parametrize("tol", STRIP_TOLS)
def test_median_premise_on_strips(Q, tol):
    # the premise on (u, v) rows against the full premise on slack points
    rng = np.random.default_rng(8)
    strips = [strip_pairs(Q, rng) for _ in range(3)]
    with np.errstate(all="ignore"):
        got = _median_premise(strips, Q)
        want = reference_triangle_premise([reference_slack_points(*S) for S in strips], Q, tol)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("Q", STRIP_Q)
@pytest.mark.parametrize("tol", STRIP_TOLS)
def test_triangle_sampler_every_tol(Q, tol):
    # the campaign's draw against the reference draw, premise and take
    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    draw = _triangle_sampler(Q, 4000)
    for _ in range(2):
        rows, got = draw(rng)
        pts = [reference_slack_points(*reference_sample_strip(Q, 4000, ref_rng))
               for _ in range(3)]
        take = np.nonzero(reference_triangle_premise(pts, Q, tol))[0]
        assert rows.tobytes() == take.tobytes()
        for g, w in zip(got, pts):
            assert g.shape == (6, take.size) and g.T.tobytes() == w[take].tobytes()
        assert rng.random() == ref_rng.random()


def test_slack_points_for_valid_rows_only(monkeypatch):
    # the sampler embeds just the premise-valid rows as slack points
    from dyadlab import bellman
    widths = []

    def recording(u, v):
        widths.append(u.size)
        return _slack_points(u, v)

    monkeypatch.setattr(bellman, "_slack_points", recording)
    rows, _ = _triangle_sampler(1.5, 40000)(np.random.default_rng(0))
    assert widths == [rows.size] * 3 and 0 < rows.size < 40000 // 5
