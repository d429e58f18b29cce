"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion N] PASS` line with its headline numbers once
its assertions have all passed, so a `pytest -v` run doubles as the release
report.  Tolerances, trial counts, and runtime budgets are stated inline.
"""
import time

import numpy as np
import pytest

from dyadlab.bellman import (
    BellmanPoint,
    DpEstimator,
    dp_estimate,
    in_domain,
    point_from_data,
    run_barycenter_campaign,
    run_triangle_campaign,
    sample_omega,
    segment_in_domain,
)
from dyadlab.cli import fit_slope
from dyadlab.embedding import (
    carleson_box_check,
    carleson_measure_of,
    carleson_norm,
    duality_product,
    four_terms,
    key_sum,
    key_sum_form,
    term1_form,
)
from dyadlab.shifts import (
    ShiftSpec,
    norm_exact_small,
    norm_lower_search,
)
from dyadlab.tree import (
    DyadicIndex,
    LeafFunction,
    haar_analysis,
    haar_analysis_matrix,
    haar_synthesis,
    level_averages,
    n_internal,
)
from dyadlab.weights import (
    Weight,
    a2_characteristic,
    gen_cascade,
    gen_power,
    haar_split_levels,
)


@pytest.fixture
def report(capsys):
    def _report(msg):
        with capsys.disabled():
            print(msg)

    return _report


def _elapsed_ok(t0, budget, label):
    dt = time.monotonic() - t0
    assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"
    return dt


def test_criterion_1_exactness_floor(report):
    """Unweighted exactness: Parseval round-trip, Haar Gram identity, and the
    exhaustive martingale-transform norm, all at depth <= 4 in under 10 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_parseval = 0.0
    worst_gram = 0.0
    for depth in range(1, 5):
        n = 1 << depth
        for _ in range(25):
            f = LeafFunction(rng.standard_normal(n) * 5.0)
            g = haar_synthesis(haar_analysis(f))
            scale = max(1.0, float(np.max(np.abs(f.values))))
            worst_parseval = max(
                worst_parseval, float(np.max(np.abs(g.values - f.values))) / scale
            )
            e = haar_analysis(f)
            lhs = float(np.mean(f.values**2))
            rhs = e.mean**2 + sum(c * c for c in e.coefficients)
            worst_parseval = max(worst_parseval, abs(lhs - rhs) / max(1.0, lhs))
        h = haar_analysis_matrix(depth)
        gram = h @ h.T * (1 << depth)
        worst_gram = max(
            worst_gram, float(np.max(np.abs(gram - np.eye(n_internal(depth)))))
        )
    assert worst_parseval < 1e-10
    assert worst_gram < 1e-12

    worst_mt = 0.0
    for depth in range(1, 5):
        w = Weight(LeafFunction.constant(depth, 1.0))
        spec = ShiftSpec.constant(0, depth, 1.0)
        est = norm_exact_small(spec, w)
        worst_mt = max(worst_mt, abs(est.value - 1.0))
    assert worst_mt < 1e-6

    dt = _elapsed_ok(t0, 10.0, "criterion 1")
    report(
        f"[criterion 1] PASS - parseval {worst_parseval:.2e} (<1e-10), "
        f"gram {worst_gram:.2e} (<1e-12), MT norm off by {worst_mt:.2e} "
        f"(<1e-6), {dt:.1f}s"
    )


def test_criterion_2_weighted_haar_split(report):
    """Splitting h_I into its weighted-Haar part plus a constant: the
    reconstruction identity, the |alpha| <= sqrt(<w>_I) bound, and the
    beta-ratio cap over 10^4 (cascade weight, interval) pairs, depth <= 10."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    pairs = 0
    worst_recon = 0.0
    alpha_violations = 0
    max_beta_ratio = 0.0
    while pairs < 10_000:
        depth = int(rng.integers(1, 11))
        w = gen_cascade(depth, float(rng.uniform(0.05, 0.85)),
                        int(rng.integers(1 << 30)))
        avgs = level_averages(w.values)
        for lev, (alpha, beta) in enumerate(haar_split_levels(w)):
            L = 2.0**-lev
            sL = np.sqrt(L)
            wl = avgs[lev + 1][0::2]
            wr = avgs[lev + 1][1::2]
            a = np.sqrt(2.0 * wr / (L * wl * (wl + wr)))
            b = -a * wl / wr
            # h_I equals alpha h_I^w + beta chi_I / sqrt|I| on both halves
            left = alpha * a + beta / sL
            right = alpha * b + beta / sL
            worst_recon = max(
                worst_recon,
                float(np.max(np.abs(left * sL - 1.0))),
                float(np.max(np.abs(right * sL + 1.0))),
            )
            mean_w = (wl + wr) / 2.0
            alpha_violations += int(np.sum(alpha * alpha > mean_w))
            delta_w = (wl - wr) / 2.0
            nz = delta_w != 0.0
            if np.any(nz):
                ratios = np.abs(beta[nz]) * mean_w[nz] / np.abs(delta_w[nz])
                max_beta_ratio = max(max_beta_ratio, float(np.max(ratios)))
            pairs += wl.size
    assert worst_recon < 1e-12
    assert alpha_violations == 0
    assert max_beta_ratio <= 1.0 + 1e-9
    # the depth-1 example w = (1, 1/2) attains the beta-ratio cap exactly
    ex = haar_split_levels(Weight.from_values([1.0, 0.5]))[0]
    ex_ratio = abs(ex[1][0]) * 0.75 / 0.25
    assert ex_ratio == pytest.approx(1.0, abs=1e-12)

    dt = _elapsed_ok(t0, 30.0, "criterion 2")
    report(
        f"[criterion 2] PASS - {pairs} pairs, reconstruction {worst_recon:.2e} "
        f"(<1e-12), alpha violations {alpha_violations}, max beta-ratio "
        f"{max_beta_ratio:.12f} (<=1+1e-9), {dt:.1f}s"
    )


def test_criterion_3_carleson_scaling(report):
    """carleson_norm over power and cascade families at depth 8: ratio to Q
    bounded, log-log slope <= 1.05 on the large-Q regime, exact two-leaf
    oracle."""
    t0 = time.monotonic()
    weights = [gen_power(8, a) for a in np.concatenate(
        [np.arange(0.1, 0.95, 0.1), -np.arange(0.1, 0.95, 0.1)])]
    rng = np.random.default_rng(303)
    # eccentric cascades populate the large-Q regime where the power-law
    # fit is well posed (see the slope note below)
    weights += [gen_cascade(8, float(rng.uniform(0.3, 0.9)), s)
                for s in range(200)]
    qs = np.array([a2_characteristic(w).characteristic for w in weights])
    norms = np.array([carleson_norm(carleson_measure_of(w)) for w in weights])
    ratios = norms / qs
    assert np.all(np.isfinite(ratios))
    max_ratio = float(np.max(ratios))
    assert max_ratio <= 1.05

    # the norm tracks Q - 1, so the literal log-log slope vs Q degenerates
    # as Q -> 1; the slope assertion targets the large-Q regime and the
    # Q - 1 fit is reported alongside for the full range
    big = qs >= 10.0
    assert int(np.sum(big)) >= 30
    slope_big, _, r2_big = fit_slope(list(zip(qs[big], norms[big])))
    assert slope_big <= 1.05
    slope_all, _, r2_all = fit_slope(list(zip(qs, norms)))
    keep = qs > 1.0 + 1e-9
    slope_qm1, _, r2_qm1 = fit_slope(list(zip(qs[keep] - 1.0, norms[keep])))

    w0 = Weight.from_values([4.0, 0.25])
    assert carleson_norm(carleson_measure_of(w0)) == 225.0 / 64.0
    assert a2_characteristic(w0).characteristic == 289.0 / 64.0

    dt = _elapsed_ok(t0, 60.0, "criterion 3")
    report(
        f"[criterion 3] PASS - max norm/Q {max_ratio:.3f}, slope vs Q "
        f"(Q>=10, n={int(np.sum(big))}) {slope_big:.3f} (<=1.05, "
        f"r2={r2_big:.5f}); full range: vs Q {slope_all:.3f} "
        f"(r2={r2_all:.3f}), vs Q-1 {slope_qm1:.4f} (r2={r2_qm1:.5f}); "
        f"oracle exact, {dt:.1f}s"
    )


def test_criterion_4_key_sum_decomposition(report):
    """key_sum <= I+II+III+IV on 10^4 random inputs; form-norm slopes vs Q
    at depth 6 (key <= 1.05, term I <= 0.55) with the search estimator
    calibrated to <= 1% of exhaustive mode at depth <= 3."""
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(10_000):
        depth = int(rng.integers(1, 9))
        n = 1 << depth
        w = gen_cascade(depth, float(rng.uniform(0.05, 0.85)),
                        int(rng.integers(1 << 30)))
        phi = LeafFunction(rng.standard_normal(n) * 3.0)
        psi = LeafFunction(rng.standard_normal(n) * 3.0)
        ks = key_sum(phi, psi, w)
        tot = four_terms(phi, psi, w).total()
        if ks > tot * (1.0 + 1e-12) + 1e-15:
            violations += 1
    assert violations == 0

    # calibration of the alternating search against exhaustive mode
    worst_cal = 0.0
    for depth in (2, 3):
        for s in range(3):
            w = gen_cascade(depth, 0.5, 1000 + s)
            for form in (key_sum_form(w), term1_form(w)):
                exact = form.exact_sup().value
                found = form.search_sup(iters=40, seed=s, restarts=6).value
                worst_cal = max(worst_cal, abs(found - exact) / exact)
    assert worst_cal <= 0.01

    pairs_key = []
    pairs_t1 = []
    for a in np.arange(0.1, 0.95, 0.1):
        w = gen_power(6, float(a))
        q = a2_characteristic(w).characteristic
        pairs_key.append((q, key_sum_form(w).search_sup(
            iters=40, seed=0, restarts=6).value))
        pairs_t1.append((q, term1_form(w).search_sup(
            iters=40, seed=0, restarts=6).value))
    slope_key, _, r2_key = fit_slope(pairs_key)
    slope_t1, _, r2_t1 = fit_slope(pairs_t1)
    assert slope_key <= 1.05
    assert slope_t1 <= 0.55

    dt = _elapsed_ok(t0, 120.0, "criterion 4")
    report(
        f"[criterion 4] PASS - decomposition violations {violations}/10000, "
        f"calibration {worst_cal:.2e} (<=1%), key slope {slope_key:.3f} "
        f"(<=1.05, r2={r2_key:.4f}), term-I slope {slope_t1:.3f} "
        f"(<=0.55, r2={r2_t1:.4f}), {dt:.1f}s"
    )


def test_criterion_5_shift_norm_scaling(report):
    """Weighted form norms of the complexity-0 and complexity-1 shifts with
    c == 1: slope vs Q <= 1.05 at depth 6; exhaustive and search modes agree
    to 1e-6 on 50 small random instances."""
    t0 = time.monotonic()
    slopes = {}
    for cx in (0, 1):
        spec = ShiftSpec.constant(cx, 6, 1.0)
        pairs = []
        for a in np.arange(0.1, 0.95, 0.1):
            w = gen_power(6, float(a))
            q = a2_characteristic(w).characteristic
            est = norm_lower_search(spec, w, iters=40, seed=0, restarts=6)
            pairs.append((q, est.value))
        slope, _, r2 = fit_slope(pairs)
        slopes[cx] = (slope, r2)
        assert slope <= 1.05

    rng = np.random.default_rng(505)
    worst_gap = 0.0
    for k in range(50):
        depth = int(rng.integers(2, 4))
        cx = int(rng.integers(0, depth))
        spec = ShiftSpec.random(cx, depth, int(rng.integers(1 << 30)))
        w = gen_cascade(depth, float(rng.uniform(0.1, 0.7)),
                        int(rng.integers(1 << 30)))
        exact = norm_exact_small(spec, w).value
        found = norm_lower_search(spec, w, iters=60, seed=k, restarts=8).value
        worst_gap = max(worst_gap, abs(found - exact) / max(1.0, exact))
    assert worst_gap < 1e-6

    dt = _elapsed_ok(t0, 120.0, "criterion 5")
    report(
        f"[criterion 5] PASS - slope SH0 {slopes[0][0]:.3f} "
        f"(r2={slopes[0][1]:.4f}), SH1 {slopes[1][0]:.3f} "
        f"(r2={slopes[1][1]:.4f}) (<=1.05); exact/search gap {worst_gap:.2e} "
        f"(<1e-6, 50 instances), {dt:.1f}s"
    )


def test_criterion_6_domain_geometry(report):
    """Both convexity-repair lemmas over >= 10^5 premise-valid trials each,
    the segment closed form against a dense oracle on 10^4 segments, and the
    hyperbola-chord boundary example."""
    t0 = time.monotonic()
    tri = run_triangle_campaign(Q=3.0, valid_trials=100_000, seed=601)
    bar = run_barycenter_campaign(Q=3.0, valid_trials=100_000, seed=602)
    assert tri.trials_valid >= 100_000 and tri.violations == 0
    assert bar.trials_valid >= 100_000 and bar.violations == 0

    Q = 6.0
    rng = np.random.default_rng(603)
    pts = sample_omega(Q, 20_000, rng, boundary_prob=0.0)
    n_samples = 10_001
    dt_seg = 1.0 / (n_samples - 1)
    ts = np.linspace(0.0, 1.0, n_samples)[:, None]
    tol = 1e-9
    disagreements = 0
    undecided = 0
    for i in range(10_000):
        pa, qa = pts[2 * i], pts[2 * i + 1]
        closed = segment_in_domain(
            BellmanPoint.from_array(pa), BellmanPoint.from_array(qa), Q, tol=tol
        )
        d = qa - pa
        sampled = pa[None, :] + ts * d[None, :]
        X, Y, x, y, u, v = (sampled[:, j] for j in range(6))
        dense = max(
            np.max(x * x - X * v), np.max(y * y - Y * u),
            np.max(u * v - Q), np.max(1.0 - u * v),
        )
        # the dense verdict is decisive only outside the sampling-resolution
        # band: a quadratic vertex is missed by at most |f''|/2 (dt/2)^2,
        # plus fp noise proportional to the constraint magnitudes
        curv = max(d[2] ** 2 + abs(d[0] * d[5]),
                   d[3] ** 2 + abs(d[1] * d[4]), abs(d[4] * d[5]))
        mag = max(np.max(np.abs(X * v)), np.max(np.abs(Y * u)),
                  np.max(np.abs(u * v)), Q)
        band = curv * (dt_seg / 2.0) ** 2 + 1e-12 * mag
        if abs(dense - tol) <= band:
            undecided += 1
            continue
        if closed != (dense <= tol):
            disagreements += 1
    assert disagreements == 0
    assert undecided == 0  # interior sampling keeps every verdict decisive

    # chord of the hyperbola uv = Q from (u,v) = (1,Q) to (Q,1): midpoint
    # product (1+Q)^2/4 exceeds 3 for Q = 3 but not 4 for Q = 4 at Q = 3
    q3 = 3.0
    p = BellmanPoint(X=q3, Y=q3, x=0.0, y=0.0, u=1.0, v=q3)
    q = BellmanPoint(X=q3, Y=q3, x=0.0, y=0.0, u=q3, v=1.0)
    mid = BellmanPoint(X=q3, Y=q3, x=0.0, y=0.0,
                       u=(1.0 + q3) / 2.0, v=(1.0 + q3) / 2.0)
    assert mid.u * mid.v == (1.0 + q3) ** 2 / 4.0
    assert in_domain(p, q3) and in_domain(q, q3)
    assert not in_domain(mid, q3)
    assert not segment_in_domain(p, q, q3)
    assert in_domain(mid, 4.0)
    assert segment_in_domain(p, q, 4.0)

    dt = _elapsed_ok(t0, 60.0, "criterion 6")
    report(
        f"[criterion 6] PASS - triangle {tri.trials_valid} trials "
        f"(max needed k {tri.max_needed_k:.3f} <= 4.5), barycenter "
        f"{bar.trials_valid} trials (max needed k {bar.max_needed_k:.3f} "
        f"<= 40), segment oracle 10000 segments 0 disagreements, "
        f"chord example exact, {dt:.1f}s"
    )


def test_criterion_7_bellman_dp(report):
    """DP estimator: exact base cases, monotonicity in depth and samples,
    depth-8 vs depth-12 stability of the (B1) ratio within 10%, and 10^4
    zero-tolerance membership checks on dyadic-data points."""
    t0 = time.monotonic()
    p0 = BellmanPoint(1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    assert dp_estimate(p0, 2.0, 0, 4, 0) == 0.0
    assert dp_estimate(p0, 2.0, 1, 4, 0) == 1.0

    rng = np.random.default_rng(701)
    pts = [BellmanPoint.from_array(row) for row in sample_omega(4.0, 8, rng)]
    est = DpEstimator(Q=4.0, samples=3, seed=0)
    for p in pts[:3]:
        vals = [est.estimate(p, d) for d in range(7)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        by_samples = [
            DpEstimator(Q=4.0, samples=s, seed=0).estimate(p, 5)
            for s in (1, 3, 6)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(by_samples, by_samples[1:]))

    c8 = max(est.b1_ratio(p, 8) for p in pts)
    c12 = max(est.b1_ratio(p, 12) for p in pts)
    rel = abs(c12 - c8) / c8
    assert np.isfinite(c8) and np.isfinite(c12)
    assert rel <= 0.10

    rng = np.random.default_rng(702)
    violations = 0
    for _ in range(10_000):
        depth = int(rng.integers(1, 7))
        n = 1 << depth
        w = gen_cascade(depth, float(rng.uniform(0.05, 0.85)),
                        int(rng.integers(1 << 30)))
        phi = LeafFunction(rng.standard_normal(n) * 3.0)
        psi = LeafFunction(rng.standard_normal(n) * 3.0)
        lev = int(rng.integers(0, depth + 1))
        J = DyadicIndex(lev, int(rng.integers(1 << lev)))
        q = a2_characteristic(w).characteristic
        point, _ = point_from_data(phi, psi, w, J)
        if not in_domain(point, q, tol=0.0):
            violations += 1
    assert violations == 0

    dt = _elapsed_ok(t0, 180.0, "criterion 7")
    report(
        f"[criterion 7] PASS - base cases exact, monotone, C_emp "
        f"d8={c8:.4f} vs d12={c12:.4f} (rel {rel:.2%} <= 10%), membership "
        f"violations {violations}/10000 at zero tolerance, {dt:.1f}s"
    )


def test_criterion_8_box_sum_and_duality(report):
    """Box-sum bound lhs <= rhs on 10^4 random inputs with zero violations;
    the maximal-function duality ratio stays finite and is recorded."""
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    violations = 0
    max_duality = 0.0
    for _ in range(10_000):
        depth = int(rng.integers(1, 7))
        n = 1 << depth
        w = gen_cascade(depth, float(rng.uniform(0.05, 0.85)),
                        int(rng.integers(1 << 30)))
        phi = LeafFunction(rng.standard_normal(n) * 3.0)
        psi = LeafFunction(rng.standard_normal(n) * 3.0)
        lhs, rhs = carleson_box_check(phi, psi, w)
        if lhs > rhs * (1.0 + 1e-12) + 1e-15:
            violations += 1
        r = duality_product(phi, psi, w).ratio
        assert np.isfinite(r)
        max_duality = max(max_duality, r)
    assert violations == 0
    assert np.isfinite(max_duality)

    dt = _elapsed_ok(t0, 60.0, "criterion 8")
    report(
        f"[criterion 8] PASS - box-sum violations {violations}/10000, max "
        f"duality ratio {max_duality:.3f} (finite), {dt:.1f}s"
    )
