"""Each formula with one implementation, against the duplicated code it
replaced, kept verbatim: the scalar lemma checks and node_pattern_check
(which made one pair of scalar segment checks per k), the exact mode (whose
full enumeration and fold each had a sign sweep, and whose full enumeration
had its own copy of _sigma_max_signed), and the three weighted form
builders (each restating the metrics).  Every report, exact result and form
operand must be byte-identical."""
import numpy as np
import pytest

from dyadlab import embedding, shifts
from dyadlab.bellman import (
    DEFAULT_K_GRID,
    BellmanPoint,
    LemmaReport,
    NodeSplit,
    _midpoint,
    _sample_strip,
    _segment_checks,
    _slack_points,
    barycenter_lemma_check,
    in_domain,
    node_pattern_check,
    sample_omega,
    segment_in_domain,
    triangle_lemma_check,
)
from dyadlab.forms import (
    FOLD_LIMIT,
    FULL_ENUM_LIMIT,
    AbsBilinearForm,
    FormResult,
    _form_operands,
    _psd_sqrt,
    _sign,
    _sign_sweep,
    _sign_table,
)
from dyadlab.shifts import ShiftOperator, ShiftSpec
from dyadlab.tree import (
    DomainError,
    IdentityOperator,
    StructureError,
    TwoValuedRowOperator,
    _haar_operator,
    _heap_levels,
)
from dyadlab.weights import gen_cascade, gen_power

# -- the lemma checks as they were ------------------------------------------


def segment_max_uv(p: BellmanPoint, q: BellmanPoint) -> float:
    """Max of u(t) v(t) along the segment (closed form)."""
    return float(_segment_checks(p.as_array(), q.as_array(), 0.0)[1])


def _triangle_strips(Q: float, batch: int, rng):
    """The strip samples of A, B and C, as three (2, batch) (u, v) arrays."""
    return [np.array(_sample_strip(Q, batch, rng)) for _ in range(3)]


def _triangle_draw(Q: float, batch: int, rng):
    """Three strip samples embedded as slack points."""
    return [_slack_points(*S) for S in _triangle_strips(Q, batch, rng)]


def reference_triangle_lemma_check(A: BellmanPoint, B: BellmanPoint, C: BellmanPoint,
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


def reference_barycenter_lemma_check(P1, P2, P3, P4, Q: float, k_grid=DEFAULT_K_GRID,
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


def reference_node_pattern_check(split: NodeSplit, Q: float, tol: float = 1e-12) -> dict:
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


# -- the exact mode and the form builders as they were ----------------------


class ReferenceForm(AbsBilinearForm):
    def exact_sup(self) -> FormResult:
        n1, n2 = self.m.shape
        if max(n1, n2) > FOLD_LIMIT:
            raise DomainError(
                f"exact mode limited to {FOLD_LIMIT} coefficients per side; "
                "use the alternating search instead"
            )
        zl = self.left_map / np.sqrt(self.left_metric)[None, :]
        zr = self.right_map / np.sqrt(self.right_metric)[None, :]
        w0 = zl @ zl.T
        g0 = zr @ zr.T
        if max(n1, n2) <= FULL_ENUM_LIMIT:
            return self._exact_full(zl, zr, w0, g0)
        return self._exact_fold(zl, zr, w0, g0)

    def _exact_full(self, zl, zr, w0, g0) -> FormResult:
        n1, n2 = self.m.shape
        s_tab = _sign_table(n1)
        t_tab = _sign_table(n2)
        best = (-1.0, 0, 0)
        for ti in range(t_tab.shape[0]):
            t = t_tab[ti]
            kt = self.m @ ((t[:, None] * t[None, :]) * g0) @ self.m.T
            kh = _psd_sqrt(kt)
            mats = (s_tab[:, :, None] * s_tab[:, None, :]) * w0[None, :, :]
            x = kh[None, :, :] @ mats @ kh[None, :, :]
            lam = np.linalg.eigvalsh(x)[:, -1]
            si = int(np.argmax(lam))
            if lam[si] > best[0]:
                best = (float(lam[si]), si, ti)
        lam, si, ti = best
        s = s_tab[si]
        t = t_tab[ti]
        c = zl.T @ (s[:, None] * self.m * t[None, :]) @ zr
        u, sig, vt = np.linalg.svd(c)
        f = u[:, 0] / np.sqrt(self.left_metric)
        g = vt[0] / np.sqrt(self.right_metric)
        # make the achieved form value carry the result, not the eigenvalue
        val = self.value(f, g)
        return FormResult(value=val, left=f, right=g, sign_left=s, sign_right=t,
                          upper_bound=float(np.sqrt(max(lam, 0.0))))

    def _exact_fold(self, zl, zr, w0, g0) -> FormResult:
        n1, n2 = self.m.shape
        e = self.m @ np.abs(g0) @ self.m.T
        eh = _psd_sqrt(e)
        s_tab = _sign_table(n1)
        best = (-1.0, 0)
        chunk = 4096
        for lo in range(0, s_tab.shape[0], chunk):
            s_chunk = s_tab[lo : lo + chunk]
            mats = (s_chunk[:, :, None] * s_chunk[:, None, :]) * w0[None, :, :]
            x = eh[None, :, :] @ mats @ eh[None, :, :]
            lam = np.linalg.eigvalsh(x)[:, -1]
            si = int(np.argmax(lam))
            if lam[si] > best[0]:
                best = (float(lam[si]), lo + si)
        lam, si = best
        s = s_tab[si]
        msym = zl.T @ ((s[:, None] * s[None, :]) * e) @ zl
        vals, vecs = np.linalg.eigh(msym)
        f = vecs[:, -1] / np.sqrt(self.left_metric)
        af = self.left_map @ f
        # polish the witnesses: alternating steps seeded from the fold's f,
        # plus a full multi-start search; keep the best achieved pair
        g, bg = self._argmax_right(af, None, None)
        for _ in range(4):
            f, af = self._argmax_left(bg, f, af)
            g, bg = self._argmax_right(af, g, bg)
        cand = self.search_sup(iters=60, seed=0, restarts=8)
        val = self._image_value(af, bg)
        if cand.value > val:
            f, g = cand.left, cand.right
            af, bg = self.left_map @ f, self.right_map @ g
            val = self._image_value(af, bg)
        return FormResult(value=val, left=f, right=g, sign_left=_sign(af), sign_right=_sign(bg),
                          upper_bound=float(np.sqrt(max(lam, 0.0))))


def reference_fold_sweep(eh, w0):
    """The sign sweep of _exact_fold as it was; also returns the index of s."""
    n1 = len(w0)
    s_tab = _sign_table(n1)
    best = (-1.0, 0)
    chunk = 4096
    for lo in range(0, s_tab.shape[0], chunk):
        s_chunk = s_tab[lo : lo + chunk]
        mats = (s_chunk[:, :, None] * s_chunk[:, None, :]) * w0[None, :, :]
        x = eh[None, :, :] @ mats @ eh[None, :, :]
        lam = np.linalg.eigvalsh(x)[:, -1]
        si = int(np.argmax(lam))
        if lam[si] > best[0]:
            best = (float(lam[si]), lo + si)
    lam, si = best
    s = s_tab[si]
    return lam, s, si


def reference_shift_form(spec, w) -> AbsBilinearForm:
    if w.depth != spec.depth:
        raise StructureError("weight depth must match the shift depth")
    m, h = _form_operands(spec.depth, ShiftOperator(spec), _haar_operator(spec.depth))
    scale = 2.0**-spec.depth
    return AbsBilinearForm(
        m=m,
        left_map=h,
        right_map=h,
        left_metric=w.values * scale,
        right_metric=(1.0 / w.values) * scale,
    )


def reference_key_sum_form(w) -> AbsBilinearForm:
    """sup over ||phi||_w = ||psi||_sigma = 1 of key_sum, as an AbsBilinearForm."""
    depth = w.depth
    scale = 2.0**-depth
    # Haar coefficients of phi w and psi sigma as linear maps of the leaf values
    m, left, right = _form_operands(
        depth, IdentityOperator((1 << depth) - 1),
        _haar_operator(depth, w.values), _haar_operator(depth, 1.0 / w.values))
    return AbsBilinearForm(
        m=m,
        left_map=left,
        right_map=right,
        left_metric=w.values * scale,
        right_metric=(1.0 / w.values) * scale,
    )


def reference_term1_form(w) -> AbsBilinearForm:
    """sup of the first decomposition term over the same unit balls."""
    depth = w.depth
    scale = 2.0**-depth
    sig_vals = w.sigma
    st = w

    def rows(k, mult):
        # (phi mult, h^mult_I) sqrt(<mult>_I) as a linear map of phi's leaf values
        root = np.sqrt(st._avg[k, : (1 << depth) - 1])
        levels = zip(_heap_levels(root * st._haar[0, k]), _heap_levels(root * st._haar[1, k]))
        return TwoValuedRowOperator(depth, *np.concatenate(list(levels), axis=-1), mult * scale)

    m, left, right = _form_operands(
        depth, IdentityOperator((1 << depth) - 1), rows(0, w.values), rows(1, sig_vals))
    return AbsBilinearForm(
        m=m,
        left_map=left,
        right_map=right,
        left_metric=w.values * scale,
        right_metric=sig_vals * scale,
    )


# -- inputs ------------------------------------------------------------------

QS = (1.0, 1.5, 3.0, 50.0, np.inf)
TOLS = (0.0, 1e-12)


def as_points(arr):
    """(6, n) coordinate-major array -> list of BellmanPoint."""
    return [BellmanPoint.from_array(col) for col in arr.T]


def triangle_inputs(Q, seed):
    """Slack-coordinate triples (the campaign's draws) and general members."""
    rng = np.random.default_rng(seed)
    q = min(Q, 50.0)  # the samplers need a finite Q
    slack = [as_points(a) for a in _triangle_draw(q, 80, rng)]
    general = [as_points(sample_omega(q, 40, rng).T) for _ in range(3)]
    return list(zip(*slack)) + list(zip(*general))


def barycenter_inputs(Q, seed):
    rng = np.random.default_rng(seed)
    q = min(Q, 50.0)
    pts = [as_points(sample_omega(q, 80, rng).T) for _ in range(4)]
    # quadruples near one member keep their barycenter inside more often
    base = sample_omega(q, 40, rng).T
    near = [as_points(base * (1.0 + 0.05 * rng.standard_normal(base.shape)))
            for _ in range(4)]
    return list(zip(*pts)) + list(zip(*near))


def triangle_max_uv(A, B, C):
    return max(segment_max_uv(C, A), segment_max_uv(C, B))


def barycenter_max_uv(*pts):
    P = BellmanPoint.from_array(np.mean([p.as_array() for p in pts], axis=0))
    return max(segment_max_uv(P, p) for p in pts)


def boundary_cases(cases, max_uv, ks=(1.0, 1.5, 2.0, 4.5)):
    """(case, Q) pairs whose k Q sits within tol below the max uv of the
    segments a lemma concludes about, or exactly on it."""
    out = []
    for case in cases:
        m = max_uv(*case)
        for k in ks:
            for q in ((m - 0.5e-12) / k, m / k):
                if q >= 1.0:
                    out.append((case, q))
    return out


def fingerprint(rep: LemmaReport):
    def num(x):
        return None if x is None else (type(x), float(x).hex())

    return (rep.lemma, type(rep.vacuous), rep.vacuous,
            [(num(k), type(ok), ok) for k, ok in rep.holds_at.items()],
            num(rep.min_k_holding), num(rep.needed_k))


def node_fingerprint(out: dict):
    return [(key, type(v), v) for key, v in out.items()]


# -- lemma checks and node checks --------------------------------------------


def min_ks(reports):
    return {rep.min_k_holding for rep in reports if not rep.vacuous}


@pytest.mark.parametrize("Q", QS)
def test_triangle_check_byte_identical(Q):
    reports = []
    for case in triangle_inputs(Q, 1):
        for tol in TOLS:
            reports.append(triangle_lemma_check(*case, Q, tol=tol))
            want = reference_triangle_lemma_check(*case, Q, tol=tol)
            assert fingerprint(reports[-1]) == fingerprint(want)
    # no draw meets the premises at Q = 1; at a finite Q > 1 some reports
    # hold from k = 1 on and some only from a larger k
    assert bool(min_ks(reports)) == (Q > 1.0)
    if 1.0 < Q < np.inf:
        assert 1.0 in min_ks(reports) and len(min_ks(reports)) > 1


@pytest.mark.parametrize("Q", QS)
def test_barycenter_check_byte_identical(Q):
    reports = []
    for case in barycenter_inputs(Q, 2):
        for tol in TOLS:
            reports.append(barycenter_lemma_check(*case, Q, tol=tol))
            want = reference_barycenter_lemma_check(*case, Q, tol=tol)
            assert fingerprint(reports[-1]) == fingerprint(want)
    assert bool(min_ks(reports)) == (Q > 1.0)


@pytest.mark.parametrize("Q", QS)
def test_node_check_byte_identical(Q):
    members = 0
    for case in barycenter_inputs(Q, 3):
        split = NodeSplit.from_grandchildren(*case)
        for tol in TOLS:
            got = node_fingerprint(node_pattern_check(split, Q, tol))
            assert got == node_fingerprint(reference_node_pattern_check(split, Q, tol))
            members += got[0][2]
    assert (members > 0) == (Q > 1.0)


def test_checks_on_the_k_boundary_byte_identical():
    # Q chosen so that k Q + tol just covers the max uv: a needed-k test in
    # place of max uv <= k Q + tol reads these differently
    triangles = [c for c in triangle_inputs(50.0, 5)
                 if not triangle_lemma_check(*c, 50.0).vacuous][:40]
    bary = [c for c in barycenter_inputs(50.0, 6)
            if not barycenter_lemma_check(*c, 50.0).vacuous][:40]
    assert len(triangles) == len(bary) == 40
    flipped = 0
    for check, reference, cases, uv in (
            (triangle_lemma_check, reference_triangle_lemma_check, triangles, triangle_max_uv),
            (barycenter_lemma_check, reference_barycenter_lemma_check, bary,
             barycenter_max_uv)):
        for case, q in boundary_cases(cases, uv):
            for tol in TOLS:
                got = check(*case, q, tol=tol)
                assert fingerprint(got) == fingerprint(reference(*case, q, tol=tol))
                flipped += any(ok != (got.needed_k is not None and got.needed_k <= k)
                               for k, ok in got.holds_at.items())
    assert flipped > 0


@pytest.mark.parametrize("check, reference, n_points", [
    (triangle_lemma_check, reference_triangle_lemma_check, 3),
    (barycenter_lemma_check, reference_barycenter_lemma_check, 4),
])
@pytest.mark.parametrize("Q", [0.5, float("nan")])
def test_bad_q_same_error(check, reference, n_points, Q):
    pts = [BellmanPoint(1.0, 1.0, 0.0, 0.0, 1.0, 1.0)] * n_points
    messages = []
    for run in (check, reference):
        with pytest.raises(DomainError) as info:
            run(*pts, Q)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# -- forms ---------------------------------------------------------------------

BUILDERS = {
    "key_sum": (embedding.key_sum_form, reference_key_sum_form),
    "term1": (embedding.term1_form, reference_term1_form),
    "shift0": (lambda w: shifts.shift_form(ShiftSpec.constant(0, w.depth), w),
               lambda w: reference_shift_form(ShiftSpec.constant(0, w.depth), w)),
    "shift1": (lambda w: shifts.shift_form(ShiftSpec.random(1, w.depth, 7), w),
               lambda w: reference_shift_form(ShiftSpec.random(1, w.depth, 7), w)),
}


def weight(family: str, depth: int):
    return gen_power(depth, 0.8) if family == "power" else gen_cascade(depth, 0.7, 2)


def assert_same_operand(a, b, rng):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        return
    assert a.shape == b.shape
    x = rng.standard_normal(a.shape[1])
    y = rng.standard_normal(a.shape[0])
    assert (a @ x).tobytes() == (b @ x).tobytes()
    assert (y @ a).tobytes() == (y @ b).tobytes()


@pytest.mark.parametrize("family", ("power", "cascade"))
@pytest.mark.parametrize("kind", BUILDERS)
@pytest.mark.parametrize("depth", range(1, 11))
def test_form_operands_byte_identical(depth, kind, family):
    build, reference = BUILDERS[kind]
    w = weight(family, depth)
    got, want = build(w), reference(w)
    rng = np.random.default_rng(depth)
    for name in ("m", "left_map", "right_map", "left_metric", "right_metric"):
        assert_same_operand(getattr(got, name), getattr(want, name), rng)


def assert_same_result(got: FormResult, ref: FormResult) -> None:
    assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()
    for name in ("left", "right", "sign_left", "sign_right"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert type(got.upper_bound) is type(ref.upper_bound)
    assert got.upper_bound == ref.upper_bound


@pytest.mark.parametrize("n", (1, 4, 7, 14))
def test_sign_sweep_byte_identical(n):
    rng = np.random.default_rng(n)
    later_chunk = 0
    for _ in range(3):
        a, b = rng.standard_normal((2, n, n))
        w0, eh = a @ a.T, _psd_sqrt(b @ b.T)
        lam, s, si = reference_fold_sweep(eh, w0)
        got_lam, got_s = _sign_sweep(eh, w0)
        assert type(got_lam) is float and got_lam.hex() == lam.hex()
        assert got_s.dtype == s.dtype and got_s.tobytes() == s.tobytes()
        later_chunk += si >= 4096
    # s and -s give the same value, and the first of them lies in the first
    # half of the table, so only n = 14 reaches a second chunk of 4096
    assert (later_chunk > 0) == (n == 14)


# the depth-4 fold runs a full search; test_search_reference.py checks the
# shift forms' fold there
EXACT_CASES = [(depth, kind, family) for depth in range(1, 4) for kind in BUILDERS
               for family in ("power", "cascade")] + [(4, "key_sum", "cascade"),
                                                      (4, "term1", "cascade")]


@pytest.mark.parametrize("depth, kind, family", EXACT_CASES)
def test_exact_sup_byte_identical(depth, kind, family):
    form = BUILDERS[kind][0](weight(family, depth))
    ref = ReferenceForm(form.m, form.left_map, form.right_map,
                        form.left_metric, form.right_metric)
    assert_same_result(form.exact_sup(), ref.exact_sup())
