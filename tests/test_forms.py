"""Sign-flip polish: parity with a full SVD per flip, and its edge cases."""
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import forms
from dyadlab.embedding import key_sum_form, term1_form
from dyadlab.forms import AbsBilinearForm
from dyadlab.shifts import ShiftSpec, shift_form
from dyadlab.tree import LinearOperator
from dyadlab.weights import gen_cascade


def reference_polish(form, s, t, max_passes=40):
    """The polish with a full SVD per flip, kept verbatim as the reference."""
    s = s.copy()
    t = t.copy()
    val, f, g = form._sigma_max_signed(s, t)
    n1, n2 = form.m.shape
    for _ in range(max_passes):
        improved = False
        for side, n in ((0, n1), (1, n2)):
            arr = s if side == 0 else t
            for i in range(n):
                arr[i] = -arr[i]
                cand, cf, cg = form._sigma_max_signed(s, t)
                if cand > val * (1.0 + 1e-13):
                    val, f, g = cand, cf, cg
                    improved = True
                else:
                    arr[i] = -arr[i]
        if not improved:
            break
    return val, f, g, s, t


def assert_same_polish(got, want):
    val, f, g, s, t = got
    rval, rf, rg, rs, rt = want
    assert val == pytest.approx(rval, rel=1e-12)
    assert np.array_equal(s, rs)
    assert np.array_equal(t, rt)
    np.testing.assert_allclose(f, rf, rtol=1e-12, atol=1e-12 * np.max(np.abs(rf)))
    np.testing.assert_allclose(g, rg, rtol=1e-12, atol=1e-12 * np.max(np.abs(rg)))


def random_signs(n, rng):
    return rng.choice([-1.0, 1.0], size=n)


FORMS = {
    "key_sum": lambda d, k: key_sum_form(gen_cascade(d, 0.7, 100 + k)),
    "term_i": lambda d, k: term1_form(gen_cascade(d, 0.6, 200 + k)),
    "shift0_const": lambda d, k: shift_form(ShiftSpec.constant(0, d),
                                            gen_cascade(d, 0.7, 300 + k)),
    "shift1_const": lambda d, k: shift_form(ShiftSpec.constant(1, d),
                                            gen_cascade(d, 0.7, 400 + k)),
    "shift0_random": lambda d, k: shift_form(ShiftSpec.random(0, d, 500 + k),
                                             gen_cascade(d, 0.5, 600 + k)),
    "shift1_random": lambda d, k: shift_form(ShiftSpec.random(1, d, 700 + k),
                                             gen_cascade(d, 0.5, 800 + k)),
}


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", sorted(FORMS))
def test_polish_matches_full_svd_per_flip(kind, depth):
    for k in range(2 if depth == 5 else 3):
        form = FORMS[kind](depth, k)
        rng = np.random.default_rng(1000 * depth + k)
        n1, n2 = form.m.shape
        s, t = random_signs(n1, rng), random_signs(n2, rng)
        assert_same_polish(form._flip_polish(s, t), reference_polish(form, s, t))


def direct_form(n1, n2, cols_left, cols_right, seed):
    rng = np.random.default_rng(seed)
    return AbsBilinearForm(
        m=rng.uniform(0.0, 1.0, (n1, n2)),
        left_map=rng.standard_normal((n1, cols_left)),
        right_map=rng.standard_normal((n2, cols_right)),
        left_metric=rng.uniform(0.5, 2.0, cols_left),
        right_metric=rng.uniform(0.5, 2.0, cols_right),
    )


def test_zero_row_flip_rejected():
    form = direct_form(5, 6, 7, 7, seed=1)
    form.m[2] = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s, t = random_signs(5, rng), random_signs(6, rng)
        got = form._flip_polish(s, t)
        assert got[3][2] == s[2]
        assert_same_polish(got, reference_polish(form, s, t))


@pytest.mark.parametrize("cols_left, cols_right", [(9, 4), (4, 9)])
def test_unequal_column_counts(cols_left, cols_right):
    # the flipped matrix c is cols_left x cols_right, so the Gram matrix of
    # the rejection test is formed on each side in turn
    for seed in range(10):
        form = direct_form(6, 5, cols_left, cols_right, seed=10 + seed)
        rng = np.random.default_rng(seed)
        s, t = random_signs(6, rng), random_signs(5, rng)
        assert_same_polish(form._flip_polish(s, t), reference_polish(form, s, t))


def test_search_sup_unchanged():
    form = key_sum_form(gen_cascade(5, 0.7, 3))
    res = form.search_sup(iters=40, seed=4, restarts=2)
    form._flip_polish = lambda s, t: reference_polish(form, s, t)
    ref = form.search_sup(iters=40, seed=4, restarts=2)
    assert res.value == pytest.approx(ref.value, rel=1e-12)
    assert np.array_equal(res.sign_left, ref.sign_left)
    assert np.array_equal(res.sign_right, ref.sign_right)


@pytest.mark.parametrize("build", [
    # the depth-4 inputs of the fold-path exact_sup tests in test_shifts.py
    # and a depth-4 key-sum form; the fold runs search_sup with the polish
    lambda: shift_form(ShiftSpec.random(1, 4, seed=3), gen_cascade(4, 0.6, seed=8)),
    lambda: shift_form(ShiftSpec.random(1, 4, seed=6), gen_cascade(4, 0.6, seed=7)),
    lambda: key_sum_form(gen_cascade(4, 0.7, 2)),
])
def test_exact_sup_unchanged(build):
    form = build()
    res = form.exact_sup()
    form._flip_polish = lambda s, t: reference_polish(form, s, t)
    ref = form.exact_sup()
    assert res.value == pytest.approx(ref.value, rel=1e-12)
    assert res.upper_bound == ref.upper_bound
    assert np.array_equal(res.sign_left, ref.sign_left)
    assert np.array_equal(res.sign_right, ref.sign_right)


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("kind", ["key_sum", "term_i", "shift0_const", "shift1_const"])
def test_mode_is_set_by_the_method(kind, depth):
    # full enumeration (depths 2 and 3) is exact; the fold (depth 4) and
    # every search give the best achieved value, a lower bound
    form = FORMS[kind](depth, 0)
    assert form.exact_sup().mode == ("exact" if depth <= 3 else "lower_bound")
    assert form.search_sup(iters=10, seed=depth, restarts=2).mode == "lower_bound"


def record_decompositions(monkeypatch):
    """Log, in order, each eigendecomposition and SVD that numpy makes and each
    mask the polish's screen returns; the polish makes no Cholesky test."""
    log = []
    eigh, svd, screen = np.linalg.eigh, np.linalg.svd, forms._flip_screen

    def recording_eigh(a):
        out = eigh(a)
        log.append(("eigh", a.copy(), float(out[0][-1])))
        return out

    def recording_svd(a, *args, **kwargs):
        log.append(("svd", a.copy(), None))
        return svd(a, *args, **kwargs)

    def recording_screen(c, eig, a, b, val):
        skip = screen(c, eig, a, b, val)
        log.append(("screen", skip.copy(), val))
        return skip

    def no_cholesky(a):
        raise AssertionError("the polish makes no Cholesky test")

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    monkeypatch.setattr(forms, "_flip_screen", recording_screen)
    return log


def read_polish_log(log):
    """(accepted flips, flips the screen was unsure of and the exact test
    rejected, Gram matrices decomposed) of one polish's log.

    The log must read: the start's Gram eigendecomposition; then screens,
    each followed by exact tests of its unsure flips only, in order, until
    one accepts (and a new screen follows) or they run out; then the one SVD
    of the witnesses.
    """
    kind, gram, lam = log[0]
    assert kind == "eigh"
    assert [kind for kind, _, _ in log].count("svd") == 1 and log[-1][0] == "svd"
    val = np.sqrt(max(lam, 0.0))
    accepted = rejected = pending = 0
    grams = [gram]
    for kind, obj, lam in log[1:-1]:
        if kind == "screen":
            pending = int(np.count_nonzero(~obj))
            continue
        assert kind == "eigh" and pending > 0, "an exact test the screen did not ask for"
        pending -= 1
        grams.append(obj)
        sigma = np.sqrt(max(lam, 0.0))
        if sigma > val * (1.0 + 1e-13):
            val, pending = sigma, 0
            accepted += 1
        else:
            rejected += 1
    return accepted, rejected, grams


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("kind", sorted(FORMS))
def test_no_pattern_factorized_twice(kind, depth, monkeypatch):
    log = record_decompositions(monkeypatch)
    for k in range(2):
        form = FORMS[kind](depth, k)
        rng = np.random.default_rng(50 * depth + k)
        n1, n2 = form.m.shape
        s, t = random_signs(n1, rng), random_signs(n2, rng)
        log.clear()
        got = form._flip_polish(s, t)
        accepted, rejected, grams = read_polish_log(log)
        # exact decompositions = accepted flips + unsure rejections + the start
        assert len(grams) == accepted + rejected + 1
        assert [kind for kind, _, _ in log].count("screen") >= 2  # one per loop at least
        # a repeated pattern gives the same Gram matrix up to the rounding of
        # its products; distinct accepted patterns have distinct sigma_1
        for i in range(len(grams)):
            for j in range(i):
                assert not np.allclose(grams[i], grams[j], rtol=0.0,
                                       atol=1e-9 * np.max(np.abs(grams[j])))
        assert_same_polish(got, reference_polish(form, s, t))


def assert_repolish_decomposes_no_candidate(form, rng, monkeypatch):
    # a polished pattern: no single flip improves it, so the screen settles
    # every flip of either loop and only the start is decomposed
    n1, n2 = form.m.shape
    _, _, _, s, t = form._flip_polish(random_signs(n1, rng), random_signs(n2, rng))
    log = record_decompositions(monkeypatch)
    got = form._flip_polish(s, t)
    assert np.array_equal(got[3], s) and np.array_equal(got[4], t)
    assert read_polish_log(log)[:2] == (0, 0)


def test_diagonal_form_t_loop_factorizes_nothing(monkeypatch):
    form = key_sum_form(gen_cascade(5, 0.7, 3))
    assert np.array_equal(form.m, np.diag(np.diag(form.m)))
    assert_repolish_decomposes_no_candidate(form, np.random.default_rng(0), monkeypatch)


@pytest.mark.parametrize("depth", [3, 5])
@pytest.mark.parametrize("kind", sorted(FORMS))
def test_polished_pattern_decomposes_no_candidate(kind, depth, monkeypatch):
    assert_repolish_decomposes_no_candidate(FORMS[kind](depth, 1),
                                            np.random.default_rng(depth), monkeypatch)


@pytest.mark.parametrize("kind", sorted(FORMS))
def test_search_sup_matches_reference_polish(kind):
    form = FORMS[kind](5, 0)
    res = form.search_sup(iters=40, seed=9, restarts=2)
    form._flip_polish = lambda s, t: reference_polish(form, s, t)
    ref = form.search_sup(iters=40, seed=9, restarts=2)
    assert res.value == ref.value
    for name in ("left", "right", "sign_left", "sign_right"):
        assert getattr(res, name).tobytes() == getattr(ref, name).tobytes()


def polish_with_checked_screen(form, s, t):
    """Run the polish, checking that every flip its screen skips has
    sigma_1 <= tau, the reference's test, and compare with the reference."""
    screen = forms._flip_screen

    def checking(c, eig, a, b, val):
        skip = screen(c, eig, a, b, val)
        tau = val * (1.0 + 1e-13)
        for k in np.flatnonzero(skip):
            assert np.linalg.svd(c + np.outer(a[k], b[k]), compute_uv=False)[0] <= tau
        return skip

    with mock.patch.object(forms, "_flip_screen", checking):
        got = form._flip_polish(s, t)
    assert_same_polish(got, reference_polish(form, s, t))


@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(1, 6), n2=st.integers(1, 6),
       cols_left=st.integers(1, 8), cols_right=st.integers(1, 8),
       row_scales=st.lists(st.sampled_from([1.0, 1e-3, 1e-6, 0.0]), min_size=6, max_size=6))
@settings(max_examples=150, deadline=None)
def test_screen_skips_only_rejected_flips(seed, n1, n2, cols_left, cols_right, row_scales):
    # square and rectangular c (cols_left x cols_right); rows of m scaled
    # down give flips that move sigma_1 by little, zero rows by nothing
    form = direct_form(n1, n2, cols_left, cols_right, seed)
    form.m *= np.array(row_scales[:n1])[:, None]
    rng = np.random.default_rng(seed)
    polish_with_checked_screen(form, random_signs(n1, rng), random_signs(n2, rng))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), cols=st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_screen_with_repeated_top_singular_value(seed, n, cols):
    # at s = t = 1, c = m (m^-1 x) is x, whose two top singular values are 1
    rng = np.random.default_rng(seed)
    r = min(n, cols)
    u = np.linalg.qr(rng.standard_normal((n, r)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, r)))[0]
    x = (u * np.r_[1.0, 1.0, rng.uniform(0.0, 0.9, r - 2)]) @ v.T
    m = np.eye(n) + rng.uniform(0.0, 0.5, (n, n))
    form = AbsBilinearForm(m, np.eye(n), np.linalg.solve(m, x), np.ones(n), np.ones(cols))
    sv = np.linalg.svd(m @ form.right_map, compute_uv=False)
    assert sv[1] == pytest.approx(sv[0], rel=1e-14)
    polish_with_checked_screen(form, np.ones(n), np.ones(n))


def test_all_zero_m(monkeypatch):
    form = direct_form(5, 6, 7, 7, seed=2)
    form.m[:] = 0.0
    log = record_decompositions(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(5):
            rng = np.random.default_rng(seed)
            s, t = random_signs(5, rng), random_signs(6, rng)
            log.clear()
            got = form._flip_polish(s, t)
            # c = 0 and every flip leaves it 0: only the start is decomposed
            assert read_polish_log(log)[:2] == (0, 0)
            assert got[0] == 0.0
            assert_same_polish(got, reference_polish(form, s, t))
        assert form.search_sup(iters=5, seed=0, restarts=2).value == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_metrics_must_be_finite_and_positive(bad):
    eye = np.eye(2)
    for metrics in (([bad, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, bad])):
        with pytest.raises(forms.DomainError, match="finite and strictly positive"):
            AbsBilinearForm(eye, eye, eye, *metrics)


def test_search_sup_refuses_zero_restarts():
    with pytest.raises(forms.DomainError, match="restarts must be >= 1"):
        key_sum_form(gen_cascade(3, 0.5, 1)).search_sup(iters=5, seed=0, restarts=0)


class CountingOperator(LinearOperator):
    """An operator that counts its forward and adjoint products."""

    def __init__(self, op):
        self.op = op
        self.shape = op.shape
        self.nbytes = op.nbytes
        self.forward = self.adjoint = 0

    def _apply(self, x):
        self.forward += 1
        return self.op @ x

    def _apply_adjoint(self, y):
        self.adjoint += 1
        return self.op.T @ y


@pytest.mark.parametrize("restarts", [1, 3])
def test_search_forms_each_map_product_once(restarts):
    # depth 9: the maps are matrix-free operators, past DENSE_MAX_COLUMNS
    form = key_sum_form(gen_cascade(9, 0.6, 2))
    assert isinstance(form.left_map, LinearOperator)
    left, right = CountingOperator(form.left_map), CountingOperator(form.right_map)
    counted = AbsBilinearForm(form.m, left, right, form.left_metric, form.right_metric)
    res = counted.search_sup(iters=40, seed=5, restarts=restarts)
    # each argmax step takes one adjoint and one forward product per sign
    # update; only the random start of each restart adds a forward product
    assert left.adjoint > 0
    assert left.forward == left.adjoint
    assert right.forward == right.adjoint + restarts
    ref = form.search_sup(iters=40, seed=5, restarts=restarts)
    assert res.value == ref.value
    assert res.left.tobytes() == ref.left.tobytes()
