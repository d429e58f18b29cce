"""Sign-flip polish: parity with a full SVD per flip, and its edge cases."""
import numpy as np
import pytest

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


def record_factorizations(monkeypatch):
    """Count np.linalg.cholesky calls and keep each candidate matrix that the
    polish puts to the rejection test."""
    calls = {"cholesky": 0}
    mats = []
    cholesky = np.linalg.cholesky
    above = forms._sigma_max_above

    def counting(a):
        calls["cholesky"] += 1
        return cholesky(a)

    def recording(c, tau):
        mats.append(c.copy())
        return above(c, tau)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    monkeypatch.setattr(forms, "_sigma_max_above", recording)
    return calls, mats


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("kind", sorted(FORMS))
def test_no_pattern_factorized_twice(kind, depth, monkeypatch):
    calls, mats = record_factorizations(monkeypatch)
    for k in range(2):
        form = FORMS[kind](depth, k)
        rng = np.random.default_rng(50 * depth + k)
        n1, n2 = form.m.shape
        s, t = random_signs(n1, rng), random_signs(n2, rng)
        calls["cholesky"] = 0
        mats.clear()
        got = form._flip_polish(s, t)
        assert calls["cholesky"] == len(mats) > 0
        # a repeated pattern gives the same matrix up to the rounding of its
        # products; distinct patterns differ by a whole signed term
        for i in range(len(mats)):
            for j in range(i):
                assert not np.allclose(mats[i], mats[j], rtol=0.0,
                                       atol=1e-9 * np.max(np.abs(mats[j])))
        assert_same_polish(got, reference_polish(form, s, t))


def test_diagonal_form_t_loop_factorizes_nothing(monkeypatch):
    form = key_sum_form(gen_cascade(5, 0.7, 3))
    diag = np.diag(form.m)
    assert np.array_equal(form.m, np.diag(diag))
    n1, n2 = form.m.shape
    rng = np.random.default_rng(0)
    # a polished pattern: no single flip improves it, so the s loop accepts
    # nothing and each t flip repeats the pattern of the s flip at its index
    _, _, _, s, t = form._flip_polish(random_signs(n1, rng), random_signs(n2, rng))
    calls, _ = record_factorizations(monkeypatch)
    got = form._flip_polish(s, t)
    assert np.array_equal(got[3], s) and np.array_equal(got[4], t)
    assert calls["cholesky"] == np.count_nonzero(diag)


@pytest.mark.parametrize("kind", sorted(FORMS))
def test_search_sup_matches_reference_polish(kind):
    form = FORMS[kind](5, 0)
    res = form.search_sup(iters=40, seed=9, restarts=2)
    form._flip_polish = lambda s, t: reference_polish(form, s, t)
    ref = form.search_sup(iters=40, seed=9, restarts=2)
    assert res.value == ref.value
    for name in ("left", "right", "sign_left", "sign_right"):
        assert getattr(res, name).tobytes() == getattr(ref, name).tobytes()


def test_all_zero_m(monkeypatch):
    form = direct_form(5, 6, 7, 7, seed=2)
    form.m[:] = 0.0
    calls, _ = record_factorizations(monkeypatch)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        s, t = random_signs(5, rng), random_signs(6, rng)
        got = form._flip_polish(s, t)
        assert got[0] == 0.0
        assert_same_polish(got, reference_polish(form, s, t))
    # every flip leaves the (empty) pattern of the nonzeros as it was
    assert calls["cholesky"] == 0
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
