"""Each formula with one implementation.  The operands of the weighted form
builders (key sum, term I, shifts of complexity 0 and 1, to depth 10) are
pinned by digest in tests/corpus.json, under the entries
test_corpus.form_outputs names; the pins were taken while the three
duplicated builders these replaced, each restating the metrics, still
agreed bit for bit, and the cases keep the ids they had when they compared
with them.

The exact mode is checked against an independent oracle, the enumeration of
every sign pair (s, t) that it replaced, up to depth 3: their values and
upper bounds must agree to 1e-12.  That oracle stays live: it is another
algorithm, and its eigensolves run on BLAS."""
import itertools

import numpy as np
import pytest

from dyadlab.forms import AbsBilinearForm
from test_corpus import BUILDERS, assert_pinned, entry, form_outputs, form_weight


@pytest.mark.parametrize("family", ("power", "cascade"))
@pytest.mark.parametrize("kind", BUILDERS)
@pytest.mark.parametrize("depth", range(1, 11))
def test_form_operands_byte_identical(depth, kind, family):
    # m, both maps and both metrics; an operator past depth 8 by its products
    assert_pinned(form_outputs, entry("forms.operands", kind, family, d=depth))


# -- the sign-pair enumeration ---------------------------------------------------


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def sign_vectors(n: int) -> np.ndarray:
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n))).reshape(-1, n)


def sign_sweep(root: np.ndarray, w0: np.ndarray):
    """max over the sign vectors s of lambda_max(root (s s' o w0) root), and
    the first s attaining it."""
    s_tab = sign_vectors(len(w0))
    mats = (s_tab[:, :, None] * s_tab[:, None, :]) * w0[None, :, :]
    lam = np.linalg.eigvalsh(root[None, :, :] @ mats @ root[None, :, :])[:, -1]
    si = int(np.argmax(lam))
    return float(lam[si]), s_tab[si]


def sign_pair_enumeration(form: AbsBilinearForm):
    """The exact mode up to 7 coefficients per side as it was: the max over
    the sign pairs (s, t) of sigma_1 of the coefficients s_i m_ij t_j, read
    as max_t max_s lambda_max(root (s s' o w0) root), root the square root of
    m ((t t') o g0) m'.  Returns the achieved value of the best pair's
    witnesses and its sigma_1."""
    zl = form.left_map / np.sqrt(form.left_metric)[None, :]
    zr = form.right_map / np.sqrt(form.right_metric)[None, :]
    w0 = zl @ zl.T
    g0 = zr @ zr.T
    best = (-1.0, None, None)
    for t in sign_vectors(form.m.shape[1]):
        kt = form.m @ ((t[:, None] * t[None, :]) * g0) @ form.m.T
        lam, s = sign_sweep(psd_sqrt(kt), w0)
        if lam > best[0]:
            best = (lam, s, t)
    lam, s, t = best
    u, _, vt = np.linalg.svd(zl.T @ (s[:, None] * form.m * t[None, :]) @ zr)
    f = u[:, 0] / np.sqrt(form.left_metric)
    g = vt[0] / np.sqrt(form.right_metric)
    return form.value(f, g), float(np.sqrt(max(lam, 0.0)))


# the test keeps its name, and with it the ids of its cases; since the exact
# mode enumerates other signs, it compares to 1e-12
@pytest.mark.parametrize("family", ("power", "cascade"))
@pytest.mark.parametrize("kind", BUILDERS)
@pytest.mark.parametrize("depth", range(1, 4))
def test_exact_sup_byte_identical(depth, kind, family):
    form = BUILDERS[kind](form_weight(family, depth))
    got = form.exact_sup()
    value, upper_bound = sign_pair_enumeration(form)
    assert got.mode == "exact"
    assert got.value == pytest.approx(value, rel=1e-12)
    assert got.upper_bound == pytest.approx(upper_bound, rel=1e-12)
