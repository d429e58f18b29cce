"""Each formula with one implementation, against the duplicated code it
replaced, kept verbatim: the three weighted form builders (each restating
the metrics), whose form operands must be byte-identical.  And the exact
mode against an independent oracle, the enumeration of every sign pair
(s, t) that it replaced, up to depth 3: their values and upper bounds must
agree to 1e-12."""
import itertools

import numpy as np
import pytest

from dyadlab import embedding, shifts
from dyadlab.forms import AbsBilinearForm, _form_operands
from dyadlab.shifts import ShiftOperator, ShiftSpec
from dyadlab.tree import (
    IdentityOperator,
    StructureError,
    TwoValuedRowOperator,
    _haar_operator,
    _heap_levels,
)
from dyadlab.weights import gen_cascade, gen_power

# -- the sign-pair enumeration and the form builders as they were -----------


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


# the test keeps its name, and with it the ids of its cases; since the exact
# mode enumerates other signs, it compares to 1e-12
@pytest.mark.parametrize("family", ("power", "cascade"))
@pytest.mark.parametrize("kind", BUILDERS)
@pytest.mark.parametrize("depth", range(1, 4))
def test_exact_sup_byte_identical(depth, kind, family):
    form = BUILDERS[kind][0](weight(family, depth))
    got = form.exact_sup()
    value, upper_bound = sign_pair_enumeration(form)
    assert got.mode == "exact"
    assert got.value == pytest.approx(value, rel=1e-12)
    assert got.upper_bound == pytest.approx(upper_bound, rel=1e-12)
