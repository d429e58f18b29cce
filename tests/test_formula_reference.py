"""Each formula with one implementation, against the duplicated code it
replaced, kept verbatim: the exact mode (whose full enumeration and fold
each had a sign sweep, and whose full enumeration had its own copy of
_sigma_max_signed) and the three weighted form builders (each restating the
metrics).  Every exact result and form operand must be byte-identical."""
import numpy as np
import pytest

from dyadlab import embedding, shifts
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
