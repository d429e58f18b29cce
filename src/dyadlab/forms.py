"""Suprema of sub-bilinear forms with absolute values.

The common object is

    sup { sum_ij m_ij |(A f)_i| |(B g)_j| :  f' D_l f = 1,  g' D_r g = 1 }

with m >= 0 and diagonal positive metrics.  The load-bearing trick for the
exact mode: since m >= 0, the absolute values equal the max over sign
patterns (s, t) of the ordinary bilinear form with coefficients
s_i m_ij t_j, and each of those is a largest singular value.  The two sign
sets are therefore enumerated, not optimized: one chunked sweep over s,
max_s lambda_max(root (s s' o w0) root), runs once per t, or once when, for
larger sizes, the t-set is folded into an entrywise absolute value of the right Gram matrix; the
fold is an upper bound which is tight whenever the extremal g can realize
the folded signs.  The tests cross-check it against full enumeration on
small instances and against the achieved witness value
(tests/test_shifts.py::test_fold_bounded_by_upper_bound).  A FormResult's
mode is "exact" only from full enumeration; the fold and search_sup return
a "lower_bound".

The alternating search forms each map product once.  An argmax step hands
back its maximizer x together with the image A x (or B x) that its last
sign test formed; the other side's step takes its weights from that image,
the same side's next step takes its starting signs from it, and the step
value |A f| m |B g| and the final signs s, t are read from the two images.

Below FLIP_LIMIT coefficients the alternating search is finished by a 1-opt
sign-flip polish.  It rejects a flip by a Cholesky factorization of
tau^2 I - c c' instead of a singular value decomposition; the rounding of
c c' (about N eps sigma_1^2) is far inside the polish's 1e-13 acceptance
margin, so the decisions are those of a full SVD per flip.  The candidate
c depends on the signs only through s_i t_j on the nonzeros of m, so the
polish factorizes each such pattern at most once: one met before was the
start, an accepted flip or a rejected one, its sigma_1 is at most the
current value, and the test would reject it again.  For a diagonal m
(key-sum, term-I and complexity-0 shift forms) every t flip repeats an s
flip.  With the other side's signs fixed during each loop, a candidate
costs one matrix product.

The coefficient matrix m and the two maps are ndarrays or matrix-free
operators (tree.LinearOperator).  The search uses only `op @ x`, `x @ op`,
`op.T` and `op.shape`, so an operator needs just those, plus `nbytes`
(what it stores) and `__array_ufunc__ = None`, which makes `ndarray @ op`
return NotImplemented and defer to `op.__rmatmul__`.  An operator m must
have nonnegative entries; an array m is replaced by its absolute values.
The exact mode and the sign-flip polish take ndarrays only (at most 15
and 64 coefficients).  The form builders go through weighted_form: each
operator dense (`op @ np.eye(n)`) up to DENSE_MAX_COLUMNS columns (see
_form_operands), and the metrics w 2^-d and 2^-d / w of L2(w) x L2(1/w).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .tree import DomainError, LinearOperator, _check_dense_depth

FULL_ENUM_LIMIT = 7  # 4^N sign pairs
FOLD_LIMIT = 15  # 2^N sign patterns with the t-fold
FLIP_LIMIT = 64  # n1 + n2 above which the sign-flip polish is skipped
# The widest map (2^depth columns) that the form builders pass dense.  One
# product of the (2^d - 1) x 2^d Haar map (times a leafwise multiplier) with
# a vector, best of 5 x 2000, Intel Xeon core, numpy 2.4, OpenBLAS 1 thread:
#   depth   dense     operator
#   8         9 us      23 us
#   9        68 us      24 us
#   10      418 us      25 us
DENSE_MAX_COLUMNS = 256


def _form_operands(depth: int, *ops) -> list:
    """The operators of a depth-d form as AbsBilinearForm gets them: each
    one dense up to DENSE_MAX_COLUMNS columns, else the operator itself.
    Forms keep the dense builders' depth cap, tree.MAX_DENSE_DEPTH."""
    n = 1 << depth
    _check_dense_depth(depth, n - 1, n)
    return [op @ np.eye(op.shape[1]) if op.shape[1] <= DENSE_MAX_COLUMNS else op
            for op in ops]


def _as_map(a):
    return a if isinstance(a, LinearOperator) else np.asarray(a, dtype=float)


def _sign(v: np.ndarray) -> np.ndarray:
    """The signs of v, with +1 at its zeros."""
    s = np.sign(v)
    s[s == 0] = 1.0
    return s


def _sign_table(n: int) -> np.ndarray:
    """All 2^n sign vectors, as a (2^n, n) array of +-1."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return bits * 2.0 - 1.0


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _sign_sweep(root: np.ndarray, w0: np.ndarray):
    """max over the sign vectors s of lambda_max(root (s s' o w0) root), and
    the first s attaining it, 4096 sign vectors per batch of eigvalsh."""
    s_tab = _sign_table(len(w0))
    best = (-1.0, 0)
    for lo in range(0, s_tab.shape[0], 4096):
        s_chunk = s_tab[lo : lo + 4096]
        mats = (s_chunk[:, :, None] * s_chunk[:, None, :]) * w0[None, :, :]
        lam = np.linalg.eigvalsh(root[None, :, :] @ mats @ root[None, :, :])[:, -1]
        si = int(np.argmax(lam))
        if lam[si] > best[0]:
            best = (float(lam[si]), lo + si)
    lam, si = best
    return lam, s_tab[si]


def _sigma_max_above(c: np.ndarray, tau: float) -> Optional[float]:
    """The largest singular value of c when it exceeds tau, else None.

    A successful Cholesky factorization of tau^2 I - (Gram of c, on the
    smaller side) proves sigma_1(c) <= tau without any singular value.
    """
    shifted = -(c @ c.T if c.shape[0] <= c.shape[1] else c.T @ c)
    shifted.flat[:: len(shifted) + 1] += tau * tau
    try:
        np.linalg.cholesky(shifted)
        return None
    except np.linalg.LinAlgError:
        sigma = float(np.linalg.svd(c, compute_uv=False)[0])
        return sigma if sigma > tau else None


@dataclass
class FormResult:
    value: float
    left: np.ndarray
    right: np.ndarray
    sign_left: Optional[np.ndarray]
    sign_right: Optional[np.ndarray]
    upper_bound: Optional[float] = None  # certified bound, set by both exact paths
    mode: str = "lower_bound"  # "exact" from full enumeration only


class AbsBilinearForm:
    def __init__(self, m, left_map, right_map, left_metric, right_metric):
        self.m = m if isinstance(m, LinearOperator) else np.abs(np.asarray(m, dtype=float))
        self.left_map = _as_map(left_map)
        self.right_map = _as_map(right_map)
        self.left_metric = np.asarray(left_metric, dtype=float)
        self.right_metric = np.asarray(right_metric, dtype=float)
        for metric in (self.left_metric, self.right_metric):
            if not np.all((metric > 0) & (metric < np.inf)):  # also false for nan
                raise DomainError("metrics must be finite and strictly positive")
        n1, n2 = self.m.shape
        if self.left_map.shape[0] != n1 or self.right_map.shape[0] != n2:
            raise DomainError("coefficient matrix and maps disagree in shape")

    # -- evaluation -------------------------------------------------------

    def value(self, f, g) -> float:
        return self._image_value(self.left_map @ f, self.right_map @ g)

    def _image_value(self, af, bg) -> float:
        """The form value from the images A f and B g."""
        return float(np.abs(af) @ self.m @ np.abs(bg))

    def right_norm(self, g) -> float:
        return float(np.sqrt(np.sum(self.right_metric * g**2)))

    @cached_property
    def _normalized(self):
        """(A D_l^{-1/2}, B D_r^{-1/2}) for the exact mode and the sign-flip
        polish (ndarray maps only), formed on first use."""
        return (self.left_map / np.sqrt(self.left_metric)[None, :],
                self.right_map / np.sqrt(self.right_metric)[None, :])

    # -- exact mode -------------------------------------------------------

    def exact_sup(self) -> FormResult:
        n1, n2 = self.m.shape
        if max(n1, n2) > FOLD_LIMIT:
            raise DomainError(
                f"exact mode limited to {FOLD_LIMIT} coefficients per side; "
                "use the alternating search instead"
            )
        zl, zr = self._normalized
        w0 = zl @ zl.T
        g0 = zr @ zr.T
        if max(n1, n2) <= FULL_ENUM_LIMIT:
            return self._exact_full(w0, g0)
        return self._exact_fold(zl, zr, w0, g0)

    def _exact_full(self, w0, g0) -> FormResult:
        n1, n2 = self.m.shape
        best = (-1.0, -np.ones(n1), -np.ones(n2))
        for t in _sign_table(n2):
            kt = self.m @ ((t[:, None] * t[None, :]) * g0) @ self.m.T
            lam, s = _sign_sweep(_psd_sqrt(kt), w0)
            if lam > best[0]:
                best = (lam, s, t)
        lam, s, t = best
        _, f, g = self._sigma_max_signed(s, t)
        # make the achieved form value carry the result, not the eigenvalue
        return FormResult(value=self.value(f, g), left=f, right=g, sign_left=s, sign_right=t,
                          upper_bound=float(np.sqrt(max(lam, 0.0))), mode="exact")

    def _exact_fold(self, zl, zr, w0, g0) -> FormResult:
        e = self.m @ np.abs(g0) @ self.m.T
        lam, s = _sign_sweep(_psd_sqrt(e), w0)
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

    # -- alternating lower-bound search ----------------------------------

    def _argmax_generic(self, u, amap, metric, prev, prev_image):
        """Maximize sum_i u_i |(amap x)_i| over the metric unit sphere, u >= 0.

        prev_image is amap @ prev; returns the maximizer x and amap @ x."""
        if not (u > 0).any():
            x = np.ones(amap.shape[1])
            x = x / np.sqrt((metric * x**2).sum())
            return x, amap @ x
        s = _sign(prev_image) if prev is not None else np.ones(amap.shape[0])
        x, ax = prev, prev_image
        for _ in range(30):
            ell = amap.T @ (u * s)
            nrm = np.sqrt((ell**2 / metric).sum())
            if nrm == 0.0:
                break
            x = ell / metric / nrm
            ax = amap @ x
            s_new = _sign(ax)
            if (s_new == s).all():
                break
            s = s_new
        if x is None:
            x = np.ones(amap.shape[1]) / np.sqrt(metric.sum())
            ax = amap @ x
        return x, ax

    def _argmax_left(self, bg, prev, prev_image):
        """The left step for the image bg = B g: returns (f, A f)."""
        u = self.m @ np.abs(bg)
        return self._argmax_generic(u, self.left_map, self.left_metric, prev, prev_image)

    def _argmax_right(self, af, prev, prev_image):
        """The right step for the image af = A f: returns (g, B g)."""
        u = self.m.T @ np.abs(af)
        return self._argmax_generic(u, self.right_map, self.right_metric, prev, prev_image)

    def _sigma_max_signed(self, s, t):
        """sup of the ordinary bilinear form with coefficients s_i m_ij t_j,
        with the metric-normalized extremizers."""
        zl, zr = self._normalized
        c = zl.T @ (s[:, None] * self.m * t[None, :]) @ zr
        u, sig, vt = np.linalg.svd(c)
        f = u[:, 0] / np.sqrt(self.left_metric)
        g = vt[0] / np.sqrt(self.right_metric)
        return float(sig[0]), f, g

    def _flip_polish(self, s, t):
        """1-opt local search over the sign patterns, exact objective per
        pattern (largest singular value), at most 40 passes; escapes the
        sign-space local maxima that the alternating iteration can get stuck in.

        A flip is kept when sigma_1(c) of the flipped pattern exceeds
        tau = val (1 + 1e-13).  Most flips are rejected, and a rejection is
        certified by a Cholesky factorization of tau^2 I - c c' (the Gram
        matrix on the smaller side of c), which succeeds only if
        sigma_1(c) <= tau up to the rounding of the Gram matrix, about
        N eps sigma_1^2 (7e-15 relative at N = 32, far inside the 1e-13
        margin).  Only a failed factorization pays for singular values, and
        the witnesses come from one full SVD of the final pattern.

        c depends on the signs only through s_i t_j on the nonzeros of m, so
        that pattern is the memo key of each candidate.  A pattern met before
        is rejected without a factorization, which is the test's own verdict:
        it was the start, an accepted flip (sigma_1 at most val, since val
        never decreases) or a rejected one (sigma_1 at most an earlier tau).
        For a diagonal m, flipping t_i gives the candidate of flipping s_i.
        While the s loop runs, m t zr is fixed and each candidate costs one
        product; while the t loop runs, zl' (s m) is.
        """
        s = s.copy()
        t = t.copy()
        m = self.m
        zl, zr = self._normalized
        rows, cols = np.nonzero(m)

        def pattern():
            return (s[rows] * t[cols] > 0).tobytes()

        seen = {pattern()}
        val = float(np.linalg.svd(zl.T @ (s[:, None] * m * t[None, :]) @ zr,
                                  compute_uv=False)[0])
        for _ in range(40):
            improved = False
            for arr in (s, t):
                fixed = (m * t[None, :]) @ zr if arr is s else zl.T @ (s[:, None] * m)
                for i in range(arr.size):
                    arr[i] = -arr[i]
                    key = pattern()
                    if key not in seen:
                        seen.add(key)
                        c = (zl.T @ (s[:, None] * fixed) if arr is s
                             else (fixed * t[None, :]) @ zr)
                        cand = _sigma_max_above(c, val * (1.0 + 1e-13))
                        if cand is not None:
                            val = cand
                            improved = True
                            continue
                    arr[i] = -arr[i]
            if not improved:
                break
        val, f, g = self._sigma_max_signed(s, t)
        return val, f, g, s, t

    def search_sup(self, iters: int, seed: int, restarts: int = 8) -> FormResult:
        """Multi-start alternating maximization; monotone per iteration.

        On small instances each run is finished by an exact sign-flip local
        search (1-opt in sign space with the true singular-value objective).
        """
        if iters < 1:
            raise DomainError("iters must be >= 1")
        if restarts < 1:
            raise DomainError("restarts must be >= 1")
        rng = np.random.default_rng(seed)
        n1, n2 = self.m.shape
        flips = n1 + n2 <= FLIP_LIMIT
        best = None
        for _ in range(restarts):
            g = rng.standard_normal(self.right_map.shape[1])
            g = g / self.right_norm(g)
            bg = self.right_map @ g
            f = af = None
            val = -1.0
            for _ in range(iters):
                f, af = self._argmax_left(bg, f, af)
                g, bg = self._argmax_right(af, g, bg)
                new = self._image_value(af, bg)
                if new <= val * (1.0 + 1e-13):
                    val = new
                    break
                val = new
            s, t = _sign(af), _sign(bg)
            if flips:
                fval, ff, fg, s, t = self._flip_polish(s, t)
                if fval > val:
                    # the achieved form value can only be at least the signed one
                    val = max(fval, self.value(ff, fg))
                    f, g = ff, fg
            if best is None or val > best.value:
                best = FormResult(value=val, left=f, right=g, sign_left=s, sign_right=t)
        return best


def weighted_form(w_values: np.ndarray, m, left, right) -> AbsBilinearForm:
    """The form of the operators m, left, right (through _form_operands) on the
    unit balls of L2(w) x L2(1/w), from w's 2^d leaf values: metrics w 2^-d, 2^-d / w."""
    depth = w_values.size.bit_length() - 1
    scale = 2.0**-depth
    m, left, right = _form_operands(depth, m, left, right)
    return AbsBilinearForm(m, left, right, w_values * scale, (1.0 / w_values) * scale)
