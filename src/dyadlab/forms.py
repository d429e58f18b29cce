"""Suprema of sub-bilinear forms with absolute values.

The common object is

    sup { sum_ij m_ij |(A f)_i| |(B g)_j| :  f' D_l f = 1,  g' D_r g = 1 }

with m >= 0 and diagonal positive metrics.  The load-bearing trick for the
exact mode: since m >= 0, with one term per nonzero m_k = m_{i_k j_k},

    sum_k m_k |x_{i_k}| |y_{j_k}|
        = max over eps in {+-1}^K of sum_k eps_k m_k x_{i_k} y_{j_k},

and for each eps the supremum of the right side over the two unit balls is
sigma_1(sum_k eps_k m_k z_{i_k} r_{j_k}'), with z_i and r_j the rows of the
metric-normalized maps A D_l^{-1/2} and B D_r^{-1/2}.  So the K signs are
enumerated, not optimized: eps and -eps give the same value, which leaves
2^(K-1) patterns, 4096 per batched eigvalsh of the Gram matrices, and the
witnesses come from one SVD of the best pattern.  exact_sup takes up to
ENUM_LIMIT = 15 nonzeros, which covers every shipped form (key sum, term I
and shifts of any complexity) at depth <= 4.  sup runs exact_sup there and
search_sup elsewhere; its FormResult's mode is "exact" or "lower_bound".

The alternating search forms each map product once.  An argmax step hands
back its maximizer x together with the image A x (or B x) that its last
sign test formed; the other side's step takes its weights from that image,
the same side's next step takes its starting signs from it, and the step
value |A f| m |B g| and the polish's start are read from the two images.

Below FLIP_LIMIT coefficients, on dense forms, the alternating search is
finished by a 1-opt sign-flip polish.  Like the exact mode it works on one
signed coefficient matrix (entries +-m_ij), here sign(A f) m sign(B g), and
it flips rows of it, then columns.  A flip changes the polish's matrix c by
a rank-one term, so one eigendecomposition of the current Gram matrix
screens every remaining flip of a loop at once, by the matrix determinant
lemma (Golub 1973, "Some modified matrix eigenvalue problems"; Bunch,
Nielsen & Sorensen 1978, "Rank-one modification of the symmetric
eigenproblem").  Only a flip that the screen cannot reject by SCREEN_MARGIN
gets the exact test, its sigma_1 against the polish's 1e-13 acceptance
margin, so the decisions are those of a full SVD per flip.

The coefficient matrix m and the two maps are ndarrays or matrix-free
operators (tree.LinearOperator).  The search uses only `op @ x`, `x @ op`,
`op.T` and `op.shape`, so an operator needs just those, plus `nbytes`
(what it stores) and `__array_ufunc__ = None`, which makes `ndarray @ op`
return NotImplemented and defer to `op.__rmatmul__`.  An operator m must
have nonnegative entries; an array m is replaced by its absolute values.
The exact mode and the sign-flip polish run only where m and both maps are
ndarrays (_dense), with at most 15 nonzero and 64 coefficients.  The form
builders go through weighted_form: each operator dense (`op @ np.eye(n)`)
up to DENSE_MAX_COLUMNS columns (see _form_operands), and the metrics
w 2^-d and 2^-d / w of L2(w) x L2(1/w).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .tree import MAX_DENSE_DEPTH, DomainError, LinearOperator

ENUM_LIMIT = 15  # nonzeros K of m above which exact_sup refuses; 2^(K-1) patterns
FLIP_LIMIT = 64  # n1 + n2 above which the sign-flip polish is skipped
# The relative margin by which the polish's screen must clear a flip to skip
# it (see _flip_polish): 32 eps, the N eps rounding bound of an inner product
# of N = 32 terms, as in the Gram matrices of the depth-5 forms.
SCREEN_MARGIN = 2.0**-47
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
    Forms keep the dense builders' depth cap, tree.MAX_DENSE_DEPTH, though
    above depth 8 they build no dense matrix."""
    if depth > MAX_DENSE_DEPTH:
        raise DomainError(f"depth {depth} exceeds the form depth cap {MAX_DENSE_DEPTH} "
                          f"(tree.MAX_DENSE_DEPTH)")
    return [op @ np.eye(op.shape[1]) if op.shape[1] <= DENSE_MAX_COLUMNS else op
            for op in ops]


def _as_map(a):
    return a if isinstance(a, LinearOperator) else np.asarray(a, dtype=float)


def _check_search(iters: int, restarts: int) -> None:
    if iters < 1:
        raise DomainError("iters must be >= 1")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")


def _sign(v: np.ndarray) -> np.ndarray:
    """The signs of v, with +1 at its zeros."""
    s = np.sign(v)
    s[s == 0] = 1.0
    return s


def _sign_table(n: int) -> np.ndarray:
    """All 2^n sign vectors, as a (2^n, n) array of +-1."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return bits * 2.0 - 1.0


def _gram_eigh(c: np.ndarray):
    """eigh of the Gram matrix of c on its smaller side (c c' or c' c)."""
    return np.linalg.eigh(c @ c.T if c.shape[0] <= c.shape[1] else c.T @ c)


def _flip_screen(c, eig, a, b, val: float) -> np.ndarray:
    """Which of the flips c + a_k b_k' (rows a_k of a, b_k of b) certainly
    have sigma_1 <= tau = val (1 + 1e-13), where eig is _gram_eigh(c) and
    val = sigma_1(c), the square root of its top eigenvalue.  See
    _flip_polish for the test.
    """
    if val == 0.0:
        # then c = 0, and the flip a_k b_k' is zero iff one of its factors is
        return ~((a != 0.0).any(axis=1) & (b != 0.0).any(axis=1))
    if c.shape[0] > c.shape[1]:
        c, a, b = c.T, b, a
    lam, u = eig
    nb2 = np.einsum("ij,ij->i", b, b)
    tau = val * (1.0 + 1e-13)
    t2 = tau * tau - SCREEN_MARGIN * (val + np.sqrt(np.einsum("ij,ij->i", a, a) * nb2)) ** 2
    delta = t2 - lam[-1]
    ok = delta > 0.0
    if not ok.all():
        t2 = np.where(ok, t2, 2.0 * lam[-1])  # any t2 > lam[-1] where not ok
        delta = t2 - lam[-1]
    p = a @ u
    q = b @ (c.T @ u)
    p1, q1, pr, qr = p[:, -1], q[:, -1], p[:, :-1], q[:, :-1]
    inv = 1.0 / (t2[:, None] - lam[:-1])
    pi = pr * inv
    ra = np.einsum("ij,ij->i", pi, pr)
    rb = np.einsum("ij,ij->i", pi, qr)
    rc = nb2 + np.einsum("ij,ij->i", qr * inv, qr)
    # d delta with its 1 / delta^2 terms cancelled, and the sum of the
    # magnitudes of its terms
    one_b = 1.0 - rb
    cross = 2.0 * p1 * q1
    rest = ra * q1 * q1 + p1 * p1 * rc
    det = delta * (one_b * one_b - ra * rc) - (cross * one_b + rest)
    bound = 1.0 + np.abs(rb)
    size = delta * (bound * bound + ra * rc) + np.abs(cross) * bound + rest
    return ok & (det > SCREEN_MARGIN * size)


@dataclass
class FormResult:
    value: float
    left: np.ndarray
    right: np.ndarray
    upper_bound: Optional[float] = None  # sigma_1 of exact_sup's best pattern
    mode: str = "lower_bound"  # "exact" from exact_sup only


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

    @property
    def _dense(self) -> bool:
        """m and both maps are ndarrays, as the exact mode and the polish need."""
        return all(isinstance(a, np.ndarray) for a in (self.m, self.left_map, self.right_map))

    # -- exact mode -------------------------------------------------------

    def _exact_refusal(self) -> Optional[str]:
        """Why exact_sup cannot run on this form (None when it can)."""
        if not self._dense:
            return "exact mode needs dense maps"
        k = np.count_nonzero(self.m)
        if k > ENUM_LIMIT:
            return f"exact mode limited to {ENUM_LIMIT} nonzero coefficients, this form has {k}"
        return None

    def sup(self, iters: int, seed: int, restarts: int) -> FormResult:
        """exact_sup() where it runs, else search_sup(); checks iters, restarts."""
        _check_search(iters, restarts)
        if self._exact_refusal() is None:
            return self.exact_sup()
        return self.search_sup(iters, seed, restarts)

    def exact_sup(self) -> FormResult:
        """The supremum by enumeration of one sign per nonzero of m (see the
        module docstring).  value is the achieved value of the best
        pattern's witnesses and upper_bound that pattern's sigma_1."""
        refusal = self._exact_refusal()
        if refusal is not None:
            raise DomainError(f"{refusal}; use the alternating search instead")
        rows, cols = np.nonzero(self.m)
        k = rows.size
        zl, zr = self._normalized
        a = zl[rows].T * self.m[rows, cols]  # column k: m_k z_{i_k}
        h = zr[cols] @ zr[cols].T  # r_{j_k}' r_{j_l}
        # eps and -eps give the same value: the first half of the table has eps_K = -1
        eps = _sign_table(k)[: 1 << max(k - 1, 0)]
        best = (-1.0, 0)
        for lo in range(0, eps.shape[0], 4096):
            ae = a[None, :, :] * eps[lo : lo + 4096, None, :]
            lam = np.linalg.eigvalsh(ae @ h @ ae.transpose(0, 2, 1))[:, -1]
            i = int(np.argmax(lam))
            if lam[i] > best[0]:
                best = (float(lam[i]), lo + i)
        lam, i = best
        signed = np.zeros_like(self.m)
        signed[rows, cols] = eps[i] * self.m[rows, cols]
        _, f, g = self._sigma_max_signed(signed)
        # make the achieved form value carry the result, not the eigenvalue
        return FormResult(value=self.value(f, g), left=f, right=g,
                          upper_bound=math.sqrt(max(lam, 0.0)), mode="exact")

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
        adjoint = amap.T
        for _ in range(30):
            ell = adjoint @ (u * s)
            nrm = math.sqrt(np.add.reduce(ell * ell / metric))
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

    def _sigma_max_signed(self, signed):
        """sup of the ordinary bilinear form with the signed coefficients
        signed_ij = +-m_ij, with the metric-normalized extremizers."""
        zl, zr = self._normalized
        u, sig, vt = np.linalg.svd(zl.T @ signed @ zr)
        f = u[:, 0] / np.sqrt(self.left_metric)
        g = vt[0] / np.sqrt(self.right_metric)
        return float(sig[0]), f, g

    def _flip_polish(self, signed):
        """1-opt local search over the sign patterns of the signed coefficient
        matrix (entries +-m_ij), exact objective per pattern (largest
        singular value), at most 40 passes; escapes the sign-space local
        maxima that the alternating iteration can get stuck in.  Each pass
        flips rows, then columns; returns (sigma_1, f, g, signed) of the end.

        A flip is kept when sigma_1 of the flipped pattern's matrix exceeds
        tau = val (1 + 1e-13), val = sigma_1(c) of the current matrix
        c = zl' signed zr, both read as the square root of the top eigenvalue
        of the Gram matrix on the smaller side of c.  A flip adds a rank-one
        a b' to c: a flip of row j adds zl_j (-2 signed_j zr)', of column j
        (-2 zl' signed[:, j]) zr_j'.  By interlacing sigma_2(c + a b') <= val
        < tau, so tau^2 I - (c + a b')(c + a b')' has at most one negative
        eigenvalue and the sign of its determinant decides the flip.  By the
        matrix determinant lemma, that determinant over the positive
        det(tau^2 I - c c') is d = (1 - B)^2 - A (|b|^2 + C), where A, B and
        C are a' M^-1 a, a' M^-1 c b and (c b)' M^-1 c b for
        M = tau^2 I - c c', read from the eigendecomposition of c c'.  The
        top eigenvalue puts 1 / delta, delta = tau^2 - val^2 (about
        2e-13 val^2), into each of A, B and C; _flip_screen cancels the
        1 / delta^2 terms of d by hand and evaluates d delta, whose sign
        rounding would otherwise decide.

        _flip_screen takes every remaining flip of a loop at once and skips
        a flip only when it clears it by SCREEN_MARGIN twice over: with tau^2
        lowered by SCREEN_MARGIN (val + |a| |b|)^2, for the rounding of the
        Gram matrix, its eigendecomposition and the rank-one terms, d delta
        must exceed SCREEN_MARGIN times the sum of its terms' magnitudes.
        Every other flip gets the exact test, the eigendecomposition of its
        own Gram matrix, which the next screen reads when the flip is kept.
        So a polish decomposes the start, each accepted flip and each flip
        the screen was unsure of but the exact test rejected, and the
        witnesses come from one full SVD of the final pattern.  At val = 0,
        c = 0 and a flip is kept iff its rank-one term is nonzero.
        """
        signed = signed.copy()
        zl, zr = self._normalized
        c = zl.T @ signed @ zr
        eig = _gram_eigh(c)
        val = math.sqrt(max(eig[0][-1], 0.0))
        for _ in range(40):
            before = val
            for rows in (True, False):
                lines = signed if rows else signed.T
                a, b = (zl, -2.0 * signed @ zr) if rows else (-2.0 * signed.T @ zl, zr)
                i = 0
                while i < len(lines):
                    start, i = i, len(lines)
                    skip = _flip_screen(c, eig, a[start:], b[start:], val)
                    for j in start + np.flatnonzero(~skip):
                        cand = c + np.outer(a[j], b[j])
                        cand_eig = _gram_eigh(cand)
                        sigma = math.sqrt(max(cand_eig[0][-1], 0.0))
                        if sigma > val * (1.0 + 1e-13):
                            lines[j] = -lines[j]
                            val, c, eig, i = sigma, cand, cand_eig, j + 1
                            break
            if val == before:
                break
        return (*self._sigma_max_signed(signed), signed)

    def search_sup(self, iters: int, seed: int, restarts: int = 8) -> FormResult:
        """Multi-start alternating maximization; monotone per iteration.

        On small dense forms each run is finished by an exact sign-flip local
        search (1-opt in sign space with the true singular-value objective).
        """
        _check_search(iters, restarts)
        rng = np.random.default_rng(seed)
        n1, n2 = self.m.shape
        polish = n1 + n2 <= FLIP_LIMIT and self._dense
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
            if polish:
                fval, ff, fg, _ = self._flip_polish(_sign(af)[:, None] * self.m * _sign(bg))
                if fval > val:
                    # the achieved form value can only be at least the signed one
                    val = max(fval, self.value(ff, fg))
                    f, g = ff, fg
            if best is None or val > best.value:
                best = FormResult(value=val, left=f, right=g)
        return best


def weighted_form(w_values: np.ndarray, m, left, right) -> AbsBilinearForm:
    """The form of the operators m, left, right (through _form_operands) on the
    unit balls of L2(w) x L2(1/w), from w's 2^d leaf values: metrics w 2^-d, 2^-d / w."""
    depth = w_values.size.bit_length() - 1
    scale = 2.0**-depth
    m, left, right = _form_operands(depth, m, left, right)
    return AbsBilinearForm(m, left, right, w_values * scale, (1.0 / w_values) * scale)
