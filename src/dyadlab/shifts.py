"""Dyadic shifts as sub-bilinear forms and their weighted norms.

A shift of complexity n pairs the Haar coefficient of f1 on I with those of
f2 on the n-th generation descendants J, with coefficients |c_IJ| <= 1 and a
2^{-n/2} normalization.  Only the magnitudes of the coefficients matter:
both Haar coefficients enter through absolute values, so the form is kept
sign-invariant by construction (c and -c give the same form).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .forms import AbsBilinearForm, FormResult, _form_operands
from .tree import (
    MAX_DEPTH,
    DomainError,
    LeafFunction,
    LinearOperator,
    StructureError,
    _dense,
    _haar_operator,
    _read_only,
    _synthesis_values,
    haar_analysis,
    internal_indices,
    n_internal,
)
from .weights import Weight, dual

EXACT_CAP = 15  # internal intervals; past this, exact mode refuses


def _coeff_shape(complexity: int, depth: int) -> Tuple[int, int]:
    """Shape of a ShiftSpec's coefficients: one row per I whose n-th
    generation descendants are internal, heap-ordered, one column per
    descendant J, left to right."""
    if not 0 <= complexity <= MAX_DEPTH:
        raise DomainError(f"complexity must lie in [0, {MAX_DEPTH}], got {complexity}")
    if not 1 <= depth <= MAX_DEPTH:
        raise DomainError(f"depth must lie in [1, {MAX_DEPTH}], got {depth}")
    return (1 << max(depth - complexity, 0)) - 1, 1 << complexity


@dataclass(frozen=True, eq=False)
class ShiftSpec:
    """The coefficients c_IJ of a shift of complexity n, read-only:
    coeffs[r, k] pairs I, the interval at heap index r, with J, its k-th
    n-th generation descendant from the left."""

    complexity: int
    depth: int
    coeffs: np.ndarray

    def __post_init__(self):
        shape = _coeff_shape(self.complexity, self.depth)
        c = np.array(self.coeffs, dtype=float)
        if c.shape != shape:
            raise StructureError(f"coefficients must have shape {shape}, got {c.shape}")
        if not np.all(np.abs(c) <= 1.0):  # also false for nan
            raise DomainError("coefficients must satisfy |c| <= 1")
        object.__setattr__(self, "coeffs", _read_only(c))

    @classmethod
    def constant(cls, complexity: int, depth: int, value: float = 1.0) -> "ShiftSpec":
        return cls(complexity, depth, np.full(_coeff_shape(complexity, depth), value, dtype=float))

    @classmethod
    def random(cls, complexity: int, depth: int, seed: int) -> "ShiftSpec":
        rng = np.random.default_rng(seed)
        return cls(complexity, depth, rng.uniform(-1, 1, size=_coeff_shape(complexity, depth)))


class ShiftOperator(LinearOperator):
    """The N x N map of 2^{-n/2} |c_IJ| (N internal intervals, heap-ordered),
    applied per level in O(N 2^n).

    blocks is 2^{-n/2} |spec.coeffs|; the n-th generation descendants J of I
    are consecutive in heap order, and so are the descendant blocks of
    consecutive I.
    """

    def __init__(self, spec: ShiftSpec):
        n = n_internal(spec.depth)
        self.shape = (n, n)
        self.offset = (1 << spec.complexity) - 1  # index of the first interval at level n
        self.blocks = 2.0 ** (-spec.complexity / 2.0) * np.abs(spec.coeffs)

    @property
    def nbytes(self) -> int:
        return self.blocks.nbytes

    def _descendants(self, x, cols):
        """x from level n down, as (row I, descendant J, column) blocks."""
        rows, width = self.blocks.shape
        return x[self.offset : self.offset + rows * width].reshape(rows, width, cols)

    def _apply(self, x):
        cols = x[0].size
        out = np.zeros((self.shape[0], cols))
        np.einsum("rk,rkc->rc", self.blocks, self._descendants(x, cols),
                  out=out[: len(self.blocks)])
        return out.reshape(x.shape)

    def _apply_adjoint(self, y):
        cols = y[0].size
        out = np.zeros((self.shape[1], cols))
        rows = len(self.blocks)
        self._descendants(out, cols)[...] = (
            self.blocks[:, :, None] * y[:rows].reshape(rows, 1, cols))
        return out.reshape(y.shape)


def shift_matrix(spec: ShiftSpec) -> np.ndarray:
    """(N x N) matrix of 2^{-n/2} |c_IJ| in internal_indices ordering."""
    return _dense(ShiftOperator(spec), spec.depth)


def form_value(spec: ShiftSpec, f1: LeafFunction, f2: LeafFunction) -> float:
    """The sub-bilinear sum with absolute values on both Haar coefficients."""
    if f1.depth != spec.depth or f2.depth != spec.depth:
        raise StructureError("function depths must match the shift depth")
    a = np.abs(haar_analysis(f1).coefficients)
    b = np.abs(haar_analysis(f2).coefficients)
    return float(a @ (ShiftOperator(spec) @ b))


@dataclass
class NormEstimate:
    value: float
    mode: str  # "exact" | "lower_bound"
    witness_f1: LeafFunction
    witness_f2: LeafFunction
    sign_pattern: Tuple[np.ndarray, np.ndarray]
    upper_bound: Optional[float] = None


def _weighted_form(spec: ShiftSpec, w: Weight) -> AbsBilinearForm:
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


def _wrap(res: FormResult, mode: str) -> NormEstimate:
    return NormEstimate(
        value=res.value,
        mode=mode,
        witness_f1=LeafFunction(res.left),
        witness_f2=LeafFunction(res.right),
        sign_pattern=(res.sign_left, res.sign_right),
        upper_bound=res.upper_bound,
    )


def norm_exact_small(spec: ShiftSpec, w: Weight) -> NormEstimate:
    """Exact sup of the form over unit balls of L2(w) x L2(sigma).

    Exhaustive over sign patterns; see forms.AbsBilinearForm.exact_sup for
    the interchange argument and the fold used at the larger sizes.
    """
    n = n_internal(spec.depth)
    if n > EXACT_CAP:
        raise DomainError(
            f"{n} internal intervals exceed the exhaustive cap {EXACT_CAP}; "
            "use norm_lower_search"
        )
    return _wrap(_weighted_form(spec, w).exact_sup(), "exact")


def norm_lower_search(
    spec: ShiftSpec, w: Weight, iters: int, seed: int, restarts: int = 8
) -> NormEstimate:
    """Alternating-maximization lower bound for the same supremum."""
    res = _weighted_form(spec, w).search_sup(iters=iters, seed=seed, restarts=restarts)
    return _wrap(res, "lower_bound")


def martingale_transform_apply(signs, f: LeafFunction) -> LeafFunction:
    """T f = sum_I signs_I (f, h_I) h_I, with the mean set to zero; signs
    holds one multiplier in [-1, 1] per internal I, heap-ordered."""
    s = np.asarray(signs, dtype=float)
    if s.shape != (n_internal(f.depth),):
        raise StructureError(f"expected {n_internal(f.depth)} signs, got shape {s.shape}")
    if not np.all(np.abs(s) <= 1.0):  # also false for nan
        raise DomainError("sign multipliers must lie in [-1, 1]")
    return LeafFunction(_synthesis_values(0.0, s * haar_analysis(f).coefficients))


def save_shift_spec(spec: ShiftSpec, path) -> None:
    """Header `complexity=<n> depth=<d>`, then `I_level I_pos J_level J_pos c` per pair, sorted."""
    n = spec.complexity
    with open(path, "w") as fh:
        fh.write(f"complexity={n} depth={spec.depth}\n")
        for I, row in zip(internal_indices(max(spec.depth - n, 0)), spec.coeffs):
            for k, c in enumerate(row):
                fh.write(f"{I.level} {I.position} {I.level + n} {(I.position << n) + k} "
                         f"{float(c)!r}\n")


def load_shift_spec(path) -> ShiftSpec:
    """Read save_shift_spec's format; a pair the file leaves out gets c = 0.
    A malformed line raises StructureError or DomainError naming it."""
    with open(path) as fh:
        header = fh.readline()
        fields = dict(tok.partition("=")[::2] for tok in header.split())
        try:
            complexity, depth = int(fields["complexity"]), int(fields["depth"])
        except (KeyError, ValueError):
            raise StructureError(f"line 1: expected `complexity=<n> depth=<d>`, "
                                 f"got {header.strip()!r}") from None
        coeffs = np.zeros(_coeff_shape(complexity, depth))
        seen = np.zeros(coeffs.shape, dtype=bool)
        for num, line in enumerate(fh, start=2):
            toks = line.split()
            if not toks:
                continue
            try:
                il, ip, jl, jp, c = toks
                il, ip, jl, jp, c = int(il), int(ip), int(jl), int(jp), float(c)
            except ValueError:
                raise StructureError(f"line {num}: expected `I_level I_pos J_level J_pos c`, "
                                     f"got {line.strip()!r}") from None
            if not abs(c) <= 1.0:  # also true for nan
                raise DomainError(f"line {num}: |c| must be <= 1, got {c}")
            k = jp - (ip << complexity)  # J's offset among I's descendants
            if not (jl == il + complexity and 0 <= il and jl < depth
                    and 0 <= ip < 1 << il and 0 <= k < 1 << complexity):
                raise DomainError(f"line {num}: ({il}, {ip}) and ({jl}, {jp}) are not an "
                                  f"internal pair of complexity {complexity} at depth {depth}")
            r = (1 << il) - 1 + ip
            if seen[r, k]:
                raise StructureError(f"line {num}: pair ({il}, {ip}), ({jl}, {jp}) given twice")
            seen[r, k] = True
            coeffs[r, k] = c
    return ShiftSpec(complexity, depth, coeffs)
