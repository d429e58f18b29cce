"""Dyadic shifts as sub-bilinear forms and their weighted norms.

A shift of complexity n pairs the Haar coefficient of f1 on I with those of
f2 on the n-th generation descendants J, with coefficients |c_IJ| <= 1 and a
2^{-n/2} normalization.  Only the magnitudes of the coefficients matter:
both Haar coefficients enter through absolute values, so the form is kept
sign-invariant by construction (c and -c give the same form).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .forms import AbsBilinearForm, FormResult, _form_operands
from .tree import (
    DomainError,
    DyadicIndex,
    LeafFunction,
    LinearOperator,
    StructureError,
    _dense,
    _haar_operator,
    _synthesis_values,
    internal_indices,
    level_haar_coeffs,
    n_internal,
)
from .weights import Weight, dual

EXACT_CAP = 15  # internal intervals; past this, exact mode refuses


def valid_pairs(complexity: int, depth: int):
    """All (I, J) with J inside I, |J| = 2^-n |I|, both internal."""
    if complexity < 0:
        raise DomainError("complexity must be >= 0")
    for I in internal_indices(depth):
        if I.level + complexity >= depth and complexity > 0:
            continue
        base = I.position << complexity
        for k in range(1 << complexity):
            J = DyadicIndex(I.level + complexity, base + k)
            yield I, J


@dataclass(frozen=True)
class ShiftSpec:
    complexity: int
    depth: int
    coeffs: Dict[Tuple[DyadicIndex, DyadicIndex], float]

    def __post_init__(self):
        if self.complexity < 0:
            raise DomainError("complexity must be >= 0")
        if self.depth < 1:
            raise DomainError("depth must be >= 1")
        for (I, J), c in self.coeffs.items():
            if abs(c) > 1.0:
                raise DomainError(f"|c| must be <= 1, got {c} at ({I}, {J})")
            if J.level != I.level + self.complexity or not I.contains(J):
                raise DomainError(f"pair ({I}, {J}) violates the shift pattern")
            if I.level >= self.depth or J.level >= self.depth:
                raise DomainError(f"pair ({I}, {J}) is not internal at depth {self.depth}")

    @classmethod
    def constant(cls, complexity: int, depth: int, value: float = 1.0) -> "ShiftSpec":
        coeffs = {pair: value for pair in valid_pairs(complexity, depth)}
        return cls(complexity=complexity, depth=depth, coeffs=coeffs)

    @classmethod
    def random(cls, complexity: int, depth: int, seed: int) -> "ShiftSpec":
        rng = np.random.default_rng(seed)
        coeffs = {pair: float(rng.uniform(-1, 1)) for pair in valid_pairs(complexity, depth)}
        return cls(complexity=complexity, depth=depth, coeffs=coeffs)


class ShiftOperator(LinearOperator):
    """The N x N map of 2^{-n/2} |c_IJ| (N internal intervals, ordered like
    internal_indices), applied per level in O(N 2^n).

    Row I's coefficients are the 2^n entries of blocks[r], r its index in
    internal_indices; its n-th generation descendants J are consecutive in
    that order, and so are the descendant blocks of consecutive I.
    """

    def __init__(self, spec: ShiftSpec):
        n = n_internal(spec.depth)
        width = 1 << spec.complexity
        self.shape = (n, n)
        self.offset = width - 1  # index of the first interval at level n
        self.blocks = np.zeros(((1 << max(spec.depth - spec.complexity, 0)) - 1, width))
        scale = 2.0 ** (-spec.complexity / 2.0)
        for (I, J), c in spec.coeffs.items():
            self.blocks[(1 << I.level) - 1 + I.position,
                        J.position - (I.position << spec.complexity)] = scale * abs(c)

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


def _coeff_vector(f: LeafFunction) -> np.ndarray:
    return np.concatenate(level_haar_coeffs(f.values))


def form_value(spec: ShiftSpec, f1: LeafFunction, f2: LeafFunction) -> float:
    """The sub-bilinear sum with absolute values on both Haar coefficients."""
    if f1.depth != spec.depth or f2.depth != spec.depth:
        raise StructureError("function depths must match the shift depth")
    a = np.abs(_coeff_vector(f1))
    b = np.abs(_coeff_vector(f2))
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
    """T f = sum_I signs(I) (f, h_I) h_I, with the mean set to zero."""
    mult = []
    for I in internal_indices(f.depth):
        if I not in signs:
            raise StructureError(f"missing sign for {I}")
        s = signs[I]
        if abs(s) > 1.0:
            raise DomainError(f"sign multiplier {s} outside [-1, 1]")
        mult.append(s)
    return LeafFunction(_synthesis_values(0.0, np.array(mult, dtype=float) * _coeff_vector(f)))


def save_shift_spec(spec: ShiftSpec, path) -> None:
    """Header `complexity=<n> depth=<d>`, then `I_level I_pos J_level J_pos c`."""
    with open(path, "w") as fh:
        fh.write(f"complexity={spec.complexity} depth={spec.depth}\n")
        for (I, J), c in sorted(spec.coeffs.items()):
            fh.write(f"{I.level} {I.position} {J.level} {J.position} {c!r}\n")


def load_shift_spec(path) -> ShiftSpec:
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(tok.split("=") for tok in header.split())
        complexity = int(fields["complexity"])
        depth = int(fields["depth"])
        coeffs = {}
        for line in fh:
            line = line.strip()
            if not line:
                continue
            il, ip, jl, jp, c = line.split()
            pair = (DyadicIndex(int(il), int(ip)), DyadicIndex(int(jl), int(jp)))
            coeffs[pair] = float(c)
    return ShiftSpec(complexity=complexity, depth=depth, coeffs=coeffs)
