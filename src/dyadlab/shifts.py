"""Dyadic shifts as sub-bilinear forms and their weighted norms.

A shift of complexity n pairs the Haar coefficient of f1 on I with those of
f2 on the n-th generation descendants J, with coefficients |c_IJ| <= 1 and a
2^{-n/2} normalization.  Only the magnitudes of the coefficients matter:
both Haar coefficients enter through absolute values, so the form is kept
sign-invariant by construction (c and -c give the same form).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .forms import AbsBilinearForm, weighted_form
from .tree import (
    MAX_DEPTH,
    DomainError,
    LeafFunction,
    LinearOperator,
    StructureError,
    _check_depth,
    _dense,
    _haar_operator,
    _read_only,
    haar_analysis,
    n_internal,
)
from .weights import Weight


def _coeff_shape(complexity: int, depth: int) -> Tuple[int, int]:
    """Shape of a ShiftSpec's coefficients: one row per I whose n-th
    generation descendants are internal, heap-ordered, one column per
    descendant J, left to right."""
    if not 0 <= complexity <= MAX_DEPTH:
        raise DomainError(f"complexity must lie in [0, {MAX_DEPTH}], got {complexity}")
    _check_depth(depth)
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


def shift_form(spec: ShiftSpec, w: Weight) -> AbsBilinearForm:
    """The shift's form on the unit balls of L2(w) x L2(1/w).  Its sup is
    exact_sup (mode "exact") up to forms.ENUM_LIMIT = 15 nonzero
    coefficients, so at every complexity up to depth 4, and above it
    search_sup, an alternating-maximization "lower_bound"."""
    if w.depth != spec.depth:
        raise StructureError("weight depth must match the shift depth")
    h = _haar_operator(spec.depth)
    return weighted_form(w, ShiftOperator(spec), h, h)

