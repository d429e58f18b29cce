"""Finite dyadic tree on [0,1): intervals, leaf functions, Haar analysis,
and the matrix-free linear operators the forms are built from.

Everything downstream computes on a depth-n binary subdivision of [0,1).
A function is represented by its 2^n leaf values; dyadic intervals are
(level, position) pairs.  All objects are immutable after construction and
all operations are pure, so they are safe to share across workers.

Per-interval quantities are stored heap-ordered: interval (lev, p) sits at
index (1 << lev) - 1 + p, the children of entry i are at 2 i + 1 and 2 i + 2,
and the leaves come last.  `heap_averages` computes the averages over every
dyadic interval in one bottom-up pass; the first 2^n - 1 entries are the
internal intervals, level after level, so a level is one contiguous slice.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

# 2^20 leaves is already past anything useful at desk scale.
MAX_DEPTH = 20
# Dense (2^d - 1) x 2^d float matrices take 134 MB at depth 12, 537 MB at
# depth 13 and 2 GB at depth 14, so the dense form builders stop at 12.
MAX_DENSE_DEPTH = 12


class DomainError(ValueError):
    """An index or parameter falls outside its allowed range."""


class StructureError(ValueError):
    """Mismatched depths or missing structural data."""


class InvariantError(AssertionError):
    """A checked mathematical invariant failed at runtime."""


@dataclass(frozen=True, order=True)
class DyadicIndex:
    """The dyadic interval [position*2^-level, (position+1)*2^-level)."""

    level: int
    position: int

    def __post_init__(self):
        if self.level < 0:
            raise DomainError(f"negative level {self.level}")
        if not 0 <= self.position < (1 << self.level):
            raise DomainError(
                f"position {self.position} out of range at level {self.level}"
            )

    @property
    def heap_index(self) -> int:
        """The entry of this interval in a heap-ordered array."""
        return (1 << self.level) - 1 + self.position

    @property
    def length(self) -> float:
        return 2.0 ** -self.level

    def child_left(self) -> "DyadicIndex":
        return DyadicIndex(self.level + 1, 2 * self.position)

    def child_right(self) -> "DyadicIndex":
        return DyadicIndex(self.level + 1, 2 * self.position + 1)

    def parent(self) -> "DyadicIndex":
        if self.level == 0:
            raise DomainError("root has no parent")
        return DyadicIndex(self.level - 1, self.position // 2)

    def contains(self, other: "DyadicIndex") -> bool:
        if other.level < self.level:
            return False
        return (other.position >> (other.level - self.level)) == self.position

    def leaf_slice(self, depth: int) -> slice:
        """Slice of the leaf array (at the given depth) covered by this interval."""
        if self.level > depth:
            raise DomainError(f"level {self.level} exceeds depth {depth}")
        span = 1 << (depth - self.level)
        return slice(self.position * span, (self.position + 1) * span)


ROOT = DyadicIndex(0, 0)


def internal_indices(depth: int) -> Iterator[DyadicIndex]:
    """All intervals strictly above leaf level, root first, left to right."""
    for level in range(depth):
        for position in range(1 << level):
            yield DyadicIndex(level, position)


def _check_depth(depth: int) -> None:
    """Refuse a tree depth outside [1, MAX_DEPTH], before anything is allocated."""
    if not 1 <= depth <= MAX_DEPTH:
        raise DomainError(f"depth must lie in [1, {MAX_DEPTH}], got {depth}")


def n_internal(depth: int) -> int:
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    return (1 << depth) - 1


def _mean(a: np.ndarray):
    """Mean of a 1-d float array: the sum and division numpy's mean makes
    there, without its Python-level dispatch."""
    return np.add.reduce(a) / a.size


class LeafFunction:
    """Real-valued function on the 2^depth leaves, ordered left to right."""

    __slots__ = ("depth", "values")

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise StructureError("leaf values must be a 1-d array")
        n = arr.size
        depth = n.bit_length() - 1
        if n < 2 or (1 << depth) != n:
            raise StructureError(f"number of leaves must be a power of two >= 2, got {n}")
        if depth > MAX_DEPTH:
            raise DomainError(f"depth {depth} exceeds cap {MAX_DEPTH}")
        if not np.isfinite(arr).all():
            raise DomainError("leaf values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LeafFunction is immutable")

    @classmethod
    def constant(cls, depth: int, c: float) -> "LeafFunction":
        return cls(np.full(1 << depth, float(c)))

    def integral(self) -> float:
        return float(_mean(self.values))

    def norm2(self) -> float:
        return float(np.sqrt(_mean(self.values**2)))

    def __repr__(self):
        return f"LeafFunction(depth={self.depth}, values={self.values!r})"


@dataclass(frozen=True, eq=False)
class HaarExpansion:
    """Mean plus one Haar coefficient per internal interval, heap-ordered."""

    depth: int
    mean: float
    coefficients: np.ndarray


def average(f: LeafFunction, I: DyadicIndex) -> float:
    """Average of f over I."""
    if I.level > f.depth:
        raise DomainError(f"interval level {I.level} below leaf level {f.depth}")
    return float(_mean(f.values[I.leaf_slice(f.depth)]))


def martingale_difference(f: LeafFunction, I: DyadicIndex) -> float:
    """Half-difference of the children averages: (<f>_left - <f>_right) / 2."""
    if I.level >= f.depth:
        raise DomainError("martingale difference needs an internal interval")
    return (average(f, I.child_left()) - average(f, I.child_right())) / 2.0


def haar_coefficient(f: LeafFunction, I: DyadicIndex) -> float:
    """(f, h_I) with h_I = |I|^{-1/2} on the left half, -|I|^{-1/2} on the right."""
    return np.sqrt(I.length) * martingale_difference(f, I)


# Up to this many leaves per row, heap_averages builds the levels of a stack
# as flat arrays (its docstring says why); above it, in place, row by row.
_FLAT_STACK_LEAVES = 1 << 12


def heap_averages(values) -> np.ndarray:
    """Averages over every dyadic interval, heap-ordered along the last axis:
    a 2^d vector gives 2^(d+1) - 1 entries, a (k, 2^d) stack (or a list of
    k vectors) k such rows.  Each average is (left + right) / 2 of its
    children's.

    A vector's levels are built in place, each from the one below, and so
    are a stack's rows above _FLAT_STACK_LEAVES leaves per row, one row at a
    time.  Up to it, each level of all rows is built as one new flat array
    from the flat level below (a row's part of that has even length, so no
    pair spans two rows) and then copied into place.  The operations, and
    so the values, are the same either way.  1-d ufunc calls have about half
    the fixed cost of 2-d calls on strided views, which is most of a stack's
    time at small depths; at depth 16 and beyond the extra copy per level
    costs more than that saves.  Row by row, a k-row stack costs what k
    single rows do (Xeon core, numpy 2.4, 1 thread: 0.34 ms for 2 rows at
    depth 16, as alone; one 2-d loop over the strided stack took 0.35 ms
    there, and up to 12% less at depths 13-14 with 4 rows)."""
    x = np.asarray(values, dtype=float)
    n = x.shape[-1]
    out = np.empty(x.shape[:-1] + (2 * n - 1,))
    out[..., n - 1 :] = x
    if x.ndim == 1:
        _fill_levels(out)
    elif n > _FLAT_STACK_LEAVES:
        for row in out.reshape(-1, 2 * n - 1):
            _fill_levels(row)
    else:
        level = x.reshape(-1)
        for lev in range(n.bit_length() - 2, -1, -1):
            level = np.add(level[0::2], level[1::2])
            level /= 2.0
            out[..., (1 << lev) - 1 : (2 << lev) - 1] = level.reshape(x.shape[:-1] + (-1,))
    return out


def _fill_levels(heap: np.ndarray) -> None:
    """Fill the internal entries of a 1-d heap-ordered array from its leaves,
    in place, each level from the one below."""
    for lev in range((heap.size + 1).bit_length() - 3, -1, -1):
        k = 1 << lev
        parents = heap[k - 1 : 2 * k - 1]
        np.add(heap[2 * k - 1 : 4 * k - 1 : 2], heap[2 * k : 4 * k - 1 : 2], out=parents)
        parents /= 2.0


def _heap_levels(heap: np.ndarray) -> list:
    """Per-level views of a heap-ordered array: result[lev] has 2^lev entries."""
    return [heap[..., (1 << lev) - 1 : (2 << lev) - 1]
            for lev in range((heap.shape[-1] + 1).bit_length() - 1)]


def _heap_diffs(heap: np.ndarray) -> np.ndarray:
    """Martingale differences (<f>_left - <f>_right) / 2 of every internal
    interval, heap-ordered, from heap averages."""
    return (heap[..., 1::2] - heap[..., 2::2]) / 2.0


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _interval_lengths(depth: int) -> np.ndarray:
    """|I| of every internal interval, heap-ordered (read-only)."""
    return _read_only(np.concatenate([np.full(1 << lev, 2.0**-lev) for lev in range(depth)]))


def level_averages(values: np.ndarray) -> list:
    """Averages at every level: result[level] has 2^level entries, result[depth]
    holds the values themselves.  The arrays are read-only views of one
    heap_averages array."""
    return _heap_levels(_read_only(heap_averages(values)))


def level_diffs(avgs: list) -> list:
    """Martingale differences (<f>_left - <f>_right) / 2 per internal level,
    from level averages: result[level] has 2^level entries."""
    return _heap_levels(_heap_diffs(np.concatenate(avgs, axis=-1)))


def haar_analysis(f: LeafFunction) -> HaarExpansion:
    return HaarExpansion(depth=f.depth, mean=f.integral(), coefficients=_read_only(
        _heap_diffs(heap_averages(f.values)) * np.sqrt(_interval_lengths(f.depth))))


def _synthesis_values(mean: float, coeffs: np.ndarray) -> np.ndarray:
    """Leaf values with the given mean and Haar coefficients (f, h_I), the
    coefficients heap-ordered; the inverse of haar analysis."""
    avgs = np.array([mean])
    for level in range((coeffs.size + 1).bit_length() - 1):
        k = 1 << level
        deltas = coeffs[k - 1 : 2 * k - 1] / np.sqrt(2.0**-level)
        nxt = np.empty(2 * k)
        nxt[0::2] = avgs + deltas
        nxt[1::2] = avgs - deltas
        avgs = nxt
    return avgs


def haar_synthesis(e: HaarExpansion) -> LeafFunction:
    """Exact inverse of haar_analysis."""
    coeffs = np.asarray(e.coefficients, dtype=float)
    n = n_internal(e.depth)
    if coeffs.shape != (n,):
        raise StructureError(f"expected {n} coefficients, got {coeffs.shape}")
    return LeafFunction(_synthesis_values(e.mean, coeffs))


def _check_dense_depth(depth: int, rows: int, cols: int) -> None:
    """Refuse a dense rows x cols float matrix above MAX_DENSE_DEPTH."""
    if depth > MAX_DENSE_DEPTH:
        raise DomainError(
            f"depth {depth} exceeds the dense-matrix cap {MAX_DENSE_DEPTH}: one "
            f"{rows} x {cols} matrix would take {8 * rows * cols} bytes"
        )


class LinearOperator:
    """A linear map applied without its matrix, in the protocol of
    forms.AbsBilinearForm: `op @ x` maps a vector or the columns of a 2-d
    block along axis 0 (so `op @ np.eye(n)` is the dense matrix), `x @ op`
    and `op.T` give the adjoint, `shape` and `nbytes` read like an ndarray's.
    Subclasses set `shape` and define `_apply`, `_apply_adjoint` and `nbytes`.
    """

    # ndarray @ op returns NotImplemented, so Python calls op.__rmatmul__
    __array_ufunc__ = None

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[:1] != self.shape[1:]:
            raise StructureError(
                f"operator of shape {self.shape} cannot apply to shape {x.shape}")
        return self._apply(x)

    def __rmatmul__(self, x):
        return (self.T @ np.asarray(x, dtype=float).T).T

    @property
    def T(self) -> "LinearOperator":
        return _Adjoint(self)


class _Adjoint(LinearOperator):
    def __init__(self, op: LinearOperator):
        self.op = op
        self.shape = op.shape[::-1]

    def _apply(self, x):
        return self.op._apply_adjoint(x)

    def _apply_adjoint(self, x):
        return self.op._apply(x)

    @property
    def T(self) -> LinearOperator:
        return self.op

    @property
    def nbytes(self) -> int:
        return self.op.nbytes


class IdentityOperator(LinearOperator):
    """The n x n identity; it stores nothing."""

    nbytes = 0

    def __init__(self, n: int):
        self.shape = (n, n)

    def _apply(self, x):
        return x

    _apply_adjoint = _apply


def _column(v, x):
    """v shaped to broadcast along axis 0 of x."""
    return v.reshape(v.shape + (1,) * (x.ndim - 1))


class TwoValuedRowOperator(LinearOperator):
    """(2^d - 1) x 2^d map with rows ordered like internal_indices: row I
    takes left[i] on the left half of I and right[i] on the right half, i
    the heap index of I (left and right are heap-ordered arrays of 2^d - 1
    row values), times the leafwise column multiplier `mult` when given.

    The product sums the (multiplied) leaf values over every dyadic interval
    bottom up, in O(2^d) per column; the adjoint accumulates each row's
    value down the tree, as Haar synthesis does.
    """

    def __init__(self, depth: int, left, right, mult=None):
        n = 1 << depth
        self.depth = depth
        self.shape = (n - 1, n)
        self.left, self.right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
        if self.left.shape != (n - 1,) or self.right.shape != (n - 1,):
            raise StructureError(f"expected {n - 1} row values per half, got "
                                 f"{self.left.shape} and {self.right.shape}")
        self.mult = None if mult is None else np.asarray(mult, dtype=float)

    @property
    def nbytes(self) -> int:
        return self.left.nbytes + self.right.nbytes + (
            0 if self.mult is None else self.mult.nbytes)

    def _apply(self, x):
        n = self.shape[1]
        # sums over every dyadic interval, heap-ordered: interval (lev, p) at
        # (1 << lev) - 1 + p, its children at 2 i + 1 and 2 i + 2, leaves last
        sums = np.empty((2 * n - 1,) + x.shape[1:])
        sums[n - 1 :] = x if self.mult is None else _column(self.mult, x) * x
        for lev in range(self.depth - 1, -1, -1):
            k = 1 << lev
            np.add(sums[2 * k - 1 : 4 * k - 1 : 2], sums[2 * k : 4 * k - 1 : 2],
                   out=sums[k - 1 : 2 * k - 1])
        return _column(self.left, x) * sums[1::2] + _column(self.right, x) * sums[2::2]

    def _apply_adjoint(self, y):
        n = self.shape[1]
        # acc[i]: the sum of the row values over the strict ancestors of
        # interval i, heap-ordered as in _apply
        acc = np.empty((2 * n - 1,) + y.shape[1:])
        acc[0] = 0.0
        ly = _column(self.left, y) * y
        ry = _column(self.right, y) * y
        for lev in range(self.depth):
            k = 1 << lev
            rows = slice(k - 1, 2 * k - 1)
            np.add(acc[rows], ly[rows], out=acc[2 * k - 1 : 4 * k - 1 : 2])
            np.add(acc[rows], ry[rows], out=acc[2 * k : 4 * k - 1 : 2])
        leaves = acc[n - 1 :]
        return leaves if self.mult is None else _column(self.mult, y) * leaves


def _dense(op: LinearOperator, depth: int) -> np.ndarray:
    """The matrix of op, refused above MAX_DENSE_DEPTH before allocating."""
    rows, cols = op.shape
    _check_dense_depth(depth, rows, cols)
    return op @ np.eye(cols)


def _haar_operator(depth: int, mult=None) -> TwoValuedRowOperator:
    """H with (H f)_I = (f, h_I), times the leafwise multiplier when given."""
    amp = 1.0 / np.sqrt(_interval_lengths(depth)) * 2.0**-depth
    return TwoValuedRowOperator(depth, amp, -amp, mult)


def haar_analysis_matrix(depth: int) -> np.ndarray:
    """Matrix H with (H f)_I = (f, h_I); rows follow internal_indices order."""
    if depth < 1:  # as LeafFunction, which needs two leaves
        raise DomainError(f"haar_analysis_matrix needs depth >= 1, got {depth}")
    return _dense(_haar_operator(depth), depth)


def _subtree_sum(t: np.ndarray, top: int) -> float:
    """Sum of |I| t_I over a subtree whose root lies at level top, where t
    holds t_I heap-ordered from that root: each level is summed on its
    contiguous slice, times its length 2^-(top + k) in the whole tree, then
    the levels are added in order."""
    total = 0.0
    for k, level in enumerate(_heap_levels(t)):
        total += 2.0 ** -(top + k) * np.add.reduce(level)
    return total


def _subtree_sums(t: np.ndarray) -> np.ndarray:
    """sum_{I inside or equal to L} t_I for every internal L, heap-ordered like
    t, accumulated from the bottom up."""
    sums = t.copy()
    for lev in range((t.size + 1).bit_length() - 3, -1, -1):
        k = 1 << lev
        sums[k - 1 : 2 * k - 1] = (t[k - 1 : 2 * k - 1] + sums[2 * k - 1 : 4 * k - 1 : 2]
                                   + sums[2 * k : 4 * k - 1 : 2])
    return sums


def save_leaf_function(f: LeafFunction, path, comments=()) -> None:
    """Text format: `depth=<n>` first, optional `# ...` lines, one value per line.
    Each line of a multi-line comment gets its own `# ` line."""
    with open(path, "w") as fh:
        fh.write(f"depth={f.depth}\n")
        for c in comments:
            for line in c.splitlines():
                fh.write(f"# {line}\n")
        for v in f.values:
            fh.write(f"{float(v)!r}\n")


def load_leaf_function(path) -> LeafFunction:
    """Read save_leaf_function's format; a malformed or misplaced line raises an
    error naming it.  `# ...` lines may come before the header too."""
    depth = None
    vals = []
    with open(path) as fh:
        for num, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            header = line.startswith("depth=")
            if header and depth is not None:
                raise StructureError(f"line {num}: a second `depth=` header")
            if not header and depth is None:
                raise StructureError(f"line {num}: a value before `depth=`")
            try:
                value = int(line[len("depth="):]) if header else float(line)
            except ValueError:
                what = "`depth=<n>`" if header else "a number"
                raise StructureError(f"line {num}: expected {what}, got {line!r}") from None
            if not header:
                vals.append(value)
            elif not 1 <= value <= MAX_DEPTH:
                raise DomainError(f"line {num}: depth must lie in [1, {MAX_DEPTH}], got {value}")
            else:
                depth = value
    if depth is None:
        raise StructureError("missing depth= header line")
    if len(vals) != 1 << depth:
        raise StructureError(f"expected {1 << depth} values, got {len(vals)}")
    return LeafFunction(vals)
