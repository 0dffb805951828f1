"""Discrete analogue: subsets of the grid [k]^n under Manhattan distance.

Cells are n-tuples over {0, ..., k-1}.  The simplicial order sorts cells
by coordinate sum and, inside a level, antilexicographically by the
first differing coordinate (larger first coordinate means earlier).  The
extremal-pair fact checked here: among all pairs of subsets of sizes r
and s, the initial and final segments of the simplicial order realize
the largest possible set distance.  verify_extremal_pairs confirms it by
exhaustive search on small grids, taking the r-subsets in fixed blocks
of batched numpy work so that memory stays bounded however many there
are.

Subsets are bit masks over the row-major cell index.  The segments come
from one lexsort of the cell coordinates.  t_boundary and set_distance
both read one axis-sweep distance transform of a set.

count_cells_sum_le and scaled_max_distance handle the slab counting on
the scaled lattice {0, 1/m, ..., 1}^n whose normalized max distance
approaches the continuous diagonal-slab value -2 sqrt(pi/6) phi_inv(eps);
the count is an exact inclusion-exclusion sum.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

import numpy as np

from .bodies import validate_epsilon, validate_n
from .errors import (BudgetExceededError, DimensionMismatchError, DomainError,
                     EmptySetError, RangeError)

Cell = Tuple[int, ...]

_EXACT_CELL_LIMIT = 32
_SWEEP_BLOCK = 512  # r-subsets per block of the exhaustive sweep
DEFAULT_PAIR_BUDGET = 10_000_000


@dataclass(frozen=True)
class Grid:
    k: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "k", validate_n(self.k, 2))
        object.__setattr__(self, "n", validate_n(self.n, 1))

    @property
    def size(self) -> int:
        return self.k**self.n

    def cells(self) -> Iterator[Cell]:
        # row-major: last coordinate fastest, matching index()
        return itertools.product(range(self.k), repeat=self.n)

    def index(self, cell: Cell) -> int:
        if len(cell) != self.n:
            raise DimensionMismatchError(
                f"cell {cell} has {len(cell)} coordinates, grid has n={self.n}")
        i = 0
        for c in cell:
            try:
                c = operator.index(c)
            except TypeError:
                raise DomainError(f"cell {cell} has a non-integer coordinate") from None
            if not 0 <= c < self.k:
                raise DomainError(f"cell {cell} outside grid")
            i = i * self.k + c
        return i

    def cell(self, index: int) -> Cell:
        if not 0 <= index < self.size:
            raise RangeError(f"index {index} outside grid of size {self.size}")
        out = []
        for _ in range(self.n):
            index, c = divmod(index, self.k)
            out.append(c)
        return tuple(reversed(out))


def simplicial_key(cell: Cell):
    return (sum(cell), tuple(-c for c in cell))


def simplicial_cmp(x: Cell, y: Cell) -> int:
    """-1, 0 or 1 as x precedes, equals or follows y in the simplicial order.

    x < y iff sum(x) < sum(y), or the sums tie and x_j > y_j at the first
    index j where they differ.
    """
    if len(x) != len(y):
        raise DimensionMismatchError("cells of different dimension")
    kx, ky = simplicial_key(x), simplicial_key(y)
    # bool() so numpy integer coordinates cannot turn this into np.bool_
    return bool(kx > ky) - bool(kx < ky)


def _mask_bits(handle: SubsetHandle) -> np.ndarray:
    """The mask as a boolean array of shape (k,)*n, cell x at bits[x]."""
    g = handle.grid
    raw = np.frombuffer(handle.mask.to_bytes((g.size + 7) // 8, "little"), np.uint8)
    bits = np.unpackbits(raw, count=g.size, bitorder="little")
    return bits.view(bool).reshape((g.k,) * g.n)


def _bits_mask(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class SubsetHandle:
    grid: Grid
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.grid.size:
            raise RangeError(f"mask {self.mask} has bits outside a grid of "
                             f"{self.grid.size} cells")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def contains(self, cell: Cell) -> bool:
        return bool(self.mask >> self.grid.index(cell) & 1)

    def cells(self) -> list[Cell]:
        return [tuple(c) for c in np.argwhere(_mask_bits(self)).tolist()]

    @classmethod
    def from_cells(cls, grid: Grid, cells: Sequence[Cell]) -> "SubsetHandle":
        mask = 0
        for c in cells:
            mask |= 1 << grid.index(c)
        return cls(grid, mask)


def _segment(grid: Grid, count: int, final: bool) -> SubsetHandle:
    if not 0 <= count <= grid.size:
        raise RangeError(f"segment size {count} outside [0, {grid.size}]")
    c = np.indices((grid.k,) * grid.n).reshape(grid.n, -1)
    # lexsort's last key is the primary one: coordinate sum, then -c_0, -c_1, ...
    order = np.lexsort(np.vstack((-c[::-1], c.sum(axis=0))))
    bits = np.zeros(grid.size, dtype=bool)
    bits[order[grid.size - count:] if final else order[:count]] = True
    return SubsetHandle(grid, _bits_mask(bits))


def initial_segment(grid: Grid, r: int) -> SubsetHandle:
    """First r cells of the simplicial order."""
    return _segment(grid, r, final=False)


def final_segment(grid: Grid, s: int) -> SubsetHandle:
    """Last s cells of the simplicial order."""
    return _segment(grid, s, final=True)


def _distance_to(handle: SubsetHandle) -> np.ndarray:
    """Manhattan distance from every cell to the nearest cell of the set,
    shaped (k,)*n.  L1 splits by coordinate, so a forward sweep
    d[i] = min(d[i], d[i-1] + 1), i.e. min_{j<=i}(d[j] - j) + i, and the
    mirrored backward sweep along each axis give the exact distance."""
    grid = handle.grid
    d = np.where(_mask_bits(handle), 0, grid.n * (grid.k - 1) + 1)
    step = np.arange(grid.k)
    for axis in range(grid.n):
        v = np.moveaxis(d, axis, -1)
        v = np.minimum.accumulate(v - step, axis=-1) + step
        v = np.minimum.accumulate((v + step)[..., ::-1], axis=-1)[..., ::-1] - step
        d = np.moveaxis(v, -1, axis)
    return d


def t_boundary(handle: SubsetHandle, t: int) -> SubsetHandle:
    """Closed t-neighborhood: cells within lattice distance t of the set.

    Thresholds the axis-sweep distance transform at t; t = 0 returns the
    set itself.
    """
    if t < 0:
        raise DomainError("t must be >= 0")
    if handle.mask == 0:
        raise EmptySetError("t-boundary of an empty set")
    return SubsetHandle(handle.grid, _bits_mask(_distance_to(handle) <= t))


def set_distance(a: SubsetHandle, b: SubsetHandle) -> int:
    """Smallest Manhattan distance over pairs (x, y) in A x B: the axis-sweep
    distance transform of A, minimized over the cells of B."""
    if a.grid != b.grid:
        raise DimensionMismatchError("subsets live on different grids")
    if a.mask == 0 or b.mask == 0:
        raise EmptySetError("distance needs two nonempty sets")
    return int(_distance_to(a)[_mask_bits(b)].min())


@dataclass(frozen=True)
class ExtremalCheck:
    k: int
    n: int
    r: int
    s: int
    brute_max: int
    segment_distance: int
    agree: bool
    search_space: int


@lru_cache(maxsize=None)
def _distance_matrix(k: int, n: int) -> np.ndarray:
    """Pairwise Manhattan distances of [k]^n in row-major cell order, as
    uint8: the exhaustive search only runs where n(k-1) <= 31."""
    c = np.indices((k,) * n).reshape(n, -1)
    return np.abs(c[:, :, None] - c[:, None, :]).sum(axis=0).astype(np.uint8)


@lru_cache(maxsize=None)
def _sweep_max_by_s(k: int, n: int, r: int) -> tuple:
    """For each s, the max over all |A| = r of the s-th largest min-distance
    to A.  Picking the s farthest cells is the exact best B for a fixed A,
    so best[s-1] equals the literal max over (A, B) pairs.

    The r-subsets are taken from itertools.combinations in blocks of
    _SWEEP_BLOCK.  Each block gathers the rows of D for its subsets (D is
    symmetric), takes their minimum, sorts every row and folds the rows
    into the running maximum, so memory stays bounded by the block, about
    half a megabyte at the largest grid, whatever C(k^n, r) is.
    """
    D = _distance_matrix(k, n)
    size = k**n
    best = np.zeros(size, dtype=np.uint8)  # ascending: best[-s] is the s-th largest
    flat = itertools.chain.from_iterable(itertools.combinations(range(size), r))
    while (idx := np.fromiter(itertools.islice(flat, _SWEEP_BLOCK * r),
                              dtype=np.intp)).size:
        d = np.sort(D[idx.reshape(-1, r)].min(axis=1), axis=1)
        np.maximum(best, d.max(axis=0), out=best)
    return tuple(int(v) for v in best[::-1])


def verify_extremal_pairs(grid: Grid, r: int, s: int,
                          budget: int = DEFAULT_PAIR_BUDGET) -> ExtremalCheck:
    """Exhaustively compare the brute-force extremal distance with the
    simplicial initial/final segment distance.

    The search space is counted as C(k^n, r) * C(k^n, s) pairs; requests
    beyond the budget raise BudgetExceededError carrying that size.
    """
    if grid.size > _EXACT_CELL_LIMIT:
        raise RangeError(f"exact mode needs k^n <= {_EXACT_CELL_LIMIT}, got {grid.size}")
    if not (1 <= r <= grid.size and 1 <= s <= grid.size):
        raise RangeError(f"need 1 <= r, s <= {grid.size}")
    space = math.comb(grid.size, r) * math.comb(grid.size, s)
    if space > budget:
        raise BudgetExceededError(
            f"search space {space} exceeds budget {budget}", space)
    brute = _sweep_max_by_s(grid.k, grid.n, r)[s - 1]
    seg = set_distance(initial_segment(grid, r), final_segment(grid, s))
    return ExtremalCheck(grid.k, grid.n, r, s, brute, seg, brute == seg, space)


def count_cells_sum_le(k: int, n: int, s: int) -> int:
    """Number of cells of [k]^n with coordinate sum <= s, exactly.

    Inclusion-exclusion over the j coordinates forced to k or more,
    sum_j (-1)^j C(n, j) C(s - jk + n, n) with s clipped to n(k-1), on
    python integers, so the count stays exact far beyond 2^53.  A
    fractional s counts the cells with sum <= floor(s); s = +inf counts
    every cell and s = -inf none; NaN raises DomainError.
    """
    k, n = validate_n(k, 2), validate_n(n, 1)
    if s != s:
        raise DomainError("s must be a number, got NaN")
    if s < 0:
        return 0
    s = math.floor(min(s, n * (k - 1)))
    return sum((-1) ** j * math.comb(n, j) * math.comb(s - j * k + n, n)
               for j in range(s // k + 1))


def scaled_max_distance(n: int, m: int, eps: float) -> float:
    """Normalized max distance between eps-dense slabs of the lattice cube.

    On {0, 1/m, ..., 1}^n, take the largest pair of opposing
    coordinate-sum slabs each holding at least eps * (m+1)^n cells; their
    Manhattan distance is (s_hi - s_lo) lattice steps, reported here in
    cube units and normalized by sqrt(n):  (s_hi - s_lo) / (m sqrt(n)).
    The threshold comparison is exact (integer counts against the binary
    value of eps).
    """
    eps = validate_epsilon(eps)
    n, m = validate_n(n, 1), validate_n(m, 1)
    k = m + 1
    need = Fraction(eps) * k**n
    lo, hi = 0, n * m  # smallest s with count >= need, by bisection
    while lo < hi:
        mid = (lo + hi) // 2
        if count_cells_sum_le(k, n, mid) >= need:
            hi = mid
        else:
            lo = mid + 1
    s_lo = lo
    steps = max(0, n * m - 2 * s_lo)
    return steps / (m * math.sqrt(n))
