"""Discrete analogue: subsets of the grid [k]^n under Manhattan distance.

Cells are n-tuples over {0, ..., k-1}.  The simplicial order sorts cells
by coordinate sum and, inside a level, antilexicographically by the
first differing coordinate (larger first coordinate means earlier).  The
extremal-pair fact checked here: among all pairs of subsets of sizes r
and s, the initial and final segments of the simplicial order realize
the largest possible set distance.  verify_extremal_pairs confirms it
against the exact maximum on small grids.  Sets with r + s > k^n meet,
so their distance is 0; otherwise the pair is symmetric and the maximum
needs only the least |N_t(A)| over the sets A of the smaller size, which
a down-set attains since compressions never enlarge N_t (Bollobas and
Leader 1991), so only those down-sets are swept, as dilated bit masks.

Subsets are bit masks over the row-major cell index, and every set is
grown one step of N_1 at a time: a shift by the axis stride and an OR
per axis, with the cells on the axis's first or last layer masked off
so that no bit wraps into the next row.  The segments come from the
balls N_L of the origin, the cells with coordinate sum <= L.  The first
r cells of the order are the ball N_{L-1} plus the r - |N_{L-1}| highest
cells of the level N_L minus N_{L-1}, for the first L with |N_L| >= r,
since inside a level the order runs down the row-major index.  The
order is total, so the last s cells are the complement of the first
k^n - s.  The cells of N_L with first coordinate c are the ball of
[k]^(n-1) at level L - c, so the balls of [k]^(n-1) alone, grown once
per grid by that dilation (upward only), laid side by side from the
top level down and cached, give every N_L as one shift of that stack.
The stack and the dilation's axis masks each keep the last two grids:
(n(k-1)+1) k^(n-1) / 8 bytes of stack, under n k^n / 8, and n k^n / 4
bytes of masks per grid, where a sorted index array of the cells would
take 8 k^n.  A step of N_1 costs O(n k^n / 64) word operations and a
distance takes as many steps as its value, against O(n k^n) for a
distance transform, so dilation wins at small diameters and loses at
large ones: corner to corner on [200]^2, diameter 398, it took 3.3 ms
against 2.1 ms for the transform (one core of a 2-vCPU Xeon VM).

count_cells_sum_le and scaled_max_distance handle the slab counting on
the scaled lattice {0, 1/m, ..., 1}^n whose normalized max distance
approaches the continuous diagonal-slab value -2 sqrt(pi/6) phi_inv(eps);
the count is an exact inclusion-exclusion sum, and the slab threshold is
searched outward from the normal guess and decided by exact counts, each
probe one pass of the sum that gives the counts at three adjacent levels.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from .bodies import _cell, _number, _validate_epsilon, _validate_n
from .errors import (BudgetExceededError, DimensionMismatchError, DomainError,
                     EmptySetError, RangeError)
from .specfun import _gauss_tail_inv

Cell = Tuple[int, ...]

_EXACT_CELL_LIMIT = 32
DEFAULT_PAIR_BUDGET = 10_000_000
_GRID_CACHE = 2  # grids each per-grid cache keeps, so two can alternate


@dataclass(frozen=True)
class Grid:
    k: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "k", _validate_n(self.k, 2))
        object.__setattr__(self, "n", _validate_n(self.n, 1))

    @property
    def size(self) -> int:
        return self.k**self.n

    def cells(self) -> Iterator[Cell]:
        # row-major: last coordinate fastest, matching index()
        return itertools.product(range(self.k), repeat=self.n)

    def index(self, cell: Cell) -> int:
        cell = _cell(cell)
        if len(cell) != self.n:
            raise DimensionMismatchError(
                f"cell {cell} has {len(cell)} coordinates, grid has n={self.n}")
        i = 0
        for c in cell:
            if not 0 <= c < self.k:
                raise DomainError(f"cell {cell} outside grid")
            i = i * self.k + c
        return i

    def cell(self, index: int) -> Cell:
        index = _validate_n(index, -math.inf)
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
    x, y = _cell(x), _cell(y)
    if len(x) != len(y):
        raise DimensionMismatchError("cells of different dimension")
    kx, ky = simplicial_key(x), simplicial_key(y)
    return (kx > ky) - (kx < ky)


@dataclass(frozen=True)
class SubsetHandle:
    grid: Grid
    mask: int

    def __post_init__(self):
        # read as an integer first: a negative one is out of range, a
        # fractional, NaN, complex or array one malformed
        mask = _validate_n(self.mask, -math.inf)
        if mask < 0 or mask >> self.grid.size:
            raise RangeError(f"mask {mask} has bits outside a grid of {self.grid.size} cells")
        object.__setattr__(self, "mask", mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def contains(self, cell: Cell) -> bool:
        return bool(self.mask >> self.grid.index(cell) & 1)

    def cells(self) -> list[Cell]:
        return [c for c, bit in zip(self.grid.cells(), bin(self.mask)[:1:-1]) if bit == "1"]

    @classmethod
    def from_cells(cls, grid: Grid, cells: Sequence[Cell]) -> "SubsetHandle":
        mask = 0
        for c in cells:
            mask |= 1 << grid.index(c)
        return cls(grid, mask)


@lru_cache(maxsize=_GRID_CACHE)
def _levels(k: int, n: int) -> tuple:
    """(stack, sums, counts) for the balls N_L of the origin in [k]^n.

    The cells of N_L with first coordinate c are the ball of [k]^(n-1) at
    level L - c.  stack holds the balls of [k]^(n-1) at levels n(k-1),
    ..., 1, 0 side by side, k^(n-1) bits apart, those past (n-1)(k-1)
    holding every cell, so N_L is the low k^n bits of
    stack >> (n(k-1) - L) k^(n-1).  For j = 0, ..., (n-1)(k-1), sums[j]
    counts the cells of the balls of [k]^(n-1) at levels 0 to j and
    counts[j] = |N_j|.  Each cached grid holds (n(k-1)+1) k^(n-1) / 8
    bytes of stack, under n k^n / 8, and two tuples of (n-1)(k-1)+1
    integers.
    """
    axes = _axis_masks(k, n - 1)
    slices = [1]
    for _ in range((n - 1) * (k - 1)):
        ball = slices[-1]
        # _dilate less its downward shifts: every cell below a cell of the
        # ball is in it already, and they would make this 1.7 times slower
        for stride, not_first, _ in axes:
            ball |= slices[-1] << stride & not_first
        slices.append(ball)
    block = k ** (n - 1)
    stack = (1 << k * block) - 1
    for at, ball in enumerate(reversed(slices[:-1]), k):
        stack |= ball << at * block
    sums = tuple(itertools.accumulate(map(int.bit_count, slices)))
    return stack, sums, tuple(s - (sums[j - k] if j >= k else 0) for j, s in enumerate(sums))


def _segment(grid: Grid, count: int, final: bool) -> SubsetHandle:
    size = grid.size
    count = _validate_n(count, -math.inf)
    if not 0 <= count <= size:
        raise RangeError(f"segment size {count} outside [0, {size}]")
    r = size - count if final else count
    stack, sums, counts = _levels(grid.k, grid.n)
    k, top = grid.k, len(sums) - 1
    stride, last, full = size // k, grid.n * (k - 1), (1 << size) - 1
    level = bisect.bisect_left(counts, r)
    if level > top:
        # past the counted levels |N_L| adds up the lower balls at levels
        # L-k+1 to L, those past top full
        level = bisect.bisect_left(range(last + 1), r, level, key=lambda L: (
            sums[top] + (L - top) * stride - (sums[L - k] if L >= k else 0)))
    # N_{level-1}, empty at level 0, and the shell N_level minus it
    inner = stack >> (last + 1 - level) * stride & full
    shell, need = (stack >> (last - level) * stride & full) ^ inner, r - inner.bit_count()
    # inside a level the order runs down the row-major index, so the shell's
    # `need` highest cells come next: bisect its span for the lowest cut
    # that leaves at most `need` of them above it
    lo, hi = (shell & -shell).bit_length() - 1, shell.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (shell >> mid).bit_count() > need:
            lo = mid + 1
        else:
            hi = mid
    mask = inner | shell >> lo << lo
    return SubsetHandle(grid, mask ^ full if final else mask)


def initial_segment(grid: Grid, r: int) -> SubsetHandle:
    """First r cells of the simplicial order."""
    return _segment(grid, r, final=False)


def final_segment(grid: Grid, s: int) -> SubsetHandle:
    """Last s cells of the simplicial order."""
    return _segment(grid, s, final=True)


@lru_cache(maxsize=_GRID_CACHE)
def _axis_masks(k: int, n: int) -> tuple:
    """(stride, not_first, not_last) per axis: stride k^(n-1-axis) moves one
    step along the axis, and the masks clear the cells whose coordinate on
    it is 0 or k-1, where a shifted bit would wrap into the next row.  Each
    cached grid holds its 2n masks, n k^n / 4 bytes."""
    size = k**n
    full = (1 << size) - 1
    out = []
    for axis in range(n):
        stride = k ** (n - 1 - axis)
        # the first `stride` bits of every run of k * stride: coordinate 0
        first = ((1 << stride) - 1) * (full // ((1 << k * stride) - 1))
        out.append((stride, full ^ first, full ^ (first << stride * (k - 1))))
    return tuple(out)


def _dilate(mask: int, axes: tuple) -> int:
    """One step of N_1: the mask grown by one cell along every axis."""
    grown = mask
    for stride, not_first, not_last in axes:
        grown |= (mask << stride) & not_first | (mask >> stride) & not_last
    return grown


def t_boundary(handle: SubsetHandle, t: int) -> SubsetHandle:
    """Closed t-neighborhood: cells within lattice distance t of the set.

    Grows the bit mask by min(t, n(k-1)) dilations, each a shift and OR
    per axis; t = 0 returns the set itself.
    """
    t = _validate_n(t, 0)
    if handle.mask == 0:
        raise EmptySetError("t-boundary of an empty set")
    grid = handle.grid
    axes = _axis_masks(grid.k, grid.n)
    mask = handle.mask
    for _ in range(min(t, grid.n * (grid.k - 1))):
        mask = _dilate(mask, axes)
    return SubsetHandle(grid, mask)


def set_distance(a: SubsetHandle, b: SubsetHandle) -> int:
    """Smallest Manhattan distance over pairs (x, y) in A x B: the number of
    dilations of A's mask until it meets B's."""
    if a.grid != b.grid:
        raise DimensionMismatchError("subsets live on different grids")
    if a.mask == 0 or b.mask == 0:
        raise EmptySetError("distance needs two nonempty sets")
    axes = _axis_masks(a.grid.k, a.grid.n)
    mask, steps = a.mask, 0
    while not mask & b.mask:
        mask, steps = _dilate(mask, axes), steps + 1
    return steps


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


def _down_sets(k: int, n: int, r: int) -> list:
    """The masks of the down-sets of [k]^n with r cells, each once.

    Every prefix of a down-set's cells in row-major order is a down-set,
    so adding cells above the highest index so far builds each once.  A
    cell can join when, per axis, it is on the first layer or the cell
    one stride below is in.
    """
    axes = _axis_masks(k, n)
    full = (1 << k**n) - 1
    level = [0]
    for _ in range(r):
        grown = []
        for mask in level:
            free = full >> mask.bit_length() << mask.bit_length()
            for stride, not_first, _ in axes:
                free &= mask << stride | full ^ not_first
            while free:
                bit = free & -free
                grown.append(mask | bit)
                free ^= bit
        level = grown
    return level


@lru_cache(maxsize=None)
def _sweep_max_by_s(k: int, n: int, r: int) -> tuple:
    """For each s, the max over all |A| = r of the s-th largest min-distance
    to A.  Picking the s farthest cells is the exact best B for a fixed A,
    so entry s-1 equals the literal max over (A, B) pairs.

    The s-th largest distance to A exceeds t exactly when
    |N_t(A)| <= k^n - s, and |N_t(A)| never decreases in t.  So with
    mu_t = min over |A| = r of |N_t(A)|, entry s-1 is the least t with
    mu_t > k^n - s, a bisection of mu.

    A down-set attains each mu_t (Bollobas and Leader, Compressions and
    isoperimetric inequalities, 1991).  Compressing A along axis i moves
    the cells of each line along i to the bottom of that line.  On a line
    L, N(A) holds the cells of A on L grown one step along L and a copy of
    A's cells on each neighbouring parallel line, so it has at least as
    many cells as N(C_i A), whose cells on L are a bottom segment of the
    longest of those lengths.  So N(C_i A) lies in C_i N(A), by induction
    N_t(C_i A) in C_i N_t(A), and no |N_t| grows.  A compression that
    moves a cell lowers the coordinate sum, so compressing along each
    axis in turn ends at a down-set of r cells.  The sweep dilates each
    down-set from _down_sets until it fills the grid.
    """
    size = k**n
    axes = _axis_masks(k, n)
    mu = [size] * (n * (k - 1) + 1)
    for mask in _down_sets(k, n, r):
        for t in range(len(mu)):
            count = mask.bit_count()
            if count == size:
                break
            mu[t] = min(mu[t], count)
            mask = _dilate(mask, axes)
    return tuple(bisect.bisect_right(mu, size - s) for s in range(1, size + 1))


def verify_extremal_pairs(grid: Grid, r: int, s: int,
                          budget: int = DEFAULT_PAIR_BUDGET) -> ExtremalCheck:
    """Compare the exact extremal distance with the simplicial
    initial/final segment distance.

    An r-set and an s-set with r + s > k^n meet, so their largest
    distance is 0 and nothing is enumerated.  Otherwise the answer is
    symmetric in (r, s), and _sweep_max_by_s takes it over the down-sets
    of the smaller size, which attain it since compressions never
    enlarge a t-neighbourhood (Bollobas and Leader 1991).

    The budget caps search_space, the C(k^n, r) * C(k^n, s) subset pairs
    that a sweep over every pair would visit, not the down-sets this one
    visits; a request beyond it raises BudgetExceededError carrying that
    count.  So the default budget refuses most requests on the larger
    grids under the cell cap, though none takes long: at (k, n, r, s) =
    (2, 5, 16, 16) the count is 3.6e17 and a cold sweep about 10 ms.
    """
    r, s, budget = _validate_n(r, -math.inf), _validate_n(s, -math.inf), _validate_n(budget, 0)
    if grid.size > _EXACT_CELL_LIMIT:
        raise RangeError(f"exact mode needs k^n <= {_EXACT_CELL_LIMIT}, got {grid.size}")
    if not (1 <= r <= grid.size and 1 <= s <= grid.size):
        raise RangeError(f"need 1 <= r, s <= {grid.size}")
    space = math.comb(grid.size, r) * math.comb(grid.size, s)
    if space > budget:
        raise BudgetExceededError(f"search space {space} exceeds budget {budget}", space)
    small, large = sorted((r, s))
    brute = 0 if r + s > grid.size else _sweep_max_by_s(grid.k, grid.n, small)[large - 1]
    seg = set_distance(initial_segment(grid, r), final_segment(grid, s))
    return ExtremalCheck(grid.k, grid.n, r, s, brute, seg, brute == seg, space)


def _slab_counts(k: int, n: int, s: int) -> tuple:
    """Cells of [k]^n with coordinate sum <= s - 1, <= s and <= s + 1, for
    an integer s >= -1, from one pass over the inclusion-exclusion terms.

    Term j of the count at s is (-1)^j C(n, j) C(N, n) with N = s - jk + n.
    One math.comb gives C(N, n); its neighbours C(N - 1, n) = C(N, n)(N - n)/N
    and C(N + 1, n) = C(N, n)(N + 1)/(N + 1 - n) follow by exact integer
    steps, and b = (-1)^j C(n, j) is carried from the term before, times
    -(n - j)/(j + 1).
    The last term of the count at s + 1 can have N = n - 1, where C(N, n) is
    0 and C(N + 1, n) is 1.
    """
    below = at = above = 0
    b = 1  # (-1)^j C(n, j)
    for j in range(min(n, (s + 1) // k) + 1):
        big = s - j * k + n
        term = b * math.comb(big, n)
        if term:
            below += term * (big - n) // big
            at += term
            above += term * (big + 1) // (big + 1 - n)
        else:
            above += b
        b = -b * (n - j) // (j + 1)
    return below, at, above


def count_cells_sum_le(k: int, n: int, s: int) -> int:
    """Number of cells of [k]^n with coordinate sum <= s, exactly.

    Inclusion-exclusion over the j coordinates forced to k or more,
    sum_j (-1)^j C(n, j) C(s - jk + n, n) with s clipped to n(k-1), on
    python integers, so the count stays exact far beyond 2^53.  It is the
    middle count of the one pass that gives the counts at s - 1, s and
    s + 1 together, the pass each probe of scaled_max_distance makes.  An
    integer s is kept exact, and any other s is read as one real number:
    a fractional s counts the cells with sum <= floor(s); s = +inf counts
    every cell and s = -inf none; NaN, a complex value or an array raises
    DomainError.
    """
    k, n = _validate_n(k, 2), _validate_n(n, 1)
    s = s if isinstance(s, numbers.Integral) else _number(s, "s")
    if s != s:
        raise DomainError("s must be a number, got NaN")
    if s < 0:
        return 0
    return _slab_counts(k, n, math.floor(min(s, n * (k - 1))))[1]


def scaled_max_distance(n: int, m: int, eps: float) -> float:
    """Normalized max distance between eps-dense slabs of the lattice cube.

    On {0, 1/m, ..., 1}^n, take the largest pair of opposing
    coordinate-sum slabs each holding at least eps * (m+1)^n cells; their
    Manhattan distance is (s_hi - s_lo) lattice steps, reported here in
    cube units and normalized by sqrt(n):  (s_hi - s_lo) / (m sqrt(n)).

    s_lo is the least s with count_cells_sum_le(m+1, n, s) >= eps (m+1)^n,
    an exact comparison of integers with the binary value of eps.  One
    loop keeps a failing lo and a holding hi.  Each probe is one
    inclusion-exclusion pass that gives the exact counts at s - 1, s and
    s + 1, and the three of them set lo and hi.  The first probe is at the
    normal guess for the level sum (mean nm/2, variance nm(m+2)/12), so a
    threshold within one level of it takes a single pass.  Later probes
    step away from the decided levels by 2, 4, 8, ... and bisect (lo, hi)
    once the next probe would leave it; the guess only decides where the
    counting starts.
    """
    eps = _validate_epsilon(eps)
    n, m = _validate_n(n, 1), _validate_n(m, 1)
    k = m + 1
    p, q = eps.as_integer_ratio()
    need = -(-p * k**n // q)  # ceil(eps k^n): counts are integers

    # the standard normal quantile; eps < 1/2 is already checked
    z = math.sqrt(2.0 * math.pi) * -float(_gauss_tail_inv(eps))
    guess = max(0, round(n * m / 2 + z * math.sqrt(n * m * (m + 2) / 12)))
    # lo fails and hi holds; s = -1 fails (no cells) and s = nm holds (all)
    lo, hi, s, step = -1, n * m, guess, 2
    while hi - lo > 1:
        below, at, above = _slab_counts(k, n, s)
        if below >= need:
            hi, s = s - 1, s - 1 - step
        elif at >= need:
            lo, hi = s - 1, s
        elif above >= need:
            lo, hi = s, s + 1
        else:
            lo, s = s + 1, s + 1 + step
        step *= 2
        if not lo < s < hi:
            s = (lo + hi) // 2
    steps = max(0, n * m - 2 * hi)
    return steps / (m * math.sqrt(n))
