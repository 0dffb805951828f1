import itertools
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from isodist import (BudgetExceededError, DimensionMismatchError, DomainError,
                     EmptySetError, Grid, RangeError, SubsetHandle,
                     count_cells_sum_le, final_segment, initial_segment,
                     phi_inv, scaled_max_distance, set_distance,
                     simplicial_cmp, t_boundary, verify_extremal_pairs)
from isodist import lattice


def brute_pair_max(grid, r, s):
    """Literal max of set_distance over every (A, B) with |A|=r, |B|=s."""
    cells = list(grid.cells())
    best = 0
    for A in itertools.combinations(cells, r):
        ha = SubsetHandle.from_cells(grid, A)
        for B in itertools.combinations(cells, s):
            hb = SubsetHandle.from_cells(grid, B)
            best = max(best, set_distance(ha, hb))
    return best


def random_handle(grid, rng, density):
    """A random nonempty subset holding each cell with the given chance."""
    mask = 1 << int(rng.integers(grid.size))
    for i in np.flatnonzero(rng.random(grid.size) < density):
        mask |= 1 << int(i)
    return SubsetHandle(grid, mask)


def test_grid_basics():
    g = Grid(3, 2)
    assert g.size == 9
    cells = list(g.cells())
    assert cells[0] == (0, 0) and cells[1] == (0, 1) and cells[-1] == (2, 2)
    for i, c in enumerate(cells):
        assert g.index(c) == i and g.cell(i) == c
    with pytest.raises(DomainError):
        Grid(1, 2)
    with pytest.raises(DomainError):
        Grid(3, 0)
    with pytest.raises(RangeError):
        g.cell(9)
    for cell in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(DomainError):
            g.index(cell)


def test_cells_of_the_wrong_length_are_rejected():
    g = Grid(3, 2)
    h = SubsetHandle.from_cells(g, [(0, 2)])
    for cell in ((1,), (2,), (), (0, 1, 2)):
        with pytest.raises(DimensionMismatchError):
            g.index(cell)
        with pytest.raises(DimensionMismatchError):
            h.contains(cell)
        with pytest.raises(DimensionMismatchError):
            SubsetHandle.from_cells(g, [cell])


def test_cells_with_non_integer_coordinates_are_rejected():
    g = Grid(3, 2)
    h = SubsetHandle.from_cells(g, [(0, 2)])
    for cell in ((0.5, 1), (1.0, 1), (1, 2.0), (Fraction(1, 2), 0), ("1", 0)):
        with pytest.raises(DomainError):
            g.index(cell)
        with pytest.raises(DomainError):
            h.contains(cell)
        with pytest.raises(DomainError):
            SubsetHandle.from_cells(g, [cell])
    # numpy integers are integers
    assert g.index((np.int64(1), np.uint8(2))) == 5
    assert h.contains((np.int32(0), np.int64(2)))


def test_subset_handle_rejects_masks_outside_the_grid():
    g = Grid(3, 2)
    assert SubsetHandle(g, (1 << 9) - 1).size == 9
    for mask in (1 << 9, 1 << 20, -1):
        with pytest.raises(RangeError):
            SubsetHandle(g, mask)


def test_simplicial_order_on_3x3():
    expect = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
              (2, 1), (1, 2), (2, 2)]
    from isodist.lattice import simplicial_key
    assert sorted(Grid(3, 2).cells(), key=simplicial_key) == expect


def test_simplicial_cmp_examples():
    assert simplicial_cmp((0, 0), (1, 0)) == -1
    assert simplicial_cmp((1, 0), (0, 1)) == -1   # equal sums, first coord larger
    assert simplicial_cmp((0, 1), (1, 0)) == 1
    assert simplicial_cmp((2, 2), (2, 2)) == 0
    with pytest.raises(DimensionMismatchError):
        simplicial_cmp((0, 1), (0, 1, 2))
    # coordinates are read as Grid.index reads them: integers only
    for bad in (0.5, 1j, "1"):
        with pytest.raises(DomainError):
            simplicial_cmp((bad, 0), (0, 0))
        with pytest.raises(DomainError):
            simplicial_cmp((0, 0), (0, bad))
    assert simplicial_cmp((np.int64(1), np.uint8(0)), (0, 1)) == -1
    assert simplicial_cmp((np.int32(2), 2), (2, np.int64(2))) == 0


def test_simplicial_cmp_total_order_fuzz(rng):
    # antisymmetry and transitivity over random triples
    for _ in range(10_000):
        x, y, z = (tuple(rng.integers(0, 4, 3)) for _ in range(3))
        assert simplicial_cmp(x, y) == -simplicial_cmp(y, x)
        if simplicial_cmp(x, y) <= 0 and simplicial_cmp(y, z) <= 0:
            assert simplicial_cmp(x, z) <= 0
        assert (simplicial_cmp(x, y) == 0) == (x == y)


def test_segments():
    g = Grid(3, 2)
    assert initial_segment(g, 2).cells() == [(0, 0), (1, 0)]
    assert initial_segment(g, 9).size == 9
    assert initial_segment(g, 0).size == 0
    assert final_segment(g, 1).cells() == [(2, 2)]
    with pytest.raises(RangeError):
        initial_segment(g, 10)
    with pytest.raises(RangeError):
        final_segment(g, -1)


# every lattice count and index, called with 2: sizes r and s of a
# segment or extremal pair, the cell index, and the boundary distance t
COUNTS = {
    "Grid.cell": lambda i: Grid(3, 2).cell(i),
    "initial_segment": lambda r: initial_segment(Grid(3, 2), r),
    "final_segment": lambda s: final_segment(Grid(3, 2), s),
    "t_boundary": lambda t: t_boundary(SubsetHandle.from_cells(Grid(3, 2), [(0, 0)]), t),
    "verify_extremal_pairs-r": lambda r: verify_extremal_pairs(Grid(3, 2), r, 2),
    "verify_extremal_pairs-s": lambda s: verify_extremal_pairs(Grid(3, 2), 2, s),
    "verify_extremal_pairs-budget":
        lambda b: verify_extremal_pairs(Grid(2, 2), 4, 4, budget=b),
    "SubsetHandle-mask": lambda m: SubsetHandle(Grid(3, 2), m),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_must_be_integral(name):
    call = COUNTS[name]
    want = repr(call(2))
    assert repr(call(np.int64(2))) == want
    assert repr(call(2.0)) == want
    for bad in (2.5, math.nan):
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("k, n, counts", [
    # level sums up to 518, past what uint8 holds; 32896 cells have sum <= 255
    (260, 2, (0, 1, 32895, 32896, 32897, 60000, 67599, 67600)),
    # 70000 cells, indices past what uint16 holds; the order is 0, 1, ...
    (70000, 1, (0, 1, 65535, 65536, 65537, 69999, 70000)),
])
def test_segments_match_sorted_cells_on_wide_grids(k, n, counts):
    g = Grid(k, n)
    for count in counts:
        for final, segment in ((False, initial_segment), (True, final_segment)):
            expect = sorted(oracles.simplicial_segment_sorted(k, n, count, final))
            assert segment(g, count).cells() == expect


# [5]^4, [5]^5 and every grid small enough for verify_extremal_pairs
SEGMENT_GRIDS = [(5, 4), (5, 5)] + [
    (k, n) for k in range(2, 33) for n in range(1, 6) if k**n <= 32]


@pytest.mark.parametrize("k, n", SEGMENT_GRIDS)
def test_levels_hold_the_cells_within_each_sum(k, n):
    # block j of the cached stack, counted from the top, is the ball of
    # [k]^(n-1) at level j; sums adds up their sizes and counts holds
    # |N_L| of [k]^n, both up to level (n-1)(k-1)
    stack, sums, counts = lattice._levels(k, n)
    lower = list(itertools.product(range(k), repeat=n - 1))
    last, stride = n * (k - 1), k ** (n - 1)
    assert stack.bit_length() <= (last + 1) * stride
    blocks = [stack >> (last - level) * stride & ((1 << stride) - 1)
              for level in range(last + 1)]
    for level, block in enumerate(blocks):
        assert block == sum(1 << i for i, c in enumerate(lower) if sum(c) <= level)
    counted = range((n - 1) * (k - 1) + 1)
    assert list(sums) == list(itertools.accumulate(blocks[j].bit_count() for j in counted))
    assert list(counts) == [count_cells_sum_le(k, n, L) for L in counted]
    # every ball of [k]^n, past the counted levels too, is the segment of its size
    g = Grid(k, n)
    for level in range(last + 1):
        ball = initial_segment(g, count_cells_sum_le(k, n, level))
        assert ball.mask == sum(1 << g.index(c) for c in g.cells() if sum(c) <= level)


@pytest.mark.parametrize("k, n", [(70000, 1), (260, 2)])
def test_wide_grid_segments_stay_near_a_bit_a_cell(k, n):
    # a cold initial and final segment peak under two bytes a cell: a few
    # masks and the stack of the balls of [k]^(n-1), each about a bit a
    # cell here, where the n(k-1)+1 balls of [k]^n would take k^n bits each
    g = Grid(k, n)
    lattice._levels.cache_clear()
    lattice._axis_masks.cache_clear()
    tracemalloc.start()
    try:
        initial_segment(g, g.size // 2)
        final_segment(g, g.size // 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.size


@pytest.mark.parametrize("k, n", [(5, 5), (2, 5), (32, 1)])
def test_cells_reads_the_mask_bits(rng, k, n):
    g = Grid(k, n)
    masks = [0, (1 << g.size) - 1] + [random_handle(g, rng, d).mask for d in (0.1, 0.5)]
    for mask in masks:
        assert SubsetHandle(g, mask).cells() == [
            g.cell(i) for i in range(g.size) if mask >> i & 1]


@pytest.mark.parametrize("name", ["_levels", "_axis_masks"])
def test_grid_caches_are_bounded(name):
    cache = getattr(lattice, name)
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None and maxsize >= 2
    for k in range(2, 2 + 2 * maxsize):
        cache(k, 2)
    assert cache.cache_info().currsize == maxsize


def test_final_segment_is_reflected_initial_segment():
    for g in (Grid(3, 2), Grid(2, 3)):
        for s in range(g.size + 1):
            fin = final_segment(g, s)
            ini = initial_segment(g, s)
            reflected = {tuple(g.k - 1 - c for c in cell) for cell in ini.cells()}
            assert set(fin.cells()) == reflected


@pytest.mark.parametrize("k, n", SEGMENT_GRIDS)
def test_segments_match_sorted_cells(k, n):
    # each segment from a cleared cache of balls, then again from the warm one
    g = Grid(k, n)
    order = [sum(c * k ** (n - 1 - j) for j, c in enumerate(cell))
             for cell in oracles.simplicial_segment_sorted(k, n, g.size, False)]
    heads, tails = [0], [0]
    for head, tail in zip(order, reversed(order)):
        heads.append(heads[-1] | 1 << head)
        tails.append(tails[-1] | 1 << tail)
    for count in range(g.size + 1):
        lattice._levels.cache_clear()
        assert initial_segment(g, count).mask == heads[count]
        lattice._levels.cache_clear()
        assert final_segment(g, count).mask == tails[count]
        assert initial_segment(g, count).mask == heads[count]
        assert final_segment(g, count).mask == tails[count]


def test_t_boundary_examples():
    g = Grid(3, 2)
    a = SubsetHandle.from_cells(g, [(0, 0)])
    assert set(t_boundary(a, 1).cells()) == {(0, 0), (1, 0), (0, 1)}
    assert t_boundary(a, 0).cells() == a.cells()
    assert t_boundary(a, 4).size == 9          # diameter n(k-1) reaches all
    sizes = [t_boundary(a, t).size for t in range(5)]
    assert sizes == sorted(sizes)
    with pytest.raises(EmptySetError):
        t_boundary(SubsetHandle(g, 0), 1)
    with pytest.raises(DomainError):
        t_boundary(a, -1)
    path = Grid(7, 1)
    mid = SubsetHandle.from_cells(path, [(3,)])
    assert t_boundary(mid, 2).cells() == [(1,), (2,), (3,), (4,), (5,)]
    assert t_boundary(mid, 0).cells() == [(3,)]
    assert t_boundary(mid, 3).size == 7
    ends = SubsetHandle.from_cells(path, [(0,), (6,)])
    assert t_boundary(ends, 1).cells() == [(0,), (1,), (5,), (6,)]


def test_t_boundary_matches_bfs(rng):
    for g in (Grid(5, 3), Grid(3, 4), Grid(2, 5), Grid(7, 1)):
        for density in (0.02, 0.1, 0.3):
            for _ in range(10):
                a = random_handle(g, rng, density)
                for t in range(4):
                    expect = oracles.t_boundary_bfs(a.cells(), g.k, t)
                    assert set(t_boundary(a, t).cells()) == expect


def test_t_boundary_monotone_contains(rng):
    g = Grid(2, 4)
    for _ in range(50):
        mask = int(rng.integers(1, g.size ** 2 - 1)) % (2 ** g.size - 1) + 1
        a = SubsetHandle(g, mask)
        for t in range(3):
            inner, outer = t_boundary(a, t), t_boundary(a, t + 1)
            assert inner.mask & outer.mask == inner.mask


def test_t_boundary_stops_at_the_diameter(monkeypatch):
    # beyond the diameter n(k-1) every cell is reached, so a huge t costs no
    # more dilations than the diameter
    dilate, calls = lattice._dilate, []

    def counted(mask, axes):
        calls.append(mask)
        return dilate(mask, axes)

    monkeypatch.setattr(lattice, "_dilate", counted)
    for g in (Grid(3, 2), Grid(65, 1), Grid(2, 7)):
        calls.clear()
        corner = SubsetHandle(g, 1)
        assert t_boundary(corner, 10**18).mask == (1 << g.size) - 1
        assert len(calls) == g.n * (g.k - 1)


def pairwise_distance(a, b):
    """Definitional min over pairs of cell tuples, without masks."""
    x, y = np.array(a.cells()), np.array(b.cells())
    return int(np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2).min())


# masks of 128, 243, 65 and 729 bits end exactly at a 64-bit word, inside
# one, one bit past one and many words in; the full set is skipped only
# against itself, where the pairwise oracle would hold 729^2 distances
@pytest.mark.parametrize("k, n", [(2, 7), (3, 5), (65, 1), (9, 3)])
def test_bitmask_kernels_across_word_boundaries(rng, k, n):
    g = Grid(k, n)
    full = SubsetHandle(g, (1 << g.size) - 1)
    last = SubsetHandle(g, 1 << (g.size - 1))
    sets = [full, last] + [random_handle(g, rng, d) for d in (0.01, 0.05, 0.3)
                           for _ in range(3)]
    for a in sets:
        for t in (0, 1, 2, 5):
            expect = oracles.t_boundary_bfs(a.cells(), k, t)
            assert set(t_boundary(a, t).cells()) == expect
        for b in sets:
            if a is not full or b is not full:
                assert set_distance(a, b) == pairwise_distance(a, b)


def test_segment_minimizes_t_boundary_growth(rng):
    # among sets of equal size the initial segment grows slowest
    for g in (Grid(2, 3), Grid(3, 2)):
        for _ in range(200):
            mask = int(rng.integers(1, 2 ** g.size - 1))
            a = SubsetHandle(g, mask)
            seg = initial_segment(g, a.size)
            for t in (1, 2):
                assert t_boundary(a, t).size >= t_boundary(seg, t).size


def test_set_distance_examples():
    g = Grid(3, 2)
    a = SubsetHandle.from_cells(g, [(0, 0)])
    b = SubsetHandle.from_cells(g, [(2, 2)])
    assert set_distance(a, b) == 4
    assert set_distance(a, a) == 0
    with pytest.raises(EmptySetError):
        set_distance(a, SubsetHandle(g, 0))
    with pytest.raises(DimensionMismatchError):
        set_distance(a, SubsetHandle.from_cells(Grid(2, 2), [(0, 0)]))
    path = Grid(7, 1)
    left = SubsetHandle.from_cells(path, [(0,), (1,)])
    assert set_distance(left, SubsetHandle.from_cells(path, [(6,)])) == 5
    assert set_distance(left, SubsetHandle.from_cells(path, [(4,), (5,)])) == 3
    assert set_distance(left, left) == 0


def test_set_distance_equals_t_boundary_characterization(rng):
    # d(A, B) is the least t whose closed neighborhood of A meets B
    g = Grid(2, 4)
    full = 2 ** g.size - 1
    for _ in range(1000):
        a = SubsetHandle(g, int(rng.integers(1, full)))
        b = SubsetHandle(g, int(rng.integers(1, full)))
        d = set_distance(a, b)
        assert t_boundary(a, d).mask & b.mask
        if d > 0:
            assert not t_boundary(a, d - 1).mask & b.mask


def test_set_distance_second_enumeration(rng):
    g = Grid(3, 2)
    full = 2 ** g.size - 1
    for _ in range(300):
        a = SubsetHandle(g, int(rng.integers(1, full)))
        b = SubsetHandle(g, int(rng.integers(1, full)))
        assert set_distance(a, b) == pairwise_distance(a, b)
    g = Grid(5, 3)
    for _ in range(100):
        a = random_handle(g, rng, 0.03)
        b = random_handle(g, rng, 0.03)
        assert set_distance(a, b) == pairwise_distance(a, b)


def test_verify_extremal_pairs_examples():
    chk = verify_extremal_pairs(Grid(2, 2), 1, 1)
    assert chk.agree and chk.brute_max == chk.segment_distance == 2
    assert chk.search_space == 16
    chk = verify_extremal_pairs(Grid(3, 2), 2, 2)
    assert chk.agree and chk.segment_distance == 2
    # the path [32]^1: two cells at one end, nine at the other
    space = math.comb(32, 2) * math.comb(32, 9)
    chk = verify_extremal_pairs(Grid(32, 1), 2, 9, budget=space)
    assert chk.agree and chk.brute_max == chk.segment_distance == 22
    assert chk.search_space == space


def test_verify_extremal_pairs_matches_literal_bruteforce():
    # the farthest-B reduction behind brute_max, against the naive double loop
    g = Grid(2, 2)
    for r in range(1, 5):
        for s in range(1, 5):
            chk = verify_extremal_pairs(g, r, s)
            assert chk.brute_max == brute_pair_max(g, r, s)
            assert chk.agree
    g = Grid(3, 2)
    for r, s in ((1, 1), (1, 3), (2, 2), (3, 2), (4, 1)):
        chk = verify_extremal_pairs(g, r, s)
        assert chk.brute_max == brute_pair_max(g, r, s)
        assert chk.agree


def assert_brute_max_matches_loop(k, n, r):
    g = Grid(k, n)
    expect = oracles.sweep_max_by_s_loop(k, n, r)
    for s in range(1, g.size + 1):
        space = math.comb(g.size, r) * math.comb(g.size, s)
        assert verify_extremal_pairs(g, r, s, budget=space).brute_max == expect[s - 1]


@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 5) for k in range(2, 17)
                                  if k**n <= 16])
def test_brute_max_matches_subset_loop_on_small_grids(k, n):
    for r in range(1, k**n + 1):
        assert_brute_max_matches_loop(k, n, r)


def test_brute_max_matches_subset_loop_on_the_path_of_32():
    for r in (1, 2, 3, 29, 30, 31, 32):
        assert_brute_max_matches_loop(32, 1, r)


def test_brute_max_matches_subset_loop_on_the_cube_of_32():
    # cell 31 is the top bit of the mask; r > 16 sweeps the s-sets
    for r in (1, 2, 3, 29, 30, 31, 32):
        assert_brute_max_matches_loop(2, 5, r)


@pytest.mark.parametrize("k, n, r", [(2, 3, 2), (4, 2, 3), (32, 1, 30), (3, 3, 2),
                                     (2, 4, 13)])
def test_brute_max_across_block_boundaries(k, n, r):
    # the cases that once sat at the edges of the sweep's blocks of subsets,
    # kept as plain comparisons: paths, cubes and an r above half the grid
    assert_brute_max_matches_loop(k, n, r)


@pytest.mark.parametrize("grid, r, s, swept", [
    (Grid(2, 5), 30, 3, []),      # 33 > 32 cells: the sets meet, nothing to sweep
    (Grid(2, 4), 6, 2, [2]),      # symmetric: the 2-sets are swept, not the 6-sets
], ids=["sets-meet", "symmetric"])
def test_verify_extremal_pairs_sweeps_the_smaller_size(monkeypatch, grid, r, s, swept):
    calls = []
    sweep = lattice._sweep_max_by_s.__wrapped__

    def recorder(k, n, size):
        calls.append(size)
        return sweep(k, n, size)

    monkeypatch.setattr(lattice, "_sweep_max_by_s", recorder)
    space = math.comb(grid.size, r) * math.comb(grid.size, s)
    chk = verify_extremal_pairs(grid, r, s, budget=space)
    assert calls == swept
    assert chk.agree and chk.search_space == space
    assert chk.brute_max == oracles.sweep_max_by_s_loop(grid.k, grid.n, s)[r - 1]
    if not swept:
        assert chk.brute_max == 0


@pytest.mark.parametrize("k, n", [(k, n) for n in range(1, 5) for k in range(2, 17)
                                  if k**n <= 16] + [(2, 5), (32, 1)])
def test_down_sets_are_each_down_set_once(k, n):
    # every r on up to 16 cells; at both ends of the range on 32
    size = k**n
    for r in range(size + 1) if size <= 16 else [*range(5), *range(size - 4, size + 1)]:
        got = lattice._down_sets(k, n, r)
        assert sorted(got) == oracles.down_sets_filtered(k, n, r)
        assert len(set(got)) == len(got)


@pytest.mark.parametrize("k, n", [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (5, 2)])
def test_compressions_never_enlarge_a_neighbourhood(k, n):
    # the lemma behind sweeping down-sets alone: compressing a set along each
    # axis in turn ends at a down-set of the same size, and no |N_t| grows
    rng = np.random.default_rng(k * 10 + n)
    cells = list(itertools.product(range(k), repeat=n))
    diameter = n * (k - 1)
    for _ in range(40):
        r = int(rng.integers(1, len(cells) + 1))
        a = {cells[i] for i in rng.choice(len(cells), r, replace=False)}
        sizes = [len(oracles.t_boundary_bfs(a, k, t)) for t in range(diameter + 1)]
        while not oracles.is_down_set(a):
            for axis in range(n):
                a = oracles.compress(a, axis)
                assert len(a) == r
                grown = [len(oracles.t_boundary_bfs(a, k, t)) for t in range(diameter + 1)]
                assert all(map(operator.le, grown, sizes))
                sizes = grown
        assert SubsetHandle.from_cells(Grid(k, n), list(a)).mask in lattice._down_sets(k, n, r)


def test_verify_extremal_pairs_partition_cases():
    # r + s covering the grid forces adjacent or overlapping sets
    for g in (Grid(2, 2), Grid(2, 3)):
        for r in range(1, g.size):
            chk = verify_extremal_pairs(g, r, g.size - r)
            assert chk.agree and chk.segment_distance <= 1


def test_verify_extremal_pairs_guards():
    with pytest.raises(RangeError):
        verify_extremal_pairs(Grid(2, 6), 1, 1)          # 64 cells > exact limit
    with pytest.raises(RangeError):
        verify_extremal_pairs(Grid(2, 2), 0, 1)
    with pytest.raises(BudgetExceededError) as exc:
        verify_extremal_pairs(Grid(2, 4), 8, 8, budget=1000)
    assert exc.value.search_space == math.comb(16, 8) ** 2


def test_count_cells_sum_le_small_and_binomial():
    assert count_cells_sum_le(3, 2, 2) == 6
    assert count_cells_sum_le(3, 2, 4) == 9
    for n in (3, 7):
        for s in range(n + 1):
            expect = sum(math.comb(n, j) for j in range(s + 1))
            assert count_cells_sum_le(2, n, s) == expect


def test_count_cells_sum_le_brute(rng):
    for k, n in ((3, 3), (4, 2), (5, 3)):
        cells = itertools.product(range(k), repeat=n)
        sums = sorted(sum(c) for c in cells)
        for s in range(n * (k - 1) + 1):
            expect = sum(1 for v in sums if v <= s)
            assert count_cells_sum_le(k, n, s) == expect


def test_count_cells_sum_le_floors_a_fractional_sum():
    assert count_cells_sum_le(3, 2, -0.5) == 0
    assert count_cells_sum_le(3, 2, -1e-9) == 0
    assert count_cells_sum_le(3, 2, 2.5) == count_cells_sum_le(3, 2, 2) == 6
    assert count_cells_sum_le(3, 2, Fraction(7, 2)) == 8
    assert count_cells_sum_le(3, 2, 3.999) == 8


def test_count_cells_sum_le_at_infinite_and_nan_sums():
    assert count_cells_sum_le(3, 2, math.inf) == 9
    assert count_cells_sum_le(65, 30, math.inf) == 65 ** 30
    assert count_cells_sum_le(3, 2, -math.inf) == 0
    assert count_cells_sum_le(3, 2, 1e300) == 9
    assert count_cells_sum_le(3, 2, 10 ** 400) == 9
    with pytest.raises(DomainError):
        count_cells_sum_le(3, 2, math.nan)
    with pytest.raises(DomainError):
        count_cells_sum_le(3, 2, np.float64("nan"))


def test_count_cells_sum_symmetry():
    for k, n in ((2, 5), (3, 4), (64, 3)):
        top = n * (k - 1)
        for s in range(top):
            assert count_cells_sum_le(k, n, s) + count_cells_sum_le(k, n, top - s - 1) == k ** n


def test_count_cells_big_values_exact():
    # far beyond 2^53; the alternating sum must stay integer-exact
    v = count_cells_sum_le(65, 30, 960)
    assert v == oracles.count_cells_recurrence(65, 30, 960)
    assert v > 2 ** 53
    assert count_cells_sum_le(65, 30, 30 * 64) == 65 ** 30


def test_count_cells_matches_recurrence_at_big_dimensions():
    for k, n in ((65, 200), (17, 200), (2, 300)):
        top = n * (k - 1)
        for s in (-1, 0, 1, k - 1, k, top // 2, top - 1, top, top + 5):
            assert count_cells_sum_le(k, n, s) == oracles.count_cells_recurrence(k, n, s)


def test_scaled_max_distance_values():
    # n=2, m=10, eps=0.1: threshold slab is sums <= 3 (10 of 121 cells
    # needs ceil; count(3)=10 < 12.1 so s_lo = 4), steps = 20 - 8
    assert scaled_max_distance(2, 10, 0.1) == pytest.approx(
        12.0 / (10.0 * math.sqrt(2.0)), rel=1e-15)
    v = scaled_max_distance(30, 64, 0.1)
    assert v == pytest.approx(-2.0 * math.sqrt(math.pi / 6.0) * phi_inv(0.1), rel=0.1)


def test_scaled_max_distance_monotone_in_eps():
    for n, m in ((5, 16), (30, 64)):
        vals = [scaled_max_distance(n, m, e) for e in (0.05, 0.1, 0.2, 0.3, 0.45)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_scaled_max_distance_domain():
    with pytest.raises(DomainError):
        scaled_max_distance(0, 8, 0.1)
    with pytest.raises(DomainError):
        scaled_max_distance(3, 8, 0.6)


def scaled_max_distance_by_scan(n, m, eps):
    """scaled_max_distance from a linear scan for the least s whose count,
    from the dimension recurrence, reaches eps (m+1)^n."""
    need = Fraction(eps) * (m + 1) ** n
    s = next(s for s in range(n * m + 1)
             if oracles.count_cells_recurrence(m + 1, n, s) >= need)
    return max(0, n * m - 2 * s) / (m * math.sqrt(n))


def _recorded_counts(monkeypatch) -> list:
    """The centre s of every counting pass the slab search makes; each pass
    gives the counts at s - 1, s and s + 1."""
    counted = lattice._slab_counts
    calls = []

    def count(k, n, s):
        calls.append(s)
        return counted(k, n, s)

    monkeypatch.setattr(lattice, "_slab_counts", count)
    return calls


# n = 1 or 2 at eps = 1e-15 puts the normal guess below 0, where it is
# clamped; eps < 1/2 keeps it at or below nm/2, so it never reaches nm
@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_scaled_max_distance_matches_a_scan_in_few_counts(monkeypatch, n):
    calls = _recorded_counts(monkeypatch)
    for m in (1, 2, 16, 64):
        for eps in (1e-15, 1e-4, 0.1, 0.3, 0.4999):
            calls.clear()
            assert scaled_max_distance(n, m, eps) == scaled_max_distance_by_scan(n, m, eps)
            # a gallop and a bisection of about log2(nm) passes each, not a scan
            assert len(calls) <= 2 * math.log2(n * m) + 4


# the centres probed from the normal guess: the threshold within one level
# of the guess, a clamped guess at 0, and a gallop up by 2 then 4 past the
# window, each pass deciding the three levels around its centre
@pytest.mark.parametrize("n, m, eps, probes", [
    (30, 64, 0.1, [828]),
    (2, 10, 0.1, [4]),
    (50, 2, 0.3, [47]),
    (200, 16, 1e-15, [1050, 1053, 1058]),
    (1, 64, 1e-15, [0]),
])
def test_scaled_max_distance_probe_path(monkeypatch, n, m, eps, probes):
    calls = _recorded_counts(monkeypatch)
    scaled_max_distance(n, m, eps)
    assert calls == probes


def test_slab_counts_match_the_recurrence(rng):
    """One pass gives the counts at s - 1, s and s + 1, against the
    dimension recurrence, at random (k, n, s) and at both ends of the sum
    range; the search built on it agrees with a scan over the lattice
    workload's strata."""
    def check(k, n, s):
        expect = tuple(oracles.count_cells_recurrence(k, n, t) for t in (s - 1, s, s + 1))
        assert lattice._slab_counts(k, n, s) == expect

    for _ in range(300):
        k, n = int(rng.integers(2, 40)), int(rng.integers(1, 40))
        check(k, n, int(rng.integers(-1, n * (k - 1) + 2)))
    for k, n in ((2, 1), (2, 7), (17, 1), (65, 30)):
        top = n * (k - 1)
        for s in (-1, 0, 1, top - 1, top, top + 1):
            check(k, n, s)
    for m, n_max in ((16, 200), (64, 100)):
        for _ in range(6):
            n = int(rng.integers(1, n_max + 1))
            eps = float(10 ** rng.uniform(-3, math.log10(0.4)))
            assert scaled_max_distance(n, m, eps) == scaled_max_distance_by_scan(n, m, eps)
    assert scaled_max_distance(200, 16, 0.4) == scaled_max_distance_by_scan(200, 16, 0.4)
