import itertools
import math
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


def test_final_segment_is_reflected_initial_segment():
    for g in (Grid(3, 2), Grid(2, 3)):
        for s in range(g.size + 1):
            fin = final_segment(g, s)
            ini = initial_segment(g, s)
            reflected = {tuple(g.k - 1 - c for c in cell) for cell in ini.cells()}
            assert set(fin.cells()) == reflected


@pytest.mark.parametrize("k, n", [(5, 4), (3, 3), (2, 5), (7, 1)])
def test_segments_match_sorted_cells(k, n):
    g = Grid(k, n)
    for count in range(g.size + 1):
        for final, segment in ((False, initial_segment), (True, final_segment)):
            expect = sorted(oracles.simplicial_segment_sorted(k, n, count, final))
            assert segment(g, count).cells() == expect


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
    # definitional min-over-pairs recomputed without numpy
    def expect(a, b):
        return min(sum(abs(u - v) for u, v in zip(x, y))
                   for x in a.cells() for y in b.cells())

    g = Grid(3, 2)
    full = 2 ** g.size - 1
    for _ in range(300):
        a = SubsetHandle(g, int(rng.integers(1, full)))
        b = SubsetHandle(g, int(rng.integers(1, full)))
        assert set_distance(a, b) == expect(a, b)
    g = Grid(5, 3)
    for _ in range(100):
        a = random_handle(g, rng, 0.03)
        b = random_handle(g, rng, 0.03)
        assert set_distance(a, b) == expect(a, b)


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


@pytest.mark.parametrize("k, n, r", [(2, 3, 2), (4, 2, 3), (32, 1, 30), (3, 3, 2)])
def test_brute_max_across_block_boundaries(monkeypatch, k, n, r):
    # C(k^n, r) subsets in blocks one smaller than, equal to and one larger than
    # their count: a single leftover subset, one exactly full block, one short block
    count = math.comb(k**n, r)
    for block in (count - 1, count, count + 1):
        monkeypatch.setattr(lattice, "_SWEEP_BLOCK", block)
        lattice._sweep_max_by_s.cache_clear()
        assert_brute_max_matches_loop(k, n, r)


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
