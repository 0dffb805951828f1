"""Discrete counterpart on the grid [k]^n with Manhattan distance.

Order cells by coordinate sum, ties to the lexicographically larger
coordinate vector. Initial segments of this order spread out as slowly as
possible, so the pair (initial segment of size r, final segment of size s)
maximizes distance among all size-(r, s) pairs. Small grids can be checked
against brute force; larger ones are counted in closed form by
inclusion-exclusion and rescaled toward the continuous cube limit 0.73990.
"""

import argparse
from functools import cmp_to_key

from isodist import (Grid, SubsetHandle, initial_segment, scaled_max_distance,
                     set_distance, simplicial_cmp, verify_extremal_pairs)

ap = argparse.ArgumentParser()
ap.add_argument("--eps", type=float, default=0.1)
args = ap.parse_args()

g = Grid(3, 2)
cells = [g.cell(i) for i in range(g.size)]
print("simplicial order on [3]^2:",
      sorted(cells, key=cmp_to_key(simplicial_cmp)))
print()

for r, s in ((1, 1), (2, 2), (3, 5)):
    chk = verify_extremal_pairs(g, r, s)
    print(f"[3]^2 r={r} s={s}: brute max {chk.brute_max}, "
          f"segments give {chk.segment_distance}, agree={chk.agree} "
          f"({chk.search_space} pairs searched)")
print()

corner_a = initial_segment(g, 2)
corner_b = SubsetHandle.from_cells(g, [(2, 2), (1, 2)])
print("distance between bottom and top corner pairs:",
      set_distance(corner_a, corner_b))
print()

# continuous limit: slabs of volume eps at the ends of the cube diagonal
for m, n in ((16, 10), (32, 20), (64, 30)):
    val = scaled_max_distance(n, m, args.eps)
    print(f"scaled max distance on [{m}]^{n}: {float(val):.5f}")
print("cube diagonal limit at eps=%g:   0.73990" % args.eps if args.eps == 0.1
      else f"(limit for eps={args.eps} differs; 0.73990 is the eps=0.1 value)")
