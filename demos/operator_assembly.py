"""How tight the discretized transfer operators are.

Column sums of a closed Ulam matrix measure assembly error (each column is a
conditional image distribution).  For piecewise-affine circle maps the
per-branch preimages of grid edges are computed in closed form, so even maps
whose branch points are not grid-aligned come out at machine precision, and
dyadic maps on dyadic grids come out exact.
"""
import numpy as np

from opendyn import (affine_map, build_closed, build_open, doubling_map,
                     interval_hole, matrix_map, tripling_map)
from opendyn.phase import Grid

g = Grid(1, 4096)
for name, mspec in (("doubling", doubling_map()),
                    ("tripling", tripling_map()),
                    ("3 uneven branches",
                     affine_map([0.4, 0.75], [2.4, 2.8, 3.9],
                                [0.11, 0.53, 0.02]))):
    op = build_closed(mspec, g)
    print("%-20s column-sum error %.3e   nnz %d"
          % (name, op.column_sum_error(), op.matrix.nnz))

opened = build_open(doubling_map(), interval_hole(0.25, 0.3), g)
cs = opened.column_sums()
print("\nopen doubling, hole (0.25, 0.30): min colsum %.3f, max colsum %.3f"
      % (cs.min(), cs.max()))
print("columns below 1 count the mass the hole removes from each image cell")

g2 = Grid(2, 64)
# the cat map is hyperbolic rather than expanding; the operator is still
# well defined, so only the expansion pre-check is waived
cat = build_closed(matrix_map([[2, 1], [1, 1]], check_expanding=False), g2)
skew = build_closed(matrix_map([[3, 1], [1, 2]]), g2)
print("\ntorus automorphisms on a %d x %d grid:" % (g2.n, g2.n))
print("  [[2,1],[1,1]]  column-sum error %.3e (unimodular: cell images tile)"
      % cat.column_sum_error())
print("  [[3,1],[1,2]]  column-sum error %.3e (one cell image clipped, tiled)"
      % skew.column_sum_error())
