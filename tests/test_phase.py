import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn.errors import ConfigError
from opendyn.phase import (Grid, diam_lambda, dyadic_partition, dyadic_pool,
                           metric_diam, partition_from_labels, torus_delta)


def test_grid_geometry_1d():
    g = Grid(1, 4096)
    assert g.total_cells == 4096
    assert g.spacing == 1.0 / 4096
    assert g.cell_measure == 1.0 / 4096
    assert g.cell_diameter == 1.0 / 4096
    c = g.centers()
    assert c.shape == (4096,)
    assert abs(c[0] - 0.5 / 4096) < 1e-15
    assert abs(c[-1] - (1.0 - 0.5 / 4096)) < 1e-15


def test_grid_geometry_2d():
    g = Grid(2, 64)
    assert g.total_cells == 64 * 64
    assert g.cell_measure == 1.0 / 64 ** 2
    assert abs(g.cell_diameter - np.sqrt(2) / 64) < 1e-15
    c = g.centers()
    assert c.shape == (64 * 64, 2)
    # x is the outer index: cell ix*n + iy
    assert abs(c[1, 0] - c[0, 0]) < 1e-15
    assert abs(c[1, 1] - c[0, 1] - 1.0 / 64) < 1e-15
    assert abs(c[64, 0] - c[0, 0] - 1.0 / 64) < 1e-15


@pytest.mark.parametrize("dimension", [1, 2])
def test_grid_centers_computed_once_read_only(dimension):
    g = Grid(dimension, 16)
    c = g.centers()
    assert g.centers() is c and not c.flags.writeable
    # the cached array is no field: equality and hashing are unchanged
    assert Grid(dimension, 16) == g and hash(Grid(dimension, 16)) == hash(g)
    with pytest.raises(ValueError):
        c[0] = 0.0


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(3, 16)
    with pytest.raises(ConfigError):
        Grid(1, 0)


def test_torus_delta():
    assert abs(torus_delta(0.1, 0.9) - 0.2) < 1e-15
    assert abs(torus_delta(0.9, 0.1) - 0.2) < 1e-15
    assert torus_delta(0.25, 0.25) == 0.0
    assert abs(torus_delta(0.0, 0.5) - 0.5) < 1e-15


def test_dyadic_partition_basics():
    g = Grid(1, 4096)
    for level in (1, 2, 3, 4):
        Q = dyadic_partition(g, level)
        k = 2 ** level
        assert len(Q.elements) == k
        sizes = [len(e) for e in Q.elements]
        assert all(s == 4096 // k for s in sizes)
        assert abs(diam_lambda(Q) - 1.0 / k) < 1e-15
        assert abs(metric_diam(Q) - min(1.0 / k, 0.5)) < 1e-15


def test_dyadic_partition_2d():
    g = Grid(2, 16)
    Q = dyadic_partition(g, 1)
    assert len(Q.elements) == 4
    assert abs(diam_lambda(Q) - 0.25) < 1e-15
    total = sum(len(e) for e in Q.elements)
    assert total == g.total_cells


def test_partition_misaligned_rejected():
    g = Grid(1, 100)
    with pytest.raises(ConfigError):
        dyadic_partition(g, 3)   # 100 not divisible by 8


def test_partition_json_roundtrip():
    g = Grid(1, 64)
    Q = dyadic_partition(g, 2)
    rec = json.loads(json.dumps(Q.to_config()))
    assert rec == {"grid": {"dimension": 1, "cells_per_side": 64},
                   "elements": [list(range(k, k + 16))
                                for k in range(0, 64, 16)]}


def test_partition_from_labels_matches_dyadic():
    # labels numbered in the dyadic element order give the same elements,
    # and so do labels that relabel them by any increasing map
    for dim, n in ((1, 256), (2, 16)):
        g = Grid(dim, n)
        for level in (0, 1, 2, 3):
            Q = dyadic_partition(g, level)
            labels = Q.labels()
            for lab in (labels, 10 * labels - 7):
                P = partition_from_labels(g, lab)
                assert P.grid == g
                assert len(P.elements) == len(Q.elements) == 2 ** (dim * level)
                for a, b in zip(P.elements, Q.elements):
                    assert a.dtype == b.dtype == np.int64
                    assert np.array_equal(a, b)
                assert diam_lambda(P) == diam_lambda(Q) == 2.0 ** (-dim * level)
    g = Grid(1, 256)
    Q = partition_from_labels(g, np.arange(256) // 64)
    assert [(e[0], e[-1]) for e in Q.elements] == \
        [(0, 63), (64, 127), (128, 191), (192, 255)]


def test_metric_diam_caps_at_torus_diameter():
    g = Grid(1, 64)
    Q = dyadic_partition(g, 0)   # one element, whole circle
    assert abs(metric_diam(Q) - 0.5) < 1e-12
    assert abs(diam_lambda(Q) - 1.0) < 1e-12


@pytest.mark.parametrize("n, top", [(4096, 12), (100, 2), (96, 5), (7, 0)])
def test_dyadic_levels_bounded_by_grid(deadline, n, top):
    # a grid resolves the levels up to v, 2^v the largest power of two
    # dividing n: the pool ends there however deep it is asked to go, and
    # a deeper level is refused by name before 2^level is formed
    g = Grid(1, n)
    with deadline(5):
        pool = list(dyadic_pool(g, 10 ** 6))
        with pytest.raises(ConfigError, match=f"0 to {top}, got level"):
            dyadic_partition(g, 10 ** 6)
    assert [Q.n_elements for Q in pool] == [2 ** L for L in range(1, top + 1)]
    with pytest.raises(ConfigError, match=f"0 to {top}, got level {top + 1}"):
        dyadic_partition(g, top + 1)


@pytest.mark.parametrize("dimension, n", [(1, 4096), (2, 64)])
def test_metric_diam_on_dyadic_pool_is_exact(dimension, n):
    # dyadic corners are exact binary fractions, so every element of level
    # L has diameter 2^-L along each axis, bit for bit
    for L, Q in enumerate(dyadic_pool(Grid(dimension, n), 64), start=1):
        side = min(2.0 ** -L, 0.5)
        want = side if dimension == 1 else float(np.hypot(side, side))
        assert metric_diam(Q) == want


def _two_pointer_max_1d(xs: np.ndarray) -> float:
    # an oracle independent of metric_diam's antipode search: a sorted
    # two-pointer scan that tries, for each point, the first later point
    # at or past it + 1/2 and the one before that
    xs = np.unique(xs % 1.0)
    if xs.size < 2:
        return 0.0
    best = 0.0
    j = 0
    for i in range(xs.size):
        target = xs[i] + 0.5
        j = max(j, i + 1)
        while j < xs.size and xs[j] < target:
            j += 1
        for k in (min(j, xs.size - 1), j - 1):
            if k > i:
                gap = xs[k] - xs[i]
                best = max(best, min(gap, 1.0 - gap))
    return best


@st.composite
def labelled_grids(draw):
    g = Grid(draw(st.sampled_from([1, 2])), draw(st.integers(2, 16)))
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, 5))),
                           min_size=g.total_cells, max_size=g.total_cells))
    return g, np.array(labels)


@settings(max_examples=150, deadline=None)
@given(labelled_grids())
def test_metric_diam_matches_brute_force(case):
    # the largest element diameter is the max over all pairs of corners of
    # an element's cells, bit for bit in both dimensions; in 1D it also
    # equals the two-pointer scan
    g, labels = case
    Q = partition_from_labels(g, labels)
    brute = scan = 0.0
    for cells in Q.elements:
        pts = g.cell_corners(cells).reshape(-1, g.dimension)
        d = torus_delta(pts[:, None, :], pts[None, :, :])
        brute = max(brute, float(np.sqrt((d ** 2).sum(axis=-1)).max()))
        if g.dimension == 1:
            scan = max(scan, _two_pointer_max_1d(pts[:, 0]))
    assert metric_diam(Q) == brute
    if g.dimension == 1:
        assert brute == scan
