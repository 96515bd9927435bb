import numpy as np
import pytest

from opendyn.errors import ConfigError
from opendyn.phase import (Grid, PartitionSpec, diam_lambda, dyadic_partition,
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


def test_locate_roundtrip():
    rng = np.random.default_rng(0)
    for g in (Grid(1, 128), Grid(2, 16)):
        pts = rng.uniform(0, 1, (200, g.dimension)) if g.dimension == 2 \
            else rng.uniform(0, 1, 200)
        idx = g.locate(pts)
        centers = g.centers()
        # located cell center is within half a spacing of the point
        if g.dimension == 1:
            assert np.max(np.abs(centers[idx] - pts)) <= 0.5 * g.spacing + 1e-12
        else:
            assert np.max(np.abs(centers[idx] - pts)) <= 0.5 * g.spacing + 1e-12


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
    Q2 = PartitionSpec.from_json(Q.to_json())
    assert Q2.grid == Q.grid
    assert [list(e) for e in Q2.elements] == [list(e) for e in Q.elements]


# written before partitions dropped their boundary descriptors: files
# that still carry the "boundary" key load to the same elements
OLD_PARTITION_1D = (
    '{"grid": {"dimension": 1, "cells_per_side": 8}, "elements": [[0, 1], '
    '[2, 3], [4, 5], [6, 7]], "boundary": [[{"kind": "point", "x": 0.0}, '
    '{"kind": "point", "x": 0.25}], [{"kind": "point", "x": 0.25}, '
    '{"kind": "point", "x": 0.5}], [{"kind": "point", "x": 0.5}, '
    '{"kind": "point", "x": 0.75}], [{"kind": "point", "x": 0.75}, '
    '{"kind": "point", "x": 0.0}]]}')
OLD_PARTITION_2D = (
    '{"grid": {"dimension": 2, "cells_per_side": 4}, "elements": [[0, '
    '1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]], '
    '"boundary": [[{"kind": "segment", "axis": 0, "level": 0.0, "lo": '
    '0.0, "hi": 0.5}, {"kind": "segment", "axis": 0, "level": 0.5, '
    '"lo": 0.0, "hi": 0.5}, {"kind": "segment", "axis": 1, "level": '
    '0.0, "lo": 0.0, "hi": 0.5}, {"kind": "segment", "axis": 1, '
    '"level": 0.5, "lo": 0.0, "hi": 0.5}], [{"kind": "segment", '
    '"axis": 0, "level": 0.5, "lo": 0.0, "hi": 0.5}, {"kind": '
    '"segment", "axis": 0, "level": 0.0, "lo": 0.0, "hi": 0.5}, '
    '{"kind": "segment", "axis": 1, "level": 0.0, "lo": 0.5, "hi": '
    '1.0}, {"kind": "segment", "axis": 1, "level": 0.5, "lo": 0.5, '
    '"hi": 1.0}], [{"kind": "segment", "axis": 0, "level": 0.0, "lo": '
    '0.5, "hi": 1.0}, {"kind": "segment", "axis": 0, "level": 0.5, '
    '"lo": 0.5, "hi": 1.0}, {"kind": "segment", "axis": 1, "level": '
    '0.5, "lo": 0.0, "hi": 0.5}, {"kind": "segment", "axis": 1, '
    '"level": 0.0, "lo": 0.0, "hi": 0.5}], [{"kind": "segment", '
    '"axis": 0, "level": 0.5, "lo": 0.5, "hi": 1.0}, {"kind": '
    '"segment", "axis": 0, "level": 0.0, "lo": 0.5, "hi": 1.0}, '
    '{"kind": "segment", "axis": 1, "level": 0.5, "lo": 0.5, "hi": '
    '1.0}, {"kind": "segment", "axis": 1, "level": 0.0, "lo": 0.5, '
    '"hi": 1.0}]]}')


def test_partition_json_with_boundary_key_loads():
    for text, grid, level in ((OLD_PARTITION_1D, Grid(1, 8), 2),
                              (OLD_PARTITION_2D, Grid(2, 4), 1)):
        Q = PartitionSpec.from_json(text)
        ref = dyadic_partition(grid, level)
        assert Q.grid == grid
        assert [e.tolist() for e in Q.elements] == \
            [e.tolist() for e in ref.elements]
        assert "boundary" not in Q.to_json()


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
