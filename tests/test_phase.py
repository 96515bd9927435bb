import numpy as np
import pytest

from opendyn.errors import ConfigError
from opendyn.phase import (Grid, PartitionSpec, SegmentDescriptor, diam_lambda,
                           dyadic_partition, hausdorff_distance, metric_diam,
                           partition_complexity, partition_from_labels,
                           torus_delta)


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


def test_partition_from_labels_matches_dyadic():
    g = Grid(1, 256)
    labels = (np.arange(256) // 64).astype(np.int64)
    Q = partition_from_labels(g, labels)
    assert len(Q.elements) == 4
    assert abs(diam_lambda(Q) - 0.25) < 1e-15


def test_partition_complexity_dyadic():
    g = Grid(1, 256)
    Q = dyadic_partition(g, 2)
    # each cut point ends one arc and starts the next: 2 incident pieces
    assert partition_complexity(Q) == 2


def test_partition_complexity_from_labels():
    g = Grid(1, 256)
    labels = np.zeros(256, dtype=np.int64)
    labels[64:128] = 1
    labels[192:] = 2
    Q = partition_from_labels(g, labels)
    assert partition_complexity(Q) >= 1


def test_hausdorff_distance_intervals():
    d = hausdorff_distance(("interval", 0.0, 0.25), ("interval", 0.125, 0.375))
    assert abs(d - 0.125) < 2e-3
    assert hausdorff_distance(("interval", 0.1, 0.2), ("interval", 0.1, 0.2)) < 1e-3


def test_hausdorff_distance_cells_vs_analytic():
    g = Grid(1, 512)
    cells = np.arange(0, 128)   # [0, 0.25)
    d = hausdorff_distance(cells, ("interval", 0.0, 0.25), grid=g)
    assert d < 2.0 / 512


def test_metric_diam_caps_at_torus_diameter():
    g = Grid(1, 64)
    Q = dyadic_partition(g, 0)   # one element, whole circle
    assert abs(metric_diam(Q) - 0.5) < 1e-12
    assert abs(diam_lambda(Q) - 1.0) < 1e-12
