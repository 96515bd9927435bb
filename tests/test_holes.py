import numpy as np
import pytest

from opendyn.errors import ConfigError
from opendyn.holes import (HoleSequence, HoleSpec, disk_hole, hole_from_config,
                           interval_hole, rect_hole, survivor_indicator,
                           survivor_measure)
from opendyn.maps import MapSequence, doubling_map, matrix_map
from opendyn.phase import Grid


def test_interval_hole_membership_half_open():
    h = interval_hole(0.2, 0.4)
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    assert list(h.contains(x)) == [False, True, True, False, False]
    assert abs(h.measure() - 0.2) < 1e-15


def test_wrapping_interval():
    h = interval_hole(0.9, 0.1)
    x = np.array([0.95, 0.05, 0.5, 0.1])
    assert list(h.contains(x)) == [True, True, False, False]
    assert abs(h.measure() - 0.2) < 1e-15


def test_hole_spec_merges_overlaps():
    h = HoleSpec(1, intervals=((0.1, 0.3), (0.25, 0.4), (0.7, 0.8)))
    assert abs(h.measure() - 0.4) < 1e-15
    x = np.array([0.35, 0.65, 0.75])
    assert list(h.contains(x)) == [True, False, True]


def test_full_space_hole_rejected():
    with pytest.raises(ConfigError):
        interval_hole(0.0, 1.0)


def test_rect_hole_2d():
    h = rect_hole(0.1, 0.3, 0.2, 0.4)
    assert abs(h.measure() - 0.04) < 1e-15
    pts = np.array([[0.2, 0.3], [0.05, 0.3], [0.2, 0.5]])
    assert list(h.contains(pts)) == [True, False, False]


def test_wrapping_rect():
    h = rect_hole(0.9, 0.1, 0.0, 0.5)
    assert abs(h.measure() - 0.1) < 1e-14
    pts = np.array([[0.95, 0.25], [0.05, 0.25], [0.5, 0.25]])
    assert list(h.contains(pts)) == [True, True, False]


def test_disk_hole():
    h = disk_hole(0.5, 0.5, 0.1)
    assert abs(h.measure() - np.pi * 0.01) < 1e-15
    pts = np.array([[0.5, 0.55], [0.5, 0.65]])
    assert list(h.contains(pts)) == [True, False]
    # torus metric: disk at the corner wraps
    h2 = disk_hole(0.0, 0.0, 0.1)
    assert bool(h2.contains(np.array([[0.95, 0.0]]))[0])


def test_hole_config_roundtrip():
    for h in (interval_hole(0.2, 0.4), HoleSpec(1, intervals=((0.0, 0.1), (0.5, 0.6))),
              rect_hole(0.1, 0.2, 0.3, 0.4), disk_hole(0.5, 0.5, 0.2)):
        h2 = hole_from_config(h.to_config())
        assert h2 == h


def test_hole_sequence_indexing():
    h = interval_hole(0.0, 0.5)
    seq = HoleSequence.static(h, 3)
    assert seq.at(1) is h and seq.at(3) is h
    closed = HoleSequence.closed(3)
    assert closed.at(2) is None
    with pytest.raises(ConfigError):
        seq.at(4)


def test_survivor_dyadic_oracle():
    # doubling with H = [0, 1/2): survivor after m steps has measure 2^-m
    g = Grid(1, 4096)
    m = 10
    seq = MapSequence.constant(doubling_map(), m)
    holes = HoleSequence.static(interval_hole(0.0, 0.5), m)
    for k in range(1, m + 1):
        assert abs(survivor_measure(seq, holes, k, g) - 2.0 ** (-k)) < 1e-12


def test_survivor_full_hole_step_one():
    g = Grid(1, 256)
    seq = MapSequence.constant(doubling_map(), 3)
    wide = interval_hole(0.0, 1.0 - 1e-9)
    holes = HoleSequence((wide, None, None))
    assert survivor_measure(seq, holes, 1, g) < 1e-2
    ind = survivor_indicator(seq, holes, 1, g)
    assert ind.sum() <= 2


def test_survivor_2d():
    g = Grid(2, 32)
    seq = MapSequence.constant(matrix_map([[2, 0], [0, 2]]), 2)
    holes = HoleSequence.static(rect_hole(0.0, 0.5, 0.0, 1.0 - 1e-12), 2)
    # x-half-plane hole under coordinate doubling: survivor shrinks by 2 per step
    m1 = survivor_measure(seq, holes, 1, g)
    m2 = survivor_measure(seq, holes, 2, g)
    assert abs(m1 - 0.5) < 0.05
    assert abs(m2 - 0.25) < 0.05
