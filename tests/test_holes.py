import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    # equal ends are empty, also where they reduce to 0 and 1
    assert interval_hole(1.0, 1.0).intervals == ()


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
    # (0, 1) is a full side, (1, 1) an empty one
    assert abs(rect_hole(0.1, 0.2, 0.0, 1.0).measure() - 0.1) < 1e-15
    assert HoleSpec(2, rects=((0.1, 0.2, 1.0, 1.0),)).rects == ()


def test_disk_hole():
    h = disk_hole(0.5, 0.5, 0.1)
    assert abs(h.measure() - np.pi * 0.01) < 1e-15
    pts = np.array([[0.5, 0.55], [0.5, 0.65]])
    assert list(h.contains(pts)) == [True, False]
    # torus metric: disk at the corner wraps
    h2 = disk_hole(0.0, 0.0, 0.1)
    assert bool(h2.contains(np.array([[0.95, 0.0]]))[0])


@pytest.mark.parametrize("rects, disks, pair", [
    # the issue's example: areas 0.16 + 0.16 for a union of 0.23
    (((0.1, 0.5, 0.1, 0.5), (0.2, 0.6, 0.2, 0.6)), (), "rects"),
    # a duplicated large rect: an overlap, not a measure above 1
    (((0.0, 0.9, 0.0, 0.9),) * 2, (), "rects"),
    # a wrapped rect against a rect inside one of its pieces
    (((0.9, 0.1, 0.2, 0.3), (0.0, 0.05, 0.25, 0.35)), (), "rects"),
    # disks whose centres are 0.15 apart across the wrap
    ((), ((0.05, 0.5, 0.1), (0.9, 0.5, 0.1)), "disks"),
    # a disk reaching 0.01 into a rect's side
    (((0.1, 0.2, 0.1, 0.2),), ((0.25, 0.15, 0.06),), "rect"),
    # a disk reaching across the wrap into a rect's corner
    (((0.0, 0.1, 0.0, 0.1),), ((0.95, 0.95, 0.08),), "rect"),
], ids=["rects", "duplicate", "wrapped_rect", "disks_across_wrap",
        "rect_disk", "rect_disk_across_wrap"])
def test_overlapping_components_rejected(rects, disks, pair):
    with pytest.raises(ConfigError, match=f"hole {pair} .* overlap"):
        HoleSpec(2, rects=rects, disks=disks)


def test_disjoint_components_accepted():
    # rects that share an edge, a rect wrapped on both axes (four pieces),
    # and disks that stay clear of every rect and of each other
    h = HoleSpec(2, rects=((0.1, 0.2, 0.1, 0.2), (0.2, 0.3, 0.1, 0.2),
                           (0.9, 0.05, 0.95, 0.02)),
                 disks=((0.5, 0.5, 0.1), (0.5, 0.75, 0.1), (0.2, 0.35, 0.1)))
    assert len(h.rects) == 6
    assert abs(h.measure() - (0.02 + 0.15 * 0.07 + 3 * np.pi * 0.01)) < 1e-15


# an arc or rect end: any point, a cell centre of the grid (drawn as an
# index, wrapped onto the grid), or 1.0
ENDS = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                 st.integers(0, 4095).map(lambda k: ("centre", k)),
                 st.just(1.0))


def _end(end, n: int) -> float:
    if isinstance(end, tuple):
        return float(Grid(1, n).centers()[end[1] % n])
    return end


def _assert_cells_are_centres_inside(spec_args, grid):
    try:
        hole = HoleSpec(grid.dimension, **spec_args)
    except ConfigError:     # the union covers the space, or 2D parts overlap
        assume(False)
    cells = hole.cells(grid)
    assert cells.dtype == bool
    assert np.array_equal(cells, hole.contains(grid.centers()))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 4096),
       arcs=st.lists(st.tuples(ENDS, ENDS), min_size=1, max_size=3))
# both ends on cell centres: the first centre is in, the last is out
@example(n=4, arcs=[(("centre", 0), ("centre", 2))])
# an arc that wraps through 0 and ends on a centre
@example(n=8, arcs=[(0.8, ("centre", 1))])
# an arc ending at 1.0 keeps the last cell
@example(n=8, arcs=[(("centre", 6), 1.0)])
def test_cells_of_1d_arcs_are_centres_inside(n, arcs):
    intervals = tuple((_end(lo, n), _end(hi, n)) for lo, hi in arcs)
    _assert_cells_are_centres_inside({"intervals": intervals}, Grid(1, n))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 64),
       rects=st.lists(st.tuples(ENDS, ENDS, ENDS, ENDS), max_size=2),
       disks=st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0),
                                st.floats(0.0, 0.5, exclude_min=True)),
                      max_size=2))
# a rect that wraps both axes, its edges on cell centres
@example(n=8, rects=[(("centre", 6), ("centre", 1), ("centre", 7), 0.1)],
         disks=[])
# a rect that wraps one axis beside a disk centred on a cell corner
@example(n=8, rects=[(0.9, 0.2, 0.3, 0.4)], disks=[(0.5, 0.75, 0.125)])
def test_cells_of_2d_rects_and_disks_are_centres_inside(n, rects, disks):
    rects = tuple(tuple(_end(e, n) for e in r) for r in rects)
    _assert_cells_are_centres_inside({"rects": rects, "disks": tuple(disks)},
                                     Grid(2, n))


def test_cells_refuse_other_dimension():
    with pytest.raises(ConfigError):
        interval_hole(0.1, 0.2).cells(Grid(2, 8))
    with pytest.raises(ConfigError):
        rect_hole(0.1, 0.2, 0.1, 0.2).cells(Grid(1, 8))


def test_hole_config_roundtrip():
    for h in (interval_hole(0.2, 0.4), HoleSpec(1, intervals=((0.0, 0.1), (0.5, 0.6))),
              rect_hole(0.1, 0.2, 0.3, 0.4), disk_hole(0.5, 0.5, 0.2)):
        h2 = hole_from_config(h.to_config())
        assert h2 == h


@pytest.mark.parametrize("dimension", [True, 1.0], ids=["bool", "float"])
def test_hole_dimension_is_an_integer(dimension):
    # the configuration integer rule Grid applies to its own dimension
    with pytest.raises(ConfigError, match="'dimension'"):
        hole_from_config({"dimension": dimension, "intervals": [[0.1, 0.2]]})
    with pytest.raises(ConfigError, match="hole dimension"):
        HoleSpec(dimension, intervals=((0.1, 0.2),))


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
