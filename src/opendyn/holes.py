"""Holes (absorbing regions) and survivor sets.

A hole is a finite union of intervals (1D) or of axis-aligned rectangles
and disks (2D), with half-open membership matching the grid convention.
A trajectory escapes at step i when its image under the i-th map lands
in the i-th hole.  A grid cell is in a hole when its centre is; an arc's
cells, and each axis of a rect's, are one run of the sorted centres.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .phase import (Grid, config_check, config_integer, config_keys,
                    config_numbers, is_integer, torus_delta)


def _normalize_intervals(intervals) -> tuple:
    """Split wrapping intervals, merge overlaps, keep half-open pieces."""
    pieces = []
    for lo, hi in intervals:
        lo, hi = float(lo), float(hi)
        # equal ends are empty before reduction: (1.0, 1.0) must not
        # become the circle (0.0, 1.0)
        if lo == hi:
            continue
        lo %= 1.0
        if hi != 1.0:
            hi = hi % 1.0
        if lo < hi:
            pieces.append((lo, hi))
        elif lo > hi:
            pieces.append((lo, 1.0))
            if hi > 0.0:
                pieces.append((0.0, hi))
        # lo == hi is an empty interval, dropped
    pieces.sort()
    merged = []
    for lo, hi in pieces:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _rect_disk_gap(rect, disk) -> float:
    """Torus distance from the disk's centre to the rect."""
    x0, x1, y0, y1 = rect
    cx, cy, _ = disk
    d = [0.0 if lo <= c % 1.0 <= hi
         else float(min(torus_delta(c, lo), torus_delta(c, hi)))
         for c, lo, hi in ((cx, x0, x1), (cy, y0, y1))]
    return math.hypot(*d)


def _check_disjoint(rects, disks) -> None:
    """ConfigError naming the first pair of 2D components that overlap.
    `rects` are split at the wrap, so each side is one interval of
    [0, 1]; the pieces of one wrapped rect never overlap."""
    for a, b in itertools.combinations(rects, 2):
        if all(max(a[k], b[k]) < min(a[k + 1], b[k + 1]) for k in (0, 2)):
            raise ConfigError(f"hole rects {a} and {b} overlap")
    for a, b in itertools.combinations(disks, 2):
        if math.hypot(torus_delta(a[0], b[0]), torus_delta(a[1], b[1])) \
                < a[2] + b[2]:
            raise ConfigError(f"hole disks {a} and {b} overlap")
    for rect in rects:
        for disk in disks:
            if _rect_disk_gap(rect, disk) < disk[2]:
                raise ConfigError(f"hole rect {rect} and disk {disk} overlap")


@dataclass(frozen=True)
class HoleSpec:
    """Finite union of elementary absorbing regions.

    1D components are half-open arcs; 2D components are half-open
    rectangles (possibly wrapping, stored split) and open disks of
    radius <= 1/2.  2D components must be pairwise disjoint, so that the
    measure is the sum of component measures; 1D arcs are merged.
    """

    dimension: int
    intervals: tuple = ()     # ((lo, hi), ...)
    rects: tuple = ()         # ((x0, x1, y0, y1), ...)
    disks: tuple = ()         # ((cx, cy, r), ...)

    def __post_init__(self):
        if not is_integer(self.dimension):
            raise ConfigError(f"hole dimension must be an integer, "
                              f"got {self.dimension!r}")
        if self.dimension == 1:
            if self.rects or self.disks:
                raise ConfigError("1D holes take intervals only")
            object.__setattr__(self, "intervals", _normalize_intervals(self.intervals))
        elif self.dimension == 2:
            if self.intervals:
                raise ConfigError("2D holes take rects and disks")
            rr = []
            for x0, x1, y0, y1 in self.rects:
                for ax, bx in _normalize_intervals([(x0, x1)]):
                    for ay, by in _normalize_intervals([(y0, y1)]):
                        rr.append((ax, bx, ay, by))
            object.__setattr__(self, "rects", tuple(rr))
            for cx, cy, r in self.disks:
                if not 0.0 < r <= 0.5:
                    raise ConfigError("disk radius must lie in (0, 1/2]")
            _check_disjoint(self.rects, self.disks)
        else:
            raise ConfigError("dimension must be 1 or 2")
        if not 0.0 <= self.measure() < 1.0:
            raise ConfigError("hole measure must lie in [0, 1)")

    def contains(self, points) -> np.ndarray:
        if self.dimension == 1:
            x = np.asarray(points, dtype=float) % 1.0
            hit = np.zeros_like(x, dtype=bool)
            for lo, hi in self.intervals:
                hit |= (x >= lo) & (x < hi)
            return hit
        p = np.atleast_2d(np.asarray(points, dtype=float)) % 1.0
        hit = self._disk_hits(p)
        for x0, x1, y0, y1 in self.rects:
            hit |= (p[:, 0] >= x0) & (p[:, 0] < x1) & (p[:, 1] >= y0) & (p[:, 1] < y1)
        return hit

    def _disk_hits(self, p: np.ndarray) -> np.ndarray:
        hit = np.zeros(p.shape[0], dtype=bool)
        for cx, cy, r in self.disks:
            dx = torus_delta(p[:, 0], cx)
            dy = torus_delta(p[:, 1], cy)
            hit |= dx * dx + dy * dy < r * r
        return hit

    def cells(self, grid: Grid) -> np.ndarray:
        """The grid cells whose centre lies in the hole, as a boolean array
        over the cells: `contains(grid.centers())`, with the cells of an
        arc, and of each axis of a rect, taken as one run of the sorted
        centres.  Disks test every centre."""
        if self.dimension != grid.dimension:
            raise ConfigError("hole and grid dimensions differ")
        n, centers = grid.n, grid.centers()
        axis = centers if grid.dimension == 1 else centers[:n, 1]

        def run(lo, hi) -> slice:
            # the centres c with lo <= c < hi
            return slice(*np.searchsorted(axis, (lo, hi)))

        if self.dimension == 1:
            hit = np.zeros(n, dtype=bool)
            for lo, hi in self.intervals:
                hit[run(lo, hi)] = True
            return hit
        hit = self._disk_hits(centers)
        square = hit.reshape(n, n)       # cell ix*n + iy at [ix, iy]
        for x0, x1, y0, y1 in self.rects:
            square[run(x0, x1), run(y0, y1)] = True
        return hit

    def measure(self) -> float:
        if self.dimension == 1:
            return float(sum(hi - lo for lo, hi in self.intervals))
        area = sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in self.rects)
        area += sum(np.pi * r * r for _, _, r in self.disks)
        return float(area)

    def to_config(self) -> dict:
        if self.dimension == 1:
            return {"dimension": 1, "intervals": [list(t) for t in self.intervals]}
        return {"dimension": 2, "rects": [list(t) for t in self.rects],
                "disks": [list(t) for t in self.disks]}


def interval_hole(lo: float, hi: float) -> HoleSpec:
    return HoleSpec(1, intervals=((lo, hi),))


def rect_hole(x0: float, x1: float, y0: float, y1: float) -> HoleSpec:
    return HoleSpec(2, rects=((x0, x1, y0, y1),))


def disk_hole(cx: float, cy: float, r: float) -> HoleSpec:
    return HoleSpec(2, disks=((cx, cy, r),))


def hole_from_config(rec: dict) -> HoleSpec:
    config_check(isinstance(rec, dict), "hole", "be an object", rec)
    config_keys(rec, "dimension", "intervals", "rects", "disks")
    return HoleSpec(config_integer(rec, "dimension"),
                    intervals=config_numbers(rec, "intervals", (), width=2),
                    rects=config_numbers(rec, "rects", (), width=4),
                    disks=config_numbers(rec, "disks", (), width=3))


@dataclass(frozen=True)
class HoleSequence:
    """Per-step hole schedule; entries may be None for closed steps."""

    holes: tuple

    def __post_init__(self):
        if not self.holes:
            raise ConfigError("empty hole sequence")
        object.__setattr__(self, "holes", tuple(self.holes))

    def __len__(self) -> int:
        return len(self.holes)

    def at(self, step: int):
        if not 1 <= step <= len(self.holes):
            raise ConfigError(f"step {step} outside schedule of length {len(self.holes)}")
        return self.holes[step - 1]

    @staticmethod
    def static(hole, length: int) -> "HoleSequence":
        return HoleSequence((hole,) * length)

    @staticmethod
    def closed(length: int) -> "HoleSequence":
        return HoleSequence((None,) * length)


def survivor_indicator(map_seq, hole_seq: HoleSequence, m: int, grid: Grid):
    """Indicator of the m-step survivor set on grid cells: a cell survives
    when its center orbit avoids every hole, the i-th test applied to the
    image under the i-th map."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    if len(hole_seq) < m or len(map_seq) < m:
        raise ConfigError("schedules shorter than requested horizon")
    x, alive = grid.centers(), np.ones(grid.total_cells, dtype=bool)
    for i in range(1, m + 1):
        x = map_seq.at(i).evaluate(x)
        h = hole_seq.at(i)
        if h is not None:
            alive &= ~h.contains(x)
    return alive


def survivor_measure(map_seq, hole_seq: HoleSequence, m: int, grid: Grid) -> float:
    """Lebesgue measure of the grid-resolved m-step survivor set."""
    return float(survivor_indicator(map_seq, hole_seq, m, grid).mean())
