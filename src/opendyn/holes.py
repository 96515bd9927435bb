"""Holes (absorbing regions) and survivor sets.

A hole is a finite union of intervals (1D) or of axis-aligned rectangles
and disks (2D), with half-open membership matching the grid convention.
A trajectory escapes at step i when its image under the i-th map lands
in the i-th hole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .phase import Grid, config_numbers, torus_delta


def _normalize_intervals(intervals) -> tuple:
    """Split wrapping intervals, merge overlaps, keep half-open pieces."""
    pieces = []
    for lo, hi in intervals:
        lo, hi = float(lo) % 1.0, float(hi)
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


@dataclass(frozen=True)
class HoleSpec:
    """Finite union of elementary absorbing regions.

    1D components are half-open arcs; 2D components are half-open
    rectangles (possibly wrapping, stored split) and open disks of
    radius <= 1/2.  Components of one hole must be pairwise disjoint so
    the measure is the sum of component measures.
    """

    dimension: int
    intervals: tuple = ()     # ((lo, hi), ...)
    rects: tuple = ()         # ((x0, x1, y0, y1), ...)
    disks: tuple = ()         # ((cx, cy, r), ...)

    def __post_init__(self):
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
        hit = np.zeros(p.shape[0], dtype=bool)
        for x0, x1, y0, y1 in self.rects:
            hit |= (p[:, 0] >= x0) & (p[:, 0] < x1) & (p[:, 1] >= y0) & (p[:, 1] < y1)
        for cx, cy, r in self.disks:
            dx = torus_delta(p[:, 0], cx)
            dy = torus_delta(p[:, 1], cy)
            hit |= dx * dx + dy * dy < r * r
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


def hole_from_config(rec: dict):
    if rec is None:
        return None
    if not isinstance(rec, dict):
        raise ConfigError(f"a 'hole' record must be an object, got {rec!r}")
    if "dimension" not in rec:
        raise ConfigError("hole config missing key 'dimension'")
    return HoleSpec(rec["dimension"],
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


def survivor_indicator(map_seq, hole_seq: HoleSequence, m: int, grid: Grid,
                       return_straddle: bool = False):
    """Indicator of the m-step survivor set on grid cells.

    A cell survives when its center orbit avoids every hole: the i-th
    test is applied to the image under the i-th map.  With
    return_straddle=True also flags cells whose corner orbits disagree
    with the center, marking the survivor boundary at grid resolution.
    """
    if m < 1:
        raise ConfigError("m must be >= 1")
    if len(hole_seq) < m or len(map_seq) < m:
        raise ConfigError("schedules shorter than requested horizon")

    def alive_mask(points):
        x = np.array(points, dtype=float, copy=True)
        alive = np.ones(len(np.atleast_1d(x if grid.dimension == 1 else x[:, 0])),
                        dtype=bool)
        for i in range(1, m + 1):
            x = map_seq.at(i).evaluate(x)
            h = hole_seq.at(i)
            if h is not None:
                alive &= ~h.contains(x)
        return alive

    center_alive = alive_mask(grid.centers())
    if not return_straddle:
        return center_alive
    cells = np.arange(grid.total_cells)
    corners = grid.cell_corners(cells)    # (total, 2**d, d) or (total, 2)
    straddle = np.zeros(grid.total_cells, dtype=bool)
    for j in range(corners.shape[1]):
        pts = corners[:, j] if grid.dimension == 2 else corners[:, j]
        straddle |= alive_mask(pts) != center_alive
    return center_alive, straddle


def survivor_measure(map_seq, hole_seq: HoleSequence, m: int, grid: Grid) -> float:
    """Lebesgue measure of the grid-resolved m-step survivor set."""
    return float(survivor_indicator(map_seq, hole_seq, m, grid).mean())
