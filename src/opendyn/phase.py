"""Phase-space geometry on the circle and the 2-torus.

Everything downstream works on a uniform grid of half-open cells,
[i/n, (i+1)/n) in 1D and products of such intervals in 2D (cell index
ix*n + iy).  Partitions are sets of grid cells plus explicit boundary
descriptors (points or axis-aligned segments) so that boundary
complexity can be counted exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from scipy import sparse

from .errors import ConfigError

POINT_TOL = 1e-9  # merge tolerance for boundary-point coincidence


# ---------------------------------------------------------------------------
# grid

def is_integer(value) -> bool:
    """The integer rule of configurations: Python and numpy integers pass,
    bool (an int subclass), floats and strings do not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def config_integer(rec: dict, key: str, *default) -> int:
    """rec[key] (or the default when given and the key is absent) as an
    int; ConfigError naming the key when it breaks the integer rule.
    KeyError when the key is absent and no default is given."""
    value = rec.get(key, *default) if default else rec[key]
    if not is_integer(value):
        raise ConfigError(f"config key {key!r} must be an integer, "
                          f"got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on T^1 or T^2 with `cells_per_side` cells per axis."""

    dimension: int
    cells_per_side: int

    def __post_init__(self):
        if not all(map(is_integer, (self.dimension, self.cells_per_side))):
            raise ConfigError("grid dimension and n must be integers")
        if self.dimension not in (1, 2):
            raise ConfigError("dimension must be 1 or 2")
        if self.cells_per_side < 2:
            raise ConfigError("need at least 2 cells per side")

    @property
    def n(self) -> int:
        return self.cells_per_side

    @property
    def total_cells(self) -> int:
        return self.n ** self.dimension

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    @property
    def cell_measure(self) -> float:
        return 1.0 / self.total_cells

    @property
    def cell_diameter(self) -> float:
        # metric diameter of a single cell
        return self.spacing * (2.0 ** 0.5 if self.dimension == 2 else 1.0)

    def centers(self) -> np.ndarray:
        """Cell centers, shape (total,) in 1D and (total, 2) in 2D.  One
        read-only array per grid, computed on first use."""
        return self._centers

    @cached_property
    def _centers(self) -> np.ndarray:
        n, h = self.n, self.spacing
        mid = (np.arange(n) + 0.5) * h
        if self.dimension == 1:
            out = mid
        else:
            gx, gy = np.meshgrid(mid, mid, indexing="ij")
            out = np.column_stack([gx.ravel(), gy.ravel()])
        out.flags.writeable = False
        return out

    def cell_corners(self, cells: np.ndarray) -> np.ndarray:
        """Corner points of the given cells: (k, 2) in 1D, (k, 4, 2) in 2D."""
        cells = np.asarray(cells, dtype=np.int64)
        n, h = self.n, self.spacing
        if self.dimension == 1:
            lo = cells * h
            return np.column_stack([lo, lo + h])
        ix, iy = cells // n, cells % n
        x0, y0 = ix * h, iy * h
        corners = np.empty((cells.size, 4, 2))
        for k, (dx, dy) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
            corners[:, k, 0] = x0 + dx * h
            corners[:, k, 1] = y0 + dy * h
        return corners

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Cell index containing each point (half-open convention)."""
        pts = np.asarray(points, dtype=float) % 1.0
        idx = np.minimum((pts * self.n).astype(np.int64), self.n - 1)
        if self.dimension == 1:
            return idx
        return idx[..., 0] * self.n + idx[..., 1]


# ---------------------------------------------------------------------------
# torus metric helpers

def torus_delta(a, b):
    """Per-coordinate distance on the unit circle."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def _pairwise_max_torus_1d(xs: np.ndarray) -> float:
    # max over pairs of min(|a-b|, 1-|a-b|); the maximizing pair has
    # circle gap closest to 1/2, found by scanning sorted values.
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


def _pairwise_max_torus_2d(pts: np.ndarray) -> float:
    pts = np.unique(np.round(pts % 1.0, 12), axis=0)
    xs, ys = np.unique(pts[:, 0]), np.unique(pts[:, 1])
    if xs.size * ys.size == pts.shape[0]:
        # product structure: coordinates maximize independently
        dx = _pairwise_max_torus_1d(xs)
        dy = _pairwise_max_torus_1d(ys)
        return float(np.hypot(dx, dy))
    best = 0.0
    chunk = 512
    for i in range(0, pts.shape[0], chunk):
        blk = pts[i:i + chunk]
        d = torus_delta(blk[:, None, :], pts[None, :, :])
        best = max(best, float(np.sqrt((d ** 2).sum(axis=-1)).max()))
    return best


# ---------------------------------------------------------------------------
# boundary descriptors

@dataclass(frozen=True)
class PointDescriptor:
    """Boundary point on the circle."""

    x: float

    def contains(self, p, tol=POINT_TOL) -> bool:
        return float(torus_delta(self.x, p)) <= tol


@dataclass(frozen=True)
class SegmentDescriptor:
    """Axis-aligned segment on the torus.

    Runs parallel to `axis` at fixed transverse coordinate `level`,
    spanning [lo, hi] in the running coordinate (no wrap; split wrapped
    segments on input).
    """

    axis: int
    level: float
    lo: float
    hi: float

    def __post_init__(self):
        if not (-POINT_TOL <= self.lo <= self.hi <= 1.0 + POINT_TOL):
            raise ConfigError("segment span must satisfy 0 <= lo <= hi <= 1")

    def contains(self, p, tol=POINT_TOL) -> bool:
        p = np.asarray(p, dtype=float)
        run, perp = float(p[self.axis]) % 1.0, float(p[1 - self.axis]) % 1.0
        if float(torus_delta(self.level, perp)) > tol:
            return False
        for r in (run, run + 1.0, run - 1.0):
            if self.lo - tol <= r <= self.hi + tol:
                return True
        return False

    def endpoints(self) -> list:
        pts = []
        for r in (self.lo, self.hi):
            q = [0.0, 0.0]
            q[self.axis], q[1 - self.axis] = r % 1.0, self.level % 1.0
            pts.append(tuple(q))
        return pts


Descriptor = Union[PointDescriptor, SegmentDescriptor]


def _descriptor_to_json(d: Descriptor) -> dict:
    if isinstance(d, PointDescriptor):
        return {"kind": "point", "x": d.x}
    return {"kind": "segment", "axis": d.axis, "level": d.level,
            "lo": d.lo, "hi": d.hi}


def _descriptor_from_json(rec: dict) -> Descriptor:
    kind = rec["kind"]
    if kind == "point":
        return PointDescriptor(rec["x"])
    if kind == "segment":
        return SegmentDescriptor(rec["axis"], rec["level"], rec["lo"], rec["hi"])
    raise ConfigError(f"unknown descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class PartitionSpec:
    """Partition of the grid into labeled cell sets with boundary data.

    elements[k] is a sorted array of cell indices; boundary[k] lists the
    descriptor pieces making up the boundary of element k.  Elements must
    be disjoint and cover the grid.
    """

    grid: Grid
    elements: tuple
    boundary: tuple = field(default=())

    def __post_init__(self):
        elements = tuple(np.asarray(np.sort(np.asarray(e, dtype=np.int64)))
                         for e in self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise ConfigError("partition needs at least one element")
        allcells = np.concatenate(elements)
        if allcells.size != self.grid.total_cells or \
                not np.array_equal(np.sort(allcells), np.arange(self.grid.total_cells)):
            raise ConfigError("elements must partition the grid cells")
        bnd = self.boundary if self.boundary else tuple(() for _ in elements)
        if len(bnd) != len(elements):
            raise ConfigError("need one descriptor tuple per element")
        object.__setattr__(self, "boundary", tuple(tuple(b) for b in bnd))

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def labels(self) -> np.ndarray:
        """Element index per grid cell."""
        lab = np.empty(self.grid.total_cells, dtype=np.int64)
        for k, cells in enumerate(self.elements):
            lab[cells] = k
        return lab

    @cached_property
    def indicator(self) -> sparse.csr_matrix:
        """n_elements x cells 0/1 membership: `indicator @ V` sums V, of shape
        (cells,) or (cells, k), over each element in cell index order."""
        n = self.grid.total_cells
        return sparse.csr_matrix((np.ones(n), (self.labels(), np.arange(n))),
                                 shape=(self.n_elements, n))

    def to_json(self) -> str:
        return json.dumps({
            "grid": {"dimension": self.grid.dimension, "cells_per_side": self.grid.n},
            "elements": [e.tolist() for e in self.elements],
            "boundary": [[_descriptor_to_json(d) for d in b] for b in self.boundary],
        })

    @staticmethod
    def from_json(text: str) -> "PartitionSpec":
        rec = json.loads(text)
        grid = Grid(rec["grid"]["dimension"], rec["grid"]["cells_per_side"])
        elements = tuple(np.asarray(e, dtype=np.int64) for e in rec["elements"])
        boundary = tuple(tuple(_descriptor_from_json(d) for d in b)
                         for b in rec["boundary"])
        return PartitionSpec(grid, elements, boundary)


def diam_lambda(p: PartitionSpec) -> float:
    """Largest element measure, the coarseness gauge used by the cone bounds."""
    return max(e.size for e in p.elements) * p.grid.cell_measure


def metric_diam(p: PartitionSpec) -> float:
    """Largest metric diameter of an element, from its cell corner points."""
    best = 0.0
    for cells in p.elements:
        corners = p.grid.cell_corners(cells)
        if p.grid.dimension == 1:
            best = max(best, _pairwise_max_torus_1d(corners.ravel()))
        else:
            best = max(best, _pairwise_max_torus_2d(corners.reshape(-1, 2)))
    return best


# ---------------------------------------------------------------------------
# Hausdorff distance

Region = Union[np.ndarray, tuple]


def _region_points(region: Region, grid: Grid | None, resolution: int) -> np.ndarray:
    if isinstance(region, np.ndarray) and region.dtype.kind in "iu":
        if grid is None:
            raise ConfigError("cell-set regions need a grid")
        corners = grid.cell_corners(region)
        return corners.reshape(-1) if grid.dimension == 1 else corners.reshape(-1, 2)
    if isinstance(region, np.ndarray):
        return region
    kind = region[0]
    if kind == "interval":
        _, lo, hi = region
        k = max(2, int(np.ceil((hi - lo) * resolution)) + 1)
        return np.linspace(lo, hi, k) % 1.0
    if kind == "rect":
        _, x0, x1, y0, y1 = region
        kx = max(2, int(np.ceil((x1 - x0) * resolution)) + 1)
        ky = max(2, int(np.ceil((y1 - y0) * resolution)) + 1)
        gx, gy = np.meshgrid(np.linspace(x0, x1, kx), np.linspace(y0, y1, ky),
                             indexing="ij")
        return np.column_stack([gx.ravel() % 1.0, gy.ravel() % 1.0])
    raise ConfigError(f"unknown region kind {kind!r}")


def _directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    # sup over a of dist to b, chunked torus metric
    worst = 0.0
    chunk = 2048
    for i in range(0, a.shape[0], chunk):
        blk = a[i:i + chunk]
        if a.ndim == 1:
            d = torus_delta(blk[:, None], b[None, :])
        else:
            dd = torus_delta(blk[:, None, :], b[None, :, :])
            d = np.sqrt((dd ** 2).sum(axis=-1))
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def hausdorff_distance(a: Region, b: Region, grid: Grid | None = None,
                       resolution: int = 2000) -> float:
    """Hausdorff distance between two regions in the torus metric.

    Regions are cell-index arrays (with `grid`), analytic descriptions
    ("interval", lo, hi) / ("rect", x0, x1, y0, y1), or raw point arrays.
    Analytic regions are sampled at `resolution` points per unit length,
    so the reported value carries a discretization error of at most one
    sample spacing.
    """
    pa = _region_points(a, grid, resolution)
    pb = _region_points(b, grid, resolution)
    if pa.ndim != pb.ndim:
        raise ConfigError("regions have mismatched dimension")
    return max(_directed_hausdorff(pa, pb), _directed_hausdorff(pb, pa))


# ---------------------------------------------------------------------------
# boundary complexity

def _contains(d: Descriptor, q: tuple) -> bool:
    if isinstance(d, PointDescriptor):
        return len(q) == 1 and d.contains(q[0])
    if len(q) != 2:
        return False
    return d.contains(np.asarray(q, dtype=float))


def _candidate_points(descs: Sequence[Descriptor]) -> list:
    pts = []
    segs = [d for d in descs if isinstance(d, SegmentDescriptor)]
    for d in descs:
        if isinstance(d, PointDescriptor):
            pts.append((d.x % 1.0,))
        else:
            pts.extend(d.endpoints())
    # crossings of perpendicular segments
    for i, s in enumerate(segs):
        for t in segs[i + 1:]:
            if s.axis == t.axis:
                continue
            q = [0.0, 0.0]
            q[s.axis], q[t.axis] = t.level % 1.0, s.level % 1.0
            q = tuple(q)
            if s.contains(np.asarray(q)) and t.contains(np.asarray(q)):
                pts.append(q)
    return pts


def partition_complexity(p: PartitionSpec) -> int:
    """Max number of boundary pieces through a single phase-space point.

    Counts descriptor incidences over candidate points (descriptor points,
    segment endpoints, perpendicular crossings), which is exact for
    point and axis-aligned-segment boundaries.
    """
    flat = [d for bnd in p.boundary for d in bnd]
    if not flat and p.n_elements > 1:
        raise ConfigError("partition has no boundary descriptors to count")
    return _max_incidence(flat)


def _max_incidence(flat: Sequence[Descriptor]) -> int:
    """Max number of descriptors through one candidate point (0 for none)."""
    best, seen = 0, set()
    for q in _candidate_points(flat):
        key = tuple(round(float(c) % 1.0, 9) for c in q)
        if key in seen:
            continue
        seen.add(key)
        best = max(best, sum(1 for d in flat if _contains(d, q)))
    return best


# ---------------------------------------------------------------------------
# constructors

def dyadic_partition(grid: Grid, level: int) -> PartitionSpec:
    """2^level equal arcs (1D) or a 2^level x 2^level block partition (2D)."""
    if level < 0:
        raise ConfigError("level must be >= 0")
    n, e = grid.n, 2 ** level
    if n % e:
        raise ConfigError("grid size must be divisible by 2^level")
    w = n // e
    if grid.dimension == 1:
        elements, boundary = [], []
        for k in range(e):
            elements.append(np.arange(k * w, (k + 1) * w, dtype=np.int64))
            if e > 1:
                boundary.append((PointDescriptor(k / e),
                                 PointDescriptor(((k + 1) / e) % 1.0)))
            else:
                boundary.append(())
        return PartitionSpec(grid, tuple(elements), tuple(boundary))
    idx = np.arange(n * n, dtype=np.int64).reshape(n, n)
    elements, boundary = [], []
    for bx in range(e):
        for by in range(e):
            elements.append(idx[bx * w:(bx + 1) * w, by * w:(by + 1) * w].ravel())
            if e > 1:
                x0, x1 = bx / e, (bx + 1) / e
                y0, y1 = by / e, (by + 1) / e
                boundary.append((
                    SegmentDescriptor(0, y0 % 1.0, x0, x1),   # bottom edge
                    SegmentDescriptor(0, y1 % 1.0, x0, x1),   # top edge
                    SegmentDescriptor(1, x0 % 1.0, y0, y1),   # left edge
                    SegmentDescriptor(1, x1 % 1.0, y0, y1),   # right edge
                ))
            else:
                boundary.append(())
    return PartitionSpec(grid, tuple(elements), tuple(boundary))


def dyadic_pool(grid: Grid, max_level: int) -> list:
    """Dyadic partitions of levels 1..max_level that the grid resolves."""
    return [dyadic_partition(grid, L) for L in range(1, max_level + 1)
            if grid.n % 2 ** L == 0]


def _runs_1d(mask: np.ndarray) -> list:
    """Cyclic runs of True as (start, stop) index pairs, stop may exceed n."""
    n = mask.size
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    starts = np.flatnonzero(mask & ~np.roll(mask, 1))
    runs = []
    for s in starts:
        e = int(s)
        while mask[e % n]:
            e += 1
        runs.append((int(s), e))
    return runs


def _segments_mod1(axis: int, level: float, lo: float, hi: float) -> list:
    """Split a possibly-wrapping span into non-wrapping segment descriptors."""
    if hi <= 1.0 + POINT_TOL:
        return [SegmentDescriptor(axis, level % 1.0, lo, min(hi, 1.0))]
    return [SegmentDescriptor(axis, level % 1.0, lo, 1.0),
            SegmentDescriptor(axis, level % 1.0, 0.0, hi - 1.0)]


def partition_from_labels(grid: Grid, labels: np.ndarray) -> PartitionSpec:
    """Partition from a per-cell label array, with synthesized descriptors.

    1D boundaries become PointDescriptors at label changes; 2D boundaries
    become maximal axis-aligned SegmentDescriptors along grid edges
    (contiguous edge runs merged per element, so a straight boundary line
    crossing a corner counts as one piece).
    """
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    elements = tuple(np.flatnonzero(labels == u).astype(np.int64) for u in uniq)
    n, h = grid.n, grid.spacing
    boundary = []
    if grid.dimension == 1:
        for u in uniq:
            mask = labels == u
            descs = []
            for s, e in _runs_1d(mask):
                if e - s < n:
                    descs.append(PointDescriptor((s % n) * h))
                    descs.append(PointDescriptor((e % n) * h))
            boundary.append(tuple(descs))
    else:
        lab2 = labels.reshape(n, n)
        for u in uniq:
            m = lab2 == u
            descs = []
            # vertical lines x = k*h: edges between cell columns k-1 and k
            vown = m != np.roll(m, 1, axis=0)
            for k in range(n):
                for s, e in _runs_1d(vown[k]):
                    descs.extend(_segments_mod1(1, k * h, s * h, e * h))
            # horizontal lines y = k*h: edges between cell rows k-1 and k
            hown = m != np.roll(m, 1, axis=1)
            for k in range(n):
                for s, e in _runs_1d(hown[:, k]):
                    descs.extend(_segments_mod1(0, k * h, s * h, e * h))
            boundary.append(tuple(descs))
    return PartitionSpec(grid, elements, tuple(boundary))
