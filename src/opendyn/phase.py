"""Phase-space geometry on the circle and the 2-torus.

Everything downstream works on a uniform grid of half-open cells,
[i/n, (i+1)/n) in 1D and products of such intervals in 2D (cell index
ix*n + iy).  A partition is a tuple of disjoint cell sets covering the
grid; the certificates read it only through its elements (mixing ratios,
cone membership, diameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
import numpy as np
from scipy import sparse

from .errors import ConfigError


# ---------------------------------------------------------------------------
# grid

def is_integer(value) -> bool:
    """The integer rule of configurations: Python and numpy integers pass,
    bool (an int subclass), floats and strings do not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _lookup(rec: dict, key: str, *default):
    """rec[key], or the default when given and the key is absent;
    ConfigError naming the key when it is absent without a default."""
    if key in rec:
        return rec[key]
    if default:
        return default[0]
    raise ConfigError(f"missing config key {key!r}")


def config_check(ok: bool, key: str, rule: str, value) -> None:
    """The range rule of configurations: ConfigError naming the key, its
    rule and the value unless ok."""
    if not ok:
        raise ConfigError(f"config key {key!r} must {rule}, got {value!r}")


def config_choice(rec: dict, key: str, choices, *default) -> str:
    """rec[key] (or the default when given and the key is absent), one of
    the names in `choices`; ConfigError naming the key and the choices
    when it is absent without a default, not a string or another name."""
    value = _lookup(rec, key, *default)
    config_check(isinstance(value, str) and value in choices, key,
                 f"be one of {', '.join(map(repr, choices))}", value)
    return value


def config_integer(rec: dict, key: str, *default) -> int:
    """rec[key] (or the default when given and the key is absent) as an
    int; ConfigError naming the key when it is absent without a default
    or breaks the integer rule."""
    value = _lookup(rec, key, *default)
    config_check(is_integer(value), key, "be an integer", value)
    return int(value)


def finite_float(value) -> float:
    """float(value); ValueError when it is NaN or infinite, which Python's
    json reads from NaN and Infinity."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def config_number(rec: dict, key: str, *default) -> float:
    """rec[key] (or the default when given and the key is absent) as a
    finite float; ConfigError naming the key when it is absent without a
    default, float() refuses it or it is NaN or infinite."""
    value = _lookup(rec, key, *default)
    try:
        return finite_float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} must be a finite number, "
                          f"got {value!r}") from exc


def config_numbers(rec: dict, key: str, *default, width=None) -> tuple:
    """rec[key] (or the default when given and the key is absent) as a
    tuple of finite floats or, with a `width`, as a tuple of rows of
    `width` finite floats each; ConfigError naming the key when it has
    another shape or an entry is not a finite number, or when it is
    absent without a default."""
    value = _lookup(rec, key, *default)

    def entries(v, size=None) -> tuple:
        if not isinstance(v, (list, tuple)) or size not in (None, len(v)):
            raise TypeError(f"{v!r} is not a list of length {size}")
        return tuple(v)

    try:
        if width is None:
            return tuple(map(finite_float, entries(value)))
        return tuple(tuple(map(finite_float, entries(row, width)))
                     for row in entries(value))
    except (TypeError, ValueError) as exc:
        what = f"lists of {width} finite numbers" if width \
            else "finite numbers"
        raise ConfigError(f"config key {key!r} must be a list of {what}, "
                          f"got {value!r}") from exc


def config_record(rec: dict, key: str, *default) -> dict:
    """rec[key] (or the default when given and the key is absent);
    ConfigError naming the key when it is absent without a default or
    is not a JSON object."""
    value = _lookup(rec, key, *default)
    config_check(isinstance(value, dict), key, "be an object", value)
    return value


def config_keys(rec: dict, *keys: str) -> None:
    """ConfigError naming a key of rec outside `keys`, the keys its reader
    reads, so that a misspelled key is refused rather than ignored."""
    unread = sorted(set(rec).difference(keys), key=str)
    if unread:
        raise ConfigError(f"unknown config key {unread[0]!r}: the record "
                          f"reads only {', '.join(map(repr, keys))}")


@dataclass(frozen=True)
class Grid:
    """Uniform grid on T^1 or T^2 with `cells_per_side` cells per axis."""

    dimension: int
    cells_per_side: int

    def __post_init__(self):
        for key, value in (("dimension", self.dimension),
                           ("n", self.cells_per_side)):
            config_check(is_integer(value), key, "be an integer", value)
        config_check(self.dimension in (1, 2), "dimension", "be 1 or 2",
                     self.dimension)
        config_check(self.cells_per_side >= 2, "n", "be at least 2",
                     self.cells_per_side)

    @staticmethod
    def from_config(rec: dict) -> "Grid":
        """A config's `grid` record: dimension 1 and n = 4096 by default."""
        config_keys(rec, "dimension", "n")
        return Grid(_lookup(rec, "dimension", 1), _lookup(rec, "n", 4096))

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


# ---------------------------------------------------------------------------
# torus metric helpers

def torus_delta(a, b):
    """Per-coordinate distance on the unit circle."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def _pairwise_max_torus_1d(xs: np.ndarray) -> float:
    # max over pairs of min(|a-b|, 1-|a-b|): the farthest partner of a
    # point is a sorted neighbour j or j - 1 (mod size) of its antipode
    xs = np.unique(xs % 1.0)
    if xs.size < 2:
        return 0.0
    j = np.searchsorted(xs, (xs + 0.5) % 1.0)
    gap = np.abs(xs[np.concatenate([j, j - 1]) % xs.size] - np.tile(xs, 2))
    return float(np.minimum(gap, 1.0 - gap).max())


def _pairwise_max_torus_2d(pts: np.ndarray) -> float:
    pts = np.unique(pts % 1.0, axis=0)
    xs, ys = np.unique(pts[:, 0]), np.unique(pts[:, 1])
    if xs.size * ys.size == pts.shape[0]:
        # product structure: coordinates maximize independently, and the
        # same float operations as the pairwise branch keep it exact
        dx = _pairwise_max_torus_1d(xs)
        dy = _pairwise_max_torus_1d(ys)
        return float(np.sqrt(dx * dx + dy * dy))
    best = 0.0
    chunk = 512
    for i in range(0, pts.shape[0], chunk):
        blk = pts[i:i + chunk]
        d = torus_delta(blk[:, None, :], pts[None, :, :])
        best = max(best, float(np.sqrt((d ** 2).sum(axis=-1)).max()))
    return best


# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class PartitionSpec:
    """Partition of the grid into labeled cell sets.

    elements[k] is a sorted array of cell indices.  Elements must be
    disjoint and cover the grid.
    """

    grid: Grid
    elements: tuple

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

    def to_config(self) -> dict:
        return {"grid": {"dimension": self.grid.dimension,
                         "cells_per_side": self.grid.n},
                "elements": [e.tolist() for e in self.elements]}


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
# constructors

def dyadic_partition(grid: Grid, level: int) -> PartitionSpec:
    """2^level equal arcs (1D) or a 2^level x 2^level block partition (2D)
    for a level 0..v, 2^v the largest power of two dividing n; any other
    level is refused before 2^level is formed."""
    n, top = grid.n, (grid.n & -grid.n).bit_length() - 1
    if not 0 <= level <= top:
        raise ConfigError(f"a grid of n = {n} resolves dyadic levels 0 to "
                          f"{top}, got level {level}")
    e, w = 2 ** level, n >> level
    if grid.dimension == 1:
        return PartitionSpec(grid, tuple(np.arange(n).reshape(e, w)))
    # cell ix*n + iy at [bx, i, by, j] with ix = bx*w + i, iy = by*w + j
    blocks = np.arange(n * n).reshape(e, w, e, w).transpose(0, 2, 1, 3)
    return PartitionSpec(grid, tuple(blocks.reshape(e * e, w * w)))


def dyadic_pool(grid: Grid, max_level: int):
    """Dyadic partitions of levels 1..max_level, coarsest first, up to the
    first level that does not divide n.  A generator: each level is built
    only when it is drawn, so a consumer that stops at the first
    admissible partition builds none of the finer ones."""
    for L in range(1, max_level + 1):
        if grid.n % 2 ** L:
            return
        yield dyadic_partition(grid, L)


def partition_from_labels(grid: Grid, labels: np.ndarray) -> PartitionSpec:
    """One element per distinct label, in sorted label order."""
    labels = np.asarray(labels)
    return PartitionSpec(grid, tuple(np.flatnonzero(labels == u)
                                     for u in np.unique(labels)))
