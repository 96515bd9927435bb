"""Ulam discretization of (open) transfer operators.

M[j, i] = lambda(C_i intersect F^-1 C_j) / lambda(C_i), assembled by
exact interval overlap in 1D (branch inverses are closed-form).  In 2D
the integer matrix moves every cell image by whole cells, so the image
of one cell is clipped against the grid once and the resulting stencil
is tiled over all columns.  Closed-map columns sum to 1 up to float
rounding only.  Open operators have empty rows at hole cells, with hole
membership sampled at cell centers.  A 1D operator, closed or open, is
written straight into its CSR arrays with no closed parent.  A 2D open
operator, and any open operator whose closed parent is cached, is the
closed one with its hole rows filtered out of the CSR arrays.  Either
way closed rows list their columns in ascending order and open rows in
descending order, and matvec sums run in that order.
`OperatorCache.get_many` assembles a schedule's distinct missing
operators together: on a grid of at least POOL_MIN_CELLS = 2^14 cells,
with two or more of them and two or more usable CPUs, on a thread pool
(assembly runs mostly in numpy and scipy calls that release the GIL),
otherwise inline.  `push` moves one density or a block of them through
a schedule, one sparse matmat per step.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from .errors import ConfigError, TotalEscapeError
from .maps import MapSpec
from .phase import Grid

MASS_FLOOR = 1e-15  # below this, a density is treated as fully escaped


# ---------------------------------------------------------------------------
# densities

@dataclass
class GridDensity:
    """Piecewise-constant density: values are density heights per cell,
    so the mass is the mean value (cells have measure 1/total)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.total_cells,):
            raise ConfigError("values must have one entry per grid cell")
        self.values = v

    @property
    def mass(self) -> float:
        return float(self.values.mean())

    @staticmethod
    def uniform(grid: Grid) -> "GridDensity":
        return GridDensity(grid, np.ones(grid.total_cells))

    @staticmethod
    def from_function(grid: Grid, fn) -> "GridDensity":
        return GridDensity(grid, np.asarray(fn(grid.centers()), dtype=float))


def normalize(phi: GridDensity) -> GridDensity:
    """Rescale to unit mass; TotalEscapeError at or below MASS_FLOOR."""
    m = phi.mass
    if m <= MASS_FLOOR:
        raise TotalEscapeError(f"cannot normalize: mass {m:.3g} at or below floor")
    return GridDensity(phi.grid, phi.values / m)


def l1_distance(phi: GridDensity, psi: GridDensity) -> float:
    if phi.grid != psi.grid:
        raise ConfigError("densities live on different grids")
    return float(np.abs(phi.values - psi.values).mean())


def escape_mass(phi_sequence) -> list:
    """Per-step escaped mass from a density trajectory [phi_0, ..., phi_m]
    (pass the start density followed by the evolve output)."""
    masses = [d.mass for d in phi_sequence]
    return [masses[k] - masses[k + 1] for k in range(len(masses) - 1)]


# ---------------------------------------------------------------------------
# operators

@dataclass
class UlamOperator:
    grid: Grid
    matrix: sparse.csr_matrix
    hole_mask: np.ndarray | None = None   # rows zeroed (open operator)

    def column_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    def column_sum_error(self) -> float:
        """Max deviation of column sums from 1 (closed operators only;
        open column sums measure per-cell survival, not assembly error)."""
        if self.hole_mask is not None:
            raise ConfigError("column sums of an open operator measure survival")
        return float(np.abs(self.column_sums() - 1.0).max())


# ---------------------------------------------------------------------------
# 1D assembly by exact interval overlap, written straight into CSR arrays

def _image_rows(branch, n: int) -> tuple:
    """(y0, y1, k0, k1, increasing): the unwrapped image [y0, y1] of the
    branch meets the grid rows k0..k1-1, taken mod n."""
    ya, yb = float(branch.value(branch.lo)), float(branch.value(branch.hi))
    increasing = ya <= yb
    y0, y1 = (ya, yb) if increasing else (yb, ya)
    return y0, y1, int(math.floor(y0 * n)), int(math.ceil(y1 * n)), increasing


def _branch_slices(branch, n: int, image: tuple, i0, keep, main, spill,
                   spilled) -> None:
    """Fill the slice table of one monotone branch, one slice per row.

    Grid-edge preimages are computed with the closed-form inverse; each
    preimage slice is shorter than a cell (backward contraction), so it
    meets at most two source cells.  Slice j lies in target row
    (k0 + j) mod n; it puts `main[j]` into source cell `i0[j]` and, where
    `spill[j]`, `spilled[j]` into cell i0[j] + 1.  A slice of zero width
    (`keep[j]` false) has no entry.
    """
    d0, d1 = branch.lo, branch.hi
    y0, y1, k0, k1, increasing = image
    Y = np.arange(k0, k1 + 1, dtype=float)
    Y *= 1.0 / n
    Y[0], Y[-1] = y0, y1
    X = np.asarray(branch.inverse(Y), dtype=float)
    np.clip(X, d0, d1, out=X)
    # the image ends pull back to the domain ends exactly, so adjacent
    # branches tile their shared cell with no round-trip gap
    X[0], X[-1] = (d0, d1) if increasing else (d1, d0)
    # in cell units every piece is a difference of nearby coordinates,
    # exact in floating point, so the pieces of a column sum to one cell
    X *= n
    Xl = np.minimum(X[:-1], X[1:])
    Xr = np.maximum(X[:-1], X[1:], out=Y[:-1])
    np.greater(Xr, Xl, out=keep)
    # slice [Xl, Xr] covers source cell i0 up to the split, the rest
    # spills into cell i0 + 1 (never past the last cell, as Xr <= n)
    cell = np.add(Xl, 1e-15, out=X[:-1])
    np.floor(cell, out=cell)
    np.minimum(cell, n - 1, out=cell)   # Xl >= 0: only the top needs a clip
    i0[:] = cell
    split = np.add(cell, 1.0, out=main)
    np.minimum(Xr, split, out=split)
    np.greater(Xr, split, out=spill)
    np.subtract(Xr, split, out=spilled)
    split -= Xl


def _row_runs(k0: int, lo: int, hi: int, n: int) -> list:
    """(j0, j1, r0) for each run of table slots j0..j1-1, out of a branch's
    slots lo..hi-1 (slot lo holds the slice in row k0 mod n), whose
    target rows are the consecutive rows r0..r0 + j1 - j0 - 1."""
    runs, j = [], lo
    while j < hi:
        r0 = (k0 + j - lo) % n
        j1 = min(hi, j + n - r0)
        runs.append((j, j1, r0))
        j = j1
    return runs


def _build_1d(mapspec: MapSpec, grid: Grid,
              mask: np.ndarray | None = None) -> sparse.csr_matrix:
    """The Ulam matrix written straight into its CSR arrays; with a hole
    mask, the open matrix, whose hole rows are empty.

    Branch domains tile [0, 1) in order and share their endpoints, so
    along a row the columns never decrease from one branch to the next,
    and within a branch they rise with the slice index when the branch
    increases and fall when it decreases.  A first pass visits each
    branch's runs of rows in that column order and ranks every piece
    among the distinct columns of its row: a piece in the column its row
    received last shares that slot.  Row counts and ranks are slice
    arithmetic on the runs.  The counts give indptr; a second pass puts
    each piece at its row start plus its rank, so closed rows ascend, or
    at its row end minus its rank, so open rows descend.  Pieces that
    share a slot are summed in assembly order: branch by branch, a
    branch's main pieces before its spills, each in slice order.
    Zero-width slices and hole rows write to a dump slot past nnz.

    The slices of all branches share one table, so a build allocates a
    few large arrays rather than a set per branch.
    """
    n = grid.n
    images = [_image_rows(b, n) for b in mapspec.branches]
    bounds = np.cumsum([0] + [k1 - k0 for _, _, k0, k1, _ in images])
    total = int(bounds[-1])
    # the index type scipy keeps (at most two pieces per slice), so no
    # index array is copied
    index_dtype = np.int32 if 2 * max(total, n) <= np.iinfo(np.int32).max \
        else np.int64
    i0 = np.empty(total, dtype=index_dtype)
    keep, spill, merged = np.empty((3, total), dtype=bool)
    main, spilled = np.empty((2, total))
    # each piece's rank in its row, then its slot; intp, which numpy
    # indexes fastest
    at = np.empty(total, dtype=np.intp)
    count = np.zeros(n, dtype=index_dtype)
    last = np.full(n, -1, dtype=index_dtype)        # column written last
    parts, runs = [], []
    for b, image, lo, hi in zip(mapspec.branches, images, bounds, bounds[1:]):
        part = slice(lo, hi)
        _branch_slices(b, n, image, i0[part], keep[part], main[part],
                       spill[part], spilled[part])
        _, _, k0, _, increasing = image
        branch_runs = _row_runs(k0, lo, hi, n)
        parts.append(part)
        runs += branch_runs
        for j0, j1, r0 in branch_runs if increasing else branch_runs[::-1]:
            j, r = slice(j0, j1), slice(r0, r0 + j1 - j0)
            cnt = count[r]
            shared = np.equal(last[r], i0[j], out=merged[j])
            shared &= keep[j]
            np.subtract(cnt, shared, out=at[j])
            cnt += keep[j]
            cnt -= shared
            cnt += spill[j]
            np.copyto(last[r], i0[j] + spill[j], where=keep[j])
    if mask is not None:
        count[mask] = 0
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(count, out=indptr[1:])
    nnz = int(indptr[-1])
    dead = ~keep
    for j0, j1, r0 in runs:
        j, r = slice(j0, j1), slice(r0, r0 + j1 - j0)
        if mask is None:
            at[j] += indptr[r]
        else:
            np.subtract(indptr[r0 + 1:r0 + 1 + j1 - j0], at[j], out=at[j])
            dead[j] |= mask[r]
    if mask is None:
        to_spill = at + 1
    else:
        at -= 1
        to_spill = at - 1
    np.copyto(to_spill, nnz, where=dead | ~spill)
    np.copyto(at, nnz, where=dead)
    indices = np.empty(nnz + 1, dtype=index_dtype)
    indices[at] = i0
    i0 += 1
    indices[to_spill] = i0
    data = np.empty(nnz + 1)
    data[at] = main
    data[to_spill] = spilled
    if merged.any():
        # a slot that several pieces share holds the last one written:
        # sum its pieces again, in assembly order (np.add.at adds in
        # array order)
        multi = np.zeros(nnz + 1, dtype=bool)
        multi[at[merged]] = True
        multi[nnz] = False
        slots, pieces = [], []
        for part in parts:
            for where, value in ((at[part], main[part]),
                                 (to_spill[part], spilled[part])):
                pick = multi[where]
                slots.append(where[pick])
                pieces.append(value[pick])
        slots = np.concatenate(slots)
        data[slots] = 0.0
        np.add.at(data, slots, np.concatenate(pieces))
    return sparse.csr_matrix((data[:nnz], indices[:nnz], indptr),
                             shape=(n, n))


# ---------------------------------------------------------------------------
# 2D assembly by one clipped cell image, tiled

def _clip_axis(poly, axis: int, val: float, keep_le: bool):
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        pin = (p[axis] <= val) if keep_le else (p[axis] >= val)
        qin = (q[axis] <= val) if keep_le else (q[axis] >= val)
        if pin:
            out.append(p)
        if pin != qin:
            t = (val - p[axis]) / (q[axis] - p[axis])
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _clip_cell(poly, gx: int, gy: int):
    for axis, g in ((0, gx), (1, gy)):
        poly = _clip_axis(_clip_axis(poly, axis, g, False), axis, g + 1, True)
    return poly


def _poly_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    x = np.array([p[0] for p in poly])
    y = np.array([p[1] for p in poly])
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _stencil(A: np.ndarray, frac: np.ndarray):
    """Grid-cell overlaps of the image of the unit cell under x -> A x + frac,
    in cell units: (dx, dy, weight) with weights summing to 1."""
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
    P = corners @ A.T + frac
    poly = [tuple(p) for p in P]
    exact = [tuple(int(v) + Fraction(f) for v, f in zip(c, frac))
             for c in corners @ A.astype(np.int64).T]
    lo = np.floor(P.min(axis=0)).astype(int)
    hi = np.ceil(P.max(axis=0)).astype(int)
    det = abs(float(np.linalg.det(A)))
    dx, dy, w = [], [], []
    for gx in range(lo[0], hi[0]):
        px = _clip_axis(_clip_axis(poly, 0, gx, False), 0, gx + 1, True)
        for gy in range(lo[1], hi[1]):
            py = _clip_axis(_clip_axis(px, 1, gy, False), 1, gy + 1, True)
            area = _poly_area(py)
            if 0.0 < area <= 1e-14:
                # clipping noise or a true sliver along a grid line: only
                # exact rationals tell them apart
                area = _poly_area(_clip_cell(exact, gx, gy))
            if area > 0.0:
                dx.append(gx)
                dy.append(gy)
                w.append(area / det)
    return np.array(dx), np.array(dy), np.array(w)


def _build_2d(mapspec: MapSpec, grid: Grid) -> sparse.csr_matrix:
    """A is an integer matrix, so the image of cell (ix, iy) is the image
    of cell (0, 0) shifted by the whole cells A (ix, iy) + floor(n b): one
    stencil, clipped in cell units near the origin, fills every column."""
    n = grid.n
    A = np.rint(np.asarray(mapspec.matrix, dtype=float))
    shift = n * np.asarray(mapspec.offset, dtype=float)
    whole = np.floor(shift)
    dx, dy, w = _stencil(A, shift - whole)
    cols = np.arange(n * n, dtype=np.int64)
    sx, sy = A.astype(np.int64) @ np.vstack(np.divmod(cols, n)) \
        + whole.astype(np.int64)[:, None]
    rows = ((sx[:, None] + dx) % n) * n + (sy[:, None] + dy) % n
    return sparse.coo_matrix(
        (np.tile(w, n * n), (rows.ravel(), np.repeat(cols, w.size))),
        shape=(n * n, n * n)).tocsr()


# ---------------------------------------------------------------------------
# public assembly

def build_closed(mapspec: MapSpec, grid: Grid) -> UlamOperator:
    """Ulam matrix of the closed map on the given grid: exact interval
    overlaps in 1D; in 2D one cell image clipped once and tiled."""
    if mapspec.dimension != grid.dimension:
        raise ConfigError("map and grid dimensions differ")
    if mapspec.dimension == 1:
        M = _build_1d(mapspec, grid)
    else:
        M = _build_2d(mapspec, grid)
    return UlamOperator(grid, M)


def build_open(mapspec: MapSpec, hole, grid: Grid) -> UlamOperator:
    """Open operator: closed matrix with hole-cell rows zeroed.

    Hole membership is sampled at cell centers, matching the survivor
    indicator convention.  A 1D open matrix is written directly, with no
    closed parent; a 2D one drops the hole rows of the closed matrix.
    """
    if hole is None or grid.dimension != 1:
        return _open(build_closed(mapspec, grid), hole)
    if mapspec.dimension != 1:
        raise ConfigError("map and grid dimensions differ")
    mask = _hole_rows(hole, grid)
    return UlamOperator(grid, _build_1d(mapspec, grid, mask), mask)


def _hole_rows(hole, grid: Grid) -> np.ndarray:
    """The cells whose center lies in the hole, for both open paths."""
    if hole.dimension != grid.dimension:
        raise ConfigError("hole and grid dimensions differ")
    return hole.contains(grid.centers())


def _open(closed: UlamOperator, hole) -> UlamOperator:
    """The closed operator with the rows of hole cells emptied, built
    from the closed CSR arrays: each open row is its closed row read
    last to first, with one gather.

    Open rows list their columns in descending order, as a direct 1D
    write leaves them, so an operator is the same bytes whether it was
    written directly or opened from a cached closed parent, and its
    matvec sums run in the same order.  Every stored entry of an open row
    is kept: closed operators store no zeros (every 1D piece and every
    2D stencil weight is positive), so this equals the product of the
    closed matrix with the 0/1 diagonal of open rows.
    """
    if hole is None:
        return closed
    grid, M = closed.grid, closed.matrix
    mask = _hole_rows(hole, grid)
    counts = np.diff(M.indptr)
    counts[mask] = 0
    indptr = np.zeros_like(M.indptr)
    np.cumsum(counts, out=indptr[1:])
    # position p of open row i, which starts at indptr[i], reads closed
    # slot M.indptr[i + 1] - 1 - (p - indptr[i])
    src = np.repeat(np.add(M.indptr[1:], indptr[:-1], dtype=np.intp) - 1,
                    counts)
    src -= np.arange(src.size)
    return UlamOperator(grid, sparse.csr_matrix(
        (M.data[src], M.indices[src], indptr), shape=M.shape), mask)


# Below this many cells a pool saves nothing.  On a 2-vCPU VM, 40 open
# 1D builds (slopes_2_to_3 maps, 1% holes, written directly at ~7 ms a
# build on 32,768 cells) on two threads ran 0.59-0.66x as fast as inline
# at 4,096 cells, 0.88-1.11x at 8,192, 1.30-1.46x at 16,384, 1.79-1.84x
# at 32,768 and 1.92-2.21x at 65,536 (three runs each); 2D builds ran
# 0.97x at 16,384 cells and 1.66x at 65,536.
POOL_MIN_CELLS = 2 ** 14


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        return os.cpu_count() or 1


def _assemble(builds: list, grid: Grid) -> list:
    """Results of the zero-argument `builds`, in order.

    Sparse assembly spends most of its time in numpy and scipy calls that
    release the GIL, so on a grid of at least POOL_MIN_CELLS cells, with
    two or more builds and CPUs, the builds overlap on a thread pool with
    one worker per usable CPU.  Otherwise they run inline.  Either way the
    first build in order that raises propagates its exception."""
    workers = min(_usable_cpus(), len(builds))
    if workers < 2 or grid.total_cells < POOL_MIN_CELLS:
        return [build() for build in builds]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(build) for build in builds]
    return [f.result() for f in futures]


class OperatorCache:
    """Content-addressed cache so repeated schedule steps assemble once.

    Holes are frozen dataclasses, so they key by value.  An open operator
    whose closed operator is already stored is opened from it (`_open`)
    instead of reassembled.  Closed operators are stored only when asked
    for, so a long open schedule does not keep the closed parent of every
    step."""

    def __init__(self):
        self._store = {}

    def __len__(self) -> int:
        return len(self._store)

    @staticmethod
    def _key(mapspec: MapSpec, hole, grid: Grid) -> tuple:
        return (mapspec.content_key(), grid.dimension, grid.n, hole)

    def get(self, mapspec: MapSpec, hole, grid: Grid) -> UlamOperator:
        return self.get_many([(mapspec, hole)], grid)[0]

    def get_many(self, steps, grid: Grid) -> list:
        """The operator of every (map, hole) step, in order.  The distinct
        missing pairs are assembled together (`_assemble`) and stored in
        schedule order; an open one whose closed parent was stored before
        the call is opened from it."""
        keys = [self._key(mapspec, hole, grid) for mapspec, hole in steps]
        missing = {}
        for key, step in zip(keys, steps):
            if key not in self._store:
                missing.setdefault(key, step)
        built = _assemble([functools.partial(self._build, mapspec, hole, grid)
                           for mapspec, hole in missing.values()], grid)
        self._store.update(zip(missing, built))
        return [self._store[key] for key in keys]

    def _build(self, mapspec: MapSpec, hole, grid: Grid) -> UlamOperator:
        closed = self._store.get(self._key(mapspec, None, grid))
        return build_open(mapspec, hole, grid) if closed is None \
            else _open(closed, hole)


# ---------------------------------------------------------------------------
# evolution

def push(operators, V: np.ndarray, grid: Grid):
    """Yield M_1 V, M_2 M_1 V, ... for one density V of shape (cells,) or
    a block of them, one per column, shape (cells, k): one sparse matmat
    per step, each column bit for bit its own matvec.  A yielded block
    may be rescaled in place; the next step pushes what it holds."""
    for op in operators:
        if op.grid != grid:
            raise ConfigError("density grid does not match operator grid")
        V = op.matrix @ V
        yield V


def evolve(map_seq, hole_seq, phi0: GridDensity, m: int,
           cache: "OperatorCache | None" = None) -> list:
    """Unnormalized open evolution: [phi_1, ..., phi_m] with
    phi_k = (open operator of step k) phi_{k-1}.  Masses are nonincreasing."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    if len(map_seq) < m or (hole_seq is not None and len(hole_seq) < m):
        raise ConfigError("schedules shorter than requested horizon")
    grid = phi0.grid
    ops = schedule_operators(map_seq, hole_seq, m, grid, cache)
    return [GridDensity(grid, v) for v in push(ops, phi0.values, grid)]


def schedule_operators(map_seq, hole_seq, m: int, grid: Grid,
                       cache: OperatorCache | None = None) -> list:
    """Per-step open operators for steps 1..m."""
    cache = cache if cache is not None else OperatorCache()
    return cache.get_many(
        [(map_seq.at(i), hole_seq.at(i) if hole_seq is not None else None)
         for i in range(1, m + 1)], grid)
