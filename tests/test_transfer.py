import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from opendyn.errors import ConfigError, TotalEscapeError
from opendyn.holes import HoleSequence, disk_hole, interval_hole, rect_hole
from opendyn.maps import (MapSequence, affine_map, beta_map, doubling_map,
                          full_branch_map, matrix_map, quadratic_full_branch,
                          tripling_map)
from opendyn.mixing import perturb_offsets
from opendyn.phase import Grid
from opendyn import transfer
from opendyn.transfer import (GridDensity, OperatorCache, build_closed,
                              build_open, escape_mass, evolve, l1_distance,
                              normalize, push, schedule_operators)


def random_expanding_map(rng):
    """2-4 affine branches, slopes in [2,4], images that fit in the circle.

    slope >= 2 with an injective branch forces length <= 1/2, so the
    2-branch case pins the cut at 1/2 and the slopes at exactly 2.
    """
    nb = int(rng.integers(2, 5))
    if nb == 2:
        cuts = np.array([0.5])
        slopes = np.array([2.0, 2.0])
    else:
        while True:
            lengths = rng.uniform(1.0, 2.0, nb)
            lengths /= lengths.sum()
            if lengths.max() <= 0.5 and lengths.min() >= 0.12:
                break
        cuts = np.cumsum(lengths)[:-1]
        slopes = np.array([rng.uniform(2.0, min(4.0, 1.0 / L))
                           for L in lengths])
    lo = np.r_[0.0, cuts]
    offsets = rng.uniform(0.0, 1.0, nb) - slopes * lo
    return affine_map(list(cuts), list(slopes), list(offsets))


def test_doubling_columns_exact():
    g = Grid(1, 4096)
    op = build_closed(doubling_map(), g)
    assert op.column_sum_error() == 0.0
    # cell 0 maps onto [0, 2/n): mass splits evenly over cells 0 and 1
    col = op.matrix.getcol(0).toarray().ravel()
    assert abs(col[0] - 0.5) < 1e-15 and abs(col[1] - 0.5) < 1e-15
    assert col[2:].max() == 0.0


def test_doubling_preserves_uniform():
    g = Grid(1, 1024)
    op = build_closed(doubling_map(), g)
    u = GridDensity.uniform(g)
    v = op.matrix @ u.values
    assert np.max(np.abs(v - 1.0)) < 1e-12


def test_tripling_and_fullbranch_columns_exact():
    g = Grid(1, 3 ** 7)   # 2187 cells, 3-adic aligned
    op = build_closed(tripling_map(), g)
    assert op.column_sum_error() < 1e-12
    g2 = Grid(1, 4096)
    op2 = build_closed(full_branch_map([0.5, 0.75]), g2)
    assert op2.column_sum_error() < 1e-12


def test_random_affine_columns_stochastic():
    rng = np.random.default_rng(42)
    g = Grid(1, 1024)
    for _ in range(10):
        m = random_expanding_map(rng)
        op = build_closed(m, g)
        assert op.column_sum_error() <= 1e-10


def test_quadratic_columns_stochastic():
    g = Grid(1, 2048)
    op = build_closed(quadratic_full_branch(0.1, 0.5), g)
    assert op.column_sum_error() <= 1e-10


def test_open_columns_bounded():
    rng = np.random.default_rng(7)
    g = Grid(1, 1024)
    hole = interval_hole(0.2, 0.35)
    for _ in range(5):
        op = build_open(random_expanding_map(rng), hole, g)
        colsums = op.column_sums()
        assert colsums.max() <= 1.0 + 1e-12
    with pytest.raises(ConfigError):
        op.column_sum_error()   # survival, not stochasticity


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["affine", "quadratic"]),
       eps=st.floats(-0.8, 0.8), cut=st.floats(0.35, 0.65),
       n=st.integers(2, 4096), seed=st.integers(0, 2 ** 32 - 1),
       holes=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.floats(0.001, 0.3)),
                      min_size=1, max_size=4))
# a quadratic branch with a zero x^2 coefficient is affine
@example(kind="quadratic", eps=0.0, cut=0.5, n=1024, seed=0,
         holes=[(0.3, 0.1)])
def test_1d_transfer_conserves_or_loses_mass(kind, eps, cut, n, seed, holes):
    # one random map per step: random affine maps, or offset jitters of one
    # quadratic map; one interval hole per step, possibly wrapping
    rng = np.random.default_rng(seed)
    g = Grid(1, n)
    if kind == "affine":
        maps = [random_expanding_map(rng) for _ in holes]
    else:
        base = quadratic_full_branch(eps, cut)
        maps = [perturb_offsets(base, 0.1, rng) for _ in holes]
    ops = []
    for m, (lo, w) in zip(maps, holes):
        assert build_closed(m, g).column_sum_error() <= 1e-13
        op = build_open(m, interval_hole(lo, (lo + w) % 1.0), g)
        assert op.column_sums().max() <= 1.0 + 1e-13
        ops.append(op)
    phi = GridDensity(g, rng.uniform(0.1, 2.0, n))
    masses = [phi.mass] + [float(v.mean()) for v in push(ops, phi.values, g)]
    assert all(b <= a * (1.0 + 1e-13) for a, b in zip(masses, masses[1:]))


def _random_open_operator(rng, grid):
    """An open operator on the grid: a random expanding affine map (1D) or
    integer torus map (2D), with one random interval or rectangle hole."""
    lo, w = rng.uniform(0.0, 1.0, 2), rng.uniform(0.001, 0.3, 2)
    hi = (lo + w) % 1.0
    if grid.dimension == 1:
        return build_open(random_expanding_map(rng),
                          interval_hole(lo[0], hi[0]), grid)
    while True:
        a, b, c, d = rng.integers(-3, 4, 4)
        if abs(a * d - b * c) >= 2:
            break
    m = matrix_map([[a, b], [c, d]], rng.uniform(-1.0, 2.0, 2),
                   check_expanding=False)
    return build_open(m, rect_hole(lo[0], hi[0], lo[1], hi[1]), grid)


@settings(max_examples=40, deadline=None)
@given(dimension=st.sampled_from([1, 2]), steps=st.integers(1, 4),
       k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_block_push_matches_per_column_matvec(dimension, steps, k, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 1025)) if dimension == 1 \
        else int(rng.choice([4, 8, 16]))
    g = Grid(dimension, n)
    ops = [_random_open_operator(rng, g) for _ in range(steps)]
    V = rng.uniform(0.0, 2.0, (g.total_cells, k))
    cols = list(V.T.copy())
    blocks = list(push(ops, V, g))
    assert len(blocks) == steps
    for op, block in zip(ops, blocks):
        cols = [op.matrix @ v for v in cols]
        assert block.shape == (g.total_cells, k)
        assert all(np.array_equal(block[:, j], v) for j, v in enumerate(cols))
    # one density is pushed as a vector, with the same bits
    for v, block in zip(push(ops, V[:, 0].copy(), g), blocks):
        assert v.shape == (g.total_cells,)
        assert np.array_equal(v, block[:, 0])


def test_push_rejects_other_grid():
    g = Grid(1, 64)
    ops = [build_closed(doubling_map(), Grid(1, 32))]
    with pytest.raises(ConfigError):
        next(push(ops, np.ones(64), g))


def test_open_rows_zeroed_on_hole():
    g = Grid(1, 256)
    hole = interval_hole(0.25, 0.5)
    op = build_open(doubling_map(), hole, g)
    inside = hole.contains(g.centers())
    rows = np.abs(op.matrix).sum(axis=1).A.ravel() if hasattr(
        np.abs(op.matrix).sum(axis=1), "A") else \
        np.asarray(np.abs(op.matrix).sum(axis=1)).ravel()
    assert np.all(rows[inside] == 0.0)


def _reference_2d(mapspec, grid):
    """Per-cell clipping in torus coordinates: the image polygon of every
    cell is clipped against the grid on its own."""
    n, h = grid.n, grid.spacing
    A = np.asarray(mapspec.matrix, dtype=float)
    b = np.asarray(mapspec.offset, dtype=float)
    det = abs(float(np.linalg.det(A)))
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) * h
    M = np.zeros((n * n, n * n))
    for ix in range(n):
        for iy in range(n):
            P = unit @ A.T + A @ np.array([ix * h, iy * h]) + b
            poly = [tuple(p) for p in P]
            lo = np.floor(P.min(axis=0) * n).astype(int)
            hi = np.ceil(P.max(axis=0) * n).astype(int)
            for gx in range(lo[0], hi[0]):
                px = transfer._clip_axis(poly, 0, gx * h, False)
                px = transfer._clip_axis(px, 0, (gx + 1) * h, True)
                for gy in range(lo[1], hi[1]):
                    py = transfer._clip_axis(px, 1, gy * h, False)
                    py = transfer._clip_axis(py, 1, (gy + 1) * h, True)
                    M[(gx % n) * n + gy % n, ix * n + iy] += \
                        transfer._poly_area(py) / (det * h * h)
    return M


@settings(max_examples=30, deadline=None)
@given(entries=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       offset=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
       n=st.sampled_from([4, 8]))
def test_2d_stencil_matches_per_cell_clipping(entries, offset, n):
    a, b, c, d = entries
    assume(abs(a * d - b * c) >= 2)
    m = matrix_map([[a, b], [c, d]], offset, check_expanding=False)
    g = Grid(2, n)
    M = build_closed(m, g).matrix.toarray()
    assert np.abs(M - _reference_2d(m, g)).max() <= 1e-12


def _exact_axis(a, off, n):
    """1D Ulam matrix of x -> a*x + off mod 1 from rational cell overlaps."""
    M = np.zeros((n, n))
    shift = Fraction(off) * n
    for i in range(n):
        lo, hi = sorted((a * i + shift, a * (i + 1) + shift))
        for g in range(int(np.floor(lo)), int(np.ceil(hi))):
            M[g % n, i] += float((min(hi, g + 1) - max(lo, g)) / abs(a))
    return M


def _axis_operator(a, off, n):
    """build_closed of x -> a*x + off mod 1 split into |a| branches."""
    k = abs(a)
    m = affine_map([j / k for j in range(1, k)], [float(a)] * k,
                   [float(off)] * k, check_expanding=False)
    return build_closed(m, Grid(1, n)).matrix


@settings(max_examples=30, deadline=None)
@given(diag=st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                      st.sampled_from([-3, -2, -1, 1, 2, 3])),
       offset=st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                        st.floats(0.0, 1.0, exclude_max=True)),
       n=st.sampled_from([4, 8, 16]))
# n * offset within 1e-14 of a grid line leaves a sliver of true weight
@example(diag=(-3, -1), offset=(0.0, 2.220446049250313e-16), n=16)
def test_2d_diagonal_is_product_of_axes(diag, offset, n):
    a, d = diag
    assume(abs(a * d) >= 2)
    M = build_closed(matrix_map([[a, 0], [0, d]], offset,
                                check_expanding=False), Grid(2, n)).matrix
    exact = np.kron(_exact_axis(a, offset[0], n), _exact_axis(d, offset[1], n))
    assert np.abs(M.toarray() - exact).max() <= 1e-15
    # the 1D builder rounds its grid-edge preimages at the 1e-15 level
    kron = sparse.kron(_axis_operator(a, offset[0], n),
                       _axis_operator(d, offset[1], n))
    assert abs(M - kron).max() <= 1e-14


def test_2d_diagonal_exact():
    g = Grid(2, 32)
    op = build_closed(matrix_map([[2, 0], [0, 3]]), g)
    assert op.column_sum_error() < 1e-12
    u = GridDensity.uniform(g)
    assert np.max(np.abs(op.matrix @ u.values - 1.0)) < 1e-12


def test_2d_general_matrix_stochastic():
    # integer-matrix maps preserve Lebesgue measure, so the Ulam matrix
    # is doubly stochastic
    g = Grid(2, 128)
    for m in (matrix_map([[3, 1], [1, 2]], (0.1, 0.2)),
              matrix_map([[2, 1], [1, 1]], check_expanding=False)):
        M = build_closed(m, g).matrix
        for axis in (0, 1):
            assert np.abs(np.asarray(M.sum(axis=axis)) - 1.0).max() <= 1e-13


def test_evolve_escape_oracle():
    g = Grid(1, 4096)
    m = 8
    seq = MapSequence.constant(doubling_map(), m)
    holes = HoleSequence.static(interval_hole(0.0, 0.5), m)
    phi0 = GridDensity.uniform(g)
    traj = evolve(seq, holes, phi0, m)
    assert len(traj) == m
    es = escape_mass([phi0] + traj)
    for k in range(1, m + 1):
        assert abs(es[k - 1] - 2.0 ** (-k)) < 1e-12


def test_escape_everything_first_step():
    g = Grid(1, 256)
    seq = MapSequence.constant(doubling_map(), 3)
    wide = interval_hole(1e-12, 1.0 - 1e-12)       # all cell centers inside
    holes = HoleSequence((wide, None, None))
    phi0 = GridDensity.uniform(g)
    traj = evolve(seq, holes, phi0, 3)
    es = escape_mass([phi0] + traj)
    assert abs(es[0] - 1.0) < 1e-12
    assert abs(es[1]) < 1e-12 and abs(es[2]) < 1e-12
    with pytest.raises(TotalEscapeError):
        normalize(traj[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "minus_inf"])
def test_normalize_refuses_non_finite_mass(bad):
    # a NaN or infinite cell is malformed input, not escaped mass: no NaN
    # density, no RuntimeWarning, no TotalEscapeError
    values = np.ones(64)
    values[5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="not finite"):
            normalize(GridDensity(Grid(1, 64), values))


def test_closed_run_conserves_mass():
    g = Grid(1, 512)
    seq = MapSequence.constant(full_branch_map([0.4]), 6)
    holes = HoleSequence.closed(6)
    phi0 = GridDensity.from_function(g, lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x))
    traj = evolve(seq, holes, phi0, 6)
    es = escape_mass([phi0] + traj)
    assert np.max(np.abs(es)) < 1e-12


def test_l1_distance_convention():
    g = Grid(1, 512)
    phi = GridDensity.uniform(g)
    psi = GridDensity.from_function(g, lambda x: 2.0 * (x < 0.5))
    assert abs(phi.mass - 1.0) < 1e-15
    assert abs(psi.mass - 1.0) < 1e-15
    assert abs(l1_distance(phi, psi) - 1.0) < 1e-15


def test_cache_collapses_identical_steps():
    g = Grid(1, 256)
    cache = OperatorCache()
    seq = MapSequence.constant(doubling_map(), 6)
    holes = HoleSequence.static(interval_hole(0.1, 0.12), 6)
    evolve(seq, holes, GridDensity.uniform(g), 6, cache=cache)
    assert len(cache) == 1
    # different hole -> new entry
    holes2 = HoleSequence.static(interval_hole(0.3, 0.32), 6)
    evolve(seq, holes2, GridDensity.uniform(g), 6, cache=cache)
    assert len(cache) == 2


def _reference_1d(mapspec, n):
    """COO assembly of the 1D Ulam matrix, converted and summed by scipy,
    in which each preimage slice takes its row from its midpoint, as the
    row formula did before rows became slice indices, but with the
    midpoint in exact rational arithmetic: a slice a few ulps wide at an
    image end (a quadratic branch whose image starts at -1.1e-16) has a
    float midpoint that rounds onto the cell edge or across 1.0."""
    rows, cols, vals = [], [], []
    for b in mapspec.branches:
        d0, d1 = b.lo, b.hi
        ya, yb = float(b.value(d0)), float(b.value(d1))
        inc = ya <= yb
        y0, y1 = (ya, yb) if inc else (yb, ya)
        k0, k1 = int(math.floor(y0 * n)), int(math.ceil(y1 * n))
        Y = np.arange(k0, k1 + 1) * (1.0 / n)
        Y[0], Y[-1] = y0, y1
        X = np.clip(np.asarray(b.inverse(Y), dtype=float), d0, d1)
        X[0], X[-1] = (d0, d1) if inc else (d1, d0)
        X *= n
        tgt = np.array([math.floor((Fraction(p) + Fraction(q)) * n / 2) % n
                        for p, q in zip(Y[:-1], Y[1:])], dtype=np.int64)
        Xl, Xr = np.minimum(X[:-1], X[1:]), np.maximum(X[:-1], X[1:])
        keep = Xr > Xl
        Xl, Xr, tgt = Xl[keep], Xr[keep], tgt[keep]
        i0 = np.clip(np.floor(Xl + 1e-15).astype(np.int64), 0, n - 1)
        split = np.minimum(Xr, i0 + 1.0)
        spill = Xr > split
        rows += [tgt, tgt[spill]]
        cols += [i0, np.clip(i0[spill] + 1, 0, n - 1)]
        vals += [split - Xl, Xr[spill] - split[spill]]
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()


def _map_1d(kind, eps, cut, beta, seed):
    rng = np.random.default_rng(seed)
    if kind == "affine":
        m = random_expanding_map(rng)
    elif kind == "quadratic":
        m = quadratic_full_branch(eps, cut)
    elif kind == "quadratic_jitter":
        m = perturb_offsets(quadratic_full_branch(eps, cut), 0.1, rng)
    else:
        m = beta_map(beta)
    if kind == "beta_reversed":
        # x -> eps - beta x: decreasing branches, full ones wrap a row
        m = affine_map(list(m.cuts), [-beta] * len(m.branches),
                       [eps + k + 1.0 for k in range(len(m.branches))])
    return m


def _same_csr(a, b) -> bool:
    return all(getattr(a, k).tobytes() == getattr(b, k).tobytes()
               for k in ("indptr", "indices", "data"))


def _masked(closed, mask):
    """The reference opening: the closed matrix times the 0/1 diagonal of
    open rows.  scipy's product drops the hole rows and lists each open
    row's columns last to first."""
    return sparse.diags((~mask).astype(float)) @ closed


def _empty_rows(M) -> np.ndarray:
    return np.diff(M.indptr) == 0


def _assert_hole_rows(op, hole, closed):
    """op keeps the hole it was opened with, and its empty rows are the
    hole's cells and the rows the closed matrix leaves empty."""
    assert op.hole is hole
    assert np.array_equal(_empty_rows(op.matrix),
                          hole.cells(op.grid) | _empty_rows(closed))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["affine", "quadratic", "quadratic_jitter",
                             "beta", "beta_reversed"]),
       eps=st.floats(-0.8, 0.8), cut=st.floats(0.35, 0.65),
       beta=st.floats(1.1, 6.0), n=st.integers(2, 4096),
       seed=st.integers(0, 2 ** 32 - 1),
       holes=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.floats(0.0, 0.3)),
                      min_size=1, max_size=3))
# the second branch's image starts at -1.1e-16: its first slice lies in
# the last cell, where a float midpoint wraps to row 0
@example(kind="quadratic", eps=-0.36834125797780753,
         cut=0.44656081732278263, beta=2.0, n=16, seed=0, holes=[(0.3, 0.1)])
# five branches on two cells: entries (0, 0) and (0, 1) each sum three
# pieces
@example(kind="beta", eps=0.0, cut=0.5, beta=4.015, n=2, seed=0,
         holes=[(0.9, 0.05)])
# decreasing branches whose three pieces in one cell sum to other bits
# in any order but assembly order
@example(kind="beta_reversed", eps=0.23550321851880018, cut=0.5,
         beta=4.386059631998789, n=2, seed=0, holes=[(0.9, 0.05)])
# a hole between two cell centres leaves every row open
@example(kind="affine", eps=0.0, cut=0.5, beta=2.0, n=16, seed=3,
         holes=[(0.1, 0.01)])
def test_1d_assembly_matches_midpoint_reference(kind, eps, cut, beta, n,
                                                seed, holes):
    # closed operators equal the reference COO assembly byte for byte;
    # open ones equal its product with the hole mask, which leaves the
    # columns of each open row in descending order
    m = _map_1d(kind, eps, cut, beta, seed)
    g = Grid(1, n)
    ref = _reference_1d(m, n)
    assert _same_csr(build_closed(m, g).matrix, ref)
    for lo, w in holes:
        hole = interval_hole(lo, (lo + w) % 1.0)
        mask = hole.contains(g.centers())
        op = build_open(m, hole, g)
        _assert_hole_rows(op, hole, ref)
        assert _same_csr(op.matrix, _masked(ref, mask))


@settings(max_examples=60, deadline=None)
@given(dimension=st.sampled_from([1, 2]),
       kind=st.sampled_from(["affine", "quadratic", "beta", "beta_reversed"]),
       eps=st.floats(-0.8, 0.8), cut=st.floats(0.35, 0.65),
       beta=st.floats(1.1, 6.0), n1=st.integers(2, 4096),
       matrix=st.sampled_from([((3, 1), (1, 2)), ((3, 0), (0, 3)),
                               ((2, 0), (0, 2))]),
       offset=st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                        st.floats(0.0, 1.0, exclude_max=True)),
       n2=st.integers(4, 64), seed=st.integers(0, 2 ** 32 - 1),
       hole=st.tuples(st.sampled_from(["rect", "disk"]),
                      st.floats(0.0, 1.0, exclude_max=True),
                      st.floats(0.0, 1.0, exclude_max=True),
                      st.floats(0.01, 0.45), st.floats(0.01, 0.45)))
# a rect that wraps both axes
@example(dimension=2, kind="affine", eps=0.0, cut=0.5, beta=2.0, n1=2,
         matrix=((3, 1), (1, 2)), offset=(0.1, 0.2), n2=16, seed=0,
         hole=("rect", 0.8, 0.9, 0.3, 0.2))
# a disk centred on a cell corner
@example(dimension=2, kind="affine", eps=0.0, cut=0.5, beta=2.0, n1=2,
         matrix=((2, 0), (0, 2)), offset=(0.0, 0.0), n2=8, seed=0,
         hole=("disk", 0.5, 0.5, 0.3, 0.01))
# a 1D arc through 0 over decreasing branches (the shape is 2D only)
@example(dimension=1, kind="beta_reversed", eps=0.2, cut=0.5, beta=4.4,
         n1=2, matrix=((2, 0), (0, 2)), offset=(0.0, 0.0), n2=4, seed=0,
         hole=("rect", 0.9, 0.0, 0.2, 0.01))
def test_open_filters_rows_like_masking_product(dimension, kind, eps, cut,
                                                beta, n1, matrix, offset, n2,
                                                seed, hole):
    # opening a closed operator is byte for byte its product with the
    # diagonal of open rows, index and value types included; that holds
    # because closed operators store no zeros
    shape, a, b, w, h = hole
    if dimension == 1:
        m, g = _map_1d(kind, eps, cut, beta, seed), Grid(1, n1)
        spec = interval_hole(a, (a + w) % 1.0)
    else:
        m, g = matrix_map(matrix, offset), Grid(2, n2)
        spec = rect_hole(a, (a + w) % 1.0, b, (b + h) % 1.0) \
            if shape == "rect" else disk_hole(a, b, w)
    closed = build_closed(m, g)
    assert (closed.matrix.data > 0.0).all()
    mask = spec.contains(g.centers())
    op = transfer._open(closed, spec)
    ref = _masked(closed.matrix, mask)
    _assert_hole_rows(op, spec, closed.matrix)
    for key in ("indptr", "indices", "data"):
        got, want = getattr(op.matrix, key), getattr(ref, key)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, lo, hi, cells", [
    # both ends exactly on cell centres: the first is in, the last is out
    (4, 0.125, 0.375, [0]),
    # an arc that wraps through 0
    (8, 0.8, 0.2, [0, 1, 6, 7]),
    # an arc between two centres holds no cell
    (16, 0.1, 0.11, []),
    # an arc that ends at 1.0 keeps its last cell
    (8, 0.8, 1.0, [6, 7]),
], ids=["ends_on_centres", "wrapping", "between_centres", "ends_at_one"])
def test_hole_rows_at_arc_ends(n, lo, hi, cells):
    # the direct 1D write and the opening of a closed parent empty the
    # same rows: the cells whose centre lies in the half-open arc
    g, m, hole = Grid(1, n), doubling_map(), interval_hole(lo, hi)
    want = np.isin(np.arange(n), cells)
    assert np.array_equal(hole.cells(g), want)
    for op in (build_open(m, hole, g),
               transfer._open(build_closed(m, g), hole)):
        assert op.hole is hole
        assert np.array_equal(_empty_rows(op.matrix), want)


def test_hole_rows_refuse_other_dimension():
    with pytest.raises(ConfigError):
        rect_hole(0.1, 0.2, 0.1, 0.2).cells(Grid(1, 16))
    with pytest.raises(ConfigError):
        build_open(doubling_map(), rect_hole(0.1, 0.2, 0.1, 0.2), Grid(1, 16))
    with pytest.raises(ConfigError):
        build_open(matrix_map([[2, 0], [0, 2]]), interval_hole(0.1, 0.2),
                   Grid(2, 8))


def _count_pools(monkeypatch):
    pools = []
    real = transfer.ThreadPoolExecutor

    def counting(workers):
        pools.append(workers)
        return real(workers)

    monkeypatch.setattr(transfer, "ThreadPoolExecutor", counting)
    return pools


def test_pooled_schedule_matches_build_open(monkeypatch):
    # more workers than cores and a short switch interval, so threads
    # interleave inside the builds
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(transfer, "_usable_cpus", lambda: 8)
    g = Grid(1, transfer.POOL_MIN_CELLS)
    rng = np.random.default_rng(5)
    maps = [random_expanding_map(rng) for _ in range(6)]
    holes = [interval_hole(lo, (lo + 0.01) % 1.0) for lo in rng.uniform(0, 1, 6)]
    # one repeated step: the distinct missing pairs are built once
    mseq = MapSequence(tuple(maps) + (maps[2],))
    hseq = HoleSequence(tuple(holes) + (holes[2],))
    cache = OperatorCache()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ops = schedule_operators(mseq, hseq, 7, g, cache)
    finally:
        sys.setswitchinterval(switch)
    assert pools == [6] and len(cache) == 6 and ops[6] is ops[2]
    for m, h, op in zip(mseq.maps, hseq.holes, ops):
        ref = build_open(m, h, g)
        closed = build_closed(m, g).matrix
        masked = _masked(closed, h.contains(g.centers()))
        assert _same_csr(op.matrix, ref.matrix)
        assert _same_csr(op.matrix, masked)
        for built in (op, ref):
            _assert_hole_rows(built, h, closed)
        # open rows keep the descending column order the masking product
        # leaves; matvec sums run in that order
        M = op.matrix
        starts = M.indptr[:-1][np.diff(M.indptr) > 1]
        assert (M.indices[starts] > M.indices[starts + 1]).all()


def test_pooled_2d_openings_of_cached_parent_match_inline(monkeypatch):
    # on 128 x 128 cells, with the closed parent cached, every step is
    # opened from it: on the pool and inline to the same bytes
    g = Grid(2, 128)
    assert g.total_cells >= transfer.POOL_MIN_CELLS
    m = matrix_map([[3, 1], [1, 2]], (0.1, 0.2))
    rng = np.random.default_rng(3)
    steps = [(m, rect_hole(x, (x + 0.05) % 1.0, y, (y + 0.1) % 1.0))
             for x, y in rng.uniform(0.0, 1.0, (4, 2))]
    steps.append((m, disk_hole(0.5, 0.5, 0.1)))
    pools = _count_pools(monkeypatch)
    real, calls = transfer.build_closed, []
    results = []
    for cpus in (2, 1):
        monkeypatch.setattr(transfer, "_usable_cpus", lambda c=cpus: c)
        monkeypatch.setattr(transfer, "build_closed", real)
        cache = OperatorCache()
        closed = cache.get(m, None, g)
        monkeypatch.setattr(transfer, "build_closed",
                            lambda *args: calls.append(args))
        results.append(cache.get_many(steps, g))
    assert pools == [2] and calls == []
    for pooled, inline, (_, hole) in zip(*results, steps):
        assert _same_csr(pooled.matrix, inline.matrix)
        for op in (pooled, inline):
            _assert_hole_rows(op, hole, closed.matrix)
        assert _same_csr(pooled.matrix,
                         _masked(closed.matrix, hole.contains(g.centers())))


@pytest.mark.parametrize("cpus, n, pooled", [
    (1, 2 ** 15, False), (2, 2 ** 14 - 1, False), (2, 2 ** 14, True)])
def test_assembly_pool_gate(monkeypatch, cpus, n, pooled):
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(transfer, "_usable_cpus", lambda: cpus)
    g = Grid(1, n)
    steps = [(doubling_map(), interval_hole(0.1, 0.2)),
             (tripling_map(), interval_hole(0.1, 0.2))]
    OperatorCache().get_many(steps, g)
    assert pools == ([2] if pooled else [])
    # one missing operator is built inline whatever the grid
    OperatorCache().get_many(steps[:1], g)
    assert len(pools) == int(pooled)


def test_pooled_build_error_surfaces_unchanged(monkeypatch):
    monkeypatch.setattr(transfer, "_usable_cpus", lambda: 2)
    err = ConfigError("bad step")
    real = transfer.build_open

    def failing(mapspec, hole, grid):
        if mapspec == tripling_map():
            raise err
        return real(mapspec, hole, grid)

    monkeypatch.setattr(transfer, "build_open", failing)
    cache = OperatorCache()
    hole = interval_hole(0.1, 0.2)
    with pytest.raises(ConfigError) as info:
        cache.get_many([(doubling_map(), hole), (tripling_map(), hole)],
                       Grid(1, transfer.POOL_MIN_CELLS))
    assert info.value is err and len(cache) == 0


@pytest.mark.parametrize("mapspec, grid, hole", [
    (doubling_map(), Grid(1, 256), interval_hole(0.1, 0.12)),
    (matrix_map([[3, 1], [1, 2]], (0.1, 0.2)), Grid(2, 8),
     rect_hole(0.2, 0.45, 0.7, 0.1)),
])
def test_cache_masks_stored_closed_operator(monkeypatch, mapspec, grid, hole):
    cache = OperatorCache()
    cache.get(mapspec, None, grid)
    ref = build_open(mapspec, hole, grid)
    calls = []
    real = transfer.build_closed

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transfer, "build_closed", counting)
    op = cache.get(mapspec, hole, grid)
    assert calls == []
    _assert_hole_rows(op, hole, cache.get(mapspec, None, grid).matrix)
    assert np.array_equal(op.matrix.indptr, ref.matrix.indptr)
    assert np.array_equal(op.matrix.indices, ref.matrix.indices)
    assert np.array_equal(op.matrix.data, ref.matrix.data)
    # an open operator alone does not bring its closed parent into the
    # cache; a 1D one is written without building that parent at all
    fresh = OperatorCache()
    fresh.get(mapspec, hole, grid)
    assert len(fresh) == 1 and len(calls) == int(grid.dimension == 2)


def test_density_validation():
    g = Grid(1, 64)
    with pytest.raises(ConfigError):
        GridDensity(g, np.ones(32))
    other = Grid(1, 32)
    with pytest.raises(ConfigError):
        l1_distance(GridDensity.uniform(g), GridDensity.uniform(other))
