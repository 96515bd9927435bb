import numpy as np
import pytest

from opendyn.errors import ConfigError, TotalEscapeError
from opendyn.holes import HoleSequence, interval_hole, rect_hole
from opendyn.maps import (MapSequence, affine_map, doubling_map,
                          full_branch_map, matrix_map, quadratic_full_branch,
                          tripling_map)
from opendyn.phase import Grid
from opendyn import transfer
from opendyn.transfer import (GridDensity, OperatorCache, apply_operators,
                              build_closed, build_open, escape_mass, evolve,
                              export_operator_coo, l1_distance, normalize,
                              schedule_operators)


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
    v = op.apply(u)
    assert np.max(np.abs(v.values - 1.0)) < 1e-12


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


def test_open_rows_zeroed_on_hole():
    g = Grid(1, 256)
    hole = interval_hole(0.25, 0.5)
    op = build_open(doubling_map(), hole, g)
    inside = hole.contains(g.centers())
    rows = np.abs(op.matrix).sum(axis=1).A.ravel() if hasattr(
        np.abs(op.matrix).sum(axis=1), "A") else \
        np.asarray(np.abs(op.matrix).sum(axis=1)).ravel()
    assert np.all(rows[inside] == 0.0)


def test_2d_diagonal_exact():
    g = Grid(2, 32)
    op = build_closed(matrix_map([[2, 0], [0, 3]]), g)
    assert op.column_sum_error() < 1e-12
    u = GridDensity.uniform(g)
    assert np.max(np.abs(op.apply(u).values - 1.0)) < 1e-12


def test_2d_general_matrix_stochastic():
    g = Grid(2, 32)
    op = build_closed(matrix_map([[3, 1], [1, 2]]), g)
    assert op.column_sum_error() <= 1e-10
    cat = matrix_map([[2, 1], [1, 1]], check_expanding=False)
    assert build_closed(cat, g).column_sum_error() <= 1e-10


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
    assert op.key == ref.key
    assert np.array_equal(op.hole_mask, ref.hole_mask)
    assert np.array_equal(op.matrix.indptr, ref.matrix.indptr)
    assert np.array_equal(op.matrix.indices, ref.matrix.indices)
    assert np.array_equal(op.matrix.data, ref.matrix.data)
    # an open operator alone does not bring its closed parent into the cache
    fresh = OperatorCache()
    fresh.get(mapspec, hole, grid)
    assert len(fresh) == 1 and len(calls) == 1


def test_export_coo_roundtrip(tmp_path):
    g = Grid(1, 16)
    op = build_closed(doubling_map(), g)
    path = tmp_path / "op.txt"
    export_operator_coo(op, str(path))
    lines = path.read_text().strip().splitlines()
    n, nnz = map(int, lines[0].split())
    assert n == 16 and nnz == len(lines) - 1
    rebuilt = np.zeros((n, n))
    for ln in lines[1:]:
        r, c, v = ln.split()
        rebuilt[int(r), int(c)] = float(v)
    assert np.max(np.abs(rebuilt - op.matrix.toarray())) == 0.0


def test_density_validation():
    g = Grid(1, 64)
    with pytest.raises(ConfigError):
        GridDensity(g, np.ones(32))
    other = Grid(1, 32)
    with pytest.raises(ConfigError):
        l1_distance(GridDensity.uniform(g), GridDensity.uniform(other))
