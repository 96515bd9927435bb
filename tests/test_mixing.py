import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opendyn.errors import CertificateError, ConfigError
from opendyn.holes import HoleSequence, interval_hole
from opendyn.maps import (MapSequence, beta_map, doubling_map,
                          full_branch_map, is_perturbation, matrix_map,
                          quadratic_full_branch, tripling_map)
from opendyn.mixing import (certify_mixing, default_perturbation,
                            find_mixing_time, mixing_ratios,
                            perturb_full_branch, random_hole, ratio_profile)
from opendyn.phase import Grid, dyadic_partition, partition_from_labels
from opendyn.transfer import build_closed, build_open, schedule_operators


def test_dyadic_ratios_exact():
    g = Grid(1, 4096)
    doub = doubling_map()
    for level in (1, 2, 3, 4):
        Q = dyadic_partition(g, level)
        for i in range(level, 13):
            rmin, rmax = mixing_ratios(doub, Q, i)
            assert abs(rmin - 1.0) < 1e-12
            assert abs(rmax - 1.0) < 1e-12


def test_mixing_time_matches_level():
    g = Grid(1, 4096)
    doub = doubling_map()
    for level in (1, 2, 3, 4):
        Q = dyadic_partition(g, level)
        assert find_mixing_time(doub, Q, 0.9, 1.1, 12) == level


def test_mixing_time_tripling():
    g = Grid(1, 2187)
    labels = (np.arange(2187) // 729).astype(np.int64)
    Q = partition_from_labels(g, labels)
    E = find_mixing_time(tripling_map(), Q, 0.9, 1.1, 10)
    assert E == 1


def test_mixing_time_not_found():
    g = Grid(1, 1024)
    Q = dyadic_partition(g, 2)
    assert find_mixing_time(doubling_map(), Q, 0.999, 1.001, 1) is None


def test_mixing_window_validation():
    g = Grid(1, 1024)
    Q = dyadic_partition(g, 2)
    with pytest.raises(ConfigError):
        find_mixing_time(doubling_map(), Q, 0.0, 1.1, 5)
    with pytest.raises(ConfigError):
        find_mixing_time(doubling_map(), Q, 0.9, 0.95, 5)


def test_certify_mixing_roundtrip():
    g = Grid(1, 2048)
    Q = dyadic_partition(g, 3)
    cert = certify_mixing(doubling_map(), Q, 0.9, 1.1, 12)
    assert cert.E == 3
    assert abs(cert.ratio_min - 1.0) < 1e-12
    rec = json.loads(json.dumps(cert.to_config()))
    assert (rec["E"], rec["zeta1"], rec["zeta2"]) == (3, 0.9, 1.1)
    assert rec["i_checked"] == [1, 12]
    assert rec["partition"] == Q.to_config()
    with pytest.raises(CertificateError):
        certify_mixing(doubling_map(), Q, 0.999, 1.001, 2)


def test_block_ratios_with_small_hole():
    g = Grid(1, 2048)
    Q = dyadic_partition(g, 2)
    seq = MapSequence.constant(doubling_map(), 6)
    holes = HoleSequence.static(interval_hole(0.11, 0.13), 6)
    lo, hi = ratio_profile(schedule_operators(seq, holes, 4, g), Q)[-1]
    # 2 percent of mass leaks per step: ratios near but below 1
    assert 0.8 < lo <= hi < 1.05
    closed_lo, closed_hi = ratio_profile(
        schedule_operators(seq, HoleSequence.closed(6), 4, g), Q)[-1]
    assert abs(closed_lo - 1.0) < 1e-12 and abs(closed_hi - 1.0) < 1e-12


def test_perturb_full_branch_distance_cap():
    rng = np.random.default_rng(9)
    base = doubling_map()
    for delta in (0.005, 0.02, 0.05):
        for _ in range(10):
            g = perturb_full_branch(base, delta, rng)
            assert is_perturbation(base, g, delta)


def test_default_perturbation_zero_delta_is_identity():
    rng = np.random.default_rng(0)
    base = doubling_map()
    g = default_perturbation(base, 0.0, rng)
    assert g == base


@pytest.mark.parametrize("base", [
    full_branch_map([0.5, 0.75]), beta_map(2.5), quadratic_full_branch(0.2),
    matrix_map([[3, 1], [1, 2]], (0.1, 0.2)),
], ids=["three_branch", "beta", "quadratic", "torus"])
def test_default_perturbation_keeps_kind_within_delta(base):
    # the sampler alone guarantees the delta cap: run_local does not re-check
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = default_perturbation(base, 0.02, rng)
        assert g.kind == base.kind
        assert is_perturbation(base, g, 0.02)


def test_random_hole_measure_cap():
    rng = np.random.default_rng(2)
    for eps in (0.002, 0.01, 0.05):
        for _ in range(20):
            h = random_hole(1, eps, rng)
            assert h.measure() <= eps + 1e-12
    assert random_hole(1, 0.0, rng) is None
    h2 = random_hole(2, 0.01, rng)
    assert h2.measure() <= 0.01 + 1e-12


@pytest.mark.parametrize("dimension", [1, 2])
def test_random_hole_measure_is_drawn_size(dimension):
    # replay the draws: a hole's measure is its drawn width or area, also
    # when a 2D side would exceed 1 and wrap onto itself
    rng, replay = np.random.default_rng(0), np.random.default_rng(0)
    for eps in (0.01, 0.25, 0.3, 0.6, 0.9):
        for _ in range(300):
            h = random_hole(dimension, eps, rng)
            size = eps * replay.uniform(0.5, 1.0)
            replay.uniform(0.0, 1.0, 1 if dimension == 1 else 3)
            assert abs(h.measure() - size) <= 1e-12


def test_zero_measure_element_rejected():
    g = Grid(1, 64)
    labels = np.zeros(64, dtype=np.int64)
    labels[32:] = 1
    Q = partition_from_labels(g, labels)
    # elements must have positive measure for ratio normalization;
    # build an empty element by filtering the label set
    with pytest.raises(ConfigError):
        bad = partition_from_labels(g, labels)
        object.__setattr__(bad, "elements",
                           bad.elements + (np.array([], dtype=np.int64),))
        mixing_ratios(doubling_map(), bad, 1)


# ---------------------------------------------------------------------------
# ratio_profile against explicit dense products

def _reference_profile(operators, Q):
    """(min, max) pair ratio after each step from dense matrix products
    and per-element sums."""
    cm = Q.grid.cell_measure
    lam = np.array([cells.size * cm for cells in Q.elements])
    product = np.eye(Q.grid.total_cells)
    rows = []
    for op in operators:
        product = op.matrix.toarray() @ product
        inter = np.array([[product[np.ix_(c2, c1)].sum() * cm
                           for c1 in Q.elements] for c2 in Q.elements])
        R = inter / (lam[None, :] * lam[:, None])
        rows.append((R.min(), R.max()))
    return np.array(rows)


def _reference_window(profile, zeta1, zeta2):
    i_max = len(profile)
    for E in range(1, i_max + 1):
        if all(zeta1 < lo and hi < zeta2 for lo, hi in profile[E - 1:]):
            return E
    return None


@st.composite
def _full_branch_maps(draw):
    nb = draw(st.integers(2, 4))
    lengths = np.array(draw(st.lists(st.floats(1.0, 4.0), min_size=nb,
                                     max_size=nb)))
    cuts = np.cumsum(lengths / lengths.sum())[:-1]
    return full_branch_map(list(cuts))


@st.composite
def _holes(draw):
    if draw(st.booleans()):
        return None
    lo = draw(st.floats(0.0, 0.999))
    width = draw(st.floats(0.001, 0.2))
    return interval_hole(lo, (lo + width) % 1.0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(3, 8), data=st.data(),
       steps=st.lists(st.tuples(_full_branch_maps(), _holes()), min_size=1,
                      max_size=6))
def test_ratio_profile_matches_dense_products(k, data, steps):
    g = Grid(1, 2 ** k)
    Q = dyadic_partition(g, data.draw(st.integers(1, min(k, 5))))
    ops = [build_open(m, h, g) for m, h in steps]
    # float64 sums of nonnegative terms over n*i rounding steps
    np.testing.assert_allclose(ratio_profile(ops, Q),
                               _reference_profile(ops, Q), rtol=1e-12, atol=0)

    closed = build_closed(steps[0][0], g)
    i_max = data.draw(st.integers(1, 8))
    zeta1 = data.draw(st.floats(0.05, 0.99))
    zeta2 = data.draw(st.floats(1.01, 3.0))
    ref = _reference_profile([closed] * i_max, Q)
    # the window test is ill-posed for a ratio on the window's edge
    assume(min(np.abs(ref - zeta1).min(), np.abs(ref - zeta2).min()) > 1e-12)
    assert find_mixing_time(steps[0][0], Q, zeta1, zeta2, i_max) == \
        _reference_window(ref, zeta1, zeta2)


def test_ratio_profile_rejects_empty_and_mismatched():
    Q = dyadic_partition(Grid(1, 64), 2)
    with pytest.raises(ConfigError):
        ratio_profile([], Q)
    with pytest.raises(ConfigError):
        ratio_profile([build_closed(doubling_map(), Grid(1, 32))], Q)
