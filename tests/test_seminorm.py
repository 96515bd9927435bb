import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from opendyn.errors import (CertificateError, ConfigError,
                            DegenerateParametersWarning, ParameterError,
                            PreconditionError)
from opendyn.holes import HoleSequence, interval_hole
from opendyn.maps import MapSequence, doubling_map, tripling_map
from opendyn.phase import Grid, dyadic_partition, partition_from_labels
from opendyn.seminorm import (THETA_LATTICE, LYCertificate, OscParams,
                              SeminormSpec, _ly_excess, _tv_rows, cone_member,
                              control_bounds_check, element_expectations,
                              estimate_LY, ly_ensemble, oscillation_seminorm,
                              total_variation, verify_ly)
from opendyn.transfer import (GridDensity, UlamOperator, build_closed,
                              schedule_operators)


TV = SeminormSpec.from_config({"kind": "tv"})
EPS = float(np.finfo(float).eps)


def test_import_leaves_ndimage_unloaded():
    # only the osc seminorm needs scipy.ndimage (and the scipy.special it
    # pulls in), so importing the package and its CLI must not load it
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, opendyn, opendyn.cli; "
            "sys.exit('scipy.ndimage' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0


def step_density(g, height=1.0):
    return GridDensity.from_function(
        g, lambda x: height * (x < 0.5).astype(float))


def test_total_variation_step_and_constant():
    g = Grid(1, 1024)
    assert total_variation(GridDensity.uniform(g)) == 0.0
    # cyclic variation of a height-1 arc indicator: two unit jumps
    assert abs(total_variation(step_density(g)) - 2.0) < 1e-12


def test_total_variation_staircase():
    g = Grid(1, 512)
    v = np.zeros(512)
    v[100:200] = 1.5
    v[300:310] = -0.5
    tv = total_variation(GridDensity(g, v))
    assert abs(tv - (2 * 1.5 + 2 * 0.5)) < 1e-12


def test_total_variation_2d_split():
    g = Grid(2, 64)
    phi = GridDensity.from_function(
        g, lambda xy: (xy[:, 0] < 0.5).astype(float))
    # jumps only along x: two length-1 interfaces
    assert abs(total_variation(phi) - 2.0) < 1e-12


def test_oscillation_step_oracle():
    # height-1 step, alpha = 1: eps^-1 * integral(osc) = 2*(2 eps) = 4
    # at every dyadic ladder rung
    g = Grid(1, 4096)
    sem = SeminormSpec.from_config({"kind": "osc", "alpha": 1.0, "eps0": 0.125})
    assert abs(sem.value(step_density(g)) - 4.0) < 1e-12
    val, profile = oscillation_seminorm(step_density(g), sem.osc,
                                        return_profile=True)
    assert abs(val - 4.0) < 1e-12
    for _, rung in profile:
        assert abs(rung - 4.0) < 1e-12


def test_oscillation_alpha_scaling():
    g = Grid(1, 4096)
    semh = SeminormSpec.from_config({"kind": "osc", "alpha": 0.5, "eps0": 0.125})
    # eps^-0.5 * (4 eps) = 4 sqrt(eps): sup at the top rung eps0
    assert abs(semh.value(step_density(g)) - 4.0 * np.sqrt(0.125)) < 1e-12


@pytest.mark.parametrize("dimension, n, eps0, rungs", [
    (1, 64, 1e5, 6), (2, 16, 1000.0, 4)])
def test_oscillation_ladder_stops_once_a_window_covers_the_grid(
        deadline, dimension, n, eps0, rungs):
    # past the first scale whose window spans the grid every cell's
    # oscillation is the global range, so no larger eps0 moves the value
    rng = np.random.default_rng(5)
    phi = GridDensity(Grid(dimension, n), rng.uniform(0.1, 2.0, n ** dimension))
    with deadline(10):
        val, profile = oscillation_seminorm(phi, OscParams(0.5, eps0),
                                            return_profile=True)
    assert len(profile) <= rungs
    assert val == oscillation_seminorm(phi, OscParams(0.5, 1.0))


def test_oscillation_eps0_below_grid_rejected():
    g = Grid(1, 64)
    sem = SeminormSpec.from_config({"kind": "osc", "alpha": 1.0, "eps0": 1e-4})
    with pytest.raises(ConfigError):
        sem.value(GridDensity.uniform(g))


def test_seminorm_regularity_rule():
    g = Grid(1, 1024)
    Q = dyadic_partition(g, 3)
    assert TV.M(Q) == 1.0
    assert abs(TV.diam(Q) - 0.125) < 1e-15
    osc = SeminormSpec.from_config({"kind": "osc", "alpha": 0.5, "eps0": 0.25})
    # M = (metric diam)^(1-alpha), d = metric diam
    assert abs(osc.M(Q) - 0.125 ** 0.5) < 1e-12
    assert abs(osc.diam(Q) - 0.125) < 1e-15


def test_seminorm_config_roundtrip():
    for rec in ({"kind": "tv"},
                {"kind": "osc", "alpha": 0.7, "eps0": 0.25}):
        sem = SeminormSpec.from_config(rec)
        again = SeminormSpec.from_config(sem.to_config())
        assert again.kind == sem.kind
        if sem.kind == "osc":
            assert again.osc.alpha == sem.osc.alpha
            assert again.osc.eps0 == sem.osc.eps0


def test_seminorm_config_unknown_kind_names_kind():
    # only "tv" and "osc" are seminorms; another kind must not run as osc
    for rec in ({"kind": "l2", "alpha": 1, "eps0": 0.1}, {"kind": "l2"}):
        with pytest.raises(ConfigError, match="'kind'"):
            SeminormSpec.from_config(rec)


def _tv_one(v, g):
    """Cyclic total variation of one density, from its 1D value array."""
    if g.dimension == 1:
        return float(np.abs(np.diff(np.r_[v, v[0]])).sum())
    w = v.reshape(g.n, g.n)
    return float((np.abs(w - np.roll(w, 1, axis=0)).sum()
                  + np.abs(w - np.roll(w, 1, axis=1)).sum()) / g.n)


def _tv_rows_rolled(V, g):
    """_tv_rows as the formula with a rolled copy, |V - roll(V)| per row."""
    if g.dimension == 1:
        return np.abs(V - np.roll(V, -1, axis=1)).sum(axis=1)
    k, n = V.shape[0], g.n
    W = V.reshape(k, n, n)
    return sum(np.abs(W - np.roll(W, 1, axis=a)).reshape(k, -1).sum(axis=1)
               for a in (1, 2)) / n


@settings(max_examples=60, deadline=None)
@given(dimension=st.sampled_from([1, 2]), k=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tv_rows_match_rolled_formula_bytes(dimension, k, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 1025)) if dimension == 1 \
        else int(rng.integers(2, 33))
    g = Grid(dimension, n)
    # signed values over many magnitudes, so any reordering of the sums
    # or any other operation would show in the last bits
    V = rng.normal(size=(k, g.total_cells)) \
        * 10.0 ** rng.uniform(-8, 8, (k, g.total_cells))
    assert _tv_rows(V, g).tobytes() == _tv_rows_rolled(V, g).tobytes()


def _osc_one(v, g, p):
    """Oscillation seminorm of one density, one ndimage filter per scale."""
    best, eps = -np.inf, g.cell_diameter
    while eps <= p.eps0 * (1.0 + 1e-12):
        size = 2 * int(np.floor(eps / g.spacing + 0.5 - 1e-12)) + 1
        w = v if g.dimension == 1 else v.reshape(g.n, g.n)
        if g.dimension == 1:
            osc = ndimage.maximum_filter1d(w, size, mode="wrap") \
                - ndimage.minimum_filter1d(w, size, mode="wrap")
        else:
            osc = ndimage.maximum_filter(w, size=size, mode="wrap") \
                - ndimage.minimum_filter(w, size=size, mode="wrap")
        best = max(best, float(osc.mean()) / eps ** p.alpha)
        eps *= 2.0
    return best


@settings(max_examples=40, deadline=None)
@given(dimension=st.sampled_from([1, 2]), kind=st.sampled_from(["tv", "osc"]),
       k=st.integers(1, 5), alpha=st.floats(0.1, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_seminorm_rows_match_single_density(dimension, kind, k, alpha, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 2049)) if dimension == 1 \
        else int(rng.integers(2, 33))
    g = Grid(dimension, n)
    eps0 = g.cell_diameter * float(
        rng.uniform(1.0, max(1.0, 0.5 / g.cell_diameter)))
    p = OscParams(alpha, eps0)
    sem = SeminormSpec(kind, p if kind == "osc" else None)
    # piecewise-constant rows with random jumps, then random dust
    V = np.repeat(rng.uniform(0.0, 3.0, (k, 8)), -(-g.total_cells // 8),
                  axis=1)[:, :g.total_cells]
    V += rng.uniform(0.0, 1e-3, V.shape)
    rows = sem.rows(V, g)
    single = [sem.value(GridDensity(g, v.copy())) for v in V]
    entry = [total_variation(GridDensity(g, v.copy())) if kind == "tv"
             else oscillation_seminorm(GridDensity(g, v.copy()), p)
             for v in V]
    ref = [_tv_one(v.copy(), g) if kind == "tv" else _osc_one(v.copy(), g, p)
           for v in V]
    assert np.array_equal(rows, single)
    assert np.array_equal(rows, entry)
    assert np.array_equal(rows, ref)


@settings(max_examples=40, deadline=None)
@given(dimension=st.sampled_from([1, 2]), elements=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_element_sums_match_element_means(dimension, elements, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 513)) if dimension == 1 \
        else int(rng.integers(4, 17))
    g = Grid(dimension, n)
    labels = rng.permutation(np.arange(g.total_cells) % elements)
    Q = partition_from_labels(g, labels)
    V = rng.uniform(0.0, 3.0, (g.total_cells, 3))
    sizes = np.array([cells.size for cells in Q.elements])
    for j in range(3):
        phi = GridDensity(g, V[:, j].copy())
        e = element_expectations(phi, Q)
        # each element adds its cells left to right, in index order
        ordered = [sum(phi.values[cells].tolist()) for cells in Q.elements]
        assert np.array_equal(e, np.array(ordered) / sizes)
        # and stays within the a-priori bound of recursive summation of
        # nonnegative terms, size * eps relative, of the exact mean
        exact = np.array([math.fsum(phi.values[cells]) / cells.size
                          for cells in Q.elements])
        assert np.all(np.abs(e - exact) <= sizes * EPS * exact)
        # a block sums each column exactly as that column alone
        assert np.array_equal((Q.indicator @ V)[:, j],
                              Q.indicator @ phi.values)


def test_cone_member_margin():
    g = Grid(1, 1024)
    Q = dyadic_partition(g, 2)
    phi = GridDensity.from_function(
        g, lambda x: 1.0 + 0.1 * np.cos(2 * np.pi * x))
    chk = cone_member(phi, 2.0, Q, TV)
    assert chk.ok
    # margin = a * min element expectation - seminorm
    assert abs(chk.margin - (2.0 * chk.min_expectation - chk.seminorm_value)) < 1e-12
    tight = GridDensity.from_function(
        g, lambda x: 1.0 + 0.9 * np.cos(2 * np.pi * x))
    assert not cone_member(tight, 2.0, Q, TV).ok
    neg = GridDensity.from_function(g, lambda x: np.cos(2 * np.pi * x))
    assert not cone_member(neg, 100.0, Q, TV).ok
    with pytest.raises(ParameterError):
        cone_member(phi, 0.0, Q, TV)


def test_control_bounds_certified_block():
    # level-3 partition: d = 1/8, ratios exact for i >= 3, and
    # zeta2*a*d/M = 0.55 < zeta1 keeps the lower bound informative
    g = Grid(1, 2048)
    Q = dyadic_partition(g, 3)
    ops = [build_closed(doubling_map(), g)] * 3
    rng = np.random.default_rng(5)
    for _ in range(10):
        heights = rng.uniform(0.9, 1.1, 8)
        phi = GridDensity(g, np.repeat(heights, 256))
        rep = control_bounds_check(ops, Q, 0.9, 1.1,
                                   a=4.0, M=1.0, phi=phi, sem=TV)
        assert rep.lower_ok and rep.upper_ok
        assert rep.lower_bound <= rep.e_min <= rep.e_max <= rep.upper_bound


def test_control_bounds_cone_precondition():
    g = Grid(1, 2048)
    Q = dyadic_partition(g, 2)
    ops = [build_closed(doubling_map(), g)] * 3
    spike = GridDensity.from_function(g, lambda x: 1.0 + 50.0 * (x < 0.01))
    with pytest.raises(PreconditionError):
        control_bounds_check(ops, Q, 0.9, 1.1, a=1.0, M=1.0, phi=spike,
                             sem=TV)


def test_control_bounds_mixing_precondition():
    g = Grid(1, 2048)
    Q = dyadic_partition(g, 4)
    ops = [build_closed(doubling_map(), g)]
    phi = GridDensity.uniform(g)
    # one doubling step cannot mix 16 arcs into a (0.9, 1.1) window
    with pytest.raises(PreconditionError):
        control_bounds_check(ops, Q, 0.9, 1.1, a=50.0, M=1.0, phi=phi,
                             sem=TV)


def test_control_bounds_degenerate_warning():
    g = Grid(1, 2048)
    Q = dyadic_partition(g, 2)
    ops = [build_closed(doubling_map(), g)] * 3
    phi = GridDensity.uniform(g)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = control_bounds_check(ops, Q, 0.9, 1.1, a=100.0, M=0.01,
                                   phi=phi, sem=TV)
    assert any(issubclass(w.category, DegenerateParametersWarning)
               for w in caught)
    assert rep.lower_ok   # vacuous: the lower coefficient is negative


def test_ly_ensemble_deterministic():
    g = Grid(1, 512)
    e1 = ly_ensemble(g, 12, seed=3)
    e2 = ly_ensemble(g, 12, seed=3)
    assert len(e1) == 12
    for a, b in zip(e1, e2):
        assert np.array_equal(a.values, b.values)


def test_estimate_ly_doubling():
    g = Grid(1, 4096)
    ops = [build_closed(doubling_map(), g)] * 4
    cert = estimate_LY(ops, 1, TV, 24, seed=11)
    assert 0.0 < cert.theta < 1.0
    assert cert.C > 0.0
    assert cert.theta <= 0.5 + 1e-9
    assert cert.C <= 1e-9
    ok, violations = verify_ly(cert, ops)
    assert ok and violations == []


def test_estimate_ly_tripling_tighter():
    g = Grid(1, 2187)
    cert = estimate_LY([build_closed(tripling_map(), g)] * 4, 1, TV, 16,
                       seed=2)
    # TV contracts by 1/3 per step: theta lands on the lattice just above,
    # C snaps to the power-of-two lattice over 1e-12
    assert cert.theta <= 1.0 / 3 + 0.01
    assert cert.C <= 2e-9


def test_estimate_ly_open_schedule():
    g = Grid(1, 4096)
    seq = MapSequence.constant(doubling_map(), 4)
    holes = HoleSequence.static(interval_hole(0.3, 0.32), 4)
    ops = schedule_operators(seq, holes, 4, g)
    cert = estimate_LY(ops, 1, TV, 24, seed=11)
    assert 0.0 < cert.theta < 1.0 and cert.C > 0.0
    ok, violations = verify_ly(cert, ops)
    assert ok and violations == []


def test_ly_certificate_covers_exactly_its_operators():
    # the closed-doubling certificate holds on the closed operators it
    # was estimated on, and the same (theta, C) fails on the open steps
    g = Grid(1, 4096)
    closed = [build_closed(doubling_map(), g)] * 4
    cert = estimate_LY(closed, 1, TV, 24, seed=11)
    assert (cert.theta, cert.C, cert.max_k) == (0.5, 1e-12, 4)
    assert verify_ly(cert, closed) == (True, [])
    holes = HoleSequence.static(interval_hole(0.3, 0.32), 4)
    opened = schedule_operators(MapSequence.constant(doubling_map(), 4),
                                holes, 4, g)
    ok, violations = verify_ly(cert, opened)
    assert not ok and len(violations) == 92
    assert max(v[2] for v in violations) == pytest.approx(9.95, abs=0.01)


def test_ly_operator_list_length_is_checked():
    g = Grid(1, 512)
    op = build_closed(doubling_map(), g)
    for ops, T1 in (([], 1), ([op] * 3, 2), ([op] * 2, 0)):
        with pytest.raises(ConfigError):
            estimate_LY(ops, T1, TV, 4, seed=0)
    cert = estimate_LY([op] * 4, 2, TV, 4, seed=0)
    assert (cert.T1, cert.max_k) == (2, 2)
    for n_ops in (0, 3, 5):
        with pytest.raises(ConfigError):
            verify_ly(cert, [op] * n_ops)
    with pytest.raises(ConfigError):
        ly_ensemble(g, 0, seed=0)


def _ly_excess_one(s0, mass0, svals, T1, theta, C):
    """The replay excess of one theta, as estimate_LY computed it for each
    lattice candidate in turn before the candidates were broadcast."""
    kpow = np.arange(1, svals.shape[1] + 1) * T1
    return svals - (np.outer(s0, theta ** kpow) + C * mass0[:, None])


@settings(max_examples=80, deadline=None)
@given(T1=st.integers(1, 4), data=st.data())
def test_ly_lattice_broadcast_matches_per_theta_loop(T1, data):
    members = data.draw(st.integers(1, 30))
    k_max = data.draw(st.integers(1, 8))
    values = st.floats(0.0, 1e4)
    s0 = data.draw(arrays(float, members, elements=values))
    mass0 = data.draw(arrays(float, members, elements=st.floats(1e-3, 10.0)))
    svals = data.draw(arrays(float, (members, k_max), elements=values))
    C = data.draw(st.sampled_from([0.0, 1e-12, 0.75, 3.0]))
    lattice = _ly_excess(s0, mass0, svals, T1, THETA_LATTICE, C)
    assert lattice.shape == (THETA_LATTICE.size, members, k_max)
    for theta, excess in zip(THETA_LATTICE, lattice):
        ref = _ly_excess_one(s0, mass0, svals, T1, theta, C)
        assert excess.tobytes() == ref.tobytes()
        # the audits pass theta as a Python float
        one = _ly_excess(s0, mass0, svals, T1, float(theta), C)
        assert one.tobytes() == ref.tobytes()
    if C == 0.0:
        # the constant each candidate needs, reduced over (member, k) at
        # once, is the one the per-theta loop takes
        needed = np.maximum(0.0, (lattice / mass0[:, None]).max(axis=(1, 2)))
        loop = [max(0.0, float((_ly_excess_one(s0, mass0, svals, T1, theta, C)
                                / mass0[:, None]).max()))
                for theta in THETA_LATTICE]
        assert needed.tobytes() == np.array(loop).tobytes()


def test_ly_never_certifies_nan():
    # one NaN entry in a closed doubling operator makes every replayed
    # seminorm NaN, which must fail both audits: max(0.0, nan) is 0.0 and
    # nan > 1e-9 is false, so tests written that way certify it (theta
    # 0.005, C 1e-12)
    g = Grid(1, 512)
    closed = build_closed(doubling_map(), g)
    matrix = closed.matrix.copy()
    matrix.data[0] = np.nan
    ops = [UlamOperator(g, matrix)] * 4
    with pytest.raises(CertificateError):
        estimate_LY(ops, 1, TV, 24, seed=11)
    for cert in (estimate_LY([closed] * 4, 1, TV, 24, seed=11),
                 LYCertificate(1, 0.005, 1e-12, TV.to_config(),
                               {"size": 24, "seed": 11}, 4)):
        ok, violations = verify_ly(cert, ops)
        assert not ok and len(violations) == 24 * 4
        assert all(math.isnan(v[2]) for v in violations)


def test_ly_certificate_json_roundtrip():
    g = Grid(1, 1024)
    cert = estimate_LY([build_closed(doubling_map(), g)] * 4, 1, TV, 8,
                       seed=1)
    rec = json.loads(json.dumps(cert.to_config()))
    assert LYCertificate(**rec) == cert


def test_tv_contraction_property_random_pwc():
    # TV(L phi) <= 0.5 TV(phi) for the doubling operator
    g = Grid(1, 4096)
    op = build_closed(doubling_map(), g)
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 40))
        edges = np.sort(rng.integers(1, g.n, k))
        vals = np.repeat(rng.uniform(-1.0, 2.0, k + 1),
                         np.diff(np.r_[0, edges, g.n]))
        phi = GridDensity(g, vals)
        tv0 = total_variation(phi)
        tv1 = total_variation(GridDensity(g, op.matrix @ phi.values))
        assert tv1 <= 0.5 * tv0 + 1e-9
