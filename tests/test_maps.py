import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opendyn import maps
from opendyn.errors import ConfigError
from opendyn.maps import (Branch1D, MapSequence, MapSpec, affine_map,
                          balance_check, beta_map, doubling_map,
                          full_branch_map, is_perturbation, map_from_config,
                          matrix_map, quadratic_full_branch, tripling_map,
                          unit_ball_volume)
from opendyn.mixing import perturb_full_branch, perturb_offsets
from opendyn.phase import torus_delta

GOLDEN_MEAN_SQ = (3.0 + np.sqrt(5.0)) / 2.0   # largest singular value factor


def test_doubling_map_evaluate():
    m = doubling_map()
    x = np.array([0.1, 0.3, 0.6, 0.9])
    y = m.evaluate(x)
    assert np.allclose(y, (2 * x) % 1.0, atol=1e-14)
    assert m.n_branches == 2
    assert m.s == 0.5


def test_tripling_and_beta():
    t = tripling_map()
    assert t.n_branches == 3
    assert abs(t.s - 1.0 / 3) < 1e-15
    b = beta_map(2.5)
    x = np.array([0.1, 0.5, 0.9])
    assert np.allclose(b.evaluate(x), (2.5 * x) % 1.0, atol=1e-12)


def test_full_branch_lengths_give_slopes():
    m = full_branch_map([0.5, 0.75])
    # branch lengths 1/2, 1/4, 1/4 -> slopes 2, 4, 4
    derivs = [br.coeffs[1] for br in m.branches]
    assert np.allclose(derivs, [2.0, 4.0, 4.0])
    assert abs(m.s - 0.5) < 1e-15
    # Lebesgue-preserving: sum of 1/slope = 1
    assert abs(sum(1.0 / d for d in derivs) - 1.0) < 1e-15


def test_branch_tiling_validation():
    # gap between branches
    with pytest.raises(ConfigError):
        MapSpec(1, "affine_1d", (Branch1D(0.0, 0.4, (0.0, 2.0)),
                                 Branch1D(0.5, 1.0, (0.0, 2.0))))
    # image longer than the circle
    with pytest.raises(ConfigError):
        MapSpec(1, "affine_1d", (Branch1D(0.0, 1.0, (0.0, 1.5)),))


def test_non_expanding_rejected():
    with pytest.raises(ConfigError):
        affine_map([0.5], [1.0, 1.0], [0.0, 0.5])
    # same data accepted with the check off
    m = affine_map([0.5], [1.0, 1.0], [0.0, 0.5], check_expanding=False)
    assert abs(m.s - 1.0) < 1e-12
    # a NaN slope makes s NaN, on either branch, and NaN is not below 1
    nan = float("nan")
    for slopes in ([nan, 2.0], [2.0, nan]):
        with pytest.raises(ConfigError, match="s = nan"):
            affine_map([0.5], slopes, [0.0, -1.0])


def test_cut_point_takes_right_branch():
    m = doubling_map()
    # half-open domains: the cut 0.5 belongs to the right branch
    y = m.evaluate(np.array([0.5]))
    assert abs(y[0] - 0.0) < 1e-14


def test_quadratic_branch_inverse():
    m = quadratic_full_branch(0.1, 0.5)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 0.5, 100)
    y = m.branches[0].value(x)
    xi = m.branches[0].inverse(y)
    assert np.max(np.abs(xi - x)) < 1e-10


def test_expansion_bound_oracles():
    assert abs(doubling_map().s - 0.5) < 1e-15
    m2 = matrix_map([[2, 0], [0, 3]])
    assert abs(m2.s - 0.5) < 1e-12
    m3 = matrix_map([[3, 1], [1, 2]])
    assert abs(m3.s - 0.7236067977499792) < 1e-12
    # [[2,1],[1,1]] is not expanding: 1/sigma_min = (3+sqrt 5)/2 > 1
    mm = matrix_map([[2, 1], [1, 1]], check_expanding=False)
    assert abs(mm.s - GOLDEN_MEAN_SQ) < 1e-12
    with pytest.raises(ConfigError):
        matrix_map([[2, 1], [1, 1]])


def test_matrix_map_requires_integer_entries():
    with pytest.raises(ConfigError):
        matrix_map([[2.5, 0], [0, 2]])


def test_2d_evaluate_mod1():
    m = matrix_map([[2, 1], [1, 1]], check_expanding=False)
    pts = np.array([[0.25, 0.5], [0.7, 0.9]])
    y = m.evaluate(pts)
    expect = (pts @ np.array([[2, 1], [1, 1]]).T) % 1.0
    assert np.max(np.abs(y - expect)) < 1e-12


def test_map_sequence_indexing():
    seq = MapSequence.constant(doubling_map(), 5)
    assert seq.at(1) is seq.maps[0]
    assert seq.at(5) is seq.maps[4]
    with pytest.raises(ConfigError):
        seq.at(0)
    with pytest.raises(ConfigError):
        seq.at(6)


def test_map_config_roundtrip():
    for m in (doubling_map(), full_branch_map([0.3, 0.55]),
              affine_map([0.5], [2.0, 2.0], [0.0, 0.5]),
              matrix_map([[2, 0], [0, 2]]), beta_map(2.5),
              quadratic_full_branch(0.1), quadratic_full_branch(0.0, 0.4)):
        m2 = map_from_config(m.to_config())
        assert m2 == m


def test_map_kind_must_match_its_branches():
    # the kind label picks the perturbation family, so an affine label on
    # branches with a quadratic term is refused by name
    rec = dict(quadratic_full_branch(0.1).to_config(), kind="affine_1d")
    with pytest.raises(ConfigError, match="'kind' must be 'quadratic_1d'"):
        map_from_config(rec)
    with pytest.raises(ConfigError, match="'kind'"):
        MapSpec(1, "affine_1d", quadratic_full_branch(0.1).branches)
    # a zero quadratic coefficient is an affine branch
    rec = {"kind": "affine_1d", "branches": [[0.0, 0.5, [0.0, 2.0, 0.0]],
                                             [0.5, 1.0, [-1.0, 2.0, 0.0]]]}
    assert map_from_config(rec).kind == "affine_1d"


def test_unit_ball_volume():
    assert abs(unit_ball_volume(1) - 2.0) < 1e-14
    assert abs(unit_ball_volume(2) - np.pi) < 1e-14
    assert abs(unit_ball_volume(3) - 4.0 * np.pi / 3.0) < 1e-13


def test_balance_check_hand_values():
    v, ok = balance_check(1.0 / 16, 2.0, 1.0, 1)
    assert abs(v - 0.3291666666666667) < 1e-12
    assert ok
    v2, ok2 = balance_check(0.5, 2.0, 1.0, 1)
    assert abs(v2 - 4.5) < 1e-12
    assert not ok2


def _distance(f, g):
    """The least delta making g a delta-perturbation of f, to 1e-9."""
    return _bisect(lambda d: is_perturbation(f, g, d))


def test_perturbation_distance_identical_and_offsets():
    assert is_perturbation(doubling_map(), doubling_map(), 0.0)
    assert not is_perturbation(doubling_map(), doubling_map(), -1e-12)
    # both branches shifted by the same 0.01: a C0 perturbation of size 0.01
    g = affine_map([0.5], [2.0, 2.0], [0.01, 0.01])
    assert not is_perturbation(doubling_map(), g, 0.009)
    assert is_perturbation(doubling_map(), g, 0.02)
    # a shift by exactly 1/8 is a delta-perturbation only for delta > 1/8
    g = affine_map([0.5], [2.0, 2.0], [0.125, -0.875])
    assert not is_perturbation(doubling_map(), g, 0.125)
    assert is_perturbation(doubling_map(), g, np.nextafter(0.125, 1.0))
    # a cut moved by 0.01 with the branch formulas kept: only the moved
    # endpoint tells the maps apart
    f = affine_map([0.5], [1.9, 1.9], [0.0, 0.0])
    g = affine_map([0.49], [1.9, 1.9], [0.0, 0.0])
    assert not is_perturbation(f, g, 0.0099)
    assert is_perturbation(f, g, 0.0101)


def test_perturbation_distance_monotone_in_cut():
    base = full_branch_map([0.5])
    ds = []
    for c in (0.505, 0.52, 0.55):
        g = full_branch_map([c])
        d = _distance(base, g)
        assert is_perturbation(base, g, d)
        assert not is_perturbation(base, g, d - 2e-9)
        ds.append(d)
    assert ds[0] < ds[1] < ds[2]


def test_perturbation_distance_incomparable():
    # different branch counts cannot be delta-close in this scheme
    for delta in (0.0, 2.0):
        assert not is_perturbation(doubling_map(), tripling_map(), delta)


def test_perturbation_distance_2d():
    a = matrix_map([[2, 0], [0, 2]])
    b = MapSpec(2, "affine_2d", (), matrix=((2, 0), (0, 2)),
                offset=(0.05, 0.0))
    assert is_perturbation(a, b, 0.05)
    assert not is_perturbation(a, b, 0.05 - 1e-9)
    c = matrix_map([[3, 0], [0, 3]])
    for delta in (0.0, 2.0):
        assert not is_perturbation(a, c, delta)


def _bisect(close, tol=1e-9):
    """Least delta in (0, 2] at which the monotone test `close` holds, to
    tolerance tol; close(2.0) must hold."""
    lo, hi = 0.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid <= tol:
            break
        if close(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return hi


def _sampled_distance(f, g, n=2 ** 14, pair_points=128):
    """Dense-sampled reference: C^0 and C^1 of each branch difference at
    n cell centres at least delta from both partitions' boundaries, and
    the Lipschitz quotient of the derivative difference over all pairs of
    about pair_points of those centres."""
    xs_all = (np.arange(n) + 0.5) / n
    bounds = np.r_[0.0, f.cuts, g.cuts]
    dist_bnd = np.min(torus_delta(xs_all[:, None], bounds[None, :]), axis=1)
    moved = max(max(torus_delta(bf.lo, bg.lo),
                    torus_delta(bf.hi % 1.0, bg.hi % 1.0))
                for bf, bg in zip(f.branches, g.branches))

    def close(delta):
        if moved >= delta:
            return False
        for bf, bg in zip(f.branches, g.branches):
            xs = xs_all[(xs_all >= max(bf.lo, bg.lo))
                        & (xs_all < min(bf.hi, bg.hi)) & (dist_bnd > delta)]
            if xs.size == 0:
                continue
            c0 = torus_delta(bf.value(xs) % 1.0, bg.value(xs) % 1.0).max()
            du = bf.deriv(xs) - bg.deriv(xs)
            stride = max(1, xs.size // pair_points)
            xp, dp = xs[::stride], du[::stride]
            dx = np.abs(xp[:, None] - xp[None, :])
            apart = dx > 0.0
            ch = (np.abs(dp[:, None] - dp[None, :])[apart]
                  / dx[apart]).max() if apart.any() else 0.0
            if c0 + np.abs(du).max() + ch >= delta:
                return False
        return True

    return _bisect(close)


PAIR_FAMILIES = st.sampled_from(["full_branch", "offsets_affine",
                            "offsets_quadratic", "quadratic_pair"])


def _map_pair(family, e1, e2, delta, seed):
    """A base map of the family and a perturbation of it."""
    rng = np.random.default_rng(seed)
    if family == "full_branch":
        cuts = [[0.5], [1 / 3, 2 / 3], [0.3, 0.55], [0.5, 0.75]]
        f = full_branch_map(cuts[rng.integers(len(cuts))])
        return f, perturb_full_branch(f, delta, rng)
    if family == "offsets_affine":
        f = [doubling_map(), beta_map(2.5),
             full_branch_map([0.3, 0.55])][rng.integers(3)]
        return f, perturb_offsets(f, delta, rng)
    if family == "offsets_quadratic":
        f = quadratic_full_branch(e1)
        return f, perturb_offsets(f, delta, rng)
    return quadratic_full_branch(e1), quadratic_full_branch(e2)


@settings(max_examples=40, deadline=None)
@given(family=PAIR_FAMILIES, e1=st.floats(-0.5, 0.5),
       e2=st.floats(-0.5, 0.5), delta=st.floats(0.001, 0.1),
       seed=st.integers(0, 2 ** 32 - 1))
# the difference of two quadratic_full_branch maps has its vertex in the
# middle of each branch, where neither end of the domain sees it
@example(family="quadratic_pair", e1=0.03, e2=0.01, delta=0.05, seed=0)
def test_perturbation_distance_bounds_dense_sampling(family, e1, e2, delta,
                                                     seed):
    f, g = _map_pair(family, e1, e2, delta, seed)
    exact = _distance(f, g)
    ref = _sampled_distance(f, g)
    # the sup over the whole domain is never below a sup over samples; the
    # bisections agree up to their tolerance
    assert exact >= ref - 2e-9
    # a sample lies within h of every point, so the sampled sum is short by
    # at most h*(sup|q'| + |q''|), and a domain too short to hold two
    # samples vanishes within 1.5*h more of delta
    h = 1.0 / 2 ** 14
    slope = max(
        abs(bf.coeffs[1] - bg.coeffs[1]) + 4.0 * abs(
            (bf.coeffs[2] if len(bf.coeffs) == 3 else 0.0)
            - (bg.coeffs[2] if len(bg.coeffs) == 3 else 0.0))
        for bf, bg in zip(f.branches, g.branches))
    assert exact <= ref + (slope + 2.0) * h + 2e-9


@settings(max_examples=40, deadline=None)
@given(family=PAIR_FAMILIES, e1=st.floats(-0.5, 0.5),
       e2=st.floats(-0.5, 0.5), delta=st.floats(0.001, 0.1),
       seed=st.integers(0, 2 ** 32 - 1),
       scales=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8))
def test_is_perturbation_monotone_in_delta(family, e1, e2, delta, seed,
                                           scales):
    # the deltas that pass form one ray [d, oo): every delta at or above
    # the bisected least one passes, every delta clear below it fails
    f, g = _map_pair(family, e1, e2, delta, seed)
    exact = _distance(f, g)
    for d in (s * exact for s in scales):
        if d >= exact:
            assert is_perturbation(f, g, d)
        elif d < exact - 2e-9:
            assert not is_perturbation(f, g, d)


@settings(max_examples=60, deadline=None)
@given(q=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                   st.floats(-2.0, 2.0)),
       a=st.floats(0.0, 1.0), length=st.floats(1e-3, 1.0))
# q ranges over (0.42, 0.58): the distance to Z peaks at 1/2 inside the
# range, above its value at either end
@example(q=(0.4, 0.2, 0.0), a=0.1, length=0.8)
# a short domain, where the reference's Lipschitz quotients round the most
@example(q=(0.0, 1.0, 1.0), a=0.0, length=0.015625)
# q' = q1 + 2*q2*x cancels to below 0.01 from terms near 0.8 each: its
# divided differences round by ~eps*0.8, not ~eps*max|q'|
@example(q=(0.0, 0.8125, -1.84375), a=0.21875, length=2**-8)
def test_quadratic_size_is_dense_supremum(q, a, length):
    b = a + length
    xs = np.linspace(a, b, 4001)
    q0, q1, q2 = q
    y = q0 + xs * (q1 + xs * q2)
    dq = q1 + 2.0 * q2 * xs
    # every 40th point keeps both ends, so the widest pair spans (a, b)
    xp, dp = xs[::40], dq[::40]
    dx = np.abs(xp[:, None] - xp[None, :])
    apart = dx > 0.0
    ch = (np.abs(dp[:, None] - dp[None, :])[apart] / dx[apart]).max()
    ref = np.abs(y - np.round(y)).max() + np.abs(dq).max() + ch
    got = maps._quadratic_size(q, a, b)
    # each sample of q' rounds by ~eps times the terms it sums, |q1| and
    # |2*q2*x|, which may cancel to a far smaller |q'|; a divided
    # difference carries two such errors over the closest pair spacing,
    # length/100
    terms = abs(q1) + 2.0 * abs(q2) * max(abs(a), abs(b))
    slack = 1e-12 + 4.0 * np.finfo(float).eps * terms / (length / 100.0)
    assert ref - slack <= got <= ref + np.abs(dq).max() * length / 4000 + slack


def test_expanding_sequence_bound_multiplies():
    seq = MapSequence.constant(doubling_map(), 3)
    s = 1.0
    for k in range(1, 4):
        s *= seq.at(k).s
    assert abs(s - 0.125) < 1e-15
