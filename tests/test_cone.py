import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from opendyn import cone, phase
from opendyn.cone import (ConeParams, birkhoff_factor, c_lip, delta0,
                          hilbert_distance_bound, rate_constants,
                          sample_cone_density, select_parameters,
                          verify_cone_contraction)
from opendyn.errors import CertificateError, ConfigError
from opendyn.maps import doubling_map, full_branch_map
from opendyn.mixing import certify_mixing
from opendyn.phase import Grid, dyadic_partition, dyadic_pool
from opendyn.seminorm import (ConeCheck, SeminormSpec, cone_member,
                              estimate_LY)
from opendyn.transfer import GridDensity, build_closed

TV = SeminormSpec.from_config({"kind": "tv"})
# x -> 256x mixes every dyadic level of n = 1024 in one step, so its
# mixing time never lifts T above the theta-floor
G1024 = Grid(1, 1024)
X256 = build_closed(full_branch_map([k / 256 for k in range(1, 256)]), G1024)

mp.dps = 60


def mp_delta0(sigma, zeta1, zeta2, adm):
    s, z1, z2, x = mpf(sigma), mpf(zeta1), mpf(zeta2), mpf(adm)
    return 2 * mp.log((1 + s) / (1 - s)) + 2 * mp.log(z2 * (1 + x) / (z1 - z2 * x))


def mp_rate(sigma, zeta1, zeta2, adm, T):
    d0 = mp_delta0(sigma, zeta1, zeta2, adm)
    tanh = mp.tanh(d0 / 4)
    lam = tanh ** (mpf(1) / T)
    clip = 2 / (mpf(zeta1) - mpf(zeta2) * mpf(adm))
    c0 = clip * max(d0, mpf(1)) * mp.e ** d0 / tanh ** 2
    return d0, tanh, lam, clip, c0


def test_cone_params_validation():
    with pytest.raises(ConfigError):
        ConeParams(a=1.0, sigma=1.5, T=1, zeta1=0.9, zeta2=1.1, seminorm=TV)
    with pytest.raises(ConfigError):
        ConeParams(a=-1.0, sigma=0.5, T=1, zeta1=0.9, zeta2=1.1, seminorm=TV)
    with pytest.raises(ConfigError):
        ConeParams(a=1.0, sigma=0.5, T=1, zeta1=1.1, zeta2=0.9, seminorm=TV)
    for a, T in ((0.0, 1), (1.0, 0)):
        with pytest.raises(ConfigError, match="a > 0 and T >= 1"):
            ConeParams(a=a, sigma=0.5, T=T, zeta1=0.9, zeta2=1.1, seminorm=TV)
    for d, M in ((-0.5, 1.0), (0.1, 0.0), (0.1, -1.0)):
        with pytest.raises(ConfigError, match="d >= 0 and M > 0"):
            ConeParams(a=1.0, sigma=0.5, T=1, zeta1=0.9, zeta2=1.1,
                       seminorm=TV, d=d, M=M)


def test_audit_flags_each_inequality():
    cp = ConeParams(a=1.0, sigma=0.5, T=2, zeta1=0.9, zeta2=1.1, seminorm=TV,
                    d=0.25, M=1.0, E=4)
    # T below the mixing time
    fails = cp.audit(theta_LY=0.5, C_LY=0.0, T1=1)
    assert any("mixing time" in f for f in fails)
    # contraction inequality violated for theta close to 1
    fails2 = dataclasses.replace(cp, E=1).audit(theta_LY=0.99, C_LY=1.0, T1=1)
    assert any("sigma*a" in f for f in fails2)
    # degenerate lower coefficient
    cp3 = ConeParams(a=10.0, sigma=0.5, T=2, zeta1=0.9, zeta2=1.1, seminorm=TV,
                     d=0.25, M=1.0, E=1)
    fails3 = cp3.audit(theta_LY=0.5, C_LY=0.0, T1=1)
    assert any("not positive" in f for f in fails3)


def test_select_parameters_analytic_worked_case():
    # zeta = (0.9, 1.1), theta = 0.5, C = 1, T1 = 1, sigma = 0.5:
    # T = 3 (0.125/0.45 < 0.5), a = 1/(0.225 - 0.125) = 10, so the
    # diameter must be at most 0.45 / (1.1 * 10): 32 arcs, where x -> 256x
    # mixes in one step
    cp = select_parameters(0.9, 1.1, 0.5, 1.0, 1, TV, dyadic_pool(G1024, 8),
                           X256, 0.5, 2)
    assert cp.T == 3
    assert abs(cp.a - 10.0) < 1e-12
    assert (cp.Q.n_elements, cp.d, cp.E) == (32, 1 / 32, 1)


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
       C=st.floats(1e-12, 1e3), sigma=st.floats(0.01, 0.99),
       zeta1=st.floats(0.01, 0.99), zeta2=st.floats(1.01, 10.0),
       T1=st.integers(1, 3))
def test_analytic_aperture_is_its_closed_form(theta, C, sigma, zeta1, zeta2,
                                               T1):
    # T is the least multiple of T1 with theta^T/(zeta1/2) < sigma, and a
    # the least aperture meeting (a*theta^T + C)/(zeta1/2) <= sigma*a,
    # bit for bit, with no rounding step that could enlarge it
    try:
        cp = select_parameters(zeta1, zeta2, theta, C, T1, TV,
                               dyadic_pool(G1024, 8), X256, sigma, 2)
    except CertificateError as exc:
        # an aperture too wide for the finest level's 256 arcs
        assert "partition family exhausted" in str(exc)
        return
    half = zeta1 / 2.0
    assert cp.T % T1 == 0 and theta ** cp.T / half < sigma
    assert cp.T == T1 or theta ** (cp.T - T1) / half >= sigma
    assert cp.a == max(C / (sigma * half - theta ** cp.T), 1.0)
    assert cp.audit(theta, C, T1) == []


def test_select_parameters_exact_aperture_admits_shorter_block():
    # the doubling map and its dyadic pool with theta = 0.4, C = 0.1: T = 2,
    # a = 0.1/(0.225 - 0.16) = 1.538..., so 4 arcs (1.1*a/4 <= 0.45) with
    # E = 2 <= T; a doubled aperture would need 8 arcs, E = 3, and T = 3
    g = Grid(1, 4096)
    cp = select_parameters(0.9, 1.1, 0.4, 0.1, 1, TV, dyadic_pool(g, 8),
                           build_closed(doubling_map(), g), 0.5, 16)
    assert cp.T == 2
    assert cp.a == 0.1 / (0.225 - 0.4 ** 2)
    assert (cp.Q.n_elements, cp.E) == (4, 2)


def test_select_parameters_certified_doubling_fixpoint():
    # with the dyadic pool and the doubling map the analytic T = 3 pick
    # needs 32 arcs whose mixing time is 5 > 3; the rerun from T = 5
    # settles at a = 5.16..., 16 arcs, E = 4 <= 5
    g = Grid(1, 4096)
    pool = [dyadic_partition(g, L) for L in range(1, 9)]
    cp = select_parameters(0.9, 1.1, 0.5, 1.0, 1, TV, pool,
                           build_closed(doubling_map(), g), 0.5, 16)
    assert cp.T == 5
    assert abs(cp.a - 5.161290322580645) < 1e-12
    assert len(cp.Q.elements) == 16
    assert abs(cp.d - 0.0625) < 1e-15
    assert cp.E == 4
    assert cp.audit(0.5, 1.0, 1) == []
    # the certificate selection computed E in is the one certify_mixing gives
    assert cp.mixing.to_config() == certify_mixing(doubling_map(), cp.Q, 0.9,
                                                   1.1, 16).to_config()


def test_select_parameters_tiny_C_uses_floor_aperture():
    g = Grid(1, 4096)
    pool = [dyadic_partition(g, L) for L in range(1, 9)]
    cp = select_parameters(0.9, 1.1, 0.5, 1e-12, 1, TV, pool,
                           build_closed(doubling_map(), g), 0.5, 16)
    assert cp.a == 1.0
    assert cp.T == 3
    assert cp.E == 2


@pytest.mark.parametrize("C, drawn, elements", [
    # a = 1 admits 4 arcs at once
    (1e-12, [1, 2], 4),
    # T = 3 admits 32 arcs; the rerun from T = 5 settles on 16, drawn
    # already, so no level past 5 is built
    (1.0, [1, 2, 3, 4, 5], 16)])
def test_select_parameters_draws_pool_lazily(monkeypatch, C, drawn, elements):
    g = Grid(1, 4096)
    base = build_closed(doubling_map(), g)
    eager = select_parameters(0.9, 1.1, 0.5, C, 1, TV,
                              [dyadic_partition(g, L) for L in range(1, 9)],
                              base, 0.5, 16)
    levels = []

    def counted(grid, level):
        levels.append(level)
        return dyadic_partition(grid, level)

    monkeypatch.setattr(phase, "dyadic_partition", counted)
    lazy = select_parameters(0.9, 1.1, 0.5, C, 1, TV, dyadic_pool(g, 8),
                             base, 0.5, 16)
    assert levels == drawn
    assert lazy.Q.n_elements == elements
    assert lazy.to_config() == eager.to_config()
    assert lazy.mixing.to_config() == eager.mixing.to_config()


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.05, 0.9), C=st.floats(1e-3, 3.0),
       zeta1=st.floats(0.6, 0.95), zeta2=st.floats(1.05, 2.0),
       sigma=st.floats(0.3, 0.8), T1=st.integers(1, 3),
       i_max=st.integers(6, 19),
       cuts=st.lists(st.integers(1, 19), min_size=1, max_size=3, unique=True),
       level=st.integers(8, 10))
def test_select_parameters_returns_its_fixpoint(theta, C, zeta1, zeta2, sigma,
                                                T1, i_max, cuts, level):
    # the returned (T, a, Q) is a fixpoint of the ordered choice: a is the
    # aperture at T, Q the first pool partition a admits, and T a block
    # length past Q's mixing time
    # branches at most 0.6 long expand by at least 5/3
    assume(np.diff([0] + sorted(cuts) + [20]).max() <= 12)
    g = Grid(1, 2 ** level)
    pool = list(dyadic_pool(g, 8))
    base = build_closed(full_branch_map(sorted(c / 20 for c in cuts)), g)
    try:
        cp = select_parameters(zeta1, zeta2, theta, C, T1, TV, pool, base,
                               sigma, i_max)
    except CertificateError:
        return
    half = zeta1 / 2.0
    assert cp.a == max(C / (sigma * half - theta ** cp.T), 1.0)
    assert cp.Q is next(Q for Q in pool
                        if zeta2 * cp.a * TV.diam(Q) / TV.M(Q) <= half)
    assert cp.mixing.partition is cp.Q and cp.E == cp.mixing.E
    assert cp.T >= cp.mixing.E and cp.T % T1 == 0


def test_select_parameters_input_validation(deadline):
    g = Grid(1, 4096)
    base = build_closed(doubling_map(), g)
    with pytest.raises(ConfigError):
        select_parameters(0.9, 1.1, 1.5, 1.0, 1, TV, dyadic_pool(g, 8), base)
    with pytest.raises(ConfigError):
        select_parameters(0.0, 1.1, 0.5, 1.0, 1, TV, dyadic_pool(g, 8), base)
    for theta, C, zeta2, sigma, match in (
            (0.0, 1.0, 1.1, 0.5, "theta_LY"), (0.5, -1.0, 1.1, 0.5, "C_LY"),
            (0.5, 1.0, 1.0, 0.5, "zeta2"), (0.5, 1.0, 1.1, 1.0, "sigma")):
        with pytest.raises(ConfigError, match=match):
            select_parameters(0.9, zeta2, theta, C, 1, TV, dyadic_pool(g, 8),
                              base, sigma)
    # a block of T1 = 0 steps would grow T by nothing, forever
    with deadline(10), pytest.raises(ConfigError, match="T1"):
        select_parameters(0.9, 1.1, 0.5, 1.0, 0, TV, dyadic_pool(g, 8), base)
    with pytest.raises(CertificateError, match="T diverges"):
        select_parameters(0.9, 1.1, 1.0 - 1e-9, 1.0, 1, TV,
                          dyadic_pool(g, 8), base)
    with pytest.raises(CertificateError, match="partition family exhausted"):
        # pool has only partitions too coarse for the required diameter
        select_parameters(0.9, 1.1, 0.5, 1.0, 1, TV,
                          [dyadic_partition(g, 1)], base, 0.5, 16)
    with pytest.raises(ConfigError):
        # the base operator must live on the grid of the partitions
        select_parameters(0.9, 1.1, 0.5, 1.0, 1, TV,
                          [dyadic_partition(Grid(1, 2048), L)
                           for L in range(1, 9)], base, 0.5, 16)
    with pytest.raises(ConfigError):
        # a rerun may pick any drawn partition, so each is checked
        select_parameters(0.9, 1.1, 0.5, 1.0, 1, TV,
                          [dyadic_partition(Grid(1, 2048), 1)]
                          + [dyadic_partition(g, L) for L in range(2, 9)],
                          base, 0.5, 16)
    with pytest.raises(CertificateError, match="no mixing time"):
        # no dyadic level of the doubling map mixes in one step
        g = Grid(1, 1024)
        select_parameters(0.9, 1.1, 0.5, 1.0, 1, TV,
                          [dyadic_partition(g, L) for L in range(1, 9)],
                          build_closed(doubling_map(), g), 0.5, 1)


def test_constants_worked_oracle():
    cp = ConeParams(a=1.0, sigma=0.5, T=8, zeta1=0.9, zeta2=1.1, seminorm=TV,
                    d=1.0 / 11, M=1.0)
    assert abs(delta0(cp) - 3.008154793552548) < 1e-14
    assert abs(birkhoff_factor(delta0(cp)) - 0.6363636363636362) < 1e-14
    assert abs(c_lip(cp) - 2.5) < 1e-15
    rc = rate_constants(cp)
    assert abs(rc.lam - 0.9450682418782621) < 1e-14
    assert abs(rc.c0 - 376.0577185154148) < 1e-10


def test_constants_against_high_precision():
    rng = np.random.default_rng(123)
    for _ in range(50):
        sigma = float(rng.uniform(0.1, 0.9))
        zeta1 = float(rng.uniform(0.5, 0.99))
        zeta2 = float(rng.uniform(1.01, 1.5))
        T = int(rng.integers(1, 20))
        # keep the lower coefficient safely positive
        adm = float(rng.uniform(0.0, 0.8) * zeta1 / zeta2)
        a = float(rng.uniform(1.0, 50.0))
        cp = ConeParams(a=a, sigma=sigma, T=T, zeta1=zeta1, zeta2=zeta2,
                        seminorm=TV, d=adm / a, M=1.0)
        d0_ref, tanh_ref, lam_ref, clip_ref, c0_ref = mp_rate(
            sigma, zeta1, zeta2, adm, T)
        assert abs(delta0(cp) - float(d0_ref)) <= 1e-12 * abs(float(d0_ref))
        assert abs(birkhoff_factor(delta0(cp)) - float(tanh_ref)) \
            <= 1e-12 * float(tanh_ref)
        assert abs(c_lip(cp) - float(clip_ref)) <= 1e-12 * float(clip_ref)
        rc = rate_constants(cp)
        assert abs(rc.lam - float(lam_ref)) <= 1e-12 * float(lam_ref)
        assert abs(rc.c0 - float(c0_ref)) <= 1e-12 * float(c0_ref)


def test_birkhoff_factor_edges():
    assert birkhoff_factor(np.inf) == 1.0
    assert birkhoff_factor(0.0) == 0.0
    with pytest.raises(ConfigError):
        birkhoff_factor(-1.0)


def test_delta0_requires_positive_lower_coefficient():
    cp = ConeParams(a=10.0, sigma=0.5, T=1, zeta1=0.9, zeta2=1.1, seminorm=TV,
                    d=0.25, M=1.0)
    with pytest.raises(ConfigError):
        delta0(cp)


def test_hilbert_distance_bound_oracle():
    # element ratios r in {1.5, 0.75}: bound = 2 log 3 + log 1.5 - log 0.75
    g = Grid(1, 4096)
    Q = dyadic_partition(g, 1)
    cp = ConeParams(a=8.0, sigma=0.5, T=1, zeta1=0.9, zeta2=1.1, seminorm=TV,
                    Q=Q)
    phi = GridDensity.from_function(g, lambda x: np.where(x < 0.5, 1.5, 0.75))
    psi = GridDensity.uniform(g)
    hb = hilbert_distance_bound(phi, psi, cp)
    want = 2.0 * np.log(3.0) + np.log(1.5) - np.log(0.75)
    assert abs(hb - want) < 1e-12
    assert abs(hb - 2.8903717578961645) < 1e-12


def test_hilbert_distance_bound_preconditions():
    g = Grid(1, 1024)
    Q = dyadic_partition(g, 1)
    cp = ConeParams(a=1.0, sigma=0.5, T=1, zeta1=0.9, zeta2=1.1, seminorm=TV,
                    Q=Q)
    spiky = GridDensity.from_function(g, lambda x: 1.0 + 5.0 * (x < 0.01))
    with pytest.raises(CertificateError, match="contracted cone"):
        hilbert_distance_bound(spiky, GridDensity.uniform(g), cp)
    cp_noq = ConeParams(a=1.0, sigma=0.5, T=1, zeta1=0.9, zeta2=1.1,
                        seminorm=TV)
    with pytest.raises(ConfigError):
        hilbert_distance_bound(GridDensity.uniform(g),
                               GridDensity.uniform(g), cp_noq)


def test_sample_cone_density_membership():
    g = Grid(1, 2048)
    Q = dyadic_partition(g, 4)
    rng = np.random.default_rng(17)
    for a in (1.0, 5.0, 20.0):
        for _ in range(20):
            phi = sample_cone_density(g, Q, a, TV, rng)
            chk = cone_member(phi, a, Q, TV)
            assert chk.ok
            assert phi.values.min() >= 0.0


def test_sample_cone_density_checks_membership(monkeypatch):
    # the membership check is a raise, not an assert, so it holds under -O
    g = Grid(1, 256)
    monkeypatch.setattr(cone, "cone_member",
                        lambda *args: ConeCheck(False, -1.0, 2.0, 1.0))
    with pytest.raises(CertificateError, match="not in the aperture-2 cone"):
        sample_cone_density(g, dyadic_partition(g, 2), 2.0, TV,
                            np.random.default_rng(0))


def test_verify_cone_contraction_certified():
    g = Grid(1, 4096)
    op = build_closed(doubling_map(), g)
    cert = estimate_LY([op] * 4, 1, TV, 16, seed=11)
    pool = [dyadic_partition(g, L) for L in range(1, 9)]
    cp = select_parameters(0.9, 1.1, cert.theta, cert.C, 1, TV, pool,
                           op, 0.5, 16)
    rep = verify_cone_contraction([op] * cp.T, cp, samples=30, seed=4,
                                  theta_LY=cert.theta, C_LY=cert.C, T1=1)
    assert rep.ok
    assert rep.worst_ratio <= cp.sigma
    assert rep.violations == []
    # the block is exactly cp.T operators
    for n_ops in (cp.T - 1, cp.T + 1):
        with pytest.raises(ConfigError):
            verify_cone_contraction([op] * n_ops, cp, samples=3, seed=4,
                                    theta_LY=cert.theta, C_LY=cert.C, T1=1)


def test_verify_cone_contraction_rejects_bad_params():
    g = Grid(1, 2048)
    ops = [build_closed(doubling_map(), g)] * 2
    bad = ConeParams(a=10.0, sigma=0.5, T=2, zeta1=0.9, zeta2=1.1, seminorm=TV,
                     Q=dyadic_partition(g, 2), d=0.25, M=1.0)
    with pytest.raises(CertificateError, match=r"\(P3\)"):
        verify_cone_contraction(ops, bad, samples=5, seed=0,
                                theta_LY=0.5, C_LY=1.0, T1=1)
