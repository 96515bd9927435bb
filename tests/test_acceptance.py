"""End-to-end acceptance gate.

Eleven checks covering the exact oracles, the certificate pipeline and
both experiment regimes.  Each check prints one verdict line outside
pytest's capture so the pass/fail record shows in the raw terminal log,
and the stated runtime budgets are asserted, not just observed.
"""
import time

import numpy as np
from mpmath import mp, mpf

from opendyn.cone import (ConeParams, birkhoff_factor, c_lip, delta0,
                          rate_constants, select_parameters,
                          sample_cone_density, verify_cone_contraction)
from opendyn.experiments import emit_report, run_global, run_local
from opendyn.holes import HoleSequence, interval_hole, survivor_measure
from opendyn.maps import MapSequence, affine_map, balance_check, doubling_map
from opendyn.mixing import find_mixing_time, mixing_ratios, random_hole
from opendyn.phase import Grid, dyadic_partition
from opendyn.seminorm import (SeminormSpec, control_bounds_check,
                              estimate_LY, total_variation)
from opendyn.transfer import (GridDensity, build_closed, build_open,
                              escape_mass, evolve)

TV = SeminormSpec.from_config({"kind": "tv"})

mp.dps = 60


def _verdict(capsys, idx, label, ok, extra=""):
    tail = f"  [{extra}]" if extra else ""
    line = f"acceptance {idx:>2}: {'PASS' if ok else 'FAIL'}  {label}{tail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def random_expanding_map(rng):
    # same admissible class as the transfer tests: slope >= 2 plus an
    # injective branch image forces length <= 1/2, so two branches pin
    # the cut at 1/2 and both slopes at exactly 2
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


def certified_doubling_setup(n=4096):
    g = Grid(1, n)
    op = build_closed(doubling_map(), g)
    cert = estimate_LY([op] * 4, 1, TV, 16, seed=11)
    pool = [dyadic_partition(g, L) for L in range(1, 9)]
    cp = select_parameters(0.9, 1.1, cert.theta, cert.C, 1, TV, pool,
                           op, 0.5, 16)
    return g, [op] * cp.T, cert, cp


def test_01_exact_dyadic_survivor_oracle(capsys):
    t0 = time.perf_counter()
    g = Grid(1, 4096)
    seq = MapSequence.constant(doubling_map(), 10)
    holes = HoleSequence.static(interval_hole(0.0, 0.5), 10)
    worst = 0.0
    for m in range(1, 11):
        worst = max(worst, abs(survivor_measure(seq, holes, m, g) - 2.0 ** -m))
    traj = [GridDensity.uniform(g)] + evolve(seq, holes,
                                             GridDensity.uniform(g), 10)
    esc = escape_mass(traj)
    for k, e in enumerate(esc, start=1):
        worst = max(worst, abs(e - 2.0 ** -k))
    dt = time.perf_counter() - t0
    _verdict(capsys, 1, "dyadic survivor and escape-mass oracle",
             worst <= 1e-12 and dt < 5.0,
             f"worst err {worst:.2e}, {dt:.2f}s")


def test_02_operator_stochasticity(capsys):
    t0 = time.perf_counter()
    g = Grid(1, 1024)
    rng = np.random.default_rng(2024)
    worst_closed, worst_open = 0.0, 0.0
    for _ in range(20):
        mspec = random_expanding_map(rng)
        closed = build_closed(mspec, g)
        worst_closed = max(worst_closed,
                           float(np.abs(closed.column_sums() - 1.0).max()))
        hole = random_hole(1, 0.1, rng)
        opened = build_open(mspec, hole, g)
        worst_open = max(worst_open, float(opened.column_sums().max()) - 1.0)
    dt = time.perf_counter() - t0
    _verdict(capsys, 2, "Ulam column sums on 20 random expanding maps",
             worst_closed <= 1e-10 and worst_open <= 1e-12 and dt < 10.0,
             f"closed {worst_closed:.2e}, open excess {worst_open:.2e}, "
             f"{dt:.2f}s")


def test_03_mixing_oracle_dyadic(capsys):
    g = Grid(1, 4096)
    doub = doubling_map()
    ok = True
    for n in (1, 2, 3, 4):
        Q = dyadic_partition(g, n)
        for i in range(n, 13):
            rmin, rmax = mixing_ratios(doub, Q, i)
            ok = ok and abs(rmin - 1.0) <= 1e-12 and abs(rmax - 1.0) <= 1e-12
        ok = ok and find_mixing_time(doub, Q, 0.9, 1.1, 12) == n
    _verdict(capsys, 3, "dyadic mixing ratios exact, E = level", ok)


def test_04_lasota_yorke_contraction(capsys):
    g = Grid(1, 1024)
    op = build_closed(doubling_map(), g)
    rng = np.random.default_rng(44)
    violations = 0
    for _ in range(200):
        k = int(rng.integers(2, 24))
        edges = np.sort(rng.choice(np.arange(1, g.n), size=k, replace=False))
        heights = rng.uniform(0.1, 3.0, k + 1)
        vals = np.repeat(heights, np.diff(np.r_[0, edges, g.n]))
        phi = GridDensity(g, vals)
        tv0 = total_variation(phi)
        tv1 = total_variation(GridDensity(g, op.matrix @ phi.values))
        if tv1 > 0.5 * tv0 * (1.0 + 1e-12) + 1e-15:
            violations += 1
    cert = estimate_LY([op] * 4, 1, TV, 24, seed=11)
    ok = (violations == 0 and cert.theta <= 0.5 + 1e-9 and cert.C <= 1e-9)
    _verdict(capsys, 4, "TV halves under the doubling operator, LY certified",
             ok, f"theta {cert.theta}, C {cert.C:.2e}")


def test_05_control_bounds_on_certified_block(capsys):
    g, block, cert, cp = certified_doubling_setup()
    rng = np.random.default_rng(21)
    violations = 0
    for _ in range(100):
        phi = sample_cone_density(g, cp.Q, cp.a, TV, rng)
        rep = control_bounds_check(block, cp.Q, 0.9, 1.1, cp.a, cp.M, phi,
                                   TV)
        if not (rep.lower_ok and rep.upper_ok):
            violations += 1
    _verdict(capsys, 5, "two-sided expectation control on 100 cone samples",
             violations == 0, f"T={cp.T}, |Q|={len(cp.Q.elements)}")


def test_06_cone_contraction_with_selected_params(capsys):
    g, block, cert, cp = certified_doubling_setup()
    rep = verify_cone_contraction(block, cp, samples=100, seed=4,
                                  theta_LY=cert.theta, C_LY=cert.C, T1=1)
    ok = rep.ok and rep.violations == [] and rep.worst_ratio <= cp.sigma
    _verdict(capsys, 6, "block image lies in the sigma*a cone, 100 samples",
             ok, f"worst ratio {rep.worst_ratio:.4f} <= {cp.sigma}")


def test_07_constants_vs_high_precision(capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        sigma = float(rng.uniform(0.1, 0.9))
        zeta1 = float(rng.uniform(0.5, 0.99))
        zeta2 = float(rng.uniform(1.01, 1.5))
        T = int(rng.integers(1, 20))
        adm = float(rng.uniform(0.0, 0.8) * zeta1 / zeta2)
        a = float(rng.uniform(1.0, 50.0))
        cp = ConeParams(a=a, sigma=sigma, T=T, zeta1=zeta1, zeta2=zeta2,
                        seminorm=TV, d=adm / a, M=1.0)
        s, z1, z2, x = mpf(sigma), mpf(zeta1), mpf(zeta2), mpf(adm)
        d0 = 2 * mp.log((1 + s) / (1 - s)) \
            + 2 * mp.log(z2 * (1 + x) / (z1 - z2 * x))
        tanh = mp.tanh(d0 / 4)
        lam = tanh ** (mpf(1) / T)
        clip = 2 / (z1 - z2 * x)
        c0 = clip * max(d0, mpf(1)) * mp.e ** d0 / tanh ** 2
        rc = rate_constants(cp)
        for got, ref in ((delta0(cp), d0),
                         (birkhoff_factor(delta0(cp)), tanh),
                         (c_lip(cp), clip), (rc.lam, lam), (rc.c0, c0)):
            worst = max(worst, abs(got - float(ref)) / abs(float(ref)))
    _verdict(capsys, 7, "closed-form constants match 60-digit evaluation",
             worst <= 1e-12, f"worst rel err {worst:.2e}")


def test_08_local_memory_loss(capsys):
    cfg = {
        "kind": "local",
        "grid": {"dimension": 1, "n": 4096},
        "seed": 7,
        "horizon": 40,
        "map": {"kind": "full_branch_1d", "cuts": [0.5]},
        "delta": 0.02,
        "holes": {"kind": "drifting_interval", "measure": 0.01,
                  "center": 0.3, "velocity": 0.137},
        "psi": {"kind": "cosine_bump", "amplitude": 0.15},
        "zeta1": 0.8, "zeta2": 1.2, "sigma": 0.5, "T1": 1,
        "seminorm": {"kind": "tv"},
        "certificates": {"ensemble_size": 24, "k_max": 4, "i_max": 16,
                         "max_level": 8, "ly_seed": 11,
                         "stability_samples": 6},
    }
    t0 = time.perf_counter()
    res = run_local(cfg)
    dt = time.perf_counter() - t0
    c_fit, lam_fit, r2 = res.fit
    c0, lam = res.constants["c0"], res.constants["lambda"]
    dominated = all(r["l1_distance"] <= c0 * lam ** r["m"] + b + 1e-12
                    for r, b in zip(res.records, res.budget))
    ok = (res.passed and r2 >= 0.95 and lam_fit < 1.0 and dominated
          and dt < 60.0)
    _verdict(capsys, 8, "perturbed-doubling run: exponential memory loss",
             ok, f"lam_fit {lam_fit:.4f}, R2 {r2:.4f}, {dt:.1f}s")


def test_09_global_slope_traversal(capsys):
    cfg = {
        "kind": "global",
        "grid": {"dimension": 1, "n": 4096},
        "seed": 7,
        "horizon": 60,
        "family": {"name": "slopes_2_to_3", "u_start": 0.0, "u_end": 1.0,
                   "step": "auto", "cert_samples": 5},
        "delta": 0.05,
        "holes": {"kind": "random_intervals", "epsilon": 0.005},
        "psi": {"kind": "cosine_bump", "amplitude": 0.15},
        "zeta1": 0.8, "zeta2": 1.2, "sigma": 0.5, "T1": 1,
        "seminorm": {"kind": "tv"},
        "certificates": {"ensemble_size": 24, "k_max": 4, "i_max": 16,
                         "max_level": 8, "ly_seed": 11},
    }
    t0 = time.perf_counter()
    res = run_global(cfg)
    dt = time.perf_counter() - t0
    c_fit, lam_fit, r2 = res.fit
    step_ok = res.constants["step"] <= res.constants["sigma_estimate"] + 1e-15
    ok = (res.passed and r2 >= 0.95 and lam_fit < 1.0 and step_ok
          and dt < 120.0)
    _verdict(capsys, 9, "slope 2->3 traversal under the final-T speed limit",
             ok, f"lam_fit {lam_fit:.4f}, R2 {r2:.4f}, {dt:.1f}s")


def test_10_balance_inequality(capsys):
    val_ok, is_ok = balance_check(1.0 / 16, 2.0, 1.0, 1)
    val_bad, is_bad = balance_check(0.5, 2.0, 1.0, 1)
    ok = (abs(val_ok - 0.3292) <= 1e-4 and is_ok
          and abs(val_bad - 4.5) <= 1e-12 and not is_bad)
    _verdict(capsys, 10, "balance inequality worked instances",
             ok, f"{val_ok:.6f} ok / {val_bad} rejected")


def test_11_byte_identical_reruns(capsys, tmp_path):
    cfg = {
        "kind": "local",
        "grid": {"dimension": 1, "n": 512},
        "seed": 3,
        "horizon": 16,
        "map": {"kind": "full_branch_1d", "cuts": [0.5]},
        "delta": 0.01,
        "holes": {"kind": "drifting_interval", "measure": 0.005,
                  "center": 0.3, "velocity": 0.137},
        "psi": {"kind": "cosine_bump", "amplitude": 0.15},
        "zeta1": 0.8, "zeta2": 1.2,
        "seminorm": {"kind": "tv"},
        "certificates": {"stability_samples": 2},
    }
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        emit_report(run_local(dict(cfg)), str(out))
        paths.append(out)
    same_csv = (paths[0] / "report.csv").read_bytes() == \
        (paths[1] / "report.csv").read_bytes()
    same_sum = (paths[0] / "report_summary.json").read_bytes() == \
        (paths[1] / "report_summary.json").read_bytes()
    _verdict(capsys, 11, "identical config and seed give identical artifacts",
             same_csv and same_sum)
