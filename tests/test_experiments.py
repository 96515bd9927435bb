import copy
import json
import math
import pathlib

import numpy as np
import pytest

import opendyn.cone
import opendyn.experiments
import opendyn.mixing
import opendyn.seminorm
from opendyn.errors import (CertificateError, ConfigError, ParameterError,
                            TotalEscapeError)
from opendyn.experiments import (FAMILIES, ExperimentConfig, _execute,
                                 build_density, emit_report, fit_exponential,
                                 hole_schedule, run_global,
                                 run_local)
from opendyn.holes import HoleSequence, interval_hole
from opendyn.maps import MapSequence, doubling_map
from opendyn.phase import Grid
from opendyn.seminorm import SeminormSpec
from opendyn.transfer import (GridDensity, build_closed, evolve, normalize,
                              schedule_operators)


LOCAL_CFG = {
    "kind": "local",
    "grid": {"dimension": 1, "n": 1024},
    "seed": 7,
    "horizon": 24,
    "map": {"kind": "full_branch_1d", "cuts": [0.5]},
    "delta": 0.02,
    "holes": {"kind": "drifting_interval", "measure": 0.01,
              "center": 0.3, "velocity": 0.137},
    "psi": {"kind": "cosine_bump", "amplitude": 0.15},
    "zeta1": 0.8, "zeta2": 1.2, "sigma": 0.5, "T1": 1,
    "seminorm": {"kind": "tv"},
}


def test_fit_exponential_planted_geometric():
    series = [(m, 5.0 * 0.9 ** m) for m in range(1, 30)]
    C, lam, r2 = fit_exponential(series)
    assert abs(C - 5.0) < 1e-9
    assert abs(lam - 0.9) < 1e-9
    assert abs(r2 - 1.0) < 1e-9


def test_fit_exponential_constant_series():
    series = [(m, 0.25) for m in range(1, 10)]
    C, lam, r2 = fit_exponential(series)
    assert lam == 1.0 and r2 == 1.0
    assert abs(C - 0.25) < 1e-12


def test_fit_exponential_floor_and_minimum_points():
    with pytest.raises(ParameterError):
        fit_exponential([(1, 0.5), (2, 0.25)])
    # values at or below 1e-14 are ignored
    series = [(m, 5.0 * 0.5 ** m) for m in range(1, 10)]
    series += [(99, 1e-15), (100, 0.0)]
    C, lam, r2 = fit_exponential(series)
    assert abs(lam - 0.5) < 1e-9
    with pytest.raises(ParameterError):
        fit_exponential([(1, 0.0), (2, 0.0), (3, 1e-16)])


def test_fit_exponential_noisy_r2():
    rng = np.random.default_rng(0)
    series = [(m, 2.0 * 0.8 ** m * float(np.exp(rng.normal(0, 0.05))))
              for m in range(1, 40)]
    C, lam, r2 = fit_exponential(series)
    assert 0.75 < lam < 0.85
    assert r2 > 0.95


def test_hole_schedule_kinds_and_cap():
    rng = np.random.default_rng(1)
    seq = hole_schedule({"kind": "none"}, 5, 1, rng)
    assert all(h is None for h in seq.holes)
    drift = hole_schedule({"kind": "drifting_interval", "measure": 0.01,
                           "center": 0.0, "velocity": 0.3}, 8, 1, rng)
    assert all(abs(h.measure() - 0.01) < 1e-12 for h in drift.holes)
    rnd = hole_schedule({"kind": "random_intervals", "epsilon": 0.005},
                        8, 1, rng)
    assert all(h.measure() <= 0.005 + 1e-12 for h in rnd.holes)
    with pytest.raises(ConfigError):
        hole_schedule({"kind": "nonsense"}, 4, 1, rng)


def test_build_density_kinds():
    g = Grid(1, 512)
    rng = np.random.default_rng(0)
    u = build_density({"kind": "uniform"}, g, rng)
    assert abs(u.mass - 1.0) < 1e-15
    b = build_density({"kind": "cosine_bump", "amplitude": 0.3}, g, rng)
    assert abs(b.mass - 1.0) < 1e-12
    assert b.values.min() > 0.0
    blocks = build_density({"kind": "blocks", "blocks": 8}, g, rng)
    assert abs(blocks.mass - 1.0) < 1e-12
    with pytest.raises(ConfigError):
        build_density({"kind": "what"}, g, rng)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "sideways", "horizon": 10})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "local", "horizon": 1,
                                    "map": {"kind": "full_branch_1d",
                                            "cuts": [0.5]}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "local", "horizon": 10})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "global", "horizon": 10})


def _shipped_local(**changes) -> dict:
    cfg = json.loads((pathlib.Path(__file__).parents[1] / "configs"
                      / "local.json").read_text())
    return dict(cfg, **changes)


# configs/local.json with a static hole of a third of the circle: its open
# blocks never mix, and at horizon 6 only T = 3 leaves room for two blocks
NEVER_MIXING = {"horizon": 6, "grid": {"dimension": 1, "n": 1024},
                "holes": {"kind": "static",
                          "hole": {"dimension": 1,
                                   "intervals": [[0.3, 0.6]]}}}


def test_horizon_must_hold_two_selected_blocks():
    with pytest.raises(ConfigError, match=r"2T = 6"):
        run_local(_shipped_local(horizon=4))


def test_blocks_that_never_mix_are_a_certificate_failure():
    # T grows only while two blocks fit: a T past horizon/2 would check no
    # block at all and pass by default
    with pytest.raises(CertificateError, match="mixing window"):
        run_local(_shipped_local(**NEVER_MIXING))


def test_initial_density_outside_the_cone_is_refused():
    with pytest.raises(ConfigError, match="initial densities fail the cone"):
        run_local(_shipped_local(psi={"kind": "cosine_bump",
                                      "amplitude": 0.9}))


def test_run_local_flags_and_records():
    res = run_local(LOCAL_CFG)
    assert res.passed
    assert len(res.records) == 24
    assert res.records[0]["m"] == 1
    # survival decays with the hole but never jumps up
    masses = [r["mass_phi"] for r in res.records]
    assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(masses, masses[1:]))
    C, lam, r2 = res.fit
    assert lam < 1.0 and r2 >= 0.95
    assert len(res.budget) == 24
    assert res.constants["lambda"] < 1.0


def test_local_verdict_rests_on_the_runs_own_operators():
    # no flag or certificate speaks for schedules the run did not apply;
    # a certificates key the run no longer reads is still accepted
    res = run_local(dict(LOCAL_CFG, certificates={"stability_samples": 2}))
    assert res.passed
    assert set(res.flags) == {"bound_dominated", "fit_ok"}
    assert set(res.certificates) == {"cone_params", "ly", "mixing"}


def test_certificates_record_is_ignored(tmp_path):
    # every run certifies with one fixed recipe; a certificates record
    # that asks for another ensemble changes nothing but the config echo
    emit_report(run_local(LOCAL_CFG), str(tmp_path / "a"))
    emit_report(run_local(dict(LOCAL_CFG, certificates={"ensemble_size": 48})),
                str(tmp_path / "b"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    summary_a = json.loads((a / "report_summary.json").read_text())
    summary_b = json.loads((b / "report_summary.json").read_text())
    del summary_b["config_echo"]["certificates"]
    assert summary_a == summary_b


TORUS_CFG = {
    "kind": "local",
    "grid": {"dimension": 2, "n": 16},
    "seed": 7,
    "horizon": 12,
    "map": {"kind": "affine_2d", "matrix": [[3, 1], [1, 2]],
            "offset": [0.1, 0.2]},
    "holes": {"kind": "random_intervals", "epsilon": 0.02},
    "zeta1": 0.8, "zeta2": 1.2, "sigma": 0.5, "T1": 1,
    "seminorm": {"kind": "tv"},
}


@pytest.mark.parametrize("delta", [0.0, 0.01])
def test_torus_run_default_certificates(delta):
    # MAX_LEVEL exceeds what n = 16 resolves; the dyadic pool keeps only
    # the levels that divide the grid
    res = run_local(dict(TORUS_CFG, delta=delta))
    assert res.passed
    assert res.constants["T"] >= res.certificates["mixing"]["E"]


def test_run_local_wrong_kind_rejected():
    cfg = dict(LOCAL_CFG, kind="global", family={"name": "constant_doubling"})
    with pytest.raises(ConfigError):
        run_local(cfg)


def test_closed_unperturbed_run_matches_matrix_power():
    # a plain cosine dies in one doubling step; the sawtooth halves forever
    cfg = copy.deepcopy(LOCAL_CFG)
    cfg["delta"] = 0.0
    cfg["holes"] = {"kind": "none"}
    cfg["psi"] = {"kind": "sawtooth", "amplitude": 0.3}
    res = run_local(cfg)
    g = Grid(1, 1024)
    op = build_closed(doubling_map(), g)
    phi = GridDensity.uniform(g)
    x = g.centers()
    psi = GridDensity(g, 1.0 + 0.3 * (x - 0.5))
    for k, rec in enumerate(res.records, start=1):
        phi = GridDensity(g, op.matrix @ phi.values)
        psi = GridDensity(g, op.matrix @ psi.values)
        want = float(np.abs(normalize(phi).values
                            - normalize(psi).values).mean())
        assert abs(rec["l1_distance"] - want) < 1e-12
        assert abs(rec["mass_phi"] - phi.mass) < 1e-12


def test_execute_survives_underflow():
    # doubling with a static hole [0.3, 0.4): the unnormalized masses fall
    # below 1e-15 near step 315 and below 1e-19 by step 400
    g, m = Grid(1, 1024), 400
    ops = schedule_operators(MapSequence.constant(doubling_map(), m),
                             HoleSequence.static(interval_hole(0.3, 0.4), m),
                             m, g)
    phi0 = GridDensity.uniform(g)
    psi0 = GridDensity(g, 1.0 + 0.3 * (g.centers() - 0.5))
    records, _ = _execute(ops, phi0, psi0, SeminormSpec("tv"))
    assert [r["m"] for r in records] == list(range(1, m + 1))
    # reference: renormalize every step and carry the log-mass
    op = ops[0].matrix
    for key, dens in (("mass_phi", phi0), ("mass_psi", psi0)):
        v, log_mass = dens.values, 0.0
        for r in records:
            v = op @ v
            log_mass += math.log(v.mean())
            v = v / v.mean()
            assert math.isclose(r[key], math.exp(log_mass), rel_tol=1e-12)
    assert 0.0 < records[-1]["mass_phi"] < 1e-19
    # the first steps, before any underflow, keep every bit of a plain push
    phi, psi = phi0, psi0
    for r in records[:40]:
        phi = GridDensity(g, op @ phi.values)
        psi = GridDensity(g, op @ psi.values)
        assert (r["mass_phi"], r["mass_psi"]) == (phi.mass, psi.mass)
        assert r["l1_distance"] == float(
            np.abs(normalize(phi).values - normalize(psi).values).mean())


def test_execute_total_escape_names_step():
    # a hole over every cell centre at step 3 removes all mass
    g = Grid(1, 64)
    holes = HoleSequence((None, None, interval_hole(0.0, 0.999), None))
    ops = schedule_operators(MapSequence.constant(doubling_map(), 4), holes,
                             4, g)
    dens = GridDensity.uniform(g)
    with pytest.raises(TotalEscapeError, match="step 3"):
        _execute(ops, dens, dens, SeminormSpec("tv"))


def test_global_constant_family_reduces_to_local():
    gcfg = {
        "kind": "global",
        "grid": {"dimension": 1, "n": 1024},
        "seed": 7,
        "horizon": 24,
        "family": {"name": "constant_doubling", "u_start": 0.0, "u_end": 0.0,
                   "step": "auto", "cert_samples": 2},
        "delta": 0.0,
        "holes": {"kind": "drifting_interval", "measure": 0.01,
                  "center": 0.3, "velocity": 0.137},
        "psi": {"kind": "sawtooth", "amplitude": 0.3},
        "zeta1": 0.8, "zeta2": 1.2, "sigma": 0.5, "T1": 1,
        "seminorm": {"kind": "tv"},
    }
    lcfg = dict(LOCAL_CFG, delta=0.0,
                psi={"kind": "sawtooth", "amplitude": 0.3})
    res_g = run_global(gcfg)
    res_l = run_local(lcfg)
    assert res_g.passed and res_l.passed
    for a, b in zip(res_g.records, res_l.records):
        assert a["m"] == b["m"]
        assert abs(a["l1_distance"] - b["l1_distance"]) < 1e-15
        assert abs(a["mass_phi"] - b["mass_phi"]) < 1e-15


def test_global_step_cap_enforced():
    cfg = {
        "kind": "global",
        "grid": {"dimension": 1, "n": 512},
        "seed": 1,
        "horizon": 12,
        "family": {"name": "slopes_2_to_3", "u_start": 0.0, "u_end": 1.0,
                   "step": 0.5, "cert_samples": 2},
        "delta": 0.02,
        "holes": {"kind": "none"},
        "psi": {"kind": "cosine_bump", "amplitude": 0.15},
        "zeta1": 0.8, "zeta2": 1.2,
        "seminorm": {"kind": "tv"},
    }
    with pytest.raises(ConfigError):
        run_global(cfg)


def _global_seed5():
    # at this seed and grid the open blocks grow T from every sample's own
    # T = 3 to 4
    cfg = json.loads((pathlib.Path(__file__).parents[1] / "configs"
                      / "global.json").read_text())
    cfg["seed"] = 5
    cfg["grid"]["n"] = 1024
    return cfg


def test_global_lambda_priced_at_final_T():
    # each sample's rate must be priced at the T the run uses
    res = run_global(_global_seed5())
    c = res.constants
    assert c["T"] > max(s["T"] for s in res.certificates["per_sample"])
    assert c["lambda"] == pytest.approx(
        math.tanh(c["delta0"] / 4.0) ** (1.0 / c["T"]), rel=1e-12)


def test_global_speed_limit_at_final_T():
    # the auto step is planned again at the grown T, so no block moves the
    # parameter by more than half of any certified radius
    res = run_global(_global_seed5())
    c = res.constants
    assert c["T"] == 4 and c["step"] <= c["sigma_estimate"]
    assert c["sigma_estimate"] == min(c["xi_samples"]) / (2.0 * c["T"])
    assert all(c["step"] * c["T"] / xi <= 0.5 + 1e-12
               for xi in c["xi_samples"])
    # an explicit step inside the limit at T = 3 but not at the final T = 4
    cfg = _global_seed5()
    cfg["family"]["step"] = 0.004
    with pytest.raises(ConfigError, match="T = 4"):
        run_global(cfg)


def test_run_builds_its_operators_once(monkeypatch):
    # the run's own schedule (length = horizon) is assembled into an
    # operator list once; the block checks and the evolution share it
    calls = []
    real = opendyn.experiments.schedule_operators

    def counting(map_seq, hole_seq, m, grid, cache=None):
        if len(map_seq) == LOCAL_CFG["horizon"]:
            calls.append(m)
        return real(map_seq, hole_seq, m, grid, cache)

    # seminorm, cone and mixing take operator lists and assemble none
    # themselves
    monkeypatch.setattr(opendyn.experiments, "schedule_operators", counting)
    assert run_local(LOCAL_CFG).passed
    assert calls == [LOCAL_CFG["horizon"]]


@pytest.fixture
def certificates(monkeypatch):
    """The partitions of every closed mixing certificate computed."""
    calls = []
    real = opendyn.mixing.closed_certificate

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    for mod in (opendyn.cone, opendyn.mixing):
        monkeypatch.setattr(mod, "closed_certificate", counting)
    return calls


def test_certify_computes_each_mixing_window_once(certificates):
    # selection and the reported mixing certificate share one window per
    # certified sample
    res = run_local(LOCAL_CFG)
    assert len(certificates) == 1
    assert res.certificates["mixing"]["E"] == res.certificates["cone_params"]["E"]


@pytest.mark.parametrize("name, samples", [
    ("local.json", 1), ("global.json", 5), ("local_2d.json", 1)])
def test_shipped_run_certifies_each_sample_once(certificates, name, samples):
    # a partition that selection picks again in a later round keeps its
    # certificate, so a run computes one closed mixing certificate per
    # certified sample
    cfg = json.loads((pathlib.Path(__file__).parents[1] / "configs"
                      / name).read_text())
    (run_local if cfg["kind"] == "local" else run_global)(cfg)
    assert len(certificates) == samples


def test_family_registry_slopes():
    fam = FAMILIES["slopes_2_to_3"]
    m0, m1 = fam(0.0), fam(1.0)
    assert np.allclose([b.coeffs[1] for b in m0.branches], [2.0, 4.0, 4.0])
    assert np.allclose([b.coeffs[1] for b in m1.branches], [3.0, 3.0, 3.0])
    for u in (0.0, 0.25, 0.5, 0.75, 1.0):
        derivs = np.array([b.coeffs[1] for b in fam(u).branches])
        assert abs(np.sum(1.0 / derivs) - 1.0) < 1e-12


def test_emit_report_schema_and_determinism(tmp_path):
    res = run_local(LOCAL_CFG)
    p1 = emit_report(res, str(tmp_path / "a"))
    p2 = emit_report(run_local(LOCAL_CFG), str(tmp_path / "b"))
    csv1 = open(p1["csv"], "rb").read()
    csv2 = open(p2["csv"], "rb").read()
    assert csv1 == csv2
    lines = csv1.decode().strip().splitlines()
    assert lines[0] == "m,mass_phi,mass_psi,l1_distance"
    assert len(lines) == 1 + len(res.records)
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[3]) == res.records[0]["l1_distance"]
    summary = json.load(open(p1["summary"]))
    assert set(summary) == {"config_echo", "certificates", "constants",
                            "fit", "verdict"}
    assert summary["verdict"]["pass"] is True
    assert summary["fit"]["lambda_fit"] < 1.0
    assert summary["config_echo"]["seed"] == 7
    assert open(p1["summary"], "rb").read() == open(p2["summary"], "rb").read()
