import json
import pathlib

import pytest

from opendyn.cli import main
from opendyn.errors import ConfigError
from opendyn.experiments import run_local

LOCAL_CFG = {
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
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _shipped(name: str) -> dict:
    return json.loads((pathlib.Path(__file__).parents[1] / "configs"
                       / name).read_text())


def test_simulate_local_end_to_end(tmp_path, capsys):
    cfg = write(tmp_path, "local.json", LOCAL_CFG)
    code = main(["simulate-local", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    csv = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert csv[0] == "m,mass_phi,mass_psi,l1_distance"
    assert len(csv) == 1 + LOCAL_CFG["horizon"]
    summary = json.loads((tmp_path / "out" / "report_summary.json").read_text())
    assert summary["verdict"]["pass"] is True


def test_certify_mixing_exit_codes(tmp_path):
    good = write(tmp_path, "mix.json", {
        "map": {"kind": "full_branch_1d", "cuts": [0.5]},
        "grid": {"dimension": 1, "n": 1024},
        "partition": {"level": 3}, "zeta1": 0.9, "zeta2": 1.1, "i_max": 12})
    assert main(["certify-mixing", good]) == 0
    hopeless = write(tmp_path, "bad.json", {
        "map": {"kind": "full_branch_1d", "cuts": [0.5]},
        "grid": {"dimension": 1, "n": 1024},
        "partition": {"level": 3}, "zeta1": 0.999, "zeta2": 1.001,
        "i_max": 1})
    assert main(["certify-mixing", hopeless]) == 2


def test_certify_ly_writes_artifact(tmp_path):
    cfg = write(tmp_path, "ly.json", {
        "map": {"kind": "full_branch_1d", "cuts": [0.5]},
        "grid": {"dimension": 1, "n": 1024},
        "T1": 1, "k_max": 4, "ensemble_size": 12, "seed": 11,
        "seminorm": {"kind": "tv"}})
    code = main(["certify-ly", cfg, "--out", str(tmp_path / "arts")])
    assert code == 0
    cert = json.loads((tmp_path / "arts" / "ly_certificate.json").read_text())
    assert cert["theta"] <= 0.5 + 1e-9
    assert cert["C"] > 0.0


def test_select_params_and_constants(tmp_path, capsys):
    sel = write(tmp_path, "sel.json", {
        "zeta1": 0.9, "zeta2": 1.1, "theta": 0.5, "C": 1.0, "T1": 1,
        "sigma": 0.5, "seminorm": {"kind": "tv"},
        "map": {"kind": "full_branch_1d", "cuts": [0.5]},
        "grid": {"dimension": 1, "n": 2048}, "max_level": 8, "i_max": 16})
    assert main(["select-params", sel, "--out", str(tmp_path / "arts")]) == 0
    cp = json.loads((tmp_path / "arts" / "cone_params.json").read_text())
    assert cp["T"] == 5
    assert abs(cp["a"] - 5.161290322580645) < 1e-12
    con = write(tmp_path, "con.json", {"cone_params": {
        "a": 1.0, "sigma": 0.5, "T": 8, "zeta1": 0.9, "zeta2": 1.1,
        "d": 1.0 / 11, "M": 1.0, "seminorm": {"kind": "tv"}}})
    assert main(["constants", con]) == 0
    out = capsys.readouterr().out
    assert "3.008154793552548" in out
    assert "376.0577185154148" in out


@pytest.mark.parametrize("map_rec, grid", [
    ({"kind": "affine_2d", "matrix": [[3, 1], [1, 2]], "offset": [0.1, 0.2]},
     {"dimension": 2, "n": 16}),
    ({"kind": "full_branch_1d", "cuts": [0.5]}, {"dimension": 1, "n": 1000}),
])
def test_select_params_caps_levels_at_grid(tmp_path, map_rec, grid):
    # the default max_level 8 exceeds what either grid resolves; the pool
    # keeps only the dyadic levels that divide n
    sel = write(tmp_path, "sel.json", {
        "zeta1": 0.8, "zeta2": 1.2, "theta": 0.5, "C": 0.1, "T1": 1,
        "seminorm": {"kind": "tv"}, "map": map_rec, "grid": grid})
    assert main(["select-params", sel]) == 0


def test_usage_and_config_errors(tmp_path):
    assert main(["no-such-command", "x.json"]) == 1
    assert main([]) == 1
    missing = str(tmp_path / "nope.json")
    assert main(["certify-mixing", missing]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["certify-mixing", str(broken)]) == 1
    badmap = write(tmp_path, "badmap.json", {
        "map": {"kind": "full_branch_1d", "cuts": [0.9, 0.2]},
        "grid": {"dimension": 1, "n": 256},
        "partition": {"level": 2}, "zeta1": 0.9, "zeta2": 1.1})
    assert main(["certify-mixing", badmap]) == 1


@pytest.mark.parametrize("key, patch", [
    ("cuts", {"map": {"kind": "full_branch_1d"}}),
    ("measure", {"holes": {"kind": "drifting_interval", "center": 0.3}}),
    ("dimension", {"holes": {"kind": "static",
                             "hole": {"intervals": [[0.3, 0.4]]}}}),
], ids=["map_cuts", "drifting_measure", "static_dimension"])
def test_missing_config_key_is_config_error(tmp_path, key, patch):
    cfg = dict(LOCAL_CFG, **patch)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        run_local(cfg)
    assert main(["simulate-local", write(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("patch", [
    {"grid": {"dimension": 1, "n": 512.0}},
    {"horizon": "x"},
    # a bool is not an integer
    {"horizon": True},
    {"T1": 1.0},
], ids=["float_grid_n", "text_horizon", "bool_horizon", "float_T1"])
def test_bad_value_is_config_error(tmp_path, capsys, patch):
    cfg = write(tmp_path, "c.json", dict(LOCAL_CFG, **patch))
    assert main(["simulate-local", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("configuration error")


GLOBAL_CFG = dict(LOCAL_CFG, kind="global", family={
    "name": "slopes_2_to_3", "u_start": 0.0, "u_end": 1.0, "step": "auto",
    "cert_samples": 2})


def _family(**patch):
    return {"family": dict(GLOBAL_CFG["family"], **patch)}


def _static(**hole):
    return {"holes": {"kind": "static",
                      "hole": dict({"dimension": 1}, **hole)}}


def _torus(**map_rec):
    return {"grid": {"dimension": 2, "n": 16},
            "map": dict({"kind": "affine_2d", "matrix": [[3, 1], [1, 2]],
                         "offset": [0.1, 0.2]}, **map_rec)}


@pytest.mark.parametrize("base, key, patch", [
    (LOCAL_CFG, "measure", {"holes": dict(LOCAL_CFG["holes"], measure="x")}),
    (LOCAL_CFG, "amplitude", {"psi": {"kind": "cosine_bump",
                                      "amplitude": "x"}}),
    (LOCAL_CFG, "blocks", {"psi": {"kind": "blocks", "blocks": 0}}),
    # more blocks than the 512 cells would leave every block empty
    (LOCAL_CFG, "blocks", {"psi": {"kind": "blocks", "blocks": 10000}}),
    (GLOBAL_CFG, "u_start", _family(u_start="x")),
    (GLOBAL_CFG, "cert_samples", _family(cert_samples="x")),
    (GLOBAL_CFG, "cert_samples", _family(cert_samples=3.7)),
    (GLOBAL_CFG, "step", _family(step="x")),
    (LOCAL_CFG, "cuts", {"map": {"kind": "full_branch_1d", "cuts": ["x"]}}),
    (LOCAL_CFG, "beta", {"map": {"kind": "beta_1d", "beta": "x"}}),
    (LOCAL_CFG, "alpha", {"seminorm": {"kind": "osc", "alpha": "x",
                                       "eps0": 0.1}}),
    (LOCAL_CFG, "grid", {"grid": [1, 512]}),
    (LOCAL_CFG, "holes", {"holes": [LOCAL_CFG["holes"]]}),
    (LOCAL_CFG, "intervals", _static(intervals=[["x", 0.4]])),
    (LOCAL_CFG, "cuts", {"map": {"kind": "full_branch_1d", "cuts": [[0.5]]}}),
    (LOCAL_CFG, "intervals", _static(intervals=[0.1, 0.4])),
    (LOCAL_CFG, "intervals", _static(intervals=[[0.1, 0.2, 0.3]])),
    (LOCAL_CFG, "disks", _static(dimension=2, disks=[[0.5, 0.5]])),
    (LOCAL_CFG, "hole", {"holes": {"kind": "static", "hole": [1, 0.1, 0.2]}}),
    (LOCAL_CFG, "map", {"map": ["full_branch_1d", [0.5]]}),
    (LOCAL_CFG, "branches", {"map": {"kind": "affine_1d",
                                     "branches": [[0, "x", [0, 2]]]}}),
    (LOCAL_CFG, "branches", {"map": {"kind": "affine_1d",
                                     "branches": [0, 0.5]}}),
    (LOCAL_CFG, "matrix", _torus(matrix=[["x", 1], [1, 2]])),
    (LOCAL_CFG, "offset", _torus(offset="x")),
    # numpy refuses negative seeds
    (LOCAL_CFG, "seed", {"seed": -1}),
    (GLOBAL_CFG, "seed", {"seed": -1}),
    # hole sizes are measures of part of the phase space
    (LOCAL_CFG, "measure", {"holes": dict(LOCAL_CFG["holes"], measure=1.2)}),
    (LOCAL_CFG, "measure", {"holes": dict(LOCAL_CFG["holes"],
                                          measure=-0.01)}),
    (LOCAL_CFG, "epsilon", {"holes": {"kind": "random_intervals",
                                      "epsilon": 1.5}}),
    (LOCAL_CFG, "epsilon", dict(_torus(), holes={"kind": "random_intervals",
                                                 "epsilon": -0.02})),
    # a perturbation size is a distance; a negative one would walk a
    # traversal out of its certified range or crash a 2D draw
    (LOCAL_CFG, "delta", {"delta": -0.05}),
    (LOCAL_CFG, "delta", dict(_torus(), delta=-0.05)),
    (LOCAL_CFG, "delta", {"delta": float("nan")}),
    (GLOBAL_CFG, "delta", {"delta": -0.05}),
    # a traversal moves forward from u_start to u_end
    (GLOBAL_CFG, "step", _family(step=-0.001)),
    (GLOBAL_CFG, "step", _family(step=0.0)),
    (GLOBAL_CFG, "u_end", _family(u_start=0.8, u_end=0.2)),
    (GLOBAL_CFG, "cert_samples", _family(cert_samples=0)),
    (GLOBAL_CFG, "cert_samples", _family(cert_samples=-4)),
    (LOCAL_CFG, "T1", {"T1": 0}),
    # cuts bound the branches, so they increase strictly inside (0, 1)
    (LOCAL_CFG, "cuts", {"map": {"kind": "full_branch_1d",
                                 "cuts": [0.5, 0.5]}}),
    (LOCAL_CFG, "cuts", {"map": {"kind": "full_branch_1d",
                                 "cuts": [0.7, 0.3]}}),
    # the families are defined for u in [0, 1]
    (GLOBAL_CFG, "u_start", _family(u_start=2.0, u_end=3.0)),
    (GLOBAL_CFG, "u_end", _family(u_start=1.0, u_end=2.0)),
    (GLOBAL_CFG, "u_start", _family(u_start=-0.5)),
    # an unknown seminorm kind must not run as osc
    (LOCAL_CFG, "kind", {"seminorm": {"kind": "l2", "alpha": 1,
                                      "eps0": 0.1}}),
    (LOCAL_CFG, "kind", {"seminorm": {"kind": "l2"}}),
], ids=["text_hole_measure", "text_psi_amplitude", "zero_blocks",
        "blocks_over_cells", "text_u_start", "text_cert_samples",
        "float_cert_samples", "text_step", "text_cut", "text_beta",
        "text_osc_alpha", "list_grid", "list_holes", "text_interval",
        "nested_cuts", "flat_intervals", "three_end_interval",
        "two_number_disk", "list_hole", "list_map", "text_branch_end",
        "flat_branches", "text_matrix", "text_offset",
        "negative_seed", "global_negative_seed",
        "measure_over_one", "negative_measure", "epsilon_over_one",
        "torus_negative_epsilon", "negative_delta", "torus_negative_delta",
        "nan_delta", "global_negative_delta", "negative_step", "zero_step",
        "backward_traversal", "zero_cert_samples", "negative_cert_samples",
        "zero_T1", "repeated_cuts", "unsorted_cuts", "u_start_over_one",
        "u_end_over_one", "negative_u_start", "unknown_seminorm_kind",
        "bare_unknown_seminorm_kind"])
def test_bad_value_names_its_key(tmp_path, capsys, base, key, patch):
    # local and global runs refuse a bad value by name, with no traceback
    # and no later failure that hides the cause
    cfg = write(tmp_path, "c.json", dict(base, **patch))
    command = f"simulate-{base['kind']}"
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"'{key}'" in err


def test_config_cannot_disable_expansion_check(tmp_path, capsys):
    # a map record has no switch for the s < 1 check: the cat map, which
    # contracts along one direction, is refused by its s
    patch = _torus(matrix=[[2, 1], [1, 1]], check_expanding=False)
    cfg = write(tmp_path, "c.json", dict(LOCAL_CFG, **patch))
    assert main(["simulate-local", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "s = " in err


MIXING_CFG = {"map": {"kind": "full_branch_1d", "cuts": [0.5]},
              "grid": {"dimension": 1, "n": 256}, "zeta1": 0.9, "zeta2": 1.1}
SELECT_CFG = {"zeta1": 0.9, "zeta2": 1.1, "theta": 0.5, "C": 1.0}
LY_CFG = {"map": {"kind": "full_branch_1d", "cuts": [0.5]},
          "grid": {"dimension": 1, "n": 256}}
CONE_PARAMS = {"a": 1.0, "sigma": 0.5, "T": 8, "zeta1": 0.9, "zeta2": 1.1,
               "d": 1.0 / 11, "M": 1.0}


@pytest.mark.parametrize("command, cfg, key", [
    ("certify-ly", {"map": {"kind": "full_branch_1d", "cuts": [0.5]},
                    "grid": {"dimension": 1, "n": 256}, "k_max": 4.7}, "k_max"),
    ("certify-ly", {"map": {"kind": "full_branch_1d", "cuts": [0.5]},
                    "grid": {"dimension": 1, "n": 256},
                    "ensemble_size": "4"}, "ensemble_size"),
    ("certify-mixing", {"map": {"kind": "full_branch_1d", "cuts": [0.5]},
                        "grid": {"dimension": 1, "n": 256}, "zeta1": 0.9,
                        "zeta2": 1.1, "i_max": 12.0}, "i_max"),
    ("select-params", {"zeta1": 0.9, "zeta2": 1.1, "theta": 0.5, "C": 1.0,
                       "map": {"kind": "full_branch_1d", "cuts": [0.5]},
                       "grid": {"dimension": 1, "n": 256},
                       "max_level": 8.0}, "max_level"),
    ("certify-mixing", {"map": ["full_branch_1d", [0.5]]}, "map"),
    ("select-params", {"zeta1": 0.9, "zeta2": 1.1, "theta": 0.5, "C": 1.0,
                       "map": ["full_branch_1d", [0.5]]}, "map"),
    ("certify-ly", {"map": ["full_branch_1d", [0.5]]}, "map"),
    ("certify-ly", {"maps": [["full_branch_1d", [0.5]]] * 4}, "map"),
    ("certify-ly", {"map": {"kind": "full_branch_1d", "cuts": [0.5]},
                    "holes": ["static"]}, "holes"),
    ("certify-mixing", dict(MIXING_CFG, zeta1="x"), "zeta1"),
    ("certify-mixing", dict(MIXING_CFG, map=_torus(offset="x")["map"]),
     "offset"),
    ("select-params", dict(SELECT_CFG, theta="x"), "theta"),
    ("select-params", dict(SELECT_CFG, sigma="x"), "sigma"),
    ("constants", {"cone_params": dict(CONE_PARAMS, a="x")}, "a"),
    ("constants", {"cone_params": dict(CONE_PARAMS, T=8.0)}, "T"),
    ("certify-mixing", dict(MIXING_CFG, partition=[3]), "partition"),
    ("certify-ly", {"map": {"kind": "full_branch_1d", "cuts": [0.5]},
                    "grid": {"dimension": 1, "n": 256}, "seed": -3}, "seed"),
    ("certify-ly", {"maps": 3, "grid": {"dimension": 1, "n": 256}}, "maps"),
    # step and member counts are at least 1
    ("certify-ly", dict(LY_CFG, T1=0), "T1"),
    ("certify-ly", dict(LY_CFG, k_max=0), "k_max"),
    ("certify-ly", dict(LY_CFG, T1=-1, maps=[LY_CFG["map"]] * 4), "T1"),
    ("certify-ly", dict(LY_CFG, ensemble_size=0), "ensemble_size"),
    ("certify-mixing", dict(MIXING_CFG, i_max=0), "i_max"),
    ("select-params", dict(SELECT_CFG, map=LY_CFG["map"], grid=LY_CFG["grid"],
                           i_max=-2), "i_max"),
    ("select-params", dict(SELECT_CFG, T1=0), "T1"),
], ids=["certify_ly_k_max", "certify_ly_ensemble", "mixing_i_max",
        "select_max_level", "mixing_list_map", "select_list_map",
        "certify_ly_list_map", "certify_ly_list_maps_entry",
        "certify_ly_list_holes", "mixing_text_zeta1", "mixing_text_offset",
        "select_text_theta", "select_text_sigma", "constants_text_a",
        "constants_float_T", "mixing_list_partition", "certify_ly_negative_seed",
        "certify_ly_number_maps", "certify_ly_zero_T1",
        "certify_ly_zero_k_max", "certify_ly_maps_negative_T1",
        "certify_ly_zero_ensemble", "mixing_zero_i_max",
        "select_negative_i_max", "select_zero_T1"])
def test_subcommand_integer_keys(tmp_path, capsys, deadline, command, cfg,
                                key):
    # a float or text count, a count below 1, or a list where a record
    # belongs, is refused by name, not truncated, crashed or spun on (a
    # select-params T1 of 0 once grew T by 0 forever)
    with deadline(10):
        assert main([command, write(tmp_path, "c.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"'{key}'" in err


def test_partition_level_above_grid_named(tmp_path, capsys, deadline):
    # n = 4096 resolves dyadic levels up to 12; a deeper level is refused
    # by name before 2^level is formed
    cfg = dict(_shipped("mixing.json"), partition={"level": 10 ** 6})
    with deadline(10):
        assert main(["certify-mixing", write(tmp_path, "c.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "0 to 12" in err


def test_deep_partition_pool_exhausts_promptly(tmp_path, capsys, deadline):
    # a pool asked for 10^6 levels ends at the grid's 12, so a C that no
    # level admits is a prompt selection failure
    cfg = dict(_shipped("select.json"), max_level=10 ** 6, C=1e6)
    with deadline(10):
        assert main(["select-params", write(tmp_path, "c.json", cfg)]) == 2
    assert "partition family exhausted" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, patch", [
    ("center", lambda c: c["holes"].update(center=NAN)),
    ("velocity", lambda c: c["holes"].update(velocity=INF)),
    ("branches", lambda c: c.update(map={
        "kind": "affine_1d",
        "branches": [[0.0, 0.5, [0.0, NAN]], [0.5, 1.0, [-1.0, 2.0]]]})),
    ("beta", lambda c: c.update(map={"kind": "beta_1d", "beta": INF})),
    ("amplitude", lambda c: c["psi"].update(amplitude=NAN)),
], ids=["nan_hole_center", "infinite_hole_velocity", "nan_branch_slope",
        "infinite_beta", "nan_psi_amplitude"])
def test_non_finite_number_names_its_key(tmp_path, capsys, key, patch):
    # Python's json reads NaN and Infinity, so they reach real configs;
    # each is refused by name before it can run, crash or mislead
    cfg = _shipped("local.json")
    cfg["grid"]["n"] = 256
    patch(cfg)
    path = write(tmp_path, "c.json", cfg)
    assert main(["simulate-local", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"'{key}'" in err


def test_certify_ly_short_schedule_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "ly.json", {
        "maps": [{"kind": "full_branch_1d", "cuts": [0.5]}] * 3,
        "grid": {"dimension": 1, "n": 256}, "T1": 1, "k_max": 4,
        "ensemble_size": 4, "seminorm": {"kind": "tv"}})
    assert main(["certify-ly", cfg]) == 1
    assert capsys.readouterr().err.startswith("configuration error")


def test_blocks_that_never_mix_exit_2(tmp_path, capsys):
    # configs/local.json with a static third-of-the-circle hole: no T with
    # two blocks in the horizon mixes, a property violation, not a config error
    cfg = dict(_shipped("local.json"), horizon=6,
               grid={"dimension": 1, "n": 1024},
               holes={"kind": "static",
                      "hole": {"dimension": 1, "intervals": [[0.3, 0.6]]}})
    path = write(tmp_path, "never.json", cfg)
    assert main(["simulate-local", path, "--out", str(tmp_path / "o")]) == 2
    assert "property violation" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["local.json", "global.json",
                                  "local_2d.json"])
def test_rerun_is_byte_identical(tmp_path, name):
    cfg = pathlib.Path(__file__).parents[1] / "configs" / name
    command = f"simulate-{_shipped(name)['kind']}"
    assert main([command, str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main([command, str(cfg), "--out", str(tmp_path / "b")]) == 0
    for report in ("report.csv", "report_summary.json"):
        assert (tmp_path / "a" / report).read_bytes() == \
            (tmp_path / "b" / report).read_bytes()


CONFIGS = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.json"))
# shipped configs without a "kind" entry, by file name
SUBCOMMAND = {"constants.json": "constants", "ly.json": "certify-ly",
              "mixing.json": "certify-mixing", "select.json": "select-params"}


# each simulate config's certificate: T, a, E, |Q|, LY theta and C, the
# verdict flags exactly; lambda and c0 to 1e-12 relative.  Fits are left
# out: a one-ulp change in the distances moves lambda_fit by about 1e-6.
PINNED = {
    "local.json": (3, 1.0, 2, 4, 0.5, 1e-12, 0.9283177667225558,
                   {"bound_dominated": True, "fit_ok": True}),
    "global.json": (3, 1.0, 2, 4, 0.5, 1e-12, 0.9283177667225558,
                    {"bound_dominated": True, "fit_ok": True}),
    "local_2d.json": (4, 1.0, 1, 4, 0.64, 1e-12, 0.9457416090031758,
                      {"bound_dominated": True, "fit_ok": True}),
}
PINNED_C0 = 2224.6898845529226
# global.json's stability radii at its five sample points, exactly
GLOBAL_XI_SAMPLES = [0.026086926460266113, 0.02933400869369507,
                     0.03309231996536255, 0.031518518924713135,
                     0.026315748691558838]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, capsys, path):
    cfg = json.loads(path.read_text())
    command = SUBCOMMAND.get(path.name) or f"simulate-{cfg['kind']}"
    argv = [command, str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    if not command.startswith("simulate-"):
        return
    assert "verdict: pass" in capsys.readouterr().out
    s = json.loads((tmp_path / "out" / "report_summary.json").read_text())
    cp, const = s["certificates"]["cone_params"], s["constants"]
    # a global run's first sample sets the cone
    ly = s["certificates"].get("ly") or s["certificates"]["per_sample"][0]["ly"]
    T, a, E, q, theta, C, lam, flags = PINNED[path.name]
    assert (const["T"], cp["T"], const["a"], cp["a"], cp["E"]) == (T, T, a, a, E)
    assert (len(cp["Q"]["elements"]), ly["theta"], ly["C"]) == (q, theta, C)
    assert s["verdict"]["flags"] == flags and s["verdict"]["pass"] is True
    assert const["lambda"] == pytest.approx(lam, rel=1e-12, abs=0.0)
    assert const["c0"] == pytest.approx(PINNED_C0, rel=1e-12, abs=0.0)
    if path.name == "global.json":
        # the slow-traversal step and the radii it is taken from
        assert const["xi_samples"] == GLOBAL_XI_SAMPLES
        assert const["step"] == 0.004347821076711019
