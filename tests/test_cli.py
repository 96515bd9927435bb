import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

from opendyn import errors, experiments
from opendyn.cli import main
from opendyn.cone import ConeParams, rate_constants, select_parameters
from opendyn.errors import CertificateError, ConfigError
from opendyn.experiments import run_local
from opendyn.maps import doubling_map, full_branch_map, map_from_config
from opendyn.mixing import certify_mixing
from opendyn.phase import Grid, dyadic_partition, dyadic_pool
from opendyn.seminorm import SeminormSpec
from opendyn.transfer import build_closed

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


def test_usage_and_config_errors(tmp_path):
    assert main(["no-such-command", "x.json"]) == 1
    assert main([]) == 1
    shipped = str(pathlib.Path(__file__).parents[1] / "configs" / "local.json")
    # the CLI runs run configs only; certificates come from a run
    for retired in ("certify-mixing", "certify-ly", "select-params",
                    "constants"):
        assert main([retired, shipped]) == 1
    out = ["--out", str(tmp_path / "out")]
    missing = str(tmp_path / "nope.json")
    assert main(["simulate-local", missing, *out]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["simulate-local", str(broken), *out]) == 1
    badmap = write(tmp_path, "badmap.json", dict(LOCAL_CFG, map={
        "kind": "full_branch_1d", "cuts": [0.9, 0.2]}))
    assert main(["simulate-local", badmap, *out]) == 1


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


TV = SeminormSpec.from_config({"kind": "tv"})
G256 = Grid(1, 256)
CONE_PARAMS = {"a": 1.0, "sigma": 0.5, "T": 8, "zeta1": 0.9, "zeta2": 1.1,
               "d": 1.0 / 11, "M": 1.0}


def _select(**patch):
    kw = dict(zeta1=0.9, zeta2=1.1, theta_LY=0.5, C_LY=1.0, T1=1, sem=TV,
              partition_family=dyadic_pool(G256, 8),
              base=build_closed(doubling_map(), G256))
    return select_parameters(**dict(kw, **patch))


def _mixing(**patch):
    kw = dict(mapspec=doubling_map(), Q=dyadic_partition(G256, 3),
              zeta1=0.9, zeta2=1.1)
    return certify_mixing(**dict(kw, **patch))


def _constants(**patch):
    return rate_constants(ConeParams(**dict(CONE_PARAMS, seminorm=TV,
                                            **patch)))


# the library entry points a string base names, each called on a worked
# case with the patch applied by keyword
LIBRARY = {"select_parameters": _select, "certify_mixing": _mixing,
           "rate_constants": _constants}


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
    # a static schedule without a hole is not a second spelling of "none"
    (LOCAL_CFG, "hole", {"holes": {"kind": "static", "hole": None}}),
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
    # the mixing window is 0 < zeta1 < 1 < zeta2 and the cone contracts by
    # sigma in (0, 1); refused before any operator is built
    (LOCAL_CFG, "zeta1", {"zeta1": 1.2}),
    (LOCAL_CFG, "zeta2", {"zeta2": 0.9}),
    (LOCAL_CFG, "sigma", {"sigma": 1.5}),
    (LOCAL_CFG, "sigma", {"sigma": 0}),
    (GLOBAL_CFG, "zeta1", {"zeta1": 0.0}),
    # a record refuses a key it does not read, so a misspelling neither
    # falls back to a default nor fails later under another name
    (LOCAL_CFG, "N", {"grid": {"dimension": 1, "N": 512}}),
    (LOCAL_CFG, "amplitud", {"psi": {"kind": "cosine_bump",
                                     "amplitud": 0.15}}),
    (LOCAL_CFG, "centre", {"holes": {"kind": "drifting_interval",
                                     "measure": 0.005, "centre": 0.3,
                                     "velocity": 0.137}}),
    (LOCAL_CFG, "cut", {"map": {"kind": "full_branch_1d", "cuts": [0.5],
                                "cut": 0.3}}),
    # the library checks the same ranges, and theta_LY and C_LY, by name
    ("select_parameters", "theta_LY", {"theta_LY": 1.5}),
    ("select_parameters", "theta_LY", {"theta_LY": 0.0}),
    ("select_parameters", "C_LY", {"C_LY": -1.0}),
    ("select_parameters", "zeta1", {"zeta1": 0.0}),
    ("select_parameters", "zeta2", {"zeta2": 1.0}),
    ("select_parameters", "sigma", {"sigma": 1.0}),
    ("certify_mixing", "zeta1", {"zeta1": 1.2}),
    ("certify_mixing", "zeta2", {"zeta2": 0.9}),
    ("rate_constants", "sigma", {"sigma": 1.0}),
    ("rate_constants", "zeta1", {"zeta1": 0.0}),
    ("rate_constants", "zeta2", {"zeta2": 1.0}),
    # the other cone scalars too: a, T, d and M, and a d that leaves
    # zeta1 - zeta2*a*d/M no longer positive
    ("rate_constants", "a", {"a": 0.0}),
    ("rate_constants", "T", {"T": 0}),
    ("rate_constants", "d", {"d": 1.0}),
    ("rate_constants", "d", {"d": -0.5}),
    ("rate_constants", "M", {"M": 0.0}),
    ("rate_constants", "M", {"M": -1.0}),
    # a name is one of its choices, and a missing name is not a default
    (LOCAL_CFG, "kind", {"kind": "sideways"}),
    (LOCAL_CFG, "kind", {"holes": {"kind": "sideways"}}),
    (LOCAL_CFG, "kind", {"psi": {"kind": "uniform"}}),
    (LOCAL_CFG, "kind", {"map": {"kind": "logistic"}}),
    (GLOBAL_CFG, "name", _family(name="slopes_2_to_4")),
    (GLOBAL_CFG, "name", _family(name=["slopes_2_to_3"])),
    (LOCAL_CFG, "kind", {"psi": {"amplitude": 0.15}}),
    (GLOBAL_CFG, "name", {"family": {"u_start": 0.0}}),
    (LOCAL_CFG, "horizon", {"horizon": 1}),
    # the constructors a record reaches name the field they refuse
    (LOCAL_CFG, "dimension", {"grid": {"dimension": 3, "n": 16}}),
    (LOCAL_CFG, "n", {"grid": {"dimension": 1, "n": 1}}),
    (LOCAL_CFG, "alpha", {"seminorm": {"kind": "osc", "alpha": 2.0,
                                       "eps0": 0.1}}),
    (LOCAL_CFG, "eps0", {"seminorm": {"kind": "osc", "alpha": 1.0,
                                      "eps0": 0}}),
    (LOCAL_CFG, "beta", {"map": {"kind": "beta_1d", "beta": 0.9}}),
], ids=["text_hole_measure", "text_psi_amplitude", "zero_blocks",
        "blocks_over_cells", "text_u_start", "text_cert_samples",
        "float_cert_samples", "text_step", "text_cut", "text_beta",
        "text_osc_alpha", "list_grid", "list_holes", "text_interval",
        "nested_cuts", "flat_intervals", "three_end_interval",
        "two_number_disk", "list_hole", "null_hole", "list_map",
        "text_branch_end", "flat_branches", "text_matrix", "text_offset",
        "negative_seed", "global_negative_seed",
        "measure_over_one", "negative_measure", "epsilon_over_one",
        "torus_negative_epsilon", "negative_delta", "torus_negative_delta",
        "nan_delta", "global_negative_delta", "negative_step", "zero_step",
        "backward_traversal", "zero_cert_samples", "negative_cert_samples",
        "zero_T1", "repeated_cuts", "unsorted_cuts", "u_start_over_one",
        "u_end_over_one", "negative_u_start", "unknown_seminorm_kind",
        "bare_unknown_seminorm_kind", "zeta1_over_one", "zeta2_under_one",
        "sigma_over_one", "zero_sigma", "global_zero_zeta1",
        "misspelled_grid_n", "misspelled_psi_amplitude",
        "misspelled_hole_center", "extra_map_key",
        "select_theta_over_one", "select_zero_theta", "select_negative_C",
        "select_zero_zeta1", "select_zeta2_one", "select_sigma_one",
        "mixing_zeta1_over_one", "mixing_zeta2_under_one",
        "constants_sigma_one", "constants_zero_zeta1",
        "constants_zeta2_one", "constants_zero_a", "constants_zero_T",
        "constants_d_too_large", "constants_negative_d", "constants_zero_M",
        "constants_negative_M", "unknown_run_kind", "unknown_hole_kind",
        "unknown_psi_kind", "unknown_map_kind", "unknown_family_name",
        "list_family_name", "psi_without_kind", "family_without_name",
        "horizon_one", "grid_dimension_three", "grid_n_one",
        "osc_alpha_over_one", "zero_osc_eps0", "beta_under_one"])
def test_bad_value_names_its_key(tmp_path, capsys, base, key, patch):
    # a run, and the library entry point a string base names, refuses a
    # bad value by name, with no traceback and no later failure that hides
    # the cause
    if isinstance(base, str):
        with pytest.raises(ConfigError, match=rf"\b{key}\b"):
            LIBRARY[base](**patch)
        return
    command = f"simulate-{base['kind']}"
    cfg = write(tmp_path, "c.json", dict(base, **patch))
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"'{key}'" in err


@pytest.mark.parametrize("text", ["[]", "5", '"x"', "null"],
                         ids=["list", "number", "string", "null"])
def test_config_that_is_not_an_object_is_refused(tmp_path, capsys, text):
    # a run config is a JSON object; any other JSON value is a
    # configuration error, not a traceback
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["simulate-local", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("configuration error")


def test_config_cannot_disable_expansion_check(tmp_path, capsys):
    # a map record has no switch for the s < 1 check: the key is refused
    # by name, and the cat map, which contracts along one direction, is
    # refused by its s
    for patch, named in (
            (_torus(matrix=[[2, 1], [1, 1]], check_expanding=False),
             "'check_expanding'"),
            (_torus(matrix=[[2, 1], [1, 1]]), "s = ")):
        cfg = write(tmp_path, "c.json", dict(LOCAL_CFG, **patch))
        assert main(["simulate-local", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and named in err


def test_partition_level_above_grid_named(deadline):
    # n = 4096 resolves dyadic levels up to 12; a deeper level is refused
    # by name before 2^level is formed
    with deadline(10), pytest.raises(ConfigError, match="0 to 12"):
        dyadic_partition(Grid(1, 4096), 10 ** 6)


def test_select_params_and_constants():
    # the doubling map's selection at theta 0.5, C 1, and the rate
    # constants of a hand-built cone record
    g = Grid(1, 2048)
    cp = select_parameters(0.9, 1.1, 0.5, 1.0, 1, TV, dyadic_pool(g, 8),
                           build_closed(full_branch_map([0.5]), g), 0.5, 16)
    assert cp.T == 5
    assert abs(cp.a - 5.161290322580645) < 1e-12
    rate = rate_constants(ConeParams(seminorm=TV, **CONE_PARAMS))
    assert rate.delta0 == 3.008154793552548
    assert rate.c0 == 376.0577185154148


@pytest.mark.parametrize("map_rec, grid", [
    ({"kind": "affine_2d", "matrix": [[3, 1], [1, 2]], "offset": [0.1, 0.2]},
     {"dimension": 2, "n": 16}),
    ({"kind": "full_branch_1d", "cuts": [0.5]}, {"dimension": 1, "n": 1000}),
])
def test_select_params_caps_levels_at_grid(map_rec, grid):
    # a pool of 8 levels exceeds what either grid resolves; it keeps only
    # the dyadic levels that divide n
    g = Grid.from_config(grid)
    cp = select_parameters(0.8, 1.2, 0.5, 0.1, 1, TV, dyadic_pool(g, 8),
                           build_closed(map_from_config(map_rec), g))
    assert cp.Q.grid == g


def test_deep_partition_pool_exhausts_promptly(deadline):
    # a pool asked for 10^6 levels ends at the grid's 12, so a C that no
    # level admits is a prompt selection failure
    g = Grid(1, 4096)
    with deadline(10), pytest.raises(CertificateError,
                                     match="partition family exhausted"):
        select_parameters(0.9, 1.1, 0.5, 1e6, 1, TV, dyadic_pool(g, 10 ** 6),
                          build_closed(doubling_map(), g), 0.5, 16)


# every exception class the library defines, by the outcome it maps to
EXIT_OF = {errors.CertificateError: (2, "property violation"),
           errors.TotalEscapeError: (2, "property violation"),
           errors.ConfigError: (1, "configuration error")}


@pytest.mark.parametrize("cls", [
    c for _, c in inspect.getmembers(errors, inspect.isclass)
    if c.__module__ == errors.__name__ and not issubclass(c, Warning)],
    ids=lambda c: c.__name__)
def test_every_library_error_has_an_exit_code(tmp_path, capsys, monkeypatch,
                                              cls):
    def raising(cfg):
        raise cls("raised")

    monkeypatch.setattr(experiments, "run_local", raising)
    code, prefix = EXIT_OF[cls]
    assert main(["simulate-local", write(tmp_path, "c.json", {}),
                 "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"{prefix}: raised\n"


def test_run_that_forgets_at_once_reports(tmp_path):
    # unperturbed doubling annihilates cos 2 pi x in one step, so every
    # distance is 0: too few points to fit, and nothing left to forget
    cfg = dict(_shipped("local.json"), delta=0.0, horizon=60,
               holes={"kind": "static",
                      "hole": {"dimension": 1, "intervals": [[0.3, 0.31]]}})
    out = tmp_path / "out"
    assert main(["simulate-local", write(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    s = json.loads((out / "report_summary.json").read_text())
    assert s["fit"] is None
    assert s["verdict"] == {"flags": {"bound_dominated": True,
                                      "fit_ok": True}, "pass": True}


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
                                  "local_2d.json", "doubling_closed.json"])
def test_rerun_is_byte_identical(tmp_path, name):
    cfg = pathlib.Path(__file__).parents[1] / "configs" / name
    command = f"simulate-{_shipped(name)['kind']}"
    assert main([command, str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main([command, str(cfg), "--out", str(tmp_path / "b")]) == 0
    for report in ("report.csv", "report_summary.json"):
        assert (tmp_path / "a" / report).read_bytes() == \
            (tmp_path / "b" / report).read_bytes()


@pytest.mark.parametrize("name", ["local.json", "global.json",
                                  "local_2d.json", "doubling_closed.json"])
def test_reports_do_not_depend_on_hash_order(tmp_path, name):
    # a rerun inside one process shares its string-hash seed, so run the
    # CLI in two fresh interpreters that hash differently
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    command = f"simulate-{_shipped(name)['kind']}"
    for seed in ("0", "1"):
        subprocess.run([sys.executable, "-m", "opendyn.cli", command,
                        str(root / "configs" / name),
                        "--out", str(tmp_path / seed)], check=True,
                       timeout=120, capture_output=True,
                       env=dict(os.environ, PYTHONPATH=path,
                                PYTHONHASHSEED=seed))
    for report in ("report.csv", "report_summary.json"):
        assert (tmp_path / "0" / report).read_bytes() == \
            (tmp_path / "1" / report).read_bytes()


CONFIGS = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.json"))


# each shipped config's certificate: T, a, E, |Q|, LY theta and C, the
# verdict flags exactly; lambda and c0 to 1e-12 relative.  Fits are left
# out where the rate is not exact: a one-ulp change in the distances moves
# lambda_fit by about 1e-6.
PINNED = {
    "local.json": (3, 1.0, 2, 4, 0.5, 1e-12, 0.9283177667225558,
                   {"bound_dominated": True, "fit_ok": True}),
    "global.json": (3, 1.0, 2, 4, 0.5, 4.096e-9, 0.9283177667225558,
                    {"bound_dominated": True, "fit_ok": True}),
    "local_2d.json": (4, 1.0, 1, 4, 0.64, 1e-12, 0.9457416090031758,
                      {"bound_dominated": True, "fit_ok": True}),
    "doubling_closed.json": (3, 1.0, 2, 4, 0.5, 1e-12, 0.9283177667225558,
                             {"bound_dominated": True, "fit_ok": True}),
}
PINNED_C0 = 2224.6898845529226
# global.json's stability radii at its five sample points, exactly
GLOBAL_XI_SAMPLES = [0.026086926460266113, 0.02933400869369507,
                     0.03309231996536255, 0.031518518924713135,
                     0.026315748691558838]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, capsys, path):
    command = f"simulate-{json.loads(path.read_text())['kind']}"
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    s = json.loads((tmp_path / "out" / "report_summary.json").read_text())
    cp, const = s["certificates"]["cone_params"], s["constants"]
    # the LY constants of the run's cone: a global run's are the worst
    # over its samples, theta at u 0 and C at u 0.25
    ly = s["certificates"]["ly"]
    T, a, E, q, theta, C, lam, flags = PINNED[path.name]
    assert (const["T"], cp["T"], const["a"], cp["a"], cp["E"]) == (T, T, a, a, E)
    assert (len(cp["Q"]["elements"]), ly["theta"], ly["C"]) == (q, theta, C)
    assert s["verdict"]["flags"] == flags and s["verdict"]["pass"] is True
    assert const["lambda"] == pytest.approx(lam, rel=1e-12, abs=0.0)
    assert const["c0"] == pytest.approx(PINNED_C0, rel=1e-12, abs=0.0)
    # both regimes report the mixing certificate of the run's one cone
    assert s["certificates"]["mixing"]["E"] == cp["E"]
    if path.name == "global.json":
        # a sample reports its LY certificate only: the cone is the run's
        assert all(set(e) == {"u", "ly"}
                   for e in s["certificates"]["per_sample"])
        # the slow-traversal step and the radii it is taken from
        assert const["xi_samples"] == GLOBAL_XI_SAMPLES
        assert const["step"] == 0.004347821076711019
    if path.name == "doubling_closed.json":
        # the sawtooth is an eigenfunction of the closed doubling operator
        # with eigenvalue 1/2, so the fit recovers that rate to rounding
        assert s["fit"]["lambda_fit"] == pytest.approx(0.5, rel=0.0,
                                                       abs=1e-12)
