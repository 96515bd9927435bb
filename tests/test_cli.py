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
    "certificates": {"stability_samples": 2},
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


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
    {"certificates": {"stability_samples": 2, "ensemble_size": 0}},
    {"horizon": "x"},
    {"certificates": {"stability_samples": 2, "k_max": 4.0}},
    {"certificates": {"stability_samples": 2, "i_max": 16.0}},
    {"certificates": {"stability_samples": 2, "ensemble_size": "24"}},
    {"certificates": {"stability_samples": True}},
    {"T1": 1.0},
], ids=["float_grid_n", "empty_ensemble", "text_horizon", "float_k_max",
        "float_i_max", "text_ensemble_size", "bool_stability_samples",
        "float_T1"])
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
], ids=["text_hole_measure", "text_psi_amplitude", "zero_blocks",
        "blocks_over_cells", "text_u_start", "text_cert_samples",
        "float_cert_samples", "text_step", "text_cut", "text_beta",
        "text_osc_alpha", "list_grid", "list_holes", "text_interval",
        "nested_cuts", "flat_intervals", "three_end_interval",
        "two_number_disk", "list_hole", "list_map"])
def test_bad_value_names_its_key(tmp_path, capsys, base, key, patch):
    # local and global runs refuse a bad value by name, with no traceback
    # and no later failure that hides the cause
    cfg = write(tmp_path, "c.json", dict(base, **patch))
    command = f"simulate-{base['kind']}"
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"'{key}'" in err


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
], ids=["certify_ly_k_max", "certify_ly_ensemble", "mixing_i_max",
        "select_max_level", "mixing_list_map", "select_list_map",
        "certify_ly_list_map", "certify_ly_list_maps_entry",
        "certify_ly_list_holes"])
def test_subcommand_integer_keys(tmp_path, capsys, command, cfg, key):
    # a float or text count, or a list where a record belongs, is refused
    # by name, not truncated or crashed on
    assert main([command, write(tmp_path, "c.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"'{key}'" in err


def test_certify_ly_short_schedule_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "ly.json", {
        "maps": [{"kind": "full_branch_1d", "cuts": [0.5]}] * 3,
        "grid": {"dimension": 1, "n": 256}, "T1": 1, "k_max": 4,
        "ensemble_size": 4, "seminorm": {"kind": "tv"}})
    assert main(["certify-ly", cfg]) == 1
    assert capsys.readouterr().err.startswith("configuration error")


def test_rerun_is_byte_identical(tmp_path):
    cfg = write(tmp_path, "local.json", LOCAL_CFG)
    assert main(["simulate-local", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate-local", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("report.csv", "report_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


CONFIGS = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.json"))
# shipped configs without a "kind" entry, by file name
SUBCOMMAND = {"constants.json": "constants", "ly.json": "certify-ly",
              "mixing.json": "certify-mixing", "select.json": "select-params"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, capsys, path):
    cfg = json.loads(path.read_text())
    command = SUBCOMMAND.get(path.name) or f"simulate-{cfg['kind']}"
    argv = [command, str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    if command.startswith("simulate-"):
        assert "verdict: pass" in capsys.readouterr().out
