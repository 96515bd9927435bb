"""The three workloads: inputs from a seed, one pass of work, output checks.

Every check is computed apart from the code it checks (numpy sums, an
mpmath evaluation of the closed forms, a refit of the CSV) or is a
property the method must have (stochastic columns, nonincreasing mass,
a certified bound that dominates).  ``check`` returns the names of the
failed checks with a short reason; an empty list means the pass is
correct.  ``perfbench/check_selftest.py`` corrupts each output on
purpose and shows that the matching check rejects it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

DEFAULT_SEED = 7

# configs/local.json as shipped, kept here so the benchmark's input does
# not move when the shipped config does; only "seed" comes from --seed
LOCAL_CONFIG = {
    "kind": "local",
    "grid": {"dimension": 1, "n": 4096},
    "seed": DEFAULT_SEED,
    "horizon": 40,
    "map": {"kind": "full_branch_1d", "cuts": [0.5]},
    "delta": 0.02,
    "holes": {"kind": "drifting_interval", "measure": 0.01, "center": 0.3,
              "velocity": 0.137},
    "psi": {"kind": "cosine_bump", "amplitude": 0.15},
    "zeta1": 0.8,
    "zeta2": 1.2,
    "sigma": 0.5,
    "T1": 1,
    "seminorm": {"kind": "tv"},
    "certificates": {"ensemble_size": 24, "k_max": 4, "i_max": 16,
                     "max_level": 8, "ly_seed": 11, "stability_samples": 6},
}

# cat-like integer automorphism with an offset; delta 0 because a 2D
# delta > 0 fails (see CHANGES.md), max_level 4 because 2^level divides n
TORUS_CONFIG = {
    "kind": "local",
    "grid": {"dimension": 2, "n": 16},
    "seed": DEFAULT_SEED,
    "horizon": 12,
    "map": {"kind": "affine_2d", "matrix": [[3, 1], [1, 2]],
            "offset": [0.1, 0.2]},
    "delta": 0.0,
    "holes": {"kind": "random_intervals", "epsilon": 0.02},
    "psi": {"kind": "cosine_bump", "amplitude": 0.15},
    "zeta1": 0.8,
    "zeta2": 1.2,
    "sigma": 0.5,
    "T1": 1,
    "seminorm": {"kind": "tv"},
    "certificates": {"ensemble_size": 24, "k_max": 4, "i_max": 16,
                     "max_level": 4, "ly_seed": 11, "stability_samples": 3},
}

EVOLVE_N = 2 ** 15
EVOLVE_STEPS = 300
EVOLVE_EPSILON = 0.01      # hole widths are drawn in [eps/2, eps)
EVOLVE_AMPLITUDE = 0.5     # cosine bump 1 + A cos(2 pi x)

FIT_FLOOR = 1e-14
EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# shared checks on a certified run's report

def _read_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report_summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "report.csv")) as fh:
        rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
    return {"summary": summary, "rows": rows}


def _check_verdict(out, fails):
    verdict = out["summary"]["verdict"]
    bad = sorted(k for k, v in verdict["flags"].items() if v is not True)
    if bad or verdict["pass"] is not True:
        fails.append(f"verdict: failed flags {bad}, pass={verdict['pass']}")


def _check_bound(out, fails):
    k = out["summary"]["constants"]
    budget = k["grid_budget"]
    rows = out["rows"]
    if len(budget) != len(rows) or min(budget) < 0.0:
        fails.append("bound: budget series malformed")
        return
    for r, b in zip(rows, budget):
        cap = k["c0"] * k["lambda"] ** r["m"] + b
        if not r["l1_distance"] <= cap + 1e-12:
            fails.append(f"bound: l1 {r['l1_distance']:.3g} > {cap:.3g} at m={r['m']:g}")
            return


def _check_masses(out, fails):
    for key in ("mass_phi", "mass_psi"):
        m = np.array([r[key] for r in out["rows"]])
        if not ((m > 0.0).all() and (m <= 1.0).all()):
            fails.append(f"masses: {key} outside (0, 1]")
        elif (np.diff(m) > 1e-12).any():
            fails.append(f"masses: {key} increases")


# ---------------------------------------------------------------------------
# local: configs/local.json through the CLI

def _mp_constants(cp: dict) -> dict:
    """delta0, lambda, c0, c_lip from the cone parameters, at 50 digits."""
    from mpmath import mp, mpf
    mp.dps = 50
    a, s, z1, z2 = mpf(cp["a"]), mpf(cp["sigma"]), mpf(cp["zeta1"]), mpf(cp["zeta2"])
    adm = a * mpf(cp["d"]) / mpf(cp["M"])
    lo = z1 - z2 * adm
    d0 = 2 * mp.log((1 + s) / (1 - s)) + 2 * mp.log(z2 * (1 + adm) / lo)
    tq = mp.tanh(d0 / 4)
    c_lip = 2 / lo
    return {"delta0": d0, "lambda": tq ** (mpf(1) / cp["T"]), "c_lip": c_lip,
            "c0": c_lip * max(d0, mpf(1)) * mp.exp(d0) / tq ** 2}


def _refit(rows) -> tuple:
    """Least squares of log d_m on m, made apart from the program's fit."""
    pts = np.array([(r["m"], r["l1_distance"]) for r in rows
                    if r["l1_distance"] > FIT_FLOOR])
    m, y = pts[:, 0], np.log(pts[:, 1])
    A = np.c_[m, np.ones_like(m)]
    (slope, icpt), *_ = np.linalg.lstsq(A, y, rcond=None)
    res = y - (slope * m + icpt)
    r2 = 1.0 - float(res @ res) / float(((y - y.mean()) ** 2).sum())
    return math.exp(icpt), math.exp(slope), r2


class Local:
    name = "local"
    ops_per_pass = 1          # one simulate-local invocation

    def inputs(self, od, seed: int, workdir: str) -> dict:
        cfg = dict(LOCAL_CONFIG, seed=seed)
        od.ExperimentConfig.from_dict(cfg)           # validate
        path = os.path.join(workdir, "local.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return {"config": path, "out": os.path.join(workdir, "local_out")}

    def run(self, od, inp) -> dict:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = od.cli.main(["simulate-local", inp["config"],
                              "--out", inp["out"]])
        return dict(_read_report(inp["out"]), rc=rc)

    def check(self, out) -> list:
        fails = []
        s = out["summary"]
        if out["rc"] != 0:
            fails.append(f"exit_code: {out['rc']}")
        _check_verdict(out, fails)
        theta = s["certificates"]["ly"]["theta"]
        if abs(theta - 0.5) > 1e-12:
            fails.append(f"ly_theta: {theta} (TV halves exactly under doubling)")
        cp = s["certificates"]["cone_params"]
        level = math.log2(len(cp["Q"]["elements"]))
        E = s["certificates"]["mixing"]["E"]
        if E != level or cp["E"] != E:
            fails.append(f"mixing_E: E={E}, cone E={cp['E']}, Q level={level:g}")
        k = s["constants"]
        if (k["T"], k["a"], k["d"]) != (cp["T"], cp["a"], cp["d"]):
            fails.append("constants: T, a, d differ from the cone parameters")
        for key, ref in _mp_constants(cp).items():
            if abs(k[key] - float(ref)) > 1e-12 * abs(float(ref)):
                fails.append(f"constants: {key}={k[key]!r}, closed form {float(ref)!r}")
        _check_bound(out, fails)
        _check_masses(out, fails)
        fit = s["fit"]
        C_fit, lam_fit, r2 = _refit(out["rows"])
        if not (math.isclose(fit["lambda_fit"], lam_fit, rel_tol=1e-9)
                and math.isclose(fit["C_fit"], C_fit, rel_tol=1e-6)
                and math.isclose(fit["r2"], r2, rel_tol=1e-9)):
            fails.append(f"fit: reported {fit}, refit {(C_fit, lam_fit, r2)}")
        elif not (lam_fit < 1.0 and r2 >= 0.95):
            fails.append(f"fit: rate {lam_fit:.4g}, R^2 {r2:.4g}")
        return fails


# ---------------------------------------------------------------------------
# torus: certified run_local on the 2-torus

class Torus:
    name = "torus"
    ops_per_pass = 1          # one run_local

    def inputs(self, od, seed: int, workdir: str) -> dict:
        cfg = dict(TORUS_CONFIG, seed=seed)
        return {"config": od.ExperimentConfig.from_dict(cfg),
                "map": od.map_from_config(cfg["map"]),
                "grid": od.Grid(2, cfg["grid"]["n"]),
                "out": os.path.join(workdir, "torus_out")}

    def run(self, od, inp) -> dict:
        result = od.run_local(inp["config"])
        od.emit_report(result, inp["out"])
        closed = od.build_closed(inp["map"], inp["grid"]).matrix
        return dict(_read_report(inp["out"]),
                    colsums=np.asarray(closed.sum(axis=0)).ravel())

    def check(self, out) -> list:
        fails = []
        s = out["summary"]
        _check_verdict(out, fails)
        T, E = s["constants"]["T"], s["certificates"]["mixing"]["E"]
        if not T >= E:
            fails.append(f"T_ge_E: T={T} < E={E}")
        err = float(np.abs(out["colsums"] - 1.0).max())
        if not err <= 1e-9:
            fails.append(f"column_sums: max |sum - 1| = {err:.3g}")
        _check_bound(out, fails)
        _check_masses(out, fails)
        return fails


# ---------------------------------------------------------------------------
# evolve: long open evolution through a shared operator cache

def hole_share(lo: float, width: float, n: int) -> float:
    """Share of cells whose center lies in the arc [lo, lo + width)."""
    centers = (np.arange(n) + 0.5) / n
    return float((((centers - lo) % 1.0) < width).mean())


class Evolve:
    name = "evolve"
    ops_per_pass = 2          # two evolve calls over the whole schedule

    def inputs(self, od, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        n, m = EVOLVE_N, EVOLVE_STEPS
        us = rng.uniform(0.0, 1.0, m)
        los = rng.uniform(0.0, 1.0, m)
        widths = EVOLVE_EPSILON * rng.uniform(0.5, 1.0, m)
        family = od.FAMILIES["slopes_2_to_3"]
        grid = od.Grid(1, n)
        x = grid.centers()
        return {
            "maps": od.MapSequence(tuple(family(float(u)) for u in us)),
            "holes": od.HoleSequence(tuple(
                od.interval_hole(float(lo), float((lo + w) % 1.0))
                for lo, w in zip(los, widths))),
            "share": np.array([hole_share(lo, w, n) for lo, w in zip(los, widths)]),
            "phi0": od.GridDensity.uniform(grid),
            "psi0": od.GridDensity(grid, 1.0 + EVOLVE_AMPLITUDE * np.cos(2 * np.pi * x)),
        }

    def run(self, od, inp) -> dict:
        cache = od.OperatorCache()
        m = EVOLVE_STEPS
        phis = od.evolve(inp["maps"], inp["holes"], inp["phi0"], m, cache)
        psis = od.evolve(inp["maps"], inp["holes"], inp["psi0"], m, cache)
        l1, tv_phi, tv_psi = [], [], []
        for phi, psi in zip(phis, psis):
            phin, psin = od.normalize(phi), od.normalize(psi)
            l1.append(od.l1_distance(phin, psin))
            tv_phi.append(od.total_variation(phin))
            tv_psi.append(od.total_variation(psin))
        return {
            "share": inp["share"],
            "phi": [inp["phi0"].values] + [d.values for d in phis],
            "psi": [inp["psi0"].values] + [d.values for d in psis],
            "escape_phi": od.escape_mass([inp["phi0"]] + phis),
            "escape_psi": od.escape_mass([inp["psi0"]] + psis),
            "l1": l1, "tv_phi": tv_phi, "tv_psi": tv_psi,
        }

    def check(self, out) -> list:
        fails = []
        share, phi, psi = out["share"], out["phi"], out["psi"]
        n = phi[0].size
        mass1 = float(phi[1].mean())
        if abs(mass1 - (1.0 - share[0])) > 1e-9:
            fails.append(f"step1_mass: {mass1!r} vs 1 - share {1.0 - share[0]!r}")
        if min(float(v.min()) for v in phi + psi) < 0.0:
            fails.append("nonnegative: a density has a negative cell")
        for k, v in enumerate(phi):
            if float(v.max()) > 1.0 + k * n * EPS:
                fails.append(f"uniform_le_one: max {float(v.max())!r} at step {k}")
                break
        for key, dens in (("escape_phi", phi), ("escape_psi", psi)):
            esc = np.asarray(out[key])
            masses = np.array([float(v.mean()) for v in dens])
            cap = share * float(dens[0].max())
            if esc.size != share.size or not np.allclose(esc, -np.diff(masses),
                                                         rtol=0.0, atol=1e-12):
                fails.append(f"escape: {key} differs from the mass drops")
            elif (esc < -1e-12).any() or (esc > cap + 1e-9).any():
                fails.append(f"escape: {key} outside [0, hole-cell share]")
        ref_l1, ref_tv_phi, ref_tv_psi = [], [], []
        for p, q in zip(phi[1:], psi[1:]):
            pn, qn = p / p.mean(), q / q.mean()
            ref_l1.append(np.abs(pn - qn).mean())
            ref_tv_phi.append(np.abs(pn - np.roll(pn, 1)).sum())
            ref_tv_psi.append(np.abs(qn - np.roll(qn, 1)).sum())
        for key, ref in (("l1", ref_l1), ("tv_phi", ref_tv_phi), ("tv_psi", ref_tv_psi)):
            if not np.allclose(out[key], ref, rtol=1e-9, atol=1e-15):
                fails.append(f"seminorms: {key} differs from a direct evaluation")
        return fails


WORKLOADS = {w.name: w for w in (Local(), Torus(), Evolve())}
