"""Show that every output check rejects a deliberately corrupted output.

    python3 perfbench/check_selftest.py [--seed 7] [--workload local ...]

Run from the root of a checkout.  Runs each workload once, requires its
true output to pass every check, then corrupts one field at a time and
requires the named check to reject it.  Prints one line per corruption
and exits 1 if any corruption goes unnoticed.  Takes about 25 s.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _rows(out, fn):
    out = dict(out, rows=copy.deepcopy(out["rows"]))
    fn(out["rows"])
    return out


def _summary(out, fn):
    out = dict(out, summary=copy.deepcopy(out["summary"]))
    fn(out["summary"])
    return out


def _set(d, path, value):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


def _scale(d, path, factor):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] *= factor


def _swap_masses(rows):
    rows[3]["mass_phi"], rows[4]["mass_phi"] = rows[4]["mass_phi"], rows[3]["mass_phi"]


def _seq(out, key, k, fn):
    seq = list(out[key])
    seq[k] = fn(np.array(seq[k], dtype=float))
    return dict(out, **{key: seq})


def _raise_cell(v):
    v[v.argmax()] = 1.0 + 1e-6
    return v


def _report_corruptions():
    """Corruptions shared by the two certified workloads."""
    return [
        ("verdict", lambda o: _summary(o, lambda s: _set(
            s, ["verdict", "flags", "bound_dominated"], False))),
        ("bound", lambda o: _rows(o, lambda r: r[-1].__setitem__(
            "l1_distance", 10.0 * o["summary"]["constants"]["c0"]))),
        ("masses", lambda o: _rows(o, _swap_masses)),
        ("masses", lambda o: _rows(o, lambda r: r[0].__setitem__("mass_psi", 1.001))),
    ]


CORRUPTIONS = {
    "local": _report_corruptions() + [
        ("exit_code", lambda o: dict(o, rc=2)),
        ("ly_theta", lambda o: _summary(o, lambda s: _set(
            s, ["certificates", "ly", "theta"], 0.495))),
        ("mixing_E", lambda o: _summary(o, lambda s: _scale(
            s, ["certificates", "mixing", "E"], 2))),
        ("constants", lambda o: _summary(o, lambda s: _scale(
            s, ["constants", "c0"], 1.0 + 1e-9))),
        ("constants", lambda o: _summary(o, lambda s: _scale(
            s, ["constants", "lambda"], 1.0 - 1e-9))),
        ("fit", lambda o: _summary(o, lambda s: _scale(
            s, ["fit", "lambda_fit"], 1.001))),
        ("fit", lambda o: _rows(o, lambda r: [x.__setitem__(
            "l1_distance", 1e-3 * (1.0 + (x["m"] % 2))) for x in r])),
    ],
    "torus": _report_corruptions() + [
        ("T_ge_E", lambda o: _summary(o, lambda s: _set(
            s, ["certificates", "mixing", "E"], s["constants"]["T"] + 1))),
        ("column_sums", lambda o: dict(o, colsums=o["colsums"] * (1.0 + 1e-8))),
    ],
    "evolve": [
        ("step1_mass", lambda o: _seq(o, "phi", 1, lambda v: v * (1.0 + 1e-8))),
        ("nonnegative", lambda o: _seq(o, "psi", 5, lambda v: v - 2.0 * v.max())),
        ("uniform_le_one", lambda o: _seq(o, "phi", 50, _raise_cell)),
        ("escape", lambda o: _seq(o, "escape_phi", 10, lambda v: v - 1e-6)),
        ("escape", lambda o: dict(o, share=o["share"] * 0.5)),
        ("seminorms", lambda o: _seq(o, "l1", 3, lambda v: v * (1.0 + 1e-6))),
        ("seminorms", lambda o: _seq(o, "tv_psi", 7, lambda v: v * (1.0 + 1e-6))),
    ],
}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workload", nargs="*", default=sorted(CORRUPTIONS))
    args = p.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import opendyn as od
    import opendyn.cli  # noqa: F401
    from workloads import WORKLOADS

    missed = 0
    for name in args.workload:
        w = WORKLOADS[name]
        workdir = os.path.join(HERE, "out", "selftest")
        os.makedirs(workdir, exist_ok=True)
        out = w.run(od, w.inputs(od, args.seed, workdir))
        clean = w.check(out)
        print(f"{name}: true output -> {'pass' if not clean else clean}")
        missed += bool(clean)
        for check, corrupt in CORRUPTIONS[name]:
            fails = w.check(corrupt(out))
            named = [f for f in fails if f.startswith(check + ":")]
            missed += not named
            print(f"{name}: corrupt {check:<15} -> "
                  f"{'rejected  ' + named[0] if named else 'MISSED'}")
    print("all corruptions rejected" if not missed else f"{missed} not rejected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
