"""Conditional memory loss for a wandering neighborhood of the doubling map.

Every step uses a different nearby full-branch map and punches a different
small hole, yet the two survivor-conditioned densities forget their common
past at a clean exponential rate.  The run certifies its own hypotheses
first, so the printed rate comes with a constant that provably dominates
the observed distances (up to the reported discretization budget).
"""
import tempfile

from opendyn import emit_report, run_local

config = {
    "kind": "local",
    "grid": {"dimension": 1, "n": 2048},
    "seed": 7,
    "horizon": 32,
    "map": {"kind": "full_branch_1d", "cuts": [0.5]},
    "delta": 0.02,
    "holes": {"kind": "drifting_interval", "measure": 0.01,
              "center": 0.3, "velocity": 0.137},
    "psi": {"kind": "cosine_bump", "amplitude": 0.15},
    "zeta1": 0.8, "zeta2": 1.2, "sigma": 0.5, "T1": 1,
    "seminorm": {"kind": "tv"},
}

res = run_local(config)
print("certificates: theta = %s, C = %g, T = %d, a = %g, E = %d"
      % (res.certificates["ly"]["theta"], res.certificates["ly"]["C"],
         res.constants["T"], res.constants["a"],
         res.certificates["mixing"]["E"]))
print("rate constants: Lambda = %.6f, C0 = %.4g"
      % (res.constants["lambda"], res.constants["c0"]))

print("\n%3s %12s %12s %14s %14s" % ("m", "mass phi", "mass psi",
                                     "L1 distance", "bound"))
c0, lam = res.constants["c0"], res.constants["lambda"]
for r, b in zip(res.records, res.budget):
    if r["m"] % 4 == 0 or r["m"] == 1:
        print("%3d %12.6f %12.6f %14.6e %14.6e"
              % (r["m"], r["mass_phi"], r["mass_psi"], r["l1_distance"],
                 c0 * lam ** r["m"] + b))

c_fit, lam_fit, r2 = res.fit
print("\nfitted decay: %.4g * %.4f^m, R^2 = %.4f" % (c_fit, lam_fit, r2))
print("flags:", ", ".join("%s=%s" % kv for kv in sorted(res.flags.items())))

with tempfile.TemporaryDirectory() as td:
    paths = emit_report(res, td)
    print("\nartifacts written:",
          ", ".join(sorted(p.rsplit("/", 1)[1] for p in paths.values())))
