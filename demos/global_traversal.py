"""Quasi-static traversal of a one-parameter curve of expanding maps.

The curve interpolates branch slopes from (2, 2) to (3, 3, 3) while staying
Lebesgue-preserving.  Certificates are priced at sampled parameter values,
each sample contributes a perturbation radius, and min xi / (2T) at the run's
final block length T becomes the speed limit on the parameter steps.  A run
that respects the limit keeps the worst-case constants valid along the whole
path.
"""
from opendyn import ConfigError, run_global

config = {
    "kind": "global",
    "grid": {"dimension": 1, "n": 2048},
    "seed": 7,
    "horizon": 48,
    "family": {"name": "slopes_2_to_3", "u_start": 0.0, "u_end": 1.0,
               "step": "auto", "cert_samples": 3},
    "delta": 0.05,
    "holes": {"kind": "random_intervals", "epsilon": 0.005},
    "psi": {"kind": "cosine_bump", "amplitude": 0.15},
    "zeta1": 0.8, "zeta2": 1.2, "sigma": 0.5, "T1": 1,
    "seminorm": {"kind": "tv"},
    "certificates": {"stability_samples": 6},
}

res = run_global(config)
print("speed limit: sigma estimate = %.5g (xi samples: %s)"
      % (res.constants["sigma_estimate"],
         ", ".join("%.4f" % x for x in res.constants["xi_samples"])))
print("chosen step %.5g, parameter reached %.4f after %d steps"
      % (res.constants["step"],
         min(1.0, (config["horizon"] - 1) * res.constants["step"]),
         config["horizon"]))
print("worst-case constants along the path: Lambda = %.6f, C0 = %.4g"
      % (res.constants["lambda"], res.constants["c0"]))

c_fit, lam_fit, r2 = res.fit
print("\nL1 distance tail:", ", ".join("%.3g" % r["l1_distance"]
                                       for r in res.records[-4:]))
print("fitted decay: %.4g * %.4f^m, R^2 = %.4f" % (c_fit, lam_fit, r2))
print("flags:", ", ".join("%s=%s" % kv for kv in sorted(res.flags.items())))

fast = dict(config)
fast["family"] = dict(config["family"], step=0.2)
try:
    run_global(fast)
except ConfigError as exc:
    print("\nstep 0.2 is rejected before any evolution runs:")
    print(" ", exc)
