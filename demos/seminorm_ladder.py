"""Two strong seminorms side by side on the same profiles.

The oscillation seminorm scans a dyadic ladder of window radii and takes the
worst scale-normalized oscillation; exponent 1 on a unit step gives 4 at
every rung (two window diameters see the jump from both sides), so the
supremum is scale-free there.  Total variation counts the same jump twice
around the circle.  The block inequality estimate on the doubling map then
shows the contraction a certificate is built from.
"""
import numpy as np

from opendyn import (GridDensity, SeminormSpec, build_closed, doubling_map,
                     estimate_LY, oscillation_seminorm, total_variation)
from opendyn.phase import Grid
from opendyn.seminorm import OscParams

g = Grid(1, 4096)
step = GridDensity.from_function(g, lambda x: (x < 0.5).astype(float) * 1.0)
ramp = GridDensity.from_function(g, lambda x: x)

print("height-1 step on the circle:")
print("  total variation        = %.12f (two unit jumps)"
      % total_variation(step))
for alpha in (1.0, 0.5):
    p = OscParams(alpha=alpha, eps0=0.25)
    v = oscillation_seminorm(step, p)
    print("  oscillation, alpha=%.1f = %.12f" % (alpha, v))

val, profile = oscillation_seminorm(step, OscParams(alpha=0.5, eps0=0.25),
                                    return_profile=True)
print("  alpha=0.5 rung profile (eps, value):")
for eps, v in profile:
    print("    %.6f  %.6f" % (eps, v))
print("  rung values follow 4*sqrt(eps): top rung 4*sqrt(0.25) = 2")

print("\nlinear ramp: TV %.6f vs oscillation(alpha=1) %.6f"
      % (total_variation(ramp),
         oscillation_seminorm(ramp, OscParams(alpha=1.0, eps0=0.25))))

ops = [build_closed(doubling_map(), g)] * 4
TV = SeminormSpec.from_config({"kind": "tv"})
OSC = SeminormSpec.from_config({"kind": "osc", "alpha": 1.0, "eps0": 0.25})
for name, sem in (("tv", TV), ("osc", OSC)):
    cert = estimate_LY(ops, 1, sem, 24, seed=11)
    print("doubling block inequality under %-3s: theta = %s, C = %g"
          % (name, cert.theta, cert.C))
