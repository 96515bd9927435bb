"""Watching a certified block squeeze the density cone.

Densities in the aperture-a cone have strong seminorm at most a times the
smallest conditional expectation over the reference arcs.  After a certified
T-step block, sampled members land well inside the sigma*a cone, and the
two-sided expectation control explains why: conditional masses stay pinned
between zeta1 and zeta2 times the input mass.
"""
import numpy as np

from opendyn import (GridDensity, SeminormSpec, build_closed, cone_member,
                     control_bounds_check, doubling_map, dyadic_partition,
                     estimate_LY, hilbert_distance_bound, push,
                     sample_cone_density, select_parameters,
                     verify_cone_contraction)
from opendyn.phase import Grid

g = Grid(1, 4096)
TV = SeminormSpec.from_config({"kind": "tv"})
op = build_closed(doubling_map(), g)
cert = estimate_LY([op] * 4, 1, TV, 24, seed=11)
pool = [dyadic_partition(g, L) for L in range(1, 9)]
cp = select_parameters(0.9, 1.1, cert.theta, cert.C, 1, TV, pool, op,
                       sigma=0.5, i_max=16)
print("selected: T = %d, a = %g, sigma = %g, |Q| = %d"
      % (cp.T, cp.a, cp.sigma, len(cp.Q.elements)))

rng = np.random.default_rng(3)
block = [op] * cp.T


def through_block(phi):
    """The image of phi under the whole block (the last pushed density)."""
    for v in push(block, phi.values, g):
        pass
    return GridDensity(g, v)


print("\nfive sampled cone members through one certified block "
      "(ratio = |phi|_s / (a minE)):")
print("%14s %14s %12s" % ("ratio before", "ratio after", "in C_sa"))
for _ in range(5):
    phi = sample_cone_density(g, cp.Q, cp.a, TV, rng)
    before = cone_member(phi, cp.a, cp.Q, TV)
    out = through_block(phi)
    after = cone_member(out, cp.a, cp.Q, TV)
    shrunk = cone_member(out, cp.sigma * cp.a, cp.Q, TV)
    r0 = before.seminorm_value / (cp.a * before.min_expectation)
    r1 = after.seminorm_value / (cp.a * after.min_expectation)
    print("%14.4f %14.4f %12s" % (r0, r1, shrunk.ok))

rep = verify_cone_contraction(block, cp, samples=100, seed=4,
                              theta_LY=cert.theta, C_LY=cert.C, T1=1)
print("\n100-sample sweep: ok = %s, worst contraction ratio %.4f (<= %.2f)"
      % (rep.ok, rep.worst_ratio, cp.sigma))

phi = sample_cone_density(g, cp.Q, cp.a, TV, rng)
ctrl = control_bounds_check(block, cp.Q, cp.zeta1, cp.zeta2, cp.a, cp.M, phi,
                            TV)
print("\nexpectation control on one sample: conditional masses in "
      "[%.4f, %.4f],\nrequired window [%.4f, %.4f]"
      % (ctrl.e_min, ctrl.e_max, ctrl.lower_bound, ctrl.upper_bound))

# the projective-diameter bound asks for members of the contracted cone,
# which is exactly what block images are
img_a = through_block(sample_cone_density(g, cp.Q, cp.a, TV, rng))
img_b = through_block(sample_cone_density(g, cp.Q, cp.a, TV, rng))
print("\nprojective diameter bookkeeping: two block images sit at most %.4f"
      "\napart in the projective metric"
      % hilbert_distance_bound(img_a, img_b, cp))
