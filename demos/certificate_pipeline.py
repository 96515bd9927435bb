"""The full certificate chain on the doubling map, end to end.

Order matters: the strong-seminorm inequality is estimated first, its
(theta, C) feed the parameter selection, the selected partition must then
pass the mixing-window check, and only the surviving tuple is allowed to
price the contraction constants.
"""
from opendyn import (SeminormSpec, birkhoff_factor, build_closed,
                     certify_mixing, doubling_map, dyadic_partition,
                     estimate_LY, rate_constants, select_parameters)
from opendyn.phase import Grid

g = Grid(1, 4096)
TV = SeminormSpec.from_config({"kind": "tv"})
ops = [build_closed(doubling_map(), g)] * 4

cert = estimate_LY(ops, 1, TV, 24, seed=11)
print("step 1, strong-seminorm inequality:")
print("  theta = %s, C = %g (ensemble of %d densities, blocks up to %d)"
      % (cert.theta, cert.C, cert.ensemble["size"], cert.max_k))

pool = [dyadic_partition(g, L) for L in range(1, 9)]
cp = select_parameters(0.9, 1.1, cert.theta, cert.C, 1, TV, pool, ops[0],
                       sigma=0.5, i_max=16)
print("\nstep 2, parameter selection against the dyadic pool:")
print("  T = %d, aperture a = %.15g, |Q| = %d arcs, diameter bound %.4g"
      % (cp.T, cp.a, len(cp.Q.elements), cp.d))

mix = certify_mixing(doubling_map(), cp.Q, cp.zeta1, cp.zeta2, i_max=16)
print("\nstep 3, mixing windows for the selected partition:")
print("  E = %d, ratio range [%.6f, %.6f], iterates checked %d..%d"
      % (mix.E, mix.ratio_min, mix.ratio_max,
         mix.i_checked[0], mix.i_checked[1]))

audit = cp.audit(cert.theta, cert.C, 1)
print("\nstep 4, audit of the assembled tuple:", audit if audit else "clean")

rc = rate_constants(cp)
print("\nstep 5, priced constants:")
print("  delta0 = %.12g   birkhoff factor = %.12g"
      % (rc.delta0, birkhoff_factor(rc.delta0)))
print("  per-step rate Lambda = %.12g   prefactor C0 = %.6g"
      % (rc.lam, rc.c0))
print("  lipschitz comparison constant = %.12g" % rc.c_lip)
