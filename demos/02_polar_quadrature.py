#!/usr/bin/env python3
"""Integration over homogeneous groups and the quasi-sphere measure |S|.

Everything radial reduces to |S| * int g(r) r^{Q-1} dr.  Every built-in
gauge carries its exact |S| in closed form (``norm.sphere``; 2 pi^2 for the
Koranyi gauge on the Heisenberg group), and the verifiers read it.  Two
independent estimates check it: the Monte Carlo identity
|S| = (int e^{-|x|} dx) / Gamma(Q) (``sphere_measure_mc``), and, in
dimension <= 3, the direction integral
int_{S^{N-1}} (sum_i v_i u_i^2) |u|^{-Q} dS(u) (``sphere_measure_direct``).
"""

import numpy as np
from scipy import special as sp

from revineq import (DecayEnvelope, QuadratureSpec, abelian_group,
                     euclidean_norm, heisenberg_group, integrate_cartesian,
                     integrate_radial_err, koranyi_norm,
                     polar_consistency_check, sphere_measure_direct,
                     sphere_measure_mc)

plane = abelian_group((1.0, 1.0), name="abelian2")
h1 = heisenberg_group()
ne, nk = euclidean_norm(plane), koranyi_norm(h1)
spec = QuadratureSpec(sample_count=200000, seed=0)

# --- radial rule against Gamma integrals --------------------------------------
print("radial rule vs Gamma(Q) = int e^{-r} r^{Q-1} dr:")
for Q in (1, 2, 4, 6):
    val = integrate_radial_err(lambda r: np.exp(-r), float(Q))[0]
    print(f"  Q={Q}: {val:.12f}   rel err {abs(val - sp.gamma(Q)) / sp.gamma(Q):.1e}")

# --- cartesian Monte Carlo against closed forms --------------------------------
res = integrate_cartesian(plane, lambda x: np.exp(-np.pi * np.sum(x**2, -1)),
                          spec, DecayEnvelope("gauss", scale=np.pi))
print(f"\nint_R2 e^(-pi|x|^2) dx = {res.value:.6f} +- {res.stderr:.1e}  (exact 1)")

# --- quasi-sphere measures ------------------------------------------------------
print("\nquasi-sphere measures:")
for group, norm in ((plane, ne), (h1, nk)):
    mc = sphere_measure_mc(norm, spec)
    direct = sphere_measure_direct(group, norm)
    print(f"  {group.name}/{norm.name}: MC {mc.value:.6f} +- {mc.stderr:.1e}, "
          f"direct {direct:.12f}, exact {norm.sphere:.12f}")

# --- polar factorization consistency -------------------------------------------
print("\npolar factorization (cartesian vs |S| x radial):")
for norm in (ne, nk):
    row = polar_consistency_check(norm, lambda r: np.exp(-r * r),
                                  DecayEnvelope("gauss"),
                                  spec)["polar_consistency"]
    print(f"  {norm.group.name}: discrepancy {row.value:.2e}, tolerance "
          f"{row.tolerance:.2e} (consistent: {row.passed})")
