#!/usr/bin/env python3
"""Homogeneous groups, anisotropic dilations, and quasi-norms.

Walks through the built-in groups (abelian R^N and the first Heisenberg
group) and their gauges, and runs the axiom checkers that every
verification below ultimately rests on.
"""

import numpy as np

from revineq import (abelian_group, anisotropic_gauge, check_group_axioms,
                     check_quasi_norm_axioms, cygan_norm, dilate,
                     euclidean_norm, group_inv, group_mul, heisenberg_group,
                     koranyi_norm)

# --- the Heisenberg group H1 -------------------------------------------------
h1 = heisenberg_group()
print(f"group: {h1.name}, weights {h1.weights}, homogeneous dimension "
      f"Q = {h1.homogeneous_dim:g}")

x = np.array([1.0, 0.0, 0.0])
y = np.array([0.0, 1.0, 0.0])
print("x * y      =", group_mul(h1, x, y), "   (the t-slot picks up the area term)")
print("x * x^{-1} =", group_mul(h1, x, group_inv(h1, x)))
print("D_2(1,0,1) =", dilate(h1, 2.0, [1.0, 0.0, 1.0]),
      "  (t scales with weight 2)")

# --- gauges ------------------------------------------------------------------
nk = koranyi_norm(h1)
nc = cygan_norm(h1)
print("\nKoranyi gauge:  |(1,0,0)| =", nk([1.0, 0.0, 0.0]),
      "  |(0,0,1)| =", nk([0.0, 0.0, 1.0]))
print("degree-1 homogeneity: |D_2(1,0,0)| =", nk(dilate(h1, 2.0, x)))

for norm in (nk, nc, anisotropic_gauge(h1)):
    rows = check_quasi_norm_axioms(norm, sample_count=2000, seed=0)
    tri = ("max triangle violation %.2e" % rows["norm_triangle"].value
           if "norm_triangle" in rows else "triangle not asserted")
    print(f"{norm.name:>22}: homogeneity "
          f"{rows['norm_homogeneity'].value:.2e}, symmetry "
          f"{rows['norm_symmetry'].value:.2e}, "
          f"{rows['norm_nondegeneracy'].value:g} zeros off the origin, {tri}")

# --- group axioms on random samples -------------------------------------------
print()
for group in (abelian_group((1.0, 1.0), name="abelian2"), h1):
    rows = check_group_axioms(group, sample_count=10000, seed=1)
    print(f"{group.name:>10}: associativity residual "
          f"{rows['group_associativity'].value:.2e}, automorphism residual "
          f"{rows['dilation_automorphism'].value:.2e}")

# The Koranyi gauge is only a quasi-norm; the Cygan variant (t-coefficient 16)
# is subadditive and is what the kernel-bound checks use.
rng = np.random.default_rng(2)
a = rng.standard_normal((200000, 3))
b = rng.standard_normal((200000, 3))
viol_k = np.max(nk(group_mul(h1, a, b)) - (nk(a) + nk(b)))
viol_c = np.max(nc(group_mul(h1, a, b)) - (nc(a) + nc(b)))
print(f"\nworst |xy| - (|x|+|y|):  koranyi {viol_k:+.3e}   cygan {viol_c:+.3e}")
print("(no violations found for either here, but only the cygan gauge "
      "asserts subadditivity)")
