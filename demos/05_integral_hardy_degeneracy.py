#!/usr/bin/env python3
"""Why the reverse integral Hardy inequality degenerates for power weights.

The two-sided reverse Hardy pair (q < 0 < p < 1)

    [ int_G ( int_{B(0,|x|)} f )^q W dx ]^{1/q}  >=  C (int f^p U dx)^{1/p}

is characterized by the finiteness of A = (tail of W)^{1/q} (ball of
U^{1-p'})^{1/p'}.  For the scale-invariant power weights that the bilinear
argument needs, finiteness of A forces W to be non-integrable at the origin
-- and then the outer integral is +infinity for EVERY profile with finite
positive mass, because (inner integral)^q stays bounded below near 0 while
int W diverges there.  Under the negative-exponent convention
(+inf)^{1/q} = 0, so the left side collapses to zero and the stated bound
cannot hold nontrivially.  The verifier detects this structurally and
reports the degenerate branch instead of a sham number, together with a
finite witness: the left side over a bounded window, which bounds the true
one from above, is already below the certified right side.
"""

from revineq import (QuadratureSpec, heisenberg_group, koranyi_norm,
                     make_profile, verify_reverse_integral_hardy)

h1 = heisenberg_group()
nk = koranyi_norm(h1)
spec = QuadratureSpec(sample_count=50000, seed=0)
f = make_profile("exp_decay", [1.0])


def print_witness(rep):
    """The windowed left side bounds the true one from above (positive outer
    integrand, t -> t^{1/q} decreasing); below kappa*A*rhs it shows the
    failure without the 0^q convention."""
    lo, hi = rep.extras["lhs_truncated_window"]
    windowed = rep.extras["lhs_truncated"]
    certified = rep.analytic_constant * rep.rhs
    order = "<" if windowed < certified else ">="
    print(f"  witness     : on the window [{lo:.3g}, {hi:.3g}] the left side "
          f"is {windowed:.3e}")
    print(f"                {order} kappa*A*rhs = {certified:.3e} "
          f"(ratio {windowed / certified:.3e}); the true left side is "
          "no larger")


# weights from the worked bilinear point: Q=4, p=q'=1/2 (p'=q=-1),
# alpha=1, beta=2, lambda=5  ->  W = |x|^{-6}, U = |y|^{-1}
print("ball variant, W = |x|^-6, U = |y|^-1, f = e^-r:")
rep = verify_reverse_integral_hardy("ball", -6.0, -1.0, f, 0.5, -1.0, h1, nk,
                                    spec)
print(f"  certified constant kappa*A = {rep.analytic_constant:.6g} "
      f"(bracket {rep.extras['bracket']})")
print(f"  right side  = {rep.analytic_constant * rep.rhs:.4f}   "
      "(equals 256 exactly, independent of |S|)")
print(f"  left side   = {rep.lhs}   <- (+inf)^(1/q) under the convention")
print(f"  degenerate  : {rep.degenerate}")
print_witness(rep)
print(f"  pass        : {rep.passed}")

print("\ncomplement variant, W = |x|^-1, U = |y|^-3.5:")
rep2 = verify_reverse_integral_hardy("complement", -1.0, -3.5, f, 0.5, -1.0,
                                     h1, nk, spec)
print(f"  certified constant = {rep2.analytic_constant:.6g}")
print(f"  degenerate  : {rep2.degenerate}")
print_witness(rep2)
print(f"  pass        : {rep2.passed}")

print("\nThis is why the certified two-regime bilinear constant is not "
      "actually\nestablished by its derivation (and is numerically violated "
      "at some\nadmissible points; see demo 04).")
