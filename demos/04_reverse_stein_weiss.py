#!/usr/bin/env python3
"""The reverse doubly weighted bilinear (Stein-Weiss type) inequality

    B(f,h) = int int |x|^a |y^{-1}x|^l f(x) h(y) |y|^b dx dy
           >= C ||f||_{q'} ||h||_p,      p, q' in (0,1),  l > 0,

under the balance condition 1/q' + 1/p = (a+b+l)/Q + 2.  The certified
constant assembled from the two-regime argument is

    C_cert = 2^{-l-1} kappa (A1 + A2),

with A1, A2 the characteristic constants of the inner/outer weighted pairs
and kappa the certified end of the best-constant bracket.  This demo checks
it on the Heisenberg group, shows the exact dilation invariance of the
ratio, and then exhibits a parameter point where C_cert actually FAILS: the
two-regime argument applies an integral inequality outside its domain of
validity (the intermediate integrals diverge), and at unbalanced points the
assembled constant overshoots the true infimum by about 2 percent.
"""

from revineq import (InequalityParams, QuadratureSpec, abelian_group,
                     analytic_A1, analytic_A2, balanced_lambda, bracket_kappa,
                     euclidean_norm, heisenberg_group, koranyi_norm,
                     make_profile, stein_weiss_lower_constant,
                     validate_params, verify_stein_weiss)

h1 = heisenberg_group()
nk = koranyi_norm(h1)
spec = QuadratureSpec(sample_count=100000, seed=0)

# --- a worked admissible point on H1 -------------------------------------------
P = InequalityParams(Q=4, p=0.5, q_prime=0.5, lam=5.0, alpha=1.0, beta=2.0)
print("admissibility:", validate_params(P) or "OK")
print(f"  p' = {P.p_prime:g}, q = {P.q:g}, balance residual "
      f"{P.balance_residual:.1e}")

S = nk.sphere   # Koranyi quasi-sphere measure, 2 pi^2
print(f"  A1 = {analytic_A1(P, S):.6g}  (= 4/S^2),  "
      f"A2 = {analytic_A2(P, S):.6g}  (= 9/S^2),  "
      f"kappa = {bracket_kappa(P.p_prime, P.q):.4g}")
print(f"  certified constant = {stein_weiss_lower_constant(P, S):.6g}")

f = make_profile("exp_decay", [1.0])
h = make_profile("gaussian", [1.0])
out = verify_stein_weiss(f, h, P, h1, nk, spec)
print(f"\nexp x gauss trial pair: ratio {out.ratio:.6g} "
      f">= {out.analytic_constant:.6g}  pass={out.passed}")

print("\ndilation invariance of the ratio (exactly covariant sampling):")
for s in (0.5, 2.0, 4.0):
    rs = verify_stein_weiss(f.dilated(s), h.dilated(s), P, h1, nk, spec)
    print(f"  s={s:<4}: ratio {rs.ratio:.12g}   drift "
          f"{abs(rs.ratio - out.ratio) / out.ratio:.1e}")

# --- where the certified constant fails ------------------------------------------
print("\nan admissible point where the certified constant overshoots:")
line = abelian_group((1.0,), name="abelian1")
ne = euclidean_norm(line)
Q, p, qp = 1.0, 0.7, 0.3
beta = 0.5 * (-Q / (p / (p - 1.0)))
lam = balanced_lambda(Q, p, qp, 0.0, beta)
P1 = InequalityParams(Q=Q, p=p, q_prime=qp, lam=lam, alpha=0.0, beta=beta)
s_pow = max(Q / qp, Q / p) + lam + Q + 2.0
f1 = make_profile("exp_decay", [1.0])
h1pow = make_profile("power_decay", [s_pow, 1.0])
big = QuadratureSpec(sample_count=2000000, seed=1)
r = verify_stein_weiss(f1, h1pow, P1, line, ne, big)
print(f"  Q=1, p=0.7, q'=0.3, beta={beta:.4f}, lambda={lam:.4f}")
print(f"  ratio {r.ratio:.6f} +- {r.stderr:.1e}  vs certified "
      f"{r.analytic_constant:.6f}   ratio/constant = "
      f"{r.ratio / r.analytic_constant:.4f}")
print("  -> the bilinear bound holds with SOME constant, but not with the"
      "\n     two-regime certified one; its derivation divides by divergent"
      "\n     intermediate integrals (see 05 and the README note).")
