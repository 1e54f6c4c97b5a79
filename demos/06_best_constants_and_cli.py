#!/usr/bin/env python3
"""Empirical best constants and the config-driven command line.

The best constant of a reverse inequality is bracketed from below by the
analytic constant and from above by the smallest ratio any trial function
attains.  A derivative-free search over the family parameter boxes (with
common random numbers, so the Monte Carlo surface is smooth) produces that
upper end together with a full evaluation trace.
"""

import json
import tempfile
from pathlib import Path

from revineq import (InequalityParams, QuadratureSpec, SearchSpec,
                     estimate_best_constant, heisenberg_group, koranyi_norm)
from revineq.cli import main as revineq_main

h1 = heisenberg_group()
nk = koranyi_norm(h1)
spec = QuadratureSpec(sample_count=30000, seed=0)

P = InequalityParams(Q=4, p=0.5)
print("empirical best-constant brackets on H1, p = 1/2:")
for name, fams in (("reverse_hardy", "exp_decay"),
                   ("reverse_hardy", "power_decay"),
                   ("reverse_sobolev", "exp_decay"),
                   ("reverse_sobolev", "gaussian")):
    rec = estimate_best_constant(
        name, P, fams, SearchSpec(method="nelder_mead", budget=60,
                                  restarts=3, seed=11), h1, nk, spec)
    print(f"  {name:>15} over {fams:>11}: min ratio {rec.min_ratio:.6f} "
          f"at {tuple(round(v, 3) for v in rec.argmin)}; "
          f"analytic lower bound {rec.analytic_constant:.6f}")

# --- the same through the CLI ----------------------------------------------------
print("\nCLI round trip (verify reverse Hardy, JSON report):")
cfg = {
    "seed": 7,
    "group": {"name": "heisenberg"},
    "norm": {"name": "koranyi"},
    "quadrature": {"scheme": "monte_carlo", "sample_count": 30000},
    "inequality": {"name": "reverse_hardy", "p": 0.5},
    "trial": {"family": "exp_decay", "params": [1.0]},
}
with tempfile.TemporaryDirectory() as tmp:
    cfg_path = Path(tmp) / "run.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    code = revineq_main(["--config", str(cfg_path), "--command", "verify",
                         "--out", tmp])
    report = json.loads((Path(tmp) / "report.json").read_text())["report"]
    print(f"  exit code {code}; report ratio {report['ratio']:.6f}, "
          f"margin {report['margin']:.4f}, sphere "
          f"{report['sphere']['value']:.4f} ({report['sphere']['method']})")
