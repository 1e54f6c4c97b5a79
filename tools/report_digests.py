#!/usr/bin/env python3
"""Print the SHA-256 of every report a fixed corpus of commands writes.

Runs a fixed corpus of commands through ``revineq.cli.main``, each from a
config file into its own folder of a temporary directory, and prints one
line ``<sha256>  <case>/<file>`` per ``report.json``, ``sweep.csv`` and
``trace.csv``, then ``exit <code>  <case>``.  A config that raises exits 2
(configuration or parameter error) or 3 (numerical error) and writes no
report, so its exit line pins that code; any other exception is recorded
as exit 1, the interpreter's exit on a traceback, so that one crashing
case does not stop the corpus.  ``run_meta.json`` holds timings
and is left out.  Two checkouts that print the same lines write
byte-identical reports for the corpus:

    PYTHONPATH=src python3 tools/report_digests.py

The output starts with the numpy and scipy versions, which the last bits
of the reports depend on.  ``tests/report_digests.txt`` holds the expected
output, and ``tests/test_report_digests.py`` compares it on those
versions; a change that moves a report rewrites that file with this
command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from revineq import cli

_MC = {"quadrature": {"scheme": "monte_carlo", "sample_count": 20000}}
_H1_KORANYI = {"group": {"name": "heisenberg"}, "norm": {"name": "koranyi"},
               **_MC}
_EXP_GAUSS = {"trial_f": {"family": "exp_decay", "params": [1.0]},
              "trial_h": {"family": "gaussian", "params": [1.0]}}
_HARDY = {"inequality": {"name": "reverse_hardy", "p": 0.5}}
_EXP = {"trial": {"family": "exp_decay", "params": [1.0]}}
_BUMP = {"trial": {"family": "smooth_bump", "params": [1.0]}}
_INTEGRAL_HARDY = {"name": "reverse_integral_hardy", "p": 0.5, "q": -1.0}
_R1 = {**_MC, "group": {"name": "abelian", "weights": [1.0]},
       "norm": {"name": "euclidean"}}
_R4_ANISOTROPIC = {**_MC, "group": {"name": "abelian",
                                    "weights": [1.0, 1.0, 1.0, 2.0]},
                   "norm": {"name": "anisotropic"}}

# (case, command, config, seed)
CORPUS = (
    ("verify_reverse_stein_weiss_h1_koranyi", "verify", {
        **_H1_KORANYI, **_EXP_GAUSS,
        "inequality": {"name": "reverse_stein_weiss", "p": 0.5,
                       "q_prime": 0.5, "alpha": 1.0, "beta": 2.0}}, 1),
    ("verify_reverse_hardy_h1_koranyi", "verify", {
        **_H1_KORANYI, **_HARDY,
        "trial": {"family": "exp_decay", "params": [1.0]}}, 2),
    ("sweep_reverse_stein_weiss_3x3", "sweep", {
        **_H1_KORANYI, **_EXP_GAUSS,
        "sweep": {"inequality": "reverse_stein_weiss",
                  "grid": {"p": [0.3, 0.5, 0.7],
                           "q_prime": [0.3, 0.5, 0.7]}}}, 3),
    ("estimate_reverse_hardy_gaussian", "estimate", {
        **_H1_KORANYI, "norm": {"name": "cygan"}, **_HARDY,
        "trial": {"family": "gaussian", "params": [1.0]},
        "estimate": {"method": "nelder_mead", "budget": 24,
                     "restarts": 2}}, 4),
    ("verify_reverse_hls_r2", "verify", {
        **_MC, "group": {"name": "abelian", "weights": [1.0, 1.0]},
        "norm": {"name": "euclidean"}, **_EXP_GAUSS,
        "inequality": {"name": "reverse_hls", "p": 0.5,
                       "q_prime": 0.5}}, 5),
    # the axioms commands reach check_group_axioms, check_quasi_norm_axioms,
    # kernel_bound_report (Cygan is a true norm) and the anisotropic gauge;
    # the R1 verify reaches the one-column paths of dilate and directions
    ("axioms_h1_cygan", "axioms", {
        **_H1_KORANYI, "norm": {"name": "cygan"}}, 6),
    ("axioms_anisotropic_r2", "axioms", {
        **_MC, "group": {"name": "abelian", "weights": [1.0, 2.0]},
        "norm": {"name": "anisotropic"}}, 7),
    ("verify_reverse_stein_weiss_r1", "verify", {
        **_R1, **_EXP_GAUSS,
        "inequality": {"name": "reverse_stein_weiss", "p": 0.5,
                       "q_prime": 0.5, "alpha": 0.25, "beta": 0.5}}, 8),
    # every row of the inequality table: the radial ratios, both variants
    # of the integral Hardy pair (degenerate, exit 3) and a bilinear search
    ("verify_reverse_sobolev_h1_koranyi", "verify", {
        **_H1_KORANYI, **_EXP,
        "inequality": {"name": "reverse_sobolev", "p": 0.5}}, 9),
    ("verify_reverse_ckn_h1_koranyi", "verify", {
        **_H1_KORANYI, **_EXP,
        "inequality": {"name": "reverse_ckn", "p": 0.5, "alpha": 1.0,
                       "beta": 1.0}}, 10),
    ("verify_forward_hardy_h1_bump", "verify", {
        **_H1_KORANYI, **_BUMP,
        "inequality": {"name": "forward_hardy", "p": 2.0}}, 11),
    ("verify_forward_sobolev_h1_bump", "verify", {
        **_H1_KORANYI, **_BUMP,
        "inequality": {"name": "forward_sobolev", "p": 2.0}}, 12),
    ("verify_forward_ckn_h1_bump", "verify", {
        **_H1_KORANYI, **_BUMP,
        "inequality": {"name": "forward_ckn", "p": 2.0, "alpha": 0.5,
                       "beta": 0.5}}, 13),
    ("verify_reverse_integral_hardy_ball", "verify", {
        **_H1_KORANYI, **_EXP,
        "inequality": {**_INTEGRAL_HARDY, "region": "ball",
                       "W_exponent": -6.0, "U_exponent": -1.0}}, 14),
    ("verify_reverse_integral_hardy_complement", "verify", {
        **_H1_KORANYI, **_EXP,
        "inequality": {**_INTEGRAL_HARDY, "region": "complement",
                       "W_exponent": -2.0, "U_exponent": -3.0}}, 15),
    ("estimate_reverse_stein_weiss_pair", "estimate", {
        **_H1_KORANYI, "quadrature": {"scheme": "monte_carlo",
                                      "sample_count": 5000},
        "inequality": {"name": "reverse_stein_weiss", "p": 0.5,
                       "q_prime": 0.5, "alpha": 1.0, "beta": 2.0},
        "estimate": {"method": "nelder_mead", "budget": 8, "restarts": 1,
                     "families": ["exp_decay", "gaussian"]}}, 16),
    # every branch of sweep: the unweighted corollary, weights, a variant,
    # an explicit and a balanced lambda, and inadmissible points (skip rows)
    ("sweep_reverse_hls_3x3", "sweep", {
        **_H1_KORANYI, **_EXP_GAUSS,
        "sweep": {"inequality": "reverse_hls",
                  "grid": {"p": [0.3, 0.5, 0.7],
                           "q_prime": [0.3, 0.5, 0.7]}}}, 17),
    ("sweep_reverse_stein_weiss_weighted", "sweep", {
        **_MC, "group": {"name": "abelian", "weights": [1.0, 1.0]},
        "norm": {"name": "euclidean"}, **_EXP_GAUSS,
        "sweep": {"inequality": "reverse_stein_weiss", "variant": "improved_a",
                  "grid": {"p": [0.5, 0.7], "q_prime": [0.5],
                           "alpha": [0.0, 0.5], "beta": [0, 1.0],
                           "lambda": [3.0, None]}}}, 18),
    # the complement's power-tail branches: a profile that is not
    # integrable (left side +inf) and one whose outer integral diverges at
    # infinity (left side 0, with a finite windowed left side)
    ("verify_reverse_integral_hardy_complement_power_3", "verify", {
        **_H1_KORANYI, "trial": {"family": "power_decay", "params": [3.0, 1.0]},
        "inequality": {**_INTEGRAL_HARDY, "region": "complement",
                       "W_exponent": -2.0, "U_exponent": -3.0}}, 19),
    ("verify_reverse_integral_hardy_complement_power_8", "verify", {
        **_H1_KORANYI, "trial": {"family": "power_decay", "params": [8.0, 1.0]},
        "inequality": {**_INTEGRAL_HARDY, "region": "complement",
                       "W_exponent": -2.0, "U_exponent": -3.0}}, 20),
    # the inner regime alone: the certified constant is 2^{-lambda} kappa A1
    ("verify_reverse_stein_weiss_improved_b", "verify", {
        **_H1_KORANYI, **_EXP_GAUSS,
        "inequality": {"name": "reverse_stein_weiss", "p": 0.5,
                       "q_prime": 0.5, "alpha": 1.0, "beta": 2.0,
                       "variant": "improved_b"}}, 21),
    # group, norm and quadrature left to their defaults (R1, Euclidean,
    # 40000 samples)
    ("verify_reverse_hardy_defaults", "verify", {
        **_HARDY, "trial": {"family": "exp_decay", "params": [1]}}, 22),
    # dimension 4, where no direct surface rule exists; |S| is exact there
    # too
    ("verify_reverse_hardy_r4", "verify", {
        **_MC, "group": {"name": "abelian", "weights": [1.0, 1.0, 1.0, 1.0]},
        "norm": {"name": "euclidean"}, **_HARDY, **_EXP}, 23),
    # a dimension-4 anisotropic gauge's exact |S|, read by the bilinear
    # form, by each sweep point, and by axioms, which checks a Monte Carlo
    # |S| and polar_consistency against it
    ("verify_reverse_stein_weiss_r4_anisotropic", "verify", {
        **_R4_ANISOTROPIC, **_EXP_GAUSS,
        "inequality": {"name": "reverse_stein_weiss", "p": 0.5,
                       "q_prime": 0.5, "alpha": 1.0, "beta": 1.0}}, 24),
    ("sweep_reverse_hls_r4_anisotropic", "sweep", {
        **_R4_ANISOTROPIC, **_EXP_GAUSS,
        "sweep": {"inequality": "reverse_hls",
                  "grid": {"p": [0.5, 0.7], "q_prime": [0.5, 0.7]}}}, 25),
    ("axioms_r4_anisotropic", "axioms", _R4_ANISOTROPIC, 26),
    # a bilinear search without estimate.families: the families of the
    # trial_f and trial_h sections
    ("estimate_reverse_hls_trial_sections", "estimate", {
        **_H1_KORANYI, **_EXP_GAUSS,
        "quadrature": {"scheme": "monte_carlo", "sample_count": 5000},
        "inequality": {"name": "reverse_hls", "p": 0.5, "q_prime": 0.5},
        "estimate": {"method": "nelder_mead", "budget": 8}}, 27),
    # estimate minimises a ratio, so it rejects a forward inequality,
    # whose ratio is bounded from above (exit 2)
    ("estimate_forward_hardy_rejected", "estimate", {
        **_H1_KORANYI, "inequality": {"name": "forward_hardy", "p": 2.0},
        "trial": {"family": "gaussian", "params": [1.0]},
        "estimate": {"method": "nelder_mead", "budget": 8}}, 28),
    # a power tail 0.05 above its integrability threshold Q + lambda on
    # H1/Cygan: the radial sampler's density overflows (exit 3)
    ("verify_reverse_hls_near_critical", "verify", {
        **_H1_KORANYI, "norm": {"name": "cygan"},
        "inequality": {"name": "reverse_hls", "p": 0.8, "q_prime": 0.8},
        "trial_f": {"family": "power_decay", "params": [6.05, 1.0]},
        "trial_h": {"family": "gaussian", "params": [1.0]}}, 29),
    # the anisotropic gauge takes the lcm of the weights as fractions of
    # denominator at most 10^6, where 1e-7 rounds to 0 (exit 2)
    ("axioms_anisotropic_weight_rounds_to_zero", "axioms", {
        **_MC, "group": {"name": "abelian", "weights": [1.0, 1e-7]},
        "norm": {"name": "anisotropic"}}, 30),
    # p' exists only for p in (0, 1): p = 0 (no balanced lambda either),
    # p = 1 and p = 1.5 are skip rows that note only the range
    ("sweep_reverse_stein_weiss_r1_p_out_of_range", "sweep", {
        **_R1, **_EXP_GAUSS,
        "sweep": {"inequality": "reverse_stein_weiss",
                  "grid": {"p": [0.0, 0.7, 1.0, 1.5],
                           "q_prime": [0.5]}}}, 31),
    # a negative seed is a parameter error (exit 2)
    ("verify_reverse_stein_weiss_negative_seed", "verify", {
        **_R1, **_EXP_GAUSS,
        "inequality": {"name": "reverse_stein_weiss", "p": 0.5,
                       "q_prime": 0.5}}, -1),
    # an h-side power tail 0.0263 above its threshold: the sampler's tail
    # radius, 1.5e305, is finite, and the density overflows (exit 3)
    ("verify_reverse_hls_near_critical_h_side", "verify", {
        **_H1_KORANYI, "norm": {"name": "cygan"},
        "inequality": {"name": "reverse_hls", "p": 0.8, "q_prime": 0.8},
        "trial_f": {"family": "exp_decay", "params": [1.0]},
        "trial_h": {"family": "power_decay", "params": [6.0263, 1.0]}}, 32),
    # lambda = 2 on R1: B and both norms are exact closed forms, and the
    # ratio is 5 / (32 sqrt(pi))
    ("verify_reverse_hls_r1_lambda_2", "verify", {
        **_R1, **_EXP_GAUSS,
        "inequality": {"name": "reverse_hls", "p": 0.5, "q_prime": 0.5}}, 33),
    # one Monte Carlo sample has an infinite stderr, and a verdict with an
    # infinite tolerance fails: the bilinear ratio and the axioms rows
    # polar_consistency and sphere_measure_vs_direct (exit 1 each)
    ("verify_reverse_stein_weiss_one_sample", "verify", {
        **_H1_KORANYI, **_EXP_GAUSS,
        "quadrature": {"scheme": "monte_carlo", "sample_count": 1},
        "inequality": {"name": "reverse_stein_weiss", "p": 0.5,
                       "q_prime": 0.5}}, 0),
    ("axioms_h1_one_sample", "axioms", {
        **_H1_KORANYI,
        "quadrature": {"scheme": "monte_carlo", "sample_count": 1}}, 0),
)

REPORT_FILES = ("report.json", "sweep.csv", "trace.csv")


def digests(root: Path) -> list[str]:
    root.mkdir(parents=True, exist_ok=True)
    lines = []
    for case, command, config, seed in CORPUS:
        out = root / case
        config_path = root / f"{case}.json"
        config_path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(["--config", str(config_path), "--command",
                                 command, "--seed", str(seed),
                                 "--out", str(out)])
            except Exception:
                code = 1
        for name in REPORT_FILES:
            path = out / name
            if path.exists():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {case}/{name}")
        lines.append(f"exit {code}  {case}")
    return lines


def versions() -> list[str]:
    """The header lines naming the numpy and scipy the digests came from."""
    return [f"# numpy {np.__version__}", f"# scipy {scipy.__version__}"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for line in versions() + digests(Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
