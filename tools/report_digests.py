#!/usr/bin/env python3
"""Print the SHA-256 of every report a fixed corpus of commands writes.

Runs eight commands through ``revineq.cli.run``, each into its own folder of
a temporary directory, and prints one line ``<sha256>  <case>/<file>`` per
``report.json``, ``sweep.csv`` and ``trace.csv``.  ``run_meta.json`` holds
timings and is left out.  Two checkouts that print the same lines write
byte-identical reports for the corpus:

    PYTHONPATH=src python3 tools/report_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from revineq import cli

_MC = {"quadrature": {"scheme": "monte_carlo", "sample_count": 20000}}
_H1_KORANYI = {"group": {"name": "heisenberg"}, "norm": {"name": "koranyi"},
               **_MC}
_EXP_GAUSS = {"trial_f": {"family": "exp_decay", "params": [1.0]},
              "trial_h": {"family": "gaussian", "params": [1.0]}}
_HARDY = {"inequality": {"name": "reverse_hardy", "p": 0.5}}

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
        **_MC, "group": {"name": "abelian", "weights": [1.0]},
        "norm": {"name": "euclidean"}, **_EXP_GAUSS,
        "inequality": {"name": "reverse_stein_weiss", "p": 0.5,
                       "q_prime": 0.5, "alpha": 0.25, "beta": 0.5}}, 8),
)

REPORT_FILES = ("report.json", "sweep.csv", "trace.csv")


def digests(root: Path) -> list[str]:
    lines = []
    for case, command, config, seed in CORPUS:
        out = root / case
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(command, config, out, seed)
        for name in REPORT_FILES:
            path = out / name
            if path.exists():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {case}/{name}")
        lines.append(f"exit {code}  {case}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for line in digests(Path(tmp)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
