#!/usr/bin/env python3
"""Print the SHA-256 of every report of the benchmark's ``sw_grid`` workload.

Builds ``perfbench.workloads.build("sw_grid", seed, tmp)``, runs its
operations in their order (972 ``verify_stein_weiss`` calls over criterion
8's bilinear grid) and prints one line ``<count> <sha256>``, the hash taken
over ``json.dumps(report.as_dict(), sort_keys=True)`` of each report in
turn.  Two checkouts that print the same line compute bit-identical
bilinear reports on the whole grid:

    python3 tools/sw_grid_digest.py --seed 1

It imports revineq from this checkout's ``src/`` and the workload from its
``perfbench/``, and pins BLAS to one thread as the benchmark does.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def digest(seed: int) -> tuple[int, str]:
    """(number of reports, SHA-256 over their sorted-key JSON in order)."""
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.build("sw_grid", seed, Path(tmp)).ops
        for op in ops:
            sha.update(json.dumps(op.call().as_dict(),
                                  sort_keys=True).encode())
    return len(ops), sha.hexdigest()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    count, hexdigest = digest(ap.parse_args(argv).seed)
    print(count, hexdigest)


if __name__ == "__main__":
    main()
