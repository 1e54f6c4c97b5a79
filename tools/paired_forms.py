#!/usr/bin/env python3
"""Paired per-form timing of the benchmark's ``sw_grid`` in two checkouts.

    python3 tools/paired_forms.py OTHER_CHECKOUT --seed 1

Starts two child interpreters: one imports revineq from this checkout's
``src/``, the other from OTHER_CHECKOUT's.  Both build the ``sw_grid``
workload from this checkout's ``perfbench/workloads.py`` and run its
warm-up.  The operations (972 ``verify_stein_weiss`` calls over criterion
8's bilinear grid) then go to the two children one at a time, in workload
order, with the child that runs first alternating from one operation to
the next.  Each child times its own call and returns the SHA-256 of the
report's ``as_dict()``.

Prints how many operations' digests differ, then the mean and the median
over operations of the time ratio this / other, each with a bootstrap 95%
interval, and exits 1 if any digest differs.  The mean is geometric, the
exp of the mean log ratio: the plain mean of a/b exceeds 1 for two
checkouts of the same code, by about the square of a form's relative
timing noise (Jensen's inequality; about 1% on ``sw_grid``).  Whole 30-s
benchmark runs on a shared machine move by several percent from run to
run.  Paired forms move less: two copies of the same code read a
geometric mean of 0.999 to 1.017 over four runs (2 shared x86-64 cores),
so read a difference of a few percent over several seeds.  BLAS is pinned to one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def serve(src: str, seed: int) -> None:
    """The child: print the operation count after the warm-up, then answer
    each operation index read from stdin with '<seconds> <sha256>'."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import revineq
    import workloads
    if Path(revineq.__file__).resolve().parent != Path(src) / "revineq":
        sys.exit(f"paired_forms: imported revineq from {revineq.__file__}")
    with tempfile.TemporaryDirectory() as tmp:
        work = workloads.build("sw_grid", seed, Path(tmp))
        work.warmup.call()
        print(len(work.ops), flush=True)
        for line in sys.stdin:
            call = work.ops[int(line)].call
            start = time.perf_counter()
            report = call()
            seconds = time.perf_counter() - start
            sha = hashlib.sha256(json.dumps(report.as_dict(),
                                            sort_keys=True).encode())
            print(seconds, sha.hexdigest(), flush=True)


class Child:
    """A ``serve`` process for the revineq sources of one checkout."""

    def __init__(self, checkout: Path, seed: int):
        src = (checkout / "src").resolve()
        if not (src / "revineq" / "__init__.py").is_file():
            sys.exit(f"paired_forms: no revineq sources under {src}")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update({var: "1" for var in BLAS_THREAD_VARS})
        code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
                f"import paired_forms; paired_forms.serve({str(src)!r}, "
                f"{seed})")
        self.proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.count = int(self._reply()[0])

    def _reply(self) -> list[str]:
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"paired_forms: child exited with {self.proc.wait()}")
        return line.split()

    def run(self, index: int) -> tuple[float, str]:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        seconds, sha = self._reply()
        return float(seconds), sha

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def paired(other: Path, seed: int, count: int | None = None):
    """(seconds here, seconds in ``other``, same digest) for each of the
    first ``count`` operations (all by default)."""
    children = [Child(ROOT, seed), Child(other, seed)]
    try:
        n = children[0].count
        if children[1].count != n:
            sys.exit(f"paired_forms: {n} operations here, "
                     f"{children[1].count} in {other}")
        rows = []
        for i in range(n if count is None else min(count, n)):
            first = i % 2
            runs = {k: children[k].run(i) for k in (first, 1 - first)}
            rows.append((runs[0][0], runs[1][0], runs[0][1] == runs[1][1]))
        return rows
    finally:
        for child in children:
            child.close()


def bootstrap(log_ratios: np.ndarray, stat, resamples: int = 2000):
    """exp of (stat, 2.5% and 97.5% points of stat over resampled
    operations) of the log ratios."""
    rng = np.random.default_rng(0)
    draws = rng.integers(len(log_ratios), size=(resamples, len(log_ratios)))
    lo, hi = np.percentile(stat(log_ratios[draws], axis=1), [2.5, 97.5])
    return tuple(float(np.exp(v)) for v in (stat(log_ratios), lo, hi))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="the checkout to compare with")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    args = ap.parse_args(argv)
    rows = paired(args.other, args.seed)
    here, there, same = (np.array(c) for c in zip(*rows))
    differ = int(np.sum(~same))
    print(f"{len(rows)} operations, {differ} digests differ")
    log_ratios = np.log(here / there)
    for name, stat in (("geometric mean", np.mean), ("median", np.median)):
        value, lo, hi = bootstrap(log_ratios, stat)
        print(f"{name} time ratio this/other per form: {value:.4f} "
              f"[{lo:.4f}, {hi:.4f}] (bootstrap 95%)")
    print(f"total seconds: this {here.sum():.3f}, other {there.sum():.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
