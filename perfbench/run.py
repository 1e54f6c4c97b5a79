#!/usr/bin/env python3
"""revineq benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload sw_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs from the root of a source checkout and imports revineq from ``src/``.
One process, one operation at a time (closed loop, one client), BLAS pinned
to one thread.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run; the last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import os

# before numpy loads: BLAS threads <= nproc, and a fixed count so runs compare
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sw_grid", "radial_search", "cli_seed_scan")
# fresh interpreters per run for setup_s; the median is reported
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60.0
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p99", "ms"), ("relvar_x_s", "s"), ("peak_rss_mb", "MB")]


def _import_program():
    """Import revineq from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "revineq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no revineq sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import revineq
    if Path(revineq.__file__).resolve().parent != src / "revineq":
        sys.exit(f"perfbench: imported revineq from {revineq.__file__}")
    import workloads
    return workloads


def _scratch():
    """A scratch directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def run_op(op, tracer=None):
    """Time one operation; check its output untimed (and untraced)."""
    from workloads import Outcome
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:   # a raised error is a failed operation
        return time.perf_counter() - start, Outcome(
            False, op.label, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    with tracer.paused() if tracer else contextlib.nullcontext():
        try:
            return seconds, op.check(result)
        except Exception as exc:
            return seconds, Outcome(False, op.label,
                                    f"output check raised {exc!r}")


def run_ops(ops, seconds=None, count=None, tracer=None):
    """Cycle through ``ops`` for ``seconds`` of operation time (at least one
    operation) or for exactly ``count`` operations."""
    records, busy, i = [], 0.0, 0
    while True:
        dt, outcome = run_op(ops[i % len(ops)], tracer)
        records.append((dt, outcome))
        busy += dt
        i += 1
        if (count is not None and i >= count) or \
                (count is None and busy >= seconds):
            return records


def run_oracles(workload):
    results = []
    for oracle in workload.oracles:
        try:
            passed, detail = oracle.check()
        except Exception as exc:
            passed, detail = False, f"raised {exc!r}"
        results.append((oracle, bool(passed), detail))
    return results


def run_defects(workload):
    results = []
    for defect in workload.defects:
        try:
            reproduced, detail = defect.probe()
        except Exception as exc:
            reproduced, detail = False, f"probe raised {exc!r}"
        results.append((defect, reproduced, detail))
    return results


def tail_percentile(values):
    """(value, level) at the highest percentile, at most the 99th, that has
    at least ten samples above it; the maximum when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 1.0
    k = min(n - 10, -(-99 * n // 100))      # nearest rank
    return xs[k - 1], k / n


def end_to_end(records, setup):
    """Latency statistics weigh each distinct operation once, at the median
    of its runs: a time-bounded run repeats whichever operations come first
    in the cycle, and counting repeats would weight those."""
    runs = {}
    for dt, outcome in records:
        runs.setdefault(outcome.inputs, []).append((dt, outcome))
    latency = {k: statistics.median(dt for dt, _ in v) for k, v in runs.items()}
    relvar = [v[0][1].rel_err ** 2 * latency[k] for k, v in runs.items()
              if v[0][1].ok and v[0][1].rel_err is not None]
    tail, level = tail_percentile(latency.values())
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": sum(o.ok for _, o in records)
        / sum(dt for dt, _ in records),
        "op_ms_p50": 1e3 * statistics.median(latency.values()),
        "op_ms_p99": 1e3 * tail,
        "relvar_x_s": statistics.median(relvar) if relvar else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"{len(records)} operation runs, {len(latency)} distinct; "
             f"op_ms_p99 is the p{100 * level:.2f}",
             f"relvar_x_s is the median of {len(relvar)} distinct operations",
             f"setup_s is the median of {len(setup)} fresh interpreters: "
             + ", ".join(f"{s:.4f}" for s in setup)]
    return {k: (values[k], unit) for k, unit in END_TO_END}, notes


# ---------------------------------------------------------------------------
# set-up time in fresh interpreters
# ---------------------------------------------------------------------------

def setup_child(name: str, seed: int) -> None:
    """Import, build the workload and run its warm-up operation; then say so."""
    workloads = _import_program()
    with _scratch() as tmp:
        wl = workloads.build(name, seed, Path(tmp))
        run_op(wl.warmup)
        print("ready", flush=True)


def time_setup(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up run failed with exit code {code}")
    return elapsed


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = _import_program()
    from tracer import Tracer
    setup = [] if trace else [time_setup(name, seed) for _ in range(SETUP_RUNS)]
    with _scratch() as tmp:
        wl = workloads.build(name, seed, Path(tmp))
        if not trace:
            run_op(wl.warmup)
            records = run_ops(wl.ops, seconds=seconds)
            metrics, notes = end_to_end(records, setup)
        else:
            # traced phase for half the time, then the same operations
            # untraced; the ratio of their times is the tracing overhead
            tracer = Tracer()
            tracer.install()
            try:
                run_op(wl.warmup)
                tracer.reset()
                tracer.recording = True
                records = run_ops(wl.ops, seconds=seconds / 2, tracer=tracer)
                tracer.recording = False
            finally:
                tracer.uninstall()
            plain = run_ops(wl.ops, count=len(records))
            overhead = (sum(dt for dt, _ in records)
                        / sum(dt for dt, _ in plain) - 1.0)
            metrics = tracer.layer_metrics(len(records), overhead)
            notes = [f"{len(records)} operations traced, "
                     f"{len(tracer.spans)} spans"] + tracer.span_table()
            records += plain
        oracles = run_oracles(wl)
        defects = run_defects(wl)
    return {"records": records, "oracles": oracles, "defects": defects,
            "metrics": metrics, "notes": notes}


def report(name, seed, seconds, trace, res) -> dict:
    records, oracles = res["records"], res["oracles"]
    failures = [o for _, o in records if not o.ok]
    missed = [(o, d) for o, passed, d in oracles if not passed]
    attempted = len(records) + len(oracles)
    failed = len(failures) + len(missed)
    print(f"perfbench {name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for key, (value, unit) in res["metrics"].items():
        print(f"metric {key} = {value:.6g} {unit}")
    print(f"metric failed_share = {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} attempted: {len(records)} operations, "
          f"{len(oracles)} oracles)")
    for note in res["notes"]:
        print("note " + note)
    flagged = [o for _, o in records if o.beyond_3_sigma]
    print(f"note {len(flagged)} operations passed with a Monte Carlo "
          f"self-check between 3 and 5 stderr")
    for outcome in flagged[:5]:
        print(f"note beyond 3 sigma: {outcome.inputs}: {outcome.detail}")
    for oracle, passed, detail in oracles:
        kind = "statistical" if oracle.statistical else "exact"
        print(f"check {oracle.name} [{kind}] {'PASS' if passed else 'FAIL'}: "
              f"{detail}")
    for defect, reproduced, detail in res["defects"]:
        print(f"known_defect {defect.name} "
              f"{'REPRODUCED' if reproduced else 'NOT REPRODUCED'}: {detail}")
    for outcome in failures[:20]:
        print(f"failed {outcome.inputs}: {outcome.detail}")
    if len(failures) > 20:
        print(f"failed ... {len(failures) - 20} more")
    return {"correct": not any(not o.statistical for o, _ in missed),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in res["metrics"].items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; prints their output and a table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        sys.stdout.write(proc.stdout)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    rows = list(results[WORKLOADS[0]]["metrics"].items())
    width = max(len(key) for key, _ in rows) + 8
    print("\n" + " " * width + "".join(f"{n:>16}" for n in WORKLOADS))
    for key, meta in rows:
        print(f"{key + ' [' + meta['unit'] + ']':<{width}}" + "".join(
            f"{results[n]['metrics'][key]['value']:>16.6g}" for n in WORKLOADS))
    print(f"{'failed_share [1]':<{width}}" + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:>16.6g}"
        for n in WORKLOADS))
    print(f"{'outputs correct':<{width}}" + "".join(
        f"{str(results[n]['correct']):>16}" for n in WORKLOADS))
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        out = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        out = report(args.workload, args.seed, args.seconds, bool(args.trace),
                     res)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
