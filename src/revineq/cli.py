"""Config-driven command line: verify / estimate / sweep / axioms.

Usage:
    revineq --config run.json --command verify [--seed N] [--out DIR]

The config is a single JSON file with flat sections (group, norm,
quadrature, inequality, trial[,_f,_h], estimate, sweep, seed).  Every key
is read by the command or rejected, naming its key path, before any
verifier runs or any file is written; a null value counts as absent.
Every report embeds the fully resolved config, so a report is
reproducible from itself; a verify report also carries the quasi-sphere
measure |S| used in its analytic constant.

Outputs (in --out, default "."):
    report.json    deterministic: identical (config, seed) give identical bytes
    run_meta.json  timestamp, runtime and library versions (volatile data)
    sweep.csv      one row per grid point (sweep command)
    trace.csv      every ratio evaluation of a search (estimate command)

Exit status: 0 all checks passed; 1 an inequality margin failed;
2 configuration/parameter error; 3 numerical error (any NumericalError).
On exit 2 or 3 stderr holds one line, "error: <where>: <message>" or
"numerical error: <where>: <message>".  <where> names the package
functions outside this module that the error passed through, outermost
first (exceptions.where); with none, as for most config errors, the
message stands alone.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import numbers
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, quadrature
from . import inequalities as ineq
from .exceptions import ConfigError, NumericalError, RevineqError, where
from .groups import (Check, abelian_group, anisotropic_gauge,
                     check_group_axioms, check_quasi_norm_axioms, cygan_norm,
                     euclidean_norm, heisenberg_group, koranyi_norm)
from .operators import kernel_bound_report
from .quadrature import DecayEnvelope, QuadratureSpec, polar_consistency_check
from .trials import SearchSpec, estimate_best_constant, make_profile

SWEEP_COLUMNS = ["inequality", "Q", "p", "q_prime", "alpha", "beta",
                 "lambda_or_gamma", "lhs", "rhs", "ratio", "constant",
                 "margin", "stderr", "pass", "note"]
# the sweep grid's axes, outermost first
_GRID_KEYS = ("p", "q_prime", "alpha", "beta", "lambda")

_REQUIRED = object()
# the list kinds of Section.get, named as their messages name them; a list
# is returned as written (a sweep cell shows its grid value as given)
_NUMBERS, _AXIS, _NAMES = ("a list of numbers", "a list of numbers or nulls",
                           "a list of names")
_ITEM = {_NUMBERS: float, _AXIS: float, _NAMES: str}


def _scalar(value, kind: type):
    """kind(value), or ValueError unless value is of that kind in JSON: a
    float is a number, an int is an integer or a float with an integral
    value, a str is a string, and no kind takes a bool."""
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and (kind is float or isinstance(value, numbers.Integral)
                 or float(value).is_integer())
    if not ok:
        raise ValueError
    return kind(value)


def _value(value, kind, path: str):
    """value as kind (float, int, str or a list kind), or a ConfigError
    naming config.<path>."""
    try:
        if kind not in _ITEM:
            return _scalar(value, kind)
        if not isinstance(value, list):
            raise TypeError
        for v in value:
            if v is not None or kind is not _AXIS:
                _scalar(v, _ITEM[kind])
        return value
    except (TypeError, ValueError):
        raise ConfigError(
            f"config.{path}: expected {getattr(kind, '__name__', kind)}, "
            f"got {value!r}") from None


class Section:
    """One JSON object of a config, at a key path.  get and section note
    every key they read, so that finish can reject the first key nothing
    read.  A null value counts as absent."""

    def __init__(self, values, path: str = ""):
        if not isinstance(values, dict):
            raise ConfigError(f"config.{path}: expected an object, got "
                              f"{values!r}")
        self.values, self.path, self.read = values, path, set()

    def _path(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def _raw(self, key: str, required: bool):
        self.read.add(key)
        value = self.values.get(key)
        if value is None and required:
            raise ConfigError(f"config.{self._path(key)}: required")
        return value

    def get(self, key: str, default=_REQUIRED, kind=float):
        """The value at key as kind, or default if it is absent."""
        value = self._raw(key, default is _REQUIRED)
        return default if value is None else _value(value, kind,
                                                    self._path(key))

    def section(self, key: str, required: bool = False) -> Section:
        """The object at key; an empty one if it is absent."""
        value = self._raw(key, required)
        return Section({} if value is None else value, self._path(key))

    def finish(self, reader: str | None = None) -> None:
        """Reject the first key nothing read: "unknown key", or "not read by
        <reader>" where what a section may hold depends on its reader."""
        for key, value in self.values.items():
            if value is not None and key not in self.read:
                raise ConfigError(f"config.{self._path(key)}: " + (
                    f"not read by {reader}" if reader else "unknown key"))


def load_config(path: str | Path) -> dict:
    """Parse a config file; errors carry the offending line."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# resolving config sections
# ---------------------------------------------------------------------------

def _build_group(sect: Section):
    name = sect.get("name", "abelian", str)
    if name == "abelian":
        group = abelian_group(tuple(sect.get("weights", [1.0], _NUMBERS)))
    elif name == "heisenberg":
        group = heisenberg_group()
    else:
        raise ConfigError(f"config.group.name: unknown group {name!r}")
    sect.finish()
    return group


def _build_norm(sect: Section, group):
    name = sect.get("name", "auto", str)
    sect.finish()
    if name == "auto":
        name = "koranyi" if group.name == "heisenberg" else (
            "euclidean" if all(w == 1.0 for w in group.weights)
            else "anisotropic")
    builders = {"euclidean": euclidean_norm, "anisotropic": anisotropic_gauge,
                "koranyi": koranyi_norm, "cygan": cygan_norm}
    if name not in builders:
        raise ConfigError(f"config.norm.name: unknown norm {name!r}")
    return builders[name](group)


def _build_quadrature(sect: Section, seed: int) -> QuadratureSpec:
    scheme = sect.get("scheme", "monte_carlo", str)
    sample_count = sect.get("sample_count", 40000, int)
    sect.finish()
    if scheme != "monte_carlo":     # the only one
        raise ConfigError(f"config.quadrature.scheme: unknown scheme "
                          f"{scheme!r}")
    return QuadratureSpec(sample_count=sample_count, seed=seed)


def _build_trial(cfg: Section, key: str = "trial"):
    sect = cfg.section(key, required=True)
    family = sect.get("family", kind=str)
    params = sect.get("params", [], _NUMBERS)
    sect.finish()
    return make_profile(family, params)


def read_inequality(sect: Section, Q: float) -> tuple[str, object]:
    """The name in an inequality section and the verifier arguments that its
    INEQUALITIES entry reads from there through sect.get; a key the entry
    does not read is rejected ("not read by <name>")."""
    name = sect.get("name", kind=str)
    if name not in ineq.INEQUALITIES:
        raise ConfigError(f"config.{sect.path}.name: unknown inequality "
                          f"{name!r}")
    args = ineq.INEQUALITIES[name].read(sect.get, Q)
    sect.finish(name)
    return name, args


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2,
                               allow_nan=True) + "\n")


def _write_meta(out: Path, t0: float) -> None:
    meta = {
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "runtime_seconds": time.perf_counter() - t0,
        "versions": {"revineq": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    _write_json(out / "run_meta.json", meta)


# each command returns (exit code, report body); run writes report.json

def cmd_verify(cfg: Section, group, norm, spec, out: Path):
    name, args = read_inequality(cfg.section("inequality"),
                                 group.homogeneous_dim)
    entry = ineq.INEQUALITIES[name]
    profiles = [_build_trial(cfg, key) for key in entry.trials]
    cfg.finish("verify")
    rep = entry.verify(*profiles, args, group, norm, spec)
    status = "PASS" if rep.passed else "FAIL"
    print(f"{rep.inequality}: ratio={rep.ratio:.6g} "
          f"constant={rep.analytic_constant:.6g} margin={rep.margin:.3g} "
          f"[{status}]")
    body = {"report": rep.as_dict()}
    if rep.degenerate is not None:
        print(f"  degenerate: {rep.degenerate}")
        return 3, body
    return 0 if rep.passed else 1, body


def cmd_estimate(cfg: Section, group, norm, spec, out: Path):
    sect = cfg.section("estimate")
    method = sect.get("method", "nelder_mead", str)
    budget = sect.get("budget", 80, int)
    restarts = sect.get("restarts", 2, int)
    families = sect.get("families", None, _NAMES)
    sect.finish()
    name, params = read_inequality(cfg.section("inequality"),
                                   group.homogeneous_dim)
    # by default the families of the trial sections, built as verify
    # builds them
    families = families or [_build_trial(cfg, key).family_tag
                            for key in ineq.INEQUALITIES[name].trials]
    cfg.finish("estimate")
    search = SearchSpec(method=method, budget=budget, restarts=restarts,
                        seed=spec.seed)
    rec = estimate_best_constant(name, params, families, search, group, norm,
                                 spec)
    with (out / "trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["evaluation", "params", "ratio"])
        for i, (theta, ratio) in enumerate(rec.trace):
            writer.writerow([i, json.dumps(list(theta)), repr(ratio)])
    ok = rec.min_ratio >= rec.analytic_constant - 1e-9
    print(f"{name}: min ratio {rec.min_ratio:.6g} over {rec.evaluations} "
          f"evaluations; analytic constant {rec.analytic_constant:.6g} "
          f"[{'PASS' if ok else 'FAIL'}]")
    return 0 if ok else 1, {"estimate": rec.as_dict()}


def _sweep_rows(cfg: Section, group, norm, spec):
    """One row per grid point, each point read like the ``inequality``
    section and verified as ``verify`` does."""
    sect = cfg.section("sweep", required=True)
    sweepable = [n for n, e in ineq.INEQUALITIES.items()
                 if "sweep" in e.commands]
    name = sect.get("inequality", sweepable[0], str)
    if name not in sweepable:
        raise ConfigError("sweep currently targets the bilinear inequalities")
    variant = sect.get("variant", "full", str)
    grid = sect.section("grid", required=True)
    axes = {k: grid.get(k, _REQUIRED if k in ("p", "q_prime") else None, _AXIS)
            for k in _GRID_KEYS}
    grid.finish()
    sect.finish()
    axes = {k: v for k, v in axes.items() if v is not None}
    points = [dict(zip(axes, values))
              for values in itertools.product(*axes.values())]
    Q = group.homogeneous_dim
    point_params = [read_inequality(Section(
        {"name": name, "variant": variant, **point}, "sweep.grid"), Q)[1]
        for point in points]
    entry = ineq.INEQUALITIES[name]
    profiles = [_build_trial(cfg, key) for key in entry.trials]
    cfg.finish("sweep")

    forms = {}      # the bilinear forms of this sweep (see verify_stein_weiss)
    for point, params in zip(points, point_params):
        # the cells keep the raw grid values; lambda is the resolved one
        base = {"inequality": name, "Q": params.Q, "alpha": params.alpha,
                "beta": params.beta, **point, "lambda_or_gamma": params.lam}
        base.pop("lambda", None)
        failures = ineq.validate_params(params)
        if failures:
            yield {**base, "lhs": "", "rhs": "", "ratio": "", "constant": "",
                   "margin": "", "stderr": "", "pass": "skip",
                   "note": "; ".join(failures)}
            continue
        rep = entry.verify(*profiles, params, group, norm, spec, forms=forms)
        yield {**base, "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio,
               "constant": rep.analytic_constant, "margin": rep.margin,
               "stderr": rep.stderr, "pass": str(rep.passed).lower(),
               "note": ""}


def cmd_sweep(cfg: Section, group, norm, spec, out: Path):
    rows = list(_sweep_rows(cfg, group, norm, spec))
    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    ran = [r for r in rows if r["pass"] != "skip"]
    failed = [r for r in ran if r["pass"] != "true"]
    skipped = len(rows) - len(ran)
    print(f"sweep: {len(rows)} points, {len(ran)} verified, "
          f"{skipped} skipped, {len(failed)} failed")
    return 1 if failed else 0, {"points": len(rows), "verified": len(ran),
                                "skipped": skipped, "failed": len(failed)}


def cmd_axioms(cfg: Section, group, norm, spec, out: Path):
    cfg.finish("axioms")
    checks = {
        **check_group_axioms(group, 10000, seed=spec.seed),
        **check_quasi_norm_axioms(norm, 1000, seed=spec.seed),
        **polar_consistency_check(norm, lambda r: np.exp(-r * r),
                                  DecayEnvelope("gauss"), spec),
    }
    mc_sphere = quadrature.sphere_measure_mc(norm, spec)
    checks["sphere_measure_vs_direct"] = Check(
        abs(mc_sphere.value - norm.sphere), 3.0 * mc_sphere.stderr + 1e-6)
    if norm.is_true_norm:
        checks.update(kernel_bound_report(norm, 10000, seed=spec.seed))

    results = {k: {"value": c.value, "tolerance": c.tolerance,
                   "pass": c.passed} for k, c in checks.items()}
    ok = all(r["pass"] for r in results.values())
    for k, r in results.items():
        print(f"{k}: {r['value']:.3e} (tol {r['tolerance']:.3e}) "
              f"[{'PASS' if r['pass'] else 'FAIL'}]")
    if not norm.is_true_norm:
        print("triangle inequality: not asserted for this gauge")
    return 0 if ok else 1, {"group": group.name, "norm": norm.name,
                            "norm_triangle_asserted": norm.is_true_norm,
                            "checks": results, "pass": ok}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {"verify": cmd_verify, "estimate": cmd_estimate,
            "sweep": cmd_sweep, "axioms": cmd_axioms}


def run(command: str, config: dict, out_dir: str | Path = ".",
        seed_override: int | None = None) -> int:
    """Dispatch one command against a parsed config; returns the exit code."""
    t0 = time.perf_counter()
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:   # a file in the way
        raise ConfigError(
            f"output directory {str(out)!r}: {exc.strerror}") from None
    cfg = Section(config)
    seed = cfg.get("seed", 0, int)      # read even when overridden
    if seed_override is not None:
        seed = _value(seed_override, int, "seed")
    group = _build_group(cfg.section("group"))
    norm = _build_norm(cfg.section("norm"), group)
    spec = _build_quadrature(cfg.section("quadrature"), seed)
    code, body = COMMANDS[command](cfg, group, norm, spec, out)
    # the resolved config: a JSON-clean deep copy with the seed that ran
    resolved = json.loads(json.dumps({**config, "seed": seed}))
    _write_json(out / "report.json",
                {"command": command, "config": resolved, **body})
    _write_meta(out, t0)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="revineq",
        description="Numerical verification of reverse integral inequalities "
                    "on homogeneous Lie groups.")
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        return run(args.command, cfg, args.out, args.seed)
    except RevineqError as exc:
        # a numerical error exits 3; config, parameter and shape errors 2
        numerical = isinstance(exc, NumericalError)
        origin = where(exc)     # empty for a config error raised here
        print("numerical error: " if numerical else "error: ",
              f"{origin}: " if origin else "", exc, sep="", file=sys.stderr)
        return 3 if numerical else 2


if __name__ == "__main__":
    sys.exit(main())
