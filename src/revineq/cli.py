"""Config-driven command line: verify / estimate / sweep / axioms.

Usage:
    revineq --config run.json --command verify [--seed N] [--out DIR]

The config is a single JSON file with flat sections (group, norm,
quadrature, inequality, trial[,_f,_h], estimate, sweep, seed).  Every
report embeds the fully resolved config and the quasi-sphere measure used
in analytic constants, so a report is reproducible from itself.

Outputs (in --out, default "."):
    report.json    deterministic: identical (config, seed) give identical bytes
    run_meta.json  timestamp, runtime and library versions (volatile data)
    sweep.csv      one row per grid point (sweep command)
    trace.csv      every ratio evaluation of a search (estimate command)

Exit status: 0 all checks passed; 1 an inequality margin failed;
2 configuration/parameter error; 3 numerical error (divergence or
degenerate input).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import inequalities as ineq
from .exceptions import (ConfigError, DegenerateInputError, DivergenceError,
                         EstimationError, EvaluationError, RevineqError)
from .groups import (abelian_group, anisotropic_gauge, check_group_axioms,
                     check_quasi_norm_axioms, cygan_norm, euclidean_norm,
                     heisenberg_group, koranyi_norm)
from .operators import kernel_bound_report
from .quadrature import (DecayEnvelope, QuadratureSpec,
                         polar_consistency_check, sphere_measure,
                         sphere_measure_direct)
from .trials import SearchSpec, estimate_best_constant, make_profile

_MODULE = "cli"

SWEEP_COLUMNS = ["inequality", "Q", "p", "q_prime", "alpha", "beta",
                 "lambda_or_gamma", "lhs", "rhs", "ratio", "constant",
                 "margin", "stderr", "pass", "note"]
# the sweep grid's axes, outermost first
_GRID_KEYS = ("p", "q_prime", "alpha", "beta", "lambda")

# allowed keys per section; a nested section is named by its last key.
# The inequality section's keys are those its entry reads (read_inequality).
_SECTION_KEYS = {
    "": {"seed", "group", "norm", "quadrature", "inequality", "trial",
         "trial_f", "trial_h", "estimate", "sweep", "output"},
    "group": {"name", "weights"},
    "norm": {"name"},
    "quadrature": {"scheme", "sample_count"},
    "trial": {"family", "params"},
    "trial_f": {"family", "params"},
    "trial_h": {"family", "params"},
    "estimate": {"method", "budget", "restarts", "families"},
    "sweep": {"inequality", "grid", "variant"},
    "grid": set(_GRID_KEYS),
}


def _check_keys(cfg: dict, section: str = ""):
    allowed = _SECTION_KEYS.get(section.rpartition(".")[2])
    if allowed is None:
        return
    for key in cfg:
        path = f"{section}.{key}" if section else key
        if key not in allowed:
            raise ConfigError(f"config.{path}: unknown key",
                              module=_MODULE, operation="load_config")
        if isinstance(cfg[key], dict) and key in _SECTION_KEYS:
            _check_keys(cfg[key], path)


def _numbers(value, path: str, nullable: bool = False):
    """A list of numbers (or nulls, if nullable) unchanged, or a
    ConfigError naming the key path."""
    if not isinstance(value, list):
        raise ConfigError(f"config.{path}: expected a list of numbers, got "
                          f"{value!r}", module=_MODULE, operation="read_config")
    for v in value:
        if not (nullable and v is None):
            ineq.config_value(v, float, path)
    return value


def load_config(path: str | Path) -> dict:
    """Parse and structurally validate a config file; errors carry the
    offending line or key path."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}", module=_MODULE,
                          operation="load_config")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}",
                          module=_MODULE, operation="load_config")
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a JSON object", module=_MODULE,
                          operation="load_config")
    _check_keys(cfg)
    return cfg


# ---------------------------------------------------------------------------
# resolving config sections
# ---------------------------------------------------------------------------

def _build_group(cfg: dict):
    sect = cfg.get("group", {"name": "abelian", "weights": [1.0]})
    name = sect.get("name", "abelian")
    if name == "heisenberg":
        return heisenberg_group()
    if name == "abelian":
        return abelian_group(tuple(_numbers(sect.get("weights", [1.0]),
                                            "group.weights")))
    raise ConfigError(f"config.group.name: unknown group {name!r}",
                      module=_MODULE, operation="build_group")


def _build_norm(cfg: dict, group):
    name = cfg.get("norm", {}).get("name", "auto")
    if name == "auto":
        name = "koranyi" if group.name == "heisenberg" else (
            "euclidean" if all(w == 1.0 for w in group.weights)
            else "anisotropic")
    builders = {"euclidean": euclidean_norm, "anisotropic": anisotropic_gauge,
                "koranyi": koranyi_norm, "cygan": cygan_norm}
    if name not in builders:
        raise ConfigError(f"config.norm.name: unknown norm {name!r}",
                          module=_MODULE, operation="build_norm")
    return builders[name](group)


def _build_quadrature(cfg: dict, seed: int) -> QuadratureSpec:
    sect = cfg.get("quadrature", {})
    if sect.get("scheme", "monte_carlo") != "monte_carlo":   # the only one
        raise ConfigError(f"config.quadrature.scheme: unknown scheme "
                          f"{sect['scheme']!r}", module=_MODULE,
                          operation="build_quadrature")
    return QuadratureSpec(
        sample_count=ineq.config_value(sect.get("sample_count", 40000), int,
                                       "quadrature.sample_count"),
        seed=seed)


def _trial_section(cfg: dict, key: str = "trial") -> dict:
    sect = cfg.get(key)
    if sect is None:
        raise ConfigError(f"config.{key}: section required for this command",
                          module=_MODULE, operation="build_trial")
    if "family" not in sect:
        raise ConfigError(f"config.{key}.family: required", module=_MODULE,
                          operation="build_trial")
    return sect


def _build_trial(cfg: dict, key: str = "trial"):
    sect = _trial_section(cfg, key)
    return make_profile(sect["family"],
                        _numbers(sect.get("params", []), f"{key}.params"))


def _resolved(cfg: dict, seed: int) -> dict:
    out = json.loads(json.dumps(cfg))   # deep copy, JSON-clean
    out["seed"] = seed
    return out


def _verify_report(cfg, group, norm, spec) -> ineq.VerificationReport:
    name, args = ineq.read_inequality(cfg.get("inequality"),
                                      group.homogeneous_dim)
    entry = ineq.INEQUALITIES[name]
    profiles = [_build_trial(cfg, key) for key in entry.trials]
    return entry.verify(*profiles, args, group, norm, spec)


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


def cmd_verify(cfg, group, norm, spec, out: Path) -> int:
    rep = _verify_report(cfg, group, norm, spec)
    doc = {"command": "verify", "config": _resolved(cfg, spec.seed),
           "report": rep.as_dict()}
    _write_json(out / "report.json", doc)
    status = "PASS" if rep.passed else "FAIL"
    print(f"{rep.inequality}: ratio={rep.ratio:.6g} "
          f"constant={rep.analytic_constant:.6g} margin={rep.margin:.3g} "
          f"[{status}]")
    if rep.degenerate is not None:
        print(f"  degenerate: {rep.degenerate}")
        return 3
    return 0 if rep.passed else 1


def cmd_estimate(cfg, group, norm, spec, out: Path) -> int:
    sect = cfg.get("estimate", {})
    search = SearchSpec(method=sect.get("method", "nelder_mead"),
                        budget=ineq.config_value(sect.get("budget", 80), int,
                                                 "estimate.budget"),
                        restarts=ineq.config_value(sect.get("restarts", 2),
                                                   int, "estimate.restarts"),
                        seed=spec.seed)
    name, params = ineq.read_inequality(cfg.get("inequality"),
                                        group.homogeneous_dim)
    families = sect.get("families") or [_trial_section(cfg)["family"]]
    # one family per trial profile; a single family serves every profile
    n = len(ineq.INEQUALITIES[name].trials)
    fams = families * n if len(families) == 1 else families
    rec = estimate_best_constant(name, params, fams, search, group, norm, spec)

    doc = {"command": "estimate", "config": _resolved(cfg, spec.seed),
           "estimate": rec.as_dict()}
    _write_json(out / "report.json", doc)
    with (out / "trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["evaluation", "params", "ratio"])
        for i, (theta, ratio) in enumerate(rec.trace):
            writer.writerow([i, json.dumps(list(theta)), repr(ratio)])
    ok = rec.min_ratio >= rec.analytic_constant - 1e-9
    print(f"{name}: min ratio {rec.min_ratio:.6g} over {rec.evaluations} "
          f"evaluations; analytic constant {rec.analytic_constant:.6g} "
          f"[{'PASS' if ok else 'FAIL'}]")
    return 0 if ok else 1


def _sweep_rows(cfg, group, norm, spec):
    """One row per grid point, each point read like the ``inequality``
    section and verified as ``verify`` does."""
    sect = cfg.get("sweep")
    if not sect or "grid" not in sect:
        raise ConfigError("config.sweep.grid: required for sweep",
                          module=_MODULE, operation="sweep")
    sweepable = [n for n, e in ineq.INEQUALITIES.items()
                 if "sweep" in e.commands]
    name = sect.get("inequality", sweepable[0])
    if name not in sweepable:
        raise ConfigError("sweep currently targets the bilinear inequalities",
                          module=_MODULE, operation="sweep")
    grid = sect["grid"]     # load_config has rejected keys off _GRID_KEYS
    for key in ("p", "q_prime"):
        if key not in grid:
            raise ConfigError(f"config.sweep.grid.{key}: required",
                              module=_MODULE, operation="sweep")
    keys = [k for k in _GRID_KEYS if k in grid]
    for k in keys:
        _numbers(grid[k], f"sweep.grid.{k}", nullable=True)
    entry = ineq.INEQUALITIES[name]
    profiles = [_build_trial(cfg, key) for key in entry.trials]

    for values in itertools.product(*(grid[k] for k in keys)):
        point = dict(zip(keys, values))
        _, params = ineq.read_inequality(
            {"name": name, "variant": sect.get("variant", "full"), **point},
            group.homogeneous_dim)
        # the cells keep the raw grid values; lambda is the resolved one
        base = {"inequality": name, "Q": params.Q, "alpha": params.alpha,
                "beta": params.beta, **point, "lambda_or_gamma": params.lam}
        base.pop("lambda", None)
        adm = ineq.validate_params(params)
        if not adm.admissible:
            yield {**base, "lhs": "", "rhs": "", "ratio": "", "constant": "",
                   "margin": "", "stderr": "", "pass": "skip",
                   "note": "; ".join(adm.failures)}
            continue
        rep = entry.verify(*profiles, params, group, norm, spec)
        yield {**base, "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio,
               "constant": rep.analytic_constant, "margin": rep.margin,
               "stderr": rep.stderr, "pass": str(rep.passed).lower(),
               "note": ""}


def cmd_sweep(cfg, group, norm, spec, out: Path) -> int:
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
    _write_json(out / "report.json",
                {"command": "sweep", "config": _resolved(cfg, spec.seed),
                 "points": len(rows), "verified": len(ran),
                 "skipped": skipped, "failed": len(failed)})
    return 1 if failed else 0


def cmd_axioms(cfg, group, norm, spec, out: Path) -> int:
    group_rep = check_group_axioms(group, 10000, seed=spec.seed)
    norm_rep = check_quasi_norm_axioms(norm, 1000, seed=spec.seed)
    polar = polar_consistency_check(group, norm, lambda r: np.exp(-r * r),
                                    DecayEnvelope("gauss"), spec)
    sm = sphere_measure(group, norm, spec)
    sm_direct = sphere_measure_direct(group, norm)

    checks = {
        "group_identity": (group_rep.identity, 1e-10),
        "group_inverse": (group_rep.inverse, 1e-10),
        "group_associativity": (group_rep.associativity, 1e-10),
        "dilation_automorphism": (group_rep.automorphism, 1e-10),
        "norm_homogeneity": (norm_rep.homogeneity, 1e-12),
        "norm_symmetry": (norm_rep.symmetry, 1e-12),
        "polar_consistency": (polar.discrepancy,
                              3.0 * polar.combined_stderr + 1e-9),
        "sphere_measure_vs_direct": (abs(sm.value - sm_direct),
                                     3.0 * sm.stderr + 1e-6),
    }
    if norm.is_true_norm:
        kb = kernel_bound_report(group, norm, 10000, seed=spec.seed)
        checks["kernel_bounds_violations"] = (
            float(kb.inner_violations + kb.outer_violations), 0.5)

    results = {k: {"value": v, "tolerance": tol, "pass": v <= tol}
               for k, (v, tol) in checks.items()}
    ok = all(r["pass"] for r in results.values())
    _write_json(out / "report.json",
                {"command": "axioms", "config": _resolved(cfg, spec.seed),
                 "group": group.name, "norm": norm.name,
                 "norm_triangle_asserted": norm.is_true_norm,
                 "checks": results, "pass": ok})
    for k, r in results.items():
        print(f"{k}: {r['value']:.3e} (tol {r['tolerance']:.3e}) "
              f"[{'PASS' if r['pass'] else 'FAIL'}]")
    if not norm.is_true_norm:
        print("triangle inequality: not asserted for this gauge")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(command: str, config: dict, out_dir: str | Path = ".",
        seed_override: int | None = None) -> int:
    """Dispatch one command against a parsed config; returns the exit code."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _check_keys(config)
    seed = ineq.config_value(seed_override if seed_override is not None
                             else config.get("seed", 0), int, "seed")
    group = _build_group(config)
    norm = _build_norm(config, group)
    spec = _build_quadrature(config, seed)
    commands = {"verify": cmd_verify, "estimate": cmd_estimate,
                "sweep": cmd_sweep, "axioms": cmd_axioms}
    if command not in commands:
        raise ConfigError(f"unknown command {command!r}", module=_MODULE,
                          operation="run")
    code = commands[command](config, group, norm, spec, out)
    _write_meta(out, t0)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="revineq",
        description="Numerical verification of reverse integral inequalities "
                    "on homogeneous Lie groups.")
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--command", required=True,
                        choices=["verify", "estimate", "sweep", "axioms"])
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        return run(args.command, cfg, args.out, args.seed)
    except (DegenerateInputError, DivergenceError, EvaluationError,
            EstimationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except RevineqError as exc:   # config, parameter and shape errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
