"""The three benchmark workloads, built from a seed alone.

A workload is a list of operations plus a fixed warm-up operation, a set
of oracles and probes of known defects.  An operation is one call into
revineq's public API, timed by the runner, followed by an untimed check of
its output.  Everything random (operation order, quadrature seeds, search
seeds, command seeds) is drawn from ``numpy.random.default_rng(seed)``, so
one seed gives one input stream.

A Monte Carlo result is checked against its own error bar at 5 sigma, not 3:
a 3-sigma test misses on a share of seeds even when nothing regressed, and a
run makes hundreds of such tests.

    sw_grid        verify_stein_weiss over the criterion-8 bilinear grid
    radial_search  estimate_best_constant over radial inequalities x families
    cli_seed_scan  cli.run of verify / estimate / sweep / axioms, fresh seeds
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import special as sp

import revineq as rv
from revineq import cli

SAMPLE_COUNT = 20000
# fixed Nelder-Mead budget per search; restarts split it
SEARCH_BUDGET = 24
SEARCH_RESTARTS = 2
# CKN weights: gamma = alpha + beta + 1 = 1/2 stays below Q on every group
CKN_ALPHA, CKN_BETA = -0.5, 0.0


@dataclass
class Outcome:
    """Checked result of one operation; ``rel_err`` (stderr / ratio of the
    reported answer) feeds relvar_x_s and is None where there is no ratio."""

    ok: bool
    inputs: str
    detail: str = ""
    rel_err: float | None = None
    # passed, but a Monte Carlo self-check lay between 3 and 5 sigma
    beyond_3_sigma: bool = False


@dataclass(frozen=True)
class Operation:
    label: str
    call: Callable[[], Any]             # timed
    check: Callable[[Any], Outcome]     # untimed output check


@dataclass(frozen=True)
class Oracle:
    """A pinned-value check run once per benchmark run.

    ``statistical`` oracles compare a Monte Carlo estimate against its own
    reported error bar; a miss counts as a failed operation but, unlike a
    deterministic miss, does not mark the run's outputs incorrect.
    """

    name: str
    check: Callable[[], tuple[bool, str]]
    statistical: bool = False


@dataclass(frozen=True)
class Defect:
    """A probe of a known program defect on fixed inputs, run once per run.

    ``probe`` returns (reproduced, detail).  It is printed, not counted: the
    timed operations avoid the defect so that no operation fails, and the
    probe keeps the defect in every run's output until it is fixed.
    """

    name: str
    probe: Callable[[], tuple[bool, str]]


@dataclass
class Workload:
    name: str
    ops: list[Operation]
    warmup: Operation
    oracles: list[Oracle]
    defects: list[Defect] = field(default_factory=list)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _report_outcome(inputs: str, rep, note: str = "") -> Outcome:
    detail = f"ratio {rep.ratio!r} stderr {rep.stderr!r}{note}"
    if not _finite(rep.ratio, rep.stderr) or rep.ratio == 0.0:
        return Outcome(False, inputs, detail)
    return Outcome(True, inputs, detail, rep.stderr / rep.ratio)


# ---------------------------------------------------------------------------
# sw_grid
# ---------------------------------------------------------------------------

def _sw_groups():
    h1 = rv.heisenberg_group()
    line = rv.abelian_group((1.0,), name="abelian1")
    plane = rv.abelian_group((1.0, 1.0), name="abelian2")
    return [(h1, rv.koranyi_norm(h1)), (line, rv.euclidean_norm(line)),
            (plane, rv.euclidean_norm(plane))]


def _sw_points(group):
    """The 9 (p, q') x 4 (alpha, beta) admissible points of criterion 8."""
    Q = group.homogeneous_dim
    for p, qp in itertools.product((0.3, 0.5, 0.7), repeat=2):
        q, pp = rv.conjugate_exponent(qp), rv.conjugate_exponent(p)
        for fa, fb in itertools.product((0.0, 0.5), repeat=2):
            alpha, beta = fa * (-Q / q), fb * (-Q / pp)
            lam = rv.balanced_lambda(Q, p, qp, alpha, beta)
            yield rv.InequalityParams(Q=Q, p=p, q_prime=qp, lam=lam,
                                      alpha=alpha, beta=beta)


def _sw_pairs(P):
    """exp x gauss x power-tail pairs; the tail is steep enough for every
    integral with kernel growth (criterion 8's choice)."""
    s = max(P.Q / P.q_prime, P.Q / P.p) + P.lam + P.Q + 2.0
    singles = [rv.make_profile("exp_decay", [1.0]),
               rv.make_profile("gaussian", [1.0]),
               rv.make_profile("power_decay", [s, 1.0])]
    return list(itertools.product(singles, singles))


def _sw_op(f, h, P, group, norm, spec) -> Operation:
    label = (f"verify_stein_weiss {group.name}/{norm.name} p={P.p:g} "
             f"q'={P.q_prime:g} alpha={P.alpha:.6g} beta={P.beta:.6g} "
             f"{f.family_tag}{list(f.params)}x{h.family_tag}{list(h.params)} "
             f"spec_seed={spec.seed}")
    return Operation(
        label,
        lambda: rv.verify_stein_weiss(f, h, P, group, norm, spec),
        lambda rep: _report_outcome(label, rep))


COUNTEREXAMPLE_RATIO = 0.0077734   # pinned dblquad value, README finding 2
# a Monte Carlo value may lie this many of its reported stderr from the truth
SIGMA_GATE = 5.0


def _counterexample_oracle(spec) -> Oracle:
    """Q=1, p=0.7, q'=0.3, beta=3/14, e^{-r} x (1+r)^{-8.881}: the Monte
    Carlo ratio must lie within SIGMA_GATE reported stderr of the quadrature
    value.  The estimator is heavy-tailed here: 13 of 1000 seeds land beyond
    3 stderr, 2 beyond 4 and none beyond 5."""
    line = rv.abelian_group((1.0,), name="abelian1")
    norm = rv.euclidean_norm(line)
    Q, p, qp = 1.0, 0.7, 0.3
    beta = 0.5 * (-Q / rv.conjugate_exponent(p))
    lam = rv.balanced_lambda(Q, p, qp, 0.0, beta)
    P = rv.InequalityParams(Q=Q, p=p, q_prime=qp, lam=lam, alpha=0.0, beta=beta)
    s = max(Q / qp, Q / p) + lam + Q + 2.0
    f = rv.make_profile("exp_decay", [1.0])
    h = rv.make_profile("power_decay", [s, 1.0])

    def check():
        rep = rv.verify_stein_weiss(f, h, P, line, norm, spec)
        dev = abs(rep.ratio - COUNTEREXAMPLE_RATIO)
        return (dev <= SIGMA_GATE * rep.stderr,
                f"ratio {rep.ratio:.7g} vs {COUNTEREXAMPLE_RATIO} "
                f"({dev / rep.stderr:.2f} stderr)")

    return Oracle("counterexample_within_5_stderr", check, statistical=True)


def _dilation_oracle(group, norm, P, spec) -> Oracle:
    """Criterion 8's dilation check: the ratio of (f o D_2, h o D_2) matches
    that of (f, h) to 1e-2, because radii transform exactly."""
    f = rv.make_profile("exp_decay", [1.0])
    h = rv.make_profile("gaussian", [1.0])

    def check():
        base = rv.verify_stein_weiss(f, h, P, group, norm, spec).ratio
        dil = rv.verify_stein_weiss(f.dilated(2.0), h.dilated(2.0), P, group,
                                    norm, spec).ratio
        drift = abs(dil - base) / base
        return drift <= 1e-2, f"relative drift {drift:.3g} under D_2"

    return Oracle("dilation_invariance", check)


def _repeat_oracle(op: Operation) -> Oracle:
    """The same inputs give bit-identical ratio and stderr."""
    def check():
        a, b = op.check(op.call()), op.check(op.call())
        return a == b, f"{a.detail} vs {b.detail}"

    return Oracle("repeat_bit_identical", check)


def build_sw_grid(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    # one quadrature seed per (group, p, q', alpha, beta): the 9 trial pairs
    # at a point share random numbers and |S|, while 108 independent seeds
    # keep a run's error bars (relvar_x_s) from moving together
    specs = {}
    measures = []       # (group, norm, spec) of each |S| the grid looks up
    ops = []
    groups = _sw_groups()
    for group, norm in groups:
        for P in _sw_points(group):
            key = (group.name, P.p, P.q_prime, P.alpha, P.beta)
            if key not in specs:
                specs[key] = rv.QuadratureSpec(sample_count=SAMPLE_COUNT,
                                               seed=int(rng.integers(2**31)))
                measures.append((group, norm, specs[key]))
            ops.extend(_sw_op(f, h, P, group, norm, specs[key])
                       for f, h in _sw_pairs(P))
    ops = [ops[i] for i in rng.permutation(len(ops))]

    h1, koranyi = groups[0]
    P0 = next(_sw_points(h1))
    f0, h0 = _sw_pairs(P0)[1]          # exp x gauss
    spec0 = specs[(h1.name, P0.p, P0.q_prime, P0.alpha, P0.beta)]
    first = _sw_op(f0, h0, P0, h1, koranyi, spec0)

    def warm():
        # this workload measures the warm |S| cache: computing each |S| here
        # keeps its cost out of the first timed operation at each seed
        for group, norm, spec in measures:
            rv.sphere_measure(group, norm, spec)
        return first.call()

    warmup = Operation(f"|S| at {len(measures)} seeds, then {first.label}",
                       warm, first.check)
    counterexample = rv.QuadratureSpec(sample_count=SAMPLE_COUNT,
                                       seed=int(rng.integers(2**31)))
    oracles = [_counterexample_oracle(counterexample),
               _dilation_oracle(h1, koranyi, P0, spec0),
               _repeat_oracle(first)]
    return Workload("sw_grid", ops, warmup, oracles)


# ---------------------------------------------------------------------------
# radial_search
# ---------------------------------------------------------------------------

RADIAL_INEQUALITIES = ("reverse_hardy", "reverse_sobolev", "reverse_ckn")
RADIAL_FAMILIES = ("exp_decay", "gaussian", "power_decay")
RADIAL_P = (0.3, 0.5, 0.7)


def _radial_groups():
    h1 = rv.heisenberg_group()
    line = rv.abelian_group((1.0,), name="abelian1")
    plane = rv.abelian_group((1.0, 1.0), name="abelian2")
    aniso = rv.abelian_group((1.0, 2.0), name="aniso12")
    return [(h1, rv.koranyi_norm(h1)), (h1, rv.cygan_norm(h1)),
            (line, rv.euclidean_norm(line)), (plane, rv.euclidean_norm(plane)),
            (aniso, rv.anisotropic_gauge(aniso))]


def _radial_params(inequality: str, Q: float, p: float):
    if inequality == "reverse_ckn":
        return rv.InequalityParams(Q=Q, p=p, alpha=CKN_ALPHA, beta=CKN_BETA)
    return rv.InequalityParams(Q=Q, p=p)


_RADIAL_VERIFIERS = {
    "reverse_hardy": lambda f, P, g, n, s: rv.verify_reverse_hardy(f, P.p, g, n, s),
    "reverse_sobolev": lambda f, P, g, n, s: rv.verify_reverse_sobolev(f, P.p, g, n, s),
    "reverse_ckn": lambda f, P, g, n, s: rv.verify_reverse_ckn(
        f, P.p, P.alpha, P.beta, g, n, s),
}


def _radial_op(inequality, family, p, group, norm, spec,
               search_seed) -> Operation:
    P = _radial_params(inequality, group.homogeneous_dim, p)
    search = rv.SearchSpec(method="nelder_mead", budget=SEARCH_BUDGET,
                           restarts=SEARCH_RESTARTS, seed=search_seed)
    label = (f"estimate_best_constant {inequality} {family} p={p:g} "
             f"{group.name}/{norm.name} search_seed={search_seed}")

    def check(rec) -> Outcome:
        if not _finite(rec.min_ratio):
            return Outcome(False, label, f"min ratio {rec.min_ratio!r}")
        # the record carries no error bar: re-verify the argmin for it
        rep = _RADIAL_VERIFIERS[inequality](
            rv.make_profile(family, rec.argmin), P, group, norm, spec)
        if rep.ratio != rec.min_ratio:
            return Outcome(False, label, f"argmin ratio {rep.ratio!r} != "
                           f"reported minimum {rec.min_ratio!r}")
        return _report_outcome(label, rep, f"; {rec.evaluations} evaluations, "
                               f"{rec.degenerate_evaluations} degenerate")

    return Operation(
        label,
        lambda: rv.estimate_best_constant(inequality, P, family, search,
                                          group, norm, spec),
        check)


def _closed_form_oracle(name, verifier, oracle, group, norm, spec) -> Oracle:
    """Criteria 5/6: the ratio at exp_decay(1), H1, p=1/2 hits a Gamma value."""
    def check():
        ratio = verifier(rv.make_profile("exp_decay", [1.0]), 0.5, group, norm,
                         spec).ratio
        return (abs(ratio - oracle) <= 1e-3 * oracle,
                f"ratio {ratio:.7g} vs {oracle:.7g}")
    return Oracle(name, check)


def build_radial_search(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    spec = rv.QuadratureSpec(sample_count=SAMPLE_COUNT,
                             seed=int(rng.integers(2**31)))
    groups = _radial_groups()
    combos = itertools.product(groups, RADIAL_INEQUALITIES, RADIAL_FAMILIES,
                               RADIAL_P)
    # a search's cost depends on its start points, so each search keeps its
    # own seed (its grid index) and --seed sets only the order and the
    # quadrature seed: every run does the same searches
    ops = [_radial_op(ineq, fam, p, g, n, spec, k)
           for k, ((g, n), ineq, fam, p) in enumerate(combos)]
    ops = [ops[i] for i in rng.permutation(len(ops))]

    h1, koranyi = groups[0]
    warmup = _radial_op("reverse_hardy", "exp_decay", 0.5, h1, koranyi, spec, 0)
    hardy = 0.5 * (sp.gamma(3.5) / sp.gamma(4.0)) ** 2            # 0.153398
    sobolev = (sp.gamma(4.0) * math.sqrt(0.5) / sp.gamma(4.5)) ** 2  # 0.133041
    oracles = [
        _closed_form_oracle("reverse_hardy_gamma_closed_form",
                            rv.verify_reverse_hardy, hardy, h1, koranyi, spec),
        _closed_form_oracle("reverse_sobolev_gamma_closed_form",
                            rv.verify_reverse_sobolev, sobolev, h1, koranyi,
                            spec),
    ]
    return Workload("radial_search", ops, warmup, oracles)


# ---------------------------------------------------------------------------
# cli_seed_scan
# ---------------------------------------------------------------------------

_MC = {"quadrature": {"scheme": "monte_carlo", "sample_count": SAMPLE_COUNT}}
_H1_KORANYI = {"group": {"name": "heisenberg"}, "norm": {"name": "koranyi"},
               **_MC}
_H1_CYGAN = {**_H1_KORANYI, "norm": {"name": "cygan"}}
_EXP_GAUSS = {"trial_f": {"family": "exp_decay", "params": [1.0]},
              "trial_h": {"family": "gaussian", "params": [1.0]}}
_HARDY = {"inequality": {"name": "reverse_hardy", "p": 0.5}}
_ESTIMATE = {"estimate": {"method": "nelder_mead", "budget": SEARCH_BUDGET,
                          "restarts": SEARCH_RESTARTS}}

# estimate searches gaussian profiles and axioms run on abelian groups
# because power_decay searches and H1 axioms fail on some seeds (see
# _cli_defects); a fresh-seed scan would count those as failed operations
CLI_COMMANDS = (
    ("verify_bilinear", "verify", {
        **_H1_KORANYI, **_EXP_GAUSS,
        "inequality": {"name": "reverse_stein_weiss", "p": 0.5,
                       "q_prime": 0.5, "alpha": 1.0, "beta": 2.0}}),
    ("verify_reverse_hardy", "verify", {
        **_H1_KORANYI, **_HARDY,
        "trial": {"family": "exp_decay", "params": [1.0]}}),
    ("sweep_bilinear_3x3", "sweep", {
        **_H1_KORANYI, **_EXP_GAUSS,
        "sweep": {"inequality": "reverse_stein_weiss",
                  "grid": {"p": [0.3, 0.5, 0.7], "q_prime": [0.3, 0.5, 0.7]}}}),
    ("estimate_reverse_hardy", "estimate", {
        **_H1_CYGAN, **_HARDY, **_ESTIMATE,
        "trial": {"family": "gaussian", "params": [1.0]}}),
    ("axioms_euclidean_r2", "axioms", {
        **_MC, "group": {"name": "abelian", "weights": [1.0, 1.0]},
        "norm": {"name": "euclidean"}}),
    ("axioms_anisotropic_r2", "axioms", {
        **_MC, "group": {"name": "abelian", "weights": [1.0, 2.0]},
        "norm": {"name": "anisotropic"}}),
)

# the axioms checks that compare two Monte Carlo values at 3 sigma
_CLI_MC_CHECKS = ("polar_consistency", "sphere_measure_vs_direct")


def _cli_call(command: str, config: dict, out: Path, seed: int) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(command, config, out, seed)


def _cli_outcome(command: str, out: Path, code: int, inputs: str) -> Outcome:
    report = json.loads((out / "report.json").read_text())
    if command == "verify":
        r = report["report"]
        ratios, errs = [r["ratio"]], [r["stderr"]]
    elif command == "sweep":
        with (out / "sweep.csv").open(newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["pass"] != "skip"]
        ratios = [float(row["ratio"]) for row in rows]
        errs = [float(row["stderr"]) for row in rows]
        if len(rows) != 9:
            return Outcome(False, inputs, f"{len(rows)} of 9 sweep rows ran")
    elif command == "estimate":
        # a search minimum carries no error bar
        ratios, errs = [report["estimate"]["min_ratio"]], []
    else:
        ratios, errs = [], []
    detail = f"exit code {code}; ratios {ratios!r} stderrs {errs!r}"
    if not _finite(*ratios, *errs) or 0.0 in ratios:
        return Outcome(False, inputs, detail)
    if code != 0:
        # the tolerance of a Monte Carlo check is 3 stderr (plus a floor):
        # a miss within SIGMA_GATE stderr passes, flagged
        failing = [k for k, v in report.get("checks", {}).items()
                   if not v["pass"]]
        chance = [k for k in failing if k in _CLI_MC_CHECKS
                  and report["checks"][k]["value"]
                  <= SIGMA_GATE / 3.0 * report["checks"][k]["tolerance"]]
        detail = f"{detail}; failing checks {failing}"
        if code != 1 or not failing or chance != failing:
            return Outcome(False, inputs, detail)
        return Outcome(True, inputs, detail, beyond_3_sigma=True)
    if not errs:
        return Outcome(True, inputs, detail)
    # one error figure per command: root mean square of the rows' rel. stderr
    rel2 = float(np.mean([(e / r) ** 2 for r, e in zip(ratios, errs)]))
    return Outcome(True, inputs, detail, math.sqrt(rel2))


def _cli_op(name: str, command: str, config: dict, out: Path,
            seeds) -> Operation:
    """Each call draws the next seed, so even a repeated operation misses
    every per-seed cache, as a fresh one-shot command does."""
    out = out / name

    def call():
        seed = next(seeds)
        return seed, _cli_call(command, config, out, seed)

    def check(result) -> Outcome:
        seed, code = result
        return _cli_outcome(command, out, code, f"{name} seed={seed}")

    return Operation(name, call, check)


def _sphere_oracle(norm, exact: float, label: str) -> Oracle:
    def check():
        val = rv.sphere_measure_direct(norm.group, norm)
        return abs(val - exact) <= 1e-9, f"{val!r} vs {label} = {exact!r}"
    return Oracle(f"sphere_measure_direct_{norm.name}", check)


def _cli_repeat_oracle(out: Path, seed: int) -> Oracle:
    name, command, config = CLI_COMMANDS[0]

    def check():
        blobs = []
        for k in range(2):
            d = out / f"repeat{k}"
            _cli_call(command, config, d, seed)
            blobs.append((d / "report.json").read_bytes())
        return blobs[0] == blobs[1], f"{name} seed={seed} run twice"

    return Oracle("report_json_byte_identical", check)


def _cli_defects(out: Path) -> list[Defect]:
    """(a) estimate_best_constant lets a raw OverflowError out of
    integrate_radial_err for power_decay near its integrability threshold;
    (b) axioms on H1 compares dilation_automorphism (~1.2e-10) with an
    absolute 1e-10 and exits 1 on valid axioms.  Inputs are fixed seeds at
    which each showed."""
    overflow = {**_H1_CYGAN, **_HARDY, **_ESTIMATE,
                "trial": {"family": "power_decay", "params": [8.0, 1.0]}}

    def estimate_overflow():
        try:
            code = _cli_call("estimate", overflow, out / "defect_a", 5)
        except OverflowError as exc:
            return True, f"estimate power_decay H1/cygan seed=5 raised {exc!r}"
        return False, f"estimate power_decay H1/cygan seed=5 exit code {code}"

    def axioms_dilation():
        d = out / "defect_b"
        code = _cli_call("axioms", _H1_CYGAN, d, 3)
        check = json.loads((d / "report.json").read_text())["checks"][
            "dilation_automorphism"]
        return (code == 1 and not check["pass"],
                f"axioms H1/cygan seed=3 exit code {code}, "
                f"dilation_automorphism {check['value']:.4g} "
                f"(tolerance {check['tolerance']:g})")

    return [Defect("estimate_overflow_error", estimate_overflow),
            Defect("axioms_h1_dilation_tolerance", axioms_dilation)]


def build_cli_seed_scan(seed: int, out: Path) -> Workload:
    """``out`` is a scratch directory the caller owns and removes."""
    rng = np.random.default_rng(seed)
    seeds = (int(s) for s in iter(lambda: rng.integers(2**31), None))
    ops = [_cli_op(name, command, config, out, seeds)
           for name, command, config in CLI_COMMANDS]
    name, command, config = CLI_COMMANDS[-1]
    warmup = _cli_op(f"warmup_{name}", command, config, out, itertools.repeat(0))
    h1 = rv.heisenberg_group()
    oracles = [
        _sphere_oracle(rv.koranyi_norm(h1), 2.0 * math.pi ** 2, "2 pi^2"),
        _sphere_oracle(rv.cygan_norm(h1), math.pi ** 2 / 2.0, "pi^2 / 2"),
        _cli_repeat_oracle(out, int(rng.integers(2**31))),
    ]
    return Workload("cli_seed_scan", ops, warmup, oracles, _cli_defects(out))


def build(name: str, seed: int, scratch: Path) -> Workload:
    if name == "sw_grid":
        return build_sw_grid(seed)
    if name == "radial_search":
        return build_radial_search(seed)
    if name == "cli_seed_scan":
        return build_cli_seed_scan(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")
