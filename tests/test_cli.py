import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from revineq import (DecayEnvelope, QuadratureSpec, RadialProfile,
                     abelian_group, check_group_axioms,
                     check_quasi_norm_axioms, euclidean_norm,
                     heisenberg_group, integrate_cartesian,
                     integrate_radial_err, kernel_bound_report, koranyi_norm,
                     make_profile, polar_consistency_check,
                     verify_reverse_hardy, weighted_p_integral)
from revineq.cli import SWEEP_COLUMNS, load_config, main, run
from revineq.exceptions import ConfigError, RevineqError, where


def write_cfg(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def _without(cfg: dict, path: str) -> dict:
    """A copy of cfg without the key or section at the dotted path."""
    out = json.loads(json.dumps(cfg))
    *parents, key = path.split(".")
    sect = out
    for name in parents:
        sect = sect[name]
    del sect[key]
    return out


HARDY_CFG = {
    "seed": 7,
    "group": {"name": "heisenberg"},
    "norm": {"name": "koranyi"},
    "quadrature": {"scheme": "monte_carlo", "sample_count": 15000},
    "inequality": {"name": "reverse_hardy", "p": 0.5},
    "trial": {"family": "exp_decay", "params": [1.0]},
}


def test_verify_reverse_hardy_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, HARDY_CFG)
    code = main(["--config", str(cfg), "--command", "verify",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["report"]["inequality"] == "reverse_hardy"
    assert doc["report"]["ratio"] == pytest.approx(0.1533980787885, rel=1e-6)
    assert doc["report"]["analytic_constant"] == pytest.approx(1 / 7)
    assert doc["report"]["pass"] is True
    assert doc["config"]["seed"] == 7
    assert "sphere" in doc["report"]
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert "timestamp_utc" in meta and "runtime_seconds" in meta


def test_reports_byte_identical_per_seed(tmp_path):
    cfg = write_cfg(tmp_path, HARDY_CFG)
    main(["--config", str(cfg), "--command", "verify", "--out",
          str(tmp_path / "a")])
    main(["--config", str(cfg), "--command", "verify", "--out",
          str(tmp_path / "b")])
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


def test_seed_override_changes_mc_results(tmp_path):
    sw = {
        "seed": 1,
        "group": {"name": "abelian", "weights": [1.0, 1.0]},
        "quadrature": {"sample_count": 5000},
        "inequality": {"name": "reverse_hls", "p": 0.5, "q_prime": 0.5},
        "trial_f": {"family": "exp_decay", "params": [1.0]},
        "trial_h": {"family": "exp_decay", "params": [1.0]},
    }
    cfg = write_cfg(tmp_path, sw)
    main(["--config", str(cfg), "--command", "verify", "--out",
          str(tmp_path / "a")])
    main(["--config", str(cfg), "--command", "verify", "--seed", "2",
          "--out", str(tmp_path / "b")])
    ra = json.loads((tmp_path / "a" / "report.json").read_text())["report"]
    rb = json.loads((tmp_path / "b" / "report.json").read_text())["report"]
    assert ra["lhs"] != rb["lhs"]
    assert ra["pass"] and rb["pass"]


def test_axioms_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "seed": 3,
        "group": {"name": "abelian", "weights": [1.0, 1.0]},
        "quadrature": {"sample_count": 30000},
    })
    code = main(["--config", str(cfg), "--command", "axioms",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["pass"] is True
    assert doc["checks"]["norm_homogeneity"]["pass"]
    assert "kernel_bounds_violations" in doc["checks"]   # euclidean is a norm


def test_axioms_auto_norm_on_weighted_plane_is_anisotropic(tmp_path):
    """Without a norm section, abelian weights other than all 1 get the
    anisotropic gauge, here with M = lcm(1, 2) = 2."""
    run("axioms", {"group": {"name": "abelian", "weights": [1.0, 2.0]},
                   "quadrature": {"sample_count": 2000}}, tmp_path / "out", 5)
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["norm"] == "anisotropic(M=2)"
    assert doc["norm_triangle_asserted"] is False


def test_axioms_on_heisenberg_passes(tmp_path):
    """The dilation automorphism residual is relative above 1: on H1 its
    absolute rounding reached 1.2e-10 at this seed, over the 1e-10 gate."""
    code = run("axioms", {
        "group": {"name": "heisenberg"}, "norm": {"name": "cygan"},
        "quadrature": {"scheme": "monte_carlo", "sample_count": 20000},
    }, tmp_path / "out", 3)
    assert code == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["checks"]["dilation_automorphism"]["value"] <= 1e-11
    triangle = doc["checks"]["norm_triangle"]
    assert triangle["value"] <= 0.0 and triangle["tolerance"] == 1e-12


def test_axioms_triangle_check_can_fail(tmp_path, monkeypatch):
    """A triangle excess above 1e-12 fails the command; a gauge that
    asserts no triangle inequality reports no such check."""
    from revineq import cli
    checked = cli.check_quasi_norm_axioms

    def excess(*args, **kwargs):
        rows = checked(*args, **kwargs)
        if "norm_triangle" in rows:
            rows["norm_triangle"] = rows["norm_triangle"]._replace(value=1e-9)
        return rows

    monkeypatch.setattr(cli, "check_quasi_norm_axioms", excess)
    code = run("axioms", {"group": {"name": "heisenberg"},
                          "norm": {"name": "cygan"},
                          "quadrature": {"sample_count": 2000}},
               tmp_path / "cygan", 3)
    doc = json.loads((tmp_path / "cygan" / "report.json").read_text())
    assert code == 1 and doc["pass"] is False
    assert doc["checks"]["norm_triangle"] == {
        "value": 1e-9, "tolerance": 1e-12, "pass": False}
    run("axioms", {"group": {"name": "heisenberg"},
                   "norm": {"name": "anisotropic"},
                   "quadrature": {"sample_count": 2000}},
        tmp_path / "anisotropic", 3)
    doc = json.loads((tmp_path / "anisotropic" / "report.json").read_text())
    assert "norm_triangle" not in doc["checks"]


def _cone_gauge(group, fill):
    """The Euclidean norm with the value ``fill`` on the cone
    |x2| < |x1|/100, which dilations and negation map onto itself: a
    homogeneous and symmetric gauge that vanishes away from the origin."""
    base = euclidean_norm(group)

    def _eval(x):
        out = np.array(base.evaluate(x))
        out[np.abs(x[..., 1]) < 0.01 * np.abs(x[..., 0])] = fill
        return out

    return replace(base, name="cone", evaluate=_eval, is_true_norm=False)


@pytest.mark.parametrize("fill", [0.0, math.nan])
def test_nondegeneracy_counts_sampled_points_of_gauge_zero(plane, fill):
    """A nonzero point whose gauge is 0, or NaN, counts against the row."""
    rows = check_quasi_norm_axioms(_cone_gauge(plane, fill), 1000, seed=3)
    assert rows["norm_nondegeneracy"].value >= 1.0
    assert not rows["norm_nondegeneracy"].passed


def test_axioms_fails_a_gauge_that_vanishes_off_the_origin(tmp_path,
                                                           monkeypatch):
    from revineq import cli
    monkeypatch.setattr(cli, "euclidean_norm",
                        lambda group: _cone_gauge(group, 0.0))
    code = run("axioms", {"group": {"name": "abelian", "weights": [1.0, 1.0]},
                          "norm": {"name": "euclidean"},
                          "quadrature": {"sample_count": 2000}},
               tmp_path / "out", 3)
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert code == 1 and doc["pass"] is False
    row = doc["checks"]["norm_nondegeneracy"]
    assert row["value"] >= 1.0 and row["tolerance"] == 0.5
    assert row["pass"] is False
    assert doc["checks"]["norm_homogeneity"]["pass"]
    assert doc["checks"]["norm_symmetry"]["pass"]


def test_axiom_rows_and_their_tolerances(h1, cygan):
    """Every row each axiom check returns, with the tolerance that judges
    it; the polar row's is 3 (cartesian stderr + |S| radial error) +
    1e-9."""
    fixed = {**check_group_axioms(h1, 100, seed=1),
             **check_quasi_norm_axioms(cygan, 100, seed=1),
             **kernel_bound_report(cygan, 100, seed=1)}
    assert {k: c.tolerance for k, c in fixed.items()} == {
        "group_identity": 1e-10, "group_inverse": 1e-10,
        "group_associativity": 1e-10, "dilation_automorphism": 1e-10,
        "norm_homogeneity": 1e-12, "norm_symmetry": 1e-12,
        "norm_nondegeneracy": 0.5, "norm_triangle": 1e-12,
        "kernel_bounds_violations": 0.5}

    def profile(r):
        return np.exp(-r * r)

    spec, envelope = QuadratureSpec(sample_count=2000, seed=1), \
        DecayEnvelope("gauss")
    polar = polar_consistency_check(cygan, profile, envelope, spec)
    cart = integrate_cartesian(h1, lambda x: profile(cygan(x)), spec, envelope)
    err = integrate_radial_err(profile, 4.0, 0.0, envelope.r_max(4.0))[1]
    assert list(polar) == ["polar_consistency"]
    assert polar["polar_consistency"].tolerance == \
        3.0 * (cart.stderr + cygan.sphere * err) + 1e-9


@pytest.mark.parametrize("norm", ["cygan", "koranyi"])
def test_axioms_reports_every_row_of_every_check(tmp_path, monkeypatch,
                                                 norm):
    """The report's checks are exactly the rows the check functions
    return, with their values and tolerances, plus the Monte Carlo |S|
    row the command composes itself; a true norm adds the kernel bounds."""
    from revineq import cli
    returned = {}

    def recording(check):
        def wrapper(*args, **kwargs):
            rows = check(*args, **kwargs)
            returned.update(rows)
            return rows
        return wrapper

    for name in ("check_group_axioms", "check_quasi_norm_axioms",
                 "polar_consistency_check", "kernel_bound_report"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    run("axioms", {"group": {"name": "heisenberg"}, "norm": {"name": norm},
                   "quadrature": {"sample_count": 2000}}, tmp_path, 3)
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert set(checks) == set(returned) | {"sphere_measure_vs_direct"}
    assert ("kernel_bounds_violations" in checks) == (norm == "cygan")
    for name, row in returned.items():
        assert checks[name] == {"value": row.value,
                                "tolerance": row.tolerance,
                                "pass": row.passed}


def test_anisotropic_weight_that_rounds_to_zero_is_a_parameter_error(
        tmp_path, capsys):
    """The gauge takes the lcm of the weights as fractions of denominator
    at most 10^6; a weight that rounds to 0 there exits 2, naming the
    weights."""
    for i, weights in enumerate(([1.0, 1e-7], [1e-300, 0.7])):
        cfg = write_cfg(tmp_path, {
            "group": {"name": "abelian", "weights": weights},
            "norm": {"name": "anisotropic"}}, f"cfg{i}.json")
        assert main(["--config", str(cfg), "--command", "axioms",
                     "--out", str(tmp_path / f"out{i}")]) == 2
        assert f"one of {tuple(weights)} rounds to 0" in capsys.readouterr().err
        assert not (tmp_path / f"out{i}" / "report.json").exists()

SWEEP_CFG = {
    "seed": 5,
    "group": {"name": "abelian", "weights": [1.0, 1.0]},
    "quadrature": {"sample_count": 8000},
    "trial_f": {"family": "exp_decay", "params": [1.0]},
    "trial_h": {"family": "exp_decay", "params": [1.0]},
}

SW_H1_CFG = {
    "seed": 1,
    "group": {"name": "heisenberg"},
    "norm": {"name": "koranyi"},
    "quadrature": {"sample_count": 5000},
    "inequality": {"name": "reverse_stein_weiss", "p": 0.5, "q_prime": 0.5,
                   "alpha": 1.0, "beta": 2.0},
    "trial_f": {"family": "exp_decay", "params": [1.0]},
    "trial_h": {"family": "gaussian", "params": [1.0]},
}


def test_report_says_how_sphere_measure_was_obtained(tmp_path):
    """Every dimension reads the gauge's exact |S|: 2 pi^2 for Koranyi on
    H1, |S^3| = 2 pi^2 for the Euclidean norm on R^4."""
    r4 = {**_without(HARDY_CFG, "norm"),
          "group": {"name": "abelian", "weights": [1.0, 1.0, 1.0, 1.0]},
          "quadrature": {"sample_count": 5000}}
    for name, cfg in [("h1", SW_H1_CFG), ("r4", r4)]:
        assert run("verify", cfg, tmp_path / name) == 0
        sphere = json.loads((tmp_path / name / "report.json").read_text())[
            "report"]["sphere"]
        assert sphere == {"value": pytest.approx(2 * math.pi ** 2,
                                                 rel=1e-15),
                          "method": "exact"}


class _MonteCarloSphereCalled(Exception):
    pass


def test_verify_never_reads_monte_carlo_sphere_measure(tmp_path, monkeypatch):
    """verify on H1, R^2 and R^4, bilinear and radial, reads the gauge's
    exact |S| and neither estimate of it; axioms still checks the Monte
    Carlo |S| against the exact one."""
    from revineq import quadrature

    def refuse(*args):
        raise _MonteCarloSphereCalled

    monkeypatch.setattr(quadrature, "sphere_measure_mc", refuse)
    monkeypatch.setattr(quadrature, "sphere_measure_direct", refuse)
    r2 = {"group": {"name": "abelian", "weights": [1.0, 1.0]},
          "norm": {"name": "euclidean"}}
    r4 = {"group": {"name": "abelian", "weights": [1.0, 1.0, 1.0, 2.0]},
          "norm": {"name": "anisotropic"}}
    hls = {"name": "reverse_hls", "p": 0.5, "q_prime": 0.5}
    for name, cfg in [
            ("h1_bilinear", SW_H1_CFG),
            ("h1_radial", HARDY_CFG),
            ("r2_bilinear", {**SW_H1_CFG, **r2, "inequality": hls}),
            ("r2_radial", {**HARDY_CFG, **r2}),
            ("r4_bilinear", {**SW_H1_CFG, **r4})]:
        assert run("verify", cfg, tmp_path / name, 11) == 0
    with pytest.raises(_MonteCarloSphereCalled):
        run("axioms", {"group": {"name": "heisenberg"},
                       "quadrature": {"sample_count": 2000}},
            tmp_path / "axioms", 11)


def test_axioms_computes_monte_carlo_sphere_measure_once(tmp_path,
                                                         monkeypatch):
    """axioms estimates |S| by Monte Carlo once, for its check against the
    exact |S|; polar_consistency reads the exact |S|."""
    from revineq import quadrature
    calls = []
    mc = quadrature.sphere_measure_mc

    def counted(norm, spec):
        calls.append(spec)
        return mc(norm, spec)

    monkeypatch.setattr(quadrature, "sphere_measure_mc", counted)
    assert run("axioms", {"group": {"name": "heisenberg"},
                          "quadrature": {"sample_count": 2000}},
               tmp_path, 11) == 0
    assert len(calls) == 1


def test_sweep_skips_inadmissible_with_reason(tmp_path):
    cfg = write_cfg(tmp_path, {
        **SWEEP_CFG,
        "sweep": {
            "inequality": "reverse_stein_weiss",
            "grid": {"p": [0.5], "q_prime": [0.5], "alpha": [0.0],
                     "beta": [0.0], "lambda": [3.0, None]},
        },
    })
    code = main(["--config", str(cfg), "--command", "sweep",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    with (tmp_path / "out" / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [list(r.keys()) for r in rows][0] == SWEEP_COLUMNS
    skipped = [r for r in rows if r["pass"] == "skip"]
    ran = [r for r in rows if r["pass"] != "skip"]
    assert len(skipped) == 1 and "balance" in skipped[0]["note"]
    assert len(ran) == 1 and ran[0]["pass"] == "true"


def test_sweep_skips_exponents_outside_the_unit_interval(tmp_path):
    """p = 0, p = 1 and p = 1.5 have no admissible p' (at p = 0 not even a
    balanced lambda): each is a skip row noting only the range, and the
    sweep verifies the rest."""
    cfg = write_cfg(tmp_path, {**SWEEP_CFG, "sweep": {
        "inequality": "reverse_stein_weiss",
        "grid": {"p": [0.0, 0.7, 1.0, 1.5], "q_prime": [0.5]}}})
    assert main(["--config", str(cfg), "--command", "sweep",
                 "--out", str(tmp_path / "out")]) == 0
    with (tmp_path / "out" / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["p"], r["pass"], r["note"]) for r in rows] == [
        ("0.0", "skip", "p in (0,1)"), ("0.7", "true", ""),
        ("1.0", "skip", "p in (0,1)"), ("1.5", "skip", "p in (0,1)")]
    assert rows[0]["lambda_or_gamma"] == "nan"


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_verify_at_an_end_of_the_unit_interval_exits_2(tmp_path, capsys, p):
    cfg = write_cfg(tmp_path, {**SW_H1_CFG, "inequality": {
        "name": "reverse_stein_weiss", "p": p, "q_prime": 0.5}})
    assert main(["--config", str(cfg), "--command", "verify",
                 "--out", str(tmp_path / "out")]) == 2
    assert "inadmissible parameters: p in (0,1)" in capsys.readouterr().err


def test_sweep_rows_equal_standalone_verify(tmp_path, clear_caches):
    """Each row of a 3x3 sweep on H1 holds, byte for byte, the numbers a
    cold ``verify`` of its point writes, although the sweep draws its
    Monte Carlo sample once and shares its radial integrals."""
    cfg = {"seed": 3, "group": {"name": "heisenberg"},
           "norm": {"name": "koranyi"},
           "quadrature": {"scheme": "monte_carlo", "sample_count": 20000},
           "trial_f": {"family": "exp_decay", "params": [1.0]},
           "trial_h": {"family": "gaussian", "params": [1.0]}}
    grid = [0.3, 0.5, 0.7]
    assert run("sweep", {**cfg, "sweep": {
        "inequality": "reverse_stein_weiss",
        "grid": {"p": grid, "q_prime": grid}}}, tmp_path / "sweep") == 0
    with (tmp_path / "sweep" / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    for i, row in enumerate(rows):
        clear_caches()
        out = tmp_path / f"verify{i}"
        assert run("verify", {**cfg, "inequality": {
            "name": "reverse_stein_weiss", "p": float(row["p"]),
            "q_prime": float(row["q_prime"])}}, out) == 0
        rep = json.loads((out / "report.json").read_text())["report"]
        assert [row[k] for k in ("lhs", "rhs", "ratio", "constant", "margin",
                                 "stderr")] == \
            [str(rep[k]) for k in ("lhs", "rhs", "ratio", "analytic_constant",
                                   "margin", "stderr")]


@pytest.mark.parametrize("name", ["reverse_stein_weiss", "reverse_hls"])
def test_sweep_computes_each_bilinear_form_once(tmp_path, monkeypatch, name):
    """B depends on p and q' only through lambda, which is symmetric in
    them: the 3x3 H1 grid has 6 distinct forms, so the sweep calls
    stein_weiss_form 6 times, not 9.  Each row still holds the bits of a
    verify_stein_weiss of its point alone."""
    from revineq import inequalities as ineq
    from revineq import (InequalityParams, QuadratureSpec, balanced_lambda,
                         heisenberg_group, koranyi_norm, make_profile)
    calls = []
    form = ineq.stein_weiss_form

    def counted(*args):
        calls.append(args[2:5])
        return form(*args)

    monkeypatch.setattr(ineq, "stein_weiss_form", counted)
    grid = [0.3, 0.5, 0.7]
    assert run("sweep", {
        "seed": 3, "group": {"name": "heisenberg"},
        "norm": {"name": "koranyi"},
        "quadrature": {"scheme": "monte_carlo", "sample_count": 5000},
        "trial_f": {"family": "exp_decay", "params": [1.0]},
        "trial_h": {"family": "gaussian", "params": [1.0]},
        "sweep": {"inequality": name, "grid": {"p": grid, "q_prime": grid}}},
        tmp_path) == 0
    assert len(calls) == 6 and len(set(calls)) == 6
    with (tmp_path / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    h1 = heisenberg_group()
    f, h = make_profile("exp_decay", [1.0]), make_profile("gaussian", [1.0])
    for row in rows:
        p, qp = float(row["p"]), float(row["q_prime"])
        P = InequalityParams(Q=4.0, p=p, q_prime=qp,
                             lam=balanced_lambda(4.0, p, qp))
        rep = ineq.verify_stein_weiss(f, h, P, h1, koranyi_norm(h1),
                                      QuadratureSpec(5000, seed=3))
        assert [float(row[k]) for k in ("lhs", "rhs", "stderr")] == \
            [rep.lhs, rep.rhs, rep.stderr]


def test_estimate_writes_trace(tmp_path):
    cfg = write_cfg(tmp_path, {
        "seed": 11,
        "group": {"name": "heisenberg"},
        "quadrature": {"sample_count": 10000},
        "inequality": {"name": "reverse_hardy", "p": 0.5},
        "trial": {"family": "exp_decay", "params": [1.0]},
        "estimate": {"method": "grid", "budget": 6},
    })
    code = main(["--config", str(cfg), "--command", "estimate",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["estimate"]["evaluations"] == 6
    with (tmp_path / "out" / "trace.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["evaluation", "params", "ratio"]
    assert len(rows) == 7


def test_estimate_counts_radial_overflow_as_degenerate(tmp_path):
    """A power_decay trial whose tail is not integrable (p s below the
    degree of r^{-p} r^{Q-1}, e.g. s = 0.5) makes its radial integral
    diverge; the search counts that evaluation as degenerate instead of
    stopping.  Near the threshold the integral is finite however far out
    its cutoff lies: at s = 7.0728 the cutoff is about 1e219, where the
    quadrature's r^(Q-1) overflowed, and the closed form evaluates it."""
    code = run("estimate", {
        "group": {"name": "heisenberg"},
        "norm": {"name": "cygan"},
        "quadrature": {"scheme": "monte_carlo", "sample_count": 20000},
        "inequality": {"name": "reverse_hardy", "p": 0.5},
        "trial": {"family": "power_decay", "params": [8.0, 1.0]},
        "estimate": {"method": "nelder_mead", "budget": 24, "restarts": 2},
    }, tmp_path / "out", 5)
    assert code == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["estimate"]["evaluations"] == 24
    assert doc["estimate"]["degenerate_evaluations"] >= 1
    with (tmp_path / "out" / "trace.csv").open() as fh:
        near = [float(row["ratio"]) for row in csv.DictReader(fh)
                if json.loads(row["params"])
                == pytest.approx([7.0728494, 20.0])]
    assert near and all(math.isfinite(v) for v in near)
    assert min(near) >= doc["estimate"]["analytic_constant"]


def test_degenerate_integral_hardy_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, {
        "seed": 2,
        "group": {"name": "heisenberg"},
        "quadrature": {"sample_count": 8000},
        "inequality": {"name": "reverse_integral_hardy", "region": "ball",
                       "p": 0.5, "q": -1.0,
                       "W_exponent": -6.0, "U_exponent": -1.0},
        "trial": {"family": "exp_decay", "params": [1.0]},
    })
    code = main(["--config", str(cfg), "--command", "verify",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["report"]["degenerate"] is not None


def test_nan_q_in_integral_hardy_exits_2(tmp_path, capsys):
    """json reads NaN as a float; a NaN q is not negative and is refused
    before any quadrature runs."""
    cfg = write_cfg(tmp_path, {
        "seed": 2,
        "group": {"name": "heisenberg"},
        "norm": {"name": "koranyi"},
        "quadrature": {"sample_count": 8000},
        "inequality": {"name": "reverse_integral_hardy", "region": "ball",
                       "p": 0.5, "q": float("nan"),
                       "W_exponent": -6.0, "U_exponent": -1.0},
        "trial": {"family": "exp_decay", "params": [1.0]},
    })
    code = main(["--config", str(cfg), "--command", "verify",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "q must be negative" in capsys.readouterr().err


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": }')
    code = main(["--config", str(path), "--command", "verify"])
    assert code == 2
    assert "bad.json:1:" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code = main(["--config", str(path), "--command", "verify"])
    assert code == 2
    assert f"cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize("path,cfg", [
    ("group.name", {**HARDY_CFG, "group": {"name": "engel"}}),
    ("norm.name", {**HARDY_CFG, "norm": {"name": "carnot"}}),
    ("inequality.name", {**HARDY_CFG, "inequality": {"name": "reverse_hardie",
                                                     "p": 0.5}}),
])
def test_unknown_name_exits_2(tmp_path, capsys, path, cfg):
    """A misspelt group, norm or inequality name is a configuration error
    (exit 2) naming its key path and the name, and writes no report."""
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 "verify", "--out", str(tmp_path / "out")])
    assert code == 2
    section, key = path.split(".")
    err = capsys.readouterr().err
    assert f"config.{path}: unknown" in err and repr(cfg[section][key]) in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_unknown_key_exit_2(tmp_path, capsys):
    # radial ranges come from decay envelopes, so no window key exists
    for key in ("sample_cout", "truncation_radius", "inner_cutoff"):
        cfg = write_cfg(tmp_path, {"quadrature": {key: 5}})
        code = main(["--config", str(cfg), "--command", "verify"])
        assert code == 2
        assert f"config.quadrature.{key}: unknown key" in \
            capsys.readouterr().err


@pytest.mark.parametrize("command,key,cfg", [
    # the first unread key in the section's order is named; null is absent
    ("verify", "alpha", {**HARDY_CFG, "inequality": {
        "name": "reverse_hardy", "p": 0.5, "alpha": 7, "q_prime": 0.3,
        "region": "ball"}}),
    ("estimate", "region", {**HARDY_CFG, "inequality": {
        "name": "reverse_hardy", "p": 0.5, "q_prime": None,
        "region": "ball"}}),
    ("verify", "lamda", {**SW_H1_CFG, "inequality": {
        **SW_H1_CFG["inequality"], "lamda": 3.0}}),
])
def test_unread_inequality_key_exits_2(tmp_path, capsys, command, key, cfg):
    """A key the named inequality never reads is rejected, not echoed into
    the report as if it had been used."""
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 command, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config.inequality.{key}: not read by " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command,key,cfg", [
    ("verify", "output", {**HARDY_CFG, "output": "x"}),
    ("verify", "estimate", {**HARDY_CFG, "estimate": {"method": "grid"}}),
    ("verify", "sweep", {**HARDY_CFG, "sweep": {
        "inequality": "reverse_stein_weiss",
        "grid": {"p": [0.5], "q_prime": [0.5]}}}),
    ("verify", "trial_f", {**HARDY_CFG, "trial_f": HARDY_CFG["trial"]}),
    # estimate.families replaces the trial section's family
    ("estimate", "trial", {**HARDY_CFG, "estimate": {
        "method": "grid", "budget": 2, "families": ["gaussian"]}}),
    ("axioms", "inequality", HARDY_CFG),
])
def test_unread_top_level_key_exits_2(tmp_path, capsys, command, key, cfg):
    """A section the command does not read is rejected before any verifier
    runs, not echoed into the report as if it had been used."""
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 command, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config.{key}: not read by {command}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command,path,cfg", [
    ("verify", "group.weigths", {**HARDY_CFG, "group": {
        "name": "abelian", "weigths": [1.0, 2.0]}}),
    # the Heisenberg group has its own weights
    ("verify", "group.weights", {**HARDY_CFG, "group": {
        "name": "heisenberg", "weights": [1.0, 1.0, 2.0]}}),
    ("verify", "norm.nmae", {**HARDY_CFG, "norm": {"nmae": "cygan"}}),
    ("verify", "trial.param", {**HARDY_CFG, "trial": {
        "family": "exp_decay", "param": [2.0]}}),
    ("estimate", "estimate.budjet", {**HARDY_CFG, "estimate": {
        "method": "grid", "budjet": 2}}),
    ("sweep", "sweep.varaint", {**SWEEP_CFG, "sweep": {
        "varaint": "improved_a", "grid": {"p": [0.5], "q_prime": [0.5]}}}),
])
def test_unknown_section_key_exits_2(tmp_path, capsys, command, path, cfg):
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 command, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config.{path}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_bad_parameter_exit_2(tmp_path):
    bad = dict(HARDY_CFG)
    bad["inequality"] = {"name": "reverse_hardy", "p": 1.5}
    cfg = write_cfg(tmp_path, bad)
    code = main(["--config", str(cfg), "--command", "verify",
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_margin_failure_maps_to_exit_1(tmp_path, monkeypatch):
    """No honest config fails on margin (the checked theorems hold), so the
    mapping is exercised by pinning an impossible constant."""
    import revineq.inequalities as ineq_mod

    original = ineq_mod.verify_reverse_hardy

    def rigged(*args, **kwargs):
        rep = original(*args, **kwargs)
        rep.analytic_constant = rep.ratio + 1.0
        return rep

    monkeypatch.setattr("revineq.cli.ineq.verify_reverse_hardy", rigged)
    cfg = write_cfg(tmp_path, HARDY_CFG)
    code = main(["--config", str(cfg), "--command", "verify",
                 "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize("command,missing", [
    ("verify", "inequality.p"),
    ("estimate", "inequality.p"),
    ("verify", "inequality.name"),
    ("verify", "trial.family"),
    ("estimate", "trial"),
])
def test_missing_config_key_exits_2(tmp_path, capsys, command, missing):
    """A config error exits 2 naming the key, never 1 (a failed margin)."""
    cfg = write_cfg(tmp_path, _without(HARDY_CFG, missing))
    code = main(["--config", str(cfg), "--command", command,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config.{missing}: " in capsys.readouterr().err


@pytest.mark.parametrize("command,path,cfg", [
    ("verify", "inequality.p", {**HARDY_CFG, "inequality": {
        "name": "reverse_hardy", "p": "x"}}),
    ("verify", "quadrature.sample_count", {
        **HARDY_CFG, "quadrature": {"sample_count": "many"}}),
    ("verify", "trial.params", {**HARDY_CFG, "trial": {
        "family": "exp_decay", "params": 1.0}}),
    ("sweep", "sweep.grid.p", {**SWEEP_CFG, "sweep": {
        "inequality": "reverse_stein_weiss",
        "grid": {"p": 0.5, "q_prime": [0.5]}}}),
    # an integer key takes no fraction and no bool, which int() would
    # truncate silently while the report kept the value as given
    ("verify", "quadrature.sample_count", {
        **HARDY_CFG, "quadrature": {"sample_count": 15000.9}}),
    ("estimate", "estimate.budget", {
        **HARDY_CFG, "estimate": {"method": "grid", "budget": 3.9}}),
    ("verify", "quadrature.sample_count", {
        **HARDY_CFG, "quadrature": {"sample_count": True}}),
    # a float key and a list of numbers take no bool either, which float()
    # would read as 1.0 or 0.0
    ("verify", "inequality.alpha", {**SW_H1_CFG, "inequality": {
        **SW_H1_CFG["inequality"], "alpha": True}}),
    ("verify", "trial_h.params", {**SW_H1_CFG, "trial_h": {
        "family": "gaussian", "params": [True]}}),
    # a section that is not an object, and names that are not strings
    ("verify", "inequality", {**HARDY_CFG, "inequality": [1]}),
    ("verify", "group", {**HARDY_CFG, "group": [1]}),
    ("verify", "norm", {**HARDY_CFG, "norm": "koranyi"}),
    ("verify", "quadrature", {**HARDY_CFG, "quadrature": 15000}),
    ("verify", "norm.name", {**HARDY_CFG, "norm": {"name": ["koranyi"]}}),
    ("verify", "trial.family", {**HARDY_CFG, "trial": {
        "family": ["exp_decay"], "params": [1.0]}}),
    ("estimate", "estimate.families", {**HARDY_CFG, "estimate": {
        "method": "grid", "budget": 2, "families": 5}}),
    # one string is not a list of one family
    ("estimate", "estimate.families", {
        **_without(HARDY_CFG, "trial"),
        "estimate": {"method": "grid", "budget": 2, "families": "gaussian"}}),
    ("verify", "trial", {**HARDY_CFG, "trial": ["exp_decay", 1.0]}),
    # a float key and a list of numbers take a JSON number, not a string
    # that float() would parse
    ("verify", "inequality.p", {**HARDY_CFG, "inequality": {
        "name": "reverse_hardy", "p": "0.5"}}),
    ("verify", "trial.params", {**HARDY_CFG, "trial": {
        "family": "exp_decay", "params": ["1.0"]}}),
    ("verify", "trial_f.params", {**SW_H1_CFG, "trial_f": {
        "family": "exp_decay", "params": [1.0, "2"]}}),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, command, path, cfg):
    """A value of the wrong type exits 2 naming its key path, not with a
    bare Python error and exit 1 (a failed margin)."""
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 command, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config.{path}: expected " in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command,weights", [
    ("verify", [math.nan]), ("axioms", [math.inf]),
    ("axioms", [1e308, 1e308])], ids=["nan", "inf", "sum-overflows"])
def test_non_finite_group_weights_exit_2(tmp_path, capsys, command, weights):
    """JSON configs can write NaN and Infinity, and two weights of 1e308
    have no finite sum Q: each is a parameter error naming the weights
    (exit 2), not a traceback from the gauge's rational lcm or from fsum
    (exit 1)."""
    cfg = {**_without(HARDY_CFG, "norm"),
           "group": {"name": "abelian", "weights": weights}}
    path = write_cfg(tmp_path, cfg)
    assert main(["--config", str(path), "--command", command,
                 "--out", str(tmp_path / "out")]) == 2
    assert "abelian_group: weights must be" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg", [
    ("estimate", {**HARDY_CFG, "inequality": {
        "name": "reverse_integral_hardy", "p": 0.5, "q": -1.0,
        "W_exponent": -6.0, "U_exponent": -1.0}}),
    ("sweep", {**HARDY_CFG, "sweep": {"inequality": "reverse_hardy",
                                      "grid": {"p": [0.5]}}}),
    *[("estimate", {**HARDY_CFG, "inequality": {"name": name, "p": 2.0,
                                                **keys},
                    "trial": {"family": "gaussian", "params": [1.0]}})
      for name, keys in [("forward_hardy", {}), ("forward_sobolev", {}),
                         ("forward_ckn", {"alpha": 0.5, "beta": 0.5})]],
])
def test_command_outside_inequality_row_exits_2(tmp_path, capsys, command,
                                                cfg):
    """estimate has no ratio to minimise for the degenerate integral Hardy
    pair, nor for a forward inequality, whose ratio is bounded from above,
    and sweep serves only the bilinear inequalities.  No report is
    written."""
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 command, "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out" / "report.json").exists()
    if command == "estimate":
        assert "needs a reverse (lower-bound) ratio" in \
            capsys.readouterr().err


NEAR_CRITICAL_HLS = {
    "group": {"name": "heisenberg"}, "norm": {"name": "cygan"},
    "quadrature": {"sample_count": 2000},
    "inequality": {"name": "reverse_hls", "p": 0.8, "q_prime": 0.8},
    "trial_h": {"family": "gaussian", "params": [1.0]},
}


@pytest.mark.parametrize("s", [6.05, 6.01])
def test_near_critical_power_tail_exits_3(tmp_path, capsys, s):
    """f = (1+r)^{-s} with s just above Q + lambda = 6 on H1/Cygan (p = q'
    = 0.8, lambda = 2) is admissible, but its radial sampler's density
    overflows at s = 6.05 and its tail radius is infinite at s = 6.01: a
    numerical error (exit 3), never a configuration error (exit 2).  The
    message names the side and its margin above the threshold."""
    cfg = {**NEAR_CRITICAL_HLS,
           "trial_f": {"family": "power_decay", "params": [s, 1.0]}}
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 "verify", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite on radial grid" in err
    assert "f-side tail margin e = s - (Q + alpha + lambda) = " \
        f"{s - 6.0:.2f}" in err


def test_near_critical_h_side_tail_exits_3(tmp_path, capsys):
    """h = (1+r)^{-6.0263} puts the sampler's 1e-8 tail radius at 1.5e305,
    whose ratio to the grid anchor overflows: the decades are counted as
    a difference of logarithms, and the run exits 3 naming the h-side
    margin, not 1 with an OverflowError."""
    cfg = {**NEAR_CRITICAL_HLS,
           "trial_f": {"family": "exp_decay", "params": [1.0]},
           "trial_h": {"family": "power_decay", "params": [6.0263, 1.0]}}
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 "verify", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "h-side tail margin e = s - (Q + beta + lambda) = 0.0263" in \
        capsys.readouterr().err


def test_estimate_with_every_evaluation_degenerate_exits_3(tmp_path,
                                                           capsys):
    """At p = 0.03 the norm ||f/|x|||_p diverges for every power_decay in
    the box (p s <= 3.6 < Q - p), so every grid point degenerates and the
    search has no finite ratio (exit 3)."""
    cfg = {**HARDY_CFG, "norm": {"name": "cygan"},
           "inequality": {"name": "reverse_hardy", "p": 0.03},
           "trial": {"family": "power_decay", "params": [8.0, 1.0]},
           "estimate": {"method": "grid", "budget": 6}}
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 "estimate", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "every evaluation degenerated" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["cubature", "tensor_grid"])
def test_unknown_quadrature_scheme_exits_2(tmp_path, capsys, scheme):
    """monte_carlo is the only scheme; configs may still name it."""
    cfg = {**HARDY_CFG, "quadrature": {"scheme": scheme,
                                       "sample_count": 15000}}
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 "verify", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config.quadrature.scheme: " in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg", [
    ("verify", {**HARDY_CFG, "trial": {"family": "exp_decy",
                                       "params": [1.0]}}),
    ("estimate", {**_without(HARDY_CFG, "trial"), "estimate": {
        "method": "grid", "budget": 2, "families": ["exp_decy"]}}),
])
def test_unknown_trial_family_exits_2(tmp_path, capsys, command, cfg):
    """A misspelt family is a parameter error (exit 2) naming the family and
    the known ones, not a failed margin (exit 1)."""
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 command, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'exp_decy'" in err and "exp_decay" in err


def test_bilinear_estimate_searches_the_trial_sections(tmp_path):
    """Without families, a bilinear estimate builds trial_f and trial_h as
    verify does and searches their families, (exp_decay, gaussian), as the
    same search with those families named does."""
    base = {"group": {"name": "abelian", "weights": [1.0]},
            "norm": {"name": "euclidean"},
            "quadrature": {"sample_count": 5000},
            "inequality": {"name": "reverse_hls", "p": 0.5, "q_prime": 0.5}}
    cfg = {**base, "trial_f": {"family": "exp_decay", "params": [1.0]},
           "trial_h": {"family": "gaussian", "params": [1.0]},
           "estimate": {"method": "grid", "budget": 6}}
    named = {**base, "estimate": {"method": "grid", "budget": 6,
                                  "families": ["exp_decay", "gaussian"]}}
    assert run("estimate", cfg, tmp_path / "trials", 3) == 0
    assert run("estimate", named, tmp_path / "named", 3) == 0
    trace = (tmp_path / "trials" / "trace.csv").read_text()
    assert trace == (tmp_path / "named" / "trace.csv").read_text()
    with (tmp_path / "trials" / "trace.csv").open() as fh:
        points = [json.loads(row["params"]) for row in csv.DictReader(fh)]
    # one c of each family, each over its family box
    assert points == [[c, d] for c in (0.05, 20.0) for d in (0.05, 20.0)]


def test_estimate_checks_trial_params_against_family_box(tmp_path, capsys):
    """Without families, estimate builds the trial section as verify does,
    so parameters outside the family box are rejected there too."""
    cfg = {**HARDY_CFG, "trial": {"family": "exp_decay", "params": [100.0]},
           "estimate": {"method": "grid", "budget": 2}}
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 "estimate", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "exp_decay.c = 100 outside box" in capsys.readouterr().err


def test_sweep_unknown_grid_key_exits_2(tmp_path, capsys):
    """A misspelt lambda is rejected, not silently replaced by the
    balanced value."""
    cfg = {**SWEEP_CFG, "sweep": {
        "inequality": "reverse_stein_weiss",
        "grid": {"p": [0.5], "q_prime": [0.5], "lamda": [3.0]}}}
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 "sweep", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config.sweep.grid.lamda: unknown key" in capsys.readouterr().err


def test_sweep_weighted_reverse_hls_exits_2(tmp_path, capsys):
    """Each sweep point is verified as verify does: reverse_hls is the
    unweighted corollary, so alpha = 1, beta = 2 is rejected there too."""
    cfg = {**SWEEP_CFG, "group": {"name": "heisenberg"}, "sweep": {
        "inequality": "reverse_hls",
        "grid": {"p": [0.5], "q_prime": [0.5], "alpha": [1.0],
                 "beta": [2.0]}}}
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 "sweep", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "requires alpha = beta = 0" in capsys.readouterr().err
    verify = {**_without(cfg, "sweep"), "inequality": {
        "name": "reverse_hls", "p": 0.5, "q_prime": 0.5, "alpha": 1.0,
        "beta": 2.0}}
    code = main(["--config", str(write_cfg(tmp_path, verify, "v.json")),
                 "--command", "verify", "--out", str(tmp_path / "v")])
    assert code == 2
    assert "requires alpha = beta = 0" in capsys.readouterr().err


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(path)


def test_run_api_matches_main(tmp_path):
    code = run("verify", json.loads(json.dumps(HARDY_CFG)),
               tmp_path / "api_out", seed_override=9)
    assert code == 0
    doc = json.loads((tmp_path / "api_out" / "report.json").read_text())
    assert doc["config"]["seed"] == 9


@pytest.mark.parametrize("command,cfg,argv", [
    ("verify", {**SW_H1_CFG, "seed": -1}, []),
    ("verify", SW_H1_CFG, ["--seed", "-1"]),
    ("axioms", {"seed": -1, "group": {"name": "heisenberg"}}, []),
    ("estimate", {**HARDY_CFG, "estimate": {"budget": 4}}, ["--seed", "-1"]),
], ids=["verify-config", "verify-flag", "axioms-config", "estimate-flag"])
def test_negative_seed_exits_2(tmp_path, capsys, command, cfg, argv):
    """A negative seed is a parameter error naming the seed (exit 2), not
    numpy's ValueError from default_rng (exit 1)."""
    path = write_cfg(tmp_path, cfg)
    assert main(["--config", str(path), "--command", command,
                 "--out", str(tmp_path / "out"), *argv]) == 2
    assert "seed = -1 must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("out,reason", [
    ("taken", "File exists"), ("taken/sub", "Not a directory")])
def test_out_with_a_file_in_the_way_exits_2(tmp_path, capsys, out, reason):
    """A file at --out, or at a folder above it, is a config error naming
    the path (exit 2), not an OSError traceback (exit 1)."""
    (tmp_path / "taken").write_text("")
    cfg = write_cfg(tmp_path, HARDY_CFG)
    assert main(["--config", str(cfg), "--command", "verify",
                 "--out", str(tmp_path / out)]) == 2
    assert f"output directory {str(tmp_path / out)!r}: {reason}" \
        in capsys.readouterr().err


# ---------------------------------------------------------------------------
# where an error came from
# ---------------------------------------------------------------------------

_H1 = heisenberg_group()
_KORANYI = koranyi_norm(_H1)
_EXP = make_profile("exp_decay", [1.0])
_RISING = RadialProfile(
    value=lambda r: 2.0 - np.exp(-np.asarray(r, float)),
    derivative=lambda r: np.exp(-np.asarray(r, float)),
    envelope=DecayEnvelope("exp"), derivative_envelope=DecayEnvelope("exp"))


@pytest.mark.parametrize("call,message,frames", [
    (lambda: verify_reverse_hardy(_EXP, 0.5, abelian_group((1.0, 1.0)),
                                  _KORANYI, None),
     "gauge 'koranyi' is on",
     ["inequalities.verify_reverse_hardy", "inequalities._verify_radial",
      "groups.QuasiNorm.require_on"]),
    (lambda: weighted_p_integral(_EXP, 1.0, -5.0, 4.0),
     "r^-5 singularity",
     ["operators.weighted_p_integral",
      "quadrature.DecayEnvelope.check_integrable"]),
    (lambda: verify_reverse_hardy(_RISING, 0.5, _H1, _KORANYI, None),
     "profile is not radially decreasing",
     ["inequalities.verify_reverse_hardy", "inequalities._verify_radial",
      "operators.RadialProfile.check_decreasing"]),
    (lambda: _KORANYI(np.zeros((2, 2))),
     "expected points with last axis 3",
     ["groups.QuasiNorm.__call__", "groups._check_last_axis"]),
], ids=["gauge_on_another_group", "singular_moment", "rising_profile",
        "points_of_another_dimension"])
def test_where_names_the_raising_functions(call, message, frames, located):
    """The functions an error passed through, read off its traceback,
    outermost first; lambdas and this file are left out.  Each of these
    once carried the location of its caller in its message."""
    with pytest.raises(RevineqError) as excinfo:
        call()
    assert str(excinfo.value).startswith(message)
    assert where(excinfo.value) == located(*frames)


def test_cli_error_lines_name_where_the_error_came_from(tmp_path, capsys,
                                                        located):
    """stderr is "error: <where>: <message>" at exit 2 and "numerical
    error: <where>: <message>" at exit 3, where <where> leaves out the
    command line's own functions; a config error raised there is its
    message alone."""
    def stderr_of(cfg, code):
        path = write_cfg(tmp_path, cfg)
        assert main(["--config", str(path), "--command", "verify",
                     "--out", str(tmp_path / "out")]) == code
        return capsys.readouterr().err

    assert stderr_of({**SW_H1_CFG, "inequality": {
        "name": "reverse_stein_weiss", "p": 1.0, "q_prime": 0.5}}, 2) == (
        "error: " + located("inequalities.verify_stein_weiss",
                            "inequalities.stein_weiss_lower_constant")
        + ": inadmissible parameters: p in (0,1)\n")
    assert stderr_of({**NEAR_CRITICAL_HLS,
                      "trial_f": {"family": "exp_decay", "params": [1.0]},
                      "trial_h": {"family": "power_decay",
                                  "params": [6.0263, 1.0]}}, 3) == (
        "numerical error: " + located("inequalities.verify_reverse_hls",
                                      "inequalities.verify_stein_weiss",
                                      "operators.stein_weiss_form")
        + ": envelope density non-finite on radial grid; h-side tail "
        "margin e = s - (Q + beta + lambda) = 0.0263\n")
    assert stderr_of({**HARDY_CFG, "grup": {}}, 2) == \
        "error: config.grup: not read by verify\n"


@pytest.mark.parametrize("command,cfg", [
    ("verify", {**SW_H1_CFG, "inequality": {
        "name": "reverse_stein_weiss", "p": 0.5, "q_prime": 0.5}}),
    ("axioms", {"group": {"name": "heisenberg"}})])
def test_an_infinite_error_bar_fails_the_verdict(tmp_path, command, cfg):
    """One Monte Carlo sample has an infinite stderr, so the bilinear ratio
    and the two Monte Carlo axioms rows have an infinite tolerance, which
    decides nothing: each fails (exit 1) instead of passing."""
    path = write_cfg(tmp_path, {**cfg, "quadrature": {"sample_count": 1}})
    assert main(["--config", str(path), "--command", command,
                 "--out", str(tmp_path / "out")]) == 1
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    if command == "verify":
        assert doc["report"]["stderr"] == math.inf
        assert doc["report"]["margin"] > 0 and not doc["report"]["pass"]
    else:
        assert {k: row["tolerance"] for k, row in doc["checks"].items()
                if not row["pass"]} == {"polar_consistency": math.inf,
                                        "sphere_measure_vs_direct": math.inf}
