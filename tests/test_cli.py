import csv
import json
import math
from pathlib import Path

import pytest

from revineq.cli import SWEEP_COLUMNS, load_config, main, run
from revineq.exceptions import ConfigError


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
    """axioms checks the |S| that polar_consistency used against the
    exact one, without estimating it a second time."""
    from revineq import quadrature
    calls = []
    mc = quadrature.sphere_measure_mc

    def counted(group, norm, spec):
        calls.append(spec)
        return mc(group, norm, spec)

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


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": }')
    code = main(["--config", str(path), "--command", "verify"])
    assert code == 2
    assert "bad.json:1:" in capsys.readouterr().err


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


@pytest.mark.parametrize("command,cfg", [
    ("estimate", {**HARDY_CFG, "inequality": {
        "name": "reverse_integral_hardy", "p": 0.5, "q": -1.0,
        "W_exponent": -6.0, "U_exponent": -1.0}}),
    ("sweep", {**HARDY_CFG, "sweep": {"inequality": "reverse_hardy",
                                      "grid": {"p": [0.5]}}}),
])
def test_command_outside_inequality_row_exits_2(tmp_path, command, cfg):
    """estimate has no ratio to minimise for the degenerate integral Hardy
    pair, and sweep serves only the bilinear inequalities."""
    code = main(["--config", str(write_cfg(tmp_path, cfg)), "--command",
                 command, "--out", str(tmp_path / "out")])
    assert code == 2


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
