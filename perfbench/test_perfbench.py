"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
import time

import pytest

import run

workloads = run._import_program()
import tracer as tr  # noqa: E402  (needs revineq importable first)

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args) -> dict:
    out = subprocess.run([sys.executable, str(run.BENCH / "run.py"), *args],
                         cwd=run.ROOT, capture_output=True, text=True,
                         check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    assert res["correct"] is True


def test_benchmark_contract_lists_the_emitted_metrics():
    assert [m["name"] for m in CONTRACT["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in CONTRACT["per_layer"]] == \
        [name for name, _ in tr.LAYER_METRICS]
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(run.WORKLOADS)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [8, 12] overhangs root's end and overlaps b, so only [9, 10] is new
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("c", 2.0, 3.0, 1),
             ("b", 5.0, 9.0, 0),
             ("d", 8.0, 12.0, 0)]
    assert tr.self_times(spans) == [10.0 - 3.0 - 4.0 - 1.0, 2.0, 1.0, 4.0, 4.0]


def test_tracer_sees_calls_through_every_binding(tmp_path):
    wl = workloads.build("sw_grid", 1, tmp_path)
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        run.run_op(wl.ops[0], tracer)
    finally:
        tracer.uninstall()
    parent = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    # stein_weiss_form and sphere_measure are imported by name elsewhere
    assert parent["operators.stein_weiss_form"] == \
        "inequalities.verify_stein_weiss"
    assert {tracer.spans[s[3]][0] for s in tracer.spans
            if s[0] == "quadrature.sphere_measure"} == \
        {"inequalities.verify_stein_weiss", "operators.lp_functional"}
    assert parent["quadrature.RadialSampler.sample"] == \
        "quadrature.sample_group_points"
    # QuasiNorm.__call__ is patched on the class: the three gauge calls of
    # the bilinear form are seen (a cold |S| adds one under integrate_cartesian)
    assert [tracer.spans[s[3]][0] for s in tracer.spans
            if s[0] == "groups.norm_eval"].count(
                "operators.stein_weiss_form") == 3
    assert tracer.counts["integrand_evals"] > 0
    # uninstall restores the originals
    import revineq.inequalities as ineq
    import revineq.operators as ops
    assert ineq.stein_weiss_form is ops.stein_weiss_form
    assert not hasattr(ops.stein_weiss_form, "__wrapped__")


def test_tail_percentile_leaves_ten_samples_above():
    for n in (5, 11, 20, 999, 1000, 2500):
        value, level = run.tail_percentile(range(n))
        above = sum(v > value for v in range(n))
        assert (above == n - 1 - value) and (above >= 10 or n <= 10)
        assert level <= 0.99 or n <= 10
    assert run.tail_percentile(range(2000)) == (1979, 0.99)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_outcomes_other_seed_other_inputs(workload, tmp_path):
    def first_outcomes(seed, sub):
        wl = workloads.build(workload, seed, tmp_path / sub)
        return [run.run_op(op)[1] for op in wl.ops[:2]]

    a, b = first_outcomes(5, "a"), first_outcomes(5, "b")
    c = first_outcomes(6, "c")
    assert a == b
    assert [o.inputs for o in a] != [o.inputs for o in c]


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in run.BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    start = time.monotonic()
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "sw_grid", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
    assert time.monotonic() - start < 180


def test_axioms_exit_1_passes_only_on_monte_carlo_checks(tmp_path):
    # anisotropic R2 at seed 60: sphere_measure_vs_direct lies just beyond
    # its 3-stderr tolerance; H1 at seed 3 fails the exact dilation check
    _, command, config = next(c for c in workloads.CLI_COMMANDS
                              if c[0] == "axioms_anisotropic_r2")
    code = workloads._cli_call(command, config, tmp_path, 60)
    outcome = workloads._cli_outcome(command, tmp_path, code, "aniso")
    assert code == 1 and outcome.ok and outcome.beyond_3_sigma
    code = workloads._cli_call("axioms", workloads._H1_CYGAN, tmp_path, 3)
    assert code == 1
    assert not workloads._cli_outcome("axioms", tmp_path, code, "h1").ok


def test_known_defects_are_probed(tmp_path):
    wl = workloads.build("cli_seed_scan", 1, tmp_path)
    names = [d.name for d, _, _ in run.run_defects(wl)]
    assert names == ["estimate_overflow_error", "axioms_h1_dilation_tolerance"]
