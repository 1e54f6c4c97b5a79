"""Byte-identity gate: the reports of the ``tools/report_digests.py``
corpus hash to the lines in ``report_digests.txt``.

The last bits of a report depend on the numpy and scipy builds, so the
comparison runs only on the versions named in that file's header.  A
change that moves a report on purpose regenerates the file with

    PYTHONPATH=src python3 tools/report_digests.py > tests/report_digests.txt

and explains the moves with ``tools/report_diff.py`` output.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import report_digests  # noqa: E402


def test_corpus_reports_are_byte_identical(tmp_path, clear_caches):
    lines = (Path(__file__).parent / "report_digests.txt").read_text() \
        .splitlines()
    header = [line for line in lines if line.startswith("#")]
    expected = [line for line in lines if not line.startswith("#")]
    if header != report_digests.versions():
        pytest.skip(f"digests were taken on {header}, this is "
                    f"{report_digests.versions()}")
    assert len(expected) == 75
    clear_caches()
    # digests creates the folder it writes into
    assert report_digests.digests(tmp_path / "corpus") == expected


def test_a_crashing_case_is_recorded_as_exit_1(tmp_path, monkeypatch):
    """An exception outside the RevineqError family escapes cli.main; the
    corpus records it as the interpreter's exit 1 and goes on, so
    report_diff lists it as an exit-code move."""
    def crash(argv):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(report_digests.cli, "main", crash)
    assert report_digests.digests(tmp_path / "corpus") == [
        f"exit 1  {case}" for case, *_ in report_digests.CORPUS]


def test_report_diff_scores_moves_and_flags_flips():
    """report_diff scores a moved ratio by its stderr and a moved lhs by
    its lhs_stderr on both sides, says where a sigma is missing, gives the
    new stderr over the old for a moved ratio, reads a moved check against
    its tolerance on both sides, and lists a changed pass field as a
    verdict flip."""
    import report_diff
    a = {"report": {"ratio": 1.0, "stderr": 0.3, "lhs": 5.0,
                    "lhs_stderr": 0.0, "pass": True},
         "checks": {"homogeneity": {"value": 4e-16, "tolerance": 1e-12},
                    "symmetry": {"value": 0.0, "tolerance": 1e-12}}}
    b = {"report": {"ratio": 1.5, "stderr": 0.4, "lhs": 5.0,
                    "lhs_stderr": 0.1, "pass": False},
         "checks": {"homogeneity": {"value": 7e-16, "tolerance": 1e-12},
                    "symmetry": {"value": 0.0, "tolerance": 1e-12}}}
    rows_a = [{"ratio": 2.0, "stderr": 1.0, "lhs": 3.0, "pass": "true"}]
    rows_b = [{"ratio": 2.5, "stderr": 0.0, "lhs": 3.5, "pass": "true"}]
    assert list(report_diff.z_scores(a, b)) == [("report.ratio",
                                                 pytest.approx(1.0))]
    assert list(report_diff.z_scores(rows_a, rows_b)) == [
        ("[0].ratio", pytest.approx(0.5)), ("[0].lhs", None)]
    assert list(report_diff.stderr_ratios(rows_a, rows_b)) == []
    lines, zs, flips, ratios = report_diff.diff_file("case/report.json",
                                                     a, b)
    assert flips == [("case/report.json:report.pass", True, False)]
    assert "    report.ratio: z 1" in lines
    assert ratios == [("case/report.json:report.ratio", pytest.approx(4 / 3))]
    assert "    report.ratio: stderr new/old 1.33" in lines
    assert "    checks.homogeneity.value: relative 0.429" in lines
    assert "    checks.homogeneity.value: value/tolerance 0.0004 -> 0.0007" \
        in lines
    assert not any("symmetry" in line for line in lines)
    text = report_diff.summary(zs + [("case/sweep.csv:[0].lhs", None)],
                               flips, ratios + [("case/x", 0.5)])
    assert "largest z-score: 1 (case/report.json:report.ratio)" in text
    assert "1 without sigma" in text
    assert "median stderr new/old: 0.917 over 2 moved ratios" in text
    assert "verdict flips: case/report.json:report.pass True -> False" \
        in text


def test_paired_forms_runs_both_children_in_turn():
    """tools/paired_forms.py against this checkout itself: each of the
    first four sw_grid operations runs once in each child, with the same
    report digest, and a timing for each side."""
    import paired_forms
    rows = paired_forms.paired(ROOT, 1, 4)
    assert len(rows) == 4
    assert all(same and here > 0 and there > 0 for here, there, same in rows)


def test_paired_forms_reports_geometric_mean_and_differing_digests(
        monkeypatch, capsys):
    """A ratio of 2 on one form and 1/2 on the other is a geometric mean of
    1; one differing digest is counted and exits 1."""
    import paired_forms
    monkeypatch.setattr(paired_forms, "paired", lambda other, seed: [
        (2.0, 1.0, True), (1.0, 2.0, False)])
    assert paired_forms.main(["elsewhere"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2 operations, 1 digests differ"
    assert out[1].startswith("geometric mean time ratio this/other per "
                             "form: 1.0000 [0.5000, 2.0000]")
