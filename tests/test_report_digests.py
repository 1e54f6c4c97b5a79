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
    assert len(expected) == 58
    clear_caches()
    assert report_digests.digests(tmp_path) == expected
