#!/usr/bin/env python3
"""Compare the reports two source trees write for the report_digests corpus.

Runs ``report_digests.CORPUS`` once with this checkout's ``src/`` and once
with the ``src/`` of another checkout (typically the parent commit), each in
a fresh interpreter writing into its own temporary directory, then prints
for every ``report.json``, ``sweep.csv`` and ``trace.csv``:

- the largest relative difference of any numeric field, with its path, and
  every numeric field that differs by more than 1e-12;
- every non-numeric difference: verdicts, strings, missing fields, exit
  codes;
- for every ``ratio`` or ``lhs`` that moved, its z-score
  |a - b| / sqrt(sigma_a^2 + sigma_b^2), with sigma the ``stderr`` (for
  ``ratio``) or ``lhs_stderr`` (for ``lhs``) of the same report or
  ``sweep.csv`` row on each side, or "no sigma" where either side has none.

The last lines summarise the run: the largest z-score, and every verdict
flip (a changed ``pass`` field or exit code).

Byte digests gate refactors that must not move a single bit; this gates
changes that move report values by rounding only:

    python3 tools/report_diff.py /path/to/parent/checkout
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPORT_FILES = ("report.json", "sweep.csv", "trace.csv")
# numeric fields differing by more than this are listed one by one
LIST_ABOVE = 1e-12
# a moved value, and the field beside it that holds its standard error
SIGMA_OF = {"ratio": "stderr", "lhs": "lhs_stderr"}

# writes the corpus into argv[1] and prints report_digests' lines
_RUNNER = """
import sys
from pathlib import Path
sys.path.insert(0, {tools!r})
import report_digests
print("\\n".join(report_digests.digests(Path(sys.argv[1]))))
"""


def run_corpus(checkout: Path, out: Path) -> dict[str, str]:
    """Run the corpus against ``checkout``/src; returns case -> exit code."""
    src = checkout / "src"
    if not (src / "revineq" / "__init__.py").is_file():
        sys.exit(f"report_diff: no revineq sources under {src}")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER.format(tools=str(TOOLS)), str(out)],
        env=env, capture_output=True, text=True, check=True)
    codes = {}
    for line in proc.stdout.splitlines():
        if line.startswith("exit "):
            code, case = line[len("exit "):].split(None, 1)
            codes[case] = code
    return codes


def _cell(text: str):
    """A CSV cell as a number, a JSON list, or the string itself."""
    try:
        return float(text)
    except ValueError:
        pass
    if text.startswith("["):
        try:
            return json.loads(text)
        except ValueError:
            pass
    return text


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as fh:
        return [{k: _cell(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a, b, path: str = ""):
    """Yield (path, relative difference) for numeric leaves and
    (path, a, b) for non-numeric differences."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                yield sub, a.get(key, "<missing>"), b.get(key, "<missing>")
            else:
                yield from compare(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from compare(x, y, f"{path}[{i}]")
    elif _is_number(a) and _is_number(b) and math.isfinite(a) \
            and math.isfinite(b):
        scale = max(abs(a), abs(b))
        yield path, abs(a - b) / scale if scale else 0.0
    elif a != b:
        yield path, a, b


def _sigma(x) -> float | None:
    return float(x) if _is_number(x) and math.isfinite(x) else None


def z_scores(a, b, path: str = ""):
    """Yield (path, z) for each ``ratio`` or ``lhs`` that moved between a
    and b, z = |a - b| / sqrt(sigma_a^2 + sigma_b^2), with sigma from the
    same object on each side; z is None where a sigma is missing or both
    are 0."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key, sigma_key in SIGMA_OF.items():
            x, y = a.get(key), b.get(key)
            if _is_number(x) and _is_number(y) and x != y:
                sx, sy = _sigma(a.get(sigma_key)), _sigma(b.get(sigma_key))
                both = sx is not None and sy is not None and (sx or sy)
                yield (f"{path}.{key}" if path else key,
                       abs(x - y) / math.hypot(sx, sy) if both else None)
        for key in sorted(a.keys() & b.keys(), key=str):
            yield from z_scores(a[key], b[key],
                                f"{path}.{key}" if path else str(key))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from z_scores(x, y, f"{path}[{i}]")


def diff_file(name: str, a, b) -> tuple[list[str], list, list]:
    """(lines, z-scores as (path, z), verdict flips as (path, a, b))."""
    worst, worst_path, lines, flips = 0.0, "-", [], []
    for item in compare(a, b):
        if len(item) == 2:
            path, d = item
            if d > worst:
                worst, worst_path = d, path
            if d > LIST_ABOVE:
                lines.append(f"    {path}: relative {d:.3g}")
        else:
            path, x, y = item
            lines.append(f"    {path}: {x!r} -> {y!r}")
            if path.rsplit(".", 1)[-1] == "pass":
                flips.append((f"{name}:{path}", x, y))
    zs = [(f"{name}:{path}", z) for path, z in z_scores(a, b)]
    for path, z in zs:
        lines.append(f"    {path.split(':', 1)[1]}: "
                     + ("no sigma" if z is None else f"z {z:.3g}"))
    return [f"{name}: max relative {worst:.3g} ({worst_path})"] + lines, \
        zs, flips


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path,
                        help="checkout to compare with (its src/ is run)")
    args = parser.parse_args(argv)
    zs, flips = [], []
    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp) / "this", Path(tmp) / "other"
        codes_here = run_corpus(TOOLS.parent, here)
        codes_there = run_corpus(args.other.resolve(), there)
        for case in codes_there:
            for name in REPORT_FILES:
                pa, pb = there / case / name, here / case / name
                if pa.exists() != pb.exists():
                    print(f"{case}/{name}: only in "
                          f"{'other' if pa.exists() else 'this'}")
                elif pa.exists():
                    lines, z, flip = diff_file(f"{case}/{name}", _load(pa),
                                               _load(pb))
                    print("\n".join(lines))
                    zs += z
                    flips += flip
            a, b = codes_there[case], codes_here.get(case, "<missing>")
            print(f"exit {a} -> {b}  {case}" if a != b
                  else f"exit {a}  {case}")
            if a != b:
                flips.append((f"{case}: exit", a, b))
    print(summary(zs, flips))
    return 0


def summary(zs, flips) -> str:
    """The largest z-score of the moved ratios and lhs values, how many had
    no sigma, and every verdict flip."""
    scored = [(z, path) for path, z in zs if z is not None]
    out = [f"moved ratio/lhs values: {len(zs)}, {len(zs) - len(scored)} "
           "without sigma"]
    if scored:
        z, path = max(scored)
        out.append(f"largest z-score: {z:.3g} ({path})")
    out.append("verdict flips: " + ("none" if not flips else "; ".join(
        f"{path} {a!r} -> {b!r}" for path, a, b in flips)))
    return "\n".join(out)


if __name__ == "__main__":
    sys.exit(main())
