"""Golden outputs: SHA-256s of small CLI runs against stored references.

Each run in ``RUNS`` writes its files into a fresh directory, once with
``--json`` and once in text mode; the two runs must write the same files,
and every file, plus each run's stdout (``stdout.json``, ``stdout.txt``),
must hash to the digest recorded in ``golden/SHA256SUMS``.  On a mismatch
the failure message gives the max |delta| per numeric column against the
stored reference copy of the file, so last-bit noise from another libm or
SIMD path (deltas near 1e-16 relative) can be told apart from a real
change.  The test never skips.

Regenerate the references (only for an intended output change, which
CHANGES.md must state with its max delta):

    PYTHONPATH=src python tests/test_golden.py --update
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from fhnx.cli import main
from fhnx.simulate import read_frames

GOLDEN = Path(__file__).resolve().parent / "golden"
SUMS = GOLDEN / "SHA256SUMS"

# verify writes two small files whatever the grid; its grid is fine enough
# for the finite-difference check to pass, and small enough to be checked
# in one block of rows; verify-default-grid (201 x 101) takes two
VERIFY = ["verify", "--param", "grid.nx=41", "--param", "grid.nt=11"]
SMALL = ["--param", "grid.nx=9", "--param", "grid.nt=5"]

RUNS = {
    "verify-nonclassical": VERIFY,
    "verify-default-grid": ["verify"],
    "verify-jacobisn": [
        *VERIFY,
        "--param", "family.tag=JacobiSnSteady",
        "--param", "family.c1=0.3", "--param", "family.c2=0.8",
    ],
    "verify-tanhfront": [
        *VERIFY, "--param", "family.tag=TanhFrontPlus", "--param", "family.x0=0.2",
    ],
    "verify-cardanoa": [*VERIFY, "--param", "family.tag=FixedPointCardanoA"],
    "figure-1": ["figure", "--figure", "1", *SMALL],
    "figure-2": ["figure", "--figure", "2", *SMALL],
    "stability": ["stability", "--param", "stability.n=9"],
    "simulate": [
        "simulate", *SMALL, "--param", "grid.t_max=0.02",
    ],
    "simulate-periodic": [
        "simulate", "--param", "sim.bc=periodic", *SMALL, "--param", "grid.t_max=0.02",
    ],
    "simulate-refine": [
        "simulate", "--refinements", "2", *SMALL, "--param", "grid.t_max=0.02",
    ],
    "simulate-implicit": [
        "simulate", "--scheme", "semi-implicit", "--param", "sim.bc=periodic",
        *SMALL, "--param", "grid.t_max=0.02",
    ],
    "list": ["list"],
    "list-tanhfront": ["list", "--family", "TanhFrontPlus"],
}

# each run's stdout, stored beside its files: flags -> file name
STDOUT = {"--json": "stdout.json", "": "stdout.txt"}


@contextmanager
def _cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _produce(name: str, out: Path) -> None:
    """Run ``name`` with --json, then in text mode, into ``out``.  ``--out``
    is given relative to ``out``'s parent, so paths echoed on stdout do not
    depend on where the directory lives."""
    out.mkdir(parents=True)
    files = {}
    for flags, stdout_name in STDOUT.items():
        buf = io.StringIO()
        with _cwd(out.parent), redirect_stdout(buf):
            code = main([*RUNS[name], *flags.split(), "--out", out.name])
        assert code == 0, f"{name} {flags} exited {code}"
        files[flags] = {
            p.name: _sha256(p) for p in out.iterdir() if p.name not in STDOUT.values()
        }
        (out / stdout_name).write_bytes(buf.getvalue().encode())
    assert files["--json"] == files[""], f"{name}: --json and text runs wrote different files"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_sums() -> dict[str, str]:
    sums = {}
    for line in SUMS.read_text().splitlines():
        digest, rel = line.split("  ", 1)
        sums[rel] = digest
    return sums


# ---------------------------------------------------------------------------
# Mismatch report: max |delta| per numeric column
# ---------------------------------------------------------------------------


def _csv_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {col: [row[i] for row in body] for i, col in enumerate(header)}


def _json_columns(path: Path) -> dict[str, list]:
    cols: dict[str, list] = {}

    def walk(node, key):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for item in node:
                walk(item, f"{key}[]")
        else:
            cols.setdefault(key, []).append(node)

    walk(json.loads(path.read_text()), "")
    return cols


def _frame_columns(path: Path) -> dict[str, list]:
    ts, xs, us, vs = read_frames(path)
    return {"t": list(ts), "x": list(xs), "u": list(us.ravel()), "v": list(vs.ravel())}


def _columns(path: Path) -> dict[str, list]:
    if path.suffix == ".csv":
        return _csv_columns(path)
    if path.suffix == ".json":
        return _json_columns(path)
    if path.suffix == ".bin":
        return _frame_columns(path)
    return {"text": path.read_text().splitlines()}


def _as_float(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _column_delta(new: list, ref: list) -> str | None:
    """How a column differs from the reference; None when it does not."""
    if len(new) != len(ref):
        return f"{len(new)} values vs {len(ref)} in the reference"
    pairs = [(_as_float(a), _as_float(b)) for a, b in zip(new, ref)]
    if all(a is not None and b is not None for a, b in pairs):
        deltas = [
            0.0 if (a == b or (math.isnan(a) and math.isnan(b))) else abs(a - b)
            for a, b in pairs
        ]
        worst = max(deltas, default=0.0)
        return f"max |delta| {worst:.3e}" if worst else None
    changed = sum(a != b for a, b in zip(new, ref))
    return f"{changed} non-numeric values differ" if changed else None


def _describe_mismatch(new: Path, ref: Path) -> str:
    new_cols, ref_cols = _columns(new), _columns(ref)
    lines = []
    for col in sorted(set(new_cols) | set(ref_cols)):
        if col not in ref_cols:
            lines.append(f"    {col}: not in the reference")
        elif col not in new_cols:
            lines.append(f"    {col}: missing from the new output")
        else:
            delta = _column_delta(new_cols[col], ref_cols[col])
            if delta is not None:
                lines.append(f"    {col}: {delta}")
    return "\n".join(lines) or "    equal values in every column (formatting differs)"


# ---------------------------------------------------------------------------
# Test
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, tmp_path):
    expected = {
        rel.split("/", 1)[1]: digest
        for rel, digest in _read_sums().items()
        if rel.split("/", 1)[0] == name
    }
    assert expected, f"no reference digests for {name}"
    out = tmp_path / name
    _produce(name, out)
    produced = {p.name for p in out.iterdir()}
    assert produced == set(expected), f"files {sorted(produced)} vs {sorted(expected)}"
    failures = []
    for fname, digest in sorted(expected.items()):
        if _sha256(out / fname) != digest:
            delta = _describe_mismatch(out / fname, GOLDEN / name / fname)
            failures.append(f"  {name}/{fname}: SHA-256 differs\n{delta}")
    assert not failures, "golden output mismatch:\n" + "\n".join(failures)


def _update() -> None:
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    GOLDEN.mkdir()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            out = Path(tmp) / name
            _produce(name, out)
            shutil.copytree(out, GOLDEN / name)
            for path in sorted(out.iterdir()):
                lines.append(f"{_sha256(path)}  {name}/{path.name}")
    SUMS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    _update()
    print(f"wrote {SUMS}")
