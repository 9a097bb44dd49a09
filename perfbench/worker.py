"""One benchmark run inside a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

Imports ``fhnx.cli`` from the ``src`` directory named in the spec, then
runs passes over the workload's commands through ``fhnx.cli.main`` until
the spec's time budget is spent, timing each pass (wall and process CPU)
around the commands only.  With ``trace`` set it adds one traced pass and
computes the per-layer metrics.  It writes every command's exit code and
captured output to RESULT.json for the parent to check, and never judges
correctness itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import OUTPUT_FILES, sha256
from workloads import OUT

MIN_PASSES = 3
EXIT_NO_PROGRAM = 3


def _run_op(cli, op: dict, out_dir: Path, tracer) -> dict:
    argv = [str(out_dir) if a == OUT else a for a in op["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.root(f"cli.{argv[0]}", lambda: cli.main(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crash is a failed operation, not a harness error
            error = traceback.format_exc(limit=5)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"id": op["id"], "wall_s": wall, "cpu_s": cpu, "rc": rc, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()[-2000:], "error": error,
            "out_dir": str(out_dir) if OUT in op["argv"] else None}


def _run_pass(cli, ops: list[dict], work: Path, index: int, tracer=None):
    dirs = [work / f"pass{index}" / op["id"] for op in ops]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    records = [_run_op(cli, op, d, tracer) for op, d in zip(ops, dirs)]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for rec in records:
        rec["pass"] = index
    return {"wall_s": wall, "cpu_s": cpu}, records


def settle_outputs(records: list[dict], kept: dict) -> None:
    """Digest each record's output files; delete a directory whose bytes
    equal an earlier pass's kept directory of the same op, and point the
    record there, so only distinct outputs stay on disk for checking."""
    for rec in records:
        if rec["out_dir"] is None:
            continue
        out = Path(rec["out_dir"])
        rec["digests"] = {name: sha256(out / name) for name in OUTPUT_FILES if (out / name).is_file()}
        key = (rec["id"], tuple(sorted(rec["digests"].items())))
        if key in kept:
            shutil.rmtree(out)
            rec["out_dir"] = kept[key]
        else:
            kept[key] = rec["out_dir"]


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    src = Path(spec["src"]).resolve()
    try:
        import fhnx.cli as cli
        import fhnx.solutions as solutions
    except ImportError as exc:
        print(f"cannot import fhnx: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if src not in Path(cli.__file__).resolve().parents:
        print(f"fhnx imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    ops, work = spec["ops"], Path(spec["work"])
    passes, records, kept = [], [], {}
    start = time.perf_counter()
    while True:
        info, recs = _run_pass(cli, ops, work, len(passes))
        settle_outputs(recs, kept)
        passes.append(info)
        records += recs
        elapsed = time.perf_counter() - start
        # stop before a pass that would overrun the budget
        if len(passes) >= MIN_PASSES and elapsed + info["wall_s"] > spec["seconds"]:
            break
    result = {"passes": passes, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    if spec["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(cli, solutions)
        try:
            info, recs = _run_pass(cli, ops, work, len(passes), tracer)
        finally:
            tracer.restore()
        settle_outputs(recs, kept)
        records += recs
        untraced = statistics.median(p["wall_s"] for p in passes)
        result["traced_pass"] = info
        result["layer_metrics"] = layer_metrics(tracer.spans, info["wall_s"], untraced)

    result["records"] = records
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
