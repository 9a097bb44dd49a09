"""Record benchmark runs of a parent and a change tree into a BENCH_*.json file.

    python3 tools/bench_record.py --out BENCH_run.json \\
        --parent /path/to/parent-checkout --change . \\
        --workload exact-check --seeds 1001-1010 --trace 0

For each workload and seed, each tree runs its own ``perfbench/run.py``
once per ``--trace`` level, for the run length in ``BENCHMARK.json``.  The
two trees swap order from one seed to the next, so each pair of runs shares
the host's drift.  Every run is appended to the output file (created when
missing) with its label (``parent`` or ``change``), the tree's commit,
source digest and source line count, its position in the pair, its start
time and the benchmark's result and detail lines; the detail line's
per-pass operation timings are condensed to each operation's quartiles.
Runs accumulate over several invocations; after each run the file's
``machine`` (from the benchmark's detail line) and ``summary`` are brought
up to date.  The summary holds, per workload, label and end-to-end metric,
the median and quartiles of the untraced runs and, for the change, the
pairs (same workload and seed) it wins and loses against the parent, its
``median_change`` (change median minus parent median over the parent
median, signed so that > 0 is worse), its ``paired_median_change`` (the
median over seeds of each pair's change minus parent over the parent,
signed alike: each pair shares the host's drift, so this figure is the
steadier of the two), ``within_bound`` (whether ``median_change`` is
at most the metric's ``bound`` in ``BENCHMARK.json``) and ``unresolved``
(the parent's own spread, (q3 - q1) over its median, exceeds that bound
and not every change run beats every parent run: the runs cannot tell the
two sides apart within the bound); per
workload and label it also holds the quartiles of the untraced runs' pass
counts (``passes``: the ``n`` of a run's operations), against which
``peak_rss_mb`` is read, since the worker keeps every pass's records, and
the tree's ``src_lines`` (from its last run), so that the file shows the
line change of the source as well.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 600


def _seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _tree(path: str) -> Path:
    tree = Path(path).resolve()
    if not (tree / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{tree} holds no perfbench/run.py")
    return tree


def _identity(tree: Path) -> dict:
    """The tree's git commit (None outside a git checkout), a digest of src/
    and its line count (every ``*.py`` file under src/)."""
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((tree / "src").rglob("*.py")):
        source = path.read_bytes()
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + source)
        lines += source.count(b"\n")
    return {"commit": proc.stdout.strip() if proc.returncode == 0 else None,
            "src_sha256": digest.hexdigest(), "src_lines": lines}


def _run_one(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its result and detail lines, or the error it ended in."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        detail, result = (json.loads(line) for line in lines[-2:])
    except ValueError:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"exit": proc.returncode, "result": result, "detail": _condensed(detail)}


def _condensed(detail: dict) -> dict:
    """The detail line with its per-pass operation timings (most of its
    size) replaced by each operation's quartiles over the passes."""
    inner = dict(detail["detail"])
    timings: dict = {}
    for op in inner.get("ops", []):
        for name in ("wall_s", "cpu_s"):
            timings.setdefault(op["id"], {}).setdefault(name, []).append(op[name])
    inner["ops"] = {op_id: {name: _quartiles(values) for name, values in by_name.items()}
                    for op_id, by_name in timings.items()}
    return {**detail, "detail": inner}


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _summary(runs: list[dict]) -> dict:
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    values: dict = {}
    passes: dict = {}
    for run in runs:
        if run["trace"] == 0 and "result" in run:
            ops = run["detail"]["detail"]["ops"].values()
            passes.setdefault((run["workload"], run["label"]), []).append(
                min((op["wall_s"]["n"] for op in ops), default=0))
            for name in metrics:
                value = run["result"]["metrics"].get(name, {}).get("value")
                if value is not None:
                    key = (run["workload"], run["label"], name)
                    values.setdefault(key, {})[run["seed"]] = value
    summary: dict = {}
    for (workload, label, name), by_seed in sorted(values.items()):
        entry = _quartiles(list(by_seed.values()))
        base = values.get((workload, "parent", name), {})
        if label == "change" and base:
            sign = 1.0 if metrics[name]["better"] == "lower" else -1.0
            diffs = [sign * (base[s] - v) for s, v in by_seed.items() if s in base]
            entry["pairs"] = len(diffs)
            entry["wins"] = sum(d > 0 for d in diffs)
            entry["losses"] = sum(d < 0 for d in diffs)
            paired = [sign * (v - base[s]) / base[s] for s, v in by_seed.items() if base.get(s)]
            if paired:
                entry["paired_median_change"] = statistics.median(paired)
            base_median = statistics.median(base.values())
            if base_median:
                bound = metrics[name]["bound"]
                entry["median_change"] = sign * (entry["median"] - base_median) / base_median
                entry["within_bound"] = entry["median_change"] <= bound
                base_q = _quartiles(list(base.values()))
                beats_all = all(sign * (b - v) > 0 for b in base.values() for v in by_seed.values())
                entry["unresolved"] = ((base_q["q3"] - base_q["q1"]) / base_median > bound
                                       and not beats_all)
        summary.setdefault(workload, {}).setdefault(label, {})[name] = entry
    for (workload, label), counts in passes.items():
        summary.setdefault(workload, {}).setdefault(label, {})["passes"] = _quartiles(counts)
    for run in runs:
        entry = summary.setdefault(run["workload"], {}).setdefault(run["label"], {})
        if "src_lines" in run:
            entry["src_lines"] = run["src_lines"]
        if "result" in run:
            entry["failed_operations"] = entry.get("failed_operations", 0) + run["result"]["failed"]
    return summary


def _dumps(record: dict) -> str:
    """The record as JSON: the summary indented, one line per run."""
    runs = ",\n  ".join(json.dumps(run, sort_keys=True) for run in record["runs"])
    return (
        "{\n"
        f' "machine": {json.dumps(record["machine"], sort_keys=True)},\n'
        f' "summary": {json.dumps(record["summary"], indent=1, sort_keys=True)},\n'
        f' "runs": [\n  {runs}\n ]\n}}\n'
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to create or extend")
    parser.add_argument("--parent", type=_tree, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=_tree, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1001-1010 or 7,931")
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    args = parser.parse_args(argv)

    record = {"runs": [], "machine": None}
    if args.out.exists():
        record = json.loads(args.out.read_text())
    pair = [("parent", args.parent), ("change", args.change)]
    identities = {label: _identity(tree) for label, tree in pair}
    for workload in args.workload:
        for n, seed in enumerate(args.seeds):
            for position, (label, tree) in enumerate(pair if n % 2 == 0 else pair[::-1]):
                for trace in args.trace:
                    started = datetime.datetime.now(datetime.timezone.utc)
                    run = {"label": label, **identities[label], "workload": workload,
                           "seed": seed, "trace": trace, "position": position,
                           "started": started.isoformat(timespec="seconds"),
                           "seconds": BENCHMARK["run_seconds"]}
                    run.update(_run_one(tree, workload, seed, trace))
                    record["runs"].append(run)
                    if "detail" in run:
                        record["machine"] = run["detail"]["detail"]["machine"]
                    record["summary"] = _summary(record["runs"])
                    args.out.write_text(_dumps(record))
                    wall = run.get("result", {}).get("metrics", {}).get("wall_s", {}).get("value")
                    print(f"{workload} seed {seed} trace {trace} {label}: "
                          f"{run.get('error') or f'wall_s {wall}'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
