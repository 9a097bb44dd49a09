"""fhnx benchmark: one run of one workload.

    python3 perfbench/run.py --workload exact-check --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from its
``src`` directory; nothing needs installing).  A run

1. draws the workload's parameters from ``--seed``;
2. with ``--trace 0``, times several cold starts of a fresh interpreter up
   to a ready ``fhnx.cli`` (``setup_s``, their median);
3. starts one fresh interpreter (``worker.py``) that runs passes over the
   workload's commands for ``--seconds`` seconds, plus one traced pass
   with ``--trace 1``;
4. checks every command's output (``checks.py``) and prints a detail line
   (quartiles, sample counts, machine metadata, output digests, failures)
   followed by the result line
   ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

It exits non-zero without a result when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, build, draw  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Measured cold starts per run, after one warm-up start; half are taken
# before the worker and half after it, so they span the run.
SETUP_STARTS = 10
DEADLINE_S = 170.0
PROBE = "import fhnx.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FHNX_THREADS", None)  # the default: one worker thread
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cold starts read cached bytecode, as installs do
    return env


def cold_start(env: dict) -> float:
    """Seconds from spawning an interpreter until fhnx.cli is imported."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {err.strip()[-500:]}")
    return elapsed


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine() -> dict:
    import numpy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "llc": None,
        "FHNX_THREADS": "unset",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
        top = max(caches, key=lambda d: int((d / "level").read_text()))
        info["llc"] = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    except (OSError, ValueError):
        pass
    return info


def run_worker(spec: dict, work: Path, env: dict, deadline: float) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-1000:]}")
    return json.loads(result_path.read_text())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds through the finally blocks, which stop any child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "fhnx" / "cli.py").is_file():
        print(f"no fhnx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import tally

    ops = build(args.workload, args.seed)
    env = child_env()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = []
        if not args.trace:
            cold_start(env)  # compiles bytecode on a fresh checkout; not timed
            setup = [cold_start(env) for _ in range(SETUP_STARTS // 2)]
        spec = {"src": str(SRC), "work": str(work), "ops": ops,
                "seconds": args.seconds, "trace": bool(args.trace)}
        result = run_worker(spec, work, env, deadline)
        if not args.trace:
            setup += [cold_start(env) for _ in range(SETUP_STARTS - len(setup))]
        attempted, failures, digests = tally(ops, result["records"])
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    passes = result["passes"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "params": draw(args.seed),
        "machine": machine(),
        "wall_s": summary([p["wall_s"] for p in passes]),
        "cpu_s": summary([p["cpu_s"] for p in passes]),
        "peak_rss_mb": summary([result["peak_rss_kb"] / 1024.0]),
        "output_sha256": digests,
        "failures": failures[:20],
    }
    if setup:
        detail["setup_s"] = summary(setup)
    if args.trace:
        detail["traced_pass"] = result["traced_pass"]
        from tracing import PER_LAYER

        metrics = {name: {"value": result["layer_metrics"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": detail[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    detail["ops"] = [{k: r[k] for k in ("id", "pass", "wall_s", "cpu_s")} for r in result["records"]]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
