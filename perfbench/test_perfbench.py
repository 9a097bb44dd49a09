"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fhnx.cli as cli  # noqa: E402
import fhnx.solutions as solutions  # noqa: E402
from checks import tally  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import LAYERS, PER_LAYER, Span, Tracer, layer_metrics, self_times  # noqa: E402
from worker import _run_op, settle_outputs  # noqa: E402
from workloads import SIM_ERROR_BOUND, WORKLOADS, build  # noqa: E402


def _span(name, start, end, parent, amount=1):
    return Span(name, "", float(start), float(end), parent, amount)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("cli.simulate", 0, 10, -1),
        _span("simulate.run", 1, 4, 0),
        _span("solutions.eval", 2, 3, 1),
        _span("cli.write_csv", 5, 6, 0),
        _span("simulate.write_frames", 5.5, 7, 0),  # overlaps its sibling
    ]
    assert self_times(spans) == pytest.approx([10 - 5, 3 - 1, 1, 1, 1.5])

    m = layer_metrics(spans, wall_s=10.5, untraced_wall_s=10.0)
    assert m["simulate.self_s"] == pytest.approx(3.5)
    assert m["solutions.self_s"] == pytest.approx(1.0)
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(m["trace.wall_s"])
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert set(m) == set(PER_LAYER)


def _patched_attributes():
    owners = [solutions.NonClassicalExp, solutions.JacobiSnSteady,
              solutions.TanhFront, solutions.FixedPointState]
    attrs = [(cls, meth) for cls in owners
             for meth in ("eval", "eval_derivs", "eval_second_time_derivs")]
    attrs.append((solutions, "jacobi_sn_cn_dn"))
    attrs += [(cli, name) for name in (
        "nonclassical_k", "load_config", "residual_system", "residual_third_order",
        "invariant_surface_check", "check_ansatz_constraints", "dispersion_sweep",
        "run", "convergence_study", "write_frames", "_write_csv")]
    return {(owner, name): getattr(owner, name) for owner, name in attrs}


def test_wrappers_restore_the_originals(tmp_path):
    before = _patched_attributes()
    tracer = Tracer()
    tracer.install(cli, solutions)
    try:
        assert all(getattr(o, n) is not f for (o, n), f in before.items())
        op = {"id": "sn", "argv": ["verify", "--json", "--param", "family.tag=JacobiSnSteady",
                                   "--param", "family.c2=0.5", "--param", "grid.nx=21",
                                   "--param", "grid.nt=11"]}
        rec = _run_op(cli, op, tmp_path, tracer)
    finally:
        tracer.restore()
    assert rec["rc"] == 0, rec
    assert all(getattr(o, n) is f for (o, n), f in before.items())
    names = {s.name for s in tracer.spans}
    assert {"cli.verify", "verify.residual_system", "solutions.eval",
            "specfn.jacobi_sn_cn_dn"} <= names
    assert all(s.parent < i for i, s in enumerate(tracer.spans))


def _record(op, out_dir):
    rec = _run_op(cli, op, out_dir, None)
    rec["pass"] = 0
    return rec


def test_corrupted_trajectory_is_a_failed_operation(tmp_path):
    op = build("simulate-rk4", 3)[0]
    assert op["expect"]["files"]
    # a small grid keeps the test fast; its error is the refinement base's
    op["argv"] = [{"grid.nt=2001": "grid.nt=101", "grid.nx=101": "grid.nx=26"}.get(a, a)
                  for a in op["argv"]]
    op["expect"]["bound"] = SIM_ERROR_BOUND["refine"]
    rec = _record(op, tmp_path / "out")
    settle_outputs([rec], {})
    assert tally([op], [rec])[:2] == (1, [])

    traj = tmp_path / "out" / "trajectory.csv"
    lines = traj.read_bytes().split(b"\r\n")
    t, x, u, v = lines[500].split(b",")
    lines[500] = b",".join([t, x, repr(float(u) * (1 + 1e-15)).encode(), v])
    traj.write_bytes(b"\r\n".join(lines))
    settle_outputs([rec], {})
    attempted, failures, _ = tally([op], [rec])
    assert attempted == 1 and len(failures) == 1
    assert "trajectory.csv" in failures[0]["reason"]


def test_wrong_classification_is_a_failed_operation(tmp_path):
    op = next(o for o in build("exact-check", 4) if o["id"] == "stability")
    op["argv"] = [{"stability.n=20001": "stability.n=101"}.get(a, a) for a in op["argv"]]
    rec = _record(op, tmp_path)
    assert tally([op], [rec])[:2] == (1, [])

    payload = json.loads(rec["stdout"])
    point = payload["result"]["points"][2]
    assert point["classification"] == "stable spiral"
    point["classification"] = "stable node"
    rec["stdout"] = json.dumps(payload)
    attempted, failures, _ = tally([op], [rec])
    assert attempted == 1 and len(failures) == 1
    assert "eigvals" in failures[0]["reason"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
