"""Outside-in tracing of one workload pass.

Spans are recorded around calls into each layer's public functions by
wrappers installed from here, without editing the package: the family
classes' ``eval*`` methods, ``jacobi_sn_cn_dn`` where ``fhnx.solutions``
looks it up, and the functions ``fhnx.cli`` imports by name.  The harness
adds one root span ``cli.<command>`` around each ``fhnx.cli.main`` call.

A span records its name, a sub-key (family, method or scheme/bc), start,
end, parent and an amount of work (points, samples, node-steps, bytes).
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
metrics once the pass is over.  A span's self time is its duration minus
the part of it that its child spans cover, and a layer's self time is the
sum over its spans.  ``cli.self_s`` is the remainder: traced wall time
minus every other layer's self time, so the layer self times add up to
``trace.wall_s`` exactly.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("cli", "config", "solutions", "specfn", "verify", "stability", "simulate")
COMMANDS = ("verify", "stability", "constraints", "simulate")
FAMILIES = ("NonClassicalExp", "JacobiSnSteady", "TanhFront", "FixedPointState")
EVAL_METHODS = ("eval", "eval_derivs", "eval_second_time_derivs")
RUN_KINDS = ("rk4.dirichlet", "rk4.periodic", "semi-implicit.dirichlet", "semi-implicit.periodic")
SAMPLED = (
    "verify.residual_system.analytic",
    "verify.residual_system.fd",
    "verify.residual_third_order.analytic",
    "verify.invariant_surface_check",
)


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for cmd in COMMANDS:
        units[f"cli.{cmd}.wall_s"] = "s"
        units[f"cli.{cmd}.calls"] = "count"
    units["config.load_config.calls"] = "count"
    for meth in EVAL_METHODS:
        base = f"solutions.{meth}"
        units.update({f"{base}.self_s": "s", f"{base}.calls": "count",
                      f"{base}.points": "count", f"{base}.ns_per_pt": "ns/pt"})
    for fam in FAMILIES:
        for meth in EVAL_METHODS[:2]:
            units[f"solutions.{fam}.{meth}.ns_per_pt"] = "ns/pt"
    units["solutions.nonclassical_k.self_s"] = "s"
    units["solutions.nonclassical_k.calls"] = "count"
    base = "specfn.jacobi_sn_cn_dn"
    units.update({f"{base}.self_s": "s", f"{base}.calls": "count",
                  f"{base}.points": "count", f"{base}.ns_per_pt": "ns/pt"})
    for base in SAMPLED:
        units.update({f"{base}.self_s": "s", f"{base}.samples": "count",
                      f"{base}.ns_per_sample": "ns/sample"})
    units["verify.check_ansatz_constraints.self_s"] = "s"
    units["verify.check_ansatz_constraints.samples"] = "count"
    base = "stability.dispersion_sweep"
    units.update({f"{base}.self_s": "s", f"{base}.ks": "count", f"{base}.us_per_k": "us/k"})
    for kind in RUN_KINDS:
        base = f"simulate.run.{kind}"
        units.update({f"{base}.self_s": "s", f"{base}.node_steps": "count",
                      f"{base}.ns_per_node_step": "ns/node_step"})
    units["simulate.convergence_study.self_s"] = "s"
    units["simulate.convergence_study.levels"] = "count"
    for base in ("cli.write_csv", "simulate.write_frames"):
        units.update({f"{base}.self_s": "s", f"{base}.bytes": "B", f"{base}.mb_per_s": "MB/s"})
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# Every per-layer metric with its unit; a traced run reports all of them,
# with 0 for a layer that the workload does not reach.
PER_LAYER = _per_layer_units()


class Span(NamedTuple):
    name: str
    key: str
    start: float
    end: float
    parent: int
    amount: float


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _points(args, kwargs):
    # (self, t, x): points of the broadcast evaluation grid
    return np.broadcast(_arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2, "x")).size


def _grid_samples(index):
    def amount(args, kwargs):
        grid = _arg(args, kwargs, index, "grid")
        return grid.nt * grid.nx
    return amount


def _method_key(args, kwargs):
    method = _arg(args, kwargs, 3, "method", "analytic")
    return "fd" if method == "finite-difference" else method


def _run_key(args, kwargs):
    cfg = _arg(args, kwargs, 2, "cfg")
    bc = "dirichlet" if cfg.bc == "dirichlet-from-family" else cfg.bc
    return f"{cfg.scheme}.{bc}"


def _run_steps(args, kwargs):
    grid = _arg(args, kwargs, 2, "cfg").grid
    return (grid.nt - 1) * grid.nx


def _one(args, kwargs):
    return 1


def _file_size(args, kwargs):
    path = _arg(args, kwargs, 0, "path")
    return os.path.getsize(path) if os.path.exists(path) else 0


def _no_key(args, kwargs):
    return ""


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span | None] = []  # None while a span is open
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, fn, name, key_of, amount_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # key and amount are taken outside [start, end]; amounts of
                # writers are the written file's size, known only now
                spans[idx] = Span(name, key_of(args, kwargs), start, end, parent,
                                  amount_of(args, kwargs))

        return wrapper

    def root(self, name: str, call):
        """Run ``call()`` inside a root span named ``name``."""
        return self._record(call, name, _no_key, _one)()

    def _patch(self, owner, attr, name, key_of, amount_of):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._record(original, name, key_of, amount_of))

    def install(self, cli, solutions) -> None:
        """Wrap the layer entry points reachable from ``fhnx.cli``."""
        for cls in (solutions.NonClassicalExp, solutions.JacobiSnSteady,
                    solutions.TanhFront, solutions.FixedPointState):
            for meth in EVAL_METHODS:
                self._patch(cls, meth, f"solutions.{meth}",
                            lambda a, k: type(a[0]).__name__, _points)
        self._patch(solutions, "jacobi_sn_cn_dn", "specfn.jacobi_sn_cn_dn", _no_key,
                    lambda a, k: np.size(_arg(a, k, 0, "z")))
        self._patch(cli, "nonclassical_k", "solutions.nonclassical_k", _no_key, _one)
        self._patch(cli, "load_config", "config.load_config", _no_key, _one)
        self._patch(cli, "residual_system", "verify.residual_system", _method_key, _grid_samples(2))
        self._patch(cli, "residual_third_order", "verify.residual_third_order",
                    _method_key, _grid_samples(2))
        self._patch(cli, "invariant_surface_check", "verify.invariant_surface_check",
                    _no_key, _grid_samples(3))
        self._patch(cli, "check_ansatz_constraints", "verify.check_ansatz_constraints", _no_key,
                    lambda a, k: len(_arg(a, k, 3, "samples").xs))
        self._patch(cli, "dispersion_sweep", "stability.dispersion_sweep", _no_key,
                    lambda a, k: int(_arg(a, k, 3, "n")))
        self._patch(cli, "run", "simulate.run", _run_key, _run_steps)
        self._patch(cli, "convergence_study", "simulate.convergence_study", _no_key,
                    lambda a, k: _arg(a, k, 3, "refinements") + 1)
        self._patch(cli, "write_frames", "simulate.write_frames", _no_key, _file_size)
        self._patch(cli, "_write_csv", "cli.write_csv", _no_key, _file_size)

    def restore(self) -> None:
        """Put every wrapped attribute back to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _ratio(num: float, den: float, scale: float) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every name in PER_LAYER)."""
    m = {name: 0.0 for name in PER_LAYER}
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0, 0.0])  # self, calls, amount, dur
    by_key: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0, 0])
    layer_self = defaultdict(float)
    for s, st in zip(spans, selfs):
        agg = by_name[s.name]
        agg[0] += st
        agg[1] += 1
        agg[2] += s.amount
        agg[3] += s.end - s.start
        kagg = by_key[(s.name, s.key)]
        kagg[0] += st
        kagg[1] += 1
        kagg[2] += s.amount
        layer_self[s.name.split(".", 1)[0]] += st

    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["cli.self_s"] = wall_s - sum(layer_self[layer] for layer in LAYERS[1:])
    for cmd in COMMANDS:
        agg = by_name.get(f"cli.{cmd}")
        if agg:
            m[f"cli.{cmd}.wall_s"] = agg[3]
            m[f"cli.{cmd}.calls"] = agg[1]
    if "config.load_config" in by_name:
        m["config.load_config.calls"] = by_name["config.load_config"][1]

    def fill(base, agg, amount_name, ratio_name, scale):
        m[f"{base}.self_s"] = agg[0]
        if amount_name:
            m[f"{base}.{amount_name}"] = agg[2]
        if ratio_name:
            m[f"{base}.{ratio_name}"] = _ratio(agg[0], agg[2], scale)

    for meth in EVAL_METHODS:
        agg = by_name.get(f"solutions.{meth}")
        if agg:
            fill(f"solutions.{meth}", agg, "points", "ns_per_pt", 1e9)
            m[f"solutions.{meth}.calls"] = agg[1]
    for fam in FAMILIES:
        for meth in EVAL_METHODS[:2]:
            agg = by_key.get((f"solutions.{meth}", fam))
            if agg:
                m[f"solutions.{fam}.{meth}.ns_per_pt"] = _ratio(agg[0], agg[2], 1e9)
    agg = by_name.get("solutions.nonclassical_k")
    if agg:
        m["solutions.nonclassical_k.self_s"] = agg[0]
        m["solutions.nonclassical_k.calls"] = agg[1]
    agg = by_name.get("specfn.jacobi_sn_cn_dn")
    if agg:
        fill("specfn.jacobi_sn_cn_dn", agg, "points", "ns_per_pt", 1e9)
        m["specfn.jacobi_sn_cn_dn.calls"] = agg[1]
    for base in SAMPLED:
        name, _, key = base.rpartition(".")
        agg = by_key.get((name, key)) if key in ("analytic", "fd") else by_name.get(base)
        if agg:
            fill(base, agg, "samples", "ns_per_sample", 1e9)
    agg = by_name.get("verify.check_ansatz_constraints")
    if agg:
        fill("verify.check_ansatz_constraints", agg, "samples", None, 1.0)
    agg = by_name.get("stability.dispersion_sweep")
    if agg:
        fill("stability.dispersion_sweep", agg, "ks", "us_per_k", 1e6)
    for kind in RUN_KINDS:
        agg = by_key.get(("simulate.run", kind))
        if agg:
            fill(f"simulate.run.{kind}", agg, "node_steps", "ns_per_node_step", 1e9)
    agg = by_name.get("simulate.convergence_study")
    if agg:
        fill("simulate.convergence_study", agg, "levels", None, 1.0)
    for base in ("cli.write_csv", "simulate.write_frames"):
        agg = by_name.get(base)
        if agg:
            fill(base, agg, "bytes", None, 1.0)
            m[f"{base}.mb_per_s"] = _ratio(agg[2], agg[0], 1e-6)
    m["trace.wall_s"] = wall_s
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    return m
