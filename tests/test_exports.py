"""The public surface: every exported name resolves, and the attributes that
the benchmark's outside-in tracer (perfbench/tracing.py) wraps exist where
it looks for them."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fhnx

MODULES = ("cli", "config", "core", "simulate", "solutions", "specfn", "stability", "verify")

# functions fhnx.cli imports by name; the tracer replaces them on the module
CLI_ENTRY_POINTS = (
    "nonclassical_k",
    "load_config",
    "residual_system",
    "residual_third_order",
    "invariant_surface_check",
    "check_ansatz_constraints",
    "dispersion_sweep",
    "run",
    "convergence_study",
    "write_frames",
    "_write_csv",
)
# names deleted because only tests called them, because they aliased
# another, or because one private block budget (core._BLOCK_SAMPLES) took
# their place
REMOVED = {
    "specfn": ("ellipk", "jacobi_cn_dn", "modulus_from_parameter", "parameter_from_modulus"),
    "solutions": ("SYMMETRY_GENERATORS",),
    "core": ("csqrt", "require_real"),
    "simulate": ("ERROR_BLOCK",),
}
# RunConfig accessors whose rules moved into the config loop, and a field
# nothing read
REMOVED_ATTRIBUTES = {
    ("config", "RunConfig"): ("seed", "output_format", "output_dir"),
    ("solutions", "NonClassicalExp"): ("k",),
}
# tolerance parameters that no caller set to anything but the module constant
REMOVED_PARAMETERS = {
    ("core", "is_effectively_real"): ("tol",),
    ("stability", "classify_matrix"): ("tol",),
}
TRACED_FAMILIES = ("NonClassicalExp", "JacobiSnSteady", "TanhFront", "FixedPointState")
EVAL_METHODS = ("eval", "eval_derivs", "eval_second_time_derivs")


def test_package_all_resolves():
    missing = [name for name in fhnx.__all__ if not hasattr(fhnx, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"fhnx.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_removed_names_stay_removed():
    import dataclasses

    from fhnx.solutions import FixedPointState

    for module, names in REMOVED.items():
        mod = importlib.import_module(f"fhnx.{module}")
        for name in names:
            assert not hasattr(mod, name), f"fhnx.{module}.{name}"
            assert not hasattr(fhnx, name), f"fhnx.{name}"
    assert "params" not in {f.name for f in dataclasses.fields(FixedPointState)}
    for (module, owner), names in REMOVED_ATTRIBUTES.items():
        cls = getattr(importlib.import_module(f"fhnx.{module}"), owner)
        fields = {f.name for f in dataclasses.fields(cls)}
        for name in names:
            assert not hasattr(cls, name) and name not in fields, f"{owner}.{name}"
    for (module, func), names in REMOVED_PARAMETERS.items():
        params = inspect.signature(getattr(importlib.import_module(f"fhnx.{module}"), func)).parameters
        for name in names:
            assert name not in params, f"{func}({name})"


def test_cli_entry_points_are_module_attributes():
    import fhnx.cli as cli

    for name in CLI_ENTRY_POINTS:
        assert callable(getattr(cli, name)), name


def test_tracer_leaves_the_readme_simulate_operation_alone(tmp_path, capsys):
    # the benchmark's traced passes install this tracer, unedited, on fhnx.cli
    import importlib.util
    import time

    import fhnx.cli as cli
    import fhnx.solutions as solutions

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    argv = ["simulate", "--param", "grid.t_max=0.5", "--param", "grid.nt=2001",
            "--param", "grid.nx=101", "--out"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli.main([*argv, str(plain)]) == 0
    originals = {name: getattr(cli, name) for name in CLI_ENTRY_POINTS}
    tracer = tracing.Tracer()
    tracer.install(cli, solutions)
    try:
        start = time.perf_counter()
        code = tracer.root("cli.simulate", lambda: cli.main([*argv, str(traced)]))
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    assert {name: getattr(cli, name) for name in CLI_ENTRY_POINTS} == originals
    for name in ("errors.csv", "trajectory.csv", "frames.bin"):
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
    metrics = tracing.layer_metrics(tracer.spans, wall, wall)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["cli.simulate.calls"] == 1
    assert metrics["simulate.run.rk4.dirichlet.node_steps"] == 2000 * 101


def test_verify_calls_each_traced_check_once(monkeypatch, capsys):
    # the tracer's verify.* metrics are spans around these calls, keyed by method
    import fhnx.cli as cli

    calls = []

    def recording(name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, bound.arguments.get("method")))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("residual_system", "residual_third_order", "invariant_surface_check"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    assert cli.main(["verify", "--param", "grid.nx=21", "--param", "grid.nt=9"]) == 0
    capsys.readouterr()
    assert sorted(calls, key=str) == [
        ("invariant_surface_check", None),
        ("residual_system", "analytic"),
        ("residual_system", "finite-difference"),
        ("residual_third_order", "analytic"),
    ]


def test_families_define_their_own_eval_methods():
    import fhnx.solutions as solutions

    assert callable(solutions.jacobi_sn_cn_dn)
    for fam in TRACED_FAMILIES:
        cls = getattr(solutions, fam)
        for meth in EVAL_METHODS:
            assert callable(cls.__dict__.get(meth)), f"{fam}.{meth}"


def test_cli_import_loads_neither_thread_pool_nor_fft():
    # start-up cost: numpy.fft is imported only when a semi-implicit solve runs;
    # CSV files are written by cli._write_csv, not by the csv module; the
    # constraints sweep draws from core._uniforms, not from numpy.random
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = ("import sys, fhnx.cli; "
             "code = fhnx.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
             "print(code, sorted({'concurrent.futures', 'csv', 'numpy.fft', 'numpy.random'} "
             "& set(sys.modules)))")
    for argv in ([], ["constraints"]):
        out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == "0 []", argv
