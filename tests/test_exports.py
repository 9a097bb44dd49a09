"""The public surface: every exported name resolves, and the attributes that
the benchmark's outside-in tracer (perfbench/tracing.py) wraps exist where
it looks for them."""

import importlib

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


def test_cli_entry_points_are_module_attributes():
    import fhnx.cli as cli

    for name in CLI_ENTRY_POINTS:
        assert callable(getattr(cli, name)), name


def test_families_define_their_own_eval_methods():
    import fhnx.solutions as solutions

    assert callable(solutions.jacobi_sn_cn_dn)
    for fam in TRACED_FAMILIES:
        cls = getattr(solutions, fam)
        for meth in EVAL_METHODS:
            assert callable(cls.__dict__.get(meth)), f"{fam}.{meth}"
