"""Command-line front end.

    fhnx <list|verify|stability|simulate|figure|constraints>
         [--config FILE] [--param section.key=value ...] [--json] [--out DIR]

Exit codes: 0 pass, 1 verification failure (or blow-up), 2 config error,
3 domain error.  Every command is deterministic given (config, seed): CSV
files are bytewise reproducible, numbers are serialized with 17 significant
digits, and JSON output validates against schemas/cli-output.schema.json.

``main`` alone loads the config, resolves --json/--out, prints the report
and maps the outcome to the exit code.  Each handler ``_cmd_x(args, cfg,
out)`` computes, writes its own files through ``out`` (an ``_Outputs``, or
None without an output directory) and returns ``(result, passed, lines)``:
the JSON ``result`` object, the pass verdict (None for commands without
one, which exit 0) and its text-mode stdout lines.  A command's files take
their names only once it has succeeded, so a failed command leaves none
behind and replaces none.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .core import (
    BlowUp,
    BranchMismatch,
    ComplexResult,
    ConfigError,
    FhnxError,
    NonPositiveParameter,
    OutOfDomain,
    SingularParameter,
    _row_blocks,
    _uniforms,
)
# perfbench/tracing.py wraps run, convergence_study and write_frames where this
# module looks them up; write_frames is not called here but stays a name for it
from .simulate import SCHEMES, _frame_rows, _frames_header, convergence_study, run, write_frames
from .solutions import (
    FIXED_POINT_TAGS,
    _catalog_entry,
    _wavenumber,
    family_catalog,
    fixed_points,
    nonclassical_k,
    nonclassical_k_squared,
    sample_F,
    symmetry_catalog,
)
from .stability import classify_matrix, dispersion_sweep, jacobian_at
from .verify import (
    check_ansatz_constraints,
    invariant_surface_check,
    residual_system,
    residual_third_order,
)

_DOMAIN_ERRORS = (OutOfDomain, SingularParameter, NonPositiveParameter, ComplexResult)


# CSV rows formatted and written at once: a block holds as many leading
# indices (frames, or rows of a 1-D table) as fit, and never less than one
CSV_BLOCK_ROWS = 256


class _Outputs:
    """The output directory of one command.  Each file is written under a
    temporary name beside its own (``path``); leaving the ``with`` block
    normally moves every one to its name, leaving it by an exception
    removes them all."""

    def __init__(self, directory: Path):
        self.directory = directory
        self._staged: list[tuple[Path, Path]] = []

    def path(self, name: str) -> Path:
        """Where to write the file ``name``; a directory in its place is an
        error now, before any file of the command has taken its name."""
        final = self.directory / name
        if final.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(final))
        temp = self.directory / f".{name}.{os.getpid()}.tmp"
        self._staged.append((temp, final))
        return temp

    def __enter__(self):
        self.directory.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                for temp, final in self._staged:
                    os.replace(temp, final)
        finally:
            for temp, _ in self._staged:
                temp.unlink(missing_ok=True)


def _write_csv(path: Path, header: list[str], *columns) -> None:
    """Write the header, then one CSV row per element of the columns'
    broadcast shape (``_csv_rows``)."""
    with _open_csv(path, header) as fh:
        _csv_rows(fh, *columns)


@contextlib.contextmanager
def _open_csv(path: Path, header: list[str]):
    """A CSV file open for writing, its header line written."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        yield fh


def _csv_rows(fh, *columns) -> None:
    """Write one CSV row per element of the columns' broadcast shape, in C order.

    Floats are spelled %.17g (round-trip exact), other cells with str; nothing
    is quoted.  Each cell carries its separator (a comma, or CRLF in the last
    column).  Leading indices (frames, or rows of a 1-D table) are formatted
    and written in blocks of about CSV_BLOCK_ROWS rows, each column's cells in
    one pass, interleaved by slice assignment and written as one join; a
    column of leading length 1 is formatted only once.
    """
    shape = np.broadcast_shapes(*map(np.shape, columns)) or (1,)
    columns = [np.reshape(c, (1,) * (len(shape) - np.ndim(c)) + np.shape(c)) for c in columns]
    ncols, row_cells = len(columns), math.prod(shape[1:])
    step = max(1, min(shape[0], CSV_BLOCK_ROWS // row_cells))

    def cells(k, col, n):
        """The strings of column k's cells with their separator, broadcast
        over n leading indices."""
        sep = "\r\n" if k == ncols - 1 else ","
        values = col.ravel().tolist()
        if col.dtype.kind == "f":
            strings = list(map(("%.17g" + sep).__mod__, values))
        else:
            strings = [str(x) + sep for x in values]
        if col.shape == (n, *shape[1:]):
            return strings
        strings = np.array(strings, dtype=object).reshape(col.shape)
        return np.broadcast_to(strings, (n, *shape[1:])).ravel().tolist()

    fixed = {k: cells(k, c, step) for k, c in enumerate(columns) if len(c) == 1}
    for start in range(0, shape[0], step):
        n = min(step, shape[0] - start)
        out = [""] * (n * row_cells * ncols)
        for k, c in enumerate(columns):
            out[k::ncols] = fixed[k][:n * row_cells] if k in fixed else cells(k, c[start:start + n], n)
        fh.write("".join(out))


def _report(command: str, cfg: RunConfig, result: dict, passed: bool | None) -> str:
    """A command's JSON envelope, as printed with --json and as written to
    verify_report.json; ``pass`` is present only for commands with a verdict."""
    payload = {
        "command": command,
        "version": __version__,
        "config": cfg.resolved(),
        "result": result,
    }
    if passed is not None:
        payload["pass"] = bool(passed)
    return json.dumps(payload, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def _cmd_list(args, cfg: RunConfig, out: _Outputs | None):
    catalog = family_catalog()
    if args.family is not None:
        _catalog_entry(args.family)
        catalog = {args.family: catalog[args.family]}
    result = {"families": catalog}
    if args.family is None:
        result["symmetries"] = list(symmetry_catalog())
    lines = []
    for tag, info in catalog.items():
        consts = ", ".join(info["constant_names"]) or "(none)"
        lines += [
            tag,
            f"  formula:   {info['formula']}",
            f"  constants: {consts}",
            f"  domain:    {info['domain']}",
            f"  steady:    {info['steady']}",
        ]
    return result, None, lines


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args, cfg: RunConfig, out: _Outputs | None):
    p = cfg.params()
    fam = cfg.family(p)
    grid = cfg.grid()

    reports = {
        "system_analytic": residual_system(fam, p, grid, "analytic"),
        "system_fd": residual_system(fam, p, grid, "finite-difference"),
        "third_order_analytic": residual_third_order(fam, p, grid, "analytic"),
    }
    inv_A, inv_B = 0.0 if fam.steady else fam.decay_rate, 0.0
    inv_defect = invariant_surface_check(fam, inv_A, inv_B, grid)

    checks = [
        ("system linf_u (analytic)", reports["system_analytic"].linf_u, cfg.tol("analytic")),
        ("system linf_v (analytic)", reports["system_analytic"].linf_v, cfg.tol("analytic")),
        ("system linf_u (finite-difference)", reports["system_fd"].linf_u, cfg.tol("finite_difference")),
        ("system linf_v (finite-difference)", reports["system_fd"].linf_v, cfg.tol("finite_difference")),
        ("third-order linf (analytic)", reports["third_order_analytic"].linf_u, cfg.tol("third_order")),
        ("invariant surface defect", inv_defect, cfg.tol("invariant_surface")),
    ]
    passed = all(value <= tol for _, value, tol in checks)

    result = {
        "family": fam.tag,
        "invariant_surface": {"A": inv_A, "B": inv_B, "defect": inv_defect},
        "reports": {name: rep.to_dict() for name, rep in reports.items()},
        "checks": [
            {"name": name, "value": value, "tolerance": tol, "pass": value <= tol}
            for name, value, tol in checks
        ],
    }
    if fam.tag in FIXED_POINT_TAGS:
        result["closed_form_root_match"] = {
            "root_index": fam.root_index,
            "roots": [fp._asdict() for fp in fam.roots],
        }

    if out is not None:
        rows = [
            (fam.tag, name, eq, rep.method, linf, l2, *rep.worst_point, rep.sample_count)
            for name, rep in reports.items()
            for eq, linf, l2 in (("u", rep.linf_u, rep.l2_u), ("v", rep.linf_v, rep.l2_v))
        ]
        _write_csv(
            out.path("residuals.csv"),
            ["family", "check", "equation", "method", "linf", "l2",
             "worst_t", "worst_x", "sample_count"],
            *zip(*rows),
        )
        out.path("verify_report.json").write_text(_report("verify", cfg, result, passed) + "\n")

    lines = [
        "config: D={d} epsilon={epsilon} beta={beta} c={c}; grid "
        "[{x_min},{x_max}]x{nx} t[{t_min},{t_max}]x{nt}".format(
            **cfg.section("params"), **cfg.section("grid")
        ),
        f"family: {fam.tag}",
        *(f"note: {note}" for note in fam.notes),
        "boundary conditions: not part of the model; artifact choices are labeled",
    ]
    for name, value, tol in checks:
        verdict = "PASS" if value <= tol else "FAIL"
        lines.append(f"{verdict}  {name}: {value:.3e} (tol {tol:.1e})")
    return result, passed, lines


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def _cmd_stability(args, cfg: RunConfig, out: _Outputs | None):
    p = cfg.params()
    s = cfg.section("stability")
    if s["u_star"] == "auto":
        points = [(fp.u, fp.v) for fp in fixed_points(p)]
    else:
        u_star = float(s["u_star"])
        v_star = (u_star + p.c) / p.beta
        if not np.isfinite(v_star):
            raise OutOfDomain(f"v* = (u* + c)/beta is not finite at u* = {u_star!r}")
        points = [(u_star, v_star)]

    result_points = []
    for idx, (u_star, v_star) in enumerate(points):
        # the sweep rejects non-finite growth rates before anything is reported
        sweep = dispersion_sweep(p, u_star, s["k_max"], s["n"])
        m = jacobian_at(p, u_star, 0.0)
        eigs, label = classify_matrix(m)
        result_points.append(
            {
                "u_star": u_star,
                "v_star": v_star,
                "jacobian": m.tolist(),
                "eigenvalues": [[e.real, e.imag] for e in eigs],
                "classification": label,
                "band_edges": list(sweep.band_edges),
            }
        )
        if out is not None:
            _write_csv(
                out.path(f"dispersion_{idx}.csv"),
                ["k", "re_sigma_1", "re_sigma_2", "im_sigma_1", "im_sigma_2"],
                sweep.ks, *sweep.sigma.real.T, *sweep.sigma.imag.T,
            )
        del sweep  # before the next point's sweep is made

    lines = [
        f"u*={pt['u_star']:.17g} v*={pt['v_star']:.17g}: "
        f"{pt['classification']}; band edges: "
        + (", ".join(f"{e:.17g}" for e in pt["band_edges"]) or "(none)")
        for pt in result_points
    ]
    return {"points": result_points}, None, lines


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args, cfg: RunConfig, out: _Outputs | None):
    p = cfg.params()
    fam = cfg.family(p)
    sim_cfg = cfg.sim_config()

    result: dict = {"family": fam.tag, "scheme": sim_cfg.scheme, "bc": sim_cfg.bc}
    lines = [f"family: {fam.tag}  scheme: {sim_cfg.scheme}  bc: {sim_cfg.bc}"]

    refinements = cfg.section("sim")["refinements"]
    if refinements:
        study = convergence_study(
            fam, p, sim_cfg.grid, refinements,
            scheme=sim_cfg.scheme, bc=sim_cfg.bc, cfl_safety=sim_cfg.cfl_safety,
        )
        result["convergence"] = {
            "levels": list(study.levels),
            "orders": list(study.orders),
            "order_mean": study.order_mean,
        }
        if out is not None:
            _write_csv(
                out.path("convergence.csv"),
                ["nx", "nt", "dx", "dt", "err_linf_u"],
                *zip(*(lv.values() for lv in study.levels)),
            )

    if out is None:
        sim = run(fam, p, sim_cfg)
    else:
        xs = sim_cfg.grid.xs()
        # trajectory.csv and frames.bin take each block of rows as it is stepped
        with _open_csv(out.path("trajectory.csv"), ["t", "x", "u", "v"]) as traj, \
                open(out.path("frames.bin"), "wb") as frames:
            _frames_header(frames, xs, sim_cfg.grid.nt)

            def write_block(ts, us, vs):
                _csv_rows(traj, ts[:, None], xs, us, vs)
                _frame_rows(frames, ts, us, vs)

            sim = run(fam, p, sim_cfg, on_block=write_block)
        _write_csv(
            out.path("errors.csv"), ["t", "linf_u", "l2_u", "linf_v", "l2_v"], sim.ts, *sim.errors.T
        )
    result["max_error_linf_u"] = sim.max_error_u()
    result["max_error_linf_v"] = sim.max_error_v()
    lines.append(
        f"max Linf error vs exact: u {sim.max_error_u():.3e}, v {sim.max_error_v():.3e}"
    )
    if "convergence" in result:
        orders = ", ".join(f"{o:.3f}" for o in result["convergence"]["orders"])
        lines.append(f"observed spatial orders: {orders}")
    return result, None, lines


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

_GNUPLOT_TEMPLATE = """\
# gnuplot script: solution surface {what}(t, x)
set datafile separator comma
set xlabel 't'
set ylabel 'x'
set zlabel '{what}'
set dgrid3d {nt},{nx}
set hidden3d
splot '{csv}' every ::1 using 1:2:3 with lines notitle
pause -1
"""


def _cmd_figure(args, cfg: RunConfig, out: _Outputs | None):
    p = cfg.params()
    fam = cfg.family(p)
    grid = cfg.grid()
    what = "u" if args.figure == 1 else "v"

    ts, xs = grid.ts(), grid.xs()
    # the sample nearest the origin, read from the block that holds its row
    i0, j0 = np.argmin(np.abs(ts)), np.argmin(np.abs(xs))

    def surface(rows):
        return fam.eval(ts[rows, None], xs[None, :])[args.figure - 1]

    csv_name = f"figure{args.figure}_{what}.csv"
    with _open_csv(out.path(csv_name), ["t", "x", what]) as fh:
        for block in _row_blocks(grid.nt, grid.nx):
            field = surface(block)
            _csv_rows(fh, ts[block, None], xs, field)
            if block.start <= i0 < block.stop:
                origin_value = float(field[i0 - block.start, j0])
    script = _GNUPLOT_TEMPLATE.format(what=what, nt=grid.nt, nx=grid.nx, csv=csv_name)
    out.path(f"figure{args.figure}.gp").write_text(script)

    result = {
        "family": fam.tag,
        "figure": args.figure,
        "csv": str(out.directory / csv_name),
        "script": str(out.directory / f"figure{args.figure}.gp"),
        "origin_value": origin_value,
    }
    return result, None, [f"wrote {result['csv']} and {result['script']}"]


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------


# the wavenumber identity sweep draws (D, epsilon, beta) uniformly from these bounds
_SWEEP_LOW = np.array((0.1, 0.01, 0.5))
_SWEEP_HIGH = np.array((5.0, 2.0, 4.0))


def _wavenumber_sweep(seed: int, count: int) -> float:
    """Worst mismatch of the wavenumber identity over count seeded draws.

    Draw i's (D, epsilon, beta) are the seed's uniform stream
    (``core._uniforms``) at 3 i, 3 i + 1, 3 i + 2, scaled to the bounds, so
    they do not depend on the block size.  The draws are filled and checked
    a block at a time (``core._row_blocks``); the whole draw array is made
    first, so a count that does not fit in memory fails at once.
    """
    draws = np.empty((count, 3))
    worst = 0.0
    for rows in _row_blocks(count, 3):
        block = draws[rows]
        block[...] = _uniforms(seed, 3 * rows.start, 3 * rows.stop).reshape(-1, 3)
        block *= _SWEEP_HIGH - _SWEEP_LOW
        block += _SWEEP_LOW
        worst = float(np.max(_wavenumber(*block.T)[2], initial=worst))
    return worst


def _cmd_constraints(args, cfg: RunConfig, out: _Outputs | None):
    p = cfg.params()
    s = cfg.section("ansatz")
    k_here, k_squared = nonclassical_k(p), nonclassical_k_squared(p)
    A = -p.epsilon * p.beta / 3.0 if s["a"] == "auto" else float(s["a"])
    B = s["b"]
    xs = np.linspace(s["x_min"], s["x_max"], s["n"])
    fam_sec = cfg.section("family")
    samples = sample_F(p, A, B, fam_sec["c1"], fam_sec["c2"], xs)
    report = check_ansatz_constraints(p, A, B, samples)
    del xs, samples  # before the sweep's draws are made
    worst_rel = _wavenumber_sweep(cfg.section("run")["seed"], s["k_sweep"])

    tol = cfg.tol("constraint")
    passed = (
        report.eq19 <= 1e-12
        and report.eq20 == 0.0
        and report.eq22 == 0.0
        and report.eq21_reduced <= tol
        and report.eq21_printed <= tol
        and worst_rel <= 1e-12
    )
    result = {
        "A": A,
        "B": B,
        "constraints": report.to_dict(),
        "wavenumber": {
            "k_re": k_here.real,
            "k_im": k_here.imag,
            "k_squared": k_squared,
            "imaginary": k_here.real == 0.0 and k_here.imag != 0.0,
            "sweep_count": s["k_sweep"],
            "sweep_worst_rel": worst_rel,
        },
    }
    lines = [
        f"A = {A:.17g}, B = {B:.17g}",
        *(f"{name}: {value:.3e}" for name, value in report.to_dict().items()),
        f"k = {k_here.real:.17g} + {k_here.imag:.17g} i, k^2 = {k_squared:.17g}",
        f"wavenumber identity sweep ({s['k_sweep']} draws): worst rel {worst_rel:.3e}",
        "PASS" if passed else "FAIL",
    ]
    return result, passed, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every later
    ``main`` in the process.  Handlers are bound into it then, so patching
    ``cli._cmd_*`` after the first ``main`` has no effect."""
    parser = argparse.ArgumentParser(
        prog="fhnx",
        description=(
            "Exact solutions of the diffusive FitzHugh-Nagumo system: catalog, "
            "residual verification, stability analysis, numerical cross-check. "
            "Elliptic-function arguments use the modulus convention (second "
            "argument k, not the parameter m = k**2)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"fhnx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=str, default=None, help="config file path")
        sp.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--out", type=str, default=None, help="directory for output files")
        # the directory a command writes into when neither --out nor output.dir names one
        sp.set_defaults(default_out=None)

    sp = sub.add_parser("list", help="print the solution-family catalog")
    common(sp)
    sp.add_argument("--family", type=str, default=None, help="restrict to one tag")
    sp.set_defaults(handler=_cmd_list)

    sp = sub.add_parser("verify", help="residual + invariant-surface verification")
    common(sp)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("stability", help="fixed-point classification and dispersion")
    common(sp)
    sp.set_defaults(handler=_cmd_stability)

    # flags whose dest is a dotted sim.* key are config overrides (see main)
    sp = sub.add_parser("simulate", help="method-of-lines cross-check run")
    common(sp)
    sp.add_argument("--scheme", dest="sim.scheme", choices=SCHEMES)
    sp.add_argument("--cfl", dest="sim.cfl_safety", type=float, metavar="CFL",
                    help="cfl safety factor")
    sp.add_argument("--refinements", dest="sim.refinements", type=int, metavar="REFINEMENTS",
                    help="convergence-study refinement count (>= 2 enables the study)")
    sp.set_defaults(handler=_cmd_simulate)

    sp = sub.add_parser("figure", help="emit surface data + gnuplot script")
    common(sp)
    sp.add_argument("--figure", type=int, choices=[1, 2], required=True,
                    help="1: u surface, 2: v surface")
    sp.set_defaults(handler=_cmd_figure, default_out=".")

    sp = sub.add_parser("constraints", help="ansatz constraint residuals + wavenumber identity")
    common(sp)
    sp.set_defaults(handler=_cmd_constraints)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flag_overrides = [
        f"{key}={value}" for key, value in vars(args).items()
        if key.startswith("sim.") and value is not None
    ]
    try:
        cfg = load_config(args.config, [*args.param, *flag_overrides])
        # flags beat config values
        output = cfg.section("output")
        use_json = args.json or output["format"] == "json"
        target = args.out if args.out is not None else (output["dir"] or args.default_out)
        out = None if target is None else _Outputs(Path(target))
        with out or contextlib.nullcontext():
            result, passed, lines = args.handler(args, cfg, out)
        report = [_report(args.command, cfg, result, passed)] if use_json else lines
        print(*report, sep="\n")
        sys.stdout.flush()
        return 0 if passed is None or passed else 1
    except MemoryError as exc:
        print(f"config error: not enough memory for the configured sizes: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point fd 1 at devnull so that the flush
        # at exit cannot fail as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:  # includes CflViolation
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (BlowUp, BranchMismatch) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except FhnxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
