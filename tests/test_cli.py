import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fhnx import cli, core
from fhnx.cli import CSV_BLOCK_ROWS, _write_csv, main
from fhnx.config import SCHEMA as CONFIG_SCHEMA
from fhnx.config import RunConfig, load_config
from fhnx.core import ConfigError
from fhnx.simulate import SimConfig
from fhnx.solutions import FAMILY_TAGS, FixedPointState, make_family, sample_F
from fhnx.stability import dispersion_sweep
from fhnx.verify import check_ansatz_constraints

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schemas" / "cli-output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())

SMALL_GRID = [
    "--param", "grid.nx=41",
    "--param", "grid.nt=11",
]


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def run_json(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --param entries that the loader accepts (None) or rejects with a message
# matching the pattern, whether they come from a file or from overrides
LOADER_CASES = [
    (["params.beta=3.0", "grid.nx=51", "sim.scheme=semi-implicit"], None),
    (["family.tag=JacobiSnSteady", "family.c2=0.5", "params.beta=2.5"], None),
    (["stability.u_star=auto", "ansatz.a=-0.25"], None),
    (["nosuch.x=1"], "unknown config"),
    (["params.gamma=1"], "unknown config key params.gamma"),
    (["params.nope=1"], "unknown config key params.nope"),
    (["grid.nx=a lot"], "bad value for grid.nx"),
    (["stability.u_star=origin"], "bad value for stability.u_star"),
    *(([f"{key}={raw}"], f"{key} must be finite")
      for key in ["family.x0", "stability.u_star", "ansatz.a"]
      for raw in ["nan", "inf", "-inf", "1e999"]),
    # the rules in SCHEMA, at and beyond their bounds
    ([f"run.seed={10**30}", "ansatz.n=1", f"ansatz.k_sweep={sys.maxsize // 8}",
      "output.format=json"], None),
    (["run.seed=0", f"ansatz.n={sys.maxsize // 8}", "ansatz.k_sweep=0"], None),
    (["run.seed=-1"], r"^run.seed must be >= 0, got -1$"),
    (["ansatz.n=0"], r"^ansatz.n must be >= 1, got 0$"),
    (["ansatz.k_sweep=-1"], r"^ansatz.k_sweep must be >= 0, got -1$"),
    ([f"ansatz.n={sys.maxsize // 8 + 1}"],
     rf"^ansatz.n must be <= {sys.maxsize // 8}, got {sys.maxsize // 8 + 1}$"),
    (["output.format=xml"], r"^output.format must be csv or json, got 'xml'$"),
]


class TestConfig:
    def test_defaults_are_benchmark_parameters(self):
        cfg = load_config()
        p = cfg.params()
        assert (p.D, p.epsilon, p.beta, p.c) == (1.03, 0.3, 2.0, 0.0)
        fam = cfg.family()
        assert fam.tag == "NonClassicalExp"

    def test_file_and_override_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[params]\nbeta = 3.0\n\n[grid]\nnx = 51\n")
        cfg = load_config(cfg_file, ["params.beta=4.0"])
        assert cfg.params().beta == 4.0  # flag beats file
        assert cfg.section("grid")["nx"] == 51
        assert cfg.section("grid")["nt"] == 101  # default echoed back
        assert cfg.resolved()["grid"]["nt"] == 101

    def test_bad_values_rejected(self):
        # override syntax alone; LOADER_CASES holds the bad keys and values
        with pytest.raises(ConfigError, match="override must look like section.key=value"):
            load_config(None, ["no-dots"])
        with pytest.raises(ConfigError, match="override key must be dotted section.key"):
            load_config(None, ["params=1"])

    def test_auto_keys_take_auto_or_a_number(self):
        cfg = load_config(None, ["stability.u_star=auto", "ansatz.a=-0.25"])
        assert cfg.section("stability")["u_star"] == "auto"
        assert cfg.section("ansatz")["a"] == "-0.25"  # echoed as given
        with pytest.raises(ConfigError, match="bad value for stability.u_star"):
            load_config(None, ["stability.u_star=origin"])

    @pytest.mark.parametrize("entries,error", LOADER_CASES,
                             ids=[" ".join(case[0]) for case in LOADER_CASES])
    def test_file_and_override_entries_are_equivalent(self, tmp_path, entries, error):
        sections: dict = {}
        for entry in entries:
            dotted, raw = entry.split("=", 1)
            sec, key = dotted.split(".", 1)
            sections.setdefault(sec, []).append(f"{key} = {raw}\n")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"[{sec}]\n" + "".join(lines)
                                    for sec, lines in sections.items()))
        if error is None:
            from_file, from_params = load_config(cfg_file), load_config(None, entries)
            assert from_file.values == from_params.values
            assert from_file.given == from_params.given
        else:
            for args in ((cfg_file,), (None, entries)):
                with pytest.raises(ConfigError, match=error):
                    load_config(*args)

    @pytest.mark.parametrize("tag", FAMILY_TAGS)
    def test_family_defaults_match_the_factory(self, tag):
        p = load_config().params()
        assert make_family(tag, p) == load_config(None, [f"family.tag={tag}"]).family(p)

    def test_sim_defaults_match_sim_config(self):
        defaults = {f.name: f.default for f in dataclasses.fields(SimConfig)}
        for key in ("scheme", "bc", "cfl_safety"):
            assert CONFIG_SCHEMA["sim"][key][1] == defaults[key]

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.cfg")

    def test_given_family_constant_the_tag_does_not_take_rejected(self, tmp_path):
        # defaults of the other families' constants are not given, so they pass
        assert load_config(None, ["family.tag=TanhFrontPlus"]).family().tag == "TanhFrontPlus"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[family]\ntag = FixedPointZero\nc2 = 0.5\n")
        with pytest.raises(ConfigError, match=r"FixedPointZero does not accept constants \['c2'\]"):
            load_config(cfg_file).family()
        cfg = load_config(None, ["family.tag=TanhFrontPlus", "family.c1=7", "family.x0=0.5"])
        with pytest.raises(ConfigError, match=r"TanhFrontPlus does not accept constants \['c1'\]"):
            cfg.family()
        # constraints reads family.c1/c2 directly, whatever the tag
        assert main(["constraints", "--param", "family.tag=TanhFrontPlus",
                     "--param", "family.c1=0.5", "--param", "ansatz.k_sweep=10"]) == 0


class TestList:
    def test_nine_families_in_text_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.count("formula:") == 9
        assert "NonClassicalExp" in out

    def test_json_catalog_round_trips_through_family_factory(self, capsys):
        code, payload = run_json(capsys, ["list", "--json"])
        assert code == 0
        families = payload["result"]["families"]
        assert len(families) == 9
        assert len(payload["result"]["symmetries"]) == 5
        cfg = load_config()
        p = cfg.params()
        defaults = {"c1": 0.0, "c2": 0.3, "x0": 0.0}
        for tag, info in families.items():
            constants = {name: defaults[name] for name in info["constant_names"]}
            fam = make_family(tag, p, **constants)
            assert fam.tag == tag
            # and through the config parser itself
            overrides = [f"family.tag={tag}"] + [
                f"family.{name}={value}" for name, value in constants.items()
            ]
            assert load_config(None, overrides).family().tag == tag

    def test_family_filter_shows_domain(self, capsys):
        assert main(["list", "--family", "TanhFrontPlus"]) == 0
        out = capsys.readouterr().out
        assert "beta > 1" in out
        assert out.count("formula:") == 1

    @pytest.mark.parametrize("tag", ["NoSuch", ""])
    def test_unknown_family_is_config_error(self, capsys, tag):
        # the message is make_family's, which names the known tags
        assert main(["list", "--family", tag]) == 2
        assert capsys.readouterr().err == (
            f"config error: unknown family tag {tag!r}; known: "
            + ", ".join(FAMILY_TAGS) + "\n"
        )


class TestVerify:
    def test_benchmark_family_passes(self, capsys):
        code, payload = run_json(capsys, ["verify", "--json", *SMALL_GRID])
        assert code == 0
        assert payload["pass"] is True
        checks = {c["name"]: c for c in payload["result"]["checks"]}
        assert checks["system linf_u (analytic)"]["value"] < 1e-10
        assert checks["system linf_v (analytic)"]["value"] < 1e-10

    def test_domain_error_exit_three(self, capsys):
        code = main(
            ["verify", "--param", "family.tag=TanhFrontPlus", "--param", "params.beta=0.5"]
        )
        assert code == 3
        assert "beta" in capsys.readouterr().err

    def test_zero_state_all_zero_norms(self, capsys):
        code, payload = run_json(
            capsys,
            ["verify", "--json", "--param", "family.tag=FixedPointZero", *SMALL_GRID],
        )
        assert code == 0
        rep = payload["result"]["reports"]["system_analytic"]
        assert rep["linf_u"] == 0.0 and rep["linf_v"] == 0.0
        assert payload["result"]["closed_form_root_match"]["root_index"] == 1

    def test_impossible_tolerance_fails_exit_one(self, capsys):
        code = main(["verify", "--param", "tolerances.analytic=1e-300", *SMALL_GRID])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_report_files_written(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path), *SMALL_GRID])
        assert code == 0
        rows = read_csv(tmp_path / "residuals.csv")
        assert rows[0] == ["family", "check", "equation", "method", "linf", "l2",
                           "worst_t", "worst_x", "sample_count"]
        assert len(rows) == 1 + 6  # three reports x two equations
        report = json.loads((tmp_path / "verify_report.json").read_text())
        jsonschema.validate(report, SCHEMA)

    def test_nonpositive_parameter_exit_three(self, capsys):
        assert main(["verify", "--param", "params.d=0"]) == 3

    def test_late_time_window_passes(self, capsys):
        # the paper's bracket form of v overflows here (E**3 = exp(1200))
        code = main(["verify", "--param", "grid.t_min=1990", "--param", "grid.t_max=2000",
                     "--param", "grid.nt=11", "--param", "grid.nx=21"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("PASS") == 6
        assert captured.err == ""

    # beta = 0.5 gives a real wavenumber, so u grows like exp(1.38 x)
    OVERFLOW = ["verify", "--param", "params.beta=0.5",
                "--param", "grid.nx=21", "--param", "grid.nt=3"]

    def test_huge_finite_residuals_fail_with_finite_norms(self, capsys):
        # residuals near 1e252: their squares overflow, the norms must not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, payload = run_json(
                capsys, [*self.OVERFLOW, "--param", "grid.x_max=150", "--json"]
            )
        assert caught == []
        assert code == 1
        assert payload["pass"] is False
        for rep in payload["result"]["reports"].values():
            for eq in ("u", "v"):
                linf, l2 = rep[f"linf_{eq}"], rep[f"l2_{eq}"]
                assert math.isfinite(l2) and linf <= l2 <= linf * math.sqrt(rep["sample_count"])
        assert "Traceback" not in capsys.readouterr().err

    def test_huge_residual_norms_agree_across_row_blocks(self, capsys, monkeypatch):
        # one-row blocks sum each row's squares on its own; the overflow
        # fallback must rescale them to the one-block norms
        argv = [*self.OVERFLOW, "--param", "grid.x_max=150", "--json"]
        _, one_block = run_json(capsys, argv)
        monkeypatch.setattr(core, "_BLOCK_SAMPLES", 21)  # one row of nx = 21
        code, row_blocks = run_json(capsys, argv)
        assert code == 1
        for name, rep in row_blocks["result"]["reports"].items():
            ref = one_block["result"]["reports"][name]
            assert {k: rep[k] for k in rep if not k.startswith("l2")} == (
                {k: ref[k] for k in ref if not k.startswith("l2")})
            for eq in ("u", "v"):
                linf, l2 = rep[f"linf_{eq}"], rep[f"l2_{eq}"]
                assert math.isfinite(l2) and linf <= l2 <= linf * math.sqrt(rep["sample_count"])
                assert l2 == pytest.approx(ref[f"l2_{eq}"], rel=1e-13, abs=0)

    def test_overflowing_family_is_domain_error_at_first_point(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*self.OVERFLOW, "--param", "grid.x_max=300"])
        assert caught == []
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        # first non-finite sample in (t, x) order: t = 0, x = -3 + 12 * 15.15
        assert "domain error: residual is not finite at (t, x) = (0, 178.8)" in err


class TestStability:
    def test_auto_fixed_points_three_files(self, tmp_path, capsys):
        code = main(["stability", "--out", str(tmp_path)])
        assert code == 0
        files = sorted(tmp_path.glob("dispersion_*.csv"))
        assert len(files) == 3
        for f in files:
            rows = read_csv(f)
            assert rows[0] == ["k", "re_sigma_1", "re_sigma_2", "im_sigma_1", "im_sigma_2"]
            assert len(rows) == 1 + 101

    @pytest.mark.parametrize("c,count", [(0.5, 1), (0.1, 3), (-0.1, 3)])
    def test_forced_fixed_points_zero_both_equations(self, capsys, c, count):
        code, payload = run_json(capsys, ["stability", "--json", "--param", f"params.c={c}"])
        assert code == 0
        points = payload["result"]["points"]
        assert len(points) == count
        eps = np.finfo(float).eps
        for pt in points:
            u, v = pt["u_star"], pt["v_star"]
            # u_t = -v + u - u**3/3 and v_t / epsilon = -beta v + c + u, beta = 2
            assert abs(-v + u - u**3 / 3.0) <= 8 * eps * (abs(v) + abs(u) + abs(u) ** 3)
            assert abs(-2.0 * v + c + u) <= 8 * eps * (2.0 * abs(v) + abs(c) + abs(u))
        _, payload = run_json(capsys, ["stability", "--json", "--param", f"params.c={c}",
                                       "--param", "stability.u_star=0.5"])
        assert payload["result"]["points"][0]["v_star"] == (0.5 + c) / 2.0

    def test_saddle_reported_at_origin(self, capsys):
        code, payload = run_json(
            capsys, ["stability", "--json", "--param", "stability.u_star=0"]
        )
        assert code == 0
        pt = payload["result"]["points"][0]
        assert pt["classification"] == "saddle"
        assert pt["jacobian"][0] == [1.0, -1.0]
        assert pt["jacobian"][1] == [0.3, -0.6]

    def test_k_row_count_contract(self, tmp_path):
        code = main(["stability", "--out", str(tmp_path),
                     "--param", "stability.u_star=0",
                     "--param", "stability.k_max=5.0",
                     "--param", "stability.n=51"])
        assert code == 0
        rows = read_csv(tmp_path / "dispersion_0.csv")
        assert len(rows) == 1 + 51

    @pytest.mark.parametrize(
        "override", ["stability.n=1", "stability.k_max=0", "stability.k_max=-1"]
    )
    def test_bad_sweep_is_config_error(self, capsys, override):
        code = main(["stability", "--param", override])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        assert "Traceback" not in err


class TestSimulate:
    ARGS = [
        "simulate",
        "--param", "grid.nx=51",
        "--param", "grid.t_max=0.1",
        "--param", "grid.nt=121",
    ]

    def test_run_and_error_table(self, tmp_path, capsys):
        code = main([*self.ARGS, "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "errors.csv")
        assert rows[0] == ["t", "linf_u", "l2_u", "linf_v", "l2_v"]
        assert len(rows) == 1 + 121
        assert (tmp_path / "frames.bin").read_bytes()[:4] == b"FHN1"
        traj = read_csv(tmp_path / "trajectory.csv")
        assert traj[0] == ["t", "x", "u", "v"]
        assert len(traj) == 1 + 121 * 51

    def test_cfl_gate_exit_two(self, capsys):
        code = main(["simulate", "--scheme", "rk4", "--cfl", "0.5",
                     "--param", "grid.nt=11", "--param", "grid.t_max=5.0"])
        assert code == 2
        assert "exceeds the explicit bound" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["rk4", "semi-implicit"])
    def test_initial_overflow_is_step_zero_blowup(self, tmp_path, capsys, scheme):
        code = main(["simulate", "--scheme", scheme,
                     "--param", "family.c1=1e120", "--param", "family.c2=1e120",
                     "--param", "grid.nt=21", "--param", "grid.t_max=0.001",
                     "--param", "grid.nx=21", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "blow-up at step 0" in err
        assert "Traceback" not in err

    def test_zero_state_zero_error_table(self, tmp_path):
        code = main([*self.ARGS, "--param", "family.tag=FixedPointZero",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "errors.csv")
        values = [float(v) for row in rows[1:] for v in row[1:]]
        assert all(v == 0.0 for v in values)

    def test_refinement_column_monotone(self, tmp_path, capsys):
        code, payload = run_json(
            capsys,
            ["simulate", "--json", "--refinements", "2",
             "--param", "grid.nx=25", "--param", "grid.t_max=0.1",
             "--param", "grid.nt=61", "--out", str(tmp_path)],
        )
        assert code == 0
        errs = [lv["err"] for lv in payload["result"]["convergence"]["levels"]]
        assert errs == sorted(errs, reverse=True)
        rows = read_csv(tmp_path / "convergence.csv")
        assert rows[0] == ["nx", "nt", "dx", "dt", "err_linf_u"]
        assert len(rows) == 1 + 3

    def test_bytewise_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main([*self.ARGS, "--out", str(out1)]) == 0
        assert main([*self.ARGS, "--out", str(out2)]) == 0
        for name in ("errors.csv", "trajectory.csv", "frames.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_blowup_in_a_later_block_leaves_no_outputs(self, tmp_path, capsys, monkeypatch):
        argv = ["simulate", "--scheme", "semi-implicit", "--param", "grid.x_min=-1",
                "--param", "grid.x_max=1", "--param", "grid.nx=11", "--param", "grid.nt=41",
                "--param", "grid.t_max=0.4"]
        kept, fresh = tmp_path / "kept", tmp_path / "fresh"
        assert main([*argv, "--out", str(kept)]) == 0
        before = {p.name: p.read_bytes() for p in kept.iterdir()}
        assert sorted(before) == ["errors.csv", "frames.bin", "trajectory.csv"]
        # two rows per block; the overshooting reaction blows up at step 6 or
        # later, after three blocks were stepped and written
        monkeypatch.setattr(core, "_BLOCK_SAMPLES", 22)
        monkeypatch.setattr(RunConfig, "family", lambda self, p: FixedPointState(
            tag="Overshoot", u_star=24.6, v_star=0.0))
        written = []
        monkeypatch.setattr(cli, "_frame_rows", lambda fh, ts, *rows: written.append(len(ts)))
        for out in (kept, fresh):
            written.clear()
            assert main([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("verification failure: blow-up at step")
            assert written[:3] == [2, 2, 2]
        assert {p.name: p.read_bytes() for p in kept.iterdir()} == before
        assert list(fresh.iterdir()) == []

    def test_out_peak_memory_does_not_grow_with_nt(self, tmp_path, capsys):
        # trajectory.csv and frames.bin take a block of rows at a time
        def argv(nt):
            return ["simulate", "--scheme", "semi-implicit", "--out", str(tmp_path),
                    "--param", "grid.nx=201", "--param", f"grid.nt={nt}"]

        def peak(nt):
            tracemalloc.start()
            try:
                assert main(argv(nt)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(argv(101))  # warm up lazy imports and caches
        small, large = peak(101), peak(401)
        # under a tenth of the 16 B per sample that a kept (nt, nx) trajectory adds
        assert large - small < 16 * (401 - 101) * 201 / 10, (small, large)

    def test_frame_count_beyond_the_format_is_a_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--param", f"grid.nt={2**32}", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: a frame file holds at most 2**32 - 1 frames, got {2**32}")
        assert list(tmp_path.iterdir()) == []


class TestFigure:
    def test_u_surface_origin_and_script(self, tmp_path, capsys):
        code = main(["figure", "--figure", "1", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "figure1_u.csv")
        assert rows[0] == ["t", "x", "u"]
        origin = [r for r in rows[1:] if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert len(origin) == 1
        assert float(origin[0][2]) == pytest.approx(2.0, abs=1e-15)
        script = (tmp_path / "figure1.gp").read_text()
        assert "splot" in script and "figure1_u.csv" in script

    def test_v_surface_origin_value(self, tmp_path):
        code = main(["figure", "--figure", "2", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "figure2_v.csv")
        origin = [r for r in rows[1:] if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert float(origin[0][2]) == pytest.approx(-7.0 / 6.0, abs=1e-12)

    def test_time_decay_ratio_in_emitted_data(self, tmp_path):
        main(["figure", "--figure", "1", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "figure1_u.csv")[1:]
        at_x0 = {float(r[0]): float(r[2]) for r in rows if float(r[1]) == 0.0}
        ts = sorted(at_x0)
        t0 = ts[0]
        t1 = min(ts, key=lambda t: abs(t - (t0 + 1.0)))
        assert t1 - t0 == pytest.approx(1.0, abs=1e-12)
        assert at_x0[t1] / at_x0[t0] == pytest.approx(math.exp(-0.2), abs=1e-12)

    def test_bytewise_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["figure", "--figure", "1", "--out", str(out1)])
        main(["figure", "--figure", "1", "--out", str(out2)])
        assert (out1 / "figure1_u.csv").read_bytes() == (out2 / "figure1_u.csv").read_bytes()

    def test_json_envelope(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, ["figure", "--figure", "1", "--json", "--out", str(tmp_path)]
        )
        assert code == 0
        assert payload["result"]["figure"] == 1

    def test_domain_error_leaves_no_csv(self, tmp_path, capsys):
        argv = ["figure", "--figure", "1", "--param", "family.c2=2", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert "imaginary part" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_peak_memory_does_not_grow_with_nt(self, tmp_path, capsys):
        # the surface is evaluated and written a block of rows at a time
        def peak(nt):
            argv = ["figure", "--figure", "1", "--out", str(tmp_path),
                    "--param", "grid.nx=801", "--param", f"grid.nt={nt}"]
            main(argv)  # warm up lazy imports and caches
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(41), peak(161)
        assert large <= 1.1 * small, (small, large)


def _reference_cell(x) -> str:
    """The per-cell rule _write_csv replaced, kept here as its oracle."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_reference_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_cell(cell) for cell in row])


EXTREMES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]


class TestCsvWriter:
    """_write_csv against csv.writer with the per-cell rule, byte for byte."""

    @pytest.mark.parametrize("nt,nx", [(7, 9), (1, 9), (7, 1)])
    def test_frame_table(self, tmp_path, nt, nx):
        rng = np.random.default_rng(100 * nt + nx)
        ts, xs = np.linspace(0.0, 0.5, nt), np.linspace(-3.0, 3.0, nx)
        us, vs = (rng.standard_normal((nt, nx)) * 10.0 ** rng.integers(-300, 300, (nt, nx))
                  for _ in range(2))
        for field in (us, vs):
            field.flat[rng.permutation(field.size)[:len(EXTREMES)]] = EXTREMES
        header = ["t", "x", "u", "v"]
        _write_csv(tmp_path / "new.csv", header, ts[:, None], xs, us, vs)
        _write_reference_csv(
            tmp_path / "ref.csv", header,
            ((ts[i], xs[j], us[i, j], vs[i, j]) for i in range(nt) for j in range(nx)),
        )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_row_table_of_mixed_types(self, tmp_path):
        rows = [
            ("NonClassicalExp", "system_analytic", "u", "analytic",
             np.float64(2.220446049250313e-16), 1.1e-17, -0.0, 3.0, 451),
            ("NonClassicalExp", "system_fd", "v", "finite-difference",
             math.nan, math.inf, 5e-324, -1.7976931348623157e308, np.int64(12)),
            ("JacobiSnSteady", "third_order_analytic", "u", "analytic",
             0.0, -math.inf, 0.1, 1e-300, 0),
        ]
        header = ["family", "check", "equation", "method", "linf", "l2",
                  "worst_t", "worst_x", "sample_count"]
        _write_csv(tmp_path / "new.csv", header, *zip(*rows))
        _write_reference_csv(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_tables_longer_than_a_block(self, tmp_path):
        # a 1-D table of 2.5 blocks, and frames of 7 cells, several per block;
        # both end in a partial block
        rng = np.random.default_rng(7)
        n = CSV_BLOCK_ROWS * 5 // 2
        ks, sigma = np.linspace(0.0, 5.0, n), rng.standard_normal((n, 2))
        sigma.flat[rng.permutation(sigma.size)[:len(EXTREMES)]] = EXTREMES
        _write_csv(tmp_path / "new.csv", ["k", "a", "b", "i"], ks, *sigma.T, np.arange(n))
        _write_reference_csv(
            tmp_path / "ref.csv", ["k", "a", "b", "i"],
            ((ks[i], sigma[i, 0], sigma[i, 1], i) for i in range(n)),
        )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

        nt, nx = 3 * CSV_BLOCK_ROWS // 7 + 2, 7
        ts, xs = np.linspace(0.0, 0.5, nt), np.linspace(-3.0, 3.0, nx)
        us = rng.standard_normal((nt, nx))
        _write_csv(tmp_path / "new.csv", ["t", "x", "u"], ts[:, None], xs, us)
        _write_reference_csv(
            tmp_path / "ref.csv", ["t", "x", "u"],
            ((ts[i], xs[j], us[i, j]) for i in range(nt) for j in range(nx)),
        )
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestOutputSection:
    def test_format_json_from_config(self, capsys):
        code = main(["list", "--param", "output.format=json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["command"] == "list"

    def test_dir_from_config(self, tmp_path, capsys):
        code = main(["verify", *SMALL_GRID,
                     "--param", f"output.dir={tmp_path}"])
        assert code == 0
        assert (tmp_path / "residuals.csv").exists()

    def test_bad_format_rejected(self, capsys):
        assert main(["list", "--param", "output.format=xml"]) == 2


# a configuration that loads is valid for every command: a value that breaks
# a SCHEMA rule exits 2 before any command runs, with or without --json
COMMAND_ARGV = {
    "list": ["list"],
    "verify": ["verify"],
    "stability": ["stability"],
    "simulate": ["simulate"],
    "figure": ["figure", "--figure", "1"],
    "constraints": ["constraints"],
}
RULE_BREAKERS = {
    "run.seed=-1": "run.seed must be >= 0, got -1",
    "ansatz.n=0": "ansatz.n must be >= 1, got 0",
    "ansatz.k_sweep=-1": "ansatz.k_sweep must be >= 0, got -1",
    "sim.refinements=-3": "sim.refinements must be >= 0, got -3",
    "output.format=xml": "output.format must be csv or json, got 'xml'",
}


class TestRulesHoldForEveryCommand:
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("entry", sorted(RULE_BREAKERS))
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
    def test_rule_breaking_value_exits_2(self, capsys, tmp_path, command, entry, json_flag):
        argv = [*COMMAND_ARGV[command], *json_flag, "--param", entry, "--out", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {RULE_BREAKERS[entry]}\n"


class TestConstraints:
    def test_solved_branch_passes(self, capsys):
        code, payload = run_json(
            capsys, ["constraints", "--json", "--param", "ansatz.k_sweep=100"]
        )
        assert code == 0
        assert payload["pass"] is True
        res = payload["result"]
        assert res["constraints"]["eq20"] == 0.0
        assert res["constraints"]["eq22"] == 0.0
        assert res["constraints"]["eq21_reduced"] < 1e-10
        assert res["wavenumber"]["imaginary"] is True
        assert res["wavenumber"]["k_squared"] == pytest.approx(-0.4368932038834952)

    def test_explicit_A_override(self, capsys):
        code, payload = run_json(
            capsys,
            ["constraints", "--json", "--param", "ansatz.a=-0.3",
             "--param", "ansatz.k_sweep=10"],
        )
        # wrong branch: first constraint no longer vanishes
        assert code == 1
        assert payload["pass"] is False
        assert payload["result"]["constraints"]["eq19"] > 1e-12

    def test_bad_A_rejected(self, capsys):
        assert main(["constraints", "--param", "ansatz.a=twelve"]) == 2

    def test_deterministic_given_seed(self, capsys):
        _, p1 = run_json(capsys, ["constraints", "--json", "--param", "ansatz.k_sweep=50"])
        _, p2 = run_json(capsys, ["constraints", "--json", "--param", "ansatz.k_sweep=50"])
        assert p1 == p2
        _, p3 = run_json(capsys, ["constraints", "--json",
                                  "--param", "ansatz.k_sweep=50",
                                  "--param", "run.seed=7"])
        assert p3["result"]["wavenumber"]["sweep_worst_rel"] != p1["result"]["wavenumber"]["sweep_worst_rel"]

    @pytest.mark.parametrize("seed", [0, 7, 10**30])
    def test_output_does_not_depend_on_block_size(self, capsys, monkeypatch, seed):
        # the constraint maxima and the sweep's draws are folded block by block
        argv = ["constraints", "--json", "--param", "ansatz.k_sweep=50",
                "--param", f"run.seed={seed}"]
        _, whole = run_json(capsys, argv)
        monkeypatch.setattr(core, "_BLOCK_SAMPLES", 22)  # 5 samples, 7 draws
        _, blocked = run_json(capsys, argv)
        assert blocked == whole
        assert whole["result"]["wavenumber"]["sweep_worst_rel"] <= 1e-12


def _peak_bytes(fn) -> int:
    fn()  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _constraints_peak(*params):
    argv = ["constraints", "--json", *(a for q in params for a in ("--param", q))]

    def command():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return _peak_bytes(command)


def _check_peak(n):
    p = load_config().params()
    A = -p.epsilon * p.beta / 3.0
    samples = sample_F(p, A, 0.0, 1.0, 1.0, np.linspace(-2.0, 2.0, n))
    return _peak_bytes(lambda: check_ansatz_constraints(p, A, 0.0, samples))


# size -> peak bytes, and the bytes per unit of size of the O(n) arrays made:
# the check gets its samples; the sweep makes ks and the complex (n, 2)
# sigma; the command makes xs, F and F'' (one float and two complex per
# sample) and the (k_sweep, 3) draws
GROWTH_CASES = {
    "check_ansatz_constraints": (_check_peak, 0),
    "dispersion_sweep": (lambda n: _peak_bytes(
        lambda: dispersion_sweep(load_config().params(), 0.0, 5.0, n)), 40),
    "constraints ansatz.n": (lambda n: _constraints_peak(f"ansatz.n={n}", "ansatz.k_sweep=0"), 40),
    "constraints ansatz.k_sweep": (lambda n: _constraints_peak(f"ansatz.k_sweep={n}"), 24),
}


@pytest.mark.parametrize("case", sorted(GROWTH_CASES))
def test_working_set_grows_only_by_its_arrays(case):
    # temporaries are made a block at a time, whatever the size
    peak, per_unit = GROWTH_CASES[case]
    small, large = 20_000, 80_000
    low, high = peak(small), peak(large)
    assert high - low <= 1.01 * per_unit * (large - small) + 0.01 * low, (low, high)


# Values at the edges of the float range and out-of-range counts must end in
# a typed error: no traceback, no RuntimeWarning and no NaN/Infinity output.
# (argv, exit code, start of the stderr message)
TYPED_FAILURES = [
    (["stability", "--param", "stability.u_star=1e200"], 3,
     "domain error: stability matrix is not finite at u* = 1e+200"),
    (["stability", "--json", "--param", "params.epsilon=1e200"], 3,
     "domain error: growth rate sigma(k) is not finite at u* ="),
    (["stability", "--json", "--param", "params.d=1e200"], 3,
     "domain error: growth rate sigma(k) is not finite at u* ="),
    (["stability", "--json", "--param", "stability.k_max=1e200"], 3,
     "domain error: stability matrix is not finite at u* = -1.224744871391589: "
     "D k**2 overflows float64 at k = 1e+200"),
    (["stability", "--json", "--param", "stability.u_star=2", "--param", "params.beta=1e-320"], 3,
     "domain error: v* = (u* + c)/beta is not finite at u* = 2.0"),
    (["simulate", "--param", "params.beta=1e-300"], 3, "domain error: wavenumber is not finite"),
    (["verify", "--param", "params.epsilon=1e-300"], 3, "domain error: wavenumber is not finite"),
    (["figure", "--figure", "1", "--param", "params.epsilon=1e-300"], 3,
     "domain error: wavenumber is not finite"),
    (["verify", "--param", "params.beta=1e200"], 3, "domain error: wavenumber is not finite"),
    (["constraints", "--param", "params.beta=1e200"], 3, "domain error: wavenumber is not finite"),
    (["constraints", "--param", "ansatz.n=0"], 2, "config error: ansatz.n must be >= 1"),
    (["constraints", "--param", "ansatz.n=-5"], 2, "config error: ansatz.n must be >= 1"),
    (["constraints", "--param", "ansatz.k_sweep=-1"], 2,
     "config error: ansatz.k_sweep must be >= 0"),
    (["stability", "--param", "ansatz.k_sweep=-1"], 2,
     "config error: ansatz.k_sweep must be >= 0, got -1"),
    (["list", "--json", "--param", "output.format=xml"], 2,
     "config error: output.format must be csv or json, got 'xml'"),
    (["verify", "--param", "family.tag=FixedPointPlus", "--param", "params.beta=0.5"], 3,
     "domain error: FixedPointPlus: closed form is not effectively real"),
    (["verify", "--json", "--param", "family.tag=TanhFrontPlus", "--param", "family.x0=inf"], 2,
     "config error: family.x0 must be finite"),
    (["stability", "--param", "stability.u_star=nan"], 2,
     "config error: stability.u_star must be finite"),
    (["constraints", "--param", "ansatz.a=-inf"], 2,
     "config error: ansatz.a must be finite"),
    (["constraints", "--param", "ansatz.a=1e200"], 3,
     "domain error: ansatz exponent overflows float64 at A = 1e+200"),
    (["constraints", "--param", "ansatz.b=1e200"], 3,
     "domain error: ansatz exponent overflows float64 at A = -0.19999999999999998, B = 1e+200"),
    (["constraints", "--param", "ansatz.a=1e77"], 3,
     "domain error: ansatz constraint residuals overflow float64 at A = 1e+77"),
    (["constraints", "--param", "family.c1=1e200"], 3,
     "domain error: ansatz constraint residuals overflow float64"),
    (["constraints", "--json", "--param", "family.c2=-1e200"], 3,
     "domain error: ansatz constraint residuals overflow float64"),
    (["verify", "--param", "family.tag=JacobiSnSteady", "--param", "params.beta=1e200"], 3,
     "domain error: sn modulus overflows float64 at beta = 1e+200"),
    (["verify", "--param", "family.tag=TanhFrontPlus", "--param", "family.c1=7", *SMALL_GRID], 2,
     "config error: family TanhFrontPlus does not accept constants ['c1']; allowed: ['x0']"),
    # found by tests/test_cli_fuzz.py
    (["simulate", "--param", "grid.x_max=1e300", "--param", "grid.nx=11", "--param", "grid.nt=6"],
     2, "config error: grid step squared overflows float64 at dx = 1e+299, dt = 1.0"),
    (["verify", "--param", "grid.x_max=1e300", "--param", "grid.nx=11", "--param", "grid.nt=3"],
     2, "config error: grid step squared overflows float64 at dx = 1e+299, dt = 2.5"),
    (["simulate", "--scheme", "semi-implicit", "--param", "grid.x_min=0",
      "--param", "grid.x_max=1e-200", "--param", "grid.nx=11", "--param", "grid.nt=3"],
     2, "config error: dx**2 underflows to 0 at dx = 1e-201"),
    (["stability", "--param", "params.c=1e200"], 3,
     "domain error: cubic discriminant overflows float64 at p = -1.5, q = 1.5e+200"),
    (["figure", "--figure", "1", "--param", "params.beta=1e-320",
      "--param", "family.tag=FixedPointMinus"], 3,
     "domain error: beta * sqrt(beta) underflows to 0 at beta = 1e-320"),
    (["verify", "--param", "family.tag=JacobiSnSteady", "--param", "family.c2=0.5",
      "--param", "params.d=1e-320"], 3,
     "domain error: sn steepness squared overflows float64 at D = 1e-320"),
    (["figure", "--figure", "1", "--param", "family.tag=TanhFrontMinus",
      "--param", "params.d=1e-320"], 3,
     "domain error: tanh front steepness squared overflows float64 at D = 1e-320"),
    (["verify", "--param", "family.tag=FixedPointCardanoA", "--param", "params.beta=1e300"], 3,
     "domain error: Cardano A radicand overflows float64 at beta = 1e+300"),
    (["verify", "--param", "family.tag=FixedPointCardanoB", "--param", "params.beta=1e300"], 3,
     "domain error: Cardano B radicand overflows float64 at beta = 1e+300"),
    # far below beta = 1 the Cardano terms cancel to rounding, then W**3 underflows
    (["verify", "--param", "family.tag=FixedPointCardanoB", "--param", "params.beta=1e-12",
      *SMALL_GRID], 3,
     "domain error: FixedPointCardanoB: terms of 1e+06 cancel to rounding at beta = 1e-12"),
    (["verify", "--param", "family.tag=FixedPointCardanoA", "--param", "params.beta=1e-100",
      *SMALL_GRID], 3,
     "domain error: FixedPointCardanoA: terms of 1e+50 cancel to rounding at beta = 1e-100"),
    (["verify", "--param", "family.tag=FixedPointCardanoA", "--param", "params.beta=1e-300",
      *SMALL_GRID], 3,
     "domain error: Cardano A: W**3 is 0 or subnormal at beta = 1e-300"),
    (["constraints", "--param", "run.seed=-1"], 2, "config error: run.seed must be >= 0, got -1"),
    (["simulate", "--param", "sim.refinements=1", "--param", "grid.t_max=0.5",
      "--param", "grid.nt=2001", "--param", "grid.nx=101"], 2,
     "config error: need at least 2 refinements to observe an order"),
    (["simulate", "--refinements", "-3", "--param", "grid.t_max=0.5",
      "--param", "grid.nt=2001", "--param", "grid.nx=101"], 2,
     "config error: sim.refinements must be >= 0, got -3"),
    # sizes: numpy cannot allocate 10**17 float64 samples; above sys.maxsize // 8
    # it would refuse the array as "too big", so the config refuses it first
    *((argv, 2, "config error: not enough memory for the configured sizes: Unable to allocate")
      for argv in (["verify", "--param", f"grid.nx={10**17}"],
                   ["verify", "--param", f"grid.nt={10**17}"],
                   ["stability", "--param", f"stability.n={10**17}"],
                   ["constraints", "--param", f"ansatz.n={10**17}"],
                   ["constraints", "--param", f"ansatz.k_sweep={10**17}"])),
    (["verify", "--param", f"grid.nx={4 * 10**18}"], 2,
     f"config error: nx and nt must be <= {sys.maxsize // 8}, got {4 * 10**18}, 101"),
    (["verify", "--param", f"grid.nt={4 * 10**18}"], 2,
     f"config error: nx and nt must be <= {sys.maxsize // 8}, got 201, {4 * 10**18}"),
    (["stability", "--param", f"stability.n={4 * 10**18}"], 2,
     f"config error: need at most {sys.maxsize // 8} samples, got n={4 * 10**18}"),
    (["constraints", "--param", f"ansatz.n={4 * 10**18}"], 2,
     f"config error: ansatz.n must be <= {sys.maxsize // 8}, got {4 * 10**18}"),
    (["constraints", "--param", f"ansatz.k_sweep={4 * 10**18}"], 2,
     f"config error: ansatz.k_sweep must be <= {sys.maxsize // 8}, got {4 * 10**18}"),
]


class TestTypedFailures:
    @pytest.mark.parametrize("argv,code,message", TYPED_FAILURES,
                             ids=[" ".join(a for a in case[0] if a != "--param")
                                  for case in TYPED_FAILURES])
    def test_exit_code_and_message_without_warnings(self, capsys, argv, code, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        captured = capsys.readouterr()
        assert caught == []
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert "Traceback" not in captured.err

    # an output the command cannot write: --out names a regular file, or a
    # directory stands where one of the command's files goes; files written
    # before it do not stay
    @pytest.mark.parametrize("argv,blocker", [
        *((argv, None) for argv in (["list"], ["verify", *SMALL_GRID], ["stability"],
                                    ["simulate", *SMALL_GRID, "--param", "grid.t_max=0.01"],
                                    ["figure", "--figure", "1", *SMALL_GRID], ["constraints"])),
        (["verify", *SMALL_GRID], "verify_report.json"),
        (["stability"], "dispersion_1.csv"),
        (["simulate", *SMALL_GRID, "--param", "grid.t_max=0.01"], "trajectory.csv"),
        (["simulate", *SMALL_GRID, "--param", "grid.t_max=0.01"], "errors.csv"),
        (["figure", "--figure", "1", *SMALL_GRID], "figure1.gp"),
    ], ids=lambda value: value[0] if isinstance(value, list) else value or "out-is-a-file")
    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys, argv, blocker):
        if blocker is None:
            out = blocked = tmp_path / "file"
            out.write_text("kept\n")
            message = f"config error: cannot write output: [Errno 17] File exists: '{out}'"
        else:
            out, blocked = tmp_path, tmp_path / blocker
            blocked.mkdir()
            message = f"config error: cannot write output: [Errno 21] Is a directory: '{blocked}'"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == [blocked]
        assert (blocked.read_text() == "kept\n") if blocker is None else not any(blocked.iterdir())

    def test_empty_wavenumber_sweep_passes(self, capsys):
        code, payload = run_json(capsys, ["constraints", "--json", "--param", "ansatz.k_sweep=0"])
        assert code == 0
        assert payload["result"]["wavenumber"]["sweep_count"] == 0
        assert payload["result"]["wavenumber"]["sweep_worst_rel"] == 0.0


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["list", "--json"], ["verify", *SMALL_GRID]],
                             ids=["list", "verify"])
    def test_exit_1_without_traceback(self, argv, unbuffered):
        # the pipe's read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE whatever the buffering
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "fhnx.cli", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestJsonSchemaEveryCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["list", "--json"],
            ["verify", "--json", *SMALL_GRID],
            ["stability", "--json", "--param", "stability.n=11"],
            ["simulate", "--json", "--param", "grid.nx=25",
             "--param", "grid.t_max=0.02", "--param", "grid.nt=11"],
            ["constraints", "--json", "--param", "ansatz.k_sweep=10"],
        ],
    )
    def test_payload_validates(self, capsys, argv):
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["command"] == argv[0]
