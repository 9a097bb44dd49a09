import csv
import json
import math
from pathlib import Path

import jsonschema
import pytest

from fhnx.cli import main
from fhnx.config import load_config
from fhnx.core import ConfigError
from fhnx.solutions import make_family

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schemas" / "cli-output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())

SMALL_GRID = [
    "--param", "grid.nx=41",
    "--param", "grid.nt=11",
]


def run_json(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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

    def test_unknown_section_and_key_rejected(self, tmp_path):
        bad1 = tmp_path / "bad1.cfg"
        bad1.write_text("[nosuch]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(bad1)
        bad2 = tmp_path / "bad2.cfg"
        bad2.write_text("[params]\ngamma = 1\n")
        with pytest.raises(ConfigError):
            load_config(bad2)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["grid.nx=a lot"])
        with pytest.raises(ConfigError):
            load_config(None, ["no-dots"])
        with pytest.raises(ConfigError):
            load_config(None, ["params.nope=1"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.cfg")


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

    def test_unknown_family_is_config_error(self, capsys):
        assert main(["list", "--family", "NoSuch"]) == 2


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

    def test_thread_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("FHNX_THREADS", "1")
        assert main(["verify", *SMALL_GRID, "--out", str(out1)]) == 0
        monkeypatch.setenv("FHNX_THREADS", "4")
        assert main(["verify", *SMALL_GRID, "--out", str(out2)]) == 0
        assert (out1 / "residuals.csv").read_bytes() == (out2 / "residuals.csv").read_bytes()


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
