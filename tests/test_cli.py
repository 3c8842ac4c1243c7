import csv
import json
import os
import re

import pytest
import yaml

from cabintherm.analysis import pareto_sweep
from cabintherm.cli import main
from cabintherm.comfort import clothing_insulation, pmv
from cabintherm.config import load_config
from cabintherm.errors import ConfigError
from cabintherm.model_core import c_to_k
from cabintherm.scenario import load_scenarios_csv, save_scenarios_csv, synthesize_dataset


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "scn.csv"
    save_scenarios_csv(synthesize_dataset(150, seed=3), str(path))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGen:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = str(tmp_path / "g")
        assert main(["gen", "--n", "40", "--seed", "5", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "scenarios.csv"))
        manifest = json.loads(read(os.path.join(out, "run_manifest.json")))
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 5
        assert manifest["tool_version"]

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["gen", "--n", "40", "--seed", "5", "--out", out1])
        main(["gen", "--n", "40", "--seed", "5", "--out", out2])
        assert read(os.path.join(out1, "scenarios.csv")) \
            == read(os.path.join(out2, "scenarios.csv"))


class TestSolve:
    def test_mild_inline_passive(self, capsys):
        rc = main(["solve", "--t-inf-c", "18", "--n-pass", "20", "--month", "5",
                   "--beta-deg", "30", "--i-dni", "200", "--i-dhi", "60",
                   "--window=-1,1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "passive" in out
        assert "P_tot = 0.0 W" in out

    def test_cold_ptc_power_equals_heat(self, tmp_path, capsys):
        cfg = tmp_path / "ptc.yaml"
        cfg.write_text(yaml.safe_dump(
            {"hvac": {"heating_cop": [[0.0, 1.0]]}}), encoding="utf-8")
        rc = main(["solve", "--config", str(cfg), "--t-inf-c", "-8",
                   "--n-pass", "30", "--month", "1", "--window=-1,1"])
        assert rc == 0
        out = capsys.readouterr().out
        report = {}
        for line in out.splitlines():
            if line.startswith("power:"):
                parts = line.replace("power: ", "").split("   ")
                for p in parts:
                    k, v = p.split(" = ")
                    report[k] = float(v.rstrip(" W"))
        q_hvac = [float(l.split()[-1]) for l in out.splitlines()
                  if l.strip().startswith("Q_hvac")][0]
        assert report["P_hvac"] == pytest.approx(q_hvac, abs=0.1)

    def test_residual_closure_printed(self, capsys):
        main(["solve", "--t-inf-c", "-8", "--n-pass", "30", "--month", "1",
              "--window=-1,1"])
        out = capsys.readouterr().out
        assert "energy closure" in out
        assert "OK" in out

    def test_report_files(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        rc = main(["solve", "--t-inf-c", "-8", "--n-pass", "30", "--month", "1",
                   "--window=-1,1", "--out", out])
        assert rc == 0
        report = json.loads(read(os.path.join(out, "solve_report.json")))
        assert report["mode"] == "heating"
        assert os.path.exists(os.path.join(out, "heat_flows.csv"))
        assert os.path.exists(os.path.join(out, "run_manifest.json"))

    def test_passenger_tmr_is_the_solvers(self, tmp_path, capsys):
        cfg = tmp_path / "rh.yaml"
        cfg.write_text("radiant_heaters: {enabled: true}\n", encoding="utf-8")
        out = str(tmp_path / "r")
        rc = main(["solve", "--config", str(cfg), "--t-inf-c", "-8", "--n-pass", "30",
                   "--month", "1", "--rh", "on", "--window=-0.5,0.5", "--out", out])
        assert rc == 0
        temps = json.loads(read(os.path.join(out, "solve_report.json")))["temperatures_C"]
        with open(os.path.join(out, "passenger_tmr.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        spec = load_config(str(cfg)).comfort
        clo = clothing_insulation(c_to_k(-8.0), scale=spec.clo_scale)
        # every written value is rounded to 6 decimals
        for r in rows:
            t_mr = float(r["T_mr_C"])
            assert temps["T_si"] - 1e-6 <= t_mr <= temps["T_rh"] + 1e-6
            assert pmv(c_to_k(temps["T_cab"]), c_to_k(t_mr), clo, spec) \
                == pytest.approx(float(r["pmv"]), abs=5e-6)
        assert len({r["T_mr_C"] for r in rows}) > 1

    def test_both_solvers_cross_check(self, capsys):
        rc = main(["solve", "--t-inf-c", "-8", "--n-pass", "30", "--month", "1",
                   "--window=-1,1", "--solver", "both"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cross-check" in out

    def test_scenario_row_selection(self, scenario_file, capsys):
        rc = main(["solve", "--scenarios", scenario_file, "--id", "syn-3-00000",
                   "--window=-1,1"])
        assert rc == 0

    def test_unknown_id_is_data_error(self, scenario_file, capsys):
        rc = main(["solve", "--scenarios", scenario_file, "--id", "nope"])
        assert rc == 3


class TestSweep:
    def test_two_concepts_files(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "s")
        rc = main(["sweep", "--scenarios", scenario_file, "--out", out,
                   "--windows", "0.5,1.0", "--concepts", "PTC-AC,HP-AC",
                   "--jobs", "1"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "pareto_PTC-AC.csv"))
        assert os.path.exists(os.path.join(out, "pareto_HP-AC.csv"))
        assert os.path.exists(os.path.join(out, "pareto_combined.csv"))
        report = json.loads(read(os.path.join(out, "sweep_report.json")))
        assert set(report) == {"PTC-AC", "HP-AC"}

    def test_configured_cabin_and_panel_strip(self, scenario_file, tmp_path, capsys):
        cfg = tmp_path / "short.yaml"
        cfg.write_text(yaml.safe_dump({"cabin": {"length": 12.0},
                                       "radiant_heaters": {"n_panels": 3}}),
                       encoding="utf-8")
        out = str(tmp_path / "s")
        rc = main(["sweep", "--config", str(cfg), "--scenarios", scenario_file,
                   "--out", out, "--windows", "0.5,1.0", "--concepts", "PTC-AC+RH",
                   "--solver", "both", "--jobs", "1"])
        assert rc == 0
        got = json.loads(read(os.path.join(out, "sweep_report.json")))["PTC-AC+RH"]
        concept = load_config(str(cfg)).concepts["PTC-AC+RH"]
        assert len(concept.layout.rh_panels) == 3 and concept.layout.length == 12.0
        sset = load_scenarios_csv(scenario_file)
        want = pareto_sweep(sset, concept.bus, [0.5, 1.0], layout=concept.layout)
        default = pareto_sweep(sset, concept.bus, [0.5, 1.0])
        for g, w, d in zip(got, want, default):
            assert g["annual_mean_P_tot_W"] == round(w.annual_mean_P_tot, 6)
            assert g["annual_mean_ppd_pct"] == round(w.annual_mean_ppd, 6)
            assert g["annual_mean_P_tot_W"] != round(d.annual_mean_P_tot, 6)

    def test_empty_windows_error(self, scenario_file, tmp_path):
        rc = main(["sweep", "--scenarios", scenario_file,
                   "--out", str(tmp_path / "x"), "--windows", "", "--jobs", "1"])
        assert rc == 2

    def test_unknown_concept_error(self, scenario_file, tmp_path):
        rc = main(["sweep", "--scenarios", scenario_file,
                   "--out", str(tmp_path / "x"), "--windows", "1.0",
                   "--concepts", "FUSION", "--jobs", "1"])
        assert rc == 2

    def test_rerun_byte_identical(self, scenario_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["sweep", "--scenarios", scenario_file, "--windows", "1.0",
                "--concepts", "HP-AC", "--seed", "9", "--jobs", "1"]
        main(args + ["--out", out1])
        main(args + ["--out", out2])
        for name in ("pareto_HP-AC.csv", "pareto_combined.csv", "sweep_report.json"):
            assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


class TestMonthly:
    def test_fractions_sum_to_one(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "m")
        rc = main(["monthly", "--scenarios", scenario_file, "--out", out,
                   "--window=-1,1", "--jobs", "1"])
        assert rc == 0
        import csv
        with open(os.path.join(out, "monthly.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        for r in rows:
            if r["status"] == "present":
                s = (float(r["frac_heating"]) + float(r["frac_cooling"])
                     + float(r["frac_passive"]))
                # the written values are rounded to 6 decimals
                assert s == pytest.approx(1.0, abs=5e-6)

    def test_single_month_flags_absent(self, tmp_path):
        sset = synthesize_dataset(400, seed=6)
        from cabintherm.scenario import ScenarioSet
        jan = ScenarioSet(tuple(s for s in sset if s.month == 1))
        path = str(tmp_path / "jan.csv")
        save_scenarios_csv(jan, path)
        out = str(tmp_path / "m1")
        rc = main(["monthly", "--scenarios", path, "--out", out,
                   "--window=-1,1", "--jobs", "1"])
        assert rc == 0
        import csv
        with open(os.path.join(out, "monthly.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "present"
        assert all(r["status"] == "absent" for r in rows[1:])


class TestSensitivityCmd:
    def test_runs_and_writes(self, tmp_path):
        sset = synthesize_dataset(120, seed=8)
        path = str(tmp_path / "s.csv")
        save_scenarios_csv(sset, path)
        out = str(tmp_path / "sens")
        rc = main(["sensitivity", "--scenarios", path, "--out", out,
                   "--params", "k_body,cop_heating", "--jobs", "1"])
        assert rc == 0
        import csv
        with open(os.path.join(out, "sensitivity.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["parameter"] == "baseline"
        assert len(rows) == 1 + 2 * 2

    @pytest.mark.parametrize("delta, labels", [(None, ("+1%", "-1%")),
                                               ("0.05", ("+5%", "-5%")),
                                               ("0.025", ("+2.5%", "-2.5%"))])
    def test_rows_labelled_with_delta(self, tmp_path, capsys, delta, labels):
        path = str(tmp_path / "s.csv")
        save_scenarios_csv(synthesize_dataset(36, seed=8), path)
        argv = ["sensitivity", "--scenarios", path, "--out", str(tmp_path / "sens"),
                "--params", "k_body", "--jobs", "1"]
        assert main(argv + (["--delta", delta] if delta else [])) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0].split()[1] for line in lines[1:]] == list(labels)

    @pytest.mark.parametrize("delta", ["nan", "inf", "-0.01", "1"])
    def test_bad_delta_exit_code(self, tmp_path, capsys, delta):
        path = str(tmp_path / "s.csv")
        save_scenarios_csv(synthesize_dataset(36, seed=8), path)
        rc = main(["sensitivity", "--scenarios", path, "--out", str(tmp_path / "sens"),
                   "--params", "k_body", "--jobs", "1", "--delta", delta])
        assert rc == 2
        assert "delta" in capsys.readouterr().err


class TestErrors:
    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("materials: {tau_win: 2.0}\n", encoding="utf-8")
        rc = main(["solve", "--config", str(cfg), "--t-inf-c", "0",
                   "--month", "1"])
        assert rc == 2

    def test_panels_in_a_low_cabin_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "low.yaml"
        cfg.write_text("cabin: {height: 1.6}\nradiant_heaters: {enabled: true}\n",
                       encoding="utf-8")
        with pytest.raises(ConfigError, match="higher than"):
            load_config(str(cfg))
        rc = main(["solve", "--config", str(cfg), "--t-inf-c", "0", "--month", "1"])
        assert rc == 2
        assert "higher than" in capsys.readouterr().err
        # the default concepts with panels are checked too, and named
        cfg.write_text("cabin: {height: 1.6}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="concept 'PTC-AC\\+RH': .*higher than"):
            load_config(str(cfg))

    @pytest.mark.parametrize("setting", ["met: 0", "met: .nan", "v_cab: .inf"])
    def test_bad_comfort_setting_exit_code(self, tmp_path, setting, capsys):
        cfg = tmp_path / "comfort.yaml"
        cfg.write_text(f"comfort: {{{setting}}}\n", encoding="utf-8")
        rc = main(["solve", "--config", str(cfg), "--t-inf-c", "0", "--month", "1"])
        assert rc == 2
        field = setting.split(":")[0]
        assert f"{field} must be finite and positive" in capsys.readouterr().err

    def test_non_finite_cop_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cop.yaml"
        cfg.write_text("hvac: {heating_cop: [[0, .nan]]}\n", encoding="utf-8")
        rc = main(["solve", "--config", str(cfg), "--t-inf-c", "0", "--month", "1"])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("climate, message", [
        ("service_hour_start: 23, service_hour_end: 5", "start before end, got 23 and 5"),
        ("door_beta_a: 0", "door_beta_a must be positive")])
    def test_bad_climate_exit_code(self, tmp_path, climate, message, capsys):
        cfg = tmp_path / "climate.yaml"
        cfg.write_text(f"climate: {{{climate}}}\n", encoding="utf-8")
        rc = main(["gen", "--config", str(cfg), "--n", "5", "--out", str(tmp_path / "g")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ("climate: {monthly_mean_C: 5}", "climate.monthly_mean_C must be a list of numbers"),
        ("materials: {k_body: abc}", "materials.k_body must be a number"),
        ("materials: 5", "materials must be a mapping")])
    def test_wrong_type_exit_code(self, tmp_path, setting, message, capsys):
        cfg = tmp_path / "typed.yaml"
        cfg.write_text(f"{setting}\n", encoding="utf-8")
        rc = main(["gen", "--config", str(cfg), "--n", "5", "--out", str(tmp_path / "g")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad2.yaml"
        cfg.write_text("materiels: {}\n", encoding="utf-8")
        rc = main(["solve", "--config", str(cfg), "--t-inf-c", "0",
                   "--month", "1"])
        assert rc == 2

    def test_bad_data_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,month\nx,1\n", encoding="utf-8")
        rc = main(["monthly", "--scenarios", str(path),
                   "--out", str(tmp_path / "o"), "--jobs", "1"])
        assert rc == 3

    def test_short_row_exit_code(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("id,month,T_inf_C,I_dni,I_dhi,beta_deg,N_pass,zeta_door,zeta_sh\n"
                        "short,6,22.5,600,90,40,25\n", encoding="utf-8")
        rc = main(["monthly", "--scenarios", str(path),
                   "--out", str(tmp_path / "o"), "--jobs", "1"])
        assert rc == 3
        assert "line 2: fewer fields than the 9 of the header" in capsys.readouterr().err

    def test_non_finite_scenario_value_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("id,month,T_inf_C,I_dni,I_dhi,beta_deg,N_pass,zeta_door,zeta_sh\n"
                        "hot,6,inf,600,90,40,25,0.08,0.25\n", encoding="utf-8")
        rc = main(["monthly", "--scenarios", str(path),
                   "--out", str(tmp_path / "o"), "--jobs", "1"])
        assert rc == 3
        assert "T_inf must be finite" in capsys.readouterr().err
        rc = main(["solve", "--t-inf-c", "inf", "--month", "1"])
        assert rc == 2
        assert "T_inf must be finite" in capsys.readouterr().err

    def test_missing_scenarios_is_data_error(self, tmp_path):
        rc = main(["monthly", "--out", str(tmp_path / "o"), "--jobs", "1"])
        assert rc == 3

    def test_psi_tgt_rh_auto_keeps_the_cheaper_branch(self, tmp_path, capsys):
        # a PMV target is the window [T, T], solved like any other window
        cfg = tmp_path / "rh.yaml"
        cfg.write_text("radiant_heaters: {enabled: true}\n", encoding="utf-8")
        args = ["solve", "--t-inf-c", "-8", "--n-pass", "30", "--month", "1",
                "--psi-tgt", "-0.5", "--config", str(cfg)]
        p_tot = {}
        for rh in ("auto", "on", "off"):
            assert main(args + ["--rh", rh]) == 0
            out = capsys.readouterr().out
            assert "mean PMV = -0.5000" in out
            p_tot[rh] = float(re.search(r"P_tot = (\S+) W", out).group(1))
        assert p_tot["auto"] == min(p_tot["on"], p_tot["off"])

    def test_psi_tgt_excludes_window(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--t-inf-c", "0", "--month", "1", "--psi-tgt", "0",
                  "--window=-1,1"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["monthly", "--jobs", "1", "--solver", "opt"],
        ["sensitivity", "--params", "k_body", "--jobs", "1", "--solver", "opt"],
        ["gen", "--n", "10", "--jobs", "2"],
        ["solve", "--t-inf-c", "0", "--month", "1", "--jobs", "2"],
    ], ids=["monthly-solver", "sensitivity-solver", "gen-jobs", "solve-jobs"])
    def test_flag_the_command_does_not_read_exit_code(self, command, scenario_file,
                                                      tmp_path, capsys):
        scenarios = ["--scenarios", scenario_file] if command[0] in (
            "monthly", "sensitivity") else []
        with pytest.raises(SystemExit) as exc:
            main(command + scenarios + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_code(self, tmp_path, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monthly", "--out", str(tmp_path / "o"), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["1", "a,b", "1,2,3"])
    def test_bad_solve_window_exit_code(self, window, capsys):
        rc = main(["solve", "--t-inf-c", "0", "--month", "1", "--window", window])
        assert rc == 2
        assert "PMV window" in capsys.readouterr().err

    def test_bad_monthly_window_exit_code(self, scenario_file, tmp_path, capsys):
        rc = main(["monthly", "--scenarios", scenario_file, "--out", str(tmp_path / "o"),
                   "--window", "a,b", "--jobs", "1"])
        assert rc == 2
        assert "PMV window" in capsys.readouterr().err

    def test_bad_inline_month_exit_code(self, capsys):
        rc = main(["solve", "--t-inf-c", "0", "--month", "13"])
        assert rc == 2
        assert "month must be 1..12" in capsys.readouterr().err

    def test_unreadable_scenarios_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.csv"
        rc = main(["monthly", "--scenarios", str(missing), "--out", str(tmp_path / "o"),
                   "--jobs", "1"])
        assert rc == 3
        assert str(missing) in capsys.readouterr().err

    def test_binary_scenarios_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(bytes(range(128, 256)))
        rc = main(["monthly", "--scenarios", str(path), "--out", str(tmp_path / "o"),
                   "--jobs", "1"])
        assert rc == 3
        assert str(path) in capsys.readouterr().err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "10", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_evaluation_error_is_solver_failure(self, monkeypatch, capsys):
        from cabintherm import cli
        from cabintherm.errors import EvaluationError

        def failing(*args, **kwargs):
            raise EvaluationError("PMV iteration did not converge")

        monkeypatch.setattr(cli, "solve_best", failing)
        rc = main(["solve", "--t-inf-c", "-8", "--n-pass", "30", "--month", "1"])
        assert rc == 4
        assert "solver failure" in capsys.readouterr().err

    def test_env_var_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "env.yaml"
        cfg.write_text("comfort: {psi_min: -0.5, psi_max: 0.5}\n", encoding="utf-8")
        monkeypatch.setenv("CABINTHERM_CONFIG", str(cfg))
        rc = main(["solve", "--t-inf-c", "18", "--n-pass", "5", "--month", "5"])
        assert rc == 0
