"""End-to-end command-line tests, run in-process through main()."""
import argparse
import copy
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ionrep
import ionrep.cli as cli_module
import ionrep.figures as figures_module
import ionrep.mcsim as mcsim_module
import ionrep.optimize as optimize_module
from ionrep import ChainLayout, Constraints, HardwareProfile, evaluate_rate
from ionrep.cli import (
    _FIELDS, DEFAULTS, FORMATS, CliError, build_parser, load_config, main, make_bounds,
    make_hardware, make_l_grid)
from ionrep.figures import CSV_COLUMNS
from ionrep.optimize import MAX_L_POINTS, SearchBounds

SWEEP_HEADER = ",".join(CSV_COLUMNS) + ",infeasible_reason"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RATE_ARGS = ("rate", "--l-km", "150", "--n", "87", "--spatial-mux", "10",
             "--time-mux", "22")


class TestRate:
    def test_headline_text(self, capsys):
        code, out, _ = run(capsys, *RATE_ARGS)
        assert code == 0
        assert "result.noisy_rate: 19997.904" in out
        assert "result.regime: B2" in out

    def test_headline_json(self, capsys):
        code, out, _ = run(capsys, *RATE_ARGS, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec_version"] == "1"
        assert doc["command"] == "rate"
        assert doc["result"]["noisy_rate"] == 19997.904
        assert doc["result"]["n_o"] == 170
        assert doc["result"]["n_m"] == 44

    def test_csv_and_json_carry_identical_values(self, capsys):
        _, jtext, _ = run(capsys, *RATE_ARGS, "--format", "json")
        _, ctext, _ = run(capsys, *RATE_ARGS, "--format", "csv")
        result = json.loads(jtext)["result"]
        header, row = [line.split(",") for line in ctext.strip().split("\n")]
        for key, cell in zip(header, row):
            jval = result[key.removeprefix("result.")]
            if isinstance(jval, float):
                assert float(cell) == jval
            elif isinstance(jval, bool):
                assert cell == ("true" if jval else "false")
            else:
                assert cell == str(jval)

    def test_matches_library_evaluation(self, capsys):
        _, out, _ = run(capsys, "rate", "--l-km", "80", "--n", "0",
                        "--spatial-mux", "1", "--time-mux", "1",
                        "--format", "json")
        doc = json.loads(out)
        report = evaluate_rate(ChainLayout(80.0, 0, 1, 1), HardwareProfile())
        assert doc["result"]["noisy_rate"] == float(f"{report.noisy_rate:.9g}")
        assert doc["result"]["denominator_steps"] == float(
            f"{report.denominator_steps:.9g}")

    def test_bad_hardware_names_field(self, capsys):
        code, _, err = run(capsys, *RATE_ARGS, "--eta-c", "1.5")
        assert code == 2
        assert "eta_c" in err

    @pytest.mark.parametrize("args, fields", [
        # each field is in range, but the swap survival factor is negative
        (("optimize", "--eps-g", "0.9", "--f0", "0.3"), ["eps_g", "f0"]),
        # argparse's float accepts these
        (("optimize", "--l-km", "nan"), ["layout.l_km"]),
        (RATE_ARGS + ("--tau-us", "inf"), ["hardware.tau_us"]),
        # finite clocks too short for finite step counts tau_g/tau and T/tau
        (("optimize", "--tau-us", "5e-318", "--n-max", "3", "--m-max", "3"),
         ["hardware.tau_us"]),
        (("simulate", "--tau-us", "5e-318", "--tau-g-us", "5e-318", "--n", "3",
          "--time-mux", "3"), ["hardware.tau_us"]),
        # an n_max cap keeps the candidate rows from asking for gigabytes
        (("optimize", "--n-max", "1073741824", "--m-max", "1"), ["bounds.n_max"]),
        # an m_max past 2**30 ended in an OverflowError traceback, or wrapped
        # the int64 evaluation count where tau_m covers every block
        (("optimize", "--m-max", str(2 ** 70)), ["bounds.m_max"]),
        (("optimize", "--m-max", str(2 ** 63 - 1), "--tau-m-us", "1e300"), ["bounds.m_max"]),
        # finite step counts past 2**31 would wrap the int64 ion budgets
        (("optimize", "--tau-us", "1e-300", "--n-max", "3", "--m-max", "3"),
         ["hardware.tau_us"]),
        # a chain whose heralding time T overflows by itself
        (("rate", "--l-km", "1.7e308", "--n", "0", "--time-mux", "1"), ["layout.l_km"]),
        # a link whose heralding time overflows, though classify counts no steps
        (("classify", "--l-km", "1.7e308", "--n", "0"), ["layout.l_km"]),
        (("classify", "--l0-km", "1.7e308"), ["l0_km"]),
        # a heralding time finite in seconds but not in microseconds
        (("classify", "--l0-km", "5e307"), ["l0_km"]),
        # step counts T/tau and tau_g/tau that round to 0 whole steps
        (("simulate", "--n", "1", "--time-mux", "2", "--l-km", "1e-300"),
         ["layout.l_km or hardware.tau_us", "k_steps=0"]),
        (("simulate", "--n", "1", "--time-mux", "2", "--tau-us", "1e6", "--tau-g-us", "1e-4"),
         ["config field hardware.tau_us:", "j_steps=0"]),
    ])
    def test_out_of_domain_flags_name_the_field(self, capsys, args, fields):
        code, _, err = run(capsys, *args)
        assert code == 2
        assert err.count("\n") == 1
        assert all(field in err for field in fields)
        code, out, err = run(capsys, *args, "--format", "json")
        error = json.loads(out)["error"]
        assert (code, err, error["kind"]) == (2, "", "config")
        assert all(field in error["message"] for field in fields)

    def test_missing_layout_field(self, capsys):
        code, _, err = run(capsys, "rate", "--l-km", "150",
                           "--spatial-mux", "10", "--time-mux", "22")
        assert code == 2
        assert "layout.n" in err


class TestConfigFile:
    def test_unknown_key_rejected_with_path(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"hardware": {"bogus": 1}}')
        code, _, err = run(capsys, "rate", "--config", str(path))
        assert code == 2
        assert "hardware.bogus" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "rate", "--config", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_wrong_type_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"bounds": {"n_max": "lots"}}')
        code, _, err = run(capsys, "optimize", "--config", str(path))
        assert code == 2
        assert "bounds.n_max" in err

    @pytest.mark.parametrize("doc, field", [
        # json accepts these non-finite literals
        ('{"layout": {"l_km": Infinity}}', "layout.l_km"),
        ('{"hardware": {"f0": NaN}}', "hardware.f0"),
        ('{"sweep": {"l_list_km": [10, -Infinity]}}', "sweep.l_list_km"),
    ])
    def test_non_finite_numbers_rejected(self, capsys, tmp_path, doc, field):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        code, _, err = run(capsys, "optimize", "--config", str(path))
        assert code == 2
        assert field in err

    @pytest.mark.parametrize("doc, key", [
        ('{"bogus": 1}', "bogus"),
        ('{"hardware.eta_c": 0.5}', "hardware.eta_c"),  # not a section
        ('{"layout": {"eta_c": 0.5}}', "layout.eta_c"),
        ('{"threads": 2}', "threads"),  # removed: sweeps run on the calling thread
    ])
    def test_keys_outside_the_schema_rejected(self, capsys, tmp_path, doc, key):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        code, _, err = run(capsys, "rate", "--config", str(path))
        assert code == 2
        assert f"unknown config key: {key}\n" in err

    def test_non_utf8_file_blames_the_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "rate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("ionrep rate: error: config is not valid UTF-8: ")
        assert err.count("\n") == 1
        code, out, err = run(capsys, "rate", "--config", str(path), "--format", "json")
        assert code == 2
        assert err == ""
        error = json.loads(out)["error"]
        assert error["kind"] == "config"
        assert error["message"].startswith("config is not valid UTF-8: ")

    def test_section_that_is_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"hardware": 5}')
        code, out, err = run(capsys, "rate", "--config", str(path))
        assert (code, out, err) == (
            2, "", "ionrep rate: error: config section hardware must be an object\n")

    def test_unreadable_config_path(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, "rate", "--config", str(path))
        assert (code, out, err) == (
            2, "", "ionrep rate: error: cannot read config: [Errno 2] No such file "
                   f"or directory: {str(path)!r}\n")

    def test_flag_beats_file_beats_default(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"layout": {"l_km": 150.0, "n": 87, "time_mux": 22}}))
        _, out, _ = run(capsys, "rate", "--config", str(path))
        assert "19997.904" in out  # file value m=22, default M=10
        _, out, _ = run(capsys, "rate", "--config", str(path),
                        "--time-mux", "25")
        assert "20824.4838" in out  # flag override m=25


class TestOptimize:
    def test_headline_json(self, capsys):
        code, out, _ = run(capsys, "optimize", "--l-km", "150",
                           "--spatial-mux", "10", "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["n_opt"], result["m_opt"]) == (88, 25)
        assert result["report"]["noisy_rate"] == 20824.552
        assert result["boundary_hit_n"] is False
        assert result["evaluations"] == 1202000

    def test_infeasible_is_machine_readable(self, capsys):
        code, out, _ = run(capsys, "optimize", "--l-km", "150",
                           "--spatial-mux", "10", "--n-o-max", "5",
                           "--format", "json")
        assert code == 3
        error = json.loads(out)["error"]
        assert error["kind"] == "infeasible"
        assert error["binding"] == ["n_o_max"]

    def test_infeasible_text_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "optimize", "--l-km", "150",
                             "--spatial-mux", "10", "--n-o-max", "5")
        assert code == 3
        assert out == ""
        assert "n_o_max" in err

    def test_conflicting_pins_are_config_errors(self, capsys):
        code, _, err = run(capsys, "optimize", "--l-km", "150",
                           "--spatial-mux", "10", "--fixed-n", "10",
                           "--fixed-l0-km", "15")
        assert code == 2
        assert "fixed" in err


class TestSweep:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "sweep", "--l-list-km", "50,100,150",
                           "--format", "csv")
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == SWEEP_HEADER
        assert len([l for l in lines if l]) == 4
        assert "\r" not in out
        last = lines[3].split(",")
        assert last[0] == "150"
        assert float(last[1]) == 20824.552
        assert float(last[7]) == 14434.1687

    def test_infeasible_rows_are_flagged_not_fatal(self, capsys):
        # a reason holds one comma per constraint that removed points: the CSV
        # quotes it, so every row still parses to the header's fields
        for caps, removers in ((("--n-o-max", "5"), ["n_o_max"]),
                               (("--n-o-max", "1", "--tau-m-us", "100"), ["n_o_max", "tau_m"])):
            args = ("sweep", "--l-list-km", "50,100", *caps)
            code, out, _ = run(capsys, *args, "--format", "csv")
            assert code == 0
            header, *rows = csv.reader(io.StringIO(out))
            assert ",".join(header) == SWEEP_HEADER
            assert [len(cells) for cells in rows] == [9, 9]
            _, jtext, _ = run(capsys, *args, "--format", "json")
            reasons = [row["infeasible_reason"] for row in json.loads(jtext)["rows"]]
            assert [cells[-1] for cells in rows] == reasons
            for cells in rows:
                assert cells[1] == "nan"
                assert [r for r in ("n_o_max", "n_m_max", "tau_m") if r in cells[-1]] == removers
                assert cells[-1].count(",") == len(removers)

    def test_plob_underflow_is_its_limit(self, capsys):
        # past ~16,200 km the transmissivity underflows to 0.0: PLOB is 0
        code, out, err = run(capsys, "sweep", "--l-list-km", "100,17000",
                             "--format", "csv")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["100", "17000"]
        assert float(rows[0][7]) > 0.0
        assert rows[1][7] == "0"
        assert rows[1][-1] == ""  # feasible: the chain still has a rate
        assert float(rows[1][1]) > 0.0

    @pytest.mark.parametrize("grid", ["0,10", "50,10"])
    def test_bad_distance_list_names_the_field(self, capsys, grid):
        code, _, err = run(capsys, "sweep", "--l-list-km", grid)
        assert code == 2
        assert "config field sweep.l_list_km must be positive and strictly " \
               "increasing" in err

    def test_malformed_distance_list_names_the_form(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--l-list-km", "10,,20"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "ionrep sweep: error: argument --l-list-km: expected KM[,KM...], got '10,,20'")

    def test_step_count_past_the_cap_blames_l_max_km(self, capsys):
        code, out, err = run(capsys, "sweep", "--l-min-km", "10", "--l-max-km", "1e12",
                             "--l-step-km", "5e11")
        assert (code, out) == (2, "")
        assert err == ("ionrep sweep: error: config field sweep.l_max_km or hardware.tau_us: "
                       "tau=1e-06 s is too short for total_distance_km=5e+11 km: the step "
                       "count T/tau=2.4517e+12 must be at most 2**31\n")

    # only a config file can give an empty list; figure fails before writing
    @pytest.mark.parametrize("args", [("sweep",), ("figure", "fig7")])
    def test_empty_distance_list_names_the_field(self, capsys, tmp_path, args):
        path = tmp_path / "cfg.json"
        path.write_text('{"sweep": {"l_list_km": []}}')
        code, _, err = run(capsys, *args, "--config", str(path))
        assert code == 2
        assert err == (f"ionrep {args[0]}: error: config field sweep.l_list_km must "
                       "be positive and strictly increasing, got []\n")

    # 10 + i * 1e-300 == 10 never passes l_max_km; 1e-6 is ~5e8 distances
    @pytest.mark.parametrize("args", [("sweep", "--l-step-km", "1e-300"),
                                      ("figure", "fig7", "--l-step-km", "1e-6",
                                       "--out-dir", "figs")])
    def test_grid_too_fine_names_the_field(self, capsys, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith(f"ionrep {args[0]}: error: config field "
                              "sweep.l_step_km=")
        assert err.endswith(f"the grid would have more than {MAX_L_POINTS} "
                            "distances\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []  # figure failed before writing
        code, out, err = run(capsys, *args, "--format", "json")
        assert (code, err) == (2, "")
        error = json.loads(out)["error"]
        assert error["kind"] == "config"
        assert "sweep.l_step_km" in error["message"]

    def test_grid_cap_is_exact(self):
        cfg = copy.deepcopy(DEFAULTS)
        assert make_l_grid(cfg) == [10.0 + i * 10.0 for i in range(50)]
        cfg["sweep"].update(l_min_km=1.0, l_max_km=float(MAX_L_POINTS), l_step_km=1.0)
        assert make_l_grid(cfg) == [1.0 + i for i in range(MAX_L_POINTS)]
        cfg["sweep"]["l_max_km"] += 1.0
        with pytest.raises(CliError, match="sweep.l_step_km"):
            make_l_grid(cfg)


class TestClassify:
    @pytest.mark.parametrize("l0_km, regime", [
        ("1.7", "B2"), ("12", "A"), ("0.001", "C2"),
    ])
    def test_regimes_with_path(self, capsys, l0_km, regime):
        code, out, _ = run(capsys, "classify", "--l0-km", l0_km)
        assert code == 0
        assert out.strip().split("\n")[-1] == f"regime: {regime}"
        assert "T >= tau_o" in out

    def test_json_shape(self, capsys):
        _, out, _ = run(capsys, "classify", "--l0-km", "1.7",
                        "--format", "json")
        doc = json.loads(out)
        assert doc["regime"] == "B2"
        assert doc["path"][-1] == "regime B2"
        assert len(doc["path"]) == 4

    @pytest.mark.parametrize("l0_km", ["-1", "0", "inf", "nan"])
    def test_link_length_must_be_positive_and_finite(self, capsys, l0_km):
        code, out, err = run(capsys, "classify", "--l0-km", l0_km)
        assert (code, out, err) == (
            2, "", "ionrep classify: error: l0_km must be positive and finite, "
                   f"got {float(l0_km)}\n")

    def test_layout_fallback(self, capsys):
        # 150 km over 88 links is the 1.7-km headline spacing
        _, out, _ = run(capsys, "classify", "--l-km", "150", "--n", "87")
        assert out.strip().split("\n")[-1] == "regime: B2"


class TestSimulate:
    SIM = ("simulate", "--l-km", "30", "--n", "2", "--spatial-mux", "2",
           "--time-mux", "3", "--num-blocks", "20000")

    def test_fixed_seed_reproduces_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, *self.SIM, "--seed", "11",
                             "--format", "json", "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_calls_in_one_process_are_independent(self, capsys):
        # one parser serves every call: a flag of one call must not reach the next
        build_parser.cache_clear()
        _, fresh, _ = run(capsys, *self.SIM, "--format", "json")
        _, seeded, _ = run(capsys, *self.SIM, "--seed", "5", "--format", "json")
        _, after, _ = run(capsys, *self.SIM, "--format", "json")
        assert seeded != fresh
        assert after == fresh

    def test_negative_seed_names_field(self, capsys):
        code, _, err = run(capsys, *self.SIM, "--seed", "-1")
        assert code == 2
        assert "seed must be >= 0" in err

    def test_negative_pool_names_field_on_one_line(self, capsys):
        code, _, err = run(capsys, *self.SIM, "--n-comm-ions", "-1")
        assert code == 2
        assert err.count("\n") == 1
        assert "n_comm_ions must be >= 0" in err

    def test_spatial_mux_past_one_draw_row_names_field(self, capsys):
        code, _, err = run(capsys, "simulate", "--spatial-mux", "131073", "--n", "0",
                           "--time-mux", "1", "--num-blocks", "1")
        assert code == 2
        assert err.count("\n") == 1
        assert "spatial_mux must be <= 131072" in err

    def test_seed_changes_outcome(self, capsys):
        _, one, _ = run(capsys, *self.SIM, "--seed", "11", "--format", "json")
        _, two, _ = run(capsys, *self.SIM, "--seed", "12", "--format", "json")
        s1 = json.loads(one)["result"]["empirical_block_success"]
        s2 = json.loads(two)["result"]["empirical_block_success"]
        assert s1 != s2

    def test_validate_passes_on_consistent_physics(self, capsys):
        code, out, _ = run(capsys, *self.SIM, "--num-blocks", "100000",
                           "--validate", "--format", "json")
        assert code == 0
        verdict = json.loads(out)["validation"]
        assert verdict["passed"] is True
        assert abs(verdict["z_score"]) < 3

    def test_validate_fails_on_wrong_physics(self, capsys):
        code, out, _ = run(capsys, *self.SIM, "--p-override", "0.3",
                           "--validate", "--format", "json")
        assert code == 4
        assert json.loads(out)["validation"]["passed"] is False

    def test_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "simulate", "--l-km", "8", "--n", "1",
                           "--spatial-mux", "3", "--time-mux", "4",
                           "--p-override", "1.0", "--num-blocks", "5",
                           "--trace", str(trace), "--format", "json")
        assert code == 0
        lines = trace.read_text().split("\n")
        assert lines[0] == "step,node,event,count"
        assert json.loads(out)["trace_path"] == str(trace)


class TestFigure:
    LABEL_PART = r"(?:^|_)(M|Nomax|Nmmax|L0_|tau|eps)([\d.e-]+?)(?:km|us)?(?=_|$)"

    def test_each_label_names_its_curves_settings(self):
        # a CSV's name is its curve's label, so Nomax125 must be the 125-ion cap
        noise = HardwareProfile().noise
        for _, curves in figures_module.FIGURES.values():
            for curve in curves:
                cons, hw = curve.constraints or Constraints(), curve.hw_overrides
                settings = {"M": curve.spatial_mux, "Nomax": cons.n_o_max,
                            "Nmmax": cons.n_m_max, "L0_": cons.fixed_l0_km,
                            "tau": hw.get("tau", 1e-6) * 1e6,
                            "eps": hw.get("eps_g", noise.eps_g)}
                named = re.findall(self.LABEL_PART, curve.label)
                assert named, curve.label
                for key, value in named:
                    assert settings[key] == pytest.approx(float(value)), curve.label

    def test_writes_one_csv_per_curve(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figure", "fig7", "--l-list-km", "50,100",
                           "--out-dir", str(tmp_path), "--format", "json")
        assert code == 0
        files = json.loads(out)["files"]
        assert [f.rsplit("/", 1)[-1] for f in files] == [
            "fig7_M1.csv", "fig7_M5.csv", "fig7_M10.csv"]
        for f in files:
            with open(f, encoding="utf-8") as csv_file:
                header = csv_file.readline().strip()
            assert header == ",".join(CSV_COLUMNS)

    def test_deterministic_bytes(self, capsys, tmp_path):
        run(capsys, "figure", "fig7", "--l-list-km", "50,100",
            "--out-dir", str(tmp_path / "one"))
        run(capsys, "figure", "fig7", "--l-list-km", "50,100",
            "--out-dir", str(tmp_path / "two"))
        one = (tmp_path / "one" / "fig7_M10.csv").read_bytes()
        two = (tmp_path / "two" / "fig7_M10.csv").read_bytes()
        assert one == two

    # the stdout document is a contract; files are paths under --out-dir
    @pytest.mark.parametrize("fig_ids, style, doc", [
        pytest.param(("fig7",), "json",
         '{\n  "spec_version": "1",\n  "command": "figure",\n'
         '  "figure": "fig7",\n'
         '  "description": "rate vs distance with 10x slower gates",\n'
         '  "files": [\n    "figs/fig7_M1.csv",\n    "figs/fig7_M5.csv",\n'
         '    "figs/fig7_M10.csv"\n  ]\n}\n', id="fig7-json"),
        pytest.param(("fig7",), "text",
         "figure: fig7\ndescription: rate vs distance with 10x slower gates\n"
         "files: figs/fig7_M1.csv\nfiles: figs/fig7_M5.csv\n"
         "files: figs/fig7_M10.csv\n", id="fig7-text"),
        pytest.param(("fig8", "fig7"), "json",
         '{\n  "spec_version": "1",\n  "command": "figure",\n'
         '  "figure": "fig8 fig7",\n'
         '  "description": "rate vs distance at fixed repeater spacing; '
         'rate vs distance with 10x slower gates",\n'
         '  "files": [\n    "figs/fig8_L0_2km.csv",\n    "figs/fig8_L0_5km.csv",\n'
         '    "figs/fig8_L0_10km.csv",\n    "figs/fig8_L0_20km.csv",\n'
         '    "figs/fig7_M1.csv",\n    "figs/fig7_M5.csv",\n'
         '    "figs/fig7_M10.csv"\n  ]\n}\n', id="fig8-fig7-json"),
    ])
    def test_stdout_document_is_pinned(self, capsys, tmp_path, monkeypatch,
                                       fig_ids, style, doc):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "figure", *fig_ids, "--l-list-km", "50",
                             "--out-dir", "figs", "--format", style)
        assert (code, out, err) == (0, doc, "")

    def test_unknown_id_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    @pytest.mark.parametrize("fig_ids", [("fig2", "fig99"), ("all", "fig99"), ()])
    def test_every_id_is_checked(self, capsys, fig_ids):
        with pytest.raises(SystemExit) as exit_:
            main(["figure", *fig_ids])
        assert exit_.value.code == 2

    # a small grid keeps the 59 curves cheap; the sharing does not depend on it
    FAST = ("--l-list-km", "50,150", "--n-max", "60", "--m-max", "200")

    @staticmethod
    def count_solves(monkeypatch) -> list:
        """The (l_list, bounds, variants) of each shared row solve."""
        calls = []
        real = optimize_module._solve

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize_module, "_solve", counting)
        return calls

    def test_all_matches_one_call_per_id(self, capsys, tmp_path, monkeypatch):
        calls = self.count_solves(monkeypatch)
        code, out, _ = run(capsys, "figure", "all", *self.FAST,
                           "--out-dir", str(tmp_path / "all"), "--format", "json")
        assert code == 0
        # 7 row solves for the 23 distinct (spatial_mux, hardware, constraints):
        # one per clock, gate time and pinning, whatever the spatial_mux
        assert len(calls) == 7
        assert sum(len(variants) for _, _, variants in calls) == 23
        assert json.loads(out)["figure"] == "fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9"
        # the ids one at a time solve again: `all` is held under its own variant set
        solves = []
        for fig_id in sorted(figures_module.FIGURES):
            before = len(calls)
            assert run(capsys, "figure", fig_id, *self.FAST,
                       "--out-dir", str(tmp_path / "each"))[0] == 0
            solves.append(len(calls) - before)
        # fig2 solves the nine sweeps that fig3-fig6 read from the store;
        # 1 for fig7, 4 for fig8 (one per l0) and 2 for fig9 (one per clock)
        assert solves == [1, 0, 0, 0, 0, 1, 4, 2]
        names = sorted(p.name for p in (tmp_path / "all").iterdir())
        assert len(names) == 59
        assert names == sorted(p.name for p in (tmp_path / "each").iterdir())
        for name in names:
            assert ((tmp_path / "all" / name).read_bytes()
                    == (tmp_path / "each" / name).read_bytes()), name

    def test_a_repeated_call_solves_nothing(self, capsys, tmp_path, monkeypatch):
        calls = self.count_solves(monkeypatch)
        first = tmp_path / "first"
        assert run(capsys, "figure", "fig2", "fig3", *self.FAST,
                   "--out-dir", str(first))[0] == 0
        # one solve for the three spatial_mux values at three noise levels each
        assert [len(variants) for _, _, variants in calls] == [9]
        fig2 = {p.name: p.read_bytes() for p in first.glob("fig2_*")}
        assert len(fig2) == 9
        # fig2's variants are fig3's: fig2 again reads the first call's rows
        for again in ("second", "third"):
            assert run(capsys, "figure", "fig2", *self.FAST,
                       "--out-dir", str(tmp_path / again))[0] == 0
            assert len(calls) == 1
            assert {p.name: p.read_bytes() for p in (tmp_path / again).iterdir()} == fig2

    # the store itself, at a bound of a few rows: each call's rows are
    # distances x distinct variants, here two distances of one spatial_mux
    BOUNDS = SearchBounds(20, 50)

    def sweep(self, *muxes: int, ls=(50.0, 150.0)) -> dict:
        return cli_module._figure_sweeps(list(ls), [(mux, HardwareProfile(), None)
                                                    for mux in muxes], self.BOUNDS)

    @staticmethod
    def held_rows() -> int:
        return sum(len(grid) * len(variants) for grid, _, variants in cli_module._held)

    def test_a_call_over_the_bound_holds_and_evicts_nothing(self, monkeypatch):
        monkeypatch.setattr(cli_module, "SOLVED_ROWS", 6)
        calls = self.count_solves(monkeypatch)
        self.sweep(1)
        self.sweep(5)
        for _ in range(2):  # four distances of two variants: solved each time, never held
            self.sweep(10, 50, ls=[10.0 * i for i in range(1, 5)])
        self.sweep(1)
        self.sweep(5)
        assert len(calls) == 4
        assert self.held_rows() == 4
        for _ in range(2):  # three distances of two variants, the bound itself, are held
            self.sweep(10, 50, ls=[10.0 * i for i in range(1, 4)])
        assert len(calls) == 5
        assert self.held_rows() == 6

    def test_a_failing_call_holds_nothing(self, capsys, tmp_path, monkeypatch):
        # fig9's M50 curve is past the step-count bound at 1e10 km (see
        # below): a retry solves every row key again, the one before it too
        calls = self.count_solves(monkeypatch)
        for _ in range(2):
            assert run(capsys, "figure", "fig9", "--tau-us", "100", "--tau-o-us", "5000",
                       "--l-list-km", "1e10", "--n-max", "20", "--m-max", "50",
                       "--out-dir", str(tmp_path))[0] == 2
        assert [len(variants) for _, _, variants in calls] == [6, 1, 6, 1]
        assert cli_module._held == {}

    def test_threads_share_the_store(self, monkeypatch):
        # more threads than cores, with frequent switches: every caller gets
        # the rows of a solve, and the store stays within its bound
        monkeypatch.setattr(cli_module, "SOLVED_ROWS", 4)
        muxes = [1, 5, 10, 50]
        expected = {mux: {(mux, HardwareProfile(), None): optimize_module.sweep_distance(
            [50.0, 150.0], mux, HardwareProfile(), self.BOUNDS)} for mux in muxes}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [(mux, pool.submit(self.sweep, mux)) for mux in muxes * 20]
                got = [(mux, future.result(timeout=120)) for mux, future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(rows == expected[mux] for mux, rows in got)
        assert self.held_rows() <= 4

    def test_a_rejected_override_writes_no_curve(self, capsys, tmp_path):
        # fig7's tau_g = 10 us is past tau_o = 5 us; every curve's hardware
        # is built before any sweep, so fig2's curves are not written either
        code, _, err = run(capsys, "figure", "fig2", "fig7", "--l-list-km", "50",
                           "--n-max", "20", "--m-max", "50", "--tau-o-us", "5",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "tau_o must exceed tau_g" in err
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_later_row_solve_writes_no_curve(self, capsys, tmp_path):
        # fig9's M1 and M5 curves solve at tau = 100 us; the M50 curve's
        # tau = 10 us puts 1e10 km past the step-count bound, and every
        # sweep is solved before the first CSV is written. The message names
        # that curve's own clock, not the --tau-us the user gave
        code, _, err = run(capsys, "figure", "fig9", "--tau-us", "100", "--tau-o-us", "5000",
                           "--l-list-km", "1e10", "--n-max", "20", "--m-max", "50",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert err == ("ionrep figure: error: config field sweep.l_list_km or curve "
                       "Nomax125_M50_tau10us's own tau_us=10: tau=1e-05 s is too short for "
                       "total_distance_km=1e+10 km: the step count T/tau=4.90339e+09 "
                       "must be at most 2**31\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_clock_the_curve_does_not_set_is_the_flags(self, capsys, tmp_path):
        # at tau = 1 ns every fig9 sweep is past the bound; the first to fail,
        # Nomax125_M1_tau1us, takes its clock from --tau-us
        code, _, err = run(capsys, "figure", "fig9", "--tau-us", "0.001", "--l-list-km", "1e10",
                           "--n-max", "20", "--m-max", "50", "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("ionrep figure: error: config field sweep.l_list_km or "
                              "hardware.tau_us: tau=1e-09 s is too short for ")

    def test_repeated_id_runs_once(self, capsys, tmp_path, monkeypatch):
        calls = self.count_solves(monkeypatch)
        code, out, _ = run(capsys, "figure", "fig7", "fig7", *self.FAST,
                           "--out-dir", str(tmp_path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["figure"] == "fig7"
        assert [f.rsplit("/", 1)[-1] for f in doc["files"]] == [
            "fig7_M1.csv", "fig7_M5.csv", "fig7_M10.csv"]
        assert [len(variants) for _, _, variants in calls] == [3]  # one solve, three M

    def test_curve_inventory(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figure", "fig9", "--l-list-km", "100",
                           "--out-dir", str(tmp_path), "--format", "json")
        assert code == 0
        names = [f.rsplit("/", 1)[-1] for f in json.loads(out)["files"]]
        assert "fig9_Nomax125_M50_tau10us.csv" in names
        assert "fig9_Nmmax20_M5.csv" in names
        assert len(names) == 7


SIM_VALIDATE = ("simulate", "--l-km", "20", "--n", "1", "--time-mux", "6",
                "--num-blocks", "2000", "--validate")
SIM_RESULT = ("result.waits_for_herald: false\nresult.j_steps: 1\nresult.k_steps: 50\n"
              "result.p: 0.0181715715\nresult.block_steps: 57\nresult.blocks_run: 2000\n"
              "result.successes: 894\nresult.empirical_block_success: 0.447\n"
              "result.empirical_rate: 7842.10526\nresult.peak_comm_loaded: 20\n"
              "result.peak_mem_loaded: 120\nresult.peak_heralded: 7\n"
              "result.dropped_comm: 0\nresult.dropped_mem: 0\n")


class TestLibraryObjects:
    def test_defaults_are_the_library_defaults(self):
        assert make_hardware(copy.deepcopy(DEFAULTS)) == HardwareProfile()
        assert make_bounds(DEFAULTS) == SearchBounds()

    def test_microseconds_become_the_nearest_seconds(self):
        args = build_parser("rate").parse_args(["rate", "--tau-g-us", "10", "--tau-o-us",
                                                "50"])
        timing = make_hardware(load_config(None, args)).timing
        assert (timing.tau, timing.tau_g, timing.tau_o, timing.tau_m) == (1e-6, 10e-6,
                                                                          50e-6, 60.0)


# Run in a fresh interpreter, whose sys.modules no test has filled: one
# subcommand through main, then the ionrep submodules it loaded.
_LOADED_BY = """
import contextlib, io, sys
from ionrep import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exit_:  # argparse's usage errors
        code = exit_.code
print(code, *sorted(m for m in sys.modules if m.startswith("ionrep.") or m == "numpy"))
"""


def _src_env() -> dict:
    src = str(pathlib.Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def _fresh_python(code: str, *argv: str) -> list[str]:
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, check=True, env=_src_env())
    return out.stdout.split()


class TestModuleLoading:
    """Each subcommand loads only the modules it runs; `import ionrep`
    loads none, and its public names resolve on first access. numpy loads
    with the rates, so classify and the help pages run without it."""

    REPORT = ["ionrep.rates", "numpy"]
    SWEEPS = ["ionrep.figures", "ionrep.optimize", *REPORT]

    @pytest.mark.parametrize("argv, code, extra", [
        (RATE_ARGS, 0, REPORT),
        (("classify", "--l0-km", "1.7"), 0, []),
        (("optimize",), 0, ["ionrep.optimize", *REPORT]),
        (("sweep", "--l-list-km", "100,200"), 0, SWEEPS),
        (("figure", "fig8", "--l-list-km", "100", "--out-dir", "{tmp}"), 0, SWEEPS),
        (("figure", "--help"), 0, ["ionrep.figures"]),
        (("simulate", "--l-km", "20", "--n", "2", "--time-mux", "3", "--num-blocks", "100"),
         0, ["ionrep.mcsim", *REPORT]),
        ((), 2, []),
    ], ids=["rate", "classify", "optimize", "sweep", "figure", "figure-help", "simulate",
            "no-command"])
    def test_a_subcommand_loads_only_what_it_runs(self, tmp_path, argv, code, extra):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert _fresh_python(_LOADED_BY, *argv) == [
            str(code), *sorted(["ionrep.cli", "ionrep.model", *extra])]

    # (argv, exit code): every call that builds and checks parameters only
    NUMPY_FREE = [
        (("classify", "--l0-km", "1.7"), 0),
        (("classify", "--l-km", "150", "--n", "87", "--format", "json"), 0),
        (("classify", "--l0-km", "30", "--format", "csv"), 0),
        (("--help",), 0),
        (("classify", "--help"), 0),
        (("figure", "--help"), 0),
        (("classify", "--bogus"), 2),
        (("classify", "--config", "{tmp}/missing.json"), 2),
        (("classify", "--tau-us", "0"), 2),
    ]

    @pytest.mark.parametrize("argv, code", NUMPY_FREE, ids=[
        "classify-text", "classify-json", "classify-csv", "help", "classify-help",
        "figure-help", "usage-error", "missing-config", "parameter-error"])
    def test_runs_the_same_bytes_without_numpy(self, tmp_path, argv, code):
        argv = [a.format(tmp=tmp_path) for a in argv]
        blocked = ("import sys; sys.modules['numpy'] = None; "  # import numpy raises
                   "from ionrep.cli import main; sys.exit(main())")
        without, ordinary = [
            (r.returncode, r.stdout, r.stderr) for r in (
                subprocess.run([sys.executable, *how, *argv], capture_output=True,
                               env=_src_env())
                for how in (["-c", blocked], ["-m", "ionrep.cli"]))]
        assert without == ordinary
        assert without[0] == code and without[1] + without[2]  # it printed something

    def test_the_figure_table_resolves_on_first_access(self):
        assert _fresh_python("import sys, ionrep.cli as c; loaded = 'ionrep.figures' in "
                             "sys.modules; print(loaded, c.FIGURES is sys.modules["
                             "'ionrep.figures'].FIGURES)") == ["False", "True"]
        assert cli_module.FIGURES is figures_module.FIGURES
        with pytest.raises(AttributeError, match="has no attribute 'FIGURE'"):
            cli_module.FIGURE

    @pytest.mark.parametrize("style", FORMATS)
    def test_only_a_csv_call_loads_csv(self, style):
        # a plain table is one str.format call; csv.writer quotes the
        # infeasible reasons, which hold a comma
        probe = _LOADED_BY.replace('m.startswith("ionrep.") or m == "numpy"', 'm == "csv"')
        assert _fresh_python(probe, "sweep", "--l-list-km", "100", "--format", style) \
            == ["0"]
        assert _fresh_python(probe, "sweep", "--l-list-km", "100", "--n-o-max", "5",
                             "--format", style) == ["0", *(["csv"] if style == "csv" else [])]

    def test_importing_the_package_loads_no_submodule(self):
        assert _fresh_python("import sys, ionrep; print(ionrep.__version__, "
                             "*[m for m in sys.modules if m.startswith('ionrep.')])"
                             ) == [ionrep.__version__]

    def test_every_public_name_is_its_submodules_object(self):
        for name in ionrep.__all__:
            value = getattr(ionrep, name)
            home = sys.modules[ionrep._MODULE_OF[name]]
            assert value is getattr(home, name)
            # a class or function resolves to the module that defines it
            assert getattr(value, "__module__", home.__name__) == home.__name__

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'optimize_rates'"):
            ionrep.optimize_rates
        assert not hasattr(ionrep, "SweepRows")


class TestListPayloads:
    """Text repeats a list's label per item; CSV drops what sits under a list."""

    def test_classify_text_repeats_path(self, capsys):
        assert run(capsys, "classify", "--l0-km", "1.7") == (0, (
            "l0_km: 1.7\nheralding_time_us: 8.33576674\n"
            "path: T >= tau_o (8.33576674e-06 >= 5e-05): no\n"
            "path: T >= tau_g (8.33576674e-06 >= 1e-06): yes\n"
            "path: tau_o >= T + tau_g (5e-05 >= 9.33576674e-06): yes\n"
            "path: regime B2\nregime: B2\n"), "")

    def test_sweep_text_numbers_its_rows(self, capsys):
        rows = (("10", "36838.9273", "B2", 25, 18, 40, 36, "14381405.2"),
                ("200", "10941.9893", "B1", 19, 31, 20, 620, "1442.76718"),
                ("1000", "8284.90044", "B1", 99, 40, 20, 800, "1.44269504e-13"))
        labels = ("L_km", "value", "regime", "n_opt", "m_opt", "N_o", "N_m", "plob",
                  "infeasible_reason")
        text = "".join(f"rows.{i}.{label}: {value}\n" for i, row in enumerate(rows)
                       for label, value in zip(labels, row + ("",)))
        assert run(capsys, "sweep", "--l-list-km", "10,200,1000", "--n-o-max", "40") == (
            0, text, "")

    def test_simulate_text_lists_the_checks(self, capsys):
        assert run(capsys, *SIM_VALIDATE) == (0, SIM_RESULT + (
            "validation.passed: true\nvalidation.z_score: 0.161607828\n"
            "validation.expected_block_success: 0.445204053\n"
            "validation.observed_block_success: 0.447\n"
            "validation.quantization_delta_n_o: 0\n"
            "validation.checks: block success: observed 0.447 vs analytic 0.445204, "
            "z = 0.162\n"
            "validation.checks: comm peak 20 == 2M min(j, m) = 20: ok\n"
            "validation.checks: mem peak 120 <= 2Mm = 120: ok\n"
            "validation.checks: heralded peak 7 <= 2m = 12: ok\n"), "")

    def test_simulate_validate_runs_the_simulation_once(self, capsys, monkeypatch):
        calls = []
        run_sim = mcsim_module.run_protocol_sim

        def counted(config):
            calls.append(config)
            return run_sim(config)

        monkeypatch.setattr(mcsim_module, "run_protocol_sim", counted)
        code, out, _ = run(capsys, *SIM_VALIDATE)
        assert (code, len(calls)) == (0, 1)
        assert out.startswith(SIM_RESULT + "validation.passed: true\n")

    def test_simulate_csv_drops_the_checks(self, capsys):
        lines = SIM_RESULT.splitlines() + [
            "validation.passed: true", "validation.z_score: 0.161607828",
            "validation.expected_block_success: 0.445204053",
            "validation.observed_block_success: 0.447", "validation.quantization_delta_n_o: 0"]
        header, row = zip(*(line.split(": ") for line in lines))
        assert run(capsys, *SIM_VALIDATE, "--format", "csv") == (
            0, ",".join(header) + "\n" + ",".join(row) + "\n", "")

    def test_optimize_csv_flattens_the_report(self, capsys):
        assert run(capsys, "optimize", "--format", "csv") == (0, (
            "result.n_opt,result.m_opt,result.l0_km,result.evaluations,"
            "result.boundary_hit_n,result.boundary_hit_m,result.report.regime,"
            "result.report.p,result.report.heralding_time_us,result.report.j_steps,"
            "result.report.k_steps,result.report.denominator_steps,"
            "result.report.denominator_us,result.report.block_success,"
            "result.report.ideal_rate,result.report.f_end,result.report.rci,"
            "result.report.noisy_rate,result.report.n_o,result.report.n_m,"
            "result.report.n_m_is_upper_bound\n"
            "88,25,1.68539326,1202000,false,false,B2,0.0266492274,8.26414416,1,"
            "8.26414416,35.2641442,35.2641442,0.901235042,25556.6968,0.978315973,"
            "0.814837385,20824.552,168,50,false\n"), "")


# Every subcommand's flags in the order --help lists them, as flag=how it
# parses: a type, the choices, or the metavar of a string or a list.
FLAGS = {
    "rate": (
        "--config=FILE --format=text|json|csv --output=PATH "
        "--eta-c=float --eta-d=float "
        "--alpha-db-per-km=float --refractive-index=float --tau-us=float "
        "--tau-g-us=float --tau-o-us=float --tau-m-us=float --f0=float "
        "--eps-g=float --memory-margin=float --l-km=float --n=int "
        "--spatial-mux=int --time-mux=int"
    ),
    "classify": (
        "--config=FILE --format=text|json|csv --output=PATH "
        "--eta-c=float --eta-d=float "
        "--alpha-db-per-km=float --refractive-index=float --tau-us=float "
        "--tau-g-us=float --tau-o-us=float --tau-m-us=float --f0=float "
        "--eps-g=float --memory-margin=float --l-km=float --n=int "
        "--spatial-mux=int --time-mux=int --l0-km=float"
    ),
    "optimize": (
        "--config=FILE --format=text|json|csv --output=PATH "
        "--eta-c=float --eta-d=float "
        "--alpha-db-per-km=float --refractive-index=float --tau-us=float "
        "--tau-g-us=float --tau-o-us=float --tau-m-us=float --f0=float "
        "--eps-g=float --memory-margin=float --l-km=float "
        "--spatial-mux=int --n-max=int --m-max=int "
        "--n-o-max=int --n-m-max=int --fixed-l0-km=float --fixed-n=int "
        "--tau-min-us=float"
    ),
    "sweep": (
        "--config=FILE --format=text|json|csv --output=PATH "
        "--eta-c=float --eta-d=float "
        "--alpha-db-per-km=float --refractive-index=float --tau-us=float "
        "--tau-g-us=float --tau-o-us=float --tau-m-us=float --f0=float "
        "--eps-g=float --memory-margin=float "
        "--spatial-mux=int --n-max=int --m-max=int "
        "--n-o-max=int --n-m-max=int --fixed-l0-km=float --fixed-n=int "
        "--tau-min-us=float --l-min-km=float --l-max-km=float "
        "--l-step-km=float --l-list-km=KM[,KM...]"
    ),
    "figure": (
        "--config=FILE --format=text|json|csv --output=PATH "
        "--eta-c=float --eta-d=float "
        "--alpha-db-per-km=float --refractive-index=float --tau-us=float "
        "--tau-g-us=float --tau-o-us=float --tau-m-us=float --f0=float "
        "--eps-g=float --memory-margin=float --n-max=int --m-max=int "
        "--l-min-km=float --l-max-km=float --l-step-km=float "
        "--l-list-km=KM[,KM...] --out-dir=DIR"
    ),
    "simulate": (
        "--config=FILE --format=text|json|csv --output=PATH "
        "--eta-c=float --eta-d=float "
        "--alpha-db-per-km=float --refractive-index=float --tau-us=float "
        "--tau-g-us=float --tau-o-us=float --tau-m-us=float --f0=float "
        "--eps-g=float --memory-margin=float --l-km=float --n=int "
        "--spatial-mux=int --time-mux=int --num-blocks=int "
        "--n-comm-ions=int --n-mem-ions=int --p-override=float "
        "--seed=int --validate=switch --trace=FILE"
    ),
}

DEFAULTS_JSON = (
    '{"output": {"format": "text", "path": null, "dir": "."}, "hardware": '
    '{"eta_c": 0.3, "eta_d": 0.8, "alpha_db_per_km": 0.2, '
    '"refractive_index": 1.47, "tau_us": 1.0, "tau_g_us": 1.0, '
    '"tau_o_us": 50.0, "tau_m_us": 60000000.0, "f0": 0.9999, "eps_g": '
    '0.0001, "memory_margin": 10.0}, "layout": {"l_km": 150.0, "n": null,'
    ' "spatial_mux": 10, "time_mux": null}, "bounds": {"n_max": 600, '
    '"m_max": 2000}, "constraints": {"n_o_max": null, "n_m_max": null, '
    '"fixed_l0_km": null, "fixed_n": null, "tau_min_us": null}, "sweep": '
    '{"l_min_km": 10.0, "l_max_km": 500.0, "l_step_km": 10.0, "l_list_km": '
    'null}, "sim": {"num_blocks": 100000, "n_comm_ions": 0, '
    '"n_mem_ions": 0, "p_override": null}, "seed": 0}'
)


def _flag_label(action: argparse.Action) -> str:
    if action.nargs == 0:
        return "switch"
    if action.choices:
        return "|".join(action.choices)
    if action.type in (int, float):
        return action.type.__name__
    if action.type is not None:  # a comma-separated list of kilometres
        assert action.type("1,2.5") == [1.0, 2.5]
    return action.metavar


# A cheap call per subcommand that sets no flag hiding another's value:
# classify without --l0-km, sweep and figure without --l-list-km.
_GRID = ("--l-min-km", "50", "--l-max-km", "100", "--l-step-km", "50",
         "--n-max", "20", "--m-max", "20")
_BASE_CALLS = {
    "rate": ("rate", "--n", "3", "--time-mux", "4"),
    "classify": ("classify", "--n", "3"),
    "optimize": ("optimize", "--n-max", "20", "--m-max", "20"),
    "sweep": ("sweep", *_GRID),
    "figure": ("figure", "fig7", *_GRID),
    "simulate": ("simulate", "--n", "1", "--time-mux", "2", "--num-blocks", "10"),
}


def _subparser(command: str) -> argparse.ArgumentParser:
    return next(a for a in build_parser(command)._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


# (subcommand, flag) for each flag that parses a number or a list of them
_NUMERIC_FLAGS = [(command, action.option_strings[0]) for command in FLAGS
                  for action in _subparser(command)._actions
                  if action.option_strings and action.type is not None]


class TestContract:
    """The interface users and config files rely on: flags, defaults, errors."""

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_flags_per_subcommand(self, command):
        parser = build_parser(command)
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(FLAGS)
        actions = [a for a in sub.choices[command]._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
        got = " ".join(f"{a.option_strings[-1]}={_flag_label(a)}" for a in actions)
        assert got == FLAGS[command]
        for a in actions:
            [flag] = a.option_strings
            assert a.dest == ("trace_path" if flag == "--trace"
                              else flag[2:].replace("-", "_"))

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_flags_a_subcommand_does_not_read_are_rejected(self, capsys, command):
        args = [command] + (["fig7"] if command == "figure" else [])
        # layout flags that optimize and sweep once took and ignored
        unread = {"optimize": ("--n", "--time-mux"),
                  "sweep": ("--l-km", "--n", "--time-mux")}.get(command, ())
        for flag, taken in (("--threads", False), ("--seed", command == "simulate"),
                            *((flag, False) for flag in unread)):
            if taken:
                assert build_parser(command).parse_args(args + [flag, "2"]).seed == 2
                continue
            with pytest.raises(SystemExit) as exit_:
                build_parser(command).parse_args(args + [flag, "2"])
            assert exit_.value.code == 2
            assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_abbreviated_flags_are_rejected(self, capsys):
        # --time is a prefix of --time-mux only, and is still not taken for it
        with pytest.raises(SystemExit) as exit_:
            main(["rate", "--time", "22"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "unrecognized arguments" in line] == [
            "ionrep: error: unrecognized arguments: --time 22"]
        # nor by the top-level parser: --hel is not --help
        with pytest.raises(SystemExit) as exit_:
            main(["--hel"])
        assert exit_.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command, flag", _NUMERIC_FLAGS,
                             ids=[" ".join(case) for case in _NUMERIC_FLAGS])
    def test_every_numeric_flag_is_read(self, capsys, monkeypatch, tmp_path, command, flag):
        monkeypatch.chdir(tmp_path)  # figure writes its CSV files here
        base = run(capsys, *_BASE_CALLS[command])
        assert run(capsys, *_BASE_CALLS[command], flag, "-1") != base

    def test_defaults_are_frozen(self):
        assert json.dumps(DEFAULTS) == DEFAULTS_JSON

    @pytest.mark.parametrize("doc, args, field", [
        ('{"output": {"format": "json"}, "hardware": {"bogus": 1}}', (),
         "hardware.bogus"),                                     # the file
        ('{"output": {"format": "json"}}', ("--l-km", "nan"), "layout.l_km"),
        ('{"output": {"format": "json"}}', (), "layout.n"),     # the command
    ])
    def test_file_format_renders_errors(self, capsys, tmp_path, doc, args, field):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        code, out, err = run(capsys, "rate", "--config", str(path), *args)
        assert code == 2
        assert err == ""
        error = json.loads(out)["error"]
        assert error["kind"] == "config"
        assert field in error["message"]
        # the flag wins over the file
        code, out, err = run(capsys, "rate", "--config", str(path), *args,
                             "--format", "text")
        assert code == 2
        assert out == ""
        assert field in err

    def test_non_object_root_errors_as_text(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('[{"output": {"format": "json"}}]')
        code, out, err = run(capsys, "rate", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == "ionrep rate: error: config root must be a JSON object\n"

    # two bad fields: the error names the one checked first, in both formats
    @pytest.mark.parametrize("args, message", [
        (("rate", "--n", "-1", "--time-mux", "22", "--eta-c", "1.5"),
         "invalid layout config: n_repeaters must be a nonnegative integer <= 1073741824, "
         "got -1"),
        (("rate", "--l-km", "-5", "--n", "87", "--time-mux", "22", "--tau-o-us", "0.5"),
         "invalid layout config: total_distance_km must be positive, got -5.0"),
        (("rate", "--n", "3", "--time-mux", "3", "--eta-c", "1.5", "--tau-o-us", "0.5"),
         "invalid hardware config: eta_c must be in (0, 1], got 1.5"),
        (("rate", "--n", "3", "--time-mux", "3", "--tau-o-us", "0.5", "--f0", "0.1"),
         "invalid hardware config: tau_o must exceed tau_g, got tau_o=5e-07, tau_g=1e-06"),
        (("rate", "--n", "3", "--time-mux", "3", "--eps-g", "0.9", "--f0", "0.3",
          "--memory-margin", "0.5"),
         "invalid hardware config: swap survival factor 1 - 2 eps_g - (4/3)(1 - f0) is "
         "below 0 at eps_g=0.9, f0=0.3"),
        (("classify", "--n", "-1", "--eta-c", "1.5"),
         "invalid hardware config: eta_c must be in (0, 1], got 1.5"),
        (("optimize", "--eta-c", "1.5", "--n-o-max", "0"),
         "invalid hardware config: eta_c must be in (0, 1], got 1.5"),
        (("optimize", "--n-o-max", "0", "--n-max", "-1"),
         "invalid constraints config: n_o_max must be positive, got 0"),
        (("optimize", "--fixed-n", "-3", "--m-max", "0"),
         "invalid constraints config: fixed_n must be in [0, 1073741824], got -3"),
        (("optimize", "--n-max", "-1", "--m-max", "0"),
         "bounds.n_max must be in [0, 100000], got -1"),
        (("optimize", "--l-km", "-5", "--m-max", "0"), "bounds.m_max must be >= 1, got 0"),
        (("sweep", "--l-list-km", "50,100", "--n-o-max", "0", "--m-max", "0"),
         "invalid constraints config: n_o_max must be positive, got 0"),
        (("sweep", "--l-list-km", "50,100", "--fixed-n", "-3", "--n-max", "-1"),
         "invalid constraints config: fixed_n must be in [0, 1073741824], got -3"),
        (("sweep", "--l-list-km", "0,10", "--n-max", "-1"),
         "config field sweep.l_list_km must be positive and strictly increasing, "
         "got [0.0, 10.0]"),
        (("simulate", "--n", "-1", "--time-mux", "3", "--p-override", "1.5"),
         "invalid layout config: n_repeaters must be a nonnegative integer <= 1073741824, "
         "got -1"),
        (("simulate", "--n", "3", "--time-mux", "3", "--p-override", "1.5"),
         "invalid sim config: p must be in [0, 1], got 1.5"),
        (("simulate", "--n", "3", "--time-mux", "3", "--num-blocks", "0",
          "--p-override", "1.5"),
         "invalid sim config: p must be in [0, 1], got 1.5"),
        (("simulate", "--n", "3", "--time-mux", "3", "--p-override", "1.5",
          "--tau-us", "1e-9"),
         "config field layout.l_km or hardware.tau_us: tau=1e-15 s is too short for "
         "total_distance_km=150 km: the step count T/tau=7.35509e+11 must be at most 2**31"),
        (("simulate", "--n", "3", "--time-mux", "3", "--p-override", "1.5",
          "--tau-us", "1e-300"),
         "config field hardware.tau_us: tau=1e-306 s is too short: the step count "
         "tau_g/tau=1e+300 must be at most 2**31"),
        (("figure", "fig2", "--n-max", "-1"), "bounds.n_max must be in [0, 100000], got -1"),
        (("figure", "fig2", "--eta-c", "1.5", "--n-max", "-1"),
         "invalid hardware config: eta_c must be in (0, 1], got 1.5"),
        (("figure", "fig2", "--l-step-km", "0", "--n-max", "-1"),
         "config field sweep.l_step_km must be positive and finite, got 0.0"),
        (("optimize", "--l-km", "150", "--n-o-max", "100000000000000000000"),
         "invalid constraints config: n_o_max must be at most 1073741824, "
         "got 100000000000000000000"),
        (("optimize", "--l-km", "150", "--n-m-max", "100000000000000000000"),
         "invalid constraints config: n_m_max must be at most 1073741824, "
         "got 100000000000000000000"),
    ])
    def test_first_bad_field_wins(self, capsys, tmp_path, args, message):
        if args[0] == "figure":
            args += ("--out-dir", str(tmp_path / "figs"))
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (2, "", f"ionrep {args[0]}: error: {message}\n")
        code, out, err = run(capsys, *args, "--format", "json")
        assert (code, err) == (2, "")
        assert json.loads(out) == {"spec_version": "1", "command": args[0],
                                   "error": {"kind": "config", "message": message}}

    # a block that outlives the memory is infeasible, exit 3, binding tau_m
    @pytest.mark.parametrize("args, message", [
        (("rate", "--l-km", "150", "--n", "87", "--time-mux", "22", "--tau-m-us", "100"),
         "memory lifetime tau_m=0.0001 s cannot cover the block: need at least "
         "0.000323581 s (10 x 3.23581e-05 s)"),
        (("simulate", "--l-km", "20", "--n", "1", "--time-mux", "6",
          "--num-blocks", "100", "--validate", "--tau-m-us", "10"),
         "memory lifetime tau_m=1e-05 s cannot cover the block: need at least "
         "0.000560339 s (10 x 5.60339e-05 s)"),
    ])
    def test_block_past_tau_m_is_infeasible(self, capsys, args, message):
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (3, "", f"ionrep {args[0]}: error: {message}\n")
        code, out, err = run(capsys, *args, "--format", "json")
        assert (code, err) == (3, "")
        assert out == json.dumps(
            {"spec_version": "1", "command": args[0],
             "error": {"kind": "infeasible", "message": message, "binding": ["tau_m"]}},
            indent=2) + "\n"

    def test_figure_refuses_csv_before_writing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "figure", "fig2", "--format", "csv")
        assert (code, out, err) == (2, "", "ionrep figure: error: figure writes CSV "
                                           "files itself; use --format text or json\n")
        assert list(tmp_path.iterdir()) == []


# CSV cells: every type that reaches a table, numpy scalars included, and
# strings that csv.writer quotes (comma, quote, newline), may quote (CR) or
# must not treat as a template ({})
_SPECIAL_TEXT = st.text(alphabet=',"\r\n{}a', max_size=3)
_CELLS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300]),
    st.integers() | st.sampled_from([10 ** 9 + 7, -(10 ** 12), 2 ** 63]),
    st.booleans(), st.none(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.text(alphabet="ab1.-", max_size=3), _SPECIAL_TEXT)


@st.composite
def _tables(draw):
    """A header and rows of one width, often one column."""
    width = draw(st.sampled_from([1, 1, 2, 3, 9]))
    header = draw(st.tuples(*[st.text(alphabet="L_km", max_size=4) | _SPECIAL_TEXT]
                            * width))
    return header, draw(st.lists(st.tuples(*[_CELLS] * width), max_size=6))


class TestCsvText:
    """_csv_text writes the bytes of csv.writer over fmt_value, whether one
    str.format call renders the table or csv.writer does."""

    @staticmethod
    def reference(header, rows) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            map(cli_module.fmt_value, row) for row in [header, *rows])
        return out.getvalue()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_tables())
    @example((("a",), [("",)]))         # csv.writer writes a lone empty cell as ""
    @example((("a",), [("b\rc",)]))     # a CR, which csv.writer may or may not quote
    @example((("a", "b"), [("{}", "{0}")]))
    @example((("a", "b"), [(True, np.True_)]))
    @example((("x",), [(np.float32(0.1),), (np.float64(-0.0),), (np.int64(2 ** 62),)]))
    def test_matches_csv_writer_over_fmt_value(self, table):
        assert cli_module._csv_text(*table) == self.reference(*table)

    def test_a_plain_table_is_one_format_call(self, monkeypatch):
        # no csv.writer: the sweep's rows without a reason to quote
        monkeypatch.setitem(sys.modules, "csv", None)  # importing csv raises
        rows = [(50.0, 27571.94, "B2", 44, 21, 111, 42, 1520030.93, ""),
                (100.0, math.nan, "", math.nan, math.nan, math.nan, math.nan, 1.5, "")]
        assert cli_module._csv_text(("L_km",) * 9, rows) == (
            "L_km,L_km,L_km,L_km,L_km,L_km,L_km,L_km,L_km\n"
            "50,27571.94,B2,44,21,111,42,1520030.93,\n100,nan,,nan,nan,nan,nan,1.5,\n")


class TestWriteErrors:
    # a path under a regular file fails with NotADirectoryError
    @pytest.mark.parametrize("args, field", [
        (RATE_ARGS + ("--output", "{file}/out.json"), "output.path"),
        (("figure", "fig7", "--l-list-km", "50", "--out-dir", "{file}/figs"),
         "output.dir"),
        (TestSimulate.SIM + ("--num-blocks", "5", "--trace", "{file}/trace.csv"),
         "--trace"),
    ])
    def test_failed_write_is_a_config_error(self, capsys, tmp_path, args, field):
        file = tmp_path / "file"
        file.write_text("")
        code, out, err = run(capsys, *(a.format(file=file) for a in args))
        assert code == 2
        assert out == ""
        assert err.startswith(f"ionrep {args[0]}: error: cannot write {field}: ")
        assert "Not a directory" in err
        assert err.count("\n") == 1


# Config documents and flags drawn from the field table. A field is absent,
# near its default, any value of its kind, or broken: a wrong type, null or a
# non-finite number. Now and then the document has an unknown key.
_SMALL = st.integers(min_value=-2, max_value=50)  # bounds stay <= 50 x 50
_NUMS = (st.floats(allow_nan=False, allow_infinity=False)
         | st.sampled_from([0.0, 1e-300, 1e300, -1.0]))
_ANY = {
    "num": _NUMS,
    "int": st.integers() | st.sampled_from([2 ** 30, 2 ** 30 + 1, 2 ** 63, 2 ** 64]),
    "str": st.text(max_size=5),
    "fmt": st.sampled_from(FORMATS),
    "numlist": st.lists(_NUMS, max_size=4),
}
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_BROKEN = (st.none() | _NON_FINITE | st.booleans() | st.text(max_size=3)
           | st.lists(st.integers(), max_size=2)
           | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _near_default(field):
    d = field.default
    if field.kind == "num":
        if d is None:
            return st.floats(0.01, 200)
        return st.sampled_from([1, 1, 1, 0.5, 2, 10]).map(lambda f: d * f)
    if field.kind == "int":
        return st.integers(0, 100 if d is None else 2 * d + 2)
    if field.kind == "numlist":
        return st.lists(st.floats(1, 500), max_size=4)
    return st.just(d) if field.kind == "str" else _ANY[field.kind]


def _value(field, pick: int):
    if field.path.startswith("bounds."):
        return _SMALL
    if field.path == "output.path":
        return st.none()  # a string would write a file
    if pick == 0:
        return _BROKEN
    return _ANY[field.kind] if pick < 3 else _near_default(field)


@st.composite
def _config_docs(draw):
    doc: dict = {}
    for field in _FIELDS:
        if draw(st.integers(0, 2)) == 0:
            section, _, key = field.path.rpartition(".")
            value = draw(_value(field, draw(st.integers(0, 29))))
            (doc.setdefault(section, {}) if section else doc)[key] = value
    if draw(st.integers(0, 19)) == 0:
        doc[draw(st.text(max_size=4))] = 1
    if "hardware" in doc and draw(st.integers(0, 19)) == 0:
        doc["hardware"][draw(st.text(max_size=4))] = 1
    return doc


_FUZZ_FLAGS = {  # command -> the fields it has a flag for, but none for a path
    command: [f for f in _FIELDS if f.kind != "str" and "--" + f.flag.replace("_", "-")
              in _subparser(command)._option_string_actions]
    for command in ("rate", "classify", "optimize")
}


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    args = [command]
    for field in _FUZZ_FLAGS[command]:
        if draw(st.integers(0, 3)):
            continue
        flag = "--" + field.flag.replace("_", "-")
        pick = draw(st.integers(1, 19))
        value = draw(_NON_FINITE if pick == 1 and field.kind == "num"
                     else _value(field, pick))  # argparse's float reads nan and inf
        args.append(f"{flag}={value!r}" if field.kind == "num" else f"{flag}={value}")
    return args, draw(_config_docs())


class TestFuzz:
    # derandomized: the same 300 examples on every run, so a failure is no flake
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_invocations())
    # inputs that once ended in a traceback or a numpy warning
    @example((["rate", "--n=18446744073709551616", "--time-mux=5"], {}))
    @example((["optimize", "--spatial-mux=4611686018427387904", "--m-max=3"], {}))
    @example((["optimize", "--fixed-l0-km=1e-300", "--m-max=3"], {}))
    @example((["optimize", "--tau-us=1e+300", "--n-max=0", "--m-max=3"], {}))
    @example((["optimize", "--tau-us=5e-318", "--n-max=3", "--m-max=3"], {}))
    @example((["optimize", "--tau-us=1e-300", "--n-max=3", "--m-max=3"], {}))
    @example((["rate", "--l-km=1.7e308", "--n=0", "--time-mux=1"], {}))
    @example((["classify", "--l-km=1.7e308", "--n=0"], {}))
    @example((["classify", "--l0-km=1.7e308"], {}))
    @example((["optimize", "--l-km=150", "--n-m-max=100000000000000000000"], {}))
    def test_every_input_ends_in_an_answer_or_one_line(self, capsys, tmp_path, case):
        args, doc = case
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # the command line would print them
            code, out, err = run(capsys, *args, "--config", str(path))
        assert code in (0, 2, 3), (code, out, err)
        assert err.count("\n") <= 1
        assert "Traceback" not in out + err
        assert [str(w.message) for w in caught] == []
