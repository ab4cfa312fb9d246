"""Command-line behavior: configs, schedules, commands, exit codes."""

import copy
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from funnelsim import cli, errors
from funnelsim.errors import ConfigError
from funnelsim.simulator import csv_number, read_csv, write_csv

import test_simulator


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def manual_cfg(trace_path=None, t_end=60.0):
    cfg = {
        "system": {"mode": "mass_on_car"},
        "reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0},
        "availability": {"generator": {"kind": "periodic", "dropout": 2.0,
                                       "window": 3.0, "start": 5.0}},
        "design": {"manual": True,
                   "funnel": {"a": 5.0, "b": 1.0, "c": 0.2}},
        "sim": {"t_end": t_end},
    }
    if trace_path is not None:
        cfg["output"] = {"trace": trace_path}
    return cfg


class TestConfig:

    def test_presets_validate(self):
        for name in cli.PRESETS:
            jsonschema.validate(cli.PRESETS[name], cli.SCHEMA)

    def test_preset_is_copied(self):
        cfg = cli.load_config(preset="scenario_b")
        cfg["sim"]["t_end"] = 1.0
        assert cli.PRESETS["scenario_b"]["sim"]["t_end"] == 60.0

    def test_needs_exactly_one_source(self):
        with pytest.raises(ConfigError):
            cli.load_config()
        with pytest.raises(ConfigError):
            cli.load_config(path="x.json", preset="scenario_a")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            cli.load_config(preset="scenario_c")

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, {"system": {"mode": "mass_on_car"},
                                    "bogus": 1})
        with pytest.raises(jsonschema.ValidationError):
            cli.load_config(path=path)

    def test_nonfinite_literal_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"system": {"mode": "mass_on_car"}, '
                     '"sim": {"t_end": Infinity}}')
        with pytest.raises(ValueError):
            cli.load_config(path=str(p))

    def test_missing_file_exit_code(self, tmp_path):
        rc = cli.main(["synthesize", "--config", str(tmp_path / "none.json"),
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_schema_passes_meta_schema(self):
        # load_config does not check SCHEMA against its meta-schema
        jsonschema.validators.validator_for(cli.SCHEMA).check_schema(
            cli.SCHEMA)

    def test_error_matches_jsonschema_validate(self, tmp_path):
        cfg = {"system": {"mode": "mass_on_car"},
               "sim": {"t_end": "long", "rtol": -1.0}}
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(cfg, cli.SCHEMA)
        with pytest.raises(jsonschema.ValidationError) as got:
            cli.load_config(path=write_cfg(tmp_path, cfg))
        assert got.value.message == want.value.message
        assert list(got.value.path) == list(want.value.path)
        assert list(got.value.schema_path) == list(want.value.schema_path)

    def test_schema_error_is_one_line(self, tmp_path, capsys):
        cfg = manual_cfg(t_end=1.0)
        cfg["design"]["funnel"]["c"] = 0
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ValidationError: 0 is less than or equal to the minimum "
            "of 0 at $.design.funnel.c"]


class TestScheduleBuilding:

    def test_periodic_generator(self):
        gen = {"kind": "periodic", "dropout": 2.0, "window": 3.0,
               "start": 5.0}
        pairs = cli._generated_pairs(gen, 60.0, None)
        assert pairs[0] == (5.0, 7.0)
        assert pairs[-1] == (55.0, 57.0)
        assert len(pairs) == 11

    def test_periodic_count_cap(self):
        gen = {"kind": "periodic", "dropout": 2.0, "window": 3.0,
               "start": 3.0, "count": 2}
        assert cli._generated_pairs(gen, 60.0, None) == [(3.0, 5.0),
                                                         (8.0, 10.0)]

    def test_from_design_requires_design(self):
        with pytest.raises(ConfigError):
            cli._generated_pairs({"kind": "from_design"}, 60.0, None)

    NONPOSITIVE_LENGTHS = [
        {"kind": "periodic", "dropout": 0.0, "window": 3.0},
        {"kind": "periodic", "dropout": 2.0, "window": -2.0},
        {"kind": "from_design", "dropout_factor": -0.5},
        {"kind": "from_design", "window_factor": 0.0},
    ]

    @pytest.mark.parametrize("gen", NONPOSITIVE_LENGTHS)
    def test_nonpositive_lengths_fail_schema(self, tmp_path, gen):
        cfg = manual_cfg()
        cfg["availability"] = {"generator": gen}
        with pytest.raises(jsonschema.ValidationError):
            cli.load_config(path=write_cfg(tmp_path, cfg))

    @pytest.mark.parametrize("gen", NONPOSITIVE_LENGTHS)
    def test_nonpositive_lengths_are_config_error(self, gen):
        # with dropout + window <= 0 the generator loop cannot advance
        dp = types.SimpleNamespace(dropout=1.0, window=1.0)
        with pytest.raises(ConfigError):
            cli._generated_pairs(gen, 60.0, dp)

    @pytest.mark.parametrize("gen", [
        # lengths that cannot move t = 5, or t = horizon
        {"kind": "periodic", "dropout": 1e-20, "window": 1e-20, "start": 5.0},
        {"kind": "periodic", "dropout": 1e-20, "window": 1e-20, "start": 60.0},
        {"kind": "periodic", "dropout": 1e-20, "window": 1e-20, "start": 5.0,
         "count": 3},
        # lengths that move t, but would lay out about 3e13 dropouts
        {"kind": "periodic", "dropout": 1e-12, "window": 1e-12},
    ])
    def test_stalled_or_oversized_generator_is_config_error(self, gen):
        with pytest.raises(ConfigError):
            cli._generated_pairs(gen, 60.0, None)

    def test_dropouts_and_generator_conflict(self):
        cfg = {"availability": {"dropouts": [[1.0, 2.0]],
                                "generator": {"kind": "periodic",
                                              "dropout": 1.0,
                                              "window": 1.0}}}
        with pytest.raises(ConfigError):
            cli.build_schedule(cfg, 10.0)

    def test_limits_from_explicit_pairs(self):
        cfg = {"availability": {"dropouts": [[2.0, 3.0], [7.5, 8.0]]}}
        longest, shortest = cli._schedule_limits(cfg)
        assert longest == 1.0
        assert shortest == 2.0          # leading window [0, 2] is shortest

    def test_limits_absent_without_schedule(self):
        assert cli._schedule_limits({}) == (None, None)


class TestSynthesizeCommand:

    def test_benchmark_report(self, tmp_path, capsys):
        rc = cli.main(["synthesize", "--preset", "scenario_a",
                       "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "design_report.txt").read_text()
        assert "Delta = " in text
        assert "chi = " in text
        assert "DISCREPANCY REPORT" in text
        assert capsys.readouterr().out == text

    def test_invalid_q_exits_3(self, tmp_path, capsys):
        cfg = manual_cfg()
        cfg["design"] = {"q": 1.2}
        rc = cli.main(["synthesize",
                       "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert "InvalidQ" in capsys.readouterr().err

    def test_manual_design_is_config_error(self, tmp_path):
        rc = cli.main(["synthesize",
                       "--config", write_cfg(tmp_path, manual_cfg()),
                       "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("b, c, code", [(2.0, 1e-4, 0), (1.0, 0.03, 3)])
    def test_funnel_template(self, tmp_path, capsys, b, c, code):
        # a synthesized design takes (b, c) from design.funnel; a is unread
        cfg = manual_cfg()
        del cfg["availability"]
        cfg["design"] = {"q": 0.95, "theta": 0.9,
                         "funnel": {"a": 1.0, "b": b, "c": c}}
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == code
        if code == 0:
            assert f"b = {b!r}\nc = {c!r}\n" in (
                tmp_path / "design_report.txt").read_text()
        else:
            assert "TemplateRejected" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One scenario-B simulation shared by the round-trip tests."""
    out = tmp_path_factory.mktemp("simout")
    rc = cli.main(["simulate", "--preset", "scenario_b", "--out", str(out)])
    assert rc == 0
    return out


class TestSimulateAndVerify:

    def test_trace_written(self, sim_dir):
        header = (sim_dir / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("t,a,tau,phi,psi,y_1,")

    def test_verify_round_trip(self, sim_dir, capsys):
        rc = cli.main(["verify", "--preset", "scenario_b",
                       "--out", str(sim_dir)])
        assert rc == 0
        report = (sim_dir / "verify_report.txt").read_text()
        lines = report.strip().splitlines()
        assert len(lines) == 3
        assert all(" PASS " in ln for ln in lines)
        assert lines[0].startswith("CHECK funnel_containment")
        assert capsys.readouterr().out == report

    def test_verify_fails_on_wrong_horizon(self, sim_dir, tmp_path):
        cfg = manual_cfg(trace_path=str(sim_dir / "trace.csv"), t_end=70.0)
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert "global_solution FAIL" in (tmp_path
                                          / "verify_report.txt").read_text()

    def test_verify_truncated_trace_exits_2(self, sim_dir, tmp_path, capsys):
        whole = (sim_dir / "trace.csv").read_text()
        cut = tmp_path / "cut.csv"
        cut.write_text(whole[:len(whole) // 2].rsplit(",", 1)[0])
        cfg = manual_cfg(trace_path=str(cut))
        rc = cli.main(["verify", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_deterministic_bytes(self, sim_dir, tmp_path):
        rc = cli.main(["simulate", "--preset", "scenario_b",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert ((tmp_path / "trace.csv").read_bytes()
                == (sim_dir / "trace.csv").read_bytes())

    def test_missing_t_end(self, tmp_path):
        cfg = manual_cfg()
        del cfg["sim"]
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("key, value", [
        ("grid_dt", 0), ("grid_dt", -1e-3), ("rtol", 0), ("rtol", -1),
        ("atol", 0), ("atol", -1)])
    def test_nonpositive_tolerance_or_grid_exits_2(self, tmp_path, capsys,
                                                   key, value):
        cfg = manual_cfg(trace_path=str(tmp_path / "trace.csv"), t_end=1.0)
        cfg["sim"][key] = value
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("key", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("value", [0.0, -0.2])
    def test_nonpositive_funnel_exits_2(self, tmp_path, capsys, key, value):
        cfg = manual_cfg(trace_path=str(tmp_path / "trace.csv"), t_end=1.0)
        cfg["design"]["funnel"][key] = value
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_oversized_grid_exits_2(self, tmp_path, capsys):
        # 1e18 grid points: refused before anything is allocated
        cfg = manual_cfg(t_end=1e9)
        del cfg["availability"]
        cfg["sim"]["grid_dt"] = 1e-9
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: ")

    def test_schedule_note_logged_once(self, tmp_path):
        # one dropout 5% beyond the designed limit: its note is logged once
        # and not also raised as a Python warning
        cfg = copy.deepcopy(cli.PRESETS["scenario_a"])
        cfg["availability"]["generator"] = {
            "kind": "from_design", "dropout_factor": 1.05, "start": 1.0,
            "count": 1}
        cfg["sim"]["t_end"] = 2.0
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "funnelsim", "simulate", "--config",
             write_cfg(tmp_path, cfg), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0
        err = run.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith("WARNING funnelsim: dropout 0 lasts ")

    @pytest.mark.parametrize("system, design, dropouts", [
        # a chain-only plant: empty internal dynamics, a manual funnel
        ({"R": [[[0.0]], [[0.0]]], "Gamma": [[1.0]],
          "Q": [[]], "S": [[]], "P": [[]]},
         manual_cfg()["design"], [[0.5, 1.0]]),
        # the benchmark plant without chain0 and eta0 starts at rest, in
        # synthesis and in the run
        ({"R": [[[0.0]], [[8.0 / 9.0]]], "Gamma": [[1.0 / 9.0]],
          "Q": [[0.0, 1.0], [-4.0, -2.0]],
          "S": [[-8.0 * math.sqrt(2.0) / 9.0, -4.0 * math.sqrt(2.0) / 9.0]],
          "P": [[2.0 * math.sqrt(2.0)], [0.0]]},
         {"q": 0.95, "theta": 0.9}, []),
    ], ids=["chain_only", "no_start_state"])
    def test_normal_form_defaults(self, tmp_path, system, design, dropouts):
        cfg = manual_cfg(t_end=2.0)
        cfg["system"] = dict(system, mode="normal_form")
        cfg["design"] = design
        cfg["availability"] = {"dropouts": dropouts}
        path = write_cfg(tmp_path, cfg)
        for command in ("simulate", "verify"):
            assert cli.main([command, "--config", path,
                             "--out", str(tmp_path)]) == 0

    def test_horizon_past_csv_precision(self, tmp_path):
        # 0.30000000000000004 needs 17 digits; the CSV keeps 12
        cfg = manual_cfg(trace_path=str(tmp_path / "trace.csv"),
                         t_end=0.1 + 0.2)
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path)]) == 0
        assert cli.main(["verify", "--config", path,
                         "--out", str(tmp_path)]) == 0
        assert "global_solution PASS" in (tmp_path
                                          / "verify_report.txt").read_text()


class TestPlotData:

    def test_files_and_dropout_gaps(self, sim_dir, tmp_path):
        rc = cli.main(["plot-data", "--trace", str(sim_dir / "trace.csv"),
                       "--out", str(tmp_path)])
        assert rc == 0
        trace = read_csv(sim_dir / "trace.csv")
        text = (tmp_path / "error_funnel.dat").read_text()
        rows = [ln for ln in text.splitlines() if ln and not
                ln.startswith("#")]
        assert len(rows) == trace.samples
        blanks = sum(1 for ln in text.splitlines() if ln == "")
        transitions = int(np.sum(trace.a[:-1] != trace.a[1:]))
        assert blanks == transitions
        # the funnel radius columns are written only while available
        for row, avail in zip(rows, trace.a):
            parts = row.split(",")
            assert (parts[2] == "") == (avail == 0)
            assert (parts[3] == "") == (avail == 0)

    def test_round_trip_12_digits(self, sim_dir, tmp_path):
        cli.main(["plot-data", "--trace", str(sim_dir / "trace.csv"),
                  "--out", str(tmp_path)])
        trace = read_csv(sim_dir / "trace.csv")
        rows = [ln.split(",") for ln in
                (tmp_path / "input.dat").read_text().splitlines()
                if ln and not ln.startswith("#")]
        t = np.array([float(r[0]) for r in rows])
        u1 = np.array([float(r[1]) for r in rows])
        assert np.array_equal(t, trace.t)
        assert np.array_equal(u1, trace.u[:, 0])

    def test_rows_match_field_formatting(self, tmp_path):
        # fields joined as csv_number writes them, radius columns empty on
        # dropout rows, one blank line after every availability change
        write_csv(test_simulator.TestCsv.edge_value_trace(),
                  tmp_path / "trace.csv")
        tr = read_csv(tmp_path / "trace.csv")
        rc = cli.main(["plot-data", "--trace", str(tmp_path / "trace.csv"),
                       "--out", str(tmp_path)])
        assert rc == 0
        gaps = np.flatnonzero(tr.a[:-1] != tr.a[1:])
        assert gaps.tolist() == [0, 1, 2, 4]

        def expected(header, row):
            lines = ["# " + ",".join(header)]
            for i in range(tr.samples):
                lines.append(",".join(row(i)))
                if i in gaps:
                    lines.append("")
            return "\n".join(lines) + "\n"

        def numbers(*vals):
            return [csv_number(v) for v in vals]

        def radius(i):
            if tr.a[i] == 0:
                return ["", ""]
            return numbers(tr.psi[i], -tr.psi[i])

        files = {
            "error_funnel.dat": expected(
                ["t", "e_norm", "psi_upper", "psi_lower"],
                lambda i: numbers(tr.t[i], tr.e_norm[i]) + radius(i)),
            "input.dat": expected(
                ["t", "u_1", "u_2", "u_norm"],
                lambda i: numbers(tr.t[i], *tr.u[i], tr.u_norm[i])),
            "internal.dat": expected(
                ["t", "eta_1", "eta_norm"],
                lambda i: numbers(tr.t[i], *tr.eta[i], tr.eta_norm[i])),
        }
        for name, text in files.items():
            assert (tmp_path / name).read_text() == text, name

    def test_empty_trace(self, sim_dir, tmp_path):
        header = (sim_dir / "trace.csv").read_text().splitlines()[0]
        empty = tmp_path / "empty.csv"
        empty.write_text(header + "\n")
        rc = cli.main(["plot-data", "--trace", str(empty),
                       "--out", str(tmp_path / "plots")])
        assert rc == 0
        body = (tmp_path / "plots" / "error_funnel.dat").read_text()
        assert body.startswith("#")
        assert len(body.splitlines()) == 1


class TestReproduce:

    def test_single_scenario(self, tmp_path, capsys):
        rc = cli.main(["reproduce", "--preset", "scenario_b",
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SCENARIO scenario_b PASS" in out
        assert "DISCREPANCY REPORT" in out
        assert (tmp_path / "scenario_b" / "trace.csv").exists()
        assert (tmp_path / "scenario_b" / "verify_report.txt").exists()
        assert (tmp_path / "discrepancy_report.txt").exists()


# Exit code of every package error, as the CLI returns it.
EXIT_CODES = {
    "ConfigError": 2,
    "NoRelativeDegree": 3, "AmbiguousZero": 3, "TransformSingular": 3,
    "NotHurwitz": 3, "IndefiniteGamma": 3, "InvalidQ": 3,
    "DeltaTooLarge": 3, "InfeasibleEtaStar": 3, "EmptyWindow": 3,
    "CiOverflow": 3, "InfeasibleRefinement": 3, "TemplateRejected": 3,
    "DegenerateCertificate": 3, "SingularMassMatrix": 3,
    "InitialConditionViolated": 4, "FunnelViolation": 4,
    "StepUnderflow": 4, "IntegrationStalled": 4,
}


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.FunnelSimError)
    and c is not errors.FunnelSimError], ids=lambda c: c.__name__)
def test_error_exit_codes(cls):
    assert cls.exit_code == EXIT_CODES[cls.__name__]
