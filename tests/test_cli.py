"""Command-line behavior: configs, schedules, commands, exit codes."""

import builtins
import contextlib
import copy
import io
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funnelsim import cli, errors, simulator
from funnelsim.errors import ConfigError
from funnelsim.simulator import csv_number, read_csv, write_csv

import test_simulator
from proofs import mass_on_car


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


# a plant of two integrators and no internal dynamics
CHAIN_ONLY = {"mode": "normal_form", "R": [[[0.0]], [[0.0]]],
              "Gamma": [[1.0]], "Q": [[]], "S": [[]], "P": [[]]}
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# a scalar of either sign and any magnitude from 1e-308 to 1e308
HUGE_RANGE = st.builds(lambda v, neg: -v if neg else v,
                       log_uniform(1e-308, 1e308), st.booleans())


def synthesis_cfg(system, dropout, window, amplitude=1.0, omega=1.0,
                  q=0.95, theta=0.9):
    """A synthesis config with a sinusoid reference and, when dropout and
    window are given, a periodic dropout generator."""
    cfg = {"system": system,
           "reference": {"kind": "sinusoid", "amplitude": amplitude,
                         "omega": omega},
           "design": {"q": q, "theta": theta}}
    if dropout is not None:
        cfg["availability"] = {"generator": {
            "kind": "periodic", "dropout": dropout, "window": window}}
    return cfg


# The array types of cli._READS as the JSON Schema draft writes them: the
# reference for test_array_errors_match_draft, with rectangular() for the
# equal row lengths a draft cannot state.
NUMBER = {"type": "number"}


def array_of(items, **size):
    return {"type": "array", "items": items, **size}


DRAFT = {
    cli.VEC: array_of(NUMBER),
    cli.MAT: array_of(array_of(NUMBER)),
    cli.MATS: array_of(array_of(array_of(NUMBER))),
    cli.NUM_OR_VEC: {"oneOf": [NUMBER, array_of(NUMBER)]},
    cli.PAIRS: array_of(array_of(NUMBER, minItems=2, maxItems=2)),
}
# one complete section of each kind that reads a number array
ARRAY_SECTIONS = {
    "state_space": {"mode": "state_space", "A": [[0.0]], "B": [[1.0]],
                    "C": [[1.0]]},
    "normal_form": CHAIN_ONLY,
    "constant": {"kind": "constant", "values": [1.0]},
    "sinusoid": {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0},
    "sum_of_sinusoids": {"kind": "sum_of_sinusoids", "amplitudes": [[1.0]],
                         "omegas": [[1.0]]},
    "": {},
}
# every key of cli._READS with its section, a kind that reads it and its type
TABLE_KEYS = [(section, kind, key, want)
              for section, (_, _, kinds) in cli._READS.items()
              for kind, reads in kinds.items()
              for key, want in {**reads[0], **reads[1]}.items()]
# one entry for each key whose value may be a number array
ARRAY_KEYS = list({key: (section, kind, key, want)
                   for section, kind, key, want in TABLE_KEYS
                   if want in DRAFT}.values())
ARRAY_IDS = [key for _, _, key, _ in ARRAY_KEYS]


def rectangular(value, want):
    """Whether each matrix of a value of type want has rows of one length."""
    mats = {cli.MAT: [value], cli.MATS: value}.get(want, [])
    return all(len({len(row) for row in mat}) < 2 for mat in mats)


# not a number, and not an array of numbers
NOT_NUMBERS = [True, False, "1.0", None, {}, {"x": 1.0}]


def valid_value(draw, schema):
    """A drawn value that schema accepts; arrays hold at least one item."""
    if "oneOf" in schema:
        return valid_value(draw, draw(st.sampled_from(schema["oneOf"])))
    if schema.get("type") == "array":
        size = draw(st.integers(schema.get("minItems", 1),
                                schema.get("maxItems", 3)))
        return [valid_value(draw, schema["items"]) for _ in range(size)]
    return draw(st.integers(-5, 5) | st.floats(-1e3, 1e3))


def positions(value, at=()):
    """Index paths of value itself and of everything nested in it."""
    yield at
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from positions(item, at + (i,))


@st.composite
def valid_array(draw, want):
    return valid_value(draw, DRAFT[want])


@st.composite
def malformed_array(draw, want):
    """A valid value of array type want with one item replaced by a value
    the type refuses there: a non-number anywhere, or a list in place of a
    number inside an array."""
    value = valid_value(draw, DRAFT[want])
    at = draw(st.sampled_from(list(positions(value))))
    if not at:
        return draw(st.sampled_from(NOT_NUMBERS))
    *outer, last = at
    parent = value
    for i in outer:
        parent = parent[i]
    bad = NOT_NUMBERS
    if not isinstance(parent[last], list):
        bad = bad + [[], [1.0], [[1.0]]]
    parent[last] = draw(st.sampled_from(bad))
    return value


def array_cfg(section, kind, key, value):
    """A manual config whose section, of the given kind, holds key: value."""
    cfg = manual_cfg(t_end=0.1)
    cfg[section] = dict(ARRAY_SECTIONS[kind], **{key: value})
    return cfg


# Loadable configs that set every numeric key of cli._READS between them,
# each in a section of the kind that reads it.
NUMBER_BASES = [
    {"system": {"mode": "state_space", "A": [[0.0, 1.0], [-1.0, -1.0]],
                "B": [[0.0], [1.0]], "C": [[1.0, 0.0]], "x0": [0.0, 0.0]},
     "reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0,
                   "phase": 0.0, "offset": 0.0},
     "availability": {"dropouts": [[1.0, 1.5]]},
     "design": {"manual": True, "eta_star": 1e6,
                "funnel": {"a": 5.0, "b": 1.0, "c": 0.2, "d": 1.0}},
     "sim": {"t_end": 1.0, "rtol": 1e-8, "atol": 1e-10, "grid_dt": 1e-3}},
    {"system": {"mode": "normal_form", "R": [[[0.0]], [[0.0]]],
                "Gamma": [[1.0]], "Q": [[-1.0]], "S": [[0.5]], "P": [[0.5]],
                "chain0": [[0.0], [0.0]], "eta0": [0.0]},
     "reference": {"kind": "sum_of_sinusoids", "amplitudes": [[1.0, 0.2]],
                   "omegas": [[1.0, 3.0]], "phases": [[0.0, 0.5]],
                   "offset": [0.1]},
     "availability": {"generator": {"kind": "periodic", "dropout": 0.01,
                                    "window": 30.0, "start": 30.0,
                                    "count": 2}},
     "design": {"q": 0.95, "theta": 0.9, "eta_star": 1e6, "phi0_0": 1e-3,
                "rho_factor": 0.99, "funnel": {"b": 2.0, "c": 1e-4}},
     "sim": {"t_end": 1.0}},
    {"system": {"mode": "mass_on_car"},
     "reference": {"kind": "constant", "values": [1.0]},
     "availability": {"generator": {"kind": "from_design",
                                    "dropout_factor": 0.95,
                                    "window_factor": 1.02, "start": 1.0,
                                    "count": 2}},
     "design": {"q": 0.95},
     "sim": {"t_end": 1.0}},
]
# the classes an error line may name for each non-zero exit but 1
EXIT_CATEGORIES = {2: (ConfigError, ValueError, OSError),
                   3: errors.ModelError, 4: errors.RunError}
NUMERIC = {cli.NUM, cli.POS, cli.START, cli.COUNT, cli.VEC, cli.MAT,
           cli.MATS, cli.NUM_OR_VEC, cli.PAIRS}
# JSON numbers no double holds, and the tokens json reads as inf and NaN
OUT_OF_RANGE = ["1e400", "-1e400", "9" * 400, "-" + "9" * 400, "Infinity",
                "-Infinity", "NaN"]
PLACEHOLDER = "an out-of-range literal"


def section_at(cfg, path):
    """The section of cfg at a dotted path of cli._READS; {} if absent."""
    for key in filter(None, path.split(".")):
        cfg = cfg.get(key, {})
    return cfg


def kind_of(cfg, path):
    """The kind cli._walk gives the section of cfg at path."""
    field = cli._READS[path][0]
    sec = section_at(cfg, path)
    if field == "manual":
        return "manual" if sec.get("manual", False) else "synthesized"
    if field is not None:
        return sec[field]
    return kind_of(cfg, path.rpartition(".")[0]) if path else ""


def number_positions(value, at=()):
    """Index paths of the numbers in value."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from number_positions(item, at + (i,))
    else:
        yield at


NUMBER_READS = [read for read in TABLE_KEYS if read[3] in NUMERIC]
# every numeric key of cli._READS with the first base config whose section
# has a kind that reads it (None if there is none), and the key's type
NUMBER_KEYS = [
    (next((base for base in NUMBER_BASES if section_at(base, section)
           and kind_of(base, section) == kind), None), section, key, want)
    for section, kind, key, want in NUMBER_READS]
NUMBER_IDS = [f"{section}.{key}" + (f"-{kind}" if kind else "")
              for section, kind, key, _ in NUMBER_READS]


class TestConfig:

    def test_presets_validate(self):
        for name in cli.PRESETS:
            assert cli.load_config(preset=name) == cli.PRESETS[name]

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
        cfg = synthesis_cfg({"mode": "mass_on_car"}, None, None)
        cfg["bogus"] = 1
        with pytest.raises(ConfigError, match="^config does not read bogus$"):
            cli.load_config(path=write_cfg(tmp_path, cfg))

    @pytest.mark.parametrize("at, value, message", [
        (("availability", "generator", "count"), 2.0, None),
        (("system",), CHAIN_ONLY, None),
        (("availability",), {"dropouts": []}, None),
        *[(("availability", "generator", "count"), count,
           "availability.generator.count must be a whole number >= 0")
          for count in (2.5, -1, True)],
        *[(("design", "manual"), flag, "design.manual must be true or false")
          for flag in (1, "true")],
        *[(("availability",), {"dropouts": [pair]}, "availability.dropouts "
           "must be a list of [start, end] number pairs")
          for pair in ([1.0], [1.0, 2.0, 3.0])],
        (("system", "R"), [[[0.0]], [0.0]], "system.R must be a matrix list"),
        (("reference", "amplitude"), True,
         "reference.amplitude must be a number or a number list"),
        ((), [], "a config must be an object"),
        (("system", "mode"), ["mass_on_car"], "system.mode must be one of "
         "mass_on_car, state_space, normal_form"),
    ], ids=["count-2.0", "Q-empty-row", "dropouts-empty",
            "count-2.5", "count-negative", "count-true", "manual-1",
            "manual-string", "pair-of-1", "pair-of-3", "R-mixed-depth",
            "amplitude-true", "not-an-object", "mode-not-a-string"])
    def test_accept_set_edges(self, tmp_path, at, value, message):
        # the accept set the draft schema and the key table gave together
        cfg = synthesis_cfg(dict(CHAIN_ONLY) if "R" in at
                            else {"mode": "mass_on_car"}, 0.01, 30.0)
        if at:
            *outer, last = at
            sec = cfg
            for key in outer:
                sec = sec[key]
            sec[last] = value
        else:
            cfg = value
        path = write_cfg(tmp_path, cfg)
        if message is None:
            assert cli.load_config(path=path) == cfg
        else:
            with pytest.raises(ConfigError) as err:
                cli.load_config(path=path)
            assert (str(err.value), err.value.exit_code) == (message, 2)

    def test_import_leaves_jsonschema_out(self):
        # jsonschema is a test dependency only
        code = ("import sys, funnelsim.cli\n"
                "assert 'jsonschema' not in sys.modules\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert run.returncode == 0, run.stderr

    def test_nonfinite_literal_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"system": {"mode": "mass_on_car"}, '
                     '"reference": {"kind": "constant", "values": [0.0]}, '
                     '"design": {"q": 0.95}, "sim": {"t_end": Infinity}}')
        with pytest.raises(ConfigError,
                           match="^sim.t_end must be a positive number$"):
            cli.load_config(path=str(p))

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"sim": {"t_end": ' + "1" * 5000 + "}}",
        '{"sim": {"t_end": ',
        "\xff\xfe",
    ], ids=["deep-nesting", "5000-digit-int", "truncated", "not-utf8"])
    def test_unparsable_file_exits_2(self, tmp_path, capsys, text):
        # these ended in RecursionError (exit 4), a digit-limit ValueError
        # naming no key, JSONDecodeError and UnicodeDecodeError
        p = tmp_path / "cfg.json"
        p.write_bytes(text.encode("latin-1"))
        rc = cli.main(["synthesize", "--config", str(p),
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: ConfigError: {p}: ")
        assert "set_int_max_str_digits" not in err[0]

    def test_missing_file_exit_code(self, tmp_path):
        rc = cli.main(["synthesize", "--config", str(tmp_path / "none.json"),
                       "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["plot-data", "--trace", "{dir}"],
        ["synthesize", "--config", "{dir}"],
        ["synthesize", "--preset", "scenario_a", "--out", "{file}"],
        ["reproduce", "--out", "{file}"],
    ], ids=["trace-dir", "config-dir", "synthesize-out-file",
            "reproduce-out-file"])
    def test_os_error_exits_2(self, tmp_path, capsys, args):
        # exit 1 is kept for a failed check
        (tmp_path / "file").touch()
        where = {"dir": str(tmp_path), "file": str(tmp_path / "file")}
        rc = cli.main([a.format(**where) for a in args])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(("error: IsADirectoryError: ",
                                  "error: FileExistsError: "))

    @pytest.mark.parametrize("section, kind, key, want", ARRAY_KEYS,
                             ids=ARRAY_IDS)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_array_errors_match_draft(self, tmp_path, section, kind, key,
                                      want, data):
        # the table's number arrays accept exactly what the JSON Schema
        # draft accepts for their type, and each refusal names the key
        value = data.draw(valid_array(want) | malformed_array(want))
        accepted = (jsonschema.Draft202012Validator(DRAFT[want])
                    .is_valid(value) and rectangular(value, want))
        path = write_cfg(tmp_path, array_cfg(section, kind, key, value))
        if accepted:
            cli.load_config(path=path)
        else:
            with pytest.raises(ConfigError) as err:
                cli.load_config(path=path)
            assert str(err.value) == f"{section}.{key} must be {want}"

    @settings(max_examples=100)
    @given(where=st.sampled_from(ARRAY_KEYS), data=st.data())
    def test_drawn_malformed_arrays_exit_2(self, tmp_path, capsys, where,
                                           data):
        section, kind, key, want = where
        cfg = array_cfg(section, kind, key,
                        data.draw(malformed_array(want)))
        capsys.readouterr()
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: {section}.{key} must be {want}"]

    def test_number_bases_cover_the_table(self, tmp_path):
        # a numeric key added to cli._READS needs a place in NUMBER_BASES
        for base in NUMBER_BASES:
            assert cli.load_config(path=write_cfg(tmp_path, base)) == base
        for base, section, key, _ in NUMBER_KEYS:
            assert base is not None and key in section_at(base, section), (
                f"no base config sets {section}.{key}")

    @pytest.mark.parametrize("base, section, key, want", NUMBER_KEYS,
                             ids=NUMBER_IDS)
    def test_out_of_range_number_exits_2(self, tmp_path, capsys, base,
                                         section, key, want):
        # 1e400 and big integers passed the table (1e400 gave rho = inf,
        # a big integer an untyped OverflowError), and the non-finite
        # tokens failed in the JSON parse hook, naming no key
        spots = list(number_positions(section_at(base, section)[key]))
        for i, literal in enumerate(OUT_OF_RANGE):
            # one entry of a list or matrix, a different one each literal
            cfg = copy.deepcopy(base)
            holder, at = section_at(cfg, section), key
            for index in spots[i % len(spots)]:
                holder, at = holder[at], index
            holder[at] = PLACEHOLDER
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg).replace(json.dumps(PLACEHOLDER),
                                                    literal))
            for command in ("synthesize", "simulate", "verify"):
                capsys.readouterr()
                rc = cli.main([command, "--config", str(path),
                               "--out", str(tmp_path)])
                assert (rc, capsys.readouterr().err.splitlines()) == (
                    2, [f"error: ConfigError: {section}.{key} must be "
                        f"{want}"]), (command, literal)

    @pytest.mark.parametrize("section, value, key", [
        ("system", {"mode": "mass_on_car", "chain0": [[1.0, 2.0, 3.0]]},
         "chain0"),
        ("system", {"mode": "mass_on_car", "x0": [1.0, 0.0, 0.0, 0.0]},
         "x0"),
        ("system", {"mode": "mass_on_car", "A": [[0.0]]}, "A"),
        ("system", dict(CHAIN_ONLY, mode="state_space", A=[[0.0]],
                        B=[[1.0]], C=[[1.0]]), "R"),
        ("system", {"mode": "state_space", "A": [[0.0]], "B": [[1.0]],
                    "C": [[1.0]], "eta0": [0.0]}, "eta0"),
        ("system", dict(CHAIN_ONLY, params={"m1": 4.0}), "params"),
        ("system", {"mode": "mass_on_car", "params": {}}, "params"),
        ("reference", {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0,
                       "values": [1.0]}, "values"),
        ("reference", {"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0,
                       "amplitudes": [[1.0]]}, "amplitudes"),
        ("reference", {"kind": "constant", "values": [1.0],
                       "offset": 1.0}, "offset"),
    ], ids=["chain0", "x0", "A", "normal_form-blocks", "eta0", "params",
            "mass_on_car-params", "values", "amplitudes", "offset"])
    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_unread_key_exits_2(self, tmp_path, capsys, command, section,
                                value, key):
        # the key was dropped without a word, and the run went on
        cfg = synthesis_cfg({"mode": "mass_on_car"}, None, None)
        cfg["sim"] = {"t_end": 0.1}
        cfg[section] = value
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        kind = value.get("mode", value.get("kind"))
        noun = "mode" if section == "system" else "reference"
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: {kind} {noun} does not read "
            f"{section}.{key}"]

    @pytest.mark.parametrize("design, generator, message", [
        *[({"manual": True, "funnel": {"a": 5.0, "b": 1.0, "c": 0.2},
            key: value}, None, f"manual design does not read design.{key}")
          for key, value in [("q", 0.3), ("theta", 0.1), ("phi0_0", 7.0),
                             ("rho_factor", 2.0)]],
        ({"manual": True, "funnel": {"b": 1.0, "c": 0.2}}, None,
         "manual design requires design.funnel.a"),
        *[({"q": 0.95, "funnel": dict({"b": 2.0, "c": 1e-4}, **{key: 1.0})},
           None, f"synthesized design does not read design.funnel.{key}")
          for key in ("a", "d")],
        *[({"q": 0.95}, dict(generator, **{key: 1.0}),
           f"{generator['kind']} generator does not read "
           f"availability.generator.{key}")
          for generator, keys in [
              ({"kind": "periodic", "dropout": 0.01, "window": 30.0},
               ("dropout_factor", "window_factor")),
              ({"kind": "from_design"}, ("dropout", "window"))]
          for key in keys],
    ], ids=["manual-q", "manual-theta", "manual-phi0_0", "manual-rho_factor",
            "manual-no-a", "template-a", "template-d",
            "periodic-dropout_factor", "periodic-window_factor",
            "from_design-dropout", "from_design-window"])
    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_design_or_generator_key_exits_2(self, tmp_path, capsys, command,
                                              design, generator, message):
        # an unread key was dropped without a word (exit 0), and a manual
        # funnel with no a failed the schema, not the table
        cfg = synthesis_cfg({"mode": "mass_on_car"}, None, None)
        cfg["design"] = design
        if generator is not None:
            cfg["availability"] = {"generator": generator}
        cfg["sim"] = {"t_end": 0.1}
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: {message}"]

    @pytest.mark.parametrize("command, section, value, message", [
        ("synthesize", "design", {"q": 0.95, "theta": 1.5},
         "ValueError: safety factor theta must lie in (0, 1)"),
        ("synthesize", "reference", {"kind": "sinusoid", "amplitude": [1, 2],
                                     "omega": 1.0},
         "ConfigError: reference output count 2 differs from the plant's 1"),
        ("synthesize", "system", {"mode": "state_space", "A": [[0.0, 1.0]],
                                  "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]},
         "ValueError: A must be square"),
        # numpy's inhomogeneous-shape error named no key
        ("synthesize", "system", {"mode": "state_space",
                                  "A": [[0, 1], [0]], "B": [[0], [1]],
                                  "C": [[1, 0]]},
         "ConfigError: system.A must be a list of equal-length number lists"),
        ("synthesize", "system", dict(CHAIN_ONLY, Q=[[-1.0, 0.0]],
                                      S=[[1.0]], P=[[1.0]]),
         "ValueError: Q must be square"),
        ("synthesize", "reference", None,
         "ConfigError: config requires reference"),
        ("synthesize", "availability",
         {"generator": {"kind": "periodic", "dropout": 1.0}},
         "ConfigError: periodic generator requires "
         "availability.generator.window"),
        ("simulate", "design", {"manual": True},
         "ConfigError: manual design requires design.funnel"),
        ("synthesize", "design", {"theta": 0.9},
         "ConfigError: synthesized design requires design.q"),
        ("verify", "output", {"trace": "header_only.csv"},
         "ConfigError: {out}/header_only.csv: trace has no samples"),
    ], ids=["theta", "amplitude", "A", "A-ragged", "Q", "reference", "window",
            "funnel", "q", "header-only"])
    def test_bad_input_exits_2(self, tmp_path, capsys, command, section,
                               value, message):
        cfg = synthesis_cfg({"mode": "mass_on_car"}, None, None)
        cfg["sim"] = {"t_end": 0.1}
        if value is None:
            del cfg[section]
        else:
            cfg[section] = value
        (tmp_path / "header_only.csv").write_text(
            ",".join(simulator._csv_header(1, 2, 2)) + "\n")
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message.format(out=tmp_path)]

    @pytest.mark.parametrize("value, level", [
        ("bogus", logging.WARNING), (None, logging.WARNING),
        ("debug", logging.DEBUG), ("info", logging.INFO)])
    def test_log_level_from_environment(self, monkeypatch, value, level):
        seen = {}
        monkeypatch.setattr(cli.logging, "basicConfig",
                            lambda **kwargs: seen.update(kwargs))
        if value is None:
            monkeypatch.delenv("FUNNELSIM_LOG", raising=False)
        else:
            monkeypatch.setenv("FUNNELSIM_LOG", value)
        cli._setup_logging()
        assert seen["level"] == level

    @pytest.mark.parametrize("command, section, key, value", [
        ("synthesize", "design", "rho_factor", -1.0),
        ("synthesize", "design", "rho_factor", 0.0),
        ("synthesize", "design", "phi0_0", 0.0),
        ("simulate", "design", "eta_star", -1.0),
        ("simulate", "sim", "t_end", 0.0)])
    def test_nonpositive_factor_or_horizon_exits_2(self, tmp_path, capsys,
                                                   command, section, key,
                                                   value):
        # rho_factor -1 gave a design that misses its funnel level, 0 a
        # ZeroDivisionError; a manual eta_star of -1 failed as exit 4
        cfg = manual_cfg(t_end=1.0)
        del cfg["availability"]
        if command == "synthesize":
            cfg["design"] = {"q": 0.95, "theta": 0.9}
        cfg[section][key] = value
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: {section}.{key} must be a positive number"]

    @pytest.mark.parametrize("reference, key", [
        ({"kind": "constant"}, "values"),
        ({"kind": "sinusoid", "omega": 1.0}, "amplitude"),
        ({"kind": "sinusoid", "amplitude": 1.0}, "omega"),
        ({"kind": "sum_of_sinusoids", "omegas": [[1.0]]}, "amplitudes"),
        ({"kind": "sum_of_sinusoids", "amplitudes": [[1.0]]}, "omegas")])
    def test_incomplete_reference_exits_2(self, tmp_path, capsys, reference,
                                          key):
        cfg = manual_cfg(t_end=1.0)
        cfg["reference"] = reference
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: {reference['kind']} reference requires "
            f"reference.{key}"]

    @pytest.mark.parametrize("reference, message", [
        ({"kind": "sinusoid", "amplitude": 1.0, "omega": 1.0}, None),
        ({"kind": "sinusoid", "amplitude": [1.0], "omega": [1.0],
          "phase": [0.2], "offset": [0.1]}, None),
        ({"kind": "constant", "values": [0.5]}, None),
        ({"kind": "sum_of_sinusoids", "amplitudes": [[1.0, 0.2]],
          "omegas": [[1.0, 3.0]], "phases": [[0.0, 0.5]], "offset": [0.1]},
         None),
        ({"kind": "sum_of_sinusoids", "amplitudes": [[]], "omegas": [[]]},
         None),
        ({"kind": "sinusoid", "amplitude": [1.0, 1.0],
          "omega": [1.0, 1.0, 1.0]},
         "reference.amplitude must be scalar or length 3"),
        ({"kind": "sinusoid", "amplitude": [], "omega": 1.0},
         "reference.amplitude must be scalar or length 1"),
        ({"kind": "constant", "values": []},
         "reference: a reference needs at least one output"),
        *[({"kind": "sum_of_sinusoids", **sums},
           "reference.amplitudes, reference.omegas and reference.phases "
           "matrices must share one shape")
          for sums in ({"amplitudes": [[1.0, 0.2]], "omegas": [[1.0]]},
                       {"amplitudes": [[1.0, 0.2]], "omegas": [[1.0, 3.0]],
                        "phases": [[0.0]]},
                       {"amplitudes": [[1.0], [0.5]], "omegas": [[1.0]]})],
        ({"kind": "sum_of_sinusoids", "amplitudes": [[1.0, 0.2], [0.5]],
          "omegas": [[1.0, 3.0], [2.0]]},
         "reference.amplitudes must be a list of equal-length number lists"),
        ({"kind": "sum_of_sinusoids", "amplitudes": [[1.0]],
          "omegas": [[1.0]], "offset": [0.1, 0.2]},
         "reference.offset must be scalar or length 1"),
        ({"kind": "sinusoid", "amplitude": [1.0, 2.0], "omega": 1.0},
         "reference output count 2 differs from the plant's 1"),
    ], ids=["scalar", "one-vectors", "constant", "sum-1x2", "sum-empty",
            "lengths-2-3", "empty-amplitude", "constant-empty",
            "sum-1x2-1x1", "phases-1x1-1x2", "sum-2x1-1x1", "ragged",
            "sum-offset-2", "two-outputs"])
    def test_reference_accept_set(self, tmp_path, capsys, reference,
                                  message):
        # what each command takes as a reference on the 1-output plant
        for command, cfg in (
                ("synthesize",
                 synthesis_cfg({"mode": "mass_on_car"}, None, None)),
                ("simulate", manual_cfg(t_end=0.5))):
            cfg["reference"] = reference
            rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                           "--out", str(tmp_path)])
            err = capsys.readouterr().err.splitlines()
            if message is None:
                assert (rc, err) == (0, [])
            else:
                assert (rc, err) == (2, [f"error: ConfigError: {message}"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, reference", [
        # the reference bound overflowed in np.linalg.norm (a warning), and
        # the run ended as InfeasibleEtaStar blaming the schedule (exit 3)
        *[(command, {"kind": "sinusoid", "amplitude": 1e200, "omega": 1.0})
          for command in ("synthesize", "simulate")],
        ("synthesize", {"kind": "sum_of_sinusoids",
                        "amplitudes": [[1e200, 1.0]],
                        "omegas": [[1.0, 2.0]]}),
        # float ** 2 raised a raw OverflowError (exit 1)
        ("synthesize", {"kind": "sinusoid", "amplitude": 1.0,
                        "omega": 1e200}),
        # under the manual funnel the start check saw inf and the run
        # ended as InitialConditionViolated (exit 4)
        ("manual", {"kind": "sinusoid", "amplitude": 1e308, "omega": 1.0})],
        ids=["amplitude-synthesize", "amplitude-simulate", "sum", "omega",
             "manual"])
    def test_overflowing_reference_exits_2(self, tmp_path, capsys, command,
                                           reference):
        cfg = manual_cfg(t_end=1.0)
        del cfg["availability"]
        cfg["reference"] = reference
        if command == "manual":
            command = "simulate"
        else:
            cfg["design"] = {"q": 0.95, "theta": 0.9}
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigError: reference derivative bounds overflow to inf"]

    def test_schema_error_is_one_line(self, tmp_path, capsys):
        cfg = manual_cfg(t_end=1.0)
        cfg["design"]["funnel"]["c"] = 0
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigError: design.funnel.c must be a positive number"]


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
        key = next(key for key, value in gen.items()
                   if key != "kind" and value <= 0)
        with pytest.raises(ConfigError, match=(
                f"^availability.generator.{key} must be a positive number$")):
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
        # a window that cannot move t past the previous dropout's end: the
        # next dropout started there, and the error blamed that dropout
        {"kind": "periodic", "dropout": 1.0, "window": 1e-300},
        {"kind": "from_design", "window_factor": 1e-300, "count": 3},
    ])
    def test_stalled_or_oversized_generator_is_config_error(self, gen):
        dp = types.SimpleNamespace(dropout=1.0, window=1.0)
        with pytest.raises(ConfigError,
                           match="length .* does not advance t|more than"):
            cli._generated_pairs(gen, 60.0, dp)

    def test_dropouts_and_generator_conflict(self, tmp_path, capsys):
        # synthesize read the generator, ignored the list and exited 0
        cfg = manual_cfg(t_end=2.0)
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path)]) == 0
        cfg = synthesis_cfg({"mode": "mass_on_car"}, 0.01, 30.0)
        cfg["availability"]["dropouts"] = [[1.0, 1.01]]
        cfg["sim"] = {"t_end": 2.0}
        path = write_cfg(tmp_path, cfg)
        capsys.readouterr()
        for command in ("synthesize", "simulate", "verify"):
            rc = cli.main([command, "--config", path, "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: ConfigError: availability takes dropouts or a "
                "generator, not both"]

    def test_limits_from_explicit_pairs(self):
        cfg = {"availability": {"dropouts": [[2.0, 3.0], [7.5, 8.0]]}}
        longest, shortest = cli._schedule_limits(cfg)
        assert longest == 1.0
        assert shortest == 2.0          # leading window [0, 2] is shortest

    def test_limits_refuse_a_negative_start(self):
        # the limits' schedule has no horizon of its own
        with pytest.raises(ConfigError, match=re.escape(
                "dropout 0 leaves the horizon [0, inf]")):
            cli._schedule_limits({"availability": {"dropouts": [[-1, 2]]}})

    def test_limits_absent_without_schedule(self):
        assert cli._schedule_limits({}) == (None, None)

    @pytest.mark.parametrize("start, floor", [(None, 3.0), (0.0, 3.0),
                                              (1.0, 1.0), (5.0, 3.0)])
    def test_limits_from_periodic_generator(self, start, floor):
        # the lead-in [0, start] is a window, as in an explicit list
        gen = {"kind": "periodic", "dropout": 2.0, "window": 3.0}
        if start is not None:
            gen["start"] = start
        limits = cli._schedule_limits({"availability": {"generator": gen}})
        assert limits == (2.0, floor)

    @pytest.mark.parametrize("availability", [
        {"generator": {"kind": "periodic", "dropout": 0.01, "window": 30.0,
                       "start": 1.0}},
        {"dropouts": [[1.0, 1.01], [31.01, 31.02]]}],
        ids=["generator", "list"])
    def test_lead_in_gets_one_verdict(self, tmp_path, capsys, availability):
        # the generator ignored its 1 s lead-in and synthesized (exit 0);
        # the same pairs as a list exited 3
        cfg = synthesis_cfg({"mode": "mass_on_car"}, None, None)
        cfg["availability"] = availability
        cfg["sim"] = {"t_end": 40.0}
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: DeltaTooLarge: schedule availability floor 1.000000e+00 "
            "is below the required window 1.967421e+01"]

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_negative_start_exits_2(self, tmp_path, capsys, command):
        # synthesis read the window as the floor and exited 0, while
        # simulate refused dropout 0 for leaving the horizon
        cfg = synthesis_cfg({"mode": "mass_on_car"}, 0.01, 30.0)
        cfg["availability"]["generator"]["start"] = -1.0
        cfg["sim"] = {"t_end": 40.0}
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigError: availability.generator.start must be a "
            "number >= 0"]

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    @pytest.mark.parametrize("dropouts, message", [
        ([[20.0, 20.001], [20.0005, 20.002]],
         "dropout 1 starts at 20.0005, not after the previous end 20.001"),
        ([[20.002, 20.001]],
         "dropout 0 is empty or reversed: (20.002, 20.001]"),
    ], ids=["overlapping", "reversed"])
    def test_bad_dropout_list_exits_2_before_synthesis(
            self, tmp_path, capsys, command, dropouts, message):
        # synthesis reads its limits from the list, so it is checked first
        cfg = synthesis_cfg({"mode": "mass_on_car"}, None, None)
        cfg["availability"] = {"dropouts": dropouts}
        cfg["sim"] = {"t_end": 25.0}
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: {message}"]


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

    def test_report_d_row_is_b(self, tmp_path, capsys):
        # b is the funnel family's slope constant, the report's d
        assert cli.main(["synthesize", "--preset", "scenario_a",
                         "--out", str(tmp_path)]) == 0
        rows = dict(line.split(" = ") for line in
                    capsys.readouterr().out.splitlines() if " = " in line)
        assert rows["d"] == rows["b"]

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: neither the import nor a
        # synthesis may load it
        code = ("import sys, funnelsim\n"
                "assert 'scipy' not in sys.modules\n"
                "from funnelsim import cli\n"
                "rc = cli.main(['synthesize', '--preset', 'scenario_a',"
                " '--out', sys.argv[1]])\n"
                "assert rc == 0 and 'scipy' not in sys.modules\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "design_report.txt").is_file()

    def test_mass_on_car_certificates_by_realization(self, tmp_path):
        # the physical model goes through to_normal_form's SVD basis and
        # certifies the numbers the README quotes; mass_on_car mode is the
        # presets' companion realization, with the discrepancy table
        def report(*source):
            rc = cli.main(["synthesize", *source, "--out", str(tmp_path)])
            assert rc == 0
            return (tmp_path / "design_report.txt").read_text()

        plant = mass_on_car()
        state_space = report("--config", write_cfg(tmp_path, synthesis_cfg(
            {"mode": "state_space", "A": plant.A.tolist(),
             "B": plant.B.tolist(), "C": plant.C.tolist()}, None, None)))
        companion = report("--config", write_cfg(tmp_path, synthesis_cfg(
            {"mode": "mass_on_car"}, None, None)))
        preset = report("--preset", "scenario_a")
        values = dict(line.split(" = ") for line in state_space.splitlines()
                      if " = " in line)
        assert (values["M"], values["Delta"], values["delta"]) == (
            "1.5586087782489961", "0.023648162471906275",
            "12.804400916201889")
        assert "DISCREPANCY REPORT" not in state_space
        assert companion == preset
        assert "\nDelta = 0.01439339183980527\n" in companion

    def test_state_space_requires_c(self, tmp_path, capsys):
        plant = mass_on_car()
        cfg = synthesis_cfg({"mode": "state_space", "A": plant.A.tolist(),
                             "B": plant.B.tolist()}, None, None)
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigError: state_space mode requires system.C"]

    @pytest.mark.parametrize("system, message", [
        ({"B": [[0.0], [1.0], [0.0]]}, "B must have 2 rows, got 3"),
        ({"C": [[1.0, 0.0, 0.0]]}, "C must have 2 columns, got 3"),
        ({"C": [[1.0, 0.0], [0.0, 1.0]]},
         "plant must be square: C rows must equal B columns"),
        ({"x0": [1.0, 2.0, 3.0]}, "x0 length must match the state dimension"),
        ({"R": []}, "chain must have positive length"),
        ({"Gamma": [[1.0, 0.0]]}, "Gamma must be square"),
        ({"R": [[[0.0, 0.0]]]}, "R block must have 1 columns, got 2"),
        ({"S": [[1.0], [1.0]]}, "S must have 1 rows, got 2"),
        ({"P": [[1.0], [1.0]]}, "S and P must match the internal dimension"),
        ({"chain0": [[0.0, 0.0]]}, "chain0 must hold r*m = 1 values, got 2"),
        ({"eta0": [0.0, 0.0]}, "eta0 must hold k = 1 values, got 2"),
    ])
    def test_system_shape_error_exits_2(self, tmp_path, capsys, system,
                                        message):
        # a double integrator, or one chain step over one internal state
        base = ({"mode": "state_space", "A": [[0.0, 1.0], [0.0, 0.0]],
                 "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
                if system.keys() & {"B", "C", "x0"} else
                {"mode": "normal_form", "R": [[[-1.0]]], "Gamma": [[1.0]],
                 "Q": [[-1.0]], "S": [[1.0]], "P": [[1.0]]})
        cfg = synthesis_cfg({**base, **system}, None, None)
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ValueError: {message}"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A, C, message", [
        *[([[1e308, 1e308], [1e308, 1e308]], C, "NoRelativeDegree: "
           "coefficient C A^1 B or its zero threshold overflows")
          for C in (
              # C A B = 1e308, but the zero threshold's scale |B||C||A|
              # was inf: every coefficient counted as zero, after numpy
              # overflow warnings
              [[1.0, 0.0]],
              # C A B itself overflows to inf
              [[10.0, 0.0]])],
        # formatting the condition number overflowed, and numpy's warning
        # put two lines on stderr before the error
        ([[1e308, 1e308], [1e308, -1e308]], [[1.0, 0.0]],
         "TransformSingular: coordinate change is numerically singular "
         "(condition number inf)"),
    ], ids=["scale", "coefficient", "singular-transform"])
    def test_overflowing_plant_exits_3(self, tmp_path, capsys, A, C,
                                       message):
        cfg = synthesis_cfg({"mode": "state_space", "A": A,
                             "B": [[0.0], [1.0]], "C": C}, None, None)
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

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
        # a synthesized design takes (b, c) from design.funnel and derives
        # a and d, so the template gives neither
        cfg = manual_cfg()
        del cfg["availability"]
        cfg["design"] = {"q": 0.95, "theta": 0.9,
                         "funnel": {"b": b, "c": c}}
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == code
        if code == 0:
            assert f"b = {b!r}\nc = {c!r}\n" in (
                tmp_path / "design_report.txt").read_text()
        else:
            assert "TemplateRejected" in capsys.readouterr().err

    @pytest.mark.parametrize("dropout, window", [(0.1, 1e6), (1000.0, 1.0)])
    def test_overflowing_ceiling_exits_3(self, tmp_path, capsys, dropout,
                                         window):
        # exp(beta dropout + mu window) overflowed in math.exp, a raw
        # OverflowError that exited 1
        cfg = synthesis_cfg(CHAIN_ONLY, dropout, window)
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: InfeasibleEtaStar: the coasting bound on the internal "
            "ceiling overflows"]

    def test_unreachable_funnel_level_exits_3(self, tmp_path, capsys):
        # the refined funnel's decay rate overflowed to inf, and the run
        # exited 2 blaming funnel parameter b, which the config never set
        cfg = synthesis_cfg({"mode": "mass_on_car"}, None, None,
                            amplitude=1e150)
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: InfeasibleRefinement: required "
                                 "funnel level 2.297412e+153 is out of reach")

    @pytest.mark.parametrize("amplitude, window, q, err", [
        # the start gain underflows, so the first stage cap is 1
        (1.0, 1.0, 1e-308,
         "CiOverflow: recursion constant c_1 = 1.000000e+00 is not < 1"),
        # the drive constant is inf, so the certificate's last cap is 1
        (1e109, 0.01, 0.95,
         "DegenerateCertificate: input bound degenerate: C~ = inf, "
         "gamma*phi0(0) = 2.194019e-112")])
    def test_cap_reaching_one_exits_3(self, tmp_path, capsys, amplitude,
                                      window, q, err):
        # both divided by 1 - cap^2 = 0, a raw ZeroDivisionError
        cfg = synthesis_cfg(CHAIN_ONLY, 1.0, window, amplitude, q=q)
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [f"error: {err}"]

    @pytest.mark.parametrize("r", [5, 6])
    def test_underflowing_cap_complement_exits_3(self, tmp_path, capsys, r):
        # from relative degree 5 the complement 1 - c_4^2 is so small that
        # its square underflows, and the next stage slope divided by 0: a
        # raw ZeroDivisionError that exited 4
        system = {"mode": "normal_form", "R": [[[0.0]]] * r,
                  "Gamma": [[1.0]], "Q": [[-1.0]], "S": [[0.5]],
                  "P": [[0.5]]}
        cfg = synthesis_cfg(system, None, None)
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: CiOverflow: recursion constant c_4 = 1.000000e+00 is "
            "not < 1"]

    def test_underflowing_dropout_target_exits_3(self, tmp_path, capsys):
        # q / A_r underflows to 0, and the dropout supremum took
        # math.log(0), a raw ValueError that exited 2
        cfg = synthesis_cfg({"mode": "mass_on_car"}, None, None, q=5e-324)
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: DeltaTooLarge: no dropout meets the 'margin' dropout "
            "condition: its target is 0.000000e+00"]

    def test_underflowing_window_top_exits_3(self, tmp_path, capsys):
        # the start gain window was [0, 0], and gain_recursion then exited 2
        # blaming a start gain that was not positive
        cfg = synthesis_cfg(CHAIN_ONLY, 0.1, 1.0, q=5e-324)
        rc = cli.main(["synthesize", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: EmptyWindow: initial funnel value window "
            "[0.000000e+00, 0.000000e+00] is empty"]

    @settings(max_examples=150)
    @example(system=CHAIN_ONLY, dropout=0.1, window=1.0, amplitude=1.0,
             omega=1.0, q=5e-324, theta=0.9)
    @given(system=st.sampled_from([CHAIN_ONLY, {"mode": "mass_on_car"}]),
           dropout=log_uniform(1e-6, 1e6), window=log_uniform(1e-6, 1e6),
           amplitude=log_uniform(1e-6, 1e200),
           omega=log_uniform(1e-6, 1e200), q=OPEN_UNIT, theta=OPEN_UNIT)
    def test_drawn_configs_exit_typed(self, tmp_path, capsys, system,
                                      dropout, window, amplitude, omega, q,
                                      theta):
        cfg = synthesis_cfg(system, dropout, window, amplitude, omega,
                            q=q, theta=theta)
        path = write_cfg(tmp_path, cfg)
        capsys.readouterr()
        rc = cli.main(["synthesize", "--config", path, "--out",
                       str(tmp_path)])
        assert rc in (0, 2, 3, 4)
        err = capsys.readouterr().err.splitlines()
        if rc:
            # one line naming a class of the exit's category; exit 4 from
            # the catch-all would name an untyped error
            assert len(err) == 1 and err[0].startswith("error: "), err
            name = err[0].split(":")[1].strip()
            cls = getattr(errors, name, None) or getattr(builtins, name)
            assert issubclass(cls, EXIT_CATEGORIES[rc]), err

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200)
    @example(R=1.0, Gamma=1.0, Q=-1e300, P=1e300, S=1e300)
    @example(R=1.0, Gamma=1.0, Q=-1e308, P=1.0, S=1.0)
    @example(R=1.0, Gamma=1e308, Q=-1.0, P=1.0, S=1.0)
    @given(R=HUGE_RANGE, Gamma=HUGE_RANGE, Q=HUGE_RANGE.map(lambda v: -abs(v)),
           P=HUGE_RANGE, S=HUGE_RANGE)
    def test_drawn_scalar_plants_exit_0_or_3(self, tmp_path, capsys, R, Gamma,
                                             Q, P, S):
        # an overflowing dropout condition took math.log(0) or left a zero
        # dropout (exit 2), and Gamma + Gamma^T overflowed to gamma = inf
        system = {"mode": "normal_form", "R": [[[R]]], "Gamma": [[Gamma]],
                  "Q": [[Q]], "P": [[P]], "S": [[S]]}
        path = write_cfg(tmp_path, synthesis_cfg(system, None, None))
        capsys.readouterr()
        rc = cli.main(["synthesize", "--config", path, "--out",
                       str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        assert (rc, err) == (0, []) or (
            rc == 3 and len(err) == 1 and err[0].startswith("error: ")), err


@pytest.fixture(scope="session")
def reproduced(tmp_path_factory):
    """The one scenario-B run of these tests: reproduce, with its exit code
    and standard output."""
    out = tmp_path_factory.mktemp("reproduced")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        rc = cli.main(["reproduce", "--preset", "scenario_b",
                       "--out", str(out)])
    return types.SimpleNamespace(rc=rc, out=stdout.getvalue(), dir=out)


@pytest.fixture(scope="session")
def sim_dir(reproduced):
    """The scenario-B trace directory shared by the round-trip tests."""
    assert reproduced.rc == 0
    return reproduced.dir / "scenario_b"


@pytest.fixture(scope="session")
def plotted(sim_dir, tmp_path_factory):
    """plot-data of the scenario-B trace, and that trace read back."""
    out = tmp_path_factory.mktemp("plotted")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["plot-data", "--trace", str(sim_dir / "trace.csv"),
                       "--out", str(out)])
    return types.SimpleNamespace(rc=rc, dir=out,
                                 trace=read_csv(sim_dir / "trace.csv"))


class TestSimulateAndVerify:

    def test_trace_written(self, sim_dir):
        header = (sim_dir / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("t,a,tau,phi,psi,y_1,")

    def test_verify_round_trip(self, sim_dir, tmp_path, capsys):
        shutil.copyfile(sim_dir / "trace.csv", tmp_path / "trace.csv")
        rc = cli.main(["verify", "--preset", "scenario_b",
                       "--out", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "verify_report.txt").read_text()
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

    @pytest.mark.parametrize("availability, message", [
        ({"generator": dict(cli.PRESETS["scenario_b"]["availability"]
                            ["generator"], dropout_factor=0.5)},
         "periodic generator does not read "
         "availability.generator.dropout_factor"),
        ({"dropouts": [[0.5, 1.0], [0.8, 1.2]]},
         "dropout 1 starts at 0.8, not after the previous end 1.0"),
    ], ids=["unread-key", "overlap"])
    def test_verify_refuses_what_simulate_refuses(self, tmp_path, capsys,
                                                  availability, message):
        # verify never read the schedule of a manual design and checked
        # the trace with exit 0
        cfg = manual_cfg(t_end=2.0)
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path)]) == 0
        cfg["availability"] = availability
        path = write_cfg(tmp_path, cfg)
        capsys.readouterr()
        for command in ("simulate", "verify"):
            rc = cli.main([command, "--config", path, "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: ConfigError: {message}"]

    @pytest.mark.parametrize("system, fits, misfits", [
        ({"mode": "normal_form", "R": [[[0.0, 0.0], [0.0, 0.0]]],
          "Gamma": [[1.0, 0.0], [0.0, 1.0]], "Q": [[-1.0]],
          "P": [[1.0, 0.0]], "S": [[0.5], [0.0]]}, [1.0, 1.0], 1.0),
        ({"mode": "mass_on_car"}, 1.0, [1.0, 2.0])],
        ids=["scalar-on-2", "2-on-1"])
    def test_reference_must_match_plant_outputs(self, tmp_path, capsys,
                                                system, fits, misfits):
        # simulate and verify tracked a scalar reference on both outputs
        # (exit 0), and a 2-output one on mass-on-car ended in numpy's
        # matmul error; only synthesize compared the counts
        cfg = manual_cfg(t_end=2.0)
        del cfg["availability"]
        cfg["system"] = system
        cfg["reference"]["amplitude"] = fits
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                         "--out", str(tmp_path)]) == 0
        cfg["reference"]["amplitude"] = misfits
        manual = write_cfg(tmp_path, cfg, "manual.json")
        cfg["design"] = {"q": 0.9, "theta": 0.9}
        cfg["availability"] = {"dropouts": [[1.0, 1.001]]}
        synthesized = write_cfg(tmp_path, cfg, "synthesized.json")
        capsys.readouterr()
        for command, path in (("simulate", manual), ("verify", manual),
                              ("synthesize", synthesized)):
            rc = cli.main([command, "--config", path, "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: ConfigError: reference output count "
                f"{np.size(misfits)} differs from the plant's {np.size(fits)}"]

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
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: sim.{key} must be a positive number"]
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("key", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("value", [0.0, -0.2])
    def test_nonpositive_funnel_exits_2(self, tmp_path, capsys, key, value):
        cfg = manual_cfg(trace_path=str(tmp_path / "trace.csv"), t_end=1.0)
        cfg["design"]["funnel"][key] = value
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: design.funnel.{key} must be a positive "
            "number"]
        assert not (tmp_path / "trace.csv").exists()

    def test_overflowing_funnel_gain_exits_4(self, tmp_path, capsys):
        # the funnel gain overflows the cascade at the first step; the run
        # ends in its typed error alone, with no numpy warning before it
        cfg = manual_cfg(t_end=0.5)
        del cfg["availability"]
        cfg["design"]["funnel"] = {"a": 1e300, "b": 1e300, "c": 1e-300}
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: StepUnderflow")

    def test_manual_d_is_ignored(self, tmp_path):
        cfg = manual_cfg(t_end=8.0)
        traces = []
        for d in (None, 7.0):
            if d is not None:
                cfg["design"]["funnel"]["d"] = d
            out = tmp_path / str(d)
            assert cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                             "--out", str(out)]) == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("command, design, gain", [
        ("simulate", {"manual": True,
                      "funnel": {"a": 0.5, "b": 1.0, "c": 0.5}}, 1.0),
        ("synthesize", {"q": 0.9, "phi0_0": 0.03125}, 0.03125)])
    def test_start_past_the_run_bound_exits_4(self, tmp_path, capsys,
                                              command, design, gain):
        # at the start gain, stage 1 has norm 1 - 5e-11: inside the unit
        # ball, but past the bound 1 - 1e-10 that the stepper holds it to,
        # so the start check refuses it, not the first rhs call
        cfg = {"system": {"mode": "normal_form", "R": [[[0.0]]],
                          "Gamma": [[1.0]], "Q": [[]], "S": [[]], "P": [[]],
                          "chain0": [[0.99999999995 / gain]]},
               "reference": {"kind": "constant", "values": [0.0]},
               "design": design, "sim": {"t_end": 1.0}}
        rc = cli.main([command, "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: InitialConditionViolated: start-up condition failed at "
            "cascade stage 1: value 9.99999999950e-01 exceeds bound "
            "9.99999999900e-01"]

    def test_restart_past_the_run_bound_exits_4(self, tmp_path, capsys):
        # the run starts in a dropout, so the start check holds nothing;
        # at the restart stage 1 has norm 1 - 5e-11, past the run's bound
        cfg = {"system": {"mode": "normal_form", "R": [[[0.0]]],
                          "Gamma": [[1.0]], "Q": [[]], "S": [[]], "P": [[]],
                          "chain0": [[0.99999999995]]},
               "reference": {"kind": "constant", "values": [0.0]},
               "availability": {"dropouts": [[0.0, 0.5]]},
               "design": {"manual": True,
                          "funnel": {"a": 0.5, "b": 1.0, "c": 0.5}},
               "sim": {"t_end": 1.0}}
        rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(tmp_path)])
        assert rc == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: FunnelViolation: cascade stage 1 has norm "
            "9.99999999950e-01 at or past the bound 9.99999999900e-01 at "
            "t = 0.5"]

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
        # one dropout 5% beyond the designed limit, after a 1 s lead-in
        # shorter than the designed window: each note is logged once and
        # not also raised as a Python warning
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
        assert len(err) == 2
        assert err[0].startswith("WARNING funnelsim: dropout 0 lasts ")
        assert err[1].startswith("WARNING funnelsim: availability window "
                                 "before dropout 0 lasts 1, below ")

    def test_short_lead_in_logs_one_note(self, tmp_path, caplog):
        cfg = copy.deepcopy(cli.PRESETS["scenario_a"])
        cfg["availability"]["generator"] = {
            "kind": "from_design", "start": 1.0, "count": 1}
        cfg["sim"]["t_end"] = 2.0
        with caplog.at_level(logging.INFO, logger="funnelsim"), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["simulate", "--config", write_cfg(tmp_path, cfg),
                           "--out", str(tmp_path)])
        assert rc == 0
        notes = [r.getMessage() for r in caplog.records
                 if r.levelno >= logging.WARNING]
        assert len(notes) == 1
        assert notes[0].startswith("availability window before dropout 0 "
                                   "lasts 1, below the designed minimum ")

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

    def test_files_and_dropout_gaps(self, plotted):
        rc, tmp_path, trace = plotted.rc, plotted.dir, plotted.trace
        assert rc == 0
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

    def test_round_trip_12_digits(self, plotted):
        tmp_path, trace = plotted.dir, plotted.trace
        rows = [ln.split(",") for ln in
                (tmp_path / "input.dat").read_text().splitlines()
                if ln and not ln.startswith("#")]
        t = np.array([float(r[0]) for r in rows])
        u1 = np.array([float(r[1]) for r in rows])
        assert np.array_equal(t, trace.t)
        assert np.array_equal(u1, trace.u[:, 0])

    @staticmethod
    def plot_texts(tr):
        """The three plot-data files field by field as csv_number writes
        them: radius columns empty on dropout rows, one blank line after
        every availability change."""
        gaps = np.flatnonzero(tr.a[:-1] != tr.a[1:])

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

        return {
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

    def check_plot_data(self, tmp_path, vals):
        write_csv(test_simulator.TestCsv.edge_value_trace(vals),
                  tmp_path / "trace.csv")
        tr = read_csv(tmp_path / "trace.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["plot-data", "--trace", str(tmp_path / "trace.csv"),
                           "--out", str(tmp_path)])
        assert rc == 0
        for name, text in self.plot_texts(tr).items():
            assert (tmp_path / name).read_text() == text, name
        return tr

    def test_rows_match_field_formatting(self, tmp_path):
        tr = self.check_plot_data(tmp_path,
                                  test_simulator.TestCsv.EDGE_VALUES)
        gaps = np.flatnonzero(tr.a[:-1] != tr.a[1:])
        assert gaps.tolist()[:4] == [0, 1, 2, 4]

    @settings(max_examples=60)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_drawn_doubles_match_field_formatting(self, tmp_path, vals):
        self.check_plot_data(tmp_path, vals)

    # wide cells: signs, three-digit exponents, NaN, inf and doubles
    # near a tie, which CSV_NUMBER % v writes itself
    WIDE = (-1.7976931348623157e308, np.nan, -np.inf, np.inf, -5e-324,
            1000000000005.0, -9.9999999999995e99, -2.157131824925e-30)
    NARROW = (0.5, 2.0, 0.1, 0.0, 976.7743761695)

    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
    def test_last_block_after_wider_cells(self, tmp_path, rows):
        # the writer fills one buffer block after block, so a short last
        # block of narrow positive cells follows full blocks of wide ones;
        # the availability pattern blanks psi and sets the flag in each
        last = (rows - 1) // 1024 * 1024
        vals = np.resize(self.WIDE, rows)
        vals[last:] = np.resize(self.NARROW, rows - last)
        self.check_plot_data(tmp_path, vals)
        tr = test_simulator.TestCsv.edge_value_trace(vals)
        assert (tmp_path / "trace.csv").read_text() == (
            test_simulator.TestCsv.csv_text(tr))

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

    def test_single_scenario(self, reproduced):
        rc, out, tmp_path = reproduced.rc, reproduced.out, reproduced.dir
        assert rc == 0
        assert "SCENARIO scenario_b PASS" in out
        assert "DISCREPANCY REPORT" in out
        assert (tmp_path / "scenario_b" / "trace.csv").exists()
        assert (tmp_path / "scenario_b" / "verify_report.txt").exists()
        assert (tmp_path / "discrepancy_report.txt").exists()


# Exit code of every package error, as the CLI returns it.
EXIT_CODES = {
    "ConfigError": 2, "ModelError": 3, "RunError": 4,
    "NoRelativeDegree": 3, "AmbiguousZero": 3, "TransformSingular": 3,
    "NotHurwitz": 3, "IndefiniteGamma": 3, "InvalidQ": 3,
    "DeltaTooLarge": 3, "InfeasibleEtaStar": 3, "EmptyWindow": 3,
    "CiOverflow": 3, "InfeasibleRefinement": 3, "TemplateRejected": 3,
    "DegenerateCertificate": 3,
    "InitialConditionViolated": 4, "FunnelViolation": 4,
    "StepUnderflow": 4, "IntegrationStalled": 4,
}


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.FunnelSimError)
    and c is not errors.FunnelSimError], ids=lambda c: c.__name__)
def test_error_exit_codes(cls):
    assert cls.exit_code == EXIT_CODES[cls.__name__]


def test_unexpected_error_exits_4(tmp_path, capsys, monkeypatch):
    # exit 1 is kept for a failed check; an untyped error is one line, with
    # no traceback
    def broken(cfg, outdir):
        raise RuntimeError("no such luck")

    monkeypatch.setattr(cli, "cmd_synthesize", broken)
    rc = cli.main(["synthesize", "--preset", "scenario_a",
                   "--out", str(tmp_path)])
    assert rc == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: RuntimeError: no such luck"]
