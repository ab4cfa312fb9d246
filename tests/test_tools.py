"""Command-line checks of the scripts under tools/."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_ab_integrate_refuses_fewer_than_two_pairs(pairs, capsys):
    # refused before any worker starts: the quartiles need two pairs
    with pytest.raises(SystemExit) as ei:
        load("ab_integrate").main(["old", "new", "--pairs", pairs])
    assert ei.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_ab_integrate_same_checkout(tmp_path, monkeypatch, capsys):
    # both workers import funnelsim through the private cli._build_run and
    # cli._sim_options; one checkout against itself must agree bit for bit
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    out = tmp_path / "ab.json"
    load("ab_integrate").main([str(TOOLS.parent)] * 2 + [
        "--pairs", "2", "--case", "stiff_loop:0", "--accuracy",
        "--json", str(out)])
    rep = json.loads(out.read_text())["stiff_loop:0"]
    assert rep["counts_identical"] and rep["endpoints_identical"]
    assert rep["max_rel_deviation"] == 0.0
    assert rep["old_accuracy"] == rep["new_accuracy"]
    assert "stiff_loop:0: counts identical True" in capsys.readouterr().out


def test_design_digest_counts(monkeypatch):
    # the tool imports private names of bench/workloads.py; its md5 is not
    # pinned, since another LAPACK build may round differently
    monkeypatch.setattr(sys, "path", list(sys.path))    # digest adds bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        _, counts, forms = load("design_digest").digest(TOOLS.parent)
    finally:
        sys.modules.pop("workloads", None)
    assert (sum(counts.values()), forms) == (400, 359)
    assert counts == {"AmbiguousZero": 20, "DeltaTooLarge": 118,
                      "NoRelativeDegree": 21, "NotHurwitz": 41,
                      "feasible": 200}
