"""run_pipeline's commit rule, and the scripts that read the pipeline's values."""

import importlib.util
from pathlib import Path

import pytest

from hopfcheck import pipeline, run_pipeline
from hopfcheck.pipeline import Stage
from hopfcheck.report import FAIL, PASS, SKIP, Check, ok

SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize("status, commits", [(FAIL, False), (SKIP, True), (PASS, True)])
def test_a_stage_commits_its_values_unless_it_fails(monkeypatch, zoo, status, commits):
    # the first stage sets a value whatever it prints; the second requires it
    def sets_x(h, v):
        v["x"] = 1
        return [Check("algebra", status, "made-to-" + status.lower())]

    monkeypatch.setattr(pipeline, "STAGES", (
        Stage(("algebra",), (), sets_x),
        Stage(("coalgebra",), ("x",), lambda h, v: [ok("coalgebra")]),
    ))
    res = run_pipeline(zoo["C[Z2]"])
    assert [c.status for c in res.checks] == [status, PASS if commits else SKIP]
    assert ("x" in res.values) == commits
    if not commits:
        assert res.checks[1].detail == "prerequisite-failed"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# name -> (ord(S), ord(S^2)), in standard_zoo() order
SURVEY_ORDERS = {
    "C[Z2]": ("1", "1"), "C[Z3]": ("2", "1"), "C[Z6]": ("2", "1"), "C[S3]": ("2", "1"),
    "F(Z2)": ("1", "1"), "F(Z3)": ("2", "1"), "F(Z6)": ("2", "1"), "F(S3)": ("2", "1"),
    "sweedler": ("4", "2"), "taft(2)": ("4", "2"), "taft(3)": ("6", "3"),
    "sweedler(x)C[Z2]": ("4", "2"), "sweedler(x)sweedler": ("4", "2"),
}


def test_modular_survey_prints_one_row_per_member(capsys):
    assert _load("modular_survey").main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 14
    assert rows[0][3:5] == ["ord(S)", "ord(S^2)"]
    assert {row[0]: tuple(row[3:5]) for row in rows[1:]} == SURVEY_ORDERS
    assert [row[0] for row in rows[1:]] == list(SURVEY_ORDERS)


def test_verify_zoo_passes_on_the_zoo(capsys):
    assert _load("verify_zoo").main([]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("== ") for line in out.splitlines()) == len(SURVEY_ORDERS)
    assert " 0 failing checks" in out
