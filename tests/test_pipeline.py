"""run_pipeline's commit rule, and the scripts that read the pipeline's values."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from hopfcheck import pipeline, run_pipeline
from hopfcheck.errors import HopfError
from hopfcheck.pipeline import STAGES, Stage
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



@pytest.mark.parametrize("status, runs", [(PASS, True), (FAIL, False), (SKIP, False)])
def test_a_stage_runs_only_once_every_check_it_cites_has_passed(monkeypatch, zoo, status,
                                                                 runs):
    # coalgebra cites algebra, which prints status, a SKIP with its own
    # reason included; bialgebra cites nothing, so an uncited FAIL leaves it
    # running
    monkeypatch.setattr(pipeline, "STAGES", (
        Stage(("algebra",), (), lambda h, v: [Check("algebra", status, "made-" + status.lower())]),
        Stage(("coalgebra",), (), lambda h, v: [ok("coalgebra")], cites=("algebra",)),
        Stage(("bialgebra",), (), lambda h, v: [ok("bialgebra")]),
    ))
    checks = run_pipeline(zoo["C[Z2]"]).checks
    assert checks[1].status == (PASS if runs else SKIP)
    if not runs:
        assert checks[1].detail == "prerequisite-failed"
    assert checks[2].status == PASS


def test_stages_on_a_member_without_a_star_cite_no_star_check(pipelines):
    # taft(3) has no star, so dual-star prints SKIP:no-star; the stages
    # that run there must not cite it, or they would skip with it
    checks = {c.name: c for c in pipelines["taft(3)"].checks}
    assert checks["dual-star"].line().startswith("CHECK dual-star SKIP:no-star ")
    for name in ("dual-group-likes", "pairing-actions", "dual-integrals"):
        assert checks[name].passed(), name


# the pipeline binding whose result prints each cited check; the integral
# checks are printed by the stage itself, and compute_modular's HopfError
# names the one that fails
_BINDINGS = {
    **dict.fromkeys(pipeline._AXIOMS, "full_axiom_suite"),
    **{"dual-" + name: "dual_axiom_checks" for name in pipeline._AXIOMS},
    **dict.fromkeys(pipeline._INTEGRALS, "compute_modular"),
    "modular-conjugation": "modular_identity_checks",
    "dual-modular-links": "dual_modular_links", "radford-s4": "radford_check",
    "kac-collapse": "kac_collapse_check", "tomita-commutant": "tomita_check",
    "operator-radford": "operator_radford_check",
}
EDGES = [(cited, stage) for stage in STAGES for cited in stage.cites]


def _fail_at(monkeypatch, name):
    """Make the check called name FAIL, through the pipeline-global binding
    that computes it."""
    attr = _BINDINGS[name]
    real = getattr(pipeline, attr)

    def failed(c):
        return dataclasses.replace(c, status=FAIL, detail=f"{name} made to fail")

    def failing(*args, **kwargs):
        if attr == "compute_modular":
            e = HopfError(f"{name} made to fail")
            e.stage = name
            raise e
        out = real(*args, **kwargs)
        if isinstance(out, list):
            return [failed(c) if c.name == name else c for c in out]
        return failed(out) if out.name == name else out

    monkeypatch.setattr(pipeline, attr, failing)


def test_every_cite_names_a_check_an_earlier_stage_prints():
    printed = set()
    for stage in STAGES:
        assert set(stage.cites) <= printed, stage.names
        printed.update(stage.names)
    assert {cited for cited, _ in EDGES} <= set(_BINDINGS)


def test_the_integral_rows_on_generators_are_edges_of_the_walk():
    # A's integral rows run on the generators of H*, whose proof reads
    # coassociativity, the counit law and D(1) = 1(x)1; the dual's run on
    # h.generators, as the transposed checks allow
    edges = {(cited, stage.names[0]) for cited, stage in EDGES}
    want = {("coalgebra", "left-integral"), ("bialgebra", "left-integral")}
    for stage in ("dual-integrals", "dual-modular-element"):
        want |= {(name, stage) for name in pipeline._TRANSPOSED}
    assert want <= edges


# C[S3] is positive, so every stage runs; on taft(3), which has no star, a
# positivity-gated stage skips with the verdict before its cites are read,
# so there the walk covers the other stages
WALK = [(member, cited, stage) for member in ("C[S3]", "taft(3)") for cited, stage in EDGES
        if member == "C[S3]" or not stage.positive]


@pytest.mark.parametrize("member, cited, stage", WALK,
                         ids=[f"{m}:{cited}->{stage.names[0]}" for m, cited, stage in WALK])
def test_a_failed_cite_skips_the_citing_check(monkeypatch, zoo, pipelines, member, cited,
                                              stage):
    clean = {c.name: c for c in pipelines[member].checks}
    assert clean[cited].passed(), cited
    assert clean[stage.names[0]].detail != "prerequisite-failed"
    _fail_at(monkeypatch, cited)
    checks = {c.name: c for c in run_pipeline(zoo[member]).checks}
    assert checks[cited].status == FAIL
    assert checks[stage.names[0]].line().startswith(
        f"CHECK {stage.names[0]} SKIP:prerequisite-failed ")


@pytest.mark.parametrize("cited", [None, "dual-modular-links", "radford-s4", "not_derived"])
def test_s2_half_power_runs_on_the_generators_only_once_its_gate_passes(monkeypatch, zoo,
                                                                        cited):
    # the generators decide s2-half-power once the cached S^2 is certified as
    # S.S (integrals.derived_failure), whatever dual-modular-links and
    # radford-s4 print; a certificate that fails gives the full scan
    seen = []
    real = pipeline.half_power_check

    def recording(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(pipeline, "half_power_check", recording)
    if cited == "not_derived":
        monkeypatch.setattr(pipeline, "derived_failure", lambda h, md: "made to fail")
    elif cited is not None:
        _fail_at(monkeypatch, cited)
    h = zoo["C[Z6]"]
    checks = {c.name: c for c in run_pipeline(h).checks}
    assert checks["s2-half-power"].passed()
    assert seen == [None if cited == "not_derived" else h.generators]


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
