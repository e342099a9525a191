"""Golden transcripts: the CHECK lines of every zoo member, and the full
`verify` output of single-entry corruptions.

tests/golden/<stem>.txt holds report_lines() of one standard_zoo() member,
one line each, where the stem is the algebra name with every
non-alphanumeric character replaced by '_'.  tests/golden/fail/<stem>.txt
holds the stdout of `verify --seed 42` on one corrupted input, FAIL
details included, followed by an `exit <code>` line.  tests/golden/ladder/
holds report_lines() of the cyclic group algebras in LADDER, at the ends
of the range the zoo does not cover: dimension 1 and dimension 18.
tests/golden/stage/<algebra>-<fault>.txt holds report_lines() of C[Z3]
(positive) or sweedler (not positive) with one pipeline entry point made
to raise or to FAIL (STAGE_FAULTS), so every skip reason the gating can
give is pinned.  A refactor or
speed-up must leave these bytes alone; rewrite a file only for an intended
change of the transcript, and say so where the change is recorded.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from hopfcheck import pipeline, run_pipeline
from hopfcheck.errors import HopfError
from hopfcheck.cli import main
from hopfcheck.fileformat import hopf_to_text
from hopfcheck.report import FAIL, LAWS
from hopfcheck.zoo import cyclic_table, group_algebra, sweedler, taft, tensor_product

GOLDEN = Path(__file__).parent / "golden"
ANSWERS = Path(__file__).parents[1] / "perfbench" / "answers"

# (golden stem, builder, entry path in the .hopf document, new value).  The
# first four are the benchmark's fault mutants, the next three the
# corruptions of acceptance criterion 10; the next makes S singular, so the
# star exchange law has no S^-1 to test against; the last zeroes the unit,
# so the generators, whose certificate needs the unit law, must not be read.
CORRUPTIONS = [
    ("taft4-mult", lambda: taft(4), ("mult", 1, 4, 0), "1"),
    ("taft4-counit", lambda: taft(4), ("counit", 4), "1"),
    ("taft4-antipode", lambda: taft(4), ("antipode", 7, 4), "1"),
    ("swsw-star", lambda: tensor_product("sweedler(x)sweedler", sweedler(), sweedler()),
     ("star", 4, 4), "-1"),
    ("sweedler-mult", sweedler, ("mult", 1, 2, 0), "1"),
    ("sweedler-counit", sweedler, ("counit", 2), "1"),
    ("sweedler-antipode", sweedler, ("antipode", 3, 2), "1"),
    ("CZ2-singular-antipode", lambda: group_algebra("C[Z2]", cyclic_table(2)),
     ("antipode", 1, 1), "0"),
    ("sweedler-zero-unit", sweedler, ("unit", 0), "0"),
]


LADDER = {
    "C_Z1_": lambda: group_algebra("C[Z1]", cyclic_table(1)),
    "C_Z18_": lambda: group_algebra("C[Z18]", cyclic_table(18)),
}


def _stem(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def test_zoo_transcripts_match_golden_files(pipelines):
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(map(_stem, pipelines))
    for name, res in pipelines.items():
        got = ("\n".join(res.report_lines()) + "\n").encode("utf-8")
        assert got == (GOLDEN / f"{_stem(name)}.txt").read_bytes(), name


def test_stage_laws_name_every_printed_line(pipelines):
    # `verify --only` accepts exactly the names of LAWS, so they must be the
    # names a run prints
    for res in pipelines.values():
        assert [c.name for c in res.checks] == list(LAWS)


def test_stage_names_and_benchmark_answers_list_the_laws_in_order():
    # a stage that skips or raises prints its names, and the benchmark's
    # answers compare every printed name in order, so both must be LAWS
    assert [name for stage in pipeline.STAGES for name in stage.names] == list(LAWS)
    blocks: dict = {}
    for path in sorted(ANSWERS.glob("*.txt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line.startswith("["):
                names = blocks[f"{path.stem}:{line}"] = []
            elif line and not line.startswith("#"):
                names.append(line.split()[0])
    assert blocks
    for block, names in blocks.items():
        assert names == list(LAWS), block


_CHECK_LINE = re.compile(r"CHECK (\S+) (PASS|FAIL|SKIP:[a-z-]+) (.*)")


def test_every_golden_check_line_states_the_law_of_its_name():
    # CHECK <name> <PASS|FAIL|SKIP:<reason>> <LAWS[name]>[ ! <detail>]: the
    # identity depends on the name only, and only a FAIL carries a detail
    files = sorted(GOLDEN.rglob("*.txt"))
    assert files
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        if path.parent.name == "fail":  # verify's header, then its exit code
            assert lines[0].startswith("VERIFY ") and lines[-1].startswith("exit "), path
            lines = lines[1:-1]
        for line in lines:
            m = _CHECK_LINE.fullmatch(line)
            assert m is not None, (path, line)
            name, status, rest = m.groups()
            law = LAWS[name]
            assert rest == law or (status == "FAIL" and rest.startswith(law + " ! ")), (
                path, line)


@pytest.mark.parametrize("stem", sorted(LADDER))
def test_ladder_transcripts_match_golden_files(stem):
    assert sorted(p.stem for p in (GOLDEN / "ladder").glob("*.txt")) == sorted(LADDER)
    got = ("\n".join(run_pipeline(LADDER[stem]()).report_lines()) + "\n").encode("utf-8")
    assert got == (GOLDEN / "ladder" / f"{stem}.txt").read_bytes()


@pytest.mark.parametrize("seed", [20, 34, 2097404100])
def test_seed_decides_no_verdict(zoo, seed, tmp_path, capsys):
    # --seed selects nothing: at any seed the CHECK lines are the golden
    # ones.  These seeds once broke the float group-like search on the dual
    # of sweedler(x)sweedler.
    path = tmp_path / "swsw.hopf"
    path.write_text(hopf_to_text(zoo["sweedler(x)sweedler"]), encoding="utf-8")
    main(["verify", "--seed", str(seed), str(path)])
    head, *lines = capsys.readouterr().out.splitlines(keepends=True)
    assert head.startswith(f"VERIFY sweedler(x)sweedler dim=16 seed={seed} ")
    assert "".join(lines).encode("utf-8") == (GOLDEN / "sweedler_x_sweedler.txt").read_bytes()


def fail_transcript(build, where, value, tmp_path, capsys) -> str:
    """stdout of `verify --seed 42` on build() with one entry replaced, plus the exit code."""
    doc = json.loads(hopf_to_text(build()))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "corrupt.hopf"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    code = main(["verify", "--seed", "42", str(path)])
    return capsys.readouterr().out + f"exit {code}\n"


@pytest.mark.parametrize("stem, build, where, value", CORRUPTIONS,
                         ids=[c[0] for c in CORRUPTIONS])
def test_fail_transcripts_match_golden_files(stem, build, where, value, tmp_path, capsys):
    got = fail_transcript(build, where, value, tmp_path, capsys)
    assert got == (GOLDEN / "fail" / f"{stem}.txt").read_text(encoding="utf-8")


def _raises(name, stage=None):
    def broken(*args, **kwargs):
        e = HopfError(f"{name} made to fail")
        e.stage = stage
        raise e
    return broken


def _fails(name):
    real = getattr(pipeline, name)

    def failing(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), status=FAIL,
                                   detail=f"{name} made to fail")
    return failing


# (fault stem, pipeline binding, replacement factory): entry points whose
# HopfError the pipeline catches, compute_modular once per stage it can name,
# three that raise where no stage catches for them (positivity_verdict's leaves
# no verdict, so the positivity-gated stages skip), and the checks whose FAIL
# gates a later check: among them dual-modular-links, whose stage the
# factorization and s2-conjugation proofs cite, kac-collapse, which
# operator-radford's factors cite, and operator-radford, whose unitarity row
# plancherel's pairs cite
STAGE_FAULTS = [
    ("find_group_likes", "find_group_likes", lambda: _raises("find_group_likes")),
    *[(f"compute_modular-{stage}", "compute_modular",
       lambda stage=stage: _raises("compute_modular", stage))
      for stage in ("left-integral", "right-integral", "modular-element",
                    "modular-automorphism", "modular-automorphism-right",
                    "scaling-constant")],
    ("left_integral", "left_integral", lambda: _raises("left_integral")),
    ("compute_dual_integrals", "compute_dual_integrals",
     lambda: _raises("compute_dual_integrals")),
    ("modular_element", "modular_element", lambda: _raises("modular_element")),
    ("gns_build", "gns_build", lambda: _raises("gns_build")),
    ("modular_identity_checks", "modular_identity_checks",
     lambda: _raises("modular_identity_checks")),
    ("biduality_check", "biduality_check", lambda: _raises("biduality_check")),
    ("positivity_verdict", "positivity_verdict", lambda: _raises("positivity_verdict")),
    ("group_like_closure_check", "group_like_closure_check",
     lambda: _fails("group_like_closure_check")),
    ("gns_representation_check", "gns_representation_check",
     lambda: _fails("gns_representation_check")),
    ("dual_modular_links", "dual_modular_links", lambda: _fails("dual_modular_links")),
    ("kac_collapse_check", "kac_collapse_check", lambda: _fails("kac_collapse_check")),
    ("operator_radford_check", "operator_radford_check",
     lambda: _fails("operator_radford_check")),
]
STAGE_ALGEBRAS = {"CZ3": "C[Z3]", "sweedler": "sweedler"}


@pytest.mark.parametrize("algebra", sorted(STAGE_ALGEBRAS))
@pytest.mark.parametrize("fault, attr, make", STAGE_FAULTS, ids=[f[0] for f in STAGE_FAULTS])
def test_stage_failure_transcripts_match_golden_files(algebra, fault, attr, make, zoo,
                                                      monkeypatch):
    monkeypatch.setattr(pipeline, attr, make())
    got = "\n".join(run_pipeline(zoo[STAGE_ALGEBRAS[algebra]]).report_lines()) + "\n"
    assert got == (GOLDEN / "stage" / f"{algebra}-{fault}.txt").read_text(encoding="utf-8")
