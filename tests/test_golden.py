"""Golden transcripts: the CHECK lines of every zoo member at seed 42.

tests/golden/<stem>.txt holds report_lines() of one standard_zoo() member,
one line each, where the stem is the algebra name with every
non-alphanumeric character replaced by '_'.  A refactor or speed-up must
leave these bytes alone; rewrite a file only for an intended change of the
transcript, and say so where the change is recorded.
"""

from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def _stem(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def test_zoo_transcripts_match_golden_files(pipelines):
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(map(_stem, pipelines))
    for name, res in pipelines.items():
        got = ("\n".join(res.report_lines()) + "\n").encode("utf-8")
        assert got == (GOLDEN / f"{_stem(name)}.txt").read_bytes(), name
