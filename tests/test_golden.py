"""Golden transcripts: the CHECK lines of every zoo member at seed 42.

tests/golden/<stem>.txt holds report_lines() of one standard_zoo() member,
one line each, where the stem is the algebra name with every
non-alphanumeric character replaced by '_'.  A refactor or speed-up must
leave these bytes alone; rewrite a file only for an intended change of the
transcript, and say so where the change is recorded.
"""

from pathlib import Path

import pytest

from hopfcheck import run_pipeline

GOLDEN = Path(__file__).parent / "golden"


def _stem(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def test_zoo_transcripts_match_golden_files(pipelines):
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(map(_stem, pipelines))
    for name, res in pipelines.items():
        got = ("\n".join(res.report_lines()) + "\n").encode("utf-8")
        assert got == (GOLDEN / f"{_stem(name)}.txt").read_bytes(), name


@pytest.mark.parametrize("seed", [20, 34, 2097404100])
def test_seed_decides_no_verdict(zoo, seed):
    # the seed only picks the Plancherel samples; these seeds once broke the
    # float group-like search on the dual of sweedler(x)sweedler
    got = "\n".join(run_pipeline(zoo["sweedler(x)sweedler"], seed=seed).report_lines()) + "\n"
    assert got.encode("utf-8") == (GOLDEN / "sweedler_x_sweedler.txt").read_bytes()
