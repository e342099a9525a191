import os
from pathlib import Path

import pytest

from hopfcheck import run_pipeline, standard_zoo

# pyproject's pythonpath puts src on this process's path; the tests that run
# `python -m hopfcheck.cli` in a child process get it through PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def zoo():
    return {h.name: h for h in standard_zoo()}


@pytest.fixture(scope="session")
def pipelines(zoo):
    """One full verification run per zoo algebra, shared across the suite."""
    return {name: run_pipeline(h) for name, h in zoo.items()}


def checks_by_name(result):
    return {c.name: c for c in result.checks}
