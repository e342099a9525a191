"""README.md's python blocks run as written, each in a fresh namespace, and
the associativity law its law block states passes on taft(4), as
verify_algebra does."""

import re
from pathlib import Path

from hopfcheck import taft
from hopfcheck.hopf import verify_algebra

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_python_block_runs_and_the_law_block_passes():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    checks = []
    for n, code in enumerate(blocks):
        ns: dict = {}
        exec(compile(code, f"README.md python block {n}", "exec"), ns)
        if "law_check(" in code:
            checks.append(ns["check"])
    assert [c.status for c in checks] == ["PASS"]
    assert checks == [verify_algebra(taft(4))]
