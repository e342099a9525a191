"""Smoke test of the benchmark harness on its smallest inputs.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, section):
    proc = run_bench(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_patches_every_lookup_and_restores_it():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracing import COUNTED, METHOD_SPANS, SPANS, Tracer, package_modules

    mods = package_modules()
    methods = [k for k in COUNTED if k[1] is not None] + list(METHOD_SPANS)
    methods.append(("cyclotomic", "Cyc", "is_zero"))
    wrapped = [getattr(mods[m], f) for m, f in SPANS]
    wrapped += [getattr(mods[m], a) for m, c, a in COUNTED if c is None]
    wrapped += [getattr(getattr(mods[m], c), a) for m, c, a in methods]

    def bindings():
        """Every module binding or method that still holds an original."""
        found = [(short, attr) for short, mod in mods.items()
                 for attr, value in vars(mod).items()
                 if any(value is fn for fn in wrapped)]
        found += [(c, a) for m, c, a in methods
                  if any(getattr(getattr(mods[m], c), a) is fn for fn in wrapped)]
        return found

    before = bindings()
    assert ("pipeline", "full_axiom_suite") in before
    assert ("duality", "full_axiom_suite") in before
    with Tracer():
        assert bindings() == []
    assert bindings() == before
