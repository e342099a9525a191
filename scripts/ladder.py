#!/usr/bin/env python3
"""Time the whole pipeline on a fixed ladder of algebras, largest last, for
one source tree or two.

    python3 scripts/ladder.py [--faults] [SRC_A [SRC_B]] > ladder.json

SRC_A and SRC_B are the `src` directories of two checkouts; SRC_A defaults
to this checkout's.  For each member the trees take turns, A, B, A, B, ...,
RUNS times each, and every run is a fresh interpreter with its tree first on
PYTHONPATH and BLAS pinned to one thread, so load on the box falls on both
sides alike and no run inherits another's caches.  A run builds the member
and times `run_pipeline` by wall time and by process CPU time
(time.process_time, which leaves out the time the process waits); each run
is printed to stderr as it ends, and the CPU-time medians after each member.
Each run also records its peak RSS (ru_maxrss of its fresh interpreter, so
building the member counts too), and times every stage of `pipeline.STAGES`
that runs, by process CPU time, under the name of the stage's first check,
so that a growth exponent can be fitted per stage over the members of one
family.

Then one more interpreter per tree, not timed, takes the sha256 of what
`hopfcheck verify` and then `hopfcheck report` print for the member's file.
That transcript holds the CHECK lines and the computed values (phi, psi,
delta, delta_hat, nu, the orders of S and S^2, the group-likes, positivity
and kac).  The member file is written to a temporary directory (TMPDIR
decides where).

The script prints one JSON record: for each member its dim and, for each
tree, every run's wall and CPU time and peak RSS, the median of each, the
median CPU time of each stage and the digest, plus whether the digests of
the two trees are equal.  It is not part of the test suite: the whole
ladder takes minutes.

--faults runs the fault ladder instead: each of FAULT_MEMBERS clean, then
with one entry of mult, comult or the antipode raised by 1, at its first
and at its last nonzero in index order, each timed as above next to the
clean run.  Every run also takes the sha256 of its CHECK lines, so that
two trees compare their failing transcripts; the record holds, for each
member and case, the runs, the median CPU time and its ratio to the clean
median, and that digest.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 3
MEMBER_NAMES = ([f"taft({n})" for n in (*range(4, 13), 16)] + ["sweedler^(x)3", "sweedler^(x)4"]
                + [f"C[Z{n}]" for n in (18, 24, 36, 48, 96, 128, 256)])
FAULT_MEMBERS = ["taft(8)", "taft(10)", "sweedler^(x)3", "C[Z48]"]
FAULTS = [f"{table}:{end}" for table in ("mult", "comult", "antipode")
          for end in ("first", "last")]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build(name: str):
    """The ladder member called name, built with the hopfcheck.zoo builders."""
    from hopfcheck import group_algebra, sweedler, taft, tensor_product
    from hopfcheck.zoo import cyclic_table

    if name.startswith("taft("):
        return taft(int(name[5:-1]))
    if name.startswith("C[Z"):
        n = int(name[3:-1])
        return group_algebra(name, cyclic_table(n))
    h = sweedler()  # sweedler^(x)n is sweedler (x) sweedler^(x)(n-1)
    for k in range(2, int(name[-1]) + 1):
        h = tensor_product("(x)".join(["sweedler"] * k), sweedler(), h)
    return h


def corrupt(h, fault: str):
    """h with one entry raised by 1: fault is "table:first" or "table:last",
    the table's first or last nonzero entry in index order."""
    import dataclasses

    from hopfcheck import CYC_ONE, Mat, Tensor3

    table, end = fault.split(":")
    t = getattr(h, table)
    if isinstance(t, Tensor3):
        entries = dict(t.items())
    else:
        entries = {(i, j): c for j, col in enumerate(t.images) for i, c in col.support}
    key = sorted(entries)[0 if end == "first" else -1]
    entries[key] = entries[key] + CYC_ONE
    new = Tensor3(h.dim, entries) if isinstance(t, Tensor3) else Mat.of(t.rows, t.cols, entries)
    return dataclasses.replace(h, **{table: new})


def time_run(name: str, fault: str | None = None) -> dict:
    """One timed run_pipeline on a freshly built member, corrupted by fault
    when given, with the CPU time of each stage that runs, keyed by the
    stage's first check name, the sha256 of the CHECK lines and the
    process's peak RSS in MB."""
    import hashlib
    import resource
    import time

    from hopfcheck import pipeline, run_pipeline

    stage_cpu: dict = {}

    def timed(label: str, run):
        def run_timed(h, values):
            c0 = time.process_time()
            try:
                return run(h, values)
            finally:
                stage_cpu[label] = time.process_time() - c0
        return run_timed

    # run_pipeline reads the module's STAGES when it is called
    pipeline.STAGES = tuple(stage._replace(run=timed(stage.names[0], stage.run))
                            for stage in pipeline.STAGES)
    h = build(name) if fault is None else corrupt(build(name), fault)
    t0, c0 = time.perf_counter(), time.process_time()
    res = run_pipeline(h)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    checks = "\n".join(res.report_lines()).encode()
    return {"dim": h.dim, "wall_s": wall, "cpu_s": cpu, "stage_cpu_s": stage_cpu,
            "checks_sha256": hashlib.sha256(checks).hexdigest(),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def transcript_sha256(name: str) -> dict:
    """sha256 of the stdout of `verify` then `report` on the member's file."""
    import contextlib
    import hashlib
    import io
    import tempfile

    from hopfcheck.cli import main as cli_main
    from hopfcheck.fileformat import hopf_to_text

    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "member.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(hopf_to_text(build(name)))
        with contextlib.redirect_stdout(out):
            cli_main(["verify", path])
            cli_main(["report", path])
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


WORKERS = {"--time": time_run, "--sha256": transcript_sha256}


def in_fresh_interpreter(src: str, mode: str, *args: str) -> dict:
    """Run this script as a worker under src and return what it prints."""
    env = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in BLAS_VARS})
    out = subprocess.run([sys.executable, __file__, mode, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def measure(name: str, trees: dict) -> dict:
    sides = {label: {"runs_s": [], "cpu_s": [], "peak_rss_mb": [], "stage_cpu_s": []}
             for label in trees}
    dim = None
    for run in range(1, RUNS + 1):
        for label, src in trees.items():
            r = in_fresh_interpreter(src, "--time", name)
            dim = r["dim"]
            sides[label]["runs_s"].append(round(r["wall_s"], 3))
            sides[label]["cpu_s"].append(round(r["cpu_s"], 3))
            sides[label]["peak_rss_mb"].append(round(r["peak_rss_mb"], 1))
            sides[label]["stage_cpu_s"].append(r["stage_cpu_s"])
            print(f"{name} {label} run {run}: {r['wall_s']:.3f} s wall, {r['cpu_s']:.3f} s cpu, "
                  f"{r['peak_rss_mb']:.1f} MB peak", file=sys.stderr)
    for label, src in trees.items():
        side = sides[label]
        side["median_s"] = round(statistics.median(side["runs_s"]), 3)
        side["median_cpu_s"] = round(statistics.median(side["cpu_s"]), 3)
        side["median_peak_rss_mb"] = round(statistics.median(side["peak_rss_mb"]), 1)
        runs = side.pop("stage_cpu_s")
        side["stage_median_cpu_s"] = {stage: round(statistics.median(run[stage] for run in runs
                                                                     if stage in run), 4)
                                      for stage in runs[0]}
        side.update(in_fresh_interpreter(src, "--sha256", name))
    print(f"{name}: median cpu " + ", ".join(f"{label} {sides[label]['median_cpu_s']} s"
                                            for label in trees), file=sys.stderr)
    record = {"dim": dim, **sides}
    if len(trees) == 2:
        record["digests_equal"] = len({side["sha256"] for side in sides.values()}) == 1
    return record


def measure_faults(name: str, trees: dict) -> dict:
    """The clean member and each of FAULTS, every run in turn over the trees."""
    cases: dict = {}
    for fault in [None, *FAULTS]:
        case = cases[fault or "clean"] = {label: {"cpu_s": [], "checks_sha256": set()}
                                          for label in trees}
        for run in range(RUNS):
            for label, src in trees.items():
                r = in_fresh_interpreter(src, "--time", name, *([fault] if fault else []))
                dim = r["dim"]
                case[label]["cpu_s"].append(round(r["cpu_s"], 3))
                case[label]["checks_sha256"].add(r["checks_sha256"])
        for label, side in case.items():
            side["median_cpu_s"] = round(statistics.median(side["cpu_s"]), 3)
            side["checks_sha256"] = " ".join(sorted(side["checks_sha256"]))
            side["vs_clean"] = round(side["median_cpu_s"]
                                     / max(cases["clean"][label]["median_cpu_s"], 1e-3), 2)
        if len(trees) == 2:
            case["checks_equal"] = len({side["checks_sha256"] for side in case.values()}) == 1
        print(f"{name} {fault or 'clean'}: median cpu "
              + ", ".join(f"{label} {case[label]['median_cpu_s']} s" for label in trees),
              file=sys.stderr)
    return {"dim": dim, "cases": cases}


def main(argv: list) -> int:
    if argv and argv[0] in WORKERS:
        print(json.dumps(WORKERS[argv[0]](*argv[1:])))
        return 0
    faults = argv[:1] == ["--faults"]
    argv = argv[faults:]
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    srcs = [str(Path(p).resolve()) for p in argv or [Path(__file__).resolve().parents[1] / "src"]]
    trees = dict(zip("AB", srcs))
    record = {"python": platform.python_version(), "runs": RUNS, "trees": trees}
    if faults:
        record["faults"] = {name: measure_faults(name, trees) for name in FAULT_MEMBERS}
    else:
        record["members"] = {name: measure(name, trees) for name in MEMBER_NAMES}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
