"""The hopfcheck benchmark: time to a verified verdict on one workload.

    python3 perfbench/run.py --workload {zoo,taft,group,fault} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports hopfcheck from src/.
Set-up writes the workload's .hopf files under .perfbench_work/ in a few
fresh interpreters.  The benchmark then calls `hopfcheck.cli.main(["verify",
"--seed", N, file])` in this process, one file at a time and one pass over
the files after another, until S seconds have gone, and checks every verdict
against perfbench/answers/.  One closed-loop client, no concurrency, BLAS
pinned to BLAS_THREADS.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics of perfbench/tracing.py
plus the scalar microbench.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import workloads
from speed import Speedometer

ROOT = workloads.ROOT
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_TRIALS = 7
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"verify_s": "s", "verify_cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

# Per-layer metrics: span self times in s, call counts, and the rest.
LAYER_SPANS = (
    "linalg.solve_null_space", "linalg.mat_inverse", "linalg.mat_mul", "linalg.rank",
    "hopf.axiom_suite", "hopf.find_group_likes", "hopf.group_like_closure",
    "integrals.compute_modular", "integrals.modular_identities",
    "duality.dual_hopf", "duality.dual_axiom_suite", "duality.pairing",
    "duality.dual_integrals", "duality.dual_modular_links", "duality.plancherel",
    "duality.biduality",
    "radford.s4", "radford.factorization", "radford.orders", "radford.s2_variants",
    "gns.positivity", "gns.build", "gns.representation", "gns.tomita",
    "gns.operator_radford", "gns.kac",
    "fileformat.parse",
)
LAYER_CALLS = (
    "cyclotomic.mul", "cyclotomic.add", "cyclotomic.div", "cyclotomic.inverse",
    "cyclotomic.embed", "cyclotomic.is_zero",
    "linalg.solve_null_space", "linalg.mat_inverse", "linalg.mat_mul",
    "hopf.mul", "hopf.coprod", "duality.act",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_up(workload: str) -> tuple:
    """Write the inputs SETUP_TRIALS times, each in a fresh interpreter.

    Returns (median rescaled seconds, paths).  A trial's time covers
    importing hopfcheck, building the algebras and writing the files; every
    trial must write the same bytes.
    """
    outdir = WORK / workload
    times, raw, digests = [], [], set()
    for _ in range(SETUP_TRIALS):
        proc = subprocess.run(
            [sys.executable, str(Path(workloads.__file__)), workload, str(outdir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        trial = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(trial["setup_s"])
        raw.append(trial["setup_raw_s"])
        digests.add(trial["digest"])
    if len(digests) != 1:
        raise RuntimeError(f"set-up wrote different bytes across trials: {digests}")
    print(tail_line("setup_s as measured", raw))
    return statistics.median(times), [outdir / name for name in trial["files"]]


def verify(main, path: Path, seed: int) -> dict:
    """One `hopfcheck verify` call, timed from reading the file to the last line."""
    out, err = io.StringIO(), io.StringIO()
    w0, c0 = perf_counter(), process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--seed", str(seed), str(path)])
    except Exception as e:  # a crash is a wrong verdict, not a benchmark error
        code = f"{type(e).__name__}: {e}"
    return {"wall": perf_counter() - w0, "cpu": process_time() - c0,
            "code": code, "stdout": out.getvalue()}


def verdict_error(result: dict, answer: tuple, seed: int) -> str | None:
    """Why the transcript disagrees with the known answer, or None.

    Compares the exit code, the VERIFY header, and each check's name and
    status token (PASS, FAIL or SKIP:<reason>); identity and failure detail
    text is not compared.
    """
    name, dim, code, checks = answer
    lines = result["stdout"].splitlines()
    head = f"VERIFY {name} dim={dim} seed={seed} "
    if not lines or not lines[0].startswith(head):
        return (f"exit {result['code']!r}, expected {code}; "
                f"header {lines[:1]!r}, expected {head!r}")
    got = [tuple(line.split()[1:3]) for line in lines[1:]]
    if not all(line.startswith("CHECK ") for line in lines[1:]):
        return "transcript has a line that is not a CHECK line"
    if got != checks:
        # the first wrong check says more than the exit code it causes
        diff = next((i for i, (g, w) in enumerate(zip(got, checks)) if g != w),
                    min(len(got), len(checks)))
        shown = got[diff] if diff < len(got) else "end of transcript"
        want = checks[diff] if diff < len(checks) else "end of transcript"
        return f"check {diff}: got {shown}, expected {want}"
    if result["code"] != code:
        return f"exit {result['code']!r}, expected {code}"
    return None


class Passes:
    """Verifies every input once per pass and keeps the verdict tally."""

    def __init__(self, main, paths: list, answers: dict, seed: int):
        self.main, self.paths, self.seed = main, paths, seed
        self.answers = [answers[p.stem] for p in paths]
        self.first = {}          # path -> stdout of its first verify
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self) -> dict:
        """One pass: summed wall and CPU seconds, as measured and rescaled to
        reference speed (speed.py)."""
        wall = cpu = 0.0
        with Speedometer() as speed:
            for path, answer in zip(self.paths, self.answers):
                spent = list(speed.spent)
                r = verify(self.main, path, self.seed)
                wall += r["wall"] - (speed.spent[0] - spent[0])
                cpu += r["cpu"] - (speed.spent[1] - spent[1])
                self.attempted += 1
                why = verdict_error(r, answer, self.seed)
                first = self.first.setdefault(path, r["stdout"])
                if why is None and r["stdout"] != first:
                    why = "transcript differs from this input's first transcript"
                if why is not None:
                    self.failed += 1
                    self.errors.append(f"{path.name}: {why}")
        wall_ref, cpu_ref = speed.rescale(wall, cpu)
        return {"wall": wall, "cpu": cpu, "wall_ref": wall_ref, "cpu_ref": cpu_ref}


def tail_line(name: str, samples: list) -> str:
    """Median and sample count, plus p90 only when ten samples lie beyond it."""
    line = f"{name}: median={statistics.median(samples):.6g} n={len(samples)}"
    if len(samples) >= 100:
        line += f" p90={statistics.quantiles(samples, n=10)[-1]:.6g}"
    return line


def ends_closer(t0: float, step_s: float, seconds: float) -> bool:
    """Whether one more step of step_s, started now, ends nearer to t0 + seconds."""
    return perf_counter() - t0 + step_s / 2 < seconds


def end_to_end(passes: Passes, seconds: float, setup_s: float) -> dict:
    runs = []
    t0 = perf_counter()
    while not runs or ends_closer(t0, runs[-1]["wall"], seconds):
        runs.append(passes.run())
        if len(runs) == 1:
            # after one pass, so that the figure does not depend on the pass count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for key, name in (("wall", "verify_s"), ("cpu", "verify_cpu_s")):
        print(tail_line(f"{name} as measured", [p[key] for p in runs]))
        print(tail_line(name, [p[key + "_ref"] for p in runs]))
    print(tail_line("slowdown against reference speed", [p["wall"] / p["wall_ref"] for p in runs]))
    return {"verify_s": statistics.median(p["wall_ref"] for p in runs),
            "verify_cpu_s": statistics.median(p["cpu_ref"] for p in runs),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb}


def per_layer(passes: Passes, seconds: float, workload: str) -> dict:
    import microbench
    from tracing import Tracer

    write_tracer = Tracer()
    with Speedometer() as speed, write_tracer:
        workloads.write_inputs(workload, WORK / workload / "traced")
    write_s = speed.rescale(write_tracer.self_s["fileformat.write"], 0.0)[0]
    traced, plain, self_s, counts = [], [], [], []
    t0 = perf_counter()
    while not traced or ends_closer(t0, traced[-1]["wall"] + plain[-1]["wall"], seconds):
        # the first pass is untraced, and Passes holds every later transcript,
        # traced ones included, to the first byte for byte
        plain.append(passes.run())
        with Tracer() as tracer:
            traced.append(passes.run())
        scale = traced[-1]["wall_ref"] / traced[-1]["wall"]
        self_s.append({span: t * scale for span, t in tracer.self_s.items()})
        counts.append(dict(tracer.calls))
    if any(c != counts[0] for c in counts):
        passes.failed += 1
        passes.errors.append("call counts differ between traced passes")

    def median_self(span):
        return statistics.median(s.get(span, 0.0) for s in self_s)

    calls = counts[0]
    m = {f"{span}.s": median_self(span) for span in LAYER_SPANS}
    m.update({f"{name}.calls": calls.get(name, 0) for name in LAYER_CALLS})
    zero_tests = calls.get("cyclotomic.is_zero", 0)
    m["cyclotomic.is_zero.nonzero_frac"] = (
        calls.get("cyclotomic.is_zero.nonzero", 0) / zero_tests if zero_tests else 0.0)
    m["fileformat.write.s"] = write_s
    m["fileformat.bytes"] = sum(p.stat().st_size for p in passes.paths)
    m["pipeline.self.s"] = median_self("pipeline")
    traced_s = [t["wall_ref"] for t in traced]
    plain_s = [u["wall_ref"] for u in plain]
    m["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    print(tail_line("traced verify_s", traced_s))
    print(tail_line("untraced verify_s", plain_s))
    m.update(microbench.scalar_costs())
    return m


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_frac"):
        return "ratio"
    if "_us." in metric:
        return "us"
    return "B" if metric == "fileformat.bytes" else "s"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hopfcheck" / "__init__.py").is_file():
        print(f"error: no hopfcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s, paths = set_up(args.workload)
    from hopfcheck.cli import main as hopfcheck_main

    print("env: " + json.dumps({**environment(), "seed": args.seed,
                                "workload": args.workload, "seconds": args.seconds}))
    passes = Passes(hopfcheck_main, paths, workloads.load_answers(), args.seed)
    if args.trace:
        metrics = per_layer(passes, args.seconds, args.workload)
    else:
        metrics = end_to_end(passes, args.seconds, setup_s)
    for err in passes.errors[:20]:
        print(f"wrong: {err}")
        print(f"wrong: {err}", file=sys.stderr)
    print(f"failed_frac: {passes.failed / passes.attempted:.6g} "
          f"({passes.failed} of {passes.attempted})")
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
