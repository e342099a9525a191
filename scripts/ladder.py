#!/usr/bin/env python3
"""Time the whole pipeline on a fixed ladder of algebras, largest last.

Each member is built with the `hopfcheck.zoo` builders and verified
in-process by `run_pipeline` RUNS times.  The script prints one
JSON record: for each member its name, dim, every run's wall time and
process CPU time (time.process_time, which leaves out the time the process
waits), the median of each, and the sha256 of what `hopfcheck verify` and
then `hopfcheck report` print for the member's file.  That transcript holds
the CHECK lines and the computed values (phi, psi, delta, delta_hat, nu,
the orders of S and S^2, the group-likes, positivity and kac); it comes
from one more pass through the command line, which is not timed.  Two
checkouts compare by running it once in each, with that checkout's
sources first on the path:

    PYTHONPATH=src python3 scripts/ladder.py > ladder.json

The member file is written to a temporary directory (TMPDIR decides
where).  It is not part of the test suite: the whole ladder takes minutes.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

from hopfcheck import group_algebra, run_pipeline, sweedler, taft, tensor_product
from hopfcheck.cli import main as cli_main
from hopfcheck.fileformat import hopf_to_text
from hopfcheck.zoo import cyclic_table

RUNS = 3


def _sweedler_cubed():
    sw2 = tensor_product("sweedler(x)sweedler", sweedler(), sweedler())
    return tensor_product("sweedler(x)sweedler(x)sweedler", sweedler(), sw2)


MEMBERS = {f"taft({n})": (lambda n=n: taft(n)) for n in range(4, 13)}
MEMBERS["sweedler^(x)3"] = _sweedler_cubed
for _n in (18, 24, 36, 48):
    MEMBERS[f"C[Z{_n}]"] = lambda n=_n: group_algebra(f"C[Z{n}]", cyclic_table(n))


def transcript_sha256(h) -> str:
    """sha256 of the stdout of `verify` then `report` on h's file."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "member.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(hopf_to_text(h))
        with contextlib.redirect_stdout(out):
            cli_main(["verify", path])
            cli_main(["report", path])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def measure(build) -> dict:
    times, cpu = [], []
    for _ in range(RUNS):
        h = build()  # fresh, so no cached table carries over between runs
        t0, c0 = time.perf_counter(), time.process_time()
        run_pipeline(h)
        times.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
    return {"dim": h.dim, "runs_s": [round(t, 3) for t in times],
            "cpu_s": [round(t, 3) for t in cpu],
            "median_s": round(statistics.median(times), 3),
            "median_cpu_s": round(statistics.median(cpu), 3),
            "sha256": transcript_sha256(build())}


def main() -> int:
    record = {"python": platform.python_version(), "runs": RUNS, "members": {}}
    for name, build in MEMBERS.items():
        record["members"][name] = measure(build)
        print(f"{name}: {record['members'][name]['median_s']} s", file=sys.stderr)
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
