"""Benchmark inputs: which algebras each workload verifies, and how they are made.

Every input is built exactly with the `hopfcheck.zoo` builders and written
with `fileformat.save_hopf`; the fault mutants are single-entry edits of a
builder's canonical text.  Nothing here depends on the benchmark seed, which
reaches the program only as `verify --seed`.

Run as a script, this module is one set-up trial: it imports hopfcheck,
builds one workload, writes its files and prints the elapsed seconds (as
measured, and rescaled to reference speed by speed.py), the file names and
a digest of the bytes written, as one JSON line:

    python3 perfbench/workloads.py WORKLOAD OUTDIR
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANSWERS = Path(__file__).resolve().parent / "answers"

NAMES = ("zoo", "taft", "group", "fault", "smoke")

# (file stem, base algebra, corrupted entry, new value, stage expected to FAIL
# first).  Entry paths follow the .hopf layout.  For taft(4) the basis index
# of g^i x^j is 4j + i; for sweedler(x)sweedler the index of a (x) b is
# 4a + b over the sweedler basis 1, g, x, gx.
FAULTS = (
    # g.x = gx becomes g.x = gx + 1
    ("taft4-mult", "taft(4)", ("mult", 1, 4, 0), "1", "algebra"),
    # eps(x) = 0 becomes eps(x) = 1
    ("taft4-counit", "taft(4)", ("counit", 4), "1", "coalgebra"),
    # S(x) = -g^3 x becomes S(x) = g^3 x
    ("taft4-antipode", "taft(4)", ("antipode", 7, 4), "1", "antipode"),
    # (g (x) 1)* = g (x) 1 becomes -(g (x) 1)
    ("swsw-star", "sweedler(x)sweedler", ("star", 4, 4), "-1", "star"),
)


def _stem(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _clean(workload: str) -> list:
    """(file stem, HopfData) for each uncorrupted input of the workload."""
    from hopfcheck.zoo import cyclic_table, group_algebra, standard_zoo, taft

    if workload == "zoo":
        return [(_stem(h.name), h) for h in standard_zoo()]
    if workload == "taft":
        return [("taft4", taft(4))]
    if workload == "group":
        return [("CZ12", group_algebra("C[Z12]", cyclic_table(12)))]
    if workload == "smoke":
        return [("C_Z2_", group_algebra("C[Z2]", cyclic_table(2)))]
    return []


def _faults(workload: str) -> tuple:
    return {"fault": FAULTS, "smoke": FAULTS[:1]}.get(workload, ())


def _base(name: str):
    from hopfcheck.zoo import sweedler, taft, tensor_product

    if name == "taft(4)":
        return taft(4)
    return tensor_product(name, sweedler(), sweedler())


def _mutate(text: str, where: tuple, value: str) -> str:
    doc = json.loads(text)
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return json.dumps(doc, indent=2) + "\n"


def write_inputs(workload: str, outdir: Path) -> list:
    """Build and write the workload's files; return their paths in verify order."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    from hopfcheck.fileformat import hopf_to_text, save_hopf

    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, h in _clean(workload):
        paths.append(outdir / f"{stem}.hopf")
        save_hopf(h, str(paths[-1]))
    texts = {}
    for stem, base, where, value, _stage in _faults(workload):
        if base not in texts:
            texts[base] = hopf_to_text(_base(base))
        paths.append(outdir / f"{stem}.hopf")
        paths[-1].write_text(_mutate(texts[base], where, value), encoding="utf-8")
    return paths


def digest(paths: list) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def load_answers() -> dict:
    """file stem -> (algebra name, dim, exit code, [(check name, status token)]).

    Reads every answers/*.txt.  An answer file has one block per input: a
    header line `[stem] name=<name> dim=<d> exit=<code>` and then one
    `<check> <status>` line per check in pipeline order, where status is
    PASS, FAIL or SKIP:<reason>.  Lines starting with # are comments.
    """
    out = {}
    for path in sorted(ANSWERS.glob("*.txt")):
        current = None
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                stem, rest = line[1:].split("]", 1)
                fields = dict(tok.split("=", 1) for tok in rest.split())
                current = []
                out[stem] = (fields["name"], int(fields["dim"]), int(fields["exit"]),
                             current)
            else:
                name, status = line.split()
                current.append((name, status))
    return out


if __name__ == "__main__":
    from speed import Speedometer

    with Speedometer() as speed:
        spent = list(speed.spent)
        w0, c0 = time.perf_counter(), time.process_time()
        sys.path.insert(0, str(ROOT / "src"))
        written = write_inputs(sys.argv[1], Path(sys.argv[2]))
        wall = time.perf_counter() - w0 - (speed.spent[0] - spent[0])
        cpu = time.process_time() - c0 - (speed.spent[1] - spent[1])
    print(json.dumps({"setup_s": speed.rescale(wall, cpu)[0], "setup_raw_s": wall,
                      "digest": digest(written), "files": [p.name for p in written]}))
