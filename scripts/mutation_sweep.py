#!/usr/bin/env python3
"""Measure corruption detection of the axiom suite.

Every single-entry +1 corruption of the multiplication, comultiplication,
antipode, star, unit and counit tables of each standard_zoo() member with
dim <= 8, and of its dual, goes through full_axiom_suite.  A corruption
counts as detected when some check FAILs.  Each corruption h' also goes
through verify_pairing, fed the transposition certificate
transpose_failure(h', dual_hopf(h')) and the suite's own coalgebra check of
h', as run_pipeline feeds it.  The script prints detected/total for each
member and table, then one sha256 over every axiom transcript (each case's
label and its CHECK lines), the number of pairing FAILs, and a second sha256
over every pairing line, so two checkouts compare by running it once in each
(the FAIL count compares the pairing statuses even where the detail text
differs).  The elapsed time goes to stderr, so the stdout of two
checkouts compares byte for byte:

    PYTHONPATH=src python3 scripts/mutation_sweep.py > sweep.txt

It exits 1 if any corruption goes undetected.
"""

import dataclasses
import hashlib
import itertools
import sys
import time

from hopfcheck import (CYC_ONE, CYC_ZERO, Elem, Mat, Tensor3, dual_hopf, full_axiom_suite,
                       standard_zoo)
from hopfcheck.duality import transpose_failure, verify_pairing

MAX_DIM = 8


def _raised(t):
    """(flat index, t with that entry raised by 1) for every entry of t, zeros
    included.  Entry (a, b, c) of a d x d x d table has flat index
    (a*d + b)*d + c, entry (i, j) of a matrix i*cols + j, and entry i of a
    vector i."""
    if isinstance(t, Elem):
        for n in range(t.dim):
            yield n, Elem.of(t.dim, t.support + ((n, CYC_ONE),))
        return
    table = isinstance(t, Tensor3)
    if table:
        nonzero, shape = dict(t.items()), (range(t.dim),) * 3
    else:
        nonzero = {(i, j): c for j, col in enumerate(t.images) for i, c in col.support}
        shape = (range(t.rows), range(t.cols))
    for n, key in enumerate(itertools.product(*shape)):
        entries = {**nonzero, key: nonzero.get(key, CYC_ZERO) + CYC_ONE}
        yield n, Tensor3(t.dim, entries) if table else Mat.of(t.rows, t.cols, entries)


def corruptions(h):
    """(table, flat index, corrupted copy of h) for every entry of every table."""
    fields = ["mult", "comult", "antipode"] + ["star"] * (h.star is not None) + ["unit", "counit"]
    for field in fields:
        for n, new in _raised(getattr(h, field)):
            yield field, n, dataclasses.replace(h, **{field: new})


def main() -> int:
    start = time.monotonic()
    digest = hashlib.sha256()
    pairing_digest = hashlib.sha256()
    detected = total = pairing_fails = 0
    for base in standard_zoo():
        if base.dim > MAX_DIM:
            continue
        for h in (base, dual_hopf(base)):
            counts: dict = {}
            for field, n, bad in corruptions(h):
                checks = full_axiom_suite(bad)
                lines = [f"{h.name} {field} {n}"] + [c.line() for c in checks]
                digest.update(("\n".join(lines) + "\n").encode())
                coalgebra = checks[1]  # full_axiom_suite's second check
                pairing = verify_pairing(transpose_failure(bad, dual_hopf(bad)), coalgebra)
                pairing_digest.update(f"{lines[0]}\n{pairing.line()}\n".encode())
                pairing_fails += pairing.status == "FAIL"
                hit = any(c.status == "FAIL" for c in checks)
                got, seen = counts.get(field, (0, 0))
                counts[field] = (got + hit, seen + 1)
            for field, (got, seen) in counts.items():
                print(f"{h.name} {field} {got}/{seen}")
                detected += got
                total += seen
    print(f"detected {detected}/{total}")
    print(f"elapsed {time.monotonic() - start:.1f}s", file=sys.stderr)
    print(f"sha256 {digest.hexdigest()}")
    print(f"pairing FAIL {pairing_fails}/{total}")
    print(f"pairing sha256 {pairing_digest.hexdigest()}")
    return 0 if detected == total else 1


if __name__ == "__main__":
    sys.exit(main())
