#!/usr/bin/env python3
"""Tabulate the modular invariants of every built-in algebra.

One row per algebra: dimension, scaling constant, antipode orders,
(co)unimodularity, positivity verdict. The table makes the split
visible at a glance: group-like members collapse completely, the
others keep genuine modular structure.
"""

import sys

from hopfcheck import run_pipeline, standard_zoo
from hopfcheck.cli import report_values


def main():
    rows = [("name", "dim", "nu", "ord(S)", "ord(S^2)",
             "unimod", "counimod", "positivity")]
    worst = 0
    for h in standard_zoo():
        res = run_pipeline(h)
        worst += sum(1 for c in res.checks if c.status == "FAIL")
        md, extra = res.values["modular"], report_values(res)
        rows.append((
            h.name,
            str(h.dim),
            md.nu.text(12),
            str(extra["s_order"]),
            str(extra["s2_order"]),
            "yes" if extra["unimodular"] else "no",
            "yes" if extra["counimodular"] else "no",
            res.values["positivity"][0],
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
