"""Command line front end.

Exit codes: 0 all printed checks pass, 1 at least one FAIL, 2 malformed
input (unparseable file, unknown zoo name, bad scalar), reported as one
"error:" line; argparse also exits 2 on a bad option, such as a
--tolerance that is not finite and positive or an --only that names no
check.  Only a HopfError counts as malformed input; any other exception is
a defect and propagates.  Output is plain text, one CHECK line per
verifier, and is byte-identical across runs on the same input, which the
test suite relies on.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, reduce

from .cyclotomic import Cyc, lcm
from .errors import FormatError, HopfError
from .fileformat import MAX_FIELD_ORDER, hopf_to_text, load_cayley, load_hopf
from .pipeline import run_pipeline
from .radford import s2_order, s_order
from .report import FAIL, LAWS
from .zoo import function_algebra, group_algebra, standard_zoo, taft

_EXIT_OK, _EXIT_FAIL, _EXIT_INPUT = 0, 1, 2

NOTES = (
    "multipliers of the dual coincide with the dual itself at finite dimension",
    "the one-parameter rescaling family is trivial at finite dimension; "
    "only its algebraic specialisations are checked",
)


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def cmd_zoo(args) -> int:
    name = args.name
    builtin = {z.name: z for z in standard_zoo()}
    if name in builtin:
        h = builtin[name]
    elif name == "taft":
        if args.n is None or not 2 <= args.n <= MAX_FIELD_ORDER:
            raise FormatError(f"zoo taft requires --n >= 2 and --n <= {MAX_FIELD_ORDER}")
        q = None
        if args.q is not None:
            q = Cyc.parse(args.q, args.n)
        h = taft(args.n, q)
    elif name in ("group", "function"):
        if args.cayley is None:
            raise FormatError(f"zoo {name} requires --cayley")
        table = load_cayley(args.cayley)
        stem = os.path.splitext(os.path.basename(args.cayley))[0]
        if name == "group":
            h = group_algebra(args.label or f"C[{stem}]", table)
        else:
            h = function_algebra(args.label or f"F({stem})", table)
    else:
        known = ", ".join(sorted(builtin) + ["taft", "group", "function"])
        raise FormatError(f"unknown zoo name {name!r}; known: {known}")
    _write_out(hopf_to_text(h), args.output)
    return _EXIT_OK


def cmd_verify(args) -> int:
    worst = _EXIT_OK
    for path in args.files:
        h = load_hopf(path)
        res = run_pipeline(h, tol=args.tolerance)
        print(f"VERIFY {h.name} dim={h.dim} seed={args.seed} tolerance={args.tolerance:g}")
        shown = [c for c in res.checks if args.only is None or c.name == args.only]
        for c in shown:
            print(c.line())
        if any(c.status == FAIL for c in shown):
            worst = _EXIT_FAIL
    return worst


def _fmt_complex(z: complex) -> str:
    re = 0.0 if abs(z.real) < 5e-13 else z.real
    im = 0.0 if abs(z.imag) < 5e-13 else z.imag
    if im == 0.0:
        return f"{re:.6g}"
    return f"{re:.6g}{im:+.6g}i"


def _fmt_vector(h, coords) -> str:
    # group-likes may need a larger field than the structure constants; one
    # order for the whole vector keeps z the same root in every entry
    order = reduce(lcm, (c.order for c in coords), h.field_order)
    exact = "[" + ", ".join(c.text(order) for c in coords) + "]"
    approx = "[" + ", ".join(_fmt_complex(c.to_complex()) for c in coords) + "]"
    return f"{exact} ~ {approx}"


def _passing_run(args):
    """run_pipeline on args.file, or None once its FAIL lines are printed."""
    res = run_pipeline(load_hopf(args.file), tol=args.tolerance)
    if not res.failed():
        return res
    for c in res.checks:
        if c.status == FAIL:
            print(c.line())
    return None


def report_values(res) -> dict:
    """What `report` prints beyond the run's values, for a run with no FAIL:
    the orders of S and S^2, (co)unimodularity, and whether kac-collapse
    passed.  No check reads them, so `verify` computes none of them."""
    h, v = res.h, res.values
    return {"s_order": s_order(h), "s2_order": s2_order(h),
            "unimodular": v["modular"].delta == h.unit,
            "counimodular": v["delta_hat"] == h.counit,
            "kac": any(c.name == "kac-collapse" and c.passed() for c in res.checks)}


def cmd_report(args) -> int:
    res = _passing_run(args)
    if res is None:
        return _EXIT_FAIL
    h, v, r = res.h, res.values, report_values(res)
    md = v["modular"]
    print(f"REPORT {h.name} seed={args.seed}")
    print(f"dim = {h.dim}")
    print(f"field_order = {h.field_order}")
    print(f"phi = {_fmt_vector(h, md.phi.coords)}")
    print(f"psi = {_fmt_vector(h, md.psi.coords)}")
    print(f"delta = {_fmt_vector(h, md.delta.coords)}")
    print(f"delta_hat = {_fmt_vector(h, v['delta_hat'].coords)}")
    nu = md.nu
    print(f"nu = {nu.text(h.field_order)} ~ {_fmt_complex(nu.to_complex())}")
    print(f"ord(S) = {r['s_order']}")
    print(f"ord(S^2) = {r['s2_order']}")
    print(f"unimodular = {'yes' if r['unimodular'] else 'no'}")
    print(f"counimodular = {'yes' if r['counimodular'] else 'no'}")
    likes = v["group_likes"]
    print(f"group_likes = {len(likes)}")
    for g in likes:
        print(f"  {_fmt_vector(h, g.coords)}")
    verdict, detail = v.get("positivity", ("unknown", ""))
    print(f"positivity = {verdict} ({detail})")
    print(f"kac = {'finite-quantum-group' if r['kac'] else 'no'}")
    for note in NOTES:
        print(f"note: {note}")
    return _EXIT_OK


def cmd_dual(args) -> int:
    res = _passing_run(args)
    if res is None:
        return _EXIT_FAIL
    _write_out(hopf_to_text(res.values["dual"]), args.output)
    return _EXIT_OK


def tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance", type=tolerance, default=1e-9,
                   help="tolerance of the float positivity verdict (positivity, kac-collapse)")
    p.add_argument("--seed", type=int, default=42,
                   help="printed in the VERIFY and REPORT headers only; no check "
                        "draws samples, so it selects nothing")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every main call can share it."""
    ap = argparse.ArgumentParser(
        prog="hopfcheck",
        description="exact verification of finite-dimensional Hopf *-algebra data")
    sub = ap.add_subparsers(dest="command", required=True)

    pz = sub.add_parser("zoo", help="write a built-in example to a file")
    pz.add_argument("name", help="built-in name, or taft/group/function")
    pz.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    pz.add_argument("--n", type=int, default=None, help="dimension parameter for taft")
    pz.add_argument("--q", default=None,
                    help="scalar text for the taft parameter, in order n")
    pz.add_argument("--cayley", default=None, help="Cayley table file for group/function")
    pz.add_argument("--label", default=None, help="override the algebra name")
    pz.set_defaults(fn=cmd_zoo)

    pv = sub.add_parser("verify", help="run every check on stored structure constants")
    pv.add_argument("files", nargs="+", help="structure constant files")
    pv.add_argument("--only", default=None, metavar="NAME",
                    choices=list(LAWS),
                    help="print only the check with this name")
    _add_common(pv)
    pv.set_defaults(fn=cmd_verify)

    pr = sub.add_parser("report", help="verify, then summarise the modular data")
    pr.add_argument("file", help="structure constant file")
    _add_common(pr)
    pr.set_defaults(fn=cmd_report)

    pd = sub.add_parser("dual", help="verify, then write the dual algebra")
    pd.add_argument("file", help="structure constant file")
    pd.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    _add_common(pd)
    pd.set_defaults(fn=cmd_dual)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HopfError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
