"""Acceptance gate: one test and one printed line per required behavior.

Each test recomputes what it needs (fresh, or from the shared session
pipelines where independence is not at stake), prints a single
CRITERION line, and asserts. A failing line here means the library and
the requirement genuinely disagree; nothing below weakens a check to
make a line turn green.
"""

import itertools
import json
import subprocess
import sys
import time

from hopfcheck import (
    CYC_ONE,
    CYC_ZERO,
    compute_dual_integrals,
    compute_modular,
    dual_hopf,
    full_axiom_suite,
    left_integral,
    pairing,
    standard_zoo,
    sweedler,
)
from hopfcheck.duality import transpose_failure, verify_pairing
from hopfcheck.gns import (
    gns_build,
    gns_representation_check,
    operator_radford_check,
    tomita_check,
)
from hopfcheck.hopf import Elem, verify_coalgebra
from hopfcheck.integrals import gram_matrix, modular_identity_checks, star_gram
from hopfcheck.linalg import solve_null_space
from helpers import entry, mat_from_rows

POSITIVE = ("C[Z2]", "C[Z3]", "C[Z6]", "C[S3]",
            "F(Z2)", "F(Z3)", "F(Z6)", "F(S3)")


def _criterion(n, desc, ok, detail=""):
    line = f"CRITERION {n:02d} {'PASS' if ok else 'FAIL'} {desc}"
    if detail and not ok:
        line += f" ! {detail}"
    print(line)
    assert ok, line


def test_criterion_01_axiom_suite_runtime(zoo):
    start = time.monotonic()
    bad = []
    for h in zoo.values():
        for c in full_axiom_suite(h):
            if c.status == "FAIL":
                bad.append(f"{h.name}:{c.name}")
    elapsed = time.monotonic() - start
    _criterion(1, f"axiom suite clean on all {len(zoo)} members "
                  f"in {elapsed:.2f}s (< 10s)",
               not bad and elapsed < 10.0, ",".join(bad))


def test_criterion_02_integral_kernel_dimension(zoo):
    bad = []
    for h in zoo.values():
        d = h.dim
        rows = []
        for a in range(d):
            for i in range(d):
                row = [entry(h.comult, a, i, j) for j in range(d)]
                row[a] = row[a] - h.unit.coords[i]
                rows.append(row)
        if len(solve_null_space(mat_from_rows(rows))) != 1:
            bad.append(h.name)
    _criterion(2, "left-invariance kernel is exactly one-dimensional "
                  "on every member", not bad, ",".join(bad))


def test_criterion_03_fourth_power_law(zoo, pipelines):
    bad = [f"{n}:{c.line()}" for n, res in pipelines.items()
           for c in res.checks if c.name == "radford-s4" and c.status != "PASS"]
    # the four dimensional example, re-derived without the pipeline:
    h = sweedler()
    s = h.antipode
    s2 = s.mul(s)
    extra_ok = s2.mul(s2).is_identity() and not s2.is_identity()
    # delta from the absorption identity (phi (x) id) D(a) = phi(a) delta,
    # solved directly on the row with phi(a) nonzero
    phi = left_integral(h)
    a = next(i for i in range(4) if not phi.coords[i].is_zero())
    acc = [CYC_ZERO] * 4
    for (i, j), c in h.coprod(h.basis(a)).items():
        acc[j] = acc[j] + c * phi.coords[i]
    delta = Elem.of(4, enumerate(x / phi.coords[a] for x in acc))
    extra_ok = extra_ok and delta == h.basis(1)
    # dual modular element from the same solver run on the dual
    hd = dual_hopf(h)
    phi_dual = left_integral(hd)
    b = next(i for i in range(4) if not phi_dual.coords[i].is_zero())
    acc = [CYC_ZERO] * 4
    for (i, j), c in hd.coprod(hd.basis(b)).items():
        acc[j] = acc[j] + c * phi_dual.coords[i]
    delta_hat = Elem.of(4, enumerate(x / phi_dual.coords[b] for x in acc))
    extra_ok = extra_ok and delta_hat != hd.unit
    extra_ok = extra_ok and tuple(
        c.text(1) for c in delta_hat.coords) == ("1", "-1", "0", "0")
    _criterion(3, "fourth power of the antipode factors through the two "
                  "modular elements on every basis element; the four "
                  "dimensional example has S^4=1, delta=g, nontrivial "
                  "dual modular element",
               not bad and extra_ok, ",".join(bad) or "oracle mismatch")


def test_criterion_04_identity_suites(zoo, pipelines):
    bad = []
    for name, h in zoo.items():
        md = pipelines[name].values["modular"]
        for c in modular_identity_checks(h, md):
            if c.status != "PASS":
                bad.append(f"{name}:{c.name}")
        checks = {c.name: c for c in pipelines[name].checks}
        for cname in ("dual-modular-links", "radford-factorization"):
            if checks[cname].status != "PASS":
                bad.append(f"{name}:{cname}")
    _criterion(4, "exchange identity suites and the stepwise "
                  "factorization pass exactly on every member",
               not bad, ",".join(bad))


def test_criterion_05_duality(zoo, pipelines):
    from hopfcheck.hopf import same_structure
    bad = []
    for name, h in zoo.items():
        hdd = dual_hopf(dual_hopf(h))
        if not (same_structure(hdd, h) and hdd.name == h.name):
            bad.append(f"{name}:double-dual")
        md = pipelines[name].values["modular"]
        if not md.gram.mul(md.gram_inv).is_identity():
            bad.append(f"{name}:fourier")
        if verify_pairing(transpose_failure(h, dual_hopf(h)),
                          verify_coalgebra(h)).status != "PASS":
            bad.append(f"{name}:pairing")
    for g in ("Z2", "Z3", "S3"):
        if not same_structure(dual_hopf(zoo[f"C[{g}]"]), zoo[f"F({g})"]):
            bad.append(f"dual(C[{g}])!=F({g})")
    _criterion(5, "double dual is the identity, duals of the three group "
                  "algebras equal the matching function algebras, the "
                  "transform is bijective, pairing laws and full action "
                  "span hold", not bad, ",".join(bad))


def test_criterion_06_summation_law(zoo):
    # psihat(F(e_i)^* F(e_j)) = phi(e_i^* e_j) from the definitions, one
    # product per pair: the plancherel check compares nothing itself, its
    # pairs being operator-radford's unitarity row
    bad = []
    for name in POSITIVE:
        h = zoo[name]
        md = compute_modular(h)
        hd = dual_hopf(h)
        psi_hat, _ = compute_dual_integrals(h, md, hd, left_integral(hd))
        f = [md.gram.apply(h.basis(i)) for i in range(h.dim)]
        for i, j in itertools.product(range(h.dim), repeat=2):
            lhs = pairing(psi_hat, hd.mul(hd.star_of(f[i]), f[j]))
            if lhs != pairing(md.phi, h.mul(h.star_of(h.basis(i)), h.basis(j))):
                bad.append(f"{name}:({i},{j})")
    _criterion(6, "summation law exact on every positive member, "
                  "on every pair of basis elements",
               not bad, ",".join(bad))


def test_criterion_07_collapse_in_the_positive_case(zoo, pipelines):
    bad = []
    for name in POSITIVE:
        h = zoo[name]
        md = pipelines[name].values["modular"]
        hd = pipelines[name].values["dual"]
        delta_hat = pipelines[name].values["delta_hat"]
        facts = {
            "delta=1": md.delta == h.unit,
            "deltahat=1": delta_hat == hd.unit,
            "nu=1": md.nu == CYC_ONE,
            "sigma=id": md.sigma.is_identity(),
            "S^2=id": h.s2.is_identity(),
        }
        for label, ok in facts.items():
            if not ok:
                bad.append(f"{name}:{label}")
        checks = {c.name: c for c in pipelines[name].checks}
        if checks["kac-collapse"].status != "PASS":
            bad.append(f"{name}:kac-collapse")
    _criterion(7, "positive integrals collapse all modular structure, "
                  "computed independently then asserted",
               not bad, ",".join(bad))


def test_criterion_08_scaling_constant_everywhere(pipelines):
    # this one states a fact about every member with no positivity
    # hypothesis; the computed constants disagree on the members whose
    # antipode square is nontrivial, and the honest values stand
    offenders = [
        f"{name}:nu={res.values['modular'].nu.text(12)}"
        for name, res in pipelines.items()
        if res.values["modular"].nu != CYC_ONE
    ]
    _criterion(8, "scaling constant equals 1 on every member",
               not offenders, ",".join(offenders))


def test_criterion_09_operator_side(zoo):
    # every operator statement is an exact identity in Gram coordinates;
    # nabla = 1 is Star^H B Star = B^T, with no tolerance
    start = time.monotonic()
    bad = []
    for name in ("C[S3]", "F(S3)"):
        h = zoo[name]
        md = compute_modular(h)
        b = star_gram(h, md.gram)
        gns = gns_build(h, b)
        if h.star.conjugate().transpose().mul(b.mul(h.star)) != b.transpose():
            bad.append(f"{name}:nabla")
        if gns_representation_check(h, gns).status != "PASS":
            bad.append(f"{name}:star-lift")
        if tomita_check(h, gns).status != "PASS":
            bad.append(f"{name}:commutant")
        hd = dual_hopf(h)
        from hopfcheck import modular_element
        phi_dual = left_integral(hd)
        psi_hat, _ = compute_dual_integrals(h, md, hd, phi_dual)
        delta_hat = modular_element(hd, phi_dual)
        gns_dual = gns_build(hd, star_gram(hd, gram_matrix(hd, psi_hat)))
        # the four factors are 1 exactly when delta = 1 and deltahat = 1^
        if md.delta != h.unit or delta_hat != hd.unit:
            bad.append(f"{name}:operator-factors")
        if operator_radford_check(h, hd, md, gns, gns_dual).status != "PASS":
            bad.append(f"{name}:operator-transport")
    elapsed = time.monotonic() - start
    _criterion(9, f"operator form on both six dimensional members, exactly, "
                  f"in {elapsed:.2f}s (< 5s)",
               not bad and elapsed < 5.0, ",".join(bad))


def test_criterion_10_fault_detection(tmp_path):
    from hopfcheck.cli import main
    base = tmp_path / "clean.hopf"
    assert main(["zoo", "sweedler", "-o", str(base)]) == 0
    faults = [
        ("algebra", lambda d: d["mult"][1][2].__setitem__(0, "1")),
        ("bialgebra", lambda d: d["counit"].__setitem__(2, "1")),
        ("antipode", lambda d: d["antipode"][3].__setitem__(2, "1")),
    ]
    bad = []
    for expected_name, mutate in faults:
        doc = json.loads(base.read_text())
        mutate(doc)
        p = tmp_path / f"{expected_name}.hopf"
        p.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "hopfcheck.cli", "verify", str(p)],
            capture_output=True, text=True)
        fail_names = [l.split()[1] for l in proc.stdout.splitlines()
                      if " FAIL " in l]
        if proc.returncode != 1:
            bad.append(f"{expected_name}:exit={proc.returncode}")
        elif expected_name == "bialgebra":
            # a corrupt counit breaks the coproduct laws at either stage
            if not set(fail_names) & {"coalgebra", "bialgebra"}:
                bad.append(f"{expected_name}:caught-by={fail_names}")
        elif expected_name not in fail_names:
            bad.append(f"{expected_name}:caught-by={fail_names}")
    _criterion(10, "each injected corruption is caught by the named "
                   "verifier with exit code 1", not bad, ",".join(bad))


def test_criterion_11_determinism(tmp_path):
    from hopfcheck.cli import main
    p = tmp_path / "alg.hopf"
    assert main(["zoo", "taft", "--n", "3", "-o", str(p)]) == 0
    cmd = [sys.executable, "-m", "hopfcheck.cli", "verify", str(p)]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == second.returncode == 0
          and first.stdout == second.stdout and bool(first.stdout))
    _criterion(11, "two verification runs on the same file are "
                   "byte-identical", ok,
               f"exit={first.returncode}/{second.returncode}")


def test_full_zoo_matches_advertised_names():
    names = [h.name for h in standard_zoo()]
    assert names == [
        "C[Z2]", "C[Z3]", "C[Z6]", "C[S3]",
        "F(Z2)", "F(Z3)", "F(Z6)", "F(S3)",
        "sweedler", "taft(2)", "taft(3)",
        "sweedler(x)C[Z2]", "sweedler(x)sweedler",
    ]
