"""Invariant functionals, modular data, and the six exchange identities.

The concrete values asserted here were derived by hand from the
defining relations and frozen before the implementation existed.
"""

import pytest

from hopfcheck import (
    CYC_MINUS_ONE,
    CYC_ONE,
    CYC_ZERO,
    Cyc,
    Elem,
    Mat,
    compute_modular,
    dual_hopf,
    left_integral,
    modular_element,
    pairing,
    run_pipeline,
    sweedler,
    taft,
)
from hopfcheck.errors import NoIntegral, NotFaithful
from hopfcheck.integrals import (faithful_gram, gram_matrix, modular_automorphism,
                                 modular_identity_checks)
from hopfcheck.linalg import solve_null_space
from hopfcheck.zoo import cyclic_table, group_algebra
from helpers import entry, mat_from_rows, products


def texts(f, order):
    return tuple(c.text(order) for c in f.coords)


def test_left_integral_on_generators_matches_the_full_system(zoo):
    # each side's invariance rows restricted to the generators of the other
    # side have the kernel of the full d^2 x d system
    for h in [*zoo.values(), taft(5)]:
        hd = dual_hopf(h)
        for x, first in ((h, hd.generators), (hd, h.generators)):
            assert left_integral(x, first) == left_integral(x), x.name


def test_left_integral_of_the_trivial_group_solves_no_rows():
    h = group_algebra("C[Z1]", cyclic_table(1))
    hd = dual_hopf(h)
    assert h.generators == () == hd.generators
    assert left_integral(h, hd.generators).coords == (CYC_ONE,)
    assert left_integral(hd, h.generators).coords == (CYC_ONE,)


def test_sweedler_left_integral_frozen():
    # phi vanishes on 1, g, x and picks out the gx coefficient
    h = sweedler()
    phi = left_integral(h)
    assert texts(phi, 1) == ("0", "0", "0", "1")


def test_sweedler_right_integral_frozen():
    # psi = phi after the antipode: supported on x with a sign
    h = sweedler()
    md = compute_modular(h)
    assert texts(md.psi, 1) == ("0", "0", "-1", "0")


def test_sweedler_modular_element_is_the_group_like():
    h = sweedler()
    md = compute_modular(h)
    assert md.delta == h.basis(1)
    assert md.delta_inv == h.basis(1)  # g is an involution


def test_sweedler_gram_frozen():
    h = sweedler()
    md = compute_modular(h)
    expected = [
        ["0", "0", "0", "1"],
        ["0", "0", "1", "0"],
        ["0", "-1", "0", "0"],
        ["1", "0", "0", "0"],
    ]
    got = [[entry(md.gram, i, j).text(1) for j in range(4)] for i in range(4)]
    assert got == expected
    assert md.gram_inv.mul(md.gram).is_identity()


def _gram_by_products(h, f):
    # the Gram as it was: one pairing per stored product e_i e_j
    return Mat.of(h.dim, h.dim, {(i, j): pairing(f, x) for i, row in enumerate(products(h))
                                 for j, x in enumerate(row)})


def test_gram_matrix_matches_one_pairing_per_product(zoo, pipelines):
    for name, h in zoo.items():
        v = pipelines[name].values
        hd, md = v["dual"], v["modular"]
        md_dual = compute_modular(hd)
        for a, f in ((h, md.phi), (h, md.psi), (hd, md_dual.phi), (hd, md_dual.psi),
                     (hd, v["psi_hat"])):
            assert gram_matrix(a, f) == _gram_by_products(a, f), name


def test_sweedler_modular_automorphisms_frozen():
    h = sweedler()
    md = compute_modular(h)
    def diag(m):
        return [entry(m, i, i).text(1) for i in range(4)]
    assert diag(md.sigma) == ["1", "-1", "-1", "1"]
    assert diag(md.sigma_prime) == ["1", "-1", "1", "-1"]
    for m in (md.sigma, md.sigma_prime):
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert entry(m, i, j).is_zero()


def test_sweedler_scaling_constant():
    h = sweedler()
    md = compute_modular(h)
    assert md.nu == CYC_MINUS_ONE


def test_taft3_scaling_constant():
    md = compute_modular(taft(3))
    assert md.nu == Cyc.root(3, 2)


def test_a_vanishing_scaling_constant_fails_its_check():
    # phi = e_3^ on sweedler and S^2(e_3) = -e_3: with that entry of the
    # cached S^2 raised to 0, phi.S^2 = 0 = 0 phi, but modular-scaling
    # divides by nu, so the check must FAIL rather than let nu = 0 through
    h = sweedler()
    assert h.s2 == Mat.of(4, 4, {(0, 0): CYC_ONE, (1, 1): CYC_ONE, (2, 2): CYC_MINUS_ONE,
                                 (3, 3): CYC_MINUS_ONE})
    h.__dict__["s2"] = Mat.of(4, 4, {(0, 0): CYC_ONE, (1, 1): CYC_ONE, (2, 2): CYC_MINUS_ONE})
    checks = {c.name: c for c in run_pipeline(h).checks}
    assert (checks["scaling-constant"].status, checks["scaling-constant"].detail) == (
        "FAIL", "sweedler: phi.S^2 is not a nonzero multiple of phi")
    assert checks["modular-scaling"].detail == "prerequisite-failed"


def test_group_algebra_modular_data_trivial(zoo, pipelines):
    for name in ("C[Z2]", "C[Z3]", "C[Z6]", "C[S3]"):
        h = zoo[name]
        md = pipelines[name].values["modular"]
        # phi picks out the identity coefficient
        assert texts(md.phi, 1) == tuple(
            "1" if i == 0 else "0" for i in range(h.dim)
        )
        assert md.delta == h.unit
        assert md.nu == CYC_ONE
        assert md.sigma.is_identity()


def test_function_algebra_integral_is_summation(zoo, pipelines):
    for name in ("F(Z2)", "F(Z3)", "F(S3)"):
        h = zoo[name]
        md = pipelines[name].values["modular"]
        assert texts(md.phi, 1) == ("1",) * h.dim
        assert md.delta == h.unit
        assert md.nu == CYC_ONE


def test_integral_kernel_is_one_dimensional_everywhere(zoo):
    # the invariance system has nullity exactly 1 for every zoo member
    for h in zoo.values():
        d = h.dim
        # build the invariance system directly:
        # sum_j comult[a][i][j] f_j - unit_i f_a = 0
        rows = []
        for a in range(d):
            for i in range(d):
                row = [entry(h.comult, a, i, j) for j in range(d)]
                row[a] = row[a] - h.unit.coords[i]
                rows.append(row)
        basis = solve_null_space(mat_from_rows(rows))
        assert len(basis) == 1, h.name


def test_left_invariance_holds_pointwise(zoo):
    # (id (x) phi) Delta(a) = phi(a) 1 for every basis element
    for h in zoo.values():
        phi = left_integral(h)
        for a in range(h.dim):
            acc = [CYC_ZERO] * h.dim
            for (i, j), c in h.coprod(h.basis(a)).items():
                acc[i] = acc[i] + c * phi.coords[j]
            target = [phi.coords[a] * u for u in h.unit.coords]
            assert all((x - y).is_zero() for x, y in zip(acc, target)), h.name


def test_right_invariance_holds_pointwise(zoo):
    for h in zoo.values():
        md = compute_modular(h)
        for a in range(h.dim):
            acc = [CYC_ZERO] * h.dim
            for (i, j), c in h.coprod(h.basis(a)).items():
                acc[j] = acc[j] + c * md.psi.coords[i]
            target = [md.psi.coords[a] * u for u in h.unit.coords]
            assert all((x - y).is_zero() for x, y in zip(acc, target)), h.name


def test_modular_element_absorbs_on_the_right(zoo):
    # phi(.)delta reproduces right multiplication inside phi:
    # (phi (x) id) Delta(a) = phi(a) delta
    for h in zoo.values():
        phi = left_integral(h)
        delta = modular_element(h, phi)
        for a in range(h.dim):
            acc = [CYC_ZERO] * h.dim
            for (i, j), c in h.coprod(h.basis(a)).items():
                acc[j] = acc[j] + c * phi.coords[i]
            target = [phi.coords[a] * t for t in delta.coords]
            assert all((x - y).is_zero() for x, y in zip(acc, target)), h.name


def test_modular_automorphism_exchange_under_phi(zoo):
    # phi(a b) = phi(b sigma(a)) on all basis pairs
    for h in zoo.values():
        phi = left_integral(h)
        sigma = modular_automorphism(h, phi)
        for i in range(h.dim):
            si = sigma.apply(h.basis(i))
            for j in range(h.dim):
                lhs = pairing(phi, h.mul(h.basis(i), h.basis(j)))
                rhs = pairing(phi, h.mul(h.basis(j), si))
                assert lhs == rhs, h.name


def test_six_identity_suite_everywhere(zoo):
    for h in zoo.values():
        md = compute_modular(h)
        for check in modular_identity_checks(h, md):
            assert check.status == "PASS", f"{h.name}: {check.line()}"


def test_scaling_constant_via_dual_pairing(pipelines):
    # nu equals the pairing of the two modular elements, on every member
    for name, res in pipelines.items():
        md = res.values["modular"]
        delta_hat = res.values["delta_hat"]
        got = pairing(delta_hat, md.delta)
        assert got == md.nu, name


def test_scaling_constant_one_iff_s2_has_finite_known_order(pipelines):
    # nu is a root of unity; on the group and function members it is 1
    kac = [n for n in pipelines
           if n.startswith("C[") or n.startswith("F(")]
    assert len(kac) == 8
    for name in kac:
        assert pipelines[name].values["modular"].nu == CYC_ONE


def test_no_integral_raises_on_broken_coproduct():
    import dataclasses
    from hopfcheck import Tensor3
    h = sweedler()
    # a zero coproduct forces f(a) 1 = 0 for all a, so the kernel vanishes
    bad = dataclasses.replace(h, comult=Tensor3(4, {}))
    with pytest.raises(NoIntegral):
        left_integral(bad)


def test_unimodular_flags(pipelines):
    from hopfcheck.cli import report_values

    expected_unimodular = {
        "C[Z2]": True, "C[Z3]": True, "C[Z6]": True, "C[S3]": True,
        "F(Z2)": True, "F(Z3)": True, "F(Z6)": True, "F(S3)": True,
        "sweedler": False, "taft(2)": False, "taft(3)": False,
        "sweedler(x)C[Z2]": False, "sweedler(x)sweedler": False,
    }
    for name, res in pipelines.items():
        assert report_values(res)["unimodular"] == expected_unimodular[name], name


def test_failing_stage_is_named_by_the_exception(monkeypatch):
    from hopfcheck import integrals, run_pipeline
    from hopfcheck.errors import NotFaithful

    def degenerate(h, f, label="sigma"):
        raise NotFaithful(f"{h.name}: bilinear form of {label} source functional is degenerate")
    monkeypatch.setattr(integrals, "faithful_gram", degenerate)
    lines = run_pipeline(sweedler()).report_lines()
    names = ["left-integral", "right-integral", "modular-element", "modular-automorphism",
             "modular-automorphism-right", "scaling-constant", "modular-sandwich",
             "modular-conjugation", "modular-coproduct", "modular-commutation",
             "modular-scaling", "modular-flip"]
    start = next(i for i, l in enumerate(lines) if l.split()[1] == names[0])
    got = lines[start:start + len(names)]
    assert [l.split()[1] for l in got] == names
    assert [l.split()[2] for l in got[:3]] == ["PASS"] * 3
    assert got[3].split()[2] == "FAIL"
    assert got[3].endswith("! sweedler: bilinear form of sigma source functional is degenerate")
    assert [l.split()[2] for l in got[4:]] == ["SKIP:prerequisite-failed"] * 8


def test_faithful_gram_rejects_a_degenerate_form():
    # the Fourier transform is matrix action by this Gram, so its inverse
    # is what proves the transform bijective
    h = sweedler()
    g, g_inv = faithful_gram(h, compute_modular(h).phi)
    assert g.mul(g_inv).is_identity()
    with pytest.raises(NotFaithful):
        faithful_gram(h, Elem.of(h.dim, ()))
