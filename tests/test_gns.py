"""Cyclic representations, modular operators, and the operator comparison.

Tolerances here are the contract: the flat geometry of a positive
integral forces the modular operator to be the identity up to 1e-9.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from hopfcheck import CYC_ZERO, Cyc, Mat, compute_modular, dual_hopf, sweedler
from hopfcheck.errors import NumericalFailure
from hopfcheck.integrals import gram_matrix, star_gram
from hopfcheck.gns import (
    gns_build,
    gns_representation_check,
    mat_float,
    operator_radford_check,
    positivity_verdict,
    right_regular,
    tomita_check,
)
from helpers import products


def _setup(h):
    md = compute_modular(h)
    return md, gns_build(h, star_gram(h, md.gram))


def test_positivity_verdicts(zoo):
    for name in ("C[Z2]", "C[Z3]", "C[Z6]", "C[S3]",
                 "F(Z2)", "F(Z3)", "F(Z6)", "F(S3)"):
        h = zoo[name]
        md = compute_modular(h)
        verdict, detail = positivity_verdict(h, md.phi, star_gram(h, md.gram))
        assert verdict == "positive", f"{name}: {detail}"
        assert "rescale" in detail  # phi(1) != 1 here, a state needs scaling


def test_sweedler_form_is_indefinite(zoo):
    h = zoo["sweedler"]
    md = compute_modular(h)
    verdict, detail = positivity_verdict(h, md.phi, star_gram(h, md.gram))
    assert verdict == "not-positive"
    assert "indefinite" in detail or "self-adjoint" in detail


def test_taft2_has_no_star(zoo):
    h = zoo["taft(2)"]
    md = compute_modular(h)
    assert positivity_verdict(h, md.phi, None)[0] == "no-star"


def test_gns_build_refuses_indefinite_form():
    h = sweedler()
    md = compute_modular(h)
    with pytest.raises(NumericalFailure):
        gns_build(h, star_gram(h, md.gram))


def test_group_algebra_representation_criteria(zoo):
    # the named tolerance contract on both dim-6 members
    for name in ("C[S3]", "F(S3)"):
        start = time.monotonic()
        h = zoo[name]
        md, gns = _setup(h)
        assert np.linalg.norm(gns.nabla - np.eye(h.dim)) <= 1e-9, name
        rep_check = gns_representation_check(h, gns, tol=1e-9)
        assert rep_check.status == "PASS", rep_check.line()
        tom = tomita_check(h, gns, tol=1e-8)
        assert tom.status == "PASS", tom.line()
        hd = dual_hopf(h)
        from hopfcheck import compute_dual_integrals, modular_element, left_integral
        phi_dual = left_integral(hd)
        psi_hat, _ = compute_dual_integrals(h, md, hd, phi_dual)
        delta_hat = modular_element(hd, phi_dual)
        gns_dual = gns_build(hd, star_gram(hd, gram_matrix(hd, psi_hat)))
        op = operator_radford_check(h, md, delta_hat, gns, gns_dual, tol=1e-9)
        assert op.status == "PASS", op.line()
        assert time.monotonic() - start < 5.0, f"{name} exceeded the budget"


def svd_commutant(rep, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (rows of shape (d,d)) of everything commuting with
    rep, as the null space of the stacked X -> [r, X] over r in rep: the
    d^6 reference for the closed form right_regular.

    rep is nonempty, so the stacked system has at least d^2 rows and the
    thin SVD still returns all d^2 right singular vectors."""
    d = rep[0].shape[0]
    eye = np.eye(d)
    stacked = np.vstack([np.kron(r, eye) - np.kron(eye, r.T) for r in rep])
    _u, s, vh = np.linalg.svd(stacked, full_matrices=False)
    null_dim = int(np.sum(s <= tol * max(1.0, s.max()))) + (d * d - len(s))
    return vh[d * d - null_dim:].conj().reshape(null_dim, d, d)


def _orthonormal(ops: np.ndarray) -> np.ndarray:
    """Orthonormal rows (as a stack of matrices) spanning the same space as ops."""
    u, s, _vh = np.linalg.svd(ops.reshape(ops.shape[0], -1).T, full_matrices=False)
    r = int(np.sum(s > 1e-9 * s[0]))
    return u[:, :r].T.reshape(r, *ops.shape[1:])


COMMUTANT_MEMBERS = ("C[Z2]", "C[Z6]", "C[S3]", "F(Z3)", "F(Z6)", "F(S3)")


def test_commutant_dimensions(zoo):
    # the commutant of the left regular image is the transported right
    # regular representation, of dimension d; the SVD null space agrees
    for name in COMMUTANT_MEMBERS:
        h = zoo[name]
        md, gns = _setup(h)
        assert svd_commutant(gns.rep).shape[0] == h.dim, name
        assert _orthonormal(right_regular(gns)).shape[0] == h.dim, name


def test_modular_operator_trivial_on_positive_members(zoo):
    for name in ("C[Z3]", "F(Z6)"):
        h = zoo[name]
        md, gns = _setup(h)
        assert np.linalg.norm(gns.nabla - np.eye(h.dim)) <= 1e-9
        # J is an involutive antiunitary here
        jj = gns.J @ np.conj(gns.J)
        assert np.linalg.norm(jj - np.eye(h.dim)) <= 1e-8


def test_rescaling_generator_is_identity(zoo):
    # the rescaling generator P is the identity at finite dimension; it is
    # stated in the representation law rather than stored on GNSData
    h = zoo["C[Z2]"]
    md, gns = _setup(h)
    check = gns_representation_check(h, gns)
    assert check.status == "PASS"
    assert "T^2=P=1" in check.identity


def test_kac_collapse_passes_on_group_and_function_members(pipelines):
    for name, res in pipelines.items():
        checks = {c.name: c for c in res.checks}
        c = checks["kac-collapse"]
        if name.startswith("C[") or name.startswith("F("):
            assert c.status == "PASS", f"{name}: {c.line()}"
        else:
            assert c.status == "SKIP", f"{name}: {c.line()}"


def test_kac_collapse_computed_independently(zoo, pipelines):
    # assemble the collapse facts directly, then compare with the check
    for name in ("C[S3]", "F(Z6)"):
        h = zoo[name]
        res = pipelines[name]
        md = res.values["modular"]
        assert h.s2.is_identity()
        assert md.sigma.is_identity()
        assert md.delta == h.unit
        hd = res.values["dual"]
        assert res.values["delta_hat"] == hd.unit
        from hopfcheck import CYC_ONE
        assert md.nu == CYC_ONE
        checks = {c.name: c for c in res.checks}
        assert checks["kac-collapse"].status == "PASS"


def test_operator_radford_trivial_flow_detail(pipelines):
    c = [x for x in pipelines["C[S3]"].checks if x.name == "operator-radford"][0]
    assert c.status == "PASS"


def test_representation_multiplicativity_float(zoo):
    h = zoo["F(S3)"]
    md, gns = _setup(h)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal(h.dim)
        v = rng.standard_normal(h.dim)
        pu = sum(u[i] * gns.rep[i] for i in range(h.dim))
        pv = sum(v[i] * gns.rep[i] for i in range(h.dim))
        uv = np.einsum("i,j,ijk->k", u, v, gns.M)
        puv = sum(uv[i] * gns.rep[i] for i in range(h.dim))
        assert np.linalg.norm(pu @ pv - puv) <= 1e-8


def _per_pair_multiplicativity(h, gns, tol=1e-9):
    """The multiplicativity part of gns_representation_check as it was: one
    pair (i, j) at a time, rep(e_i e_j) summed from the exact product."""
    d = h.dim
    for i, row in enumerate(products(h)):
        for j, prod in enumerate(row):
            want = sum((c.to_complex() * gns.rep[k] for k, c in prod.support),
                       np.zeros((d, d), dtype=complex))
            if np.linalg.norm(gns.rep[i] @ gns.rep[j] - want) > tol * max(
                    1.0, np.linalg.norm(want)):
                return f"multiplicativity fails at ({i},{j})"
    return None


def test_batched_multiplicativity_fails_where_the_pair_loop_did(zoo):
    seen = set()
    for name in ("C[Z3]", "C[S3]", "F(S3)"):
        h = zoo[name]
        md, gns = _setup(h)
        assert _per_pair_multiplicativity(h, gns) is None
        assert gns_representation_check(h, gns).passed()
        clean = gns.rep.copy()
        for k in range(h.dim):
            gns.rep = clean.copy()
            gns.rep[k, 0, h.dim - 1] += 1e-3
            want = _per_pair_multiplicativity(h, gns)
            detail = gns_representation_check(h, gns).detail
            if detail != "unit is not represented by the identity":
                assert want is not None and detail == want, (name, k)
                seen.add(detail)
    assert len(seen) >= 3


@pytest.mark.parametrize("name", ["C[Z6]", "C[S3]"])
def test_multiplicativity_on_generators_sees_a_corrupted_non_generator(zoo, name):
    # the loop multiplies rep(e_g) into every rep(e_j) for the generators g
    # only; rep(e_k) of a non-generator k is still read as the right factor
    # and in the sum over the product's terms, so corrupting it fails too
    h = zoo[name]
    md, gns = _setup(h)
    clean = gns.rep.copy()
    unit = {i for i, _ in h.unit.support}
    others = [k for k in range(h.dim) if k not in h.generators and k not in unit]
    assert h.generators and others
    for k in (h.generators[0], others[0], others[-1]):
        gns.rep = clean.copy()
        gns.rep[k, 0, h.dim - 1] += 1e-3
        check = gns_representation_check(h, gns)
        assert check.status == "FAIL", (name, k)
        assert check.detail.startswith("multiplicativity fails at ("), (name, k, check.detail)
        i = int(check.detail.split("(")[1].split(",")[0])
        assert i in h.generators
        assert check.detail == _per_pair_multiplicativity(h, gns), (name, k)


def test_multiplicativity_reads_every_generator(zoo):
    # C[S3] has generators (1, 3).  Let K be the subgroup e_1 generates, and
    # double rep(e_g) off K: every product with a left factor in K still
    # holds (K times a coset stays in that coset), while e_3 e_3 does not,
    # so a loop over the first generator alone would pass
    h = zoo["C[S3]"]
    md, gns = _setup(h)
    assert h.generators == (1, 3)
    k_set, x = {0}, h.unit
    while True:
        x = h.mul(h.basis(1), x)
        (g, _), = x.support
        if g in k_set:
            break
        k_set.add(g)
    assert 3 not in k_set and len(k_set) == 3
    for g in set(range(h.dim)) - k_set:
        gns.rep[g] *= 2
    check = gns_representation_check(h, gns)
    assert (check.status, check.detail) == ("FAIL", _per_pair_multiplicativity(h, gns))
    assert check.detail.startswith("multiplicativity fails at (3,")


def _per_basis_adjoint(h, gns, tol=1e-9):
    """The adjoint part of gns_representation_check as it was: one basis
    index i at a time, rep(e_i^*) summed term by term."""
    d = h.dim
    star_f = mat_float(h.star)
    for i in range(d):
        sc = star_f[:, i]
        want = sum(sc[k] * gns.rep[k] for k in range(d))
        if not np.linalg.norm(gns.rep[i].conj().T - want) <= tol * max(
                1.0, np.linalg.norm(want)):
            return f"adjoint property fails at basis {i}"
    return None


def test_batched_adjoint_fails_where_the_basis_loop_did(zoo):
    # the star read by the check gains 1/1000 in columns k and d-1: the unit
    # and multiplicativity rows never read it, so the adjoint row fails
    # first, at k.  Then a complex unitary change of basis of rep keeps every
    # law, and the adjoint row must read rep(e_i)^H, not rep(e_i)^T.
    rng = np.random.default_rng(3)
    seen = set()
    for name in ("C[Z3]", "C[S3]", "F(S3)"):
        h = zoo[name]
        md, gns = _setup(h)
        assert _per_basis_adjoint(h, gns) is None
        d = h.dim
        entries = {(i, j): c for j, col in enumerate(h.star.images) for i, c in col.support}
        for k in range(d):
            bent = dict(entries)
            for key in (((k + 1) % d, k), (0, d - 1)):
                bent[key] = bent.get(key, CYC_ZERO) + Cyc.rational(Fraction(1, 1000))
            bad = dataclasses.replace(h, star=Mat.of(d, d, bent))
            want = _per_basis_adjoint(bad, gns)
            assert want == f"adjoint property fails at basis {k}"
            assert gns_representation_check(bad, gns).detail == want, (name, k)
            seen.add(want)
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        gns.rep = q @ gns.rep @ q.conj().T
        assert _per_basis_adjoint(h, gns) is None
        assert gns_representation_check(h, gns).passed(), name
    assert len(seen) >= 6


def _same_subspace(a: np.ndarray, b: np.ndarray) -> bool:
    """Orthonormal row bases a and b (as stacks of matrices) span one subspace."""
    fa, fb = a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)
    return fa.shape == fb.shape and np.linalg.norm(
        fa.T @ fa.conj() - fb.T @ fb.conj()) <= 1e-8


def test_commutant_of_the_generators_is_the_commutant_of_the_algebra(zoo):
    for name in COMMUTANT_MEMBERS:
        h = zoo[name]
        _md, gns = _setup(h)
        whole = svd_commutant(gns.rep)
        assert _same_subspace(whole, _orthonormal(right_regular(gns))), name
        reduced = svd_commutant([gns.rep[k] for k in h.generators])
        assert _same_subspace(whole, reduced), name
    # one of the two generators of C[S3] is not enough: its commutant is larger
    h = zoo["C[S3]"]
    _md, gns = _setup(h)
    assert svd_commutant([gns.rep[h.generators[0]]]).shape[0] > h.dim


def test_commutant_method_fails_on_a_corrupted_right_multiplication(zoo):
    # R_1 gains an off-diagonal entry: T_1 stops commuting with rep(A), and
    # the first method fails before J is compared with anything
    h = zoo["C[Z3]"]
    _md, gns = _setup(h)
    gns.M[0, 1, 2] += 0.1
    check = tomita_check(h, gns)
    assert check.line().startswith("CHECK tomita-commutant FAIL")
    assert check.detail == "right multiplication by e_1 does not commute with rep(e_1)"


def test_commutant_method_fails_when_j_rep_j_leaves_the_commutant(zoo):
    # J -> U J U^T keeps J an antiunitary involution (and nabla = 1), but
    # U J rep(A) J U^H is not rep(A)' for this rotation U: only the second
    # method sees it
    h = zoo["C[S3]"]
    _md, gns = _setup(h)
    u = np.eye(h.dim, dtype=complex)
    u[np.ix_((0, 1), (0, 1))] = [[0.6, -0.8], [0.8, 0.6]]
    gns.J = u @ gns.J @ u.T
    check = tomita_check(h, gns)
    assert check.line().startswith("CHECK tomita-commutant FAIL")
    assert check.detail.startswith("J rep(A) J leaves the commutant, residual ")


def test_tomita_skips_when_the_representation_fails(monkeypatch, zoo):
    from hopfcheck import pipeline, run_pipeline

    def perturbed(h, b, tol=1e-9):
        gns = gns_build(h, b, tol)
        gns.rep[1] = gns.rep[1] + 1e-3 * np.eye(h.dim)
        return gns

    monkeypatch.setattr(pipeline, "gns_build", perturbed)
    checks = {c.name: c for c in run_pipeline(zoo["C[Z3]"]).checks}
    assert checks["gns-representation"].status == "FAIL"
    assert checks["tomita-commutant"].line() == (
        "CHECK tomita-commutant SKIP:prerequisite-failed "
        "J^2=1, J nabla J=nabla^-1, nabla=1, J rep(A) J = rep(A)'")


def test_kac_collapse_skips_when_a_dual_integral_fails(monkeypatch, zoo):
    # the integral is positive, so the skip reason is the failed prerequisite
    from hopfcheck import pipeline, run_pipeline
    from hopfcheck.errors import InconsistentWithDirectComputation

    def inconsistent(*args, **kwargs):
        raise InconsistentWithDirectComputation("the two routes to psihat disagree")

    monkeypatch.setattr(pipeline, "compute_dual_integrals", inconsistent)
    checks = {c.name: c for c in run_pipeline(zoo["C[Z3]"]).checks}
    assert checks["positivity"].passed()
    assert checks["dual-integrals"].status == "FAIL"
    assert checks["kac-collapse"].line() == (
        "CHECK kac-collapse SKIP:prerequisite-failed "
        "phi>0 => S^2=id, sigma=id, nu=1, delta=1, deltahat=1^, psihat>0")


def test_tomita_passes_in_dimension_one():
    from hopfcheck import group_algebra
    from hopfcheck.zoo import cyclic_table

    h = group_algebra("C[Z1]", cyclic_table(1))
    md, gns = _setup(h)
    assert tomita_check(h, gns).line().startswith("CHECK tomita-commutant PASS")
