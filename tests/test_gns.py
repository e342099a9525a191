"""Positivity, the GNS representation, the modular conjugation and commutant,
and the operator comparison.

Every operator statement is an exact identity in Gram coordinates, so each
test below compares exact values.  Floats appear only in the positivity
verdict and in the SVD reference for the commutant, which the exact span of
the right multiplications must match.  The fault tests run in a complex
basis of C[S3], where a check that drops a conjugation fails on clean data.
"""

import dataclasses
import time

import numpy as np
import pytest

from hopfcheck import Cyc, Elem, Mat, Tensor3, compute_modular, dual_hopf, sweedler
from hopfcheck.errors import NumericalFailure
from hopfcheck.integrals import gram_matrix, star_gram
from hopfcheck.gns import (
    gns_build,
    gns_representation_check,
    operator_radford_check,
    positivity_verdict,
    tomita_check,
)
from helpers import pair_scan


def _setup(h):
    md = compute_modular(h)
    return md, gns_build(h, star_gram(h, md.gram))


def _float(m: Mat) -> np.ndarray:
    out = np.zeros((m.rows, m.cols), dtype=complex)
    for j, col in enumerate(m.images):
        for i, c in col.support:
            out[i, j] = c.to_complex()
    return out


def _float_mult(h, right: bool = False) -> np.ndarray:
    """out[a] = L_a, or R_a when right, as a float matrix read off h.mult."""
    out = np.zeros((h.dim,) * 3, dtype=complex)
    for (i, j, k), c in h.mult.items():
        out[j if right else i][k, i if right else j] = c.to_complex()
    return out


def _first_entry(diff: np.ndarray) -> tuple:
    """The first (row, column) at which a float difference is not zero."""
    return tuple(int(x) for x in np.argwhere(np.abs(diff) > 1e-9)[0])


def _rebased(h, s):
    """h in the basis f_i = s[i] e_i, over Q(zeta_8)."""
    d = h.dim

    def mat(m, scale):
        return Mat.of(d, d, {(k, i): c * scale(s[i]) / s[k]
                             for i, col in enumerate(m.images) for k, c in col.support})
    return dataclasses.replace(
        h, field_order=8,
        mult=Tensor3(d, {(i, j, k): c * s[i] * s[j] / s[k] for (i, j, k), c in h.mult.items()}),
        unit=Elem.of(d, ((k, c / s[k]) for k, c in h.unit.support)),
        comult=Tensor3(d, {(k, i, j): c * s[k] / (s[i] * s[j])
                           for (k, i, j), c in h.comult.items()}),
        counit=Elem.of(d, ((i, c * s[i]) for i, c in h.counit.support)),
        antipode=mat(h.antipode, lambda x: x), star=mat(h.star, Cyc.conjugate))


def _radford_inputs(h) -> tuple:
    """operator_radford_check's arguments after h: hd, md, deltahat and the
    GNS data of h and of hd."""
    from hopfcheck import compute_dual_integrals, left_integral, modular_element
    md, gns = _setup(h)
    hd = dual_hopf(h)
    phi_dual = left_integral(hd)
    psi_hat, _ = compute_dual_integrals(h, md, hd, phi_dual)
    delta_hat = modular_element(hd, phi_dual)
    return hd, md, delta_hat, gns, gns_build(hd, star_gram(hd, gram_matrix(hd, psi_hat)))


def _operator_checks(h) -> list:
    """The three operator checks on h, each on its own GNS data."""
    args = _radford_inputs(h)
    gns = args[3]
    return [gns_representation_check(h, gns), tomita_check(h, gns),
            operator_radford_check(h, *args)]


@pytest.fixture(scope="module")
def complex_s3(zoo):
    """C[S3] in the basis f_i = (2 + zeta_8^i) e_i, with its GNS data: every
    table the checks read has non-real entries, and the checks pass."""
    h = _rebased(zoo["C[S3]"], [Cyc.rational(2) + Cyc.root(8, i) for i in range(6)])
    gns = _setup(h)[1]
    assert h.generators == (1, 3)
    assert gns_representation_check(h, gns).passed() and tomita_check(h, gns).passed()
    return h, gns


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
    # sweedler's star-Gram is not Hermitian, so it is no inner product
    h = sweedler()
    md = compute_modular(h)
    with pytest.raises(NumericalFailure, match="not Hermitian"):
        gns_build(h, star_gram(h, md.gram))


def test_gns_build_refuses_a_symmetric_form_that_is_not_hermitian():
    h = sweedler()
    with pytest.raises(NumericalFailure, match="not Hermitian"):
        gns_build(h, Mat.of(4, 4, {(i, i): Cyc.root(4) for i in range(4)}))


def test_group_algebra_representation_criteria(zoo):
    # the three operator checks, exactly, on both dim-6 members
    for name in ("C[S3]", "F(S3)"):
        start = time.monotonic()
        for check in _operator_checks(zoo[name]):
            assert check.status == "PASS", check.line()
        assert time.monotonic() - start < 5.0, f"{name} exceeded the budget"


def test_operator_checks_pass_in_a_complex_basis(zoo):
    # f_i = (2 + zeta_8^i) e_i gives every matrix non-real entries, so a
    # check that drops a conjugation or transposes without it fails here
    for name in ("C[S3]", "F(S3)"):
        h = _rebased(zoo[name], [Cyc.rational(2) + Cyc.root(8, i) for i in range(6)])
        for check in _operator_checks(h):
            assert check.status == "PASS", (name, check.line())


def svd_commutant(rep, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (rows of shape (d,d)) of everything commuting with
    rep, as the null space of the stacked X -> [r, X] over r in rep: the
    d^6 float reference for the exact commutant, the span of the R_b.

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


def _same_subspace(a: np.ndarray, b: np.ndarray) -> bool:
    """Orthonormal row bases a and b (as stacks of matrices) span one subspace."""
    fa, fb = a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)
    return fa.shape == fb.shape and np.linalg.norm(
        fa.T @ fa.conj() - fb.T @ fb.conj()) <= 1e-8


COMMUTANT_MEMBERS = ("C[Z2]", "C[Z6]", "C[S3]", "F(Z3)", "F(Z6)", "F(S3)")


def test_commutant_dimensions(zoo):
    # tomita_check certifies rep(A)' = span{R_b} of dimension d exactly;
    # the SVD null space of the left regular image agrees with it
    for name in COMMUTANT_MEMBERS:
        h = zoo[name]
        _md, gns = _setup(h)
        assert tomita_check(h, gns).passed(), name
        whole = svd_commutant(_float_mult(h))
        assert whole.shape[0] == h.dim, name
        assert _same_subspace(whole, _orthonormal(_float_mult(h, right=True))), name


def test_commutant_of_the_generators_is_the_commutant_of_the_algebra(zoo):
    for name in COMMUTANT_MEMBERS:
        h = zoo[name]
        left = _float_mult(h)
        whole = svd_commutant(left)
        reduced = svd_commutant([left[k] for k in h.generators])
        assert _same_subspace(whole, reduced), name
    # one of the two generators of C[S3] is not enough: its commutant is larger
    h = zoo["C[S3]"]
    assert svd_commutant([_float_mult(h)[h.generators[0]]]).shape[0] > h.dim


def test_modular_operator_trivial_on_positive_members(zoo):
    # nabla = 1 is Star^H B Star = B^T, and J = Star conj is an involution
    for name in ("C[Z3]", "F(Z6)"):
        h = zoo[name]
        _md, gns = _setup(h)
        star, b = gns.star, gns.b
        assert star.conjugate().transpose().mul(b.mul(star)) == b.transpose(), name
        assert star.mul(star.conjugate()).is_identity(), name


def test_modular_operator_identity_fails_on_a_hermitian_non_tracial_form(zoo):
    # sweedler(x)sweedler has a Hermitian star-Gram, so gns_build accepts it,
    # but phi is not tracial there: the nabla row is what fails
    h = zoo["sweedler(x)sweedler"]
    _md, gns = _setup(h)
    check = tomita_check(h, gns)
    assert check.status == "FAIL"
    assert check.detail.startswith("modular operator is not the identity at ("), check.detail


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


def test_operator_radford_fails_when_the_dual_modular_operator_is_not_one(zoo):
    # Jhat -> U Jhat U^-1 for a unitriangular U keeps Jhat an involution, so
    # the four factors stay 1, but Jhat is no longer antiunitary for Bhat.
    # The dual of F(S3) is C[S3], whose star e_x -> e_x^-1 U does not fix
    h = zoo["F(S3)"]
    hd, md, delta_hat, gns, gns_dual = _radford_inputs(h)
    one = Cyc.rational(1)
    u = Mat.of(6, 6, {**{(i, i): one for i in range(6)}, (0, 1): one})
    u_inv = Mat.of(6, 6, {**{(i, i): one for i in range(6)}, (0, 1): -one})
    bad = dataclasses.replace(gns_dual, star=u.mul(gns_dual.star).mul(u_inv))
    assert operator_radford_check(h, hd, md, delta_hat, gns, gns_dual).passed()
    check = operator_radford_check(h, hd, md, delta_hat, gns, bad)
    assert check.status == "FAIL"
    assert check.detail.startswith("dual modular operator is not the identity at ("), check.detail


def _with_mult(h, change):
    """h with each stored mult entry (i, j, k) mapped by change(i, j, k, c)."""
    return dataclasses.replace(h, mult=Tensor3(h.dim, {
        key: change(*key, c) for key, c in h.mult.items()}))


def _associativity_scan(h):
    """The first (i, j) over every i at which (e_i e_j) e_k != e_i (e_j e_k)
    for some k, one pair at a time: rep(e_i) rep(e_j) = rep(e_i e_j)."""
    b = h.basis
    return pair_scan(h.dim, ("multiplicativity fails at ({0},{1})",
                             lambda i, j: [h.mul(h.mul(b(i), b(j)), b(k)) for k in range(h.dim)],
                             lambda i, j: [h.mul(b(i), h.mul(b(j), b(k)))
                                           for k in range(h.dim)]))


@pytest.mark.parametrize("name", ["C[Z6]", "C[S3]"])
def test_multiplicativity_on_generators_sees_a_corrupted_non_generator(zoo, name):
    # the rows run over the generators g only, but read the table row of
    # every e_j, so a corrupted product e_k e_j of a non-generator k fails
    # too, at the pair a scan over every first index names
    h = zoo[name]
    unit = {i for i, _ in h.unit.support}
    others = [k for k in range(h.dim) if k not in h.generators and k not in unit]
    assert h.generators and others
    for k in (h.generators[0], others[0], others[-1]):
        bad = _with_mult(h, lambda i, j, m, c: c + c if (i, j) == (k, 1) else c)
        check = gns_representation_check(bad, gns_build(bad, _setup(h)[1].b))
        assert check.status == "FAIL", (name, k)
        assert check.detail.startswith("multiplicativity fails at ("), (name, k, check.detail)
        i = int(check.detail.split("(")[1].split(",")[0])
        assert i in bad.generators
        assert check.detail == _associativity_scan(bad), (name, k)


def test_multiplicativity_reads_every_generator(zoo):
    # C[S3] has generators (1, 3).  Let K be the subgroup e_1 generates, and
    # double every product e_g e_j with g off K: every row with a left factor
    # in K still holds (K times a coset stays in that coset), while e_3 does
    # not, so a loop over the first generator alone would pass
    h = zoo["C[S3]"]
    assert h.generators == (1, 3)
    k_set, x = {0}, h.unit
    while True:
        x = h.mul(h.basis(1), x)
        (g, _), = x.support
        if g in k_set:
            break
        k_set.add(g)
    assert 3 not in k_set and len(k_set) == 3
    bad = _with_mult(h, lambda i, j, m, c: c if i in k_set else c + c)
    check = gns_representation_check(bad, gns_build(bad, _setup(h)[1].b))
    assert (check.status, check.detail) == ("FAIL", _associativity_scan(bad))
    assert check.detail == "multiplicativity fails at (3,0)"


def _bent(m: Mat, i: int, j: int, by: Cyc) -> Mat:
    """m with by added to its entry (i, j)."""
    entries = {(r, c): x for c, col in enumerate(m.images) for r, x in col.support}
    entries[i, j] = entries.get((i, j), Cyc.rational(0)) + by
    return Mat.of(m.rows, m.cols, entries)


def test_a_corrupted_star_on_a_generator_fails_the_adjoint_row(complex_s3):
    # the second generator's star: a loop that reads only the first
    # generator would pass
    h, gns = complex_s3
    bad = dataclasses.replace(gns, star=_bent(gns.star, 0, 3, Cyc.root(4)))
    check = gns_representation_check(h, bad)
    lhs = _float(bad.b) @ _float(bad.left[3])
    l_star = _float_mult(h)
    rhs = np.tensordot(_float(bad.star)[:, 3], l_star, 1).conj().T @ _float(bad.b)
    assert check.status == "FAIL"
    assert check.detail == "adjoint property fails at basis 3, entry ({},{})".format(
        *_first_entry(lhs - rhs))


def test_a_corrupted_star_on_a_non_generator_fails_the_involution_row(complex_s3):
    # no generator's star changes, so the adjoint rows hold; T^2 = 1 reads
    # the star of every basis vector
    h, gns = complex_s3
    k = 4
    assert k not in h.generators
    bad = dataclasses.replace(gns, star=_bent(gns.star, 2, k, Cyc.root(4)))
    check = gns_representation_check(h, bad)
    star = _float(bad.star)
    assert check.status == "FAIL"
    assert check.detail == "star lift does not square to the identity at ({},{})".format(
        *_first_entry(star @ star.conj() - np.eye(h.dim)))


def test_a_corrupted_entry_of_b_fails_the_adjoint_row(complex_s3):
    h, gns = complex_s3
    bad = dataclasses.replace(gns, b=_bent(gns.b, 2, 5, Cyc.root(4)))
    check = gns_representation_check(h, bad)
    b, g = _float(bad.b), h.generators[0]
    rhs = np.tensordot(_float(bad.star)[:, g], _float_mult(h), 1).conj().T @ b
    assert check.status == "FAIL"
    assert check.detail == "adjoint property fails at basis {}, entry ({},{})".format(
        g, *_first_entry(b @ _float(bad.left[g]) - rhs))


def test_a_corrupted_entry_of_a_stored_generator_fails_multiplicativity(complex_s3):
    # left[3] is the stored L_3: the row at 3 reads it against the table
    h, gns = complex_s3
    bad = dataclasses.replace(gns, left={**gns.left, 3: _bent(gns.left[3], 1, 4, Cyc.root(4))})
    check = gns_representation_check(h, bad)
    assert check.status == "FAIL"
    assert check.detail == "multiplicativity fails at (3,0)"


def test_commutant_method_fails_on_a_corrupted_right_multiplication(zoo):
    # the product e_0 e_1 gains a term, in the table the check reads but not
    # in the stored L_1: R_1 stops commuting with rep(e_1), and the
    # commutation row fails before J is compared with anything
    h = zoo["C[Z3]"]
    _md, gns = _setup(h)
    entries = dict(h.mult.items())
    entries[0, 1, 2] = Cyc.rational(1, 10)
    bad = dataclasses.replace(h, mult=Tensor3(h.dim, entries))
    check = tomita_check(bad, gns)
    assert check.line().startswith("CHECK tomita-commutant FAIL")
    assert check.detail == "right multiplication by e_1 does not commute with rep(e_1) on e_0"


def test_commutant_dimension_is_read_off_the_unit(zoo):
    # R_b(1) = e_b certifies that the R_b are independent; with a unit
    # that is not 1 the certificate fails at the first basis vector
    h = zoo["C[Z3]"]
    _md, gns = _setup(h)
    bad = dataclasses.replace(h, unit=Elem.of(3, ((0, Cyc.rational(2)),)))
    check = tomita_check(bad, gns)
    assert check.detail == "commutant dimension is not certified: R_0(1) != e_0"


def test_commutant_method_fails_when_j_rep_j_leaves_the_commutant(zoo):
    # Star -> U Star U^T for a rational rotation U keeps J an involution and
    # nabla = 1 (U is orthogonal and B is scalar on C[S3]), but
    # J rep(A) J is not rep(A)': only the last row sees it
    h = zoo["C[S3]"]
    _md, gns = _setup(h)
    scalar = gns.b.images[0].support[0][1]
    assert all(col.support == ((j, scalar),) for j, col in enumerate(gns.b.images))
    r = Cyc.rational
    u = Mat.of(h.dim, h.dim, {**{(i, i): r(1) for i in range(2, h.dim)},
                              (0, 0): r(3, 5), (0, 1): r(-4, 5), (1, 0): r(4, 5), (1, 1): r(3, 5)})
    bad = dataclasses.replace(gns, star=u.mul(gns.star).mul(u.transpose()))
    check = tomita_check(h, bad)
    assert check.line().startswith("CHECK tomita-commutant FAIL")
    assert check.detail.startswith("J rep(e_1) J is not R_(e_1*) at ("), check.detail


def test_tomita_skips_when_the_representation_fails(monkeypatch, zoo):
    from hopfcheck import pipeline, run_pipeline

    def perturbed(h, b):
        gns = gns_build(h, b)
        return dataclasses.replace(gns, left={**gns.left, 1: _bent(gns.left[1], 0, 0,
                                                                   Cyc.rational(1, 1000))})

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
