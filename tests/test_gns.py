"""Positivity, the GNS representation, the modular conjugation and commutant,
and the operator comparison.

Every operator statement is an exact identity in Gram coordinates, so each
test below compares exact values.  Floats appear only in the positivity
verdict and in the SVD reference for the commutant, which the exact span of
the right multiplications must match.  The operator laws that restate an
axiom are decided by `algebra` and `star`; the fault tests feed run_pipeline
the corruptions those laws would catch and pin the owning check's FAIL.
"""

import dataclasses
import time

import numpy as np
import pytest

from hopfcheck import Cyc, Elem, Mat, Tensor3, compute_modular, dual_hopf, run_pipeline, sweedler
from hopfcheck import pipeline
from hopfcheck.errors import NumericalFailure
from hopfcheck.integrals import gram_matrix, star_gram
from hopfcheck.gns import (
    gns_build,
    gns_representation_check,
    operator_radford_check,
    positivity_verdict,
    tomita_check,
)
from hopfcheck.report import FAIL
from helpers import rebased

OPERATOR_STAGES = ("gns-representation", "tomita-commutant", "operator-radford")


def _setup(h):
    """compute_modular(h) and the certified B of gns_build."""
    md = compute_modular(h)
    return md, gns_build(h, star_gram(h, md.gram))


def _complex(h):
    """h in the basis f_i = (2 + zeta_8^i) e_i: every table has non-real entries."""
    return rebased(h, [Cyc.rational(2) + Cyc.root(8, i) for i in range(h.dim)])


def _float_mult(h, right: bool = False) -> np.ndarray:
    """out[a] = L_a, or R_a when right, as a float matrix read off h.mult."""
    out = np.zeros((h.dim,) * 3, dtype=complex)
    for (i, j, k), c in h.mult.items():
        out[j if right else i][k, i if right else j] = c.to_complex()
    return out


def _radford_inputs(h) -> tuple:
    """operator_radford_check's arguments after h: hd, md, B and the
    certified star-Gram of psihat on hd."""
    from hopfcheck import compute_dual_integrals, left_integral
    md, b = _setup(h)
    hd = dual_hopf(h)
    psi_hat, _ = compute_dual_integrals(h, md, hd, left_integral(hd))
    return hd, md, b, gns_build(hd, star_gram(hd, gram_matrix(hd, psi_hat)))


def _operator_checks(h) -> list:
    """The three operator checks on h."""
    args = _radford_inputs(h)
    b = args[2]
    return [gns_representation_check(h, b), tomita_check(h, b),
            operator_radford_check(h, *args)]


@pytest.fixture(scope="module")
def complex_s3(zoo):
    """C[S3] in the basis f_i = (2 + zeta_8^i) e_i: every table the checks
    read has non-real entries, and the operator stages pass."""
    h = _complex(zoo["C[S3]"])
    assert h.generators == (1, 3)
    checks = {c.name: c for c in run_pipeline(h).checks}
    assert all(checks[name].passed() for name in OPERATOR_STAGES)
    return h


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
        for check in _operator_checks(_complex(zoo[name])):
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
        _md, b = _setup(h)
        assert tomita_check(h, b).passed(), name
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
        _md, b = _setup(h)
        star = h.star
        assert star.conjugate().transpose().mul(b.mul(star)) == b.transpose(), name
        assert star.mul(star.conjugate()).is_identity(), name


def test_modular_operator_identity_fails_on_a_hermitian_non_tracial_form(zoo):
    # sweedler(x)sweedler has a Hermitian star-Gram, so gns_build accepts it,
    # but phi is not tracial there: the nabla row is what fails
    h = zoo["sweedler(x)sweedler"]
    _md, b = _setup(h)
    check = tomita_check(h, b)
    assert check.status == "FAIL"
    assert check.detail.startswith("modular operator is not the identity at ("), check.detail


def test_rescaling_generator_is_identity(zoo):
    # the rescaling generator P is the identity at finite dimension; it is
    # stated in the representation law rather than stored
    h = zoo["C[Z2]"]
    _md, b = _setup(h)
    check = gns_representation_check(h, b)
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
    # Starhat -> U Starhat U^-1 for a unitriangular U keeps Jhat an
    # involution, but Jhat is no longer antiunitary for Bhat.  The dual of
    # F(S3) is C[S3], whose star e_x -> e_x^-1 U does not fix
    h = zoo["F(S3)"]
    hd, md, b, b_hat = _radford_inputs(h)
    one = Cyc.rational(1)
    u = Mat.of(6, 6, {**{(i, i): one for i in range(6)}, (0, 1): one})
    u_inv = Mat.of(6, 6, {**{(i, i): one for i in range(6)}, (0, 1): -one})
    bad = dataclasses.replace(hd, star=u.mul(hd.star).mul(u_inv))
    assert operator_radford_check(h, hd, md, b, b_hat).passed()
    check = operator_radford_check(h, bad, md, b, b_hat)
    assert check.status == "FAIL"
    assert check.detail.startswith("dual modular operator is not the identity at ("), check.detail


# The rows the operator stages no longer compare are laws of `algebra` and
# `star` (see the gns module docstring).  Each test below feeds run_pipeline
# a corruption that one of those rows used to catch: the owning axiom check
# FAILs, and every operator stage skips, since a FAIL passes no value on.

def _owner_fails(h, owner: str, detail: str) -> None:
    checks = {c.name: c for c in run_pipeline(h).checks}
    assert (checks[owner].status, checks[owner].detail) == (FAIL, detail)
    for name in OPERATOR_STAGES:
        assert checks[name].line().startswith(f"CHECK {name} SKIP:prerequisite-failed "), name


def _with_mult(h, change):
    """h with each stored mult entry (i, j, k) mapped by change(i, j, k, c)."""
    return dataclasses.replace(h, mult=Tensor3(h.dim, {
        key: change(*key, c) for key, c in h.mult.items()}))


def _bent(m: Mat, i: int, j: int, by: Cyc) -> Mat:
    """m with by added to its entry (i, j)."""
    entries = {(r, c): x for c, col in enumerate(m.images) for r, x in col.support}
    entries[i, j] = entries.get((i, j), Cyc.rational(0)) + by
    return Mat.of(m.rows, m.cols, entries)


@pytest.mark.parametrize("name, k, triple", [
    pytest.param("C[Z6]", 2, "(1,1,1)", id="C[Z6]"),
    pytest.param("C[S3]", 4, "(1,4,1)", id="C[S3]"),
])
def test_multiplicativity_on_generators_sees_a_corrupted_non_generator(zoo, name, k, triple):
    # rep(ab) = rep(a) rep(b) is associativity, which `algebra` checks with
    # its first index over the generators only; a doubled product e_k e_1 of
    # a non-generator k still fails there
    h = zoo[name]
    assert k not in h.generators
    _owner_fails(_with_mult(h, lambda i, j, m, c: c + c if (i, j) == (k, 1) else c),
                 "algebra", f"associativity fails at triple {triple}")


def test_multiplicativity_reads_every_generator(zoo):
    # C[S3] has generators (1, 3).  Let K be the subgroup e_1 generates, and
    # double every product e_g e_j with g off K and j != 0: the unit law
    # holds, and so does associativity at every first index in K (K times a
    # coset stays in that coset), while e_3 fails it, so a loop over the
    # first generator alone would pass
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
    bad = _with_mult(h, lambda i, j, m, c: c if i in k_set or j == 0 else c + c)
    _owner_fails(bad, "algebra", "associativity fails at triple (3,1,1)")


def _bent_star_fails(h, i: int, k: int) -> None:
    """Star entry (i, k) raised by zeta_4 makes `star`'s involution row at k
    FAIL: B L_g = L_{g*}^H B and Star conj(Star) = I rest on it."""
    bad = dataclasses.replace(h, star=_bent(h.star, i, k, Cyc.root(4)))
    _owner_fails(bad, "star", f"involution fails at basis {k}")


def test_a_corrupted_star_on_a_generator_fails_the_involution_row(complex_s3):
    # the second generator's star: a loop over the first generator alone
    # would not read it
    assert complex_s3.generators[1] == 3
    _bent_star_fails(complex_s3, 0, 3)


def test_a_corrupted_star_on_a_non_generator_fails_the_involution_row(complex_s3):
    assert 4 not in complex_s3.generators
    _bent_star_fails(complex_s3, 2, 4)


def test_a_rotated_star_fails_the_star_unit_row(zoo):
    # Star -> U Star U^T for a rational rotation U keeps Star an involution,
    # but moves 1* off 1, so J L_g J = R_{g*} no longer follows; `star`
    # catches it at its unit row
    h = zoo["C[S3]"]
    r = Cyc.rational
    u = Mat.of(h.dim, h.dim, {**{(i, i): r(1) for i in range(2, h.dim)},
                              (0, 0): r(3, 5), (0, 1): r(-4, 5), (1, 0): r(4, 5), (1, 1): r(3, 5)})
    _owner_fails(dataclasses.replace(h, star=u.mul(h.star).mul(u.transpose())),
                 "star", "1* != 1")


def test_commutant_dimension_is_read_off_the_unit(zoo):
    # R_b(1) = e_b, which certifies that the R_b are independent, is
    # `algebra`'s unit law: a unit that is not 1 fails it at basis 0
    h = zoo["C[Z3]"]
    _owner_fails(dataclasses.replace(h, unit=Elem.of(3, ((0, Cyc.rational(2)),))),
                 "algebra", "unit law fails at basis 0")


def test_a_corrupted_product_with_the_unit_fails_the_unit_law(zoo):
    # e_0 e_1 gains a term: R_1 would stop commuting with rep(e_1), and
    # `algebra`'s unit law fails first
    h = zoo["C[Z3]"]
    entries = dict(h.mult.items())
    entries[0, 1, 2] = Cyc.rational(1, 10)
    _owner_fails(dataclasses.replace(h, mult=Tensor3(h.dim, entries)),
                 "algebra", "unit law fails at basis 1")


def _failing(real, name):
    """real, with the check called name in its result made to FAIL."""
    def failing(*args, **kwargs):
        return [dataclasses.replace(c, status=FAIL, detail=f"{name} made to fail")
                if c.name == name else c for c in real(*args, **kwargs)]
    return failing


@pytest.mark.parametrize("name", ["algebra", "coalgebra", "bialgebra", "antipode",
                                  "antipode-derived", "star", "dual-algebra", "dual-star"])
def test_operator_stages_run_only_after_the_axioms_pass(complex_s3, monkeypatch, name):
    # the operator proofs take `algebra` and `star` as passed, and
    # operator-radford's also `dual-algebra` and `dual-star`.  When one of
    # h's axiom checks FAILs, every operator stage and kac-collapse skips;
    # when one of the dual's does, operator-radford and kac-collapse skip,
    # while the two stages on h's own GNS space run and pass
    attr = "dual_axiom_checks" if name.startswith("dual-") else "full_axiom_suite"
    monkeypatch.setattr(pipeline, attr, _failing(getattr(pipeline, attr), name))
    checks = {c.name: c for c in run_pipeline(complex_s3).checks}
    assert checks[name].detail == f"{name} made to fail"
    on_h = OPERATOR_STAGES[:2]
    for stage in (*OPERATOR_STAGES, "kac-collapse"):
        if name.startswith("dual-") and stage in on_h:
            assert checks[stage].passed(), stage
        else:
            assert checks[stage].line().startswith(
                f"CHECK {stage} SKIP:prerequisite-failed "), stage


def test_operator_radford_and_plancherel_run_only_after_kac_collapse_passes(
        complex_s3, monkeypatch):
    # delta = 1 and deltahat = 1^, which make operator-radford's four
    # factors 1, are compared by kac-collapse alone, and plancherel's pairs
    # are operator-radford's unitarity row: when kac-collapse FAILs, both
    # skip, and the two stages on h's own GNS space still pass
    real = pipeline.kac_collapse_check

    def failing(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), status=FAIL,
                                   detail="kac-collapse made to fail")

    monkeypatch.setattr(pipeline, "kac_collapse_check", failing)
    checks = {c.name: c for c in run_pipeline(complex_s3).checks}
    assert checks["kac-collapse"].detail == "kac-collapse made to fail"
    assert checks["gns-representation"].passed() and checks["tomita-commutant"].passed()
    for name in ("operator-radford", "plancherel"):
        assert checks[name].line().startswith(f"CHECK {name} SKIP:prerequisite-failed "), name


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
