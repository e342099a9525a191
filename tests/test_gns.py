"""Cyclic representations, modular operators, and the operator comparison.

Tolerances here are the contract: the flat geometry of a positive
integral forces the modular operator to be the identity up to 1e-9.
"""

import time

import numpy as np
import pytest

from hopfcheck import compute_modular, dual_hopf, sweedler
from hopfcheck.errors import NumericalFailure
from hopfcheck.integrals import gram_matrix, star_gram
from hopfcheck.gns import (
    commutant_basis,
    gns_build,
    gns_representation_check,
    operator_radford_check,
    positivity_verdict,
    tomita_check,
)


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
        rep_check = gns_representation_check(h, md.phi, gns, tol=1e-9)
        assert rep_check.status == "PASS", rep_check.line()
        tom = tomita_check(h, gns, tol=1e-8)
        assert tom.status == "PASS", tom.line()
        hd = dual_hopf(h)
        from hopfcheck import compute_dual_integrals, modular_element, left_integral
        phi_dual = left_integral(hd)
        psi_hat, _ = compute_dual_integrals(h, md, hd, phi_dual)
        delta_hat = modular_element(hd, phi_dual)
        gns_dual = gns_build(hd, star_gram(hd, gram_matrix(hd, psi_hat)))
        op = operator_radford_check(h, md, hd, delta_hat, gns, gns_dual, tol=1e-9)
        assert op.status == "PASS", op.line()
        assert time.monotonic() - start < 5.0, f"{name} exceeded the budget"


def test_commutant_dimensions(zoo):
    # commutant of the left regular image has dim = dim(H) in a flat
    # trace geometry; the stacked JMJ span must agree
    for name, expected in (("C[Z2]", 2), ("C[S3]", 6), ("F(Z3)", 3)):
        h = zoo[name]
        md, gns = _setup(h)
        basis = commutant_basis(gns.rep)
        assert basis.shape[0] == expected, name


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
    check = gns_representation_check(h, md.phi, gns)
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
        uv = np.zeros(h.dim)
        from hopfcheck.gns import left_mult_float
        uv = left_mult_float(h, u.astype(complex)) @ v
        puv = sum(uv[i] * gns.rep[i] for i in range(h.dim))
        assert np.linalg.norm(pu @ pv - puv) <= 1e-8


def _same_subspace(a: np.ndarray, b: np.ndarray) -> bool:
    """Orthonormal row bases a and b (as stacks of matrices) span one subspace."""
    fa, fb = a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)
    return fa.shape == fb.shape and np.linalg.norm(
        fa.T @ fa.conj() - fb.T @ fb.conj()) <= 1e-8


def test_commutant_of_the_generators_is_the_commutant_of_the_algebra(zoo):
    for name in ("C[Z6]", "C[S3]", "F(Z6)", "F(S3)"):
        h = zoo[name]
        _md, gns = _setup(h)
        whole = commutant_basis(gns.rep)
        assert whole.shape[0] == h.dim, name
        reduced = commutant_basis([gns.rep[k] for k in h.generators])
        assert _same_subspace(whole, reduced), name
    # one of the two generators of C[S3] is not enough: its commutant is larger
    h = zoo["C[S3]"]
    _md, gns = _setup(h)
    assert commutant_basis([gns.rep[h.generators[0]]]).shape[0] > h.dim


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
        "CHECK tomita-commutant SKIP:prerequisite-failed modular conjugation")


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
        "CHECK kac-collapse SKIP:prerequisite-failed phi>0 => modular family collapses")


def test_tomita_passes_in_dimension_one():
    from hopfcheck import group_algebra
    from hopfcheck.zoo import cyclic_table

    h = group_algebra("C[Z1]", cyclic_table(1))
    md, gns = _setup(h)
    assert tomita_check(h, gns).line().startswith("CHECK tomita-commutant PASS")
