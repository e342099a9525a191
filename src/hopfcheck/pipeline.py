"""Runs every verifier in a fixed order with prerequisite gating.

Each stage appends exactly one named check (the dual axiom checks append
six), so two runs over the same input produce byte-identical reports.
A compute stage that throws surfaces as a FAIL under its own name, and
everything depending on it reports SKIP:prerequisite-failed instead of
cascading exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .duality import (biduality_check, compute_dual_integrals, dual_axiom_checks,
                      dual_hopf, dual_modular_links, plancherel_check,
                      transpose_failure, verify_pairing)
from .errors import HopfError
from .gns import (GNSData, gns_build, gns_representation_check,
                  kac_collapse_check, operator_radford_check,
                  positivity_verdict, tomita_check)
from .hopf import (Elem, HopfData, find_group_likes, full_axiom_suite,
                   group_like_closure_check)
from .integrals import (ModularData, compute_modular, modular_element,
                        modular_identity_checks, left_integral)
from .radford import (counimodular_check, half_power_check, radford_check,
                      radford_factorization, s2_order, s_order)
from .report import Check, FAIL, fail, ok, skip

_LAW_GROUP_LIKES = "G(A) is a group under multiplication"
_INTEGRAL_LAWS = (
    ("left-integral", "(id(x)phi)D(a)=phi(a)1, ker dim=1"),
    ("right-integral", "(psi(x)id)D(a)=psi(a)1, psi=phi.S"),
    ("modular-element", "(phi(x)id)D(a)=phi(a)delta, D(delta)=delta(x)delta"),
    ("modular-automorphism", "phi(ab)=phi(b sigma(a)), sigma=G^-1 G^T"),
    ("modular-automorphism-right", "psi(ab)=psi(b sigma'(a))"),
    ("scaling-constant", "phi.S^2=nu phi"),
)
_LAW_DUAL_INTEGRALS = ("psihat(F(a))=eps(a) right invariant, phihat=psihat.S^ "
                       "left invariant, both match the kernel solver")
_LAW_DUAL_DELTA = "(phihat(x)id)D^(b)=phihat(b)deltahat, deltahat group-like"
_LAW_POSITIVITY = "phi(a*a)>0 for a!=0"

NOTES = (
    "multipliers of the dual coincide with the dual itself at finite dimension",
    "the one-parameter rescaling family is trivial at finite dimension; "
    "only its algebraic specialisations are checked",
)


@dataclass
class PipelineResult:
    h: HopfData
    checks: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)

    def report_lines(self, only: str | None = None) -> list:
        lines = [c.line() for c in self.checks
                 if only is None or c.name == only]
        return lines


def run_pipeline(h: HopfData, tol: float = 1e-9, seed: int = 42) -> PipelineResult:
    res = PipelineResult(h=h)
    checks = res.checks
    vals = res.values
    vals.update({"seed": seed, "tolerance": tol})

    core = full_axiom_suite(h)
    checks.extend(core)
    core_ok = not any(c.status == FAIL for c in core)

    likes = None
    if not core_ok:
        checks.append(skip("group-likes", _LAW_GROUP_LIKES, "prerequisite-failed"))
    else:
        likes = _group_like_stage(h, "group-likes", checks)
    vals["group_likes"] = likes

    # built and certified before the integrals: each side's left integral
    # is solved on the generators of the other side (integrals.left_integral),
    # and hd's generate only once the certificate makes hd the transpose of
    # h, hence an algebra (duality.transpose_failure); else the full system
    hd = dual_hopf(h) if core_ok else None
    vals["dual"] = hd
    not_transpose = None if hd is None else transpose_failure(h, hd)

    md = None
    if not core_ok:
        for name, law in _INTEGRAL_LAWS:
            checks.append(skip(name, law, "prerequisite-failed"))
    else:
        md = _integral_stages(h, hd.generators if not_transpose is None else None, checks)
    vals["modular"] = md

    if md is None:
        for name in ("modular-sandwich", "modular-conjugation", "modular-coproduct",
                     "modular-commutation", "modular-scaling", "modular-flip"):
            checks.append(skip(name, "modular identity", "prerequisite-failed"))
    else:
        checks.extend(modular_identity_checks(h, md))
        vals["s_order"] = s_order(h)
        vals["s2_order"] = s2_order(h)
        vals["unimodular"] = md.delta == h.unit

    dual_ok = False
    if hd is None:
        for name in ("dual-algebra", "dual-coalgebra", "dual-bialgebra",
                     "dual-antipode", "dual-antipode-derived", "dual-star"):
            checks.append(skip(name, "axioms on the dual", "prerequisite-failed"))
    else:
        dual_core = dual_axiom_checks(core, hd, not_transpose)
        checks.extend(dual_core)
        dual_ok = not any(c.status == FAIL for c in dual_core)

    dual_likes = None
    if not dual_ok:
        checks.append(skip("dual-group-likes", _LAW_GROUP_LIKES, "prerequisite-failed"))
    else:
        dual_likes = _group_like_stage(hd, "dual-group-likes", checks)

    if not dual_ok:
        checks.append(skip("pairing-actions", "pairing laws", "prerequisite-failed"))
    else:
        checks.append(verify_pairing(h, hd, hd.generators))

    psi_hat = phi_hat = delta_hat = None
    if md is None or not dual_ok:
        checks.append(skip("dual-integrals", _LAW_DUAL_INTEGRALS, "prerequisite-failed"))
        checks.append(skip("dual-modular-element", _LAW_DUAL_DELTA, "prerequisite-failed"))
    else:
        try:  # solved once: the kernel cross-check and deltahat both read it
            dual_phi = left_integral(hd, h.generators)
        except HopfError as e:
            dual_phi = e
        try:
            psi_hat, phi_hat = compute_dual_integrals(h, md, hd, dual_phi)
            checks.append(ok("dual-integrals", _LAW_DUAL_INTEGRALS))
        except HopfError as e:
            checks.append(fail("dual-integrals", _LAW_DUAL_INTEGRALS, str(e)))
        try:
            if isinstance(dual_phi, HopfError):
                raise dual_phi
            delta_hat = modular_element(hd, dual_phi)
            checks.append(ok("dual-modular-element", _LAW_DUAL_DELTA))
        except HopfError as e:
            checks.append(fail("dual-modular-element", _LAW_DUAL_DELTA, str(e)))
    vals["psi_hat"] = psi_hat
    vals["phi_hat"] = phi_hat
    vals["delta_hat"] = delta_hat
    if delta_hat is not None:
        vals["counimodular"] = delta_hat == Elem(h.counit.coords)

    if md is None or delta_hat is None:
        checks.append(skip("dual-modular-links", "modular data vs dual action",
                           "prerequisite-failed"))
        checks.append(skip("radford-s4", "S^4 as a double conjugation",
                           "prerequisite-failed"))
        checks.append(skip("radford-factorization", "S^4 from the modular data",
                           "prerequisite-failed"))
    else:
        checks.append(dual_modular_links(h, md, hd, delta_hat))
        checks.append(radford_check(h, md, hd, delta_hat))
        checks.append(radford_factorization(h, md, hd, delta_hat))

    if md is None or delta_hat is None or likes is None:
        checks.append(skip("s2-conjugation", "S^2 under a trivial dual modular element",
                           "prerequisite-failed"))
    else:
        checks.append(counimodular_check(h, md, hd, delta_hat, likes))
    if md is None or delta_hat is None or likes is None or dual_likes is None:
        checks.append(skip("s2-half-power", "S^2 as a half sandwich",
                           "prerequisite-failed"))
    else:
        checks.append(half_power_check(h, md, hd, delta_hat, likes, dual_likes))

    verdict = None
    if md is None:
        checks.append(skip("positivity", _LAW_POSITIVITY, "prerequisite-failed"))
    else:
        verdict, vdetail = positivity_verdict(h, md.phi, tol)
        vals["positivity"] = (verdict, vdetail)
        if verdict == "positive":
            checks.append(ok("positivity", _LAW_POSITIVITY, vdetail))
        else:
            checks.append(skip("positivity", _LAW_POSITIVITY, verdict))

    positive = verdict == "positive"
    gate_reason = "prerequisite-failed" if verdict is None else verdict
    if not positive or delta_hat is None or psi_hat is None:
        checks.append(skip("kac-collapse", "phi>0 => modular family collapses",
                           gate_reason))
    else:
        checks.append(kac_collapse_check(h, md, hd, delta_hat, psi_hat, verdict, tol))
        vals["kac"] = checks[-1].passed()

    gns = gns_dual = None
    if not positive:
        for name in ("gns-representation", "tomita-commutant", "operator-radford"):
            checks.append(skip(name, "represented form", gate_reason))
    else:
        try:
            gns = gns_build(h, md.phi, tol)
            checks.append(gns_representation_check(h, md.phi, gns, tol))
        except HopfError as e:
            checks.append(fail("gns-representation", "rep is a *-homomorphism", str(e)))
        if gns is None or not checks[-1].passed():  # the commutant rests on multiplicativity
            checks.append(skip("tomita-commutant", "modular conjugation",
                               "prerequisite-failed"))
        else:
            checks.append(tomita_check(h, gns, max(tol, 1e-8)))
        if gns is None or psi_hat is None or delta_hat is None:
            checks.append(skip("operator-radford", "operator fourth-power identity",
                               "prerequisite-failed"))
        else:
            try:
                gns_dual = gns_build(hd, psi_hat, tol)
                checks.append(operator_radford_check(h, md, hd, delta_hat,
                                                     gns, gns_dual, tol))
            except HopfError as e:
                checks.append(fail("operator-radford",
                                   "operator fourth-power identity", str(e)))
    vals["gns"] = gns
    vals["gns_dual"] = gns_dual

    if md is None or psi_hat is None:
        checks.append(skip("plancherel", "psihat(F(a)*F(a))=phi(a*a)",
                           "prerequisite-failed"))
    else:
        checks.append(plancherel_check(h, md, hd, psi_hat,
                                       verdict or "prerequisite-failed", seed))

    if not core_ok:
        checks.append(skip("biduality", "dual(dual(A))=A", "prerequisite-failed"))
    else:
        checks.append(biduality_check(h, hd))

    return res


def _group_like_stage(h: HopfData, name: str, checks: list) -> list | None:
    """All group-likes and their closure check, reported as `name`; None unless it passes."""
    try:
        likes = find_group_likes(h)
        glc = group_like_closure_check(h, likes)
    except HopfError as e:
        checks.append(fail(name, _LAW_GROUP_LIKES, str(e)))
        return None
    checks.append(Check(name, glc.status, glc.identity, glc.detail))
    return likes if glc.passed() else None


def _integral_stages(h: HopfData, first: tuple | None,
                     checks: list) -> ModularData | None:
    """One named check per computed object; None as soon as one fails.
    first is the dual's generators (None for all), handed to compute_modular."""
    try:
        md = compute_modular(h, first)
    except HopfError as e:
        reached = True
        for name, law in _INTEGRAL_LAWS:
            if name == e.stage:
                checks.append(fail(name, law, str(e)))
                reached = False
            elif reached:
                checks.append(ok(name, law))
            else:
                checks.append(skip(name, law, "prerequisite-failed"))
        return None
    for name, law in _INTEGRAL_LAWS:
        checks.append(ok(name, law))
    return md
