"""Runs every verifier in a fixed order with prerequisite gating.

STAGES is the pipeline, run in order.  A Stage gives the names of the
checks it prints, each stating its law report.LAWS[name]; the keys of
PipelineResult.values it reads (requires); the checks its proof cites;
whether it also needs a positive left integral; and run(h, values), which
returns its checks and sets its values.  run_pipeline applies three rules:
- Commit: a stage runs on a copy of values, kept only when none of its
  checks FAILs, so a failure is reported once, where it arises, and all
  that depends on it SKIPs.  A SKIP commits: the positivity verdict must.
- Skip (_skip_reason): a positivity-gated stage skips with the verdict when
  it is not `positive`, and with `prerequisite-failed` when there is none;
  else a stage skips with `prerequisite-failed` when a value it requires is
  missing or a check it cites is not in values["passed"] (printed PASS),
  so no stage that runs without a star cites `star` or `dual-star`.
- Raise: when run raises a HopfError e, the checks before the one e.stage
  names (before the first, when it names none) PASS, that check FAILs with
  str(e), and the rest SKIP with `prerequisite-failed`; a stage that
  throws is a FAIL under its own name, never malformed input.
Two runs over one input print byte-identical reports.  run functions look
the verifiers up in this module's globals when called, so a binding
patched here is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from .duality import (biduality_check, compute_dual_integrals, dual_axiom_checks,
                      dual_hopf, dual_modular_links, plancherel_check,
                      transpose_failure, verify_pairing)
from .errors import HopfError
from .gns import (gns_build, gns_representation_check, kac_collapse_check,
                  operator_radford_check, positivity_verdict, tomita_check)
from .hopf import HopfData, find_group_likes, full_axiom_suite, group_like_closure_check
from .integrals import (compute_modular, gram_matrix, left_integral, modular_element,
                        modular_identity_checks, star_gram)
from .radford import counimodular_check, half_power_check, radford_check, radford_factorization
from .report import FAIL, PASS, fail, ok, skip

_AXIOMS = ("algebra", "coalgebra", "bialgebra", "antipode", "antipode-derived", "star")
_INTEGRALS = ("left-integral", "right-integral", "modular-element", "modular-automorphism",
              "modular-automorphism-right", "scaling-constant")
_TRANSPOSED = tuple("dual-" + name for name in _AXIOMS[:5])
_S4 = ("dual-modular-links", "radford-s4")
_ON_STAR = ("algebra", "star")  # what the operator proofs on h's GNS space cite
_PREREQ = "prerequisite-failed"


@dataclass
class PipelineResult:
    h: HopfData
    checks: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)

    def report_lines(self) -> list:
        return [c.line() for c in self.checks]


class Stage(NamedTuple):
    names: tuple
    requires: tuple
    run: Callable
    cites: tuple = ()
    positive: bool = False


def run_pipeline(h: HopfData, tol: float = 1e-9) -> PipelineResult:
    res = PipelineResult(h=h, values={"tolerance": tol, "passed": frozenset()})
    for stage in STAGES:
        reason = _skip_reason(stage, res.values)
        if reason is not None:
            res.checks.extend(skip(name, reason) for name in stage.names)
            continue
        values = dict(res.values)
        try:
            checks = stage.run(h, values)
        except HopfError as e:
            names = stage.names
            at = names.index(e.stage) if e.stage in names else 0
            checks = ([ok(name) for name in names[:at]] + [fail(names[at], str(e))]
                      + [skip(name, _PREREQ) for name in names[at + 1:]])
        res.checks.extend(checks)
        if not any(c.status == FAIL for c in checks):
            res.values = values
        res.values["passed"] |= {c.name for c in checks if c.status == PASS}
    return res


def _skip_reason(stage: Stage, values: dict) -> str | None:
    verdict = values.get("positivity", (None,))[0]
    if stage.positive and verdict != "positive":
        return verdict or _PREREQ
    ready = values["passed"].issuperset(stage.cites) and all(
        values.get(key) is not None for key in stage.requires)
    return None if ready else _PREREQ


def _axioms(h: HopfData, v: dict) -> list:
    """h's suite; once it passes, the dual and its transposition certificate,
    which decides whether A's integrals may be solved on hd's generators."""
    core = full_axiom_suite(h)
    if not any(c.status == FAIL for c in core):  # a failed suite never builds its dual
        v["core"], v["dual"] = core, dual_hopf(h)
        v["not_transpose"] = transpose_failure(h, v["dual"])
    return core


def _group_likes(a: HopfData, dual: HopfData, name: str, v: dict, key: str) -> list:
    """All group-likes of a, reported as name by their closure check, whose
    PASS is a proof from the finder's exact count and the checks this stage
    cites (see hopf.group_like_closure_check).  Each candidate is
    confirmed on the generators of dual, which is a's dual once the
    transposition certificate holds, and on every row otherwise (see
    hopf.is_group_like)."""
    v[key] = likes = find_group_likes(a, dual.generators if v["not_transpose"] is None else None)
    return [replace(group_like_closure_check(a, likes), name=name)]


def _integrals(h: HopfData, v: dict) -> list:
    """One check per computed object; compute_modular's HopfError names the first that fails."""
    first = v["dual"].generators if v["not_transpose"] is None else None
    v["modular"] = compute_modular(h, first)
    return [ok(name) for name in _INTEGRALS]


def _dual_integrals(h: HopfData, v: dict) -> list:
    """The dual left integral, solved once: the kernel cross-check of
    compute_dual_integrals and dual-modular-element both read it.  hd's
    integral theory and the solve on h's generators cite the transposed checks."""
    v["dual_phi"] = left_integral(v["dual"], h.generators)
    v["psi_hat"] = compute_dual_integrals(h, v["modular"], v["dual"], v["dual_phi"])[0]
    return [ok("dual-integrals")]


def _dual_modular_element(h: HopfData, v: dict) -> list:
    v["delta_hat"] = modular_element(v["dual"], v["dual_phi"], h.generators)
    return [ok("dual-modular-element")]


def _positivity(h: HopfData, v: dict) -> list:
    """The verdict on phi's star-Gram and, once it is positive, psihat's star-Gram
    on the dual: each is built here once, for every later stage to read."""
    if h.star is not None:
        v["star_gram"] = star_gram(h, v["modular"].gram)
    v["positivity"] = verdict, _ = positivity_verdict(h, v["modular"].phi, v.get("star_gram"),
                                                      v["tolerance"])
    if verdict != "positive":
        return [skip("positivity", verdict)]
    if v.get("psi_hat") is not None:  # a star on h puts one on hd
        v["dual_star_gram"] = star_gram(v["dual"], gram_matrix(v["dual"], v["psi_hat"]))
    return [ok("positivity")]


def _gns(h: HopfData, v: dict) -> list:
    v["gns"] = gns_build(h, v["star_gram"])
    return [gns_representation_check(h, v["gns"])]


STAGES = (
    Stage(_AXIOMS, (), _axioms),
    Stage(("group-likes",), ("dual",),
          lambda h, v: _group_likes(h, v["dual"], "group-likes", v, "group_likes"),
          cites=("bialgebra", "antipode", "antipode-derived")),
    Stage(_INTEGRALS, ("dual",), _integrals),
    Stage(("modular-sandwich", "modular-conjugation", "modular-coproduct",
           "modular-commutation", "modular-scaling", "modular-flip"),
          ("modular",), lambda h, v: modular_identity_checks(h, v["modular"])),
    Stage(tuple("dual-" + name for name in _AXIOMS), ("dual",),
          lambda h, v: dual_axiom_checks(v["core"], v["dual"], v["not_transpose"])),
    Stage(("dual-group-likes",), ("dual",),
          lambda h, v: _group_likes(v["dual"], h, "dual-group-likes", v, "dual_likes"),
          cites=("dual-bialgebra", "dual-antipode", "dual-antipode-derived")),
    Stage(("pairing-actions",), ("core",),
          lambda h, v: [verify_pairing(v["not_transpose"], v["core"][1])], cites=_TRANSPOSED),
    Stage(("dual-integrals",), ("modular",), _dual_integrals, cites=_TRANSPOSED),
    Stage(("dual-modular-element",), ("dual_phi",), _dual_modular_element),
    Stage(_S4, ("modular", "delta_hat"), lambda h, v: [
        check(h, v["modular"], v["dual"], v["delta_hat"])
        for check in (dual_modular_links, radford_check)]),
    Stage(("radford-factorization",), (), lambda h, v: [radford_factorization()],
          cites=("coalgebra", "antipode", "antipode-derived", "modular-element",
                 "modular-conjugation", *_S4)),
    Stage(("s2-conjugation",), ("delta_hat",), lambda h, v: [counimodular_check(h, v["delta_hat"])],
          cites=("coalgebra", "antipode-derived", "modular-automorphism", *_S4)),
    Stage(("s2-half-power",), ("modular", "delta_hat", "group_likes", "dual_likes"),
          lambda h, v: [half_power_check(
              h, v["modular"], v["dual"], v["delta_hat"], v["group_likes"], v["dual_likes"],
              h.generators if v["passed"].issuperset(_S4) else None)],
          cites=("antipode", "dual-antipode")),
    Stage(("positivity",), ("modular",), _positivity),
    Stage(("kac-collapse",), ("modular", "delta_hat", "dual_star_gram"),
          lambda h, v: [kac_collapse_check(h, v["modular"], v["dual"], v["delta_hat"],
                                           v["psi_hat"], v["dual_star_gram"], v["tolerance"])],
          cites=("dual-star",), positive=True),
    # "gns" is the star-Gram that gns_build certified as an inner product
    Stage(("gns-representation",), ("star_gram",), _gns, cites=_ON_STAR, positive=True),
    Stage(("tomita-commutant",), ("gns",), lambda h, v: [tomita_check(h, v["gns"])],
          cites=_ON_STAR, positive=True),
    Stage(("operator-radford",), ("gns", "dual_star_gram"), lambda h, v: [operator_radford_check(
        h, v["dual"], v["modular"], v["gns"], gns_build(v["dual"], v["dual_star_gram"]))],
        cites=(*_ON_STAR, "dual-algebra", "dual-star", "kac-collapse", "tomita-commutant"),
        positive=True),
    Stage(("plancherel",), (), lambda h, v: [plancherel_check()], cites=("operator-radford",),
          positive=True),
    Stage(("biduality",), ("dual",), lambda h, v: [biduality_check(h, v["dual"])]),
)
