"""Check records shared by every verifier and the CLI report writer, the law
each check states (LAWS), and the one evaluator every exact law goes through."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

_AXIOM_LAWS = {
    "algebra": "(ab)c=a(bc), 1a=a=a1",
    "coalgebra": "(D(x)id)D=(id(x)D)D, (eps(x)id)D=id=(id(x)eps)D",
    "bialgebra": "D(ab)=D(a)D(b), D(1)=1(x)1, eps(ab)=eps(a)eps(b), eps(1)=1",
    "antipode": "m(S(x)id)D=eta.eps=m(id(x)S)D",
    "antipode-derived": "S(ab)=S(b)S(a), S(1)=1, eps.S=eps, D.S=flip(S(x)S)D",
    "star": "(a*)*=a, (ab)*=b*a*, D(a*)=D(a)*, eps(a*)=conj(eps(a)), S(a)*=Sinv(a*)",
}
_GROUP_LIKES_LAW = "G(A) is a group under multiplication"

# The law each check states, in plain ascii, keyed by check name in the order
# the pipeline prints them; a check on the dual states its base check's law.
LAWS = {
    **_AXIOM_LAWS,
    "group-likes": _GROUP_LIKES_LAW,
    "left-integral": "(id(x)phi)D(a)=phi(a)1, ker dim=1",
    "right-integral": "(psi(x)id)D(a)=psi(a)1, psi=phi.S",
    "modular-element": "(phi(x)id)D(a)=phi(a)delta, D(delta)=delta(x)delta",
    "modular-automorphism": "phi(ab)=phi(b sigma(a)), sigma=G^-1 G^T",
    "modular-automorphism-right": "psi(ab)=psi(b sigma'(a))",
    "scaling-constant": "phi.S^2=nu phi",
    "modular-sandwich": "sigma(S(sigma'(a)))=S(a)",
    "modular-conjugation": "delta sigma(a)=sigma'(a) delta",
    "modular-coproduct": "D(sigma(a))=(S^2(x)sigma)D(a)",
    "modular-commutation": "[S^2,sigma]=[S^2,sigma']=[sigma,sigma']=0",
    "modular-scaling": "sigma(delta)=sigma'(delta)=nu^-1 delta",
    "modular-flip": "S((id(x)phi)(D(a)(1(x)b)))=(id(x)phi)((1(x)a)D(b))",
    **{"dual-" + name: law for name, law in _AXIOM_LAWS.items()},
    "dual-group-likes": _GROUP_LIKES_LAW,
    "pairing-actions": ("<fg,a>=<f,a1><g,a2>, <f,ab>=<f1,a><f2,b>, <Sf,a>=<f,Sa>, "
                        "(fg)|>a=f|>(g|>a), a<|(fg)=(a<|f)<|g, (f|>a)<|g=f|>(a<|g), "
                        "<f|>a,g>=<a,gf>, <a<|f,g>=<a,fg>, span{f|>a}=A"),
    "dual-integrals": ("psihat(F(a))=eps(a) right invariant, phihat=psihat.S^ "
                       "left invariant, both match the kernel solver"),
    "dual-modular-element": "(phihat(x)id)D^(b)=phihat(b)deltahat, deltahat group-like",
    "dual-modular-links": ("eps(sigma(a))=<a,deltahat^-1>, sigma(a)=deltahat^-1|>S^2(a), "
                           "deltahat|>a=S^2(sigmainv(a)), a<|deltahat^-1=S^2(sigma'(a))"),
    "radford-s4": "S^4(a)=delta^-1(deltahat|>a<|deltahat^-1)delta",
    "radford-factorization": ("deltahat|>a=S^2(sigmainv(a)), a<|deltahat^-1=S^2(sigma'(a)), "
                              "sigma'(a)=delta sigma(a) delta^-1, S^2(delta)=delta, "
                              "composed=S^4"),
    "s2-conjugation": ("deltahat=1^ => phi(ab)=phi(b S^2(a)); "
                       "S^2(a)=r^-1 a r => phi(ab r)=phi(ba r)"),
    "s2-half-power": "S^2(a)=r^-1(rhat|>a<|rhat^-1)r with r^2=delta, rhat^2=deltahat",
    "positivity": "phi(a*a)>0 for a!=0",
    "kac-collapse": "phi>0 => S^2=id, sigma=id, nu=1, delta=1, deltahat=1^, psihat>0",
    "gns-representation": "rep(ab)=rep(a)rep(b), rep(a*)=rep(a)^H, rep(1)=1, T^2=P=1",
    "tomita-commutant": "J^2=1, J nabla J=nabla^-1, nabla=1, J rep(A) J = rep(A)'",
    "operator-radford": ("rep(delta) . Jrep(delta)J . Vrephat(deltahat)V^-1 . "
                         "VJhat rephat(deltahat) JhatV^-1 = P^(-2it) = 1"),
    "plancherel": "psihat(F(a)*F(a))=phi(a*a)",
    "biduality": "dual(dual(A))=A exactly",
}


@dataclass(frozen=True)
class Check:
    """Outcome of one named verification.

    identity is the law that was tested, LAWS[name], so it depends on the
    name only; detail is the failure location (first failing index tuple
    and the two sides) or the skip reason.  Skip reasons are single tokens
    so report lines stay machine-splittable.
    """

    name: str
    status: str
    detail: str = ""

    @property
    def identity(self) -> str:
        return LAWS[self.name]

    def passed(self) -> bool:
        return self.status == PASS

    def line(self) -> str:
        status = self.status if self.status != SKIP else f"SKIP:{self.detail or 'skipped'}"
        out = f"CHECK {self.name} {status} {self.identity}"
        if self.status == FAIL and self.detail:
            out += f" ! {self.detail}"
        return out


def ok(name: str) -> Check:
    return Check(name, PASS)


def fail(name: str, detail: str) -> Check:
    return Check(name, FAIL, detail)


def skip(name: str, reason: str) -> Check:
    return Check(name, SKIP, reason)


def first_failure(dim: int, *groups) -> str | None:
    """The detail of the first failing row, or None when every row holds.

    A group is (head, *rows) and a row is (template, lhs, rhs), where lhs
    and rhs are plain callables taking `arity` basis indices.  The head is
    the arity, 0 or 1, or (1, first) to run the index over the indices in
    `first` only (in the order given, which must be increasing) instead of
    all of range(dim).  Groups run in the order given.  Within a group the
    indices run in increasing order (arity 0 runs its rows once), and at
    each index every row is compared in turn, so a law with several parts
    reports the first failing part at the first failing index, never a
    later index of an earlier part.  The first mismatch returns
    template.format(*idx, slot=...), where slot is the smallest key at
    which two sparse tensors differ (both sides dicts with zero entries
    dropped, so a missing key is zero), and None otherwise.

    A law on index pairs or triples is stated at arity 1: one row per first
    index i, each side one flat sparse dict (linalg.sparse_sum) keyed by
    the whole index tuple after i: j alone when the value at (i, j) is a
    scalar, (j, n) for the coefficient of e_n in it, (j, k, n) for a triple
    law.  Then slot is the smallest key at which the sides differ, and
    since keys compare lexicographically, its leading parts are the first
    failing j, or (j, k), in the scan order of a scan over every tuple
    (template "... at ({0},{slot[0]})", or "({0},{slot[0]},{slot[1]})").
    A law with several parts at each pair puts the part right after j,
    (j, part, ...), with the parts ordered as the pair scan compared them.
    verify_algebra reads associativity this way, one row i at a time keyed
    by (j, k, n), summed straight from the stored table with no Elem built
    per tuple.

    Sides are callables over the HopfData primitives rather than terms of a
    small expression language: each verifier already names its maps, and a
    second language would be one more layer to read before the law.

    Bilinear laws on generators.  Let the unit law hold and let
    first = h.generators, the greedy generating set (see its docstring).
    Then associativity with its first slot over first (the group
    ((1, first), ...) of verify_algebra) decides associativity on all of A,
    and with the same first failing index tuple as the full scan:

      - Let X be the set of x with (xb)c = x(bc) for all b and c.  X is a
        subspace, X contains 1 by the unit law, and X is closed under
        products: ((xy)b)c = (x(yb))c = x((yb)c) = x(y(bc)) = (xy)(bc).
        So if every generator lies in X, X holds every left-nested
        monomial of generators, and X = A.
      - Let i* be the first slot of the full scan's first failure.  Every
        basis index below i* lies in X.  If i* were not a generator, then
        e_i* would lie in the span of 1 and the monomials of the
        generators below i* (that is how `generators` skips an index), so
        it would lie in X, a contradiction.  So i* is a generator, and the
        reduced scan, which visits the full scan's tuples in the same
        order, stops at the same tuple and the same row.

    Given associativity, the same argument holds for each law below when
    its arity-0 unit row runs (and passes) first, with X the set of x that
    satisfy the law for every b:

      - D(xb) = D(x)D(b) and eps(xb) = eps(x)eps(b), after D(1) = 1(x)1 and
        eps(1) = 1;
      - S(xb) = S(b)S(x), after S(1) = 1;
      - (xb)* = b*x*, after 1* = 1; X is still a subspace because * is
        conjugate-linear;
      - rho(xb) = rho(x)rho(b), after rho(1) = 1, for sigma and sigma'.

    A group with several rows uses the intersection of their sets X.

    Laws between verified algebra maps.  The argument needs only that X,
    the set of x that satisfy the law, is a subspace holding 1 and closed
    under products.  For each law below that holds once the checks it
    cites have passed in this run, so the law runs over h.generators,
    with no unit row of its own.  Where a cited check can FAIL and the law
    still runs (the first three), the law scans every index
    after such a FAIL; the others run only once their cites have passed.

      - m(S(x)id)D(a) = eps(a)1 = m(id(x)S)D(a), both convolution laws:
        algebra, bialgebra and antipode-derived (S(xy) = S(y)S(x), D and
        eps multiplicative).
      - D(S(a)) = flip(S(x)S)D(a): algebra and bialgebra, after S(1) = 1
        and S(ab) = S(b)S(a), earlier rows of antipode-derived.
      - D(a*) = D(a)* and eps(a*) = conj(eps(a)): algebra and bialgebra,
        after 1* = 1 and (ab)* = b*a*, earlier rows of star; for
        dual-star, the transposition certificate.
      - sigma(S(sigma'(a))) = S(a) and delta sigma(a) = sigma'(a) delta:
        the axiom suite, and sigma and sigma' verified automorphisms
        (compute_modular).
      - psihat a = eps(a) psihat and a phihat = eps(a) phihat, the dual
        integrals' invariance rows: the axiom suite (A associative, eps
        multiplicative).

    The laws below read the cached S^2, S^4 or sigma^-1 as stored
    matrices, so a defect in one column shows only in that column unless
    those are certified: integrals.derived_failure checks, column by
    column, that they equal S.S, S^2.S^2 and sigma's inverse.  Then they
    are unital algebra maps (S is a unital anti-homomorphism by
    antipode-derived), and each law below runs over h.generators; when the
    certificate fails, it scans every index.  Each runs only once the axiom
    suite has passed, with sigma and sigma' verified automorphisms and
    delta a verified group-like (compute_modular).  Those that act by
    deltahat or by a dual group-like rhat run only once the transposition
    certificate holds and it is a verified group-like of hd, so it and its
    inverse are characters of A, and f|>. and .<|f are algebra maps for a
    character f (D multiplicative).

      - S^4(a) = delta^-1(deltahat|>a<|deltahat^-1)delta, radford-s4:
        conjugation by the group-like delta is an algebra map.
      - dual-modular-links: the counit link equates two characters,
        eps.sigma and deltahat^-1; the sigma, left and right action links
        equate composites of sigma, sigma^-1, sigma', S^2 and the actions.
      - D(sigma(a)) = (S^2(x)sigma)D(a), modular-coproduct: both sides are
        algebra maps into A(x)A.
      - [S^2,sigma] = [S^2,sigma'] = [sigma,sigma'] = 0,
        modular-commutation: each commutator compares two composites
        column by column, one group per commutator, in that order.
      - S^2(a) = r^-1(rhat|>a<|rhat^-1)r, s2-half-power: the right side is
        an algebra map for characters rhat and group-likes r.

    Laws decided on generators of H*, located on every index.  Paired with
    f in H*, (psi(x)id)D(a) = psi(a)1 at every a reads psi f = f(1) psi
    (product (fg)(a) = f(a1) g(a2)), and (phi(x)id)D(a) = phi(a)delta
    reads phi f = f(delta) phi.  X = {f : psi f = f(1) psi} is a subspace
    holding eps (the counit law) and closed under products:
    psi(fg) = (psi f)g = f(1) psi g = (fg)(1) psi, by coassociativity and
    D(1) = 1(x)1.  The delta version holds eps since eps(delta) = 1 and is
    closed since (fg)(delta) = f(delta)g(delta), which needs
    D(delta) = delta(x)delta.  So one row per generator index j of H*,
    psi e_j^ against e_j^(1) psi and phi e_j^ against delta_j phi, decides
    each law (integrals.right_integral, integrals.modular_element): on A
    once `coalgebra`, `bialgebra` and the transposition certificate hold,
    on the dual once the transposed checks have passed (pipeline.STAGES).
    Neither row names the first failing a, so a failing row hands over to
    the scan of every index (decide_then_locate).  dual-star and biduality
    are decided the same way by a certificate, the star transpose
    duality.star_failure next to the transposition certificate; their
    proofs are in duality.dual_axiom_checks and duality.biduality_check.

    modular-flip, a pair law, stays on every index.  So do the unit,
    counit and coassociativity rows, and star's involution and exchange
    rows, which run before the rows that would cite them or read S^-1.
    """
    for head, *rows in groups:
        if head == 0:
            indices = [()]
        else:
            first = head[1] if isinstance(head, tuple) else None
            indices = [(i,) for i in (range(dim) if first is None else first)]
        for idx in indices:
            for template, lhs, rhs in rows:
                left, right = lhs(*idx), rhs(*idx)
                if left != right:
                    slot = None
                    if isinstance(left, dict) and isinstance(right, dict):
                        slot = min(k for k in left.keys() | right.keys()
                                   if left.get(k) != right.get(k))
                    return template.format(*idx, slot=slot)
    return None


def decide_then_locate(decided: bool, held, locate: Callable):
    """held when decided, else locate().

    decided is a cheap, exact decision that the law holds: its rows on
    generators (first_failure), or a certificate that the dual's star is
    the one Van Daele's construction gives (duality.star_failure).  held
    is what the law returns when it holds.  locate runs the law as it ran
    before any decision: the scan of every index, or the rebuild, that
    names the first failure.  So a decision only ever skips work on a law
    that holds; every verdict it does not prove, and every FAIL detail,
    exception and transcript, is locate's, byte for byte."""
    return held if decided else locate()


def law_check(name: str, dim: int, *groups) -> Check:
    """PASS, or FAIL with the first failing row's detail; see first_failure."""
    detail = first_failure(dim, *groups)
    return ok(name) if detail is None else fail(name, detail)
