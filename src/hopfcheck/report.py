"""Check records shared by every verifier and the CLI report writer, the law
each check states (LAWS), and the one evaluator every exact law goes through."""

from __future__ import annotations

from dataclasses import dataclass


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
    index i, each side a sparse dict keyed by the second index j, or by
    (j, k) for a triple law (values compared whole, so themselves sparse
    with zeros dropped).  Then slot is the smallest failing key, and since
    keys compare lexicographically, the detail names the same first failing
    tuple, in the same scan order, as a scan over every tuple would
    (template "... at ({0},{slot})", or "({0},{slot[0]},{slot[1]})").  A
    law with several parts at each pair keys its dict by (j, part), with
    the parts ordered as the pair scan compared them.  verify_algebra reads
    associativity this way, one row i at a time keyed by (j, k), summed
    straight from the stored table with no Elem built per tuple.

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
    still runs (the first three and the last), the law scans every index
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
      - S^2(a) = r^-1(rhat|>a<|rhat^-1)r, s2-half-power: dual-modular-links
        and radford-s4 (both PASS).  The right side is an algebra map for
        characters rhat and group-likes r, and dual-modular-links' sigma
        link, compared on every column, certifies the cached S^2 as
        (deltahat|> .) . sigma, a composite of verified maps.

    radford-s4, dual-modular-links and modular-coproduct stay on every
    index: they read the cached S^2, S^4 or sigma^-1 as stored matrices,
    and nothing before them certifies those as algebra maps, so a defect
    in one column shows only in that column.  So do modular-flip, a pair
    law; the unit, counit and coassociativity rows; star's involution and
    exchange rows, which run before the rows that would cite them or read
    S^-1; and the right-integral and modular-element rows.
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


def law_check(name: str, dim: int, *groups) -> Check:
    """PASS, or FAIL with the first failing row's detail; see first_failure."""
    detail = first_failure(dim, *groups)
    return ok(name) if detail is None else fail(name, detail)
