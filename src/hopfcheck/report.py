"""Check records shared by every verifier and the CLI report writer, and
the one evaluator every exact law goes through."""

from __future__ import annotations

from dataclasses import dataclass


PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@dataclass(frozen=True)
class Check:
    """Outcome of one named verification.

    identity is the law that was tested, rendered in plain ascii; detail is
    the failure location (first failing index tuple and the two sides) or
    the skip reason.  Skip reasons are single tokens so report lines stay
    machine-splittable.
    """

    name: str
    status: str
    identity: str = ""
    detail: str = ""

    def passed(self) -> bool:
        return self.status == PASS

    def line(self) -> str:
        status = self.status if self.status != SKIP else f"SKIP:{self.detail or 'skipped'}"
        out = f"CHECK {self.name} {status}"
        if self.identity:
            out += f" {self.identity}"
        if self.status == FAIL and self.detail:
            out += f" ! {self.detail}"
        return out


def ok(name: str, identity: str, detail: str = "") -> Check:
    return Check(name, PASS, identity, detail)


def fail(name: str, identity: str, detail: str) -> Check:
    return Check(name, FAIL, identity, detail)


def skip(name: str, identity: str, reason: str) -> Check:
    return Check(name, SKIP, identity, reason)


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


def law_check(name: str, identity: str, dim: int, *groups) -> Check:
    """PASS, or FAIL with the first failing row's detail; see first_failure."""
    detail = first_failure(dim, *groups)
    return ok(name, identity) if detail is None else fail(name, identity, detail)
