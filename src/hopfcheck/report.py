"""Check records shared by every verifier and the CLI report writer, and
the one evaluator every exact law goes through."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


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

    A group is (arity, *rows) and a row is (template, lhs, rhs), where lhs
    and rhs are plain callables taking `arity` basis indices.  Groups run in
    the order given.  Within a group the index tuples run over
    range(dim)**arity in lexicographic order (arity 0 runs its rows once),
    and at each tuple every row is compared in turn, so a law with several parts reports the first failing
    part at the first failing index (the coproduct before the counit at each
    pair, say), never a later index of an earlier part.  The first mismatch
    returns template.format(*idx, slot=...), where slot is the smallest key
    at which two sparse tensors differ (both sides dicts with zero entries
    dropped, so a missing key is zero), and None otherwise.

    Sides are callables over the HopfData primitives rather than terms of a
    small expression language: each verifier already names its maps, and a
    second language would be one more layer to read before the law.
    """
    for arity, *rows in groups:
        for idx in product(range(dim), repeat=arity):
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
