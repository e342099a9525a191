"""Radford's formula for the fourth power of the antipode, and the forms S^2
takes when the modular elements have square roots.

The headline identity conjugates by the modular group-like on the inside
and by the dual modular group-like acting through the coproduct slots on
the outside; radford-s4 compares it on the basis.  The paper's route
through the modular automorphisms, and the inner form S^2 takes when the
dual modular element is trivial, follow from laws that other checks
compare, so those checks print their PASS by proof.  Each law and the
check that decides it:

  law                                               decided by
  S^4(a) = delta^-1(deltahat|>a<|deltahat^-1)delta  radford-s4
  deltahat|>a = S^2(sigma^-1(a))                    dual-modular-links, left action link
  a<|deltahat^-1 = S^2(sigma'(a))                   dual-modular-links, right action link
  sigma'(a) = delta sigma(a) delta^-1               modular-conjugation and antipode
  S^2(delta) = delta                                modular-element and antipode-derived
  composed factors = S^4                            the two action links and radford-s4
  deltahat = 1^                                     s2-conjugation, its one comparison
  phi(ab) = phi(b S^2(a)) if deltahat = 1^          sigma link and modular-automorphism
  S^4(a) = delta^-1 a delta if deltahat = 1^        radford-s4
  phi(ab r) = phi(ba r) if S^2 = Ad(r^-1)           the twist above
  S^2(a) = r^-1(rhat|>a<|rhat^-1)r                  s2-half-power
"""

from __future__ import annotations

from .errors import NumericalFailure
from .hopf import HopfData, act_left, act_right
from .integrals import ModularData
from .linalg import Elem, Mat
from .report import Check, fail, first_failure, law_check, ok, skip


def _matrix_order(m: Mat, cap: int, what: str) -> int:
    acc = m
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc.mul(m)
    raise NumericalFailure(f"order of {what} exceeds {cap}")


def s_order(h: HopfData) -> int:
    """Smallest k with S^k = id; finite whenever the data is a Hopf algebra."""
    return _matrix_order(h.antipode, 32 * h.dim * h.dim, f"{h.name} antipode")


def s2_order(h: HopfData) -> int:
    """Smallest k with (S^2)^k = id."""
    return _matrix_order(h.s2, 16 * h.dim * h.dim, f"{h.name} S^2")


def _sandwich(h: HopfData, left: Elem, right: Elem, a: Elem, dual_left: Elem,
              dual_right: Elem) -> Elem:
    """left (dual_left |> a <| dual_right) right."""
    return h.mul_many(left, act_left(h, dual_left, act_right(h, a, dual_right)), right)


def radford_check(h: HopfData, md: ModularData, hd: HopfData,
                  delta_hat: Elem) -> Check:
    """S^4(a) = delta^-1 (deltahat |> a <| deltahat^-1) delta on the basis."""
    delta_hat_inv = hd.antipode_of(delta_hat)
    return law_check("radford-s4", h.dim, (1, (
        "fails at basis {0}", h.s4.images.__getitem__,
        lambda i: _sandwich(h, md.delta_inv, md.delta, h.basis(i), delta_hat, delta_hat_inv))))


def radford_factorization() -> Check:
    """Each factor of the fourth-power identity, then their composition:
    each is a law another check has compared, so this compares nothing.
    It cites coalgebra, antipode, antipode-derived, modular-element,
    modular-conjugation, dual-modular-links and radford-s4.

      - The left and right factors are dual-modular-links' left and right
        action links: the same two comparisons on the basis.
      - delta is group-like (modular-element) and nonzero, so eps(delta) = 1
        by the counit law and delta^-1 = S(delta) by `antipode`; so
        sigma'(a) = delta sigma(a) delta^-1 is modular-conjugation,
        delta sigma(a) = sigma'(a) delta, times delta^-1 on the right.
      - S(delta) is group-like by `antipode-derived`, so its inverse is
        S^2(delta), as above, and delta: S^2(delta) = delta.
      - Both links hold on the basis, so on every element.  At e_i the
        composed map delta^-1 S^2(sigma^-1(S^2(sigma'(e_i)))) delta is then
        delta^-1 (deltahat|>(e_i<|deltahat^-1)) delta, radford-s4's right
        side, which radford-s4 equates with S^4(e_i).
    """
    return ok("radford-factorization")


def counimodular_check(h: HopfData, delta_hat: Elem) -> Check:
    """When the dual modular element is trivial, S^2 is inner-modular:
    phi(ab) = phi(b S^2(a)), and any r with S^2(a) = r^-1 a r for every a
    makes phi( . r) a trace.  A root r of delta need not be one: in C[S3]
    every transposition s has s^2 = 1 = delta and S^2 = id, yet
    s^-1 c s = c^2 for a 3-cycle c.  deltahat = eps, the unit of the
    dual, is the one comparison; the rest follows from the checks it cites:
    coalgebra, antipode-derived, modular-automorphism, dual-modular-links
    and radford-s4.

      - deltahat^-1 = eps.S = eps by `antipode-derived`, and
        eps|>x = x = x<|eps by the counit law.
      - So the sigma link, sigma(a) = deltahat^-1|>S^2(a), says sigma = S^2.
        As sigma = G^-1 G^T (modular-automorphism), G[i][j] = phi(e_i e_j),
        that is G S^2 = G^T, whose entry (j, i) is the twist
        phi(e_j S^2(e_i)) = phi(e_i e_j); it extends by bilinearity.
      - radford-s4's row reads S^4(a) = delta^-1 a delta, whether or not a
        root r implements S^2.
      - If S^2(a) = r^-1 a r for every a, the twist at (a, b r) gives
        phi(ab r) = phi(b r r^-1 a r) = phi(ba r), the trace clause.
    """
    if delta_hat != h.counit:
        return skip("s2-conjugation", "not-counimodular")
    return ok("s2-conjugation")


def group_like_roots(h: HopfData, likes: list, target: Elem) -> list:
    """All group-likes squaring to the target, in the canonical ordering.

    For a group-like g, S(g) g = g S(g) = eps(g) 1 = 1 by `antipode`, so
    g^2 = target exactly when g = target S(g): each group-like costs one
    product by the target, a group-like too, in place of its square.  The
    s2-half-power stage cites `antipode` and `dual-antipode` for the two
    lists it filters, as the group-like stages that commit them do."""
    return [g for g in likes if g == h.mul(target, h.antipode_of(g))]


def half_power_check(h: HopfData, md: ModularData, hd: HopfData, delta_hat: Elem,
                     likes: list, dual_likes: list, first: tuple | None = None) -> Check:
    """With group-like square roots on both sides the sandwich halves:
    S^2(a) = r^-1 (rhat |> a <| rhat^-1) r, compared for a = e_i, i in
    `first` (every index when None).

    The right side is an algebra map: rhat and rhat^-1 are characters of A,
    so rhat |> . and . <| rhat^-1 are (D multiplicative), and r^-1 = S(r).
    The cached S^2 is one once dual-modular-links' sigma link has held on
    every column: S^2(a) = deltahat |> sigma(a), with sigma a verified
    automorphism.  So run_pipeline passes h.generators once dual-modular-links
    and radford-s4 have printed PASS, and the generators decide every pair
    (report.first_failure)."""
    roots = group_like_roots(h, likes, md.delta)
    dual_roots = group_like_roots(hd, dual_likes, delta_hat)
    if not roots or not dual_roots:
        return skip("s2-half-power", "no-group-like-square-root")

    def works(root, dual_root):
        root_inv, dual_root_inv = h.antipode_of(root), hd.antipode_of(dual_root)
        return first_failure(h.dim, ((1, first), (
            "", h.s2.images.__getitem__,
            lambda i: _sandwich(h, root_inv, root, h.basis(i), dual_root, dual_root_inv)))) is None

    # the sandwich needs a compatible pair of roots, so scan them all
    if any(works(r, rh) for r in roots for rh in dual_roots):
        return ok("s2-half-power")
    return fail("s2-half-power", "square roots exist but no pair halves S^4")
