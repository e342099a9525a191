"""The fourth power of the antipode, written two independent ways.

The headline identity conjugates by the modular group-like on the inside
and by the dual modular group-like acting through the coproduct slots on
the outside.  The factorisation route assembles the same map from the
modular automorphisms, checking each intermediate factor on its own so a
failure points at the broken step rather than the composite.
"""

from __future__ import annotations

from .errors import NumericalFailure
from .hopf import HopfData, act_left, act_right
from .integrals import ModularData, gram_matrix
from .linalg import Elem, Mat, pairing
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


def radford_factorization(h: HopfData, md: ModularData, hd: HopfData,
                          delta_hat: Elem) -> Check:
    """Each factor of the fourth-power identity separately, then their
    composition, so a failure names the broken step: the two dual-action
    halves of S^2, the inner relation between the two automorphisms,
    S^2(delta)=delta, and finally the assembled sandwich."""
    b, s2, delta_hat_inv = h.basis, h.s2, hd.antipode_of(delta_hat)
    sigma, sigma_prime, sigma_inv = md.sigma.images, md.sigma_prime.images, md.sigma_inv.images

    def composed(i):
        path = s2.apply(md.sigma_inv.apply(s2.apply(sigma_prime[i])))
        return h.mul_many(md.delta_inv, path, md.delta)

    return law_check(
        "radford-factorization", h.dim,
        (0, ("S^2 moves the modular element", lambda: s2.apply(md.delta), lambda: md.delta)),
        (1, ("left factor fails at basis {0}", lambda i: act_left(h, delta_hat, b(i)),
             lambda i: s2.apply(sigma_inv[i])),
            ("right factor fails at basis {0}", lambda i: act_right(h, b(i), delta_hat_inv),
             lambda i: s2.apply(sigma_prime[i])),
            ("inner relation fails at basis {0}", sigma_prime.__getitem__,
             lambda i: h.mul_many(md.delta, sigma[i], md.delta_inv)),
            ("composition fails at basis {0}", composed, h.s4.images.__getitem__)))


def group_like_roots(h: HopfData, likes: list, target: Elem) -> list:
    """All group-likes squaring to the target, in the canonical ordering."""
    return [g for g in likes if h.mul(g, g) == target]


def counimodular_check(h: HopfData, md: ModularData, delta_hat: Elem, likes: list) -> Check:
    """When the dual modular element is trivial, S^2 itself is inner-modular:
    phi(ab) = phi(b S^2(a)); with a group-like square root r of delta it is
    plain conjugation S^2(a) = r^-1 a r and phi( . r) is a trace.

    Both bilinear laws are identities between stored matrices, read one row
    i at a time with the slot j as the dict key, so a detail names the
    first failing pair (i, j) of the d^2 scan.  With G = md.gram,
    phi(e_j S^2(e_i)) = (G S^2)[j][i], so the twist is G S^2 = G^T: column i
    of G S^2, G applied to S^2(e_i), against row i of G.  The trace property
    is the symmetry of the Gram of phi_r = phi( . r)."""
    if delta_hat != h.counit:
        return skip("s2-conjugation", "not-counimodular")
    b, phi, s2 = h.basis, md.phi, h.s2.images
    bad = first_failure(h.dim, (1, ("phi twist fails at ({0},{slot})",
                                    md.gram.row_dicts().__getitem__,
                                    lambda i: dict(md.gram.apply(s2[i]).support))))
    if bad is not None:
        return fail("s2-conjugation", bad)

    def conjugates_to_s2(r):
        r_inv = h.antipode_of(r)
        return first_failure(h.dim, (1, ("", s2.__getitem__,
                                         lambda i: h.mul_many(r_inv, b(i), r)))) is None

    root = next((r for r in group_like_roots(h, likes, md.delta) if conjugates_to_s2(r)), None)
    if root is None:
        # no root of delta implements S^2; the square of the statement still holds
        bad = first_failure(h.dim, (1, ("S^4 inner form fails at basis {0}",
                                        h.s4.images.__getitem__,
                                        lambda i: h.mul_many(md.delta_inv, b(i), md.delta))))
        if bad is not None:
            return fail("s2-conjugation", bad)
        return ok("s2-conjugation")
    phi_r = Elem.of(h.dim, ((k, pairing(phi, h.mul(b(k), root))) for k in range(h.dim)))
    gram_r = gram_matrix(h, phi_r)
    return law_check("s2-conjugation", h.dim,
                     (1, ("trace property fails at ({0},{slot})", gram_r.row_dicts().__getitem__,
                          lambda i: dict(gram_r.images[i].support))))


def half_power_check(h: HopfData, md: ModularData, hd: HopfData, delta_hat: Elem,
                     likes: list, dual_likes: list) -> Check:
    """With group-like square roots on both sides the sandwich halves:
    S^2(a) = r^-1 (rhat |> a <| rhat^-1) r."""
    roots = group_like_roots(h, likes, md.delta)
    dual_roots = group_like_roots(hd, dual_likes, delta_hat)
    if not roots or not dual_roots:
        return skip("s2-half-power", "no-group-like-square-root")

    def works(root, dual_root):
        root_inv, dual_root_inv = h.antipode_of(root), hd.antipode_of(dual_root)
        return first_failure(h.dim, (1, (
            "", h.s2.images.__getitem__,
            lambda i: _sandwich(h, root_inv, root, h.basis(i), dual_root, dual_root_inv)))) is None

    # the sandwich needs a compatible pair of roots, so scan them all
    if any(works(r, rh) for r in roots for rh in dual_roots):
        return ok("s2-half-power")
    return fail("s2-half-power", "square roots exist but no pair halves S^4")
