"""Integrals on the dual side, modular element, modular automorphisms.

A left integral here is a functional phi with (id (x) phi) D(a) = phi(a) 1
for every a; the right integral is psi = phi . S.  Both are unique up to a
scalar in finite dimension, and the code normalises the first nonzero
coordinate of phi to 1 so every downstream quantity is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import Cyc
from .errors import (HopfError, InconsistentSystem, NoIntegral, NonUniqueIntegral,
                     NotAutomorphism, NotFaithful, NotGroupLike, NotProportional,
                     RightInvarianceFailed, SingularMatrix)
from .hopf import HopfData, act_right, image_rows, is_group_like, product_rows
from .linalg import Elem, Mat, RowStore, mat_inverse, null_basis, pairing, scale, sparse_sum
from .report import first_failure, law_check


def left_integral(h: HopfData, first: tuple | None = None) -> Elem:
    """Solve (id (x) phi) D(a) = phi(a) 1 coordinate-wise; the kernel must be a line.

    Row (a, i) is coordinate i of the law at e_a, that is
    (e_i^ phi)(e_a) = epsh(e_i^) phi(e_a) in the dual H* (product
    (f g)(a) = f(a1) g(a2), unit eps, counit epsh(f) = f(1)).  Each row is
    summed into one sparse dict and fed straight to a linalg.RowStore, whose
    null basis is the kernel.  The rows run over i in `first` only; None is
    every basis index.

    Generators of H* suffice.  X = {f : f phi = epsh(f) phi} is a subspace.
    It contains 1^ = eps, by the counit law and eps(1) = 1.  If f, g lie in
    X, then (fg) phi = f (epsh(g) phi) = epsh(g) epsh(f) phi = epsh(fg) phi,
    using that H* is associative (coassociativity) and epsh is
    multiplicative (D(1) = 1 (x) 1).  So once every generator of H* lies in
    X, X = H* and phi is a left integral: with first = the dual's
    generators (dual_hopf(h).generators), the kernel is exactly that of the
    full d^2 x d system, and so are phi and the NoIntegral and
    NonUniqueIntegral verdicts.  Pass it only after `coalgebra` and
    `bialgebra` of h have passed; the generator certificate of H* also
    reads its unit law, which is the counit law of h.  C[Z1] has no
    generators: the store gets no row, and its kernel is the whole line.
    """
    d, rows = h.dim, h.comult.rows
    minus_unit = {i: -c for i, c in h.unit.support}
    slots = range(d) if first is None else first
    basis = null_basis(RowStore(
        sparse_sum(rows[a].get(i, ()) + (((a, minus_unit[i]),) if i in minus_unit else ()))
        for a in range(d) for i in slots), d)
    if not basis:
        raise NoIntegral(f"{h.name}: invariance system has no kernel")
    if len(basis) > 1:
        raise NonUniqueIntegral(f"{h.name}: invariance kernel has dimension {len(basis)}")
    return scale(basis[0].support[0][1].inverse(), basis[0])


def right_integral(h: HopfData, phi: Elem) -> Elem:
    """psi = phi . S, then confirm (psi (x) id) D(a) = psi(a) 1 on the basis."""
    psi = Elem.of(h.dim, ((i, pairing(phi, x)) for i, x in enumerate(h.s_basis)))
    b = h.basis
    bad = first_failure(h.dim, (1, ("{0}", lambda a: act_right(h, b(a), psi),
                                    lambda a: scale(pairing(psi, b(a)), h.unit))))
    if bad is not None:
        raise RightInvarianceFailed(f"{h.name}: phi.S is not right invariant at basis {bad}")
    return psi


def modular_element(h: HopfData, phi: Elem, first: tuple | None = None) -> Elem:
    """The group-like with (phi (x) id) D(a) = phi(a) delta for every a.
    first is handed to is_group_like: the generators of the dual, or None."""
    delta = None
    for a in range(h.dim):
        v = act_right(h, h.basis(a), phi)
        fa = pairing(phi, h.basis(a))
        if fa.is_zero():
            if not v.is_zero():
                raise InconsistentSystem(
                    f"{h.name}: row {a} forces phi(a) delta != 0 with phi(a) = 0")
        elif delta is None:
            delta = scale(fa.inverse(), v)
        elif v != scale(fa, delta):
            raise InconsistentSystem(f"{h.name}: rows disagree on the modular element")
    if delta is None:
        raise InconsistentSystem(f"{h.name}: zero integral")
    if not is_group_like(h, delta, first):
        raise NotGroupLike(f"{h.name}: modular element is not group-like")
    # phi . S = phi( . delta) pins the convention down; check it on the basis
    bad = first_failure(h.dim, (1, ("{0}", lambda i: pairing(phi, h.s_basis[i]),
                                    lambda i: pairing(phi, h.mul(h.basis(i), delta)))))
    if bad is not None:
        raise InconsistentSystem(f"{h.name}: phi(S(a)) != phi(a delta) at basis {bad}")
    return delta


def gram_matrix(h: HopfData, f: Elem) -> Mat:
    """G[i][j] = f(e_i e_j) = sum_k mult(i, j, k) f_k, the bilinear form of
    a functional, summed in one pass over the stored nonzeros of mult."""
    f_at = dict(f.support)
    return Mat.of(h.dim, h.dim, sparse_sum(((i, j), c * f_at[k])
                                           for i, row in enumerate(h.mult.rows)
                                           for j, terms in row.items()
                                           for k, c in terms if k in f_at))


def star_gram(h: HopfData, gram: Mat) -> Mat:
    """B[i][j] = f(e_i^* e_j), the sesquilinear form of a functional f,
    from gram = gram_matrix(h, f).  e_i^* is star.images[i], so
    f(e_i^* e_j) = sum_k star(k, i) f(e_k e_j) and B = Star^T G.  h must
    carry a star."""
    return h.star.transpose().mul(gram)


def faithful_gram(h: HopfData, f: Elem, label: str = "sigma") -> tuple:
    """(G, G^-1) for the bilinear Gram G of f; NotFaithful if G is singular."""
    g = gram_matrix(h, f)
    try:
        return g, mat_inverse(g)
    except SingularMatrix:
        raise NotFaithful(f"{h.name}: bilinear form of {label} source functional is degenerate")


def modular_automorphism(h: HopfData, f: Elem, label: str = "sigma",
                         gram: tuple | None = None) -> Mat:
    """The algebra automorphism with f(ab) = f(b rho(a)), as a matrix.

    Exists iff the bilinear Gram of f is invertible, and then rho equals
    G^-1 G^T.  gram, when given, is faithful_gram(h, f, label), so a caller
    that keeps G^-1 inverts G once.  Raises NotFaithful for a singular Gram
    and NotAutomorphism if the result fails to be a unital multiplicative
    bijection.  Multiplicativity rho(ab) = rho(a)rho(b) is checked for a in
    h.generators only, which needs h associative with a unit (the theorem in
    report.first_failure), one row per a: {(b, n): rho(a b)[n]} against
    {(b, n): (rho(a) rho(b))[n]}, both read off the stored product table.
    """
    g, ginv = gram if gram is not None else faithful_gram(h, f, label)
    rho = ginv.mul(g.transpose())
    images = rho.images
    bad = first_failure(
        h.dim, (0, ("does not fix the unit", lambda: rho.apply(h.unit), lambda: h.unit)),
        ((1, h.generators), ("is not multiplicative at ({0},{slot[0]})",
                             lambda i: image_rows(h, i, images),
                             lambda i: product_rows(h, ((j, images[i], images[j])
                                                        for j in range(h.dim))))))
    if bad is not None:
        raise NotAutomorphism(f"{h.name}: {label} {bad}")
    return rho


def scaling_constant(h: HopfData, phi: Elem) -> Cyc:
    """nu with phi . S^2 = nu phi."""
    comp = Elem.of(h.dim, ((i, pairing(phi, x)) for i, x in enumerate(h.s2.images)))
    lead, c = phi.support[0]
    nu = pairing(comp, h.basis(lead)) / c
    if nu.is_zero() or comp != scale(nu, phi):  # modular-scaling divides by nu
        raise NotProportional(f"{h.name}: phi.S^2 is not a nonzero multiple of phi")
    return nu


@dataclass
class ModularData:
    """Everything the duality and operator layers reuse."""
    phi: Elem
    psi: Elem
    delta: Elem
    delta_inv: Elem
    sigma: Mat
    sigma_prime: Mat
    nu: Cyc
    gram: Mat       # G[i][j] = phi(e_i e_j)
    gram_inv: Mat

    @cached_property
    def sigma_inv(self) -> Mat:
        """sigma = G^-1 G^T, so sigma^-1 = (G^-1)^T G, with no inverse of its own."""
        return self.gram_inv.transpose().mul(self.gram)


def compute_modular(h: HopfData, first: tuple | None = None) -> ModularData:
    """All modular data; a HopfError raised on the way names its integral
    check in .stage.  The Gram of phi is inverted once, for sigma and for
    gram_inv.  h must pass `algebra` first (run_pipeline runs this only
    after the whole axiom suite passed): sigma and sigma' are checked
    multiplicative on generators only.  first is handed to left_integral
    and modular_element: the dual's generators (dual_hopf(h).generators),
    once `coalgebra` and `bialgebra` have passed too, or None for the full
    invariance system and group-like scan."""
    stage = "left-integral"
    try:
        phi = left_integral(h, first)
        stage = "right-integral"
        psi = right_integral(h, phi)
        stage = "modular-element"
        delta = modular_element(h, phi, first)
        stage = "modular-automorphism"
        gram, gram_inv = faithful_gram(h, phi, "sigma")
        sigma = modular_automorphism(h, phi, "sigma", (gram, gram_inv))
        stage = "modular-automorphism-right"
        sigma_prime = modular_automorphism(h, psi, "sigma'")
        stage = "scaling-constant"
        nu = scaling_constant(h, phi)
    except HopfError as e:
        e.stage = stage
        raise
    return ModularData(phi=phi, psi=psi, delta=delta,
                       delta_inv=h.antipode_of(delta),  # inverse of a group-like
                       sigma=sigma, sigma_prime=sigma_prime, nu=nu,
                       gram=gram, gram_inv=gram_inv)


# ---------------------------------------------------------------------------
# the compatibility identities tying the modular data together


def modular_identity_checks(h: HopfData, md: ModularData) -> list:
    """Six exact identities; each failure reports its own location.

    modular-sandwich and modular-conjugation run over h.generators only.
    Each equates two algebra maps or two anti-maps built from S, sigma,
    sigma' and delta, which report.first_failure reduces to the generators
    once the axiom suite has passed and sigma and sigma' are verified
    automorphisms: md must be compute_modular's, which run_pipeline
    computes only after the axiom suite has passed.

    modular-flip is read off stored matrices, one row x at a time keyed by
    (y, p), the coefficient of e_p in the value at the pair (x, y).  With
    C_x[p][q] the coefficient of e_p (x) e_q in D(e_x) and G = md.gram,
    (id(x)phi)(D(e_x)(1(x)e_y)) = sum_pq C_x[p][q] G[q][y] e_p
    is column y of C_x G, so the left side is S applied to the columns of
    C_x G; the right side (id(x)phi)((1(x)e_x)D(e_y)) pairs the coproduct
    of e_y with row x of G."""
    s, dim, comult, first = h.s_basis, h.dim, h.comult.rows, h.generators
    sigma, sigma_prime, s2 = md.sigma.images, md.sigma_prime.images, h.s2.images
    want = scale(md.nu.inverse(), md.delta)
    grows = md.gram.row_dicts()  # grows[x] = {y: phi(e_x e_y)}

    def flip_lhs(x):  # {(y, n): S(column y of C_x G)[n]}
        cxg = sparse_sum(((y, p), c * g) for p, terms in comult[x].items()
                         for q, c in terms for y, g in grows[q].items())
        return sparse_sum(((y, n), v * w) for (y, p), v in cxg.items()
                          for n, w in s[p].support)

    def flip_rhs(x):  # {(y, p): sum_q D(e_y)[p][q] G[x][q]}
        gx = grows[x]
        return sparse_sum(((y, p), c * gx[q]) for y, row in enumerate(comult)
                          for p, terms in row.items() for q, c in terms if q in gx)

    def commutes(x, y):
        return lambda: x.mul(y), lambda: y.mul(x)

    return [
        law_check("modular-sandwich", dim,
                  ((1, first), ("fails at basis {0}",
                                lambda i: md.sigma.apply(h.antipode_of(sigma_prime[i])),
                                s.__getitem__))),
        law_check("modular-conjugation", dim,
                  ((1, first), ("fails at basis {0}", lambda i: h.mul(md.delta, sigma[i]),
                                lambda i: h.mul(sigma_prime[i], md.delta)))),
        law_check("modular-coproduct", dim,
                  (1, ("fails at basis {0}", lambda k: h.coprod(sigma[k]),
                       lambda k: h.coprod_map(k, s2, sigma)))),
        law_check("modular-commutation", dim,
                  (0, ("[S^2,sigma] != 0", *commutes(h.s2, md.sigma)),
                      ("[S^2,sigma'] != 0", *commutes(h.s2, md.sigma_prime)),
                      ("[sigma,sigma'] != 0", *commutes(md.sigma, md.sigma_prime)))),
        law_check("modular-scaling", dim,
                  (0, ("modular element scales wrongly",
                       lambda: md.sigma.apply(md.delta), lambda: want),
                      ("modular element scales wrongly",
                       lambda: md.sigma_prime.apply(md.delta), lambda: want))),
        law_check("modular-flip", dim, (1, ("fails at pair ({0}, {slot[0]})", flip_lhs, flip_rhs))),
    ]
