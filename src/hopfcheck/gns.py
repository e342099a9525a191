"""Represented form of the algebra: positivity, the GNS construction, the
modular conjugation and commutant, and the operator reading of the fourth
antipode power.

The GNS space of a positive faithful phi is A itself in Gram coordinates:
Lambda(a) = a, with <x, y> = phi(y^* x) = y^H B x, where B[i][j] =
phi(e_i^* e_j) is the exact star-Gram (integrals.star_gram).  Then rep(a)
is L_a, left multiplication (rep(a) Lambda(x) = Lambda(ax)), the Hilbert
adjoint of an operator T is B^-1 T^H B, and S_0 Lambda(a) = Lambda(a^*) is
the conjugate-linear T x = Star conj(x), Star = h.star.  So every operator
statement is an exact identity between sparse matrices over Q(zeta_n),
compared entry by entry through report.law_check: no isometry onto an
orthonormal basis, no tolerance.  Each identity is stated on the generators
of A wherever the law is multiplicative in a, by the argument of
report.first_failure.

These stages run after the axioms have passed, so associativity, the unit
law and the star laws hold exactly, and only once the verdict says B is
positive definite.  That verdict alone is read in floats (eigenvalues of
B), and --tolerance is its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import CYC_ONE
from .errors import NumericalFailure
from .hopf import HopfData, sparse_rows
from .integrals import ModularData
from .linalg import Elem, Mat, pairing
from .report import Check, fail, law_check, ok


def positivity_verdict(h: HopfData, state: Elem, b: Mat | None, tol: float = 1e-9):
    """Classify state(a^* a): 'positive', 'not-positive' or 'no-star'.

    b is the exact star-Gram of state, integrals.star_gram(h,
    gram_matrix(h, state)), or None when h has no star.  A definite answer
    needs the sesquilinear form to be self-adjoint; when it is not, no
    phase multiple c in {1, i} can rescue it here either, and the verdict
    reports which obstruction fired.
    """
    if h.star is None:
        return "no-star", "no star structure"
    g = np.zeros((b.rows, b.cols), dtype=complex)
    for j, col in enumerate(b.images):
        for i, c in col.support:
            g[i, j] = c.to_complex()
    for phase, label in ((1.0, "1"), (1j, "i")):
        gp = phase * g
        if np.linalg.norm(gp - gp.conj().T) <= tol * max(1.0, np.linalg.norm(gp)):
            evs = np.linalg.eigvalsh((gp + gp.conj().T) / 2)
            if evs.min() > tol:
                if phase == 1.0:
                    detail = f"min eigenvalue {evs.min():.6g}"
                    at_unit = pairing(state, h.unit)
                    if not at_unit.is_zero():
                        detail += (f"; phi(1)={at_unit.text()}, rescale by "
                                   f"1/{at_unit.text()} for a state")
                    return "positive", detail
                return "not-positive", (
                    f"form positive only after phase {label}; min eigenvalue {evs.min():.6g}")
            return ("not-positive",
                    f"self-adjoint at phase {label} but indefinite; min eigenvalue {evs.min():.6g}")
    return "not-positive", "form is not self-adjoint at phases 1 or i"


@dataclass(frozen=True)
class GNSData:
    """One GNS space in Gram coordinates: the star-Gram b, so that
    <x, y> = y^H b x; left[g] = L_g, the represented generator g; and star,
    the matrix of *, so that J x = star conj(x)."""
    b: Mat
    left: dict
    star: Mat


def _generators(h: HopfData) -> tuple:
    """h.generators, or every index at d = 1, where there are none."""
    return h.generators or tuple(range(h.dim))


def gns_build(h: HopfData, b: Mat) -> GNSData:
    """The exact GNS data of a positive faithful state, given by its
    star-Gram b (integrals.star_gram).  b must be Hermitian, b = b^H, for
    <x, y> = y^H b x to be an inner product; NumericalFailure otherwise."""
    if b != b.conjugate().transpose():
        raise NumericalFailure(f"{h.name}: star-Gram is not Hermitian")
    d, rows = h.dim, h.mult.rows
    left = {g: Mat(d, d, tuple(Elem(d, rows[g].get(j, ())) for j in range(d)))
            for g in _generators(h)}
    return GNSData(b=b, left=left, star=h.star)


def _entries(m: Mat) -> dict:
    """m as the sparse dict {(i, j): m[i][j]}, so a mismatch slot is (row, column)."""
    return {(i, j): c for j, col in enumerate(m.images) for i, c in col.support}


def _left(h: HopfData, x: Elem) -> Mat:
    """L_x, read from the stored table."""
    return Mat(h.dim, h.dim, tuple(h.mul(x, h.basis(j)) for j in range(h.dim)))


def _right(h: HopfData, x: Elem) -> Mat:
    """R_x, read from the stored table."""
    return Mat(h.dim, h.dim, tuple(h.mul(h.basis(j), x) for j in range(h.dim)))


def _j_sandwich(star: Mat, m: Mat) -> Mat:
    """J m J for J x = star conj(x): the linear map star conj(m star)."""
    return star.mul(m.mul(star).conjugate())


def _image_of_products(h: HopfData, x: Mat) -> dict:
    """{(j, k): x(e_j e_k)} as sparse rows."""
    return sparse_rows(((j, k), n, c * v)
                       for j, row in enumerate(h.mult.rows) for k, terms in row.items()
                       for m, c in terms for n, v in x.images[m].support)


def _products_of_images(h: HopfData, cols) -> dict:
    """{(j, k): y_j e_k} as sparse rows, where cols[j] holds the (m, c)
    terms of y_j."""
    rows = h.mult.rows
    return sparse_rows(((j, k), n, c * v)
                       for j, terms in enumerate(cols) for m, c in terms
                       for k, prod in rows[m].items() for n, v in prod)


def _modular_rows(gns: GNSData) -> tuple:
    """The two sides of nabla = 1, Star^H B Star = B^T (see tomita_check)."""
    star, b = gns.star, gns.b
    return (lambda: _entries(star.conjugate().transpose().mul(b.mul(star))),
            lambda: _entries(b.transpose()))


def gns_representation_check(h: HopfData, gns: GNSData) -> Check:
    """rep(ab)=rep(a)rep(b), rep(a*)=rep(a)^H, rep(1)=1, T^2=P=1, as four
    exact identities, each on its own matrices.

      - rep(1) = 1 is L_1 = I.
      - rep(ab) = rep(a) rep(b) is bilinear, so it is its basis pairs.  The
        row at generator g reads left[g](e_j e_k) against (g e_j) e_k, the
        product from the table: rep(g) rep(e_j) = rep(g e_j) on e_k.
        Summed against the unit's coordinates in j, it gives left[g] = L_g,
        so the stored operator is rep(g).  The x with
        rep(x) rep(b) = rep(xb) for every b form a subspace X holding 1,
        closed under products by associativity:
        rep(xy) rep(b) = rep(x) rep(yb) = rep(x(yb)) = rep((xy)b).  So X = A
        once every generator lies in X, and the first failing pair of a
        scan over every first index is at a generator (report.first_failure).
      - rep(a*) = rep(a)^H.  The adjoint of T is B^-1 T^H B, so the law is
        B L_a = L_{a*}^H B (B is Hermitian, gns_build).  The a that satisfy
        it form a subspace, since a -> L_{a*}^H is linear; it holds 1
        (1* = 1), and is closed under products by multiplicativity and
        (ab)* = b* a*: B L_a L_b = L_{a*}^H B L_b = (L_{b*} L_{a*})^H B
        = L_{(ab)*}^H B.  So the generators decide it, by the same argument.
      - T^2 = 1 is Star conj(Star) = I, since T x = Star conj(x); P, the
        rescaling generator, is the identity in finite dimension.
    """
    d, gens = h.dim, _generators(h)
    eye = _entries(Mat.identity(d))
    rows = h.mult.rows
    return law_check(
        "gns-representation", d,
        (0, ("unit is not represented by the identity at ({slot[0]},{slot[1]})",
             lambda: _entries(_left(h, h.unit)), lambda: eye)),
        ((1, gens), ("multiplicativity fails at ({0},{slot[0]})",
                     lambda g: _image_of_products(h, gns.left[g]),
                     lambda g: _products_of_images(h, [rows[g].get(j, ()) for j in range(d)]))),
        ((1, gens), ("adjoint property fails at basis {0}, entry ({slot[0]},{slot[1]})",
                     lambda g: _entries(gns.b.mul(gns.left[g])),
                     lambda g: _entries(_left(h, gns.star.images[g]).conjugate().transpose()
                                        .mul(gns.b)))),
        (0, ("star lift does not square to the identity at ({slot[0]},{slot[1]})",
             lambda: _entries(gns.star.mul(gns.star.conjugate())), lambda: eye)))


def tomita_check(h: HopfData, gns: GNSData) -> Check:
    """J^2=1, J nabla J=nabla^-1, nabla=1, J rep(A) J = rep(A)', exactly.

    S = J nabla^1/2 is the polar decomposition of T, and nabla = S^* S.
      - nabla = 1 says that T is antiunitary, <Tx, Ty> = <y, x> for all x
        and y.  With T x = Star conj(x) the left side is
        y^T Star^H B Star conj(x) and the right side y^T B^T conj(x), so
        the law is Star^H B Star = B^T: phi(y x*) = phi(x* y), phi tracial.
        Then J = S = T.
      - J^2 = 1 is Star conj(Star) = I, and then J nabla J = 1 = nabla^-1.
      - The commutant is rep(A)' = R(A), right multiplications.  If X
        commutes with every L_a, then X(a) = X(L_a 1) = L_a X(1) = a X(1),
        so X = R_{X(1)}.  Conversely L_g R_b = R_b L_g, read as
        left[g](e_j e_b) against (left[g] e_j) e_b; the a with L_a in
        R(A)' form a subspace holding 1 and closed under products, so the
        generators decide it.  R_b(1) = e_b, so b -> R_b is injective and
        R(A) has dimension d.
      - J L_a J x = (a x*)* = x a*, so J L_a J = R_{a*}, compared as
        matrices.  The a that satisfy it form a subspace (both sides are
        conjugate-linear in a) holding 1 (J^2 = 1) and closed under
        products: J L_a L_b J = R_{a*} R_{b*} = R_{b* a*} = R_{(ab)*}.  So
        the generators decide it, and J rep(A) J = R(A^*) = R(A) = rep(A)'.
    """
    d, gens, b = h.dim, _generators(h), h.basis
    star = gns.star
    return law_check(
        "tomita-commutant", d,
        (0, ("J is not an involution at ({slot[0]},{slot[1]})",
             lambda: _entries(star.mul(star.conjugate())),
             lambda: _entries(Mat.identity(d))),
            ("modular operator is not the identity at ({slot[0]},{slot[1]})",
             *_modular_rows(gns))),
        ((1, gens), ("right multiplication by e_{slot[1]} does not commute with rep(e_{0}) "
                     "on e_{slot[0]}",
                     lambda g: _image_of_products(h, gns.left[g]),
                     lambda g: _products_of_images(
                         h, [col.support for col in gns.left[g].images]))),
        (1, ("commutant dimension is not certified: R_{0}(1) != e_{0}",
             lambda i: h.mul(h.unit, b(i)), b)),
        ((1, gens), ("J rep(e_{0}) J is not R_(e_{0}*) at ({slot[0]},{slot[1]})",
                     lambda g: _entries(_j_sandwich(star, gns.left[g])),
                     lambda g: _entries(_right(h, star.images[g])))))


def kac_collapse_check(h: HopfData, md: ModularData, hd: HopfData, delta_hat: Elem,
                       psi_hat: Elem, b_hat: Mat, tol: float = 1e-9) -> Check:
    """A positive integral forces the whole modular family to collapse.
    The caller runs this only once phi is known to be positive; b_hat is
    the star-Gram of psi_hat on hd."""
    if not h.s2.is_identity():
        return fail("kac-collapse", "S^2 != id")
    if not md.sigma.is_identity() or not md.sigma_prime.is_identity():
        return fail("kac-collapse", "modular automorphism is nontrivial")
    if md.nu != CYC_ONE:
        return fail("kac-collapse", "scaling constant is not 1")
    if md.delta != h.unit:
        return fail("kac-collapse", "modular element is not 1")
    if delta_hat != h.counit:
        return fail("kac-collapse", "dual modular element is not the counit")
    dual_verdict, dual_detail = positivity_verdict(hd, psi_hat, b_hat, tol)
    if dual_verdict != "positive":
        return fail("kac-collapse", f"dual integral not positive: {dual_detail}")
    return ok("kac-collapse")


def operator_radford_check(h: HopfData, hd: HopfData, md: ModularData, delta_hat: Elem,
                           gns: GNSData, gns_dual: GNSData) -> Check:
    """rep(delta) . J rep(delta) J . V rephat(deltahat) V^-1 .
    V Jhat rephat(deltahat) Jhat V^-1 = P^(-2it) = 1, exactly, on h's GNS
    space and the dual's (hd with psihat's star-Gram).

      - V carries the dual's space to A's by the inverse Fourier transform,
        F(a) = G a with G = md.gram, invertible (compute_modular inverts
        it).  V is unitary exactly when <Fa, Fc>^ = <a, c>, a sesquilinear
        law, so exactly when its basis pairs hold: G^H Bhat G = B.
      - V is invertible, so V X V^-1 = 1 exactly when X = 1.  The four
        factors are therefore 1 exactly when L_delta = I,
        J L_delta J = I, Lhat_deltahat = I and Jhat Lhat_deltahat Jhat = I,
        each computed here, with J = Star conj and Jhat = Starhat conj;
        then their product is 1, and so is P^(-2it), since P = 1 in finite
        dimension.
      - Jhat = Starhat conj is the dual's modular conjugation once
        nabla-hat = 1, that is Starhat^H Bhat Starhat = Bhat^T (the proof
        in tomita_check, on hd); A's own nabla = 1 is tomita-commutant's.
    """
    d, eye = h.dim, _entries(Mat.identity(h.dim))
    g = md.gram
    return law_check(
        "operator-radford", d,
        (0, ("Fourier transport is not unitary at ({slot[0]},{slot[1]})",
             lambda: _entries(g.conjugate().transpose().mul(gns_dual.b.mul(g))),
             lambda: _entries(gns.b))),
        (0, *((f"factor {label} is not the identity at ({{slot[0]}},{{slot[1]}})",
               factor, lambda: eye) for label, factor in (
            ("rep(delta)", lambda: _entries(_left(h, md.delta))),
            ("J rep(delta) J", lambda: _entries(_j_sandwich(gns.star, _left(h, md.delta)))),
            ("transported rephat(deltahat)", lambda: _entries(_left(hd, delta_hat))),
            ("transported Jhat rephat Jhat",
             lambda: _entries(_j_sandwich(gns_dual.star, _left(hd, delta_hat))))))),
        (0, ("dual modular operator is not the identity at ({slot[0]},{slot[1]})",
             *_modular_rows(gns_dual))))
