"""Represented form of the algebra: positivity, the GNS construction, the
modular conjugation and commutant, and the operator reading of the fourth
antipode power.

The GNS space of a positive faithful phi is A itself in Gram coordinates:
Lambda(a) = a, with <x, y> = phi(y^* x) = y^H B x, where B[i][j] =
phi(e_i^* e_j) is the exact star-Gram (integrals.star_gram).  Then rep(a)
is L_a, left multiplication (rep(a) Lambda(x) = Lambda(ax)), the Hilbert
adjoint of an operator T is B^-1 T^H B, and S_0 Lambda(a) = Lambda(a^*) is
the conjugate-linear T x = Star conj(x), Star = h.star.  So every operator
statement is an exact identity between matrices over Q(zeta_n).

These stages run only after `algebra` and `star` (and, for the dual,
`dual-algebra` and `dual-star`) have passed, the checks they cite
(pipeline.STAGES), and only once the verdict says B is positive definite.
That verdict alone is read in floats (eigenvalues of B), and --tolerance
is its tolerance.  Most operator laws restate an axiom that has then
passed exactly; each is proved in its check's docstring and not compared
again.  The rest are compared entry by entry through report.law_check.
Each law and the check that decides it:

  law                                     decided by
  rep(1) = 1: L_1 = I                     algebra, unit rows
  rep(ab) = rep(a) rep(b)                 algebra, associativity rows
  rep(a*) = rep(a)^H: B L_a = L_{a*}^H B  star and algebra (B = Star^T G)
  T^2 = 1: Star conj(Star) = I            star, involution rows
  J^2 = 1 (J = T)                         star, involution rows
  L_a R_b = R_b L_a                       algebra, associativity rows
  R_b(1) = e_b                            algebra, unit rows
  J L_a J = R_{a*}                        star and algebra
  B = B^H (an inner product)              gns_build
  nabla = 1: Star^H B Star = B^T          tomita-commutant
  J nabla J = nabla^-1                    J^2 = 1 and nabla = 1
  V unitary: conj(G)^T Bhat G = B         operator-radford (plancherel's pairs)
  rep(delta) = 1 and J rep(delta) J = 1   kac-collapse, as delta = 1
  rephat(deltahat) = 1 and its Jhat form  kac-collapse, as deltahat = 1^
  nabla-hat = 1                           operator-radford
"""

from __future__ import annotations

import numpy as np

from .cyclotomic import CYC_ONE
from .errors import NumericalFailure
from .hopf import HopfData
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


def gns_build(h: HopfData, b: Mat) -> Mat:
    """b, the star-Gram of a positive faithful state (integrals.star_gram),
    certified as the GNS inner product <x, y> = y^H b x: b must be
    Hermitian, b = b^H, exactly; NumericalFailure otherwise."""
    if b != b.conjugate().transpose():
        raise NumericalFailure(f"{h.name}: star-Gram is not Hermitian")
    return b


def _entries(m: Mat) -> dict:
    """m as the sparse dict {(i, j): m[i][j]}, so a mismatch slot is (row, column)."""
    return {(i, j): c for j, col in enumerate(m.images) for i, c in col.support}


def _modular_rows(star: Mat, b: Mat) -> tuple:
    """The two sides of nabla = 1, Star^H B Star = B^T (see tomita_check)."""
    return (lambda: _entries(star.conjugate().transpose().mul(b.mul(star))),
            lambda: _entries(b.transpose()))


def gns_representation_check(h: HopfData, b: Mat) -> Check:
    """rep(ab)=rep(a)rep(b), rep(a*)=rep(a)^H, rep(1)=1, T^2=P=1 on the
    certified B of gns_build: each follows from an axiom that has passed,
    so the check is its proof.

      - rep(1) = 1 is L_1 = I: 1 e_j = e_j, `algebra`'s unit rows.
      - rep(ab) = rep(a) rep(b) on e_k is (ab) e_k = a (b e_k):
        `algebra`'s associativity rows, over the same generators and keys.
      - rep(a*) = rep(a)^H.  The adjoint of T is B^-1 T^H B, so the law is
        B L_a = L_{a*}^H B (B is Hermitian, gns_build).  B = Star^T G and
        column i of Star is e_i^*, so B[i][j] = phi(e_i^* e_j).  Entry (i, j)
        of the left side is sum_k phi(e_i^* e_k) (a e_j)_k = phi(e_i^* a e_j);
        of the right side, sum_k conj((a^* e_i)_k) phi(e_k^* e_j) =
        phi((a^* e_i)^* e_j), since * is conjugate-linear, and that is
        phi(e_i^* a e_j) by `star`'s anti-multiplicativity and involution
        and by associativity.
      - T^2 = 1 is Star conj(Star) = I, since T x = Star conj(x): column i
        is (e_i^*)^* = e_i, `star`'s involution row at i.  P, the rescaling
        generator, is the identity in finite dimension.
    """
    return ok("gns-representation")


def tomita_check(h: HopfData, b: Mat) -> Check:
    """J^2=1, J nabla J=nabla^-1, nabla=1, J rep(A) J = rep(A)', exactly.
    b is the certified B of gns_build; nabla = 1 is the one row compared.

    S = J nabla^1/2 is the polar decomposition of T, and nabla = S^* S.
      - nabla = 1 says that T is antiunitary, <Tx, Ty> = <y, x> for all x
        and y.  With T x = Star conj(x) the left side is
        y^T Star^H B Star conj(x) and the right side y^T B^T conj(x), so
        the law is Star^H B Star = B^T: phi(y x*) = phi(x* y), phi tracial.
        Then J = S = T.
      - J^2 = 1 is T^2 = 1, `star`'s involution (gns_representation_check),
        and then J nabla J = 1 = nabla^-1.
      - The commutant is rep(A)' = R(A), right multiplications.  If X
        commutes with every L_a, then X(a) = X(L_a 1) = L_a X(1) = a X(1),
        so X = R_{X(1)}.  Conversely L_a R_b = R_b L_a is (a x) b = a (x b),
        `algebra`'s associativity.  R_b(1) = e_b by `algebra`'s unit law,
        so b -> R_b is injective and R(A) has dimension d.
      - J L_a J x = (a x^*)^* = x^** a^* = x a^*, by `star`'s
        anti-multiplicativity and involution, so J L_a J = R_{a*}, and
        J rep(A) J = R(A^*) = R(A) = rep(A)', since * is onto.
    """
    return law_check(
        "tomita-commutant", h.dim,
        (0, ("modular operator is not the identity at ({slot[0]},{slot[1]})",
             *_modular_rows(h.star, b))))


def kac_collapse_check(h: HopfData, md: ModularData, hd: HopfData, delta_hat: Elem,
                       psi_hat: Elem, b_hat: Mat, tol: float = 1e-9) -> Check:
    """A positive integral forces the whole modular family to collapse.
    The caller runs this only once phi is known to be positive; b_hat is
    the star-Gram of psi_hat on hd, whose star the dual verdict reads, so
    the stage cites dual-star."""
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


def operator_radford_check(h: HopfData, hd: HopfData, md: ModularData, b: Mat,
                           b_hat: Mat) -> Check:
    """rep(delta) . J rep(delta) J . V rephat(deltahat) V^-1 .
    V Jhat rephat(deltahat) Jhat V^-1 = P^(-2it) = 1, exactly, on h's GNS
    space (b, gns_build's B) and the dual's (b_hat, psihat's star-Gram on
    hd, certified the same way).  It runs once kac-collapse has passed.

      - V carries the dual's space to A's by the inverse Fourier transform,
        F(a) = G a with G = md.gram, invertible (compute_modular inverts
        it).  V is unitary exactly when <Fa, Fc>^ = <a, c>, a sesquilinear
        law, so exactly when its basis pairs hold: G^H Bhat G = B.
      - V is invertible, so V X V^-1 = 1 exactly when X = 1.  L_delta = I
        exactly when delta = 1: L_delta(1) = delta, and L_1 = I, by
        `algebra`'s unit law.  J L_delta J = R_{delta*} (tomita_check), and
        R_{delta*} = I exactly when delta^* = 1, that is when delta = 1, by
        `star`'s involution and 1* = 1.  The same holds on hd, with
        `dual-algebra` and `dual-star`.  So the four factors are 1 exactly
        when delta = 1 and deltahat = 1^, which kac-collapse compares;
        then their product is 1, and so is P^(-2it), since P = 1 in finite
        dimension.
      - Jhat = Starhat conj is the dual's modular conjugation once
        nabla-hat = 1, that is Starhat^H Bhat Starhat = Bhat^T (the proof
        in tomita_check, on hd); A's own nabla = 1 is tomita-commutant's.
    """
    g = md.gram
    return law_check(
        "operator-radford", h.dim,
        (0, ("Fourier transport is not unitary at ({slot[0]},{slot[1]})",
             lambda: _entries(g.conjugate().transpose().mul(b_hat.mul(g))),
             lambda: _entries(b)),
            ("dual modular operator is not the identity at ({slot[0]},{slot[1]})",
             *_modular_rows(hd.star, b_hat))))
