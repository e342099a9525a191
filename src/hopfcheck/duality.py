"""The dual Hopf algebra, the canonical pairing, Fourier transform and the
exact Plancherel identity.

The dual of (A, m, D) swaps multiplication with comultiplication through
the canonical pairing <e_j^, e_i> = [i = j].  With phi the normalised left
integral and G[j][i] = phi(e_j e_i), the Fourier transform is the linear
map a |-> sum_j phi(e_j a) e_j^, i.e. plain matrix action by G.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import InconsistentWithDirectComputation
# unused here: perfbench/tracing.py times the dual axiom suite at this full_axiom_suite binding
from .hopf import (HopfData, act_left, act_right, full_axiom_suite, same_structure,
                   verify_star)
from .integrals import ModularData, right_integral
from .linalg import Elem, Mat, Tensor3, pairing, scale
from .report import Check, decide_then_locate, fail, first_failure, law_check, ok


def dual_name(name: str) -> str:
    return name[:-1] if name.endswith("^") else name + "^"


def dual_hopf(h: HopfData) -> HopfData:
    """Transpose the structure through the canonical pairing.  S^-1 of the
    dual is the transpose of h's S^-1 (read, or inverted once, on h), so
    no second inverse is computed."""
    d = h.dim
    # Each table is read in index order, so every new row is built in its
    # stored order: comult^(k, i, j) = mult(i, j, k) with i, then j,
    # increasing; mult^(i, j, k) = comult(k, i, j) with k increasing, its
    # slots j sorted once per row.
    mult: list = [{} for _ in range(d)]
    for k, row in enumerate(h.comult.rows):
        for i, terms in row.items():
            mult_i = mult[i]
            for j, c in terms:
                mult_i.setdefault(j, []).append((k, c))
    comult: list = [{} for _ in range(d)]
    for i, row in enumerate(h.mult.rows):
        for j, terms in row.items():
            for k, c in terms:
                comult[k].setdefault(i, []).append((j, c))
    mult = Tensor3.from_rows(d, [{j: row[j] for j in sorted(row)} for row in mult])
    comult = Tensor3.from_rows(d, comult)
    star = None
    if h.star is not None:
        star = Mat.of(d, d, {(k, j): c for k, row in enumerate(_dual_star_rows(h))
                             for j, c in row.items()})
    hd = HopfData(
        name=dual_name(h.name), dim=d, field_order=h.field_order,
        mult=mult, unit=h.counit, comult=comult, counit=h.unit,
        antipode=h.antipode.transpose(), star=star)
    hd.s_inv = None if h.s_inv is None else h.s_inv.transpose()
    return hd


def _dual_star_rows(h: HopfData) -> list:
    """Row k of the dual's star: {j: conj(coefficient of e_j in S(e_k)^*)},
    so that e_j^* = sum_k conj(e_j^(S(e_k)^*)) e_k^."""
    return [{j: c.conjugate() for j, c in h.star_of(x).support} for x in h.s_basis]


def transpose_failure(h: HopfData, hd: HopfData) -> str | None:
    """None when hd is the transpose of h, else the first entry where it is not.

    The certificate compares the stored tables entry by entry, in
    O(d^2 + nnz) comparisons and no field arithmetic.  Writing ^ for hd
    and the index order of the hopf module docstring, it checks exactly
    what dual_hopf builds:

      - product law        m^(i,j,k) = D(k,i,j): e_i^ e_j^ pairs with D;
      - coproduct law      D^(k,i,j) = m(i,j,k): D^(e_k^) pairs with m;
      - antipode transpose S^(a,i) = S(i,a);
      - unit and counit    1^ = eps and eps^ = 1;
      - S^-1 transpose     (S^-1 of hd)(a,i) = S^-1(i,a), or both singular.

    Dual axioms by transposition.  A linear identity between composites
    of m, D, 1, eps and S holds exactly when its transpose does, since
    transposition is injective and reverses composites ((fg)^T = g^T f^T,
    (f(x)g)^T = f^T(x)g^T, and the flip is its own transpose).  It swaps
    m with D^, D with m^, 1 with eps^, eps with 1^, and S with S^.  So once
    the certificate holds, each transposed check of hd states the scalar
    equations of one check of h, in another index order:

      dual check             check of h         how the parts match
      dual-algebra           coalgebra          associativity of m^ is
                                                coassociativity of D; the
                                                unit law is the counit law
      dual-coalgebra         algebra            the other way round
      dual-bialgebra         bialgebra          D^m^ = (m^(x)m^)(id(x)flip(x)id)
                                                (D^(x)D^) transposes to the
                                                same law of h; D^(1^) = 1^(x)1^
                                                is eps(ab) = eps(a)eps(b),
                                                eps^(fg) = eps^(f)eps^(g) is
                                                D(1) = 1(x)1, eps^(1^) = eps(1)
      dual-antipode          antipode           each convolution law is the
                                                transpose of the same one of h;
                                                S^ = S^T is invertible exactly
                                                when S is (det S^T = det S),
                                                and hd's stored S^-1 is then
                                                (S^-1)^T, the last row above
      dual-antipode-derived  antipode-derived   S^m^ = m^ flip (S^(x)S^) is
                                                DS = flip (S(x)S) D,
                                                S^(1^) = 1^ is eps S = eps,
                                                and the other way round

    dual_axiom_checks derives the five dual checks from this table.  dual-star
    is not a transposition: S^* is built from both S and *, so it rests on
    star_failure as well.  verify_pairing is this certificate plus h's
    coalgebra law: every pairing law is one of its rows or re-indexes
    coassociativity or a counit law of h (the proof is in its docstring).
    """
    d = h.dim
    cop = [{} for _ in range(d)]  # cop[p] = {(q, a): D(a, p, q)}, row p of m^'s law
    for (a, p, q), c in h.comult.items():
        cop[p][q, a] = c
    coef = [{} for _ in range(d)]
    for (a, b, k), c in h.mult.items():
        coef[k][(a, b)] = c

    def columns(m: Mat | None) -> list:  # {row: coeff} per column, all empty for None
        return [{}] * d if m is None else [dict(x.support) for x in m.images]

    def value(e: Elem):
        return dict(e.support).get

    s_inv_t = None if h.s_inv is None else h.s_inv.transpose()
    return first_failure(
        d,
        (1, ("product law fails at ({0},{slot[0]},{slot[1]})",
             lambda i: {(j, k): c for j, terms in hd.mult.rows[i].items() for k, c in terms},
             cop.__getitem__)),
        (1, ("coproduct law fails at ({0},{slot[0]},{slot[1]})", coef.__getitem__,
             lambda i: {(p, q): c for p, terms in hd.comult.rows[i].items() for q, c in terms})),
        (1, ("antipode transpose fails at ({0},{slot})", columns(hd.antipode).__getitem__,
             columns(h.antipode.transpose()).__getitem__)),
        (1, ("unit transpose fails at basis {0}", value(hd.unit), value(h.counit)),
            ("counit transpose fails at basis {0}", value(hd.counit), value(h.unit))),
        (0, ("S^-1 transpose fails: exactly one side is singular",
             lambda: hd.s_inv is None, lambda: h.s_inv is None)),
        (1, ("S^-1 transpose fails at ({0},{slot})", columns(hd.s_inv).__getitem__,
             columns(s_inv_t).__getitem__)))


def star_failure(h: HopfData, hd: HopfData) -> str | None:
    """None when hd's star is the one dual_hopf builds from h's, else the
    first entry where it is not.  Entry (k, j) of hd.star must be conj of
    the coefficient of e_j in S(e_k)^*: (e_j^)^*(e_k) = conj(e_j^(S(e_k)^*)),
    the star f^*(a) = conj(f(S(a)^*)) under which the dual of a Hopf
    *-algebra is one (Van Daele, Adv. Math. 140, 1998).  None also when
    neither carries a star.  Like transpose_failure, it compares stored
    rows with the rows dual_hopf builds (_dual_star_rows); dual_axiom_checks
    and biduality_check decide dual-star and biduality from the two
    certificates."""
    if h.star is None or hd.star is None:
        return None if h.star is hd.star else "star transpose fails: exactly one side has a star"
    return first_failure(h.dim, (1, ("star transpose fails at ({0},{slot})",
                                     hd.star.row_dicts().__getitem__,
                                     _dual_star_rows(h).__getitem__)))


def dual_axiom_checks(core: list, hd: HopfData, failure: str | None,
                      star_certified: bool = False) -> list:
    """The six dual checks, in full_axiom_suite's order, without rescanning
    the five transposed laws.

    core is full_axiom_suite(h), and the caller guarantees that none of it
    failed (the pipeline builds hd only then); failure is
    transpose_failure(h, hd).  Each of the first five checks of core names
    a law whose dual is the transpose of a law of h (the table in
    transpose_failure), so the dual check of that name PASSes when the
    certificate holds and FAILs with its detail otherwise.

    When the certificate holds and star_certified says that
    star_failure(h, hd) is None, dual-star prints core's star, unscanned:
    SKIP:no-star when neither carries a star, else PASS.  For then hd's
    star is f^*(a) = conj(f(S(a)^*)), and each of its rows is a law of h
    that core has checked (S(a)^* = S^-1(a^*) gives S(S(a)^*) = a^*):

      - involution: f^**(a) = f(S(S(a)^*)^*) = f(a^**) = f(a), by h's
        exchange and involution rows;
      - 1^* = 1: eps^*(a) = conj(eps(S(a)^*)) = eps(S(a)) = eps(a), by h's
        counit row and eps S = eps;
      - (fg)^* = g^* f^*: D(S(a)^*) = S(a2)^* (x) S(a1)^*, by h's coproduct
        row and D S = flip (S(x)S) D, so (fg)^*(a) = g^*(a1) f^*(a2);
      - D^(f^*) = D^(f)^*: S(ab)^* = S(a)^* S(b)^*, by S(ab) = S(b)S(a) and
        h's product row, so f^*(ab) = f1^*(a) f2^*(b);
      - eps^(f^*) = conj(eps^(f)): f^*(1) = conj(f(1)), by S(1) = 1 and
        1^* = 1;
      - exchange: (f S)^*(a) = conj(f(a^*)) = f^*(S^-1(a)), by h's exchange
        row; S^ is invertible with S, as in the antipode row above.

    Otherwise dual-star is scanned (report.decide_then_locate), its product
    law and its coproduct and counit rows over hd.generators once the
    transposition certificate holds: dual-algebra and dual-bialgebra then
    pass, as in full_axiom_suite.
    """
    out = [ok("dual-" + c.name) if failure is None else fail("dual-" + c.name, failure)
           for c in core[:5]]
    first = hd.generators if failure is None else None
    return out + [decide_then_locate(
        failure is None and star_certified, replace(core[5], name="dual-star"),
        lambda: replace(verify_star(hd, first, first), name="dual-star"))]


def verify_pairing(failure: str | None, coalgebra: Check) -> Check:
    """The pairing laws, from failure = transpose_failure(h, hd) and
    coalgebra = hopf.verify_coalgebra(h), both already evaluated: PASS when
    the certificate holds and coalgebra passed, else FAIL with the first
    failing detail, the certificate's before the coalgebra row's.

    Proof that this decides every law in the line.  Let the certificate
    hold: m^ = D^T, D^ = m^T, S^ = S^T, 1^ = eps and eps^ = 1.  With
    f|>a = a1 <f,a2> and a<|f = <f,a1> a2, for basis f, g, a, b:

      - Structural laws.  <fg,a> = <f,a1><g,a2>, <f,ab> = <f1,a><f2,b> and
        <Sf,a> = <f,Sa> are the product, coproduct and antipode rows of
        the certificate.
      - Action-pairing laws.  <f|>a,g> = <g,a1><f,a2> = <gf,a> and
        <a<|f,g> = <f,a1><g,a2> = <fg,a> compare the same D(a) entries
        with m^ as the product row.
      - Module laws.  (fg)|>a = (id(x)f(x)g)(id(x)D)D(a) and
        f|>(g|>a) = (id(x)f(x)g)(D(x)id)D(a), so the left module law for
        all basis f and g reads every entry of coassociativity.  So do
        a<|(fg) = (a<|f)<|g, through (f(x)g(x)id), and
        (f|>a)<|g = f|>(a<|g), through (g(x)id(x)f).
      - Unit action.  1^|>a = a and a<|1^ = a are the two counit laws.
        They put every e_a = 1^|>e_a in span{f|>a}, so that span is A.

    Each law thus holds exactly when its certificate row or coalgebra row
    does, so the status is that of scanning every law over every index;
    only a FAIL's detail names the certificate or the coalgebra row.  The
    pipeline's stage cites the transposed dual checks, which print it."""
    if failure is None and not coalgebra.passed():
        failure = coalgebra.detail
    return ok("pairing-actions") if failure is None else fail("pairing-actions", failure)


def _proportional(name: str, what: str, got: Elem, ref: Elem) -> None:
    at = dict(got.support)
    if not ref.support or ref.support[0][0] not in at:
        raise InconsistentWithDirectComputation(f"{name}: {what} vanishes against the solver")
    lead, c = ref.support[0]
    if got != scale(at[lead] / c, ref):
        raise InconsistentWithDirectComputation(
            f"{name}: {what} disagrees with the kernel solver")


def compute_dual_integrals(h: HopfData, md: ModularData, hd: HopfData, phi_solver: Elem):
    """Integrals on the dual in the Plancherel normalisation.

    psihat = eps . G^-1, equivalently psihat(F(a)) = eps(a); phihat is
    psihat . S^.  Right and left invariance are verified exactly through
    the canonical identification (the coefficient vectors, read in A, must
    absorb multiplication on the matching side), and both functionals must
    be nonzero multiples of what the generic kernel solver finds on the
    dual.  phi_solver is left_integral(hd).  Returns (psihat, phihat).

    Both invariance rows run over a in h.generators only.  The a with
    psihat a = eps(a) psihat form a unital subalgebra once A is associative
    and eps multiplicative, and likewise for a phihat, so the generators
    decide each row (report.first_failure): h must have passed the axiom
    suite, as it has wherever run_pipeline reaches this stage.  For the same
    reason, with A = (H*)* and the transposed checks passed, h.generators
    decide the right invariance of the solver's psi on hd (right_integral).
    """
    d, first = h.dim, h.generators
    psi_hat = Elem.of(d, ((j, pairing(h.counit, x)) for j, x in enumerate(md.gram_inv.images)))
    phi_hat = Elem.of(d, ((j, pairing(psi_hat, x)) for j, x in enumerate(hd.s_basis)))
    b, eps = h.basis, h.counit_of
    bad = first_failure(
        d, ((1, first), ("eps.G^-1 is not right invariant at basis {0}",
                         lambda a: h.mul(psi_hat, b(a)), lambda a: scale(eps(b(a)), psi_hat))),
        ((1, first), ("psihat.S^ is not left invariant at basis {0}",
                      lambda a: h.mul(b(a), phi_hat), lambda a: scale(eps(b(a)), phi_hat))))
    if bad is not None:
        raise InconsistentWithDirectComputation(f"{h.name}: {bad}")

    psi_solver = right_integral(hd, phi_solver, first)
    _proportional(h.name, "closed-form right dual integral", psi_hat, psi_solver)
    _proportional(h.name, "closed-form left dual integral", phi_hat, phi_solver)
    return psi_hat, phi_hat


def dual_modular_links(h: HopfData, md: ModularData, hd: HopfData,
                       delta_hat: Elem, first: tuple | None = None) -> Check:
    """Identities tying sigma and S^2 to the dual modular element acting on
    A, for a = e_i, i in `first`, every index when None.  Each link equates
    two characters or two unital algebra maps once
    integrals.derived_failure certifies the cached S^2 and sigma^-1, so
    run_pipeline then passes h.generators (the proof is in
    report.first_failure)."""
    b, s2, sigma = h.basis, h.s2, md.sigma.images
    delta_hat_inv = hd.antipode_of(delta_hat)
    return law_check(
        "dual-modular-links", h.dim,
        ((1, first),
         ("counit link fails at basis {0}", lambda i: h.counit_of(sigma[i]),
          lambda i: pairing(delta_hat_inv, b(i))),
         ("sigma link fails at basis {0}", sigma.__getitem__,
          lambda i: act_left(h, delta_hat_inv, s2.images[i])),
         ("left action link fails at basis {0}", lambda i: act_left(h, delta_hat, b(i)),
          lambda i: s2.apply(md.sigma_inv.images[i])),
         ("right action link fails at basis {0}", lambda i: act_right(h, b(i), delta_hat_inv),
          lambda i: s2.apply(md.sigma_prime.images[i]))))


def plancherel_check() -> Check:
    """Exact Parseval law under the Fourier transform, in the positive case,
    on every pair of basis elements.  It compares nothing: it runs only
    once operator-radford has passed, whose unitarity row compares exactly
    these pairs.  B is the star-Gram of phi on h, B[i][j] = phi(e_i^* e_j),
    Bhat that of psihat on the dual, Bhat[k][l] = psihat((e_k^)^* e_l^)
    (integrals.star_gram), and F(e_i) is column i of G = md.gram.

    Proof that the basis pairs decide the law for every a.  Write
    L(a, c) = psihat(F(a)^* F(c)) and R(a, c) = phi(a^* c).  F is linear,
    * conjugate-linear, the products bilinear and the functionals linear,
    so both are sesquilinear: conjugate-linear in a, linear in c.  Hence
    L(a, c) = sum_ij conj(a_i) c_j L(e_i, e_j), and likewise R, so L = R
    exactly when they agree on the d^2 basis pairs.  With
    F(e_i) = sum_k G[k][i] e_k^,

      L(e_i, e_j) = sum_kl conj(G[k][i]) Bhat[k][l] G[l][j]
                  = (conj(G)^T Bhat G)[i][j],   R(e_i, e_j) = B[i][j],

    so the pairs are the entries of the matrix identity
    conj(G)^T Bhat G = B, operator-radford's row keyed by (i, j).  The law
    as written, L(a, a) = R(a, a) for every complex a, is the same
    statement: by polarisation
    L(a, c) = 1/4 sum_k i^-k L(a + i^k c, a + i^k c), and likewise R.  A
    real sample a sees only sum_ij a_i a_j X_ij of a form X, so it misses
    every antisymmetric defect, zeta_4 (E_kl - E_lk) say; the pairs see
    each entry.

    When phi fails positivity the straight form picks up a modular twist
    (psihat(F(a)*F(b)) = phi(b a*) instead of phi(a* b)), so the check is
    only claimed where the left side is a genuine norm: the caller runs it
    only once phi is known to be positive, which implies a star on h and hd.
    """
    return ok("plancherel")


def biduality_check(h: HopfData, hd: HopfData, certified: bool = False) -> Check:
    """dual(dual(A)) must reproduce every tensor of A byte for byte; hd is
    dual_hopf(h).

    certified says that h's axiom suite passed and that transpose_failure
    and star_failure of (h, hd) are None.  Then dual_hopf(hd) is h without
    being built.  Its product, coproduct, unit, counit and antipode are
    the transposes of hd's coproduct, product, counit, unit and antipode,
    which the transposition certificate equates with h's own.  Its star
    sends x in A, as a functional on H*, to f |-> conj(x(S^(f)^*)) =
    conj((f S)^*(x)) = (f S)(S(x)^*) = f(S(S(x)^*)) = f(x^*), by hd's
    certified star and h's exchange row, S(x)^* = S^-1(x^*): entry (k, j)
    of its matrix is the coefficient of e_k in e_j^*, h's star.  So only
    the name round trip is compared.

    Otherwise the second dual is built and compared table by table
    (report.decide_then_locate), not by transpose_failure(hd, hdd): that
    certificate visits every index pair of four d x d laws, and on taft(8)
    it took 19 ms against same_structure's 1.4 ms (one in-process run on a
    shared 2-core x86 box, Python 3.11)."""
    if dual_name(hd.name) != h.name:
        return fail("biduality", "name round trip fails")
    same = decide_then_locate(certified, True, lambda: same_structure(h, dual_hopf(hd)))
    return ok("biduality") if same else fail("biduality", "structure tensors differ")
