"""Finite-dimensional Hopf algebras given by exact structure constants.

Conventions, fixed once for the whole package:

  - mult(i, j, k) is the coefficient of e_k in e_i * e_j.
  - comult(k, i, j) is the coefficient of e_i (x) e_j in coprod(e_k).
  - antipode.images[i] is S(e_i): entry (k, i) is the coefficient of e_k
    in S(e_i), columns indexed by the input basis vector.
  - star, when present, encodes the conjugate-linear involution as
    (coefficient conjugation first, then the stored matrix):
    (sum_i c_i e_i)^* = sum_k ( sum_i star(k, i) * conj(c_i) ) e_k,
    so star.images[i] is e_i^*.

The two tables store their nonzeros only, in index order (linalg.Tensor3):
mult.rows[i][j] lists the (k, coeff) terms of e_i * e_j, and
comult.rows[k][i] the (j, coeff) terms of coprod(e_k) with left slot e_i.
Every operation reads those rows, so a table costs its nonzero count, not
dim^3.

Elements, functionals (the counit and the integrals) and maps are the
sparse linalg.Elem and linalg.Mat: an Elem is its support, the (index,
coeff) pairs of its nonzero coordinates in index order, and a Mat the Elem
image of each basis vector.  Every product, coproduct, matrix action and
pairing iterates over supports and never scans all dim coordinates, and a
map's image of e_i is read from its stored column, not computed.

Verifiers return Check records instead of raising, so a report can list
every failure location deterministically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .cyclotomic import CYC_ONE, CYC_ZERO, Cyc, lcm
from .errors import (DimMismatch, FormatError, NoStarStructure, NumericalFailure,
                     SingularMatrix)
from .linalg import (Elem, Mat, Tensor3, mat_inverse, null_basis, pairing, reduce_into,
                     scale, solve_null_space, sparse_sum)
from .report import Check, fail, first_failure, law_check, ok, skip


@dataclass
class HopfData:
    name: str
    dim: int
    field_order: int
    mult: Tensor3
    unit: Elem
    comult: Tensor3
    counit: Elem  # a functional: its value on each basis vector
    antipode: Mat
    star: Mat | None = None

    def __post_init__(self):
        # the name is printed in report headers: a line break or an escape
        # sequence in it could forge a CHECK line
        if not isinstance(self.name, str) or not self.name or not self.name.isprintable():
            raise FormatError("name must be a nonempty string of printable characters")
        d = self.dim
        if self.mult.dim != d or self.comult.dim != d:
            raise DimMismatch("tensor dimension disagrees with dim")
        if self.unit.dim != d or self.counit.dim != d:
            raise DimMismatch("unit/counit length disagrees with dim")
        if (self.antipode.rows, self.antipode.cols) != (d, d):
            raise DimMismatch("antipode shape disagrees with dim")
        if self.star is not None and (self.star.rows, self.star.cols) != (d, d):
            raise DimMismatch("star shape disagrees with dim")

    # -- derived maps, computed once -----------------------------------

    @cached_property
    def s2(self) -> Mat:
        return self.antipode.mul(self.antipode)

    @cached_property
    def s4(self) -> Mat:
        return self.s2.mul(self.s2)

    @cached_property
    def s_inv(self) -> Mat | None:
        """S^-1, or None when the antipode matrix is singular."""
        try:
            return mat_inverse(self.antipode)
        except SingularMatrix:
            return None

    @property
    def s_basis(self) -> tuple:
        """s_basis[i] = S(e_i), the antipode's stored column."""
        return self.antipode.images

    @cached_property
    def generators(self) -> tuple:
        """Basis indices whose left-nested monomials g1(g2(...(gk 1))) span A.

        Greedy in index order: e_k joins unless it already lies in the span W
        of 1 and the monomials of the indices chosen so far; W is then closed
        under left multiplication by every chosen generator.  W is an exact
        echelon of monomials, and its reaching rank dim is the certificate.
        C[Z_n] gives (1,), C[S3] (1, 3); F(G) needs dim - 1 indices.

        The index order is what lets a bilinear law run its first slot over
        the generators only and still fail at the first index tuple of the
        full scan: an index is skipped only when the generators below it
        already span it (see report.first_failure).  The monomials are read
        with the stored product, so the certificate needs the unit law; when
        it fails, the monomials may span less than A and RuntimeError is
        raised.
        """
        d = self.dim
        rows: list = []
        monomials: list = []
        applied: list = []  # applied[m] = how many generators have hit monomials[m]
        gens: list = []

        def add(x: Elem) -> None:
            if reduce_into(rows, x.support):
                monomials.append(x)
                applied.append(0)

        add(self.unit)
        for k in range(d):
            if len(rows) == d:
                break
            if not reduce_into(list(rows), {k: CYC_ONE}):
                continue
            gens.append(k)
            m = 0
            while m < len(monomials) and len(rows) < d:
                for g in gens[applied[m]:]:
                    add(self.mul(self.basis(g), monomials[m]))
                applied[m] = len(gens)
                m += 1
        if len(rows) != d:
            raise RuntimeError(f"{self.name}: monomials of {gens} span {len(rows)} of {d}")
        return tuple(gens)

    # -- element constructors -------------------------------------------

    @cached_property
    def _basis(self) -> tuple:
        d = self.dim
        return tuple(Elem.of(d, ((i, CYC_ONE),)) for i in range(d))

    def basis(self, i: int) -> Elem:
        return self._basis[i]

    # -- algebra operations ----------------------------------------------

    def mul(self, a: Elem, b: Elem) -> Elem:
        """a b, in work proportional to the nonzero products: for each e_i in
        a, the shorter of its stored row and b's support is walked and the
        other probed, so a pointwise algebra costs d probes, not d^2."""
        rows, nb, b_at = self.mult.rows, len(b.support), None
        acc: list = []
        for i, ai in a.support:
            row = rows[i]
            if len(row) < nb:
                if b_at is None:
                    b_at = dict(b.support)
                for j, terms in row.items():
                    bj = b_at.get(j)
                    if bj is not None:
                        s = ai * bj
                        acc.extend((k, s * c) for k, c in terms)
            else:
                for j, bj in b.support:
                    terms = row.get(j)
                    if terms:
                        s = ai * bj
                        acc.extend((k, s * c) for k, c in terms)
        return Elem.of(self.dim, acc)

    def mul_many(self, *elems: Elem) -> Elem:
        """The product of elems from the left; the unit when there are none.
        It starts from the first factor, so it takes 1 a = a on trust: every
        caller runs after the algebra check has passed."""
        if not elems:
            return self.unit
        return reduce(self.mul, elems)

    def coprod(self, a: Elem) -> dict:
        """Coproduct as a sparse dict {(i, j): coeff}."""
        rows = self.comult.rows
        return sparse_sum(((i, j), ak * c) for k, ak in a.support
                          for i, terms in rows[k].items() for j, c in terms)

    def tensor_mul(self, t1: dict, t2: dict) -> dict:
        """Multiply two sparse elements of the tensor-square algebra."""
        rows = self.mult.rows
        return sparse_sum(((p, q), x * y * cp * cq)
                          for (a, b), x in t1.items() for (c, d), y in t2.items()
                          for p, cp in rows[a].get(c, ()) for q, cq in rows[b].get(d, ()))

    def coprod_map(self, k: int, f, g, flip: bool = False, conj: bool = False) -> dict:
        """(f(x)g)D(e_k) as a sparse dict, where f[i] and g[i] are the images
        of e_i.  flip swaps the two tensor slots; conj conjugates the
        structure constants, as a conjugate-linear f and g need."""
        return sparse_sum(((b, a) if flip else (a, b), (c.conjugate() if conj else c) * x * y)
                          for i, terms in self.comult.rows[k].items() for j, c in terms
                          for a, x in f[i].support for b, y in g[j].support)

    def convolve(self, k: int, f, g) -> Elem:
        """m(f(x)g)D(e_k), where f[i] and g[i] are the images of e_i."""
        return Elem.of(self.dim, ((t, c * v) for i, terms in self.comult.rows[k].items()
                                  for j, c in terms for t, v in self.mul(f[i], g[j]).support))

    def counit_of(self, a: Elem) -> Cyc:
        return pairing(self.counit, a)

    def antipode_of(self, a: Elem) -> Elem:
        return self.antipode.apply(a)

    def star_of(self, a: Elem) -> Elem:
        if self.star is None:
            raise NoStarStructure(f"{self.name} carries no star structure")
        # conjugation keeps every coefficient nonzero, so the support stays canonical
        return self.star.apply(Elem(a.dim, tuple((i, c.conjugate()) for i, c in a.support)))


def act_left(h: HopfData, f: Elem, a: Elem) -> Elem:
    """f |> a = (id(x)f)D(a), the dual hitting the right coproduct slot."""
    f_at = dict(f.support)
    return Elem.of(h.dim, ((i, ak * c * f_at[j]) for k, ak in a.support
                           for i, terms in h.comult.rows[k].items()
                           for j, c in terms if j in f_at))


def act_right(h: HopfData, a: Elem, f: Elem) -> Elem:
    """a <| f = (f(x)id)D(a), the dual hitting the left coproduct slot."""
    f_at = dict(f.support)
    return Elem.of(h.dim, ((j, ak * c * f_at[i]) for k, ak in a.support
                           for i, terms in h.comult.rows[k].items() if i in f_at
                           for j, c in terms))


def same_structure(h1: HopfData, h2: HopfData) -> bool:
    """Exact equality of all structure tensors, star included, ignoring the name."""
    return (h1.mult == h2.mult and h1.comult == h2.comult and h1.unit == h2.unit
            and h1.counit == h2.counit and h1.antipode == h2.antipode and h1.star == h2.star)


# ---------------------------------------------------------------------------
# axiom verifiers: each law is a table of (detail, lhs, rhs) rows, evaluated
# by report.first_failure in index order.  A bilinear law is one row per
# first index i, each side one flat linalg.sparse_sum dict keyed by the
# whole index tuple after i, (j, n) for the coefficient of e_n in the value
# at (i, j), summed straight from the stored tables.  Its first index runs
# over `first`, the generators once `algebra` has passed; a law between
# algebra maps whose proof also cites `bialgebra` runs over `hom_first`, the
# generators once that has passed too.  The theorem in report.first_failure
# makes either a proof of the whole law with the full scan's first failure.
# Left as None, it is every basis index.


def image_rows(h: HopfData, i: int, images, conj: bool = False) -> dict:
    """{(j, n): coefficient of e_n in f(e_i e_j)}, where f(e_m) = images[m]:
    f of each term (m, c) of the stored row e_i e_j, with c conjugated for a
    conjugate-linear f (conj)."""
    return sparse_sum(((j, n), (c.conjugate() if conj else c) * v)
                      for j, terms in h.mult.rows[i].items() for m, c in terms
                      for n, v in images[m].support)


def product_rows(h: HopfData, factors) -> dict:
    """{(j, n): coefficient of e_n in x y}, for the (j, x, y) in factors, x
    and y Elems: the products read off mult.rows with no Elem built per j."""
    rows = h.mult.rows

    def terms():
        for j, x, y in factors:
            for a, xa in x.support:
                row = rows[a]
                for b, yb in y.support:
                    prod = row.get(b)
                    if prod:
                        s = xa * yb
                        for n, v in prod:
                            yield (j, n), s * v
    return sparse_sum(terms())


def verify_algebra(h: HopfData) -> Check:
    """The two-sided unit law on every basis vector, then associativity
    (ab)c = a(bc) for a in h.generators and all basis b and c, which is all
    of associativity by report.first_failure.  The generators are read only
    once the unit rows have passed: their certificate rests on the unit law.

    Associativity runs one row i at a time, each side keyed by (j, k, n)
    and read off the stored table: (e_i e_j) e_k sums
    c * mult.rows[m][k] over the terms (m, c) of e_i e_j, and e_i (e_j e_k)
    sums c * mult.rows[i][m] over the terms (m, c) of e_j e_k.  The slot is
    the smallest failing (j, k, n), whose (j, k) is the first failing pair,
    so the detail names the first failing triple of the triple scan."""
    b, rows = h.basis, h.mult.rows
    detail = first_failure(
        h.dim, (1, ("unit law fails at basis {0}", lambda i: h.mul(h.unit, b(i)), b),
                   ("unit law fails at basis {0}", lambda i: h.mul(b(i), h.unit), b))
    ) or first_failure(
        h.dim, ((1, h.generators), (
            "associativity fails at triple ({0},{slot[0]},{slot[1]})",
            lambda i: sparse_sum(((j, k, n), c * v) for j, terms in rows[i].items()
                                 for m, c in terms for k, terms2 in rows[m].items()
                                 for n, v in terms2),
            lambda i: sparse_sum(((j, k, n), c * v) for j, row in enumerate(rows)
                                 for k, terms in row.items() for m, c in terms
                                 for n, v in rows[i].get(m, ())))))
    return ok("algebra") if detail is None else fail("algebra", detail)


def verify_coalgebra(h: HopfData) -> Check:
    """Coassociativity and both counit laws on every basis vector."""
    b, eps = h.basis, h.counit
    terms = [[(i, j, c) for i, pairs in row.items() for j, c in pairs] for row in h.comult.rows]
    return law_check(
        "coalgebra", h.dim,
        (1, ("coassociativity fails at basis {0} slot {slot}",
             lambda k: sparse_sum(((a, b, j), c * c2)
                                  for i, j, c in terms[k] for a, b, c2 in terms[i]),
             lambda k: sparse_sum(((i, a, b), c * c2)
                                  for i, j, c in terms[k] for a, b, c2 in terms[j]))),
        (1, ("counit law fails at basis {0}", lambda k: act_right(h, b(k), eps), b),
            ("counit law fails at basis {0}", lambda k: act_left(h, eps, b(k)), b)))


def verify_bialgebra(h: HopfData, first: tuple | None = None) -> Check:
    """Coproduct and counit are unital algebra maps; the product laws run
    over a in `first` (see above).

    Both product laws share one row per i: (j, "coproduct", p, q) holds the
    coefficient of e_p (x) e_q in D(e_i e_j), and (j, "counit") the scalar
    eps(e_i e_j).  "coproduct" sorts before "counit", so at each pair the
    coproduct part is compared first, and the slot names the pair and the
    part that fails first."""
    d, rows, cop = h.dim, h.mult.rows, h.comult.rows
    eps = dict(h.counit.support)
    coprods = [[(p, q, x) for p, terms in row.items() for q, x in terms] for row in cop]

    def lhs(i):  # D(e_i e_j) and eps(e_i e_j), from the terms (m, c) of e_i e_j
        out = sparse_sum(((j, "coproduct", p, q), c * x)
                         for j, terms in rows[i].items() for m, c in terms
                         for p, q, x in coprods[m])
        out.update(sparse_sum(((j, "counit"), c * eps[m])
                              for j, terms in rows[i].items() for m, c in terms if m in eps))
        return out

    def rhs(i):  # D(e_i)D(e_j) and eps(e_i)eps(e_j)
        def terms():
            for j in range(d):
                for a, b, x in coprods[i]:
                    row_a, row_b = rows[a], rows[b]
                    for c, e, y in coprods[j]:
                        left, right = row_a.get(c), row_b.get(e)
                        if left and right:
                            s = x * y
                            for p, cp in left:
                                sp = s * cp
                                for q, cq in right:
                                    yield (j, "coproduct", p, q), sp * cq
        out = sparse_sum(terms())
        if i in eps:
            out.update(((j, "counit"), eps[i] * y) for j, y in eps.items())
        return out

    return law_check(
        "bialgebra", d,
        (0, ("coproduct of the unit is not 1(x)1",
             lambda: h.coprod(h.unit),
             lambda: {(i, j): x * y for i, x in h.unit.support for j, y in h.unit.support}),
            ("counit of the unit is not 1", lambda: h.counit_of(h.unit), lambda: CYC_ONE)),
        ((1, first), ("{slot[1]} not multiplicative at pair ({0},{slot[0]})", lhs, rhs)))


_SINGULAR = "antipode matrix is singular"


def verify_antipode(h: HopfData, first: tuple | None = None) -> Check:
    """Both antipode convolution laws, plus invertibility of S as a matrix.
    The convolution laws run over k in `first`: the generators once
    `bialgebra` and `antipode-derived` have passed (report.first_failure),
    every index when None."""
    b, s, eps = h._basis, h.s_basis, h.counit_of
    return law_check(
        "antipode", h.dim,
        ((1, first), ("left convolution law fails at basis {0}",
                      lambda k: h.convolve(k, s, b), lambda k: scale(eps(b[k]), h.unit)),
                     ("right convolution law fails at basis {0}",
                      lambda k: h.convolve(k, b, s), lambda k: scale(eps(b[k]), h.unit))),
        (0, (_SINGULAR, lambda: h.s_inv is None, lambda: False)))


def verify_antipode_derived(h: HopfData, first: tuple | None = None,
                            hom_first: tuple | None = None) -> Check:
    """Consequences of the axioms: S is a unital anti-homomorphism of both
    structures; S(ab) = S(b)S(a) runs over a in `first` and
    D(S(a)) = flip(S(x)S)D(a) over a in `hom_first` (see above)."""
    b, s, eps = h.basis, h.s_basis, h.counit_of
    return law_check(
        "antipode-derived", h.dim,
        (0, ("S(1) != 1", lambda: h.antipode_of(h.unit), lambda: h.unit)),
        (1, ("eps(S(e_{0})) != eps(e_{0})", lambda i: eps(s[i]), lambda i: eps(b(i)))),
        ((1, first), ("anti-multiplicativity fails at ({0},{slot[0]})",
                      lambda i: image_rows(h, i, s),
                      lambda i: product_rows(h, ((j, s[j], s[i]) for j in range(h.dim))))),
        ((1, hom_first), ("anti-comultiplicativity fails at basis {0}",
                          lambda k: h.coprod(s[k]), lambda k: h.coprod_map(k, s, s, flip=True))))


def verify_star(h: HopfData, first: tuple | None = None,
                hom_first: tuple | None = None) -> Check:
    """Star axioms: involution, anti-multiplicative, coproduct and counit compatible,
    and the exchange law S(a)^* = S^{-1}(a^*); (ab)^* = b^*a^* runs over a in
    `first`, and the coproduct and counit compatibility over a in `hom_first`
    (see above)."""
    if h.star is None:
        return skip("star", "no-star")
    b, eps, st = h.basis, h.counit_of, h.star.images  # st[i] = e_i^*
    return law_check(
        "star", h.dim,
        (1, ("involution fails at basis {0}", lambda i: h.star_of(st[i]), b)),
        (0, ("1* != 1", lambda: h.star_of(h.unit), lambda: h.unit)),
        ((1, first), ("anti-multiplicativity fails at ({0},{slot[0]})",
                      lambda i: image_rows(h, i, st, conj=True),
                      lambda i: product_rows(h, ((j, st[j], st[i]) for j in range(h.dim))))),
        ((1, hom_first), ("coproduct compatibility fails at basis {0}",
                          lambda k: h.coprod(st[k]), lambda k: h.coprod_map(k, st, st, conj=True))),
        ((1, hom_first), ("counit compatibility fails at basis {0}",
                          lambda i: eps(st[i]), lambda i: eps(b(i)).conjugate())),
        (0, (_SINGULAR + ", so S^-1 is undefined", lambda: h.s_inv is None, lambda: False)),
        (1, ("antipode exchange fails at basis {0}",
             lambda i: h.star_of(h.s_basis[i]), lambda i: h.s_inv.apply(st[i]))))


def full_axiom_suite(h: HopfData) -> list:
    """The six axiom checks.  A law scans the generators only when the checks
    its reduction cites have passed, and every index otherwise
    (report.first_failure): the product laws cite `algebra`; the
    coproduct and counit rows of `antipode-derived` and `star` cite
    `bialgebra` too; the convolution laws cite `bialgebra` and
    `antipode-derived`, so `antipode-derived` is evaluated before
    `antipode`, and printed after it."""
    algebra = verify_algebra(h)
    first = h.generators if algebra.passed() else None
    bialgebra = verify_bialgebra(h, first)
    hom_first = first if bialgebra.passed() else None
    derived = verify_antipode_derived(h, first, hom_first)
    antipode = verify_antipode(h, hom_first if derived.passed() else None)
    return [algebra, verify_coalgebra(h), bialgebra, antipode, derived,
            verify_star(h, first, hom_first)]


# ---------------------------------------------------------------------------
# group-like elements


def is_group_like(h: HopfData, g: Elem, first: tuple | None = None) -> bool:
    """eps(g) = 1 and D(g) = g (x) g, compared one row at a time: for each a,
    {b: <g, e_a^ e_b^>} against {b: g_a g_b}, where <g, e_a^ e_b^> is the
    coefficient of e_a (x) e_b in D(g) (its row a in comult).

    That is multiplicativity of evaluation at g on A = H^*, a bilinear law
    whose unit row is eps(g) = 1, so by report.first_failure its first
    slot a may run over `first` = the generators of A, given that A is
    associative and unital: the coalgebra law of h.  None scans every a.

    Of those, only the rows that g reaches are read: a in supp g, or a left
    factor of D(e_k) for some k in supp g.  Any other row is empty on both
    sides by construction, on any tables, so the verdict is the scan's.
    """
    rows, at = h.comult.rows, dict(g.support)
    reach = at.keys() | {a for k in at for a in rows[k]}
    return first_failure(
        h.dim, (0, ("", lambda: h.counit_of(g), lambda: CYC_ONE)),
        ((1, sorted(reach if first is None else reach.intersection(first))),
         ("", lambda a: sparse_sum((j, x * c) for k, x in g.support
                                   for j, c in rows[k].get(a, ())),
          lambda a: {b: at[a] * y for b, y in g.support} if a in at else {}))
    ) is None


# Phases theta of the weights w_j = exp(2 pi i theta (j+1)^2) tried in turn.
_WEIGHT_PHASES = (0.5772156649, 0.7071067812, 0.3183098862)


def _exactify(value: complex, orders: list) -> Cyc | None:
    """value as r * zeta_L^t, r a nonzero rational with denominator at most
    10^6 within 1e-9, for the first L in orders and then the least t that
    fits; 0 below 1e-9, and None when no L fits.

    t is read off the phase.  A fitting t leaves w = value zeta_L^-t with
    |w.imag| < 1e-9 and |w.real| > 10^-6 - 1e-9, so w lies within 1.01e-3
    rad of the real axis, and t is within 1.7e-4 L of turns*L, or of
    turns*L - L/2 when r < 0 (turns = phase / 2 pi, mod L).  For L below
    2,900 that is under 1/2, so t is one of the two nearest integers tried,
    as in a scan of every t.  A real part within 1e-9 of an integer n is n:
    every other fraction with denominator at most 10^6 is 10^-6 away."""
    tol = 1e-9
    if abs(value) < tol:
        return CYC_ZERO
    # math.atan2, since cmath.phase raises on a subnormal imaginary part
    turns = math.atan2(value.imag, value.real) / (2 * math.pi)
    for order in orders:
        x = turns * order
        for t in sorted({round(x) % order, round(x - order / 2) % order}):
            w = value * cmath.exp(-2j * cmath.pi * t / order)
            if abs(w.imag) < tol:
                n = round(w.real)
                fr = Fraction(n) if abs(n - w.real) < tol else \
                    Fraction(w.real).limit_denominator(10**6)
                if abs(fr - w.real) < tol and fr != 0:
                    return Cyc.rational(fr) * Cyc.root(order, t)
    return None


def _key(g: Elem, n: int) -> tuple:
    """The (index, order, num, den) of each coefficient of g over Q(zeta_n):
    a coefficient that is neither rational nor of order n is embedded
    there, so every coefficient order must divide n.  A canonical scalar
    (any Cyc but embed's output) of order 1 or n has exactly one stored
    form, so two elements with canonical coefficients whose orders divide
    n are equal exactly when their keys are."""
    out = []
    for i, c in g.support:
        if c.order != 1 and c.order != n:
            c = c.embed(n)
        out.append((i, c.order, c.num, c.den))
    return tuple(out)


def _group_like_span(h: HopfData) -> tuple:
    """(free, basis): an exact basis of J^perp = span G(H), each vector 1 at
    its own free slot, and those slots in order.

    G(H) is the set of characters of A = H^* (Montgomery, CBMS 82), where
    e_a^ e_b^ = sum_k comult[k][a][b] e_k^.  Their common kernel is
    J = rad A + A[A,A].  rad A is the kernel of the trace form Tr L_{ab}
    (Dickson's criterion, characteristic 0).  A[A,A], the span of the e_c v
    for v in [A,A], is already a two-sided ideal: [a,b]c = [a,bc] - b[a,c]
    gives A[A,A]A = A[A,A].  A/J is commutative semisimple, so |G(H)| is
    n = dim J^perp, and the group-likes, linearly independent, span it."""
    d = h.dim
    dual_mul = [[[] for _ in range(d)] for _ in range(d)]  # e_a^ e_b^ as (k, coeff)
    for (k, a, b), c in h.comult.items():
        dual_mul[a][b].append((k, c))

    def times(a: int, u: dict) -> dict:  # e_a^ u
        return sparse_sum((k, x * c) for b, x in u.items() for k, c in dual_mul[a][b])

    trace = sparse_sum((a, c) for (k, a, b), c in h.comult.items() if k == b)
    form = Mat.of(d, d, sparse_sum(((a, b), c * trace[k])
                                   for (k, a, b), c in h.comult.items() if k in trace))
    rows: list = []  # semi-echelon basis of J, rad A first
    for v in solve_null_space(form):
        reduce_into(rows, v.support)
    commutators = []
    for a in range(d):
        for b in range(a + 1, d):
            if dual_mul[a][b] != dual_mul[b][a]:
                v = sparse_sum([*dual_mul[a][b], *((k, -c) for k, c in dual_mul[b][a])])
                if reduce_into(rows, v):
                    commutators.append(rows[-1][1])
    for u in commutators:
        for a in range(d):
            reduce_into(rows, times(a, u))
    free = sorted(set(range(d)) - {p for p, _ in rows})
    return free, null_basis(rows, d)


def find_group_likes(h: HopfData, first: tuple | None = None) -> list:
    """All group-likes of h, counted exactly and confirmed exactly.

    J^perp = span G(H) and n = |G(H)| = dim J^perp are exact
    (_group_like_span).  On J^perp the right-slot operators
    R_j(e_k) = sum_i comult[k][i][j] e_i commute and R_j g = g_j g, so for
    weights w_j that separate the group-likes' eigenvalues each eigenvector
    of R = sum_j w_j R_j is a multiple of one group-like g, and eps(g) = 1
    fixes the multiple.  In the basis W of J^perp, R is the n x n matrix
    A W, where A[i][k] = sum_j w_j comult[k][i][j] over the free slots i is
    summed from the coproduct's nonzeros: per weight, O(nnz + d n^2) work
    and O(nnz + d n) floats for the entries, A, W and the candidates W v,
    plus the n x n eigenproblem, the one float decision.  No d x d x d
    array is built.  A vector with eps(W v) near 0 or a coordinate that is
    not finite, as a degenerate weight gives, is no candidate.

    Each candidate coordinate is rounded to 12 decimals, and each distinct
    rounded value is handed to _exactify once per call, so the zeros and
    roots of unity a list repeats are matched once.  Each candidate is
    confirmed with the exact coproduct, by is_group_like(h, g, first), and
    NumericalFailure is raised unless n of them are, so a returned list is
    all of G(H).

    The list is sorted by the sort_key of every coordinate, zeros included,
    over the lcm of the found coefficient orders.  sort_key reads only the
    stored (order, num, den), so each distinct one is keyed once: the many
    zeros and roots of unity a group-like list repeats cost one key each.
    """
    import numpy as np

    d = h.dim
    free, basis = _group_like_span(h)
    n = len(basis)
    w = np.array([[c.to_complex() for c in v.coords] for v in basis]).reshape(n, d).T
    eps = np.array([c.to_complex() for c in h.counit.coords])
    slot = {i: s for s, i in enumerate(free)}
    flat, cols, coeffs = [], [], []  # A[slot i][k] gets coeff * w_j at flat = slot i * d + k
    for (k, i, j), c in h.comult.items():
        if i in slot:
            flat.append(slot[i] * d + k)
            cols.append(j)
            coeffs.append(c.to_complex())
    flat, cols, coeffs = np.array(flat, dtype=int), np.array(cols, dtype=int), np.array(coeffs)
    orders = sorted({lcm(h.field_order, e) for e in range(1, d + 1) if d % e == 0})
    field = lcm(*orders)  # every candidate coefficient lies in Q(zeta_field)
    exact: dict = {}  # rounded value -> _exactify's answer

    def exactify(x: complex) -> Cyc | None:
        if x not in exact:
            exact[x] = _exactify(x, orders)
        return exact[x]

    found: list = []
    for theta in _WEIGHT_PHASES:
        if len(found) == n:
            break
        terms = coeffs * np.exp(2j * np.pi * theta * (cols + 1) ** 2)
        a = np.bincount(flat, terms.real, n * d) + 1j * np.bincount(flat, terms.imag, n * d)
        candidates = w @ np.linalg.eig(a.reshape(n, d) @ w)[1]
        confirmed: list = []
        seen: set = set()
        for vec, scale in zip(candidates.T, eps @ candidates):
            if abs(scale) < 1e-9:
                continue
            vec = np.round(vec / scale, 12)
            if not np.isfinite(vec).all():
                continue
            coords = [exactify(x) for x in vec.tolist()]
            if None in coords:
                continue
            g = Elem.of(d, enumerate(coords))
            key = _key(g, field)
            if key not in seen:
                seen.add(key)
                if is_group_like(h, g, first):
                    confirmed.append(g)
        found = max(found, confirmed, key=len)
    if len(found) < n:
        raise NumericalFailure(f"{h.name}: found {len(found)} of {n} group-likes")
    key_order = reduce(lcm, (c.order for g in found for _, c in g.support), 1)
    keys: dict = {}  # stored (order, num, den) -> its sort key; a Cyc has no hash

    def sort_key(c: Cyc) -> tuple:
        form = (c.order, c.num, c.den)
        key = keys.get(form)
        if key is None:
            key = keys[form] = c.sort_key(key_order)
        return key
    found.sort(key=lambda g: tuple(sort_key(c) for c in g.coords))
    return found


def group_like_closure_check(h: HopfData, likes: list) -> Check:
    """The group-likes form a group: closed under product and inverse, contain 1.
    likes is find_group_likes(h), and each law follows from a check that has
    passed before this stage runs, so the check is its proof.

      - likes is all of G(H).  n = dim J^perp is exact.  Distinct
        group-likes are linearly independent and each lies in J^perp, so
        |G(H)| <= n.  find_group_likes returns n distinct group-likes, each
        confirmed exactly, or raises.
      - 1 and gl are group-like for g and l group-like: D and eps are
        multiplicative and unital, `bialgebra`.  So both are in likes.
      - S(g) is group-like: D S = flip (S (x) S) D and eps S = eps,
        `antipode-derived`.  So S(g) is in likes, and S(g) g = eps(g) 1 = 1
        by `antipode`, so it is g's inverse.

    The group-likes stage cites these three checks of h, and
    dual-group-likes the dual's three (pipeline.STAGES).
    """
    return ok("group-likes")
