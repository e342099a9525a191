"""Finite-dimensional Hopf algebras given by exact structure constants.

Conventions, fixed once for the whole package:

  - mult.get(i, j, k) is the coefficient of e_k in e_i * e_j.
  - comult.get(k, i, j) is the coefficient of e_i (x) e_j in coprod(e_k).
  - antipode.get(k, i) is the coefficient of e_k in S(e_i), columns indexed
    by the input basis vector.
  - star, when present, encodes the conjugate-linear involution as
    (coefficient conjugation first, then the stored matrix):
    (sum_i c_i e_i)^* = sum_k ( sum_i star.get(k, i) * conj(c_i) ) e_k.

Elements are immutable.  An Elem computes its support, the (index, coeff)
pairs of its nonzero coordinates in index order, once, on first use, and
every product, coproduct, matrix action and functional iterates over the
support instead of scanning all dim coordinates.  HopfData.basis(i) hands
out the same cached Elem each time, so a basis element's support is built
once per algebra.

Verifiers return Check records instead of raising, so a report can list
every failure location deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce

from .cyclotomic import CYC_ONE, CYC_ZERO, Cyc, lcm
from .errors import DimMismatch, NoStarStructure, NumericalFailure
from .linalg import Mat, Tensor3, mat_inverse, solve_null_space
from .report import Check, fail, ok, skip


@dataclass(frozen=True)
class Elem:
    coords: tuple

    @cached_property
    def support(self) -> tuple:
        """The (index, coeff) pairs with coeff nonzero, in index order."""
        return tuple((i, c) for i, c in enumerate(self.coords) if not c.is_zero())

    def is_zero(self) -> bool:
        return not self.support


@dataclass(frozen=True)
class Functional:
    coords: tuple  # value on each basis vector


@dataclass
class HopfData:
    name: str
    dim: int
    field_order: int
    mult: Tensor3
    unit: Elem
    comult: Tensor3
    counit: Functional
    antipode: Mat
    star: Mat | None = None

    def __post_init__(self):
        d = self.dim
        if self.mult.dim != d or self.comult.dim != d:
            raise DimMismatch("tensor dimension disagrees with dim")
        if len(self.unit.coords) != d or len(self.counit.coords) != d:
            raise DimMismatch("unit/counit length disagrees with dim")
        if (self.antipode.rows, self.antipode.cols) != (d, d):
            raise DimMismatch("antipode shape disagrees with dim")
        if self.star is not None and (self.star.rows, self.star.cols) != (d, d):
            raise DimMismatch("star shape disagrees with dim")

    # -- sparse caches (data is immutable by convention) ----------------

    @cached_property
    def mult_pairs(self):
        """mult_pairs[i][j] = list of (k, coeff) with coeff nonzero."""
        d = self.dim
        out = [[[] for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    c = self.mult.get(i, j, k)
                    if not c.is_zero():
                        out[i][j].append((k, c))
        return out

    @cached_property
    def comult_terms(self):
        """comult_terms[k] = list of (i, j, coeff) with coeff nonzero."""
        d = self.dim
        out = [[] for _ in range(d)]
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    c = self.comult.get(k, i, j)
                    if not c.is_zero():
                        out[k].append((i, j, c))
        return out

    # -- element constructors -------------------------------------------

    def elem(self, coords) -> Elem:
        coords = tuple(c if isinstance(c, Cyc) else Cyc.rational(c) for c in coords)
        if len(coords) != self.dim:
            raise DimMismatch("coordinate length mismatch")
        return Elem(coords)

    @cached_property
    def _basis(self) -> tuple:
        d = self.dim
        return tuple(Elem(tuple(CYC_ONE if k == i else CYC_ZERO for k in range(d)))
                     for i in range(d))

    def basis(self, i: int) -> Elem:
        return self._basis[i]

    def zero(self) -> Elem:
        return Elem((CYC_ZERO,) * self.dim)

    # -- algebra operations ----------------------------------------------

    def mul(self, a: Elem, b: Elem) -> Elem:
        acc = [CYC_ZERO] * self.dim
        pairs = self.mult_pairs
        b_support = b.support
        for i, ai in a.support:
            row = pairs[i]
            for j, bj in b_support:
                s = ai * bj
                for k, c in row[j]:
                    acc[k] = acc[k] + s * c
        return Elem(tuple(acc))

    def mul_many(self, *elems: Elem) -> Elem:
        out = self.unit
        for e in elems:
            out = self.mul(out, e)
        return out

    def coprod(self, a: Elem) -> dict:
        """Coproduct as a sparse dict {(i, j): coeff}."""
        acc: dict = {}
        for k, ak in a.support:
            for i, j, c in self.comult_terms[k]:
                key = (i, j)
                v = acc.get(key)
                acc[key] = ak * c if v is None else v + ak * c
        return {k: v for k, v in acc.items() if not v.is_zero()}

    def tensor_mul(self, t1: dict, t2: dict) -> dict:
        """Multiply two sparse elements of the tensor-square algebra."""
        pairs = self.mult_pairs
        acc: dict = {}
        for (a, b), x in t1.items():
            for (c, d), y in t2.items():
                s = x * y
                for p, cp in pairs[a][c]:
                    for q, cq in pairs[b][d]:
                        key = (p, q)
                        add = s * cp * cq
                        v = acc.get(key)
                        acc[key] = add if v is None else v + add
        return {k: v for k, v in acc.items() if not v.is_zero()}

    def apply(self, m: Mat, a: Elem) -> Elem:
        return Elem(tuple(m.matvec(a.coords, a.support)))

    def counit_of(self, a: Elem) -> Cyc:
        return self.functional_of(self.counit, a)

    def antipode_of(self, a: Elem) -> Elem:
        return self.apply(self.antipode, a)

    def star_of(self, a: Elem) -> Elem:
        if self.star is None:
            raise NoStarStructure(f"{self.name} carries no star structure")
        conj = Elem(tuple(c.conjugate() for c in a.coords))
        return self.apply(self.star, conj)

    def functional_of(self, f: Functional, a: Elem) -> Cyc:
        acc = CYC_ZERO
        for i, e in a.support:
            c = f.coords[i]
            if not c.is_zero():
                acc = acc + c * e
        return acc


def same_structure(h1: HopfData, h2: HopfData, include_star: bool = True) -> bool:
    """Exact equality of all structure tensors, ignoring the name."""
    if h1.dim != h2.dim:
        return False
    core = (h1.mult == h2.mult and h1.comult == h2.comult
            and h1.unit.coords == h2.unit.coords and h1.counit.coords == h2.counit.coords
            and h1.antipode == h2.antipode)
    if not core:
        return False
    if not include_star:
        return True
    if (h1.star is None) != (h2.star is None):
        return False
    return h1.star is None or h1.star == h2.star


# ---------------------------------------------------------------------------
# axiom verifiers


def verify_algebra(h: HopfData) -> Check:
    """Associativity on all basis triples plus two-sided unit."""
    law = "(ab)c=a(bc), 1a=a=a1"
    for i in range(h.dim):
        e = h.basis(i)
        left = h.mul(h.unit, e)
        right = h.mul(e, h.unit)
        if left != e or right != e:
            return fail("algebra", law, f"unit law fails at basis {i}")
    for i in range(h.dim):
        for j in range(h.dim):
            ij = h.mul(h.basis(i), h.basis(j))
            for k in range(h.dim):
                lhs = h.mul(ij, h.basis(k))
                rhs = h.mul(h.basis(i), h.mul(h.basis(j), h.basis(k)))
                if lhs != rhs:
                    return fail("algebra", law, f"associativity fails at triple ({i},{j},{k})")
    return ok("algebra", law)


def verify_coalgebra(h: HopfData) -> Check:
    """Coassociativity and both counit laws on every basis vector."""
    law = "(D(x)id)D=(id(x)D)D, (eps(x)id)D=id=(id(x)eps)D"
    for k in range(h.dim):
        left: dict = {}
        right: dict = {}
        for i, j, c in h.comult_terms[k]:
            for a, b, c2 in h.comult_terms[i]:
                key = (a, b, j)
                v = left.get(key)
                left[key] = c * c2 if v is None else v + c * c2
            for a, b, c2 in h.comult_terms[j]:
                key = (i, a, b)
                v = right.get(key)
                right[key] = c * c2 if v is None else v + c * c2
        keys = set(left) | set(right)
        for key in sorted(keys):
            if left.get(key, CYC_ZERO) != right.get(key, CYC_ZERO):
                return fail("coalgebra", law, f"coassociativity fails at basis {k} slot {key}")
    eps = h.counit.coords
    for k in range(h.dim):
        lvec = [CYC_ZERO] * h.dim
        rvec = [CYC_ZERO] * h.dim
        for i, j, c in h.comult_terms[k]:
            lvec[j] = lvec[j] + eps[i] * c
            rvec[i] = rvec[i] + eps[j] * c
        want = h.basis(k).coords
        if tuple(lvec) != want or tuple(rvec) != want:
            return fail("coalgebra", law, f"counit law fails at basis {k}")
    return ok("coalgebra", law)


def verify_bialgebra(h: HopfData) -> Check:
    """Coproduct and counit are unital algebra maps."""
    law = "D(ab)=D(a)D(b), D(1)=1(x)1, eps(ab)=eps(a)eps(b), eps(1)=1"
    one = h.unit
    d1 = h.coprod(one)
    want = {(i, j): ui * uj for i, ui in one.support for j, uj in one.support}
    if d1 != want:
        return fail("bialgebra", law, "coproduct of the unit is not 1(x)1")
    if h.counit_of(one) != CYC_ONE:
        return fail("bialgebra", law, "counit of the unit is not 1")
    for i in range(h.dim):
        for j in range(h.dim):
            prod = h.mul(h.basis(i), h.basis(j))
            lhs = h.coprod(prod)
            rhs = h.tensor_mul(h.coprod(h.basis(i)), h.coprod(h.basis(j)))
            if lhs != rhs:
                return fail("bialgebra", law, f"coproduct not multiplicative at pair ({i},{j})")
            if h.counit_of(prod) != h.counit.coords[i] * h.counit.coords[j]:
                return fail("bialgebra", law, f"counit not multiplicative at pair ({i},{j})")
    return ok("bialgebra", law)


def verify_antipode(h: HopfData) -> Check:
    """Both antipode convolution laws, plus invertibility of S as a matrix."""
    law = "m(S(x)id)D=eta.eps=m(id(x)S)D"
    for k in range(h.dim):
        lacc = [CYC_ZERO] * h.dim
        racc = [CYC_ZERO] * h.dim
        for i, j, c in h.comult_terms[k]:
            si = h.antipode_of(h.basis(i))
            sj = h.antipode_of(h.basis(j))
            for t, v in h.mul(si, h.basis(j)).support:
                lacc[t] = lacc[t] + c * v
            for t, v in h.mul(h.basis(i), sj).support:
                racc[t] = racc[t] + c * v
        want = tuple(h.counit.coords[k] * u for u in h.unit.coords)
        if tuple(lacc) != want:
            return fail("antipode", law, f"left convolution law fails at basis {k}")
        if tuple(racc) != want:
            return fail("antipode", law, f"right convolution law fails at basis {k}")
    try:
        mat_inverse(h.antipode)
    except Exception:
        return fail("antipode", law, "antipode matrix is singular")
    return ok("antipode", law)


def verify_antipode_derived(h: HopfData) -> Check:
    """Consequences of the axioms: S is a unital anti-homomorphism of both structures."""
    law = "S(ab)=S(b)S(a), S(1)=1, eps.S=eps, D.S=flip(S(x)S)D"
    if h.antipode_of(h.unit) != h.unit:
        return fail("antipode-derived", law, "S(1) != 1")
    for i in range(h.dim):
        if h.counit_of(h.antipode_of(h.basis(i))) != h.counit.coords[i]:
            return fail("antipode-derived", law, f"eps(S(e_{i})) != eps(e_{i})")
    for i in range(h.dim):
        for j in range(h.dim):
            lhs = h.antipode_of(h.mul(h.basis(i), h.basis(j)))
            rhs = h.mul(h.antipode_of(h.basis(j)), h.antipode_of(h.basis(i)))
            if lhs != rhs:
                return fail("antipode-derived", law, f"anti-multiplicativity fails at ({i},{j})")
    for k in range(h.dim):
        lhs = h.coprod(h.antipode_of(h.basis(k)))
        rhs: dict = {}
        for i, j, c in h.comult_terms[k]:
            si = h.antipode_of(h.basis(i))
            sj = h.antipode_of(h.basis(j))
            for a, sa in sj.support:
                for b, sb in si.support:
                    key = (a, b)
                    add = c * sa * sb
                    v = rhs.get(key)
                    rhs[key] = add if v is None else v + add
        rhs = {k2: v for k2, v in rhs.items() if not v.is_zero()}
        if lhs != rhs:
            return fail("antipode-derived", law, f"anti-comultiplicativity fails at basis {k}")
    return ok("antipode-derived", law)


def verify_star(h: HopfData) -> Check:
    """Star axioms: involution, anti-multiplicative, coproduct and counit compatible,
    and the exchange law S(a)^* = S^{-1}(a^*)."""
    law = "(a*)*=a, (ab)*=b*a*, D(a*)=D(a)*, eps(a*)=conj(eps(a)), S(a)*=Sinv(a*)"
    if h.star is None:
        return skip("star", law, "no-star")
    for i in range(h.dim):
        e = h.basis(i)
        if h.star_of(h.star_of(e)) != e:
            return fail("star", law, f"involution fails at basis {i}")
    if h.star_of(h.unit) != h.unit:
        return fail("star", law, "1* != 1")
    for i in range(h.dim):
        for j in range(h.dim):
            lhs = h.star_of(h.mul(h.basis(i), h.basis(j)))
            rhs = h.mul(h.star_of(h.basis(j)), h.star_of(h.basis(i)))
            if lhs != rhs:
                return fail("star", law, f"anti-multiplicativity fails at ({i},{j})")
    for k in range(h.dim):
        lhs = h.coprod(h.star_of(h.basis(k)))
        rhs: dict = {}
        for i, j, c in h.comult_terms[k]:
            si = h.star_of(h.basis(i))
            sj = h.star_of(h.basis(j))
            cc = c.conjugate()
            for a, sa in si.support:
                for b, sb in sj.support:
                    key = (a, b)
                    add = cc * sa * sb
                    v = rhs.get(key)
                    rhs[key] = add if v is None else v + add
        rhs = {k2: v for k2, v in rhs.items() if not v.is_zero()}
        if lhs != rhs:
            return fail("star", law, f"coproduct compatibility fails at basis {k}")
    for i in range(h.dim):
        if h.counit_of(h.star_of(h.basis(i))) != h.counit.coords[i].conjugate():
            return fail("star", law, f"counit compatibility fails at basis {i}")
    s_inv = mat_inverse(h.antipode)
    for i in range(h.dim):
        lhs = h.star_of(h.antipode_of(h.basis(i)))
        rhs = h.apply(s_inv, h.star_of(h.basis(i)))
        if lhs != rhs:
            return fail("star", law, f"antipode exchange fails at basis {i}")
    return ok("star", law)


def full_axiom_suite(h: HopfData) -> list:
    return [verify_algebra(h), verify_coalgebra(h), verify_bialgebra(h),
            verify_antipode(h), verify_antipode_derived(h), verify_star(h)]


# ---------------------------------------------------------------------------
# group-like elements


def is_group_like(h: HopfData, g: Elem) -> bool:
    if h.counit_of(g) != CYC_ONE:
        return False
    want = {(i, j): gi * gj for i, gi in g.support for j, gj in g.support}
    return h.coprod(g) == want


# Phases theta of the weights w_j = exp(2 pi i theta (j+1)^2) tried in turn.
_WEIGHT_PHASES = (0.5772156649, 0.7071067812, 0.3183098862)


def _exactify(value: complex, orders: list) -> Cyc | None:
    # recognise r * zeta_L^t with r rational of bounded denominator
    import cmath

    tol = 1e-9
    if abs(value) < tol:
        return CYC_ZERO
    for order in orders:
        for t in range(order):
            w = value * cmath.exp(-2j * cmath.pi * t / order)
            if abs(w.imag) < tol:
                fr = Fraction(w.real).limit_denominator(10**6)
                if abs(fr - w.real) < tol and fr != 0:
                    return Cyc.rational(fr) * Cyc.root(order, t)
    return None


def _reduce_into(rows: list, v: list) -> bool:
    """Append v, reduced against rows, unless it reduces to zero.  rows are
    (pivot, row) pairs, each row 1 at its pivot and 0 at earlier pivots."""
    for p, row in rows:
        c = v[p]
        if not c.is_zero():
            v = [x if y.is_zero() else x - c * y for x, y in zip(v, row)]
    lead = next((i for i, x in enumerate(v) if not x.is_zero()), None)
    if lead is not None:
        inv = v[lead].inverse()
        rows.append((lead, [x if x.is_zero() else x * inv for x in v]))
    return lead is not None


def find_group_likes(h: HopfData) -> list:
    """All group-likes of h, counted exactly and confirmed exactly.

    G(H) is the set of characters of A = H^* (Montgomery, CBMS 82), where
    e_a^ e_b^ = sum_k comult[k][a][b] e_k^.  Their common kernel is
    J = rad A + A[A,A].  rad A is the kernel of the trace form Tr L_{ab}
    (Dickson's criterion, characteristic 0).  A[A,A], the span of the e_c v
    for v in [A,A], is already a two-sided ideal: [a,b]c = [a,bc] - b[a,c]
    gives A[A,A]A = A[A,A].  A/J is commutative semisimple, so |G(H)| is
    n = dim J^perp.  The group-likes span J^perp, where the right-slot
    operators R_j(e_k) = sum_i comult[k][i][j] e_i commute and R_j g = g_j g,
    so one eigenproblem on a fixed combination gives each coordinate g_j as
    an eigenvalue.  Each is rounded by _exactify and each candidate is
    confirmed with the exact coproduct; NumericalFailure is raised unless
    n of them are, so a returned list is all of G(H).
    """
    import numpy as np

    d = h.dim
    dual_mul = [[[] for _ in range(d)] for _ in range(d)]  # e_a^ e_b^ as (k, coeff)
    r_ops = np.zeros((d, d, d), dtype=complex)            # r_ops[j][i][k] = comult[k][i][j]
    for k, terms in enumerate(h.comult_terms):
        for a, b, c in terms:
            dual_mul[a][b].append((k, c))
            r_ops[b, a, k] += c.to_complex()

    def times(a: int, u) -> list:  # e_a^ u
        v = [CYC_ZERO] * d
        for b, x in enumerate(u):
            if not x.is_zero():
                for k, c in dual_mul[a][b]:
                    v[k] = v[k] + x * c
        return v

    trace = [sum((c for b in range(d) for k, c in dual_mul[a][b] if k == b), CYC_ZERO)
             for a in range(d)]
    form = [[sum((c * trace[k] for k, c in dual_mul[a][b] if not trace[k].is_zero()),
                 CYC_ZERO) for b in range(d)] for a in range(d)]
    rows: list = []  # semi-echelon basis of J, rad A first
    for v in solve_null_space(Mat.from_rows(form)):
        _reduce_into(rows, v)
    commutators = []
    for a in range(d):
        for b in range(a + 1, d):
            if dual_mul[a][b] != dual_mul[b][a]:
                v = times(a, h.basis(b).coords)
                for k, c in dual_mul[b][a]:
                    v[k] = v[k] - c
                if _reduce_into(rows, v):
                    commutators.append(rows[-1][1])
    for u in commutators:
        for a in range(d):
            _reduce_into(rows, times(a, u))
    free = sorted(set(range(d)) - {p for p, _ in rows})
    j_rows = Mat.from_rows([r for _, r in sorted(rows)]) if rows else Mat.zero(1, d)
    basis = solve_null_space(j_rows)  # J^perp, each vector 1 at its own free slot
    n = len(basis)

    w = np.array([[c.to_complex() for c in v] for v in basis]).reshape(n, d).T
    ops = r_ops[:, free, :] @ w  # R_j on J^perp, in free-slot coordinates
    orders = sorted({lcm(h.field_order, e) for e in range(1, d + 1) if d % e == 0})
    found: list = []
    for theta in _WEIGHT_PHASES:
        if len(found) == n:
            break
        weights = np.exp(2j * np.pi * theta * np.arange(1, d + 1) ** 2)
        vecs = np.linalg.eig(np.tensordot(weights, ops, axes=1))[1]
        try:
            values = np.einsum("mi,jik,km->mj", np.linalg.inv(vecs), ops, vecs)
        except np.linalg.LinAlgError:
            continue
        confirmed: list = []
        for row in values:
            g = Elem(tuple(_exactify(complex(x), orders) for x in row))
            if None not in g.coords and is_group_like(h, g) and g not in confirmed:
                confirmed.append(g)
        found = max(found, confirmed, key=len)
    if len(found) < n:
        raise NumericalFailure(f"{h.name}: found {len(found)} of {n} group-likes")
    key_order = reduce(lcm, (c.order for g in found for c in g.coords), 1)
    found.sort(key=lambda g: tuple(c.sort_key(key_order) for c in g.coords))
    return found


def group_like_closure_check(h: HopfData, likes: list) -> Check:
    """The group-likes form a group: closed under product and inverse, contain 1."""
    law = "G(A) is a group under multiplication"
    if not any(g == h.unit for g in likes):
        return fail("group-likes", law, "unit missing from the group-like list")
    for a in likes:
        for b in likes:
            p = h.mul(a, b)
            if not any(p == g for g in likes):
                return fail("group-likes", law, "product escapes the list")
    for a in likes:
        cols = [h.mul(a, h.basis(j)).coords for j in range(h.dim)]
        la = Mat.from_rows([list(row) for row in zip(*cols)])
        try:
            inv = mat_inverse(la)
        except Exception:
            return fail("group-likes", law, "group-like not invertible")
        ainv = h.apply(inv, h.unit)
        if not any(ainv == g for g in likes):
            return fail("group-likes", law, "inverse escapes the list")
    return ok("group-likes", law, f"count={len(likes)}")
