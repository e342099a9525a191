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
from functools import cached_property

from .cyclotomic import CYC_ONE, CYC_ZERO, Cyc, lcm
from .errors import DimMismatch, ExactificationFailed, NoStarStructure
from .linalg import Mat, Tensor3, mat_inverse
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


def _exactify(value: complex, orders: list, tol: float, denom_bound: int) -> Cyc | None:
    # recognise r * zeta_L^t with r rational of bounded denominator
    import cmath

    if abs(value) < tol:
        return CYC_ZERO
    for order in orders:
        for t in range(order):
            w = value * cmath.exp(-2j * cmath.pi * t / order)
            if abs(w.imag) < tol:
                fr = Fraction(w.real).limit_denominator(denom_bound)
                if abs(fr - w.real) < tol and fr != 0:
                    return Cyc.rational(fr) * Cyc.root(order, t)
    return None


def find_group_likes(h: HopfData, seed: int = 42, tol: float = 1e-9,
                     denom_bound: int = 10**6) -> list:
    """All group-like elements, found numerically and verified exactly.

    A group-like is a joint eigenvector of the right-slot coproduct
    operators R_j(e_k) = sum_i comult[k][i][j] e_i, so a random seeded
    combination of the R_j separates the candidates over floats.  Each
    candidate is normalised to counit 1, rounded coordinate-by-coordinate
    to cyclotomic values of order dividing lcm(field_order, d) for divisors
    d of dim, then confirmed with the exact coproduct.  Raises
    ExactificationFailed when a float candidate survives the joint
    eigenvector test but cannot be rounded.
    """
    import numpy as np

    d = h.dim
    r_ops = np.zeros((d, d, d), dtype=complex)
    for k in range(d):
        for i, j, c in h.comult_terms[k]:
            r_ops[j][i][k] += c.to_complex()
    eps_vec = np.array([c.to_complex() for c in h.counit.coords])

    orders = []
    for div in range(1, d + 1):
        if d % div == 0:
            o = lcm(h.field_order, div)
            if o not in orders:
                orders.append(o)
    orders.sort()

    found: list[Elem] = []
    for attempt in range(8):
        rng = np.random.default_rng(seed + attempt)
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        combo = np.tensordot(w, r_ops, axes=1)
        vals, vecs = np.linalg.eig(combo)
        if attempt < 7:
            sorted_vals = np.sort_complex(vals)
            gaps = np.abs(np.diff(sorted_vals))
            if len(sorted_vals) > 1 and np.min(gaps) < 1e-6:
                continue  # degenerate combination, redraw
        candidates = []
        for idx in range(d):
            v = vecs[:, idx]
            joint = all(
                np.linalg.norm(r_ops[j] @ v - (v.conj() @ r_ops[j] @ v) / (v.conj() @ v) * v)
                < 1e-6 * max(1.0, np.linalg.norm(v))
                for j in range(d))
            if not joint:
                continue
            e = eps_vec @ v
            if abs(e) < 1e-8:
                continue
            candidates.append(v / e)
        for v in candidates:
            coords = []
            bad = False
            for x in v:
                c = _exactify(complex(x), orders, tol, denom_bound)
                if c is None:
                    bad = True
                    break
                coords.append(c)
            if bad:
                raise ExactificationFailed(
                    f"group-like candidate in {h.name} has a coordinate outside "
                    f"Q(zeta_L) for L in {orders} at denominator bound {denom_bound}")
            g = Elem(tuple(coords))
            if is_group_like(h, g) and not any(g == f for f in found):
                found.append(g)
        break
    key_order = 1
    for g in found:
        for c in g.coords:
            key_order = lcm(key_order, c.order)
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
