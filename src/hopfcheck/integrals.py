"""Integrals on the dual side, modular element, modular automorphisms.

A left integral here is a functional phi with (id (x) phi) D(a) = phi(a) 1
for every a; the right integral is psi = phi . S.  Both are unique up to a
scalar in finite dimension, and the code normalises the first nonzero
coordinate of phi to 1 so every downstream quantity is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CYC_ONE, CYC_ZERO, Cyc
from .errors import (HopfError, InconsistentSystem, NoIntegral, NonUniqueIntegral,
                     NotAutomorphism, NotFaithful, NotGroupLike, NotProportional,
                     RightInvarianceFailed, SingularMatrix)
from .hopf import Elem, Functional, HopfData, is_group_like
from .linalg import Mat, mat_inverse, solve_null_space
from .report import Check, fail, ok


def left_integral(h: HopfData) -> Functional:
    """Solve (id (x) phi) D(a) = phi(a) 1 coordinate-wise; the kernel must be a line."""
    d = h.dim
    rows = []
    for a in range(d):
        for i in range(d):
            row = [h.comult.get(a, i, j) for j in range(d)]
            row[a] = row[a] - h.unit.coords[i]
            rows.append(row)
    basis = solve_null_space(Mat.from_rows(rows))
    if not basis:
        raise NoIntegral(f"{h.name}: invariance system has no kernel")
    if len(basis) > 1:
        raise NonUniqueIntegral(f"{h.name}: invariance kernel has dimension {len(basis)}")
    v = basis[0]
    lead = next(c for c in v if not c.is_zero())
    return Functional(tuple(c / lead for c in v))


def right_integral(h: HopfData, phi: Functional) -> Functional:
    """psi = phi . S, then confirm (psi (x) id) D(a) = psi(a) 1 on the basis."""
    d = h.dim
    psi = [CYC_ZERO] * d
    for i in range(d):
        for k in range(d):
            c = h.antipode.get(k, i)
            if not c.is_zero():
                psi[i] = psi[i] + phi.coords[k] * c
    for a in range(d):
        acc = [CYC_ZERO] * d
        for i, j, c in h.comult_terms[a]:
            acc[j] = acc[j] + c * psi[i]
        want = tuple(psi[a] * u for u in h.unit.coords)
        if tuple(acc) != want:
            raise RightInvarianceFailed(f"{h.name}: phi.S is not right invariant at basis {a}")
    return Functional(tuple(psi))


def modular_element(h: HopfData, phi: Functional) -> Elem:
    """The group-like with (phi (x) id) D(a) = phi(a) delta for every a."""
    d = h.dim
    delta = None
    for a in range(d):
        v = [CYC_ZERO] * d
        for i, j, c in h.comult_terms[a]:
            v[j] = v[j] + c * phi.coords[i]
        fa = phi.coords[a]
        if fa.is_zero():
            if any(not x.is_zero() for x in v):
                raise InconsistentSystem(
                    f"{h.name}: row {a} forces phi(a) delta != 0 with phi(a) = 0")
        else:
            cand = tuple(x / fa for x in v)
            if delta is None:
                delta = cand
            elif delta != cand:
                raise InconsistentSystem(f"{h.name}: rows disagree on the modular element")
    if delta is None:
        raise InconsistentSystem(f"{h.name}: zero integral")
    e = Elem(delta)
    if not is_group_like(h, e):
        raise NotGroupLike(f"{h.name}: modular element is not group-like")
    # phi . S = phi( . delta) pins the convention down; check it on the basis
    for i in range(d):
        lhs = h.functional_of(phi, h.antipode_of(h.basis(i)))
        rhs = h.functional_of(phi, h.mul(h.basis(i), e))
        if lhs != rhs:
            raise InconsistentSystem(f"{h.name}: phi(S(a)) != phi(a delta) at basis {i}")
    return e


def gram_matrix(h: HopfData, f: Functional) -> Mat:
    """G[i][j] = f(e_i e_j), the bilinear form of a functional."""
    d = h.dim
    g = Mat.zero(d, d)
    for i in range(d):
        for j in range(d):
            acc = CYC_ZERO
            for k, c in h.mult_pairs[i][j]:
                fk = f.coords[k]
                if not fk.is_zero():
                    acc = acc + c * fk
            g.entries[i * d + j] = acc
    return g


def modular_automorphism(h: HopfData, f: Functional, label: str = "sigma") -> Mat:
    """The algebra automorphism with f(ab) = f(b rho(a)), as a matrix.

    Exists iff the bilinear Gram of f is invertible, and then rho equals
    G^-1 G^T.  Raises NotFaithful for a singular Gram and NotAutomorphism
    if the result fails to be a unital multiplicative bijection.
    """
    g = gram_matrix(h, f)
    try:
        ginv = mat_inverse(g)
    except SingularMatrix:
        raise NotFaithful(f"{h.name}: bilinear form of {label} source functional is degenerate")
    rho = ginv.mul(g.transpose())
    if h.apply(rho, h.unit) != h.unit:
        raise NotAutomorphism(f"{h.name}: {label} does not fix the unit")
    for i in range(h.dim):
        for j in range(h.dim):
            lhs = h.apply(rho, h.mul(h.basis(i), h.basis(j)))
            rhs = h.mul(h.apply(rho, h.basis(i)), h.apply(rho, h.basis(j)))
            if lhs != rhs:
                raise NotAutomorphism(f"{h.name}: {label} is not multiplicative at ({i},{j})")
    return rho


def scaling_constant(h: HopfData, phi: Functional) -> Cyc:
    """nu with phi . S^2 = nu phi."""
    d = h.dim
    comp = []
    for i in range(d):
        acc = CYC_ZERO
        s2i = h.antipode_of(h.antipode_of(h.basis(i)))
        for k, c in s2i.support:
            if not phi.coords[k].is_zero():
                acc = acc + phi.coords[k] * c
        comp.append(acc)
    lead = next(i for i in range(d) if not phi.coords[i].is_zero())
    nu = comp[lead] / phi.coords[lead]
    for i in range(d):
        if comp[i] != nu * phi.coords[i]:
            raise NotProportional(f"{h.name}: phi.S^2 is not proportional to phi")
    return nu


@dataclass
class ModularData:
    """Everything the duality and operator layers reuse."""
    phi: Functional
    psi: Functional
    delta: Elem
    delta_inv: Elem
    sigma: Mat
    sigma_prime: Mat
    nu: Cyc
    gram: Mat       # G[i][j] = phi(e_i e_j)
    gram_inv: Mat


def compute_modular(h: HopfData) -> ModularData:
    """All modular data; a HopfError raised on the way names its integral
    check in .stage, the Gram inverse counting as scaling-constant."""
    stage = "left-integral"
    try:
        phi = left_integral(h)
        stage = "right-integral"
        psi = right_integral(h, phi)
        stage = "modular-element"
        delta = modular_element(h, phi)
        stage = "modular-automorphism"
        sigma = modular_automorphism(h, phi, "sigma")
        stage = "modular-automorphism-right"
        sigma_prime = modular_automorphism(h, Functional(psi.coords), "sigma'")
        stage = "scaling-constant"
        nu = scaling_constant(h, phi)
        gram = gram_matrix(h, phi)
        gram_inv = mat_inverse(gram)
    except HopfError as e:
        e.stage = stage
        raise
    return ModularData(phi=phi, psi=psi, delta=delta,
                       delta_inv=h.antipode_of(delta),  # inverse of a group-like
                       sigma=sigma, sigma_prime=sigma_prime, nu=nu,
                       gram=gram, gram_inv=gram_inv)


# ---------------------------------------------------------------------------
# the compatibility identities tying the modular data together


def _s2_matrix(h: HopfData) -> Mat:
    return h.antipode.mul(h.antipode)


def modular_identity_checks(h: HopfData, md: ModularData) -> list:
    """Six exact identities; each failure reports its own location."""
    checks = []
    s = h.antipode
    s2 = _s2_matrix(h)

    law = "sigma(S(sigma'(a)))=S(a)"
    bad = next((i for i in range(h.dim)
                if h.apply(md.sigma, h.apply(s, h.apply(md.sigma_prime, h.basis(i))))
                != h.apply(s, h.basis(i))), None)
    checks.append(ok("modular-sandwich", law) if bad is None else
                  fail("modular-sandwich", law, f"fails at basis {bad}"))

    law = "delta sigma(a)=sigma'(a) delta"
    bad = next((i for i in range(h.dim)
                if h.mul(md.delta, h.apply(md.sigma, h.basis(i)))
                != h.mul(h.apply(md.sigma_prime, h.basis(i)), md.delta)), None)
    checks.append(ok("modular-conjugation", law) if bad is None else
                  fail("modular-conjugation", law, f"fails at basis {bad}"))

    law = "D(sigma(a))=(S^2(x)sigma)D(a)"
    bad = None
    for k in range(h.dim):
        lhs = h.coprod(h.apply(md.sigma, h.basis(k)))
        rhs: dict = {}
        for i, j, c in h.comult_terms[k]:
            vi = h.apply(s2, h.basis(i))
            vj = h.apply(md.sigma, h.basis(j))
            for a, ca in vi.support:
                for b, cb in vj.support:
                    key = (a, b)
                    add = c * ca * cb
                    v = rhs.get(key)
                    rhs[key] = add if v is None else v + add
        rhs = {k2: v for k2, v in rhs.items() if not v.is_zero()}
        if lhs != rhs:
            bad = k
            break
    checks.append(ok("modular-coproduct", law) if bad is None else
                  fail("modular-coproduct", law, f"fails at basis {bad}"))

    law = "[S^2,sigma]=[S^2,sigma']=[sigma,sigma']=0"
    pairs = [("S^2,sigma", s2, md.sigma), ("S^2,sigma'", s2, md.sigma_prime),
             ("sigma,sigma'", md.sigma, md.sigma_prime)]
    bad_pair = next((lbl for lbl, a, b in pairs if a.mul(b) != b.mul(a)), None)
    checks.append(ok("modular-commutation", law) if bad_pair is None else
                  fail("modular-commutation", law, f"[{bad_pair}] != 0"))

    law = "sigma(delta)=sigma'(delta)=nu^-1 delta"
    want = Elem(tuple(md.nu.inverse() * c for c in md.delta.coords))
    good = (h.apply(md.sigma, md.delta) == want
            and h.apply(md.sigma_prime, md.delta) == want)
    checks.append(ok("modular-scaling", law) if good else
                  fail("modular-scaling", law, "modular element scales wrongly"))

    law = "S((id(x)phi)(D(a)(1(x)b)))=(id(x)phi)((1(x)a)D(b))"
    bad2 = None
    for a in range(h.dim):
        for b in range(h.dim):
            lacc = [CYC_ZERO] * h.dim
            for i, j, c in h.comult_terms[a]:
                prod = h.mul(h.basis(j), h.basis(b))
                val = h.functional_of(md.phi, prod)
                if not val.is_zero():
                    lacc[i] = lacc[i] + c * val
            lhs = h.antipode_of(Elem(tuple(lacc)))
            racc = [CYC_ZERO] * h.dim
            for i, j, c in h.comult_terms[b]:
                prod = h.mul(h.basis(a), h.basis(j))
                val = h.functional_of(md.phi, prod)
                if not val.is_zero():
                    racc[i] = racc[i] + c * val
            if lhs != Elem(tuple(racc)):
                bad2 = (a, b)
                break
        if bad2 is not None:
            break
    checks.append(ok("modular-flip", law) if bad2 is None else
                  fail("modular-flip", law, f"fails at pair {bad2}"))
    return checks
