"""Represented form of the algebra: positivity, GNS construction, the
modular conjugation and commutant, and the operator reading of the fourth
antipode power.

This layer deliberately runs over floats.  Every exact identity has
already been checked upstream; here the point is that the same data, fed
through Cholesky and eigendecompositions, produces honest operators whose
relations hold to numerical tolerance.

The multiplication table is read into floats once per GNS build, as the
tensor M[i, j, k] = mult(i, j, k).  Left multiplication by e_a is M[a].T
and right multiplication by e_b is M[:, b].T, so the represented algebra
(C L_a C^-1) and its commutant (C R_b C^-1, see tomita_check) are both
batched products of C, a view of M and C^-1: d^4 work, d^3 memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import CYC_ONE
from .errors import NumericalFailure
from .hopf import HopfData
from .integrals import ModularData
from .linalg import Elem, Mat, Tensor3, pairing
from .report import Check, fail, ok


def elem_float(e: Elem) -> np.ndarray:
    out = np.zeros(e.dim, dtype=complex)
    for i, c in e.support:
        out[i] = c.to_complex()
    return out


def mat_float(m: Mat) -> np.ndarray:
    out = np.zeros((m.rows, m.cols), dtype=complex)
    for j, col in enumerate(m.images):
        for i, c in col.support:
            out[i, j] = c.to_complex()
    return out


def tensor_float(t: Tensor3) -> np.ndarray:
    """out[i, j, k] = t(i, j, k), in one pass over the nonzeros."""
    out = np.zeros((t.dim,) * 3, dtype=complex)
    for key, c in t.items():
        out[key] = c.to_complex()
    return out


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
    g = mat_float(b)
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


@dataclass
class GNSData:
    """Operators of one GNS representation; inner product <u,v> = v^H u."""
    C: np.ndarray            # isometry coordinates: Lambda(a) = C a
    C_inv: np.ndarray
    M: np.ndarray            # M[i, j, k] = mult(i, j, k), so L_a = M[a].T, R_b = M[:, b].T
    rep: np.ndarray          # rep[i] = C L_i C^-1, the represented basis element e_i
    A: np.ndarray            # star lift: (Lambda a)^* -> A conj(.)
    nabla: np.ndarray
    nabla_inv: np.ndarray
    J: np.ndarray            # modular conjugation, as J . conj


def gns_build(h: HopfData, b: Mat, tol: float = 1e-9) -> GNSData:
    """Cyclic representation from a positive faithful state, given by its
    exact star-Gram b (integrals.star_gram)."""
    g = mat_float(b)
    g = (g + g.conj().T) / 2
    try:
        ell = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"{h.name}: state Gram is not positive definite") from e
    c = ell.conj().T
    c_inv = np.linalg.inv(c)
    m = tensor_float(h.mult)
    rep = c @ m.transpose(0, 2, 1) @ c_inv
    star_f = mat_float(h.star)
    a_mat = c @ star_f @ np.conj(c_inv)
    nabla = a_mat.T @ np.conj(a_mat)
    evs, vecs = np.linalg.eigh((nabla + nabla.conj().T) / 2)
    if evs.min() <= tol:
        raise NumericalFailure(f"{h.name}: modular operator is not positive definite")
    inv_sqrt = vecs @ np.diag(evs ** -0.5) @ vecs.conj().T
    j_mat = a_mat @ np.conj(inv_sqrt)
    return GNSData(C=c, C_inv=c_inv, M=m, rep=rep, A=a_mat,
                   nabla=nabla, nabla_inv=np.linalg.inv(nabla), J=j_mat)


def _close(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    return np.linalg.norm(x - y) <= tol * max(1.0, np.linalg.norm(y))


def _norms(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix x[j] of a contiguous stack."""
    v = x.reshape(len(x), -1).view(float)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def gns_representation_check(h: HopfData, gns: GNSData, tol: float = 1e-9) -> Check:
    """rep is a unital *-homomorphism and the star lift squares to the identity
    (P, the rescaling generator, is the identity at finite dimension).

    Multiplicativity rep(e_i e_j) = rep(e_i) rep(e_j) runs over i in
    h.generators only (every i when there are none, at d = 1), once
    rep(1) = 1 has passed, by the argument of report.first_failure and of
    tomita_check method 1.  The x with rep(xb) = rep(x) rep(b) for every b
    form a subspace X, since rep is linear; X holds 1, and X is closed
    under products, since A is associative (checked exactly upstream):
    rep((xy)b) = rep(x(yb)) = rep(x) rep(y) rep(b) = rep(xy) rep(b).  So X
    holds every monomial of the generators, and those span A.  The first
    failing i of the scan over every i is a generator by the same argument,
    so the detail names the pair (i, j) that scan would.  That takes the
    loop from d^5 to |generators| d^4 work."""
    d = h.dim
    if not _close(np.tensordot(elem_float(h.unit), gns.rep, 1), np.eye(d), tol):
        return fail("gns-representation", "unit is not represented by the identity")
    # all j at once, _close on each pair: rep(e_i) rep(e_j) against
    # sum_k M[i,j,k] rep(e_k), in two d^3 buffers reused for every i
    got, want = np.empty((d, d, d), dtype=complex), np.empty((d, d, d), dtype=complex)
    for i in h.generators or range(d):
        np.matmul(gns.rep[i], gns.rep, out=got)
        np.dot(gns.M[i], gns.rep.reshape(d, d * d), out=want.reshape(d, d * d))
        bound = tol * np.maximum(1.0, _norms(want))
        bad = np.flatnonzero(~(_norms(np.subtract(got, want, out=got)) <= bound))
        if bad.size:
            return fail("gns-representation", f"multiplicativity fails at ({i},{bad[0]})")
    # rep(e_i)^H against rep(e_i^*) = sum_k star(k, i) rep(e_k), all i at once
    star_f = mat_float(h.star)
    want = np.tensordot(star_f.T, gns.rep, 1)
    bound = tol * np.maximum(1.0, _norms(want))
    bad = np.flatnonzero(~(_norms(gns.rep.conj().transpose(0, 2, 1) - want) <= bound))
    if bad.size:
        return fail("gns-representation", f"adjoint property fails at basis {bad[0]}")
    # T = A . conj implements star on the cyclic vector image, and T^2 = 1
    for i in range(d):
        v = gns.C[:, i]
        sv = gns.C @ star_f[:, i]
        if not _close(gns.A @ np.conj(v), sv, tol):
            return fail("gns-representation", f"star lift fails at basis {i}")
    if not _close(gns.A @ np.conj(gns.A), np.eye(d), tol):
        return fail("gns-representation", "star lift does not square to the identity")
    return ok("gns-representation")


def right_regular(gns: GNSData) -> np.ndarray:
    """T[b] = C R_b C^-1: right multiplication by e_b, carried to the GNS
    space like rep.  tomita_check shows that the T[b] span rep(A)'."""
    return gns.C @ gns.M.transpose(1, 2, 0) @ gns.C_inv


def tomita_check(h: HopfData, gns: GNSData, tol: float = 1e-8) -> Check:
    """J is an involutive antiunitary, J nabla J = nabla^-1, nabla is the
    identity (so invariance of the algebra under its flow is automatic),
    and conjugating the represented algebra by J lands in (all of) its
    commutant, whose dimension is confirmed twice.

    The commutant is known in closed form.  gns_build sets rep(a) =
    C L_a C^-1, where L_a is left multiplication on A.  Let X commute with
    every L_a.  Then X(a) = X(L_a 1) = L_a X(1) = a X(1), so X = R_{X(1)},
    right multiplication by X(1); conversely every R_b commutes with every
    L_a by associativity.  So rep(A)' is exactly the span of the
    T_b = C R_b C^-1 (right_regular), and its dimension is exactly d, since
    R_b(1) = b (End_A(A) = A^op).  The two methods each cost d^4:

      1. every T_b commutes with rep(g) for the generators g of h, and the
         T_b span dimension d.  The generators are enough because rep is
         multiplicative (gns-representation): what commutes with every
         rep(g) commutes with rep of every monomial in them, and those
         monomials span A.  At d = 1 there are no generators and A is
         spanned by its unit.
      2. J rep(A) J spans dimension d and lies in span{T_b}: each J rep(e_i) J
         leaves no residual after projection onto an orthonormal (QR) basis
         of the T_b.

    Spans are read from d^2 x d column matrices, one column per operator."""
    d = h.dim
    if not _close(gns.J @ np.conj(gns.J), np.eye(d), tol):
        return fail("tomita-commutant", "J is not an involution")
    if not _close(gns.J @ gns.J.conj().T, np.eye(d), tol):
        return fail("tomita-commutant", "J is not antiunitary")
    jnj = gns.J @ np.conj(gns.nabla) @ np.conj(gns.J)
    if not _close(jnj, gns.nabla_inv, tol):
        return fail("tomita-commutant", "J nabla J != nabla^-1")
    nabla_dist = np.linalg.norm(gns.nabla - np.eye(d))
    if nabla_dist > tol:
        return fail("tomita-commutant",
                    f"modular operator is not the identity, distance {nabla_dist:.3g}")
    t = right_regular(gns)
    for g in h.generators or range(d):
        tr = t @ gns.rep[g]
        gap = np.linalg.norm(gns.rep[g] @ t - tr, axis=(1, 2))
        bad = np.flatnonzero(gap > tol * np.maximum(1.0, np.linalg.norm(tr, axis=(1, 2))))
        if bad.size:
            return fail("tomita-commutant",
                        f"right multiplication by e_{bad[0]} does not commute with rep(e_{g})")
    t_cols = t.reshape(d, d * d).T
    s = np.linalg.svd(t_cols, compute_uv=False)
    comm_dim = int(np.sum(s > tol * max(1.0, s[0])))
    if comm_dim != d:
        return fail("tomita-commutant", f"commutant dimension {comm_dim} != {d}")
    x_cols = (gns.J @ np.conj(gns.rep) @ np.conj(gns.J)).reshape(d, d * d).T
    jmj_dim = int(np.linalg.matrix_rank(x_cols, tol=1e-6))
    if jmj_dim != d:
        return fail("tomita-commutant", f"J rep(A) J spans dimension {jmj_dim} != {d}")
    q = np.linalg.qr(t_cols)[0]
    resid = np.linalg.norm(x_cols - q @ (q.conj().T @ x_cols), axis=0)
    bad = np.flatnonzero(resid > tol * np.maximum(1.0, np.linalg.norm(x_cols, axis=0)))
    if bad.size:
        return fail("tomita-commutant",
                    f"J rep(A) J leaves the commutant, residual {resid[bad[0]]:.3g}")
    return ok("tomita-commutant")


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


def operator_radford_check(h: HopfData, md: ModularData, delta_hat: Elem, gns: GNSData,
                           gns_dual: GNSData, tol: float = 1e-9) -> Check:
    """Operator form of the fourth-power identity on the represented side.

    The Fourier transform, read through both GNS isometries, is a unitary
    V; the four candidate factors (modular group-like on each side, each
    also conjugated by its modular involution) are all trivial here, their
    product is the identity, the transported dual modular flow fixes the
    represented algebra pointwise, and conjugating rep(delta) by the
    transported dual involution inverts it.
    """
    d = h.dim
    gram_f = mat_float(md.gram)
    v = gns.C @ np.linalg.inv(gram_f) @ gns_dual.C_inv
    if not _close(v.conj().T @ v, np.eye(d), max(tol, 1e-9)):
        return fail("operator-radford", "Fourier transport is not unitary")
    v_inv = np.linalg.inv(v)

    def rep_of(g: GNSData, x: Elem) -> np.ndarray:
        return np.tensordot(elem_float(x), g.rep, 1)

    f1 = rep_of(gns, md.delta)
    f2 = gns.J @ np.conj(f1) @ np.conj(gns.J)
    rhat = rep_of(gns_dual, delta_hat)
    f3 = v @ rhat @ v_inv
    f4 = v @ (gns_dual.J @ np.conj(rhat) @ np.conj(gns_dual.J)) @ v_inv
    eye = np.eye(d)
    for label, f in (("rep(delta)", f1), ("J rep(delta) J", f2),
                     ("transported rephat(deltahat)", f3),
                     ("transported Jhat rephat Jhat", f4)):
        if not _close(f, eye, tol):
            return fail("operator-radford", f"factor {label} is not the identity")
    if not _close(f1 @ f2 @ f3 @ f4, eye, tol):
        return fail("operator-radford", "factor product is not the identity")

    nabla_hat_t = v @ gns_dual.nabla @ v_inv
    nabla_hat_t_inv = np.linalg.inv(nabla_hat_t)
    for i in range(d):
        if not _close(nabla_hat_t @ gns.rep[i] @ nabla_hat_t_inv, gns.rep[i],
                      max(tol, 1e-8)):
            return fail("operator-radford", f"transported dual modular flow moves rep(e_{i})")

    j_hat_t = v @ gns_dual.J @ np.conj(v_inv)
    lhs = j_hat_t @ np.conj(f1) @ np.conj(j_hat_t)
    if not _close(lhs, rep_of(gns, md.delta_inv), max(tol, 1e-8)):
        return fail("operator-radford", "Jhat conjugation does not invert rep(delta)")
    return ok("operator-radford")
