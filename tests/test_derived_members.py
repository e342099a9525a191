"""Members derived from the zoo, with invariants that follow from the zoo's.

Each zoo member H yields four more Hopf *-algebras on the same space:
H^op (product reversed, antipode S^-1), H^cop (coproduct flipped,
antipode S^-1), H^op,cop (both, antipode S), all three with H's star, and
the dual H* (duality.dual_hopf).  Their greedy generators differ from H's,
so every law that runs on generators meets other generating sets here.
"""

import pytest

from hopfcheck import dual_hopf, run_pipeline, standard_zoo
from helpers import cop, op, opcop

DERIVE = {"op": op, "cop": cop, "opcop": opcop, "dual": dual_hopf}


@pytest.mark.parametrize("derive", sorted(DERIVE))
@pytest.mark.parametrize("name", [h.name for h in standard_zoo()])
def test_a_derived_member_passes_with_the_invariants_of_its_base(pipelines, zoo, name, derive):
    """No check FAILs, and the invariants move as follows.

    - Group-likes.  A group-like is g with D(g) = g (x) g and eps(g) = 1,
      which D^cop = flip D states too, and which reads no product, so
      G(H^op) = G(H^cop) = G(H^op,cop) = G(H).  G(H*) is the set of
      characters of H, the dual group-likes of H, and G((H*)*) = G(H) is
      the dual group-likes of H*.
    - Scaling constant.  The left integral phi of H, (id(x)phi)D(a) =
      phi(a)1, reads only D and the unit, so it is the left integral of
      H^op, whose antipode is S^-1; phi.S^2 = nu phi gives phi.S^-2 =
      nu^-1 phi, so nu(H^op) = nu^-1.  The left integral of H^cop is
      (phi(x)id)D(a) = phi(a)1, the right integral psi = phi.S of H, and
      psi.S^2 = phi.S^2.S = nu psi; with antipode S^-1 that gives
      nu(H^cop) = nu^-1, and with S, nu(H^op,cop) = nu.  For the dual,
      the sigma link sigma(a) = deltahat^-1|>S^2(a) at a = delta, where
      S^2(delta) = delta, with modular-scaling sigma(delta) = nu^-1 delta,
      gives nu^-1 = deltahat^-1(delta), so nu(H) = <deltahat, delta>.
      Since (H*)* = H, the modular elements of H* are deltahat and delta,
      and nu(H*) = <delta, deltahat> = nu(H).
    - Positivity.  Each derived member carries a star exactly when H
      does.  (ab)* = b*a* reads as a*b* in H^op, and phi(a* .op a) =
      phi(a a*) ranges over the same values as phi(b* b).  H^cop has left
      integral psi = phi( . delta), which is phi once phi is positive
      (delta = 1, kac-collapse), and the dual of a Kac algebra is one.
      Each derivation undoes itself ((H^op)^op = H, (H*)* = H), so a
      positive derived member has a positive base, and the verdict
      (positive, not-positive or no-star) carries over unchanged.
    """
    base = pipelines[name].values
    res = run_pipeline(DERIVE[derive](zoo[name]))
    assert [c.line() for c in res.checks if c.status == "FAIL"] == []
    v = res.values
    if derive == "dual":
        assert len(v["group_likes"]) == len(base["dual_likes"])
        assert len(v["dual_likes"]) == len(base["group_likes"])
    else:
        assert len(v["group_likes"]) == len(base["group_likes"])
    assert v["positivity"][0] == base["positivity"][0]
    nu = base["modular"].nu
    want = nu.inverse() if derive in ("op", "cop") else nu
    assert v["modular"].nu == want
