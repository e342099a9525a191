"""The fourth power of the antipode and its square-root refinements."""

import dataclasses
import itertools

import pytest

from hopfcheck import (CYC_ONE, CYC_ZERO, Mat, act_left, act_right, pairing, run_pipeline,
                       s2_order, s_order, sweedler, taft)
from hopfcheck.cli import report_values
from hopfcheck.radford import group_like_roots
from helpers import pair_scan, products


def _check(pipelines, name, check_name):
    return [c for c in pipelines[name].checks if c.name == check_name][0]


def test_fourth_power_identity_whole_zoo(pipelines):
    for name, res in pipelines.items():
        c = _check(pipelines, name, "radford-s4")
        assert c.status == "PASS", f"{name}: {c.line()}"


def test_factorization_whole_zoo(pipelines):
    for name in pipelines:
        c = _check(pipelines, name, "radford-factorization")
        assert c.status == "PASS", f"{name}: {c.line()}"


def test_sweedler_fourth_power_is_identity_but_square_is_not():
    h = sweedler()
    s = h.antipode
    s2 = s.mul(s)
    assert not s2.is_identity()
    assert s2.mul(s2).is_identity()
    assert s_order(h) == 4
    assert s2_order(h) == 2


def test_sweedler_conjugation_witnesses(pipelines, zoo):
    # S^2 = conjugation by g even though both modular elements play:
    # delta = g and the dual side contributes through the character
    h = zoo["sweedler"]
    md = pipelines["sweedler"].values["modular"]
    delta_hat = pipelines["sweedler"].values["delta_hat"]
    assert md.delta == h.basis(1)
    hd = pipelines["sweedler"].values["dual"]
    assert hd.mul(delta_hat, delta_hat) == hd.unit
    assert delta_hat != hd.unit  # not counimodular
    s2 = h.s2
    for i in range(4):
        a = h.basis(i)
        conj = h.mul_many(h.basis(1), a, h.basis(1))
        assert s2.apply(a) == conj


def test_orders_across_zoo(pipelines):
    expected = {
        # inversion is trivial exactly when every element is an involution
        "C[Z2]": (1, 1), "C[Z3]": (2, 1), "C[Z6]": (2, 1), "C[S3]": (2, 1),
        "F(Z2)": (1, 1), "F(Z3)": (2, 1), "F(Z6)": (2, 1), "F(S3)": (2, 1),
        "sweedler": (4, 2), "taft(2)": (4, 2), "taft(3)": (6, 3),
        "sweedler(x)C[Z2]": (4, 2), "sweedler(x)sweedler": (4, 2),
    }
    for name, res in pipelines.items():
        values = report_values(res)
        got = (values["s_order"], values["s2_order"])
        assert got == expected[name], name


def test_taft3_half_power_passes(pipelines):
    c = _check(pipelines, "taft(3)", "s2-half-power")
    assert c.status == "PASS", c.line()


def test_sweedler_half_power_skips(pipelines):
    # delta = g has no group-like square root in a basis of 2 group-likes
    c = _check(pipelines, "sweedler", "s2-half-power")
    assert c.status == "SKIP"
    assert "square-root" in c.detail


def test_conjugation_form_on_kac_members(pipelines):
    for name in ("C[Z2]", "C[S3]", "F(Z3)", "F(S3)"):
        c = _check(pipelines, name, "s2-conjugation")
        assert c.status == "PASS", f"{name}: {c.line()}"


def test_conjugation_form_skips_when_not_counimodular(pipelines):
    c = _check(pipelines, "sweedler", "s2-conjugation")
    assert c.status == "SKIP"
    assert "counimodular" in c.detail


def test_group_like_roots():
    h = taft(3)
    from hopfcheck import find_group_likes
    likes = find_group_likes(h)
    g = h.basis(1)
    g2 = h.mul(g, g)
    roots = group_like_roots(h, likes, g)
    # r*r = g over the cyclic group of order 3: r = g^2
    assert roots == [g2]
    assert h.mul(g2, g2) == g


def test_group_like_roots_read_through_s_match_the_squares(pipelines):
    # g^2 = t exactly when g = t S(g), as S(g) = g^-1 for a group-like g;
    # every group-like of every member and dual serves as a target
    targets = 0
    for res in pipelines.values():
        v = res.values
        for a, likes in ((res.h, v["group_likes"]), (v["dual"], v["dual_likes"])):
            for target in likes:
                want = [g for g in likes if a.mul(g, g) == target]
                assert group_like_roots(a, likes, target) == want, (a.name, target)
                targets += 1
    assert targets == sum(len(res.values["group_likes"]) + len(res.values["dual_likes"])
                          for res in pipelines.values())


def test_taft2_collapses_to_sweedler():
    # q = -1 recovers the four dimensional example exactly, all but its star
    import dataclasses

    from hopfcheck.hopf import same_structure
    assert same_structure(taft(2), dataclasses.replace(sweedler(), star=None))
    assert not same_structure(taft(2), sweedler())


def _twist_by_pairs(h, phi):
    """The twist rows of counimodular_check as they were: phi(e_i e_j)
    against phi(e_j S^2(e_i)) on every pair, in lexicographic order."""
    b, p, s2 = h.basis, products(h), h.s2.images
    return pair_scan(h.dim, ("phi twist fails at ({0},{1})",
                             lambda i, j: pairing(phi, p[i][j]),
                             lambda i, j: pairing(phi, h.mul(b(j), s2[i]))))


def _trace_by_pairs(h, phi, root):
    """The trace rows as they were: phi(e_i e_j r) against phi(e_j e_i r)."""
    p = products(h)
    return pair_scan(h.dim, ("trace property fails at ({0},{1})",
                             lambda i, j: pairing(phi, h.mul(p[i][j], root)),
                             lambda i, j: pairing(phi, h.mul(p[j][i], root))))


def _with_cached(h, **maps):
    """A copy of h whose cached S^2 or S^4 is replaced, s2= or s4=."""
    h2 = dataclasses.replace(h)
    h2.__dict__.update(maps)
    return h2


def _raised(m, k, i):
    """m with entry (k, i) raised by 1."""
    entries = {(r, j): c for j, col in enumerate(m.images) for r, c in col.support}
    entries[k, i] = entries.get((k, i), CYC_ZERO) + CYC_ONE
    return Mat.of(m.rows, m.cols, entries)


def _factorization_by_rows(h, md, hd, delta_hat):
    """The rows radford_factorization compared before its proof: S^2 fixes
    delta, the left and right factors, the inner relation and the
    composition, the first failing one's detail, or None."""
    s2, b, delta_hat_inv = h.s2, h.basis, hd.antipode_of(delta_hat)
    if s2.apply(md.delta) != md.delta:
        return "S^2 moves the modular element"
    for i in range(h.dim):
        sp = md.sigma_prime.images[i]
        composed = s2.apply(md.sigma_inv.apply(s2.apply(sp)))
        rows = (("left factor", act_left(h, delta_hat, b(i)), s2.apply(md.sigma_inv.images[i])),
                ("right factor", act_right(h, b(i), delta_hat_inv), s2.apply(sp)),
                ("inner relation", sp, h.mul_many(md.delta, md.sigma.images[i], md.delta_inv)),
                ("composition", h.mul_many(md.delta_inv, composed, md.delta), h.s4.images[i]))
        for label, lhs, rhs in rows:
            if lhs != rhs:
                return f"{label} fails at basis {i}"
    return None


def _conjugation_by_pairs(h, md, likes):
    """s2-conjugation as it was compared past its counimodular gate: the
    twist pairs; then the trace pairs at the first root of delta that
    implements S^2, or, when none does, S^4(a) = delta^-1 a delta."""
    want = _twist_by_pairs(h, md.phi)
    if want is not None:
        return want
    s2, b = h.s2.images, h.basis
    root = next((r for r in group_like_roots(h, likes, md.delta)
                 if all(h.mul_many(h.antipode_of(r), b(i), r) == s2[i] for i in range(h.dim))),
                None)
    if root is not None:
        return _trace_by_pairs(h, md.phi, root)
    return next((f"S^4 inner form fails at basis {i}" for i in range(h.dim)
                 if h.s4.images[i] != h.mul_many(md.delta_inv, b(i), md.delta)), None)


@pytest.mark.parametrize("name", ["C[Z3]", "C[S3]", "F(S3)", "sweedler"])
def test_a_raised_s2_or_s4_fails_an_owner_before_the_proof_checks(pipelines, zoo, name):
    # radford-factorization and s2-conjugation compare nothing beyond
    # deltahat = 1^: their laws are rows of modular-conjugation,
    # dual-modular-links and radford-s4.  Each S^2 or S^4 with one entry
    # raised, where the rows they compared before fail, must FAIL a check
    # before them, and both must skip
    h, v = zoo[name], pipelines[name].values
    md, hd, delta_hat, likes = v["modular"], v["dual"], v["delta_hat"], v["group_likes"]
    assert _factorization_by_rows(h, md, hd, delta_hat) is None
    keys = list(itertools.product(range(h.dim), repeat=2))
    copies = [_with_cached(h, s2=_raised(h.s2, *key)) for key in keys]
    copies += [_with_cached(h, s4=_raised(h.s4, *key)) for key in keys]
    seen = set()
    for h2 in copies:
        wants = [_factorization_by_rows(h2, md, hd, delta_hat)]
        if delta_hat == h.counit:
            wants.append(_conjugation_by_pairs(h2, md, likes))
        checks = run_pipeline(h2).checks
        names = [c.name for c in checks]
        at = names.index("radford-factorization")
        if any(want is not None for want in wants):
            assert any(c.status == "FAIL" for c in checks[:at]), wants
            for c in checks[at:at + 2]:
                assert c.line().startswith(f"CHECK {c.name} SKIP:prerequisite-failed "), c.line()
        seen.update(want for want in wants if want is not None)
    assert any(w.startswith("composition") for w in seen)
    assert len(seen) > h.dim
