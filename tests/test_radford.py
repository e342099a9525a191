"""The fourth power of the antipode and its square-root refinements."""

import dataclasses
import itertools

from hopfcheck import CYC_ONE, CYC_ZERO, Elem, Mat, pairing, s2_order, s_order, sweedler, taft
from hopfcheck.cli import report_values
from hopfcheck.radford import counimodular_check, group_like_roots
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


def _with_s2(h, s2):
    """A copy of h whose cached S^2 is s2."""
    h2 = dataclasses.replace(h)
    h2.__dict__["s2"] = s2
    return h2


def _raised(m, k, i):
    """m with entry (k, i) raised by 1."""
    entries = {(r, j): c for j, col in enumerate(m.images) for r, c in col.support}
    entries[k, i] = entries.get((k, i), CYC_ZERO) + CYC_ONE
    return Mat.of(m.rows, m.cols, entries)


def _stage(pipelines, name):
    v = pipelines[name].values
    return v["modular"], v["dual"], v["delta_hat"], v["group_likes"]


def test_twist_detail_is_the_first_failing_pair_of_the_pair_scan(pipelines, zoo):
    seen = set()
    for name in ("C[Z3]", "C[S3]", "F(S3)"):
        h = zoo[name]
        md, hd, delta_hat, likes = _stage(pipelines, name)
        for k, i in itertools.product(range(h.dim), repeat=2):
            h2 = _with_s2(h, _raised(h.s2, k, i))
            want = _twist_by_pairs(h2, md.phi)
            assert want is not None
            check = counimodular_check(h2, md, delta_hat, likes)
            assert (check.status, check.detail) == ("FAIL", want), (name, k, i)
            seen.add(want)
    # the members above have symmetric Grams; forced past the counimodular
    # gate, the members below put G^T and G apart
    for name in ("sweedler", "taft(2)", "taft(3)", "sweedler(x)C[Z2]"):
        h = zoo[name]
        md, hd, _, likes = _stage(pipelines, name)
        assert md.gram != md.gram.transpose()
        for h2 in [h] + [_with_s2(h, _raised(h.s2, k, i))
                         for k, i in itertools.product(range(h.dim), repeat=2)]:
            want = _twist_by_pairs(h2, md.phi)
            check = counimodular_check(h2, md, h2.counit, likes)
            if want is not None:
                assert (check.status, check.detail) == ("FAIL", want), (name, check.line())
                seen.add(want)
            else:
                assert "twist" not in check.detail
    assert len(seen) > 20


def _conjugating_root(h, md, likes):
    s2 = h.s2.images
    return next(r for r in group_like_roots(h, likes, md.delta)
                if all(h.mul_many(h.antipode_of(r), h.basis(i), r) == s2[i]
                       for i in range(h.dim)))


def test_trace_detail_is_the_first_failing_pair_of_the_pair_scan(pipelines, zoo):
    statuses = []
    for name in ("C[Z3]", "C[S3]", "F(S3)"):
        h = zoo[name]
        md, hd, delta_hat, likes = _stage(pipelines, name)
        b, root = h.basis, _conjugating_root(h, md, likes)
        root_inv = h.antipode_of(root)

        def phi_r(phi):
            return Elem.of(h.dim, ((m, pairing(phi, h.mul(b(m), root))) for m in range(h.dim)))

        for k in range(h.dim):
            # phi + e_k^(. r^-1), whose phi( . r) is phi_r with coordinate k raised by 1
            bump = Elem.of(h.dim, ((m, c) for m in range(h.dim)
                                   for j, c in h.mul(b(m), root_inv).support if j == k))
            phi = Elem.of(h.dim, [*md.phi.support, *bump.support])
            assert phi_r(phi) == Elem.of(h.dim, [*phi_r(md.phi).support, (k, CYC_ONE)])
            check = counimodular_check(h, dataclasses.replace(md, phi=phi), delta_hat, likes)
            want = _trace_by_pairs(h, phi, root)
            assert (check.status, check.detail) == (("PASS", "") if want is None
                                                    else ("FAIL", want)), (name, k)
            statuses.append(check.status)
    assert "FAIL" in statuses and "PASS" in statuses
