"""The fourth power of the antipode and its square-root refinements."""

from hopfcheck import s2_order, s_order, sweedler, taft
from hopfcheck.radford import group_like_roots


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
        got = (res.values["s_order"], res.values["s2_order"])
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
