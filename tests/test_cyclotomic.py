"""Exact cyclotomic arithmetic: field axioms, reduction, rendering."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import CYC_MINUS_ONE, CYC_ONE, CYC_ZERO, Cyc
from hopfcheck.errors import FormatError

ORDERS = [1, 2, 3, 4, 6, 8, 12]


@st.composite
def cycs(draw, order=None):
    if order is None:
        order = draw(st.sampled_from(ORDERS))
    val = CYC_ZERO
    for _ in range(draw(st.integers(0, 3))):
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 4))
        k = draw(st.integers(0, order - 1))
        val = val + Cyc.rational(num, den) * Cyc.root(order, k)
    return val


@given(cycs(), cycs(), cycs())
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + CYC_ZERO == a
    assert a * CYC_ONE == a
    assert a - a == CYC_ZERO


def _embedded_add(x, y, sign=1):
    a, b = Cyc._common(x, y)
    return Cyc(a.order, [p + sign * q for p, q in zip(a.coeffs, b.coeffs)], reduce=False)


def _embedded_mul(x, y):
    a, b = Cyc._common(x, y)
    prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
    for i, p in enumerate(a.coeffs):
        for j, q in enumerate(b.coeffs):
            prod[i + j] += p * q
    return Cyc(a.order, prod)


@given(cycs(order=1), cycs())
@settings(max_examples=120, deadline=None)
def test_rational_fast_paths_keep_the_embedded_representation(r, c):
    # rendering reads the stored order and coefficients, so value equality
    # is not enough: a rational operand must give exactly what embedding
    # both operands into the common field gives
    cases = [(r * c, _embedded_mul(r, c)), (c * r, _embedded_mul(c, r)),
             (r + c, _embedded_add(r, c)), (c + r, _embedded_add(c, r)),
             (r - c, _embedded_add(r, c, -1)), (c - r, _embedded_add(c, r, -1))]
    for got, want in cases:
        assert (got.order, got.coeffs) == (want.order, want.coeffs)
    a, b = Cyc._common(r, c)
    assert (r == c) == (c == r) == (a.coeffs == b.coeffs)


@given(cycs())
@settings(max_examples=80, deadline=None)
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == CYC_ONE
        assert CYC_ONE / a == a.inverse()


@given(cycs(), cycs())
@settings(max_examples=80, deadline=None)
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(cycs(), cycs())
@settings(max_examples=80, deadline=None)
def test_to_complex_homomorphism(a, b):
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-9


@given(cycs())
@settings(max_examples=80, deadline=None)
def test_conjugate_matches_complex_conjugation(a):
    assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-9


@given(st.sampled_from(ORDERS), st.data())
@settings(max_examples=80, deadline=None)
def test_text_parse_round_trip(order, data):
    a = data.draw(cycs(order=order))
    assert Cyc.parse(a.text(order), order) == a


@given(st.integers(-50, 50), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_rational_text_needs_no_embedding(num, den):
    c = Cyc.rational(num, den)
    for n in range(1, 13):
        assert c.text(n) == c.embed(n).text(n)


@given(cycs(), cycs())
@settings(max_examples=60, deadline=None)
def test_sort_key_consistent_with_equality(a, b):
    n = a.order * b.order
    assert (a.sort_key(n) == b.sort_key(n)) == (a == b)


def test_root_powers_and_reduction():
    z3 = Cyc.root(3)
    assert z3 * z3 * z3 == CYC_ONE
    assert z3 * z3 + z3 + CYC_ONE == CYC_ZERO  # minimal polynomial of zeta_3
    z4 = Cyc.root(4)
    assert z4 * z4 == CYC_MINUS_ONE
    assert Cyc.root(2) == CYC_MINUS_ONE  # zeta_2 collapses to a rational
    assert Cyc.root(5, 0) == CYC_ONE
    total = CYC_ZERO
    for k in range(5):
        total = total + Cyc.root(5, k)
    assert total == CYC_ZERO  # geometric sum over all fifth roots


def test_cross_order_identities():
    # zeta_6 = 1 + zeta_3 and mixed-order equality sees through embeddings
    assert Cyc.root(6) == CYC_ONE + Cyc.root(3)
    assert Cyc.root(12, 2) == Cyc.root(6)
    assert Cyc.root(6, 3) == CYC_MINUS_ONE


def test_inverse_oracle_order_four():
    # 1/(1+i) = (1-i)/2, frozen by hand
    val = (CYC_ONE + Cyc.root(4)).inverse()
    assert val == Cyc.rational(1, 2) - Cyc.rational(1, 2) * Cyc.root(4)


def test_inverse_oracle_order_three():
    # 1/(1-zeta_3): norm of (1-zeta_3) is 3, so the inverse is (1-zeta_3^2)/3
    val = (CYC_ONE - Cyc.root(3)).inverse()
    assert val == (CYC_ONE - Cyc.root(3, 2)) * Cyc.rational(1, 3)
    assert abs(val.to_complex() - 1 / (1 - cmath.exp(2j * cmath.pi / 3))) < 1e-12


def test_rational_collapse():
    a = Cyc.root(3) + Cyc.root(3, 2)  # = -1
    assert (a.order, a.coeffs) == (1, (Fraction(-1),))


def test_text_canonical_forms():
    assert CYC_ZERO.text() == "0"
    assert CYC_MINUS_ONE.text() == "-1"
    assert Cyc.rational(-3, 2).text() == "-3/2"
    a = Cyc.rational(1, 2) - Cyc.rational(1, 2) * Cyc.root(4)
    assert a.text() == "1/2-1/2*z"
    assert Cyc.root(3, 2).text() == "-1-z"  # reduced power basis, degree < 2
    assert Cyc.root(8, 2).text() == "z^2"
    assert (CYC_MINUS_ONE - Cyc.root(3)).text() == "-1-z"
    # rendering relative to a larger field embeds and reduces first
    assert Cyc.root(3).text(6) == "-1+z"  # zeta_3 = zeta_6 - 1


def test_parse_rejects_garbage():
    for bad in ["", "2**z", "z^", "1..5", "q", "z2", "1/",
                "--1", "+", "1+*z", "z^-1"]:
        with pytest.raises(ValueError):
            Cyc.parse(bad, 4)


def test_parse_rejects_a_nonpositive_field_order():
    for order in (0, -3):
        with pytest.raises(FormatError, match="field order must be positive"):
            Cyc.parse("z", order)


def test_parse_accepts_spaces_and_order_reduction():
    assert Cyc.parse("1 - z ^ 2", 4, ) == CYC_ONE + CYC_ONE  # z^2 = -1 at order 4
    assert Cyc.parse("z^7", 4) == Cyc.root(4, 3)


def test_immutability_and_no_hash():
    a = Cyc.root(4)
    with pytest.raises(AttributeError):
        a.order = 8
    assert Cyc.__hash__ is None


def test_embed_refuses_non_multiples():
    with pytest.raises(ValueError):
        Cyc.root(4).embed(6)
