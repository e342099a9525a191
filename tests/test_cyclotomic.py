"""Exact cyclotomic arithmetic: field axioms, reduction, rendering."""

import cmath
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import CYC_MINUS_ONE, CYC_ONE, CYC_ZERO, Cyc
from hopfcheck.cyclotomic import _SHARED, _make, _mulmod, cyclotomic_polynomial, euler_phi
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
    return Cyc(a.order, [p + sign * q for p, q in zip(a.coeffs, b.coeffs)])


def _embedded_mul(x, y):
    # the product and its reduction in Fractions, a reference for the
    # integer arithmetic
    a, b = Cyc._common(x, y)
    prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
    for i, p in enumerate(a.coeffs):
        for j, q in enumerate(b.coeffs):
            prod[i + j] += p * q
    return Cyc(a.order, _divmod_fractions(prod, cyclotomic_polynomial(a.order))[1])


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


def _stored(c):
    return c.order, c.num, c.den


def _lowest_terms(c):
    """num / den in lowest terms over the power basis of Q(zeta_order)."""
    return c.den > 0 and gcd(c.den, *c.num) == 1 and len(c.num) == euler_phi(c.order)


def _canonical(c):
    """Lowest terms, and a rational is stored at order 1."""
    return _lowest_terms(c) and (c.order == 1 or any(c.num[1:]))


@given(cycs(), cycs())
@settings(max_examples=120, deadline=None)
def test_every_result_is_stored_in_lowest_terms(a, b):
    n = a.order * b.order
    results = [a + b, a - b, b - a, a * b, -a, a.conjugate(), Cyc.parse(a.text(n), n)]
    if not b.is_zero():
        results += [a / b, b.inverse()]
    for c in results:
        assert _canonical(c), _stored(c)
    # embed rewrites over the larger basis without collapsing a rational
    assert _lowest_terms(a.embed(n)) and a.embed(n).order == n


# order-1 operands with denominator 1 and above, numerators in and beyond
# the shared small integers
_LANE_NUMS = st.one_of(st.integers(-2 * _SHARED, 2 * _SHARED), st.integers(-10**20, 10**20))
_LANE_DENS = st.one_of(st.just(1), st.integers(2, 4 * _SHARED), st.integers(2, 10**12))


@given(_LANE_NUMS, _LANE_DENS, _LANE_NUMS, _LANE_DENS)
@settings(max_examples=400, deadline=None)
def test_integer_lane_matches_fractions(n1, d1, n2, d2):
    p, q = Fraction(n1, d1), Fraction(n2, d2)
    a, b = Cyc.rational(n1, d1), Cyc.rational(n2, d2)
    cases = [(a + b, p + q), (a - b, p - q), (b - a, q - p), (a * b, p * q)]
    if q:
        cases.append((a / b, p / q))
    for got, want in cases:
        assert _canonical(got), _stored(got)
        assert _stored(got) == (1, (want.numerator,), want.denominator)
        if want.denominator == 1 and abs(want) <= _SHARED:
            assert got is Cyc.rational(want.numerator)


def test_shared_small_integers_stay_unchanged():
    for n in range(-_SHARED - 1, _SHARED + 2):
        x = Cyc.rational(n)
        assert _stored(-x) == (1, (-n,), 1)
        assert _stored(x.conjugate()) == (1, (n,), 1)
        assert _stored(x.embed(12)) == (12, (n, 0, 0, 0), 1)
        for name, value in (("order", 12), ("num", (n + 1,)), ("den", 2)):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
        assert _stored(x) == (1, (n,), 1)
        assert Cyc.rational(n) == Cyc.rational(n, 1) == Cyc(1, [n])
        assert (Cyc.rational(n) is x) == (abs(n) <= _SHARED)


def test_negating_a_shared_integer_gives_the_shared_instance():
    assert -CYC_MINUS_ONE is CYC_ONE and -CYC_ONE is CYC_MINUS_ONE and -CYC_ZERO is CYC_ZERO
    for n in range(-_SHARED - 1, _SHARED + 2):
        x = Cyc.rational(n)
        assert (-x is Cyc.rational(-n)) == (abs(n) <= _SHARED)
        assert _stored(x) == (1, (n,), 1)
    assert _stored(-Cyc.rational(-3, 4)) == (1, (3,), 4)


def test_a_product_with_the_shared_one_is_the_other_operand():
    for x in (Cyc.root(12, 5), Cyc.rational(-7, 3), Cyc.rational(100), CYC_ZERO):
        assert CYC_ONE * x is x and x * CYC_ONE is x
    assert CYC_ONE.__mul__(2) is NotImplemented


# pairs of orders with no shared field below their lcm, the coprime 3 x 4
# and 5 x 12 among them, and pairs where one order divides the other
_MIXED_ORDERS = st.sampled_from([(3, 4), (5, 12), (4, 6), (3, 8), (8, 12), (5, 3), (9, 6),
                                 (4, 12), (3, 9), (7, 2)])


@given(_MIXED_ORDERS, st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_mixed_order_product_matches_embed_then_mulmod(orders, swap, data):
    m, n = orders[::-1] if swap else orders
    a, b = data.draw(cycs(order=m)), data.draw(cycs(order=n))
    common = lcm(a.order, b.order)
    want = _make(common, _mulmod(a.embed(common).num, b.embed(common).num, common),
                 a.den * b.den)
    got = a * b
    assert _canonical(got), _stored(got)
    assert _stored(got) == _stored(want)
    assert _stored(b * a) == _stored(want)


@given(st.sampled_from(ORDERS), st.data())
@settings(max_examples=120, deadline=None)
def test_equal_values_have_equal_stored_form(order, data):
    # every route through Q(zeta_order) ends at one stored form: order 1 for
    # a rational, else this order
    a, b, c = (data.draw(cycs(order=order)) for _ in range(3))
    pairs = [((a + b) - b, a), ((a * b) * c, a * (b * c)), (a + b, b + a),
             (Cyc.parse(a.text(order), order), a), (a.conjugate().conjugate(), a)]
    if not b.is_zero():
        pairs.append(((a * b) / b, a))
    for x, y in pairs:
        assert x == y
        assert _stored(x) == _stored(y)


@given(st.sampled_from([1, 3, 5, 8, 9, 12]), st.data())
@settings(max_examples=120, deadline=None)
def test_fraction_coefficients_round_trip(order, data):
    fractions = data.draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        min_size=euler_phi(order), max_size=euler_phi(order)))
    c = Cyc(order, fractions)
    assert c.embed(order).coeffs == tuple(fractions)
    assert _stored(Cyc(c.order, c.coeffs)) == _stored(c)
    assert _stored(Cyc(order, [int(x) for x in fractions])) == _stored(
        Cyc(order, [Fraction(int(x)) for x in fractions]))


def _divmod_fractions(num, den):
    """Quotient and remainder of Fraction polynomials, ascending coefficients."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1] / den[-1]
        q[shift] = c
        for j, dj in enumerate(den):
            num[shift + j] -= c * dj
    return q, num[:len(den) - 1]


def _inverse_by_euclid(coeffs, order):
    """Reference inverse over Q: extended Euclid against the cyclotomic
    polynomial, which is irreducible, so the last remainder is a constant."""
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(order)], list(coeffs)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) == 1:
            break
        q, rem = _divmod_fractions(r0, r1)
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                prod[i + j] += x * y
        width = max(len(s0), len(prod))
        s0, s1 = s1, [(s0[k] if k < len(s0) else 0) - (prod[k] if k < len(prod) else 0)
                      for k in range(width)]
        r0, r1 = r1, rem
    inv = [x / r1[0] for x in s1] + [Fraction(0)] * euler_phi(order)
    return tuple(inv[:euler_phi(order)])


@given(st.sampled_from([5, 9, 24]), st.data())
@settings(max_examples=90, deadline=None)
def test_inverse_matches_extended_euclid_over_fractions(order, data):
    fractions = data.draw(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        min_size=euler_phi(order), max_size=euler_phi(order)))
    a = Cyc(order, fractions)
    if a.is_zero():
        return
    inv = a.inverse()
    assert _canonical(inv)
    assert inv.embed(order).coeffs == _inverse_by_euclid(a.embed(order).coeffs, order)


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
