"""Structure axioms, fault injection, and group-like detection."""

import cmath
import dataclasses
import hashlib
import itertools
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import (
    CYC_MINUS_ONE,
    CYC_ONE,
    CYC_ZERO,
    Cyc,
    Elem,
    Mat,
    Tensor3,
    dual_hopf,
    find_group_likes,
    full_axiom_suite,
    group_algebra,
    run_pipeline,
    standard_zoo,
    sweedler,
    taft,
    tensor_product,
)
from hopfcheck.errors import DimMismatch, FormatError, NumericalFailure
from hopfcheck.zoo import cyclic_table
from hopfcheck import hopf, linalg
from hopfcheck.hopf import (
    is_group_like,
    same_structure,
    verify_algebra,
    verify_antipode,
    verify_bialgebra,
    verify_coalgebra,
)
from helpers import cop, entry, find_group_likes_by_stack, op, products

AXIOM_CHECKS = ("algebra", "coalgebra", "bialgebra", "antipode",
                "antipode-derived", "star")


def test_axiom_suite_clean_on_whole_zoo(zoo):
    for h in zoo.values():
        for check in full_axiom_suite(h):
            assert check.status != "FAIL", f"{h.name}: {check.line()}"
            assert check.name in AXIOM_CHECKS


def test_star_skips_only_without_star(zoo):
    for h in zoo.values():
        star = [c for c in full_axiom_suite(h) if c.name == "star"][0]
        assert star.status == ("SKIP" if h.star is None else "PASS")


def _tweak_tensor(t, i, j, k, delta):
    return Tensor3(t.dim, {**dict(t.items()), (i, j, k): entry(t, i, j, k) + delta})


def _tweak_mat(m, r, c, value):
    """m with entry (r, c) set to value."""
    entries = {(i, j): x for j, col in enumerate(m.images) for i, x in col.support}
    return Mat.of(m.rows, m.cols, {**entries, (r, c): value})


def vec(*coords):
    return Elem.of(len(coords), enumerate(coords))


def test_a_table_is_equal_whatever_zeros_it_was_built_with():
    h = sweedler()
    assert entry(h.mult, 2, 1, 3) == CYC_MINUS_ONE  # x g = -gx
    raised = _tweak_tensor(h.mult, 2, 1, 3, CYC_ONE)
    dropped = Tensor3(4, {key: c for key, c in h.mult.items() if key != (2, 1, 3)})
    assert raised == dropped
    assert raised != h.mult
    assert same_structure(dataclasses.replace(h, mult=raised),
                          dataclasses.replace(h, mult=dropped))
    assert not same_structure(h, dataclasses.replace(h, mult=raised))
    assert Tensor3(4, {(1, 2, 3): CYC_ZERO}) == Tensor3(4, {})
    assert list(Tensor3(4, {(3, 0, 1): CYC_ONE, (0, 2, 1): CYC_ZERO, (0, 1, 2): CYC_ONE,
                            (0, 1, 0): CYC_MINUS_ONE}).items()) == [
        ((0, 1, 0), CYC_MINUS_ONE), ((0, 1, 2), CYC_ONE), ((3, 0, 1), CYC_ONE)]
    # the same for vectors and maps: S(x) = -gx is entry (3, 2) of the antipode
    assert Mat.of(2, 2, {(0, 1): CYC_ZERO}) == Mat.of(2, 2, {})
    assert entry(h.antipode, 3, 2) == CYC_MINUS_ONE
    raised_s = _tweak_mat(h.antipode, 3, 2, CYC_MINUS_ONE + CYC_ONE)
    dropped_s = Mat.of(4, 4, {(i, j): c for j, col in enumerate(h.antipode.images)
                              for i, c in col.support if (i, j) != (3, 2)})
    assert raised_s == dropped_s and raised_s != h.antipode
    assert same_structure(dataclasses.replace(h, antipode=raised_s),
                          dataclasses.replace(h, antipode=dropped_s))
    assert not same_structure(h, dataclasses.replace(h, antipode=raised_s))
    assert Elem.of(4, [(2, CYC_ONE), (0, CYC_ONE), (2, CYC_MINUS_ONE)]) == h.unit
    assert Elem.of(4, [(1, CYC_ONE), (1, CYC_ONE)]) == vec(CYC_ZERO, Cyc.rational(2),
                                                            CYC_ZERO, CYC_ZERO)
    assert h.unit.support == ((0, CYC_ONE),) and vec(CYC_ZERO, CYC_ZERO).support == ()
    assert same_structure(h, dataclasses.replace(
        h, counit=Elem.of(4, [(3, CYC_ZERO), (1, CYC_ONE), (0, CYC_ONE)])))


def test_corrupted_product_fails_associativity():
    h = sweedler()
    bad = dataclasses.replace(h, mult=_tweak_tensor(h.mult, 1, 2, 0, CYC_ONE))
    check = verify_algebra(bad)
    assert check.status == "FAIL"
    assert "assoc" in check.detail or "unit" in check.detail


def _single_entry_corruptions(h, fields):
    """h with one entry of one of the named tables raised by 1, for every
    entry, zeros included, in row-major order."""
    for field in fields:
        t = getattr(h, field)
        if isinstance(t, Tensor3):
            nonzero = dict(t.items())
            tables = (Tensor3(t.dim, {**nonzero, key: entry(t, *key) + CYC_ONE})
                      for key in itertools.product(range(t.dim), repeat=3))
        else:
            tables = (_tweak_mat(t, r, c, entry(t, r, c) + CYC_ONE)
                      for r, c in itertools.product(range(t.rows), range(t.cols)))
        for new in tables:
            yield dataclasses.replace(h, **{field: new})


# sha256 of the full_axiom_suite lines of every corruption in the test below,
# written when every bilinear law still scanned all basis pairs and triples
FULL_SCAN_DIGEST = "85dcaff049b87f513cc80ab267014b48e722b48bd471187ad478defd63b30501"


def test_generator_scans_fail_where_full_scans_did(zoo):
    cases = [*_single_entry_corruptions(zoo["sweedler"], ("mult", "comult", "antipode", "star")),
             *_single_entry_corruptions(zoo["C[S3]"], ("mult",))]
    assert len(cases) == 160 + 216
    digest = hashlib.sha256()
    for bad in cases:
        digest.update(("\n".join(c.line() for c in full_axiom_suite(bad)) + "\n").encode())
    assert digest.hexdigest() == FULL_SCAN_DIGEST


def test_first_failure_lands_on_a_generator(zoo):
    # e_5 e_5 is corrupted, but C[S3]'s generators are (1, 3): the first
    # failing triple of the full scan already starts at a generator
    h = zoo["C[S3]"]
    assert h.generators == (1, 3)
    bad = dataclasses.replace(h, mult=_tweak_tensor(h.mult, 5, 5, 0, CYC_ONE))
    assert verify_algebra(bad).detail == "associativity fails at triple (1,3,5)"


def _triple_scan_detail(h):
    """verify_algebra's detail as it was before the row form: the unit law on
    every basis vector, then (e_i e_j) e_k = e_i (e_j e_k) through h.mul for
    i in h.generators and every j and k, in lexicographic order."""
    b = h.basis
    for i in range(h.dim):
        if h.mul(h.unit, b(i)) != b(i) or h.mul(b(i), h.unit) != b(i):
            return f"unit law fails at basis {i}"
    for i in h.generators:
        for j in range(h.dim):
            for k in range(h.dim):
                if h.mul(h.mul(b(i), b(j)), b(k)) != h.mul(b(i), h.mul(b(j), b(k))):
                    return f"associativity fails at triple ({i},{j},{k})"
    return ""


def test_row_associativity_fails_where_the_triple_scan_did(zoo):
    # taft(3) lives over Q(zeta_3), so the rows are summed in a proper
    # cyclotomic field and not only over the rationals
    h = taft(3)
    assert h.field_order == 3
    details = [(verify_algebra(bad).detail, _triple_scan_detail(bad))
               for member in (h, zoo["sweedler"], zoo["C[S3]"])
               for bad in _single_entry_corruptions(member, ("mult",))]
    assert len(details) == 9 ** 3 + 4 ** 3 + 6 ** 3
    assert all(got == want for got, want in details)
    heads = {want.split(" at ")[0] for _, want in details}
    assert heads == {"unit law fails", "associativity fails"}


def _hand_built(dim, mult):
    """A unital algebra on a basis whose first vector is the unit; verify_algebra
    reads only the product and the unit, so the coalgebra fields are filler."""
    return hopf.HopfData(
        name="hand-built", dim=dim, field_order=1,
        mult=Tensor3(dim, {key: Cyc.rational(v) for key, v in mult.items()}),
        unit=Elem.of(dim, ((0, CYC_ONE),)), comult=Tensor3(dim, {}),
        counit=Elem.of(dim, ()), antipode=Mat.identity(dim))


def test_a_row_entry_summing_to_zero_is_no_difference():
    # C[Z3] in the basis 1, e_1, e_2 with e_1 e_1 = -3 e_1, e_1 e_2 = e_2 e_1 = 0
    # and e_2 e_2 = -3 - e_1 - 3 e_2.  At (1,2) the right side's row k = 2 is
    # e_1 (e_2 e_2) = -3 e_1 + 3 e_1: nonzero terms cancelling, against no row
    # on the left; at (2,2) the left side's row k = 1, (e_2 e_2) e_1, cancels
    mult = {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1, (2, 0, 2): 1,
            (1, 1, 1): -3, (2, 2, 0): -3, (2, 2, 1): -1, (2, 2, 2): -3}
    h = _hand_built(3, mult)
    assert h.generators == (1, 2)
    rows = h.mult.rows
    cancelling = [(m, c) for m, c in rows[2][2] if m in rows[1]]
    assert len(cancelling) == 2
    assert verify_algebra(h).status == "PASS"
    x = Cyc.rational(5)
    assert linalg.sparse_sum([((2, 1), x), ((2, 1), -x), ((0, 0), x)]) == {(0, 0): x}
    # and the same table with e_2 e_2 off by e_1 fails where the triple scan does
    bad = _hand_built(3, {**mult, (2, 2, 1): 0})
    assert verify_algebra(bad).detail == _triple_scan_detail(bad) != ""


def test_associativity_reads_rows_without_multiplying(monkeypatch):
    h = taft(4)
    h.generators  # its certificate multiplies monomials; build it first
    calls = []
    real_mul = hopf.HopfData.mul

    def counting_mul(self, a, b):
        calls.append(1)
        return real_mul(self, a, b)

    monkeypatch.setattr(hopf.HopfData, "mul", counting_mul)
    assert verify_algebra(h).passed()
    assert len(calls) == 2 * h.dim  # the unit-law rows, and nothing per triple


def test_products_are_the_stored_rows(zoo):
    for h in zoo.values():
        b, p = h.basis, products(h)
        assert all(p[i][j] == h.mul(b(i), b(j))
                   for i in range(h.dim) for j in range(h.dim)), h.name


def _nested_loop_mul(h, a, b):
    """HopfData.mul as it was: every pair of supports probes the stored row."""
    acc = []
    for i, ai in a.support:
        for j, bj in b.support:
            acc.extend((k, ai * bj * c) for k, c in h.mult.rows[i].get(j, ()))
    return Elem.of(h.dim, acc)


def test_mul_agrees_with_the_nested_loop(zoo):
    for base in zoo.values():
        for h in (base, dual_hopf(base)):
            d, b = h.dim, h.basis
            full = [Elem.of(d, ((i, Cyc.rational(i + 1, 7 + s)) for i in range(d)))
                    for s in range(2)]
            elems = [b(i) for i in range(d)] + full + [h.unit]
            for x in elems:
                for y in elems:
                    assert h.mul(x, y) == _nested_loop_mul(h, x, y), h.name


def test_corrupted_counit_fails_bialgebra():
    h = sweedler()
    coords = list(h.counit.coords)
    coords[2] = CYC_ONE  # the nilpotent generator must have counit zero
    bad = dataclasses.replace(h, counit=vec(*coords))
    assert verify_coalgebra(bad).status == "FAIL"
    assert verify_bialgebra(bad).status == "FAIL"


def test_corrupted_antipode_sign_fails():
    h = sweedler()
    bad = dataclasses.replace(
        h, antipode=_tweak_mat(h.antipode, 3, 2, CYC_ONE)
    )
    assert verify_antipode(bad).status == "FAIL"
    assert "S" in verify_antipode(bad).identity


def test_dim_mismatch_rejected():
    h = sweedler()
    with pytest.raises(DimMismatch):
        dataclasses.replace(h, unit=vec(CYC_ONE))
    with pytest.raises(DimMismatch):
        dataclasses.replace(h, antipode=Mat.identity(3))
    with pytest.raises(DimMismatch):
        Tensor3(4, {(0, 4, 0): CYC_ONE})
    with pytest.raises(DimMismatch):
        Mat.of(4, 4, {(4, 0): CYC_ONE})
    with pytest.raises(DimMismatch):
        Elem.of(4, [(4, CYC_ONE)])
    for n in (3, 5):
        with pytest.raises(DimMismatch):
            h.antipode.apply(vec(*(CYC_ONE,) * n))


def test_group_likes_of_cyclic_group_algebra(zoo):
    likes = find_group_likes(zoo["C[Z2]"])
    coords = [tuple(c.text() for c in e.coords) for e in likes]
    assert coords == [("0", "1"), ("1", "0")]
    assert _closure_by_lists(zoo["C[Z2]"], likes) == ("PASS", "") and len(likes) == 2


def test_taft_rejects_n_below_two_as_a_format_error():
    with pytest.raises(FormatError, match="need n >= 2"):
        taft(1)


def test_group_likes_of_function_algebra_are_characters(zoo):
    # characters of Z3 need zeta_3 coordinates even though the
    # structure constants are rational
    h = zoo["F(Z3)"]
    likes = find_group_likes(h)
    assert len(likes) == 3
    z = Cyc.root(3)
    expected = [
        (CYC_ONE, CYC_ONE, CYC_ONE),
        (CYC_ONE, z, z * z),
        (CYC_ONE, z * z, z),
    ]
    for e in likes:
        assert is_group_like(h, e)
        assert any(all(a == b for a, b in zip(e.coords, exp))
                   for exp in expected)
    assert _closure_by_lists(h, likes) == ("PASS", "")


def test_group_like_counts_across_zoo(pipelines):
    expected = {
        # characters of S3 factor through its abelianization, so F(S3)
        # has only the trivial and sign characters
        "C[Z2]": 2, "C[Z3]": 3, "C[Z6]": 6, "C[S3]": 6,
        "F(Z2)": 2, "F(Z3)": 3, "F(Z6)": 6, "F(S3)": 2,
        "sweedler": 2, "taft(2)": 2, "taft(3)": 3,
        "sweedler(x)C[Z2]": 4, "sweedler(x)sweedler": 4,
    }
    for name, res in pipelines.items():
        assert len(res.values["group_likes"]) == expected[name], name


def test_is_group_like_rejects_non_group_likes():
    h = sweedler()
    two = vec(Cyc.rational(2), CYC_ZERO, CYC_ZERO, CYC_ZERO)
    for first in (None, dual_hopf(h).generators):  # every row, then the dual's generators
        assert is_group_like(h, h.basis(1), first)      # the grouplike generator
        assert not is_group_like(h, h.basis(2), first)  # the skew-primitive one
        assert not is_group_like(h, vec(*(CYC_ZERO,) * 4), first)
        assert not is_group_like(h, two, first)


def test_group_likeness_on_generators_agrees_with_the_full_scan(zoo):
    # candidates: the group-likes, every basis vector, each group-like with one
    # entry raised by 1, and the sum and the mean of every two group-likes; the
    # first slot runs over the generators of the dual, as the pipeline does
    half = Cyc.rational(Fraction(1, 2))
    members = list(zoo.values()) + [group_algebra("C[Z12]", cyclic_table(12))]
    counted = {"candidates": 0, "group-like": 0, "counit 1, not group-like": 0}
    for h0 in members:
        hd0 = dual_hopf(h0)
        for h, first in ((h0, hd0.generators), (hd0, h0.generators)):
            likes = find_group_likes(h)
            candidates = list(likes) + [h.basis(i) for i in range(h.dim)]
            candidates += [Elem.of(h.dim, list(g.support) + [(i, CYC_ONE)])
                           for g in likes for i in range(h.dim)]
            for g1, g2 in itertools.combinations(likes, 2):
                total = Elem.of(h.dim, list(g1.support) + list(g2.support))
                candidates += [total, Elem.of(h.dim, ((i, half * c) for i, c in total.support))]
            for g in candidates:
                full = is_group_like(h, g)
                assert is_group_like(h, g, first) == full, (h.name, g)
                counted["candidates"] += 1
                counted["group-like"] += full
                counted["counit 1, not group-like"] += not full and h.counit_of(g) == CYC_ONE
    assert counted == {"candidates": 1694, "group-like": 175, "counit 1, not group-like": 730}


def test_same_structure():
    zoo = {h.name: h for h in standard_zoo()}
    assert same_structure(zoo["C[Z2]"], zoo["C[Z2]"])
    assert not same_structure(zoo["C[Z2]"], zoo["F(Z2)"])
    assert not same_structure(zoo["sweedler"], zoo["taft(3)"])


def test_mul_and_coprod_sweedler_relations():
    h = sweedler()
    one, g, x, gx = (h.basis(i) for i in range(4))
    assert h.mul(g, g) == one
    assert h.mul(g, x) == gx
    assert h.mul(x, x).is_zero()
    assert h.mul(x, g) == vec(CYC_ZERO, CYC_ZERO, CYC_ZERO, CYC_MINUS_ONE)
    # anticommutation: xg = -gx
    lhs = h.mul(x, g)
    rhs = vec(*(-c for c in h.mul(g, x).coords))
    assert lhs == rhs
    terms = h.coprod(x)
    assert terms == {(2, 0): CYC_ONE, (1, 2): CYC_ONE}  # x(x)1 + g(x)x
    assert h.antipode_of(x) == vec(CYC_ZERO, CYC_ZERO, CYC_ZERO, CYC_MINUS_ONE)
    assert h.counit_of(g) == CYC_ONE
    assert h.counit_of(x) == CYC_ZERO


def test_group_likes_of_a_non_semisimple_dual_of_dimension_64():
    # the dual of sweedler^(x)3 is not semisimple, so its coproduct operators
    # are defective; the count 8 comes from the exact dimension of J^perp
    s = sweedler()
    h = dual_hopf(tensor_product("s3", tensor_product("s2", s, s), s))
    likes = find_group_likes(h)
    assert len(likes) == 8
    assert all(is_group_like(h, g) for g in likes)
    assert len({tuple(c.text() for c in g.coords) for g in likes}) == 8
    assert _closure_by_lists(h, likes) == ("PASS", "")


def test_group_likes_fail_when_candidates_cannot_be_rounded(monkeypatch, zoo):
    monkeypatch.setattr(hopf, "_exactify", lambda value, orders: None)
    checks = {c.name: c for c in run_pipeline(zoo["C[Z2]"]).checks}
    assert checks["group-likes"].status == "FAIL"
    assert checks["group-likes"].detail == "C[Z2]: found 0 of 2 group-likes"


# greedy generating sets: basis indices of each zoo member and of its dual
GENERATORS = {
    "C[Z2]": ((1,), (0,)),
    "C[Z3]": ((1,), (0, 1)),
    "C[Z6]": ((1,), (0, 1, 2, 3, 4)),
    "C[S3]": ((1, 3), (0, 1, 2, 3, 4)),
    "F(Z2)": ((0,), (1,)),
    "F(Z3)": ((0, 1), (1,)),
    "F(Z6)": ((0, 1, 2, 3, 4), (1,)),
    "F(S3)": ((0, 1, 2, 3, 4), (1, 3)),
    "sweedler": ((1, 2), (0, 2, 3)),
    "taft(2)": ((1, 2), (0, 2, 3)),
    "taft(3)": ((1, 3), (0, 1, 3, 4, 5)),
    "sweedler(x)C[Z2]": ((1, 2, 4), (0, 1, 2, 4, 5, 6, 7)),
    "sweedler(x)sweedler": ((1, 2, 4, 8), (0, 1, 2, 3, 4, 6, 7, 8, 9, 12, 13)),
}


def _monomial_rank(h, gens) -> int:
    """Float rank of the span of 1 and the left-nested monomials in gens,
    by repeated multiplication until the span stops growing."""
    import numpy as np

    ops = []  # left multiplication by e_g: column j is e_g e_j
    for g in gens:
        op = np.zeros((h.dim, h.dim), dtype=complex)
        for j, terms in h.mult.rows[g].items():
            for k, c in terms:
                op[k, j] = c.to_complex()
        ops.append(op)
    span = np.array([[c.to_complex() for c in h.unit.coords]]).T
    while True:
        grown = np.hstack([span] + [op @ span for op in ops])
        u, s, _vh = np.linalg.svd(grown, full_matrices=False)
        r = int(np.sum(s > 1e-9 * s[0]))
        if r == span.shape[1]:
            return r
        span = u[:, :r]


def test_generators_are_pinned_and_generate(zoo):
    assert sorted(GENERATORS) == sorted(zoo)
    for name, h in zoo.items():
        hd = dual_hopf(h)
        assert (h.generators, hd.generators) == GENERATORS[name], name
        for a in (h, hd):
            assert _monomial_rank(a, a.generators) == a.dim, a.name
            # greedy: no generator lies in the span the earlier ones generate
            for n, g in enumerate(a.generators):
                assert _monomial_rank(a, a.generators[:n]) < _monomial_rank(
                    a, a.generators[:n] + (g,)), (a.name, g)


def test_generators_of_a_one_dimensional_algebra_are_empty():
    h = group_algebra("C[Z1]", cyclic_table(1))
    assert h.generators == ()


def _exactify_by_scan(value: complex, orders: list):
    """hopf._exactify as it was, trying every t in range(L) for each order L."""
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


def _orders(field_order: int, d: int) -> list:
    """The orders list find_group_likes hands _exactify."""
    return sorted({lcm(field_order, e) for e in range(1, d + 1) if d % e == 0})


# (field order, dim) of the zoo members and of the ladder: taft(n), n = 4..12,
# sweedler^(x)3 and C[Z12] to C[Z48]; a dual has the member's pair
ORDER_LISTS = sorted({tuple(_orders(f, d)) for f, d in (
    (1, 2), (1, 3), (1, 4), (1, 6), (1, 8), (1, 16), (3, 9), (1, 64),
    *((n, n * n) for n in range(4, 13)), *((1, n) for n in (12, 18, 24, 36, 48)))})


def _stored_or_none(c):
    return None if c is None else (c.order, c.num, c.den)


def _phase(turns: float) -> complex:
    return cmath.exp(2j * cmath.pi * turns)


@given(st.sampled_from(ORDER_LISTS), st.data())
@settings(max_examples=400, deadline=None)
def test_exactify_reads_t_from_the_phase_as_the_scan_found_it(orders, data):
    orders = list(orders)
    order = data.draw(st.sampled_from(orders))
    t = data.draw(st.integers(0, order - 1))
    num = data.draw(st.one_of(st.integers(-12, 12), st.integers(-10**6, 10**6)))
    den = data.draw(st.one_of(st.integers(1, 12), st.integers(1, 10**6),
                              st.integers(10**6 + 1, 10**7)))
    noise = data.draw(st.sampled_from([0.0, 1e-12, 1e-11, 1e-10, 5e-10, 9e-10, 1.1e-9, 1e-8]))
    noise *= _phase(data.draw(st.floats(0, 1)))
    value = num / den * _phase(t / order) + noise
    assert _stored_or_none(hopf._exactify(value, orders)) == \
        _stored_or_none(_exactify_by_scan(value, orders))


@given(st.sampled_from(ORDER_LISTS), st.floats(0, 1),
       st.sampled_from([5e-10, 9.99e-10, 1e-9, 1.001e-9, 2e-9, 5e-7, 1e-6 - 2e-9, 1e-6 - 5e-10,
                        1e-6, 1e-6 + 5e-10, 0.3, 1.7]))
@settings(max_examples=300, deadline=None)
def test_exactify_agrees_with_the_scan_at_any_phase_and_near_the_cutoff(orders, turns,
                                                                        magnitude):
    value = magnitude * _phase(turns)
    assert _stored_or_none(hopf._exactify(value, list(orders))) == \
        _stored_or_none(_exactify_by_scan(value, list(orders)))


def test_exactify_pinned_values():
    z3, z4 = Cyc.root(3), Cyc.root(4)
    cases = [  # (value, orders, expected)
        (1j, [1, 2, 4], z4),
        (-1.0, [1, 2], CYC_MINUS_ONE),
        (-_phase(1 / 3), [1, 3], -z3),  # odd order, negative rational
        (0.5 + 1e-12j, [1], Cyc.rational(1, 2)),
        (3 - 2e-10, [1], Cyc.rational(3)),
        (1 / 999_999 * _phase(0.25), [1, 2, 4], Cyc.rational(1, 999_999) * z4),
        (1 / 1_000_003, [1], Cyc.rational(1, 10**6)),  # 3e-12 from 1/10^6
        (0.5 + 1e-7, [1], None),  # every fraction near 1/2 is 5e-7 away
        (0.3 * _phase(0.1), [1, 2, 4], None),  # no root of unity of these orders
        (5e-10 * _phase(0.2), [1, 3], CYC_ZERO),
        (6.00000000001 + 1.5e-323j, [1, 2], Cyc.rational(6)),  # subnormal imaginary part
    ]
    for value, orders, want in cases:
        got = hopf._exactify(value, orders)
        assert _stored_or_none(got) == _stored_or_none(want), value
        assert _stored_or_none(_exactify_by_scan(value, orders)) == _stored_or_none(want)


def _closure_by_lists(h, likes):
    """The group law on likes, decided by products with Elem membership in
    lists: 1 is in likes, and likes is closed under products (reached from
    1 by left multiplication by a generating subset) and under S: the
    oracle for the law group_like_closure_check proves without comparing."""
    if h.unit not in likes:
        return "FAIL", "unit missing from the group-like list"
    gens: list = []
    reached, applied = [h.unit], [0]
    for g in likes:
        if g in reached:
            continue
        gens.append(g)
        r = 0
        while r < len(reached):
            for s in gens[applied[r]:]:
                x = h.mul(s, reached[r])
                if x not in likes:
                    return "FAIL", "product escapes the list"
                if x not in reached:
                    reached.append(x)
                    applied.append(0)
            applied[r] = len(gens)
            r += 1
    if any(h.antipode_of(a) not in likes for a in likes):
        return "FAIL", "inverse escapes the list"
    return "PASS", ""


def _at_another_order(likes: list, order: int = 12):
    """likes with the first coefficient that is not rational rewritten over
    Q(zeta_order), a value-equal but differently stored scalar, or None."""
    for n, g in enumerate(likes):
        for k, (i, c) in enumerate(g.support):
            if c.order != 1 and c.order != order and order % c.order == 0:
                support = g.support[:k] + ((i, c.embed(order)),) + g.support[k + 1:]
                return likes[:n] + [Elem(g.dim, support)] + likes[n + 1:]
    return None


def test_every_list_the_pipeline_feeds_the_closure_check_is_a_group(pipelines, zoo):
    # group_like_closure_check's PASS is a proof; the lists run_pipeline hands
    # it must satisfy the law it proves without comparing: over the zoo,
    # C[Z12], taft(4) and the d = 64 dual of sweedler^(x)3
    s = sweedler()
    members = dict(zoo)
    for h in (group_algebra("C[Z12]", cyclic_table(12)), taft(4),
              dual_hopf(tensor_product("s3", tensor_product("s2", s, s), s))):
        members[h.name] = h
    checked = 0
    for name, h in members.items():
        res = pipelines[name] if name in pipelines else run_pipeline(h)
        assert not res.failed(), name
        for a, key in ((h, "group_likes"), (res.values["dual"], "dual_likes")):
            likes = res.values[key]
            assert _closure_by_lists(a, likes) == ("PASS", ""), (name, key)
            checked += len(likes)
    # 45 likes on each side of the zoo; 12, 4 and 8 on each side of the rest
    assert checked == 2 * (45 + 12 + 4 + 8)


@pytest.mark.parametrize("name", ["bialgebra", "antipode", "antipode-derived",
                                  "dual-bialgebra", "dual-antipode", "dual-antipode-derived"])
def test_group_like_stages_run_only_after_the_laws_of_their_proof(zoo, monkeypatch, name):
    # the closure proof takes `bialgebra`, `antipode` and `antipode-derived` of
    # the algebra whose group-likes it lists as passed: when one of h's FAILs
    # both group-like stages skip, and when one of the dual's does only
    # dual-group-likes does, while group-likes, which rests on h's, passes
    from hopfcheck import pipeline
    from hopfcheck.report import FAIL

    attr = "dual_axiom_checks" if name.startswith("dual-") else "full_axiom_suite"
    real = getattr(pipeline, attr)

    def failing(*args, **kwargs):
        return [dataclasses.replace(c, status=FAIL, detail=f"{name} made to fail")
                if c.name == name else c for c in real(*args, **kwargs)]

    monkeypatch.setattr(pipeline, attr, failing)
    checks = {c.name: c for c in run_pipeline(zoo["taft(3)"]).checks}
    assert checks[name].detail == f"{name} made to fail"
    skipped = ["dual-group-likes"] if name.startswith("dual-") else ["group-likes",
                                                                     "dual-group-likes"]
    for stage in ("group-likes", "dual-group-likes"):
        if stage in skipped:
            assert checks[stage].line().startswith(
                f"CHECK {stage} SKIP:prerequisite-failed "), stage
        else:
            assert checks[stage].passed(), stage


def test_key_is_equal_for_a_value_equal_coefficient_at_another_order(pipelines):
    # the finder dedupes its candidates by _key over one field, so a value
    # stored at another order must key as its canonical form does
    from hopfcheck.zoo import function_algebra

    f4 = function_algebra("F(Z4)", cyclic_table(4))
    lists = [find_group_likes(f4)]
    for res in pipelines.values():
        lists += [res.values["group_likes"], res.values["dual_likes"]]
    moved_lists = 0
    for likes in lists:
        moved = _at_another_order(likes)
        if moved is None:
            continue
        moved_lists += 1
        n = lcm(12, *(c.order for g in likes for _, c in g.support))
        stored = [tuple((i, c.order, c.num, c.den) for i, c in g.support) for g in moved]
        assert stored != [tuple((i, c.order, c.num, c.den) for i, c in g.support)
                          for g in likes]
        keys = [hopf._key(g, n) for g in likes]
        assert [hopf._key(g, n) for g in moved] == keys
        assert len(set(keys)) == len(likes)
    assert moved_lists >= 4  # F(Z4), F(Z3), F(Z6), the dual of taft(3)
    # zeta_4 of a character of Z4, stored as zeta_12^3 at order 12
    case = _at_another_order(lists[0])
    assert any(c.order == 12 and c in (Cyc.root(4), -Cyc.root(4))
               for g in case for _, c in g.support)


def test_find_group_likes_returns_the_canonical_sort(pipelines):
    # the finder keys each distinct stored scalar once; the order must be the
    # one that keys every coordinate
    from hopfcheck.zoo import function_algebra

    lists = [find_group_likes(function_algebra("F(Z4)", cyclic_table(4)))]
    lists += [find_group_likes(dual_hopf(group_algebra(f"C[Z{n}]", cyclic_table(n))))
              for n in (12, 48)]
    for res in pipelines.values():
        lists += [res.values["group_likes"], res.values["dual_likes"]]
    for found in lists:
        key_order = lcm(1, *(c.order for g in found for _, c in g.support))
        want = sorted(found, key=lambda g: tuple(c.sort_key(key_order) for c in g.coords))
        assert found == want
    assert [len(found) for found in lists[:3]] == [4, 12, 48]


def test_find_group_likes_confirms_each_candidate_once(monkeypatch, pipelines, zoo):
    tried: list = []
    confirm = hopf.is_group_like

    def recording(h, g, first=None):
        tried.append(g)
        return confirm(h, g, first)

    monkeypatch.setattr(hopf, "is_group_like", recording)
    for name in ("C[S3]", "F(Z6)", "taft(3)"):
        tried.clear()
        assert find_group_likes(zoo[name]) == pipelines[name].values["group_likes"]
        assert all(a != b for a, b in itertools.combinations(tried, 2)), name


def test_find_group_likes_matches_the_operator_stack_and_rounds_each_value_once(monkeypatch,
                                                                               zoo):
    # one n x n operator per weight must give the lists the stack of the d
    # right-slot operators gave, and each distinct rounded coordinate must
    # reach _exactify once per call
    real = hopf._exactify
    asked: list = []

    def recording(value, orders):
        asked.append(value)
        return real(value, orders)

    s = sweedler()
    members = [f(h) for h in zoo.values() for f in (lambda h: h, dual_hopf, op, cop)]
    members += [f(group_algebra(f"C[Z{n}]", cyclic_table(n)))
                for n in (12, 24, 48) for f in (lambda h: h, dual_hopf)]
    members.append(dual_hopf(tensor_product("s3", tensor_product("s2", s, s), s)))
    want = [find_group_likes_by_stack(h) for h in members]
    monkeypatch.setattr(hopf, "_exactify", recording)
    for h, likes in zip(members, want):
        asked.clear()
        assert find_group_likes(h) == likes, h.name
        assert len(asked) == len(set(asked)), h.name
        assert all(x == complex(round(x.real, 12), round(x.imag, 12)) for x in asked), h.name
    assert len(members) == 59 and sum(map(len, want)) == 356


def test_a_degenerate_weight_fails_the_count_and_raises_nothing(monkeypatch, zoo):
    # with theta = 0 every weight is 1, and sum_j R_j sends every character of
    # Z3 but the trivial one to 0, so eigenvectors mix group-likes: one with
    # eps near 0 must be dropped before it is rounded, the rest fail the
    # exact confirmation, and the count decides
    members = [f(h) for h in zoo.values() for f in (lambda h: h, dual_hopf)]
    want = [find_group_likes(h) for h in members]
    monkeypatch.setattr(hopf, "_WEIGHT_PHASES", (0.0,))
    failed = set()
    for h, likes in zip(members, want):
        try:
            assert find_group_likes(h) == likes, h.name
        except NumericalFailure as e:
            assert re.fullmatch(rf"{re.escape(h.name)}: found \d+ of {len(likes)} group-likes",
                                str(e))
            failed.add(h.name)
    assert {"C[Z3]^", "F(Z3)"} <= failed
    checks = {c.name: c for c in run_pipeline(zoo["F(Z3)"]).checks}
    assert checks["group-likes"].status == "FAIL"
    assert re.fullmatch(r"F\(Z3\): found [0-2] of 3 group-likes", checks["group-likes"].detail)
