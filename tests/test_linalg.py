"""Exact linear algebra over the cyclotomic scalars."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import CYC_MINUS_ONE, CYC_ONE, CYC_ZERO, Cyc, Elem, Mat
from hopfcheck.cyclotomic import euler_phi
from hopfcheck.errors import DimMismatch, SingularMatrix
from hopfcheck import linalg
from hopfcheck.linalg import RowStore, mat_inverse, rank, solve_null_space
from hopfcheck.zoo import taft
from helpers import entry, mat_from_rows

rational = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=3
)


@st.composite
def matrices(draw, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(1, 4))
    c = cols if cols is not None else draw(st.integers(1, 4))
    entries = [Cyc.rational(draw(rational)) for _ in range(r * c)]
    return mat_from_rows([entries[i * c:(i + 1) * c] for i in range(r)])


def to_float(m):
    return np.array(
        [[entry(m, i, j).to_complex().real for j in range(m.cols)]
         for i in range(m.rows)]
    )


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_null_space_vectors_annihilate(m):
    basis = solve_null_space(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert m.apply(v).is_zero()
    # basis vectors are echelon-normalized, so independence is visible
    if basis:
        stacked = Mat(m.cols, len(basis), tuple(basis))
        assert rank(stacked) == len(basis)


@given(st.integers(1, 4), st.integers(0, 3), st.data())
@settings(max_examples=50, deadline=None)
def test_rank_of_planted_product(n, r, data):
    # a product of n-by-r and r-by-n factors has rank at most r
    if r == 0:
        m = Mat.of(n, n, {})
    else:
        a = data.draw(matrices(rows=n, cols=r))
        b = data.draw(matrices(rows=r, cols=n))
        m = a.mul(b)
    assert rank(m) <= min(r, n)


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rank_agrees_with_float_oracle(m):
    assert rank(m) == np.linalg.matrix_rank(to_float(m), tol=1e-8)


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_or_singular(n, data):
    m = data.draw(matrices(rows=n, cols=n))
    if rank(m) < n:
        with pytest.raises(SingularMatrix):
            mat_inverse(m)
    else:
        assert m.mul(mat_inverse(m)).is_identity()
        assert mat_inverse(m).mul(m).is_identity()


def test_inverse_with_cyclotomic_entries():
    z = Cyc.root(3)
    m = mat_from_rows([[CYC_ONE, z], [z * z, CYC_ONE]])
    # det = 1 - 1 = 0: genuinely singular over the field
    with pytest.raises(SingularMatrix):
        mat_inverse(m)
    m2 = mat_from_rows([[CYC_ONE, z], [CYC_ZERO, z * z]])
    inv = mat_inverse(m2)
    assert m2.mul(inv).is_identity()
    assert entry(inv, 0, 1) == -z * (z * z).inverse() * CYC_ONE


def test_apply_and_transpose():
    m = mat_from_rows([[CYC_ONE, Cyc.rational(2)], [Cyc.rational(3), Cyc.rational(4)]])
    assert m.images[1] == Elem.of(2, [(0, Cyc.rational(2)), (1, Cyc.rational(4))])
    v = Elem.of(2, [(0, CYC_ONE), (1, CYC_MINUS_ONE)])
    assert m.apply(v) == Elem.of(2, [(0, CYC_MINUS_ONE), (1, CYC_MINUS_ONE)])
    with pytest.raises(DimMismatch):
        m.apply(Elem.of(3, [(2, CYC_ONE)]))
    assert entry(m.transpose(), 0, 1) == Cyc.rational(3)
    assert m.transpose().transpose() == m


def _cyc(order, coeffs):
    """sum_k coeffs[k] zeta_order^k."""
    out = CYC_ZERO
    for k, c in enumerate(coeffs):
        if c:
            out = out + Cyc.rational(c) * Cyc.root(order, k)
    return out


@st.composite
def cyclotomic_matrices(draw, order, rows=None, cols=None):
    """Small matrices over Q(zeta_order), often of deficient rank."""
    r = rows if rows is not None else draw(st.integers(1, 3))
    c = cols if cols is not None else draw(st.integers(1, 4))
    span = euler_phi(order)
    entry = st.lists(st.integers(-1, 1), min_size=span, max_size=span)
    grid = [[_cyc(order, draw(entry)) for _ in range(c)] for _ in range(r)]
    if r >= 2 and draw(st.booleans()):
        s = _cyc(order, draw(entry))
        grid[-1] = [s * x for x in grid[0]]  # plant a dependent row
    return mat_from_rows(grid)


def _dense_rows(m):
    """Every entry of m, zeros included, as a list of rows."""
    return [list(row.coords) for row in m.transpose().images]


def _gauss_jordan(m):
    """Textbook reduced echelon form: (nonzero rows, pivot columns)."""
    a = _dense_rows(m)
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        hit = next((i for i in range(r, m.rows) if not a[i][c].is_zero()), None)
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        piv = a[r][c]
        a[r] = [x / piv for x in a[r]]
        for i in range(m.rows):
            f = a[i][c]
            if i != r and not f.is_zero():
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[:len(pivots)], pivots


def _reference_null_space(m):
    rows, pivots = _gauss_jordan(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [CYC_ZERO] * m.cols
        v[f] = CYC_ONE
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


@pytest.mark.parametrize("order", [4, 5])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_cyclotomic_entries_match_gauss_jordan(order, data):
    m = data.draw(cyclotomic_matrices(order))
    assert rank(m) == len(_gauss_jordan(m)[1])
    assert solve_null_space(m) == [Elem.of(m.cols, enumerate(v))
                                   for v in _reference_null_space(m)]
    sq = data.draw(cyclotomic_matrices(order, rows=m.rows, cols=m.rows))
    n = sq.rows
    aug = mat_from_rows([row + [CYC_ONE if i == j else CYC_ZERO for j in range(n)]
                         for i, row in enumerate(_dense_rows(sq))])
    rows, pivots = _gauss_jordan(aug)
    if pivots[:n] == list(range(n)):
        assert mat_inverse(sq) == mat_from_rows([row[n:] for row in rows])
    else:
        missing = next(c for c in range(n) if c not in pivots)
        with pytest.raises(SingularMatrix, match=f"no pivot in column {missing}$"):
            mat_inverse(sq)


@st.composite
def sparse_vectors(draw, order):
    """A few {col: coeff} rows over Q(zeta_order), nonzeros only, some of
    them combinations of earlier ones so that entries cancel."""
    ncols = draw(st.integers(1, 6))
    span = euler_phi(order)
    entry = st.lists(st.integers(-1, 1), min_size=span, max_size=span).map(
        lambda c: _cyc(order, c)).filter(lambda c: not c.is_zero())
    vectors = []
    for _ in range(draw(st.integers(1, 5))):
        if len(vectors) >= 2 and draw(st.booleans()):
            s, a, b = draw(entry), draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            pairs = [(k, s * x) for k, x in a.items()] + list(b.items())
            vectors.append(dict(Elem.of(ncols, pairs).support))
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1)))
            vectors.append({k: draw(entry) for k in sorted(cols)})
    return ncols, vectors


@pytest.mark.parametrize("order", [1, 4, 12])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_row_store_keeps_nonzeros_only(order, data):
    ncols, vectors = data.draw(sparse_vectors(order))
    store = RowStore()
    for v in vectors:
        before = dict(v)
        store.add(v)
        assert v == before  # the caller's vector is not consumed
    shuffled = data.draw(st.permutations(vectors))
    assert RowStore(shuffled).rows == store.rows  # the form is the span's, not the order's
    for p, row in store.rows.items():
        assert row[p] == CYC_ONE and min(row) == p
        assert not any(q in row for q in store.rows if q != p)
        assert not any(x.is_zero() for x in row.values())
    dense = [[v.get(k, CYC_ZERO) for k in range(ncols)] for v in vectors]
    echelon, pivots = _gauss_jordan(mat_from_rows(dense))
    assert store.rows == {p: {k: x for k, x in enumerate(row) if not x.is_zero()}
                          for p, row in zip(pivots, echelon)}
    units = [{k: CYC_ONE} for k in range(ncols)]
    for v in vectors + units:
        before = dict(v)
        left = store.remainder(v)
        assert v == before
        spanned = len(_gauss_jordan(mat_from_rows(
            dense + [[v.get(k, CYC_ZERO) for k in range(ncols)]]))[1]) == len(pivots)
        assert (not left) == spanned


def _count_subtractions(monkeypatch) -> list:
    """Patch linalg._subtract to append 1 to the returned list per call."""
    calls = []
    subtract = linalg._subtract

    def counted(v, c, row):
        calls.append(1)
        subtract(v, c, row)

    monkeypatch.setattr(linalg, "_subtract", counted)
    return calls


def test_a_reduction_subtracts_only_the_rows_at_its_pivot_keys(monkeypatch):
    z = Cyc.root(5)
    d = 6
    full = RowStore({j: Cyc.root(7, i * j % 7) for j in range(d)} for i in range(d))  # Vandermonde
    part = RowStore([{0: CYC_ONE, 2: z, 5: CYC_ONE}, {1: z, 2: Cyc.rational(2), 4: CYC_ONE},
                     {3: z, 4: CYC_ONE}])
    assert len(full.rows) == d and sorted(part.rows) == [0, 1, 3]
    calls = _count_subtractions(monkeypatch)
    for k in range(d):
        calls.clear()
        assert full.remainder({k: CYC_ONE}) == {}
        assert len(calls) == 1
    for m in range(4):
        for keys in combinations(sorted(part.rows), m):
            calls.clear()
            part.remainder({2: CYC_ONE, **{k: z for k in keys}, 5: z})
            assert len(calls) == m


def test_generators_build_one_store_and_copy_none(monkeypatch):
    expected = taft(4).generators
    h = taft(4)
    stores, probes = [], []
    init, remainder = RowStore.__init__, RowStore.remainder
    calls = _count_subtractions(monkeypatch)

    def counted_init(self, vectors=()):
        stores.append(self)
        init(self, vectors)

    def counted_remainder(self, v):
        before = len(calls)
        out = remainder(self, v)
        probes.append((self, len(v), len(calls) - before))
        return out

    monkeypatch.setattr(RowStore, "__init__", counted_init)
    monkeypatch.setattr(RowStore, "remainder", counted_remainder)
    assert h.generators == expected
    assert len(stores) == 1  # a copy of the store would be a second one
    assert all(store is stores[0] for store, _, _ in probes)
    assert all(n <= 1 for _, keys, n in probes if keys == 1)  # e_k meets one row at most
    assert len(stores[0].rows) == h.dim


def test_one_inverse_per_pivot(monkeypatch):
    z = Cyc.root(5)
    m = mat_from_rows([[CYC_ONE, z, z * z, Cyc.rational(2)],
                       [z, z * z, z * z * z, z + z],
                       [Cyc.rational(3), CYC_ZERO, z, CYC_ONE]])  # row 1 = z * row 0
    sq = mat_from_rows([[z, CYC_ONE, CYC_ZERO],
                        [CYC_ONE, z * z, z],
                        [CYC_ZERO, z, Cyc.rational(2)]])
    counts = {"inverse": 0, "div": 0}
    inverse, div = Cyc.inverse, Cyc.__truediv__

    def counted_inverse(self):
        counts["inverse"] += 1
        return inverse(self)

    def counted_div(self, other):
        counts["div"] += 1
        return div(self, other)

    monkeypatch.setattr(Cyc, "inverse", counted_inverse)
    monkeypatch.setattr(Cyc, "__truediv__", counted_div)
    assert len(solve_null_space(m)) == 2  # rank 2, so two pivots
    assert counts == {"inverse": 2, "div": 0}
    counts["inverse"] = 0
    inv = mat_inverse(sq)  # invertible, so three pivots
    assert counts == {"inverse": 3, "div": 0}
    monkeypatch.undo()
    assert sq.mul(inv).is_identity()


@st.composite
def entry_dicts(draw, order, rows=None, cols=None):
    """(rows, cols, {(i, j): c}) over Q(zeta_order): the keys in random
    order, some of them absent and some explicit zeros."""
    r = rows if rows is not None else draw(st.integers(1, 4))
    c = cols if cols is not None else draw(st.integers(1, 4))
    span = euler_phi(order)
    value = st.one_of(st.just(CYC_ZERO), st.lists(st.integers(-1, 1), min_size=span,
                                                  max_size=span).map(lambda x: _cyc(order, x)))
    keys = draw(st.permutations([(i, j) for i in range(r) for j in range(c)]))
    return r, c, {k: draw(value) for k in keys[:draw(st.integers(0, len(keys)))]}


def _summed(rows, cols, entries):
    """The reference Mat: each column summed by Elem.of from the entry dict."""
    return Mat(rows, cols, tuple(Elem.of(rows, [(i, x) for (i, k), x in entries.items() if k == j])
                                 for j in range(cols)))


def _assert_stored_form(m):
    for col in m.images:
        assert [i for i, _ in col.support] == sorted({i for i, _ in col.support})
        assert not any(x.is_zero() for _, x in col.support)


@pytest.mark.parametrize("order", [1, 4, 12])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_store_constructors_match_the_summed_reference(order, data):
    r, c, entries = data.draw(entry_dicts(order))
    m = Mat.of(r, c, entries)
    assert m == _summed(r, c, entries)
    t = m.transpose()
    assert t == _summed(c, r, {(j, i): x for (i, j), x in entries.items()})
    assert t.transpose() == m
    assert Mat.identity(r) == _summed(r, r, {(i, i): CYC_ONE for i in range(r)})
    for x in (m, t, Mat.identity(r)):
        _assert_stored_form(x)
    assert solve_null_space(m) == [Elem.of(c, enumerate(v)) for v in _reference_null_space(m)]
    n, _, sq_entries = data.draw(entry_dicts(order, rows=r, cols=r))
    sq = Mat.of(n, n, sq_entries)
    aug = mat_from_rows([row + [CYC_ONE if i == j else CYC_ZERO for j in range(n)]
                         for i, row in enumerate(_dense_rows(sq))])
    echelon, pivots = _gauss_jordan(aug)
    if pivots[:n] == list(range(n)):
        inv = mat_inverse(sq)
        _assert_stored_form(inv)
        assert inv == _summed(n, n, {(i, j): row[n + j] for i, row in enumerate(echelon)
                                     for j in range(n)})
    else:
        with pytest.raises(SingularMatrix):
            mat_inverse(sq)


def test_elem_of_sums_repeated_indices_and_checks_the_range():
    z = Cyc.root(4)
    e = Elem.of(3, [(2, z), (0, CYC_ONE), (2, -z), (1, CYC_ZERO), (0, z)])
    assert e.support == ((0, CYC_ONE + z),)
    assert Elem.of(2, [(1, z), (0, CYC_ZERO), (1, -z)]).support == ()
    for pairs in ([(3, CYC_ONE)], [(-1, z)], [(0, z), (3, z), (3, z)]):
        with pytest.raises(DimMismatch):
            Elem.of(3, pairs)
    with pytest.raises(DimMismatch):  # range-checked before its zero is dropped
        Mat.of(2, 2, {(0, 0): CYC_ONE, (2, 1): CYC_ZERO})
