"""Exact linear algebra over the cyclotomic scalars."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import CYC_ONE, CYC_ZERO, Cyc, Mat
from hopfcheck.errors import DimMismatch, SingularMatrix
from hopfcheck.linalg import mat_inverse, mat_pow, rank, solve_null_space

rational = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=3
)


@st.composite
def matrices(draw, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(1, 4))
    c = cols if cols is not None else draw(st.integers(1, 4))
    entries = [Cyc.rational(draw(rational)) for _ in range(r * c)]
    return Mat.from_rows([entries[i * c:(i + 1) * c] for i in range(r)])


def to_float(m):
    return np.array(
        [[float(m.get(i, j).as_fraction()) for j in range(m.cols)]
         for i in range(m.rows)]
    )


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_null_space_vectors_annihilate(m):
    basis = solve_null_space(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert all(x.is_zero() for x in m.matvec(v))
    # basis vectors are echelon-normalized, so independence is visible
    if basis:
        stacked = Mat.from_rows(basis)
        assert rank(stacked) == len(basis)


@given(st.integers(1, 4), st.integers(0, 3), st.data())
@settings(max_examples=50, deadline=None)
def test_rank_of_planted_product(n, r, data):
    # a product of n-by-r and r-by-n factors has rank at most r
    if r == 0:
        m = Mat.zero(n, n)
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
    m = Mat.from_rows([[CYC_ONE, z], [z * z, CYC_ONE]])
    # det = 1 - 1 = 0: genuinely singular over the field
    with pytest.raises(SingularMatrix):
        mat_inverse(m)
    m2 = Mat.from_rows([[CYC_ONE, z], [CYC_ZERO, z * z]])
    inv = mat_inverse(m2)
    assert m2.mul(inv).is_identity()
    assert inv.get(0, 1) == -z * (z * z).inverse() * CYC_ONE


def test_mat_pow():
    m = Mat.from_rows([[CYC_ZERO, CYC_ONE], [-CYC_ONE, CYC_ZERO]])  # rotation by 90
    assert mat_pow(m, 4).is_identity()
    assert mat_pow(m, 0).is_identity()
    assert mat_pow(m, 2) == m.mul(m)


def test_matvec_and_transpose():
    m = Mat.from_rows([[CYC_ONE, Cyc.rational(2)], [Cyc.rational(3), Cyc.rational(4)]])
    v = [Cyc.rational(1), Cyc.rational(-1)]
    assert m.matvec(v) == [Cyc.rational(-1), Cyc.rational(-1)]
    assert m.matvec(v, [(0, v[0]), (1, v[1])]) == m.matvec(v)
    with pytest.raises(DimMismatch):
        m.matvec(v + [CYC_ONE])
    assert m.transpose().get(0, 1) == Cyc.rational(3)
    assert m.transpose().transpose() == m
