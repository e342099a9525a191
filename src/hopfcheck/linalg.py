"""Exact dense linear algebra over cyclotomic scalars.

One elimination serves the package.  reduce_into keeps a semi-echelon row
store: a new vector is reduced against the stored rows and what is left is
scaled by the inverse of its first nonzero entry, its pivot.  That is one
inverse per pivot and no other division.  reduced_echelon clears each pivot
column in the other rows and sorts by pivot; rank, solve_null_space and
mat_inverse are read off the store.

No output depends on the elimination order.  A row space has exactly one
set of pivot columns and one reduced echelon form, so the rank, the inverse
(the right half of the reduced echelon form of [M | I]) and the null basis
(for each free column f in increasing order, the null vector that is 1 at f
and 0 at the other free columns) are the same values whatever loop
computes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CYC_ONE, CYC_ZERO, Cyc
from .errors import DimMismatch, SingularMatrix


@dataclass
class Mat:
    rows: int
    cols: int
    entries: list  # row-major, length rows*cols, Cyc

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimMismatch(f"need {self.rows * self.cols} entries, got {len(self.entries)}")

    def get(self, i: int, j: int) -> Cyc:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @staticmethod
    def from_rows(rows: list) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise DimMismatch("ragged rows")
            flat.extend(row)
        return Mat(r, c, flat)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, [CYC_ONE if i == j else CYC_ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def zero(r: int, c: int) -> "Mat":
        return Mat(r, c, [CYC_ZERO] * (r * c))

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)])

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = [CYC_ZERO] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a.is_zero():
                    continue
                obase = k * other.cols
                for j in range(other.cols):
                    b = other.entries[obase + j]
                    if not b.is_zero():
                        out[i * other.cols + j] = out[i * other.cols + j] + a * b
        return Mat(self.rows, other.cols, out)

    def matvec(self, v, support=None) -> list:
        """self * v.  `support`, when given, lists v's nonzero (index, value)
        pairs; otherwise it is collected once, and only those coordinates
        are visited."""
        if len(v) != self.cols:
            raise DimMismatch("vector length mismatch")
        if support is None:
            support = [(j, x) for j, x in enumerate(v) if not x.is_zero()]
        out = [CYC_ZERO] * self.rows
        for i in range(self.rows):
            base = i * self.cols
            acc = CYC_ZERO
            for j, x in support:
                e = self.entries[base + j]
                if not e.is_zero():
                    acc = acc + e * x
            out[i] = acc
        return out

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i * self.cols + j] == (CYC_ONE if i == j else CYC_ZERO)
            for i in range(self.rows) for j in range(self.cols))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for a, b in zip(self.entries, other.entries))


class Tensor3:
    """A d x d x d table of scalars t(a, b, c) that stores only its nonzeros:
    rows[a] maps b to the (c, value) pairs with value nonzero, b and c
    increasing.  Zeros are dropped on construction, so equal tables compare
    equal whatever the mapping they were built from."""

    def __init__(self, dim: int, entries: dict):
        rows: list = [{} for _ in range(dim)]
        for (a, b, c), v in sorted(entries.items()):
            if not (0 <= a < dim and 0 <= b < dim and 0 <= c < dim):
                raise DimMismatch(f"entry ({a},{b},{c}) outside a {dim}x{dim}x{dim} table")
            if not v.is_zero():
                rows[a].setdefault(b, []).append((c, v))
        self.dim = dim
        self.rows = [{b: tuple(pairs) for b, pairs in row.items()} for row in rows]

    def get(self, a: int, b: int, c: int) -> Cyc:
        return next((v for k, v in self.rows[a].get(b, ()) if k == c), CYC_ZERO)

    def items(self):
        """The ((a, b, c), value) pairs with value nonzero, in index order."""
        return (((a, b, c), v) for a, row in enumerate(self.rows)
                for b, pairs in row.items() for c, v in pairs)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows


def reduce_into(rows: list, v: list) -> bool:
    """Append v, reduced against rows, unless it reduces to zero.  rows are
    (pivot, row) pairs, each row 1 at its pivot and 0 at earlier pivots."""
    for p, row in rows:
        c = v[p]
        if not c.is_zero():
            v = [x if y.is_zero() else x - c * y for x, y in zip(v, row)]
    lead = next((i for i, x in enumerate(v) if not x.is_zero()), None)
    if lead is not None:
        inv = v[lead].inverse()
        rows.append((lead, [x if x.is_zero() else x * inv for x in v]))
    return lead is not None


def reduced_echelon(rows: list) -> list:
    """The reduced echelon form of a reduce_into row store, as a new list of
    (pivot, row) pairs sorted by pivot, each row 0 at every other pivot.

    A row is 0 before its own pivot, so pivot p is cleared from the rows
    with smaller pivots only, largest p first; the row subtracted is then
    already 0 at every larger pivot."""
    rows = sorted(rows, key=lambda pr: pr[0])
    for j in reversed(range(len(rows))):
        p, row = rows[j]
        for i in range(j):
            q, other = rows[i]
            c = other[p]
            if not c.is_zero():
                rows[i] = (q, [x if y.is_zero() else x - c * y for x, y in zip(other, row)])
    return rows


def null_basis(rows: list, ncols: int) -> list:
    """Exact basis of the v with row . v = 0 for every row of a reduce_into
    row store: for each free column f, v[f] = 1 and v[p] = -row_p[f]."""
    rows = reduced_echelon(rows)
    pivots = {p for p, _ in rows}
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [CYC_ZERO] * ncols
            v[f] = CYC_ONE
            for p, row in rows:
                if not row[f].is_zero():
                    v[p] = -row[f]
            basis.append(v)
    return basis


def _row_store(vectors) -> list:
    rows: list = []
    for v in vectors:
        reduce_into(rows, v)
    return rows


def rank(m: Mat) -> int:
    return len(_row_store(m.row(i) for i in range(m.rows)))


def solve_null_space(m: Mat) -> list:
    """Exact basis of the right null space, one vector per free column."""
    return null_basis(_row_store(m.row(i) for i in range(m.rows)), m.cols)


def mat_inverse(m: Mat) -> "Mat":
    """Exact inverse, the right half of the reduced echelon form of [M | I];
    raises SingularMatrix when a pivot lands in the right half."""
    if m.rows != m.cols:
        raise DimMismatch("inverse of a non-square matrix")
    n = m.rows
    rows = reduced_echelon(_row_store(
        m.row(i) + [CYC_ONE if i == j else CYC_ZERO for j in range(n)] for i in range(n)))
    missing = next((c for c, (p, _) in enumerate(rows) if p != c), None)
    if missing is not None:
        raise SingularMatrix(f"no pivot in column {missing}")
    return Mat.from_rows([row[n:] for _, row in rows])

