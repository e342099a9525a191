"""Exact sparse vectors, maps and tables over cyclotomic scalars, and the
one elimination the package uses.

Elem, Mat and Tensor3 store their nonzeros only, each in one form: an Elem
its (index, coeff) pairs in increasing index, a Mat the Elem image of each
basis vector, a Tensor3 the (c, value) pairs of each row (a, b).  So equal
objects compare equal whatever zeros they were built with.  Each
constructor does only the work its input needs:

  - Elem.of sums repeated indices through sparse_sum, the package's one
    accumulator, which drops zero totals; it then sorts and range-checks;
  - Mat.of and Tensor3(dim, entries) take a mapping, whose keys are
    distinct: they range-check, drop zeros and sort, and sum nothing;
  - transpose, identity, row_dicts, Tensor3.from_rows and the inverse
    read off the elimination are built in their stored order from input
    that is already canonical: nothing is summed, sorted or tested for
    zero.  duality.dual_hopf builds its two tables the same way, sorting
    only the second-slot keys of each product row.

One elimination serves the package, over one sparse row store: RowStore
keeps the span of the rows fed to it in reduced echelon form, each row a
{col: coeff} dict of its nonzeros, and the callers hand in supports.  A
new vector is reduced against the stored rows, one subtraction per pivot
key it holds; what is left is scaled by the inverse of its first nonzero
entry, its pivot, and that pivot is cleared from the other rows.  That is
one inverse per pivot and no other division, and every update is
_subtract, which deletes the entries that cancel.  rank, solve_null_space
(one Elem per free column) and mat_inverse feed a store the rows of m,
read as m.row_dicts(), and read the store as it stands.

No output depends on the elimination order.  A row space has exactly one
reduced echelon form, so the store holds the same rows whatever order they
came in, and the rank, the inverse (the right half of the reduced echelon
form of [M | I]) and the null basis (for each free column f in increasing
order, the null vector that is 1 at f and 0 at the other free columns) are
read from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CYC_ONE, CYC_ZERO, Cyc
from .errors import DimMismatch, SingularMatrix


def sparse_sum(terms) -> dict:
    """Sum (key, value) pairs by key, dropping zero sums, so two results
    compare as sparse tensors."""
    acc: dict = {}
    for key, v in terms:
        old = acc.get(key)
        acc[key] = v if old is None else old + v
    return {k: v for k, v in acc.items() if not v.is_zero()}


@dataclass(frozen=True)
class Elem:
    """A vector of dim coordinates: support is its (index, coeff) pairs with
    coeff nonzero, in increasing index.  Build it with Elem.of."""
    dim: int
    support: tuple

    @staticmethod
    def of(dim: int, pairs) -> "Elem":
        """The vector sum of the (index, value) pairs."""
        support = tuple(sorted(sparse_sum(pairs).items()))
        if support and not (0 <= support[0][0] and support[-1][0] < dim):
            raise DimMismatch(f"index outside a length-{dim} vector")
        return Elem(dim, support)

    @property
    def coords(self) -> tuple:
        """Every coordinate, zeros included."""
        out = [CYC_ZERO] * self.dim
        for i, c in self.support:
            out[i] = c
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.support


def scale(c: Cyc, a: Elem) -> Elem:
    """c a.  For c nonzero the support stays canonical: a product of
    nonzeros is nonzero in a field, and the indices keep their order."""
    if c.is_zero():
        return Elem(a.dim, ())
    return Elem(a.dim, tuple((i, c * x) for i, x in a.support))


def pairing(f: Elem, a: Elem) -> Cyc:
    """<f, a> = sum_i f_i a_i, f a functional and a a vector in the dual bases."""
    at = dict(a.support)
    return sum((x * at[i] for i, x in f.support if i in at), CYC_ZERO)


@dataclass(frozen=True)
class Mat:
    """A rows x cols matrix stored by columns: images[j] is the Elem image
    of e_j.  Build it from its nonzeros with Mat.of."""
    rows: int
    cols: int
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.cols or any(x.dim != self.rows for x in self.images):
            raise DimMismatch(f"need {self.cols} columns of length {self.rows}")

    @staticmethod
    def of(rows: int, cols: int, entries: dict) -> "Mat":
        """The matrix with entry (i, j) = entries[i, j], zero elsewhere.  The
        keys are distinct, so nothing is summed: zeros are dropped and each
        column sorted."""
        columns: list = [[] for _ in range(cols)]
        for (i, j), c in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimMismatch(f"entry ({i},{j}) outside a {rows}x{cols} matrix")
            if not c.is_zero():
                columns[j].append((i, c))
        return Mat(rows, cols, tuple(Elem(rows, tuple(sorted(col))) for col in columns))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(Elem(n, ((i, CYC_ONE),)) for i in range(n)))

    def apply(self, v: Elem) -> Elem:
        """self * v."""
        if v.dim != self.cols:
            raise DimMismatch("vector length mismatch")
        if len(v.support) == 1:  # x e_j: the stored column, scaled
            (j, x), = v.support
            return self.images[j] if x is CYC_ONE else scale(x, self.images[j])
        return Elem.of(self.rows, ((i, c * x) for j, x in v.support
                                   for i, c in self.images[j].support))

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        return Mat(self.rows, other.cols, tuple(self.apply(x) for x in other.images))

    def transpose(self) -> "Mat":
        """Each row of self, as row_dicts builds it, is already a canonical
        support: nothing is summed or sorted."""
        return Mat(self.cols, self.rows, tuple(Elem(self.cols, tuple(row.items()))
                                               for row in self.row_dicts()))

    def conjugate(self) -> "Mat":
        """Every entry conjugated; conjugate().transpose() is the adjoint."""
        return Mat(self.rows, self.cols, tuple(
            Elem(col.dim, tuple((i, c.conjugate()) for i, c in col.support))
            for col in self.images))

    def row_dicts(self) -> list:
        """Row i as the sparse dict {j: self[i][j]}, for every i.  The columns
        are read in increasing j, so each dict lists its nonzeros in index
        order."""
        rows: list = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.images):
            for i, c in col.support:
                rows[i][j] = c
        return rows

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            col.support == ((j, CYC_ONE),) for j, col in enumerate(self.images))


class Tensor3:
    """A d x d x d table of scalars t(a, b, c) that stores only its nonzeros:
    rows[a] maps b to the (c, value) pairs with value nonzero, b and c
    increasing.  The constructor drops zeros, so equal tables compare equal
    whatever the mapping they were built from; from_rows takes rows already
    in that form."""

    def __init__(self, dim: int, entries: dict):
        """The table with t(a, b, c) = entries[a, b, c], zero elsewhere: the
        keys are range-checked and sorted, and zeros dropped."""
        rows: list = [{} for _ in range(dim)]
        for (a, b, c), v in sorted(entries.items()):
            if not (0 <= a < dim and 0 <= b < dim and 0 <= c < dim):
                raise DimMismatch(f"entry ({a},{b},{c}) outside a {dim}x{dim}x{dim} table")
            if not v.is_zero():
                rows[a].setdefault(b, []).append((c, v))
        self._store(dim, rows)

    @classmethod
    def from_rows(cls, dim: int, rows: list) -> "Tensor3":
        """The table whose rows[a] already maps b, increasing, to the list of
        its (c, value) pairs, c increasing and value nonzero; nothing is
        checked or sorted."""
        t = cls.__new__(cls)
        t._store(dim, rows)
        return t

    def _store(self, dim: int, rows: list) -> None:
        self.dim = dim
        self.rows = [{b: tuple(pairs) for b, pairs in row.items()} for row in rows]

    def items(self):
        """The ((a, b, c), value) pairs with value nonzero, in index order."""
        return (((a, b, c), v) for a, row in enumerate(self.rows)
                for b, pairs in row.items() for c, v in pairs)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows


def _subtract(v: dict, c: Cyc, row: dict) -> None:
    """v -= c * row, deleting the entries that cancel."""
    c = -c
    for k, y in row.items():
        if k in v:
            x = v[k] + c * y
            if x.is_zero():
                del v[k]
            else:
                v[k] = x
        else:
            v[k] = c * y


class RowStore:
    """A row space in reduced echelon form, kept so as rows arrive: rows
    maps each pivot to a {col: coeff} dict of nonzeros that is 1 there and
    has no key before it or at another pivot.  That form is the span's own."""

    def __init__(self, vectors=()):
        self.rows: dict = {}
        for v in vectors:
            self.add(v)

    def remainder(self, v) -> dict:
        """v (a {col: coeff} dict or its pairs, all nonzero, not changed)
        less the rows at its pivot keys, as a new dict: empty exactly when v
        is spanned.  No row has a key at another pivot, so one pass does."""
        v, rows = dict(v), self.rows
        for p in [k for k in v if k in rows]:
            _subtract(v, v[p], rows[p])
        return v

    def add(self, v) -> dict | None:
        """Store v's remainder scaled to 1 at its first key, the new pivot,
        and clear that pivot from the other rows.  Returns the new row, or
        None when v is spanned."""
        v = self.remainder(v)
        if not v:
            return None
        lead = min(v)
        inv = v[lead].inverse()
        row = {k: x * inv for k, x in v.items()}
        for other in self.rows.values():
            if lead in other:
                _subtract(other, other[lead], row)
        self.rows[lead] = row
        return row


def null_basis(store: RowStore, ncols: int) -> list:
    """Exact basis of the v with row . v = 0 for every row of store, as
    Elems: for each free column f, v[f] = 1 and v[p] = -row_p[f]."""
    rows = store.rows
    return [Elem(ncols, tuple(sorted([(f, CYC_ONE)] + [(p, -row[f]) for p, row in rows.items()
                                                       if f in row])))
            for f in range(ncols) if f not in rows]


def rank(m: Mat) -> int:
    return len(RowStore(m.row_dicts()).rows)


def solve_null_space(m: Mat) -> list:
    """Exact basis of the right null space, one Elem per free column."""
    return null_basis(RowStore(m.row_dicts()), m.cols)


def mat_inverse(m: Mat) -> "Mat":
    """Exact inverse, the right half of the reduced echelon form of [M | I];
    raises SingularMatrix when a column of M holds no pivot."""
    if m.rows != m.cols:
        raise DimMismatch("inverse of a non-square matrix")
    n = m.rows
    rows = RowStore(Mat(n, 2 * n, m.images + Mat.identity(n).images).row_dicts()).rows
    missing = next((c for c in range(n) if c not in rows), None)
    if missing is not None:
        raise SingularMatrix(f"no pivot in column {missing}")
    columns: list = [[] for _ in range(n)]
    for i in range(n):  # i increasing: each column is built sorted
        for k, c in rows[i].items():
            if k >= n:
                columns[k - n].append((i, c))
    return Mat(n, n, tuple(Elem(n, tuple(col)) for col in columns))
