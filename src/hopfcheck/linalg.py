"""Exact dense linear algebra over cyclotomic scalars.

Elimination is fraction-free in the Bareiss style with deterministic
pivoting (first nonzero entry in column order), so identical inputs always
produce identical echelon forms.  Null-space bases come out in reduced
echelon shape: free variables in increasing index order, each basis vector
has a 1 in its own free slot and zeros in the other free slots.
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

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for a, b in zip(self.entries, other.entries))


@dataclass
class Tensor3:
    """Cubic array of scalars t[i][j][k], flattened row-major."""

    dim: int
    entries: list

    def __post_init__(self):
        if len(self.entries) != self.dim**3:
            raise DimMismatch(f"need {self.dim ** 3} entries, got {len(self.entries)}")

    def get(self, i: int, j: int, k: int) -> Cyc:
        d = self.dim
        return self.entries[(i * d + j) * d + k]

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dim == other.dim and all(a == b for a, b in zip(self.entries, other.entries))


def _echelon(rows: list, ncols: int) -> list:
    """Fraction-free forward elimination in place; returns pivot (row, col) pairs."""
    prev = CYC_ONE
    pr = 0
    pivots = []
    nrows = len(rows)
    for pc in range(ncols):
        hit = None
        for r in range(pr, nrows):
            if not rows[r][pc].is_zero():
                hit = r
                break
        if hit is None:
            continue
        if hit != pr:
            rows[pr], rows[hit] = rows[hit], rows[pr]
        piv = rows[pr][pc]
        for r in range(pr + 1, nrows):
            rc = rows[r][pc]
            if rc.is_zero():
                for c in range(pc, ncols):
                    if not rows[r][c].is_zero():
                        rows[r][c] = (piv * rows[r][c]) / prev
            else:
                for c in range(pc, ncols):
                    rows[r][c] = (piv * rows[r][c] - rc * rows[pr][c]) / prev
        prev = piv
        pivots.append((pr, pc))
        pr += 1
        if pr == nrows:
            break
    return pivots


def rank(m: Mat) -> int:
    rows = [m.row(i) for i in range(m.rows)]
    return len(_echelon(rows, m.cols))


def solve_null_space(m: Mat) -> list:
    """Exact basis of the right null space, one vector per free column."""
    rows = [m.row(i) for i in range(m.rows)]
    pivots = _echelon(rows, m.cols)
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(m.cols) if c not in pivot_cols]
    basis = []
    for f in free:
        v = [CYC_ZERO] * m.cols
        v[f] = CYC_ONE
        for r, pc in reversed(pivots):
            acc = CYC_ZERO
            for c in range(pc + 1, m.cols):
                rc = rows[r][c]
                if not rc.is_zero() and not v[c].is_zero():
                    acc = acc + rc * v[c]
            v[pc] = -acc / rows[r][pc]
        basis.append(v)
    return basis


def mat_inverse(m: Mat) -> "Mat":
    """Exact inverse by Gauss-Jordan elimination; raises SingularMatrix."""
    if m.rows != m.cols:
        raise DimMismatch("inverse of a non-square matrix")
    n = m.rows
    aug = [m.row(i) + [CYC_ONE if i == j else CYC_ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        hit = None
        for r in range(col, n):
            if not aug[r][col].is_zero():
                hit = r
                break
        if hit is None:
            raise SingularMatrix(f"no pivot in column {col}")
        if hit != col:
            aug[col], aug[hit] = aug[hit], aug[col]
        piv = aug[col][col]
        if not piv == CYC_ONE:
            aug[col] = [x / piv for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                if not f.is_zero():
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return Mat.from_rows([row[n:] for row in aug])


def mat_pow(m: Mat, k: int) -> Mat:
    if k < 0:
        return mat_pow(mat_inverse(m), -k)
    out = Mat.identity(m.rows)
    base = m
    while k:
        if k & 1:
            out = out.mul(base)
        base = base.mul(base)
        k >>= 1
    return out
