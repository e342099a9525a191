"""Builders for the stock of test algebras.

Every builder returns fully verified-by-construction structure data; the
axiom suite in hopf.py is still run over each one in the tests, so a bug
here shows up as a red check rather than a silent wrong answer.
"""

from __future__ import annotations

from .cyclotomic import CYC_MINUS_ONE, CYC_ONE, Cyc, lcm
from .errors import FormatError, InvalidCayleyTable, NotPrimitiveRoot
from .hopf import HopfData
from .linalg import Elem, Mat, Tensor3


def _validate_cayley(table: list) -> list:
    """Check a Cayley table is a genuine group law; return the inverse map."""
    n = len(table)
    if n == 0:
        raise InvalidCayleyTable("empty table")
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise InvalidCayleyTable("table is not n x n over 0..n-1")
    for j in range(n):
        if table[0][j] != j or table[j][0] != j:
            raise InvalidCayleyTable("index 0 is not a two-sided identity")
    for i in range(n):
        if sorted(table[i]) != list(range(n)) or sorted(r[i] for r in table) != list(range(n)):
            raise InvalidCayleyTable("table rows/columns are not permutations")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise InvalidCayleyTable(f"associativity fails at ({i},{j},{k})")
    inv = [0] * n
    for i in range(n):
        hits = [j for j in range(n) if table[i][j] == 0]
        if len(hits) != 1:
            raise InvalidCayleyTable(f"element {i} has no unique inverse")
        inv[i] = hits[0]
    return inv


def group_algebra(name: str, table: list) -> HopfData:
    """Group algebra from a Cayley table.

    table[i][j] is the 0-based index of the product of elements i and j.
    Index 0 must be the identity.  Star sends each group element to its
    inverse, which makes every complex group algebra a *-algebra.
    """
    n = len(table)
    inv = _validate_cayley(table)
    mult = {(i, j, table[i][j]): CYC_ONE for i in range(n) for j in range(n)}
    comult = {(i, i, i): CYC_ONE for i in range(n)}
    inverse = Mat.of(n, n, {(inv[i], i): CYC_ONE for i in range(n)})
    return HopfData(
        name=name, dim=n, field_order=1,
        mult=Tensor3(n, mult), unit=Elem.of(n, ((0, CYC_ONE),)),
        comult=Tensor3(n, comult), counit=Elem.of(n, ((i, CYC_ONE) for i in range(n))),
        antipode=inverse, star=inverse)


def function_algebra(name: str, table: list) -> HopfData:
    """Functions on a finite group, in the basis of point indicators.

    Pointwise product, coproduct dual to the group law, antipode pulls
    back along inversion, star is pointwise conjugation (the identity
    matrix in this basis).
    """
    n = len(table)
    inv = _validate_cayley(table)
    mult = {(i, i, i): CYC_ONE for i in range(n)}
    comult = {(table[a][b], a, b): CYC_ONE for a in range(n) for b in range(n)}
    return HopfData(
        name=name, dim=n, field_order=1,
        mult=Tensor3(n, mult), unit=Elem.of(n, ((i, CYC_ONE) for i in range(n))),
        comult=Tensor3(n, comult), counit=Elem.of(n, ((0, CYC_ONE),)),
        antipode=Mat.of(n, n, {(inv[i], i): CYC_ONE for i in range(n)}), star=Mat.identity(n))


def cyclic_table(n: int) -> list:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table_s3() -> list:
    """S_3 with elements ordered e, r, r2, s, sr, sr2 (r of order 3, s of order 2)."""
    elems = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]  # (s-exp, r-exp), s r = r^2 s
    def mul(a, b):
        sa, ra = a
        sb, rb = b
        # (s^sa r^ra)(s^sb r^rb) = s^(sa+sb) r^(ra*(-1)^sb + rb)
        return ((sa + sb) % 2, (ra * (1 if sb == 0 else -1) + rb) % 3)
    return [[elems.index(mul(a, b)) for b in elems] for a in elems]


def sweedler() -> HopfData:
    """The 4-dimensional algebra with basis 1, g, x, gx: g^2=1, x^2=0, xg=-gx,
    g group-like, x skew-primitive, S(g)=g, S(x)=-gx, star fixes 1, g, x and
    flips the sign of gx."""
    d = 4
    I, G, X, GX = range(4)
    rules = {
        (I, I): [(I, 1)], (I, G): [(G, 1)], (I, X): [(X, 1)], (I, GX): [(GX, 1)],
        (G, I): [(G, 1)], (G, G): [(I, 1)], (G, X): [(GX, 1)], (G, GX): [(X, 1)],
        (X, I): [(X, 1)], (X, G): [(GX, -1)], (X, X): [], (X, GX): [],
        (GX, I): [(GX, 1)], (GX, G): [(X, -1)], (GX, X): [], (GX, GX): [],
    }
    mult = {(i, j, k): Cyc.rational(c) for (i, j), terms in rules.items() for k, c in terms}
    comult = {
        (I, I, I): CYC_ONE, (G, G, G): CYC_ONE,
        # D(x) = x (x) 1 + g (x) x
        (X, X, I): CYC_ONE, (X, G, X): CYC_ONE,
        # D(gx) = D(g) D(x) = gx (x) g + 1 (x) gx
        (GX, GX, G): CYC_ONE, (GX, I, GX): CYC_ONE,
    }
    antipode = {(I, I): CYC_ONE, (G, G): CYC_ONE,
                (GX, X): CYC_MINUS_ONE,  # S(x) = -gx
                (X, GX): CYC_ONE}        # S(gx) = x
    star = {(I, I): CYC_ONE, (G, G): CYC_ONE, (X, X): CYC_ONE, (GX, GX): CYC_MINUS_ONE}
    return HopfData(
        name="sweedler", dim=d, field_order=1,
        mult=Tensor3(d, mult), unit=Elem.of(d, ((I, CYC_ONE),)),
        comult=Tensor3(d, comult), counit=Elem.of(d, ((I, CYC_ONE), (G, CYC_ONE))),
        antipode=Mat.of(d, d, antipode), star=Mat.of(d, d, star))


def taft(n: int, q: Cyc | None = None) -> HopfData:
    """Taft algebra of dimension n^2: generators g, x with g^n=1, x^n=0,
    xg = q gx for a primitive n-th root of unity q.  Basis ordered
    1, g, ..., g^(n-1), x, gx, ..., g^(n-1)x, ..., g^(n-1)x^(n-1),
    so index(g^i x^j) = j*n + i.  No star structure for n > 2."""
    if n < 2:
        raise FormatError("need n >= 2")
    if q is None:
        q = Cyc.root(n, 1)
    # q must be a primitive n-th root of unity
    p = CYC_ONE
    for m in range(1, n):
        p = p * q
        if p == CYC_ONE:
            raise NotPrimitiveRoot(f"q^{m} = 1 with m < n")
    if p * q != CYC_ONE:
        raise NotPrimitiveRoot("q^n != 1")

    d = n * n
    idx = lambda i, j: j * n + i
    qpow = [CYC_ONE]
    for _ in range(1, n):
        qpow.append(qpow[-1] * q)

    # (g^i x^j)(g^k x^l) = q^(jk) g^(i+k) x^(j+l), zero past x^n
    mult = {(idx(i, j), idx(k, l), idx((i + k) % n, j + l)): qpow[(j * k) % n]
            for i in range(n) for j in range(n) for k in range(n) for l in range(n - j)}

    # the coproduct and the antipode are filled in once h can multiply
    h = HopfData(name=f"taft({n})", dim=d, field_order=q.order,
                 mult=Tensor3(d, mult), unit=Elem.of(d, ((0, CYC_ONE),)),
                 comult=Tensor3(d, {}), counit=Elem.of(d, ((v, CYC_ONE) for v in range(n))),
                 antipode=Mat.identity(d), star=None)

    # coproduct: D(g) = g (x) g, D(x) = x (x) 1 + g (x) x, extended
    # multiplicatively inside the tensor square
    comult: dict = {}
    dx = {(idx(0, 1), idx(0, 0)): CYC_ONE, (idx(1, 0), idx(0, 1)): CYC_ONE}
    for i in range(n):
        for j in range(n):
            t = {(idx(i, 0), idx(i, 0)): CYC_ONE}  # D(g)^i = g^i (x) g^i
            for _ in range(j):
                t = h.tensor_mul(t, dx)
            for (a, b), c in t.items():
                comult[idx(i, j), a, b] = c
    h.comult = Tensor3(d, comult)

    # S(g) = g^(n-1), S(x) = -g^(n-1) x; anti-homomorphism on the basis:
    # S(g^i x^j) = S(x)^j S(g)^i = (-1)^j q^(j(j-1)/2) ... computed by
    # multiplying exact elements instead of trusting a closed form.
    sg = h.basis(idx(n - 1, 0))
    sx = Elem.of(d, ((idx(n - 1, 1), CYC_MINUS_ONE),))
    images = {}
    for i in range(n):
        for j in range(n):
            acc = h.unit
            for _ in range(j):
                acc = h.mul(acc, sx)
            for _ in range(i):
                acc = h.mul(acc, sg)
            images[idx(i, j)] = acc
    h.antipode = Mat(d, d, tuple(images[col] for col in range(d)))
    return h


def tensor_product(name: str, h1: HopfData, h2: HopfData) -> HopfData:
    """Componentwise tensor product; index (i1, i2) -> i1*dim2 + i2."""
    d1, d2 = h1.dim, h2.dim
    d = d1 * d2
    fo = lcm(h1.field_order, h2.field_order)
    idx = lambda a, b: a * d2 + b

    def kron(t1: Tensor3, t2: Tensor3) -> Tensor3:
        return Tensor3(d, {(idx(a1, a2), idx(b1, b2), idx(c1, c2)): v1 * v2
                           for (a1, b1, c1), v1 in t1.items() for (a2, b2, c2), v2 in t2.items()})

    def kron_elem(x: Elem, y: Elem) -> Elem:
        return Elem.of(d, ((idx(a, b), u * v) for a, u in x.support for b, v in y.support))

    def kron_mat(m1: Mat, m2: Mat) -> Mat:  # column idx(i, j) is m1(e_i) (x) m2(e_j)
        return Mat(d, d, tuple(kron_elem(x, y) for x in m1.images for y in m2.images))

    star = None
    if h1.star is not None and h2.star is not None:
        star = kron_mat(h1.star, h2.star)
    return HopfData(name=name, dim=d, field_order=fo,
                    mult=kron(h1.mult, h2.mult), unit=kron_elem(h1.unit, h2.unit),
                    comult=kron(h1.comult, h2.comult), counit=kron_elem(h1.counit, h2.counit),
                    antipode=kron_mat(h1.antipode, h2.antipode), star=star)


def standard_zoo() -> list:
    """The fixed list of algebras every cross-cutting test runs over."""
    out = [
        group_algebra("C[Z2]", cyclic_table(2)),
        group_algebra("C[Z3]", cyclic_table(3)),
        group_algebra("C[Z6]", cyclic_table(6)),
        group_algebra("C[S3]", symmetric_table_s3()),
        function_algebra("F(Z2)", cyclic_table(2)),
        function_algebra("F(Z3)", cyclic_table(3)),
        function_algebra("F(Z6)", cyclic_table(6)),
        function_algebra("F(S3)", symmetric_table_s3()),
        sweedler(),
        taft(2),
        taft(3),
    ]
    out.append(tensor_product("sweedler(x)C[Z2]", sweedler(),
                              group_algebra("C[Z2]", cyclic_table(2))))
    out.append(tensor_product("sweedler(x)sweedler", sweedler(), sweedler()))
    return out
