"""Small constructors the tests share."""

import dataclasses
import json
from math import lcm

from hopfcheck import CYC_ZERO, Cyc, Elem, Mat, Tensor3
from hopfcheck.errors import FormatError
from hopfcheck.fileformat import _scalar_reader


def mat_from_rows(rows: list) -> Mat:
    """The matrix whose row i is the list of scalars rows[i]."""
    cols = len(rows[0]) if rows else 0
    assert all(len(row) == cols for row in rows), "ragged rows"
    return Mat.of(len(rows), cols, {(i, j): x for i, row in enumerate(rows)
                                     for j, x in enumerate(row)})


def rebased(h, s):
    """h in the basis f_i = s[i] e_i, over h's field with zeta_8 adjoined.
    With s[i] = 2 + zeta_8^i every table has non-real entries, so a law that
    drops a conjugation or transposes without it fails on the rebased h
    though it holds on h.  A member with no star keeps none."""
    d = h.dim

    def mat(m, scale):
        return Mat.of(d, d, {(k, i): c * scale(s[i]) / s[k]
                             for i, col in enumerate(m.images) for k, c in col.support})
    return dataclasses.replace(
        h, field_order=lcm(8, h.field_order),
        mult=Tensor3(d, {(i, j, k): c * s[i] * s[j] / s[k] for (i, j, k), c in h.mult.items()}),
        unit=Elem.of(d, ((k, c / s[k]) for k, c in h.unit.support)),
        comult=Tensor3(d, {(k, i, j): c * s[k] / (s[i] * s[j])
                           for (k, i, j), c in h.comult.items()}),
        counit=Elem.of(d, ((i, c * s[i]) for i, c in h.counit.support)),
        antipode=mat(h.antipode, lambda x: x),
        star=None if h.star is None else mat(h.star, Cyc.conjugate))


def op(h):
    """H^op: the product reversed, e_i .op e_j = e_j e_i, with antipode S^-1
    and the same star."""
    mult = Tensor3(h.dim, {(j, i, k): c for (i, j, k), c in h.mult.items()})
    return dataclasses.replace(h, name=h.name + "^op", mult=mult, antipode=h.s_inv)


def cop(h):
    """H^cop: the coproduct flipped, D^cop = flip D, with antipode S^-1 and
    the same star."""
    comult = Tensor3(h.dim, {(k, j, i): c for (k, i, j), c in h.comult.items()})
    return dataclasses.replace(h, name=h.name + "^cop", comult=comult, antipode=h.s_inv)


def opcop(h):
    """H^op,cop: both reversed, with antipode S and the same star."""
    return dataclasses.replace(op(cop(h)), name=h.name + "^opcop", antipode=h.antipode)


def products(h) -> tuple:
    """products(h)[i][j] = e_i e_j, a view of the stored row h.mult.rows[i][j]:
    its (k, coeff) terms already are an Elem support (nonzero, increasing
    k), so the table costs no scalar arithmetic."""
    d = h.dim
    return tuple(tuple(Elem(d, row.get(j, ())) for j in range(d)) for row in h.mult.rows)


def entry(table, *index) -> Cyc:
    """Entry (i, j) of a Mat or (a, b, c) of a Tensor3, zero where nothing is stored."""
    if isinstance(table, Tensor3):
        a, b, key = index
        pairs = table.rows[a].get(b, ())
    else:
        key, j = index
        pairs = table.images[j].support
    return next((v for k, v in pairs if k == key), CYC_ZERO)


def pair_scan(dim: int, *rows, first=None) -> str | None:
    """A bilinear law scanned one pair (i, j) at a time, the form the
    package's pair laws had before each was read as one sparse row per i.
    rows are (template, lhs, rhs) with sides taking (i, j); i runs over first
    (every index when None) and j over range(dim), in lexicographic order,
    and at each pair every row is compared in turn.  The first mismatch
    returns template.format(i, j, slot=...), slot the smallest key at which
    two dict sides differ, and None when every pair holds."""
    for i in range(dim) if first is None else first:
        for j in range(dim):
            for template, lhs, rhs in rows:
                left, right = lhs(i, j), rhs(i, j)
                if left != right:
                    slot = None
                    if isinstance(left, dict) and isinstance(right, dict):
                        slot = min(k for k in left.keys() | right.keys()
                                   if left.get(k) != right.get(k))
                    return template.format(i, j, slot=slot)
    return None


def reference_tables(text: str) -> dict:
    """The six structure tables of a .hopf document, read as the reader did
    before it skipped all-"0" rows: one located per-row read of every row,
    matrices through Mat.of and tensors through one entry dict, in the field
    order star, mult, unit, comult, counit, antipode.  It checks the table
    fields only, with the same FormatError texts."""
    doc = json.loads(text)
    d = doc["dim"]
    read = _scalar_reader(doc["field_order"])

    def vector(raw, where):
        if not isinstance(raw, list) or len(raw) != d:
            raise FormatError(f"{where}: expected a length-{d} array")
        out = []
        for i, x in enumerate(raw):
            if x != "0":
                try:
                    out.append((i, read(x)))
                except FormatError as e:
                    raise FormatError(f"{where}[{i}]: {e}") from e
        return out

    def matrix(raw, where):
        if not isinstance(raw, list) or len(raw) != d:
            raise FormatError(f"{where}: expected a {d}x{d} array")
        return Mat.of(d, d, {(r, c): x for r, row in enumerate(raw)
                             for c, x in vector(row, f"{where}[{r}]")})

    def tensor(raw, where):
        if not isinstance(raw, list) or len(raw) != d:
            raise FormatError(f"{where}: expected a {d}x{d}x{d} array")
        entries = {}
        for a, plane in enumerate(raw):
            if not isinstance(plane, list) or len(plane) != d:
                raise FormatError(f"{where}[{a}]: expected a {d}x{d} array")
            for b, row in enumerate(plane):
                for c, x in vector(row, f"{where}[{a}][{b}]"):
                    entries[a, b, c] = x
        return Tensor3(d, entries)

    out = {"star": matrix(doc["star"], "star") if "star" in doc else None}
    out["mult"] = tensor(doc["mult"], "mult")
    out["unit"] = Elem.of(d, vector(doc["unit"], "unit"))
    out["comult"] = tensor(doc["comult"], "comult")
    out["counit"] = Elem.of(d, vector(doc["counit"], "counit"))
    out["antipode"] = matrix(doc["antipode"], "antipode")
    return out


def find_group_likes_by_stack(h, first=None) -> list:
    """hopf.find_group_likes as it was before its float step read one operator
    per weight: the d x d x d stack r_ops[j][i][k] = comult[k][i][j] of the
    right-slot operators, each restricted to J^perp, and every coordinate
    g_j read off each unit eigenvector v as (R_j v)_p / v_p at its largest
    coordinate p, each rounded by its own _exactify call.  J^perp, the exact
    confirmation and the canonical sort are the package's."""
    import numpy as np

    from hopfcheck import hopf
    from hopfcheck.cyclotomic import lcm
    from hopfcheck.errors import NumericalFailure

    d = h.dim
    free, basis = hopf._group_like_span(h)
    n = len(basis)
    r_ops = np.zeros((d, d, d), dtype=complex)
    for (k, a, b), c in h.comult.items():
        r_ops[b, a, k] += c.to_complex()
    w = np.array([[c.to_complex() for c in v.coords] for v in basis]).reshape(n, d).T
    ops = r_ops[:, free, :] @ w  # R_j on J^perp, in free-slot coordinates
    orders = sorted({lcm(h.field_order, e) for e in range(1, d + 1) if d % e == 0})
    field = lcm(*orders)
    found: list = []
    for theta in hopf._WEIGHT_PHASES:
        if len(found) == n:
            break
        weights = np.exp(2j * np.pi * theta * np.arange(1, d + 1) ** 2)
        vecs = np.linalg.eig(np.tensordot(weights, ops, axes=1))[1]
        p = np.abs(vecs).argmax(axis=0)
        values = np.einsum("jmk,km->mj", ops[:, p, :], vecs) / vecs[p, np.arange(n)][:, None]
        confirmed: list = []
        seen: set = set()
        for row in values:
            coords = [hopf._exactify(complex(x), orders) for x in row]
            if None in coords:
                continue
            g = Elem.of(d, enumerate(coords))
            key = hopf._key(g, field)
            if key not in seen:
                seen.add(key)
                if hopf.is_group_like(h, g, first):
                    confirmed.append(g)
        found = max(found, confirmed, key=len)
    if len(found) < n:
        raise NumericalFailure(f"{h.name}: found {len(found)} of {n} group-likes")
    key_order = lcm(1, *(c.order for g in found for _, c in g.support))
    return sorted(found, key=lambda g: tuple(c.sort_key(key_order) for c in g.coords))
