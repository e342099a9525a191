"""Small constructors the tests share."""

from hopfcheck import CYC_ZERO, Cyc, Mat, Tensor3


def mat_from_rows(rows: list) -> Mat:
    """The matrix whose row i is the list of scalars rows[i]."""
    cols = len(rows[0]) if rows else 0
    assert all(len(row) == cols for row in rows), "ragged rows"
    return Mat.of(len(rows), cols, {(i, j): x for i, row in enumerate(rows)
                                     for j, x in enumerate(row)})


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
