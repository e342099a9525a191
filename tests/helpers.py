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
