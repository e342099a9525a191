"""Small constructors the tests share."""

from hopfcheck import Mat


def mat_from_rows(rows: list) -> Mat:
    """The matrix whose row i is the list of scalars rows[i]."""
    cols = len(rows[0]) if rows else 0
    assert all(len(row) == cols for row in rows), "ragged rows"
    return Mat.of(len(rows), cols, {(i, j): x for i, row in enumerate(rows)
                                     for j, x in enumerate(row)})
