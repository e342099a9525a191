"""On-disk form of the structure constants.

One structured-text document per algebra, two-space indent, fields in a
fixed order, every scalar rendered minimally relative to the document's
field_order.  Writing is canonical: the same algebra always produces the
same bytes, which is what lets dual-of-dual round trips be compared as
files.
"""

from __future__ import annotations

import json

from .cyclotomic import CYC_ZERO, Cyc
from .errors import FormatError
from .hopf import HopfData
from .linalg import Elem, Mat, Tensor3

FIELDS = ("name", "dim", "field_order", "mult", "comult",
          "unit", "counit", "antipode", "star")


def hopf_to_text(h: HopfData) -> str:
    n = h.field_order
    d = h.dim

    def s(c: Cyc) -> str:
        return c.text(n)

    doc = {
        "name": h.name,
        "dim": d,
        "field_order": n,
        "mult": _tensor_text(h.mult, s),
        "comult": _tensor_text(h.comult, s),
        "unit": [s(c) for c in h.unit.coords],
        "counit": [s(c) for c in h.counit.coords],
        "antipode": _matrix_text(h.antipode, s),
    }
    if h.star is not None:
        doc["star"] = _matrix_text(h.star, s)
    return json.dumps(doc, indent=2) + "\n"


def _matrix_text(m: Mat, s) -> list:
    """The list of rows of scalar strings, each nonzero rendered once."""
    zero = s(CYC_ZERO)
    out = [[zero] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(m.images):
        for i, c in col.support:
            out[i][j] = s(c)
    return out


def _tensor_text(t: Tensor3, s) -> list:
    """The nested d x d x d array of scalar strings, each nonzero rendered once."""
    d, zero = t.dim, s(CYC_ZERO)
    out = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for (a, b, c), v in t.items():
        out[a][b][c] = s(v)
    return out


def _scalar_reader(order: int):
    """read(raw) -> Cyc, parsing each distinct string once; Cyc is
    immutable, so equal entries share one instance."""
    parsed: dict = {}

    def read(raw) -> Cyc:
        if not isinstance(raw, str):
            raise FormatError("scalar entries must be strings")
        c = parsed.get(raw)
        if c is None:
            c = parsed[raw] = Cyc.parse(raw, order)
        return c

    return read


def _vector(raw, d: int, read, where: str) -> list:
    """The (index, value) pairs of the entries other than the zero text "0",
    which is skipped unparsed; an entry that fails names its location."""
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


def _rows(raw, d: int, read, where: str):
    """The (r, entries) of each row r of the d x d array raw that holds an
    entry other than "0", entries being its (column, value) pairs.  A row
    of d "0" texts costs one count, and the other rows are read inline.
    A row that is not a length-d list, or holds an entry that does not
    read, goes to _vector, which raises with the location, so a location
    text is built only on failure and names the entry the per-row read
    would have named first."""
    if not isinstance(raw, list) or len(raw) != d:
        raise FormatError(f"{where}: expected a {d}x{d} array")
    for r, row in enumerate(raw):
        if isinstance(row, list) and len(row) == d:
            if row.count("0") == d:
                continue
            try:
                entries = [(c, read(x)) for c, x in enumerate(row) if x != "0"]
            except FormatError:
                entries = _vector(row, d, read, f"{where}[{r}]")
        else:
            entries = _vector(row, d, read, f"{where}[{r}]")
        yield r, entries


def _matrix(raw, d: int, read, where: str) -> Mat:
    rows = list(_rows(raw, d, read, where))  # checks raw's shape before d columns exist
    columns: list = [[] for _ in range(d)]
    for r, entries in rows:
        for c, x in entries:
            if not x.is_zero():  # an entry such as "0/1" parses to zero
                columns[c].append((r, x))
    # rows arrive in increasing r, so each column is already a canonical support
    return Mat(d, d, tuple(Elem(d, tuple(col)) for col in columns))


def _tensor(raw, d: int, read, where: str) -> Tensor3:
    if not isinstance(raw, list) or len(raw) != d:
        raise FormatError(f"{where}: expected a {d}x{d}x{d} array")
    return Tensor3(d, {(a, b, c): x for a, plane in enumerate(raw)
                       for b, entries in _rows(plane, d, read, f"{where}[{a}]")
                       for c, x in entries})


MAX_FIELD_ORDER = 1024
"""The largest field order a document or `zoo taft --n` may name.  The
first scalar read builds the cyclotomic polynomial of the order, by dividing
x^n - 1 by that of every proper divisor.  Up to 1024 that takes at most
0.06 s (at 840), but 1.3 s at 3,960 and 6 s at 10^5, and at 10^12 the
coefficient list alone exhausts memory.  An algebra whose constants need a
larger field has a dimension far past what the exact layer can check."""


def _positive_int(doc: dict, field: str) -> int:
    raw = doc[field]
    # JSON true/false load as bool, which Python counts as an int
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise FormatError(f"{field} must be a positive integer")
    return raw


def hopf_from_text(text: str) -> HopfData:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # bad JSON, an integer past int()'s digit limit, or arrays nested
        # past the recursion limit
        raise FormatError(f"not a structured-text document: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError("top level must be a mapping")
    for field in FIELDS[:-1]:
        if field not in doc:
            raise FormatError(f"missing field {field!r}")
    unknown = set(doc) - set(FIELDS)
    if unknown:
        raise FormatError(f"unknown fields {sorted(unknown)}")
    d = _positive_int(doc, "dim")
    order = _positive_int(doc, "field_order")
    if order > MAX_FIELD_ORDER:
        raise FormatError(f"field_order {order} exceeds {MAX_FIELD_ORDER}")
    read = _scalar_reader(order)
    star = None
    if "star" in doc:
        star = _matrix(doc["star"], d, read, "star")
    return HopfData(
        name=doc["name"], dim=d, field_order=order,
        mult=_tensor(doc["mult"], d, read, "mult"),
        unit=Elem.of(d, _vector(doc["unit"], d, read, "unit")),
        comult=_tensor(doc["comult"], d, read, "comult"),
        counit=Elem.of(d, _vector(doc["counit"], d, read, "counit")),
        antipode=_matrix(doc["antipode"], d, read, "antipode"),
        star=star)


def save_hopf(h: HopfData, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(hopf_to_text(h))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from e


def load_hopf(path: str) -> HopfData:
    return hopf_from_text(_read_text(path))


def load_cayley(path: str) -> list:
    """Cayley table file: one row per line, 0-based indices, whitespace split."""
    lines = [ln for ln in (line.strip() for line in _read_text(path).split("\n")) if ln]
    table = []
    for ln in lines:
        try:
            table.append([int(tok) for tok in ln.split()])
        except ValueError as e:
            raise FormatError(f"{path}: non-integer entry in Cayley table") from e
    if not table:
        raise FormatError(f"{path}: empty Cayley table")
    return table
