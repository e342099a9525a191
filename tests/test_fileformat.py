"""Serialization: canonical text form, loading, and rejection of bad input."""

import hashlib
import json

import pytest

from hopfcheck import hopf_from_text, hopf_to_text, load_hopf, save_hopf
from hopfcheck.errors import FormatError
from hopfcheck.fileformat import MAX_FIELD_ORDER, load_cayley
from hopfcheck.hopf import same_structure
from helpers import reference_tables


def test_round_trip_entire_zoo(zoo, tmp_path):
    for h in zoo.values():
        text = hopf_to_text(h)
        back = hopf_from_text(text)
        assert back.name == h.name
        assert back.field_order == h.field_order
        assert same_structure(back, h), h.name
        # canonical form is stable under one more round trip
        assert hopf_to_text(back) == text


def test_save_and_load(zoo, tmp_path):
    p = tmp_path / "alg.hopf"
    save_hopf(zoo["sweedler"], p)
    h = load_hopf(p)
    assert h.name == "sweedler"
    assert h.dim == 4


def test_load_missing_file(tmp_path):
    with pytest.raises(FormatError):
        load_hopf(tmp_path / "absent.hopf")


def test_document_shape(zoo):
    doc = json.loads(hopf_to_text(zoo["taft(3)"]))
    assert doc["dim"] == 9
    assert doc["field_order"] == 3
    assert len(doc["mult"]) == 9
    assert len(doc["mult"][0]) == 9
    assert len(doc["mult"][0][0]) == 9
    assert all(isinstance(v, str) for v in doc["unit"])
    assert "star" not in doc  # absent structure stays absent


def test_rejects_malformed_json():
    with pytest.raises(FormatError):
        hopf_from_text("{not json")


def test_rejects_missing_field(zoo):
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    del doc["counit"]
    with pytest.raises(FormatError):
        hopf_from_text(json.dumps(doc))


def test_rejects_unknown_field(zoo):
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    doc["extra"] = 1
    with pytest.raises(FormatError):
        hopf_from_text(json.dumps(doc))


def test_rejects_wrong_dimensions(zoo):
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    doc["unit"] = ["1"]
    with pytest.raises(FormatError):
        hopf_from_text(json.dumps(doc))
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    doc["mult"][0][0] = ["1"]
    with pytest.raises(FormatError):
        hopf_from_text(json.dumps(doc))


def test_rejects_bad_scalar(zoo):
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    doc["unit"][0] = "3q"
    with pytest.raises(FormatError):
        hopf_from_text(json.dumps(doc))
    doc["unit"][0] = 7  # numbers must arrive as strings
    with pytest.raises(FormatError):
        hopf_from_text(json.dumps(doc))


def test_rejects_wrong_types(zoo):
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    doc["dim"] = "2"
    with pytest.raises(FormatError):
        hopf_from_text(json.dumps(doc))
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    doc["name"] = 5
    with pytest.raises(FormatError):
        hopf_from_text(json.dumps(doc))


def test_load_cayley(tmp_path):
    p = tmp_path / "z3.cayley"
    p.write_text("0 1 2\n1 2 0\n2 0 1\n")
    table = load_cayley(p)
    assert table == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    p.write_text("0 1\n1 x\n")
    with pytest.raises(FormatError):
        load_cayley(p)
    with pytest.raises(FormatError):
        load_cayley(tmp_path / "absent.cayley")


def test_scalars_render_relative_to_field_order(zoo):
    # taft(3) has zeta_3 entries; the canonical text writes them as z
    text = hopf_to_text(zoo["taft(3)"])
    assert '"z"' in text
    back = hopf_from_text(text)
    assert hopf_to_text(back) == text


def test_a_repeated_bad_scalar_is_reported_where_it_first_occurs(zoo):
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    doc["mult"][1][0][1] = "1/0"
    doc["antipode"][1][1] = "1/0"
    with pytest.raises(FormatError, match=r"^mult\[1\]\[0\]\[1\]: zero denominator"):
        hopf_from_text(json.dumps(doc))
    doc["mult"][1][0][1] = "1"
    with pytest.raises(FormatError, match=r"^antipode\[1\]\[1\]: zero denominator"):
        hopf_from_text(json.dumps(doc))


# one row of each table field of the C[Z2] document, by the keys that reach
# it; its location text is the first key followed by the others in brackets
ROWS = {"mult": ("mult", 1, 0), "comult": ("comult", 1, 0), "antipode": ("antipode", 1),
        "star": ("star", 1), "unit": ("unit",), "counit": ("counit",)}
READ_ORDER = ("star", "mult", "unit", "comult", "counit", "antipode")
# (how the row is changed, the error text that follows the row's location)
ROW_CASES = (
    (lambda row: "x", ": expected a length-2 array"),
    (lambda row: row[:1], ": expected a length-2 array"),
    (lambda row: ["0", "0", "0"], ": expected a length-2 array"),
    (lambda row: [row[0], 0], "[1]: scalar entries must be strings"),
    (lambda row: [row[0], "1/0"], "[1]: zero denominator in scalar string '1/0'"),
    (lambda row: ["0", "3q"], "[1]: bad scalar term '3q' in '3q'"),
)


def _location(keys: tuple) -> str:
    return keys[0] + "".join(f"[{k}]" for k in keys[1:])


def _change_row(doc: dict, keys: tuple, change) -> None:
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = change(node[keys[-1]])


def _format_error(read, text: str) -> str:
    with pytest.raises(FormatError) as e:
        read(text)
    return str(e.value)


@pytest.mark.parametrize("field", READ_ORDER)
def test_a_bad_row_names_its_location(zoo, field):
    for change, suffix in ROW_CASES:
        doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
        _change_row(doc, ROWS[field], change)
        want = _location(ROWS[field]) + suffix
        assert _format_error(hopf_from_text, json.dumps(doc)) == want
        assert _format_error(reference_tables, json.dumps(doc)) == want


@pytest.mark.parametrize("field, value, want", [
    ("mult", "x", "mult: expected a 2x2x2 array"),
    ("comult", [[["1", "0"], ["0", "0"]]], "comult: expected a 2x2x2 array"),
    ("antipode", [["1", "0"]], "antipode: expected a 2x2 array"),
    ("star", 5, "star: expected a 2x2 array"),
    # checked before the first scalar builds the field
    *[("field_order", order, f"field_order {order} exceeds {MAX_FIELD_ORDER}")
      for order in (MAX_FIELD_ORDER + 1, 10**6, 10**12, 10**30)],
])
def test_a_bad_array_names_its_field(zoo, field, value, want):
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    doc[field] = value
    assert _format_error(hopf_from_text, json.dumps(doc)) == want


def test_a_bad_plane_names_its_location(zoo):
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    doc["mult"][1] = [["0", "0"]]
    assert _format_error(hopf_from_text, json.dumps(doc)) == "mult[1]: expected a 2x2 array"


def test_fields_are_read_in_a_fixed_order(zoo):
    doc = json.loads(hopf_to_text(zoo["C[Z2]"]))
    for field in READ_ORDER:
        _change_row(doc, ROWS[field], lambda row: [row[0], "1/0"])
    for field in READ_ORDER:
        want = _location(ROWS[field]) + "[1]: zero denominator in scalar string '1/0'"
        assert _format_error(hopf_from_text, json.dumps(doc)) == want
        _change_row(doc, ROWS[field], lambda row: [row[0], "0"])


def test_zero_texts_other_than_0_are_parsed_and_dropped(zoo):
    h = zoo["C[Z2]"]
    doc = json.loads(hopf_to_text(h))
    doc["mult"][1][0] = ["0/1", "1"]
    doc["comult"][1][0] = ["0/1", "-0"]  # a zero row, written without the text "0"
    doc["antipode"][0] = ["1", "0/1"]
    doc["star"][1] = ["0/1", "1"]
    doc["unit"] = ["1", "0/1"]
    back = hopf_from_text(json.dumps(doc))
    assert same_structure(back, h)
    assert hopf_to_text(back) == hopf_to_text(h)


# the four single-entry faults of the benchmark's fault workload:
# (base algebra, keys of the entry, new text)
FAULT_EDITS = (
    ("taft(4)", ("mult", 1, 4, 0), "1"),
    ("taft(4)", ("counit", 4), "1"),
    ("taft(4)", ("antipode", 7, 4), "1"),
    ("sweedler(x)sweedler", ("star", 4, 4), "-1"),
)


def test_reader_matches_the_per_row_reference(zoo):
    from hopfcheck import taft

    bases = {**zoo, **{h.name: h for h in (taft(4), taft(5), taft(7))}}
    texts = [hopf_to_text(bases[name]) for name in (*zoo, "taft(5)", "taft(7)")]
    for name, keys, value in FAULT_EDITS:
        doc = json.loads(hopf_to_text(bases[name]))
        _change_row(doc, keys, lambda old: value)
        texts.append(json.dumps(doc, indent=2))
    for text in texts:
        h, want = hopf_from_text(text), reference_tables(text)
        assert {field: getattr(h, field) for field in want} == want, h.name


# sha256 of hopf_to_text, written by the code before the writer stopped
# embedding rationals into the document's field
TEXT_DIGESTS = {
    "C[S3]": "c85f6d9a864cb23b6c74a5b490ede5a610276466e5254627a897d5cb2fa1bd50",
    "C[Z12]": "8dfcbb8d25dba1d3e91d1532ad4ff430b7268140d85937819ef21d585456d28b",
    "C[Z2]": "beb8a91c837e2230f6c49fd9f1e708897f3296a665e4f53b95944a16059b4f5e",
    "C[Z3]": "125123b7210a08e8dc7c5df5888356c59e0ab93182e16995a60e446b8c7db50a",
    "C[Z6]": "363a2833dde2008693cd5d5898a7c17b03b0ec9c56227d194cc51662672faf2c",
    "F(S3)": "073dbc053a6e4adaa1c586424ba60c33baa58066efbf1abc7d7b0e19096bb2ff",
    "F(Z2)": "635f71e747f996639830be2b0c1ebb7393de6e05e4f2d5f72b64c5bb66f48c9e",
    "F(Z3)": "6df25bf1fda4c6a272f823f2739a45ade5a772d80bad142a078fb9c75199ae86",
    "F(Z6)": "0b05bcc34ef53c825ed2fb111884fec59f6dc8337aed9757e2c12f2aeb42de9e",
    "sweedler": "b1d4426f031807389cf2e3e4616d3037b67401e0497aee99705ba8da5058db0c",
    "sweedler(x)C[Z2]": "2042e75beaa9786bab82491bab2f31bdb941301c124e96721638c36304e7d133",
    "sweedler(x)sweedler": "f41b58cbf73c17959c1d2ae11f2ac10d8267898fd61ebe1504ef656cac65e0b4",
    "taft(2)": "7a034c8dc5f45c31fbc4ecf1ab2cc6c9c2f5b087c644cac961854af7992becb5",
    "taft(3)": "2fb9ac666224b1ad056f1bcac09579b849fc089f9e39b5cb63815a505bc989f7",
    "taft(4)": "35085552dd6640cfd17a7a9fffc51dff478275aae2ef8a8e6fc327b8dab3b783",
}


def test_written_text_is_unchanged(zoo):
    from hopfcheck import group_algebra, taft
    from hopfcheck.zoo import cyclic_table

    algebras = list(zoo.values()) + [taft(4), group_algebra("C[Z12]", cyclic_table(12))]
    got = {h.name: hashlib.sha256(hopf_to_text(h).encode("utf-8")).hexdigest()
           for h in algebras}
    assert got == TEXT_DIGESTS


# sha256 of hopf_to_text(taft(n)), written by the code before taft built its
# coproduct with HopfData.tensor_mul in place of a private product
TAFT_DIGESTS = {
    4: "35085552dd6640cfd17a7a9fffc51dff478275aae2ef8a8e6fc327b8dab3b783",
    5: "5775790fca2712b8af8ee5425caa7b2febad13cd2630d1875bd6ee2a7d3309de",
    7: "87d977eae130ffed839e5862575200ac4c076ce34e76a503615516a5afbe4e38",
}


@pytest.mark.parametrize("n", sorted(TAFT_DIGESTS))
def test_taft_tables_are_unchanged(n):
    from hopfcheck import taft

    text = hopf_to_text(taft(n))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TAFT_DIGESTS[n]
