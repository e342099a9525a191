"""Command line surface: exit codes, determinism, fault detection."""

import json
import resource
import subprocess
import sys

import pytest

from hopfcheck.cli import build_parser, main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


@pytest.fixture()
def sweedler_file(tmp_path, capsys):
    p = tmp_path / "sweedler.hopf"
    assert main(["zoo", "sweedler", "-o", str(p)]) == 0
    capsys.readouterr()
    return p


def test_zoo_writes_to_stdout(capsys):
    code, out, _ = run_cli("zoo", "C[Z2]", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "C[Z2]"
    assert doc["dim"] == 2


def test_zoo_unknown_name(capsys):
    code, _, err = run_cli("zoo", "octonions", capsys=capsys)
    assert code == 2
    assert "unknown" in err


def test_zoo_taft_requires_n(capsys):
    code, _, err = run_cli("zoo", "taft", capsys=capsys)
    assert code == 2
    code2, out, _ = run_cli("zoo", "taft", "--n", "3", capsys=capsys)
    assert code2 == 0
    assert json.loads(out)["dim"] == 9


def test_zoo_taft_explicit_q_matches_default(capsys):
    _, out1, _ = run_cli("zoo", "taft", "--n", "3", capsys=capsys)
    _, out2, _ = run_cli("zoo", "taft", "--n", "3", "--q", "z", capsys=capsys)
    assert out1 == out2


def test_zoo_group_from_cayley(tmp_path, capsys):
    p = tmp_path / "z3.cayley"
    p.write_text("0 1 2\n1 2 0\n2 0 1\n")
    code, out, _ = run_cli("zoo", "group", "--cayley", str(p), capsys=capsys)
    assert code == 0
    assert json.loads(out)["name"] == "C[z3]"
    code, out, _ = run_cli("zoo", "function", "--cayley", str(p),
                           "--label", "F3", capsys=capsys)
    assert code == 0
    assert json.loads(out)["name"] == "F3"


def test_zoo_rejects_bad_cayley(tmp_path, capsys):
    p = tmp_path / "bad.cayley"
    p.write_text("0 1\n1 1\n")  # not a Latin square
    code, _, err = run_cli("zoo", "group", "--cayley", str(p), capsys=capsys)
    assert code == 2
    assert err


def test_verify_clean_file(sweedler_file, capsys):
    code, out, _ = run_cli("verify", str(sweedler_file), capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("VERIFY sweedler dim=4")
    assert all(l.startswith("CHECK ") for l in lines[1:])
    assert not any(" FAIL " in l for l in lines)
    # every advertised stage reports
    for name in ("algebra", "radford-s4", "tomita-commutant", "biduality"):
        assert any(l.split()[1] == name for l in lines[1:]), name


def test_verify_only_flag(sweedler_file, capsys):
    code, out, _ = run_cli("verify", str(sweedler_file),
                           "--only", "radford-s4", capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split()[1] == "radford-s4"


def _rejected_option(capsys, *argv) -> str:
    """stderr of a verify call that argparse must refuse before any output."""
    with pytest.raises(SystemExit) as exit_:
        main(["verify", *argv])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
    return err


def test_verify_only_rejects_a_name_no_check_has(sweedler_file, capsys):
    # a misspelt name would otherwise print the header alone and exit 0,
    # hiding every FAIL
    err = _rejected_option(capsys, "--only", "no-such-check", str(sweedler_file))
    assert "argument --only: invalid choice: 'no-such-check'" in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_positive(sweedler_file, capsys,
                                                                    value):
    err = _rejected_option(capsys, "--tolerance", value, str(sweedler_file))
    assert f"must be finite and > 0, got '{value}'" in err


def test_a_check_that_raises_is_a_fail_not_an_input_error(sweedler_file, monkeypatch,
                                                           capsys):
    from hopfcheck import pipeline
    from hopfcheck.errors import HopfError

    def broken(*args, **kwargs):
        raise HopfError("biduality made to raise")

    monkeypatch.setattr(pipeline, "biduality_check", broken)
    code, out, err = run_cli("verify", str(sweedler_file), capsys=capsys)
    assert code == 1
    assert ("CHECK biduality FAIL dual(dual(A))=A exactly ! biduality made to raise"
            in out.splitlines())
    assert "error:" not in err


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run_cli("verify", str(tmp_path / "none.hopf"), capsys=capsys)
    assert code == 2
    assert err


def test_verify_malformed_file(tmp_path, capsys):
    p = tmp_path / "junk.hopf"
    p.write_text("{]")
    code, _, err = run_cli("verify", str(p), capsys=capsys)
    assert code == 2


def test_shared_parser_matches_a_fresh_one(sweedler_file, tmp_path, capsys):
    # the parser is built once per process; each call must print what it
    # prints when it is the first call on a newly built parser
    junk = tmp_path / "junk.hopf"
    junk.write_text("{]")
    calls = [("verify", str(sweedler_file)), ("report", str(sweedler_file)),
             ("verify", "--only", "radford-s4", str(sweedler_file)), ("verify", str(junk))]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(*argv, capsys=capsys))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2]
    build_parser.cache_clear()
    assert [run_cli(*argv, capsys=capsys) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1


def _corrupt(sweedler_file, tmp_path, mutate):
    doc = json.loads(sweedler_file.read_text())
    mutate(doc)
    p = tmp_path / "corrupt.hopf"
    p.write_text(json.dumps(doc))
    return p


def test_corrupt_product_is_caught(sweedler_file, tmp_path, capsys):
    def mutate(doc):
        doc["mult"][1][2][0] = "1"  # g x picks up a spurious unit term
    p = _corrupt(sweedler_file, tmp_path, mutate)
    code, out, _ = run_cli("verify", str(p), capsys=capsys)
    assert code == 1
    fail_lines = [l for l in out.splitlines() if " FAIL " in l]
    assert any(l.split()[1] == "algebra" for l in fail_lines)


def test_corrupt_counit_is_caught(sweedler_file, tmp_path, capsys):
    def mutate(doc):
        doc["counit"][2] = "1"
    p = _corrupt(sweedler_file, tmp_path, mutate)
    code, out, _ = run_cli("verify", str(p), capsys=capsys)
    assert code == 1
    fail_lines = [l for l in out.splitlines() if " FAIL " in l]
    assert any(l.split()[1] in ("coalgebra", "bialgebra") for l in fail_lines)


def test_corrupt_antipode_sign_is_caught(sweedler_file, tmp_path, capsys):
    def mutate(doc):
        doc["antipode"][3][2] = "1"  # sign flip on the nilpotent column
    p = _corrupt(sweedler_file, tmp_path, mutate)
    code, out, _ = run_cli("verify", str(p), capsys=capsys)
    assert code == 1
    fail_lines = [l for l in out.splitlines() if " FAIL " in l]
    assert any(l.split()[1] == "antipode" for l in fail_lines)


def test_verify_deterministic_across_processes(sweedler_file):
    cmd = [sys.executable, "-m", "hopfcheck.cli", "verify", str(sweedler_file)]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # not trivially empty


def test_report_contents(sweedler_file, capsys):
    code, out, _ = run_cli("report", str(sweedler_file), capsys=capsys)
    assert code == 0
    assert "REPORT sweedler" in out
    assert "nu = -1" in out
    assert "ord(S) = 4" in out
    assert "ord(S^2) = 2" in out
    assert "unimodular = no" in out
    assert "counimodular = no" in out
    assert "kac = no" in out
    assert "note:" in out


def test_report_kac_member(tmp_path, capsys):
    p = tmp_path / "cz2.hopf"
    assert main(["zoo", "C[Z2]", "-o", str(p)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli("report", str(p), capsys=capsys)
    assert code == 0
    assert "kac = finite-quantum-group" in out
    assert "nu = 1" in out


def test_dual_round_trip_bytes(sweedler_file, tmp_path, capsys):
    d1 = tmp_path / "dual.hopf"
    d2 = tmp_path / "double.hopf"
    assert main(["dual", str(sweedler_file), "-o", str(d1)]) == 0
    assert main(["dual", str(d1), "-o", str(d2)]) == 0
    capsys.readouterr()
    assert json.loads(d1.read_text())["name"] == "sweedler^"
    assert d2.read_bytes() == sweedler_file.read_bytes()


def test_console_script_is_installed():
    proc = subprocess.run(["hopfcheck", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout


UNPRINTABLE = [("\n", "newline"), ("\r", "return"), ("\t", "tab"), ("\x1b", "escape"),
               ("\u2028", "line-separator")]
UNPRINTABLE_NAME = "name must be a nonempty string of printable characters"


@pytest.mark.parametrize("path, value, message", [
    (("unit", 0), "1/0", "unit[0]: zero denominator"),
    (("dim",), True, "dim must be a positive integer"),
    (("field_order",), True, "field_order must be a positive integer"),
    pytest.param(("unit", 0), "1" + "0" * 5000,
                 "unit[0]: scalar numeral of 5001 digits is too long",
                 id="numeral-past-digit-limit"),
    *[pytest.param(("field_order",), order, f"field_order {order} exceeds 1024",
                   id=f"field-order-{order:.0e}") for order in (10**6, 10**12, 10**30)],
    # a name is printed in the VERIFY header, so a line break in it could
    # forge a CHECK line
    *[pytest.param(("name",), f"a{c}CHECK algebra PASS", UNPRINTABLE_NAME, id=f"name-{label}")
      for c, label in UNPRINTABLE],
])
def test_verify_rejects_bad_values_with_one_error_line(sweedler_file, tmp_path, capsys,
                                                       path, value, message):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    p = _corrupt(sweedler_file, tmp_path, mutate)
    code, out, err = run_cli("verify", str(p), capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


def test_report_renders_cyclotomic_group_likes(tmp_path, capsys):
    # F(Z3) is rational, but its group-likes (the characters of Z3) need zeta_3
    p = tmp_path / "fz3.hopf"
    assert main(["zoo", "F(Z3)", "-o", str(p)]) == 0
    capsys.readouterr()
    code, out, err = run_cli("report", str(p), capsys=capsys)
    assert code == 0, err
    assert "group_likes = 3" in out
    assert "  [1, -1-z, z] ~ [1, -0.5-0.866025i, -0.5+0.866025i]" in out
    assert "  [1, z, -1-z] ~ [1, -0.5+0.866025i, -0.5-0.866025i]" in out


@pytest.mark.parametrize("argv, message", [
    (["zoo", "taft", "--n", "0"], "requires --n >= 2"),
    (["zoo", "taft", "--n", "3", "--q", "garbage"], "bad scalar term"),
    pytest.param(["zoo", "taft", "--n", "3", "--q", "z^" + "1" * 5000],
                 "scalar numeral of 5000 digits is too long", id="exponent-past-digit-limit"),
    *[pytest.param(["zoo", "taft", "--n", str(n)], "requires --n >= 2 and --n <= 1024",
                   id=f"n-{n:.0e}") for n in (1025, 10**12)],
])
def test_zoo_rejects_bad_parameters_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("source", ["label", "stem"])
@pytest.mark.parametrize("c", [c for c, _ in UNPRINTABLE], ids=[label for _, label in UNPRINTABLE])
def test_zoo_rejects_an_unprintable_name_with_one_error_line(tmp_path, capsys, c, source):
    # the name comes from --label, or else from the Cayley file's stem
    bad = f"Z{c}2"
    p = tmp_path / (bad if source == "stem" else "Z2")
    p.write_text("0 1\n1 0\n", encoding="utf-8")
    argv = ["zoo", "group", "--cayley", str(p)] + (["--label", bad] if source == "label" else [])
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and UNPRINTABLE_NAME in err


@pytest.mark.parametrize("command, content, message", [
    (["verify"], b"\xff\xfe", "codec can't decode byte 0xff"),
    (["zoo", "group", "--cayley"], b"0 1\n1 \xff\n", "codec can't decode byte 0xff"),
    (["verify"], b'{"dim": 1' + b"0" * 5000 + b"}", "not a structured-text document"),
    (["verify"], b"[" * 100_000 + b"]" * 100_000, "not a structured-text document"),
], ids=["hopf-not-utf8", "cayley-not-utf8", "json-int-past-digit-limit", "json-nested-deep"])
def test_unreadable_files_give_one_error_line(tmp_path, capsys, command, content, message):
    p = tmp_path / "input"
    p.write_bytes(content)
    code, out, err = run_cli(*command, str(p), capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err



@pytest.mark.parametrize("name", ["C[S3]", "sweedler"])
def test_a_huge_dim_is_rejected_before_anything_is_allocated(tmp_path, zoo, name):
    # the star is read first, and its d columns were once allocated before
    # the array's length was checked, so dim = 10**30 raised MemoryError; the
    # child's address space is capped so that such a defect fails here
    # instead of exhausting the machine's memory
    from hopfcheck.fileformat import hopf_to_text

    doc = json.loads(hopf_to_text(zoo[name]))
    doc["dim"] = d = 10**30
    p = tmp_path / "huge.hopf"
    p.write_text(json.dumps(doc))
    cap = 512 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcheck.cli", "verify", str(p)], capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"error: star: expected a {d}x{d} array"]

def test_internal_value_error_is_not_reported_as_bad_input(sweedler_file, monkeypatch):
    import hopfcheck.cli

    def broken(*args, **kwargs):
        raise ValueError("internal defect")
    monkeypatch.setattr(hopfcheck.cli, "run_pipeline", broken)
    with pytest.raises(ValueError, match="internal defect"):
        main(["verify", str(sweedler_file)])


def test_package_imports_without_numpy_until_the_pipeline_is_used():
    # the zoo and the file format, all a benchmark set-up needs, leave numpy
    # out; run_pipeline and PipelineResult still import from the package
    code = ("import sys, hopfcheck.zoo, hopfcheck.fileformat\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "from hopfcheck import PipelineResult, run_pipeline\n"
            "from hopfcheck.pipeline import run_pipeline as defined\n"
            "assert run_pipeline is defined and PipelineResult.__name__ == 'PipelineResult'\n"
            "assert 'numpy' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
