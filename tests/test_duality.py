"""The dual object: transposed structure, pairing, transform, summation law."""

import dataclasses
import hashlib
import importlib
import itertools
import pkgutil

import pytest

from hopfcheck import (
    CYC_MINUS_ONE,
    CYC_ONE,
    CYC_ZERO,
    Cyc,
    act_left,
    act_right,
    biduality_check,
    compute_dual_integrals,
    compute_modular,
    dual_hopf,
    left_integral,
    pairing,
    run_pipeline,
    sweedler,
)
from hopfcheck.duality import dual_axiom_checks, dual_name, transpose_failure, verify_pairing
from hopfcheck.errors import NoIntegral
from hopfcheck.gns import operator_radford_check
from hopfcheck.hopf import Elem, full_axiom_suite, same_structure, verify_coalgebra
from hopfcheck.integrals import gram_matrix, star_gram
from hopfcheck.linalg import Mat, Tensor3
from hopfcheck.zoo import cyclic_table, group_algebra, taft
from helpers import cop, entry, mat_from_rows, op, opcop, rebased


def vec(*coords):
    return Elem.of(len(coords), enumerate(coords))


def fourier(md, a):
    """a |-> sum_j phi(e_j a) e_j^, as an element of the dual: action by G."""
    return md.gram.apply(a)


def test_dual_name_round_trip():
    assert dual_name("sweedler") == "sweedler^"
    assert dual_name("sweedler^") == "sweedler"
    assert dual_name(dual_name("taft(3)")) == "taft(3)"


def test_dual_of_group_algebra_is_function_algebra(zoo):
    # structure constants, including the star, must agree on the nose
    for g in ("Z2", "Z3", "S3"):
        hd = dual_hopf(zoo[f"C[{g}]"])
        assert same_structure(hd, zoo[f"F({g})"]), g


def test_dual_of_function_algebra_is_group_algebra(zoo):
    for g in ("Z2", "Z3", "S3"):
        hd = dual_hopf(zoo[f"F({g})"])
        assert same_structure(hd, zoo[f"C[{g}]"]), g


def test_double_dual_is_the_identity(zoo):
    for h in zoo.values():
        assert biduality_check(h, dual_hopf(h)).status == "PASS", h.name
        hdd = dual_hopf(dual_hopf(h))
        assert same_structure(hdd, h)
        assert hdd.name == h.name


def test_dual_tables_are_the_permuted_entries_in_index_order(zoo):
    """dual_hopf builds its tables row by row; they must be the tables the
    sorting constructor makes from the permuted entries, and list them in
    index order."""
    for base in zoo.values():
        for h in (base, op(base), cop(base), opcop(base), dual_hopf(base)):
            hd, d = dual_hopf(h), h.dim
            assert hd.mult == Tensor3(d, {(i, j, k): c for (k, i, j), c in h.comult.items()})
            assert hd.comult == Tensor3(d, {(k, i, j): c for (i, j, k), c in h.mult.items()})
            for t in (hd.mult, hd.comult):
                keys = [key for key, _ in t.items()]
                assert keys == sorted(keys), h.name
                assert all(type(pairs) is tuple for row in t.rows for pairs in row.values())


def verify_dual(hd):
    """The full axiom scan of the dual, renamed as the pipeline reports it:
    the reference that dual_axiom_checks must match."""
    return [dataclasses.replace(c, name="dual-" + c.name) for c in full_axiom_suite(hd)]


def test_dual_axioms_entire_zoo(zoo):
    for h in zoo.values():
        for check in verify_dual(dual_hopf(h)):
            assert check.status != "FAIL", f"{h.name}: {check.line()}"


def test_transposed_dual_checks_match_the_full_scan(zoo):
    members = list(zoo.values()) + [taft(4), taft(5), group_algebra("C[Z12]", cyclic_table(12))]
    for h in members:
        hd = dual_hopf(h)
        failure = transpose_failure(h, hd)
        assert failure is None, f"{h.name}: {failure}"
        derived = dual_axiom_checks(full_axiom_suite(h), hd, failure)
        scanned = verify_dual(hd)
        assert [(c.name, c.status, c.identity) for c in derived] == [
            (c.name, c.status, c.identity) for c in scanned], h.name


def _with_entry(m: Mat, i: int, j: int, value: Cyc) -> Mat:
    entries = {(r, c): x for c, col in enumerate(m.images) for r, x in col.support}
    return Mat.of(m.rows, m.cols, {**entries, (i, j): value})


def _sweedler_dual_with(part: str):
    hd = dual_hopf(sweedler())
    if part == "unit":
        return dataclasses.replace(hd, unit=vec(CYC_ONE, CYC_ONE, CYC_ONE, CYC_ZERO))
    if part == "counit":
        return dataclasses.replace(hd, counit=vec(CYC_ONE, CYC_ZERO, CYC_ZERO, CYC_ONE))
    if part == "s_inv":
        hd.s_inv = _with_entry(hd.s_inv, 3, 2, CYC_ONE)
    else:
        hd.s_inv = None
    return hd


@pytest.mark.parametrize("part, detail", [
    ("unit", "unit transpose fails at basis 2"),
    ("counit", "counit transpose fails at basis 3"),
    # named (dual index, basis index), as the antipode transpose: entry (3,2) is at (2,3)
    ("s_inv", "S^-1 transpose fails at (2,3)"),
    ("no s_inv", "S^-1 transpose fails: exactly one side is singular"),
])
def test_transpose_certificate_reports_a_perturbed_table(part, detail):
    assert transpose_failure(sweedler(), _sweedler_dual_with(part)) == detail


def test_a_broken_dual_fails_the_transposed_checks(monkeypatch, tmp_path, capsys):
    from hopfcheck import pipeline
    from hopfcheck.cli import main

    path = tmp_path / "sweedler.hopf"
    assert main(["zoo", "sweedler", "-o", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    clean = capsys.readouterr().out.splitlines()
    built = []

    def broken_dual(h):  # one entry of the dual's product moves: e_1^ e_1^ gains e_0^
        hd = dual_hopf(h)
        mult = {**dict(hd.mult.items()), (1, 1, 0): entry(hd.mult, 1, 1, 0) + CYC_ONE}
        built.append(dataclasses.replace(hd, mult=Tensor3(4, mult)))
        return built[-1]

    monkeypatch.setattr(pipeline, "dual_hopf", broken_dual)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [line.split()[:2] for line in clean]
    lines = {line.split()[1]: line for line in out if line.startswith("CHECK ")}
    for name in ("dual-algebra", "dual-coalgebra", "dual-bialgebra", "dual-antipode",
                 "dual-antipode-derived"):
        assert lines[name].split()[2] == "FAIL", lines[name]
        assert lines[name].endswith(" ! product law fails at (1,1,0)"), lines[name]
    for name in ("dual-group-likes", "pairing-actions", "dual-integrals",
                 "dual-modular-element"):
        assert lines[name].split()[2] == "SKIP:prerequisite-failed", lines[name]
    assert "generators" not in vars(built[0])  # the broken dual's generators are never read


def test_pairing_against_structure(zoo):
    for name in ("sweedler", "C[S3]", "taft(3)"):
        h = zoo[name]
        check = verify_pairing(transpose_failure(h, dual_hopf(h)), verify_coalgebra(h))
        assert check.status == "PASS"


def test_actions_agree_with_the_pairing(zoo):
    # act_left and act_right, which the Radford and dual-link checks use,
    # against pairing and the dual product, on every basis f, g and a
    for h in zoo.values():
        if h.dim > 6:
            continue
        hd = dual_hopf(h)
        for f, g, a in itertools.product(range(h.dim), repeat=3):
            ef, eg, ea = hd.basis(f), hd.basis(g), h.basis(a)
            where = (h.name, f, g, a)
            assert pairing(eg, act_left(h, ef, ea)) == pairing(hd.mul(eg, ef), ea), where
            assert pairing(eg, act_right(h, ea, ef)) == pairing(hd.mul(ef, eg), ea), where
            assert act_left(h, hd.mul(ef, eg), ea) == act_left(
                h, ef, act_left(h, eg, ea)), where


# sha256 over "<table> <flat index> <CHECK line>" for every single-entry +1
# corruption h' of sweedler's mult, comult, antipode and star tables, with
# the line from verify_pairing of transpose_failure(h', dual_hopf(h')) and
# verify_coalgebra(h').  dual_hopf(h') is always the transpose of h', so a
# line FAILs exactly when h' breaks its coalgebra law, and the detail is
# that of verify_coalgebra(h'): the 64 FAILs are the 64 comult entries.
_SWEEDLER_PAIRING_SWEEP = "42a4943c034bc992a119dcf32d9aa941e67a38a99d7ff878fc6a19ea20a68f43"


def test_pairing_transcripts_of_sweedler_corruptions_are_pinned():
    h = sweedler()
    digest = hashlib.sha256()
    cases, failing = 0, []
    for field in ("mult", "comult", "antipode", "star"):
        t = getattr(h, field)
        for n in range(64 if field in ("mult", "comult") else 16):
            if field in ("mult", "comult"):  # n is the row-major position of (a, b, c)
                key = (n // 16, n // 4 % 4, n % 4)
                new = Tensor3(4, {**dict(t.items()), key: entry(t, *key) + CYC_ONE})
            else:  # n is the row-major position of (r, c)
                new = _with_entry(t, n // 4, n % 4, entry(t, n // 4, n % 4) + CYC_ONE)
            bad = dataclasses.replace(h, **{field: new})
            check = verify_pairing(transpose_failure(bad, dual_hopf(bad)),
                                   verify_coalgebra(bad))
            digest.update(f"{field} {n} {check.line()}\n".encode())
            cases += 1
            if check.status == "FAIL":
                failing.append((field, n))
    assert (cases, len(failing)) == (160, 64)
    assert failing == [("comult", n) for n in range(64)]
    assert digest.hexdigest() == _SWEEDLER_PAIRING_SWEEP


def test_pairing_values_sweedler():
    h = sweedler()
    hd = dual_hopf(h)
    # dual basis pairs diagonally
    for i in range(4):
        for j in range(4):
            got = pairing(hd.basis(i), h.basis(j))
            assert got == (CYC_ONE if i == j else CYC_ZERO)
    # multiplication in the dual pairs with the coproduct
    f = hd.mul(hd.basis(1), hd.basis(2))  # g-hat x-hat
    # Delta(gx) = gx (x) g + 1 (x) gx has no g (x) x term
    assert pairing(f, h.basis(3)) == CYC_ZERO


def test_dual_star_sweedler_frozen():
    hd = dual_hopf(sweedler())
    star = [[entry(hd.star, i, j).text(1) for j in range(4)] for i in range(4)]
    # the two point evaluations are self-adjoint, the two odd
    # coordinates swap with no sign
    assert star == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "0", "1"],
        ["0", "0", "1", "0"],
    ]


def test_actions_absorb_and_commute_sweedler():
    h = sweedler()
    hd = dual_hopf(h)
    x = h.basis(2)
    delta_hat = vec(CYC_ONE, CYC_MINUS_ONE, CYC_ZERO, CYC_ZERO)
    # with Delta(x) = x (x) 1 + g (x) x the left action keeps the first leg
    assert act_left(h, delta_hat, x) == x
    got = act_right(h, x, delta_hat)
    assert got == vec(CYC_ZERO, CYC_ZERO, CYC_MINUS_ONE, CYC_ZERO)
    for f in (hd.basis(0), hd.basis(1), delta_hat):
        for g in (hd.basis(0), hd.basis(3)):
            for a in (h.basis(1), h.basis(3)):
                lhs = act_right(h, act_left(h, f, a), g)
                rhs = act_left(h, f, act_right(h, a, g))
                assert lhs == rhs


def test_dual_integral_frozen_sweedler():
    h = sweedler()
    md = compute_modular(h)
    hd = dual_hopf(h)
    psi_hat, phi_hat = compute_dual_integrals(h, md, hd, left_integral(hd))
    # solving counit = psi_hat . gram by hand gives -x-hat + gx-hat
    assert tuple(c.text(1) for c in psi_hat.coords) == ("0", "0", "-1", "1")
    # the left-invariant partner is the same thing after the dual antipode
    assert tuple(c.text(1) for c in phi_hat.coords) == ("0", "0", "1", "1")


def test_dual_modular_element_frozen_sweedler(pipelines):
    delta_hat = pipelines["sweedler"].values["delta_hat"]
    assert tuple(c.text(1) for c in delta_hat.coords) == ("1", "-1", "0", "0")


def test_dual_modular_element_taft3_has_order_three(pipelines, zoo):
    hd = pipelines["taft(3)"].values["dual"]
    delta_hat = pipelines["taft(3)"].values["delta_hat"]
    sq = hd.mul(delta_hat, delta_hat)
    cube = hd.mul(sq, delta_hat)
    assert sq != hd.unit  # counimodular fails properly: order 3, not 2
    assert cube == hd.unit


def test_fourier_transform_frozen_sweedler():
    h = sweedler()
    md = compute_modular(h)
    # F(a) = phi(. a): phi(x g) = phi(-gx) = -1, so g maps to -x-hat
    got = fourier(md, h.basis(1))
    assert tuple(c.text(1) for c in got.coords) == ("0", "0", "-1", "0")
    # F is plain matrix action by G, which compute_modular has inverted
    assert md.gram.mul(md.gram_inv).is_identity()


def test_plancherel_exact_on_positive_members(zoo):
    # the Parseval pairs are operator-radford's unitarity row, which
    # plancherel's proof cites
    for name in ("C[Z2]", "C[Z6]", "C[S3]", "F(Z3)", "F(S3)"):
        h = zoo[name]
        md = compute_modular(h)
        hd = dual_hopf(h)
        psi_hat, _ = compute_dual_integrals(h, md, hd, left_integral(hd))
        check = operator_radford_check(h, hd, md, star_gram(h, md.gram),
                                       star_gram(hd, gram_matrix(hd, psi_hat)))
        assert check.status == "PASS", f"{name}: {check.line()}"


def _star_gram_by_entries(a, state):
    # the definition B[i][j] = state(e_i^* e_j), one product per entry
    return Mat.of(a.dim, a.dim, {(i, j): pairing(state, a.mul(a.star.images[i], a.basis(j)))
                                 for i in range(a.dim) for j in range(a.dim)})


def test_star_gram_matches_the_per_entry_definition(zoo, pipelines):
    members = [(h, pipelines[name].values) for name, h in zoo.items() if h.star is not None]
    assert len(members) == 11
    # in the basis f_i = (2 + zeta_8^i) e_i, Star, G and B have non-real
    # entries, so a conjugation dropped from or added to B = Star^T G shows
    for name in ("C[S3]", "F(S3)"):
        h = rebased(zoo[name], [Cyc.rational(2) + Cyc.root(8, i) for i in range(6)])
        members.append((h, run_pipeline(h).values))
    for h, v in members:
        hd, psi_hat = v["dual"], v["psi_hat"]
        name = (h.name, h.field_order)
        assert star_gram(h, v["modular"].gram) == _star_gram_by_entries(h, v["modular"].phi), name
        assert star_gram(hd, gram_matrix(hd, psi_hat)) == _star_gram_by_entries(hd, psi_hat), name
    # every zoo star matrix is symmetric, so the transpose in B = Star^T G is
    # tested on one that is not: the identity needs no star axiom
    h, md = zoo["C[Z3]"], pipelines["C[Z3]"].values["modular"]
    shifted = dataclasses.replace(h, star=Mat.of(3, 3, {((j + 1) % 3, j): CYC_ONE
                                                        for j in range(3)}))
    assert star_gram(shifted, md.gram) == _star_gram_by_entries(shifted, md.phi)


def test_plancherel_pairs_catch_a_defect_no_real_sample_sees(pipelines):
    # zeta_4 (E_01 - E_10) added to psihat's star-Gram changes no value at a
    # real a (a^T X a = 0 for antisymmetric X), so the old basis-plus-real-
    # samples check would pass; operator-radford's unitarity row, whose
    # entries are the Parseval pairs, fails.  On C[Z3], G is the
    # permutation e_i -> e_-i, so the defect shows at (0,2) and (2,0) of
    # conj(G)^T Bhat G, and (0,2) comes first.
    h, v = pipelines["C[Z3]"].h, pipelines["C[Z3]"].values
    md, hd, b, b_hat = v["modular"], v["dual"], v["star_gram"], v["dual_star_gram"]
    assert operator_radford_check(h, hd, md, b, b_hat).passed()
    rows = [list(row.coords) for row in b_hat.transpose().images]
    zeta4 = Cyc.root(4)
    rows[0][1] = rows[0][1] + zeta4
    rows[1][0] = rows[1][0] - zeta4
    broken = mat_from_rows(rows)

    def form(m, x):  # conj(x)^T m x
        return pairing(Elem.of(x.dim, ((i, c.conjugate()) for i, c in x.support)), m.apply(x))

    real = [vec(*map(Cyc.rational, a)) for a in itertools.product((-2, 0, 1, 3), repeat=3)]
    for a in real:
        fa = md.gram.apply(a)
        assert form(broken, fa) == form(b_hat, fa) == form(b, a)
    check = operator_radford_check(h, hd, md, b, broken)
    assert (check.status, check.detail) == ("FAIL", "Fourier transport is not unitary at (0,2)")


def test_plancherel_twisted_form_sweedler():
    # the summation law survives without positivity in the twisted form
    #   psihat(F(a)* F(b)) = phi(b a*)
    # frozen counterexample to the untwisted form included
    h = sweedler()
    md = compute_modular(h)
    hd = dual_hopf(h)
    psi_hat, _ = compute_dual_integrals(h, md, hd, left_integral(hd))
    i = Cyc.root(4)
    a = vec(CYC_ZERO, CYC_ONE, i, CYC_ZERO)  # g + i x
    fa = fourier(md, a)
    lhs = pairing(psi_hat, hd.mul(hd.star_of(fa), fa))
    # phi(a a*) = -2i while phi(a* a) = +2i: the naive law fails
    minus_2i = Cyc.rational(-2) * i
    assert lhs == minus_2i
    assert pairing(md.phi, h.mul(a, h.star_of(a))) == minus_2i
    assert pairing(md.phi, h.mul(h.star_of(a), a)) == -minus_2i
    # and on a second pair
    b = vec(CYC_ONE, CYC_ZERO, CYC_ZERO, i)
    fb = fourier(md, b)
    got = pairing(psi_hat, hd.mul(hd.star_of(fa), fb))
    want = pairing(md.phi, h.mul(b, h.star_of(a)))
    assert got == want


def test_action_span_is_full(zoo):
    # matrix coefficients of the left action span the dual: rank d
    from hopfcheck.linalg import rank
    for name in ("sweedler", "F(Z3)"):
        h = zoo[name]
        hd = dual_hopf(h)
        d = h.dim
        rows = []
        for j in range(d):
            for k in range(d):
                rows.append(list(act_left(h, hd.basis(j), h.basis(k)).coords))
        assert rank(mat_from_rows(rows)) == d


@pytest.mark.parametrize("field, index, value, detail", [
    ("mult", (1, 1, 0), "1", "product law fails at (1,1,0)"),
    ("mult", (2, 3, 1), "1", "product law fails at (2,3,1)"),
    ("comult", (0, 0, 0), "2", "coproduct law fails at (0,0,0)"),
    ("comult", (3, 1, 2), "2", "coproduct law fails at (3,1,2)"),
    ("antipode", (2, 2), "1", "antipode transpose fails at (2,2)"),
    # the antipode law names (dual index, basis index): entry (3,2) is S^(e_2^) at e_3^
    ("antipode", (3, 2), "-1", "antipode transpose fails at (2,3)"),
])
def test_pairing_fails_on_a_corrupted_dual(field, index, value, detail):
    # one entry of the dual's stored structure changes; the first law
    # that reads it must FAIL and name the first failing index
    h = sweedler()
    hd = dual_hopf(h)
    d = hd.dim
    table = getattr(hd, field)
    assert entry(table, *index) != Cyc.parse(value, 1)
    if field == "antipode":
        new = _with_entry(table, *index, Cyc.parse(value, 1))
    else:
        new = Tensor3(d, {**dict(table.items()), index: Cyc.parse(value, 1)})
    bad = dataclasses.replace(hd, **{field: new})
    check = verify_pairing(transpose_failure(h, bad), verify_coalgebra(h))
    assert check.status == "FAIL"
    assert check.detail == detail


def test_dual_left_integral_is_solved_once(monkeypatch, zoo):
    from hopfcheck import integrals, pipeline

    calls = []

    def counted(h, first=None):
        calls.append(h.name)
        return integrals.left_integral(h)

    monkeypatch.setattr(pipeline, "left_integral", counted)
    checks = {c.name: c for c in run_pipeline(zoo["sweedler"]).checks}
    assert calls == ["sweedler^"]
    assert checks["dual-integrals"].passed() and checks["dual-modular-element"].passed()


def test_a_failed_dual_left_integral_fails_once_and_skips_its_dependant(monkeypatch, zoo):
    from hopfcheck import pipeline

    def no_kernel(h, first=None):
        raise NoIntegral(f"{h.name}: invariance system has no kernel")

    monkeypatch.setattr(pipeline, "left_integral", no_kernel)
    checks = {c.name: c for c in run_pipeline(zoo["sweedler"]).checks}
    assert (checks["dual-integrals"].status, checks["dual-integrals"].detail) == (
        "FAIL", "sweedler^: invariance system has no kernel")
    assert checks["dual-modular-element"].line().startswith(
        "CHECK dual-modular-element SKIP:prerequisite-failed ")


# star-Grams per run: phi's and psihat's on a positive member, phi's alone
# where phi is not positive, none without a star
STAR_GRAMS = {"sweedler": 1, "C[Z3]": 2, "taft(2)": 0, "taft(3)": 0}


@pytest.mark.parametrize("name", sorted(STAR_GRAMS))
def test_one_run_evaluates_each_shared_law_once(monkeypatch, zoo, name):
    # the pairing line reuses the axiom stage's certificate and coalgebra
    # check, each star-Gram is built once for positivity, kac-collapse, GNS and
    # plancherel, and S^2's order, which only `report` prints, is not computed
    import hopfcheck
    from hopfcheck import duality, hopf, integrals, radford

    modules = [hopfcheck] + [importlib.import_module(f"hopfcheck.{info.name}")
                             for info in pkgutil.iter_modules(hopfcheck.__path__)]
    calls = {}
    for fn in (duality.transpose_failure, hopf.verify_coalgebra, radford.s2_order,
               integrals.star_gram):
        calls[fn.__name__] = 0

        def counted(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    run_pipeline(zoo[name])
    assert calls == {"transpose_failure": 1, "verify_coalgebra": 1, "s2_order": 0,
                     "star_gram": STAR_GRAMS[name]}


def test_store_reads_of_canonical_input_sum_nothing(monkeypatch, zoo):
    """The transpose, the identity, the elimination's row store, the inverse
    and the dual's tables are read off stored forms that are already
    canonical, so none of them goes through the summing constructors."""
    from hopfcheck import linalg
    from hopfcheck.linalg import mat_inverse, rank

    def summed(*args):
        raise AssertionError("summed a canonical input")

    monkeypatch.setattr(linalg.Elem, "of", staticmethod(summed))
    monkeypatch.setattr(linalg, "sparse_sum", summed)
    for h in zoo.values():
        s = h.antipode
        assert s.transpose().transpose() == s
        assert rank(s) == h.dim
        assert s.mul(mat_inverse(s)) == Mat.identity(h.dim)
        assert same_structure(dual_hopf(dual_hopf(h)), h)
