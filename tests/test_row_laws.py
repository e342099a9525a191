"""Each bilinear law is read one sparse row per first index; pinned here
against the pair scans it replaced.

Every reference below is the law as the package stated it when it scanned
one pair (i, j) at a time, each side built per pair (see helpers.pair_scan).
Associativity is pinned against the triple scan in test_hopf.
Single-entry corruptions of the tables each law reads, on a few members,
must give the row form and the pair scan the same detail, byte for byte,
PASS included.
"""

import dataclasses
import itertools

import pytest

from hopfcheck import CYC_ONE, CYC_ZERO, Mat, Tensor3, dual_hopf, pairing
from hopfcheck.duality import transpose_failure
from hopfcheck.errors import NotAutomorphism
from hopfcheck.gns import operator_radford_check
from hopfcheck.hopf import act_left, verify_antipode_derived, verify_bialgebra, verify_star
from hopfcheck.integrals import modular_automorphism, modular_identity_checks
from hopfcheck.linalg import Elem
from hopfcheck.report import first_failure
from helpers import entry, pair_scan, products


def _raised(table, *index):
    """table with one entry raised by 1, zeros included."""
    if isinstance(table, Tensor3):
        return Tensor3(table.dim, {**dict(table.items()), index: entry(table, *index) + CYC_ONE})
    r, c = index
    entries = {(i, j): x for j, col in enumerate(table.images) for i, x in col.support}
    return Mat.of(table.rows, table.cols, {**entries, (r, c): entry(table, r, c) + CYC_ONE})


def _corruptions(h, field):
    """h with one entry of the named table raised by 1, for every entry."""
    t = getattr(h, field)
    if isinstance(t, Tensor3):
        keys = itertools.product(range(t.dim), repeat=3)
    elif isinstance(t, Mat):
        keys = itertools.product(range(t.rows), range(t.cols))
    else:  # an Elem: the unit or the counit
        for k in range(t.dim):
            yield dataclasses.replace(h, **{field: Elem.of(t.dim, [*t.support, (k, CYC_ONE)])})
        return
    for key in keys:
        yield dataclasses.replace(h, **{field: _raised(t, *key)})


def _detail(check):
    return check.detail if check.status == "FAIL" else None


# -- the pair-scan references, as each law was stated ----------------------


def _bialgebra_parts(h):
    b, eps, p = h.basis, h.counit_of, products(h)
    cop = [h.coprod(b(i)) for i in range(h.dim)]
    return (("coproduct not multiplicative at pair ({0},{1})",
             lambda i, j: h.coprod(p[i][j]), lambda i, j: h.tensor_mul(cop[i], cop[j])),
            ("counit not multiplicative at pair ({0},{1})",
             lambda i, j: eps(p[i][j]), lambda i, j: eps(b(i)) * eps(b(j))))


def _bialgebra_by_pairs(h, first):
    return first_failure(
        h.dim, (0, ("coproduct of the unit is not 1(x)1", lambda: h.coprod(h.unit),
                    lambda: {(i, j): x * y for i, x in h.unit.support
                             for j, y in h.unit.support}),
                   ("counit of the unit is not 1", lambda: h.counit_of(h.unit), lambda: CYC_ONE))
    ) or pair_scan(h.dim, *_bialgebra_parts(h), first=first)


def _antipode_derived_by_pairs(h, first):
    b, s, p, eps = h.basis, h.s_basis, products(h), h.counit_of
    return first_failure(
        h.dim, (0, ("S(1) != 1", lambda: h.antipode_of(h.unit), lambda: h.unit)),
        (1, ("eps(S(e_{0})) != eps(e_{0})", lambda i: eps(s[i]), lambda i: eps(b(i))))
    ) or pair_scan(
        h.dim, ("anti-multiplicativity fails at ({0},{1})",
                lambda i, j: h.antipode_of(p[i][j]), lambda i, j: h.mul(s[j], s[i])),
        first=first
    ) or first_failure(
        h.dim, (1, ("anti-comultiplicativity fails at basis {0}",
                    lambda k: h.coprod(s[k]), lambda k: h.coprod_map(k, s, s, flip=True))))


def _star_by_pairs(h, first):
    b, p, eps, st = h.basis, products(h), h.counit_of, h.star.images
    return first_failure(
        h.dim, (1, ("involution fails at basis {0}", lambda i: h.star_of(st[i]), b)),
        (0, ("1* != 1", lambda: h.star_of(h.unit), lambda: h.unit))
    ) or pair_scan(
        h.dim, ("anti-multiplicativity fails at ({0},{1})",
                lambda i, j: h.star_of(p[i][j]), lambda i, j: h.mul(st[j], st[i])),
        first=first
    ) or first_failure(
        h.dim, (1, ("coproduct compatibility fails at basis {0}",
                    lambda k: h.coprod(st[k]), lambda k: h.coprod_map(k, st, st, conj=True))),
        (1, ("counit compatibility fails at basis {0}",
             lambda i: eps(st[i]), lambda i: eps(b(i)).conjugate())),
        (0, ("antipode matrix is singular, so S^-1 is undefined",
             lambda: h.s_inv is None, lambda: False)),
        (1, ("antipode exchange fails at basis {0}",
             lambda i: h.star_of(h.s_basis[i]), lambda i: h.s_inv.apply(st[i]))))


def _automorphism_by_pairs(h, rho):
    images, p = rho.images, products(h)
    return first_failure(
        h.dim, (0, ("does not fix the unit", lambda: rho.apply(h.unit), lambda: h.unit))
    ) or pair_scan(h.dim, ("is not multiplicative at ({0},{1})",
                           lambda i, j: rho.apply(p[i][j]),
                           lambda i, j: h.mul(images[i], images[j])), first=h.generators)


def _flip_by_pairs(h, gram):
    b, rows, cols = h.basis, gram.transpose().images, gram.images
    return pair_scan(h.dim, ("fails at pair ({0}, {1})",
                             lambda x, y: h.antipode_of(act_left(h, cols[y], b(x))),
                             lambda x, y: act_left(h, rows[x], b(y))))


def _parseval_by_pairs(gram, b, b_hat):
    f_conj = [Elem.of(x.dim, ((k, c.conjugate()) for k, c in x.support)) for x in gram.images]
    bhat_f = b_hat.mul(gram).images
    rhs = [dict(x.support) for x in b.images]
    return pair_scan(b.rows, ("Fourier transport is not unitary at ({0},{1})",
                              lambda i, j: pairing(f_conj[i], bhat_f[j]),
                              lambda i, j: rhs[j].get(i, CYC_ZERO)))


def _product_law_by_pairs(h, hd):
    cop = [[{} for _ in range(h.dim)] for _ in range(h.dim)]
    for (a, p, q), c in h.comult.items():
        cop[p][q][a] = c
    return pair_scan(h.dim, ("product law fails at ({0},{1},{slot})",
                             lambda i, j: dict(hd.mult.rows[i].get(j, ())),
                             lambda i, j: cop[i][j]))


# -- the pins ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["sweedler", "C[S3]", "taft(3)"])
def test_bialgebra_rows_fail_where_the_pair_scan_did(zoo, name):
    # the product laws run over the clean member's generators, as they do
    # once `algebra` has passed; a corrupted product runs every i
    h = zoo[name]
    same_pair = counit_first = 0
    heads = set()
    for field in ("mult", "comult", "counit"):
        first = None if field == "mult" else h.generators
        for n, bad in enumerate(_corruptions(h, field)):
            if name == "taft(3)" and n % 5:
                continue
            want = _bialgebra_by_pairs(bad, first)
            assert _detail(verify_bialgebra(bad, first)) == want, (name, field, n)
            if want is not None and " pair " in want:
                heads.add(want.split(" ")[0])
                coprod_row, counit_row = _bialgebra_parts(bad)
                at_coprod = pair_scan(bad.dim, coprod_row, first=first)
                at_counit = pair_scan(bad.dim, counit_row, first=first)
                if at_coprod and at_counit:
                    same_pair += (at_coprod.split(" pair ")[1] == at_counit.split(" pair ")[1]
                                  and want == at_coprod)
                counit_first += at_counit is not None and want == at_counit
    assert heads == {"coproduct", "counit"}
    # the counit part fails at the same pair as the coproduct part, which
    # is then reported, and the counit part is reported when it fails first
    assert same_pair > 0 and counit_first > 0


@pytest.mark.parametrize("name", ["sweedler", "C[S3]", "taft(3)"])
def test_antipode_rows_fail_where_the_pair_scan_did(zoo, name):
    h = zoo[name]
    seen = set()
    for field, first in (("antipode", h.generators), ("mult", None)):
        for n, bad in enumerate(_corruptions(h, field)):
            if field == "mult" and n % 3:
                continue
            want = _antipode_derived_by_pairs(bad, first)
            assert _detail(verify_antipode_derived(bad, first)) == want, (name, field, n)
            seen.add(want)
    assert any(w and w.startswith("anti-multiplicativity") for w in seen)


@pytest.mark.parametrize("name", ["sweedler", "C[S3]", "F(S3)"])
@pytest.mark.parametrize("dual", [False, True])
def test_star_rows_fail_where_the_pair_scan_did(zoo, name, dual):
    h = dual_hopf(zoo[name]) if dual else zoo[name]
    seen = set()
    for field, first in (("star", h.generators), ("mult", None)):
        for n, bad in enumerate(_corruptions(h, field)):
            if field == "mult" and n % 3:
                continue
            want = _star_by_pairs(bad, first)
            assert _detail(verify_star(bad, first)) == want, (name, dual, field, n)
            seen.add(want)
    assert any(w and w.startswith("anti-multiplicativity") for w in seen)


@pytest.mark.parametrize("name", ["sweedler", "C[S3]", "taft(3)"])
def test_automorphism_rows_fail_where_the_pair_scan_did(pipelines, name):
    # G^-1 with one entry raised gives rho = G^-1 G^T a rank-one defect
    h, md = pipelines[name].h, pipelines[name].values["modular"]
    seen = set()
    for key in itertools.product(range(h.dim), repeat=2):
        bent = _raised(md.gram_inv, *key)
        want = _automorphism_by_pairs(h, bent.mul(md.gram.transpose()))
        try:
            modular_automorphism(h, md.phi, "sigma", (md.gram, bent))
            got = None
        except NotAutomorphism as e:
            got = str(e).removeprefix(f"{h.name}: sigma ")
        assert got == want, (name, key)
        seen.add(want)
    assert any(w and w.startswith("is not multiplicative") for w in seen)


@pytest.mark.parametrize("name", ["sweedler", "C[S3]", "taft(3)"])
def test_flip_rows_fail_where_the_pair_scan_did(pipelines, name):
    h, md = pipelines[name].h, pipelines[name].values["modular"]
    seen = set()
    cases = [(h, dataclasses.replace(md, gram=_raised(md.gram, *key)))
             for key in itertools.product(range(h.dim), repeat=2)]
    cases += [(bad, md) for bad in _corruptions(h, "antipode")]
    cases += [(bad, md) for n, bad in enumerate(_corruptions(h, "comult")) if n % 4 == 0]
    for bad, bent in cases:
        want = _flip_by_pairs(bad, bent.gram)
        flip = modular_identity_checks(bad, bent)[-1]
        assert flip.name == "modular-flip"
        assert _detail(flip) == want, (name, flip.line())
        seen.add(want)
    assert None in seen and len(seen) > 10


@pytest.mark.parametrize("name", ["C[Z3]", "C[S3]", "F(S3)"])
def test_parseval_rows_fail_where_the_pair_scan_did(pipelines, name):
    # the Parseval pairs are operator-radford's unitarity row, which
    # plancherel's proof cites; its first failing (i,j) is the pair scan's
    h, v = pipelines[name].h, pipelines[name].values
    md, hd, b, b_hat = v["modular"], v["dual"], v["star_gram"], v["dual_star_gram"]
    d = b.rows
    seen = set()
    keys = list(itertools.product(range(d), repeat=2))
    cases = [(b, b_hat), *((_raised(b, *key), b_hat) for key in keys),
             *((b, _raised(b_hat, *key)) for key in keys)]
    for bb, bh in cases:
        want = _parseval_by_pairs(md.gram, bb, bh)
        assert _detail(operator_radford_check(h, hd, md, bb, bh)) == want
        seen.add(want)
    assert None in seen and len(seen) > d


@pytest.mark.parametrize("name", ["sweedler", "C[S3]", "taft(3)"])
def test_product_law_rows_fail_where_the_pair_scan_did(zoo, name):
    h = zoo[name]
    hd = dual_hopf(h)
    seen = set()
    for n, bad in enumerate(_corruptions(hd, "mult")):
        if name == "taft(3)" and n % 5:
            continue
        want = _product_law_by_pairs(h, bad)
        assert want is not None
        assert transpose_failure(h, bad) == want, (name, n)
        seen.add(want)
    assert transpose_failure(h, hd) is None
    assert len(seen) > 20
