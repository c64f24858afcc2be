import itertools
import random
from fractions import Fraction

import pytest

from lsacat import catalog
from lsacat.algebra import (Algebra, commutator_lie, hom_defects, left_matrix,
                            multiply, rebase)
from lsacat.errors import NotDimension3, NotLieAlgebra
from lsacat import lie
from lsacat.constructions import derivation_space
from lsacat.lie import (LieAlgebra, aut_components, aut_template,
                        canonical_l, canonical_lie, check_lie_automorphism,
                        classify3)
from lsacat.linalg import Mat
from lsacat.scalars import QI, MultiPoly, factor_unipoly
from oracles import height_points, instantiate_aut, random_automorphism


def aut_shape_member(family, t, l=None):
    """Is t an invertible instance of a component of the stored group?  Each
    parameter is read from the first cell that holds it alone."""
    for comp in aut_components(family, l):
        names, m = aut_template(comp)
        cells = [(x, t[i, j]) for i, row in enumerate(m.rows)
                 for j, x in enumerate(row)]
        values = {n: next(v for x, v in cells if x == MultiPoly.var(n))
                  for n in names}
        try:
            if instantiate_aut(comp, values) == t:
                return True
        except ValueError:
            continue
    return False


def test_jacobi_heisenberg():
    "The constructor's Jacobi check passes the Heisenberg bracket."
    g = LieAlgebra.from_brackets(3, {(0, 1): [(1, 2)]})
    assert g == canonical_lie("Heisenberg")


def test_jacobi_e_family():
    g = LieAlgebra.from_brackets(3, {(2, 0): [(1, 0)], (2, 1): [(1, 0), (1, 1)]})
    assert g == canonical_lie("E")


def test_jacobi_failure_certificate():
    "A bracket table that breaks Jacobi is refused, naming the basis triple."
    with pytest.raises(NotLieAlgebra,
                       match=r"^bracket table breaks Jacobi at \(e1,e2,e3\)$"):
        LieAlgebra.from_brackets(3, {(0, 1): [(1, 2)], (1, 2): [(1, 0)],
                                         (2, 0): [(1, 0)]})


def test_lie_table_must_be_antisymmetric():
    z, e3 = [0, 0, 0], [0, 0, 1]
    with pytest.raises(NotLieAlgebra, match=r"not antisymmetric at \(e1,e2\)"):
        LieAlgebra([[z, e3, z], [e3, z, z], [z, z, z]])
    with pytest.raises(NotLieAlgebra, match=r"not antisymmetric at \(e3,e3\)"):
        LieAlgebra([[z, z, z], [z, z, z], [z, z, e3]])


def test_lie_algebra_is_the_antisymmetric_algebra():
    "multiply is the bracket, rebase stays a LieAlgebra, left_matrix is ad."
    g = canonical_lie("E")       # [e3,e1] = e1, [e3,e2] = e1+e2
    assert issubclass(LieAlgebra, Algebra)
    assert multiply(g, [0, 0, 1], [0, 1, 0]) == [QI(1), QI(1), QI(0)]
    assert multiply(g, [0, 1, 0], [0, 0, 1]) == [QI(-1), QI(-1), QI(0)]
    assert multiply(g, [1, 2, 3], [1, 2, 3]) == [QI(0)] * 3
    w = Mat([[1, 0, 0], [1, 1, 0], [0, 0, 2]])
    moved = rebase(g, w)
    assert type(moved) is LieAlgebra
    assert rebase(moved, w.inverse()) == g
    assert left_matrix(g, [0, 0, 1]) == Mat([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
    assert left_matrix(g, [1, 0, 0]) == Mat([[0, 0, -1], [0, 0, 0], [0, 0, 0]])


def test_classify_abelian():
    assert classify3(canonical_lie("Abelian")).tag == "Abelian"


def test_classify_h5_commutator_is_heisenberg():
    h5 = catalog.instantiate("H-5")
    assert classify3(commutator_lie(h5)).tag == "Heisenberg"


def test_classify_d_minus_one():
    g = LieAlgebra.from_brackets(3, {(2, 0): [(1, 0)], (2, 1): [(-1, 1)]})
    cls = classify3(g)
    assert cls.tag == "Dl" and cls.param == QI(-1)


def test_classify_needs_dim3():
    g = LieAlgebra.from_brackets(2, {(0, 1): [(1, 1)]})
    with pytest.raises(NotDimension3):
        classify3(g)


def test_classify_sl2():
    assert classify3(canonical_lie("Sl2")).tag == "Sl2"


def test_classify_witnesses_reproduce_canonical_tables():
    cases = [
        ("Heisenberg", None),
        ("N", None),
        ("Dl", Fraction(1, 2)),
        ("Dl", -1),
        ("Dl", 1),
        ("E", None),
    ]
    w = Mat([[1, 2, 0], [0, 1, 1], [1, 0, 3]])
    for family, l in cases:
        g = rebase(canonical_lie(family, l), w)
        cls = classify3(g)
        assert cls.witness is not None
        assert cls.tag == family
        canon = canonical_lie(family, cls.param if family == "Dl" else None)
        assert rebase(g, cls.witness) == canon


def catalog_lie_tables():
    """The Lie table of every catalog entry at its first sample, then
    rebased, and D(l) entries at l outside the canonical range."""
    t = Mat([[1, 2, 0], [0, 1, 1], [1, 0, 3]])
    for eid, entry in catalog.load_catalog().items():
        g = commutator_lie(catalog.instantiate(eid, entry.sample_bindings()[0]))
        yield g
        yield rebase(g, t)
    for eid in ("Dl-1", "Dl-2"):
        first = catalog.lookup(eid).sample_bindings()[0]
        for l in (QI(2), QI(1, 1), QI(0, -1)):
            yield commutator_lie(catalog.instantiate(eid, dict(first, l=l)))


def test_classify3_agrees_with_a_fresh_classification():
    for g in catalog_lie_tables():
        got = classify3(g)
        fresh = lie._classify(g)
        assert (got.tag, got.param, got.witness) == (
            fresh.tag, fresh.param, fresh.witness)
        assert classify3(g) == got


def refuse_root_finding(monkeypatch):
    "Make any factor_unipoly call of lie fail the test."
    def refuse(*args):
        raise AssertionError("factor_unipoly called")

    monkeypatch.setattr(lie, "factor_unipoly", refuse)


@pytest.mark.parametrize("tag", sorted(lie._CANONICAL) + ["D(0)"])
def test_fixed_canonical_tables_are_read_off(monkeypatch, tag):
    """classify3 of each fixed canonical table, and of D(0), the Dl table at
    l = 0, is read off the table and equals the general classifier's answer."""
    g = canonical_lie("Dl", 0) if tag == "D(0)" else canonical_lie(tag)
    fresh = lie._classify(g)
    refuse_root_finding(monkeypatch)
    assert lie._canonical(g) is not None
    assert classify3(g) == fresh
    assert fresh.tag == ("N" if tag == "D(0)" else tag)


def test_read_off_witnesses_hold_for_every_table_of_their_kind():
    """_canonical attaches its witnesses with no check; each is proved here
    once, as _witnessed would check it.  For a symbolic l, _swap(1/l)
    rebases D(l) onto D(1/l) (and _swap(l) does not); _canonical's D(0)
    witness rebases D(0) onto N; each fixed table's witness is the
    identity onto itself, and Sl2 has none."""
    l = MultiPoly.var("l")
    dl, dinv = canonical_lie("Dl", l), canonical_lie("Dl", 1 / l)
    assert lie._is_lie_iso(dinv, dl, lie._swap(1 / l))
    assert not lie._is_lie_iso(dinv, dl, lie._swap(l))
    d0 = canonical_lie("Dl", 0)
    cls = lie._canonical(d0)
    assert cls.tag == "N" and lie._is_lie_iso(canonical_lie("N"), d0,
                                              cls.witness)
    for tag in lie._CANONICAL:
        g = canonical_lie(tag)
        cls = lie._canonical(g)
        assert cls.tag == tag
        assert (cls.witness is None if tag == "Sl2"
                else lie._is_lie_iso(g, g, cls.witness))


def test_catalog_commutators_are_classified_with_no_witness_check(
        monkeypatch, full_catalog, catalog_sweep):
    """classify3 checks no witness on the commutator of any of the 258
    sample points or of the benchmark's seed-1 height points: each is a
    canonical table, read off."""
    tables = [commutator_lie(r.alg) for r in catalog_sweep.reports]
    tables += [commutator_lie(catalog.instantiate(e, b))
               for e, b in height_points(full_catalog, 1)]
    assert len(tables) == 258 + 98

    def refuse(*args):
        raise AssertionError("_is_lie_iso called")
    monkeypatch.setattr(lie, "_is_lie_iso", refuse)
    assert all(classify3(h).tag for h in tables)


def catalog_dl_values():
    "Each value of l at which the catalog's samples build a Dl point."
    values = []
    for entry in catalog.load_catalog().values():
        if entry.family == "Dl":
            values += [b["l"] for b in entry.sample_bindings()
                       if b["l"] not in values]
    return values


def drawn_dl_values(n=20, seed=53):
    "n nonzero Gaussian rationals with small parts, drawn from a fixed seed."
    rng, values = random.Random(seed), []
    while len(values) < n:
        l = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if not l.is_zero() and l not in values:
            values.append(l)
    return values


def test_dl_tables_are_read_off_at_the_samples_and_drawn_values(monkeypatch):
    """At each catalog sample of l and at 20 drawn values, classify3 of the
    D(l) table is read off it and equals the general classifier's answer."""
    values = catalog_dl_values()
    assert len(values) >= 3
    tables = [canonical_lie("Dl", l) for l in values + drawn_dl_values()]
    fresh = [lie._classify(g) for g in tables]
    refuse_root_finding(monkeypatch)
    assert [classify3(g) for g in tables] == fresh


# D(l) parameters on both sides of every case of canonical_l: |l| < 1,
# |l| = 1 with either sign of im, |l| > 1, re l = 1, and 1, -1, i, -i
DL_GRID = [QI(Fraction(1, 2)), QI(Fraction(-1, 3), Fraction(1, 4)), QI(2),
           QI(-3, 2), QI(1), QI(-1), QI(0, 1), QI(0, -1),
           QI(Fraction(3, 5), Fraction(4, 5)), QI(Fraction(3, 5), Fraction(-4, 5)),
           QI(Fraction(-3, 5), Fraction(-4, 5)), QI(1, 1), QI(1, -2),
           QI(1, Fraction(1, 3))]


@pytest.mark.parametrize("l", DL_GRID, ids=str)
def test_canonical_dl_tables_are_read_off_without_root_finding(monkeypatch, l):
    """classify3 of the canonical D(l) table equals the general classifier's
    answer and calls no factor_unipoly."""
    g = canonical_lie("Dl", l)
    fresh = lie._classify(g)
    refuse_root_finding(monkeypatch)
    got = classify3(g)
    assert (got.tag, got.param, got.witness, got.detail) == (
        fresh.tag, fresh.param, fresh.witness, fresh.detail)
    assert rebase(g, got.witness) == canonical_lie("Dl", got.param)


@pytest.mark.parametrize("l", DL_GRID, ids=str)
def test_canonical_dl_table_is_the_checked_bracket_table(l):
    "The unchecked build equals the table the Lie checks accept."
    g = canonical_lie("Dl", l)
    assert type(g) is LieAlgebra
    assert g == LieAlgebra.from_brackets(3, {(2, 0): [(1, 0)], (2, 1): [(l, 1)]})


def test_rebased_canonical_dl_takes_the_general_path(monkeypatch):
    g = rebase(canonical_lie("Dl", 2), Mat([[1, 2, 0], [0, 1, 1], [1, 0, 3]]))
    assert lie._canonical(g) is None
    calls = []

    def counted(p):
        calls.append(p)
        return factor_unipoly(p)

    monkeypatch.setattr(lie, "factor_unipoly", counted)
    assert classify3(g).key() == ("Dl", (Fraction(1, 2), 0))
    assert len(calls) == 1


def test_classify_result_is_frozen():
    cls = classify3(canonical_lie("N"))
    with pytest.raises(AttributeError, match="immutable"):
        cls.tag = "Abelian"


def test_canonical_l_normalization():
    assert canonical_l(2) == QI(Fraction(1, 2))
    assert canonical_l(Fraction(1, 2)) == QI(Fraction(1, 2))
    assert canonical_l(QI(0, 1)) == QI(0, 1)
    assert canonical_l(QI(0, -1)) == QI(0, 1)
    assert canonical_l(-1) == QI(-1)


def test_classify_recovers_canonical_parameter():
    # l = 2 normalizes to 1/2 with the roles of e1, e2 exchanged
    g = LieAlgebra.from_brackets(3, {(2, 0): [(1, 0)], (2, 1): [(2, 1)]})
    cls = classify3(g)
    assert cls.tag == "Dl" and cls.param == QI(Fraction(1, 2))
    assert rebase(g, cls.witness) == canonical_lie("Dl", Fraction(1, 2))


def test_classify_takes_the_first_basis_vector_outside_the_derived_plane():
    """The derived plane has echelon rows (1,1,0), (0,0,1) with pivots e1
    and e3 but does not hold e1, so the outside element w0 is e1, not the
    first non-pivot e2."""
    g = LieAlgebra.from_brackets(3, {(0, 1): [(1, 0), (1, 1)],
                                     (0, 2): [(2, 2)], (1, 2): [(-2, 2)]})
    cls = classify3(g)
    assert cls.tag == "Dl" and cls.param == QI(Fraction(1, 2))
    assert cls.witness == Mat([[0, 0, 1], [1, 1, 0], [Fraction(1, 2), 0, 0]])


def test_classify_conjugation_invariant():
    rng = random.Random(41)
    cases = [("Heisenberg", None), ("N", None), ("Dl", Fraction(1, 2)),
             ("Dl", -1), ("E", None)]
    for family, l in cases:
        g = canonical_lie(family, l)
        base = classify3(g)
        for _ in range(6):
            t = random_automorphism(family if family != "Dl" else "Dl", rng, l)
            moved = rebase(g, t)
            cls = classify3(moved)
            assert cls.key() == base.key()


def test_classify_eigenvalues_outside_qi():
    # ad(e3) on the derived plane with irrational eigenvalue ratio
    g = LieAlgebra.from_brackets(3, {(2, 0): [(1, 0), (1, 1)],
                                     (2, 1): [(2, 0), (1, 1)]})
    cls = classify3(g)
    assert cls.tag == "Dl" and cls.param is None and cls.witness is None
    assert "disc" in cls.detail


def test_lie_automorphism_heisenberg_shape():
    h = canonical_lie("Heisenberg")
    t = Mat([[1, 2, 3], [4, 5, 6], [0, 0, -3]])  # det2 = -3 in slot (3,3)
    assert check_lie_automorphism(h, t)
    assert aut_shape_member("Heisenberg", t)


def test_lie_automorphism_identity():
    for fam, l in (("Heisenberg", None), ("N", None), ("Dl", -1), ("E", None)):
        assert check_lie_automorphism(canonical_lie(fam, l), Mat.identity(3))


def test_lie_automorphism_rejects_swap_on_n():
    n = canonical_lie("N")
    t = Mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert not check_lie_automorphism(n, t)


def test_lie_automorphism_singular_rejected():
    h = canonical_lie("Heisenberg")
    assert not check_lie_automorphism(h, Mat.zero(3))


def test_aut_shape_cross_check():
    "Bracket preservation agrees with the printed parametric group shapes."
    rng = random.Random(42)
    for fam, family_key, l in (("Heisenberg", "Heisenberg", None),
                               ("N", "N", None),
                               ("Dl", "Dl", Fraction(1, 2)),
                               ("Dl", "Dl", -1),
                               ("E", "E", None)):
        g = canonical_lie(fam, l)
        for _ in range(8):
            t = random_automorphism(fam, rng, l)
            assert check_lie_automorphism(g, t)
            assert aut_shape_member(family_key, t, l)
        # random matrices that preserve brackets must match the shape
        for _ in range(30):
            t = Mat([[QI(rng.randint(-2, 2)) for _ in range(3)]
                     for _ in range(3)])
            if check_lie_automorphism(g, t):
                assert aut_shape_member(family_key, t, l)


@pytest.mark.parametrize("family, l, dim", [
    ("Heisenberg", None, 6), ("N", None, 4), ("Dl", Fraction(1, 2), 4),
    ("Dl", -1, 4), ("Dl", 1, 6), ("E", None, 4)])
def test_aut_templates_have_the_dimension_of_the_derivations(family, l, dim):
    "Each stored component is as large as Aut, whose Lie algebra is Der."
    assert len(derivation_space(canonical_lie(family, l))) == dim
    for comp in aut_components(family, l):
        assert len(aut_template(comp)[0]) == dim


def sympy_cell(x, sympy):
    "A QI or MultiPoly cell as a sympy expression in its variable names."
    if isinstance(x, QI):
        return sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im)
    return sympy.Add(*[
        sympy_cell(c, sympy) * sympy.Mul(*[sympy.Symbol(v) ** e
                                           for v, e in zip(x.vars, exps)])
        for exps, c in x.terms.items()])


# (family, l) with l None for a family without parameter and "l" for Dl at
# every l outside {0, 1, -1}, which l = 0, 1 and -1 complete
AUT_CASES = [("Heisenberg", None), ("N", None), ("E", None), ("Dl", "l"),
             ("Dl", 0), ("Dl", 1), ("Dl", -1)]


@pytest.mark.parametrize("family, l", AUT_CASES)
def test_aut_templates_cover_the_automorphism_group(family, l):
    """The stored components are all of Aut(g).  Name the cells of a
    generic F a11..a33, as the template parameters are named, and let I be
    the ideal of [F e_i, F e_j] - F[e_i, e_j] and det(F) z - 1 (and, for
    the symbolic l, l (l - 1) (l + 1) w - 1).  The zeros of I are the
    automorphisms, and a component's shape relations are F - template,
    cell by cell.  With components C_1..C_m, every product r_1 ... r_m of
    one shape relation of each lies in I, so each automorphism satisfies
    every relation of some C_k and is the template of C_k at its own
    cells.  sympy proves the membership by a grevlex basis.  Each template
    is an automorphism for all parameter values (and l): hom_defects over
    MultiPoly cells is identically 0 and det is not.  Sl2 and Abelian have
    no stored group, so a search on them is unknown; no catalog entry has
    either algebra."""
    sympy = pytest.importorskip("sympy")
    if l == "l":
        g = LieAlgebra.from_brackets(3, {(2, 0): [(1, 0)],
                                         (2, 1): [(MultiPoly.var("l"), 1)]})
        comps = aut_components(family)
    else:
        g = canonical_lie(family, l)
        comps = aut_components(family, l)
    cells = sympy.Matrix(3, 3, lambda i, j: sympy.Symbol("a%d%d" % (i + 1,
                                                                   j + 1)))
    c = [[[sympy_cell(x, sympy) for x in v] for v in row] for row in g.c]

    def bracket(u, v):
        return [sum(u[i] * v[j] * c[i][j][k] for i in range(3)
                    for j in range(3)) for k in range(3)]

    z, w, sl = sympy.symbols("z w l")
    eqs = [sum(c[i][j][p] * cells[p, k] for p in range(3))
           - bracket(cells.row(i), cells.row(j))[k]
           for i in range(3) for j in range(i + 1, 3) for k in range(3)]
    eqs.append(cells.det() * z - 1)
    gens = list(cells) + [z]
    if l == "l":
        eqs.append(sl * (sl - 1) * (sl + 1) * w - 1)
        gens += [sl, w]
    basis = sympy.groebner([e for e in map(sympy.expand, eqs) if e != 0],
                           *gens, order="grevlex", domain=sympy.QQ)
    relations = []
    for comp in comps:
        t = aut_template(comp)[1]
        assert all(x.is_zero() for d in hom_defects(g, g, t) for x in d), comp
        assert not t.det().is_zero(), comp
        shape = [cells[i, j] - sympy_cell(x, sympy)
                 for i, row in enumerate(t.rows) for j, x in enumerate(row)]
        relations.append([r for r in map(sympy.expand, shape) if r != 0])
    assert comps
    for rs in itertools.product(*relations):
        assert basis.contains(sympy.Mul(*rs)), (comps, rs)
    assert aut_components("Sl2") == aut_components("Abelian") == ()


def test_d_minus_one_swap_component():
    g = canonical_lie("Dl", -1)
    t = Mat([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert check_lie_automorphism(g, t)
    assert aut_shape_member("Dl", t, -1)
    # the swap is not an automorphism for other l
    g2 = canonical_lie("Dl", Fraction(1, 2))
    assert not check_lie_automorphism(g2, t)


def test_instantiate_aut_rejects_singular():
    with pytest.raises(ValueError):
        instantiate_aut("N", {"a11": QI(0), "a22": QI(1),
                              "a31": QI(0), "a32": QI(0)})
