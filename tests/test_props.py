import random
from fractions import Fraction

import pytest

from lsacat import catalog, props
from lsacat.algebra import Algebra, rebase
from lsacat.errors import DimensionMismatch, ZeroAlgebra
from lsacat.iso import search_lsa_iso
from lsacat.linalg import Mat, basis_vec
from lsacat.props import (closure_span, find_ideals, fingerprint,
                          is_associative, is_bisymmetric, is_novikov,
                          is_semisimple, is_simple, is_transitive)
from lsacat.scalars import QI, factor_unipoly
from oracles import (ideal_closed, random_automorphism, random_qi_vector,
                     right_nilpotent_at, simplicity_oracle_agrees)


def test_associative_examples():
    assert is_associative(catalog.instantiate("H-5"))
    assert is_associative(Algebra.from_products(3, {}))
    assert not is_associative(catalog.instantiate("H-1"))


def test_transitive_examples():
    assert is_transitive(catalog.instantiate("H-5"))
    assert is_transitive(Algebra.from_products(3, {}))
    # (H-1) is not transitive: R_{e1} fixes e1
    h1 = catalog.instantiate("H-1")
    assert not is_transitive(h1)
    assert not right_nilpotent_at(h1, basis_vec(h1.dim, 0))


def test_transitive_symbolic_on_parametric_table():
    # the parametric (H-7) family is transitive for every lambda
    entry = catalog.lookup("H-7")
    assert is_transitive(entry.table)


def test_novikov_examples():
    assert is_novikov(catalog.instantiate("H-1"))
    assert is_novikov(Algebra.from_products(3, {}))
    n31 = catalog.instantiate("N-31")
    assert not is_novikov(n31)


def test_bisymmetric_examples():
    assert is_bisymmetric(catalog.instantiate("H-6"))
    assert is_bisymmetric(catalog.instantiate("H-5"))  # associative table
    assert not is_bisymmetric(catalog.instantiate("H-1"))


def test_associative_implies_bisymmetric(first_samples):
    for entry, bindings, alg in first_samples:
        if is_associative(alg):
            assert is_bisymmetric(alg)


def test_find_ideals_n30():
    rep = find_ideals(catalog.instantiate("N-30"))
    assert rep.lines == [[QI(1), QI(0), QI(0)]]
    assert len(rep.planes) == 1
    normal, basis = rep.planes[0]
    assert normal == [QI(1), QI(0), QI(0)]  # the plane span(e2,e3)


def test_find_ideals_zero_algebra_flag():
    "Every subspace of the zero algebra is an ideal; find_ideals refuses it."
    with pytest.raises(ZeroAlgebra):
        find_ideals(Algebra.from_products(3, {}))


def test_find_ideals_simple_entry_empty():
    rep = find_ideals(catalog.instantiate("D1bar-10"))
    assert not rep.has_proper_ideal()


def test_plane_conditions_without_a_common_quadratic(monkeypatch):
    """A plane whose line conditions are quadratics irreducible over Q(i)
    but not multiples of one another holds no invariant line, not even an
    orbit of conjugates; this algebra has no ideal at all."""
    c = [[[1, 2, 0], [0, 2, -1], [0, 0, -1]],
         [[0, 2, 1], [0, 0, 2], [0, 1, 0]],
         [[1, 0, 0], [1, 0, 2], [0, 0, 1]]]      # c[i][j] = e_{i+1} e_{j+1}
    a = Algebra(c)
    seen = []
    solve = props._lines_in_plane

    def spy(*args):
        seen.append(solve(*args))
        return seen[-1]
    monkeypatch.setattr(props, "_lines_in_plane", spy)
    assert not find_ideals(a).has_proper_ideal()
    assert seen and all(out == ([], [], []) for out in seen)
    assert simplicity_oracle_agrees(a, random.Random(0))


def test_plane_solver_reads_past_the_first_quadratic():
    """In the plane span(e1, e2), operators that are scalar there give no
    condition; the lines come from the first operator that does, each
    checked against every operator, and only a plane on which every
    operator is scalar is a family."""
    b1, b2 = basis_vec(3, 0), basis_vec(3, 1)
    scalar = Mat([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    diagonal = Mat([[1, 0, 0], [0, 3, 0], [0, 0, 1]])
    shear = Mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])      # keeps e1 only
    assert props._lines_in_plane([scalar, Mat.identity(3)], b1, b2) == (
        [], [(b1, b2)], [])
    assert props._lines_in_plane([scalar, scalar, diagonal], b1, b2) == (
        [b1, b2], [], [])
    assert props._lines_in_plane([scalar, diagonal, shear], b1, b2) == (
        [b1], [], [])


def test_oracle_checks_line_and_plane_orbits():
    """Q(i)[t]/(t^2 - 2) x C: the line e3, and the ideal span(e1, e2) as an
    orbit of conjugate lines (t = +-sqrt 2) and of conjugate planes."""
    a = Algebra.from_products(3, {(0, 0): [(1, 0)], (0, 1): [(1, 1)],
                                  (1, 0): [(1, 1)], (1, 1): [(2, 0)],
                                  (2, 2): [(1, 2)]})
    rep = find_ideals(a)
    assert rep.lines == [[QI(0), QI(0), QI(1)]]
    assert len(rep.line_orbits) == 1 and len(rep.plane_orbits) == 1
    assert simplicity_oracle_agrees(a, random.Random(0))


def test_find_ideals_h5_families():
    # every plane containing e3 is an ideal of (H-5)
    rep = find_ideals(catalog.instantiate("H-5"))
    assert rep.lines == [[QI(0), QI(0), QI(1)]]
    assert len(rep.plane_families) == 1
    common = rep.plane_families[0]
    assert common == [QI(0), QI(0), QI(1)]


def test_find_ideals_factors_once(monkeypatch, full_catalog):
    """Lines and planes share one factorization of the characteristic
    polynomial, on every catalog pair; the quadratics of eigenplanes are
    factored on their own and not counted."""
    calls = []

    def counted(co):
        if len(co) == 4:
            calls.append(co)
        return factor_unipoly(co)
    monkeypatch.setattr(props, "factor_unipoly", counted)
    pairs = 0
    for e in full_catalog.values():
        for b in e.sample_bindings():
            alg = catalog.instantiate(e.id, b)
            del calls[:]
            find_ideals(alg)
            assert len(calls) <= 1, (e.id, b)
            pairs += 1
    assert pairs == 258


def test_ideals_closed(first_samples):
    for entry, bindings, alg in first_samples:
        rep = find_ideals(alg)
        for v in rep.lines:
            assert ideal_closed(alg, [v])
        for _n, basis in rep.planes:
            assert ideal_closed(alg, basis)
        for basis, _f in rep.line_orbits:
            assert ideal_closed(alg, basis)
        for normals, _f in rep.plane_orbits:
            assert ideal_closed(alg, Mat(normals).nullspace())


def test_simple_and_semisimple_examples():
    assert is_simple(catalog.instantiate("Dhalf-S-7", {"l": Fraction(1, 2)}))
    n30 = catalog.instantiate("N-30")
    assert not is_simple(n30)
    ok, witness = is_semisimple(n30)
    assert ok and len(witness) == 2
    dims = sorted(len(part) for part in witness)
    assert dims == [1, 2]
    h1 = catalog.instantiate("H-1")
    assert not is_simple(h1)
    assert not is_semisimple(h1)[0]


def test_algebra_rejects_dimension_above_3():
    # S + S for the simple S: e1 e1 = e2, e2 e2 = e1; its 2-dimensional
    # summands are ideals the line/hyperplane search cannot see, so no
    # predicate is ever handed a 4-dimensional algebra
    with pytest.raises(DimensionMismatch):
        Algebra.from_products(4, {(0, 0): [(1, 1)], (1, 1): [(1, 0)],
                                      (2, 2): [(1, 3)], (3, 3): [(1, 2)]})


def test_zero_algebra_rejected():
    with pytest.raises(ZeroAlgebra):
        is_simple(Algebra.from_products(3, {}))
    with pytest.raises(ZeroAlgebra):
        is_semisimple(Algebra.from_products(3, {}))


def test_one_dimensional_algebra_is_simple():
    # C: e1 e1 = e1; its one line is the whole algebra, not a proper ideal
    a = Algebra.from_products(1, {(0, 0): [(1, 0)]})
    assert not find_ideals(a).has_proper_ideal()
    assert is_simple(a)
    assert is_semisimple(a) == (True, [[basis_vec(1, 0)]])
    with pytest.raises(ZeroAlgebra):
        is_simple(Algebra.from_products(1, {}))
    with pytest.raises(ZeroAlgebra):
        is_semisimple(Algebra.from_products(1, {}))


def test_two_dimensional_semisimplicity():
    "C + C splits into two lines, Q(i)[t]/(t^2 - 2) into an orbit, C[t]/(t^2) not."
    def same_line(v, u):
        return Mat([v, u]).rank() == 1

    rng = random.Random(7)
    c_plus_c = Algebra.from_products(2, {(0, 0): [(1, 0)], (1, 1): [(1, 1)]})
    bases = 0
    while bases < 5:
        w = Mat([[QI(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)])
        if w.det().is_zero():
            continue
        bases += 1
        ok, ((v,), (u,)) = is_semisimple(rebase(c_plus_c, w))
        # the ideals are the lines of e1 and e2, rows of w^-1 in the new basis
        r1, r2 = w.inverse().rows
        assert ok
        assert ((same_line(v, r1) and same_line(u, r2))
                or (same_line(v, r2) and same_line(u, r1)))
    # basis 1, t
    sqrt2 = Algebra.from_products(2, {(0, 0): [(1, 0)], (0, 1): [(1, 1)],
                                      (1, 0): [(1, 1)], (1, 1): [(2, 0)]})
    ok, witness = is_semisimple(sqrt2)
    assert ok and len(witness) == 1
    orbit_basis, f = witness[0]
    assert len(orbit_basis) == 2 and len(f) == 3
    dual = Algebra.from_products(2, {(0, 0): [(1, 0)], (0, 1): [(1, 1)],
                                     (1, 0): [(1, 1)]})
    assert is_semisimple(dual) == (False, None)


def test_semisimple_reads_minimal_ideals():
    """C + 0 has a minimal ideal line besides C, so its minimal ideals span
    it, but A.A = C: not semisimple.  In Q(i)[t]/(t^2 - 2) + C the rational
    plane W = span(e1, e2) is an ideal holding the orbit's conjugate lines,
    so it is no component: the witness is the orbit and the line e3."""
    c_plus_zero = Algebra.from_products(2, {(0, 0): [(1, 0)]})
    assert is_semisimple(c_plus_zero) == (False, None)
    a = Algebra.from_products(3, {(0, 0): [(1, 0)], (0, 1): [(1, 1)],
                                  (1, 0): [(1, 1)], (1, 1): [(2, 0)],
                                  (2, 2): [(1, 2)]})
    rep = find_ideals(a)
    assert [bas for _n, bas in rep.planes] == [[basis_vec(3, 0),
                                               basis_vec(3, 1)]]
    assert is_semisimple(a, rep) == (
        True, [rep.line_orbits[0], [basis_vec(3, 2)]])
    assert rep.line_orbits[0][0] == [basis_vec(3, 0), basis_vec(3, 1)]


def test_simplicity_oracle(first_samples):
    rng = random.Random(61)
    for entry, bindings, alg in first_samples:
        if alg.is_zero_product():
            continue
        assert simplicity_oracle_agrees(alg, rng, tries=8), entry.id


def test_closure_span():
    h1 = catalog.instantiate("H-1")
    assert len(closure_span(h1, [basis_vec(h1.dim, 0)])) == 3
    assert len(closure_span(h1, [basis_vec(h1.dim, 2)])) == 1


def test_fingerprint_invariance_under_automorphisms():
    rng = random.Random(62)
    cases = [("H-2", {}, "Heisenberg", None),
             ("N-30", {}, "N", None),
             ("Dl-10", {"l": Fraction(1, 2)}, "Dl", Fraction(1, 2)),
             ("E-7", {"lambda": 2}, "E", None)]
    for eid, bind, family, l in cases:
        alg = catalog.instantiate(eid, bind)
        fp = fingerprint(alg)
        for _ in range(4):
            t = random_automorphism(family, rng, l)
            assert fingerprint(rebase(alg, t)) == fp


def test_fingerprint_separates_h1_h3():
    f1 = fingerprint(catalog.instantiate("H-1"))
    f3 = fingerprint(catalog.instantiate("H-3"))
    assert f1.differing_field(f3) == "flags.novikov"


def test_fingerprint_n18_1_vs_n20():
    # computation decides: the pair IS separated (right multiplications of
    # the first commute, and the trace-form ranks differ as well)
    a = catalog.instantiate("N-18", {"lambda": 1})
    b = catalog.instantiate("N-20")
    assert fingerprint(a).differing_field(fingerprint(b)) == "flags.novikov"
    assert fingerprint(a).ranks != fingerprint(b).ranks


def test_fingerprint_lie_class_decides_last():
    """H-1 and N-38 at lambda = 2 agree on every flag, dimension and rank,
    so only the Lie classes of their commutators tell them apart."""
    a = catalog.instantiate("H-1")
    b = catalog.instantiate("N-38", {"lambda": 2})
    fa, fb = fingerprint(a), fingerprint(b)
    assert (fa.flags, fa.dims, fa.ranks) == (fb.flags, fb.dims, fb.ranks)
    assert fa.differing_field(fb) == "lie_class" and fa != fb
    assert search_lsa_iso(a, b).reason == "lie_class"


def test_transitive_agrees_with_nilpotency(first_samples):
    # full 100-sample agreement across the catalog runs in the acceptance
    # suite; here a spot check that transitive tables have nilpotent R_x
    rng = random.Random(63)
    for entry, bindings, alg in first_samples[:20]:
        if is_transitive(alg):
            for _ in range(20):
                assert right_nilpotent_at(alg, random_qi_vector(rng, 3))


@pytest.mark.parametrize("dim, products", [
    # R_e1 swaps e1 and e2: tr R_x = 0 but tr R_x^2 = 2 x1^2
    (2, {(0, 0): [(1, 1)], (1, 0): [(1, 0)]}),
    # R_e1 permutes e1 -> e2 -> e3 -> e1: only tr R_x^3 is nonzero
    (3, {(0, 0): [(1, 1)], (1, 0): [(1, 2)], (2, 0): [(1, 0)]}),
    # R_e1 and R_e2 are nilpotent, R_e1 + R_e2 is not: tr R_x^2 = 2 x1 x2
    (2, {(1, 0): [(1, 0)], (0, 1): [(1, 1)]}),
])
def test_transitive_reads_every_power_and_mixed_trace(dim, products):
    "Non-transitive tables whose lower or unmixed trace conditions all hold."
    a = Algebra.from_products(dim, products)
    assert not right_nilpotent_at(a, [QI(1)] * dim)
    assert not is_transitive(a)
