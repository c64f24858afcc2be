import copy
import pickle
import random
from fractions import Fraction

import pytest

from lsacat import algebra, catalog
from lsacat.algebra import (Algebra, LieAlgebra, check_left_symmetric,
                            commutator_lie, hom_defects, left_matrix,
                            multiply, rebase, triple_products)
from lsacat.cocycle import (Cocycle, Representation, psi,
                            verify_cocycle_equiv)
from lsacat.errors import (DimensionMismatch, DivisionByZero, DomainMismatch,
                           NotLieAlgebra, SingularWitness)
from lsacat.iso import verify_lsa_iso
from lsacat.lie import (aut_template, canonical_l, canonical_lie,
                        check_lie_automorphism, classify3)
from lsacat.linalg import Mat, basis_vec, vec_add, vec_eq, vec_is_zero
from lsacat.scalars import QI, MultiPoly, RatFunc, qi_roots
from oracles import right_matrix


H1 = Algebra.from_products(3, {
    (0, 0): [(1, 0)], (0, 1): [(1, 1), (1, 2)], (0, 2): [(1, 2)],
    (1, 0): [(1, 1)], (2, 0): [(1, 2)],
})


def test_multiply_h1_basis():
    # e1 e2 = e2 + e3 in (H-1)
    assert vec_eq(multiply(H1, basis_vec(H1.dim, 0), basis_vec(H1.dim, 1)),
                  [QI(0), QI(1), QI(1)])


def test_multiply_zero_table():
    z = Algebra.from_products(3, {})
    assert vec_is_zero(multiply(z, [1, 2, 3], [4, 5, 6]))


def test_multiply_n1_lambda2():
    n1 = catalog.instantiate("N-1", {"lambda": 2})
    assert vec_eq(multiply(n1, basis_vec(n1.dim, 2), basis_vec(n1.dim, 2)),
                  [QI(0), QI(0), QI(2)])


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        multiply(H1, [1, 0], [0, 1, 0])


HEIS = canonical_lie("Heisenberg")
ZERO_REP = Representation(HEIS, [Mat.zero(3)] * 3)


@pytest.mark.parametrize("build, message", [
    (lambda: Algebra([[[0, 0], [0, 0]], [[0, 0]]]), "table is not dim x dim"),
    (lambda: Algebra([[[0, 0], [0]], [[0, 0], [0, 0]]]),
     "product vector has wrong length"),
    (lambda: Mat([]), "empty matrix"),
    (lambda: Mat([[1, 2], [3]]), "ragged rows"),
    (lambda: Representation(HEIS, [Mat.zero(3)] * 2),
     "need one matrix per basis element"),
    (lambda: Representation(HEIS, [Mat([[0, 0, 0], [0, 0, 0]])] * 3),
     "representation matrices must be dim x dim"),
    (lambda: Cocycle(ZERO_REP, Mat.zero(2)), "C must be dim x dim"),
], ids=["table_rows", "product_length", "empty_mat", "ragged_mat",
        "rep_count", "rep_not_square", "cocycle_c"])
def test_constructor_checks_shape(build, message):
    "Each value checks its shape once, where it is built."
    with pytest.raises(DimensionMismatch) as err:
        build()
    assert str(err.value) == message


M23 = Mat([[1, 2, 3], [4, 5, 6]])
L = MultiPoly.var("l")


@pytest.mark.parametrize("call, want", [
    (lambda: M23 + Mat.zero(2), DimensionMismatch("shape mismatch")),
    (lambda: M23 * M23, DimensionMismatch("inner dimensions differ")),
    (lambda: M23.apply_row([1, 2, 3]),
     DimensionMismatch("vector length mismatch")),
    (lambda: M23.apply_col([1, 2]),
     DimensionMismatch("vector length mismatch")),
    (M23.det, DimensionMismatch("determinant of a non-square matrix")),
    (M23.inverse, DimensionMismatch("inverse of a non-square matrix")),
    (M23.charpoly,
     DimensionMismatch("characteristic polynomial needs square")),
    (M23.trace, DimensionMismatch("trace of a non-square matrix")),
    (lambda: rebase(H1, Mat.identity(2)),
     DimensionMismatch("basis-change matrix has wrong shape")),
    (lambda: check_lie_automorphism(HEIS, Mat.identity(2)),
     DimensionMismatch("automorphism candidate has wrong shape")),
    (lambda: canonical_lie("Dl"), ValueError("Dl needs the parameter l")),
    (lambda: canonical_lie("X"), ValueError("unknown family 'X'")),
    (lambda: aut_template("X"),
     ValueError("no stored automorphism group for 'X'")),
    (lambda: canonical_l(0), QI(0)),
    (lambda: verify_lsa_iso(H1, Algebra.from_products(2, {}),
                            Mat.identity(3)), False),
    (lambda: MultiPoly(("b", "a")),
     ValueError("variables must be sorted: ('b', 'a')")),
    (lambda: MultiPoly(("l",), {(1, 2): 1}),
     ValueError("exponent arity mismatch")),
    (L.const_value, DomainMismatch("polynomial l is not constant")),
    (lambda: L / MultiPoly(), DivisionByZero("division by zero polynomial")),
    (lambda: RatFunc(L, 1) / RatFunc(MultiPoly(), 1),
     DivisionByZero("division by zero rational function")),
    (lambda: RatFunc(L, 0), DivisionByZero("zero denominator")),
    (MultiPoly().lead, None),
    (lambda: qi_roots((5,)), []),
    (lambda: catalog.lookup("H-7").admissible({}), False),
    (lambda: verify_cocycle_equiv(psi(H1), psi(H1), Mat.zero(3),
                                  Mat.identity(3)),
     SingularWitness("cocycle equivalence witness g is singular")),
    (lambda: verify_cocycle_equiv(psi(H1), psi(Algebra.from_products(3, {})),
                                  Mat.identity(3), Mat.identity(3)), False),
], ids=["mat_add", "mat_mul", "apply_row", "apply_col", "det", "inverse",
        "charpoly", "trace", "rebase", "lie_automorphism", "dl_without_l",
        "unknown_family", "unknown_aut_group", "canonical_l_of_0",
        "lsa_iso_dims", "unsorted_vars", "term_arity", "const_value",
        "poly_div_zero", "ratfunc_div_zero", "ratfunc_zero_den",
        "lead_of_zero", "roots_of_constant", "missing_binding",
        "singular_equivalence", "equivalence_across_lie_algebras"])
def test_operations_check_their_inputs(call, want):
    "Each operation refuses, or answers plainly, an input it cannot take."
    if not isinstance(want, Exception):
        assert call() == want
        return
    with pytest.raises(type(want)) as err:
        call()
    assert str(err.value) == str(want)


def associator(a, i, j, k):
    "(e_i e_j) e_k - e_i (e_j e_k) by multiply."
    e = [basis_vec(a.dim, m) for m in range(a.dim)]
    return [x - y for x, y in zip(multiply(a, multiply(a, e[i], e[j]), e[k]),
                                  multiply(a, e[i], multiply(a, e[j], e[k])))]


def test_associator_zero_on_associative():
    diag = Algebra.from_products(3, {(0, 0): [(1, 0)], (1, 1): [(1, 1)],
                                     (2, 2): [(1, 2)]})
    t, u, s = triple_products(diag)
    # (e_m e_m) e_m = e_m (e_m e_m) = e_m, and every other triple is zero
    assert t == u == {(m, m, m, m): QI(1) for m in range(3)}
    assert s == {}


def test_a_new_table_gets_its_own_triple_products():
    """triple_products holds the table it remembers, so a table built after
    the caller dropped that one cannot take its id and read its products."""
    for k in range(1, 300):
        a = Algebra([[[k]]])        # e1 e1 = k e1, so (e1 e1) e1 = k^2 e1
        assert triple_products(a) == ({(0, 0, 0, 0): QI(k * k)},
                                      {(0, 0, 0, 0): QI(k * k)}, {})
        del a


def coordinates(d, i, j, k):
    "The coordinates of the triple (i, j, k) that the dict d holds."
    return {m: v for (x, y, z, m), v in d.items() if (x, y, z) == (i, j, k)}


def test_associator_h1_e2_e1_e2():
    # (e2 e1) e2 - e2 (e1 e2) = e2 e2 - e2 (e2 + e3) = 0: all three are
    # zero, so none of T, U and A holds a coordinate of (e2, e1, e2)
    for d in triple_products(H1):
        assert coordinates(d, 1, 0, 1) == {}
    # (e1 e2) e1 = (e2 + e3) e1 = e2 + e3, e1 (e2 e1) = e1 e2 = e2 + e3
    t, u, s = triple_products(H1)
    assert coordinates(t, 0, 1, 0) == coordinates(u, 0, 1, 0) == {
        1: QI(1), 2: QI(1)}
    assert coordinates(s, 0, 1, 0) == {}


def test_left_symmetric_catalog_entry():
    ok, cert = check_left_symmetric(H1)
    assert ok and cert is None


def test_left_symmetric_zero_algebra():
    ok, _ = check_left_symmetric(Algebra.from_products(3, {}))
    assert ok


def test_left_symmetric_failure_certificate():
    bad = Algebra.from_products(3, {(0, 0): [(1, 1)], (1, 0): [(1, 0)]})
    ok, cert = check_left_symmetric(bad)
    assert not ok
    i, j, k, diff = cert
    d = [a - b for a, b in zip(associator(bad, i, j, k),
                               associator(bad, j, i, k))]
    assert vec_eq(d, diff) and not vec_is_zero(diff)


def test_commutator_h1_is_heisenberg():
    g = commutator_lie(H1)
    assert vec_eq(g.c[0][1], [QI(0), QI(0), QI(1)])
    assert all(vec_is_zero(g.c[i][j]) for i in range(3) for j in range(3)
               if (i, j) not in ((0, 1), (1, 0)))


def test_commutator_commutative_table_abelian():
    sym = Algebra.from_products(3, {(0, 1): [(1, 2)], (1, 0): [(1, 2)]})
    assert commutator_lie(sym).is_zero_product()


def test_commutator_n1():
    n1 = catalog.instantiate("N-1", {"lambda": 2})
    g = commutator_lie(n1)
    assert vec_eq(g.c[2][1], [QI(0), QI(1), QI(0)])


def test_commutator_is_the_checked_bracket_table(first_samples):
    """commutator_lie checks only Jacobi: on every first sample it equals
    the LieAlgebra that the checking constructor builds from the brackets
    xy - yx, and a table whose commutator breaks Jacobi is refused with
    the constructor's message."""
    for e, _, a in first_samples:
        basis = [basis_vec(3, i) for i in range(3)]
        want = LieAlgebra([[[p - q for p, q in zip(multiply(a, x, y),
                                                  multiply(a, y, x))]
                            for y in basis] for x in basis])
        got = commutator_lie(a)
        assert type(got) is LieAlgebra and got.dim == 3, e.id
        assert got.c == want.c, e.id
    c = [[list(v) for v in row] for row in H1.c]
    c[0][2] = [1, 0, 1]
    with pytest.raises(NotLieAlgebra,
                       match=r"^bracket table breaks Jacobi at \(e1,e2,e3\)$"):
        commutator_lie(Algebra(c))


def test_left_symmetry_verdict_is_stored_once(monkeypatch):
    """check_left_symmetric stores its verdict on the table, and later calls
    and commutator_lie read it: no Jacobi check runs on a table found
    left-symmetric.  A table that breaks Jacobi is refused, checked or not;
    a copy or a pickle is an equal table with no verdict; assigning to a
    table raises."""
    want = commutator_lie(Algebra(H1.c))
    counted = {"_check_associator": 0, "_check_jacobi": 0}
    for name in counted:
        def spy(*args, _name=name, _fn=getattr(algebra, name)):
            counted[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(algebra, name, spy)
    a = Algebra(H1.c)
    assert not a.known_left_symmetric()
    assert check_left_symmetric(a) == check_left_symmetric(a) == (True, None)
    assert a.known_left_symmetric()
    assert commutator_lie(a) == want
    assert counted == {"_check_associator": 1, "_check_jacobi": 0}

    c = [[list(v) for v in row] for row in H1.c]
    c[0][2] = [1, 0, 1]
    fresh, checked = Algebra(c), Algebra(c)
    assert not check_left_symmetric(checked)[0]
    for bad in (fresh, checked):
        with pytest.raises(NotLieAlgebra, match="breaks Jacobi"):
            commutator_lie(bad)
    assert counted == {"_check_associator": 2, "_check_jacobi": 2}

    for twin in (copy.copy(a), copy.deepcopy(a),
                 pickle.loads(pickle.dumps(a))):
        assert type(twin) is Algebra and twin == a and twin is not a
        assert twin._left_symmetry is None
    commutator_lie(copy.copy(a))
    assert counted["_check_jacobi"] == 3
    for name, value in (("c", H1.c), ("_left_symmetry", (False, None))):
        with pytest.raises(AttributeError, match="^Algebra is immutable$"):
            setattr(a, name, value)
    assert a._left_symmetry == (True, None)


def test_left_matrix_h1():
    m = left_matrix(H1, basis_vec(H1.dim, 0))
    # columns: e1 -> e1, e2 -> e2 + e3, e3 -> e3
    cols = m.transpose()
    assert vec_eq(cols.row(0), [QI(1), QI(0), QI(0)])
    assert vec_eq(cols.row(1), [QI(0), QI(1), QI(1)])
    assert vec_eq(cols.row(2), [QI(0), QI(0), QI(1)])


def test_hom_defects_read_pairs_i_below_j_only_between_lie_tables():
    g = canonical_lie("Heisenberg")
    ident = Mat.identity(3)
    assert len(list(hom_defects(g, g, ident))) == 3
    assert len(list(hom_defects(Algebra(g.c), g, ident))) == 9
    # a table whose only product is e2 e1 = e1 fails at the pair (1, 0)
    a = Algebra.from_products(3, {(1, 0): [(1, 0)]})
    zero = Algebra.from_products(3, {})
    found = [not vec_is_zero(d) for d in hom_defects(a, zero, ident)]
    assert found == [False] * 3 + [True] + [False] * 5


def test_right_matrix_h1_is_identity_at_e1():
    assert right_matrix(H1, basis_vec(H1.dim, 0)) == Mat.identity(3)


def test_left_right_matrices_zero_algebra():
    z = Algebra.from_products(3, {})
    assert left_matrix(z, [1, 1, 1]).is_zero()
    assert right_matrix(z, [1, 1, 1]).is_zero()


def test_multiply_bilinear():
    rng = random.Random(32)
    for _ in range(10):
        x = [QI(rng.randint(-3, 3)) for _ in range(3)]
        x2 = [QI(rng.randint(-3, 3)) for _ in range(3)]
        y = [QI(rng.randint(-3, 3)) for _ in range(3)]
        lhs = multiply(H1, vec_add(x, x2), y)
        rhs = vec_add(multiply(H1, x, y), multiply(H1, x2, y))
        assert vec_eq(lhs, rhs)


def test_rebase_preserves_class():
    w = Mat([[1, 1, 0], [0, 1, 0], [Fraction(1, 2), 0, 1]])
    moved = rebase(H1, w)
    assert check_left_symmetric(moved)[0]
    assert classify3(commutator_lie(moved)).tag == "Heisenberg"
