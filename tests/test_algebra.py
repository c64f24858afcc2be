import random
from fractions import Fraction

import pytest

from lsacat import catalog
from lsacat.algebra import (Algebra, check_left_symmetric, commutator_lie,
                            hom_defects, left_matrix, multiply, rebase,
                            right_matrix, triple_products)
from lsacat.cocycle import Cocycle, Representation
from lsacat.errors import DimensionMismatch
from lsacat.lie import canonical_lie, classify3
from lsacat.linalg import Mat, basis_vec, vec_add, vec_eq, vec_is_zero
from lsacat.scalars import QI


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


def associator(a, i, j, k):
    "(e_i e_j) e_k - e_i (e_j e_k) by multiply."
    e = [basis_vec(a.dim, m) for m in range(a.dim)]
    return [x - y for x, y in zip(multiply(a, multiply(a, e[i], e[j]), e[k]),
                                  multiply(a, e[i], multiply(a, e[j], e[k])))]


def test_associator_zero_on_associative():
    diag = Algebra.from_products(3, {(0, 0): [(1, 0)], (1, 1): [(1, 1)],
                                     (2, 2): [(1, 2)]})
    t, u = triple_products(diag)
    assert t == u
    assert vec_eq(t[1][1][1], [QI(0), QI(1), QI(0)])


def test_associator_h1_e2_e1_e2():
    # (e2 e1) e2 - e2 (e1 e2) = e2 e2 - e2 (e2 + e3) = 0
    t, u = triple_products(H1)
    assert vec_is_zero(t[1][0][1]) and vec_is_zero(u[1][0][1])
    # (e1 e2) e1 = (e2 + e3) e1 = e2 + e3, e1 (e2 e1) = e1 e2 = e2 + e3
    assert vec_eq(t[0][1][0], [QI(0), QI(1), QI(1)])
    assert vec_eq(u[0][1][0], [QI(0), QI(1), QI(1)])


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
