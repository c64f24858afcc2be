import random
from fractions import Fraction

import pytest

from lsacat.errors import SingularWitness
from lsacat.linalg import Mat, combination, coords_in_span, span_basis, vec_eq
from lsacat.scalars import QI, format_scalar


def rand_mat(rng, n=3):
    return Mat([[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)])


def test_inverse_roundtrip():
    rng = random.Random(21)
    done = 0
    while done < 20:
        m = rand_mat(rng)
        try:
            inv = m.inverse()
        except SingularWitness:
            continue
        assert m * inv == Mat.identity(3)
        assert inv * m == Mat.identity(3)
        done += 1


def test_singular_inverse_raises():
    with pytest.raises(SingularWitness):
        Mat([[1, 2], [2, 4]]).inverse()


def test_det_and_rank():
    m = Mat([[1, 2], [3, 4]])
    assert m.det() == -2
    assert m.rank() == 2
    assert Mat([[1, 2], [2, 4]]).rank() == 1


def test_nullspace():
    m = Mat([[1, 1, 0], [0, 0, 1]])
    ns = m.nullspace()
    assert len(ns) == 1
    for v in ns:
        assert all(x == 0 for x in m.apply_col(v))


def test_charpoly_swap_matrix():
    # det(tI - [[0,1],[1,0]]) = t^2 - 1
    co = Mat([[0, 1], [1, 0]]).charpoly()
    assert [format_scalar(c) for c in co] == ["-1", "0", "1"]


def test_charpoly_matches_eigenvalues():
    m = Mat([[2, 0, 0], [0, 3, 0], [0, 0, 2]])
    co = m.charpoly()
    # (t-2)^2 (t-3) = t^3 - 7t^2 + 16t - 12
    assert [format_scalar(c) for c in co] == ["-12", "16", "-7", "1"]


def test_span_helpers():
    basis = span_basis([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
    assert len(basis) == 2
    assert coords_in_span(basis, [0, 0, 1]) is None
    coords = coords_in_span(basis, [2, 3, 2])
    mixed = [0, 0, 0]
    for c, b in zip(coords, basis):
        mixed = [x + c * y for x, y in zip(mixed, b)]
    assert vec_eq(mixed, [QI(2), QI(3), QI(2)])


def test_apply_row_and_col():
    m = Mat([[1, 2], [3, 4]])
    assert vec_eq(m.apply_row([1, 0]), [QI(1), QI(2)])
    assert vec_eq(m.apply_col([1, 0]), [QI(1), QI(3)])


def test_combination_skips_zero_coefficients():
    a, b = Mat([[1, 2], [3, 4]]), Mat([[0, 1], [1, 0]])
    assert combination([2, 0], [a, b]) == 2 * a
    assert combination([1, -1], [a, b]) == a - b
    assert combination([0, 0], [a, b]) == Mat.zero(2)
