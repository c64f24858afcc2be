import random
from itertools import combinations

import pytest

from lsacat import catalog
from lsacat.algebra import Algebra, commutator_lie
from lsacat.cocycle import (Cocycle, Representation, check_cocycle,
                            check_representation, equivalent_cocycle, phi,
                            precompose_rep, psi, verify_cocycle_equiv,
                            verify_cocycle_iso)
from lsacat.errors import NotAutomorphism, NotBijective, NotCocycle, NotLeftSymmetric
from lsacat.lie import canonical_lie
from lsacat.linalg import Mat
from lsacat.scalars import QI, ZERO, is_zero
from oracles import random_automorphism

H = canonical_lie("Heisenberg")
AI1_MATS = [Mat([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
            Mat([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
            Mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])]
AI1_C = Mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])

H1 = Algebra.from_products(3, {
    (0, 0): [(1, 0)], (0, 1): [(1, 1), (1, 2)], (0, 2): [(1, 2)],
    (1, 0): [(1, 1)], (2, 0): [(1, 2)],
})


def ai1_cocycle():
    return Cocycle(Representation(H, AI1_MATS), AI1_C)


def test_check_representation_ai():
    rep = Representation(H, AI1_MATS)
    ok, _ = check_representation(rep)
    assert ok
    # the operator bracket of f(e1), f(e2) equals f(e3): v3 -> v1
    f1, f2, f3 = AI1_MATS
    assert (f2 * f1 - f1 * f2) == f3
    assert list(f3.row(2)) == [QI(1), QI(0), QI(0)]


def test_check_representation_zero():
    rep = Representation(H, [Mat.zero(3)] * 3)
    assert check_representation(rep)[0]


def test_check_representation_perturbed():
    mats = [AI1_MATS[0], Mat([[0, 0, 0], [0, 0, 0], [0, 2, 0]]), AI1_MATS[2]]
    ok, cert = check_representation(Representation(H, mats))
    assert not ok and cert is not None


def test_check_cocycle_ai1():
    c = ai1_cocycle()
    ok, _ = check_cocycle(c)
    assert ok
    # q(e3) = v1 and f(e1)q(e2) - f(e2)q(e1) = v1
    f1, f2 = AI1_MATS[0], AI1_MATS[1]
    lhs = AI1_C.row(2)
    rhs = [a - b for a, b in zip(f1.apply_row(AI1_C.row(1)),
                                 f2.apply_row(AI1_C.row(0)))]
    assert lhs == rhs == [QI(1), QI(0), QI(0)]


def test_check_cocycle_abelian_zero_rep():
    g = canonical_lie("Abelian")
    rep = Representation(g, [Mat.zero(3)] * 3)
    c = Cocycle(rep, Mat([[1, 2, 3], [0, 1, 0], [5, 0, 1]]))
    assert check_cocycle(c)[0]


def test_check_cocycle_broken_entry():
    cbad = Cocycle(Representation(H, AI1_MATS),
                   Mat([[0, 0, 1], [0, 1, 0], [0, 0, 0]]))
    ok, _ = check_cocycle(cbad)
    assert not ok
    assert is_zero(cbad.C.det())


def test_bijective_cocycles():
    "A cocycle is bijective iff det C != 0; phi refuses the others."
    assert not is_zero(ai1_cocycle().C.det())
    anti = Cocycle(Representation(canonical_lie("Abelian"), [Mat.zero(3)] * 3),
                   Mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))
    assert anti.C.det() == QI(-1)
    repeated_rows = Cocycle(
        Representation(canonical_lie("Abelian"), [Mat.zero(3)] * 3),
        Mat([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
    assert is_zero(repeated_rows.C.det())
    with pytest.raises(NotBijective):
        phi(repeated_rows)


def test_phi_reconstructs_h1():
    assert phi(ai1_cocycle()) == H1


def test_phi_reconstructs_n1_at_2():
    n = canonical_lie("N")
    mats = [Mat.zero(3), Mat.zero(3), Mat([[1, 0, 0], [0, 0, 0], [0, 0, 2]])]
    c = Cocycle(Representation(n, mats), Mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert phi(c) == catalog.instantiate("N-1", {"lambda": 2})


def test_phi_rejects_bad_input():
    with pytest.raises(NotCocycle):
        phi(Cocycle(Representation(H, AI1_MATS),
                    Mat([[0, 0, 1], [0, 1, 0], [0, 0, 1]])))
    g = canonical_lie("Abelian")
    singular = Cocycle(Representation(g, [Mat.zero(3)] * 3),
                       Mat([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
    with pytest.raises(NotBijective):
        phi(singular)


def test_psi_rejects_non_left_symmetric():
    bad = Algebra.from_products(3, {(0, 0): [(1, 1)], (1, 0): [(1, 0)]})
    with pytest.raises(NotLeftSymmetric):
        psi(bad)


def test_psi_zero_algebra():
    c = psi(Algebra.from_products(3, {}))
    assert all(m.is_zero() for m in c.rep.mats)
    assert c.C == Mat.identity(3)


def test_phi_psi_identity_on_catalog(first_samples):
    for entry, bindings, alg in first_samples:
        assert phi(psi(alg)) == alg


def test_psi_phi_isomorphic_via_q():
    c = ai1_cocycle()
    back = psi(phi(c))
    assert verify_cocycle_iso(back, c, c.C)


def test_cocycle_iso_identity():
    c = ai1_cocycle()
    assert verify_cocycle_iso(c, c, Mat.identity(3))


def test_cocycle_iso_different_parameters_fails():
    # (AI) representations with different f11 values are not isomorphic via id
    mats2 = [Mat([[2, 0, 0], [1, 2, 0], [0, 0, 2]]),
             Mat([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
             Mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])]
    c1 = ai1_cocycle()
    c2 = Cocycle(Representation(H, mats2), AI1_C)
    assert not verify_cocycle_iso(c1, c2, Mat.identity(3))


def test_cocycle_equiv_trivial():
    c = ai1_cocycle()
    assert verify_cocycle_equiv(c, c, Mat.identity(3), Mat.identity(3))


def test_cocycle_equiv_rejects_non_automorphism():
    c = ai1_cocycle()
    t = Mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])  # swaps e2, e3: not in Aut(H)
    with pytest.raises(NotAutomorphism):
        verify_cocycle_equiv(c, c, Mat.identity(3), t)


def test_cocycle_equiv_ai2_general_entries():
    "The printed reduction of the general (AI-2) cocycle to its normal form."
    mats = [Mat([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
            Mat([[1, 0, 0], [0, 1, 0], [0, 1, 1]]),
            Mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])]
    rep = Representation(H, mats)
    a, b, c = QI(2), QI(3), QI(5)
    cgen = Cocycle(rep, Mat([[a, b, c], [a - b, b + c, c], [c, 0, 0]]))
    ccan = Cocycle(rep, Mat([[0, 0, 1], [0, 1, 1], [1, 0, 0]]))
    assert check_cocycle(cgen)[0] and check_cocycle(ccan)[0]
    t = Mat([[1, 0, QI(0) - b / c], [0, 1, 0], [0, 0, 1]])
    g = (t * cgen.C).inverse() * ccan.C
    assert verify_cocycle_equiv(cgen, ccan, g, t)
    from lsacat.iso import verify_lsa_iso
    assert verify_lsa_iso(phi(ccan), phi(cgen), t)


def test_equivalent_cocycle_roundtrip():
    rng = random.Random(51)
    c1 = ai1_cocycle()
    for _ in range(5):
        t = random_automorphism("Heisenberg", rng)
        g = random_automorphism("Heisenberg", rng)  # any invertible works
        c2 = equivalent_cocycle(c1, g, t)
        assert verify_cocycle_equiv(c1, c2, g, t)


def test_commutator_of_phi_matches_lie():
    c = ai1_cocycle()
    assert commutator_lie(phi(c)) == H


def find_rep_intertwiner(rep1, rep2):
    """An invertible g with f2 = g f1 g^{-1} (row matrices: F1_i G = G F2_i),
    found from the linear intertwiner space; None when the representations
    are not isomorphic or no invertible intertwiner shows up in small
    combinations of the solution basis."""
    n = rep1.g.dim
    rows = []
    for a, b in zip(rep1.mats, rep2.mats):
        for r in range(n):
            for s in range(n):
                row = [ZERO] * (n * n)
                for j in range(n):
                    row[j * n + s] = row[j * n + s] + a.rows[r][j]
                    row[r * n + j] = row[r * n + j] - b.rows[j][s]
                rows.append(row)
    basis = Mat(rows).nullspace()
    cands = list(basis)
    for x, y in combinations(range(len(basis)), 2):
        cands.append([p + q for p, q in zip(basis[x], basis[y])])
        cands.append([p - q for p, q in zip(basis[x], basis[y])])
    for v in cands:
        g = Mat([v[k * n:(k + 1) * n] for k in range(n)])
        if not is_zero(g.det()):
            return g
    return None


def test_rep_intertwiner_d_minus_one_case_merging():
    """At l = -1 the four pairs of representation cases merge under the
    exchange automorphism: each pair becomes isomorphic after precomposing
    with e1 <-> e2, e3 -> -e3."""
    dm1 = canonical_lie("Dl", -1)
    swap = Mat([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    j21 = Mat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    j32 = Mat([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    j21_32 = Mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    s, r = QI(3), QI(5)
    z = Mat.zero(3)
    pairs = [
        ([z, j21, Mat([[s - 1, 0, 0], [0, s, 0], [0, 0, r]])],
         [j21, z, Mat([[1 - s, 0, 0], [0, QI(0) - s, 0], [0, 0, QI(0) - r]])]),
        ([z, j21, Mat([[r, 0, 0], [0, r + 1, 0], [1, 0, r]])],
         [j21, z, Mat([[QI(0) - r, 0, 0], [0, QI(0) - r - 1, 0], [1, 0, QI(0) - r]])]),
        ([z, j32, Mat([[r, 0, 0], [0, r - 1, 0], [1, 0, r]])],
         [j32, z, Mat([[QI(0) - r, 0, 0], [0, 1 - r, 0], [1, 0, QI(0) - r]])]),
        ([z, j21_32, Mat([[s - 2, 0, 0], [0, s - 1, 0], [0, 0, s]])],
         [j21_32, z, Mat([[2 - s, 0, 0], [0, 1 - s, 0], [0, 0, QI(0) - s]])]),
    ]
    for mats_a, mats_b in pairs:
        ra = Representation(dm1, mats_a)
        rb = Representation(dm1, mats_b)
        assert check_representation(ra)[0] and check_representation(rb)[0]
        twisted = precompose_rep(ra, swap)
        g = find_rep_intertwiner(twisted, rb)
        assert g is not None
        ginv = g.inverse()
        assert all(ginv * ft * g == fb
                   for ft, fb in zip(twisted.mats, rb.mats))
