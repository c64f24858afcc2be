import random

import pytest

from lsacat import catalog, constructions
from lsacat.algebra import Algebra, check_left_symmetric, left_matrix
from lsacat.cocycle import Representation, left_regular, phi, psi
from lsacat.constructions import (check_cybe, check_derivation,
                                  check_o_operator, derivation_space,
                                  induced_product, lsa_from_rmatrix,
                                  novikov_from_derivation,
                                  o_operator_from_cocycle,
                                  transported_product)
from lsacat.errors import (CybeFails, LsaError, NotCommutativeAssociative,
                           NotDerivation, NotLeftSymmetric, NotLieAlgebra,
                           NotOOperator, SingularWitness)
from lsacat.lie import LieAlgebra, canonical_lie
from lsacat.linalg import Mat
from lsacat.props import is_novikov
from lsacat.scalars import QI

TRUNC = Algebra.from_products(3, {(0, 0): [(1, 1)], (0, 1): [(1, 2)],
                                  (1, 0): [(1, 2)]})
# D(e_k) = k e_k, a derivation of TRUNC, whose e_i e_j = e_{i+j}
GRADING = Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])


def test_derivation_construction_zero_map():
    base = Algebra.from_products(3, {(0, 0): [(1, 0)]})
    out = novikov_from_derivation(base, Mat.zero(3))
    assert out.is_zero_product()


def test_derivation_construction_grading():
    # D(e_k) = k e_k on the truncated polynomial table e_i e_j = e_{i+j}
    d = Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert check_derivation(TRUNC, d)
    out = novikov_from_derivation(TRUNC, d)
    # e_i * e_j = e_i . D(e_j) = j e_{i+j}
    expected = Algebra.from_products(3, {(0, 0): [(1, 1)], (0, 1): [(2, 2)],
                                         (1, 0): [(1, 2)]})
    assert out == expected
    assert is_novikov(out) and check_left_symmetric(out)[0]


def test_derivation_error_paths():
    with pytest.raises(NotDerivation):
        novikov_from_derivation(TRUNC, Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    noncomm = catalog.instantiate("H-1")
    with pytest.raises(NotCommutativeAssociative):
        novikov_from_derivation(noncomm, Mat.zero(3))


@pytest.mark.parametrize("name, value, build, error, message", [
    ("check_left_symmetric", (False, ("cert",)),
     lambda: novikov_from_derivation(TRUNC, GRADING),
     NotLeftSymmetric,
     "derivation construction broke left-symmetry: ('cert',)"),
    ("is_novikov", False,
     lambda: novikov_from_derivation(TRUNC, GRADING),
     LsaError, "derivation construction is not Novikov"),
    ("check_left_symmetric", (False, ("cert",)),
     lambda: lsa_from_rmatrix(canonical_lie("Heisenberg"),
                              Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])),
     NotLeftSymmetric, "V-product is not left-symmetric: ('cert',)"),
])
def test_construction_self_checks_fire(monkeypatch, name, value, build,
                                       error, message):
    """Each construction checks its own output: with the check made to
    fail, it raises that error, not a wrong table."""
    monkeypatch.setattr(constructions, name, lambda *args: value)
    with pytest.raises(LsaError) as info:
        build()
    assert info.type is error and str(info.value) == message


def test_derivation_space_members_satisfy_leibniz():
    rng = random.Random(71)
    basis = derivation_space(TRUNC)
    assert basis
    for _ in range(10):
        d = Mat.zero(3)
        for b in basis:
            d = d + QI(rng.randint(-3, 3)) * b
        assert check_derivation(TRUNC, d)


def test_cybe_zero_map():
    assert check_cybe(canonical_lie("Heisenberg"), Mat.zero(3))[0]


def test_cybe_heisenberg_projection():
    h = canonical_lie("Heisenberg")
    p = Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    ok, _ = check_cybe(h, p)
    assert ok
    alg = lsa_from_rmatrix(h, p)
    assert check_left_symmetric(alg)[0]
    # e1 * e2 = [R e1, e2] = e3 is the only product
    assert alg == Algebra.from_products(3, {(0, 1): [(1, 2)]})


def test_cybe_failure_certificate():
    n = canonical_lie("N")
    bad = Mat([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    ok, cert = check_cybe(n, bad)
    assert not ok and cert is not None
    with pytest.raises(CybeFails):
        lsa_from_rmatrix(n, bad)


def test_bracket_that_fails_jacobi_never_reaches_cybe():
    """No LieAlgebra holds a bracket that breaks Jacobi, so ad of every
    table lsa_from_rmatrix meets is a representation."""
    with pytest.raises(NotLieAlgebra,
                       match=r"^bracket table breaks Jacobi at \(e1,e2,e3\)$"):
        LieAlgebra.from_brackets(
            3, {(0, 1): [(1, 0)], (1, 2): [(1, 1)], (0, 2): [(1, 2)]})


def test_o_operator_needs_a_representation():
    "A rho that is no representation fails before the O-operator identity."
    n = canonical_lie("N")      # [e3,e2] = e2, but rho([e3,e2]) != 0
    rho = Representation(n, [Mat.zero(3), Mat.identity(3), Mat.zero(3)])
    ok, cert = check_o_operator(n, rho, Mat.identity(3))
    assert not ok and cert[0] == "representation"
    with pytest.raises(NotOOperator, match="representation"):
        induced_product(n, rho, Mat.identity(3))


def test_rmatrix_zero_gives_zero_algebra():
    out = lsa_from_rmatrix(canonical_lie("E"), Mat.zero(3))
    assert out.is_zero_product()


def test_o_operator_zero():
    h = canonical_lie("Heisenberg")
    rep = Representation(h, [Mat.zero(3)] * 3)
    assert check_o_operator(h, rep, Mat.zero(3))[0]


def test_o_operator_from_cocycles(first_samples):
    for entry, bindings, alg in first_samples[:12]:
        c = psi(alg)
        t = o_operator_from_cocycle(c)
        assert check_o_operator(c.rep.g, c.rep, t)[0]


def test_o_operator_perturbed_fails():
    alg = catalog.instantiate("H-1")
    c = psi(alg)
    t = o_operator_from_cocycle(c)
    bad = t + Mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    okA = check_o_operator(c.rep.g, c.rep, bad)[0]
    bad2 = t + Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    okB = check_o_operator(c.rep.g, c.rep, bad2)[0]
    assert not (okA and okB)


def test_transported_product_matches_phi(first_samples):
    for entry, bindings, alg in first_samples[:12]:
        c = psi(alg)
        t = o_operator_from_cocycle(c)
        assert transported_product(c.rep.g, c.rep, t) == phi(c)


def test_induced_product_rank2():
    # adjoint representation of N with the rank-2 CYBE solution diag(1,0,1)
    n = canonical_lie("N")
    rho = Representation(n, [left_matrix(n, [1, 0, 0]).transpose(),
                             left_matrix(n, [0, 1, 0]).transpose(),
                             left_matrix(n, [0, 0, 1]).transpose()])
    assert left_regular(n, n).mats == rho.mats
    t = Mat([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert check_cybe(n, t)[0]
    ok, cert = check_o_operator(n, rho, t)
    assert ok
    on_v = induced_product(n, rho, t)
    assert check_left_symmetric(on_v)[0]
    assert t.rank() == 2
    with pytest.raises(SingularWitness):
        transported_product(n, rho, t)


def test_induced_product_zero_map():
    h = canonical_lie("Heisenberg")
    rep = Representation(h, [Mat.zero(3)] * 3)
    assert induced_product(h, rep, Mat.zero(3)).is_zero_product()
    with pytest.raises(SingularWitness):
        transported_product(h, rep, Mat.zero(3))


def test_induced_product_rejects_non_o_operator():
    alg = catalog.instantiate("H-1")
    c = psi(alg)
    t = o_operator_from_cocycle(c)
    for pert in (Mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
                 Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])):
        bad = t + pert
        if not check_o_operator(c.rep.g, c.rep, bad)[0]:
            with pytest.raises(NotOOperator):
                induced_product(c.rep.g, c.rep, bad)
            return
    pytest.fail("no perturbation broke the O-operator identity")


def test_seeded_derivation_inputs_yield_novikov(commutative_bases):
    rng = random.Random(72)
    for base in commutative_bases(rng, 15):
        basis = derivation_space(base)
        d = Mat.zero(3)
        for b in basis:
            d = d + QI(rng.randint(-2, 2)) * b
        out = novikov_from_derivation(base, d)
        assert check_left_symmetric(out)[0] and is_novikov(out)
