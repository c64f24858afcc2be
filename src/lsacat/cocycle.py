"""Representations, 1-cocycles, and the bijection with left-symmetric
structures.

Matrix-action convention (fixed by forcing phi to rebuild the printed
characteristic matrices): row r of a representation matrix F_i holds the
image of v_r, so coordinate row vectors act by x -> x * F_i, and the
commutator of the operators f(e_i), f(e_j) has row matrix
F_j * F_i - F_i * F_j.  Likewise row i of the cocycle matrix C holds the
coordinates of q(e_i).
"""

from __future__ import annotations

from .algebra import Algebra, check_left_symmetric, commutator_lie
from .errors import (DimensionMismatch, NotAutomorphism, NotBijective,
                     NotCocycle, NotLeftSymmetric, SingularWitness)
from .lie import check_lie_automorphism
from .linalg import Mat, combination, vec_eq, vec_sub
from .scalars import Frozen


class Representation(Frozen):
    """A Lie algebra action on a same-dimensional space V."""

    __slots__ = ("g", "mats")
    _ARGS = __slots__

    def __init__(self, g, mats):
        if len(mats) != g.dim:
            raise DimensionMismatch("need one matrix per basis element")
        for m in mats:
            if not (m.is_square() and m.nrows == g.dim):
                raise DimensionMismatch("representation matrices must be dim x dim")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "mats", tuple(mats))

    def act(self, x):
        "Row matrix of f(x) for a coordinate vector x on g."
        return combination(x, self.mats)


def left_regular(g, a):
    """The representation of g on the space of a whose F_i has row j equal
    to e_i e_j in a's table: the left multiplications of a left-symmetric
    a over g = commutator_lie(a), and the adjoint representation when a is
    g itself."""
    return Representation(g, [Mat(a.c[i]) for i in range(a.dim)])


def check_representation(rep):
    """f([e_i,e_j]) = f(e_i) f(e_j) - f(e_j) f(e_i) as operators, which in
    the row convention reads F_j F_i - F_i F_j.  Returns (ok, certificate)."""
    g, mats = rep.g, rep.mats
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = rep.act(g.c[i][j])
            rhs = mats[j] * mats[i] - mats[i] * mats[j]
            if lhs != rhs:
                return False, (i, j, lhs - rhs)
    return True, None


class Cocycle(Frozen):
    """A pair (representation, C) with C[i][j] = A_j(e_i)."""

    __slots__ = ("rep", "C")
    _ARGS = __slots__

    def __init__(self, rep, c):
        if not (c.is_square() and c.nrows == rep.g.dim):
            raise DimensionMismatch("C must be dim x dim")
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "C", c)


def check_cocycle(c):
    """q[e_i,e_j] = f(e_i) q(e_j) - f(e_j) q(e_i) row-wise; (ok, cert)."""
    ok, cert = check_representation(c.rep)
    if not ok:
        return False, ("representation", cert)
    g, mats, cm = c.rep.g, c.rep.mats, c.C
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = cm.apply_row(g.c[i][j])
            rhs = vec_sub(mats[i].apply_row(cm.row(j)),
                          mats[j].apply_row(cm.row(i)))
            if not vec_eq(lhs, rhs):
                return False, (i, j, vec_sub(lhs, rhs))
    return True, None


def phi(c):
    """Left-symmetric product x*y = q^{-1}(f(x) q(y)) as an Algebra.

    This is the validator naming what is wrong with (f, C) data: it raises
    NotCocycle (whose cert is the check_cocycle certificate) or NotBijective.
    On a valid bijective cocycle the result is left-symmetric and its
    commutator Lie algebra equals c.rep.g table-for-table.
    """
    ok, cert = check_cocycle(c)
    if not ok:
        raise NotCocycle("cocycle conditions fail: %r" % (cert,), cert)
    cm = c.C
    try:
        cinv = cm.inverse()
    except SingularWitness:
        raise NotBijective("det C = 0") from None
    # row j of C F_i C^{-1} is e_i e_j; the result is left-symmetric with
    # sub-adjacent bracket c.rep.g, as the roundtrip test suites exercise
    return Algebra([(cm * fi * cinv).rows for fi in c.rep.mats])


def psi(a):
    """The bijective 1-cocycle (L, id) of a left-symmetric algebra; the
    representation matrices are the left multiplications in the row
    convention (row j of F_i is e_i * e_j)."""
    ok, cert = check_left_symmetric(a)
    if not ok:
        raise NotLeftSymmetric("not left-symmetric at %r" % (cert,))
    return Cocycle(left_regular(commutator_lie(a), a), Mat.identity(a.dim))


def verify_cocycle_iso(c1, c2, g):
    """Isomorphism of cocycles via the linear map g: V1 -> V2 (row matrix):
    f_2 = g f_1 g^{-1} and q_2 = g q_1, the equivalence with T = identity."""
    return verify_cocycle_equiv(c1, c2, g, Mat.identity(c1.rep.g.dim))


def verify_cocycle_equiv(c1, c2, g, t):
    """Equivalence of cocycles: f_2 = g (f_1 T) g^{-1} and q_2 = g q_1 T
    for an automorphism T of the underlying Lie algebra."""
    if c1.rep.g != c2.rep.g:
        return False
    try:
        c = equivalent_cocycle(c1, g, t)
    except SingularWitness:
        raise SingularWitness(
            "cocycle equivalence witness g is singular") from None
    return c.rep.mats == c2.rep.mats and c.C == c2.C


def precompose_rep(rep, t):
    "The representation x -> f(T x) for an automorphism T (row matrix)."
    return Representation(rep.g, [rep.act(t.row(i)) for i in range(t.nrows)])


def equivalent_cocycle(c1, g, t):
    """Construct the cocycle (g f_1 T g^{-1}, g q_1 T) equivalent to c1;
    useful for randomized roundtrip tests."""
    ginv = g.inverse()
    lie = c1.rep.g
    if not check_lie_automorphism(lie, t):
        raise NotAutomorphism("T does not preserve the bracket")
    f1_t = precompose_rep(c1.rep, t)
    rep = Representation(lie, [ginv * m * g for m in f1_t.mats])
    return Cocycle(rep, t * c1.C * g)
