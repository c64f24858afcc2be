"""Constructions of left-symmetric algebras from other structures:
derivations of commutative associative algebras, classical r-matrices,
and O-operators on representations.

A linear map on the underlying space is given in the row convention
(row i = image of e_i) except where an operator is explicitly said to be
a column matrix; r-matrices R and O-operator maps T are row-convention
here, matching the witness matrices elsewhere in the package.
"""

from __future__ import annotations

from .algebra import Algebra, check_left_symmetric, multiply, rebase
from .cocycle import check_representation, left_regular
from .errors import (CybeFails, LsaError, NotCommutativeAssociative,
                     NotDerivation, NotLeftSymmetric, NotOOperator)
from .linalg import Mat, basis_vec, vec_eq, vec_sub
from .props import is_associative, is_commutative, is_novikov


def check_derivation(base, d):
    "Leibniz rule D(xy) = D(x)y + x D(y) on basis pairs (row matrix d)."
    n = base.dim
    for i in range(n):
        for j in range(n):
            lhs = d.apply_row(base.c[i][j])
            rhs = [x + y for x, y in zip(
                multiply(base, d.row(i), basis_vec(n, j)),
                multiply(base, basis_vec(n, i), d.row(j)))]
            if not vec_eq(lhs, rhs):
                return False
    return True


def novikov_from_derivation(base, d):
    """x*y = x . D(y) on a commutative associative algebra; the result is a
    Novikov (in particular left-symmetric) algebra."""
    if not (is_commutative(base) and is_associative(base)):
        raise NotCommutativeAssociative("base must be commutative associative")
    if not check_derivation(base, d):
        raise NotDerivation("D violates the Leibniz rule")
    n = base.dim
    table = [[multiply(base, basis_vec(n, i), d.row(j)) for j in range(n)]
             for i in range(n)]
    out = Algebra(table)
    ok, cert = check_left_symmetric(out)
    if not ok:
        raise NotLeftSymmetric(
            "derivation construction broke left-symmetry: %r" % (cert,))
    if not is_novikov(out):
        raise LsaError("derivation construction is not Novikov")
    return out


def derivation_space(base):
    """Row-convention basis matrices of the derivation Lie algebra of a
    bilinear product, from the linear Leibniz constraints."""
    from .scalars import ZERO

    n = base.dim
    # unknowns d[r][s]; Leibniz at pair (i,j), coordinate k:
    # sum_m c[i][j][m] d[m][k] - sum_s d[i][s] c[s][j][k]
    #                          - sum_s d[j][s] c[i][s][k] = 0
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [ZERO] * (n * n)
                for m in range(n):
                    row[m * n + k] = row[m * n + k] + base.c[i][j][m]
                for s in range(n):
                    row[i * n + s] = row[i * n + s] - base.c[s][j][k]
                    row[j * n + s] = row[j * n + s] - base.c[i][s][k]
                rows.append(row)
    basis = Mat(rows).nullspace()
    return [Mat([v[r * n:(r + 1) * n] for r in range(n)]) for v in basis]


def check_cybe(g, r):
    """Operator form of the classical Yang-Baxter equation,
    [R(x),R(y)] = R([R(x),y] + [x,R(y)]) on basis pairs; (ok, cert).  This
    is the O-operator identity of the adjoint representation."""
    return check_o_operator(g, left_regular(g, g), r)


def lsa_from_rmatrix(g, r):
    "x*y = [R(x), y]; left-symmetric whenever R solves the CYBE."
    ok, cert = check_cybe(g, r)
    if not ok:
        raise CybeFails("CYBE fails at basis pair %r" % (cert[:2],))
    return induced_product(g, left_regular(g, g), r)


def check_o_operator(g, rho, t):
    """[T(u),T(v)] = T(rho(T(u))v - rho(T(v))u) on basis pairs of V, for a
    representation rho of g on V and a linear map T: V -> g (row matrix)."""
    ok, cert = check_representation(rho)
    if not ok:
        return False, ("representation", cert)
    n = g.dim
    for r in range(n):
        for s in range(r + 1, n):
            tu, tv = t.row(r), t.row(s)
            lhs = multiply(g, tu, tv)
            # rho(T(u)) v - rho(T(v)) u, read off rows of the row matrices
            inner = vec_sub(rho.act(tu).row(s), rho.act(tv).row(r))
            rhs = t.apply_row(inner)
            if not vec_eq(lhs, rhs):
                return False, (r, s, vec_sub(lhs, rhs))
    return True, None


def induced_product(g, rho, t):
    """The left-symmetric product u*v = rho(T(u))v on V of an O-operator T
    of the representation rho of g."""
    ok, cert = check_o_operator(g, rho, t)
    if not ok:
        raise NotOOperator("O-operator identity fails: %r" % (cert,))
    on_v = Algebra([rho.act(t.row(r)).rows for r in range(g.dim)])
    ok, cert = check_left_symmetric(on_v)
    if not ok:
        raise NotLeftSymmetric("V-product is not left-symmetric: %r" % (cert,))
    return on_v


def transported_product(g, rho, t):
    """For invertible T, the V-product pushed onto g along T; this must
    coincide with phi of the cocycle (rho, C = T^{-1}).  SingularWitness
    if T is not invertible."""
    return rebase(induced_product(g, rho, t), t.inverse())


def o_operator_from_cocycle(c):
    "T = q^{-1} as a row matrix, an O-operator for the same representation."
    return c.C.inverse()
