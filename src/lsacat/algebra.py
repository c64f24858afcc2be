"""Structure-constant algebras and the left-symmetry machinery.

An Algebra stores the full multiplication table c[i][j] = coordinates of
e_i e_j, which is exactly the characteristic-matrix reading: entry (i, j)
of the printed table is the product (left factor e_i) * (right factor e_j).
Vectors are plain coordinate lists in the algebra's basis.  The triple
products (e_i e_j) e_k, e_i (e_j e_k), their difference and the basis
operators are read off the nonzero constants of c, with no basis products.

A LieAlgebra is the same table with a Lie bracket c[i][j] = [e_i, e_j]:
its constructor checks antisymmetry and the Jacobi identity, so every
LieAlgebra is a Lie algebra.  multiply, rebase and left_matrix (ad) apply
to it unchanged.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DimensionMismatch, NotLieAlgebra
from .linalg import (Mat, basis_vec, combination, vec_eq, vec_is_zero,
                     vec_sub, vec_zero)
from .scalars import (QI, Frozen, as_scalar, format_sum, is_zero,
                      nonzero_sums, remember)


class Algebra(Frozen):
    """Finite-dimensional bilinear product given by structure constants."""

    __slots__ = ("dim", "c", "_left_symmetry")
    _ARGS = ("c",)

    def __init__(self, table):
        dim = len(table)
        if not 1 <= dim <= 3:
            raise DimensionMismatch("supported dimensions are 1..3")
        c = []
        for row in table:
            if len(row) != dim:
                raise DimensionMismatch("table is not dim x dim")
            crow = []
            for cell in row:
                if len(cell) != dim:
                    raise DimensionMismatch("product vector has wrong length")
                crow.append(tuple(as_scalar(x) for x in cell))
            c.append(tuple(crow))
        object.__setattr__(self, "c", tuple(c))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_left_symmetry", None)

    @classmethod
    def _of(cls, c):
        """An instance of cls with the table c, whose cells are already
        scalar sequences of the right shape."""
        a = object.__new__(cls)
        object.__setattr__(a, "c", tuple(tuple(map(tuple, row)) for row in c))
        object.__setattr__(a, "dim", len(c))
        object.__setattr__(a, "_left_symmetry", None)
        return a

    @classmethod
    def from_products(cls, dim, products):
        """Build from a sparse {(i, j): [(coeff, k), ...]} map, 0-indexed."""
        table = [[vec_zero(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), terms in products.items():
            v = vec_zero(dim)
            for coeff, k in terms:
                v[k] = v[k] + as_scalar(coeff)
            table[i][j] = v
        return cls(table)

    def known_left_symmetric(self):
        "Whether check_left_symmetric has found the table left-symmetric."
        return self._left_symmetry is not None and self._left_symmetry[0]

    def is_zero_product(self):
        return all(vec_is_zero(self.c[i][j])
                   for i in range(self.dim) for j in range(self.dim))

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.c == other.c

    def table_str(self):
        "Characteristic-matrix rendering, one row per left factor."
        def cell(v):
            return format_sum([(x, "e%d" % (k + 1)) for k, x in enumerate(v)
                               if not is_zero(x)])

        rows = [[cell(self.c[i][j]) for j in range(self.dim)]
                for i in range(self.dim)]
        w = max(len(x) for r in rows for x in r)
        return "\n".join("  ".join(x.rjust(w) for x in r) for r in rows)

    def __repr__(self):
        return "%s(dim=%d)\n%s" % (type(self).__name__, self.dim,
                                   self.table_str())


class LieAlgebra(Algebra):
    """An Algebra whose product is the bracket: c[i][j] = coords of
    [e_i, e_j].  Antisymmetry and Jacobi on every basis triple are checked
    once, here; a table that breaks either is NotLieAlgebra, naming the
    basis vectors."""

    __slots__ = ()

    def __init__(self, table):
        super().__init__(table)
        n, c = self.dim, self.c
        for i in range(n):
            for j in range(i, n):
                if not vec_eq(c[i][j], [-x for x in c[j][i]]):
                    raise NotLieAlgebra("bracket table is not antisymmetric "
                                        "at (e%d,e%d)" % (i + 1, j + 1))
        _check_jacobi(c)

    @classmethod
    def from_brackets(cls, dim, brackets):
        """Build from {(i, j): [(coeff, k), ...]} with i < j, 0-indexed."""
        products = dict(brackets)
        for (i, j), terms in brackets.items():
            products[j, i] = [(-as_scalar(coeff), k) for coeff, k in terms]
        return cls.from_products(dim, products)


def multiply(a, x, y):
    "Bilinear extension of the table to arbitrary vectors."
    _conform(a, x)
    _conform(a, y)
    out = vec_zero(a.dim)
    for i, xi in enumerate(x):
        if is_zero(xi):
            continue
        for j, yj in enumerate(y):
            if is_zero(yj):
                continue
            f = xi * yj
            for k, v in enumerate(a.c[i][j]):
                if not is_zero(v):
                    out[k] = out[k] + f * v
    return out


def hom_defects(a, b, f):
    """F(e_i e_j) - F(e_i) F(e_j) for each basis pair (i, j) in turn, where
    row i of f is F(e_i); all are zero iff F is a homomorphism a -> b.
    Between two LieAlgebras only the pairs i < j are read: both brackets
    are antisymmetric, which gives the rest."""
    lie = isinstance(a, LieAlgebra) and isinstance(b, LieAlgebra)
    for i in range(a.dim):
        fi = f.row(i)
        for j in range(i + 1 if lie else 0, a.dim):
            yield vec_sub(f.apply_row(a.c[i][j]), multiply(b, fi, f.row(j)))


def _check_jacobi(c):
    """Raise NotLieAlgebra, naming the basis vectors, where c breaks Jacobi:
    [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is the row vector
    c_ij | c_jk | c_ki times the matrix of the rows c_pk, c_pi and c_pj."""
    for i, j, k in combinations(range(len(c)), 3):
        rows = Mat._of([r[d] for d in (k, i, j) for r in c])
        if not vec_is_zero(rows.apply_row(c[i][j] + c[j][k] + c[k][i])):
            raise NotLieAlgebra("bracket table breaks Jacobi at "
                                "(e%d,e%d,e%d)" % (i + 1, j + 1, k + 1))


_TRIPLES = {}


def triple_products(a):
    """(T, U, A): T[i, j, k, m] is coordinate m of (e_i e_j) e_k = sum_p
    c_ij^p c_pk^m, U[i, j, k, m] that of e_i (e_j e_k) = sum_p c_jk^p c_ip^m
    and A = T - U is the associator, each a dict of the nonzero coordinates
    only.  Each nonzero c_ij^p is paired with the nonzero constants of row
    p (the c_pk^m, for T) and of column p (the c_hp^m, for U[h, i, j, m]),
    so each product of two nonzero constants is formed once.  The triple of
    the table read last stays in _TRIPLES, shared and never changed, keyed
    by id(a) and held beside a itself, so no other table can take that id."""
    hit = _TRIPLES.get(id(a), (None,))
    if hit[0] is a:
        return hit[1]
    nz = [(i, j, p, x) for i, row in enumerate(a.c) for j, v in enumerate(row)
          for p, x in enumerate(v) if not is_zero(x)]
    rows = [[(k, m, y) for q, k, m, y in nz if q == p] for p in range(a.dim)]
    cols = [[(h, m, y) for h, q, m, y in nz if q == p] for p in range(a.dim)]
    t = nonzero_sums(((i, j, k, m), x * y)
                     for i, j, p, x in nz for k, m, y in rows[p])
    u = nonzero_sums(((h, i, j, m), x * y)
                     for i, j, p, x in nz for h, m, y in cols[p])
    s = dict(t)
    for key, v in u.items():
        w = s.pop(key, None)
        if w is None:
            s[key] = -v
        elif w != v:
            s[key] = w - v
    return remember(_TRIPLES, 1, id(a), (a, (t, u, s)))[1]


def check_left_symmetric(a):
    """Left-symmetry of the associator A of triple_products(a) on all basis
    triples.  Returns (True, None) or (False, (i, j, k, difference)) for the
    first i < j, then k, with A(i, j, k) != A(j, i, k), 0-based; difference
    is assoc(i,j,k) - assoc(j,i,k).  The first call stores the result on a
    (its only slot set after it is built), and later calls return it."""
    if a._left_symmetry is None:
        object.__setattr__(a, "_left_symmetry", _check_associator(a))
    return a._left_symmetry


def _check_associator(a):
    """check_left_symmetric's result.  The difference is summed by multiply
    from ZERO, so a coordinate is a QI unless a polynomial constant enters."""
    s = triple_products(a)[2]
    bad = [(min(i, j), max(i, j), k) for (i, j, k, m), v in s.items()
           if i != j and s.get((j, i, k, m)) != v]
    if not bad:
        return True, None
    i, j, k = min(bad)

    def assoc(x, y):
        return vec_sub(multiply(a, a.c[x][y], basis_vec(a.dim, k)),
                       multiply(a, basis_vec(a.dim, x), a.c[y][k]))
    return False, (i, j, k, vec_sub(assoc(i, j), assoc(j, i)))


def commutator_lie(a):
    """Sub-adjacent Lie algebra with bracket [x, y] = xy - yx.

    The bracket is antisymmetric by construction.  Jacobi, implied by
    left-symmetry, is checked only on a table not found left-symmetric
    before: one that is not Lie-admissible raises NotLieAlgebra."""
    g = LieAlgebra._of([[vec_sub(x, y) for x, y in zip(row, col)]
                        for row, col in zip(a.c, zip(*a.c))])
    if not a.known_left_symmetric():
        _check_jacobi(g.c)
    return g


def left_matrix(a, x):
    "Column-convention matrix of L_x: column j holds coords of x * e_j."
    _conform(a, x)
    return combination(x, multiplication_operators(a)[:a.dim])


def multiplication_operators(a):
    """L_{e_1}, ..., L_{e_n}, then R_{e_1}, ..., R_{e_n}, read off the
    table: entry (k, j) of L_{e_i} is c_ij^k and of R_{e_i} is c_ji^k."""
    n, c = a.dim, a.c
    return ([Mat._of([[c[i][j][k] for j in range(n)] for k in range(n)])
             for i in range(n)]
            + [Mat._of([[c[j][i][k] for j in range(n)] for k in range(n)])
               for i in range(n)])


def rebase(a, w):
    """Structure constants of the same product in the new basis whose
    vectors are the rows of w (expressed in the old basis); a itself when
    w is the identity."""
    if w.nrows != a.dim or w.ncols != a.dim:
        raise DimensionMismatch("basis-change matrix has wrong shape")
    if w.is_identity():
        return a
    winv, rows = w.inverse(), [list(r) for r in w.rows]
    return type(a)._of([[winv.apply_row(multiply(a, x, y)) for y in rows]
                        for x in rows])


def substitute_algebra(a, bindings):
    "The table at parameter values; a itself when no cell is parametric."
    if all(type(x) is QI for row in a.c for v in row for x in v):
        return a
    return Algebra._of([[[x if type(x) is QI else x.substitute(bindings)
                          for x in v] for v in row] for row in a.c])


def _conform(a, x):
    if len(x) != a.dim:
        raise DimensionMismatch("vector length %d != algebra dim %d"
                                % (len(x), a.dim))
