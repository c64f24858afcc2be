"""Small exact matrices and vectors over the scalar domains.

Vectors are plain lists of scalars.  Unless an operation says otherwise,
matrices follow the row convention used throughout the package: M[i][j] is
the coefficient of basis vector j in the image of basis vector i, and a row
vector x maps to x * M.  Every product with a matrix goes row by row through
one sparse kernel, _row_times; format_matrix is the one matrix printer.

The determinant, the inverse and the characteristic polynomial come from
cofactor expansion (_det); rank counts the pivots of forward elimination,
and nullspaces and span bases come from one elimination, rref.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DimensionMismatch, SingularWitness
from .scalars import QI, ZERO, ONE, Frozen, as_scalar, format_scalar, is_zero


class Mat(Frozen):
    """Immutable dense matrix with exact scalar entries."""

    __slots__ = ("rows", "nrows", "ncols")
    _ARGS = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if not rs or not rs[0]:
            raise DimensionMismatch("empty matrix")
        w = len(rs[0])
        if any(len(r) != w for r in rs):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "nrows", len(rs))
        object.__setattr__(self, "ncols", w)

    @staticmethod
    def _of(rows):
        "A Mat of rows that are already equal-length sequences of scalars."
        m = object.__new__(Mat)
        object.__setattr__(m, "rows", tuple(map(tuple, rows)))
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", len(rows[0]))
        return m

    @staticmethod
    def identity(n):
        return Mat([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def is_identity(self):
        return self == Mat.identity(self.nrows)

    @staticmethod
    def zero(n):
        return Mat([[ZERO] * n for _ in range(n)])

    def substitute(self, bindings):
        "The matrix at parameter values; itself when no cell is parametric."
        if all(type(x) is QI for r in self.rows for x in r):
            return self
        return Mat._of([[x if type(x) is QI else x.substitute(bindings)
                         for x in r] for r in self.rows])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return list(self.rows[i])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows      # shapes differ: tuples differ

    def __add__(self, other):
        self._same_shape(other)
        return Mat._of([[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._same_shape(other)
        return Mat._of([[a - b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat._of([[-a for a in r] for r in self.rows])

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise DimensionMismatch("inner dimensions differ")
            return Mat._of([_row_times(r, other.rows) for r in self.rows])
        s = as_scalar(other)
        return Mat._of([[a * s for a in r] for r in self.rows])

    def __rmul__(self, other):
        s = as_scalar(other)
        return Mat._of([[s * a for a in r] for r in self.rows])

    def plus_scalar(self, c):
        "self + c I, adding c on the diagonal only."
        return Mat._of([[x + c if i == j else x for j, x in enumerate(r)]
                        for i, r in enumerate(self.rows)])

    def transpose(self):
        return Mat._of(list(zip(*self.rows)))

    def is_zero(self):
        return all(is_zero(a) for r in self.rows for a in r)

    def is_square(self):
        return self.nrows == self.ncols

    def apply_row(self, x):
        "Row vector x (length nrows) times this matrix."
        if len(x) != self.nrows:
            raise DimensionMismatch("vector length mismatch")
        return _row_times(x, self.rows)

    def apply_col(self, x):
        "This matrix times column vector x (length ncols)."
        if len(x) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        return _row_times(x, list(zip(*self.rows)))

    def det(self):
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        return _det(self.rows)

    def inverse(self):
        """Exact inverse as the adjugate over the determinant; SingularWitness
        if there is none."""
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        d = _det(self.rows)
        if is_zero(d):
            raise SingularWitness("matrix is singular")
        inv = ONE / d
        n = self.nrows
        if n == 1:
            return Mat._of([[inv]])
        return Mat._of([[_cofactor(self.rows, j, i) * inv for j in range(n)]
                        for i in range(n)])

    def rref(self):
        "Reduced row echelon form; returns (Mat, pivot column list)."
        a = [list(r) for r in self.rows]
        n, m = self.nrows, self.ncols
        pivots = []
        r = 0
        for col in range(m):
            piv = None
            for k in range(r, n):
                if not is_zero(a[k][col]):
                    piv = k
                    break
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = 1 / a[r][col]
            a[r] = [x * inv for x in a[r]]
            for k in range(n):
                if k == r or is_zero(a[k][col]):
                    continue
                f = a[k][col]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
            pivots.append(col)
            r += 1
            if r == n:
                break
        return Mat._of(a), pivots

    def rank(self):
        """The pivots of forward elimination: no row is scaled, nothing
        above a pivot is cleared, and each column is dropped once used."""
        rows, rank = list(self.rows), 0
        while rows and rows[0]:
            piv = next((r for r in rows if not is_zero(r[0])), None)
            if piv is not None:
                rows.remove(piv)
                rank += 1
            rows = [r[1:] if piv is None or is_zero(r[0]) else
                    _axpy(-r[0] / piv[0], piv[1:], r[1:]) for r in rows]
        return rank

    def nullspace(self):
        "Basis (as coordinate lists) of the right-nullspace {x : M x = 0}."
        red, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for f in free:
            v = [ZERO] * self.ncols
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = -red.rows[r][f]
            basis.append(v)
        return basis

    def charpoly(self):
        """Coefficients (low to high) of det(t I - M): the coefficient of
        t^(n-k) is (-1)^k times the sum of the principal k-minors."""
        if not self.is_square():
            raise DimensionMismatch("characteristic polynomial needs square")
        n = self.nrows
        out = [ZERO] * n + [ONE]
        for k in range(1, n + 1):
            s = sum((_det([[self.rows[i][j] for j in idx] for i in idx])
                     for idx in combinations(range(n), k)), ZERO)
            out[n - k] = -s if k % 2 else s
        return tuple(out)

    def trace(self):
        if not self.is_square():
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((r[k] for k, r in enumerate(self.rows)), ZERO)

    def __repr__(self):
        return "Mat(%s)" % format_matrix(self)


def format_matrix(m):
    "[[...],[...]]: the rows of m in the shared scalar literal syntax."
    return "[[%s]]" % "],[".join(",".join(map(format_scalar, r))
                                 for r in m.rows)


def combination(coeffs, mats):
    """The sum of c * M over the pairs whose coefficient c is nonzero; the
    zero matrix of the mats' shape when there is none."""
    out = None
    for c, m in zip(coeffs, mats):
        if not is_zero(c):
            out = c * m if out is None else out + c * m
    if out is None:
        return Mat._of([[ZERO] * mats[0].ncols] * mats[0].nrows)
    return out


def _row_times(x, rows):
    """The row vector x times the matrix with these rows, summed over the
    nonzero x_p and entries; ZERO where no term is."""
    out = [None] * len(rows[0])
    for xp, row in zip(x, rows):
        if not is_zero(xp):
            for k, y in enumerate(row):
                if not is_zero(y):
                    p = xp * y
                    out[k] = p if out[k] is None else out[k] + p
    return [ZERO if s is None else s for s in out]


def _axpy(f, xs, ys):
    "f xs + ys, reading only the nonzero xs."
    return [y if is_zero(x) else f * x + y for x, y in zip(xs, ys)]


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = None
    for j in range(n):
        a = rows[0][j]
        if is_zero(a):
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * _det(minor)
        if j % 2:
            term = -term
        out = term if out is None else out + term
    return ZERO if out is None else out


def _cofactor(rows, i, j):
    "(-1)^(i+j) times the minor of rows without row i and column j."
    m = _det([r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i])
    return -m if (i + j) % 2 else m


def vec_add(x, y):
    "x + y, adding only where both coordinates are nonzero."
    return [b if is_zero(a) else a if is_zero(b) else a + b
            for a, b in zip(x, y)]


def vec_sub(x, y):
    return [a - b for a, b in zip(x, y)]


def vec_scale(x, c):
    return [c * a for a in x]


def vec_is_zero(x):
    return all(is_zero(a) for a in x)


def vec_eq(x, y):
    return len(x) == len(y) and all(a == b for a, b in zip(x, y))


def vec_zero(n):
    return [ZERO] * n


def basis_vec(n, k):
    v = [ZERO] * n
    v[k] = ONE
    return v


def span_basis(vectors):
    "RREF basis rows for the span of the given vectors."
    if not vectors:
        return []
    red, pivots = Mat([list(v) for v in vectors]).rref()
    return [red.row(k) for k in range(len(pivots))]

