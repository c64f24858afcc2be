"""The dimension-3 classifier, canonical tables and automorphism groups.

A Lie algebra is an algebra.LieAlgebra: an Algebra whose table c[i][j]
holds the bracket [e_i, e_j], so the bracket is algebra.multiply, ad_x is
algebra.left_matrix and a basis change is algebra.rebase.  Its
constructor checks antisymmetry and Jacobi, so classify3 never meets a
table that is not a Lie algebra.

The five solvable 3-dimensional families appearing in the catalog, with
their canonical bracket tables (only nonzero brackets shown), each named
by its classify3 tag:

    Abelian      --
    Heisenberg   [e1,e2] = e3
    N            [e3,e2] = e2
    Dl           [e3,e1] = e1, [e3,e2] = l e2   (l != 0)
    E            [e3,e1] = e1, [e3,e2] = e1+e2

plus Sl2, the only perfect one.  D(1) is the algebra the catalog calls
D1; the classifier reports it as Dl with parameter 1.  The catalog's D(l)
points have the canonical Dl table itself as their commutator, so
classify3 reads the class of that table off its l and finds no roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, hom_defects, multiplication_operators, multiply
from .errors import DimensionMismatch, InternalError, NotDimension3
from .linalg import Mat, basis_vec, span_basis, vec_is_zero, vec_scale
from .scalars import (ONE, QI, ZERO, factor_unipoly, is_zero, parse_scalar,
                      qi, remember)


def check_lie_automorphism(g, t):
    "True iff t is invertible and preserves all basis brackets."
    if not (t.is_square() and t.nrows == g.dim):
        raise DimensionMismatch("automorphism candidate has wrong shape")
    return _is_lie_iso(g, g, t)


def _is_lie_iso(src, dst, w):
    """True iff w is invertible and a homomorphism src -> dst, that is
    rebase(dst, w) == src."""
    return not is_zero(w.det()) and all(
        vec_is_zero(d) for d in hom_defects(src, dst, w))


# ---------------------------------------------------------------------------
# canonical families and their automorphism groups


# The canonical tables that do not depend on a parameter, built once.
_CANONICAL = {
    "Abelian": LieAlgebra.from_brackets(3, {}),
    "Heisenberg": LieAlgebra.from_brackets(3, {(0, 1): [(1, 2)]}),
    "N": LieAlgebra.from_brackets(3, {(2, 1): [(1, 1)]}),
    "E": LieAlgebra.from_brackets(
        3, {(2, 0): [(1, 0)], (2, 1): [(1, 0), (1, 1)]}),
    # [h,e]=2e, [h,f]=-2f, [e,f]=h with basis (h,e,f)
    "Sl2": LieAlgebra.from_brackets(
        3, {(0, 1): [(2, 1)], (0, 2): [(-2, 2)], (1, 2): [(1, 0)]}),
}


def canonical_lie(family, l=None):
    if family == "Dl":
        if l is None:
            raise ValueError("Dl needs the parameter l")
        # [e3,e1] = e1, [e3,e2] = l e2 is antisymmetric and satisfies
        # Jacobi for every l, so the table needs no check
        l, z = qi(l), (ZERO, ZERO, ZERO)
        return LieAlgebra._of(((z, z, (-ONE, ZERO, ZERO)),
                               (z, z, (ZERO, -l, ZERO)),
                               ((ONE, ZERO, ZERO), (ZERO, l, ZERO), z)))
    if family in _CANONICAL:
        return _CANONICAL[family]
    raise ValueError("unknown family %r" % (family,))


# Each component of the stored automorphism groups, as the rows of its
# matrix in the row convention; a cell is a scalar literal in the
# component's parameters.  Aut(D(1)) is the component D1 and Aut(D(-1))
# has a second component Dm1_swap, which exchanges e1 and e2 and negates e3.
_AUT = {
    "Heisenberg": (("a11", "a12", "a13"),
                   ("a21", "a22", "a23"),
                   ("0", "0", "a11*a22 - a12*a21")),
    "N": (("a11", "0", "0"), ("0", "a22", "0"), ("a31", "a32", "1")),
    "Dl": (("a11", "0", "0"), ("0", "a22", "0"), ("a31", "a32", "1")),
    "D1": (("a11", "a12", "0"), ("a21", "a22", "0"), ("a31", "a32", "1")),
    "Dm1_swap": (("0", "a12", "0"), ("a21", "0", "0"), ("a31", "a32", "-1")),
    "E": (("a11", "0", "0"), ("a21", "a11", "0"), ("a31", "a32", "1")),
}


def _template(rows):
    "(sorted parameter names, parametric matrix) of one _AUT component."
    m = Mat([[parse_scalar(x) for x in row] for row in rows])
    names = sorted({v for row in m.rows for x in row
                    if not isinstance(x, QI) for v in x.free_vars()})
    return tuple(names), m


_TEMPLATES = {comp: _template(rows) for comp, rows in _AUT.items()}


def aut_template(comp):
    """Sorted parameter names and parametric matrix of one automorphism-group
    component (see aut_components), in the row convention."""
    if comp not in _TEMPLATES:
        raise ValueError("no stored automorphism group for %r" % (comp,))
    return _TEMPLATES[comp]


def aut_components(family, l=None):
    """Template names for all components of the family's automorphism group,
    () when no group is stored for it."""
    if family == "Dl" and l is not None and qi(l) == QI(-1):
        return ("Dl", "Dm1_swap")
    if family == "Dl" and l is not None and qi(l) == ONE:
        return ("D1",)
    return (family,) if family in _AUT else ()


# ---------------------------------------------------------------------------
# the dimension-3 classifier


@dataclass(frozen=True)
class LieClass:
    tag: str                 # Abelian | Heisenberg | N | Dl | E | Sl2
    param: object = None     # canonical l for Dl, when it lies in Q(i)
    witness: object = None   # Mat whose rows express the canonical basis
    detail: str = ""

    def key(self):
        p = self.param
        return (self.tag, None if p is None else (qi(p).re, qi(p).im))


def canonical_l(l):
    """Pick the representative of {l, 1/l}: |l| <= 1, ties broken by
    nonnegative imaginary part (and then nonnegative real part)."""
    l = qi(l)
    if l.is_zero():
        return l
    inv = QI(1) / l
    n1, n2 = l.norm2(), inv.norm2()
    if n1 < n2:
        return l
    if n2 < n1:
        return inv
    # |l| = 1, so inv is the conjugate of l; prefer im >= 0
    if l.im >= 0:
        return l
    return inv


# classify3 results by bracket table, so that a table met again is not
# classified again; remember clears it when it is full.
_CLASSIFIED = {}
_CLASSIFIED_MAX = 256


def classify3(g):
    """Classify a 3-dimensional complex Lie algebra onto the catalog list.

    Decision procedure: d = dim [g,g]; d=0 abelian; d=1 Heisenberg when the
    derived algebra is central, else N; d=2 via the action of an outside
    element on the derived plane (diagonalizable -> Dl with canonical l,
    non-semisimple -> E); d=3 sl2, the only perfect 3-dimensional complex
    Lie algebra.  A witness basis change (rows = new basis) is attached
    whenever the eigen-data lies in Q(i), confirmed by its three brackets
    against the canonical table, with no table rebased.  The canonical
    table of D(l) itself skips the procedure: its class is D(l) or D(1/l),
    whichever l is canonical (_canonical_dl)."""
    if g.dim != 3:
        raise NotDimension3("classify3 needs dim 3, got %d" % g.dim)
    try:
        cls = _CLASSIFIED.get(g.c)
    except TypeError:       # a non-constant RatFunc entry has no hash
        return _classify(g)
    if cls is None:
        cls = remember(_CLASSIFIED, _CLASSIFIED_MAX, g.c,
                       _canonical_dl(g) or _classify(g))
    return cls


def _canonical_dl(g):
    """classify3 of g when g is the canonical table of D(l), l the e2
    coordinate of [e3,e2], read off the table with no root finding; None
    for any other table.  When l is canonical the equality is the witness
    check; otherwise e2, e1, e3/l rebase g onto D(1/l)."""
    l = g.c[2][1][1]
    if type(l) is not QI or l.is_zero() or g != canonical_lie("Dl", l):
        return None
    if canonical_l(l) == l:
        return LieClass("Dl", l, Mat.identity(3))
    inv = 1 / l
    return _witnessed(g, Mat([[0, 1, 0], [1, 0, 0], [0, 0, inv]]), "Dl", inv)


def _classify(g):
    "classify3 of a dimension-3 table, computed afresh."
    n = 3
    vecs = [g.c[i][j] for i in range(n) for j in range(i + 1, n)]
    derived = span_basis([v for v in vecs if not vec_is_zero(v)])
    d = len(derived)

    if d == 0:
        return LieClass("Abelian", witness=Mat.identity(3))

    if d == 1:
        z = derived[0]
        central = all(vec_is_zero(multiply(g, basis_vec(n, i), z))
                      for i in range(n))
        if central:
            return _classify_heisenberg(g, z)
        return _classify_n(g, z)

    if d == 2:
        return _classify_d2(g, derived)
    return LieClass("Sl2")


def _classify_heisenberg(g, z):
    "z spans the derived line, so some bracket [e_i, e_j], i < j, is nonzero."
    i, j = next((i, j) for i in range(3) for j in range(i + 1, 3)
                if not vec_is_zero(g.c[i][j]))
    e2 = vec_scale(basis_vec(3, j), 1 / _coeff_along(g.c[i][j], z))
    return _witnessed(g, Mat([basis_vec(3, i), e2, z]), "Heisenberg")


def _classify_n(g, z):
    """z spans the derived line and is not central.  [x, y] = B(x, y) z for
    an alternating form B, whose radical is the centre: a line, and it
    meets span(z, e3) only in 0 once [e3, z] = z."""
    for i in range(3):
        v = multiply(g, basis_vec(3, i), z)
        if not vec_is_zero(v):
            break
    e3 = vec_scale(basis_vec(3, i), 1 / _coeff_along(v, z))
    # the centre: x with [x, e_j] = 0 for all j
    c0 = Mat._of([r for m in multiplication_operators(g)[3:]
                  for r in m.rows]).nullspace()[0]
    return _witnessed(g, Mat([c0, z, e3]), "N")


def _classify_d2(g, derived):
    """g is solvable, so its derived plane is nilpotent, hence abelian, and
    ad w0 of an element outside it is invertible on it: g' = [w0, g']."""
    # derived holds reduced echelon rows: e_i lies in their span iff it is
    # one of them, and a vector in it has its coordinates at the pivots
    w0 = next(e for e in (basis_vec(3, i) for i in range(3))
              if e not in derived)
    piv = [next(k for k, x in enumerate(b) if not is_zero(x)) for b in derived]
    # action of ad(w0) on the derived plane, row convention
    a2 = Mat([[multiply(g, w0, b)[p] for p in piv] for b in derived])
    _, factors = factor_unipoly(a2.charpoly())
    if len(factors[0][0]) == 3:
        c0, c1, _ = factors[0][0]
        return LieClass(
            "Dl", detail="eigenvalue ratio outside Q(i); charpoly disc %s"
            % (c1 * c1 - QI(4) * c0))
    roots = [-f[0] for f, _ in factors]
    if len(roots) == 1:
        alpha = roots[0]
        nil = (a2 * (1 / alpha)).plus_scalar(-ONE)
        e3 = vec_scale(w0, 1 / alpha)
        if nil.is_zero():
            return _witnessed(g, Mat(derived + [e3]), "Dl", ONE)
        # Jordan block: E family
        for v in ([ONE, ZERO], [ZERO, ONE]):
            img = nil.apply_row(v)
            if not vec_is_zero(img):
                e2c, e1c = v, img
                break
        e1 = Mat(derived).apply_row(e1c)
        e2 = Mat(derived).apply_row(e2c)
        return _witnessed(g, Mat([e1, e2, e3]), "E")
    alpha, beta = roots
    l = canonical_l(beta / alpha)
    if l != beta / alpha:
        alpha, beta = beta, alpha
    # now l = beta/alpha is canonical; eigenvectors (row convention)
    v1 = _left_eigvec(a2, alpha)
    v2 = _left_eigvec(a2, beta)
    e1 = Mat(derived).apply_row(v1)
    e2 = Mat(derived).apply_row(v2)
    e3 = vec_scale(w0, 1 / alpha)
    return _witnessed(g, Mat([e1, e2, e3]), "Dl", l)


def _witnessed(g, w, tag, l=None):
    "LieClass(tag, l, w) once w is confirmed to rebase g onto the canonical table."
    if not _is_lie_iso(canonical_lie(tag, l), g, w):
        raise InternalError("classify3 built a wrong %s witness" % tag)
    return LieClass(tag, param=l, witness=w)


def _left_eigvec(m, ev):
    "A left eigenvector of m for ev, an exact root of its charpoly."
    return m.plus_scalar(-ev).transpose().nullspace()[0]


def _coeff_along(v, z):
    "Scalar c with v = c z for collinear vectors, z nonzero."
    k = next(k for k, b in enumerate(z) if not is_zero(b))
    return v[k] / z[k]
