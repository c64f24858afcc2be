"""Subclass predicates, ideal enumeration, and isomorphism-invariant
fingerprints.

Ideal search strategy (dimension <= 3, scalars in Q(i), ideals over C): a
1-dimensional two-sided ideal is a common invariant line of all left and
right basis multiplications, hence an eigenline of any single one of them,
M.  We factor the characteristic polynomial of M over Q(i), once per
algebra.  A linear factor gives an eigenline, or an eigenplane in which
the invariant lines solve binary quadratics; the first nonzero one, split
by factor_unipoly, gives candidates checked against every operator, the
rest are read only for a family or an irreducible first one.  An
irreducible factor f of degree d >= 2 gives d conjugate eigenlines, all
invariant or all not; by Galois descent they span the Q(i)-rational
W = ker f(M), invariant iff every operator maps W into W and commutes
with M on W.  Conjugate lines are reported once, as the orbit
(basis of W, f), so no extension field is built.  2-dimensional ideals are
found dually via the transposed operators acting on covectors, with M^T,
whose characteristic polynomial is that of M: planes come from the same
factorization as lines.  The zero algebra, all of whose subspaces are
ideals, is refused there.  Semisimplicity is read off the same report: A is
a direct sum of simple ideals iff A.A = A and its minimal ideals span A.
Every ideal of such a sum is a sum of its simple components, so a nonzero
ideal J with J.J != J rules out both flags, and ideal_flags seeks no ideal
when A, the left annihilator N = {x : xA = 0} of a table already found
left-symmetric (an ideal with N.N = 0 there, so one rank tells if N != 0),
or the ideal the commutators generate is such a J.  The identity
flags, transitivity and the trace forms of the basis operators are read
off one table of the products (e_i e_j) e_k and e_i (e_j e_k) per algebra
(algebra.triple_products), and the annihilator and product-span
dimensions are ranks of n-row matrices of the constants.
"""

from __future__ import annotations

from itertools import combinations, product

from .algebra import (check_left_symmetric, commutator_lie,
                      multiplication_operators, multiply, triple_products)
from .errors import ZeroAlgebra
from .lie import classify3
from .linalg import Mat, basis_vec, span_basis, vec_add, vec_eq, vec_sub
from .scalars import ONE, ZERO, Record, factor_unipoly, is_zero


def is_associative(a, tu=None):
    "Associator zero on all basis triples: T = U, tu = triple_products(a)."
    t, u = tu or triple_products(a)
    return t == u


def is_commutative(a):
    return all(x == y for row, col in zip(a.c, zip(*a.c))
               for x, y in zip(row, col))


def is_novikov(a, tu=None):
    "All right multiplications commute pairwise: T symmetric in j, k."
    t, _ = tu or triple_products(a)
    return all(ti[j][k] == ti[k][j] for ti in t
               for j, k in combinations(range(a.dim), 2))


def is_bisymmetric(a, tu=None):
    "Associator also symmetric in its last two arguments: so is T - U."
    t, u = tu or triple_products(a)
    return all(vec_add(ti[j][k], ui[k][j]) == vec_add(ti[k][j], ui[j][k])
               for ti, ui in zip(t, u)
               for j, k in combinations(range(a.dim), 2))


def is_transitive(a, tu=None):
    """Every right multiplication nilpotent: tr(R_x^k) = 0 identically in x
    for k <= dim (characteristic 0).  Its x_i1...x_ik coefficient sums
    tr(R_e_ik ... R_e_i1) over the k-tuples with one sorted form; column p
    of R_b R_a is T[p][a][b], so tr R_a = sum_p c_pa^p, tr(R_b R_a) =
    sum_p T[p][a][b]_p and tr(R_c R_b R_a) = sum_p,m T[p][a][b]_m c_mc^p."""
    t, _ = tu or triple_products(a)
    c, rng = a.c, range(a.dim)
    traces = (lambda x: _sum(c[p][x][p] for p in rng),
              lambda x, y: _sum(t[p][x][y][p] for p in rng),
              lambda x, y, z: _sum(v * c[m][z][p] for p in rng
                                   for m, v in enumerate(t[p][x][y])
                                   if not is_zero(v)))
    for k in rng:
        coeffs = {}
        for idx in product(rng, repeat=k + 1):
            key = tuple(sorted(idx))
            coeffs[key] = coeffs.get(key, ZERO) + traces[k](*idx)
        if not all(map(is_zero, coeffs.values())):
            return False
    return True


def identity_flags(a, tu):
    "The associative, transitive, Novikov and bisymmetric flags of a."
    return {
        "associative": is_associative(a, tu),
        "transitive": is_transitive(a, tu),
        "novikov": is_novikov(a, tu),
        "bisymmetric": is_bisymmetric(a, tu),
    }


def trace_forms(a, tu):
    """tr(L_a L_b), tr(R_a R_b) and tr(L_a R_b) as matrices over the basis,
    read off the triple products (T, U): column p of L_a L_b is U[a][b][p],
    of R_a R_b is T[p][b][a] and of L_a R_b is U[a][p][b]."""
    t, u = tu
    rng = range(a.dim)
    return [Mat._of([[_sum(col(x, y, p)[p] for p in rng) for y in rng]
                     for x in rng])
            for col in (lambda x, y, p: u[x][y][p], lambda x, y, p: t[p][y][x],
                        lambda x, y, p: u[x][p][y])]


def _sum(xs):
    "The sum of the nonzero xs."
    return sum((x for x in xs if not is_zero(x)), ZERO)


# ---------------------------------------------------------------------------
# ideal enumeration


class IdealReport(Record):
    """Ideals found by find_ideals, every vector in Q(i).  An orbit
    (basis of W, f) stands for deg f conjugate ideals defined over the roots
    of the irreducible f: lines spanning W, or planes whose normals span the
    covector space W (in dimension 2, planes are lines).  The minimal ideals
    are the lines, those of the line orbits and the rational planes holding
    no ideal line; in dimension 3 conjugate planes P, P' meet in the ideal
    line P & P'.  A family stands for infinitely many ideals."""

    def __init__(self):
        self.lines = []             # coordinate vectors
        self.line_families = []     # (b1, b2) plane bases
        self.planes = []            # (normal, basis rows)
        self.plane_families = []    # common line vectors
        self.line_orbits = []       # (basis of W, f)
        self.plane_orbits = []      # (normals of W, f)

    def has_proper_ideal(self):
        return any(vars(self).values())


def _proportional(v, w):
    return all(is_zero(v[i] * w[j] - v[j] * w[i])
               for i, j in combinations(range(len(v)), 2))


def _line_invariant(ops, v):
    "op(v) is proportional to v for every op."
    return all(_proportional(v, op.apply_col(v)) for op in ops)


def _normalize_line(v):
    lead = next(x for x in v if not is_zero(x))
    return [y / lead for y in v]


def _orbit_invariant(ops, m, w):
    """The eigenlines of m in span(w), for distinct conjugate eigenvalues,
    are invariant iff every operator maps span(w) into itself and commutes
    with m there."""
    for op in ops:
        for v in w:
            u = op.apply_col(v)
            if (_outside(w, u)
                    or not vec_eq(op.apply_col(m.apply_col(v)),
                                  m.apply_col(u))):
                return False
    return True


def _outside(basis, v):
    "v lies outside the span of the independent basis rows."
    return Mat._of(basis + [v]).rank() > len(basis)


def _chosen_operator(ops):
    """A non-scalar basis operator (any one serves); in dimension >= 2 one
    exists unless all products vanish, as L_e_i = l_i I, R_e_j = r_j I give
    l_i e_j = r_j e_i for i != j, so all l_i, r_j are 0.  L_e3, R_e3 and
    L_e1 + R_e2 come first: on the catalog their charpolys split over Q(i)."""
    candidates = [ops[2], ops[5], ops[0] + ops[4]] if len(ops) >= 6 else []
    return next(m for m in candidates + ops
                if not m.plus_scalar(-m[0, 0]).is_zero())


def _invariant_lines(ops, chosen, factors):
    """All lines invariant under every operator (column convention, QI
    entries), found with Q(i)-rational linear algebra only and read off the
    eigenspaces of the non-scalar operator chosen among ops, whose
    characteristic polynomial has the monic irreducible factors given.

    Returns (lines, families, orbits); families are (b1, b2) bases of
    planes in which *every* line is invariant under every operator, and
    orbits are (basis of W, f) for the deg f conjugate invariant lines
    spanning W."""
    n = ops[0].nrows
    lines = []
    families = []
    orbits = []
    for f, _mult in factors:
        if len(f) > 2:
            # W = ker f(M) is the Q(i)-rational sum of the conjugate
            # eigenlines for the roots of the irreducible f
            fm = Mat.zero(n)
            for c in reversed(f):
                fm = (fm * chosen).plus_scalar(c)
            w = fm.nullspace()
            if _orbit_invariant(ops, chosen, w):
                orbits.append((w, f))
            continue
        # f = t - alpha, so ker(M - alpha I) = ker(M + f[0] I)
        eig = chosen.plus_scalar(f[0]).nullspace()
        if len(eig) == 1:
            v = _normalize_line(eig[0])
            if _line_invariant(ops, v):
                lines.append(v)
        else:
            ls, fams, orbs = _lines_in_plane(ops, eig[0], eig[1])
            lines.extend(ls)
            families.extend(fams)
            orbits.extend(orbs)
    return lines, families, orbits


def _plane_quadratics(ops, b1, b2):
    "Nonzero quadratics (aa, bb, cc) in (s : t) of op(v) ~ v, v = s b1 + t b2."
    n = len(b1)
    for op in ops:
        u1 = op.apply_col(b1)
        u2 = op.apply_col(b2)
        for k in range(n):
            for l in range(k + 1, n):
                aa = b1[k] * u1[l] - b1[l] * u1[k]
                bb = (b1[k] * u2[l] + b2[k] * u1[l]
                      - b1[l] * u2[k] - b2[l] * u1[k])
                cc = b2[k] * u2[l] - b2[l] * u2[k]
                if not (is_zero(aa) and is_zero(bb) and is_zero(cc)):
                    yield aa, bb, cc


def _lines_in_plane(ops, b1, b2):
    """Lines v = s b1 + t b2 with every op(v) proportional to v, from the
    first quadratic condition; the rest are read for a family, or when the
    first is irreducible, as its conjugate roots solve all iff each is a
    multiple of it.  Returns (lines, families, orbits) as _invariant_lines."""
    quads = _plane_quadratics(ops, b1, b2)
    first = next(quads, None)
    if first is None:
        return [], [(b1, b2)], []
    aa, bb, cc = first
    candidates = []
    if is_zero(aa):
        candidates.append(b1)  # (s : t) = (1 : 0)
        if not is_zero(bb):     # bb*s + cc*t = 0; else (1 : 0) again
            candidates.append(Mat._of([b1, b2]).apply_row([-cc, bb]))
    else:
        _, factors = factor_unipoly((cc, bb, aa))
        if len(factors[0][0]) == 3:
            if all(_proportional(q, first) for q in quads):
                return [], [], [([b1, b2], factors[0][0])]
            return [], [], []
        for f, _ in factors:  # f = s - r
            candidates.append(Mat._of([b1, b2]).apply_row([-f[0], ONE]))
    lines = [_normalize_line(v) for v in candidates]    # none is zero
    return [v for v in lines if _line_invariant(ops, v)], [], []


def find_ideals(a):
    """All proper nonzero two-sided ideals over C of an algebra over Q(i);
    infinite families are reported via flags with representative data
    instead of being enumerated, and ideals not defined over Q(i) as orbits
    of conjugates.  Raises ZeroAlgebra on the zero algebra."""
    if a.is_zero_product():
        raise ZeroAlgebra("the zero-multiplication algebra is excluded")
    report = IdealReport()
    if a.dim == 1:  # the one line is the whole algebra
        return report
    ops = multiplication_operators(a)
    chosen = _chosen_operator(ops)
    # M and its transpose share one characteristic polynomial, so one
    # factorization serves lines (ops) and planes (transposed ops)
    factors = factor_unipoly(chosen.charpoly())[1]
    report.lines, report.line_families, report.line_orbits = (
        _invariant_lines(ops, chosen, factors))
    covs, cofams, report.plane_orbits = _invariant_lines(
        [m.transpose() for m in ops], chosen.transpose(), factors)
    for phi_vec in covs:
        basis = Mat([phi_vec]).nullspace()
        report.planes.append((phi_vec, basis))
    for (p1, p2) in cofams:
        # every covector in span(p1,p2) kills an ideal plane; the planes are
        # exactly those containing the common line ker p1 ^ ker p2
        common = Mat([p1, p2]).nullspace()
        report.plane_families.append(common[0])
    return report


def is_simple(a, report=None):
    "No ideals except zero and the whole algebra (zero algebra excluded)."
    if report is None:
        report = find_ideals(a)
    return not report.has_proper_ideal()


def is_semisimple(a, report=None):
    """Direct sum of simple ideals; returns (bool, witness) where the
    witness lists the components: the basis of each simple ideal, or an
    orbit (basis of W, f) of deg f conjugate simple line ideals.  That
    holds iff A.A = A and the minimal ideals (see IdealReport) span A; the
    components are then the minimal ideals, and every ideal is a sum of
    them, so an algebra with a family of ideals is not semisimple."""
    if report is None:
        report = find_ideals(a)
    n = a.dim
    if not report.has_proper_ideal():
        return True, [[basis_vec(n, k) for k in range(n)]]
    if report.line_families or report.plane_families:
        return False, None
    # a rational plane P holds an ideal line iff it holds a vector of one
    # of them or of an orbit's W: then W & P is a nonzero rational ideal
    # inside W, which holds all of W's conjugate lines
    line_vecs = report.lines + [v for w, _f in report.line_orbits for v in w]
    planes = [bas for normal, bas in report.planes
              if not any(is_zero(Mat([normal]).apply_col(v)[0])
                         for v in line_vecs)]
    if len(span_basis(line_vecs + [v for bas in planes for v in bas])) < n:
        return False, None
    if _square_short(a):
        return False, None
    return True, report.line_orbits + [[v] for v in report.lines] + planes


def _square_short(a, basis=None):
    """J.J != J for the ideal J with the independent basis rows, A itself
    when None: the products of J span less than J (for A the constants
    c_ij^k, an n^2 x n matrix of rank < n)."""
    if basis is None:
        return Mat._of([v for r in a.c for v in r]).rank() < a.dim
    return Mat._of([multiply(a, x, y) for x in basis
                    for y in basis]).rank() < len(basis)


def ideal_flags(a):
    """The simple and semisimple flags of a.  Neither holds when a nonzero
    ideal J has J.J != J, and no ideal is sought then; find_ideals runs only
    if no candidate is such a J (a table already found left-symmetric has
    one candidate more, its left annihilator)."""
    if _certified_ideal(a):
        return {"simple": False, "semisimple": False}
    report = find_ideals(a)
    return {"simple": is_simple(a, report),
            "semisimple": is_semisimple(a, report)[0]}


def _certified_ideal(a):
    """Some nonzero ideal J has J.J != J.  The candidates, cheapest first:
    A (the zero algebra too); on a table already found left-symmetric
    (check_left_symmetric), the left annihilator N = {x : xA = 0}, with
    N.N = 0 and A.N in N, as (yx)z = (x,y,z) = 0 for x in N, so that N != 0
    suffices; the ideal the commutators generate, when proper, as A.A = A
    by then.  On any other table, N is left to find_ideals."""
    if _square_short(a):
        return True
    c, rng = a.c, range(a.dim)
    left = [[x for v in r for x in v] for r in c]   # x left lists the x e_j
    if a.known_left_symmetric() and Mat._of(left).rank() < a.dim:
        return True
    j = closure_span(a, [vec_sub(c[i][k], c[k][i])
                         for i, k in combinations(rng, 2)])
    return 0 < len(j) < a.dim and _square_short(a, j)


def _products(a, basis):
    "e_k b and b e_k for each basis row b and basis vector e_k of A."
    es = [basis_vec(a.dim, k) for k in range(a.dim)]
    return [p for b in basis for e in es
            for p in (multiply(a, e, b), multiply(a, b, e))]


def closure_span(a, vectors):
    """The smallest ideal holding the vectors, as RREF basis rows: each
    round spans the basis and all its products with A."""
    basis = span_basis(list(vectors))
    while 0 < len(basis) < a.dim:
        grown = span_basis(basis + _products(a, basis))
        if len(grown) == len(basis):
            break
        basis = grown
    return basis


# ---------------------------------------------------------------------------
# fingerprints


class Fingerprint(Record):
    def __init__(self, flags, dims, ranks, lie_class):
        self.flags = flags
        self.dims = dims
        self.ranks = ranks
        self.lie_class = lie_class

    def differing_field(self, other):
        "First component where the two fingerprints disagree, or None."
        for part in ("flags", "dims", "ranks"):
            mine, theirs = getattr(self, part), getattr(other, part)
            for name in sorted(mine):
                if mine[name] != theirs.get(name):
                    return "%s.%s" % (part, name)
        if self.lie_class != other.lie_class:
            return "lie_class"
        return None


def fingerprint(a, lie=None):
    """Isomorphism-invariant summary used to separate non-isomorphic tables.
    lie: the caller's classify3 result, read for left-symmetric dim-3 tables.
    Row i of left is c[i][0] | ... | c[i][n-1], so x.left lists the x e_j;
    row i of right is c[0][i] | ... | c[n-1][i], so x.right lists the e_j x;
    row k of span holds the c_ij^k."""
    n, c = a.dim, a.c
    rng = range(n)
    left = [[x for v in c[i] for x in v] for i in rng]
    right = [[x for r in c for x in r[i]] for i in rng]
    span = [[v[k] for r in c for v in r] for k in rng]
    both = [x + y for x, y in zip(left, right)]
    tu = triple_products(a)
    ls, _ = check_left_symmetric(a, tu)
    flags = dict(identity_flags(a, tu), left_symmetric=ls,
                 commutative=is_commutative(a))
    dims = {
        "product_span": Mat._of(span).rank(),
        "ann_left": n - Mat._of(left).rank(),
        "ann_right": n - Mat._of(right).rank(),
        "ann_two_sided": n - Mat._of(both).rank(),
    }
    ll, rr, lr = trace_forms(a, tu)
    ranks = {"tr_ll": ll.rank(), "tr_rr": rr.rank(), "tr_lr": lr.rank()}
    lie_class = ("n/a",)
    if ls and n == 3:
        lie_class = (lie or classify3(commutator_lie(a))).key()
    return Fingerprint(flags, dims, ranks, lie_class)
