"""Semisimplicity of Q(i)[t]/(g) + C^(3 - deg g), in a random Q(i) basis.

Over C, Q(i)[t]/(g) is the product of C[t]/((t - r)^m) over the roots r of
g with multiplicities m, so the algebra is semisimple iff g is squarefree.
g is a product of monic factors that are irreducible over Q(i) by
construction: t - r, t^2 - c with c not a square in Q(i), and t^3 - c with
c not a cube.  So g is squarefree iff no linear factor repeats, and the
expected verdict needs no extension arithmetic.  Non-linear factors make
the ideal search report conjugate orbits.

The second half checks the one factorization find_ideals shares between
lines and planes against separate passes and against factor_unipoly.  The
last tests check the ideals J with J.J != J that let ideal_flags skip the
search against naive products and sympy ranks over Q(i), among them the one
rank that tests the left annihilator of a table found left-symmetric."""

import copy
import random
from fractions import Fraction

import pytest

from lsacat import catalog, props, scalars
from lsacat.algebra import (Algebra, check_left_symmetric,
                            multiplication_operators, rebase)
from lsacat.constructions import derivation_space, novikov_from_derivation
from lsacat.errors import ZeroAlgebra
from lsacat.linalg import Mat
from lsacat.props import (_chosen_operator, _invariant_lines, _lines_in_plane,
                          find_ideals, ideal_flags, is_semisimple, is_simple)
from lsacat.scalars import QI, factor_unipoly
from oracles import ideal_closed

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_kernels_oracle import naive_product  # noqa: E402

# t^2 - c and t^3 - c have no root in Q(i), so they are irreducible there.
# A root of t^2 - c for c = 2, 3, 5, -2 would put sqrt(2), sqrt(3) or
# sqrt(5) in Q(i), whose real elements are rational; one of t^3 - c for
# c = 2, 3, 5 would have degree 3 over Q, and Q(i) has degree 2; the norm
# N(z^k) = N(z)^k rules out c = 1 + i (N = 2) and c = 2i (N = 4, k = 3).
NON_SQUARES = [QI(2), QI(3), QI(5), QI(-2), QI(1, 1)]
NON_CUBES = [QI(2), QI(3), QI(5), QI(1, 1), QI(0, 2)]
ROOTS = [QI(a, b) for a in (-1, 0, 1, 2) for b in (0, 1)]


def poly_mul(a, b):
    "Product of two coefficient tuples, low to high."
    out = [QI(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


@st.composite
def moduli(draw):
    "(coefficients of g, low to high, and whether g is squarefree)."
    shape = draw(st.sampled_from([(1,), (1, 1), (1, 1, 1), (2,), (2, 1),
                                  (3,)]))
    g, roots = (QI(1),), []
    for deg in shape:
        if deg == 1:
            roots.append(draw(st.sampled_from(ROOTS)))
            factor = (-roots[-1], QI(1))
        else:
            c = draw(st.sampled_from(NON_SQUARES if deg == 2 else NON_CUBES))
            factor = (-c,) + (QI(0),) * (deg - 1) + (QI(1),)
        g = poly_mul(g, factor)
    return g, len(set(roots)) == len(roots)


def quotient_plus_copies(g):
    "Q(i)[t]/(g) on 1, t, .., t^(k-1), then 3 - k idempotents."
    k = len(g) - 1
    table = [[[QI(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(k):
        for j in range(k):
            power = (QI(0),) * (i + j) + (QI(1),)
            rem = scalars._up_divmod(power, g)[1]
            table[i][j] = list(rem) + [QI(0)] * (3 - len(rem))
    for i in range(k, 3):
        table[i][i][i] = QI(1)
    return Algebra(table)


entries = st.builds(QI, st.integers(-2, 2), st.integers(-1, 1))


@settings(max_examples=120, deadline=None)
@given(moduli(), st.lists(entries, min_size=9, max_size=9))
def test_semisimple_iff_squarefree(modulus, cells):
    g, squarefree = modulus
    w = Mat([cells[0:3], cells[3:6], cells[6:9]])
    assume(not w.det().is_zero())
    alg = rebase(quotient_plus_copies(g), w)
    report = find_ideals(alg)
    for basis, f in report.line_orbits:
        assert len(f) - 1 == len(basis)
        assert ideal_closed(alg, basis)
    for normals, _f in report.plane_orbits:
        assert ideal_closed(alg, Mat(normals).nullspace())
    assert not is_simple(alg, report)
    ok, witness = is_semisimple(alg, report)
    assert ok == squarefree
    if ok:
        # over C every simple ideal here is a line: no 2-dim part
        assert all(isinstance(part, tuple) or len(part) == 1
                   for part in witness)
        vectors = [v for part in witness
                   for v in (part[0] if isinstance(part, tuple) else part)]
        assert Mat(vectors).rank() == 3


# ---------------------------------------------------------------------------
# find_ideals factors the characteristic polynomial of its chosen operator
# M once and reads lines off M and planes off M^T with that one
# factorization.  The checks below repeat the plane pass with a factorization
# of its own and the plane solver with factor_unipoly.

LIN_ROOTS = [QI(0), QI(1), QI(-1), QI(2), QI(0, 1), QI(1, 1)]
# pools for the cells off the chosen operator: empty, sparse and dense
FILLS = [[QI(0)], [QI(0)] * 8 + [QI(1), QI(-1), QI(0, 1)],
         [QI(0), QI(1), QI(-1), QI(2), QI(0, 1)]]


@st.composite
def blocks(draw, n):
    """Monic polynomials whose degrees add up to n: t - r, (t - r)^k, and
    irreducible t^2 - c and t^3 - c; equal roots in separate blocks give
    eigenplanes, in one block a Jordan block."""
    out = []
    while sum(len(g) - 1 for g in out) < n:
        left = n - sum(len(g) - 1 for g in out)
        deg = draw(st.integers(1, left))
        kind = draw(st.sampled_from(["power", "irreducible"]))
        if deg == 1 or kind == "power":
            r = draw(st.sampled_from(LIN_ROOTS))
            g = (QI(1),)
            for _ in range(deg):
                g = poly_mul(g, (-r, QI(1)))
        else:
            c = draw(st.sampled_from(NON_SQUARES if deg == 2 else NON_CUBES))
            g = (-c,) + (QI(0),) * (deg - 1) + (QI(1),)
        out.append(g)
    return out


def block_companion(gs, n):
    "The block-diagonal matrix of the companion matrices of gs."
    rows = [[QI(0)] * n for _ in range(n)]
    at = 0
    for g in gs:
        d = len(g) - 1
        for i in range(d):
            if i:
                rows[at + i][at + i - 1] = QI(1)
            rows[at + i][at + d - 1] = -g[i]
        at += d
    return Mat(rows)


@st.composite
def tables_with_chosen_operator(draw):
    """A 2- or 3-dimensional table whose operator L_{e_n} (find_ideals picks
    it when it is not scalar) is conjugate to a block companion matrix, so
    its characteristic polynomial has the drawn factors; the other cells
    are zero, sparse or dense, so that ideals exist in some."""
    n = draw(st.sampled_from([2, 3]))
    w = Mat([[draw(entries) for _ in range(n)] for _ in range(n)])
    assume(not w.det().is_zero())
    m = w.inverse() * block_companion(draw(blocks(n)), n) * w
    fill = st.sampled_from(draw(st.sampled_from(FILLS)))
    table = [[[draw(fill) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    # entry (k, j) of L_{e_i} is c_ij^k
    i = 2 if n == 3 else 0
    for j in range(n):
        table[i][j] = [m[k, j] for k in range(n)]
    return Algebra(table)


@st.composite
def rebased_quotients(draw):
    "Q(i)[t]/(g) + C^(3 - deg g) in a random basis: ideals and orbits exist."
    w = Mat([[draw(entries) for _ in range(3)] for _ in range(3)])
    assume(not w.det().is_zero())
    return rebase(quotient_plus_copies(draw(moduli())[0]), w)


def separate_pass(ops):
    "Invariant lines of ops with a factorization of their own."
    chosen = _chosen_operator(ops)
    _, factors = factor_unipoly(chosen.charpoly())
    return _invariant_lines(ops, chosen, factors)


@settings(max_examples=200, deadline=None)
@given(st.one_of(tables_with_chosen_operator(), rebased_quotients()))
def test_planes_match_a_separate_pass_on_transposed_operators(alg):
    assume(not alg.is_zero_product())
    report = find_ideals(alg)
    ops = multiplication_operators(alg)
    assert (report.lines, report.line_families, report.line_orbits) == (
        separate_pass(ops))
    covs, cofams, coorbits = separate_pass([op.transpose() for op in ops])
    assert report.planes == [(v, Mat([v]).nullspace()) for v in covs]
    assert report.plane_families == [Mat([p1, p2]).nullspace()[0]
                                     for p1, p2 in cofams]
    assert report.plane_orbits == coorbits


def normalized(v):
    lead = next(x for x in v if not x.is_zero())
    return [x / lead for x in v]


@settings(max_examples=150, deadline=None)
@given(blocks(2), st.lists(entries, min_size=4, max_size=4))
def test_plane_lines_match_factor_unipoly(gs, cells):
    """On one operator M of a plane, the invariant lines s*b1 + t*b2 solve
    aa*s^2 + bb*s + cc = 0; each root r of the quadratic, as factor_unipoly
    finds it, gives the line r*b1 + b2, and an irreducible quadratic the
    orbit of its monic factor."""
    w = Mat([cells[0:2], cells[2:4]])
    assume(not w.det().is_zero())
    m = w.inverse() * block_companion(gs, 2) * w
    b1, b2 = [QI(1), QI(0)], [QI(0), QI(1)]
    aa, bb, cc = m[1, 0], m[1, 1] - m[0, 0], -m[0, 1]
    got = _lines_in_plane([m], b1, b2)
    if aa.is_zero():
        return  # (1 : 0) is a root; no quadratic to solve
    _, factors = factor_unipoly((cc, bb, aa))
    if len(factors[0][0]) == 3:
        assert got == ([], [], [([b1, b2], factors[0][0])])
    else:
        assert got == ([normalized([-f[0], QI(1)]) for f, _m in factors],
                       [], [])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.sampled_from(LIN_ROOTS), blocks(3))
def test_factor_unipoly_multiplicities_match_sympy(mult, r, gs):
    "(t - r)^mult times drawn factors up to degree 3, against sympy."
    sympy = pytest.importorskip("sympy")
    co = (QI(1),)
    for _ in range(mult):
        co = poly_mul(co, (-r, QI(1)))
    for g in gs:
        if len(co) + len(g) - 2 <= 3:
            co = poly_mul(co, g)
    t = sympy.Symbol("t")

    def to_sympy(z):
        return sympy.Rational(z.re) + sympy.I * sympy.Rational(z.im)

    def from_sympy(c):
        re, im = sympy.re(c), sympy.im(c)
        return QI(Fraction(int(re.p), int(re.q)),
                  Fraction(int(im.p), int(im.q)))

    expr = sum(to_sympy(c) * t ** k for k, c in enumerate(co))
    expected = []
    for f, m in sympy.factor_list(expr, t, extension=sympy.I)[1]:
        coeffs = sympy.Poly(f, t, extension=sympy.I).monic().all_coeffs()
        expected.append((tuple(from_sympy(c) for c in reversed(coeffs)), m))

    def key(fm):
        return len(fm[0]), [(c.re, c.im) for c in fm[0]], fm[1]
    unit, factors = factor_unipoly(co)
    assert unit == QI(1)
    assert sorted(factors, key=key) == sorted(expected, key=key)


# ---------------------------------------------------------------------------
# The ideals J with J.J != J that the catalog flags take their answers
# from, against naive products and sympy ranks.

@st.composite
def small_tables(draw):
    """A table of dimension 1 to 3: random cells, all zero, or with every
    product in the span of the first n - 1 basis vectors (A.A != A), in a
    random basis."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "zero", "short"]))
    fill = st.sampled_from(draw(st.sampled_from(FILLS)))
    c = [[[QI(0) if kind == "zero" or (kind == "short" and k == n - 1)
           else draw(fill) for k in range(n)] for _ in range(n)]
         for _ in range(n)]
    w = Mat([[draw(entries) for _ in range(n)] for _ in range(n)])
    assume(not w.det().is_zero())
    return rebase(Algebra(c), w)


def sympy_matrix(rows, n):
    "The QI rows of length n as a sympy matrix over Q(i)."
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    qq, qq_i = sympy.QQ, sympy.QQ_I
    return DomainMatrix([[qq_i(qq(x.re.numerator, x.re.denominator),
                               qq(x.im.numerator, x.im.denominator))
                          for x in r] for r in rows], (len(rows), n), qq_i)


def sympy_rank(vectors, n):
    "The rank over Q(i) of the QI vectors of length n, by sympy."
    return sympy_matrix(vectors, n).rank() if vectors else 0


def naive_certificates(alg):
    """What ideal_flags reads, recomputed from naive products and sympy
    ranks: (A.A != A, N = {x : xA = 0} is nonzero and an ideal, the ideal J
    the commutators generate is proper and nonzero with J.J != J, N is an
    ideal).  N is the sympy nullspace of x -> (x e_1, .., x e_n)."""
    n, c = alg.dim, alg.c
    e = [[QI(int(i == k)) for k in range(n)] for i in range(n)]

    def mul(x, y):
        return naive_product(c, x, y)

    def with_a(vs):
        return vs + [p for v in vs for x in e for p in (mul(x, v), mul(v, x))]

    def independent(vs):
        out = []
        for v in vs:
            if sympy_rank(out + [v], n) > len(out):
                out.append(v)
        return out

    short = sympy_rank([mul(x, y) for x in e for y in e], n) < n
    ann = sympy_matrix([[mul(e[i], e[j])[k] for i in range(n)]
                        for j in range(n) for k in range(n)], n).nullspace()
    ann = [[QI(Fraction(int(g.x.numerator), int(g.x.denominator)),
               Fraction(int(g.y.numerator), int(g.y.denominator)))
            for g in row] for row in ann.to_list()]
    ann_ideal = sympy_rank(with_a(ann), n) == len(ann)
    j = independent([[p - q for p, q in zip(mul(x, y), mul(y, x))]
                     for x in e for y in e])
    while len(grown := independent(with_a(j))) > len(j):
        j = grown
    comm = (0 < len(j) < n
            and sympy_rank([mul(x, y) for x in j for y in j], n) < len(j))
    return short, bool(ann) and ann_ideal, comm, ann_ideal


def one_report_flags(alg):
    "The simple and semisimple flags over one find_ideals report."
    try:
        report = find_ideals(alg)
    except ZeroAlgebra:
        return {"simple": False, "semisimple": False}
    return {"simple": is_simple(alg, report),
            "semisimple": is_semisimple(alg, report)[0]}


@settings(max_examples=200, deadline=None)
@given(small_tables())
def test_ideal_flags_match_one_ideal_report(alg):
    """ideal_flags agrees with is_simple and is_semisimple over one
    find_ideals report (the zero algebra is neither), and seeks no ideal
    when A.A != A, when the table is known to be left-symmetric and its left
    annihilator N is nonzero, or when the ideal J the commutators generate
    is proper and nonzero with J.J != J; otherwise it seeks them once.
    Each table is read before and after check_left_symmetric."""
    short, ann, comm, _ = naive_certificates(alg)
    try:
        report = find_ideals(alg)
        want = {"simple": is_simple(alg, report),
                "semisimple": is_semisimple(alg, report)[0]}
    except ZeroAlgebra:
        want = {"simple": False, "semisimple": False}
    calls = []

    def spy(a):
        calls.append(a)
        return find_ideals(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(props, "find_ideals", spy)
        assert ideal_flags(alg) == want
        assert len(calls) == (0 if short or comm else 1)
        left_symmetric = check_left_symmetric(alg)[0]
        calls.clear()
        assert ideal_flags(alg) == want
    assert len(calls) == (0 if short or (left_symmetric and ann) or comm
                          else 1)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.integers(0, 10 ** 6),
       st.lists(entries, min_size=9, max_size=9))
def test_left_annihilator_of_a_left_symmetric_table_is_an_ideal(
        first_samples, commutative_bases, novikov, pick, cells):
    """On a left-symmetric table N = {x : xA = 0} is an ideal, as (yx)z =
    (x,y,z) = 0 for x in N, and ideal_flags agrees with one find_ideals
    report, whether or not the table is known to be left-symmetric (a copy
    is not): catalog points in a drawn basis, and Novikov tables x.D(y) on
    seeded commutative associative bases."""
    if novikov:
        rng = random.Random(pick)
        base = commutative_bases(rng, 1)[0]
        d = Mat.zero(3)
        for b in derivation_space(base):
            d = d + QI(rng.randint(-2, 2)) * b
        alg = novikov_from_derivation(base, d)
    else:
        w = Mat([cells[0:3], cells[3:6], cells[6:9]])
        assume(not w.det().is_zero())
        alg = rebase(first_samples[pick % len(first_samples)][2], w)
    assert check_left_symmetric(alg)[0]
    assert naive_certificates(alg)[3]
    assert (ideal_flags(alg) == ideal_flags(copy.copy(alg))
            == one_report_flags(alg))


def test_left_annihilator_that_is_no_ideal_certifies_nothing():
    """e1.e1 = e1.e2 = 0, e2.e1 = 2e1 - e2, e2.e2 = 2e1: N = span(e1), but
    e2.e1 is outside N, and the table is simple, hence semisimple."""
    alg = Algebra.from_products(2, {(1, 0): [(2, 0), (-1, 1)],
                                    (1, 1): [(2, 0)]})
    assert not check_left_symmetric(alg)[0]
    assert naive_certificates(alg) == (False, False, False, False)
    assert ideal_flags(alg) == {"simple": True, "semisimple": True}


def catalog_points(catalog_sweep):
    """The catalog's sample points and conditional-flag points, as
    verify_property_tables reads them: 258 and 4 more."""
    points = {catalog.point_label(r.entry_id, r.bindings): r.alg
              for r in catalog_sweep.reports}
    for e in catalog.load_catalog().values():
        for cond in e.flags.values():
            for b in (e.sample_bindings(dict(cond))
                      if isinstance(cond, tuple) else []):
                label = catalog.point_label(e.id, b)
                if label not in points:
                    points[label] = catalog.instantiate(e.id, b)
    return points


def test_left_symmetric_certificate_equals_the_general_one(catalog_sweep):
    """At every catalog point, all left-symmetric: _certified_ideal agrees
    with naive_certificates, and so does the rank test it runs for the left
    annihilator N (rank of the n x n^2 rows c_i0 | ... | c_i(n-1) below n)
    with N being a nonzero ideal.  112 points are certified by N."""
    points = catalog_points(catalog_sweep)
    by_rank = 0
    for label, alg in points.items():
        assert check_left_symmetric(alg)[0], label
        short, ann, comm, _ = naive_certificates(alg)
        rank_short = Mat([[x for v in r for x in v]
                          for r in alg.c]).rank() < alg.dim
        assert rank_short == ann, label
        assert props._certified_ideal(alg) == (short or ann or comm), label
        by_rank += rank_short and not short
    assert (len(points), by_rank) == (262, 112)


def test_left_symmetric_certificate_takes_no_nullspace(monkeypatch,
                                                       catalog_sweep):
    """Spies on Mat.nullspace: _certified_ideal takes none at any catalog
    point, whether the table is known to be left-symmetric or is a copy
    that is not."""
    points = catalog_points(catalog_sweep).values()
    for alg in points:
        assert check_left_symmetric(alg)[0]
    calls = []
    nullspace = Mat.nullspace
    monkeypatch.setattr(Mat, "nullspace",
                        lambda m: calls.append(m) or nullspace(m))
    for alg in points:
        props._certified_ideal(alg)
        props._certified_ideal(copy.copy(alg))
    assert calls == []
