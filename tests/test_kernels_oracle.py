"""The structure-constant and small-matrix kernels against definitions.

multiply, triple_products, left_matrix and right_matrix (tests/oracles.py,
over multiplication_operators) read the table
c[i][j][k] (coordinate k of e_i e_j) directly and skip zeros, and the
predicates, trace forms and annihilator dimensions read the triple
products.  The oracles below sum over every index with no skipping, build
nothing but basis products, and are checked on random tables in
dimensions 1..3 that need not be left-symmetric, some with MultiPoly
entries, and on every catalog entry at its first sample.

Mat products (matrix times matrix, row vector times matrix, matrix times
column vector) are checked against index sums on random rectangular
matrices of size 1..4.  Mat.charpoly, Mat.inverse, Mat.rank and the
nullspace of stacked matrices (the common kernel) are checked on random
matrices of size 1..4 with QI or MultiPoly entries: against det(u I - M),
against the identity, and against ranks read off nonzero minors."""

from itertools import combinations, product

import pytest

from lsacat.algebra import (Algebra, check_left_symmetric, left_matrix,
                            multiply, rebase, triple_products)
from lsacat.errors import SingularWitness
from lsacat.linalg import Mat
from lsacat.props import (fingerprint, is_associative, is_bisymmetric,
                          is_commutative, is_novikov, is_transitive,
                          trace_forms)
from lsacat.scalars import ZERO, MultiPoly, QI, is_zero
from oracles import right_matrix

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def naive_product(c, x, y):
    n = len(c)
    return [sum((x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)),
                ZERO) for k in range(n)]


def basis(n, i):
    return [QI(1) if k == i else QI(0) for k in range(n)]


def naive_associator(c, i, j, k):
    n = len(c)
    ei, ej, ek = basis(n, i), basis(n, j), basis(n, k)
    return [p - q for p, q in zip(
        naive_product(c, naive_product(c, ei, ej), ek),
        naive_product(c, ei, naive_product(c, ej, ek)))]


def naive_operator(c, x, left):
    "Column j is x e_j (left) or e_j x (right)."
    n = len(c)
    cols = [naive_product(c, x, basis(n, j)) if left
            else naive_product(c, basis(n, j), x) for j in range(n)]
    return [[cols[j][k] for j in range(n)] for k in range(n)]


def same(xs, ys):
    return len(xs) == len(ys) and all(x == y for x, y in zip(xs, ys))


def is_zero_vec(v):
    return all(x == 0 for x in v)


# ---------------------------------------------------------------------------
# random tables

small_qi = st.builds(QI, st.integers(-3, 3), st.integers(-2, 2))
sparse_qi = st.one_of(st.just(QI(0)), st.just(QI(0)), small_qi)


@st.composite
def scalars(draw, symbolic):
    x = draw(sparse_qi)
    if symbolic and draw(st.booleans()):
        s, t = MultiPoly.var("s"), MultiPoly.var("t")
        x = x + draw(small_qi) * s ** draw(st.integers(0, 2)) * t
    return x


@st.composite
def tables(draw):
    n = draw(st.integers(1, 3))
    symbolic = draw(st.booleans())
    # a third of the tables have c_ij^k = 0 unless k > max(i, j): every
    # R_x is then strictly triangular, so the table is transitive
    shaped = draw(st.integers(0, 2)) == 0
    return [[[draw(scalars(symbolic)) if not shaped or k > max(i, j)
              else QI(0) for k in range(n)] for j in range(n)]
            for i in range(n)]


@st.composite
def table_and_vectors(draw):
    c = draw(tables())
    n = len(c)
    vec = st.lists(draw(st.sampled_from([sparse_qi, scalars(True)])),
                   min_size=n, max_size=n)
    return c, draw(vec), draw(vec)


def naive_triples(c):
    """(T, U, A) of the table c as dicts of their nonzero coordinates, keyed
    (i, j, k, m), from basis products summed over every index."""
    n = len(c)
    e = [basis(n, i) for i in range(n)]
    out = ({}, {}, {})
    for i, j, k in product(range(n), repeat=3):
        t = naive_product(c, naive_product(c, e[i], e[j]), e[k])
        u = naive_product(c, e[i], naive_product(c, e[j], e[k]))
        for m in range(n):
            for d, x in zip(out, (t[m], u[m], t[m] - u[m])):
                if not is_zero(x):
                    d[i, j, k, m] = x
    return out


def check_triples(got, c):
    """Each of got = (T, U, A) stores nonzero coordinates only, and exactly
    the nonzero coordinates of the oracle's, with their values; A = T - U."""
    t, u, s = got
    for g, w in zip(got, naive_triples(c)):
        assert not any(is_zero(v) for v in g.values())
        assert g.keys() == w.keys()
        assert all(g[key] == w[key] for key in w)
    for key in set(t) | set(u) | set(s):
        assert s.get(key, ZERO) == t.get(key, ZERO) - u.get(key, ZERO)


@settings(max_examples=50, deadline=None)
@given(table_and_vectors())
def test_products_and_operators_match_triple_sums(case):
    c, x, y = case
    a = Algebra(c)
    assert same(multiply(a, x, y), naive_product(c, x, y))
    check_triples(triple_products(a), c)
    assert left_matrix(a, x) == Mat(naive_operator(c, x, True))
    assert right_matrix(a, x) == Mat(naive_operator(c, x, False))


@settings(max_examples=50, deadline=None)
@given(tables(), tables())
def test_triple_products_read_back_are_the_tables_own(c, d):
    """triple_products remembers the table it read last: the (T, U, A) of
    a, read again after those of b, and read twice in a row, are a's own."""
    a, b = Algebra(c), Algebra(d)
    for x, cx in ((a, c), (b, d), (a, c), (a, c)):
        check_triples(triple_products(x), cx)


def dense_certificate(a):
    """check_left_symmetric's certificate as the dense triple products gave
    it: T[i][j][k] and U[i][j][k] as lists of dim coordinates, each summed
    over the nonzero constants with its first term assigned, then the first
    i < j, then k, where assoc(i,j,k) != assoc(j,i,k), and the difference
    (T[i][j][k] - U[i][j][k]) - (T[j][i][k] - U[j][i][k])."""
    c, rng = a.c, range(a.dim)

    def cell(pairs):
        out = [ZERO] * a.dim
        for x, vec in pairs:
            for m, y in enumerate(vec):
                if not (is_zero(x) or is_zero(y)):
                    out[m] = x * y if out[m] is ZERO else out[m] + x * y
        return out
    t = {(i, j, k): cell((c[i][j][p], c[p][k]) for p in rng)
         for i, j, k in product(rng, repeat=3)}
    u = {(i, j, k): cell((c[j][k][p], c[i][p]) for p in rng)
         for i, j, k in product(rng, repeat=3)}
    for i, j in combinations(rng, 2):
        for k in rng:
            d = [(w - x) - (y - z) for w, x, y, z in zip(
                t[i, j, k], u[i, j, k], t[j, i, k], u[j, i, k])]
            if not all(is_zero(x) for x in d):
                return i, j, k, d
    return None


# e1 e2 = -e1, e2 e1 = t e1: assoc(e2, e1, e2) = -t e1 + t e1 cancels, yet
# the dense sums kept it a MultiPoly, so the certificate's difference at e1
# is MultiPoly(1), not QI(1)
CANCELLING = [[[QI(0), QI(0)], [QI(-1), QI(0)]],
              [[MultiPoly.var("t"), QI(0)], [QI(0), QI(0)]]]


@settings(max_examples=80, deadline=None)
@given(tables())
@example(CANCELLING)
def test_certificate_is_the_dense_one(c):
    """On a table that is not left-symmetric, the certificate, QI or
    MultiPoly coordinates alike, prints as the dense sums printed it."""
    a = Algebra(c)
    ok, cert = check_left_symmetric(a)
    assume(not ok)
    assert repr(cert) == repr(dense_certificate(a))


class StubLie:
    "Stands in for classify3, which needs numeric tables."
    def key(self):
        return ("stub",)


def rank_of_map(images):
    "Rank of the linear map whose value at each basis vector is listed."
    rows = [[x for v in image for x in v] for image in images]
    return rank_by_minors(rows)


@settings(max_examples=50, deadline=None)
@given(tables())
def test_trace_forms_and_dims_match_naive_operators(c):
    """Every entry of tr(L_a L_b), tr(R_a R_b) and tr(L_a R_b) is the trace
    of the product of naive operator matrices, and the annihilator and
    product-span dimensions are those of naive kernels and spans."""
    a = Algebra(c)
    n = a.dim
    e = [basis(n, i) for i in range(n)]
    lm = [Mat(naive_operator(c, v, True)) for v in e]
    rm = [Mat(naive_operator(c, v, False)) for v in e]
    forms = trace_forms(a)
    for form, xs, ys in zip(forms, (lm, rm, lm), (lm, rm, rm)):
        assert form.rows == tuple(tuple((x * y).trace() for y in ys)
                                  for x in xs)
    fp = fingerprint(a, StubLie())
    assert fp.ranks == {"tr_ll": rank_by_minors(forms[0].rows),
                        "tr_rr": rank_by_minors(forms[1].rows),
                        "tr_lr": rank_by_minors(forms[2].rows)}
    left = [[naive_product(c, x, y) for y in e] for x in e]
    right = [[naive_product(c, y, x) for y in e] for x in e]
    assert fp.dims == {
        "ann_left": n - rank_of_map(left),
        "ann_right": n - rank_of_map(right),
        "ann_two_sided": n - rank_of_map([ls + rs for ls, rs
                                          in zip(left, right)]),
        "product_span": rank_by_minors([v for row in left for v in row]),
    }


def naive_certificate(c):
    "First (i, j, k), i < j, in loop order where assoc(i,j,k) != assoc(j,i,k)."
    n = len(c)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                d = [p - q for p, q in zip(naive_associator(c, i, j, k),
                                           naive_associator(c, j, i, k))]
                if not is_zero_vec(d):
                    return False, (i, j, k, d)
    return True, None


def naive_flags(c):
    n = len(c)
    triples = [(i, j, k) for i in range(n) for j in range(n)
               for k in range(n)]
    e = [basis(n, i) for i in range(n)]

    def prod(u, v):
        return naive_product(c, u, v)
    # R_x is nilpotent for x with symbolic coordinates iff it is for every x
    xs = [MultiPoly.var("x%d" % (k + 1)) for k in range(n)]
    r = Mat(naive_operator(c, xs, False))
    power = r
    for _ in range(n - 1):
        power = power * r
    return {
        "associative": all(is_zero_vec(naive_associator(c, *t))
                           for t in triples),
        "novikov": all(same(prod(prod(e[i], e[j]), e[k]),
                            prod(prod(e[i], e[k]), e[j]))
                       for i, j, k in triples),
        "bisymmetric": all(same(naive_associator(c, i, j, k),
                                naive_associator(c, i, k, j))
                           for i, j, k in triples),
        "commutative": all(same(prod(e[i], e[j]), prod(e[j], e[i]))
                           for i in range(n) for j in range(n)),
        "transitive": power.is_zero(),
    }


def flags(a):
    return {"associative": is_associative(a), "novikov": is_novikov(a),
            "bisymmetric": is_bisymmetric(a),
            "commutative": is_commutative(a), "transitive": is_transitive(a)}


def check_against_definitions(c):
    a = Algebra(c)
    ok, cert = check_left_symmetric(a)
    want_ok, want_cert = naive_certificate(c)
    assert ok == want_ok
    if not ok:
        assert cert[:3] == want_cert[:3] and same(cert[3], want_cert[3])
    assert flags(a) == naive_flags(c)


@settings(max_examples=50, deadline=None)
@given(tables())
def test_left_symmetry_and_predicates_match_definitions(c):
    check_against_definitions(c)


def in_random_basis(draw, c):
    "The table c rebased by a random invertible matrix, or as it is."
    n = len(c)
    w = Mat([[draw(small_qi) for _ in range(n)] for _ in range(n)])
    if is_zero(w.det()):
        w = Mat.identity(n)
    a = rebase(Algebra(c), w)
    return [[list(a.c[i][j]) for j in range(n)] for i in range(n)]


@st.composite
def rebased_transitive_tables(draw):
    """Tables with c_ij^k = 0 unless k > i, so that every R_x is strictly
    triangular but L_x need not be, in a random basis: transitive, with
    nonzero products (e_i e_j) e_k that the traces of R_x^2 and R_x^3
    must cancel."""
    n = draw(st.integers(2, 3))
    c = [[[draw(small_qi) if k > i else QI(0) for k in range(n)]
          for j in range(n)] for i in range(n)]
    return in_random_basis(draw, c)


@settings(max_examples=40, deadline=None)
@given(rebased_transitive_tables())
def test_predicates_match_definitions_on_rebased_transitive_tables(c):
    assert is_transitive(Algebra(c))
    check_against_definitions(c)


@st.composite
def split_trace_tables(draw):
    """e1 e2 = a e3, e2 e1 = b e3, e3 e1 = c e1, e3 e2 = d e2 with a, b,
    c != 0.  Then tr R_x = tr R_x^3 = 0 and tr R_x^2 = 2 x1 x2 (ac + bd),
    so the table is transitive iff ac + bd = 0.  A reader of tr R_x^3 that
    takes c[z][m][p] for c[m][z][p] calls such a transitive table
    intransitive.  Returns [(table, True), (table, False)]: d = -ac/b,
    then d with ac + bd = e != 0, each in a random basis."""
    nonzero = small_qi.filter(lambda x: not x.is_zero())
    a, b, c, e = (draw(nonzero) for _ in range(4))
    z = QI(0)
    out = []
    for d, transitive in ((-a * c / b, True), ((e - a * c) / b, False)):
        t = [[[z, z, z], [z, z, a], [z, z, z]],
             [[z, z, b], [z, z, z], [z, z, z]],
             [[c, z, z], [z, d, z], [z, z, z]]]
        out.append((in_random_basis(draw, t), transitive))
    return out


@settings(max_examples=30, deadline=None)
@given(split_trace_tables())
def test_transitivity_read_off_the_cubic_trace(cases):
    for c, transitive in cases:
        assert is_transitive(Algebra(c)) is transitive
        check_against_definitions(c)


def test_transitivity_needs_the_cubic_trace():
    """Three tables pin is_transitive's reader of tr(R_x^3) without the
    catalog.  R_e1 the companion matrix of t^3 - 1 (e1 e1 = e2, e2 e1 = e3,
    e3 e1 = e1, R_e2 = R_e3 = 0): tr R_x = tr R_x^2 = 0 but tr R_x^3 =
    3 x1^3, so it is not transitive.  Right multiplications strictly
    triangular (e_i e_j in the span of the e_k, k > i): transitive.  The
    split trace table e1 e2 = e2 e1 = e3, e3 e1 = e1, e3 e2 = -e2:
    transitive, though tr(L_x R_x^2) = 2 x1 x2 x3, so a reader that
    takes c[z][m][p] for c[m][z][p] calls it intransitive."""
    o, l = QI(0), QI(1)
    companion = [[[o, l, o], [o, o, o], [o, o, o]],
                 [[o, o, l], [o, o, o], [o, o, o]],
                 [[l, o, o], [o, o, o], [o, o, o]]]
    triangular = [[[o, l, o], [o, o, l], [o, l, l]],
                  [[o, o, l], [o, o, -l], [o, o, o]],
                  [[o, o, o], [o, o, o], [o, o, o]]]
    split = [[[o, o, o], [o, o, l], [o, o, o]],
             [[o, o, l], [o, o, o], [o, o, o]],
             [[l, o, o], [o, -l, o], [o, o, o]]]
    for c, transitive in ((companion, False), (triangular, True),
                          (split, True)):
        assert is_transitive(Algebra(c)) is transitive
        assert naive_flags(c)["transitive"] is transitive


def test_catalog_tables_match_definitions(first_samples):
    """Every catalog table is left-symmetric, none is commutative, and the
    other predicates vary over them."""
    seen = set()
    for _e, _b, alg in first_samples:
        c = [[list(alg.c[i][j]) for j in range(alg.dim)]
             for i in range(alg.dim)]
        check_against_definitions(c)
        seen |= {name for name, v in flags(alg).items() if v}
    assert seen == {"associative", "novikov", "bisymmetric", "transitive"}


# ---------------------------------------------------------------------------
# products with a matrix on random rectangular matrices

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_products_with_a_matrix_are_the_naive_sums(p, q, r, data):
    """Mat * Mat, apply_row and apply_col on p x q and q x r matrices whose
    entries are mostly zero QI, some MultiPoly, against sums over every
    index with no skipping; Mat equality against that of the row lists."""
    symbolic = data.draw(st.booleans())

    def draw_rows(rows, cols):
        return [[data.draw(scalars(symbolic)) for _ in range(cols)]
                for _ in range(rows)]
    a, b = draw_rows(p, q), draw_rows(q, r)
    (x,), (y,) = draw_rows(1, p), draw_rows(1, q)
    assert (Mat(a) == Mat(b)) == (a == b)
    ab = Mat(a) * Mat(b)
    assert (ab.nrows, ab.ncols) == (p, r)
    assert all(ab[i, k] == sum((a[i][j] * b[j][k] for j in range(q)), ZERO)
               for i in range(p) for k in range(r))
    assert same(Mat(a).apply_row(x),
                [sum((x[i] * a[i][j] for i in range(p)), ZERO)
                 for j in range(q)])
    assert same(Mat(a).apply_col(y),
                [sum((a[i][j] * y[j] for j in range(q)), ZERO)
                 for i in range(p)])


# ---------------------------------------------------------------------------
# charpoly, inverse and common kernels on random matrices

@st.composite
def square_mats(draw, n=None):
    "QI entries, or entries linear in s, which keeps RatFunc inverses small."
    n = n or draw(st.integers(1, 4))
    entry = sparse_qi
    if draw(st.booleans()):
        s = MultiPoly.var("s")
        entry = st.builds(lambda a, b: a + b * s, sparse_qi, sparse_qi)
    return Mat([[draw(entry) for _ in range(n)] for _ in range(n)])


def coefficients_in(p, name, degree):
    "Coefficients of name^0..name^degree in the MultiPoly p."
    i = p.vars.index(name)
    out = [ZERO] * (degree + 1)
    for exps, c in p.terms.items():
        rest = exps[:i] + (0,) + exps[i + 1:]
        out[exps[i]] = out[exps[i]] + MultiPoly(p.vars, {rest: c})
    return out


def rank_by_minors(rows):
    "Largest k with a nonzero k x k minor."
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(len(rows[0])), k):
                if not is_zero(Mat([[rows[r][c] for c in ci]
                                    for r in ri]).det()):
                    return k
    return 0


@settings(max_examples=60, deadline=None)
@given(square_mats())
def test_charpoly_is_det_of_u_minus_m(m):
    n = m.nrows
    u = MultiPoly.var("u")
    want = coefficients_in((u * Mat.identity(n) - m).det(), "u", n)
    got = m.charpoly()
    assert len(got) == n + 1
    assert all(x == y for x, y in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(square_mats(), st.data())
def test_inverse_is_two_sided_and_singular_raises(m, data):
    n = m.nrows
    if not is_zero(m.det()):
        inv = m.inverse()
        assert m * inv == Mat.identity(n)
        assert inv * m == Mat.identity(n)
    # the last row replaced by a combination of the others
    coeffs = data.draw(st.lists(sparse_qi, min_size=n - 1, max_size=n - 1))
    last = [sum((c * m[i, j] for i, c in enumerate(coeffs)), ZERO)
            for j in range(n)]
    with pytest.raises(SingularWitness):
        Mat(list(m.rows[:-1]) + [last]).inverse()


# the shapes the kernels reduce: the constants c_ij^k as a 9 x 3 matrix
# (A.A) and its 3 x 9 transpose (product span), the 3 x 18 rows of both
# annihilators, and up to 14 x 3 for an ideal basis with its products
KERNEL_SHAPES = [(3, 9), (9, 3), (3, 18), (14, 3), (6, 3), (12, 3)]


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                 st.sampled_from(KERNEL_SHAPES)), st.data())
def test_rank_of_rectangular_matrices_is_rank_by_minors(shape, data):
    """Row-by-row reduction counts the rows that grow an echelon basis of
    p x q matrices, among them zero rows, repeated rows and entries in
    MultiPoly (up to 4 x 4), and tall matrices whose leading rows already
    reach full rank, where the reduction stops before the last row."""
    p, q = shape
    symbolic = p <= 4 and q <= 4
    entries = data.draw(st.lists(scalars(symbolic), min_size=p * q,
                                 max_size=p * q))
    rows = [entries[r * q:(r + 1) * q] for r in range(p)]
    if p > 1 and data.draw(st.booleans()):
        rows[-1] = [2 * x for x in rows[0]]
    if p > q and data.draw(st.booleans()):
        # unit upper triangular leading rows under a random column order
        # are independent: full rank q is reached at row q
        cols = data.draw(st.permutations(range(q)))
        for r in range(q):
            rows[r] = [QI(1) if cols[k] == r else
                       QI(0) if cols[k] < r else rows[r][k]
                       for k in range(q)]
    assert Mat(rows).rank() == rank_by_minors(rows)
    assert Mat(rows).transpose().rank() == rank_by_minors(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(square_mats(n), min_size=1, max_size=3)))
def test_common_kernel_is_killed_and_has_full_dimension(mats):
    n = mats[0].nrows
    kernel = Mat([r for m in mats for r in m.rows]).nullspace()
    for v in kernel:
        for m in mats:
            assert all(is_zero(x) for x in m.apply_col(v))
    assert len(kernel) == n - rank_by_minors([r for m in mats
                                              for r in m.rows])
    if kernel:
        assert rank_by_minors(kernel) == len(kernel)
