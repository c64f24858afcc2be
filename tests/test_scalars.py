import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsacat import scalars
from lsacat.algebra import Algebra, LieAlgebra
from lsacat.cocycle import Cocycle, Representation
from lsacat.errors import (DegreeTooHigh, DenominatorVanishes, DivisionByZero,
                           DomainMismatch, UnboundVariable)
from lsacat.linalg import Mat
from lsacat.scalars import (Frozen, MultiPoly, QI, RatFunc, factor_unipoly,
                            format_scalar, parse_scalar, qi, qi_roots,
                            substitute)


def poly_mul(a, b):
    "Product of two coefficient tuples, low to high."
    out = [qi(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def rand_qi(rng):
    return QI(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
              Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def rand_poly(rng, vars=("l", "m")):
    p = MultiPoly.const(0)
    for _ in range(rng.randint(1, 4)):
        term = MultiPoly.const(rand_qi(rng))
        for v in vars:
            term = term * MultiPoly.var(v) ** rng.randint(0, 2)
        p = p + term
    return p


def test_gaussian_norm_product():
    assert QI(1, 1) * QI(1, -1) == 2


def test_field_axioms_gaussian():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = rand_qi(rng), rand_qi(rng), rand_qi(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * (QI(1) / a) == 1


def test_field_axioms_polynomials():
    rng = random.Random(12)
    for _ in range(25):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_field_axioms_ratfunc():
    rng = random.Random(13)
    for _ in range(15):
        num, den = rand_poly(rng), rand_poly(rng)
        if den.is_zero():
            continue
        a = RatFunc(num, den)
        b = RatFunc(rand_poly(rng), MultiPoly.var("l") + 1)
        c = RatFunc(rand_poly(rng), MultiPoly.var("m") ** 2 + 2)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * (1 / a) == 1


def test_field_arith_division_by_zero():
    with pytest.raises(DivisionByZero):
        QI(1) / QI(0)


def test_like_denominator_addition():
    p = parse_scalar("(l^2-l)/m + l/m")
    assert p == parse_scalar("l^2/m")


def test_sums_over_a_shared_denominator_keep_it():
    "Each entry of M * M^-1 is a sum over det(M), not over a power of it."
    rng = random.Random(4)
    s, t = MultiPoly.var("s"), MultiPoly.var("t")
    m = Mat([[rng.randint(-3, 3) + rng.randint(1, 3) * s ** rng.randint(0, 2) * t
              for _ in range(4)] for _ in range(4)])
    prod = m * m.inverse()
    assert prod == Mat.identity(4)
    dens = [x.den for row in prod.rows for x in row if isinstance(x, RatFunc)]
    assert len(dens) == 16
    assert max(len(d.terms) for d in dens) <= len(m.det().terms)


def test_substitute_examples():
    p = parse_scalar("l^2-l")
    assert substitute(p, {"l": 2}) == 2
    q = parse_scalar("l*(l-1)/m")
    assert substitute(q, {"l": 1, "m": 3}) == 0
    # (1-2l) at l=1/2 vanishes: the excluded parameter point
    r = parse_scalar("1-2*l")
    assert substitute(r, {"l": Fraction(1, 2)}) == 0


def test_substitute_unbound_and_vanishing():
    p = parse_scalar("l/m")
    with pytest.raises(UnboundVariable):
        substitute(p, {"l": 1})
    with pytest.raises(DenominatorVanishes):
        substitute(p, {"l": 1, "m": 0})


@pytest.mark.parametrize("call", [format_scalar,
                                  lambda x: substitute(x, {})])
def test_non_scalar_refused_where_coerced(call):
    "as_scalar, the first step of each, refuses what is not a scalar."
    with pytest.raises(DomainMismatch, match="cannot interpret"):
        call(object())


def test_substitute_commutes_with_arithmetic():
    rng = random.Random(15)
    for _ in range(20):
        p, q = rand_poly(rng), rand_poly(rng)
        vals = {"l": rand_qi(rng), "m": rand_qi(rng)}
        assert substitute(p * q, vals) == substitute(p, vals) * substitute(q, vals)
        assert substitute(p + q, vals) == substitute(p, vals) + substitute(q, vals)


def test_parse_format_roundtrip():
    rng = random.Random(16)
    texts = ["1/2", "-i", "2+3*i", "l*(l-1)/m", "(1+i)*l^2-1/2*m", "0"]
    for t in texts:
        v = parse_scalar(t)
        w = parse_scalar(format_scalar(v))
        assert (v - w).is_zero()
    for _ in range(25):
        p = rand_poly(rng)
        assert parse_scalar(format_scalar(p)) == p


def test_factor_quadratic_over_qi():
    # t^2 + 1 = (t - i)(t + i)
    unit, factors = factor_unipoly((qi(1), qi(0), qi(1)))
    assert unit == 1
    assert factors == [((QI(0, -1), qi(1)), 1), ((QI(0, 1), qi(1)), 1)]


def test_factor_cubic_split():
    # t^3 - t = (t + 1) t (t - 1)
    unit, factors = factor_unipoly((qi(0), qi(-1), qi(0), qi(1)))
    assert unit == 1
    assert factors == [((qi(-1), qi(1)), 1), ((qi(0), qi(1)), 1),
                       ((qi(1), qi(1)), 1)]


def test_factor_cubic_irreducible():
    # no root p/q with q | 1, p | 2 in Z[i], hence irreducible over Q(i)
    co = (qi(-2), qi(0), qi(0), qi(1))
    assert factor_unipoly(co) == (1, [(co, 1)])
    assert qi_roots(co) == []


def test_qi_roots_linear():
    "A linear c0 + c1*t has the one root -c0/c1; zero top terms are trimmed."
    assert qi_roots((qi(3), qi(2))) == [QI(Fraction(-3, 2))]
    # -(1 + i)/i = -1 + i
    assert qi_roots((QI(1, 1), QI(0, 1), qi(0))) == [QI(-1, 1)]
    assert qi_roots((qi(0), qi(5))) == [QI(0)]
    assert factor_unipoly((QI(1, 1), QI(0, 1))) == (
        QI(0, 1), [((QI(1, -1), qi(1)), 1)])


def test_factor_multiplies_back():
    rng = random.Random(17)
    for _ in range(20):
        lead = rand_qi(rng) + 1
        co = (lead,)
        for _ in range(rng.randint(1, 3)):
            co = poly_mul(co, (-rand_qi(rng), qi(1)))
        unit, factors = factor_unipoly(co)
        assert unit == lead
        prod = (unit,)
        for f, m in factors:
            for _ in range(m):
                prod = poly_mul(prod, f)
        assert prod == co


# Root finding must take time polynomial in the bit length of the
# coefficients; factoring them would not finish.  Each case asserts the
# exact result under a generous wall-clock bound.
WALL_S = 2.0


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    assert time.perf_counter() - t0 < WALL_S
    return out


def test_roots_of_large_prime_constant():
    assert timed(qi_roots, (qi(-100000007), qi(0), qi(1))) == []


def test_roots_with_30_digit_parts_and_a_repeat():
    a = QI(Fraction(123456789012345678901234567891, 98765432109876543210987654323),
           Fraction(-314159265358979323846264338327, 271828182845904523536028747135))
    b = QI(Fraction(-577215664901532860606512090082, 141421356237309504880168872421),
           Fraction(161803398874989484820458683436, 173205080756887729352744634150))
    c = QI(Fraction(299792458000000000000000000001, 6),
           Fraction(-602214076000000000000000000003, 7))
    co = (c,)
    for r in (a, b, a):
        co = poly_mul(co, (-r, qi(1)))
    roots = timed(qi_roots, co)
    assert roots == sorted([a, b], key=lambda z: (z.re, z.im))


def test_factor_cubic_with_30_digit_coefficients(monkeypatch):
    "(t - r)(t^2 + t - P) with a 30-digit Gaussian integer r: one root search."
    p = 10 ** 29 + 13
    assert math.isqrt(1 + 4 * p) ** 2 != 1 + 4 * p
    r = QI(10 ** 29 + 19, -(10 ** 29 + 7))
    degrees = []

    def recording(co):
        degrees.append(len(co) - 1)
        return qi_roots(co)

    monkeypatch.setattr(scalars, "qi_roots", recording)
    f1, f2 = (-r, qi(1)), (qi(-p), qi(1), qi(1))
    unit, factors = timed(factor_unipoly, poly_mul(f1, f2))
    assert unit == 1
    assert factors == [(f1, 1), (f2, 1)]
    assert degrees == [3]


def test_factor_zero_polynomial():
    with pytest.raises(DivisionByZero):
        factor_unipoly((qi(0), qi(0)))


def test_factor_degree_too_high():
    # (t^2 - 2)(t^2 + 2): factor_unipoly serves 3x3 operators only
    with pytest.raises(DegreeTooHigh):
        factor_unipoly((qi(-4), qi(0), qi(0), qi(0), qi(1)))


def test_promotion_is_upward_only():
    # rational -> gaussian -> polynomial -> rational function
    out = Fraction(1, 2) * MultiPoly.var("l")
    assert isinstance(out, MultiPoly)
    out = MultiPoly.var("l") + RatFunc(MultiPoly.const(1), MultiPoly.var("m"))
    assert isinstance(out, RatFunc)
    # a Mat operand is left to Mat.__rmul__
    for p in (MultiPoly.var("l"), RatFunc(MultiPoly.const(1), MultiPoly.var("m"))):
        assert p * Mat.identity(2) == Mat([[p, 0], [0, p]])


def test_multipoly_divided_by_or_compared_with_ratfunc():
    "MultiPoly leaves / and == with a RatFunc to the RatFunc's own method."
    l, m = MultiPoly.var("l"), MultiPoly.var("m")
    out = l / RatFunc(MultiPoly.const(1), m)
    assert isinstance(out, RatFunc) and out == l * m
    assert l == RatFunc(l, MultiPoly.const(1))
    assert l != RatFunc(l, m)


def test_scalar_literal_rejects_malformed():
    with pytest.raises(DivisionByZero):
        parse_scalar("1/0")
    with pytest.raises(UnboundVariable):
        parse_scalar("l+", vars=("l",))
    with pytest.raises(UnboundVariable):
        parse_scalar("q", vars=("l",))


@pytest.mark.parametrize("text", [
    "(3/7+2*i)^1000000", "((3+2*i)^300)^300", "(1+i)^8193", "2^-4097",
    "(l+1)^65", "(l/(m+1))^65", "(l+m+1)^60"])
def test_scalar_literal_rejects_oversized_powers(text):
    "A power whose value would outgrow the parser's bounds fails at once."
    t0 = time.perf_counter()
    with pytest.raises(UnboundVariable):
        parse_scalar(text)
    assert time.perf_counter() - t0 < 1


def test_scalar_literal_bounds_products_and_sums():
    "Each operation is bounded, not only ^: 2^k terms after k binomials."
    def product(k):
        return "*".join("(p%d+1)" % n for n in range(k))

    def fractions(k):
        return "+".join("1/(p%d+1)" % n for n in range(k))

    assert len(parse_scalar(product(9)).terms) == 512
    assert len(parse_scalar(fractions(9)).den.terms) == 512
    for text in (product(10), fractions(10)):
        with pytest.raises(UnboundVariable, match="1000 terms"):
            parse_scalar(text)


def test_scalar_literal_keeps_powers_within_bounds():
    assert parse_scalar("10^30") == QI(10 ** 30)
    assert parse_scalar("(1+i)^8192") == QI(2 ** 4096)  # (2i)^4096
    assert parse_scalar("2^-4096") == QI(Fraction(1, 2 ** 4096))
    assert parse_scalar("i^100001") == QI(0, 1)
    assert parse_scalar("0^0") == parse_scalar("(l-l)^0") == QI(1)
    assert parse_scalar("(l+1)^64").total_degree() == 64


@pytest.mark.parametrize("text, base", [
    ("(1/l)^2", "1/l"), ("(l/(l+1))^-2", "(l+1)/l")])
def test_ratfunc_power_is_the_explicit_product(text, base):
    "A rational function to a power, read by the parser or raised directly."
    x = parse_scalar(base)
    assert isinstance(x, RatFunc)
    assert parse_scalar(text) == x * x
    assert x ** 2 == (1 / x) ** -2 == x * x


def test_parse_memo_hands_out_the_stored_tuples():
    """Every sequence of a parse result is a tuple, so nobody can change
    it, and the next parse of its text returns the stored value itself."""
    x = MultiPoly.var("x")
    rows = scalars.parse_rows("[[1, x], [0, 2]]")
    assert rows == ((QI(1), x), (QI(0), QI(2)))
    assert scalars.parse_rows("[[1, x], [0, 2]]") is rows
    vec = scalars.parse_combination("2 e1 - x e2", ("e1", "e2"))
    assert vec == (QI(2), -x)
    assert scalars.parse_combination("2 e1 - x e2", ("e1", "e2")) is vec
    assert scalars.parse_combination(" 0 ", ("e1", "e2")) == (QI(0), QI(0))


@pytest.mark.parametrize("parse, text, pos", [
    (scalars.parse_rows, "[[1, 2], [3 4]]", 12),
    (scalars.parse_combination, "2 e1 + 3e2", 8),
    (parse_scalar, "1 + (2", 6)])
def test_parse_memo_stores_no_failure(parse, text, pos):
    "A failing text raises the same message at the same offset each time."
    args = (("e1", "e2"),) if parse is scalars.parse_combination else ()
    keys = len(scalars._PARSED)
    raised = []
    for _ in range(2):
        with pytest.raises(UnboundVariable) as info:
            parse(text, *args)
        raised.append((str(info.value), info.value.pos))
    assert raised[0] == raised[1] and raised[0][1] == pos
    assert len(scalars._PARSED) == keys


def test_parse_memo_checks_the_allowed_names(monkeypatch):
    """A text stored under one set of allowed names serves every set that
    holds the names it reads, and fails under any other."""
    monkeypatch.setattr(scalars, "_PARSED", {})
    value = MultiPoly.var("lambda") + 1
    assert parse_scalar("lambda + 1", {"lambda"}) == value
    assert parse_scalar("lambda + 1", ("lambda", "mu")) == value
    assert parse_scalar("lambda + 1") == value
    assert len(scalars._PARSED) == 1
    for names in ((), {"mu"}):
        with pytest.raises(UnboundVariable, match="unknown name 'lambda'"):
            parse_scalar("lambda + 1", names)
    with pytest.raises(UnboundVariable, match="unknown name 'x'"):
        scalars.parse_combination("x e1", ("e1",), {"lambda"})
    assert scalars.parse_combination("x e1", ("e1",)) == (MultiPoly.var("x"),)
    with pytest.raises(UnboundVariable, match="unknown name 'x'"):
        scalars.parse_combination("x e1", ("e1",), ())


def test_parse_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(scalars, "_PARSED", {})
    monkeypatch.setattr(scalars, "_PARSED_MAX", 4)
    for k in range(10):
        assert parse_scalar("%d/7" % k) == QI(Fraction(k, 7))
        assert 0 < len(scalars._PARSED) <= 4


def test_catalog_reload_parses_no_new_text(monkeypatch):
    "A second load of the catalog finds every text it parses stored."
    from lsacat import catalog
    monkeypatch.setattr(scalars, "_PARSED", {})
    monkeypatch.setattr(catalog, "_CACHE", {})
    first = catalog.load_catalog()
    keys = set(scalars._PARSED)
    catalog._CACHE.clear()
    second = catalog.load_catalog()
    assert second is not first
    assert set(scalars._PARSED) == keys
    assert all(second[k].table == e.table and second[k].cmat == e.cmat
               for k, e in first.items())


# ---------------------------------------------------------------------------
# QI against an independent model: a pair of Fractions (re, im) and the
# textbook formulas for Q(i).

_BIG = 10 ** 30
_nonzero_int = st.integers(-_BIG, _BIG).filter(bool)
rational_part = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-_BIG, _BIG),
    # 30-digit parts, some given with a negative denominator
    st.builds(Fraction, st.integers(-_BIG, _BIG), _nonzero_int),
)
model = st.tuples(rational_part, rational_part)
nonzero_model = model.filter(lambda m: m[0] or m[1])


def as_pair(z):
    return z.re, z.im


def m_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def m_div(x, y):
    n = Fraction(y[0] * y[0] + y[1] * y[1])
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def m_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = m_mul(out, x)
    return m_div((1, 0), out) if n < 0 else out


@settings(max_examples=300, deadline=None)
@given(model, model)
def test_qi_arithmetic_matches_fraction_pairs(x, y):
    zx, zy = QI(*x), QI(*y)
    assert as_pair(zx) == x
    assert as_pair(zx + zy) == (x[0] + y[0], x[1] + y[1])
    assert as_pair(zx - zy) == (x[0] - y[0], x[1] - y[1])
    assert as_pair(zx * zy) == m_mul(x, y)
    assert as_pair(-zx) == (-x[0], -x[1])
    assert zx.norm2() == x[0] * x[0] + x[1] * x[1]
    assert isinstance(zx.re, Fraction) and isinstance(zx.norm2(), Fraction)
    if y[0] or y[1]:
        assert as_pair(zx / zy) == m_div(x, y)
    else:
        with pytest.raises(DivisionByZero):
            zx / zy
    # a real int or Fraction operand on either side
    r = y[0]
    assert as_pair(zx + r) == as_pair(r + zx) == (x[0] + r, x[1])
    assert as_pair(zx - r) == (x[0] - r, x[1])
    assert as_pair(r - zx) == (r - x[0], -x[1])
    assert as_pair(zx * r) == as_pair(r * zx) == (x[0] * r, x[1] * r)
    if r:
        assert as_pair(zx / r) == (Fraction(x[0]) / r, Fraction(x[1]) / r)
    if x[0] or x[1]:
        assert as_pair(r / zx) == m_div((r, 0), x)


@settings(max_examples=200, deadline=None)
@given(nonzero_model, st.integers(-3, 3))
def test_qi_powers_match_fraction_pairs(x, n):
    assert as_pair(QI(*x) ** n) == m_pow(x, n)


@settings(max_examples=300, deadline=None)
@given(model, model)
def test_qi_equality_hash_and_text(x, y):
    zx, zy = QI(*x), QI(*y)
    assert (zx == zy) == (x == y)
    for r in (y[0], Fraction(y[0]), int(y[0])):
        assert (zx == r) == (x[1] == 0 and x[0] == r)
    if x[1]:
        assert hash(zx) == hash((Fraction(x[0]), Fraction(x[1])))
    else:
        assert hash(zx) == hash(Fraction(x[0]))
        if Fraction(x[0]).denominator == 1:
            assert hash(zx) == hash(int(x[0]))
    assert parse_scalar(str(zx)) == zx
    # equal values reached by different routes have one canonical form
    for same in (zx + zy - zy, zx * zy / zy if y[0] or y[1] else zx,
                 QI(Fraction(x[0]) * 6, Fraction(x[1]) * 6) / 6):
        assert same == zx
        assert (str(same), repr(same), hash(same)) == (
            str(zx), repr(zx), hash(zx))


@pytest.mark.parametrize("n", [0, 1, -1, 7, -7, 2 ** 70 + 3, -(2 ** 70 + 3)])
def test_integer_qi_hashes_as_the_integer(n):
    assert hash(QI(n)) == hash(n) == hash(Fraction(n))


@pytest.mark.parametrize("re, im", [
    (Fraction(1, 2), 0), (Fraction(-7, 3), 0), (Fraction(2 ** 70 + 3, 5), 0),
    (0, 1), (1, -1), (Fraction(1, 3), Fraction(-2 ** 70 - 3, 7))])
def test_other_qi_hash_as_their_fraction_parts(re, im):
    expected = (hash((Fraction(re), Fraction(im))) if im
                else hash(Fraction(re)))
    assert hash(QI(re, im)) == expected


TRIVIAL_OPERANDS = (QI(0), QI(1), QI(-1), QI(0, 1), 0, 1, Fraction(0),
                    Fraction(1))
MODEL_OPS = (
    (lambda u, v: u + v, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    (lambda u, v: u - v, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    (lambda u, v: u * v, m_mul),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TRIVIAL_OPERANDS), model, st.booleans())
@example(QI(-1), (Fraction(1, 2), 0), True)   # 1/2: numerator 1, not 1
def test_trivial_operands_keep_the_canonical_form(t, y, t_first):
    """A 0 or 1 operand may hand back the other operand itself; the result
    is still a canonical QI, whatever the type of the operand."""
    zy = QI(*y)
    mt = as_pair(t) if isinstance(t, QI) else (Fraction(t), Fraction(0))
    for op, model_op in MODEL_OPS:
        got, want = (op(t, zy), model_op(mt, y)) if t_first else (
            op(zy, t), model_op(y, mt))
        assert type(got) is QI
        assert as_pair(got) == want
        assert got._d > 0 and math.gcd(got._a, got._b, got._d) == 1
        fresh = QI(*want)
        assert (str(got), repr(got), hash(got)) == (
            str(fresh), repr(fresh), hash(fresh))


@settings(max_examples=200, deadline=None)
@given(model, st.one_of(model, model.map(lambda m: (0, m[1]))))
def test_quadratic_roots_come_plus_root_first(x, d):
    """t^2 - tr*t + det with roots r and r + d splits into factors t - r
    in the order of ((-r).re, (-r).im), the order in which lie._classify_d2
    takes its eigenvalues: the larger real part first, then the larger
    imaginary part, which alone decides when d is purely imaginary."""
    r1, r2 = QI(*x), QI(*x) + QI(*d)
    tr, det = r1 + r2, r1 * r2
    unit, factors = factor_unipoly((det, -tr, QI(1)))
    assert unit == 1
    assert [-f[0] for f, _ in factors] == sorted(
        {r1, r2}, key=lambda r: (-r.re, -r.im))
    assert [m for _, m in factors] == ([2] if r1 == r2 else [1, 1])


def test_qi_errors_and_immutability():
    z = QI(Fraction(1, 2), 3)
    for bad in (lambda: z / 0, lambda: z / QI(0), lambda: 1 / QI(0),
                lambda: QI(0) ** -1, lambda: Fraction(1, 3) / QI(0, 0)):
        with pytest.raises(DivisionByZero,
                           match="division by zero Gaussian rational"):
            bad()
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    assert z == QI(Fraction(1, 2), 3)


def value_of(kind):
    "A small value of each value type, by type name."
    s = MultiPoly.var("s")
    g = LieAlgebra([[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
    rep = Representation(g, [Mat.identity(2), Mat.zero(2)])
    return {"QI": QI(2), "MultiPoly": s + 1, "RatFunc": RatFunc(s, s + 1),
            "Mat": Mat([[1, 2], [3, 4]]),
            "Algebra": Algebra([[[1, 0], [0, 1]], [[0, 1], [0, 0]]]),
            "LieAlgebra": g, "Representation": rep,
            "Cocycle": Cocycle(rep, Mat.identity(2))}[kind]


# an exponent each scalar type refuses
BAD_EXPONENT = {"QI": QI(2), "MultiPoly": -1, "RatFunc": 0.5}


@pytest.mark.parametrize("kind", ["QI", "MultiPoly", "RatFunc", "Mat",
                                  "Algebra", "LieAlgebra", "Representation",
                                  "Cocycle"])
def test_operator_fallbacks_and_frozen_values(kind):
    """An operand that no operator can read leaves == False and arithmetic
    a TypeError; every Frozen value refuses attribute assignment, naming its
    class; a Mat or an Algebra, compared by its entries, has no hash."""
    v = value_of(kind)
    assert (v == object()) is False and (object() == v) is False
    if kind in BAD_EXPONENT:
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            for args in ((v, object()), (object(), v)):
                with pytest.raises(TypeError):
                    op(*args)
        with pytest.raises(TypeError):
            v ** BAD_EXPONENT[kind]
    if kind == "Mat":
        assert v != Mat([[1, 2]]) and v != Mat([[1], [3]])
        assert (-v).rows == ((-1, -2), (-3, -4))
    if kind in ("Algebra", "LieAlgebra"):
        assert v != Algebra([[[1]]])
    if kind in ("Mat", "Algebra", "LieAlgebra"):
        with pytest.raises(TypeError, match="unhashable"):
            hash(v)
    if kind != "QI":
        assert isinstance(v, Frozen)
        for name in v._ARGS + ("other",):
            with pytest.raises(AttributeError, match="^%s is immutable$"
                               % kind):
                setattr(v, name, None)
