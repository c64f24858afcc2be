"""MultiPoly arithmetic against sympy.

The sum, difference, product, power, equality and hash of MultiPolys are
checked against sympy.expand on the same polynomials.  The operands range
over the variable sets (), {l}, {m} and {l, m}, and a polynomial may carry a
variable whose exponent is always 0, so that realignment onto the union of
the variables and the dropping of unused ones (_strip) are both exercised."""

from fractions import Fraction

import pytest

from lsacat.scalars import QI, MultiPoly

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

GENS = {"l": sympy.Symbol("l"), "m": sympy.Symbol("m")}

small = st.integers(-3, 3)
coeffs = st.builds(lambda a, b, d: QI(Fraction(a, d), Fraction(b, d)),
                   small, small, st.integers(1, 3))


@st.composite
def polys(draw):
    """A MultiPoly whose variables are a subset of (l, m); only the used
    ones carry nonzero exponents, so any other declared one stays at 0."""
    vs = draw(st.sampled_from([(), ("l",), ("m",), ("l", "m")]))
    used = draw(st.sets(st.sampled_from(vs))) if vs else set()
    exps = st.tuples(*[st.integers(0, 3) if v in used else st.just(0)
                       for v in vs])
    return MultiPoly(vs, draw(st.dictionaries(exps, coeffs, max_size=4)))


def expr(p):
    "A MultiPoly as a sympy expression."
    return sympy.expand(sympy.Add(*[
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        * sympy.Mul(*[GENS[v] ** e for v, e in zip(p.vars, exps)])
        for exps, c in p.terms.items()]))


def same(p, x):
    "p is the polynomial x, and its terms are a valid MultiPoly's."
    assert list(p.vars) == sorted(p.vars)
    assert all(len(e) == len(p.vars) and not c.is_zero()
               for e, c in p.terms.items())
    return sympy.expand(expr(p) - x) == 0


@settings(max_examples=200, deadline=None)
@given(polys(), polys())
def test_ring_operations_match_sympy(p, q):
    x, y = expr(p), expr(q)
    assert same(p + q, x + y)
    assert same(p - q, x - y)
    assert same(p * q, x * y)
    assert same(-p, -x)


@settings(max_examples=100, deadline=None)
@given(polys(), st.integers(0, 3))
def test_power_matches_sympy(p, n):
    assert same(p ** n, expr(p) ** n)


@settings(max_examples=200, deadline=None)
@given(polys(), polys())
def test_equality_and_hash_match_sympy(p, q):
    equal = sympy.expand(expr(p) - expr(q)) == 0
    assert (p == q) == equal
    if equal:
        assert hash(p) == hash(q)
    # the same value over the other variables is equal and hashes alike
    r = p + q - q
    assert r == p and hash(r) == hash(p)
    if p.is_const():
        assert p == p.const_value() and hash(p) == hash(p.const_value())
