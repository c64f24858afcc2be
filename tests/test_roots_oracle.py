"""Roots and factors over Q(i) checked against sympy's factorization over
Q(i) (factor_list over the algebraic field QQ<I>, as factor_list with
extension=I computes it), on random polynomials of degree <= 4 built from
linear factors (some repeated) and random quadratics: the roots at every
degree, the factors at degree <= 3, which is what factor_unipoly takes."""

from fractions import Fraction

import pytest

from lsacat.scalars import QI, factor_unipoly, qi_roots

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

T = sympy.Symbol("t")

parts = st.one_of(
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
    st.integers(-10 ** 12, 10 ** 12).map(Fraction))
gaussian = st.builds(QI, parts, parts)
nonzero = gaussian.filter(lambda z: not z.is_zero())


@st.composite
def polynomials(draw):
    "Coefficients, low to high, of c * product of linear and quadratic factors."
    degree = draw(st.integers(1, 4))
    co = (draw(nonzero),)
    roots = []
    while len(co) - 1 < degree:
        if degree - (len(co) - 1) >= 2 and draw(st.booleans()):
            factor = (draw(gaussian), draw(gaussian), QI(1))
        else:
            if roots and draw(st.booleans()):
                r = draw(st.sampled_from(roots))
            else:
                r = draw(gaussian)
                roots.append(r)
            factor = (-r, QI(1))
        co = multiply(co, factor)
    return co


def multiply(a, b):
    out = [QI(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


# Q(i) as sympy's algebraic field QQ<I>; an element a + b*I is K([b, a]).
# Building the polynomial over K directly, rather than from an expression
# with extension=I, skips a per-coefficient field conversion that costs
# more than the factorization itself.
K = sympy.QQ.algebraic_field(sympy.I)


def to_sympy(z):
    return K([sympy.QQ(z.im.numerator, z.im.denominator),
              sympy.QQ(z.re.numerator, z.re.denominator)])


def from_sympy(c):
    parts = [Fraction(int(x.numerator), int(x.denominator))
             for x in c.to_list()]
    parts = [Fraction(0)] * (2 - len(parts)) + parts
    return QI(parts[1], parts[0])


def monic_factors(co):
    "sympy's irreducible factors over Q(i), monic, as (coefficients, mult)."
    poly = sympy.Poly.from_list([to_sympy(c) for c in reversed(co)], T,
                                domain=K)
    out = []
    for f, m in poly.factor_list()[1]:
        coeffs = f.monic().rep.to_list()
        out.append((tuple(from_sympy(c) for c in reversed(coeffs)), m))
    return sorted(out, key=key)


def key(fm):
    return len(fm[0]), [(c.re, c.im) for c in fm[0]], fm[1]


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_roots_and_factors_match_sympy(co):
    expected = monic_factors(co)
    roots = {-f[0] for f, _ in expected if len(f) == 2}
    got = qi_roots(co)
    assert len(got) == len(set(got))
    assert set(got) == roots
    if len(co) > 4:
        return

    unit, factors = factor_unipoly(co)
    assert sorted(factors, key=key) == expected
    prod = (unit,)
    for f, m in factors:
        for _ in range(m):
            prod = multiply(prod, f)
    assert prod == co
