"""Exact scalar domains.

Three domains arranged in a promotion chain::

    QI (Gaussian rationals)  -->  MultiPoly  -->  RatFunc

Promotion is implicit only upward, through the arithmetic operators: each
operator of MultiPoly and RatFunc is ``_lifted`` to lift the domains below
and leave any other operand to that operand's reflected operator.  Values
are never changed after they are built (each type above QI is ``Frozen``),
so they are safe to share; they copy and pickle.  The parser relies on it:
it keeps the result of each text it has read in a bounded map, its
sequences as tuples, and hands out the stored value again; ``remember``
bounds that map and the package's other one.

A QI, and so every coefficient above it, is three ints (a, b, d) with
value (a + b*i)/d; only ``re``, ``im`` and ``norm2()`` build Fractions.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction

from .errors import (
    DegreeTooHigh,
    DenominatorVanishes,
    DivisionByZero,
    DomainMismatch,
    UnboundVariable,
)


class Frozen:
    """Base of the immutable value types: a subclass sets its slots once, by
    object.__setattr__, and a later assignment raises AttributeError.  A
    value copies and pickles as its class called on its _ARGS attributes."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        return type(self), tuple(getattr(self, a) for a in self._ARGS)


class Record:
    """Base of the mutable result records, whose __init__ sets each field:
    equal when of one type with equal fields, shown as fields, unhashable."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % kv for kv in vars(self).items()))


def remember(store, bound, key, value):
    "store[key] = value, clearing store first if it holds bound keys; value."
    if len(store) >= bound:
        store.clear()
    store[key] = value
    return value


def nonzero_sums(pairs):
    """{key: the sum of the values paired with it} over (key, value) pairs,
    zero sums left out; a key's first value is assigned, not added to 0."""
    out = {}
    for key, v in pairs:
        w = out.get(key)
        out[key] = v if w is None else w + v
    return {key: v for key, v in out.items() if not is_zero(v)}


def _ratio(x):
    "(numerator, denominator) of an int or Fraction."
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise DomainMismatch("not a rational value: %r" % (x,))


class QI:
    """Gaussian rational (a + b*i)/d stored as three ints with d > 0 and
    gcd(a, b, d) = 1, so that equal values have equal triples.  The private
    triple is set once, at construction; ``re`` and ``im`` are read-only and
    read the value as Fractions, as does ``norm2()``.  Each arithmetic
    operation reduces by at most one gcd; one with a 0 or 1 operand returns
    an operand (x + 0 is x, x * 0 the 0), and negation needs no gcd."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:  # over lcm(q, s) the parts share no prime with d
            (p, q), (r, s) = _ratio(re), _ratio(im)
            d = q * s // math.gcd(q, s)
            a, b = p * (d // q), r * (d // s)
        self._a, self._b, self._d = a, b, d

    @property
    def re(self):
        "Real part as a Fraction."
        return Fraction(self._a, self._d)

    @property
    def im(self):
        "Imaginary part as a Fraction."
        return Fraction(self._b, self._d)

    def is_zero(self):
        return not self._a and not self._b

    def norm2(self):
        "re^2 + im^2 as a Fraction."
        return Fraction(self._a ** 2 + self._b ** 2, self._d ** 2)

    def __add__(self, other):
        if type(other) is not QI:
            other = _coerce_qi(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._a and not other._b:
            return self
        if not self._a and not self._b:
            return other
        return _add(self, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QI:
            other = _coerce_qi(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._a and not other._b:
            return self
        if not self._a and not self._b:
            return -other
        return _add(self, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        other = _coerce_qi(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not QI:
            other = _coerce_qi(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        if not b2:
            # a reduced triple with a = d and b = 0 is 1
            if not a2 or not b1 and a1 == self._d:      # x * 0 or 1 * y
                return other
            if a2 == other._d or not a1 and not b1:     # x * 1 or 0 * y
                return self
            return _reduced(a1 * a2, b1 * a2, self._d * other._d)
        if not b1:
            if not a1:                                  # 0 * y
                return self
            if a1 == self._d:                           # 1 * y
                return other
            return _reduced(a1 * a2, a1 * b2, self._d * other._d)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                        self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QI:
            other = _coerce_qi(other)
            if other is NotImplemented:
                return NotImplemented
        return _div(self, other)

    def __rtruediv__(self, other):
        other = _coerce_qi(other)
        if other is NotImplemented:
            return NotImplemented
        return _div(other, self)

    def __neg__(self):
        z = _NEW(QI)
        z._a, z._b, z._d = -self._a, -self._b, self._d
        return z

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return ONE / self ** (-n)
        return _power(self, n, ONE)

    def __eq__(self, other):
        if isinstance(other, QI):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # hash(a) == hash(Fraction(a)), so an integer needs no Fraction
        return hash((self.re, self.im) if self._b else
                    self._a if self._d == 1 else self.re)

    def __repr__(self):
        return "QI(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


_NEW = object.__new__


def _reduced(a, b, d):
    "QI (a + b*i)/d for any d > 0, reduced by one gcd unless d = 1."
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _NEW(QI)
    z._a, z._b, z._d = a, b, d
    return z


def _add(x, a, b, d):
    "x + (a + b*i)/d, for d > 0."
    dx = x._d
    if dx == d:
        return _reduced(x._a + a, x._b + b, d)
    return _reduced(x._a * d + a * dx, x._b * d + b * dx, dx * d)


def _power(base, n, one):
    "base ** n for an int n >= 0, by repeated squaring from one."
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _div(x, y):
    "x / y: x times (a - b*i)/(a^2 + b^2) of y's parts, one gcd."
    a2, b2 = y._a, y._b
    if not b2:
        if not a2:
            raise DivisionByZero("division by zero Gaussian rational")
        s = y._d if a2 > 0 else -y._d
        return _reduced(x._a * s, x._b * s, x._d * abs(a2))
    a1, b1 = x._a * y._d, x._b * y._d
    return _reduced(a1 * a2 + b1 * b2, b1 * a2 - a1 * b2,
                    x._d * (a2 * a2 + b2 * b2))


ZERO = QI(0)
ONE = QI(1)
I_UNIT = QI(0, 1)


def _coerce_qi(x):
    if type(x) is QI:
        return x
    if isinstance(x, (int, Fraction)):
        return _reduced(x.numerator, 0, x.denominator)
    return NotImplemented


def qi(x):
    "Coerce an int/Fraction/QI to QI."
    if type(x) is QI:
        return x
    return QI(x)


def _lifted(op):
    """The binary operator op(self, other) with other lifted by self._lift
    into self's domain; NotImplemented for an operand it cannot lift."""
    def lifted(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return op(self, other)
    return lifted


class MultiPoly(Frozen):
    """Sparse polynomial over Q(i) in a sorted tuple of named variables.

    terms maps exponent tuples (aligned with ``vars``) to nonzero QI
    coefficients.  The monomial order used for printing and leading-term
    queries is lexicographic over the sorted variable list.
    """

    __slots__ = ("vars", "terms")
    _ARGS = __slots__

    def __init__(self, vars=(), terms=None):
        vs = tuple(vars)
        if list(vs) != sorted(vs):
            raise ValueError("variables must be sorted: %r" % (vs,))
        tm = {}
        if terms:
            for exps, c in terms.items():
                c = qi(c)
                if c.is_zero():
                    continue
                if len(exps) != len(vs):
                    raise ValueError("exponent arity mismatch")
                tm[tuple(exps)] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", tm)

    @staticmethod
    def _of(vs, terms):
        """A MultiPoly over the sorted variables vs of terms that are already
        nonzero QIs keyed by exponent tuples aligned with vs."""
        p = _NEW(MultiPoly)
        object.__setattr__(p, "vars", vs)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def const(c, vars=()):
        vs = tuple(sorted(vars))
        return MultiPoly._of(vs, _term_dict(qi(c), vs))

    @staticmethod
    def var(name):
        return MultiPoly((name,), {(1,): ONE})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def const_value(self):
        if not self.is_const():
            raise DomainMismatch("polynomial %s is not constant" % self)
        for c in self.terms.values():
            return c
        return ZERO

    def free_vars(self):
        return {v for exps in self.terms for v, e in zip(self.vars, exps) if e}

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def _aligned(self, other):
        "Rewrite self and other over the union of their variables."
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        vs = tuple(sorted(set(self.vars) | set(other.vars)))
        return vs, _term_dict(self, vs), _term_dict(other, vs)

    def _lift(self, other):
        if isinstance(other, MultiPoly):
            return other
        c = _coerce_qi(other)
        if c is NotImplemented:
            return NotImplemented
        return MultiPoly.const(c, self.vars)

    @_lifted
    def __add__(self, other):
        vs, a, b = self._aligned(other)
        out = dict(a)
        _add_multiple(out, ONE, (0,) * len(vs), b)
        return MultiPoly._of(vs, out)

    __radd__ = __add__

    @_lifted
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly._of(self.vars, {e: -c for e, c in self.terms.items()})

    @_lifted
    def __mul__(self, other):
        vs, a, b = self._aligned(other)
        out = {}
        for e, c in a.items():
            _add_multiple(out, c, e, b)
        return MultiPoly._of(vs, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return _power(self, n, MultiPoly.const(1, self.vars))

    @_lifted
    def __truediv__(self, other):
        if other.is_zero():
            raise DivisionByZero("division by zero polynomial")
        if other.is_const():
            c = other.const_value()
            return MultiPoly._of(self.vars,
                                 {e: v / c for e, v in self.terms.items()})
        return RatFunc(self, other)

    @_lifted
    def __rtruediv__(self, other):
        return other / self

    @_lifted
    def __eq__(self, other):
        _, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        if self.is_const():
            return hash(self.const_value())
        p = self._strip()
        return hash((p.vars, tuple(sorted((e, c.re, c.im)
                                          for e, c in p.terms.items()))))

    def _strip(self):
        "Drop variables that never occur."
        used = self.free_vars()
        if len(used) == len(self.vars):
            return self
        vs = tuple(sorted(used))
        return MultiPoly._of(vs, _term_dict(self, vs))

    def lead(self):
        "(exponents, coefficient) of the lex-leading term."
        if self.is_zero():
            return None
        e = max(self.terms)
        return e, self.terms[e]

    def substitute(self, bindings):
        "Full evaluation; every occurring variable must be bound."
        vals = [qi(bindings[v]) if v in bindings else None for v in self.vars]
        out = ZERO
        for exps, c in self.terms.items():
            term = c
            for val, e in zip(vals, exps):
                if not e:
                    continue
                if val is None:
                    missing = [v for v, x in zip(self.vars, vals) if x is None]
                    raise UnboundVariable("unbound variable(s): %s" % ", ".join(missing))
                term = term * val ** e
            out = out + term
        return out

    def __repr__(self):
        return "MultiPoly(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


class RatFunc(Frozen):
    """Quotient num/den of MultiPolys, den lex-monic; no gcd reduction, but
    a sum over one shared denominator keeps that denominator."""

    __slots__ = ("num", "den")
    _ARGS = __slots__

    def __init__(self, num, den):
        if not isinstance(num, MultiPoly):
            num = MultiPoly.const(num)
        if not isinstance(den, MultiPoly):
            den = MultiPoly.const(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            den = MultiPoly.const(1)
        else:
            _, lead = den.lead()
            if lead != ONE:
                num = num / lead
                den = den / lead
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _lift(self, other):
        if isinstance(other, RatFunc):
            return other
        if not isinstance(other, MultiPoly):
            other = _coerce_qi(other)
            if other is NotImplemented:
                return NotImplemented
        return RatFunc(other, ONE)

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        return self.num.const_value() / self.den.const_value()

    @_lifted
    def __add__(self, other):
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    @_lifted
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    @_lifted
    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, other):
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    @_lifted
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    @_lifted
    def __eq__(self, other):
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        if self.is_const():
            return hash(self.const_value())
        raise TypeError("non-constant RatFunc is unhashable")

    def substitute(self, bindings):
        d = self.den.substitute(bindings)
        if d.is_zero():
            raise DenominatorVanishes(
                "denominator %s vanishes at %s"
                % (self.den, {k: str(qi(v)) for k, v in bindings.items()}))
        return self.num.substitute(bindings) / d

    def __repr__(self):
        return "RatFunc(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


Scalar = (QI, MultiPoly, RatFunc)


def as_scalar(x):
    "Coerce python ints/Fractions to QI; pass scalars through."
    if type(x) is QI or isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QI(x)
    raise DomainMismatch("cannot interpret %r as a scalar" % (x,))


def is_zero(x):
    if type(x) is QI:
        return not x._a and not x._b
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


def substitute(p, bindings):
    "Evaluate a MultiPoly or RatFunc at Gaussian-rational bindings."
    p = as_scalar(p)
    if isinstance(p, QI):
        return p
    return p.substitute(bindings)


# ---------------------------------------------------------------------------
# Sparse polynomial terms.  A term dict {exponents: QI} holds the nonzero
# coefficients of a polynomial over one variable order, each exponent tuple
# aligned with it; MultiPoly keeps one over its sorted variables, groebner
# over its monomial order.


def _term_dict(p, vs):
    """A QI or MultiPoly as a new term dict over the variables vs, which
    hold every variable that occurs in p."""
    if isinstance(p, QI):
        return {(0,) * len(vs): p} if not p.is_zero() else {}
    if p.vars == vs:
        return dict(p.terms)
    # position of each variable of vs in p's exponents; -1 reads the 0
    # appended for a variable that p lacks
    pick = [p.vars.index(v) if v in p.vars else -1 for v in vs]
    out = {}
    for e, c in p.terms.items():
        e += (0,)
        out[tuple([e[i] for i in pick])] = c
    return out


def _add_multiple(f, c, shift, g):
    "f += c * x^shift * g on term dicts over one order, in place; c != 0."
    moved = any(shift)
    for e, x in g.items():
        if moved:
            e = tuple(map(operator.add, e, shift))
        if c is not ONE:
            x = c * x
        v = f.get(e)
        if v is None:
            f[e] = x
        else:
            v = v + x
            if v.is_zero():
                del f[e]
            else:
                f[e] = v


# ---------------------------------------------------------------------------
# Gröbner bases over Q(i) in the lex order, on term dicts whose variable
# order puts the largest variable first, so that tuple comparison is the
# lex order.

# S-pairs one basis may reduce before groebner() gives up; the catalog's
# isomorphism systems need a few hundred at most.
GROEBNER_MAX_PAIRS = 2000


def _divides(m, n):
    return all(map(operator.le, m, n))


def _normal_form(f, basis):
    "The remainder of the term dict f on division by (lm, monic g) pairs."
    out = {}
    while f:
        m = max(f)
        for lm, g in basis:
            if _divides(lm, m):
                _add_multiple(f, -f[m], tuple(map(operator.sub, m, lm)), g)
                break
        else:
            out[m] = f.pop(m)
    return out


def groebner(polys, order):
    """The reduced Gröbner basis over Q(i) of the ideal that the polynomials
    (QIs or MultiPolys in the variables of ``order``) generate, in the lex
    order order[0] > order[1] > ...

    Each element is a monic term dict {exponents: QI}, exponents aligned
    with ``order``, and the list is sorted by leading monomial, so the unit
    ideal is [{(0, ..., 0): 1}].  Buchberger's algorithm drops an input
    that repeats an earlier one and takes the S-pair with the smallest lcm
    first.  It never queues a pair whose leading monomials are coprime
    (Buchberger's first criterion), and it skips a pair (i, j) when another
    leading monomial lm_k divides its lcm and the pairs (i, k) and (j, k)
    are treated, that is, not queued (the chain criterion).  Returns None
    once GROEBNER_MAX_PAIRS S-pairs are reduced and another is due."""
    order = tuple(order)
    one = (0,) * len(order)
    basis, pairs = [], []   # (lm, monic g); heap of (lcm, i, j), i < j
    queued = set()          # the (i, j) in pairs

    def add(f):
        "Reduce f and add it to the basis; True when it is a constant."
        f = _normal_form(f, basis)
        if not f:
            return False
        lm = max(f)
        c = f[lm]
        k = len(basis)
        for i, (lg, _) in enumerate(basis):
            if any(a and b for a, b in zip(lg, lm)):
                heapq.heappush(pairs, (tuple(map(max, lg, lm)), i, k))
                queued.add((i, k))
        basis.append((lm, {e: x / c for e, x in f.items()}))
        return lm == one

    def chained(lcm, i, j):
        "The chain criterion holds for the pair (i, j) with this lcm."
        return any(k != i and k != j and _divides(lk, lcm)
                   and (min(i, k), max(i, k)) not in queued
                   and (min(j, k), max(j, k)) not in queued
                   for k, (lk, _) in enumerate(basis))

    unit = [{one: ONE}]
    seen = set()
    for p in polys:
        f = _term_dict(p, order)
        key = frozenset(f.items())
        if key not in seen:
            seen.add(key)
            if add(f):
                return unit
    reduced = 0
    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        queued.discard((i, j))
        if chained(lcm, i, j):
            continue
        if reduced == GROEBNER_MAX_PAIRS:
            return None
        reduced += 1
        if add(_s_polynomial(lcm, basis[i], basis[j])):
            return unit
    # add() reduced each element by the earlier ones, so an element is
    # redundant exactly when a later leading monomial divides its own
    minimal = [(lm, g) for k, (lm, g) in enumerate(basis)
               if not any(_divides(l2, lm) for l2, _ in basis[k + 1:])]
    return sorted((_normal_form(dict(g), [h for h in minimal if h[0] != lm])
                   for lm, g in minimal), key=max)


def _s_polynomial(lcm, gi, gj):
    "The S-polynomial of two (lm, monic g) basis elements with this lcm."
    (li, fi), (lj, fj) = gi, gj
    s = {}
    _add_multiple(s, ONE, tuple(map(operator.sub, lcm, li)), fi)
    _add_multiple(s, -ONE, tuple(map(operator.sub, lcm, lj)), fj)
    return s


# ---------------------------------------------------------------------------
# univariate polynomials over QI: dense low-to-high QI coefficient tuples


def _up_trim(co):
    "The QI coefficients co without their trailing zeros, as a tuple."
    co = tuple(co)
    n = len(co)
    while n and co[n - 1].is_zero():
        n -= 1
    return co[:n]


def _up_divmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, by one pass of long
    division; a and b are trimmed and b is nonzero."""
    nb, lb = len(b), b[-1]
    r = list(a)
    q = [ZERO] * max(len(a) - nb + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + nb - 1] / lb
        for i in range(nb - 1):
            r[k + i] = r[k + i] - c * b[i]
    return tuple(q), _up_trim(r[:nb - 1])


def _up_gcd(a, b):
    """A greatest common divisor of the trimmed a and b: Euclid's last
    nonzero remainder."""
    while b:
        a, b = b, _up_divmod(a, b)[1]
    return a


def _up_deflate(co, r):
    """(q, co(r)) with co = (t - r)*q + co(r), by synthetic division: Horner's
    partial sums are the coefficients of q, and the last one is co(r)."""
    acc, q = ZERO, []
    for c in reversed(co):
        acc = acc * r + c
        q.append(acc)
    rem = q.pop()
    return tuple(reversed(q)), rem


# ---------------------------------------------------------------------------
# root finding over Q(i), and factorization of degree <= 3


def _clear_to_gaussian_integers(co):
    "Scale QI coefficients by their common denominator; returns int pairs."
    lcm = math.lcm(*(c._d for c in co))
    return [(c._a * (lcm // c._d), c._b * (lcm // c._d)) for c in co]


def _gi_mul(x, y):
    "Product of two Gaussian integers given as int pairs."
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_eval_mod(co, x, m):
    "Value mod m at x of a polynomial with Gaussian integer pair coefficients."
    a, b = x
    re, im = 0, 0
    for cr, ci in reversed(co):
        re, im = (re * a - im * b + cr) % m, (re * b + im * a + ci) % m
    return re, im


def _inert_primes():
    "The primes p = 3 (mod 4), increasing; each stays prime in Z[i]."
    p = 3
    while True:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 4


def _simple_roots_mod(g, dg, p):
    "The roots of g in (Z/p)[i], or None if one of them is a multiple root."
    out = []
    for x in ((a, b) for a in range(p) for b in range(p)):
        if _gi_eval_mod(g, x, p) == (0, 0):
            if _gi_eval_mod(dg, x, p) == (0, 0):
                return None
            out.append(x)
    return out


def _newton_lift(g, dg, x, p, bound):
    """Lift a simple root x of g mod the inert prime p to the Gaussian
    integer it approximates mod p^(2^k) > 2*bound, parts read symmetrically."""
    a, b = x
    m = p
    while m <= 2 * bound:
        m *= m
        fr, fi = _gi_eval_mod(g, (a, b), m)
        dr, di = _gi_eval_mod(dg, (a, b), m)
        # p is inert, so dr+di*i is a unit mod p^k iff its norm is
        inv = pow(dr * dr + di * di, -1, m)
        a = (a - (fr * dr + fi * di) * inv) % m
        b = (b - (fi * dr - fr * di) * inv) % m
    half = m // 2
    return (a - m if a > half else a), (b - m if b > half else b)


def qi_roots(co):
    """All roots in Q(i) of a univariate polynomial of any degree, given by
    its int, Fraction or QI coefficients low to high, sorted by (re, im),
    without multiplicities.

    A linear c0 + c1*t has the one root -c0/c1.  Above degree 1, Loos's
    p-adic method over Z[i]: after t^k is split off and f is divided
    by gcd(f, f'), its coefficients are cleared to Gaussian integers c_k and
    s = c_n*t makes it monic with coefficients c_k*c_n^(n-1-k).  Its roots
    in Q(i) are Gaussian integers (Z[i] is integrally closed) of modulus at
    most the Cauchy bound B.  At the first prime p = 3 (mod 4) where all its
    roots mod p are simple, each root in (Z/p)[i] is Newton-lifted until
    p^(2^k) > 2B, read back as t = s/c_n, and kept only if the input
    polynomial vanishes there exactly.  No integer is factored, so the time
    is polynomial in the bit length of the coefficients."""
    co = _up_trim(map(qi, co))
    if len(co) == 2:
        return [-co[0] / co[1]]
    if len(co) <= 1:
        return []
    roots = []
    # factor out powers of t
    k = 0
    while co[k].is_zero():
        k += 1
    if k:
        roots.append(ZERO)
        co = co[k:]
    if len(co) <= 1:
        return roots
    sqfree = co
    gcd = _up_gcd(co, tuple(c * j for j, c in enumerate(co))[1:])
    if len(gcd) > 1:
        sqfree = _up_divmod(co, gcd)[0]
    ints = _clear_to_gaussian_integers(sqfree)
    n, lead = len(ints) - 1, ints[-1]
    g, pw = [(1, 0)] * (n + 1), (1, 0)
    for j in range(n - 1, -1, -1):
        g[j] = _gi_mul(ints[j], pw)
        pw = _gi_mul(pw, lead)
    dg = [(j * a, j * b) for j, (a, b) in enumerate(g)][1:]
    bound = 1 + max(abs(a) + abs(b) for a, b in g[:-1])
    for p in _inert_primes():
        residues = _simple_roots_mod(g, dg, p)
        if residues is not None:
            break
    zlead = QI(*lead)
    for x in residues:
        t = QI(*_newton_lift(g, dg, x, p, bound)) / zlead
        if _up_deflate(co, t)[1].is_zero():
            roots.append(t)
    keys = _clear_to_gaussian_integers(roots)
    return [z for _, z in sorted(zip(keys, roots), key=lambda kz: kz[0])]


def factor_unipoly(co):
    """Factor a polynomial of degree <= 3, given as for qi_roots, into monic
    irreducibles: the roots in Q(i) with their multiplicities, then what is
    left, which has degree 0, 2 or 3 and no root in Q(i), so it is
    irreducible.

    Returns (unit, [(coeffs, multiplicity), ...]) with unit * prod = input.
    The linear factors t - r, as (-r, 1), come first in the order of
    ((-r).re, (-r).im), then the irreducible one."""
    co = _up_trim(map(qi, co))
    if not co:
        raise DivisionByZero("cannot factor the zero polynomial")
    if len(co) > 4:
        raise DegreeTooHigh("degree %d > 3" % (len(co) - 1))
    unit = co[-1]
    co = tuple(c / unit for c in co)
    factors = []
    for r in qi_roots(co):
        mult = 0
        while True:
            q, rem = _up_deflate(co, r)
            if not rem.is_zero():
                break
            co = q
            mult += 1
        if mult:
            factors.append(((-r, ONE), mult))
    if len(co) > 1:
        factors.append((co, 1))
    factors.sort(key=lambda fm: (len(fm[0]), [(c.re, c.im) for c in fm[0]]))
    return unit, factors


# ---------------------------------------------------------------------------
# printing and parsing of the shared scalar literal syntax


def format_qi(z):
    "Canonical text for a QI; parseable by parse_scalar."
    re, im = z.re, z.im
    if im == 0:
        return str(re)
    ims = "i" if im == 1 else "-i" if im == -1 else "%s*i" % im
    if re == 0:
        return ims
    return "%s%s%s" % (re, "" if ims.startswith("-") else "+", ims)


def _format_monomial(vars, exps):
    parts = []
    for v, e in zip(vars, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append("%s^%d" % (v, e))
    return "*".join(parts)


def format_multipoly(p):
    items = sorted(p.terms.items(), key=lambda t: t[0], reverse=True)
    return format_sum([(c, _format_monomial(p.vars, exps)) for exps, c in items])


def format_sum(terms, spaced=False):
    """Text of a sum of (coefficient, name) terms, name "" for a constant.
    A coefficient 1 or -1 leaves the bare name (or its negation); any other
    coefficient with a sign inside or a '/' is parenthesized.  Terms read
    'c*name' joined by '+', or with spaced=True 'c name' joined by ' + '
    (a negative term by ' ')."""
    mul, plus, minus = (" ", " + ", " ") if spaced else ("*", "+", "")
    out = ""
    for c, name in terms:
        s = format_scalar(c)
        if not name:
            piece = s
        elif s == "1":
            piece = name
        elif s == "-1":
            piece = "-" + name
        else:
            if "+" in s[1:] or "-" in s[1:] or "/" in s:
                s = "(%s)" % s
            piece = s + mul + name
        if out:
            out += minus if piece.startswith("-") else plus
        out += piece
    return out or "0"


def format_scalar(s):
    s = as_scalar(s)
    if isinstance(s, QI):
        return format_qi(s)
    if isinstance(s, MultiPoly):
        return format_multipoly(s)
    if s.den == 1:                  # s is a RatFunc
        return format_multipoly(s.num)
    return "(%s)/(%s)" % (format_multipoly(s.num), format_multipoly(s.den))


class _Tok:
    __slots__ = ("kind", "val", "pos", "space")

    def __init__(self, kind, val, pos, space):
        self.kind = kind
        self.val = val
        self.pos = pos
        self.space = space  # whitespace comes right before the token

    def __str__(self):
        "The token as an error message names it."
        return "end of text" if self.kind == "end" else "token %r" % (self.val,)


def _tokenize(text):
    "The tokens of text, then an 'end' token."
    toks = []
    n = len(text)
    k = 0
    space = False
    while k < n:
        ch = text[k]
        j = k + 1
        if ch.isspace():
            space = True
            k = j
            continue
        if ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            kind, val = "int", int(text[k:j])
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind, val = "name", text[k:j]
        elif ch in "+-*/^()[],":
            kind = val = ch
        else:
            raise UnboundVariable("unexpected character %r" % ch, k)
        toks.append(_Tok(kind, val, k, space))
        space = False
        k = j
    toks.append(_Tok("end", None, n, space))
    return toks


# The parser refuses an operation whose result would outgrow these bounds,
# so that a short literal such as ((3+2*i)^300)^300, or a product or a sum
# of fractions of a dozen binomials, cannot take time exponential in its
# length; and text nested deeper than _MAX_DEPTH, before its recursion
# outgrows Python's stack.  The shipped data use exponents up to 8.
_MAX_BITS = 4096      # bits of each part of a Gaussian rational
_MAX_DEPTH = 100      # open parentheses and unary minus signs at once
_MAX_DEGREE = 64      # total degree of a polynomial
_MAX_TERMS = 1000     # terms of a polynomial
_OPERATION = {"+": "sum", "-": "difference", "*": "product", "/": "quotient"}
_UNIT_SIZE = (0, 1, 0)  # the _size of the constant 1


def _growth(c):
    "Twice the bits one factor of c adds to the parts of a product."
    return max((c._a ** 2 + c._b ** 2 - 1).bit_length(),
               2 * (c._d - 1).bit_length())


def _size(x):
    "(total degree, terms, largest growth) of a QI or a polynomial."
    if type(x) is QI:
        return 0, 1, _growth(x)
    return (x.total_degree(), max(len(x.terms), 1),
            max(map(_growth, x.terms.values()), default=0))


def _parts(x):
    "Sizes of the numerator and of the denominator of a parsed value."
    if isinstance(x, RatFunc):
        return _size(x.num), _size(x.den)
    return _size(x), _UNIT_SIZE


def _check_size(what, p, q=_UNIT_SIZE, e=1):
    """UnboundVariable unless (pq)^e, for polynomials of sizes p and q,
    stays within the bounds."""
    if (e * (p[0] + q[0]) > _MAX_DEGREE
            or math.comb(p[1] + e - 1, e) * math.comb(q[1] + e - 1, e)
            > _MAX_TERMS):
        raise UnboundVariable("%s exceeds degree %d or %d terms"
                              % (what, _MAX_DEGREE, _MAX_TERMS))
    if e * (p[2] + q[2]) > 2 * _MAX_BITS:
        raise UnboundVariable("%s exceeds %d bits" % (what, _MAX_BITS))


def _check_power_size(base, e):
    "UnboundVariable unless base^e (or base^-e) stays within the bounds."
    for size in _parts(base):
        _check_size("power ^%d" % e, size, e=e)


def _check_operation_size(op, x, y):
    """UnboundVariable unless the products of numerators and denominators
    that x op y forms stay within the bounds."""
    (xn, xd), (yn, yd) = _parts(x), _parts(y)
    if op == "*":
        pairs = ((xn, yn), (xd, yd))
    elif op == "/":
        pairs = ((xn, yd), (xd, yn))
    else:
        pairs = ((xn, yd), (yn, xd), (xd, yd))
    for p, q in pairs:
        _check_size(_OPERATION[op], p, q)


class _Parser:
    def __init__(self, toks, vars):
        self.toks = toks
        self.k = 0
        self.vars = vars
        self.used = set()   # the names read as parameters
        self.depth = 0      # '(' and unary '-' entered and not yet left

    def peek(self):
        return self.toks[self.k]

    def nested(self, parse):
        "parse() after a '(' or a unary '-', at most _MAX_DEPTH levels deep."
        t = self.take()
        if self.depth == _MAX_DEPTH:
            raise UnboundVariable("nested deeper than %d parentheses or signs"
                                  % _MAX_DEPTH, t.pos)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def take(self, kind=None):
        t = self.toks[self.k]
        if kind and t.kind != kind:
            raise UnboundVariable("expected %s, got %s" % (
                "end of text" if kind == "end" else kind, t), t.pos)
        self.k += 1
        return t

    def parse_expr(self):
        out = self.parse_term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.parse_term()
            _check_operation_size(op, out, rhs)
            out = out + rhs if op == "+" else out - rhs
        return out

    def parse_term(self, basis=None):
        """factor (('*' | '/') factor)*.  Given basis names, a coefficient:
        powers with no sign outside parentheses, ending before a '*' that a
        basis name follows."""
        factor = self.parse_factor if basis is None else self.parse_power
        out = factor()
        while (self.peek().kind in "*/"
               and self.toks[self.k + 1].val not in (basis or ())):
            op = self.take().kind
            rhs = factor()
            _check_operation_size(op, out, rhs)
            out = out * rhs if op == "*" else out / rhs
        return out

    def parse_factor(self):
        if self.peek().kind == "-":
            return -self.nested(self.parse_factor)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind != "^":
            return base
        self.take()
        neg = self.peek().kind == "-" and self.take()
        e = self.take("int").val
        _check_power_size(base, e)
        return ONE / base ** e if neg else base ** e

    def parse_atom(self):
        t = self.peek()
        if t.kind == "int":
            self.take()
            return QI(t.val)
        if t.kind == "name":
            self.take()
            if t.val == "i":
                return I_UNIT
            if self.vars is not None and t.val not in self.vars:
                raise UnboundVariable("unknown name %r" % t.val)
            self.used.add(t.val)
            return MultiPoly.var(t.val)
        if t.kind == "(":
            out = self.nested(self.parse_expr)
            self.take(")")
            return out
        raise UnboundVariable("unexpected %s" % t, t.pos)

    def parse_combination(self, basis):
        """term (('+' | '-') term)* with the first term's sign optional, as
        one coefficient per name of basis.  A term is [coefficient] name,
        '*' or whitespace between the two."""
        out = [ZERO] * len(basis)
        sign = self.take().kind if self.peek().kind in "+-" else "+"
        while True:
            coeff = ONE
            if self.peek().val not in basis:
                coeff = self.parse_term(basis)
                if self.peek().kind == "*":
                    self.take()
                elif self.peek().val in basis and not self.peek().space:
                    raise UnboundVariable("expected whitespace or * before %s"
                                          % self.peek().val, self.peek().pos)
            t = self.take()
            if t.val not in basis:
                raise UnboundVariable("expected one of %s, got %s"
                                      % (", ".join(basis), t), t.pos)
            k = basis.index(t.val)
            out[k] = out[k] + (coeff if sign == "+" else -coeff)
            if self.peek().kind not in "+-":
                return tuple(out)
            sign = self.take().kind

    def parse_rows(self):
        "'[' row (',' row)* ']', a row being '[' expr (',' expr)* ']'."
        return self.parse_list(lambda: self.parse_list(self.parse_expr))

    def parse_list(self, item):
        "'[' item (',' item)* ']' as a tuple."
        self.take("[")
        out = [item()]
        while self.peek().kind == ",":
            self.take()
            out.append(item())
        self.take("]")
        return tuple(out)


# (result, names it reads as parameters) by (rule, text, args).  A hit
# whose names are not all allowed parses again, to raise; a failed parse is
# not stored.  Cleared when full; import and load_catalog store 256 keys.
_PARSED = {}
_PARSED_MAX = 512


def _parse(text, vars, rule, *args):
    """rule(*args) on the tokens of text, which it must read to the end;
    a text read before gives the value stored then."""
    key = (rule, text, args)
    hit = _PARSED.get(key)
    if hit is None or not (vars is None or hit[1].issubset(vars)):
        p = _Parser(_tokenize(text), set(vars) if vars is not None else None)
        out = rule(p, *args)
        p.take("end")
        hit = remember(_PARSED, _PARSED_MAX, key, (out, frozenset(p.used)))
    return hit[0]


def parse_scalar(text, vars=None):
    """Parse the shared scalar literal syntax.

    vars: optional collection of allowed parameter names; None allows any
    name.  'i' is always the imaginary unit.
    """
    return _parse(text, vars, _Parser.parse_expr)


def parse_combination(text, basis, vars=None):
    """Coefficients, one per name of basis, of a linear combination
    '[+|-] [c] e1 + [c] e2 - ...' over those names; the text 0 alone is
    the zero vector.  A coefficient c is a product or quotient of powers of
    the scalar syntax, signed only inside parentheses, and '*' or
    whitespace separates it from its name; a repeated name sums."""
    if text.strip() == "0":
        return (ZERO,) * len(basis)
    if not text.strip():
        raise UnboundVariable("empty linear combination; zero is 0")
    return _parse(text, vars, _Parser.parse_combination, tuple(basis))


def parse_rows(text, vars=None):
    "The rows of a bracketed matrix '[[x, ...], ...]' as tuples of scalars."
    return _parse(text, vars, _Parser.parse_rows)
