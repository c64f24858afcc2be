"""scalars.groebner against sympy on the isomorphism systems.

search_lsa_iso decides each component of the stored automorphism group
by whether the homomorphism equations plus det*z - 1 have the reduced lex
basis {1}.  sympy computes the same reduced basis independently; both are
run on an entry against a random rebase of itself and on two entries of
one Lie class, in the template's variable order and its reverse."""

import pytest

from lsacat import catalog, iso
from lsacat.algebra import commutator_lie, rebase
from lsacat.lie import aut_components, aut_template, classify3
from lsacat.linalg import Mat
from lsacat.scalars import _term_dict, groebner

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def canonical(a):
    "(Lie class, table rebased onto the canonical Lie table)."
    c = classify3(commutator_lie(a))
    return c, rebase(a, c.witness)


def stored_samples():
    out = {}
    for e in catalog.load_catalog().values():
        a = catalog.instantiate(e.id, e.sample_bindings()[0])
        c, _ = canonical(a)
        if aut_components(c.tag, c.param):
            out[e.id] = (a, c.key())
    return out


SAMPLES = stored_samples()
IDS = sorted(SAMPLES)


def coeff(c):
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


def expr(terms, names, gens):
    "A term dict whose exponents follow names, as a sympy expression."
    return sympy.expand(sympy.Add(*[
        coeff(c) * sympy.Mul(*[gens[v] ** e for v, e in zip(names, exps)])
        for exps, c in terms.items()]))


def check_components(a, b):
    ca, a2 = canonical(a)
    cb, b2 = canonical(b)
    assert ca.key() == cb.key()
    for comp in aut_components(ca.tag, ca.param):
        names, template = aut_template(comp)
        eqs = iso._hom_equations(a2, b2, names, template)
        for order in (("z",) + names, ("z",) + names[::-1]):
            gens = {v: sympy.Symbol(v) for v in order}
            ours = groebner(eqs, order)
            theirs = sympy.groebner(
                [expr(_term_dict(p, order), order, gens) for p in eqs],
                *[gens[v] for v in order], order="lex", domain=sympy.QQ_I)
            unit = not any(max(ours[0]))
            assert unit == (list(theirs.exprs) == [1]), (comp, order)
            # reduced bases are unique, so the elements agree as well
            assert ({expr(g, order, gens) for g in ours}
                    == {sympy.expand(x) for x in theirs.exprs}), (comp, order)


small_mats = st.lists(st.integers(-2, 2), min_size=9, max_size=9).map(
    lambda xs: Mat([xs[0:3], xs[3:6], xs[6:9]])).filter(
    lambda t: t.det() != 0)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(IDS), small_mats)
def test_rebased_entry_matches_sympy(eid, t):
    a = SAMPLES[eid][0]
    check_components(a, rebase(a, t))


SAME_CLASS = [(x, y) for x in IDS for y in IDS
              if x < y and SAMPLES[x][1] == SAMPLES[y][1]]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SAME_CLASS))
def test_entries_of_one_lie_class_match_sympy(pair):
    check_components(SAMPLES[pair[0]][0], SAMPLES[pair[1]][0])
