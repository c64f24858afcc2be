"""scalars.groebner against sympy on the isomorphism systems.

search_lsa_iso decides each component of the stored automorphism group
by whether the homomorphism equations plus det*z - 1 have the reduced lex
basis {1}.  sympy computes the same reduced basis independently; both are
run on an entry against a random rebase of itself, on two entries of one
Lie class, in the template's variable order and its reverse, and on every
system that one search cycle of the benchmark builds."""

import functools
import importlib.util
import os

import pytest

from lsacat import catalog, iso, scalars
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


def check_system(eqs, order, label):
    "groebner(eqs, order) is sympy's reduced lex basis; returns it."
    gens = {v: sympy.Symbol(v) for v in order}
    ours = groebner(eqs, order)
    theirs = sympy.groebner(
        [expr(_term_dict(p, order), order, gens) for p in eqs],
        *[gens[v] for v in order], order="lex", domain=sympy.QQ_I)
    unit = not any(max(ours[0]))
    assert unit == (list(theirs.exprs) == [1]), label
    # reduced bases are unique, so the elements agree as well
    assert ({expr(g, order, gens) for g in ours}
            == {sympy.expand(x) for x in theirs.exprs}), label
    return ours


def check_components(a, b):
    ca, a2 = canonical(a)
    cb, b2 = canonical(b)
    assert ca.key() == cb.key()
    for comp in aut_components(ca.tag, ca.param):
        names = aut_template(comp)[0]
        eqs = iso._hom_equations(a2, b2, comp)
        for order in (("z",) + names, ("z",) + names[::-1]):
            check_system(eqs, order, (comp, order))


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


def load_inputs():
    "perfbench/inputs.py, which draws the benchmark's search pairs."
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def search_cycle_systems():
    """[(equations, order)] of every groebner call in one cycle of the
    benchmark's search workload at seed 1: search_lsa_iso(a, rebase(a, T))
    for each entry's first sample."""
    cat = catalog.load_catalog()
    systems = []
    original = iso.groebner
    iso.groebner = lambda eqs, order: (systems.append((list(eqs), order))
                                       or original(eqs, order))
    try:
        for eid, rows in load_inputs().search_cases(list(cat), 1):
            a = catalog.instantiate(eid, cat[eid].sample_bindings()[0])
            assert iso.search_lsa_iso(a, rebase(a, Mat(rows))).is_isomorphic
    finally:
        iso.groebner = original
    return systems


def test_search_cycle_systems_match_sympy():
    """Each of the 83 systems is sympy's reduced basis, and so is the same
    system with its inputs reversed and repeated, which groebner drops."""
    systems = search_cycle_systems()
    assert len(systems) == 83
    for k, (eqs, order) in enumerate(systems):
        ours = check_system(eqs, order, k)
        assert groebner(eqs[::-1] + eqs, order) == ours, k


def test_search_cycle_groebner_work_is_pinned(monkeypatch):
    """The pairs and reductions groebner spends on the 83 systems, counted
    with no clock: the repeated inputs and the chain criterion each cut
    them, so losing either changes a total."""
    counts = {"inputs": 0, "normal_forms": 0, "zero": 0, "s_pairs": 0}
    normal_form, s_polynomial = scalars._normal_form, scalars._s_polynomial

    def counted_normal_form(f, basis):
        counts["normal_forms"] += 1
        out = normal_form(f, basis)
        counts["zero"] += not out
        return out

    def counted_s_polynomial(*args):
        counts["s_pairs"] += 1
        return s_polynomial(*args)

    systems = search_cycle_systems()
    monkeypatch.setattr(scalars, "_normal_form", counted_normal_form)
    monkeypatch.setattr(scalars, "_s_polynomial", counted_s_polynomial)
    for eqs, order in systems:
        counts["inputs"] += len(eqs)
        groebner(eqs, order)
    assert counts == {"inputs": 691, "normal_forms": 1255, "zero": 391,
                      "s_pairs": 420}
