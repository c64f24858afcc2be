import random
from fractions import Fraction

import pytest

from lsacat import catalog, iso, props, scalars
from lsacat.algebra import Algebra, commutator_lie, hom_defects, rebase
from lsacat.errors import DimensionMismatch, LsaError, SingularWitness
from lsacat.iso import search_lsa_iso, verify_lsa_iso
from lsacat.lie import aut_components, aut_template, canonical_lie, classify3
from lsacat.linalg import Mat
from lsacat.props import fingerprint
from lsacat.scalars import MultiPoly
from oracles import random_automorphism


def test_verify_identity():
    a = catalog.instantiate("H-1")
    assert verify_lsa_iso(a, a, Mat.identity(3))


def test_verify_h2_primed_witness():
    e = catalog.lookup("H-2")
    primed = catalog.substitute_algebra(e.primed, {})
    canonical = catalog.instantiate("H-2")
    t = Mat([[1, 0, 0], [1, -1, 0], [0, 0, -1]])
    assert verify_lsa_iso(primed, canonical, t)


def test_verify_n12_primed_witness():
    e = catalog.lookup("N-12")
    primed = catalog.substitute_algebra(e.primed, {})
    canonical = catalog.instantiate("N-12")
    w = e.primed_witness.substitute({})
    assert verify_lsa_iso(primed, canonical, w)


def test_verify_rejects_singular_witness():
    a = catalog.instantiate("H-1")
    with pytest.raises(SingularWitness):
        verify_lsa_iso(a, a, Mat.zero(3))


def test_verify_wrong_map_false():
    a = catalog.instantiate("H-1")
    b = catalog.instantiate("H-2")
    assert not verify_lsa_iso(a, b, Mat.identity(3))


def test_search_self_identity():
    a = catalog.instantiate("N-30")
    v = search_lsa_iso(a, a)
    assert v.is_isomorphic and v.witness == Mat.identity(3)


def test_search_n2_vs_n3():
    # the remark coincidence (N-2) at lambda=0 with (N-3) at the same mu
    a = catalog.instantiate("N-2", {"lambda": 0, "mu": 2}, check=False)
    b = catalog.instantiate("N-3", {"mu": 2})
    v = search_lsa_iso(a, b)
    assert v.is_isomorphic
    assert verify_lsa_iso(a, b, v.witness)


# coincidences between samples of one entry that the catalog declares no
# remark for: (entry, source bindings, target bindings, witness or None)
UNDECLARED = [
    ("N-25", {"lambda": 1}, {"lambda": 3}, [[1, 0, 0], [0, Fraction(1, 3), 0],
                                            [0, 0, 1]]),
    ("N-2", {"lambda": 2, "mu": 3},
     {"lambda": Fraction(1, 2), "mu": Fraction(-3, 2)},
     [[2, 0, 0], [0, 1, 0], [3, 0, 1]]),
    ("N-22", {"lambda": 2, "mu": 3},
     {"lambda": Fraction(1, 2), "mu": Fraction(-3, 2)}, None),
]


@pytest.mark.parametrize("eid, src, tgt, rows", UNDECLARED)
def test_undeclared_coincidences(eid, src, tgt, rows):
    a = catalog.instantiate(eid, src)
    b = catalog.instantiate(eid, tgt)
    v = search_lsa_iso(a, b)
    if rows is None:
        assert v.status == "not_isomorphic"
        assert v.reason == ("every automorphism component gives the "
                            "Groebner basis {1}")
    else:
        assert v.is_isomorphic and v.witness == Mat(rows)
        assert verify_lsa_iso(a, b, v.witness)


def test_search_h1_vs_h3_not_isomorphic():
    v = search_lsa_iso(catalog.instantiate("H-1"), catalog.instantiate("H-3"))
    assert v.status == "not_isomorphic"
    assert v.reason == "flags.novikov"


def test_search_finds_hidden_conjugation():
    rng = random.Random(81)
    for eid, bind, fam, l in (("H-2", {}, "Heisenberg", None),
                              ("N-30", {}, "N", None),
                              ("E-7", {"lambda": 2}, "E", None),
                              ("Dl-10", {"l": Fraction(1, 2)}, "Dl",
                               Fraction(1, 2))):
        a = catalog.instantiate(eid, bind)
        t = random_automorphism(fam, rng, l)
        b = rebase(a, t)
        v = search_lsa_iso(a, b)
        assert v.is_isomorphic, eid
        assert verify_lsa_iso(a, b, v.witness)


@pytest.mark.parametrize("eid, bind, rows", [
    ("H-8", {}, [[0, 1, 0], [0, 0, -1], [-1, 0, -2]]),
    ("D1bar-11", {"lambda": 2}, [[1, -1, 0], [0, 0, -1], [-1, 0, 0]]),
])
def test_search_equal_canonical_forms(monkeypatch, eid, bind, rows):
    """Both sides rebase onto the same canonical table, but no member of
    the stored group with the free parameters at 1 is invertible: the
    witness comes from the two basis changes, before any fingerprint."""
    calls = count_calls(monkeypatch)
    a = catalog.instantiate(eid, bind)
    b = rebase(a, Mat(rows))
    v = search_lsa_iso(a, b)
    assert v.is_isomorphic
    assert verify_lsa_iso(a, b, v.witness)
    assert calls == {"fingerprint": 0, "classify3": 2}


def count_calls(monkeypatch):
    "Count the fingerprint and classify3 calls the search makes."
    calls = {"fingerprint": 0, "classify3": 0}
    for module, name in ((iso, "fingerprint"), (iso, "classify3"),
                         (props, "classify3")):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_search_groebner_pair_fingerprints_and_classifies_once(monkeypatch):
    """A pair the Groebner bases decide computes each fingerprint and each
    Lie class once: the fingerprints reuse the search's classes."""
    calls = count_calls(monkeypatch)
    v = search_lsa_iso(catalog.instantiate("H-1"), catalog.instantiate("H-2"))
    assert v.status == "not_isomorphic"
    assert v.reason == ("every automorphism component gives the "
                        "Groebner basis {1}")
    assert calls == {"fingerprint": 2, "classify3": 2}


@pytest.mark.parametrize("eid, rows", [
    ("N-30", [[1, 2, 0], [0, 1, 0], [0, 0, 1]]),
    ("H-8", [[0, 1, 0], [1, 0, 0], [0, 2, 1]]),
])
def test_search_applies_no_identity_witness(monkeypatch, first_samples, eid,
                                            rows):
    """Every catalog point's commutator is its family's canonical table, so
    its class witness is the identity.  Against rebase(a, T) the search
    builds one rebased table, of the other side, and inverts no identity,
    on the Groebner path (N-30) and on the equal-canonical-tables path
    (H-8)."""
    for e, _, a in first_samples:
        assert classify3(commutator_lie(a)).witness.is_identity(), e.id
    a = catalog.instantiate(eid)
    b = rebase(a, Mat(rows))
    rebased, inverted = [], []

    def counted_rebase(x, w):
        out = rebase(x, w)
        if out is not x:
            rebased.append(x)
        return out

    monkeypatch.setattr(iso, "rebase", counted_rebase)
    inverse = Mat.inverse
    monkeypatch.setattr(Mat, "inverse", lambda m: inverted.append(
        m.is_identity()) or inverse(m))
    v = search_lsa_iso(a, b)
    assert v.is_isomorphic and verify_lsa_iso(a, b, v.witness)
    assert rebased == [b]
    assert True not in inverted
    # the other way round, the first table's witness is inverted
    rebased.clear()
    v = search_lsa_iso(b, a)
    assert v.is_isomorphic and verify_lsa_iso(b, a, v.witness)
    assert rebased == [b]
    assert True not in inverted


def test_rebase_by_the_identity_is_the_table():
    a = catalog.instantiate("H-1")
    assert rebase(a, Mat.identity(3)) is a
    with pytest.raises(DimensionMismatch,
                       match="^basis-change matrix has wrong shape$"):
        rebase(a, Mat.identity(2))


def test_search_lie_class_mismatch():
    "Different Lie classes skip the canonical tables; a flag separates them."
    a = catalog.instantiate("H-5")
    b = catalog.instantiate("N-5")
    v = search_lsa_iso(a, b)
    assert v.status == "not_isomorphic"
    assert v.reason == "flags.associative"


def test_search_needs_lie_admissible_tables():
    """H-1 with e1 e3 = e3 + e1 has a commutator that breaks Jacobi, so it
    has no Lie class: against a rebase of itself the search says unknown,
    and why."""
    c = [[list(v) for v in row] for row in catalog.instantiate("H-1").c]
    c[0][2] = [1, 0, 1]
    a = Algebra(c)
    b = rebase(a, Mat([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))
    v = search_lsa_iso(a, b)
    assert (v.status, v.reason) == (
        "unknown", "search needs 3-dimensional Lie-admissible tables")
    # no Lie class in dimension 2 either
    a = Algebra.from_products(2, {(0, 0): [(1, 0)], (0, 1): [(1, 1)]})
    v = search_lsa_iso(a, rebase(a, Mat([[1, 0], [1, 1]])))
    assert (v.status, v.reason) == (
        "unknown", "search needs 3-dimensional Lie-admissible tables")


def test_search_lie_class_separates_equal_fingerprints():
    """The brackets of D(2) and D(3), read as products, are not
    left-symmetric, so their fingerprints hold no Lie class and agree; the
    classes of their commutators differ."""
    a = Algebra(canonical_lie("Dl", 2).c)
    b = Algebra(canonical_lie("Dl", 3).c)
    assert fingerprint(a) == fingerprint(b)
    v = search_lsa_iso(a, b)
    assert (v.status, v.reason) == ("not_isomorphic", "lie_class")


def test_search_checks_its_witness(monkeypatch):
    "The final exact check of a search witness fires when it fails."
    a = catalog.instantiate("H-1")
    b = rebase(a, Mat([[1, 0, 0], [1, 1, 0], [0, 0, 1]]))
    monkeypatch.setattr(iso, "verify_lsa_iso", lambda a, b, f: False)
    with pytest.raises(LsaError,
                       match="search witness fails after the basis change"):
        search_lsa_iso(a, b)


def test_isomorphic_tables_share_fingerprint():
    rng = random.Random(82)
    a = catalog.instantiate("N-37", {"lambda": 2})
    t = random_automorphism("N", rng)
    b = rebase(a, t)
    assert verify_lsa_iso(a, b, t.inverse())
    assert fingerprint(a) == fingerprint(b)


def test_catalog_classes_within_family_pairwise_distinct_sample():
    "Distinct parameter-free H classes are proved non-isomorphic."
    ids = ["H-1", "H-2", "H-3", "H-4", "H-5", "H-6", "H-8", "H-9"]
    algs = {i: catalog.instantiate(i) for i in ids}
    for k, a_id in enumerate(ids):
        for b_id in ids[k + 1:]:
            v = search_lsa_iso(algs[a_id], algs[b_id])
            assert v.status == "not_isomorphic", (a_id, b_id)


def test_fingerprint_equal_entries_are_not_isomorphic(first_samples):
    """Distinct entries whose first samples no fingerprint field separates,
    among them H-1/H-2, N-2/N-13, D1bar-3/D1bar-7 and E-3/E-4: the
    Groebner basis is {1} in every automorphism component."""
    fps = [(e.id, alg, fingerprint(alg)) for e, _, alg in first_samples]
    pairs = [(x, y) for k, x in enumerate(fps) for y in fps[k + 1:]
             if x[2] == y[2]]
    assert len(pairs) == 68
    for (xid, a, _), (yid, b, _) in pairs:
        v = search_lsa_iso(a, b)
        assert v.status == "not_isomorphic", (xid, yid, v.reason)
        assert "Groebner basis {1}" in v.reason
        assert "unknown" not in v.reason


def test_every_entry_against_a_random_basis(first_samples):
    "Each entry's first sample a against rebase(a, T), T random in [-2, 2]."
    rng = random.Random(1)
    for e, _, a in first_samples:
        t = Mat.zero(3)
        while t.det() == 0:
            t = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        b = rebase(a, t)
        v = search_lsa_iso(a, b)
        assert v.is_isomorphic, (e.id, v.reason)
        assert verify_lsa_iso(a, b, v.witness)


def test_s_pair_bound_gives_unknown(monkeypatch):
    "H-1/H-2 needs a few hundred S-pairs; under a bound of 5 it is unknown."
    monkeypatch.setattr(scalars, "GROEBNER_MAX_PAIRS", 5)
    v = search_lsa_iso(catalog.instantiate("H-1"), catalog.instantiate("H-2"))
    assert v.status == "unknown"
    assert "GROEBNER_MAX_PAIRS = 5 S-pairs" in v.reason


def test_hom_equations_are_the_hom_defects(first_samples):
    """The equations read off the structure constants are the defects
    F(e_i e_j) - F(e_i) F(e_j) of the parametric template computed with
    MultiPoly arithmetic, in the same order, then det(F)*z - 1."""
    rng = random.Random(5)
    for entry, _b, a in first_samples:
        cls = classify3(commutator_lie(a))
        comps = aut_components(cls.tag, cls.param)
        if not comps or cls.witness is None:
            continue
        a2 = rebase(a, cls.witness)
        b2 = rebase(rebase(a, random_automorphism(cls.tag, rng, cls.param)),
                    cls.witness)
        for comp in comps:
            template = aut_template(comp)[1]
            polys = [x for d in hom_defects(a2, b2, template) for x in d
                     if not scalars.is_zero(x)]
            polys.append(template.det() * MultiPoly.var("z") - 1)
            got = iso._hom_equations(a2, b2, comp)
            assert got == polys, (entry.id, comp)
