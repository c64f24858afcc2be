"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything is exact arithmetic; there are no
tolerances to tune.
"""

import random
from fractions import Fraction

from lsacat import catalog
from lsacat.algebra import check_left_symmetric, left_matrix
from lsacat.cocycle import (Cocycle, Representation, phi, psi,
                            equivalent_cocycle, verify_cocycle_equiv,
                            verify_cocycle_iso)
from lsacat.constructions import (check_cybe, check_derivation,
                                  check_o_operator, derivation_space,
                                  lsa_from_rmatrix, novikov_from_derivation,
                                  o_operator_from_cocycle, transported_product)
from lsacat.iso import verify_lsa_iso
from lsacat.lie import canonical_lie
from lsacat.linalg import Mat
from lsacat.props import is_novikov, is_transitive
from lsacat.scalars import QI
from oracles import (random_automorphism, random_qi_vector,
                     right_nilpotent_at, simplicity_oracle_agrees)


def report(n, text):
    print("ACCEPTANCE %d: PASS - %s" % (n, text))


def test_criterion_1_catalog_axiom_sweep(catalog_sweep, full_catalog):
    counts = catalog.entry_counts()
    assert counts == {"H": 10, "N": 45, "D1": 12, "Dl": 32, "E": 9}
    assert catalog_sweep.ok, catalog_sweep.summary()
    for r in catalog_sweep.reports:
        assert r.left_symmetric
    report(1, "left-symmetry holds for all %d entry/sample pairs "
              "(H 10, N 45, D1 12, Dl 32, E 9)" % catalog_sweep.total)


def test_criterion_2_lie_class_recovery(catalog_sweep):
    for r in catalog_sweep.reports:
        assert r.lie_class_ok, r.describe()
    # canonicalization covers samples with |l| = 1 and rational |l| < 1
    e = catalog.lookup("Dl-1")
    seen = {str(b.get("l")) for b in e.sample_bindings()}
    assert {"1/2", "-1", "i"} <= seen
    report(2, "sub-adjacent Lie class recovered with canonical parameter "
              "on all %d pairs" % catalog_sweep.total)


def test_criterion_3_cocycle_reconstruction(catalog_sweep, full_catalog):
    for e in full_catalog.values():
        assert e.f_mats is not None and e.cmat is not None, e.id
    for r in catalog_sweep.reports:
        assert r.cocycle_reconstruction_ok, r.describe()
    # anchors: (H-1) and (N-1) at lambda in {0, 2} reconstruct exactly
    for eid, bind in (("H-1", {}), ("N-1", {"lambda": 0}),
                      ("N-1", {"lambda": 2})):
        e = catalog.lookup(eid)
        lie = catalog.family_lie(e, bind)
        mats = [m.substitute(bind) for m in e.f_mats]
        c = Cocycle(Representation(lie, mats),
                    e.cmat.substitute(bind))
        assert phi(c) == catalog.instantiate(eid, bind)
    report(3, "phi rebuilds every printed table exactly (or up to the "
              "stored display witness) from the stored (f, C) data")


def test_criterion_4_property_tables(property_tables):
    assert property_tables["discrepancies"] == [], property_tables["discrepancies"]
    sets = property_tables["sets"]
    assert ("H", "simple") not in sets
    assert ("N", "simple") not in sets
    assert ("E", "simple") not in sets
    assert {eid for eid, _ in sets[("D1", "simple")]} == {"D1bar-10"}
    assert {eid for eid, _ in sets[("Dl", "simple")]} == {"Dl-10", "Dhalf-S-7"}
    assert {eid for eid, _ in sets[("N", "semisimple")]} == {"N-30"}
    assert ("E", "associative") not in sets
    assert ("E", "bisymmetric") not in sets
    report(4, "computed associative/transitive/Novikov/bi-symmetric/simple/"
              "semisimple sets match the stored tables at every sample "
              "(%d checks)" % property_tables["checked"])


def test_criterion_5_roundtrips(first_samples):
    for entry, bindings, alg in first_samples:
        assert phi(psi(alg)) == alg, entry.id
        c = psi(alg)
        back = psi(phi(c))
        assert verify_cocycle_iso(back, c, c.C), entry.id
    # 50 seeded equivalence constructions: equivalent cocycles map to
    # isomorphic algebras through the automorphism
    rng = random.Random(95)
    sources = [e for e, b, alg in first_samples]
    done = 0
    k = 0
    while done < 50:
        entry, bindings, alg = first_samples[k % len(first_samples)]
        k += 1
        fam = {"H": "Heisenberg", "N": "N", "D1": "Dl", "Dl": "Dl",
               "E": "E"}[entry.family]
        l = bindings.get("l") if entry.family == "Dl" else \
            (QI(1) if entry.family == "D1" else None)
        c1 = psi(alg)
        g = random_automorphism(fam, rng, l)
        t = random_automorphism(fam, rng, l)
        c2 = equivalent_cocycle(c1, g, t)
        assert verify_cocycle_equiv(c1, c2, g, t)
        assert verify_lsa_iso(phi(c2), phi(c1), t)
        done += 1
    report(5, "phi/psi roundtrips on all entries; 50 seeded equivalence "
              "witness constructions map to isomorphic algebras")


def test_criterion_6_witness_isomorphisms(catalog_sweep, remark_isos):
    for r in catalog_sweep.reports:
        assert r.cocycle_reconstruction_ok, r.describe()
    confirmed, unconfirmed, failed = remark_isos
    assert failed == [], failed
    assert unconfirmed == [], unconfirmed  # Unknown here is a build failure
    assert len(confirmed) >= 90
    report(6, "all printed display witnesses verify and all %d remark "
              "coincidences resolve to Isomorphic" % len(confirmed))


def test_criterion_7_oracle_equivalence(first_samples):
    rng = random.Random(96)
    for entry, bindings, alg in first_samples:
        sym = is_transitive(alg)
        direct = True
        for _ in range(100):
            x = random_qi_vector(rng, 3, nonzero=False)
            if not right_nilpotent_at(alg, x):
                direct = False
                break
        if sym:
            assert direct, entry.id
        # when the trace test says no, exhibit a non-nilpotent witness
        if not sym:
            found = not direct
            tries = 0
            while not found and tries < 400:
                x = random_qi_vector(rng, 3)
                found = not right_nilpotent_at(alg, x)
                tries += 1
            assert found, entry.id
    for entry, bindings, alg in first_samples:
        if alg.is_zero_product():
            continue
        assert simplicity_oracle_agrees(alg, rng, tries=10), entry.id
    report(7, "trace-identity transitivity agrees with direct nilpotency "
              "(100 random x per algebra); ideal verdicts agree with the "
              "randomized refinement oracle")


def test_criterion_8_constructions(first_samples, commutative_bases):
    rng = random.Random(97)
    # 50 seeded derivation inputs yield Novikov algebras
    bases = commutative_bases(rng, 50)
    for base in bases:
        space = derivation_space(base)
        d = Mat.zero(3)
        for bmat in space:
            d = d + QI(rng.randint(-2, 2)) * bmat
        assert check_derivation(base, d)
        out = novikov_from_derivation(base, d)
        assert check_left_symmetric(out)[0] and is_novikov(out)
    # 20 seeded CYBE solutions yield left-symmetric products
    made = 0
    fams = [("Heisenberg", None), ("N", None), ("Dl", Fraction(1, 2)),
            ("Dl", -1), ("E", None)]
    while made < 20:
        fam, l = fams[made % len(fams)]
        g = canonical_lie(fam, l)
        z = random_qi_vector(rng, 3)
        adz = left_matrix(g, z)
        kernel = adz.transpose().nullspace()
        if not kernel:
            continue
        phi_cov = kernel[rng.randrange(len(kernel))]
        scale = [QI(1), QI(-1), QI(2), QI(Fraction(1, 2))][rng.randrange(4)]
        r = Mat([[scale * phi_cov[i] * z[j] for j in range(3)]
                 for i in range(3)])
        t = random_automorphism(fam, rng, l)
        r = t.inverse() * r * t
        ok, _ = check_cybe(g, r)
        assert ok
        alg = lsa_from_rmatrix(g, r)
        assert check_left_symmetric(alg)[0]
        made += 1
    # T = q^{-1} from the stored cocycles is an O-operator and the induced
    # product transported along T coincides with phi
    for entry, bindings, alg in first_samples:
        c = psi(alg)
        t = o_operator_from_cocycle(c)
        ok, cert = check_o_operator(c.rep.g, c.rep, t)
        assert ok, entry.id
        assert transported_product(c.rep.g, c.rep, t) == phi(c), entry.id
    report(8, "50 derivation inputs Novikov, 20 CYBE solutions "
              "left-symmetric, q^{-1} O-operator consistency on all entries")


def test_criterion_9_scope_note():
    # The classification's completeness (that no further classes exist) is
    # out of scope by design; this suite verifies membership, properties,
    # reconstructions, and coincidences only.
    report(9, "completeness of the classification is explicitly out of "
              "scope; verification suites above are the acceptance basis")
