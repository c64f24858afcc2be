import copy
import dataclasses
import os
import pickle
import shutil

import pytest

from lsacat import catalog, cli
from lsacat.algebra import (Algebra, check_left_symmetric, commutator_lie,
                            multiply)
from lsacat.cocycle import Cocycle, Representation, left_regular, phi
from lsacat.errors import (ConstraintViolated, DocSemanticError, DocSyntaxError,
                           NotBijective, NotCocycle, UnknownId)
from lsacat.iso import IsoVerdict
from lsacat.linalg import Mat, basis_vec, vec_eq
from lsacat.scalars import QI, MultiPoly, RatFunc, parse_scalar


def test_entry_counts(full_catalog):
    counts = catalog.entry_counts()
    assert counts == {"H": 10, "N": 45, "D1": 12, "Dl": 32, "E": 9}


def test_lookup_unknown_id():
    with pytest.raises(UnknownId):
        catalog.lookup("H-99")


def test_instantiate_h7():
    alg = catalog.instantiate("H-7", {"lambda": 2})
    assert vec_eq(multiply(alg, basis_vec(alg.dim, 0), basis_vec(alg.dim, 0)),
                  [QI(0), QI(0), QI(1)])
    assert vec_eq(multiply(alg, basis_vec(alg.dim, 1), basis_vec(alg.dim, 1)),
                  [QI(0), QI(0), QI(2)])


def test_instantiate_n1_at_zero():
    alg = catalog.instantiate("N-1", {"lambda": 0})
    nonzero = [(i, j) for i in range(3) for j in range(3)
               if not vec_eq(alg.c[i][j], [QI(0)] * 3)]
    assert nonzero == [(2, 1)]


def test_instantiate_constraint_violation():
    with pytest.raises(ConstraintViolated):
        catalog.instantiate("H-10", {"lambda": 1})
    with pytest.raises(ConstraintViolated):
        catalog.instantiate("N-2", {"lambda": 0, "mu": 1})
    with pytest.raises(ConstraintViolated):
        catalog.instantiate("Dhalf-S-7", {"l": 1})
    # missing binding
    with pytest.raises(ConstraintViolated):
        catalog.instantiate("H-7")


def test_instantiate_override_for_remark_extensions():
    alg = catalog.instantiate("N-2", {"lambda": 0, "mu": 1}, check=False)
    assert alg == catalog.instantiate("N-3", {"mu": 1}, check=False)


def test_verify_entry_h1():
    r = catalog.verify_entry("H-1")
    assert r.ok and r.left_symmetric and r.lie_class_ok
    assert r.cocycle_reconstruction_ok and r.flags_ok


def test_verify_entry_n30_flags():
    r = catalog.verify_entry("N-30")
    assert r.ok
    flags = catalog.computed_flags(catalog.instantiate("N-30"))
    assert flags["semisimple"] and not flags["simple"]


def test_verify_entry_e5_display_witness():
    r = catalog.verify_entry("E-5")
    assert r.ok and r.cocycle_reconstruction_ok


def test_default_sample_plan_honors_constraints(full_catalog):
    for e in full_catalog.values():
        samples = e.sample_bindings()
        assert samples
        for b in samples:
            assert e.admissible(b)


def test_sample_plan_includes_zero_for_free_parameters():
    e = catalog.lookup("N-1")
    assert {str(b["lambda"]) for b in e.sample_bindings()} >= {"0", "2"}


def corrupted_catalog(tmp_path, old, new, name="h.cat"):
    """A copy of the catalog with the first `old` line of the data file
    `name` replaced (in h.cat, the first of any line is H-1's)."""
    src = catalog.data_dir()
    for fname in catalog.FAMILY_FILES.values():
        shutil.copy(os.path.join(src, fname), tmp_path / fname)
    text = (tmp_path / name).read_text()
    assert old in text
    (tmp_path / name).write_text(text.replace(old, new, 1))
    return str(tmp_path)


def test_corrupted_entry_detected(tmp_path, monkeypatch):
    "Harness self test: a deliberately corrupted table must be caught."
    # break (H-1): e1 e2 = e2 + e3 -> e2 + 2 e3
    directory = corrupted_catalog(tmp_path, "table e1 e2 = e2 + e3",
                                  "table e1 e2 = e2 + 2 e3")
    monkeypatch.setenv("LSACAT_DATA", directory)
    report = catalog.verify_all(families=["H"])
    assert any(r.entry_id == "H-1" for r in report.failures)
    assert len(report.failures) >= 1


@pytest.mark.parametrize("old, new, message", [
    ("f(e1) = [[1,0,0],[1,1,0],[0,0,1]]", "f(e1) = [[2,0,0],[1,1,0],[0,0,1]]",
     "stored f data is not a representation: "),
    ("C = [[0,0,1],[0,1,0],[1,0,0]]", "C = [[0,0,1],[0,1,0],[1,1,0]]",
     "stored (f, C) is not a cocycle: "),
    ("C = [[0,0,1],[0,1,0],[1,0,0]]", "C = [[0,0,0],[0,0,0],[0,0,0]]",
     "stored C is singular"),
])
def test_corrupted_cocycle_data_detected(tmp_path, monkeypatch, old, new,
                                         message):
    "Corrupted (f, C) data fails the reconstruction with its own message."
    directory = corrupted_catalog(tmp_path, old, new)
    monkeypatch.setenv("LSACAT_DATA", directory)
    report = catalog.verify_all(families=["H"])
    assert [r.entry_id for r in report.failures] == ["H-1"]
    bad = report.failures[0]
    assert not bad.cocycle_reconstruction_ok
    assert len(bad.messages) == 1
    assert bad.messages[0].startswith(message)


def stored_data(e, bindings):
    "The family's bracket table g, and the F_i and C stored, at a point."
    return (catalog.family_lie(e, bindings),
            [m.substitute(bindings) for m in e.f_mats],
            e.cmat.substitute(bindings))


def phi_rebuilds(e, bindings, alg):
    "The oracle: phi of the stored (f, C) data is the point's table."
    g, fs, cm = stored_data(e, bindings)
    try:
        return phi(Cocycle(Representation(g, fs), cm)) == alg
    except (NotCocycle, NotBijective):
        return False


def reconstruct(monkeypatch, e, bindings, alg, left_symmetric, h):
    """(verdict, messages, phi calls) of catalog._check_reconstruction at a
    point, counting the calls it makes to phi."""
    calls = []

    def counted(c):
        calls.append(c)
        return phi(c)
    monkeypatch.setattr(catalog, "phi", counted)
    rep = catalog.EntryReport(e.id, bindings, alg,
                              left_symmetric=left_symmetric)
    ok = catalog._check_reconstruction(e, rep, h)
    return ok, rep.messages, len(calls)


def one_condition_fails(condition):
    """((entry, bindings, table, left_symmetric, h), message prefix): H-1
    changed so that exactly the named condition of the A_i C = C F_i
    acceptance fails, with the message the phi path gives for it."""
    e = catalog.lookup("H-1")
    alg = catalog.instantiate("H-1")
    g, fs, cm = stored_data(e, {})
    if condition == "left_symmetric":
        # e2 e2 = e1 keeps the commutator, and F_i = C^-1 A_i C keeps the
        # identity, but the table is not left-symmetric
        c = [[list(v) for v in row] for row in alg.c]
        c[1][1][0] = QI(1)
        alg = Algebra(c)
        fs = [cm.inverse() * Mat._of(alg.c[i]) * cm for i in range(3)]
        return ((dataclasses.replace(e, f_mats=fs), {}, alg, False,
                 commutator_lie(alg)),
                "stored f data is not a representation: ")
    if condition == "identity":     # C with one entry changed
        return ((dataclasses.replace(
            e, cmat=Mat([[0, 0, 1], [0, 1, 0], [1, 1, 0]])), {}, alg, True,
            commutator_lie(alg)), "stored (f, C) is not a cocycle: ")
    if condition == "det":          # 0 = A_i 0 = 0 F_i
        return ((dataclasses.replace(e, cmat=Mat.zero(3)), {}, alg, True,
                 commutator_lie(alg)), "stored C is singular")
    # F = left-regular with C = I rebuilds N-1's table, whose commutator
    # is not H-1's Heisenberg bracket
    alg = catalog.instantiate("N-1", {"lambda": 2})
    h = commutator_lie(alg)
    return ((dataclasses.replace(e, f_mats=list(left_regular(h, alg).mats),
                                 cmat=Mat.identity(3)), {}, alg, True, h),
            "stored f data is not a representation: ")


CONDITIONS = ("left_symmetric", "lie", "det", "identity")


@pytest.mark.parametrize("condition", CONDITIONS)
def test_reconstruction_refuses_each_failed_condition(monkeypatch, condition):
    """A point that fails one condition of the identity acceptance alone
    goes through phi, which refuses it with its own message."""
    point, message = one_condition_fails(condition)
    e, _, alg, left_symmetric, h = point
    g, fs, cm = stored_data(e, {})
    holds = {"left_symmetric": left_symmetric, "lie": h == g,
             "det": not cm.det().is_zero(),
             "identity": all(Mat._of(alg.c[i]) * cm == cm * f
                             for i, f in enumerate(fs))}
    assert [k for k, v in holds.items() if not v] == [condition]
    assert check_left_symmetric(alg)[0] == left_symmetric
    ok, messages, calls = reconstruct(monkeypatch, *point)
    assert (ok, calls, len(messages)) == (False, 1, 1)
    assert messages[0].startswith(message)
    assert not phi_rebuilds(e, {}, alg)


def test_identity_accepts_exactly_when_phi_rebuilds(monkeypatch,
                                                    catalog_sweep):
    """On every non-primed sweep point, and on the points that fail one
    condition, _check_reconstruction accepts without phi exactly when phi
    rebuilds the table; each primed point goes through phi once."""
    points = [(catalog.lookup(r.entry_id), r.bindings, r.alg,
               r.left_symmetric,
               commutator_lie(r.alg) if r.left_symmetric else None)
              for r in catalog_sweep.reports]
    primed = [p for p in points if p[0].primed is not None]
    plain = [p for p in points if p[0].primed is None]
    assert (len(primed), len(plain)) == (23, 235)
    for point in plain + [one_condition_fails(c)[0] for c in CONDITIONS]:
        ok, _, calls = reconstruct(monkeypatch, *point)
        assert (ok and not calls) == phi_rebuilds(*point[:3]), point[0].id
    for point in primed:
        assert reconstruct(monkeypatch, *point) == (True, [], 1), point[0].id


def test_catalog_sweep_clean(catalog_sweep):
    assert catalog_sweep.ok, catalog_sweep.summary()
    assert catalog_sweep.total >= 250


def test_property_tables_clean(property_tables):
    assert property_tables["discrepancies"] == []
    sets = property_tables["sets"]
    # a few anchors from the printed tables
    h_transitive = {eid for eid, _ in sets[("H", "transitive")]}
    assert h_transitive == {"H-5", "H-6", "H-7", "H-8", "H-9", "H-10"}
    assert ("E", "associative") not in sets
    assert ("E", "bisymmetric") not in sets
    assert {eid for eid, _ in sets[("N", "semisimple")]} == {"N-30"}
    assert {eid for eid, _ in sets[("D1", "simple")]} == {"D1bar-10"}
    assert {eid for eid, _ in sets[("Dl", "simple")]} == {"Dl-10", "Dhalf-S-7"}
    assert ("H", "simple") not in sets
    assert ("N", "simple") not in sets
    assert ("E", "simple") not in sets


def test_remark_isos_all_confirmed(remark_isos):
    confirmed, unconfirmed, failed = remark_isos
    assert failed == []
    assert unconfirmed == []
    assert len(confirmed) >= 90


@pytest.mark.parametrize("verdict, bucket", [
    (IsoVerdict("not_isomorphic", reason="unknown invariant differs"), 2),
    (IsoVerdict("unknown", reason="budget exhausted"), 1),
])
def test_remark_isos_classified_by_verdict(monkeypatch, verdict, bucket):
    "The verdict's status, not the words of its reason, picks the list."
    monkeypatch.setattr(catalog, "search_lsa_iso", lambda a, b: verdict)
    sweep = catalog.verify_all(plan={"N-3": [{"mu": QI(1)}]})
    lists = catalog.verify_remark_isos(sweep)
    assert [len(l) for l in lists] == [1 if k == bucket else 0
                                       for k in range(3)]
    assert lists[bucket][0].endswith(
        ": %s (%s)" % (verdict.status, verdict.reason))


def test_source_cocycles_all_valid(full_catalog):
    from lsacat.cocycle import (Cocycle, Representation, check_cocycle,
                                check_representation)

    for e in full_catalog.values():
        assert e.f_mats is not None and e.cmat is not None, e.id
        b = e.sample_bindings()[0]
        lie = catalog.family_lie(e, b)
        mats = [m.substitute(b) for m in e.f_mats]
        rep = Representation(lie, mats)
        assert check_representation(rep)[0], e.id
        c = Cocycle(rep, e.cmat.substitute(b))
        assert check_cocycle(c)[0], e.id
        assert not c.C.det().is_zero(), e.id


def test_values_copy_and_pickle():
    """Every value type round-trips through copy, deepcopy and pickle to an
    equal value, so a report holding them converts with asdict."""
    e = catalog.lookup("N-1")
    b = {"lambda": QI(2)}
    rep = Representation(catalog.family_lie(e, b),
                         [m.substitute(b) for m in e.f_mats])
    coc = Cocycle(rep, e.cmat.substitute(b))
    poly, ratio = parse_scalar("lambda^2 + i"), parse_scalar("1/(lambda + 1)")
    assert (type(poly), type(ratio)) == (MultiPoly, RatFunc)

    def parts(v):
        if isinstance(v, Cocycle):
            return parts(v.rep), v.C
        if isinstance(v, Representation):
            return v.g, v.mats
        return v

    for v in (QI(3, -4) / 7, poly, ratio, e.f_mats[2], e.table,
              catalog.instantiate("N-1", b), rep.g, rep, coc):
        for twin in (copy.copy(v), copy.deepcopy(v),
                     pickle.loads(pickle.dumps(v))):
            assert type(twin) is type(v)
            assert parts(twin) == parts(v)
    report = dataclasses.asdict(catalog.verify_entry("N-1", {"lambda": 2}))
    assert report["bindings"] == {"lambda": QI(2)}
    assert report["computed"]["associative"] is False


@pytest.mark.parametrize("old, new", [
    ("table e1 e2 = e2 + e3", "table x1 e2 = e2 + e3"),
    ("table e1 e1 = e1", "table e0 e1 = e1"),
    ("f(e1) = [[1,0,0],[1,1,0],[0,0,1]]", "f(e0) = [[1,0,0],[1,1,0],[0,0,1]]"),
])
def test_malformed_entry_rejected_on_load(tmp_path, monkeypatch, capsys, old, new):
    "A malformed data line fails the load, naming its file, and the CLI exits 2."
    directory = corrupted_catalog(tmp_path, old, new)
    monkeypatch.setenv("LSACAT_DATA", directory)
    with pytest.raises((DocSyntaxError, DocSemanticError)) as err:
        catalog.load_catalog()
    assert "h.cat" in str(err.value)
    assert cli.main(["catalog-verify", "--entry", "H-1"]) == 2
    assert capsys.readouterr().out.startswith("catalog error: ")


@pytest.mark.parametrize("name, old, new, lineno", [
    ("h.cat", "family H", "family", 4),
    ("h.cat", "case AI-1", "case", 10),
    ("h.cat", "case AI-1", "case AI 1", 10),
    ("dl.cat", "samples lambda: 0, 2, -1", "samples lambda 0, 2, -1", 9),
    ("dl.cat", "samples lambda: 0, 2, -1", "samples: 0, 2, -1", 9),
    ("n.cat", "iso N-9 when lambda=0 bind lambda=0", "iso", 14),
    ("n.cat", "iso N-9 when lambda=0 bind lambda=0", "iso N-9 when lambda=0 T",
     14),
    ("n.cat", "iso N-9 when lambda=0 bind lambda=0",
     "iso N-9 when lamda=0 bind lambda=0", 14),
    ("n.cat", "flags associative=lambda=1", "flags associativ=lambda=1", 13),
    ("n.cat", "flags associative=lambda=1", "flags associative=lamda=1", 13),
    ("n.cat", "flags associative=lambda=1 transitive=lambda=0",
     "flags associative=lambda=1 associative=lambda=0", 13),
    ("dl.cat", "samples lambda: 0, 2, -1", "samples lamda: 0, 2, -1", 9),
    # checked against the target once every file is loaded
    ("n.cat", "iso N-9 when lambda=0 bind lambda=0",
     "iso N-99 when lambda=0 bind lambda=0", 14),
    ("n.cat", "iso N-9 when lambda=0 bind lambda=0",
     "iso N-9 when lambda=0 bind lamda=0", 14),
    ("n.cat", "iso Dl-1 bind l=0 lambda=lambda", "iso Dl-1 bind l=0", 15),
    ("n.cat", "iso Dl-1 bind l=0 lambda=lambda",
     "iso Dl-1 bind l=0 lambda=lamda", 15),
    # a value that is not a constant
    ("n.cat", "iso N-9 when lambda=0 bind lambda=0",
     "iso N-9 when lambda=x bind lambda=0", 14),
    ("n.cat", "flags associative=lambda=1", "flags associative=lambda=x", 13),
    ("dl.cat", "samples lambda: 0, 2, -1", "samples lambda: 0, x, -1", 9),
    ("n.cat", "params lambda ne 0", "params lambda ne x", 20),
    # a flag condition at a value its parameter's constraint excludes
    ("n.cat", "flags associative=mu=1", "flags associative=mu=0", 47),
    # a primed table needs its witness, and a witness its primed table
    ("h.cat", "primed_witness = [[1,0,0],[1,-1,0],[0,0,-1]]", "", 26),
    ("h.cat", "primed e1 e1 = e1 + e2\nprimed e2 e1 = -e3\nprimed e2 e2 = e3",
     "\n\n", 51),
])
def test_malformed_metadata_rejected_on_load(tmp_path, monkeypatch, capsys,
                                             name, old, new, lineno):
    """A metadata line without its value, naming an unknown or repeated flag
    or an undeclared parameter, or giving a non-constant or inadmissible
    value, is a syntax error at its line, as is a primed table without its
    primed_witness or a witness without its table; exit 2."""
    directory = corrupted_catalog(tmp_path, old, new, name)
    monkeypatch.setenv("LSACAT_DATA", directory)
    with pytest.raises(DocSyntaxError) as err:
        catalog.load_catalog()
    assert name in str(err.value)
    assert "line %d," % lineno in str(err.value)
    assert cli.main(["catalog-verify", "--entry", "H-1"]) == 2
    assert capsys.readouterr().out.startswith("catalog error: ")


def test_load_error_keeps_line_and_column(tmp_path, monkeypatch):
    "The file name is prefixed to the message; line and col survive."
    directory = corrupted_catalog(tmp_path, "family H", "family")
    monkeypatch.setenv("LSACAT_DATA", directory)
    with pytest.raises(DocSyntaxError) as err:
        catalog.load_catalog()
    assert (err.value.line, err.value.col) == (4, 1)
    assert str(err.value).startswith(os.path.join(directory, "h.cat")
                                     + ": line 4, col 1: ")


@pytest.mark.parametrize("name, old, new, line, col", [
    ("n.cat", "iso N-9 when lambda=0 bind lambda=0",
     "iso N-9 when lambda=x bind lambda=0", 14, 21),
    ("n.cat", "flags associative=lambda=1", "flags associative=lambda=x", 13, 26),
    ("n.cat", "novikov=lambda=0", "novikov=lambda=0&lambda=x", 13, 72),
    ("dl.cat", "samples lambda: 0, 2, -1", "samples lambda: 0,  2 , x", 9, 25),
    ("n.cat", "params lambda ne 0", "params lambda ne 0 x", 20, 20),
    ("n.cat", "params lambda ne 0", "params lambda eq x", 20, 18),
])
def test_bad_constant_is_located_at_its_column(tmp_path, monkeypatch, name,
                                               old, new, line, col):
    "A value that is not a constant is reported at its own column."
    directory = corrupted_catalog(tmp_path, old, new, name)
    monkeypatch.setenv("LSACAT_DATA", directory)
    with pytest.raises(DocSyntaxError) as err:
        catalog.load_catalog()
    assert (err.value.line, err.value.col) == (line, col)
    assert "expected a constant, got 'x'" in str(err.value)


# (file, old text, new text, argv, stdout): each mutant makes the catalog
# wrong, and catalog-verify names every check that fails
FAILING_MUTANTS = {
    "flag_flipped": ("h.cat", "flags novikov=yes\nend", "flags\nend",
                     ["--entry", "H-1"], [
        "H: 0/1 classes verified",
        "entry/sample pairs: 1, failures: 1",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 1",
        "H-1: FAIL",
        "    novikov: computed True, table says False"]),
    "table_not_left_symmetric": ("h.cat", "table e1 e1 = e1",
                                 "table e1 e1 = e2", ["--entry", "H-1"], [
        "H: 0/1 classes verified",
        "entry/sample pairs: 1, failures: 1",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 1",
        "H-1: FAIL",
        "    left-symmetry fails at triple (0, 1, 0)",
        "    phi does not reproduce the printed table",
        "    novikov: computed False, table says True"]),
    # the commutator breaks Jacobi, so the point is not classified
    "table_not_lie_admissible": ("h.cat", "table e1 e3 = e3",
                                 "table e1 e3 = e3 + e1", ["--entry", "H-1"], [
        "H: 0/1 classes verified",
        "entry/sample pairs: 1, failures: 1",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 3",
        "H-1: FAIL",
        "    left-symmetry fails at triple (0, 1, 2)",
        "    phi does not reproduce the printed table",
        "    novikov: computed False, table says True",
        "    simple: computed True, table says False",
        "    semisimple: computed True, table says False"]),
    "table_other_lie_class": ("h.cat", "table e1 e2 = e2 + e3",
                              "table e1 e2 = e3", ["--entry", "H-1"], [
        "H: 0/1 classes verified",
        "entry/sample pairs: 1, failures: 1",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 2",
        "H-1: FAIL",
        "    lie class ('N', None), expected ('Heisenberg', None)",
        "    phi does not reproduce the printed table",
        "    associative: computed True, table says False",
        "    bisymmetric: computed True, table says False"]),
    "iso_bind": ("n.cat", "iso Dl-1 bind l=0 lambda=lambda",
                 "iso Dl-1 bind l=0 lambda=lambda+1", ["--entry", "N-1"], [
        "N: 1/1 classes verified",
        "entry/sample pairs: 5, failures: 0",
        "remark coincidences: 1 confirmed, 0 unconfirmed, 5 failed",
        "property table discrepancies: 0",
        "  iso N-1[lambda=0] -> Dl-1[l=0,lambda=1]: not_isomorphic "
        "(flags.associative)",
        "  iso N-1[lambda=2] -> Dl-1[l=0,lambda=3]: not_isomorphic "
        "(every automorphism component gives the Groebner basis {1})",
        "  iso N-1[lambda=-1] -> Dl-1[l=0,lambda=0]: not_isomorphic "
        "(flags.novikov)",
        "  iso N-1[lambda=1/2] -> Dl-1[l=0,lambda=3/2]: not_isomorphic "
        "(every automorphism component gives the Groebner basis {1})",
        "  iso N-1[lambda=3] -> Dl-1[l=0,lambda=4]: not_isomorphic "
        "(every automorphism component gives the Groebner basis {1})"]),
    # no default sample of N-1 has lambda = 1 or 6: the property pass
    # checks each condition point on its own
    "flag_condition_moved": ("n.cat", "flags associative=lambda=1",
                             "flags associative=lambda=6", ["--entry", "N-1"], [
        "N: 1/1 classes verified",
        "entry/sample pairs: 5, failures: 0",
        "remark coincidences: 6 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 2",
        "  N-1[lambda=6] associative: computed False, table says True",
        "  N-1[lambda=1] associative: computed True, table says False"]),
    # H-2 is printed in a second basis: its primed table and the witness
    # that maps it onto the table
    "primed_table": ("h.cat", "primed e2 e2 = 2 e2 - e1",
                     "primed e2 e2 = 2 e2 + e1", ["--entry", "H-2"], [
        "H: 0/1 classes verified",
        "entry/sample pairs: 1, failures: 1",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 0",
        "H-2: FAIL",
        "    phi does not match the primed table"]),
    "primed_witness": ("h.cat", "primed_witness = [[1,0,0],[1,-1,0],[0,0,-1]]",
                       "primed_witness = [[1,0,0],[1,1,0],[0,0,-1]]",
                       ["--entry", "H-2"], [
        "H: 0/1 classes verified",
        "entry/sample pairs: 1, failures: 1",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 0",
        "H-2: FAIL",
        "    stored primed witness fails"]),
}


@pytest.mark.parametrize("mutant", sorted(FAILING_MUTANTS))
def test_catalog_verify_prints_every_failure(tmp_path, monkeypatch, capsys,
                                             mutant):
    "A wrong catalog line exits 1, and the whole stdout is pinned."
    name, old, new, args, expected = FAILING_MUTANTS[mutant]
    monkeypatch.setenv("LSACAT_DATA", corrupted_catalog(tmp_path, old, new,
                                                        name))
    assert cli.main(["catalog-verify", "--all"] + args) == 1
    assert capsys.readouterr().out.splitlines() == expected
