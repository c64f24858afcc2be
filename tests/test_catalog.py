import copy
import functools
import os
import pickle
import random
import shutil
from fractions import Fraction
from itertools import combinations

import pytest

from lsacat import catalog, cli
from lsacat.algebra import (Algebra, check_left_symmetric, commutator_lie,
                            multiply, substitute_algebra, triple_products)
from lsacat.cocycle import Cocycle, Representation, left_regular, phi
from lsacat.docs import constraint_allows
from lsacat.errors import (ConstraintViolated, DenominatorVanishes,
                           DocSemanticError, DocSyntaxError, NotBijective,
                           NotCocycle, UnboundVariable, UnknownId)
from lsacat.iso import IsoVerdict, search_lsa_iso, verify_lsa_iso
from lsacat.lie import classify3
from lsacat.linalg import Mat, basis_vec, vec_eq
from lsacat.props import fingerprint
from lsacat.scalars import (QI, MultiPoly, RatFunc, _up_deflate, _up_gcd,
                            _up_trim, is_zero, parse_scalar, qi_roots,
                            substitute)
from oracles import expected_lie_key, height_points


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


def stored_objects(e):
    "The parametric tables and matrices an entry stores."
    return ([e.table, e.cmat] + list(e.f_mats)
            + ([e.primed, e.primed_witness] if e.primed is not None else []))


def cells(v):
    "The scalar cells of a Mat or a table."
    if isinstance(v, Mat):
        return [x for r in v.rows for x in r]
    return [x for row in v.c for cell in row for x in cell]


def at(v, bindings):
    "A stored Mat or table at the bindings, as the catalog evaluates it."
    if isinstance(v, Mat):
        return v.substitute(bindings)
    return substitute_algebra(v, bindings)


def test_substitution_evaluates_only_parametric_cells(full_catalog,
                                                      catalog_sweep):
    """At every default sample, each stored table and matrix equals its
    cell-wise substitution; one with no parametric cell (422 of 558) is
    returned itself, one with some is a new object of QI cells.  So is the
    table of the 47 parameter-free points among the 235 unprimed ones."""
    seen = {True: set(), False: set()}
    for e in full_catalog.values():
        for b in e.sample_bindings():
            for k, v in enumerate(stored_objects(e)):
                got, constant = at(v, b), all(type(x) is QI
                                              for x in cells(v))
                if isinstance(v, Mat):
                    assert got == Mat([[substitute(x, b) for x in r]
                                       for r in v.rows])
                else:
                    assert got == Algebra([[[substitute(x, b) for x in c]
                                            for c in row] for row in v.c])
                assert (got is v) == constant
                assert all(type(x) is QI for x in cells(got))
                seen[constant].add((e.id, k))
    assert (len(seen[True]), len(seen[False])) == (422, 136)
    plain = [r for r in catalog_sweep.reports
             if full_catalog[r.entry_id].primed is None]
    free = [r for r in plain if not r.bindings]
    assert (len(plain), len(free)) == (235, 47)
    assert all(r.alg is full_catalog[r.entry_id].table for r in free)


@pytest.mark.parametrize("text, bindings, error", [
    ("1/(lambda - 1)", {"lambda": QI(1)}, DenominatorVanishes),
    ("lambda^2 + i", {}, UnboundVariable),
    ("1/(lambda + 1)", {"mu": QI(1)}, UnboundVariable),
])
def test_parametric_cells_still_raise(text, bindings, error):
    """A parametric cell among constant ones still raises its substitution
    error, in a Mat and in a table."""
    x = parse_scalar(text)
    with pytest.raises(error):
        Mat([[1, 0], [x, 1]]).substitute(bindings)
    with pytest.raises(error):
        substitute_algebra(Algebra([[[1, 0], [0, 0]], [[0, x], [0, 1]]]),
                           bindings)


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
    point, given the family's table as verify_entry gives it, counting the
    calls it makes to phi."""
    calls = []

    def counted(c):
        calls.append(c)
        return phi(c)
    monkeypatch.setattr(catalog, "phi", counted)
    rep = catalog.EntryReport(e.id, bindings, alg)
    rep.left_symmetric = left_symmetric
    ok = catalog._check_reconstruction(e, rep, h,
                                       catalog.family_lie(e, bindings))
    return ok, rep.messages, len(calls)


def replaced(e, **changes):
    "A copy of the catalog entry e with the given fields changed."
    twin = copy.copy(e)
    vars(twin).update(changes)
    return twin


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
        return ((replaced(e, f_mats=fs), {}, alg, False, commutator_lie(alg)),
                "stored f data is not a representation: ")
    if condition == "identity":     # C with one entry changed
        return ((replaced(
            e, cmat=Mat([[0, 0, 1], [0, 1, 0], [1, 1, 0]])), {}, alg, True,
            commutator_lie(alg)), "stored (f, C) is not a cocycle: ")
    if condition == "det":          # 0 = A_i 0 = 0 F_i
        return ((replaced(e, cmat=Mat.zero(3)), {}, alg, True,
                 commutator_lie(alg)), "stored C is singular")
    # F = left-regular with C = I rebuilds N-1's table, whose commutator
    # is not H-1's Heisenberg bracket
    alg = catalog.instantiate("N-1", {"lambda": 2})
    h = commutator_lie(alg)
    return ((replaced(e, f_mats=list(left_regular(h, alg).mats),
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


def drawn_l_values(seed=54):
    """20 values of l, drawn from a fixed seed: 7 with |l| > 1, 7 on the
    unit circle with im l < 0 (whose canonical l is the conjugate) and 6
    non-real ones inside it."""
    rng, out = random.Random(seed), []

    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    while len(out) < 7:
        l = QI(part(), part())
        if l.norm2() > 1:
            out.append(l)
    while len(out) < 14:        # (1 - t^2 + 2t i) / (1 + t^2), t < 0
        t = -Fraction(rng.randint(1, 9), rng.randint(1, 9))
        out.append(QI(1 - t * t, 2 * t) / (1 + t * t))
    while len(out) < 20:
        l = QI(part() / 9, part() / 9)
        if l.im != 0 and l.norm2() < 1:
            out.append(l)
    return out


def test_expected_lie_class_is_classify3_of_the_family_table(
        full_catalog, catalog_sweep):
    """The expected Lie class verify_entry reads off the family's table g,
    classify3(g), is the one the family's tag and canonical l give
    (oracles.expected_lie_key): at the 258 samples, at the benchmark's
    height points of seeds 1-3 and at 20 drawn values of l on a Dl entry."""
    points = [(full_catalog[r.entry_id], r.bindings)
              for r in catalog_sweep.reports]
    assert len(points) == 258
    for seed in (1, 2, 3):
        points += height_points(full_catalog, seed)
    drawn = drawn_l_values()
    assert sum(l.norm2() > 1 for l in drawn) == 7
    assert sum(l.norm2() == 1 and l.im < 0 for l in drawn) == 7
    assert sum(l.im != 0 for l in drawn) >= 13
    points += [(full_catalog["Dl-1"], {"l": l, "lambda": QI(0)})
               for l in drawn]
    for e, b in points:
        assert (classify3(catalog.family_lie(e, b)).key()
                == expected_lie_key(e, b)), (e.id, b)


def test_each_pass_builds_a_point_at_most_once(monkeypatch, capsys):
    """During one catalog-verify --all, count the catalog.instantiate calls
    per pass and point: the remark and property passes build no point the
    sweep built, and each other point at most once."""
    builds, current = [], [None]
    instantiate = catalog.instantiate

    def counted(entry, bindings=None, check=True):
        eid = entry if isinstance(entry, str) else entry.id
        builds.append((current[0], eid, tuple(sorted(bindings.items()))))
        return instantiate(entry, bindings, check)

    def in_pass(name, fn):
        def run(*args, **kwargs):
            current[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                current[0] = None
        return run
    monkeypatch.setattr(catalog, "instantiate", counted)
    for name in ("verify_remark_isos", "verify_property_tables"):
        monkeypatch.setattr(catalog, name, in_pass(name,
                                                   getattr(catalog, name)))
    assert cli.main(["catalog-verify", "--all"]) == 0
    capsys.readouterr()
    swept = {b[1:] for b in builds if b[0] is None}
    passes = [b for b in builds if b[0] is not None]
    assert len(swept) == 258
    assert not [b for b in passes if b[1:] in swept]
    assert len(set(passes)) == len(passes)
    assert {b[0] for b in passes} == {"verify_remark_isos",
                                      "verify_property_tables"}


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
    equal value, so a report holding them deep-copies through vars."""
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
    report = copy.deepcopy(vars(catalog.verify_entry("N-1", {"lambda": 2})))
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


# (file, old text, new text, "<error type>: <message>"): each edit of a
# copy of the data fails the load with that one message, {} standing for
# the copy's directory.  H-1's lines 5-16 of h.cat are the usual target:
# its products on lines 5-9, f(e1..e3) on 11-13 and C on 14.
H1_E1E2 = "table e1 e2 = e2 + e3"
H1_F2 = "f(e2) = [[0,0,0],[0,0,0],[0,1,0]]"
H1_C = "C = [[0,0,1],[0,1,0],[1,0,0]]"
N1_ISO = "iso N-9 when lambda=0 bind lambda=0"
N1_BIND = "iso Dl-1 bind l=0 lambda=lambda"
H2_WITNESS = "primed_witness = [[1,0,0],[1,-1,0],[0,0,-1]]"
LOAD_ERRORS = {
    # the shape of a block
    "unterminated": (
        "e.cat", "[-1,0,1]]\nflags\nend\n", "[-1,0,1]]\nflags\n",
        "DocSyntaxError: line 124, col 1: unterminated entry block in "
        "{}/e.cat"),
    "entry_head_two_ids": (
        "h.cat", "entry H-2\n", "entry H-2 H-3\n",
        "DocSyntaxError: {}/h.cat: line 18, col 1: entry block must start "
        "with 'entry <id>'"),
    "not_an_entry_line": (
        "h.cat", "case AI-1", "cases AI-1",
        "DocSyntaxError: {}/h.cat: line 10, col 1: not a line of a catalog "
        "entry"),
    # metadata lines
    "family_without_value": (
        "h.cat", "family H\n", "family\n",
        "DocSyntaxError: {}/h.cat: line 4, col 1: 'family' needs exactly one "
        "value"),
    "case_two_values": (
        "h.cat", "case AI-1", "case AI 1",
        "DocSyntaxError: {}/h.cat: line 10, col 1: 'case' needs exactly one "
        "value"),
    "samples_without_colon": (
        "dl.cat", "samples lambda: 0, 2, -1", "samples lambda 0, 2, -1",
        "DocSyntaxError: {}/dl.cat: line 9, col 1: samples line must read "
        "'samples <param>: <values>'"),
    "samples_undeclared": (
        "dl.cat", "samples lambda: 0, 2, -1", "samples lamda: 0, 2, -1",
        "DocSyntaxError: {}/dl.cat: line 9, col 1: undeclared parameter "
        "'lamda'"),
    "samples_not_constant": (
        "dl.cat", "samples lambda: 0, 2, -1", "samples lambda: 0,  2 , x",
        "DocSyntaxError: {}/dl.cat: line 9, col 25: expected a constant, got "
        "'x'"),
    "unknown_flag": (
        "n.cat", "flags associative=lambda=1", "flags associativ=lambda=1",
        "DocSyntaxError: {}/n.cat: line 13, col 1: unknown flag "
        "'associativ'"),
    "flag_twice": (
        "n.cat", "associative=lambda=1 transitive=lambda=0",
        "associative=lambda=1 associative=lambda=0",
        "DocSyntaxError: {}/n.cat: line 13, col 1: flag associative is given "
        "twice"),
    "flag_undeclared": (
        "n.cat", "flags associative=lambda=1", "flags associative=lamda=1",
        "DocSyntaxError: {}/n.cat: line 13, col 1: undeclared parameter "
        "'lamda'"),
    "flag_not_constant": (
        "n.cat", "novikov=lambda=0", "novikov=lambda=0&lambda=x",
        "DocSyntaxError: {}/n.cat: line 13, col 72: expected a constant, got "
        "'x'"),
    "flag_not_admissible": (
        "n.cat", "flags associative=mu=1", "flags associative=mu=0",
        "DocSyntaxError: {}/n.cat: line 47, col 19: flag condition mu=0 is "
        "not admissible"),
    "iso_without_target": (
        "n.cat", N1_ISO, "iso",
        "DocSyntaxError: {}/n.cat: line 14, col 1: iso line needs a target "
        "entry"),
    "iso_clause": (
        "n.cat", N1_ISO, "iso N-9 when lambda=0 T",
        "DocSyntaxError: {}/n.cat: line 14, col 1: iso clause 'T' is not "
        "name=value after when or bind"),
    "iso_when_undeclared": (
        "n.cat", N1_ISO, "iso N-9 when lamda=0 bind lambda=0",
        "DocSyntaxError: {}/n.cat: line 14, col 1: undeclared parameter "
        "'lamda'"),
    "iso_when_not_constant": (
        "n.cat", N1_ISO, "iso N-9 when lambda=x bind lambda=0",
        "DocSyntaxError: {}/n.cat: line 14, col 21: expected a constant, got "
        "'x'"),
    "iso_bind_unknown_name": (
        "n.cat", N1_BIND, "iso Dl-1 bind l=0 lambda=lamda",
        "DocSyntaxError: {}/n.cat: line 15, col 1: iso clause "
        "'lambda=lamda': unknown name 'lamda'"),
    "iso_bind_division_by_zero": (
        "n.cat", N1_BIND, "iso Dl-1 bind l=0 lambda=1/0",
        "DocSyntaxError: {}/n.cat: line 15, col 1: iso clause 'lambda=1/0': "
        "division by zero Gaussian rational"),
    "iso_not_an_entry": (
        "n.cat", N1_ISO, "iso N-99 when lambda=0 bind lambda=0",
        "DocSyntaxError: {}/n.cat: line 14, col 1: iso target 'N-99' is not "
        "a catalog entry"),
    "iso_binds_too_little": (
        "n.cat", N1_BIND, "iso Dl-1 bind l=0",
        "DocSyntaxError: {}/n.cat: line 15, col 1: iso Dl-1 binds l, but its "
        "parameters are l, lambda"),
    # params lines
    "params_without_constraint": (
        "n.cat", "params lambda ne 0", "params lambda",
        "DocSyntaxError: {}/n.cat: line 20, col 1: params needs a name and a "
        "constraint"),
    "params_basis_name": (
        "n.cat", "params lambda ne 0", "params e2 ne 0",
        "DocSyntaxError: {}/n.cat: line 20, col 8: bad parameter name 'e2'"),
    "params_repeated": (
        "n.cat", "params lambda ne 0\nparams mu ne 0",
        "params lambda ne 0\nparams lambda ne 0",
        "DocSemanticError: {}/n.cat: line 21: repeated parameter lambda"),
    "params_unknown_constraint": (
        "n.cat", "params lambda ne 0", "params lambda gt 0",
        "DocSyntaxError: {}/n.cat: line 20, col 1: unknown constraint 'gt'"),
    "params_any_with_value": (
        "n.cat", "params lambda any", "params lambda any 1",
        "DocSyntaxError: {}/n.cat: line 5, col 1: any takes no value"),
    # primed tables and their witness
    "primed_without_witness": (
        "h.cat", H2_WITNESS, "",
        "DocSyntaxError: {}/h.cat: line 26, col 1: entry H-2 has a primed "
        "table but no primed_witness"),
    "witness_without_primed": (
        "h.cat", "primed e1 e1 = e1 + e2\nprimed e2 e1 = -e3\n"
        "primed e2 e2 = e3", "\n\n",
        "DocSyntaxError: {}/h.cat: line 51, col 1: entry H-3 has a "
        "primed_witness but no primed table"),
    "repeated_witness": (
        "h.cat", H2_WITNESS, H2_WITNESS + "\n" + H2_WITNESS,
        "DocSemanticError: {}/h.cat: line 35: repeated primed_witness "
        "matrix"),
    # product lines
    "duplicate_product": (
        "h.cat", "table e3 e1 = e3\ncase AI-1", "table e1 e3 = e3\ncase AI-1",
        "DocSemanticError: {}/h.cat: line 9: duplicate product e1 e3"),
    "duplicate_primed_product": (
        "h.cat", "primed e2 e3 = e3", "primed e2 e2 = e3",
        "DocSemanticError: {}/h.cat: line 31: duplicate product e2 e2"),
    "basis_name_e4": (
        "h.cat", "table e1 e3 = e3\n", "table e1 e4 = e3\n",
        "DocSemanticError: {}/h.cat: line 7: basis name e4 is not one of "
        "e1..e3"),
    "basis_name_e0": (
        "h.cat", "table e1 e1 = e1\n", "table e0 e1 = e1\n",
        "DocSemanticError: {}/h.cat: line 5: basis name e0 is not one of "
        "e1..e3"),
    "basis_name_e01": (
        "h.cat", "table e1 e1 = e1\n", "table e01 e1 = e1\n",
        "DocSemanticError: {}/h.cat: line 5: basis name e01 is not one of "
        "e1..e3"),
    "not_a_basis_name": (
        "h.cat", H1_E1E2, "table x1 e2 = e2 + e3",
        "DocSyntaxError: {}/h.cat: line 6, col 1: expected 'e<i> e<j> = "
        "...'"),
    "three_factors": (
        "h.cat", H1_E1E2, "table e1 e2 e3 = e2 + e3",
        "DocSyntaxError: {}/h.cat: line 6, col 1: malformed product line"),
    "whitespace_or_star": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + 2e3",
        "DocSyntaxError: {}/h.cat: line 6, col 21: expected whitespace or * "
        "before e3"),
    "unexpected_character": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + $e3",
        "DocSyntaxError: {}/h.cat: line 6, col 20: unexpected character "
        "'$'"),
    "sum_names_e4": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + 2 e4",
        "DocSyntaxError: {}/h.cat: line 6, col 22: expected one of e1, e2, "
        "e3, got token 'e4'"),
    "sum_trailing_name": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + e3 e1",
        "DocSyntaxError: {}/h.cat: line 6, col 23: expected end of text, got "
        "token 'e1'"),
    "sum_empty": (
        "h.cat", H1_E1E2, "table e1 e2 =",
        "DocSemanticError: {}/h.cat: line 6: empty linear combination; zero "
        "is 0"),
    "sum_unknown_name": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + x e3",
        "DocSemanticError: {}/h.cat: line 6: unknown name 'x'"),
    "sum_division_by_zero": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + 1/0 e3",
        "DocSemanticError: {}/h.cat: line 6: division by zero Gaussian "
        "rational"),
    "sum_open_parenthesis": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + (1 e3",
        "DocSyntaxError: {}/h.cat: line 6, col 23: expected ), got token "
        "'e3'"),
    "sum_power_of_a_name": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + 2^x e3",
        "DocSyntaxError: {}/h.cat: line 6, col 22: expected int, got token "
        "'x'"),
    "sum_nested_too_deep": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + %s1%s e3" % ("(" * 101,
                                                         ")" * 101),
        "DocSyntaxError: {}/h.cat: line 6, col 120: nested deeper than 100 "
        "parentheses or signs"),
    "sum_power_too_large": (
        "h.cat", H1_E1E2, "table e1 e2 = e2 + (2+3*i)^9000 e3",
        "DocSemanticError: {}/h.cat: line 6: power ^9000 exceeds 4096 bits"),
    # f(e<i>) and C lines
    "repeated_f": (
        "h.cat", H1_F2, "f(e1) = [[0,0,0],[0,0,0],[0,1,0]]",
        "DocSemanticError: {}/h.cat: line 12: repeated f(e1)"),
    "missing_f": (
        "h.cat", H1_F2 + "\n", "",
        "DocSemanticError: {}/h.cat: missing f(e2) line"),
    "f_without_parenthesis": (
        "h.cat", H1_F2, "f(e2 = [[0,0,0],[0,0,0],[0,1,0]]",
        "DocSyntaxError: {}/h.cat: line 12, col 1: expected 'f(e<i>) = ...'"),
    "f_without_equals": (
        "h.cat", H1_F2, "f(e2) [[0,0,0],[0,0,0],[0,1,0]]",
        "DocSyntaxError: {}/h.cat: line 12, col 1: expected 'f(e<i>) = ...'"),
    "f_basis_name_e4": (
        "h.cat", H1_F2, "f(e4) = [[0,0,0],[0,0,0],[0,1,0]]",
        "DocSemanticError: {}/h.cat: line 12: basis name e4 is not one of "
        "e1..e3"),
    "repeated_C": (
        "h.cat", H1_C, H1_C + "\n" + H1_C,
        "DocSemanticError: {}/h.cat: line 15: repeated C matrix"),
    "missing_C": (
        "h.cat", H1_C + "\n", "",
        "DocSemanticError: {}/h.cat: catalog entry needs a C matrix"),
    "C_without_equals": (
        "h.cat", H1_C, "C [[0,0,1],[0,1,0],[1,0,0]]",
        "DocSyntaxError: {}/h.cat: line 14, col 1: expected 'C = [[...]]'"),
    "matrix_short_row": (
        "h.cat", H1_C, "C = [[0,0,1],[0,1,0],[1,0]]",
        "DocSemanticError: {}/h.cat: line 14: matrix row has 2 entries, need "
        "3"),
    "matrix_two_rows": (
        "h.cat", H1_C, "C = [[0,0,1],[0,1,0]]",
        "DocSemanticError: {}/h.cat: line 14: matrix has 2 rows, need 3"),
    "matrix_unclosed": (
        "h.cat", H1_C, "C = [[0,0,1],[0,1,0],[1,0,0]",
        "DocSyntaxError: {}/h.cat: line 14, col 29: expected ], got end of "
        "text"),
    "matrix_empty_entry": (
        "h.cat", H1_C, "C = [[0,0,1],[0,,0],[1,0,0]]",
        "DocSyntaxError: {}/h.cat: line 14, col 17: unexpected token ','"),
    "matrix_trailing_text": (
        "h.cat", H1_C, "C = [[0,0,1],[0,1,0],[1,0,0]] 1",
        "DocSyntaxError: {}/h.cat: line 14, col 31: expected end of text, got "
        "token 1"),
    "matrix_undeclared_name": (
        "n.cat", "C = [[0,1,0],[1,0,0],[0,0,1]]",
        "C = [[0,1,0],[1,0,0],[0,0,mu]]",
        "DocSemanticError: {}/n.cat: line 12: unknown name 'mu'"),
}


@pytest.mark.parametrize("defect", sorted(LOAD_ERRORS))
def test_catalog_reader_error_paths(tmp_path, monkeypatch, defect):
    """Each reader error of an entry block, its metadata, products,
    matrices and scalars: the exact message with its file, line and
    column."""
    name, old, new, message = LOAD_ERRORS[defect]
    directory = corrupted_catalog(tmp_path, old, new, name)
    monkeypatch.setenv("LSACAT_DATA", directory)
    with pytest.raises((DocSyntaxError, DocSemanticError)) as err:
        catalog.load_catalog()
    assert ("%s: %s" % (type(err.value).__name__, err.value)
            == message.format(directory))


# (old, new, stdout) in e.cat: each edit breaks the structure of a block
# or of the catalog, and {} is the copy's directory
BAD_BLOCKS = {
    "block_head": ("entry E-2\n", "entries E-2\n",
                   "catalog error: {}/e.cat: line 18, col 1: entry block "
                   "must start with 'entry <id>'"),
    "bad_family": ("family E\n", "family Q\n",
                   "catalog error: {}/e.cat: entry E-1 has bad family 'Q'"),
    "unterminated": ("C = [[1,0,0],[1,1,0],[-1,0,1]]\nflags\nend\n",
                     "C = [[1,0,0],[1,1,0],[-1,0,1]]\nflags\n",
                     "catalog error: line 124, col 1: unterminated entry "
                     "block in {}/e.cat"),
    "duplicate_id": ("entry E-2\n", "entry E-1\n",
                     "catalog error: duplicate entry id E-1"),
    # an 'end' with no block before it is a block without its head
    "end_twice": ("end\n\nentry E-2\n", "end\nend\n\nentry E-2\n",
                  "catalog error: {}/e.cat: line 17, col 1: entry block "
                  "must start with 'entry <id>'"),
}


@pytest.mark.parametrize("defect", sorted(BAD_BLOCKS))
def test_bad_block_rejected_on_load(tmp_path, monkeypatch, capsys, defect):
    "A block or catalog of the wrong shape exits 2 with one pinned line."
    old, new, line = BAD_BLOCKS[defect]
    directory = corrupted_catalog(tmp_path, old, new, "e.cat")
    monkeypatch.setenv("LSACAT_DATA", directory)
    assert cli.main(["catalog-verify", "--entry", "E-1"]) == 2
    assert capsys.readouterr().out.splitlines() == [line.format(directory)]


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
    # a flag written "no" reads as False, and H-1 is Novikov
    "flag_written_no": ("h.cat", "flags novikov=yes\nend",
                        "flags novikov=no\nend", ["--entry", "H-1"], [
        "H: 0/1 classes verified",
        "entry/sample pairs: 1, failures: 1",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 1",
        "H-1: FAIL",
        "    novikov: computed True, table says False"]),
    # H-10's table holds 1/(lambda-1), so it refuses lambda = 1
    "iso_target_refuses_binding": ("h.cat", "flags novikov=yes\nend",
                                   "flags novikov=yes\niso H-10 bind lambda=1"
                                   "\nend", ["--entry", "H-1"], [
        "H: 1/1 classes verified",
        "entry/sample pairs: 1, failures: 0",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 1 failed",
        "property table discrepancies: 0",
        "  iso H-1 -> H-10: target instantiation failed: denominator "
        "lambda-1 vanishes at {'lambda': '1'}"]),
    # N-2's table holds lambda*(lambda-1)/mu, so its source points at the
    # pin mu = 0 cannot be built: each is one failed coincidence, and the
    # other iso line and the property pass still report
    "iso_source_refuses_binding": (
        "n.cat", "iso N-3 when lambda=0 bind mu=mu\n",
        "iso N-3 when lambda=0 bind mu=mu\niso N-3 when mu=0 bind mu=1\n",
        ["--entry", "N-2"], [
            "N: 1/1 classes verified",
            "entry/sample pairs: 12, failures: 0",
            "remark coincidences: 3 confirmed, 0 unconfirmed, 4 failed",
            "property table discrepancies: 0"] + [
            "  iso N-2 -> N-3: source instantiation failed: denominator mu "
            "vanishes at {'lambda': '%s', 'mu': '0'}" % v
            for v in ("2", "-1", "1/2", "3")]),
    # a bind whose denominator vanishes at a sample (lambda = 0) fails
    # that one coincidence, and the other samples and lines still report
    "iso_bind_denominator_vanishes": (
        "n.cat", "iso Dl-1 bind l=0 lambda=lambda\n",
        "iso Dl-1 bind l=0 lambda=1/lambda\n", ["--entry", "N-1"], [
            "N: 1/1 classes verified",
            "entry/sample pairs: 5, failures: 0",
            "remark coincidences: 2 confirmed, 0 unconfirmed, 4 failed",
            "property table discrepancies: 0",
            "  iso N-1 -> Dl-1: bind failed: denominator lambda vanishes at "
            "{'lambda': '0'}"] + [
            "  iso N-1[lambda=%s] -> Dl-1[l=0,lambda=%s]: not_isomorphic "
            "(every automorphism component gives the Groebner basis {1})"
            % pair for pair in (("2", "1/2"), ("1/2", "2"), ("3", "1/3"))]),
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
    # Dl-2's bracket [e3,e2] doubled: at l = 2 the commutator is D(4),
    # and the expected class is D(2)'s, read at its canonical l = 1/2
    "table_other_dl_class": ("dl.cat", "table e3 e2 = l e2\ntable e3 e3 = l e3",
                             "table e3 e2 = (2*l) e2\ntable e3 e3 = l e3",
                             ["--entry", "Dl-2", "--param", "l=2"], [
        "Dl: 0/1 classes verified",
        "entry/sample pairs: 1, failures: 1",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 0",
        "Dl-2[l=2]: FAIL",
        "    lie class ('Dl', (Fraction(1, 4), Fraction(0, 1))), expected "
        "('Dl', (Fraction(1, 2), Fraction(0, 1)))",
        "    phi does not reproduce the printed table"]),
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
    # the added term lambda (lambda-2) (lambda+1) (2 lambda-1) (lambda-3)
    # e1 vanishes at N-9's samples and at the lambda=0 of its iso line, but
    # not at the point lambda=1 its conditional flags add: only the added
    # point is not left-symmetric, and that is a discrepancy of its own
    "condition_point_not_left_symmetric": (
        "n.cat", "table e3 e1 = lambda e1\ntable e3 e2 = e2\n",
        "table e3 e1 = lambda e1\ntable e3 e2 = e2 + "
        "lambda*(lambda-2)*(lambda+1)*(2*lambda-1)*(lambda-3) e1\n",
        ["--entry", "N-9"], [
            "N: 1/1 classes verified",
            "entry/sample pairs: 4, failures: 0",
            "remark coincidences: 5 confirmed, 0 unconfirmed, 0 failed",
            "property table discrepancies: 3",
            "  N-9[lambda=1] left-symmetry fails at triple (1, 2, 2)",
            "  N-9[lambda=1] associative: computed False, table says True",
            "  N-9[lambda=1] bisymmetric: computed False, table says True"]),
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


def test_flag_written_no_matches_a_false_flag(tmp_path, monkeypatch, capsys):
    "'novikov=no' reads as False, which is H-3's computed flag: exit 0."
    monkeypatch.setenv("LSACAT_DATA", corrupted_catalog(
        tmp_path, "flags\nend", "flags novikov=no\nend"))
    assert catalog.lookup("H-3").flags["novikov"] is False
    assert cli.main(["catalog-verify", "--all", "--entry", "H-3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "H: 1/1 classes verified",
        "entry/sample pairs: 1, failures: 0",
        "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 0"]


def test_reconstruction_falls_back_to_phi_on_a_refused_identity(monkeypatch):
    """Fault injection: when the identity A_i C = C F_i wrongly refuses a
    good point (the first row product it forms, row 1 of A_1 C, is
    perturbed in its first coordinate), phi rebuilds the table and the
    check still passes, at its final return."""
    apply_row, check = Mat.apply_row, catalog._check_reconstruction
    inside, products, built = [], [], []

    def perturbed(self, x):
        out = apply_row(self, x)
        if inside and not built:        # in the identity, before phi
            if not products:
                out = [out[0] + QI(1)] + out[1:]
            products.append(out)
        return out

    def traced(*args):
        inside.append(True)
        return check(*args)

    def counted(c):
        built.append(len(products))     # the row products formed before phi
        return phi(c)
    monkeypatch.setattr(Mat, "apply_row", perturbed)
    monkeypatch.setattr(catalog, "_check_reconstruction", traced)
    monkeypatch.setattr(catalog, "phi", counted)
    r = catalog.verify_entry("H-1")
    assert r.ok and r.cocycle_reconstruction_ok and r.messages == []
    assert (built, inside) == ([2], [True])


# isomorphic sample points of distinct entries that no iso line declares:
# each pair is one class under l <-> 1/l, met only at l = -1 = 1/l
UNDECLARED_COINCIDENCES = {
    frozenset(("Dl-2[l=-1]", "Dl-3[l=-1]")),
    frozenset(("Dl-9[l=-1]", "Dl-S-2[l=-1]")),
    frozenset(("Dl-12[l=-1]", "Dl-13[l=-1]")),
    frozenset(("Dl-14[l=-1]", "Dl-15[l=-1]")),
}


def test_distinct_entries_are_distinct_at_their_samples(full_catalog):
    """The sample points of every entry, grouped by fingerprint: each pair
    of points of distinct entries in a group is decided by search_lsa_iso,
    and each isomorphic pair is declared by an iso line or pinned above by
    name, with a witness verify_lsa_iso accepts."""
    groups = {}
    for e in full_catalog.values():
        for b in e.sample_bindings():
            a = catalog.instantiate(e.id, b)
            fp = fingerprint(a)
            key = tuple(tuple(sorted(part.items()))
                        for part in (fp.flags, fp.dims, fp.ranks))
            groups.setdefault(key + (fp.lie_class,), []).append(
                (e.id, catalog.point_label(e.id, b), a))
    declared = set()
    for e in full_catalog.values():
        for d in e.isos:
            for b in e.sample_bindings(d.when):
                bind = {k: substitute(v, b) for k, v in d.bind.items()}
                declared.add(frozenset((catalog.point_label(e.id, b),
                                        catalog.point_label(d.target, bind))))
    found = set()
    for group in groups.values():
        for (id1, p1, a1), (id2, p2, a2) in combinations(group, 2):
            if id1 == id2:
                continue
            v = search_lsa_iso(a1, a2)
            assert v.status != "unknown", (p1, p2, v.reason)
            if v.is_isomorphic:
                assert verify_lsa_iso(a1, a2, v.witness), (p1, p2)
                found.add(frozenset((p1, p2)))
    assert found - declared == UNDECLARED_COINCIDENCES


def test_readme_quick_start_runs(capsys):
    "The README's library quick start runs as printed and its sweep is clean."
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["report"].summary() == (
        "verified 18 entry/sample pairs, 0 failures")
    assert capsys.readouterr().out.splitlines()[-1] == scope["report"].summary()


# FOUND: `params l ne 0 1` admits l = 2, which the header of dl.cat (0 <
# |l| < 1 or l on the upper unit circle) excludes, and three entries fail
# there: det C = +-(l - 2) on Dl-9 and Dl-21, and the transitive and
# Novikov flags change.  Pinned as the data reads until the range of l is
# decided; at l = 1/2 all three verify.
FAILS_AT_L_2 = {
    "Dl-9": ["stored C is singular",
             "transitive: computed True, table says False",
             "novikov: computed True, table says False"],
    "Dl-15": ["novikov: computed True, table says False"],
    "Dl-21": ["stored C is singular",
              "transitive: computed True, table says False",
              "novikov: computed True, table says False"],
}


@pytest.mark.parametrize("entry_id", sorted(FAILS_AT_L_2))
def test_dl_entry_fails_at_l_2(capsys, entry_id):
    argv = ["catalog-verify", "--entry", entry_id, "--param"]
    assert cli.main(argv + ["l=2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "Dl: 0/1 classes verified",
        "entry/sample pairs: 1, failures: 1",
        "%s[l=2]: FAIL" % entry_id] + [
        "    " + m for m in FAILS_AT_L_2[entry_id]]
    assert cli.main(argv + ["l=1/2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Dl: 1/1 classes verified", "entry/sample pairs: 1, failures: 0"]


def univariate_coefficients(p, name):
    """The coefficients, low to high, of p, a QI or a MultiPoly in the one
    variable name."""
    if type(p) is QI:
        return [p]
    k = p.vars.index(name)
    co = [QI(0)] * (max(e[k] for e in p.terms) + 1)
    for e, c in p.terms.items():
        co[e[k]] = c
    return co


def qi_part(co, name):
    """(roots, rest) of the polynomial co in the variable name, coefficients
    low to high: its Q(i) roots, and the text of the monic factor left once
    each root is divided out as often as it divides, or None if that factor
    is a constant.  A rest has degree 2 or more and no Q(i) root, so `ne`
    cannot exclude its roots and a flag condition cannot name them."""
    co = _up_trim(co)
    roots = qi_roots(co)
    for r in roots:
        q, rem = _up_deflate(co, r)
        while rem.is_zero():
            co = q
            q, rem = _up_deflate(co, r)
    if len(co) <= 1:
        return roots, None
    return roots, str(MultiPoly((name,), {(k,): c / co[-1]
                                          for k, c in enumerate(co)}))


def slice_of(e, fixed=None):
    """(name, values) of a one-parameter slice of the entry e: values maps
    each parameter to its value in fixed, else its `eq` pin, else, for the
    one parameter name left free, its MultiPoly variable."""
    fixed = fixed or {}
    values = {n: fixed[n] if n in fixed else c[1] if c[0] == "eq"
              else MultiPoly.var(n) for n, c in e.params.items()}
    [name] = [n for n, v in values.items() if isinstance(v, MultiPoly)]
    return name, values


def admitted_roots(e, name, values):
    """{Q(i) root: causes} of det C (its numerator) and of each denominator
    of the table, f(e_i) and C cells of e, on the slice (name, values) of
    slice_of, for each root that the `ne` of name does not exclude; and
    {text: causes} for each of those polynomials whose factor with no Q(i)
    root (the rest of qi_part) is not a constant."""
    polys = []
    for where, x in ([("table", x) for row in e.table.c for v in row
                          for x in v]
                         + [("f(e%d)" % (i + 1), x) for i, f in
                            enumerate(e.f_mats) for r in f.rows for x in r]
                         + [("C", x) for r in e.cmat.rows for x in r]):
        if isinstance(x, RatFunc):
            polys.append((where + " denominator", pinned(x.den, values)))
    det = Mat._of([[pinned(x, values) for x in r]
                   for r in e.cmat.rows]).det()
    polys.append(("det C", det.num if isinstance(det, RatFunc) else det))
    c, found = e.params[name], {}
    for cause, p in polys:
        roots, rest = qi_part(univariate_coefficients(p, name), name)
        for r in roots:
            if not (c[0] == "ne" and r in c[1:]):
                found.setdefault(r, set()).add(cause)
        if rest:
            found.setdefault(rest, set()).add(cause)
    return found


def test_one_parameter_entries_fail_only_at_excluded_values(full_catalog):
    """ROADMAP item 32's first scan: every Q(i) root of det C and of each
    denominator of a one-parameter entry's table, f(e_i) and C cells is a
    value its `params` line excludes with `ne`, but for the pinned FOUND
    at l = 2 (FAILS_AT_L_2), where det C = +-(l - 2) on Dl-9 and Dl-21;
    and none of those polynomials has a factor with no Q(i) root."""
    one = [e for e in full_catalog.values()
           if sum(c[0] != "eq" for c in e.params.values()) == 1]
    assert len(one) == 43
    admitted = {}
    for e in one:
        name, values = slice_of(e)
        for r, causes in admitted_roots(e, name, values).items():
            admitted[e.id, name, r] = causes
    assert admitted == {("Dl-9", "l", QI(2)): {"det C"},
                        ("Dl-21", "l", QI(2)): {"det C"}}


def polys_in(x, name):
    """The numerator of x, a QI, MultiPoly or RatFunc, as polynomials in the
    variable name, coefficients low to high: one for each monomial in its
    other variables."""
    if isinstance(x, RatFunc):
        x = x.num
    if type(x) is QI:
        return [[x]]
    k = x.vars.index(name) if name in x.vars else None
    groups = {}
    for e, c in x.terms.items():
        rest = e if k is None else e[:k] + e[k + 1:]
        groups.setdefault(rest, {})[0 if k is None else e[k]] = c
    return [[co.get(d, QI(0)) for d in range(max(co) + 1)]
            for co in groups.values()]


def flag_defects(table):
    """{identity flag: scalars that all vanish where it holds} of a table
    whose cells may be parametric: the values of the associator A
    (associative), the j, k asymmetry of T (novikov) and of A
    (bisymmetric), and tr R_x^k for k <= 3 with x symbolic (transitive:
    every R_x nilpotent)."""
    t, _, a = triple_products(table)

    def asymmetry(d):
        return [v - d.get((i, k, j, m), QI(0))
                for (i, j, k, m), v in d.items() if j != k]
    x = [MultiPoly.var("x%d" % i) for i in (1, 2, 3)]
    c, rng = table.c, range(3)
    r = Mat._of([[sum((x[q] * c[j][q][m] for q in rng), QI(0)) for j in rng]
                 for m in rng])      # column j holds e_j x
    power, traces = r, []
    for _ in rng:
        traces.append(sum((power.rows[i][i] for i in rng), QI(0)))
        power = power * r
    return {"associative": list(a.values()), "novikov": asymmetry(t),
            "bisymmetric": asymmetry(a), "transitive": traces}


def stored_holds(cond, name, values):
    """Where a stored flag condition says the flag holds, as the scan
    computes it: True for everywhere, else the set of values of the free
    parameter name (values holds each parameter's pin or variable)."""
    if not isinstance(cond, tuple):
        return cond or set()
    if any(n != name and values[n] != v for n, v in cond):
        return set()
    return {v for n, v in cond if n == name} or True


def flag_disagreements(e, name, values):
    """{identity flag: where it holds} of each flag of e whose stored
    condition disagrees on the slice (name, values) of slice_of.  A flag
    holds everywhere when all its defects (flag_defects) vanish
    identically, and otherwise exactly at the roots of the gcd of their
    numerators: at its Q(i) roots that the `params` line of name admits,
    and at the roots of its factor with no Q(i) root (the rest of
    qi_part), given as that factor's text."""
    table = Algebra._of([[[pinned(x, values) for x in v] for v in row]
                         for row in e.table.c])
    out = {}
    for flag, defects in flag_defects(table).items():
        polys = [co for d in defects if not is_zero(d)
                 for co in polys_in(d, name)]
        holds = set() if polys else True
        if polys:
            roots, rest = qi_part(
                functools.reduce(_up_gcd, map(_up_trim, polys)), name)
            holds = {r for r in roots if constraint_allows(e.params[name], r)}
            if rest:
                holds.add(rest)
        if holds != stored_holds(e.flags[flag], name, values):
            out[flag] = holds
    return out


def test_one_parameter_flags_hold_where_the_table_says(full_catalog):
    """ROADMAP item 32's flag scan: on each one-parameter entry, `eq` pins
    substituted, where each identity flag holds (flag_disagreements)
    equals the stored condition's set on every entry and flag but at the
    pinned FOUND at l = 2 (FAILS_AT_L_2): Dl-9 and Dl-21 are transitive
    and Novikov there, and Dl-15 is Novikov.  No flag holds at the roots
    of a factor with no Q(i) root.  Not covered: the simple and semisimple
    flags, which no identity decides.  The two-parameter entries are
    scanned by slices."""
    one = [e for e in full_catalog.values()
           if sum(c[0] != "eq" for c in e.params.values()) == 1]
    assert len(one) == 43
    disagree = {}
    for e in one:
        for flag, holds in flag_disagreements(e, *slice_of(e)).items():
            disagree[e.id, flag] = holds
    assert disagree == {("Dl-9", "transitive"): {QI(2)},
                        ("Dl-9", "novikov"): {QI(2)},
                        ("Dl-21", "transitive"): {QI(2)},
                        ("Dl-21", "novikov"): {QI(2)},
                        ("Dl-15", "novikov"): {QI(2)}}


def slice_pins(e):
    """The (parameter, value) pins of the slices of e: each free parameter
    at each of its sample values and at each value a flag condition names
    for it, sorted by name and then by text."""
    pins = {(n, b[n]) for b in e.sample_bindings() for n in b}
    pins |= {pin for cond in e.flags.values() if isinstance(cond, tuple)
             for pin in cond}
    return sorted(pins, key=lambda pin: (pin[0], str(pin[1])))


def test_two_parameter_entries_hold_on_each_slice(full_catalog):
    """ROADMAP item 32's scans on the 6 entries with two free parameters,
    by slices: one parameter fixed at each pin of slice_pins, an admitted
    value, and the other scanned.  On each of the 36 slices every Q(i)
    root of det C and of each denominator of the table, f(e_i) and C cells
    is a value `ne` excludes, and each identity flag holds exactly where
    its stored condition says; no polynomial of either scan has a factor
    with no Q(i) root."""
    two = [e for e in full_catalog.values()
           if sum(c[0] != "eq" for c in e.params.values()) == 2]
    assert [e.id for e in two] == ["N-2", "N-22", "Dl-1", "Dl-4", "Dl-11",
                                   "Dl-16"]
    slices, admitted, disagree = 0, {}, {}
    for e in two:
        for fix, v in slice_pins(e):
            assert constraint_allows(e.params[fix], v)
            name, values = slice_of(e, {fix: v})
            for r, causes in admitted_roots(e, name, values).items():
                admitted[e.id, fix, v, r] = causes
            for flag, holds in flag_disagreements(e, name, values).items():
                disagree[e.id, fix, v, flag] = holds
            slices += 1
    assert admitted == {}
    assert disagree == {}
    assert slices == 36


def pinned(x, values):
    """The scalar x with each parameter replaced by values[name], a QI or
    a MultiPoly (MultiPoly.substitute only evaluates fully)."""
    if type(x) is QI:
        return x
    if isinstance(x, RatFunc):
        return pinned(x.num, values) / pinned(x.den, values)
    out = QI(0)
    for exps, c in x.terms.items():
        for name, k in zip(x.vars, exps):
            c = c * values[name] ** k
        out = out + c
    return out


def parametric_faults(e):
    """The per-point identities that fail on the entry e over its
    parameters, by name: left-symmetry and h = g on every entry, det C != 0
    and A_i C = C F_i on a non-primed one, and on a primed one phi's table
    against the primed table and the primed witness.  A parameter pinned by
    `eq` takes its value; every other one stays a MultiPoly variable."""
    values = {name: c[1] if c[0] == "eq" else MultiPoly.var(name)
              for name, c in e.params.items()}

    def algebra(a):
        return Algebra._of([[[pinned(x, values) for x in v] for v in row]
                            for row in a.c])

    def mat(m):
        return Mat._of([[pinned(x, values) for x in r] for r in m.rows])

    table, cm, fs = algebra(e.table), mat(e.cmat), [mat(f) for f in e.f_mats]
    if not check_left_symmetric(table)[0]:
        return ["left-symmetry"]
    g = catalog.family_lie(e, values)
    faults = [] if commutator_lie(table) == g else ["h = g"]
    if e.primed is None:
        if cm.det().is_zero():
            faults.append("det C")
        if any(Mat._of(table.c[i]) * cm != cm * f for i, f in enumerate(fs)):
            faults.append("A_i C = C F_i")
        return faults
    primed = algebra(e.primed)
    if phi(Cocycle(Representation(g, fs), cm)) != primed:
        faults.append("phi")
    if not verify_lsa_iso(primed, table, mat(e.primed_witness)):
        faults.append("primed witness")
    return faults


def test_point_identities_hold_over_the_parameters(full_catalog):
    """Every identity verify_entry checks point by point, proved over the
    parameters of each entry that has a free one: the 258 samples stay
    the oracle, and a table term that vanishes at every sample fails here."""
    free = [e for e in full_catalog.values()
            if any(c[0] != "eq" for c in e.params.values())]
    assert len(free) == 49
    assert [e.id for e in free if e.primed is not None] == [
        "N-13", "N-14", "N-37", "N-43"]
    assert [e.id for e in free if "eq" in {c[0] for c in e.params.values()}
            ] == ["Dhalf-S-1", "Dhalf-S-5"]
    assert {e.id: parametric_faults(e) for e in free} == {
        e.id: [] for e in free}


def sample_vanishing_mutant(e):
    """e with P(lambda) e1 added to its product e1 e1, where P is the
    product of lambda - v over each lambda v of e's sample plan."""
    lam, p = MultiPoly.var("lambda"), QI(1)
    for v in {b["lambda"] for b in e.sample_bindings()}:
        p = p * (lam - v)
    c = [[list(v) for v in row] for row in e.table.c]
    c[0][0][0] = c[0][0][0] + p
    return replaced(e, table=Algebra._of(c))


@pytest.mark.parametrize("entry_id", ["N-38", "N-24", "D1bar-1",
                                      "Dhalf-S-5"])
def test_sample_vanishing_mutant_fails_over_the_parameters(entry_id):
    "The mutant passes verify_entry at every sample, and not the proof."
    e = catalog.lookup(entry_id)
    mutant = sample_vanishing_mutant(e)
    assert mutant.table != e.table
    for b in e.sample_bindings():
        assert catalog.verify_entry(mutant, b).ok, b
    assert parametric_faults(mutant) != []
