"""The record types: plain classes on scalars.Record (and LieClass on
scalars.Frozen) whose fields keep the order, defaults and equality they
had, and whose import pulls in no dataclasses machinery."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from lsacat import catalog
from lsacat.catalog import CatalogEntry, EntryReport, IsoDecl, SweepReport
from lsacat.docs import Document
from lsacat.iso import IsoVerdict
from lsacat.lie import LieClass, canonical_lie, classify3
from lsacat.props import IdealReport, find_ideals, fingerprint
from lsacat.scalars import QI

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# the fields of each record type, in their declared order
FIELDS = {
    "IsoDecl": ("target", "when", "bind", "lineno"),
    "CatalogEntry": ("id", "family", "params", "table", "primed",
                     "primed_witness", "case", "f_mats", "cmat", "flags",
                     "isos", "samples_override"),
    "EntryReport": ("entry_id", "bindings", "alg", "left_symmetric",
                    "lie_class_ok", "cocycle_reconstruction_ok", "flags_ok",
                    "computed", "messages"),
    "SweepReport": ("total", "failures", "reports"),
    "Document": ("kind", "dim", "domain", "params", "payload"),
    "IsoVerdict": ("status", "witness", "reason"),
    "IdealReport": ("lines", "line_families", "planes", "plane_families",
                    "line_orbits", "plane_orbits"),
    "Fingerprint": ("flags", "dims", "ranks", "lie_class"),
}


def built():
    "{type name: a record of that type from the package's own code}."
    n1 = catalog.lookup("N-1")
    decl = next(d for e in catalog.load_catalog().values() for d in e.isos)
    alg = catalog.instantiate("N-1", {"lambda": 2})
    sweep = catalog.verify_all(plan={"H-1": [{}]})
    return {
        "IsoDecl": decl,
        "CatalogEntry": n1,
        "EntryReport": sweep.reports[0],
        "SweepReport": sweep,
        "Document": Document("algebra", 3, "gaussian", {}, alg),
        "IsoVerdict": IsoVerdict("unknown", reason="budget"),
        "IdealReport": find_ideals(alg),
        "Fingerprint": fingerprint(alg),
    }


def test_import_loads_no_dataclasses_or_inspect():
    "A fresh import of the package, the catalog and the CLI stays lean."
    code = ("import sys, lsacat, lsacat.catalog, lsacat.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_fields_keep_their_order():
    for name, rec in built().items():
        assert type(rec).__name__ == name
        assert tuple(vars(rec)) == FIELDS[name], name
    assert LieClass._ARGS == ("tag", "param", "witness", "detail")


def test_equality_is_by_type_and_fields():
    for name, rec in built().items():
        twin = copy.deepcopy(rec)
        assert twin == rec and not twin != rec, name
        assert rec.__eq__(vars(rec)) is NotImplemented, name
    v = IsoVerdict("unknown", reason="budget")
    assert v == IsoVerdict("unknown", None, "budget")
    assert v != IsoVerdict("unknown", reason="other")
    assert v != type("Verdict", (IsoVerdict,), {})("unknown", reason="budget")
    assert SweepReport() != IdealReport()
    with pytest.raises(TypeError):
        hash(v)


def test_repr_lists_the_fields():
    assert repr(IsoVerdict("unknown", reason="budget")) == (
        "IsoVerdict(status='unknown', witness=None, reason='budget')")
    assert repr(SweepReport()) == (
        "SweepReport(total=0, failures=[], reports=[])")
    assert repr(LieClass("Dl", QI(2))) == (
        "LieClass(tag='Dl', param=QI(2), witness=None, detail='')")


def test_default_records_share_no_container():
    pairs = [(IsoDecl("N-2"), IsoDecl("N-2")),
             (CatalogEntry("X-1", "N"), CatalogEntry("X-1", "N")),
             (EntryReport("X-1", {}), EntryReport("X-1", {})),
             (SweepReport(), SweepReport()),
             (Document("algebra", 3, "gaussian"),
              Document("algebra", 3, "gaussian")),
             (IdealReport(), IdealReport())]
    for a, b in pairs:
        assert a == b
        for name, value in vars(a).items():
            if isinstance(value, (list, dict)):
                assert value is not vars(b)[name], (type(a).__name__, name)
    e = EntryReport("X-1", {})
    e.messages.append("changed")
    assert EntryReport("X-1", {}).messages == []


def test_lie_class_is_a_frozen_value():
    sl2 = classify3(canonical_lie("Sl2"))
    with pytest.raises(AttributeError, match="immutable"):
        sl2.detail = "changed"
    assert sl2 == LieClass("Sl2")
    with pytest.raises(TypeError, match="unhashable type: 'LieClass'"):
        hash(sl2)
    assert LieClass("Dl", QI(2)) != LieClass("Dl", QI(3))
    assert LieClass("Sl2") != ("Sl2", None, None, "")
    n = classify3(canonical_lie("N"))
    for cls in (sl2, n, LieClass("Dl", QI(1, 1), detail="x")):
        for twin in (copy.copy(cls), copy.deepcopy(cls),
                     pickle.loads(pickle.dumps(cls))):
            assert type(twin) is LieClass and twin == cls
            assert twin.key() == cls.key()


def test_records_pickle():
    for name, rec in built().items():
        assert pickle.loads(pickle.dumps(rec)) == rec, name
