"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input error (including
any library error a command does not handle itself) or a failed internal
self-check, printed as "internal error: ...".  Output is deterministic:
fixed ordering, no timestamps.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog
from .algebra import check_left_symmetric, commutator_lie
from .cocycle import phi
from .docs import Document, emit_document, parse_document
from .errors import (DocSemanticError, DocSyntaxError, InternalError,
                     LsaError)
from .iso import search_lsa_iso, verify_lsa_iso
from .lie import classify3
from .linalg import format_matrix
from .props import fingerprint
from .scalars import format_scalar, parse_scalar


def _read_doc(path, kinds, action=None):
    "The document at path, of one of the kinds; with no parameters for action."
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = parse_document(fh.read())
    except OSError as e:
        raise SystemExit(_fail(2, "cannot read %s: %s" % (path, e)))
    except (DocSyntaxError, DocSemanticError) as e:
        raise SystemExit(_fail(2, "bad document %s: %s" % (path, e)))
    if doc.kind not in kinds:
        want = "/".join(kinds)
        raise SystemExit(_fail(2, "%s: expected %s %s document, got %s" % (
            path, "an" if want[0] in "aeiou" else "a", want, doc.kind)))
    if action and doc.params:
        raise SystemExit(_fail(2, "parametric table: instantiate before "
                                  + action))
    return doc


def _fail(code, msg):
    print(msg)
    return code


def cmd_check(args):
    alg = _read_doc(args.file, ("algebra",), "checking").payload
    ok, cert = check_left_symmetric(alg)
    print("left_symmetric: %s" % ("yes" if ok else "no"))
    if not ok:
        i, j, k, _ = cert
        print("  violated at triple (e%d,e%d,e%d)" % (i + 1, j + 1, k + 1))
        return 1
    if alg.dim == 3:
        cls = classify3(commutator_lie(alg))
        tag = cls.tag
        if cls.param is not None:
            tag += "(l=%s)" % format_scalar(cls.param)
        print("lie_class: %s" % tag)
    flags = catalog.computed_flags(alg)
    if alg.is_zero_product() or alg.dim != 3:
        del flags["simple"], flags["semisimple"]
    for name, val in flags.items():
        print("%s: %s" % (name, "yes" if val else "no"))
    return 0


def cmd_cocycle_build(args):
    doc = _read_doc(args.file, ("cocycle",))
    try:
        alg = phi(doc.payload)
    except LsaError as e:
        print("cannot build: %s" % e)
        return 1
    out = Document("algebra", alg.dim, doc.domain, doc.params, alg)
    sys.stdout.write(emit_document(out))
    return 0


def cmd_catalog_verify(args):
    if args.param and not args.entry:
        print("--param requires --entry")
        return 2
    plan = None
    try:
        if args.param:
            bindings = {}
            for item in args.param:
                name, _, val = item.partition("=")
                if not (name.strip() and val.strip()):
                    raise LsaError("--param expects NAME=VALUE, got %r" % item)
                if name in bindings:
                    raise LsaError("--param %s is given twice" % name)
                try:
                    bindings[name] = parse_scalar(val, vars=())
                except LsaError as e:
                    raise LsaError("--param %s: %s" % (item, e)) from e
            plan = {args.entry: [bindings]}
        elif args.entry:
            plan = {args.entry: catalog.lookup(args.entry).sample_bindings()}
        report = catalog.verify_all(
            families=[args.family] if args.family else None, plan=plan)
    except LsaError as e:
        print("catalog error: %s" % e)
        return 2
    cat, by_family = catalog.load_catalog(), {}
    for r in report.reports:
        by_family.setdefault(cat[r.entry_id].family, set()).add(r.entry_id)
    bad = {r.entry_id for r in report.failures}
    for fam, ids in sorted(by_family.items()):
        print("%s: %d/%d classes verified" % (fam, len(ids - bad), len(ids)))
    print("entry/sample pairs: %d, failures: %d"
          % (report.total, len(report.failures)))
    extra_bad = False
    if args.all:
        confirmed, unconfirmed, failed = catalog.verify_remark_isos(report)
        print("remark coincidences: %d confirmed, %d unconfirmed, %d failed"
              % (len(confirmed), len(unconfirmed), len(failed)))
        tables = catalog.verify_property_tables(report)
        print("property table discrepancies: %d" % len(tables["discrepancies"]))
        for d in tables["condition_discrepancies"]:
            print("  " + d)
        for m in unconfirmed + failed:
            print("  " + m)
        extra_bad = bool(unconfirmed or failed or tables["discrepancies"])
    for r in report.failures:
        print(r.describe())
    return 1 if (report.failures or extra_bad) else 0


def cmd_iso(args):
    if args.verify:
        doc = _read_doc(args.verify, ("iso_witness",))
        src, tgt, t = doc.payload
        try:
            ok = verify_lsa_iso(src, tgt, t)
        except LsaError as e:
            print("verdict: error (%s)" % e)
            return 2
        print("verdict: %s" % ("isomorphic" if ok else "witness fails"))
        return 0 if ok else 1
    a, b = (_read_doc(f, ("algebra",), "searching").payload
            for f in args.search)
    v = search_lsa_iso(a, b)
    print("verdict: %s" % v.status)
    if v.status == "isomorphic":
        print("witness: %s" % format_matrix(v.witness))
        return 0
    if v.status == "not_isomorphic":
        print("separated_by: %s" % v.reason)
        return 0
    return 1 if args.strict else 0


def cmd_fingerprint(args):
    doc = _read_doc(args.file, ("algebra",))
    fp = fingerprint(doc.payload)
    for name in sorted(fp.flags):
        print("flag %s: %s" % (name, "yes" if fp.flags[name] else "no"))
    for name in sorted(fp.dims):
        print("dim %s: %d" % (name, fp.dims[name]))
    for name in sorted(fp.ranks):
        print("rank %s: %d" % (name, fp.ranks[name]))
    print("lie_class: %s" % (fp.lie_class,))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="lsacat",
        description="Exact verification of the 3-dimensional left-symmetric "
                    "algebra catalog.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="check a left-symmetric algebra file")
    c.add_argument("file")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("cocycle-build",
                       help="emit the algebra built from a cocycle file")
    c.add_argument("file")
    c.set_defaults(func=cmd_cocycle_build)

    c = sub.add_parser("catalog-verify", help="verify the embedded catalog")
    g = c.add_mutually_exclusive_group()
    g.add_argument("--family", choices=sorted(catalog.FAMILY_FILES))
    g.add_argument("--entry")
    c.add_argument("--param", action="append",
                   help="name=value (repeatable, with --entry)")
    c.add_argument("--all", action="store_true",
                   help="also run the remark isomorphisms and property "
                        "tables of the entries verified")
    c.set_defaults(func=cmd_catalog_verify)

    c = sub.add_parser("iso", help="verify or search an isomorphism")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--verify", metavar="WITNESS_FILE")
    g.add_argument("--search", nargs=2, metavar=("A", "B"))
    c.add_argument("--strict", action="store_true",
                   help="exit 1 when the search result is unknown")
    c.set_defaults(func=cmd_iso)

    c = sub.add_parser("fingerprint", help="print an algebra's fingerprint")
    c.add_argument("file")
    c.set_defaults(func=cmd_fingerprint)

    args = p.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except InternalError as e:
        print("internal error: %s" % e)
        return 2
    except LsaError as e:
        print("input error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
