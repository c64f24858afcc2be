"""The golden text of the document reader on the shipped data.

One line per catalog entry: its params, table, primed table, f(e_i), C,
primed_witness, flags and iso declarations, each in the canonical emitted
syntax; then one line per shipped sample document, its emitted form.
test_golden_catalog.py compares a fresh run with the stored file line by
line, so a change to the reader that claims the same parse shows it there.
Regenerate the file only for a change that means to alter what the shipped
data read as:

    PYTHONPATH=src python3 tests/golden_catalog.py > tests/data/catalog_golden.txt
"""

import os
import sys

from lsacat import catalog
from lsacat.docs import (Document, emit_document, format_constraint,
                         format_matrix, parse_document)
from lsacat.scalars import format_scalar

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "src", "lsacat",
                       "data", "samples")


def _products(alg):
    "The product lines of alg, as emit_document writes them."
    if alg is None:
        return "-"
    text = emit_document(Document("algebra", alg.dim, "ratfunc", {}, alg))
    return "; ".join(text.splitlines()[1:])


def _matrix(m):
    return "-" if m is None else format_matrix(m)


def _cond(c):
    if c is True or c is False:
        return "yes" if c else "no"
    return "&".join("%s=%s" % (n, format_scalar(v)) for n, v in c)


def _bind(d):
    return " ".join("%s=%s" % (n, format_scalar(v)) for n, v in d.items())


def _entry(e):
    parts = [
        "entry %s family %s case %s" % (e.id, e.family, e.case),
        "params " + "; ".join("%s %s" % (n, format_constraint(c))
                              for n, c in e.params.items()),
        "table " + _products(e.table),
        "primed " + _products(e.primed),
        "f " + "; ".join(map(_matrix, e.f_mats)),
        "C " + _matrix(e.cmat),
        "primed_witness " + _matrix(e.primed_witness),
        "flags " + " ".join("%s=%s" % (n, _cond(c))
                            for n, c in sorted(e.flags.items())),
        "samples " + "; ".join("%s: %s" % (n, ",".join(map(format_scalar, vs)))
                               for n, vs in e.samples_override.items()),
        "iso " + "; ".join("%s when %s bind %s"
                           % (d.target, _bind(d.when), _bind(d.bind))
                           for d in e.isos),
    ]
    return " | ".join(p.rstrip() for p in parts)


def lines():
    "The golden lines, in a fixed order."
    for e in catalog.load_catalog().values():
        yield _entry(e)
    for name in sorted(os.listdir(SAMPLES)):
        with open(os.path.join(SAMPLES, name), encoding="utf-8") as fh:
            doc = parse_document(fh.read())
        yield "sample %s | %s" % (name, " | ".join(
            emit_document(doc).splitlines()))


if __name__ == "__main__":
    for line in lines():
        sys.stdout.write(line + "\n")
