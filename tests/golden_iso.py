"""The golden text of the classifier and the isomorphism search.

One line per verdict: the classify3 key and witness of every catalog
sample, then the status, reason and witness of search_lsa_iso on the
remark coincidences, on the pairs of distinct entries whose first samples
share a fingerprint, and on each first sample against a seeded random
rebase of itself.  test_golden_iso.py compares a fresh run with the
stored file line by line, so a change that claims identical output shows
it there.  Regenerate the file only for a change that means to alter a
verdict:

    PYTHONPATH=src python3 tests/golden_iso.py > tests/data/iso_golden.txt
"""

import random
import sys

from lsacat import catalog
from lsacat.algebra import commutator_lie, rebase
from lsacat.iso import search_lsa_iso
from lsacat.lie import classify3
from lsacat.linalg import Mat
from lsacat.props import fingerprint
from lsacat.scalars import substitute


def _verdict(v):
    return "%s | %s | %r" % (v.status, v.reason, v.witness)


def lines():
    "The golden lines, in a fixed order."
    cat = catalog.load_catalog()
    for e in cat.values():
        for b in e.sample_bindings():
            c = classify3(commutator_lie(catalog.instantiate(e.id, b)))
            yield "classify3 %s %r %r" % (
                catalog.point_label(e.id, b), c.key(), c.witness)
    for e in cat.values():
        for decl in e.isos:
            for b in e.sample_bindings(decl.when):
                alg = catalog.instantiate(e.id, b, check=False)
                tb = {n: substitute(x, b) for n, x in decl.bind.items()}
                target = catalog.instantiate(decl.target, tb, check=False)
                yield "remark %s %s %s" % (
                    catalog.point_label(e.id, b),
                    catalog.point_label(decl.target, tb),
                    _verdict(search_lsa_iso(alg, target)))
    firsts = [(e.id, catalog.instantiate(e.id, e.sample_bindings()[0]))
              for e in cat.values()]
    fps = [(eid, a, fingerprint(a)) for eid, a in firsts]
    for k, (xid, a, fa) in enumerate(fps):
        for yid, b, fb in fps[k + 1:]:
            if fa == fb:
                yield "fp-equal %s %s %s" % (
                    xid, yid, _verdict(search_lsa_iso(a, b)))
    rng = random.Random(1)
    for eid, a in firsts:
        t = Mat.zero(3)
        while t.det() == 0:
            t = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        yield "rebase %s %r %s" % (
            eid, t, _verdict(search_lsa_iso(a, rebase(a, t))))


if __name__ == "__main__":
    for line in lines():
        sys.stdout.write(line + "\n")
