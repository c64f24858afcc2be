"""The golden text of the classifier, ideal and flag kernels and phi.

One line per result, with every basis change T drawn from a fixed seed:
classify3 (tag, parameter, witness, detail) on each canonical Lie algebra
and on D(l) for a few l, each rebased by several T; then, on one rebase
of each catalog entry's first sample, find_ideals (every report field),
is_simple, is_semisimple, fingerprint and phi of the cocycle
equivalent_cocycle(psi(x), T, I); then find_ideals and fingerprint on
seeded sparse random tables.  test_golden_kernels.py compares a fresh run
with the stored file line by line, so a change that claims the same
output shows it there.  Regenerate the file only for a change that means
to alter one of these results:

    PYTHONPATH=src python3 tests/golden_kernels.py > tests/data/kernels_golden.txt
"""

import random
import sys
from dataclasses import fields

from lsacat import catalog
from lsacat.algebra import Algebra, rebase
from lsacat.cocycle import equivalent_cocycle, phi, psi
from lsacat.lie import canonical_lie, classify3
from lsacat.linalg import Mat
from lsacat.props import find_ideals, fingerprint, is_semisimple, is_simple
from lsacat.scalars import QI, format_scalar, parse_scalar

REBASES = 40
D_PARAMS = ("2", "-1", "1", "i", "1/3", "1+i")
RANDOM_TABLES = 300


def _basis_change(rng):
    "An invertible 3x3 matrix with entries in [-2, 2]."
    t = Mat.zero(3)
    while t.det() == 0:
        t = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
    return t


def _report(r):
    return "; ".join("%s=%r" % (f.name, getattr(r, f.name)) for f in fields(r))


def _fingerprint(fp):
    flags = ",".join("%s=%s" % (n, fp.flags[n]) for n in sorted(fp.flags))
    return "%s | %r | %r | %r" % (flags, fp.dims, fp.ranks, fp.lie_class)


def _table(a):
    return " | ".join(repr(a).splitlines()[1:])


def _sparse_table(rng):
    "A 3-dimensional table with a few small nonzero structure constants."
    pool = [QI(1), QI(-1), QI(2), QI(0, 1), parse_scalar("1/2")]
    c = [[[QI(0)] * 3 for _ in range(3)] for _ in range(3)]
    for _ in range(rng.randint(1, 5)):
        c[rng.randrange(3)][rng.randrange(3)][rng.randrange(3)] = (
            rng.choice(pool))
    return Algebra(c)


def lines():
    "The golden lines, in a fixed order."
    rng = random.Random(34)
    classes = [(tag, None) for tag in ("Abelian", "Heisenberg", "N", "E",
                                       "Sl2")]
    classes += [("Dl", parse_scalar(l)) for l in D_PARAMS]
    for tag, l in classes:
        g = canonical_lie(tag, l)
        for _ in range(REBASES):
            t = _basis_change(rng)
            c = classify3(rebase(g, t))
            yield "classify3 %s %s %r | %r %r %r" % (
                tag, "-" if l is None else format_scalar(l), t, c.key(),
                c.witness, c.detail)
    for e in catalog.load_catalog().values():
        b = e.sample_bindings()[0]
        t = _basis_change(rng)
        x = rebase(catalog.instantiate(e.id, b), t)
        label = catalog.point_label(e.id, b)
        report = find_ideals(x)
        yield "ideals %s %r | %s" % (label, t, _report(report))
        yield "simple %s %s" % (label, is_simple(x, report))
        yield "semisimple %s %r" % (label, is_semisimple(x, report))
        yield "fingerprint %s %s" % (label, _fingerprint(fingerprint(x)))
        c = equivalent_cocycle(psi(x), t, Mat.identity(3))
        yield "phi %s %s" % (label, _table(phi(c)))
    for k in range(RANDOM_TABLES):
        a = _sparse_table(rng)
        yield "random %d %s | %s | %s" % (
            k, _table(a), _report(find_ideals(a)), _fingerprint(fingerprint(a)))


if __name__ == "__main__":
    for line in lines():
        sys.stdout.write(line + "\n")
