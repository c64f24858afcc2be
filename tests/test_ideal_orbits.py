"""Semisimplicity of Q(i)[t]/(g) + C^(3 - deg g), in a random Q(i) basis.

Over C, Q(i)[t]/(g) is the product of C[t]/((t - r)^m) over the roots r of
g with multiplicities m, so the algebra is semisimple iff g is squarefree.
g is a product of monic factors that are irreducible over Q(i) by
construction: t - r, t^2 - c with c not a square in Q(i), and t^3 - c with
c not a cube.  So g is squarefree iff no linear factor repeats, and the
expected verdict needs no extension arithmetic.  Non-linear factors make
the ideal search report conjugate orbits."""

import pytest

from lsacat import scalars
from lsacat.algebra import Algebra, rebase
from lsacat.linalg import Mat, span_rank
from lsacat.props import find_ideals, ideal_closed, is_semisimple, is_simple
from lsacat.scalars import QI

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# t^2 - c and t^3 - c have no root in Q(i), so they are irreducible there.
# A root of t^2 - c for c = 2, 3, 5, -2 would put sqrt(2), sqrt(3) or
# sqrt(5) in Q(i), whose real elements are rational; one of t^3 - c for
# c = 2, 3, 5 would have degree 3 over Q, and Q(i) has degree 2; the norm
# N(z^k) = N(z)^k rules out c = 1 + i (N = 2) and c = 2i (N = 4, k = 3).
NON_SQUARES = [QI(2), QI(3), QI(5), QI(-2), QI(1, 1)]
NON_CUBES = [QI(2), QI(3), QI(5), QI(1, 1), QI(0, 2)]
ROOTS = [QI(a, b) for a in (-1, 0, 1, 2) for b in (0, 1)]


@st.composite
def moduli(draw):
    "(coefficients of g, low to high, and whether g is squarefree)."
    shape = draw(st.sampled_from([(1,), (1, 1), (1, 1, 1), (2,), (2, 1),
                                  (3,)]))
    g, roots = (QI(1),), []
    for deg in shape:
        if deg == 1:
            roots.append(draw(st.sampled_from(ROOTS)))
            factor = (-roots[-1], QI(1))
        else:
            c = draw(st.sampled_from(NON_SQUARES if deg == 2 else NON_CUBES))
            factor = (-c,) + (QI(0),) * (deg - 1) + (QI(1),)
        g = scalars._up_mul(g, factor)
    return g, len(set(roots)) == len(roots)


def quotient_plus_copies(g):
    "Q(i)[t]/(g) on 1, t, .., t^(k-1), then 3 - k idempotents."
    k = len(g) - 1
    table = [[[QI(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(k):
        for j in range(k):
            power = (QI(0),) * (i + j) + (QI(1),)
            rem = scalars._up_divmod(power, g)[1]
            table[i][j] = list(rem) + [QI(0)] * (3 - len(rem))
    for i in range(k, 3):
        table[i][i][i] = QI(1)
    return Algebra(table)


entries = st.builds(QI, st.integers(-2, 2), st.integers(-1, 1))


@settings(max_examples=120, deadline=None)
@given(moduli(), st.lists(entries, min_size=9, max_size=9))
def test_semisimple_iff_squarefree(modulus, cells):
    g, squarefree = modulus
    w = Mat([cells[0:3], cells[3:6], cells[6:9]])
    assume(not w.det().is_zero())
    alg = rebase(quotient_plus_copies(g), w)
    report = find_ideals(alg)
    for basis, f in report.line_orbits:
        assert len(f) - 1 == len(basis)
        assert ideal_closed(alg, basis)
    for normals, _f in report.plane_orbits:
        assert ideal_closed(alg, Mat(normals).nullspace())
    assert not is_simple(alg, report)
    ok, witness = is_semisimple(alg, report)
    assert ok == squarefree
    if ok:
        # over C every simple ideal here is a line: no 2-dim part
        assert all(isinstance(part, tuple) or len(part) == 1
                   for part in witness)
        vectors = [v for part in witness
                   for v in (part[0] if isinstance(part, tuple) else part)]
        assert span_rank(vectors, 3) == 3
