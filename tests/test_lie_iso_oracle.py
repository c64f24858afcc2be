"""lie._is_lie_iso, the bracket check that confirms classify3 witnesses
and Lie automorphisms, against the rebase it replaced: w passes exactly
when it is invertible and rebases the target table onto the source."""

from fractions import Fraction

import pytest

from lsacat.algebra import rebase
from lsacat.lie import _is_lie_iso, canonical_lie
from lsacat.linalg import Mat
from lsacat.scalars import is_zero

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

TABLES = [canonical_lie(f) for f in ("Abelian", "Heisenberg", "N", "E", "Sl2")]
TABLES += [canonical_lie("Dl", l) for l in (1, -1, Fraction(1, 2), 3)]

mats = st.lists(st.sampled_from([-1, 0, 0, 1, 2]), min_size=9,
                max_size=9).map(lambda v: Mat([v[:3], v[3:6], v[6:]]))
invertible = mats.filter(lambda m: not is_zero(m.det()))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TABLES), invertible, mats, st.booleans())
def test_bracket_check_agrees_with_rebase(src, u, m, exact):
    """g is src in the random basis u, and w = m u^-1 (or u^-1 itself):
    w maps src onto g iff m is an automorphism of src, and it is singular
    whenever m is."""
    g = rebase(src, u)
    w = (Mat.identity(3) if exact else m) * u.inverse()
    oracle = not is_zero(w.det()) and rebase(g, w) == src
    assert _is_lie_iso(src, g, w) == oracle
    if exact:
        assert oracle
