"""Left-symmetric algebra isomorphism verification and decision.

An isomorphism witness F is a row-convention matrix: row i holds the
image of e_i, and F(x*y) = F(x)*F(y) is checked on basis pairs.  The
search rebases both sides onto the canonical sub-adjacent Lie table.
Equal rebased tables give the witness at once.  Otherwise F lies in one
component of the Lie class's parametric automorphism group
(lie.aut_template): the homomorphism equations in its parameters, plus
det(F)*z - 1, have a reduced lex Groebner basis {1} exactly when that
component holds no isomorphism over C, and a Q(i) witness is read off any
other basis by back-substitution.  Unknown remains an outcome: tables
that are not 3-dimensional and Lie-admissible (their commutator is no
LieAlgebra, so there is no Lie class to rebase onto), no stored group, an
S-pair bound hit, or a witness over C but none found over Q(i).
"""

from __future__ import annotations

import functools

from . import scalars
from .algebra import commutator_lie, hom_defects, rebase
from .errors import InternalError, NotLieAlgebra, SingularWitness
from .lie import aut_components, aut_template, classify3
from .linalg import Mat, vec_is_zero
from .props import fingerprint
from .scalars import (ONE, QI, ZERO, MultiPoly, Record, _add_multiple,
                      _term_dict, groebner, is_zero, nonzero_sums, qi_roots)


def verify_lsa_iso(a, b, f):
    "F(x * y) = F(x) * F(y) on all basis pairs, F invertible."
    if is_zero(f.det()):
        raise SingularWitness("isomorphism witness is singular")
    if a.dim != b.dim or f.nrows != a.dim:
        return False
    return all(vec_is_zero(d) for d in hom_defects(a, b, f))


class IsoVerdict(Record):
    def __init__(self, status, witness=None, reason=""):
        self.status = status    # "isomorphic" | "not_isomorphic" | "unknown"
        self.witness = witness  # Mat for isomorphic verdicts
        self.reason = reason

    @property
    def is_isomorphic(self):
        return self.status == "isomorphic"


@functools.cache
def _component(comp):
    """(names, template, the template's cells as term dicts, det(F)*z - 1
    as a MultiPoly) of one component, over names + ("z",), built once: the
    one store of template data, which only a search reads."""
    names, template = aut_template(comp)
    vs = names + ("z",)
    det = template.det() * MultiPoly.var("z") - 1
    return (names, template,
            [[_term_dict(x, vs) for x in row] for row in template.rows],
            MultiPoly._of(vs, _term_dict(det, vs)))


def _hom_equations(a, b, comp):
    """The homomorphism equations of component comp's parametric witness
    template, then det(F)*z - 1, as MultiPolys over names + ("z",).  Read
    off the structure constants and the template cells: coordinate q of
    F(e_i e_j) - F(e_i) F(e_j) is sum_p a_ij^p F_pq - sum_kl F_ik F_jl b_kl^q,
    taken in hom_defects' order with the zero ones left out.  Each product
    F_ik F_jl is formed once and spread over the nonzero b_kl^q."""
    names, _, f, det = _component(comp)
    n = a.dim
    vs = names + ("z",)
    one = (0,) * len(vs)
    bnz = [[[(q, y) for q, y in enumerate(v) if not is_zero(y)] for v in row]
           for row in b.c]
    out = []
    for i in range(n):
        for j in range(n):
            ds = [{} for _ in range(n)]
            for p, x in enumerate(a.c[i][j]):
                if not is_zero(x):
                    for q in range(n):
                        _add_multiple(ds[q], x, one, f[p][q])
            for k in range(n):
                for l in range(n):
                    if not bnz[k][l] or not f[i][k] or not f[j][l]:
                        continue
                    prod = {}
                    for e, c in f[i][k].items():
                        _add_multiple(prod, c, e, f[j][l])
                    for q, y in bnz[k][l]:
                        _add_multiple(ds[q], -y, one, prod)
            out += [MultiPoly._of(vs, d) for d in ds if d]
    out.append(det)
    return out


# Values tried, in this order, for a variable the basis leaves free.
_FREE_VALUES = (ONE, -ONE, QI(2), QI(-2), ZERO)


def _bind_last(p, r):
    "The term dict p with its last variable set to r."
    return nonzero_sums((e[:-1], c * r ** e[-1] if e[-1] else c)
                        for e, c in p.items())


def _point(polys, n, values=()):
    """Q(i) values of the n variables, the last one first, at which every
    term dict in polys vanishes, or None.  Back-substitution through a lex
    basis: a variable takes the roots of a remaining polynomial in it alone,
    else each of _FREE_VALUES, and a choice that leaves a nonzero constant
    is dropped."""
    if n == 0:
        return values
    k = n - 1
    uni = [p for p in polys if not any(any(e[:k]) for e in p)]
    if uni:
        p = min(uni, key=lambda q: max(e[k] for e in q))
        co = [ZERO] * (max(e[k] for e in p) + 1)
        for e, c in p.items():
            co[e[k]] = c
        cands = qi_roots(co)
    else:
        cands = _FREE_VALUES
    for r in cands:
        sub = [q for q in (_bind_last(p, r) for p in polys) if q]
        if all(any(any(e) for e in q) for q in sub):
            got = _point(sub, k, values + (r,))
            if got is not None:
                return got
    return None


def _solve_component(a, b, comp):
    """The verdict for witnesses a -> b in one automorphism-group component:
    the homomorphism equations plus det*z - 1 have the reduced lex basis
    {1}, or a Q(i) point read off the basis in the template's variable
    order or its reverse."""
    names, template = _component(comp)[:2]
    eqs = _hom_equations(a, b, comp)
    for order in (names, names[::-1]):
        basis = groebner(eqs, ("z",) + order)
        if basis is None:
            return IsoVerdict("unknown", reason=(
                "component %s: Groebner basis needs more than "
                "GROEBNER_MAX_PAIRS = %d S-pairs"
                % (comp, scalars.GROEBNER_MAX_PAIRS)))
        if not any(max(basis[0])):
            return IsoVerdict("not_isomorphic")
        values = _point(basis, len(order) + 1)
        if values is not None:
            bind = dict(zip(order[::-1], values))
            return IsoVerdict("isomorphic",
                              witness=template.substitute(bind))
    return IsoVerdict("unknown", reason=(
        "isomorphic over C (component %s has a Groebner basis other than "
        "{1}) but no Q(i) point was found" % comp))


def _search(a, b, comps):
    "The verdict over the given components of the stored automorphism group."
    reasons = []
    for comp in comps:
        v = _solve_component(a, b, comp)
        if v.is_isomorphic:
            return v
        if v.status == "unknown":
            reasons.append(v.reason)
    if reasons:
        return IsoVerdict("unknown", reason="; ".join(reasons))
    return IsoVerdict("not_isomorphic", reason=(
        "every automorphism component gives the Groebner basis {1}"))


def _lie_class(a):
    """classify3 of a's commutator if a has dim 3 and is Lie-admissible (as
    every left-symmetric table is), else None.  a may be any table, so
    commutator_lie checks Jacobi unless a was already found left-symmetric."""
    if a.dim != 3:
        return None
    try:
        return classify3(commutator_lie(a))
    except NotLieAlgebra:
        return None


def _rebased(a, b, ca, cb):
    """(a, b rebased onto the canonical table, components of its stored
    group) if the keys match and the group and both witnesses exist."""
    same = ca and cb and ca.key() == cb.key()
    comps = same and aut_components(ca.tag, ca.param)
    if comps and ca.witness is not None and cb.witness is not None:
        return rebase(a, ca.witness), rebase(b, cb.witness), comps
    return None


def search_lsa_iso(a, b):
    """Decide whether two left-symmetric tables are isomorphic; returns an
    IsoVerdict.  Isomorphic witnesses are exactly verified, and each
    NotIsomorphic verdict names what separates the tables: a fingerprint
    field, the Lie class, or a Groebner basis {1} in every component.

    The cheapest sufficient decision runs first: equal tables, then both
    tables rebased onto the canonical table of their sub-adjacent Lie
    algebra g, whose equality gives the witness from the two basis
    changes; then the fingerprints (reusing the Lie classes) and the Lie
    class.  A table that is not Lie-admissible has no Lie class, and
    Lie-admissibility is an isomorphism invariant.  Otherwise each
    component of the stored group Aut(g) is decided by one reduced lex
    Groebner basis (Nullstellensatz: the tables are isomorphic over C iff
    some component's basis is not {1}).  That verdict assumes the stored
    components cover Aut(g), as they do for the Heisenberg, N, D(l)
    (l = 1 and l = -1 apart) and E classes.  Unknown
    means neither table has a Lie class, no group is stored, the S-pair
    bound was hit, or the tables are isomorphic over C with no Q(i) point
    found."""
    if a.dim != b.dim:
        return IsoVerdict("not_isomorphic", reason="different dimensions")
    if a == b:
        return IsoVerdict("isomorphic", witness=Mat.identity(a.dim))
    ca, cb = _lie_class(a), _lie_class(b)
    rebased = _rebased(a, b, ca, cb)
    if rebased is None or rebased[0] != rebased[1]:
        diff = fingerprint(a, ca).differing_field(fingerprint(b, cb))
        if diff is not None:
            return IsoVerdict("not_isomorphic", reason=diff)
        if ca is None and cb is None:
            return IsoVerdict("unknown", reason="search needs 3-dimensional "
                                                "Lie-admissible tables")
        if ca is None or cb is None or ca.key() != cb.key():
            return IsoVerdict("not_isomorphic", reason="lie_class")
        if rebased is None:
            return IsoVerdict("unknown", reason="no automorphism group "
                                                "stored for class %s" % ca.tag)
    a2, b2, comps = rebased
    full = cb.witness
    if a2 != b2:
        v = _search(a2, b2, comps)
        if not v.is_isomorphic:
            return v
        full = v.witness * full
    if a2 is not a:     # rebase returns a itself for an identity witness
        full = ca.witness.inverse() * full
    if not verify_lsa_iso(a, b, full):
        raise InternalError("search witness fails after the basis change")
    return IsoVerdict("isomorphic", witness=full)
