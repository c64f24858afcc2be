"""Left-symmetric algebra isomorphism verification and bounded search.

An isomorphism witness F is a row-convention matrix: row i holds the
image of e_i, and F(x*y) = F(x)*F(y) is checked on basis pairs.  The
search rebases both sides onto the canonical sub-adjacent Lie table.
Equal rebased tables give the witness at once; otherwise candidates come
from the Lie class's parametric automorphism group (lie.aut_template),
with the parameters solved from the homomorphism equations where they
pin them and branched over a small exact pool where they do not.
Completeness is not claimed; Unknown is a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import commutator_lie, hom_defects, rebase
from .errors import LsaError, SingularWitness
from .lie import aut_components, aut_template, classify3
from .linalg import Mat, vec_is_zero
from .props import fingerprint
from .scalars import ONE, QI, ZERO, is_zero, partial_substitute, qi_roots


def verify_lsa_iso(a, b, f):
    "F(x * y) = F(x) * F(y) on all basis pairs, F invertible."
    if is_zero(f.det()):
        raise SingularWitness("isomorphism witness is singular")
    if a.dim != b.dim or f.nrows != a.dim:
        return False
    return all(vec_is_zero(d) for d in hom_defects(a, b, f))


@dataclass
class IsoVerdict:
    status: str                 # "isomorphic" | "not_isomorphic" | "unknown"
    witness: object = None      # Mat for isomorphic verdicts
    reason: str = ""

    @property
    def is_isomorphic(self):
        return self.status == "isomorphic"


# Values tried, in this order, for an unknown that the equations leave
# free: small heights first, 0 last.
_POOL = (
    QI(1), QI(-1), QI(2), QI(-2), QI(Fraction(1, 2)), QI(Fraction(-1, 2)),
    QI(0, 1), QI(0, -1), QI(3), QI(-3), QI(Fraction(1, 3)),
    QI(Fraction(-1, 3)), QI(Fraction(3, 2)), QI(Fraction(-3, 2)),
    QI(Fraction(2, 3)), QI(Fraction(-2, 3)), QI(4), QI(-4),
    QI(Fraction(1, 4)), QI(Fraction(-1, 4)), QI(Fraction(3, 4)),
    QI(Fraction(4, 3)), QI(1, 1), QI(1, -1), QI(0, 2),
    QI(0, Fraction(1, 2)), QI(0),
)


def _tag_to_family(cls):
    if cls.tag == "Heisenberg":
        return "heisenberg"
    if cls.tag in ("N", "E"):
        return cls.tag
    if cls.tag == "Dl":
        return "Dl"
    return None


def _hom_equations(a, b, template):
    "Homomorphism defect polynomials for a parametric witness template."
    return [x for d in hom_defects(a, b, template) for x in d if not is_zero(x)]


def _simplify(eqs):
    "Drop satisfied equations; None when a nonzero constant appears."
    out = []
    for e in eqs:
        if isinstance(e, QI):
            if e.is_zero():
                continue
            return None
        if e.is_zero():
            continue
        if e.is_const():
            if e.const_value().is_zero():
                continue
            return None
        out.append(e)
    return out


def _single_var_solution(e):
    "(name, roots in Q(i)) when the equation has exactly one unknown."
    fv = e.free_vars()
    if len(fv) != 1:
        return None
    name = fv.pop()
    idx = e.vars.index(name)
    co = [ZERO] * (e.total_degree() + 1)
    for exps, c in e.terms.items():
        co[exps[idx]] = co[exps[idx]] + c
    return name, qi_roots(co)


def _linear_subsystem_solution(eqs, unknowns):
    """Unique solution of the full degree-<=1 subsystem when it pins every
    variable it touches; None when nothing to do, False on inconsistency."""
    lin = [e for e in eqs if e.total_degree() == 1]
    if not lin:
        return None
    touched = sorted({v for e in lin for v in e.free_vars()})
    rows = []
    for e in lin:
        row = [ZERO] * (len(touched) + 1)
        for exps, c in e.terms.items():
            if sum(exps) == 0:
                row[-1] = row[-1] + c
            else:
                v = e.vars[exps.index(1)]
                row[touched.index(v)] = row[touched.index(v)] + c
        rows.append(row)
    red, pivots = Mat(rows).rref()
    if len(touched) in pivots:
        return False
    if len(pivots) < len(touched):
        return None
    return {touched[p]: -red.rows[r][len(touched)]
            for r, p in enumerate(pivots)}


def _assignments(eqs, unknowns, budget):
    """Generate QI assignments satisfying the polynomial system, by unit
    propagation (single-variable consequences), linear-subsystem solving,
    and bounded branching over the _POOL values."""
    if budget[0] <= 0:
        return
    eqs = _simplify(eqs)
    if eqs is None:
        return
    assignment = {}
    while True:
        step = None
        for e in eqs:
            got = _single_var_solution(e)
            if got and len(got[1]) <= 1:
                step = got
                break
            if got and step is None:
                step = got
        if step is None:
            sol = _linear_subsystem_solution(eqs, unknowns)
            if sol is False:
                return
            if sol:
                assignment.update(sol)
                eqs = _simplify([partial_substitute(e, sol) for e in eqs])
                if eqs is None:
                    return
                continue
            break
        name, roots = step
        if len(roots) == 1:
            assignment[name] = roots[0]
            eqs = _simplify([partial_substitute(e, {name: roots[0]}) for e in eqs])
            if eqs is None:
                return
            continue
        # several exact roots: branch on each
        for r in roots:
            sub = _simplify([partial_substitute(e, {name: r}) for e in eqs])
            if sub is None:
                continue
            rest = [u for u in unknowns if u != name and u not in assignment]
            for tail in _assignments(sub, rest, budget):
                full = dict(assignment)
                full[name] = r
                full.update(tail)
                yield full
        return
    remaining = [u for u in unknowns if u not in assignment]
    live = sorted({v for e in eqs for v in e.free_vars()})
    if not live:
        # system satisfied; unconstrained unknowns get default values
        base = dict(assignment)
        for u in remaining:
            base.setdefault(u, ONE)
        yield base
        return
    # branch on the first live unknown over the pool values
    name = live[0]
    for val in _POOL:
        budget[0] -= 1
        if budget[0] <= 0:
            return
        sub = _simplify([partial_substitute(e, {name: val}) for e in eqs])
        if sub is None:
            continue
        rest = [u for u in remaining if u != name]
        for tail in _assignments(sub, rest, budget):
            full = dict(assignment)
            full[name] = val
            full.update(tail)
            yield full


def _search_in_component(a, b, comp):
    names, template = aut_template(comp)
    eqs = _hom_equations(a, b, template)
    budget = [20000]
    tried = 0
    for full in _assignments(eqs, list(names), budget):
        tried += 1
        if tried > 4000:
            return None
        rows = [[partial_substitute(x, full) for x in template.row(r)]
                for r in range(template.nrows)]
        if any(not isinstance(x, QI) for row in rows for x in row):
            continue
        t = Mat(rows)
        if is_zero(t.det()):
            continue
        if verify_lsa_iso(a, b, t):
            return t
    return None


def _search(a, b, family, l):
    """A witness between two tables with the same canonical Lie table, from
    the components of its automorphism group; None when none is found."""
    for comp in aut_components(family, l):
        t = _search_in_component(a, b, comp)
        if t is not None:
            return t
        # small-height witnesses may exist only in the other direction
        back = _search_in_component(b, a, comp)
        if back is not None:
            return back.inverse()
    return None


def search_lsa_iso(a, b):
    """Bounded isomorphism search; returns an IsoVerdict whose Isomorphic
    witnesses are exactly verified and whose NotIsomorphic verdicts carry
    a separating fingerprint field.

    Both tables are rebased onto the canonical table of their sub-adjacent
    Lie algebra.  When the rebased tables are equal the basis changes give
    the witness; otherwise it is searched for in the stored automorphism
    group of the Lie class."""
    if a.dim != b.dim:
        return IsoVerdict("not_isomorphic", reason="different dimensions")
    if a == b:
        return IsoVerdict("isomorphic", witness=Mat.identity(a.dim))
    fa, fb = fingerprint(a), fingerprint(b)
    diff = fa.differing_field(fb)
    if diff is not None:
        return IsoVerdict("not_isomorphic", reason=diff)
    if a.dim != 3:
        return IsoVerdict("unknown", reason="search implemented for dim 3")
    # fingerprint classified left-symmetric tables already
    ca = fa.lie if fa.lie is not None else classify3(commutator_lie(a))
    cb = fb.lie if fb.lie is not None else classify3(commutator_lie(b))
    if ca.key() != cb.key():
        return IsoVerdict("not_isomorphic", reason="lie_class")
    family = _tag_to_family(ca)
    if family is None or ca.witness is None or cb.witness is None:
        return IsoVerdict("unknown", reason="no automorphism group stored "
                                            "for class %s" % ca.tag)
    wa, wb = ca.witness, cb.witness
    a2, b2 = rebase(a, wa), rebase(b, wb)
    t = Mat.identity(3) if a2 == b2 else _search(a2, b2, family, ca.param)
    if t is None:
        return IsoVerdict("unknown", reason="bounded search exhausted")
    full = wa.inverse() * t * wb
    if not verify_lsa_iso(a, b, full):
        raise LsaError("search witness fails after the basis change")
    return IsoVerdict("isomorphic", witness=full)
