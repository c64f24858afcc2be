"""Left-symmetric algebra isomorphism verification and bounded search.

An isomorphism witness F is a row-convention matrix: row i holds the
image of e_i, and F(x*y) = F(x)*F(y) is checked on basis pairs.  The
search canonicalizes both sides onto the canonical sub-adjacent Lie
table and then draws candidates from the family's parametric
automorphism group: the "diagonal block" parameters run over a small
exact grid while the remaining parameters are solved from the linear
part of the homomorphism equations.  Completeness is not claimed;
Unknown is a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import commutator_lie, multiply, rebase
from .errors import LsaError, SingularWitness
from .lie import aut_components, aut_template, classify3
from .linalg import Mat, vec_eq
from .props import fingerprint
from .scalars import ONE, QI, ZERO, is_zero, partial_substitute


def verify_lsa_iso(a, b, f):
    "F(x * y) = F(x) * F(y) on all basis pairs, F invertible."
    if is_zero(f.det()):
        raise SingularWitness("isomorphism witness is singular")
    if a.dim != b.dim or f.nrows != a.dim:
        return False
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = f.apply_row(a.product(i, j))
            rhs = multiply(b, f.row(i), f.row(j))
            if not vec_eq(lhs, rhs):
                return False
    return True


@dataclass
class IsoVerdict:
    status: str                 # "isomorphic" | "not_isomorphic" | "unknown"
    witness: object = None      # Mat for isomorphic verdicts
    reason: str = ""

    @property
    def is_isomorphic(self):
        return self.status == "isomorphic"


_TIER0 = [QI(1), QI(-1)]
_TIER1 = [QI(1), QI(-1), QI(2), QI(-2), QI(Fraction(1, 2)),
          QI(Fraction(-1, 2)), QI(0)]
_TIER2 = _TIER1 + [
    QI(0, 1), QI(0, -1), QI(3), QI(-3), QI(Fraction(1, 3)),
    QI(Fraction(-1, 3)), QI(Fraction(3, 2)), QI(Fraction(-3, 2)),
    QI(Fraction(2, 3)), QI(Fraction(-2, 3)), QI(4), QI(-4),
    QI(Fraction(1, 4)), QI(Fraction(-1, 4)), QI(Fraction(3, 4)),
    QI(Fraction(4, 3)), QI(1, 1), QI(1, -1), QI(0, 2), QI(Fraction(0), Fraction(1, 2)),
]


def _tag_to_family(cls):
    if cls.tag == "Heisenberg":
        return "heisenberg"
    if cls.tag in ("N", "E"):
        return cls.tag
    if cls.tag == "Dl":
        return "Dl"
    return None


def _special_candidates(n):
    "Cheap witnesses tried before any grid work."
    mats = [Mat.identity(n)]
    if n == 3:
        for d1 in (1, -1):
            for d2 in (1, -1):
                for d3 in (1, -1):
                    mats.append(Mat([[d1, 0, 0], [0, d2, 0], [0, 0, d3]]))
                    mats.append(Mat([[0, d1, 0], [d2, 0, 0], [0, 0, d3]]))
    return mats


def _hom_equations(a, b, template):
    "Homomorphism defect polynomials for a parametric witness template."
    n = a.dim
    eqs = []
    for i in range(n):
        for j in range(n):
            lhs = template.apply_row(a.product(i, j))
            rhs = multiply(b, template.row(i), template.row(j))
            for k in range(n):
                d = lhs[k] - rhs[k]
                if not (isinstance(d, QI) and d.is_zero()):
                    eqs.append(d)
    return eqs


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
    """(name, value) when the equation is linear in exactly one unknown,
    or (name, roots) when univariate of degree <= 4; None otherwise."""
    fv = sorted(e.free_vars())
    if len(fv) != 1:
        return None
    name = fv[0]
    deg = e.total_degree()
    if deg == 1:
        c1 = ZERO
        c0 = ZERO
        for exps, c in e.terms.items():
            if sum(exps) == 0:
                c0 = c0 + c
            else:
                c1 = c1 + c
        return name, [-(c0 / c1)]
    if deg <= 4:
        co = [ZERO] * (deg + 1)
        idx = e.vars.index(name)
        for exps, c in e.terms.items():
            co[exps[idx]] = co[exps[idx]] + c
        from .scalars import factor_unipoly
        try:
            _, factors = factor_unipoly(tuple(co))
        except Exception:
            return None
        roots = [-f[0] for f, _m in factors if len(f) == 2]
        return name, roots
    return None


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


def _assignments(eqs, unknowns, tier, budget):
    """Generate QI assignments satisfying the polynomial system, by unit
    propagation (single-variable consequences), linear-subsystem solving,
    and bounded branching over the tier values."""
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
            for tail in _assignments(sub, rest, tier, budget):
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
    # branch on the first live unknown over the tier values
    name = live[0]
    for val in tier:
        budget[0] -= 1
        if budget[0] <= 0:
            return
        sub = _simplify([partial_substitute(e, {name: val}) for e in eqs])
        if sub is None:
            continue
        rest = [u for u in remaining if u != name]
        for tail in _assignments(sub, rest, tier, budget):
            full = dict(assignment)
            full[name] = val
            full.update(tail)
            yield full


def _search_in_component(a, b, comp, max_tier):
    names, template, det = aut_template(comp)
    eqs = _hom_equations(a, b, template)
    tier = [_TIER0, _TIER1, _TIER2][max_tier - 1]
    tier = [v for v in tier if not v.is_zero()] + [QI(0)]
    budget = [20000]
    tried = 0
    for full in _assignments(eqs, list(names), tier, budget):
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


def search_lsa_iso(a, b, max_tier=3):
    """Bounded isomorphism search; returns an IsoVerdict whose Isomorphic
    witnesses are exactly verified and whose NotIsomorphic verdicts carry
    a separating fingerprint field.  max_tier (1..3) caps the coefficient
    pool the witness search draws from."""
    if max_tier not in (1, 2, 3):
        raise LsaError("max_tier must be 1, 2 or 3, got %r" % (max_tier,))
    if a.dim != b.dim:
        return IsoVerdict("not_isomorphic", reason="different dimensions")
    if a == b:
        return IsoVerdict("isomorphic", witness=Mat.identity(a.dim))
    fa, fb = fingerprint(a), fingerprint(b)
    diff = fa.differing_field(fb)
    if diff is not None:
        return IsoVerdict("not_isomorphic", reason=diff)
    for t in _special_candidates(a.dim):
        try:
            if verify_lsa_iso(a, b, t):
                return IsoVerdict("isomorphic", witness=t)
        except SingularWitness:
            continue
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
    a2 = rebase(a, wa)
    b2 = rebase(b, wb)
    l = ca.param
    for comp in aut_components(family, l):
        t = _search_in_component(a2, b2, comp, max_tier)
        if t is None:
            # small-height witnesses may exist only in the other direction
            back = _search_in_component(b2, a2, comp, max_tier)
            if back is not None:
                t = back.inverse()
        if t is not None:
            full = wa.inverse() * t * wb
            if not verify_lsa_iso(a, b, full):
                raise LsaError("search witness fails after the basis change")
            return IsoVerdict("isomorphic", witness=full)
    return IsoVerdict("unknown", reason="bounded search exhausted")
