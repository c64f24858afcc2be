"""Randomized oracles and seeded generators shared by the tests.

Each oracle checks a verdict of the package by a route of its own:
right_nilpotent_at powers R_x (right_matrix) at a concrete x against
is_transitive, and simplicity_oracle_agrees tests the ideals that
find_ideals reports for closure (ideal_closed, a rank test) and refines
random vectors against a simple verdict.  closure_by_rounds spans a basis
with all its products, round by round, against props.closure_span.
random_automorphism draws a member of a stored automorphism group of a
canonical Lie algebra (lie.aut_template) with small Gaussian-rational
parameters.  expected_lie_key spells out the expected Lie class of a
catalog point from its family's tag and canonical l, against classify3 of
the family's table (catalog.family_lie).  load_inputs and height_points
read the benchmark's seeded inputs (perfbench/inputs.py).
"""

import importlib.util
import os
from fractions import Fraction

from lsacat.algebra import multiplication_operators, multiply
from lsacat.lie import LieClass, aut_components, aut_template, canonical_l
from lsacat.linalg import (Mat, basis_vec, combination, span_basis, vec_add,
                           vec_is_zero)
from lsacat.props import find_ideals
from lsacat.scalars import QI, is_zero, qi


def right_matrix(a, x):
    "Column-convention matrix of R_x: column j holds coords of e_j * x."
    return combination(x, multiplication_operators(a)[a.dim:])


def right_nilpotent_at(a, x):
    "Direct check R_x^dim = 0 at a concrete x (oracle for is_transitive)."
    r = right_matrix(a, x)
    power = r
    for _ in range(a.dim - 1):
        power = power * r
    return power.is_zero()


def products(a, basis):
    "e_k b and b e_k for each basis row b and basis vector e_k of A."
    es = [basis_vec(a.dim, k) for k in range(a.dim)]
    return [p for b in basis for e in es
            for p in (multiply(a, e, b), multiply(a, b, e))]


def closure_by_rounds(a, vectors):
    """The smallest ideal holding the vectors, as RREF basis rows: each
    round spans the basis and all its products with A (oracle for
    props.closure_span)."""
    basis = span_basis(list(vectors))
    while 0 < len(basis) < a.dim:
        grown = span_basis(basis + products(a, basis))
        if len(grown) == len(basis):
            break
        basis = grown
    return basis


def ideal_closed(a, basis):
    """A.J and J.A lie in J = span(basis), basis independent (J = 0 when
    empty): a rank test."""
    if not basis:
        return True
    return Mat._of(basis + products(a, basis)).rank() == len(basis)


def random_qi_vector(rng, n, nonzero=True):
    pool = [QI(0), QI(1), QI(-1), QI(2), QI(-2), QI(Fraction(1, 2)),
            QI(3), QI(0, 1), QI(1, 1), QI(Fraction(-1, 2))]
    while True:
        v = [pool[rng.randrange(len(pool))] for _ in range(n)]
        if not nonzero or not vec_is_zero(v):
            return v


def simplicity_oracle_agrees(a, rng, tries=40):
    """Independent randomized cross-check of the find_ideals verdict.

    Simple verdicts: refinement of random candidate vectors never produces
    a proper closed subspace.  Non-simple verdicts: an exhibited ideal is
    closed and proper.
    """
    report = find_ideals(a)
    if not report.has_proper_ideal():
        for _ in range(tries):
            v = random_qi_vector(rng, a.dim)
            if len(closure_by_rounds(a, [v])) < a.dim:
                return False
        return True
    for v in report.lines:
        if not ideal_closed(a, [v]):
            return False
        if len(closure_by_rounds(a, [v])) >= a.dim:
            return False
    for _n, bas in report.planes:
        if not ideal_closed(a, bas):
            return False
    # an orbit's conjugate lines span a Q(i) ideal W, and its conjugate
    # planes meet in the Q(i) ideal cut out by the normals spanning W
    for w, _f in report.line_orbits:
        if not ideal_closed(a, w):
            return False
    for w, _f in report.plane_orbits:
        if not ideal_closed(a, Mat(w).nullspace()):
            return False
    for (b1, b2) in report.line_families:
        for v in (b1, b2, vec_add(b1, b2)):
            if not ideal_closed(a, [v]):
                return False
    for common in report.plane_families:
        # two representative planes containing the common line
        reps = 0
        for k in range(a.dim):
            cand = span_basis([common, basis_vec(a.dim, k)])
            if len(cand) == 2:
                if not ideal_closed(a, cand):
                    return False
                reps += 1
                if reps == 2:
                    break
    return True


def instantiate_aut(comp, values):
    "Fill the parametric automorphism matrix with concrete scalars."
    names, m = aut_template(comp)
    bind = {n: qi(values[n]) for n in names}
    t = m.substitute(bind)
    if is_zero(t.det()):
        raise ValueError("automorphism parameters make the matrix singular")
    return t


def random_automorphism(family, rng, l=None):
    "Random member of the stored group, exact small Gaussian rationals."
    comps = aut_components(family, l)
    comp = comps[rng.randrange(len(comps))]
    names, _ = aut_template(comp)
    pool_unit = [QI(1), QI(-1), QI(2), QI(Fraction(1, 2)), QI(-2), QI(3),
                 QI(0, 1), QI(1, 1)]
    pool_any = pool_unit + [QI(0), QI(0), QI(Fraction(-1, 2)), QI(1, -1)]
    while True:
        vals = {}
        for n in names:
            # the upper-left 2x2 block draws nonzero values
            need_unit = n in ("a11", "a22", "a12", "a21")
            pool = pool_unit if need_unit else pool_any
            vals[n] = pool[rng.randrange(len(pool))]
        try:
            return instantiate_aut(comp, vals)
        except ValueError:
            continue


# the classify3 tag of each catalog family's sub-adjacent Lie algebra
FAMILY_TAGS = {"H": "Heisenberg", "N": "N", "E": "E", "D1": "Dl", "Dl": "Dl"}


def expected_lie_key(entry, bindings):
    """The Lie class key a catalog point must have, by the family's tag and
    the canonical l (lie.canonical_l) of D1's l = 1 or of a Dl entry's
    parameter l."""
    l = {"D1": QI(1), "Dl": bindings.get("l")}.get(entry.family)
    return LieClass(FAMILY_TAGS[entry.family],
                    None if l is None else canonical_l(l)).key()


def load_inputs():
    "perfbench/inputs.py, which draws the benchmark's seeded inputs."
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def height_points(cat, seed):
    """[(entry, bindings)] of the benchmark's height plans at seed: each
    drawn (re, im) value as a QI, with the entry's `eq` pins."""
    def bindings(entry, values):
        b = {n: c[1] for n, c in entry.params.items() if c[0] == "eq"}
        b.update({n: QI(*v) for n, v in values.items()})
        return b
    plans = load_inputs().height_plans(
        cat.values(), seed, lambda e, v: e.admissible(bindings(e, v)))
    return [(cat[eid], bindings(cat[eid], v)) for _, plan in plans
            for eid, values in plan.items() for v in values]
