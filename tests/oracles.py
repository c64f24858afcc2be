"""Randomized oracles and seeded generators shared by the tests.

Each oracle checks a verdict of the package by a route of its own:
right_nilpotent_at powers R_x (right_matrix) at a concrete x against
is_transitive, and simplicity_oracle_agrees tests the ideals that
find_ideals reports for closure (ideal_closed, a rank test) and refines
random vectors against a simple verdict.
random_automorphism draws a member of a stored automorphism group of a
canonical Lie algebra (lie.aut_template) with small Gaussian-rational
parameters.
"""

from fractions import Fraction

from lsacat.algebra import multiplication_operators
from lsacat.lie import aut_components, aut_template
from lsacat.linalg import (Mat, basis_vec, combination, span_basis, vec_add,
                           vec_is_zero)
from lsacat.props import _products, closure_span, find_ideals
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


def ideal_closed(a, basis):
    """A.J and J.A lie in J = span(basis), basis independent (J = 0 when
    empty): a rank test."""
    if not basis:
        return True
    return Mat._of(basis + _products(a, basis)).rank() == len(basis)


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
            if len(closure_span(a, [v])) < a.dim:
                return False
        return True
    for v in report.lines:
        if not ideal_closed(a, [v]):
            return False
        if len(closure_span(a, [v])) >= a.dim:
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
