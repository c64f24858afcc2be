"""Subclass predicates, ideal enumeration, and isomorphism-invariant
fingerprints.

Ideal search strategy (dimension <= 3, scalars in Q(i)): a 1-dimensional
two-sided ideal is a common invariant line of all left and right basis
multiplications, hence an eigenline of any single one of them.  We factor
the characteristic polynomial of a strategically chosen operator, build a
quadratic extension of Q(i) when an irreducible factor appears, and test
each eigenline (or solve inside a repeated eigenspace) for invariance
under the full operator set.  2-dimensional ideals are found dually via
the transposed operators acting on covectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (Algebra, basis_associator, check_left_symmetric,
                      commutator_lie, left_matrix, multiply, right_matrix)
from .errors import ExtensionDegreeTooHigh, LsaError, ZeroAlgebra
from .lie import classify3
from .linalg import (Mat, basis_vec, coords_in_span, in_span, span_basis,
                     vec_add, vec_is_zero)
from .scalars import (ONE, QI, ExtField, MultiPoly, factor_unipoly,
                      is_zero)


def is_associative(a):
    "Associator vanishes on all basis triples."
    n = a.dim
    return all(vec_is_zero(basis_associator(a, i, j, k))
               for i in range(n) for j in range(n) for k in range(n))


def is_commutative(a):
    n = a.dim
    return all(vec_is_zero([x - y for x, y in zip(a.c[i][j], a.c[j][i])])
               for i in range(n) for j in range(i + 1, n))


def is_novikov(a):
    "All right multiplications commute pairwise."
    n = a.dim
    rm = [right_matrix(a, basis_vec(a.dim, i)) for i in range(n)]
    return all((rm[i] * rm[j]) == (rm[j] * rm[i])
               for i in range(n) for j in range(i + 1, n))


def is_bisymmetric(a):
    "Associator also symmetric in its last two arguments."
    n = a.dim
    return all(vec_is_zero([x - y for x, y in
                            zip(basis_associator(a, i, j, k),
                                basis_associator(a, i, k, j))])
               for i in range(n) for j in range(n) for k in range(j + 1, n))


def _coordinate_names(a):
    taken = set()
    for i in range(a.dim):
        for j in range(a.dim):
            for x in a.c[i][j]:
                if isinstance(x, MultiPoly):
                    taken |= set(x.vars)
                elif hasattr(x, "num"):
                    taken |= x.free_vars()
    names = []
    for k in range(a.dim):
        name = "x%d" % (k + 1)
        while name in taken:
            name += "_"
        names.append(name)
    return names


def symbolic_right_matrix(a):
    "R_x for a generic x = sum x_k e_k, entries polynomial in x1..xn."
    names = _coordinate_names(a)
    xs = [MultiPoly.var(nm) for nm in names]
    n = a.dim
    rows = []
    for k in range(n):
        row = []
        for j in range(n):
            # column j = coords of e_j * x
            acc = None
            for i in range(n):
                term = xs[i] * a.c[j][i][k]
                acc = term if acc is None else acc + term
            row.append(acc)
        rows.append(row)
    return Mat(rows)


def is_transitive(a):
    """Every right multiplication nilpotent, decided by the vanishing of
    tr(R_x^k) for k = 1..dim identically in the coordinates of x (valid in
    characteristic 0, including parametric tables)."""
    r = symbolic_right_matrix(a)
    power = r
    for _ in range(a.dim):
        if not is_zero(power.trace()):
            return False
        power = power * r
    return True


def right_nilpotent_at(a, x):
    "Direct check R_x^dim = 0 at a concrete x (oracle for is_transitive)."
    r = right_matrix(a, x)
    power = r
    for _ in range(a.dim - 1):
        power = power * r
    return power.is_zero()


# ---------------------------------------------------------------------------
# ideal enumeration


@dataclass
class IdealReport:
    all_subspaces: bool = False
    lines: list = field(default_factory=list)          # coordinate vectors
    line_families: list = field(default_factory=list)  # (b1, b2) plane bases
    planes: list = field(default_factory=list)         # (normal, basis rows)
    plane_families: list = field(default_factory=list) # common line vectors

    def has_proper_ideal(self):
        return (self.all_subspaces or bool(self.lines)
                or bool(self.line_families) or bool(self.planes)
                or bool(self.plane_families))

    def qi_lines(self):
        return [v for v in self.lines if all(isinstance(x, QI) for x in v)]

    def qi_planes(self):
        return [(nrm, bas) for nrm, bas in self.planes
                if all(isinstance(x, QI) for x in nrm)]


def _is_scalar_mat(m):
    d = m.rows[0][0]
    n = m.nrows
    for i in range(n):
        for j in range(n):
            if i == j:
                if m.rows[i][j] != d:
                    return False
            elif not is_zero(m.rows[i][j]):
                return False
    return True


def _proportional(v, w):
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if not is_zero(v[i] * w[j] - v[j] * w[i]):
                return False
    return True


def _line_invariant(ops, v):
    return all(_proportional(v, op.apply_col(v)) for op in ops)


def _normalize_line(v):
    for x in v:
        if not is_zero(x):
            return [y / x for y in v]
    return None


def _dedupe_lines(lines):
    out = []
    for v in lines:
        if any(len(v) == len(w) and _proportional(v, w) for w in out):
            continue
        out.append(v)
    return out


def common_invariant_lines(ops):
    """All lines invariant under every operator (column convention, QI
    entries), over Q(i) or a quadratic/cubic extension.

    Returns (lines, families, all_lines_flag); families are (b1, b2) bases
    of planes in which *every* line is invariant under every operator.
    """
    nonscalar = [m for m in ops if not _is_scalar_mat(m)]
    if not nonscalar:
        return [], [], True
    n = ops[0].nrows
    # strategically ordered candidates; any non-scalar one is sound, but an
    # operator whose characteristic polynomial splits over Q(i) avoids
    # building extension fields, so prefer one among the first few
    candidates = []
    if len(ops) >= 6:
        candidates = [ops[2], ops[5], ops[0] + ops[4]]
    candidates.extend(ops)
    if len(ops) >= 6:
        acc = Mat.zero(n)
        for k, m in enumerate(ops):
            acc = acc + (2 ** k) * m
        candidates.append(acc)
    candidates = [m for m in candidates if not _is_scalar_mat(m)]
    chosen = candidates[0]
    _, factors = factor_unipoly(chosen.charpoly())
    if any(len(f) > 2 for f, _mult in factors):
        for m in candidates[1:5]:
            _, fs = factor_unipoly(m.charpoly())
            if all(len(f) == 2 for f, _mult in fs):
                chosen, factors = m, fs
                break

    lines = []
    families = []
    for f, mult in factors:
        deg = len(f) - 1
        if deg == 1:
            alpha = -f[0]
        else:
            if deg > 3:
                raise ExtensionDegreeTooHigh(
                    "eigenvalues need a degree-%d extension" % deg)
            ext = ExtField(f)
            alpha = ext.gen()
        shifted = chosen - alpha * Mat.identity(n)
        eig = shifted.nullspace()
        if len(eig) == 1:
            v = eig[0]
            if _line_invariant(ops, v):
                lines.append(_normalize_line(v))
        elif len(eig) >= 2:
            if deg != 1:
                raise LsaError("repeated eigenvalues of a cubic lie in Q(i)")
            ls, fams = _lines_in_plane(ops, eig[0], eig[1])
            lines.extend(ls)
            families.extend(fams)
    return _dedupe_lines(lines), families, False


def _lines_in_plane(ops, b1, b2):
    """Lines v = s b1 + t b2 with every op(v) proportional to v; solves the
    homogeneous quadratic proportionality conditions in (s : t)."""
    quads = []
    n = len(b1)
    for op in ops:
        u1 = op.apply_col(b1)
        u2 = op.apply_col(b2)
        for k in range(n):
            for l in range(k + 1, n):
                aa = b1[k] * u1[l] - b1[l] * u1[k]
                bb = (b1[k] * u2[l] + b2[k] * u1[l]
                      - b1[l] * u2[k] - b2[l] * u1[k])
                cc = b2[k] * u2[l] - b2[l] * u2[k]
                if not (is_zero(aa) and is_zero(bb) and is_zero(cc)):
                    quads.append((aa, bb, cc))
    if not quads:
        return [], [(b1, b2)]
    aa, bb, cc = quads[0]
    candidates = []
    if is_zero(aa):
        candidates.append(b1)  # (s : t) = (1 : 0)
        if not (is_zero(bb) and is_zero(cc)):
            # bb*s + cc*t = 0
            candidates.append(_combine(b1, -cc, b2, bb))
    else:
        _, fs = factor_unipoly((cc, bb, aa))
        for f, _m in fs:
            if len(f) == 2:
                s = -f[0]
                candidates.append(_combine(b1, s, b2, ONE))
            else:
                ext = ExtField(f)
                s1 = ext.gen()
                s2 = ext.from_qi(-f[1]) - s1  # other root of the quadratic
                for s in (s1, s2):
                    candidates.append(_combine(b1, s, b2, ext.one()))
    out = []
    for v in candidates:
        if not vec_is_zero(v) and _line_invariant(ops, v):
            out.append(_normalize_line(v))
    return _dedupe_lines(out), []


def _combine(b1, s, b2, t):
    return [s * x + t * y for x, y in zip(b1, b2)]


def multiplication_operators(a):
    n = a.dim
    return ([left_matrix(a, basis_vec(a.dim, i)) for i in range(n)]
            + [right_matrix(a, basis_vec(a.dim, i)) for i in range(n)])


def find_ideals(a):
    """All proper nonzero two-sided ideals of a dimension-<=3 algebra over
    Q(i); infinite families are reported via flags with representative
    data instead of being enumerated."""
    ops = multiplication_operators(a)
    report = IdealReport()
    lines, fams, all_flag = common_invariant_lines(ops)
    if all_flag:
        report.all_subspaces = True
        return report
    report.lines = lines
    report.line_families = fams
    tops = [m.transpose() for m in ops]
    covs, cofams, all_flag = common_invariant_lines(tops)
    if all_flag:
        raise LsaError("transposed operators leave every line invariant, "
                       "the operators do not")
    for phi_vec in covs:
        basis = Mat([phi_vec]).nullspace()
        report.planes.append((phi_vec, basis))
    for (p1, p2) in cofams:
        # every covector in span(p1,p2) kills an ideal plane; the planes are
        # exactly those containing the common line ker p1 ^ ker p2
        common = Mat([p1, p2]).nullspace()
        report.plane_families.append(common[0])
    return report


def is_simple(a, report=None):
    "No ideals except zero and the whole algebra (zero algebra excluded)."
    if a.is_zero_product():
        raise ZeroAlgebra("the zero-multiplication algebra is excluded")
    if report is None:
        report = find_ideals(a)
    return not report.has_proper_ideal()


def _line_self_product_nonzero(a, v):
    return not vec_is_zero(multiply(a, v, v))


def _restrict(a, basis):
    "Table of the induced product on an ideal given by basis rows."
    k = len(basis)
    table = []
    for i in range(k):
        row = []
        for j in range(k):
            row.append(coords_in_span(basis, multiply(a, basis[i], basis[j])))
        table.append(row)
    return Algebra(table)


def _subalgebra_simple(a, basis):
    if len(basis) == 1:
        return _line_self_product_nonzero(a, basis[0])
    sub = _restrict(a, basis)
    if sub.is_zero_product():
        return False
    lines, fams, all_flag = common_invariant_lines(multiplication_operators(sub))
    return not (lines or fams or all_flag)


def is_semisimple(a, report=None):
    """Direct sum of simple ideals; returns (bool, witness) where the
    witness lists the component ideals' bases."""
    if a.is_zero_product():
        raise ZeroAlgebra("the zero-multiplication algebra is excluded")
    n = a.dim
    if report is None:
        report = find_ideals(a)
    if not report.has_proper_ideal():
        return True, [[basis_vec(a.dim, k) for k in range(n)]]
    lines = report.qi_lines()
    for (b1, b2) in report.line_families:
        lines = lines + [b1, b2, vec_add(b1, b2)]
    lines = _dedupe_lines(lines)
    planes = [bas for _n, bas in report.qi_planes()]
    # 1 + 2 splittings
    for v in lines:
        if not _line_self_product_nonzero(a, v):
            continue
        for bas in planes:
            if len(span_basis([v] + list(bas), n)) != n:
                continue
            if _subalgebra_simple(a, bas):
                return True, [[v], bas]
    # 1 + 1 + 1 splittings
    good = [v for v in lines if _line_self_product_nonzero(a, v)]
    for i in range(len(good)):
        for j in range(i + 1, len(good)):
            for k in range(j + 1, len(good)):
                if len(span_basis([good[i], good[j], good[k]], n)) == n:
                    return True, [[good[i]], [good[j]], [good[k]]]
    if n == 2:
        for i in range(len(good)):
            for j in range(i + 1, len(good)):
                if len(span_basis([good[i], good[j]], n)) == n:
                    return True, [[good[i]], [good[j]]]
    return False, None


def ideal_closed(a, basis):
    "Exact closure check: A*I and I*A stay inside span(basis)."
    for b in basis:
        for k in range(a.dim):
            e = basis_vec(a.dim, k)
            if not in_span(multiply(a, b, e), basis):
                return False
            if not in_span(multiply(a, e, b), basis):
                return False
    return True


def closure_span(a, vectors):
    "Smallest subspace containing the vectors closed under multiplication."
    basis = span_basis(list(vectors), a.dim)
    changed = True
    while changed and len(basis) < a.dim:
        changed = False
        for b in list(basis):
            for k in range(a.dim):
                e = basis_vec(a.dim, k)
                for prod in (multiply(a, b, e), multiply(a, e, b)):
                    if not vec_is_zero(prod) and not in_span(prod, basis):
                        basis = span_basis(basis + [prod], a.dim)
                        changed = True
    return basis


def random_qi_vector(rng, n, nonzero=True):
    from fractions import Fraction
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
    if report.all_subspaces:
        return a.is_zero_product()
    for v in report.qi_lines():
        if not ideal_closed(a, [v]):
            return False
        if len(closure_span(a, [v])) >= a.dim:
            return False
    for _n, bas in report.qi_planes():
        if not ideal_closed(a, bas):
            return False
    for (b1, b2) in report.line_families:
        for v in (b1, b2, vec_add(b1, b2)):
            if not ideal_closed(a, [v]):
                return False
    for common in report.plane_families:
        # two representative planes containing the common line
        reps = 0
        for k in range(a.dim):
            cand = span_basis([common, basis_vec(a.dim, k)], a.dim)
            if len(cand) == 2:
                if not ideal_closed(a, cand):
                    return False
                reps += 1
                if reps == 2:
                    break
    return True


# ---------------------------------------------------------------------------
# fingerprints


@dataclass
class Fingerprint:
    flags: dict
    dims: dict
    ranks: dict
    lie_class: tuple

    def differing_field(self, other):
        "First component where the two fingerprints disagree, or None."
        for name in sorted(self.flags):
            if self.flags[name] != other.flags.get(name):
                return "flags.%s" % name
        for name in sorted(self.dims):
            if self.dims[name] != other.dims.get(name):
                return "dims.%s" % name
        for name in sorted(self.ranks):
            if self.ranks[name] != other.ranks.get(name):
                return "ranks.%s" % name
        if self.lie_class != other.lie_class:
            return "lie_class"
        return None

    def __eq__(self, other):
        return self.differing_field(other) is None


def _annihilator_dims(a):
    n = a.dim
    left_rows = [[a.c[i][j][k] for j in range(n) for k in range(n)]
                 for i in range(n)]
    right_rows = [[a.c[j][i][k] for j in range(n) for k in range(n)]
                  for i in range(n)]
    left = Mat(left_rows).transpose().nullspace()
    right = Mat(right_rows).transpose().nullspace()
    both_rows = [lr + rr for lr, rr in zip(left_rows, right_rows)]
    both = Mat(both_rows).transpose().nullspace()
    return len(left), len(right), len(both)


def fingerprint(a):
    "Isomorphism-invariant summary used to separate non-isomorphic tables."
    n = a.dim
    lm = [left_matrix(a, basis_vec(a.dim, i)) for i in range(n)]
    rm = [right_matrix(a, basis_vec(a.dim, i)) for i in range(n)]
    prod_span = len(span_basis(
        [list(a.c[i][j]) for i in range(n) for j in range(n)
         if not vec_is_zero(a.c[i][j])], n))
    al, ar, ab = _annihilator_dims(a)
    bil_ll = Mat([[(lm[i] * lm[j]).trace() for j in range(n)] for i in range(n)])
    bil_rr = Mat([[(rm[i] * rm[j]).trace() for j in range(n)] for i in range(n)])
    bil_lr = Mat([[(lm[i] * rm[j]).trace() for j in range(n)] for i in range(n)])
    ls, _ = check_left_symmetric(a)
    flags = {
        "left_symmetric": ls,
        "associative": is_associative(a),
        "transitive": is_transitive(a),
        "novikov": is_novikov(a),
        "bisymmetric": is_bisymmetric(a),
        "commutative": is_commutative(a),
    }
    dims = {
        "product_span": prod_span,
        "ann_left": al,
        "ann_right": ar,
        "ann_two_sided": ab,
    }
    ranks = {
        "tr_ll": bil_ll.rank(),
        "tr_rr": bil_rr.rank(),
        "tr_lr": bil_lr.rank(),
    }
    lie_class = ("n/a",)
    if ls and n == 3:
        lie_class = classify3(commutator_lie(a)).key()
    return Fingerprint(flags, dims, ranks, lie_class)
