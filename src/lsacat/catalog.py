"""The machine-readable classification catalog and its batch verification.

Entries live in data files (one per family) as entry blocks.  A block
reads its metadata lines (entry, family, case, flags, samples, iso) itself;
its params, `table`/`primed` product, f(e<i>), C and primed_witness lines
go through the document reader, `docs.Body`.  The data is source of truth:
nothing is regenerated at runtime.  The directory is overridable through
the LSACAT_DATA environment variable.

Per-entry checks: left-symmetry at every admissible sample, sub-adjacent
Lie class recovery (with canonical parameter for the D family), exact
reconstruction of the printed table from the stored (f, C) cocycle data
(up to the stored in-display witness for primed forms) and expected
property flags.  Remark coincidences are decided exactly by
iso.search_lsa_iso.
"""

from __future__ import annotations

import contextlib
import os
import re
from fractions import Fraction

from .algebra import check_left_symmetric, commutator_lie, substitute_algebra
from .cocycle import Cocycle, Representation, phi
from .docs import Body, _const_value, _words, constraint_allows, content_lines
from .errors import (ConstraintViolated, DivisionByZero, DocSemanticError,
                     DocSyntaxError, LsaError, NotBijective, NotCocycle,
                     UnboundVariable, UnknownId)
from .iso import search_lsa_iso, verify_lsa_iso
from .lie import canonical_lie, classify3
from .props import ideal_flags, identity_flags
from .scalars import (ONE, QI, Record, format_scalar, parse_scalar, qi,
                      substitute)

FAMILY_FILES = {
    "H": "h.cat",
    "N": "n.cat",
    "D1": "d1bar.cat",
    "Dl": "dl.cat",
    "E": "e.cat",
}

FLAG_NAMES = ("associative", "transitive", "novikov", "bisymmetric",
              "simple", "semisimple")

_SAMPLE_POOLS = {
    "lambda": [QI(2), QI(-1), QI(Fraction(1, 2)), QI(3)],
    "mu": [QI(1), QI(2), QI(-1)],
    "l": [QI(Fraction(1, 2)), QI(-1), QI(0, 1)],
}


class IsoDecl(Record):
    def __init__(self, target, lineno=0):
        self.target = target
        self.when = {}              # param -> QI
        self.bind = {}              # target param -> scalar
        self.lineno = lineno        # line in its data file


class CatalogEntry(Record):
    def __init__(self, id, family):
        self.id = id
        self.family = family
        self.params = {}            # name -> constraint
        self.table = None           # parametric Algebra
        self.primed = None
        self.primed_witness = None
        self.case = ""
        self.f_mats = None          # list of parametric Mat
        self.cmat = None
        self.flags = {}             # name -> condition
        self.isos = []
        self.samples_override = {}

    def admissible(self, bindings):
        return all(name in bindings and constraint_allows(c, bindings[name])
                   for name, c in self.params.items())

    def sample_bindings(self, when=None):
        """Default parameter sample plan, filtered by the constraints; the
        parameters named in `when` (an iso declaration's pins) take its
        values instead."""
        when = when or {}
        out = [{}]
        for name, c in self.params.items():
            if name in when:
                pool = [when[name]]
            elif c[0] == "eq":
                pool = [c[1]]
            else:
                pool = list(self.samples_override.get(
                    name, _SAMPLE_POOLS.get(name, [QI(2), QI(-1)])))
                if c[0] == "any" and all(v != QI(0) for v in pool):
                    pool = [QI(0)] + pool
                pool = [v for v in pool if constraint_allows(c, v)]
            out = [dict(b, **{name: v}) for b in out for v in pool]
        return out


def point_label(entry_id, bindings):
    "The name of a catalog point: H-1 without parameters, else N-1[lambda=2]."
    if not bindings:
        return entry_id
    return "%s[%s]" % (entry_id, ",".join(
        "%s=%s" % (k, format_scalar(v)) for k, v in sorted(bindings.items())))


# ---------------------------------------------------------------------------
# data loading


def data_dir():
    return os.environ.get(
        "LSACAT_DATA", os.path.join(os.path.dirname(__file__), "data"))


# keys of the lines an entry block reads itself, and of its docs.Body lines
_META = frozenset(("family", "case", "flags", "samples", "iso"))
_BODY_KEYS = ("table", "primed", "primed_witness", "f", "C")


def _parse_entry_block(head, meta, grammar):
    "The entry of a block from its first, metadata and docs.Body lines."
    words = head[1].split()
    if words[0] != "entry" or len(words) != 2:
        raise DocSyntaxError("entry block must start with 'entry <id>'",
                             head[0], 1)
    e = CatalogEntry(id=words[1], family="")
    body = Body(grammar, 3, _BODY_KEYS, "catalog entry")
    e.params = body.params
    e.table = body.products("table")
    primed, witness = body.lines["primed"], body.lines["primed_witness"]
    if bool(primed) != bool(witness):
        raise DocSyntaxError(
            "entry %s has %s" % (e.id, "a primed table but no primed_witness"
                                 if primed else
                                 "a primed_witness but no primed table"),
            (primed or witness)[0][0], 1)
    if primed:
        e.primed = body.products("primed")
        e.primed_witness = body.matrix("primed_witness")
    e.f_mats = body.f_mats()
    e.cmat = body.matrix("C")
    for lineno, line in meta:
        toks = line.split()
        key = toks[0]
        if key in ("family", "case"):
            if len(toks) != 2:
                raise DocSyntaxError("'%s' needs exactly one value" % key,
                                     lineno, 1)
            setattr(e, key, toks[1])
        elif key == "flags":
            for col, item in _words(line)[1:]:
                fname, _, cond = item.partition("=")
                if fname not in FLAG_NAMES:
                    raise DocSyntaxError("unknown flag %r" % fname, lineno, 1)
                if fname in e.flags:
                    raise DocSyntaxError("flag %s is given twice" % fname,
                                         lineno, 1)
                e.flags[fname] = _parse_cond(cond, lineno, body.params,
                                             col + len(fname) + 1)
        elif key == "samples":
            head, colon, rest = line.partition(":")
            if not colon or len(head.split()) != 2:
                raise DocSyntaxError(
                    "samples line must read 'samples <param>: <values>'",
                    lineno, 1)
            name = _declared(head.split()[1], lineno, body.pnames)
            # each comma-separated value, without the spaces around it
            e.samples_override[name] = [
                _const_value(m.group(), lineno, len(head) + 2 + m.start())
                for m in re.finditer(r"[^,\s]+(?:\s+[^,\s]+)*", rest)]
        else:
            e.isos.append(_parse_iso(line, lineno, body.pnames))
    if e.family not in FAMILY_FILES:
        raise DocSemanticError("entry %s has bad family %r" % (e.id, e.family))
    for fname in FLAG_NAMES:
        e.flags.setdefault(fname, False)
    return e


def _declared(name, lineno, pnames):
    "name, if the entry declares a parameter of that name."
    if name not in pnames:
        raise DocSyntaxError("undeclared parameter %r" % name, lineno, 1)
    return name


def _parse_cond(text, lineno, params, col):
    """The condition text of a flag, which starts at column col; a value
    the parameter's constraint excludes is an error, since the flag could
    never hold."""
    if text == "yes":
        return True
    if text == "no":
        return False
    conj = []
    for item in text.split("&"):
        name, _, val = item.partition("=")
        allowed = params[_declared(name, lineno, params)]
        value = _const_value(val, lineno, col + len(name) + 1)
        if not constraint_allows(allowed, value):
            raise DocSyntaxError("flag condition %s is not admissible" % item,
                                 lineno, col)
        conj.append((name, value))
        col += len(item) + 1
    return tuple(conj)


def _parse_iso(line, lineno, pnames):
    """iso <target> [when k=v ...] [bind k=expr ...]; a `when` name and the
    names in a `bind` expression are parameters of the entry, and any other
    clause is an error."""
    words = _words(line)
    if len(words) < 2:
        raise DocSyntaxError("iso line needs a target entry", lineno, 1)
    decl = IsoDecl(target=words[1][1], lineno=lineno)
    mode = None
    for col, t in words[2:]:
        if t in ("when", "bind"):
            mode = t
            continue
        name, eq, val = t.partition("=")
        if mode is None or not (name and eq and val):
            raise DocSyntaxError("iso clause %r is not name=value after "
                                 "when or bind" % t, lineno, 1)
        if mode == "when":
            name = _declared(name, lineno, pnames)
            decl.when[name] = _const_value(val, lineno, col + len(name) + 1)
        else:
            try:
                decl.bind[name] = parse_scalar(val, pnames)
            except (UnboundVariable, DivisionByZero) as exc:
                raise DocSyntaxError("iso clause %r: %s" % (t, exc), lineno, 1)
    return decl


def _check_iso_target(decl, entries):
    """An iso line names a catalog entry and binds exactly its parameters;
    checked once every data file is loaded."""
    target = entries.get(decl.target)
    if target is None:
        raise DocSyntaxError("iso target %r is not a catalog entry"
                             % decl.target, decl.lineno, 1)
    if set(decl.bind) != set(target.params):
        raise DocSyntaxError(
            "iso %s binds %s, but its parameters are %s"
            % (decl.target, ", ".join(sorted(decl.bind)) or "nothing",
               ", ".join(target.params) or "none"), decl.lineno, 1)


@contextlib.contextmanager
def _in_file(path):
    "Prefix the data file's name to a document error raised in the block."
    try:
        yield
    except (DocSyntaxError, DocSemanticError) as exc:
        exc.args = ("%s: %s" % (path, exc),) + exc.args[1:]
        raise


def _load_file(path):
    "The entries of a data file, each block's lines sorted as they are read."
    entries = []
    head, meta, grammar = None, [], []
    with open(path, "r", encoding="utf-8") as fh, _in_file(path):
        for item in content_lines(fh):
            first = item[1].split(None, 1)
            if first[0] == "end" and len(first) == 1:
                # an 'end' alone is a block that lacks its 'entry <id>'
                entries.append(_parse_entry_block(head or item, meta, grammar))
                head, meta, grammar = None, [], []
            elif head is None:
                head = item
            else:
                (meta if first[0] in _META else grammar).append(item)
    if head is not None:
        raise DocSyntaxError("unterminated entry block in %s" % path,
                             head[0], 1)
    return entries


_CACHE = {}


def load_catalog():
    "Entries as an ordered {id: CatalogEntry} map; cached per data_dir()."
    directory = data_dir()
    if directory in _CACHE:
        return _CACHE[directory]
    out, files = {}, []
    for name in FAMILY_FILES.values():
        path = os.path.join(directory, name)
        entries = _load_file(path)
        for e in entries:
            if e.id in out:
                raise DocSemanticError("duplicate entry id %s" % e.id)
            out[e.id] = e
        files.append((path, entries))
    for path, entries in files:
        with _in_file(path):
            for decl in [d for e in entries for d in e.isos]:
                _check_iso_target(decl, out)
    _CACHE[directory] = out
    return out


def lookup(entry_id):
    cat = load_catalog()
    if entry_id not in cat:
        raise UnknownId("no catalog entry %r" % entry_id)
    return cat[entry_id]


def instantiate(entry, bindings=None, check=True):
    "Exact Algebra over Q(i) for an entry or its id at parameter values."
    e = entry if isinstance(entry, CatalogEntry) else lookup(entry)
    bindings = {k: qi(v) for k, v in (bindings or {}).items()}
    unknown = sorted(p for p in bindings if p not in e.params)
    if unknown:
        raise ConstraintViolated("%s has no parameter(s) %s"
                                 % (e.id, ", ".join(unknown)))
    missing = [p for p in e.params if p not in bindings]
    if missing:
        raise ConstraintViolated("missing binding(s) %s for %s"
                                 % (", ".join(missing), e.id))
    if check and not e.admissible(bindings):
        raise ConstraintViolated(
            "bindings %s violate the constraints of %s"
            % ({k: format_scalar(v) for k, v in bindings.items()}, e.id))
    return substitute_algebra(e.table, bindings)


# ---------------------------------------------------------------------------
# verification


class EntryReport(Record):
    "The one record of a catalog point: its algebra and every check's result."

    def __init__(self, entry_id, bindings, alg=None):
        self.entry_id = entry_id
        self.bindings = bindings
        self.alg = alg
        self.left_symmetric = False     # check_left_symmetric's verdict
        self.lie_class_ok = False
        self.cocycle_reconstruction_ok = True
        self.flags_ok = False
        self.computed = None
        self.messages = []

    @property
    def ok(self):
        return (self.left_symmetric and self.lie_class_ok
                and self.cocycle_reconstruction_ok and self.flags_ok)

    def describe(self):
        head = "%s: %s" % (point_label(self.entry_id, self.bindings),
                           "ok" if self.ok else "FAIL")
        return "\n    ".join([head] + self.messages)


# The sub-adjacent Lie algebra of each catalog family as a canonical_lie
# family: D1 is D(1), a Dl entry's l is its parameter l, and the other
# families take no l.
_FAMILY_LIE = {"H": "Heisenberg", "N": "N", "E": "E", "D1": "Dl", "Dl": "Dl"}


def family_lie(entry, bindings):
    """The family's bracket table g at a point: the point is a left-symmetric
    algebra on g, so its expected Lie class is classify3(g)."""
    return canonical_lie(_FAMILY_LIE[entry.family],
                         bindings["l"] if entry.family == "Dl" else ONE)


def _flag_mismatches(entry, bindings, got):
    """'<flag>: computed X, table says Y' for each flag whose computed value
    got[flag] differs from the entry's table at the point."""
    out = []
    for name in FLAG_NAMES:
        cond = entry.flags[name]
        said = cond if isinstance(cond, bool) else all(
            bindings[k] == v for k, v in cond)
        if got[name] != said:
            out.append("%s: computed %s, table says %s"
                       % (name, got[name], said))
    return out


def computed_flags(alg):
    return dict(identity_flags(alg), **ideal_flags(alg))


def verify_entry(entry, bindings=None):
    "Run every per-entry check of an entry (or its id) at one sample."
    e = entry if isinstance(entry, CatalogEntry) else lookup(entry)
    bindings = {k: qi(v) for k, v in (bindings or {}).items()}
    alg = instantiate(e, bindings)
    rep = EntryReport(e.id, bindings, alg)
    g = family_lie(e, bindings)

    ok, cert = check_left_symmetric(alg)
    rep.left_symmetric = ok
    h = commutator_lie(alg) if ok else None
    if not ok:
        rep.messages.append("left-symmetry fails at triple %s" % (cert[:3],))
    else:   # left-symmetric, so the commutator h is a Lie algebra
        key = classify3(h).key()
        rep.lie_class_ok = h == g or key == classify3(g).key()
        if not rep.lie_class_ok:
            rep.messages.append("lie class %s, expected %s"
                                % (key, classify3(g).key()))

    rep.cocycle_reconstruction_ok = _check_reconstruction(e, rep, h, g)

    rep.computed = computed_flags(alg)
    wrong = _flag_mismatches(e, bindings, rep.computed)
    rep.flags_ok = not wrong
    rep.messages += wrong
    return rep


def _check_reconstruction(e, rep, h, g):
    """Whether the stored (f, C) data rebuilds the point's table (a primed
    entry's via its primed table and witness); a failure's message goes to
    rep.messages.  h is rep.alg's commutator, or None if it was not built,
    and g the family's bracket table at the point (family_lie).
    phi's table is the point's iff A_i C = C F_i for the left multiplications
    A_i = c_i, read up to the first row j where c_ij C != C_j F_i; and
    given left-symmetry, h = g (the family's bracket) and det C != 0 that
    suffices: F_i = C^{-1} A_i C is a representation of h = g as L is;
    C_j F_i = (e_i e_j) C turns the cocycle condition g_ij C = C_j F_i -
    C_i F_j into g_ij C = h_ij C; phi's table is C F_i C^{-1} = A_i.  phi's
    success gives all four back.  So phi, which names the fault, sees only
    points refused here and primed ones (the four speak of the table only)."""
    bindings, alg, messages = rep.bindings, rep.alg, rep.messages
    cm = e.cmat.substitute(bindings)
    fs = [m.substitute(bindings) for m in e.f_mats]
    if (e.primed is None and rep.left_symmetric and h == g
            and not cm.det().is_zero()
            and all(cm.apply_row(alg.c[i][j]) == f.apply_row(cm.rows[j])
                    for i, f in enumerate(fs) for j in range(alg.dim))):
        return True
    try:
        built = phi(Cocycle(Representation(g, fs), cm))
    except NotCocycle as exc:
        if exc.cert[0] == "representation":
            messages.append("stored f data is not a representation: %r"
                            % (exc.cert[1],))
        else:
            messages.append("stored (f, C) is not a cocycle: %r" % (exc.cert,))
        return False
    except NotBijective:
        messages.append("stored C is singular")
        return False
    if e.primed is not None:
        primed = substitute_algebra(e.primed, bindings)
        if built != primed:
            messages.append("phi does not match the primed table")
            return False
        w = e.primed_witness.substitute(bindings)
        if not verify_lsa_iso(primed, alg, w):
            messages.append("stored primed witness fails")
            return False
        return True
    if built != alg:
        messages.append("phi does not reproduce the printed table")
        return False
    return True


def _point_key(entry_id, bindings):
    "The key of a catalog point in a pass's table of built points."
    return entry_id, tuple(sorted(bindings.items()))


def _swept_points(sweep):
    "A pass's {_point_key: table}, seeded with a verify_all sweep's points."
    return {_point_key(r.entry_id, r.bindings): r.alg for r in sweep.reports}


def _built(points, entry, bindings):
    """entry's table at bindings, from points or built into it, unchecked:
    the load proved that an iso bind names its target's parameters, and
    _parse_cond and the sample pools admit each flag condition's point."""
    key = _point_key(entry.id, bindings)
    if key not in points:
        points[key] = instantiate(entry, bindings, check=False)
    return points[key]


def _verify_iso_decl(points, entry, bindings, target, bind, use_search):
    """(ok, message) for the coincidence of entry's point at bindings with
    target's at bind's values there, each table _built into points, by
    search_lsa_iso: ok is True if it holds, None if the verdict is unknown,
    else False.  A bind that cannot be evaluated or an end that cannot be
    built (a remark may pin a value outside the entry's domain) fails the
    coincidence.  use_search changes nothing here; perfbench/worker.py
    reads it to tell the coincidence calls apart."""
    stage = "bind"
    try:
        at = {name: substitute(val, bindings) for name, val in bind.items()}
        stage = "source instantiation"
        a = _built(points, entry, bindings)
        stage = "target instantiation"
        b = _built(points, target, at)
    except LsaError as exc:
        return False, "iso %s -> %s: %s failed: %s" % (
            entry.id, target.id, stage, exc)
    label = "iso %s -> %s" % (point_label(entry.id, bindings),
                              point_label(target.id, at))
    verdict = search_lsa_iso(a, b)
    if verdict.is_isomorphic:
        return True, label + ": ok (search)"
    return (None if verdict.status == "unknown" else False,
            label + ": %s (%s)" % (verdict.status, verdict.reason))


class SweepReport(Record):
    def __init__(self):
        self.total = 0
        self.failures = []
        self.reports = []

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        lines = ["verified %d entry/sample pairs, %d failures"
                 % (self.total, len(self.failures))]
        for r in self.failures:
            lines.append(r.describe())
        return "\n".join(lines)


def verify_all(families=None, plan=None):
    """Run verify_entry over entries and samples.

    plan: optional {entry_id: [bindings, ...]}; when given, exactly the
    listed entries run at the listed bindings, in the plan's order.
    Otherwise every entry of the given families (default all) runs at its
    default sample plan, in catalog order.
    """
    cat = load_catalog()
    if plan is None:
        plan = {e.id: e.sample_bindings() for e in cat.values()
                if not families or e.family in families}
    out = SweepReport()
    for entry_id, samples in plan.items():
        e = cat.get(entry_id, entry_id)     # verify_entry refuses a bad id
        for b in samples:
            r = verify_entry(e, b)
            out.total += 1
            out.reports.append(r)
            if not r.ok:
                out.failures.append(r)
    return out


def verify_property_tables(sweep):
    """Compare the property flags computed by a verify_all sweep with the
    stored expectations, per family and flag, at its points and at each
    point of a swept entry's conditional flags (its sample_bindings at the
    condition's values) it missed, where failed left-symmetry is a mismatch
    too.  'discrepancies' lists every mismatch; 'condition_discrepancies'
    those at the added points, as a sweep report prints its own."""
    cat, points = load_catalog(), _swept_points(sweep)
    checked = [(cat[r.entry_id], r.bindings, r.computed, [])
               for r in sweep.reports]
    swept = len(checked)
    for e in [cat[eid] for eid in dict.fromkeys(k[0] for k in points)]:
        for b in [b for cond in e.flags.values() if isinstance(cond, tuple)
                  for b in e.sample_bindings(dict(cond))]:
            if _point_key(e.id, b) not in points:
                alg = _built(points, e, b)
                ok, cert = check_left_symmetric(alg)
                checked.append((e, b, computed_flags(alg), [] if ok
                                else ["left-symmetry fails at triple %s"
                                      % (cert[:3],)]))
    found = ([], [])            # at the sweep's points, at the added ones
    sets = {}
    for k, (e, bindings, got, wrong) in enumerate(checked):
        label = point_label(e.id, bindings)
        for name in FLAG_NAMES:
            if got[name]:
                sets.setdefault((e.family, name), []).append((e.id, label))
        wrong += _flag_mismatches(e, bindings, got)
        found[k >= swept].extend("%s %s" % (label, m) for m in wrong)
    return {"checked": len(checked), "sets": sets,
            "discrepancies": found[0] + found[1],
            "condition_discrepancies": found[1]}


def verify_remark_isos(sweep):
    """Check the stored coincidence declarations of the entries a
    verify_all sweep ran, each decided exactly by search_lsa_iso; a point
    the sweep built is not built again, and no point is built twice.
    Returns (confirmed, unconfirmed, failed) message lists."""
    cat, points = load_catalog(), _swept_points(sweep)
    swept = {r.entry_id for r in sweep.reports}
    confirmed, unconfirmed, failed = [], [], []
    for e in cat.values():
        if e.id not in swept:
            continue
        for decl in e.isos:
            for b in e.sample_bindings(decl.when):
                ok, msg = _verify_iso_decl(points, e, b, cat[decl.target],
                                           decl.bind, use_search=True)
                if ok:
                    confirmed.append(msg)
                elif ok is None:
                    unconfirmed.append(msg)
                else:
                    failed.append(msg)
    return confirmed, unconfirmed, failed


def entry_counts():
    cat = load_catalog()
    counts = {}
    for e in cat.values():
        counts[e.family] = counts.get(e.family, 0) + 1
    return counts
