"""Line-oriented text format for algebras, cocycles and isomorphism
witnesses, the three kinds the command line reads.

Header:   kind <algebra|cocycle|iso_witness> dim <n> domain <rational|gaussian|ratfunc>
Params:   params <name> any | ne <v> [<v> ...] | eq <v>   (name not i, e<k>)
Bodies:   e<i> e<j> = <term> [+ <term> ...]     (algebra products)
          bracket e<i> e<j> = ...               (Lie part of a cocycle)
          f(e<i>) = [[...],[...],[...]]          (representation matrices)
          C = [[...]] / T = [[...]]             (cocycle / witness matrix)
          source e<i> e<j> = ... / target ...   (iso_witness payloads)

A right-hand side is '[+|-] [c] e<k> +|- ...' or 0 alone; a matrix is '['
rows ']', each row '[' scalars ']', separated by ','.  The scalar lexer
reads both (scalars.parse_combination, scalars.parse_rows); this module
checks only the dimension and the header's domain (parameters only in
ratfunc, no i in rational), and turns the offset of a scalar syntax error
into the column of its line.  Emission is canonical: products in row order,
scalars in the shared literal syntax, so parse(emit(d)) == d.

`Body` is the one reader of these lines: catalog entry blocks use it too,
with `table`/`primed` product prefixes and a `primed_witness` matrix.  It
rejects a basis name other than e1..e<dim>, a repeated product, parameter,
f(e<i>) or matrix line, and any line the document kind does not use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .algebra import Algebra, LieAlgebra
from .cocycle import Cocycle, Representation
from .errors import (DocSemanticError, DocSyntaxError, DivisionByZero,
                     NotLieAlgebra, UnboundVariable)
from .linalg import Mat, vec_zero
from .scalars import (QI, format_scalar, format_sum, is_zero,
                      parse_combination, parse_rows, parse_scalar, qi)

# kind -> (product prefixes, has f(e<i>) lines, matrix names), in the
# order emit_document writes them
_LAYOUT = {
    "algebra": (("",), False, ()),
    "cocycle": (("bracket",), True, ("C",)),
    "iso_witness": (("source", "target"), False, ("T",)),
}
KINDS = tuple(_LAYOUT)
DOMAINS = ("rational", "gaussian", "ratfunc")


@dataclass
class Document:
    kind: str
    dim: int
    domain: str
    params: dict = field(default_factory=dict)  # name -> constraint tuple
    payload: object = None


# ---------------------------------------------------------------------------
# low-level parsing helpers


def parse_term_list(text, dim, params):
    "Parse '<scalar> e<k> + ...' (or '0') into a coordinate vector."
    return parse_combination(text, ["e%d" % (k + 1) for k in range(dim)],
                             params)


def parse_matrix(text, dim, params):
    "Parse a [[...],[...]] row-major dim x dim matrix of scalar expressions."
    rows = parse_rows(text, params)
    for row in rows:
        if len(row) != dim:
            raise DocSemanticError("matrix row has %d entries, need %d"
                                   % (len(row), dim))
    if len(rows) != dim:
        raise DocSemanticError("matrix has %d rows, need %d" % (len(rows), dim))
    return Mat._of(rows)


def format_matrix(m):
    return "[[%s]]" % "],[".join(
        ",".join(format_scalar(x) for x in m.row(i)) for i in range(m.nrows))


def parse_constraint(words, lineno):
    """The constraint of a params line, given as its (column, text) words
    (at least one: _read_params rejects a line without them)."""
    tokens = [t for _, t in words]
    if tokens[0] == "any":
        if len(tokens) > 1:
            raise DocSyntaxError("any takes no value", lineno, 1)
        return ("any",)
    if tokens[0] == "ne":
        vals = tuple(_const_value(t, lineno, col) for col, t in words[1:])
        if not vals:
            raise DocSyntaxError("ne constraint needs at least one value",
                                 lineno, 1)
        return ("ne",) + vals
    if tokens[0] == "eq":
        if len(tokens) != 2:
            raise DocSyntaxError("eq constraint needs exactly one value",
                                 lineno, 1)
        return ("eq", _const_value(tokens[1], lineno, words[1][0]))
    raise DocSyntaxError("unknown constraint %r" % tokens[0], lineno, 1)


def format_constraint(c):
    if c[0] == "any":
        return "any"
    if c[0] == "ne":
        return "ne %s" % " ".join(format_scalar(v) for v in c[1:])
    return "eq %s" % format_scalar(c[1])


def _const_value(text, lineno, col):
    "A scalar without parameters, read at column `col` of line `lineno`."
    try:
        return parse_scalar(text, vars=())
    except (UnboundVariable, DivisionByZero):
        raise DocSyntaxError("expected a constant, got %r" % text, lineno, col)


def constraint_allows(c, value):
    value = qi(value)
    if c[0] == "any":
        return True
    if c[0] == "ne":
        return all(value != bad for bad in c[1:])
    return value == c[1]


# ---------------------------------------------------------------------------
# document parsing


def _words(line, pattern=r"\S+"):
    """(1-based column, text) of each match of pattern in line, by default
    of each whitespace-separated word."""
    return [(m.start() + 1, m.group()) for m in re.finditer(pattern, line)]


def _header(line, lineno):
    cols, toks = zip(*_words(line))  # a header line is not blank
    if len(toks) != 6 or toks[0] != "kind" or toks[2] != "dim" or toks[4] != "domain":
        raise DocSyntaxError("expected 'kind <kind> dim <n> domain <dom>'",
                             lineno, 1)
    kind, dom = toks[1], toks[5]
    if kind not in KINDS:
        raise DocSyntaxError("unknown kind %r" % kind, lineno, cols[1])
    if dom not in DOMAINS:
        raise DocSyntaxError("unknown domain %r" % dom, lineno, cols[5])
    try:
        dim = int(toks[3])
    except ValueError:
        raise DocSyntaxError("dim must be an integer", lineno, cols[3])
    if not 1 <= dim <= 3:
        raise DocSyntaxError("dim must be between 1 and 3", lineno,
                             cols[3])
    return kind, dim, dom


def _line_key(line):
    """Which reader takes a line: "" for a plain product 'e<i> e<j> = ...',
    "f" for 'f(e<i>) = ...', otherwise the first token (a product prefix,
    a matrix name or 'params')."""
    head, eq, _ = line.partition("=")
    toks = head.split()
    if not toks or (eq and len(toks) == 2):
        return ""
    return "f" if toks[0].startswith("f(") else toks[0]


def _is_basis_name(name):
    "Is name e<k> for some decimal k?"
    return name[:1] == "e" and name[1:].isdecimal()


def _basis_index(name, dim, lineno, form):
    "0-based k for the basis name e<k>, exactly one of e1..e<dim>."
    names = ["e%d" % (k + 1) for k in range(dim)]
    if name in names:
        return names.index(name)
    if _is_basis_name(name):
        raise DocSemanticError("line %d: basis name %s is not one of e1..e%d"
                               % (lineno, name, dim))
    raise DocSyntaxError("expected %s" % form, lineno, 1)


def _at_line(lineno, col, parse, text, *args):
    """parse(text, *args) for text that starts at column col of line
    lineno: a scalar syntax error is raised at its line and column, and
    any other error with the line number."""
    try:
        return parse(text, *args)
    except UnboundVariable as e:
        if e.pos is None:
            raise DocSemanticError("line %d: %s" % (lineno, e))
        raise DocSyntaxError(str(e), lineno, col + e.pos)
    except (DivisionByZero, DocSemanticError) as e:
        raise DocSemanticError("line %d: %s" % (lineno, e))


def _lie_completion(table, given):
    """The LieAlgebra of the bracket table with [e_j, e_i] = -[e_i, e_j]
    filled in for each given (i, j) whose (j, i) is not given; a table
    that breaks antisymmetry (a nonzero [e_i, e_i] included) or Jacobi is
    a DocSemanticError."""
    for (i, j) in given:
        if (j, i) not in given:
            table[j][i] = [-x for x in table[i][j]]
    try:
        return LieAlgebra(table)
    except NotLieAlgebra as e:
        raise DocSemanticError(str(e))


def _read_params(lines):
    params = {}
    for lineno, line in lines:
        words = _words(line)
        if len(words) < 3:
            raise DocSyntaxError("params needs a name and a constraint",
                                 lineno, 1)
        col, name = words[1]
        if name == "i" or not name.isidentifier() or _is_basis_name(name):
            raise DocSyntaxError("bad parameter name %r" % name, lineno, col)
        if name in params:
            raise DocSemanticError("line %d: repeated parameter %s"
                                   % (lineno, name))
        params[name] = parse_constraint(words[2:], lineno)
    return params


class Body:
    """The content lines of a document or catalog entry, sorted by
    `_line_key` into `lines`, with the parameters already read.  A line
    whose key is not among `keys` (or 'params') is a DocSyntaxError, and
    a scalar outside `domain` a DocSemanticError naming its line."""

    def __init__(self, lines, dim, keys, what, domain="ratfunc"):
        self.dim = dim
        self.what = what
        self.domain = domain
        self.lines = {k: [] for k in ("params",) + tuple(keys)}
        for lineno, line in lines:
            group = self.lines.get(_line_key(line))
            if group is None:
                raise DocSyntaxError("not a line of a %s" % what, lineno, 1)
            group.append((lineno, line))
        self.params = _read_params(self.lines["params"])
        self.pnames = set(self.params)

    def _rhs(self, lineno, head, rhs, parse):
        """parse(rhs, dim, parameters) for the text after 'head=' on line
        lineno.  Only ratfunc documents hold parameters, and rational ones
        are real."""
        out = _at_line(lineno, len(head) + 2, parse, rhs, self.dim,
                       self.pnames)
        if self.domain == "ratfunc":
            return out
        for row in out.rows if isinstance(out, Mat) else (out,):
            for x in row:
                if not isinstance(x, QI):
                    raise DocSemanticError(
                        "line %d: parameters need domain ratfunc" % lineno)
                if self.domain == "rational" and x.im != 0:
                    raise DocSemanticError("line %d: imaginary scalar in a "
                                           "rational document" % lineno)
        return out

    def products(self, prefix, lie=False):
        """The Algebra of the '<prefix> e<i> e<j> = ...' lines, or with
        lie=True the LieAlgebra their brackets complete to."""
        dim = self.dim
        table = [[vec_zero(dim) for _ in range(dim)] for _ in range(dim)]
        given = set()
        for lineno, line in self.lines[prefix]:
            head, eq, rhs = line.partition("=")
            toks = head.split()[1 if prefix else 0:]
            if len(toks) != 2 or not eq:
                raise DocSyntaxError("malformed product line", lineno, 1)
            i, j = (_basis_index(t, dim, lineno, "'e<i> e<j> = ...'")
                    for t in toks)
            if (i, j) in given:
                raise DocSemanticError("line %d: duplicate product e%d e%d"
                                       % (lineno, i + 1, j + 1))
            given.add((i, j))
            table[i][j] = self._rhs(lineno, head, rhs, parse_term_list)
        return _lie_completion(table, given) if lie else Algebra(table)

    def _matrix(self, lineno, line):
        head, eq, rhs = line.partition("=")
        if not eq:
            raise DocSyntaxError("expected '%s = [[...]]'" % head.split()[0],
                                 lineno, 1)
        return self._rhs(lineno, head, rhs, parse_matrix)

    def matrix(self, name):
        "The matrix of the one '<name> = [[...]]' line."
        lines = self.lines[name]
        if len(lines) > 1:
            raise DocSemanticError("line %d: repeated %s matrix"
                                   % (lines[1][0], name))
        if not lines:
            raise DocSemanticError("%s needs a %s matrix" % (self.what, name))
        return self._matrix(*lines[0])

    def f_mats(self):
        "The f(e<i>) matrices, one line for each i in 1..dim."
        mats = [None] * self.dim
        for lineno, line in self.lines["f"]:
            head = line.partition("=")[0].strip()
            if not head.endswith(")"):
                raise DocSyntaxError("expected 'f(e<i>) = ...'", lineno, 1)
            k = _basis_index(head[2:-1], self.dim, lineno, "'f(e<i>) = ...'")
            if mats[k] is not None:
                raise DocSemanticError("line %d: repeated f(e%d)"
                                       % (lineno, k + 1))
            mats[k] = self._matrix(lineno, line)
        missing = [k + 1 for k, m in enumerate(mats) if m is None]
        if missing:
            raise DocSemanticError("missing f(e%d) line" % missing[0])
        return mats


def parse_document(text):
    """Parse a document; DocSyntaxError carries line/column positions and
    semantic problems raise DocSemanticError."""
    lines = []
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if header is None:
            header = _header(line, lineno)
        else:
            lines.append((lineno, line))
    if header is None:
        raise DocSyntaxError("empty document", 1, 1)
    kind, dim, domain = header
    prefixes, has_f, names = _LAYOUT[kind]
    body = Body(lines, dim, prefixes + ("f",) * has_f + names,
                "%s document" % kind, domain)
    tables = [body.products(p, lie=p == "bracket") for p in prefixes]
    mats = body.f_mats() if has_f else ()
    named = [body.matrix(name) for name in names]
    return Document(kind, dim, domain, body.params,
                    _payload(kind, tables, mats, named))


def _payload(kind, tables, mats, named):
    if kind == "algebra":
        return tables[0]
    if kind == "iso_witness":
        return (tables[0], tables[1], named[0])
    return Cocycle(Representation(tables[0], mats), named[0])


def _parts(kind, payload):
    "Inverse of _payload: (product tables, f matrices, named matrices)."
    if kind == "algebra":
        return (payload,), (), ()
    if kind == "iso_witness":
        return payload[:2], (), payload[2:]
    return (payload.rep.g,), payload.rep.mats, (payload.C,)


def _product_lines(alg, prefix):
    "'<prefix> e<i> e<j> = ...' for the nonzero products (i < j for a Lie table)."
    lead = prefix + " " if prefix else ""
    names = ["e%d" % (k + 1) for k in range(alg.dim)]
    lie = isinstance(alg, LieAlgebra)
    out = []
    for i in range(alg.dim):
        for j in range(i + 1 if lie else 0, alg.dim):
            terms = [(x, name) for x, name in zip(alg.c[i][j], names)
                     if not is_zero(x)]
            if terms:
                out.append("%se%d e%d = %s"
                           % (lead, i + 1, j + 1, format_sum(terms, spaced=True)))
    return out


def emit_document(doc):
    "Canonical text form; parse(emit(doc)) reproduces the document."
    if doc.kind not in _LAYOUT:
        raise DocSemanticError("unhandled kind %r" % doc.kind)
    out = ["kind %s dim %d domain %s" % (doc.kind, doc.dim, doc.domain)]
    for name, c in doc.params.items():
        out.append("params %s %s" % (name, format_constraint(c)))
    prefixes, _, names = _LAYOUT[doc.kind]
    tables, mats, named = _parts(doc.kind, doc.payload)
    for prefix, alg in zip(prefixes, tables):
        out += _product_lines(alg, prefix)
    for k, m in enumerate(mats):
        out.append("f(e%d) = %s" % (k + 1, format_matrix(m)))
    for name, m in zip(names, named):
        out.append("%s = %s" % (name, format_matrix(m)))
    return "\n".join(out) + "\n"
