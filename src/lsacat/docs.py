"""Line-oriented text format for algebras, Lie algebras, representations,
cocycles, r-matrices, O-operator data, and isomorphism witnesses.

Header:   kind <kind> dim <n> domain <rational|gaussian|ratfunc>
Params:   params <name> any | ne <v> [<v> ...] | eq <v>
Bodies:   e<i> e<j> = <term> [+ <term> ...]     (algebra / lie products)
          bracket e<i> e<j> = ...               (lie part of rep-like docs)
          f(e<i>) = [[...],[...],[...]]          (representation matrices)
          C = [[...]] / R = [[...]] / T = [[...]]
          source e<i> e<j> = ... / target ...   (iso_witness payloads)

A term is an optional scalar expression followed by a basis name e<k>;
plain 0 denotes the zero product.  Emission is canonical: products in row
order, scalars in the shared literal syntax, so parse(emit(d)) == d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra
from .errors import (DocSemanticError, DocSyntaxError, DivisionByZero,
                     UnboundVariable)
from .lie import LieAlgebra
from .linalg import Mat, vec_zero
from .scalars import QI, format_scalar, is_zero, parse_scalar, qi

KINDS = ("algebra", "lie", "representation", "cocycle", "rmatrix",
         "ooperator", "iso_witness")
DOMAINS = ("rational", "gaussian", "ratfunc")


@dataclass
class Document:
    kind: str
    dim: int
    domain: str
    params: dict = field(default_factory=dict)  # name -> constraint tuple
    payload: object = None


# ---------------------------------------------------------------------------
# low-level parsing helpers (shared with the catalog data loader)


def split_top_level_terms(text):
    "Split on +/- at paren depth 0, keeping the sign with each chunk."
    chunks = []
    depth = 0
    cur = ""
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch in "+-" and depth == 0 and cur.strip():
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    if cur.strip():
        chunks.append(cur)
    return chunks


def parse_term_list(text, dim, params):
    "Parse '<scalar> e<k> + ...' (or '0') into a coordinate vector."
    text = text.strip()
    v = vec_zero(dim)
    if text == "0":
        return v
    for chunk in split_top_level_terms(text):
        chunk = chunk.strip()
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        if not chunk:
            raise DocSyntaxError("empty term in %r" % text)
        # trailing basis name
        k = None
        for idx in range(dim, 0, -1):
            name = "e%d" % idx
            if chunk == name or chunk.endswith(" %s" % name) \
                    or chunk.endswith("*%s" % name):
                k = idx - 1
                chunk = chunk[: len(chunk) - len(name)].rstrip()
                if chunk.endswith("*"):
                    chunk = chunk[:-1].rstrip()
                break
        if k is None:
            raise DocSemanticError("term %r has no basis vector e1..e%d"
                                   % (chunk, dim))
        coeff = parse_scalar(chunk, params) if chunk else qi(1)
        if sign < 0:
            coeff = qi(-1) * coeff if isinstance(coeff, QI) else -coeff
        v[k] = v[k] + coeff
    return v


def parse_matrix(text, dim, params):
    "Parse a [[...],[...]] row-major matrix of scalar expressions."
    s = text.strip()
    if not (s.startswith("[[") and s.endswith("]]")):
        raise DocSyntaxError("matrix must look like [[...],[...]]: %r" % text)
    rows = []
    depth = 0
    cur = ""
    row = []
    for ch in s[1:-1]:
        if ch == "[":
            depth += 1
            if depth == 1:
                row = []
                cur = ""
                continue
        elif ch == "]":
            depth -= 1
            if depth == 0:
                row.append(cur)
                rows.append(row)
                cur = ""
                continue
        elif ch == "," and depth == 1:
            row.append(cur)
            cur = ""
            continue
        elif ch == "," and depth == 0:
            continue
        cur += ch
    out = []
    for row in rows:
        if len(row) != dim:
            raise DocSemanticError("matrix row has %d entries, need %d"
                                   % (len(row), dim))
        out.append([parse_scalar(x.strip(), params) if x.strip() else qi(0)
                    for x in row])
    if len(out) != dim:
        raise DocSemanticError("matrix has %d rows, need %d" % (len(out), dim))
    return Mat(out)


def format_term_list(v, basis_names):
    parts = []
    for k, x in enumerate(v):
        if is_zero(x):
            continue
        s = format_scalar(x)
        if s == "1":
            parts.append(basis_names[k])
        elif s == "-1":
            parts.append("-%s" % basis_names[k])
        else:
            if ("+" in s[1:]) or ("-" in s[1:]) or "/" in s:
                s = "(%s)" % s
            parts.append("%s %s" % (s, basis_names[k]))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " %s" % p if p.startswith("-") else " + %s" % p
    return out


def format_matrix(m):
    return "[[%s]]" % "],[".join(
        ",".join(format_scalar(x) for x in m.row(i)) for i in range(m.nrows))


def parse_constraint(tokens):
    if not tokens:
        raise DocSyntaxError("missing constraint")
    if tokens[0] == "any":
        return ("any",)
    if tokens[0] == "ne":
        vals = tuple(_const_value(t) for t in tokens[1:])
        if not vals:
            raise DocSyntaxError("ne constraint needs at least one value")
        return ("ne",) + vals
    if tokens[0] == "eq":
        if len(tokens) != 2:
            raise DocSyntaxError("eq constraint needs exactly one value")
        return ("eq", _const_value(tokens[1]))
    raise DocSyntaxError("unknown constraint %r" % tokens[0])


def format_constraint(c):
    if c[0] == "any":
        return "any"
    if c[0] == "ne":
        return "ne %s" % " ".join(format_scalar(v) for v in c[1:])
    return "eq %s" % format_scalar(c[1])


def _const_value(text):
    v = parse_scalar(text, vars=())
    if not isinstance(v, QI):
        raise DocSemanticError("constraint value %r is not constant" % text)
    return v


def constraint_allows(c, value):
    value = qi(value)
    if c[0] == "any":
        return True
    if c[0] == "ne":
        return all(value != bad for bad in c[1:])
    return value == c[1]


# ---------------------------------------------------------------------------
# document parsing


def _header(line, lineno):
    toks = line.split()
    if len(toks) != 6 or toks[0] != "kind" or toks[2] != "dim" or toks[4] != "domain":
        raise DocSyntaxError("expected 'kind <kind> dim <n> domain <dom>'",
                             lineno, 1)
    kind, dom = toks[1], toks[5]
    if kind not in KINDS:
        raise DocSyntaxError("unknown kind %r" % kind, lineno, 6)
    if dom not in DOMAINS:
        raise DocSemanticError("unknown domain %r" % dom)
    try:
        dim = int(toks[3])
    except ValueError:
        raise DocSyntaxError("dim must be an integer", lineno, 10)
    if not 1 <= dim <= 4:
        raise DocSemanticError("dim must be between 1 and 4")
    return kind, dim, dom


def _parse_products(lines, dim, params, prefix=""):
    """Collect '<prefix>e<i> e<j> = terms' into a dim^3 table; returns the
    table and the set of (i, j) cells that were given."""
    table = [[vec_zero(dim) for _ in range(dim)] for _ in range(dim)]
    given = set()
    for lineno, line in lines:
        toks = line.split(None, 2 if not prefix else 3)
        if prefix:
            toks = toks[1:]
        if len(toks) < 3 or "=" not in line:
            raise DocSyntaxError("malformed product line", lineno, 1)
        lhs_i, lhs_j = toks[0], toks[1]
        rhs = line.split("=", 1)[1].strip()
        try:
            if lhs_i[0] != "e" or lhs_j[0] != "e":
                raise ValueError("not a basis name")
            i = int(lhs_i[1:]) - 1
            j = int(lhs_j[1:]) - 1
        except ValueError:
            raise DocSyntaxError("expected 'e<i> e<j> = ...'", lineno, 1)
        if not (0 <= i < dim and 0 <= j < dim):
            raise DocSemanticError("basis index out of range on line %d" % lineno)
        if (i, j) in given:
            raise DocSemanticError("duplicate product e%d e%d" % (i + 1, j + 1))
        given.add((i, j))
        try:
            table[i][j] = parse_term_list(rhs, dim, params)
        except (UnboundVariable, DivisionByZero) as e:
            raise DocSemanticError("line %d: %s" % (lineno, e))
    return table, given


def parse_document(text):
    """Parse a document; DocSyntaxError carries line/column positions and
    semantic problems raise DocSemanticError."""
    lines = []
    header = None
    params = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = _header(line, lineno)
            continue
        if line.startswith("params "):
            toks = line.split()
            if len(toks) < 3:
                raise DocSyntaxError("params needs a name and a constraint",
                                     lineno, 1)
            name = toks[1]
            if name == "i" or not name.isidentifier():
                raise DocSemanticError("bad parameter name %r" % name)
            params[name] = parse_constraint(toks[2:])
            continue
        lines.append((lineno, line))
    if header is None:
        raise DocSyntaxError("empty document", 1, 1)
    kind, dim, domain = header
    pnames = set(params)
    doc = Document(kind, dim, domain, params)

    def matrix_line(line, lineno, label):
        _, _, rhs = line.partition("=")
        if not rhs:
            raise DocSyntaxError("expected '%s = [[...]]'" % label, lineno, 1)
        try:
            return parse_matrix(rhs.strip(), dim, pnames)
        except (UnboundVariable, DivisionByZero) as e:
            raise DocSemanticError("line %d: %s" % (lineno, e))

    if kind == "algebra":
        table, _ = _parse_products(lines, dim, pnames)
        doc.payload = Algebra(table)
        _check_domain(doc)
        return doc
    if kind == "lie":
        table, given = _parse_products(lines, dim, pnames)
        for (i, j) in given:
            if (j, i) in given and i != j:
                lhs = table[i][j]
                rhs = [-x for x in table[j][i]]
                if any(not is_zero(a - b) for a, b in zip(lhs, rhs)):
                    raise DocSemanticError(
                        "inconsistent brackets for (e%d,e%d)" % (i + 1, j + 1))
        full = [[vec_zero(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j) in given:
            full[i][j] = table[i][j]
            if (j, i) not in given:
                full[j][i] = [-x for x in table[i][j]]
        doc.payload = LieAlgebra(full)
        _check_domain(doc)
        return doc

    bracket_lines = [(n, l) for n, l in lines if l.startswith("bracket ")]
    f_lines = [(n, l) for n, l in lines if l.startswith("f(")]
    other = [(n, l) for n, l in lines
             if not l.startswith("bracket ") and not l.startswith("f(")]

    def lie_part():
        table, given = _parse_products(bracket_lines, dim, pnames, prefix="bracket")
        full = [[vec_zero(dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j) in given:
            full[i][j] = table[i][j]
            if (j, i) not in given:
                full[j][i] = [-x for x in table[i][j]]
        return LieAlgebra(full)

    def f_mats():
        mats = [None] * dim
        for lineno, line in f_lines:
            head = line.split("=", 1)[0].strip()
            if not (head.startswith("f(e") and head.endswith(")")):
                raise DocSyntaxError("expected 'f(e<i>) = ...'", lineno, 1)
            idx = int(head[3:-1]) - 1
            mats[idx] = matrix_line(line, lineno, head)
        if any(m is None for m in mats):
            raise DocSemanticError("missing f(e<i>) line")
        return mats

    if kind == "representation":
        from .cocycle import Representation
        doc.payload = Representation(lie_part(), f_mats())
        return doc
    if kind == "cocycle":
        from .cocycle import Cocycle, Representation
        cmat = None
        for lineno, line in other:
            if line.startswith("C"):
                cmat = matrix_line(line, lineno, "C")
        if cmat is None:
            raise DocSemanticError("cocycle document needs a C matrix")
        doc.payload = Cocycle(Representation(lie_part(), f_mats()), cmat)
        return doc
    if kind == "rmatrix":
        rmat = None
        for lineno, line in other:
            if line.startswith("R"):
                rmat = matrix_line(line, lineno, "R")
        if rmat is None:
            raise DocSemanticError("rmatrix document needs an R matrix")
        doc.payload = (lie_part(), rmat)
        return doc
    if kind == "ooperator":
        from .cocycle import Representation
        tmat = None
        for lineno, line in other:
            if line.startswith("T"):
                tmat = matrix_line(line, lineno, "T")
        if tmat is None:
            raise DocSemanticError("ooperator document needs a T matrix")
        doc.payload = (Representation(lie_part(), f_mats()), tmat)
        return doc
    if kind == "iso_witness":
        src = [(n, l[len("source "):]) for n, l in lines if l.startswith("source ")]
        tgt = [(n, l[len("target "):]) for n, l in lines if l.startswith("target ")]
        tmat = None
        for lineno, line in lines:
            if line.startswith("T"):
                tmat = matrix_line(line, lineno, "T")
        if tmat is None:
            raise DocSemanticError("iso_witness document needs a T matrix")
        stab, _ = _parse_products(src, dim, pnames)
        ttab, _ = _parse_products(tgt, dim, pnames)
        doc.payload = (Algebra(stab), Algebra(ttab), tmat)
        return doc
    raise DocSemanticError("unhandled kind %r" % kind)


def _check_domain(doc):
    def scan(x):
        if doc.domain == "rational":
            if isinstance(x, QI) and x.im != 0:
                raise DocSemanticError("imaginary scalar in a rational document")
            if not isinstance(x, QI):
                raise DocSemanticError("parameters need domain ratfunc")
        if doc.domain == "gaussian" and not isinstance(x, QI):
            raise DocSemanticError("parameters need domain ratfunc")

    payload = doc.payload
    if isinstance(payload, Algebra):
        for i in range(payload.dim):
            for j in range(payload.dim):
                for x in payload.c[i][j]:
                    scan(x)
    if isinstance(payload, LieAlgebra):
        for i in range(payload.dim):
            for j in range(payload.dim):
                for x in payload.b[i][j]:
                    scan(x)


def emit_document(doc):
    "Canonical text form; parse(emit(doc)) reproduces the document."
    out = ["kind %s dim %d domain %s" % (doc.kind, doc.dim, doc.domain)]
    for name, c in doc.params.items():
        out.append("params %s %s" % (name, format_constraint(c)))
    names = ["e%d" % (k + 1) for k in range(doc.dim)]
    payload = doc.payload

    def products(alg, prefix=""):
        for i in range(alg.dim):
            for j in range(alg.dim):
                if isinstance(alg, LieAlgebra):
                    if i >= j or all(is_zero(x) for x in alg.b[i][j]):
                        continue
                    vec = alg.b[i][j]
                else:
                    vec = alg.c[i][j]
                    if all(is_zero(x) for x in vec):
                        continue
                out.append("%se%d e%d = %s"
                           % (prefix, i + 1, j + 1, format_term_list(vec, names)))

    if doc.kind == "algebra":
        products(payload)
    elif doc.kind == "lie":
        products(payload)
    elif doc.kind == "representation":
        products(payload.g, prefix="bracket ")
        for k, m in enumerate(payload.mats):
            out.append("f(e%d) = %s" % (k + 1, format_matrix(m)))
    elif doc.kind == "cocycle":
        products(payload.rep.g, prefix="bracket ")
        for k, m in enumerate(payload.rep.mats):
            out.append("f(e%d) = %s" % (k + 1, format_matrix(m)))
        out.append("C = %s" % format_matrix(payload.C))
    elif doc.kind == "rmatrix":
        g, r = payload
        products(g, prefix="bracket ")
        out.append("R = %s" % format_matrix(r))
    elif doc.kind == "ooperator":
        rep, t = payload
        products(rep.g, prefix="bracket ")
        for k, m in enumerate(rep.mats):
            out.append("f(e%d) = %s" % (k + 1, format_matrix(m)))
        out.append("T = %s" % format_matrix(t))
    elif doc.kind == "iso_witness":
        src, tgt, t = payload
        base = len(out)
        products(src)
        for k in range(base, len(out)):
            out[k] = "source " + out[k]
        base = len(out)
        products(tgt)
        for k in range(base, len(out)):
            out[k] = "target " + out[k]
        out.append("T = %s" % format_matrix(t))
    else:
        raise DocSemanticError("unhandled kind %r" % doc.kind)
    return "\n".join(out) + "\n"
