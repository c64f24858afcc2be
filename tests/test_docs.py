import os

import pytest

from lsacat.algebra import Algebra
from lsacat.cocycle import Cocycle
from lsacat.docs import KINDS, Document, emit_document, parse_document
from lsacat.errors import DocSemanticError, DocSyntaxError
from lsacat.linalg import Mat, vec_is_zero
from lsacat.scalars import QI, parse_scalar

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "src", "lsacat",
                       "data", "samples")


def read(name):
    with open(os.path.join(SAMPLES, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_shipped_h1_file():
    doc = parse_document(read("h1.alg"))
    assert doc.kind == "algebra" and doc.dim == 3
    alg = doc.payload
    nonzero = sum(1 for i in range(3) for j in range(3)
                  if not vec_is_zero(alg.c[i][j]))
    assert nonzero == 5


def test_empty_products_is_zero_algebra():
    doc = parse_document("kind algebra dim 3 domain gaussian\n")
    assert doc.payload.is_zero_product()


def test_malformed_scalar_is_semantic_error():
    with pytest.raises(DocSemanticError):
        parse_document("kind algebra dim 3 domain gaussian\ne1 e1 = 1/0 e2\n")


def test_syntax_error_carries_line():
    with pytest.raises(DocSyntaxError) as err:
        parse_document("kind algebra dim 3\n")
    assert err.value.line == 1


def test_unknown_kind_rejected():
    with pytest.raises(DocSyntaxError):
        parse_document("kind banana dim 3 domain gaussian\n")


def test_unbound_parameter_rejected():
    with pytest.raises(DocSemanticError):
        parse_document("kind algebra dim 3 domain ratfunc\ne1 e1 = q e2\n")


def test_duplicate_product_rejected():
    text = ("kind algebra dim 3 domain gaussian\n"
            "e1 e1 = e2\ne1 e1 = e3\n")
    with pytest.raises(DocSemanticError):
        parse_document(text)


def test_dimension_out_of_range_rejected():
    with pytest.raises(DocSyntaxError) as err:
        parse_document("kind algebra dim 7 domain gaussian\n")
    assert (err.value.line, err.value.col) == (1, 18)
    with pytest.raises(DocSemanticError):
        parse_document("kind algebra dim 3 domain gaussian\ne1 e4 = e1\n")


def test_rational_domain_rejects_imaginary():
    with pytest.raises(DocSemanticError):
        parse_document("kind algebra dim 3 domain rational\ne1 e1 = i e2\n")


def test_roundtrip_algebra():
    text = read("h1.alg")
    doc = parse_document(text)
    emitted = emit_document(doc)
    again = parse_document(emitted)
    assert again.payload == doc.payload
    # parse . emit is the identity on normalized text
    assert emit_document(again) == emitted


def test_roundtrip_parametric_algebra():
    text = ("kind algebra dim 3 domain ratfunc\n"
            "params lambda ne 0 1\n"
            "e1 e2 = lambda/(lambda-1) e3\n"
            "e2 e2 = lambda e1\n")
    doc = parse_document(text)
    emitted = emit_document(doc)
    assert parse_document(emitted).payload == doc.payload
    assert emit_document(parse_document(emitted)) == emitted


def test_roundtrip_cocycle():
    doc = parse_document(read("h1_cocycle.coc"))
    assert isinstance(doc.payload, Cocycle)
    emitted = emit_document(doc)
    again = parse_document(emitted)
    assert again.payload.C == doc.payload.C
    assert list(again.payload.rep.mats) == list(doc.payload.rep.mats)
    assert again.payload.rep.g == doc.payload.rep.g


def test_roundtrip_iso_witness():
    doc = parse_document(read("h2prime_to_h2.wit"))
    src, tgt, t = doc.payload
    assert isinstance(src, Algebra) and isinstance(tgt, Algebra)
    assert t == Mat([[1, 0, 0], [1, -1, 0], [0, 0, -1]])
    emitted = emit_document(doc)
    s2, t2, w2 = parse_document(emitted).payload
    assert s2 == src and t2 == tgt and w2 == t


def test_catalog_tables_roundtrip_through_format():
    "Reading a catalog characteristic matrix and re-emitting is stable."
    from lsacat import catalog

    for eid, bind in (("H-1", {}), ("N-37", {"lambda": 2}),
                      ("Dl-10", {"l": QI(0, 1)}), ("E-9", {})):
        alg = catalog.instantiate(eid, bind)
        doc = Document("algebra", 3, "gaussian", {}, alg)
        emitted = emit_document(doc)
        again = parse_document(emitted)
        assert again.payload == alg
        assert emit_document(again) == emitted


# (sample, old text, new text): each edit makes the sample malformed
MALFORMED = {
    "f_index_zero": ("h1_cocycle.coc", "f(e3)", "f(e0)"),
    "f_index_above_dim": ("h1_cocycle.coc", "f(e1)", "f(e4)"),
    "f_index_not_integer": ("h1_cocycle.coc", "f(e1)", "f(ex)"),
    "f_repeated": ("h1_cocycle.coc", "C = ",
                   "f(e3) = [[0,0,0],[0,0,0],[0,0,0]]\nC = "),
    "matrix_name": ("h1_cocycle.coc", "C = ", "Cx = "),
    "bracket_missing": ("h1_cocycle.coc", "bracket e1 e2", "e1 e2"),
    "bracket_diagonal": ("h1_cocycle.coc", "bracket e1 e2", "bracket e1 e1"),
    "bracket_not_antisymmetric": ("h1_cocycle.coc", "bracket e1 e2 = e3",
                                  "bracket e1 e2 = e3\nbracket e2 e1 = e3"),
    "source_missing": ("h2prime_to_h2.wit", "source e3 e2", "e3 e2"),
    "target_missing": ("h2prime_to_h2.wit", "target e3 e1", "e3 e1"),
    "product_three_factors": ("h1.alg", "e1 e1 = e1", "e1 e1 e1 = e1"),
    "product_empty": ("h1.alg", "e1 e1 = e1", "e1 e1 ="),
    "matrix_empty_entry": ("h1_cocycle.coc", "C = [[0,0,1]", "C = [[0,,1]"),
    "matrix_rows_unseparated": ("h1_cocycle.coc", "C = [[0,0,1],[0,1,0],",
                                "C = [[0,0,1] [0,1,0] "),
    "matrix_row_comma_missing": ("h1_cocycle.coc", "[0,1,0],[1,0,0]]",
                                 "[0,1,0][1,0,0]]"),
    "matrix_split_in_two": ("h1_cocycle.coc", "C = [[0,0,1],[0,1,0]",
                            "C = [[0,0,1]],[[0,1,0]"),
    "matrix_extra_bracket": ("h1_cocycle.coc", "C = [[0,0,1],[0,1,0],[1,0,0]]",
                             "C = [[0,0,1],[0,1,0],[1,0,0]]]"),
    "matrix_trailing_comma": ("h1_cocycle.coc",
                              "C = [[0,0,1],[0,1,0],[1,0,0]]",
                              "C = [[0,0,1],[0,1,0],[1,0,0]],]"),
    "term_coefficient_touches_basis": ("h1.alg", "e1 e1 = e1", "e1 e1 = 2e3"),
    "term_parenthesis_touches_basis": ("h1.alg", "e1 e1 = e1",
                                       "e1 e1 = (1+i)e3"),
    "term_two_signs": ("h1.alg", "e1 e1 = e1", "e1 e1 = e1 - -3 e2"),
    "product_basis_leading_zero": ("h1.alg", "e1 e1 = e1", "e01 e1 = e1"),
    "product_basis_non_ascii_digit": ("h1.alg", "e3 e1 = e3",
                                      "e\u0663 e1 = e3"),
    "f_index_leading_zero": ("h1_cocycle.coc", "f(e1)", "f(e01)"),
    "param_any_with_value": ("h1.alg", "domain gaussian\n",
                             "domain gaussian\nparams lambda any junk 7\n"),
}


def malformed(case):
    name, old, new = MALFORMED[case]
    text = read(name)
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_rejected(case):
    with pytest.raises((DocSyntaxError, DocSemanticError)):
        parse_document(malformed(case))


# right-hand sides the reader accepts, with the vector each reads as
ACCEPTED = [
    ("2 e3", ("0", "0", "2")),
    ("2*e3", ("0", "0", "2")),
    ("-3 e2", ("0", "-3", "0")),
    ("e1+e2", ("1", "1", "0")),
    ("e1 -2 e3", ("1", "0", "-2")),
    ("2 * 3 e1", ("6", "0", "0")),
    ("(1+i) e3", ("0", "0", "1+i")),
    ("- 1/lambda e3", ("0", "0", "-1/lambda")),
    ("lambda*(lambda-1)/mu e3", ("0", "0", "lambda*(lambda-1)/mu")),
    ("lambda^-1 e3", ("0", "0", "1/lambda")),
    ("e2 + 2 e2 - e1", ("-1", "3", "0")),
    ("0", ("0", "0", "0")),
]


@pytest.mark.parametrize("rhs, want", ACCEPTED)
def test_right_hand_side_reads_as_vector(rhs, want):
    doc = parse_document("kind algebra dim 3 domain ratfunc\n"
                         "params lambda ne 0\nparams mu ne 0\n"
                         "e1 e2 = %s\n" % rhs)
    assert doc.payload.c[0][1] == tuple(
        parse_scalar(x, ("lambda", "mu")) for x in want)


def test_scalar_syntax_error_is_at_its_column_of_the_line():
    "The column counts from the start of the line, indentation included."
    text = "kind algebra dim 3 domain gaussian\n  e1 e1 =   e1 - -3 e2\n"
    with pytest.raises(DocSyntaxError) as err:
        parse_document(text)
    assert (err.value.line, err.value.col) == (2, 18)
    assert str(err.value) == "line 2, col 18: unexpected token '-'"


def test_unused_line_is_syntax_error_at_its_line():
    text = ("kind cocycle dim 3 domain gaussian\n"
            "bracket e1 e2 = e3\n"
            "e1 e2 = e3\n")
    with pytest.raises(DocSyntaxError) as err:
        parse_document(text)
    assert err.value.line == 3


def test_repeated_matrix_and_parameter_rejected():
    text = read("h2prime_to_h2.wit") + "T = [[1,0,0],[0,1,0],[0,0,1]]\n"
    with pytest.raises(DocSemanticError):
        parse_document(text)
    with pytest.raises(DocSemanticError):
        parse_document("kind algebra dim 3 domain ratfunc\n"
                       "params q any\nparams q ne 0\n")


def test_emit_is_canonical_for_every_kind():
    "Emitted text parses back to the same text, for each document kind."
    mats = "".join("f(e%d) = [[0,0,0],[0,0,0],[0,0,%d]]\n" % (k, k)
                   for k in (1, 2, 3))
    bodies = {
        "algebra": "e3 e1 = -1/2 e2 + i e3\ne1 e1 = e1\n",
        "cocycle": "bracket e1 e2 = e3\n" + mats + "C = [[0,1,0],[1,0,0],[0,0,i]]\n",
        "iso_witness": ("source e1 e1 = e1\ntarget e1 e1 = e1\n"
                        "T = [[1,0,0],[0,2,0],[0,0,1/3]]\n"),
    }
    assert sorted(bodies) == sorted(KINDS)
    for kind, body in bodies.items():
        emitted = emit_document(parse_document(
            "kind %s dim 3 domain gaussian\n%s" % (kind, body)))
        assert emit_document(parse_document(emitted)) == emitted
