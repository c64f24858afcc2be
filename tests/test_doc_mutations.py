"""Mutation test for the document reader: every one-line edit of a shipped
sample either parses or raises DocSyntaxError/DocSemanticError."""

import os
import re

import pytest

from lsacat.docs import parse_document
from lsacat.errors import DocSemanticError, DocSyntaxError

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "src", "lsacat",
                       "data", "samples")
NAMES = sorted(os.listdir(SAMPLES))


def read(name):
    with open(os.path.join(SAMPLES, name), encoding="utf-8") as fh:
        return fh.read()


# delete or duplicate a line; replace one digit with 0, 4 or x; drop or add
# the 'bracket ' prefix; rename a C or T matrix to Cx or Tx
EDITS = ("delete", "duplicate", "digit 0", "digit 4", "digit x", "bracket",
         "rename")


def mutate(text, edit, line, pos):
    "Apply one edit to line number `line` (and digit `pos`), both modulo."
    lines = text.splitlines()
    k = line % len(lines)
    old = lines[k]
    if edit == "delete":
        del lines[k]
    elif edit == "duplicate":
        lines.insert(k, old)
    elif edit.startswith("digit"):
        digits = [m.start() for m in re.finditer(r"\d", old)]
        if digits:
            p = digits[pos % len(digits)]
            lines[k] = old[:p] + edit[-1] + old[p + 1:]
    elif edit == "bracket":
        lines[k] = (old[len("bracket "):] if old.startswith("bracket ")
                    else "bracket " + old)
    else:
        lines[k] = re.sub(r"^([CT])\b", r"\1x", old)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NAMES), st.sampled_from(EDITS),
       st.integers(0, 40), st.integers(0, 40))
@example("h1_cocycle.coc", "digit 4", 3, 0)     # f(e1) -> f(e4)
@example("h1_cocycle.coc", "digit x", 3, 0)     # f(e1) -> f(ex)
@example("h1_cocycle.coc", "digit 0", 5, 0)     # f(e3) -> f(e0)
@example("h1_cocycle.coc", "rename", 6, 0)      # C -> Cx
@example("h1_cocycle.coc", "bracket", 2, 0)     # product without 'bracket '
def test_one_line_edit_parses_or_raises_doc_error(name, edit, line, pos):
    text = mutate(read(name), edit, line, pos)
    try:
        parse_document(text)
    except (DocSyntaxError, DocSemanticError):
        pass
