"""The golden text of the scalar parser's memo after a catalog load.

One line per entry of scalars._PARSED in a fresh process after `import
lsacat` and catalog.load_catalog(): the rule, the text and the rule's
arguments, then the repr of the parsed value and the names it read as
parameters.  The repr names each scalar's type (QI(1) and MultiPoly(1)
print alike through format_scalar, and so in catalog_golden.txt), so a
change to the parser that claims the same values shows it here.
test_golden_parse.py runs this file in a fresh process and compares its
output with the stored file line by line.  Regenerate the file only for a
change that means to alter what the shipped texts parse to:

    PYTHONPATH=src python3 tests/golden_parse.py > tests/data/parse_golden.txt
"""

import sys

import lsacat  # noqa: F401  (its import parses no text)
from lsacat import catalog, scalars


def lines():
    "The golden lines, sorted by rule, text and arguments."
    catalog.load_catalog()
    rows = []
    for (rule, text, args), (value, used) in scalars._PARSED.items():
        rows.append("%s %r %r -> %r uses %s" % (
            rule.__name__, text, args, value, ",".join(sorted(used)) or "-"))
    return sorted(rows)


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in lines()))
