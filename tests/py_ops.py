"""Executed Python bytecodes of three pieces of work on lsacat source trees.

Loads the package of each src/ tree given under its own name (as
tests/ab_inprocess.py does), then counts the bytecode instructions that
Python frames execute, with sys.settrace and frame.f_trace_opcodes, over
one warm run of each piece:

    catalog  cli.main(["catalog-verify", "--all"]) on the shipped catalog,
             its stdout captured
    height   verify_all over the benchmark's height plans at --seed
    search   search_lsa_iso(a, rebase(a, T)) over perfbench/inputs'
             search cases at --seed
    load     catalog.load_catalog() with the catalog cache and the scalar
             parse memo emptied first, as a fresh process starts

Each piece runs once untraced first, so the catalog is loaded and parsed
before the count (the load piece loads and parses it again).  The count
stops if two trees print different catalog-verify --all text.  Work done
in C (big-integer arithmetic, sorted, dict and tuple comparison) is not
counted.  The count does not depend on the host's speed, and it is the
same between runs and hash seeds as long as the work is.  One line per
tree and piece:

    python3 tests/py_ops.py PARENT/src src [--seed 1]
        [--pieces catalog,height,search,load]

pytest does not collect this file.
"""

import argparse
import os
import sys
import threading

from ab_inprocess import Tree, same_stdout

PIECES = ("catalog", "height", "search", "load")


def counted(fn):
    "The bytecodes that Python frames execute during fn()."
    count = [0]

    def local(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        return local

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return count[0]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("srcs", nargs="+", metavar="SRC")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pieces", default=",".join(PIECES))
    args = p.parse_args(argv)
    pieces = args.pieces.split(",")
    if not set(pieces) <= set(PIECES):
        p.error("pieces are %s" % ", ".join(PIECES))
    os.environ.pop("LSACAT_DATA", None)
    print("tree  piece    py_ops")
    trees = []
    for k, src in enumerate(args.srcs):
        tree = Tree("lsacat_%d" % k, src, args.seed)
        trees.append(tree)
        for piece in pieces:
            tree.run(piece)             # warm-up, uncounted
            print("%-5d %-8s %d"
                  % (k, piece, counted(lambda: tree.run(piece))))
    same_stdout(trees)
    return 0


if __name__ == "__main__":
    sys.exit(main())
