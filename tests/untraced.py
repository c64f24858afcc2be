"""The statements of src/lsacat that the tests never execute.

Runs the tests under tests/ in this process under a sys.settrace line
tracer that records the lines of the package's own frames, then prints
each statement of src/lsacat that never ran, as 'path:line: text', and
their count.  A docstring is not counted as a statement.  A statement
counts as run when a line of its own ran (not a line of a statement
nested in it), or a statement nested in it ran.  Commands that a test
starts in a subprocess are not traced.  Hypothesis draws from a fixed
seed, so two runs on one tree print the same lines.  The traced run
takes several minutes, so it is not part of the test suite:

    PYTHONPATH=src python3 tests/untraced.py

The test session's own report goes to stderr; the exit code is 1 when
a test fails.
"""

import ast
import contextlib
import importlib.util
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lsacat")


def run_traced(args):
    """(pytest exit code, {real path: set of lines run}) for the package's
    files over one in-process pytest run with the given arguments."""
    prefix = os.path.realpath(PACKAGE) + os.sep
    hit = {}
    by_code = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        lines = by_code.get(code, False)
        if lines is False:
            path = os.path.realpath(code.co_filename)
            lines = (hit.setdefault(path, set())
                     if path.startswith(prefix) else None)
            by_code[code] = lines
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hit


def _docstring(node):
    "The docstring statement of a module, class or function node, or None."
    body = getattr(node, "body", None)
    if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                          ast.AsyncFunctionDef)) and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        return body[0]
    return None


def _children(node):
    "The statements nested directly in a statement (handler bodies too)."
    out = []
    for name in ("body", "orelse", "finalbody"):
        out += getattr(node, name, [])
    for handler in getattr(node, "handlers", []):
        out += handler.body
    return [c for c in out if isinstance(c, ast.stmt)]


def unrun_statements(path, lines_run):
    "The first line of each statement of the file that never ran, in order."
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    skip = {id(d) for d in map(_docstring, ast.walk(tree)) if d is not None}
    out = []

    def ran(stmt):
        "Whether stmt ran; records the statements nested in it that did not."
        start = min([stmt.lineno] + [d.lineno for d in
                                     getattr(stmt, "decorator_list", [])])
        own = set(range(start, stmt.end_lineno + 1))
        nested = False
        for child in _children(stmt):
            own -= set(range(child.lineno, child.end_lineno + 1))
            nested = visit(child) or nested
        return nested or bool(own & lines_run)

    def visit(stmt):
        if id(stmt) in skip:
            return False
        if ran(stmt):
            return True
        out.append(stmt.lineno)
        return False

    for stmt in tree.body:
        visit(stmt)
    return sorted(out)


def main():
    args = ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
    if importlib.util.find_spec("hypothesis"):
        args.append("--hypothesis-seed=0")     # the same draws every run
    code, hit = run_traced(args)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        lines_run = hit.get(os.path.realpath(path), set())
        for lineno in unrun_statements(path, lines_run):
            print("src/lsacat/%s:%d: %s" % (name, lineno,
                                            text[lineno - 1].strip()))
            total += 1
    print("%d statements never executed" % total)
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main())
