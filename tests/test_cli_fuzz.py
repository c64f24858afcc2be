"""The exit-code contract on generated documents (ROADMAP item 20).

Documents of every kind (algebra, cocycle, iso_witness) and every domain
are drawn from the grammar of lsacat.docs: a header, params lines, and
product, bracket, f(e<i>), C and T lines whose scalars are small Gaussian
rationals, parameters, quotients that may divide by zero, or text nested
up to past the parser's bound of 100.  Many start from a catalog point, a
parametric catalog table or a catalog cocycle, so that the deeper stages
run: left-symmetric tables, isomorphic pairs, cocycles that build.  A
document may then lose, repeat or damage one line.

Each document goes through every command that reads its kind (check,
fingerprint, iso --search, cocycle-build, iso --verify), and catalog-verify
--entry runs with drawn --param values, all through cli.main in this
process.  Every run must exit 0, 1 or 2 with no exception escaping, and
print the same stdout when it runs a second time.  A few cases also run
in two fresh interpreters with PYTHONHASHSEED 0 and 1, which must print
what this process printed.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from functools import lru_cache

import pytest

from lsacat import catalog
from lsacat.algebra import rebase
from lsacat.cli import main
from lsacat.cocycle import Cocycle, Representation
from lsacat.docs import Document, emit_document
from lsacat.linalg import Mat

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
KINDS = ("algebra", "cocycle", "iso_witness", "catalog")
DOMAINS = ("rational", "gaussian", "ratfunc")
ATOMS = ("0", "1", "2", "-1", "3", "1/2", "-3/4", "i", "-2*i", "(1+i)",
         "(2-3*i)/5", "2^3")
# one-line damage: the character put in place of one already there
JUNK = "x#[]=(),e0-i"


@lru_cache(maxsize=None)
def points():
    "(entry, bindings) for every catalog point, in catalog order."
    return [(e, b) for e in catalog.load_catalog().values()
            for b in e.sample_bindings()]


def scalar(rnd, params):
    """A scalar literal: an atom or parameter, now and then a product, a
    quotient (by zero, too) or nested 2 to 150 deep."""
    x = rnd.choice(ATOMS + tuple(params))
    r = rnd.random()
    if r < 0.1:
        x = "(%s)*(%s)" % (x, rnd.choice(ATOMS + tuple(params)))
    elif r < 0.15:
        x = "(%s)/(%s)" % (x, rnd.choice(("0", "i") + tuple(params)))
    elif r < 0.2:
        depth = rnd.choice((2, 30, 99, 100, 101, 150))
        x = "(" * depth + x + ")" * depth
    return x


def combination(rnd, dim, params):
    "The right-hand side of a product line: '0' or signed terms c e<k>."
    if rnd.random() < 0.2:
        return "0"
    terms = ["(%s) e%d" % (scalar(rnd, params), rnd.randint(1, dim))
             for _ in range(rnd.randint(1, 3))]
    return " + ".join(terms)


def matrix(rnd, dim, params):
    return "[%s]" % ",".join("[%s]" % ",".join(scalar(rnd, params)
                                               for _ in range(dim))
                             for _ in range(dim))


def random_document(rnd, kind):
    "A document of the kind drawn line by line from the grammar."
    dim = rnd.choice((1, 2, 3, 3, 3))
    domain = rnd.choice(DOMAINS)
    params = ("l", "mu")[:rnd.randint(0, 2)] if domain == "ratfunc" else ()
    lines = ["kind %s dim %d domain %s" % (kind, dim, domain)]
    lines += ["params %s %s" % (p, rnd.choice(("any", "ne 0", "ne 0 1",
                                               "eq 2")))
              for p in params]
    prefixes = {"algebra": ("",), "cocycle": ("bracket ",),
                "iso_witness": ("source ", "target ")}[kind]
    for prefix in prefixes:
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                if rnd.random() < 0.4:
                    lines.append("%se%d e%d = %s" % (
                        prefix, i, j, combination(rnd, dim, params)))
    if kind == "cocycle":
        lines += ["f(e%d) = %s" % (i, matrix(rnd, dim, params))
                  for i in range(1, dim + 1)]
    name = {"cocycle": "C", "iso_witness": "T"}.get(kind)
    if name:
        lines.append("%s = %s" % (name, matrix(rnd, dim, params)))
    return "\n".join(lines) + "\n"


def invertible(rnd):
    "A random invertible 3 x 3 integer matrix with entries in -2..2."
    while True:
        t = Mat([[rnd.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        if not t.det().is_zero():
            return t


def catalog_document(rnd, kind, point):
    """A document built from a catalog point (entry, bindings): its table
    (rebased or not), its entry's parametric table, an isomorphism witness
    onto a rebased copy (right or wrong), or the entry's cocycle."""
    e, b = point
    a = catalog.instantiate(e.id, b)
    if kind == "algebra":
        if e.params and rnd.random() < 0.15:
            return emit_document(Document("algebra", 3, "ratfunc", e.params,
                                          e.table))
        if rnd.random() < 0.5:
            a = rebase(a, invertible(rnd))
        return emit_document(Document("algebra", 3, "gaussian", {}, a))
    if kind == "iso_witness":
        t = invertible(rnd)
        w = t.inverse() if rnd.random() < 0.8 else invertible(rnd)
        return emit_document(Document("iso_witness", 3, "gaussian", {},
                                      (a, rebase(a, t), w)))
    if e.f_mats is None:
        return random_document(rnd, kind)
    rep = Representation(catalog.family_lie(e, b),
                         [m.substitute(b) for m in e.f_mats])
    return emit_document(Document("cocycle", 3, "gaussian", {},
                                  Cocycle(rep, e.cmat.substitute(b))))


def damaged(rnd, text):
    "text with one line deleted, repeated or changed at one character."
    lines = text.splitlines()
    k = rnd.randrange(len(lines))
    r = rnd.random()
    if r < 0.3:
        del lines[k]
    elif r < 0.5:
        lines.insert(k, lines[k])
    elif lines[k]:
        p = rnd.randrange(len(lines[k]))
        lines[k] = lines[k][:p] + rnd.choice(JUNK) + lines[k][p + 1:]
    return "\n".join(lines) + "\n"


def document(rnd, kind, point):
    "A document of the kind, from the point (or any point) or the grammar."
    text = (catalog_document(rnd, kind, point or rnd.choice(points()))
            if rnd.random() < 0.6 else random_document(rnd, kind))
    return damaged(rnd, text) if rnd.random() < 0.25 else text


def case(rnd, kind, directory):
    """The command lines of one drawn case of the kind; the documents
    they read are written to directory."""
    if kind == "catalog":
        e, _ = rnd.choice(points())
        argv = ["catalog-verify", "--entry",
                e.id if rnd.random() < 0.9 else e.id + "x"]
        names = list(e.params) + (["nu"] if rnd.random() < 0.1 else [])
        for name in names:
            if rnd.random() < 0.9:
                argv += ["--param", "%s=%s" % (name, scalar(rnd, ()))]
        return [argv]
    # the two tables of an iso --search often come from one point
    point = rnd.choice(points())
    paths = []
    for k in range(2 if kind == "algebra" else 1):
        paths.append(os.path.join(directory, "doc%d.txt" % k))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(document(rnd, kind, point if rnd.random() < 0.7
                              else None))
    if kind == "algebra":
        return [["check", paths[0]], ["fingerprint", paths[0]],
                ["iso", "--search", paths[0], paths[1]]]
    if kind == "cocycle":
        return [["cocycle-build", paths[0]]]
    return [["iso", "--verify", paths[0]]]


def run(argv):
    "(exit code, stdout) of cli.main(argv) in this process."
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# each example writes its documents over the last one's in tmp_path
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.large_base_example,
                                 HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32))
def test_every_command_exits_0_1_or_2_and_repeats_its_output(tmp_path, kind,
                                                            seed):
    for argv in case(random.Random(seed), kind, str(tmp_path)):
        first = run(argv)
        assert first[0] in (0, 1, 2), (argv, first)
        assert run(argv) == first, argv


# the driver of one interpreter: the JSON list of argv lists in, the JSON
# list of [exit code, stdout] out
DRIVER = """
import contextlib, io, json, sys
from lsacat.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
sys.stdout.write(json.dumps(out))
"""


def test_a_fresh_interpreter_prints_the_same_under_two_hash_seeds(tmp_path):
    argvs = []
    for k, kind in enumerate(KINDS * 2):
        directory = tmp_path / str(k)
        directory.mkdir()
        argvs += case(random.Random(k), kind, str(directory))
    here = [list(run(argv)) for argv in argvs]
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC),
                   PYTHONHASHSEED=seed)
        env.pop("LSACAT_DATA", None)
        proc = subprocess.run(
            [sys.executable, "-c", DRIVER, json.dumps(argvs)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == here, seed
