import ast
import io
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stdout

import pytest

from lsacat import algebra, catalog, cli, lie
from lsacat.algebra import Algebra
from lsacat.cli import main
from lsacat.cocycle import phi
from lsacat.docs import parse_document
from lsacat.errors import LsaError
from lsacat.props import fingerprint
from lsacat.scalars import QI

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
SAMPLES = os.path.join(SRC, "lsacat", "data", "samples")


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def sample(name):
    return os.path.join(SAMPLES, name)


def test_check_h1():
    code, out = run(["check", sample("h1.alg")])
    assert code == 0
    assert "left_symmetric: yes" in out
    assert "lie_class: Heisenberg" in out
    assert "novikov: yes" in out


@pytest.fixture
def built(monkeypatch):
    """The tables whose triple products are built, not read back from the
    one table algebra.triple_products remembers, in build order."""
    tables = []
    keep = algebra.remember

    def counted(store, bound, key, value):
        if store is algebra._TRIPLES:
            tables.append(value[0])
        return keep(store, bound, key, value)
    monkeypatch.setattr(algebra, "remember", counted)
    algebra._TRIPLES.clear()
    return tables


def test_check_builds_the_triple_products_once(built):
    """check reads left-symmetry and the identity flags off one table of
    triple products."""
    assert run(["check", sample("h1.alg")])[0] == 0
    assert len(built) == 1


def test_verify_entry_builds_the_triple_products_once_per_point(built):
    """Each point verify_entry checks, a primed entry's too, has its triple
    products built once, though phi and the primed witness check run on
    other tables between its left-symmetry check and its flags."""
    points = 0
    for e in catalog.load_catalog().values():
        for b in e.sample_bindings()[:1]:
            del built[:]
            rep = catalog.verify_entry(e.id, b)
            assert rep.ok, (e.id, rep.messages)
            assert len(built) == 1 and built[0] is rep.alg, e.id
            points += 1
    assert points == len(catalog.load_catalog())


def test_fingerprint_builds_the_triple_products_once_per_table(built):
    """fingerprint reads left-symmetry, the identity flags and the trace
    forms off one table of triple products, read back for a table seen
    last and built again once another table came between."""
    tables = [catalog.instantiate(eid) for eid in ("H-1", "H-5", "E-5")]
    tables.append(Algebra([[[1, 0], [0, 1]], [[0, 0], [1, 0]]]))
    for a in tables:
        fingerprint(a)
    assert built == tables
    fingerprint(tables[-1])
    fingerprint(tables[0])
    assert built == tables + tables[:1]


def test_check_zero_algebra_flags():
    code, out = run(["check", sample("zero.alg")])
    assert code == 0
    for flag in ("left_symmetric", "transitive", "novikov", "bisymmetric",
                 "associative"):
        assert "%s: yes" % flag in out


# algebras that are C + C + C over C, with ideal lines not defined over
# Q(i): Q(i)[t]/(t^3 - 2) on 1, t, t^2, and Q(i)[t]/(t^2 - 2) + C
SPLIT_OVER_C = {
    "cubic": ["e1 e1 = e1", "e1 e2 = e2", "e1 e3 = e3", "e2 e1 = e2",
              "e3 e1 = e3", "e2 e2 = e3", "e2 e3 = 2 e1", "e3 e2 = 2 e1",
              "e3 e3 = 2 e2"],
    "quadratic_plus_c": ["e1 e1 = e1", "e1 e2 = e2", "e2 e1 = e2",
                         "e2 e2 = 2 e1", "e3 e3 = e3"],
}


@pytest.mark.parametrize("case", sorted(SPLIT_OVER_C))
def test_check_semisimple_over_c(tmp_path, case):
    p = tmp_path / "split.alg"
    p.write_text("kind algebra dim 3 domain gaussian\n"
                 + "\n".join(SPLIT_OVER_C[case]) + "\n")
    code, out = run(["check", str(p)])
    assert code == 0
    assert "simple: no" in out.splitlines()
    assert "semisimple: yes" in out.splitlines()


def test_check_rejects_missing_file():
    code, out = run(["check", "no-such-file.alg"])
    assert code == 2


def test_check_rejects_malformed(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("kind algebra dim 3 domain gaussian\ne1 e1 = 1/0 e2\n")
    code, out = run(["check", str(p)])
    assert code == 2


def test_check_rejects_bad_basis_name_under_optimize(tmp_path):
    "The exit-code contract holds under python -O, which strips asserts."
    p = tmp_path / "bad.alg"
    p.write_text("kind algebra dim 3 domain gaussian\nx1 y1 = e1\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "lsacat.cli", "check", str(p)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "expected 'e<i> e<j> = ...'" in proc.stdout


def test_large_parameter_verifies_in_polynomial_time():
    "Root finding over Q(i) must not factor mu = 10^8 + 7 (a prime)."
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "lsacat.cli", "catalog-verify", "--entry",
         "N-3", "--param", "mu=100000007"],
        env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "entry/sample pairs: 1, failures: 0" in proc.stdout


def package_trees():
    "{file name: parsed module} for every module of src/lsacat."
    pkg = os.path.join(SRC, "lsacat")
    trees = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), name)
    return trees


def assert_statement(node):
    "Checks must raise, because python -O removes assert statements."
    return isinstance(node, ast.Assert)


def broad_handler(node):
    "A bare except or one of (Base)Exception would also swallow bugs."
    if not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:
        return True
    names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(isinstance(n, ast.Name)
               and n.id in ("Exception", "BaseException") for n in names)


def floating_point(node):
    "All arithmetic is exact: no float or complex literal or conversion."
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex"))


def imports_test_only_module(node):
    "sympy and hypothesis are test oracles; numpy and cmath compute in floats."
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        return False
    return any(m.split(".")[0] in ("sympy", "hypothesis", "numpy", "cmath")
               for m in modules)


# constructs the package must not contain, each as a predicate on AST nodes
FORBIDDEN = {
    "assert": assert_statement,
    "broad_except": broad_handler,
    "floating_point": floating_point,
    "test_only_import": imports_test_only_module,
}


@pytest.mark.parametrize("construct", sorted(FORBIDDEN))
def test_package_has_no_forbidden_construct(construct):
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in package_trees().items()
             for node in ast.walk(tree) if FORBIDDEN[construct](node)]
    assert found == []


# the _names one module imports from another, as {(importing file, module
# imported from): names}; any other such import reaches into a module's
# private code
PRIVATE_IMPORTS = {
    ("catalog.py", "docs"): {"_const_value", "_words"},
    ("iso.py", "scalars"): {"_add_multiple", "_term_dict"},
}


def test_package_imports_only_listed_private_names():
    found = defaultdict(set)
    for name, tree in package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found[name, node.module] |= {
                    alias.name for alias in node.names
                    if alias.name.startswith("_")}
    assert {key: names for key, names in found.items() if names} == \
        PRIVATE_IMPORTS


def parameter_names(node):
    "The names of the parameters of a function or lambda node."
    a = node.args
    return [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
            + [a.vararg, a.kwarg] if x is not None]


def functions_with_parameter(param):
    "Where a function or lambda of src/lsacat has a parameter named param."
    return ["%s:%d" % (name, node.lineno)
            for name, tree in package_trees().items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda))
            and param in parameter_names(node)]


def test_no_function_takes_a_left_symmetry_verdict():
    """A table keeps the verdict check_left_symmetric found for it, so no
    function of src/lsacat has a parameter named left_symmetric through
    which a caller could restate (or misstate) it."""
    assert functions_with_parameter("left_symmetric") == []


def test_no_function_takes_the_triple_products():
    """algebra.triple_products remembers the table it read last, so no
    function of src/lsacat has a parameter named tu through which a caller
    could pass (or mispass) the triple products of a table."""
    assert functions_with_parameter("tu") == []


def test_only_algebra_and_props_import_the_triple_products():
    "Every other module reads the triple products through their readers."
    found = sorted(name for name, tree in package_trees().items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and "triple_products" in [x.name for x in node.names])
    assert found == ["props.py"]


def empty_container(node):
    "{}, [], set(), dict() or list(): a value that only later calls fill."
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (getattr(node, "keys", None) or getattr(node, "elts", None))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args
            and not node.keywords)


def memoizing(decorator):
    "functools.cache or functools.lru_cache, called or not, by any name."
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "attr", getattr(decorator, "id", ""))
    return name in ("cache", "lru_cache")


# The stores of computed results the package keeps, each with the traffic
# that pays for it: the parser's memo by text (1,151 parse calls on 247
# texts per catalog load), the triple products of the table read last (the
# left-symmetry check and the four identity flags of a point read one
# build), the loaded catalog (one parse for the four load_catalog calls of
# a command) and the automorphism components a search solves in (83
# component solves on 6 components per search cycle).  A new store joins
# only with its measured reason.
STORES = {"scalars._PARSED", "algebra._TRIPLES", "catalog._CACHE",
          "iso._component"}


def test_package_keeps_only_the_listed_stores():
    """A store is a module-level name bound to an empty dict, list or set,
    or a function under functools.cache or lru_cache; src/lsacat keeps
    exactly STORES."""
    found = set()
    for name, tree in package_trees().items():
        module = name[:-len(".py")]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    node.value is not None and empty_container(node.value):
                targets = getattr(node, "targets", None) or [node.target]
                found |= {"%s.%s" % (module, t.id) for t in targets
                          if isinstance(t, ast.Name)}
            elif isinstance(node, ast.FunctionDef) and any(
                    map(memoizing, node.decorator_list)):
                found.add("%s.%s" % (module, node.name))
    assert found == STORES


def test_package_imports_only_names_it_uses():
    "Every name a module of src/lsacat (but __init__) imports is used there."
    unused = []
    for name, tree in package_trees().items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = Counter(sub.id for sub in ast.walk(tree)
                       if isinstance(sub, ast.Name))
        unused += ["%s:%d %s" % (name, line, bound)
                   for bound, line in imported.items()
                   if not used[bound] and bound != "annotations"]
    assert unused == []


def test_uncaught_library_error_exits_2(monkeypatch):
    def broken(a, b):
        raise LsaError("internal failure")
    monkeypatch.setattr(cli, "search_lsa_iso", broken)
    code, out = run(["iso", "--search", sample("h1.alg"), sample("h1.alg")])
    assert code == 2
    assert "internal failure" in out


def test_wrong_classifier_witness_exits_2(monkeypatch, tmp_path):
    """classify3's check of its own witness fires; the command reports it
    as an internal error, not a fault of the document, and exits 2.  The
    commutator, [e1,e2] = -e3, is no canonical table, so it is classified
    and its witness checked."""
    p = tmp_path / "h.alg"
    p.write_text("kind algebra dim 3 domain gaussian\ne2 e1 = e3\n")
    monkeypatch.setattr(lie, "_is_lie_iso", lambda src, dst, w: False)
    assert run(["check", str(p)]) == (
        2, "left_symmetric: yes\n"
           "internal error: classify3 built a wrong Heisenberg witness\n")


def test_check_failure_exit_code(tmp_path):
    p = tmp_path / "not_lsa.alg"
    p.write_text("kind algebra dim 3 domain gaussian\n"
                 "e1 e1 = e2\ne2 e1 = e1\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert "left_symmetric: no" in out


def test_cocycle_build_emits_h1():
    code, out = run(["cocycle-build", sample("h1_cocycle.coc")])
    assert code == 0
    with open(sample("h1.alg")) as fh:
        body = [l for l in fh.read().splitlines() if l and not l.startswith("#")]
    emitted = [l for l in out.splitlines() if l]
    assert emitted == body


def test_cocycle_build_keeps_the_parameters(tmp_path):
    """A parametric cocycle's algebra is emitted with the document's params
    line, so the output reads back, under the same constraints."""
    p = tmp_path / "param.coc"
    with open(sample("h1_cocycle.coc")) as fh:
        text = fh.read()
    p.write_text(text.replace("domain gaussian\n",
                              "domain ratfunc\nparams l ne 0\n")
                 .replace("C = [[0,0,1],[0,1,0],[1,0,0]]",
                          "C = [[0,0,l],[0,l,0],[l,0,0]]"))
    code, out = run(["cocycle-build", str(p)])
    assert code == 0
    back = parse_document(out)
    assert back.params == parse_document(p.read_text()).params
    assert back.params == {"l": ("ne", QI(0))}
    assert back.payload == phi(parse_document(p.read_text()).payload)


def test_iso_verify_witness():
    code, out = run(["iso", "--verify", sample("h2prime_to_h2.wit")])
    assert code == 0
    assert "verdict: isomorphic" in out


def test_iso_search(tmp_path):
    a = tmp_path / "a.alg"
    b = tmp_path / "b.alg"
    a.write_text("kind algebra dim 3 domain gaussian\n"
                 "e1 e1 = e1\ne3 e2 = e2\ne3 e3 = 2 e3\n")
    b.write_text("kind algebra dim 3 domain gaussian\n"
                 "e1 e1 = e1\ne3 e2 = e2\ne3 e3 = 2 e3\n")
    code, out = run(["iso", "--search", str(a), str(b)])
    assert code == 0
    assert "verdict: isomorphic" in out


def test_iso_search_separates_h1_from_h2(tmp_path):
    "Equal fingerprints; the Groebner basis separates them."
    b = tmp_path / "h2.alg"
    b.write_text("kind algebra dim 3 domain gaussian\n"
                 "e1 e1 = e1\ne1 e2 = e2 + e3\ne1 e3 = e3\ne2 e1 = e2\n"
                 "e2 e2 = e3\ne3 e1 = e3\n")
    for strict in ([], ["--strict"]):
        code, out = run(["iso", "--search", sample("h1.alg"), str(b)] + strict)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verdict: not_isomorphic"
        assert lines[1].startswith("separated_by: ")


def test_iso_search_unknown_exits_1_only_under_strict(tmp_path):
    "Commutative tables have an abelian Lie algebra: no group is stored."
    a = tmp_path / "a.alg"
    b = tmp_path / "b.alg"
    a.write_text("kind algebra dim 3 domain gaussian\ne1 e1 = e1\n")
    b.write_text("kind algebra dim 3 domain gaussian\ne2 e2 = e2\n")
    code, out = run(["iso", "--search", str(a), str(b)])
    assert (code, out.splitlines()[0]) == (0, "verdict: unknown")
    code, out = run(["iso", "--search", str(a), str(b), "--strict"])
    assert (code, out.splitlines()[0]) == (1, "verdict: unknown")


H1_FINGERPRINT = [
    "flag associative: no", "flag bisymmetric: no", "flag commutative: no",
    "flag left_symmetric: yes", "flag novikov: yes", "flag transitive: no",
    "dim ann_left: 0", "dim ann_right: 0", "dim ann_two_sided: 0",
    "dim product_span: 3", "rank tr_ll: 1", "rank tr_lr: 1", "rank tr_rr: 1",
    "lie_class: ('Heisenberg', None)"]


def test_fingerprint_output():
    code, out = run(["fingerprint", sample("h1.alg")])
    assert code == 0
    assert out.splitlines() == H1_FINGERPRINT
    assert out.endswith("\n")


# documents whose whole check/fingerprint output is pinned below
DOCS = {
    "h1": None,  # the shipped sample
    "ratfunc": ("kind algebra dim 3 domain ratfunc\nparams l ne -1\n"
                "e3 e2 = e2\ne3 e3 = l/(l+1) e3 + l^2 e1\n"),
    # the commutator bracket l/(l+1) e3 is a non-constant RatFunc
    "ratfunc_lie": ("kind algebra dim 3 domain ratfunc\nparams l ne -1\n"
                    "e1 e2 = l/(l+1) e3\n"),
    "dim2": "kind algebra dim 2 domain gaussian\ne2 e1 = e1\ne2 e2 = e2\n",
    # classify3 meets the outside action diag(1, l), not over Q(i)
    "ratfunc_dl": ("kind algebra dim 3 domain ratfunc\nparams l ne 0\n"
                   "e3 e1 = e1\ne3 e2 = l e2\n"),
    # the outside action diag(1, 2); l and 1/l name one Lie algebra
    "dl": "kind algebra dim 3 domain rational\ne3 e1 = e1\ne3 e2 = 2 e2\n",
}
FULL_OUTPUT = {
    ("check", "h1"): (0, [
        "left_symmetric: yes", "lie_class: Heisenberg", "associative: no",
        "transitive: no", "novikov: yes", "bisymmetric: no", "simple: no",
        "semisimple: no"]),
    ("fingerprint", "h1"): (0, H1_FINGERPRINT),
    ("check", "ratfunc"): (2, [
        "parametric table: instantiate before checking"]),
    ("fingerprint", "ratfunc"): (0, [
        "flag associative: no", "flag bisymmetric: no",
        "flag commutative: no", "flag left_symmetric: yes",
        "flag novikov: no", "flag transitive: no", "dim ann_left: 2",
        "dim ann_right: 1", "dim ann_two_sided: 1", "dim product_span: 2",
        "rank tr_ll: 1", "rank tr_lr: 1", "rank tr_rr: 1",
        "lie_class: ('N', None)"]),
    ("fingerprint", "ratfunc_lie"): (0, [
        "flag associative: yes", "flag bisymmetric: yes",
        "flag commutative: no", "flag left_symmetric: yes",
        "flag novikov: yes", "flag transitive: yes", "dim ann_left: 2",
        "dim ann_right: 2", "dim ann_two_sided: 1", "dim product_span: 1",
        "rank tr_ll: 0", "rank tr_lr: 0", "rank tr_rr: 0",
        "lie_class: ('Heisenberg', None)"]),
    # the root finder takes Q(i) coefficients; the first it reads is the
    # determinant l of the outside action
    ("fingerprint", "ratfunc_dl"): (2, [
        "input error: not a rational value: RatFunc((l^2)/(l))"]),
    ("check", "dl"): (0, [
        "left_symmetric: yes", "lie_class: Dl(l=1/2)", "associative: no",
        "transitive: yes", "novikov: yes", "bisymmetric: no", "simple: no",
        "semisimple: no"]),
    ("check", "dim2"): (0, [
        "left_symmetric: yes", "associative: yes", "transitive: no",
        "novikov: no", "bisymmetric: yes"]),
    ("fingerprint", "dim2"): (0, [
        "flag associative: yes", "flag bisymmetric: yes",
        "flag commutative: no", "flag left_symmetric: yes",
        "flag novikov: no", "flag transitive: no", "dim ann_left: 1",
        "dim ann_right: 0", "dim ann_two_sided: 0", "dim product_span: 2",
        "rank tr_ll: 1", "rank tr_lr: 1", "rank tr_rr: 1",
        "lie_class: ('n/a',)"]),
}


@pytest.mark.parametrize("command,doc", sorted(FULL_OUTPUT))
def test_full_output(tmp_path, command, doc):
    "The whole stdout of check and fingerprint, line by line."
    path = sample("h1.alg")
    if DOCS[doc] is not None:
        path = tmp_path / ("%s.alg" % doc)
        path.write_text(DOCS[doc])
    code, out = run([command, str(path)])
    assert (code, out.splitlines()) == FULL_OUTPUT[command, doc]
    assert out.endswith("\n")


def test_iso_search_refuses_a_parametric_table(tmp_path):
    """A ratfunc table is refused before the search, as check refuses it.
    The search reached the Groebner step on this pair, N-2 at lambda = 1/2,
    mu = 1 against the parametric table of N-2, and let a TypeError
    escape: a non-constant RatFunc coefficient has no hash."""
    a, b = tmp_path / "point.alg", tmp_path / "family.alg"
    a.write_text("kind algebra dim 3 domain gaussian\n"
                 "e1 e1 = e1 + (-1/4) e3\ne1 e3 = (1/2) e3\n"
                 "e3 e1 = (1/2) e3\ne3 e2 = e2\ne3 e3 = e3\n")
    b.write_text("kind algebra dim 3 domain ratfunc\n"
                 "params lambda ne 0\nparams mu ne 0\n"
                 "e1 e1 = e1 + ((lambda^2-lambda)/(mu)) e3\n"
                 "e1 e3 = lambda e3\ne3 e1 = lambda e3\n"
                 "e3 e2 = e2\ne3 e3 = mu e3\n")
    for pair in ([a, b], [b, a], [b, b]):
        code, out = run(["iso", "--search"] + [str(p) for p in pair])
        assert (code, out) == (
            2, "parametric table: instantiate before searching\n")


def test_iso_search_witness_line(tmp_path):
    """H-1 against a signed permutation times a shear of itself: no cheap
    candidate fits, so the witness comes from the automorphism search."""
    b = tmp_path / "h1_moved.alg"
    b.write_text("kind algebra dim 3 domain gaussian\n"
                 "e1 e2 = e1\ne2 e1 = e1 - e3\ne2 e2 = e2 - 2 e3\n"
                 "e2 e3 = e3\ne3 e2 = e3\n")
    code, out = run(["iso", "--search", sample("h1.alg"), str(b)])
    assert code == 0
    assert out.splitlines() == ["verdict: isomorphic",
                                "witness: [[0,1,2],[1,0,1],[0,0,-1]]"]


def test_oversized_power_in_document_exits_2(tmp_path):
    p = tmp_path / "big.alg"
    p.write_text("kind algebra dim 1 domain gaussian\n"
                 "e1 e1 = (3/7+2*i)^200000 e1\n")
    code, out = run(["check", str(p)])
    assert code == 2
    assert out.startswith("bad document ") and "line 2" in out


@pytest.mark.parametrize("op, term", [("*", "(%s+1)"), ("+", "1/(%s+1)")])
def test_oversized_product_or_sum_in_document_exits_2(tmp_path, op, term):
    "12 binomials multiplied, or 12 such fractions added, give 4096 terms."
    names = ["p%d" % k for k in range(1, 13)]
    p = tmp_path / "big.alg"
    p.write_text("kind algebra dim 1 domain ratfunc\n"
                 + "".join("params %s any\n" % n for n in names)
                 + "e1 e1 = (%s) e1\n" % op.join(term % n for n in names))
    code, out = run(["check", str(p)])
    assert code == 2
    assert out.startswith("bad document ") and "line 14" in out
    assert "1000 terms" in out


def test_oversized_nested_power_parameter_exits_2():
    "A cap on each exponent alone would let ^300 of ^300 through."
    code, out = run(["catalog-verify", "--entry", "N-3",
                     "--param", "mu=((3+2*i)^300)^300"])
    assert code == 2
    assert out.startswith("catalog error: --param mu=((3+2*i)^300)^300: power ")


NESTED = 10000


def nested_inputs(tmp_path):
    """(argv, line) pairs for the five commands that read scalar text, each
    given a scalar nested NESTED deep: parentheses, or unary minus signs in
    the witness T; line is the document line that holds it (None for
    --param)."""
    deep = "(" * NESTED + "1" + ")" * NESTED
    alg = tmp_path / "deep.alg"
    alg.write_text("kind algebra dim 1 domain gaussian\n"
                   "e1 e1 = %s e1\n" % deep)
    coc = tmp_path / "deep.coc"
    with open(sample("h1_cocycle.coc"), encoding="utf-8") as fh:
        coc.write_text(fh.read().replace("C = [[0,", "C = [[%s," % deep))
    wit = tmp_path / "deep.wit"
    with open(sample("h2prime_to_h2.wit"), encoding="utf-8") as fh:
        wit.write_text(fh.read().replace("T = [[1,",
                                         "T = [[%s1," % ("-" * NESTED)))
    return [(["check", str(alg)], 2), (["fingerprint", str(alg)], 2),
            (["cocycle-build", str(coc)], 7),
            (["iso", "--verify", str(wit)], 17),
            (["catalog-verify", "--entry", "N-3",
              "--param", "mu=" + deep.replace("1", "7")], None)]


def test_deeply_nested_scalar_exits_2(tmp_path):
    """A scalar nested 10,000 deep is an input error that names the
    parser's bound, not a RecursionError, in every command."""
    for argv, line in nested_inputs(tmp_path):
        code, out = run(argv)
        assert code == 2, argv[0]
        assert "nested deeper than 100 parentheses or signs" in out, argv[0]
        if line is None:
            assert out.startswith("catalog error: --param mu=(((")
        else:
            assert out.startswith("bad document %s: line %d, col "
                                  % (argv[-1], line)), argv[0]


def test_catalog_verify_family_h():
    code, out = run(["catalog-verify", "--family", "H"])
    assert code == 0
    assert "H: 10/10 classes verified" in out


def test_catalog_verify_single_entry():
    code, out = run(["catalog-verify", "--entry", "N-1", "--param", "lambda=2"])
    assert code == 0
    assert "failures: 0" in out


def test_deterministic_output():
    code1, out1 = run(["check", sample("h1.alg")])
    code2, out2 = run(["check", sample("h1.alg")])
    assert (code1, out1) == (code2, out2)
    code1, out1 = run(["fingerprint", sample("h1.alg")])
    code2, out2 = run(["fingerprint", sample("h1.alg")])
    assert (code1, out1) == (code2, out2)


def test_catalog_verify_all_follows_family(monkeypatch):
    "--all runs the coincidence and property passes on the swept entries only."
    tables = []
    original = catalog.verify_property_tables

    def spy(sweep):
        tables.append(original(sweep))
        return tables[-1]
    monkeypatch.setattr(catalog, "verify_property_tables", spy)
    code, out = run(["catalog-verify", "--family", "H", "--all"])
    assert code == 0
    # no H entry declares a coincidence; the full catalog has 97
    assert "remark coincidences: 0 confirmed, 0 unconfirmed, 0 failed" in out
    [t] = tables
    assert t["checked"] == 16
    assert {fam for fam, _ in t["sets"]} == {"H"}
    assert {eid for eid, _ in t["sets"][("H", "transitive")]} == {
        "H-5", "H-6", "H-7", "H-8", "H-9", "H-10"}


def test_catalog_verify_all_follows_entry():
    code, out = run(["catalog-verify", "--entry", "N-3", "--all"])
    assert code == 0
    assert "remark coincidences: 1 confirmed, 0 unconfirmed, 0 failed" in out


def test_catalog_verify_all_output():
    "The whole catalog run, pinned line by line."
    code, out = run(["catalog-verify", "--all"])
    assert code == 0
    assert out.splitlines() == [
        "D1: 12/12 classes verified",
        "Dl: 32/32 classes verified",
        "E: 9/9 classes verified",
        "H: 10/10 classes verified",
        "N: 45/45 classes verified",
        "entry/sample pairs: 258, failures: 0",
        "remark coincidences: 97 confirmed, 0 unconfirmed, 0 failed",
        "property table discrepancies: 0",
    ]
    assert out.endswith("\n")


def references(node):
    "Every name, attribute and imported name the tree of node mentions."
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_package_has_no_dead_private_functions():
    "Every module-level _name function in src/lsacat is used somewhere in it."
    trees = package_trees()
    total = Counter(r for tree in trees.values() for r in references(tree))
    dead = ["%s:%s" % (name, fn.name) for name, tree in trees.items()
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
            and not fn.name.startswith("__")
            and total[fn.name] == Counter(references(fn))[fn.name]]
    assert dead == []


# public functions kept although no caller reaches them
UNCALLED_ALLOWED = set()

# public names with more than one definition ("module:Class" for a
# method, "module" for a function): references are counted by bare name,
# so a use of one definition counts for all of them, and a name that
# gains a definition must be added here once each is known to be reached
SHARED_NAMES = {
    "is_zero": {"linalg.py:Mat", "scalars.py:QI", "scalars.py:MultiPoly",
                "scalars.py:RatFunc", "scalars.py"},
    "ok": {"catalog.py:EntryReport", "catalog.py:SweepReport"},
    "parse_combination": {"scalars.py:_Parser", "scalars.py"},
    "parse_rows": {"scalars.py:_Parser", "scalars.py"},
    "substitute": {"linalg.py:Mat", "scalars.py:MultiPoly",
                   "scalars.py:RatFunc", "scalars.py"},
}


def user_trees(trees):
    """The parsed modules that count as users of the package: those of
    src/lsacat in trees but __init__ (its re-exports), perfbench/ and the
    acceptance tests."""
    root = os.path.join(SRC, "..")
    paths = [os.path.join(root, "tests", "test_acceptance.py")]
    bench = os.path.join(root, "perfbench")
    paths += [os.path.join(bench, n) for n in sorted(os.listdir(bench))
              if n.endswith(".py")]
    users = [tree for name, tree in trees.items() if name != "__init__.py"]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            users.append(ast.parse(fh.read(), path))
    return users


def test_package_has_no_public_api_only_tests_reach():
    """Every public function and method in src/lsacat is referenced from
    src/ (re-exports in __init__ not counted), perfbench/ or the acceptance
    tests, apart from UNCALLED_ALLOWED; a name defined more than once is
    one of SHARED_NAMES."""
    trees = package_trees()
    total = Counter(r for tree in user_trees(trees) for r in references(tree))

    def public(tree, name):
        "(where, function) of each public function and method of tree."
        for node in tree.body:
            cls = isinstance(node, ast.ClassDef)
            for fn in node.body if cls else [node]:
                if (isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_")):
                    yield ("%s:%s" % (name, node.name) if cls else name), fn
    defined = defaultdict(set)
    unreached = set()
    for name, tree in trees.items():
        for where, fn in public(tree, name):
            defined[fn.name].add(where)
            if total[fn.name] == Counter(references(fn))[fn.name]:
                unreached.add("%s:%s" % (name, fn.name))
    assert unreached == UNCALLED_ALLOWED
    assert {fn: where for fn, where in defined.items()
            if len(where) > 1} == SHARED_NAMES


def test_record_constructors_take_only_what_callers_pass():
    """Every __init__ parameter of a scalars.Record subclass in src/lsacat
    is passed, by position or by keyword, at some construction in src/,
    perfbench/ or the acceptance tests; a field no caller sets is assigned
    its default in the body instead."""
    trees = package_trees()
    params = {node.name: parameter_names(fn)[1:]
              for tree in trees.values() for node in tree.body
              if isinstance(node, ast.ClassDef)
              and "Record" in [getattr(b, "id", "") for b in node.bases]
              for fn in node.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"}
    assert {"CatalogEntry", "Document", "IsoVerdict"} <= set(params)
    passed = defaultdict(set)
    for tree in user_trees(trees):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name not in params:
                continue
            passed[name].update(params[name][:len(call.args)])
            passed[name].update(k.arg for k in call.keywords)
    unpassed = ["%s.%s" % (cls, p) for cls, names in sorted(params.items())
                for p in names if p not in passed[cls]]
    assert unpassed == []


def bound_names(stmt):
    "The names a statement of a class body binds, by def or assignment."
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return {stmt.name}
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return {n.id for t in targets if t is not None for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def test_only_qi_binds_a_hash():
    """QI is the one class in src/lsacat whose body binds __hash__: a
    Frozen value or Record compares as its fields and has no hash, and a
    class that defines __eq__ alone has none already."""
    found = ["%s:%s" % (name, node.name)
             for name, tree in package_trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for stmt in node.body if "__hash__" in bound_names(stmt)]
    assert found == ["scalars.py:QI"]


# the reasons README gives for a statement that no test runs
UNTRACED_REASONS = ("input error", "operator fallback", "oracle branch",
                    "certificate self-check", "repr", "entry point",
                    "unpinned outcome")


def test_untraced_list_matches_the_source():
    """Each line of tests/data/untraced.txt reads 'src/lsacat/<file>:<n>:
    <text>  # <reason>', line n of the file still reads <text>, and the
    reason starts with one of UNTRACED_REASONS; a change that moves the
    listed lines fails here before tests/untraced.py is rerun."""
    root = os.path.join(SRC, "..")
    with open(os.path.join(root, "tests", "data", "untraced.txt"),
              encoding="utf-8") as fh:
        entries = fh.read().splitlines()
    sources = {}
    for entry in entries:
        m = re.fullmatch(r"(src/lsacat/\w+\.py):(\d+): (.+)", entry)
        assert m, entry
        path, n, rest = m.group(1), int(m.group(2)), m.group(3)
        if path not in sources:
            with open(os.path.join(root, path), encoding="utf-8") as fh:
                sources[path] = fh.read().splitlines()
        text = sources[path][n - 1].strip()
        assert rest.startswith(text + "  # "), entry
        assert rest[len(text) + 4:].startswith(UNTRACED_REASONS), entry


# (sample, old text, new text): each edit makes the sample malformed
MALFORMED = {
    "f_index_zero": ("h1_cocycle.coc", "f(e3)", "f(e0)"),
    "f_index_above_dim": ("h1_cocycle.coc", "f(e1)", "f(e4)"),
    "f_index_not_integer": ("h1_cocycle.coc", "f(e1)", "f(ex)"),
    "f_repeated": ("h1_cocycle.coc", "C = ",
                   "f(e3) = [[0,0,0],[0,0,0],[0,0,0]]\nC = "),
    "matrix_name": ("h1_cocycle.coc", "C = ", "Cx = "),
    "bracket_missing": ("h1_cocycle.coc", "bracket e1 e2", "e1 e2"),
    "source_missing": ("h2prime_to_h2.wit", "source e3 e2", "e3 e2"),
    "product_three_factors": ("h1.alg", "e1 e1 = e1", "e1 e1 e1 = e1"),
    "dim_above_3": ("h1.alg", "dim 3", "dim 4"),
    "domain_unknown": ("h1.alg", "domain gaussian", "domain floaty"),
    "param_name": ("h1.alg", "domain gaussian\n",
                   "domain gaussian\nparams 1x any\n"),
    "param_basis_name": ("h1.alg", "domain gaussian\n",
                         "domain gaussian\nparams e2 any\n"),
    "param_any_with_value": ("h1.alg", "domain gaussian\n",
                             "domain gaussian\nparams lambda any junk\n"),
    "param_value_not_constant": ("h1.alg", "domain gaussian\n",
                                 "domain gaussian\nparams lambda ne x\n"),
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
    "term_superscript_digit": ("h1.alg", "e1 e1 = e1", "e1 e1 = \u00b2 e1"),
    "term_cut_short": ("h1.alg", "e1 e1 = e1", "e1 e1 = e1 +"),
    "matrix_cut_short": ("h1_cocycle.coc", "C = [[0,0,1],[0,1,0],[1,0,0]]",
                         "C = [[0,0,1],[0,1,0],[1,0,0]"),
    "product_basis_leading_zero": ("h1.alg", "e1 e1 = e1", "e01 e1 = e1"),
    "product_basis_non_ascii_digit": ("h1.alg", "e3 e1 = e3",
                                      "e\u0663 e1 = e3"),
    "f_index_leading_zero": ("h1_cocycle.coc", "f(e1)", "f(e01)"),
    "algebra_parameter_not_ratfunc": ("h1.alg", "e1 e2 = e2",
                                      "params x any\ne1 e2 = x e2"),
    "algebra_imaginary_rational": ("h1.alg", "gaussian\ne1 e1 = e1",
                                   "rational\ne1 e1 = i e1"),
    "cocycle_parameter_not_ratfunc": ("h1_cocycle.coc", "C = [[0,0,1]",
                                      "params x any\nC = [[0,0,x]"),
    "cocycle_imaginary_rational": ("h1_cocycle.coc",
                                   "gaussian\nbracket e1 e2 = e3",
                                   "rational\nbracket e1 e2 = i e3"),
    "witness_parameter_not_ratfunc": ("h2prime_to_h2.wit", "T = [[1,0,0]",
                                      "params x any\nT = [[x,0,0]"),
    "witness_imaginary_rational": ("h2prime_to_h2.wit",
                                   "gaussian\nsource e1 e1 = e1",
                                   "rational\nsource e1 e1 = i e1"),
    "term_basis_above_dim": ("h1.alg", "e1 e1 = e1", "e1 e1 = 2 e4"),
    "param_constraint_missing": ("h1.alg", "domain gaussian\n",
                                 "domain gaussian\nparams lambda\n"),
    "param_ne_without_value": ("h1.alg", "domain gaussian\n",
                               "domain gaussian\nparams lambda ne\n"),
    "param_eq_two_values": ("h1.alg", "domain gaussian\n",
                            "domain gaussian\nparams lambda eq 1 2\n"),
    "param_constraint_unknown": ("h1.alg", "domain gaussian\n",
                                 "domain gaussian\nparams lambda foo\n"),
    "matrix_row_short": ("h1_cocycle.coc", "C = [[0,0,1],", "C = [[0,1],"),
    "matrix_row_missing": ("h1_cocycle.coc", "C = [[0,0,1],[0,1,0],[1,0,0]]",
                           "C = [[0,0,1],[0,1,0]]"),
    "matrix_without_equals": ("h1_cocycle.coc", "C = [[", "C [["),
    "cocycle_c_missing": ("h1_cocycle.coc",
                          "C = [[0,0,1],[0,1,0],[1,0,0]]\n", ""),
    "f_parenthesis_missing": ("h1_cocycle.coc", "f(e1) =", "f(e1 ="),
    "bracket_three_factors": ("h1_cocycle.coc", "bracket e1 e2 = e3",
                              "bracket e1 e2 e3 = e3"),
    "bracket_breaks_jacobi": ("h1_cocycle.coc", "bracket e1 e2 = e3",
                              "bracket e1 e2 = e3\nbracket e1 e3 = e1"),
}
# cases whose message must give the line of the fault (and, for a syntax
# error, its column)
LOCATED = {"dim_above_3": "line 2, col 18: ",
           "domain_unknown": "line 2, col 27: ",
           "param_name": "line 3, col 8: ",
           "param_basis_name": "line 3, col 8: ",
           "param_any_with_value": "line 3, col 1: ",
           "param_value_not_constant": "line 3, col 18: ",
           "matrix_rows_unseparated": "line 7, col 14: ",
           "matrix_row_comma_missing": "line 7, col 21: ",
           "matrix_split_in_two": "line 7, col 14: ",
           "matrix_extra_bracket": "line 7, col 30: ",
           "matrix_trailing_comma": "line 7, col 30: ",
           "term_coefficient_touches_basis": "line 3, col 10: ",
           "term_parenthesis_touches_basis": "line 3, col 14: ",
           "term_two_signs": "line 3, col 14: ",
           "term_superscript_digit": "line 3, col 9: ",
           "term_cut_short": "line 3, col 13: unexpected end of text",
           "matrix_cut_short": "line 7, col 29: expected ], got end of text",
           "product_basis_leading_zero": "line 3: ",
           "product_basis_non_ascii_digit": "line 7: ",
           "f_index_leading_zero": "line 4: ",
           "algebra_parameter_not_ratfunc":
               "line 5: parameters need domain ratfunc",
           "algebra_imaginary_rational":
               "line 3: imaginary scalar in a rational document",
           "cocycle_parameter_not_ratfunc":
               "line 8: parameters need domain ratfunc",
           "cocycle_imaginary_rational":
               "line 3: imaginary scalar in a rational document",
           "witness_parameter_not_ratfunc":
               "line 18: parameters need domain ratfunc",
           "witness_imaginary_rational":
               "line 3: imaginary scalar in a rational document",
           "term_basis_above_dim": "line 3, col 11: expected one of e1, "
                                   "e2, e3, got token 'e4'\n",
           "param_constraint_missing":
               "line 3, col 1: params needs a name and a constraint\n",
           "param_ne_without_value":
               "line 3, col 1: ne constraint needs at least one value\n",
           "param_eq_two_values":
               "line 3, col 1: eq constraint needs exactly one value\n",
           "param_constraint_unknown":
               "line 3, col 1: unknown constraint 'foo'\n",
           "matrix_row_short": "line 7: matrix row has 2 entries, need 3\n",
           "matrix_row_missing": "line 7: matrix has 2 rows, need 3\n",
           "matrix_without_equals": "line 7, col 1: expected 'C = [[...]]'\n",
           "cocycle_c_missing": ": cocycle document needs a C matrix\n",
           "f_parenthesis_missing":
               "line 4, col 1: expected 'f(e<i>) = ...'\n",
           "bracket_three_factors": "line 3, col 1: malformed product line\n",
           "bracket_breaks_jacobi":
               ": bracket table breaks Jacobi at (e1,e2,e3)\n"}
COMMANDS = {".coc": ["cocycle-build"], ".wit": ["iso", "--verify"],
            ".alg": ["check"]}


def edited_sample(tmp_path, name, old, new):
    "A copy of the sample in tmp_path with its first `old` replaced by `new`."
    with open(sample(name), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    p = tmp_path / name
    p.write_text(text.replace(old, new, 1))
    return str(p)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2(tmp_path, case):
    name, old, new = MALFORMED[case]
    code, out = run(COMMANDS[os.path.splitext(name)[1]]
                    + [edited_sample(tmp_path, name, old, new)])
    assert code == 2
    assert out.startswith("bad document ")
    assert LOCATED.get(case, "") in out


# (sample, old text, new text, argv before the file, stdout, exit code):
# a well-formed document whose content a command refuses
REFUSED = {
    "cocycle_c_zero": ("h1_cocycle.coc", "C = [[0,0,1],[0,1,0],[1,0,0]]",
                       "C = [[0,0,0],[0,0,0],[0,0,0]]", ["cocycle-build"],
                       "cannot build: det C = 0\n", 1),
    "witness_singular": ("h2prime_to_h2.wit",
                         "T = [[1,0,0],[1,-1,0],[0,0,-1]]",
                         "T = [[1,0,0],[1,0,0],[0,0,-1]]", ["iso", "--verify"],
                         "verdict: error (isomorphism witness is singular)\n",
                         2),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_document_output(tmp_path, case):
    name, old, new, argv, stdout, code = REFUSED[case]
    assert run(argv + [edited_sample(tmp_path, name, old, new)]) == (
        code, stdout)


def test_check_refuses_a_cocycle_document():
    path = sample("h1_cocycle.coc")
    assert run(["check", path]) == (
        2, "%s: expected an algebra document, got cocycle\n" % path)


def test_catalog_verify_param_without_entry():
    assert run(["catalog-verify", "--param", "lambda=1"]) == (
        2, "--param requires --entry\n")


def test_catalog_verify_family_with_entry_exits_2(monkeypatch, capsys):
    """--family and --entry exclude each other: the pair is refused while
    the arguments are read, before anything is verified, and exits 2."""
    def refuse(*args, **kwargs):
        raise AssertionError("verify_all called")
    monkeypatch.setattr(catalog, "verify_all", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["catalog-verify", "--family", "Dl", "--entry", "N-1"])
    assert exc.value.code == 2
    assert "argument --entry: not allowed with argument --family" in \
        capsys.readouterr().err


def test_iso_search_separates_dimensions(tmp_path):
    a = tmp_path / "dim2.alg"
    a.write_text("kind algebra dim 2 domain gaussian\ne1 e1 = e1\n")
    assert run(["iso", "--search", str(a), sample("h1.alg")]) == (
        0, "verdict: not_isomorphic\nseparated_by: different dimensions\n")


def test_catalog_verify_param_cut_short():
    """A --param value that ends early names the --param item and the end
    of the text; exit 2."""
    code, out = run(["catalog-verify", "--entry", "N-1", "--param",
                     "lambda=1+"])
    assert code == 2
    assert out == "catalog error: --param lambda=1+: unexpected end of text\n"


@pytest.mark.parametrize("extra, name", [
    ("bogus=3", "bogus"),
    ("lambda=3", "lambda"),
    ("lambda", "--param expects NAME=VALUE, got 'lambda'"),
    ("lambda=", "--param expects NAME=VALUE, got 'lambda='"),
    ("=2", "--param expects NAME=VALUE, got '=2'"),
])
def test_catalog_verify_rejects_undeclared_or_repeated_param(extra, name):
    """A --param the entry does not declare, a second one for a name, or
    one without a name or a value."""
    code, out = run(["catalog-verify", "--entry", "N-1", "--param", "lambda=2",
                     "--param", extra])
    assert code == 2
    assert out.startswith("catalog error: ")
    assert name in out
    if extra == "lambda=3":     # raised into the one catalog error handler
        assert out == "catalog error: --param lambda is given twice\n"
