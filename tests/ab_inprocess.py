"""In-process A/B timing of two lsacat source trees.

Loads the package of each tree under its own name (lsacat_a from the
first src/ directory, lsacat_b from the second) into this one process,
then times five pieces of work on each in turn, alternating which tree
goes first from round to round:

    verify  catalog.verify_all on the shipped catalog (258 points), then
            verify_property_tables on its sweep
    catalog cli.main(["catalog-verify", "--all"]): the sweep, the remark
            coincidences and the property pass, its stdout captured; the
            run stops if the two trees print different text
    height  verify_all over the benchmark's height plans: the d=1 plan of
            perfbench/inputs.height_plans at --seed and the N-3 ladder
    search  search_lsa_iso(a, rebase(a, T)) over perfbench/inputs'
            search cases at --seed (the pairs are built before timing)
    load    catalog.load_catalog() with the catalog cache and the scalar
            parse memo emptied first, as a fresh process starts

Every timing is the CPU time of one piece on one tree; the loaded
catalog is kept, as setup (but for the load piece, which loads it
again).  Both trees run under the same load at nearly the same moment,
so the ratio B/A of a round survives the slow drift of a shared host
that moves whole benchmark runs; the min and the median of the ratios
over the rounds are printed per piece, with the median CPU seconds of
each side.  This measures one piece of a change against another; the
benchmark (perfbench/run.py) stays the judge of end-to-end metrics.

    python3 tests/ab_inprocess.py PARENT/src src [--rounds 9] [--seed 1]
        [--pieces verify,height,search,catalog,load]

pytest does not collect this file.
"""

import argparse
import contextlib
import gc
import importlib.util
import io
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import inputs  # noqa: E402  (perfbench/inputs.py: seeded plain data)

PIECES = ("verify", "height", "search", "catalog", "load")


def load_tree(name, src):
    "The lsacat package under src, imported as the package `name`."
    pkg = os.path.join(os.path.abspath(src), "lsacat")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("algebra", "catalog", "cli", "iso", "lie", "linalg",
                "scalars"):
        importlib.import_module("%s.%s" % (name, sub))
    return module


class Tree:
    "The work of each piece on one loaded tree, built once."

    def __init__(self, name, src, seed):
        self.pkg = load_tree(name, src)
        catalog = self.pkg.catalog
        self.cat = catalog.load_catalog()
        self.height = [self._plan(plan) for _, plan in inputs.height_plans(
            self.cat.values(), seed,
            lambda e, v: e.admissible(self._bindings(e, v)))]
        self.height += [self._plan({"N-3": [{"mu": mu}]})
                        for _, mu in inputs.n3_ladder()]
        self.stdout = None          # of the last catalog piece
        self.search = []
        for eid, rows in inputs.search_cases(list(self.cat), seed):
            a = catalog.instantiate(eid, self.cat[eid].sample_bindings()[0])
            self.search.append((a, self.pkg.algebra.rebase(
                a, self.pkg.linalg.Mat(rows))))

    def _bindings(self, entry, values):
        "The drawn (re, im) values plus the entry's 'eq' pins."
        qi = self.pkg.scalars.QI
        b = {n: c[1] for n, c in entry.params.items() if c[0] == "eq"}
        b.update({n: qi(*v) if isinstance(v, tuple) else qi(v)
                  for n, v in values.items()})
        return b

    def _plan(self, plan):
        return {eid: [self._bindings(self.cat[eid], v) for v in values]
                for eid, values in plan.items()}

    def run(self, piece):
        """Run one piece; exit if a verdict is wrong (a search may say
        unknown, as the benchmark's search workload allows)."""
        catalog = self.pkg.catalog
        if piece == "catalog":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                bad = self.pkg.cli.main(["catalog-verify", "--all"])
            self.stdout = out.getvalue()
        elif piece == "verify":
            sweep = catalog.verify_all()
            tables = catalog.verify_property_tables(sweep)
            bad = len(sweep.failures) + len(tables["discrepancies"])
        elif piece == "load":
            catalog._CACHE.clear()
            self.pkg.scalars._PARSED.clear()
            bad = len(catalog.load_catalog()) != len(self.cat)
        elif piece == "height":
            bad = sum(len(catalog.verify_all(plan=plan).failures)
                      for plan in self.height)
        else:
            search = self.pkg.iso.search_lsa_iso
            bad = sum(search(a, b).status == "not_isomorphic"
                      for a, b in self.search)
        if bad:
            raise SystemExit("%s: %s has %d wrong verdicts"
                             % (self.pkg.__name__, piece, bad))

    def timed(self, piece):
        "CPU seconds of one run of the piece."
        gc.collect()
        t0 = time.process_time()
        self.run(piece)
        return time.process_time() - t0


def same_stdout(trees):
    "Exit unless the trees' last catalog pieces printed the same text."
    if len({tree.stdout for tree in trees}) > 1:
        raise SystemExit("catalog-verify --all prints differently on %s"
                         % " and ".join(tree.pkg.__name__ for tree in trees))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a_src")
    p.add_argument("b_src")
    p.add_argument("--rounds", type=int, default=9)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pieces", default=",".join(PIECES))
    args = p.parse_args(argv)
    pieces = args.pieces.split(",")
    if not set(pieces) <= set(PIECES) or args.rounds < 1:
        p.error("pieces are %s; rounds must be positive" % ", ".join(PIECES))
    os.environ.pop("LSACAT_DATA", None)
    trees = (Tree("lsacat_a", args.a_src, args.seed),
             Tree("lsacat_b", args.b_src, args.seed))
    for tree in trees:              # warm-up, untimed
        for piece in pieces:
            tree.run(piece)
    same_stdout(trees)
    times = {(piece, side): [] for piece in pieces for side in (0, 1)}
    for r in range(args.rounds):
        for piece in pieces:
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[piece, side].append(trees[side].timed(piece))
        same_stdout(trees)
    print("piece    A median s  B median s  B/A min  B/A median  rounds")
    for piece in pieces:
        a, b = times[piece, 0], times[piece, 1]
        ratios = [y / x for x, y in zip(a, b)]
        print("%-8s %10.4f  %10.4f  %7.3f  %10.3f  %6d"
              % (piece, statistics.median(a), statistics.median(b),
                 min(ratios), statistics.median(ratios), args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
