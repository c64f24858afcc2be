"""Span tracing of lsacat from outside the package.

``Tracer.install`` replaces the public functions of the traced modules by
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  A module-level ``from .x import y``
copies ``y`` into the importing module, so every lsacat module attribute
that still refers to the original function is replaced as well (for
example ``find_ideals`` in ``lsacat.catalog`` and ``classify3`` in
``catalog``, ``iso``, ``props`` and ``cli``).  ``Mat`` methods are
patched on the class; ``QI`` arithmetic is counted, not timed, because a
span per scalar operation would cost more than the operation.

Spans stay in memory (flat arrays) until ``write_spans``.  Self time is a
span's duration minus the durations of its direct child spans; inclusive
time counts only the outermost span of a name, so a layer that calls
itself is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

# Where a traced cycle writes its spans, by workload and seed.
SPANS_PATH = ".perfbench_out/spans-%s-seed%d.tsv.gz"
MODULES = ("scalars", "linalg", "algebra", "lie", "cocycle", "props", "iso",
           "catalog", "docs", "cli")

# Scalar coercions and vector helpers are left unwrapped: a cycle calls
# them hundreds of thousands of times, and a span each would cost more
# than the call it measures.
UNWRAPPED = {"scalars.is_zero", "scalars.as_scalar", "scalars.qi",
             "linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale",
             "linalg.vec_neg", "linalg.vec_is_zero", "linalg.vec_eq",
             "linalg.vec_zero"}
# Mat methods timed together as one layer; charpoly gets its own name.
MAT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
           "transpose", "apply_row", "apply_col", "det", "inverse", "rref",
           "rank", "nullspace", "trace")
QI_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__")

# Layers reported by name, each as .calls, .self_s and .incl_s.
REPORTED = (
    "scalars.qi_roots", "scalars.factor_unipoly",
    "scalars.gaussian_integer_divisors", "scalars.partial_substitute",
    "linalg.charpoly", "linalg.mat_ops",
    "algebra.check_left_symmetric", "algebra.commutator_lie",
    "algebra.substitute_algebra", "algebra.rebase",
    "lie.classify3", "lie.canonical_lie",
    "cocycle.check_representation", "cocycle.check_cocycle", "cocycle.phi",
    "props.find_ideals", "props.fingerprint", "props.predicates",
    "iso.search_lsa_iso", "iso.verify_lsa_iso",
    "catalog.verify_entry", "catalog.computed_flags", "catalog.instantiate",
    "docs.parse", "cli.main",
)
# Reported layers that sum several functions.
AGGREGATES = {
    "props.predicates": ("props.is_associative", "props.is_transitive",
                         "props.is_novikov", "props.is_bisymmetric",
                         "props.is_commutative", "props.is_simple",
                         "props.is_semisimple"),
    "docs.parse": ("docs.parse_document", "docs.parse_term_list",
                   "docs.parse_matrix", "docs.parse_constraint"),
}

_COMMON = ("catalog.load_catalog", "docs.parse", "lie.classify3",
           "algebra.check_left_symmetric", "algebra.commutator_lie",
           "props.predicates", "linalg.mat_ops")
_VERIFY = ("catalog.verify_all", "catalog.verify_entry", "props.find_ideals",
           "scalars.qi_roots", "scalars.factor_unipoly", "linalg.charpoly",
           "cocycle.check_representation", "cocycle.check_cocycle",
           "cocycle.phi")
_SEARCH = ("iso.search_lsa_iso", "iso.verify_lsa_iso", "props.fingerprint")
# Wrappers that must count calls on each workload, or the trace is broken.
MUST_FIRE = {
    "catalog": _COMMON + _VERIFY + _SEARCH + (
        "cli.main", "catalog.verify_remark_isos",
        "catalog.verify_property_tables"),
    "height": _COMMON + _VERIFY,
    "search": _COMMON + _SEARCH,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # no open span of the same name
        self._depth = []              # open spans per name id
        self.qi_ops = [0]
        self._stack = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[nid] -= 1
        return wrapper

    def count(self, fn):
        cell = self.qi_ops

        @functools.wraps(fn)
        def counted(self_, other):
            cell[0] += 1
            return fn(self_, other)
        return counted

    def install(self):
        "Patch lsacat in place; call once, before the work to be traced."
        traced = [importlib.import_module("lsacat." + m) for m in MODULES]
        from lsacat.linalg import Mat
        from lsacat.scalars import QI
        package = [m for n, m in sorted(sys.modules.items())
                   if (n == "lsacat" or n.startswith("lsacat.")) and m]
        for short, mod in zip(MODULES, traced):
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or "%s.%s" % (short, attr) in UNWRAPPED):
                    continue
                w = self.wrap("%s.%s" % (short, attr), fn)
                for m in package:
                    if getattr(m, attr, None) is fn:
                        setattr(m, attr, w)
        for attr in MAT_OPS:
            setattr(Mat, attr, self.wrap("linalg.mat_ops", vars(Mat)[attr]))
        Mat.charpoly = self.wrap("linalg.charpoly", Mat.charpoly)
        for attr in QI_OPS:
            setattr(QI, attr, self.count(vars(QI)[attr]))

    def layer_totals(self):
        "{name: [calls, self_s, inclusive_s]} from the recorded spans."
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends, outer = self.span_start, self.span_end, self.span_outer
        for i in range(len(names)):
            d = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += d
            if outer[i]:
                incl[nid] += d
            p = parents[i]
            if p >= 0:
                self_s[names[p]] -= d
        out = {n: [calls[i], self_s[i], incl[i]]
               for i, n in enumerate(self.names)}
        for agg, members in AGGREGATES.items():
            rows = [out[m] for m in members if m in out]
            out[agg] = [sum(r[0] for r in rows), sum(r[1] for r in rows),
                        sum(r[2] for r in rows)]
        return out

    def write_spans(self, path):
        "Gzipped TSV: id, name, parent id, start and end in seconds."
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write("%d\t%s\t%d\t%.9f\t%.9f\n" % (
                    i, names[self.span_name[i]], self.span_parent[i],
                    self.span_start[i], self.span_end[i]))
