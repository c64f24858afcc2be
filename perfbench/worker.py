"""Run one cycle of a benchmark workload in this fresh process and print
what it measured as one JSON line.  ``run.py`` starts it; by hand:

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/worker.py \\
        --workload search --seed 1 [--traced]

A cycle is every item of the workload once, as a user's single command
would run it.  An item is one verdict: an entry/sample pair, a remark
coincidence or a search pair.  Each item is timed (wall and CPU) around
the library call that yields its verdict; for ``catalog`` and ``height``
that call is ``catalog.verify_entry`` (and, for coincidences, the
searching calls of ``catalog._verify_iso_decl``), reached through a
one-function timer that costs about a microsecond per item.  With
``--traced`` every public lsacat function is wrapped first (tracing.py),
and the spans are written to ``tracing.SPANS_PATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

import inputs

CATALOG_EXPECTED = (
    "D1: 12/12 classes verified\n"
    "Dl: 32/32 classes verified\n"
    "E: 9/9 classes verified\n"
    "H: 10/10 classes verified\n"
    "N: 45/45 classes verified\n"
    "entry/sample pairs: 258, failures: 0\n"
    "remark coincidences: 97 confirmed, 0 unconfirmed, 0 failed\n"
    "property table discrepancies: 0\n"
)
CATALOG_PAIRS = 258
CATALOG_COINCIDENCES = 97


def bindings_for(entry, values):
    "Library bindings: the drawn (re, im) values plus the entry's 'eq' pins."
    from lsacat.scalars import QI
    b = {n: c[1] for n, c in entry.params.items() if c[0] == "eq"}
    b.update({n: QI(*v) if isinstance(v, tuple) else QI(v)
              for n, v in values.items()})
    return b


# Host speed.  Other tenants of a shared host slow every process on it,
# by up to half and for minutes at a time.  Around items, at most every
# REFERENCE_EVERY_S, the recorder times a fixed pure-Python kernel (the
# fastest of 5 runs); an item's scale is REFERENCE_NOMINAL_S over that
# time, so scaled times read as seconds on a host where the kernel takes
# exactly 1 ms.
REFERENCE_EVERY_S = 0.25
REFERENCE_NOMINAL_S = 1e-3


def reference_kernel():
    "Fixed exact rational arithmetic, like lsacat's scalar layer."
    x = Fraction(0)
    for i in range(1, 200):
        x += Fraction(i, i + 7) * Fraction(3, i + 1)
    return x


def host_scale():
    "REFERENCE_NOMINAL_S over the fastest of 5 runs of the kernel now."
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference_kernel()
        runs.append(time.perf_counter() - t0)
    return REFERENCE_NOMINAL_S / min(runs)


class Recorder:
    """Items of the cycle as [label, wall_s, cpu_s, outcome, scale];
    outcome is 'ok', 'failed' or 'undecided' and scale is the host-speed
    scale in effect when the item started."""

    def __init__(self):
        self.items = []
        self.label = ""
        self.scales = []
        self.reference_s = 0.0      # time spent timing the kernel
        self._reference_at = None

    def _scale(self):
        "The current scale, measured again when it is REFERENCE_EVERY_S old."
        now = time.perf_counter()
        if self._reference_at is None or (now - self._reference_at
                                          > REFERENCE_EVERY_S):
            self.scales.append(host_scale())
            self._reference_at = time.perf_counter()
            self.reference_s += self._reference_at - now
        return self.scales[-1]

    @contextlib.contextmanager
    def timed(self, label=None):
        """Time the block as one item; the block sets item[3] (its outcome).
        An item longer than REFERENCE_EVERY_S gets the mean of the scales
        before and after it."""
        item = [label or self.label, 0.0, 0.0, "failed", self._scale()]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            yield item
        finally:
            item[1] = time.perf_counter() - t0
            item[2] = time.process_time() - c0
            item[4] = (item[4] + self._scale()) / 2
            self.items.append(item)


@contextlib.contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def timed_verify_entry(rec):
    "Time every catalog.verify_entry call as one pair item."
    def make(verify_entry):
        def timed(*args, **kwargs):
            with rec.timed() as item:
                r = verify_entry(*args, **kwargs)
                item[3] = "ok" if r.ok else "failed"
            return r
        return timed
    return make


def timed_coincidence(rec):
    """Time the searching calls of catalog._verify_iso_decl, one per remark
    coincidence; an 'unknown' search result is undecided, as
    catalog.verify_remark_isos counts it."""
    def make(verify_iso_decl):
        def timed(*args, **kwargs):
            if not kwargs.get("use_search"):
                return verify_iso_decl(*args, **kwargs)
            with rec.timed("coincidence") as item:
                ok, msg = verify_iso_decl(*args, **kwargs)
                item[3] = ("ok" if ok else
                           "undecided" if "unknown" in msg else "failed")
            return ok, msg
        return timed
    return make


class CatalogWorkload:
    "cli catalog-verify --all on the shipped catalog; the seed is unused."

    def __init__(self, seed):
        pass

    def cycle(self, rec):
        from lsacat import catalog, cli
        rec.label = "pair"
        out = io.StringIO()
        code = None
        with patched(catalog, "verify_entry", timed_verify_entry(rec)), \
                patched(catalog, "_verify_iso_decl", timed_coincidence(rec)), \
                contextlib.redirect_stdout(out):
            try:
                code = cli.main(["catalog-verify", "--all"])
            except Exception as exc:  # reported by the checks below
                print("exception: %r" % (exc,))
        pairs = sum(1 for it in rec.items if it[0] == "pair")
        coinc = sum(1 for it in rec.items if it[0] == "coincidence")
        problems = []
        if code != 0:
            problems.append("exit code %r" % (code,))
        if out.getvalue() != CATALOG_EXPECTED:
            problems.append("stdout differs: %r" % (out.getvalue()[-400:],))
        if (pairs, coinc) != (CATALOG_PAIRS, CATALOG_COINCIDENCES):
            problems.append("%d pairs and %d coincidences" % (pairs, coinc))
        return problems


class HeightWorkload:
    """verify_all over every free-parameter entry at d-digit Gaussian values
    (inputs.height_plans), then the N-3 ladder mu = 10^k + 7."""

    def __init__(self, seed):
        from lsacat import catalog
        cat = catalog.load_catalog()

        def admissible(entry, values):
            return entry.admissible(bindings_for(entry, values))

        self.rungs = []
        for digits, plan in inputs.height_plans(cat.values(), seed,
                                                admissible):
            full = {eid: [] for eid in cat}
            for eid, values_list in plan.items():
                full[eid] = [bindings_for(cat[eid], v) for v in values_list]
            self.rungs.append(("d%d" % digits, full))
        for k, mu in inputs.n3_ladder():
            full = {eid: [] for eid in cat}
            full["N-3"] = [bindings_for(cat["N-3"], {"mu": mu})]
            self.rungs.append(("n3_mu%d" % k, full))
        self.expected = 0
        for _, plan in self.rungs:
            for eid, bl in plan.items():
                self.expected += len(bl)
                if not all(cat[eid].admissible(b) for b in bl):
                    raise SystemExit("inadmissible binding for %s" % eid)

    def cycle(self, rec):
        from lsacat import catalog
        problems = []
        with patched(catalog, "verify_entry", timed_verify_entry(rec)):
            for label, plan in self.rungs:
                rec.label = label
                try:
                    report = catalog.verify_all(plan=plan)
                except Exception as exc:
                    problems.append("%s: %r" % (label, exc))
                    continue
                problems += [r.describe() for r in report.failures]
        if len(rec.items) != self.expected:
            problems.append("%d of %d pairs verified"
                            % (len(rec.items), self.expected))
        return problems


class SearchWorkload:
    """search_lsa_iso(a, rebase(a, T)) for every entry at its first sample,
    T a signed permutation times one elementary shear (inputs.search_cases)."""

    def __init__(self, seed):
        from lsacat import catalog
        from lsacat.algebra import rebase
        from lsacat.iso import verify_lsa_iso
        from lsacat.linalg import Mat
        cat = catalog.load_catalog()
        self.cases = []
        for eid, rows in inputs.search_cases(list(cat), seed):
            a = catalog.instantiate(eid, cat[eid].sample_bindings()[0])
            t = Mat(rows)
            b = rebase(a, t)
            # b is a in the basis given by the rows of T, so T^-1 is an
            # isomorphism a -> b: the right verdict is known beforehand.
            self.cases.append((eid, a, b, verify_lsa_iso(a, b, t.inverse())))

    def cycle(self, rec):
        from lsacat.iso import search_lsa_iso, verify_lsa_iso
        problems = []
        for eid, a, b, known in self.cases:
            if not known:
                problems.append("%s: T^-1 is not an isomorphism" % eid)
                rec.items.append(["search", 0.0, 0.0, "failed", 1.0])
                continue
            with rec.timed("search") as item:
                try:
                    v = search_lsa_iso(a, b)
                except Exception as exc:
                    problems.append("%s: %r" % (eid, exc))
                    continue
            if v.status == "unknown":
                item[3] = "undecided"
            elif v.status == "isomorphic" and verify_lsa_iso(a, b, v.witness):
                item[3] = "ok"
            else:
                problems.append("%s: %s %s" % (eid, v.status, v.reason))
        return problems


WORKLOADS = {
    "catalog": CatalogWorkload,
    "height": HeightWorkload,
    "search": SearchWorkload,
}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    from lsacat import catalog
    catalog.load_catalog()
    workload = WORKLOADS[args.workload](args.seed)
    rec = Recorder()
    t0, c0 = time.perf_counter(), time.process_time()
    problems = workload.cycle(rec)
    result = {
        # the kernel runs are not part of the cycle
        "wall_s": time.perf_counter() - t0 - rec.reference_s,
        "cpu_s": time.process_time() - c0 - rec.reference_s,
        "items": rec.items,
        "scales": rec.scales,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        result["qi_ops"] = tracer.qi_ops[0]
        result["spans"] = len(tracer.span_name)
        spans = tracing.SPANS_PATH % (args.workload, args.seed)
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.write_spans(spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
