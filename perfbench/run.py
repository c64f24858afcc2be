"""lsacat benchmark: one workload per call, measured in fresh processes.

    python3 perfbench/run.py --workload {catalog,height,search} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` and exits with code 2 when there is none.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
over SETUP_SAMPLES fresh interpreters, spread over the cycles, of ``import
lsacat`` plus ``catalog.load_catalog()``.  The workload then runs as cycles,
each in a fresh process (``PYTHONHASHSEED`` pinned, one thread) that runs
every item once, as one user command would: as many cycles as fit in
``--seconds`` on a quiet host (``cycle_count``), and at least two.  Item
times and set-up samples are scaled for host speed with a fixed reference
kernel (see ``worker.py``), because other tenants of a shared host slow
every process by up to half for minutes at a time.  Each item's scaled time is then its fastest over the cycles
(best of K, as ``timeit`` reports); ``run_s`` and ``cpu_s`` add these
per-item times to the fastest remainder of a cycle outside the items.

``--trace 1`` runs one cycle plainly, for reference, and one with every
public lsacat function wrapped (``tracing.py``), and reports the
per-layer metrics.  Spans of the traced cycle are written to
``.perfbench_out/``.

Every line but the last is for people; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("catalog", "height", "search")
SETUP_SAMPLES = 12
MIN_CYCLES = 2
# Wall time of one cycle and its set-up samples on a quiet host.  The
# number of cycles comes from --seconds and these, never from the clock of
# the run: best of K comes out lower for larger K, so a count that follows
# the host's load would move every time metric with it.
CYCLE_S = {"catalog": 9.0, "height": 19.0, "search": 6.0}
DEADLINE_S = 170          # every run must end within 180 s
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import lsacat\n"
    "from lsacat import catalog\n"
    "catalog.load_catalog()\n"
    "setup = time.perf_counter() - t0\n"
    "sys.path.insert(0, %r)\n"
    "import worker\n"
    "print(repr(setup * worker.host_scale()))\n" % HERE
)


def child_env():
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    env.pop("LSACAT_DATA", None)        # always the shipped catalog
    return env


class ChildFailed(Exception):
    "A child process failed or ran past the deadline."


def run_child(argv, deadline):
    "Run a child to completion (killed at the deadline); its stdout."
    what = " ".join(argv[:3])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before %s" % what)
    try:
        proc = subprocess.run([sys.executable] + argv, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s killed at the %d s deadline"
                          % (what, DEADLINE_S)) from None
    if proc.returncode != 0:
        raise ChildFailed("%s exited with %d" % (what, proc.returncode))
    return proc.stdout


def setup_sample(deadline):
    "One fresh-process set-up time, scaled for host speed like the items."
    return float(run_child(["-c", SETUP_SNIPPET], deadline))


def run_worker(args, deadline, extra=()):
    argv = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed)] + list(extra)
    return json.loads(run_child(argv, deadline).splitlines()[-1])


def cycle_count(args):
    return max(MIN_CYCLES, int(args.seconds // CYCLE_S[args.workload]))


def run_cycles(args, deadline):
    """cycle_count(args) fresh-process cycles.  Set-up samples are taken
    before every cycle, so that they spread over the run as the cycles do.
    Returns (cycles, setup samples)."""
    setup_sample(deadline)          # warm-up: bytecode caches, file cache
    n = cycle_count(args)
    per_cycle = -(-SETUP_SAMPLES // n)
    cycles, setups = [], []
    for _ in range(n):
        setups += [setup_sample(deadline) for _ in range(per_cycle)]
        cycles.append(run_worker(args, deadline))
    return cycles, setups


def in_percentiles(label):
    """Whether an item counts towards item_p50_ms and item_p90_ms.  The
    height N-3 ladder is a series of its own (height.n3_mu<k>.s); four of
    its six items sit just below the median of the entry items, in a gap of
    the item times, and would move the median across it by two ranks."""
    return not label.startswith("n3_")


def combine(cycles):
    """Best-of-K item times over identical cycles, and the counts.  A failed
    output check fails every item of its cycle."""
    labels = [it[0] for it in cycles[0]["items"]]
    problems = [p for c in cycles for p in c["problems"]]
    if any([it[0] for it in c["items"]] != labels for c in cycles):
        problems.append("cycles ran different items")
        cycles = cycles[:1]
    n = len(labels)
    wall = [min(c["items"][i][1] * c["items"][i][4] for c in cycles)
            for i in range(n)]
    cpu = [min(c["items"][i][2] * c["items"][i][4] for c in cycles)
           for i in range(n)]
    rest_wall = min((c["wall_s"] - sum(it[1] for it in c["items"]))
                    * statistics.median(c["scales"]) for c in cycles)
    rest_cpu = min((c["cpu_s"] - sum(it[2] for it in c["items"]))
                   * statistics.median(c["scales"]) for c in cycles)
    ranked = [w for w, lab in zip(wall, labels) if in_percentiles(lab)]
    p90 = statistics.quantiles(ranked, n=10, method="inclusive")[8]
    series = {}
    for label in dict.fromkeys(labels):
        ts = [w for w, lab in zip(wall, labels) if lab == label]
        series[label] = {"median_s": statistics.median(ts), "n": len(ts)}
    return {
        "cycles": len(cycles),
        "scale": statistics.median(x for c in cycles for x in c["scales"]),
        "raw_run_s": statistics.median(c["wall_s"] for c in cycles),
        "run_s": sum(wall) + rest_wall,
        "cpu_s": sum(cpu) + rest_cpu,
        "item_p50_ms": statistics.median(ranked) * 1e3,
        "item_p90_ms": p90 * 1e3,
        "items": n,
        "ranked": len(ranked),
        "beyond_p90": sum(w > p90 for w in ranked),
        "attempted": n * len(cycles),
        "failed": sum(n if c["problems"] else
                      sum(it[3] == "failed" for it in c["items"])
                      for c in cycles),
        "undecided": sum(it[3] == "undecided"
                         for c in cycles for it in c["items"]),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in cycles),
        "series": series,
        "problems": problems,
    }


def metadata():
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk("src"):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_py_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    cycles, setups = run_cycles(args, deadline)
    r = combine(cycles)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(r["run_s"], "s"),
        "cpu_s": metric(r["cpu_s"], "s"),
        "item_p50_ms": metric(r["item_p50_ms"], "ms"),
        "item_p90_ms": metric(r["item_p90_ms"], "ms"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
    }
    shown = dict(metrics,
                 fail_ratio=metric(r["failed"] / r["attempted"], "ratio"),
                 undecided_ratio=metric(r["undecided"] / r["attempted"],
                                        "ratio"))
    notes = ["%d cycles of %d items; %d of %d ranked items beyond "
             "item_p90_ms; %d set-up samples"
             % (r["cycles"], r["items"], r["beyond_p90"], r["ranked"],
                len(setups)),
             "host-speed scale %.3f (median); unscaled cycle wall time "
             "%.3f s (median)" % (r["scale"], r["raw_run_s"])]
    return (r,), metrics, shown, notes, []


def per_layer(args, deadline):
    ref = combine([run_worker(args, deadline)])
    traced = run_worker(args, deadline, ["--traced"])
    r = combine([traced])
    layers = traced["layers"]
    metrics = {}
    for name in tracing.REPORTED:
        calls, self_s, incl_s = layers.get(name, (0, 0.0, 0.0))
        metrics[name + ".calls"] = metric(calls, "count")
        metrics[name + ".self_s"] = metric(self_s, "s")
        metrics[name + ".incl_s"] = metric(incl_s, "s")
    load = layers.get("catalog.load_catalog", (0, 0.0, 0.0))
    metrics["catalog.load_catalog.s"] = metric(load[2], "s")
    metrics["scalars.qi_ops.calls"] = metric(traced["qi_ops"], "count")
    metrics["trace.overhead_s"] = metric(r["run_s"] - ref["run_s"], "s")
    metrics["trace.spans"] = metric(traced["spans"], "count")
    metrics["undecided_ratio"] = metric(ref["undecided"] / ref["attempted"],
                                        "ratio")
    # the height series comes from the untraced reference cycle
    series = ref["series"]
    metrics["height.d1.item_p50_ms"] = metric(
        series.get("d1", {}).get("median_s", 0.0) * 1e3, "ms")
    for k in inputs.N3_LADDER:
        metrics["height.n3_mu%d.s" % k] = metric(
            series.get("n3_mu%d" % k, {}).get("median_s", 0.0), "s")

    problems = []
    for name in tracing.MUST_FIRE[args.workload]:
        if layers.get(name, (0,))[0] == 0:
            problems.append("wrapper %s counted no calls" % name)
    pairs = sum(s["n"] for label, s in r["series"].items()
                if label not in ("coincidence", "search"))
    entry_calls = layers.get("catalog.verify_entry", (0,))[0]
    if entry_calls != pairs:
        problems.append("catalog.verify_entry counted %d calls for %d pairs"
                        % (entry_calls, pairs))
    notes = ["one cycle of %d items: plain %.3f s, traced %.3f s; spans in %s"
             % (r["items"], ref["run_s"], r["run_s"],
                tracing.SPANS_PATH % (args.workload, args.seed))]
    return (ref, r), metrics, dict(metrics), notes, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "lsacat", "__init__.py")):
        print("perfbench: no src/lsacat here; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    measure = per_layer if args.trace else end_to_end
    try:
        runs, metrics, shown, notes, problems = measure(args, deadline)
    except ChildFailed as exc:
        print("PROBLEM: %s" % exc)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for run in runs:
        problems += run["problems"]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                             args.trace))
    print("meta: " + json.dumps(metadata(), sort_keys=True))
    for note in notes:
        print("note: " + note)
    for name, m in shown.items():
        print("%-44s %18.6f %s" % (name, m["value"], m["unit"]))
    for prob in problems:
        print("PROBLEM: " + prob)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
