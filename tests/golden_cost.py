"""The golden cost ledger of the benchmark workloads.

One line per count: for each of the search, catalog and height workloads,
one traced worker cycle at seed 1 under PYTHONHASHSEED=0 gives the call
count of every layer that perfbench/tracing.py reports or requires for
that workload, and the number of Gaussian-rational operations (qi_ops).
Operation counts do not vary between runs, so test_tracing_contract.py
compares its own traced cycles with the stored file line by line, with
no timing.  A change that alters a count regenerates the file and
explains each changed line:

    PYTHONPATH=src python3 tests/golden_cost.py > tests/data/cost_golden.txt
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("search", "catalog", "height")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_cycle(workload, cwd):
    """The JSON result of one traced worker cycle of the workload at seed 1,
    run in a fresh process in cwd (where it leaves its span file)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(ROOT, "src")),
               PYTHONHASHSEED="0")
    env.pop("LSACAT_DATA", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"),
         "--workload", workload, "--seed", "1", "--traced"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def ledger(workload, result):
    "The ledger lines of one workload, read off its traced cycle's result."
    tracing = load_tracing()
    names = sorted(set(tracing.REPORTED) | set(tracing.MUST_FIRE[workload]))
    layers = result["layers"]
    for name in names:
        yield "%s %s %d" % (workload, name, layers.get(name, [0])[0])
    yield "%s qi_ops %d" % (workload, result["qi_ops"])


def lines():
    "The golden lines, workload by workload."
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as cwd:
            yield from ledger(workload, traced_cycle(workload, cwd))


if __name__ == "__main__":
    for line in lines():
        sys.stdout.write(line + "\n")
