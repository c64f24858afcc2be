"""The benchmark's span tracer must still see every layer it relies on.

perfbench/tracing.py wraps lsacat's public functions by replacing module
attributes, so a call that stops going through one (a module-level name
bound some other way, or a layer that is skipped) silently drops its
spans.  One traced cycle of the search and of the catalog workload must
each report no problem and count calls for every name in that workload's
tracing.MUST_FIRE entry."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_traced_cycle(tmp_path, workload):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(ROOT, "src")),
               PYTHONHASHSEED="0")
    env.pop("LSACAT_DATA", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"),
         "--workload", workload, "--seed", "1", "--traced"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    layers = result["layers"]
    silent = [name for name in load_tracing().MUST_FIRE[workload]
              if layers.get(name, [0])[0] == 0]
    assert silent == []


def test_traced_search_cycle_fires_every_required_layer(tmp_path):
    check_traced_cycle(tmp_path, "search")


def test_traced_catalog_cycle_fires_every_required_layer(tmp_path):
    check_traced_cycle(tmp_path, "catalog")
