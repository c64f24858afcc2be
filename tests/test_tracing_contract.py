"""The benchmark's span tracer must still see every layer it relies on.

perfbench/tracing.py wraps lsacat's public functions by replacing module
attributes, so a call that stops going through one (a module-level name
bound some other way, or a layer that is skipped) silently drops its
spans.  One traced cycle of each workload must report no problem and
count calls for every name in that workload's tracing.MUST_FIRE entry.
The same cycle's operation counts must match the cost ledger
(golden_cost.py) line by line."""

from pathlib import Path

import golden_cost

LEDGER = Path(__file__).with_name("data") / "cost_golden.txt"


def check_traced_cycle(tmp_path, workload):
    result = golden_cost.traced_cycle(workload, tmp_path)
    assert result["problems"] == []
    layers = result["layers"]
    silent = [name for name in golden_cost.load_tracing().MUST_FIRE[workload]
              if layers.get(name, [0])[0] == 0]
    assert silent == []
    want = [line for line in LEDGER.read_text().splitlines()
            if line.split()[0] == workload]
    assert want and list(golden_cost.ledger(workload, result)) == want


def test_traced_search_cycle_fires_every_required_layer(tmp_path):
    check_traced_cycle(tmp_path, "search")


def test_traced_catalog_cycle_fires_every_required_layer(tmp_path):
    check_traced_cycle(tmp_path, "catalog")


def test_traced_height_cycle_fires_every_required_layer(tmp_path):
    check_traced_cycle(tmp_path, "height")
