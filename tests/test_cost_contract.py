"""The cost contract: exact call and work counts of one traced pass per benchmark workload.

Timings are noisy; call counts are exact.  The benchmark's own tracer
(``bench/tracer.py``) runs seed 11's first items of each workload in
``bench/workloads.py`` and the counts of that pass must equal the table in
``cost_contract.json`` next to this file: a count that grows is a cost
regression, and a count that drops is a gain that updates the table in the
same change.  Rewrite the table with
``PYTHONPATH=src python3 tests/test_cost_contract.py`` from the repository
root.  Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import bellrand
import bellrand.cli  # noqa: F401  (the workloads call bellrand.cli)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TABLE = Path(__file__).with_name("cost_contract.json")
SEED = 11
ITEMS = {"angle_grid": (0,), "single_angle_calls": (0, 1, 2, 3), "random_attack": (0,)}


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_costs() -> dict:
    """Per workload, the `calls` and `counts` of `summarize` over its traced items."""
    tr, workloads = load_bench("tracer"), load_bench("workloads")
    costs = {}
    for name, items in ITEMS.items():
        wl = workloads.WORKLOADS[name](bellrand, SEED)
        tracer = tr.Tracer()
        with tr.patched(tracer, bellrand):
            for k in items:
                inp = wl.inputs(k)
                with tracer.root(k):
                    wl.run(inp)
        summary = tr.summarize(tracer.spans, tracer.counts)
        costs[name] = {"calls": summary["calls"], "counts": summary["counts"]}
    return costs


def test_costs_match_the_table():
    assert traced_costs() == json.loads(TABLE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    TABLE.write_text(json.dumps(traced_costs(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
