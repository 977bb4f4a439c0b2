"""The timing hosts' pinned Python-call budget (``scripts/frame_budget.py``).

Interpreter frames are most of a simulated instruction's host cost, and how
many the per-access path makes is exact for a fixed run. This test pins the
``repro`` calls per perfbench layer for a small ``simulate_pair`` run, a
small ``simulate(pinte=...)`` run and the same PInTE run with event tracing
on, so any added or removed call on that path shows up here. The first two
run with observation off and so pin what the hooks cost when nothing
observes; the third pins what tracing costs and how many events it records.
After an intended change, re-pin with
``PYTHONPATH=src python scripts/frame_budget.py --update``.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

sys.path.insert(0, str(REPO_ROOT / "scripts"))
try:
    import frame_budget
finally:
    sys.path.pop(0)

PINNED = json.loads(frame_budget.PINNED.read_text())


@pytest.mark.parametrize("workload", sorted(frame_budget.WORKLOADS))
def test_calls_per_layer_match_the_pinned_budget(workload):
    measured = frame_budget.measure(workload)
    assert measured["instructions"] == PINNED[workload]["instructions"]
    assert measured["calls"] == PINNED[workload]["calls"], (
        "per-layer repro calls moved; if intended, re-pin with "
        "`PYTHONPATH=src python scripts/frame_budget.py --update`")
    assert measured.get("events") == PINNED[workload].get("events")


def test_budget_covers_the_per_access_layers():
    # Both runs reach the cache data path; only the PInTE run the engine.
    for counts in PINNED.values():
        for layer in ("cache", "replacement", "hierarchy", "tracker", "dram"):
            assert counts["calls"][layer] > 0, layer
    assert PINNED["pinte"]["calls"]["pinte"] > 0
    assert "pinte" not in PINNED["pair"]["calls"]


def test_traced_run_records_events():
    # Same run, same instructions; tracing records events and costs obs
    # calls, while the untraced runs record none.
    traced, plain = PINNED["pinte-events"], PINNED["pinte"]
    assert traced["instructions"] == plain["instructions"]
    assert traced["events"] > 0
    assert traced["calls"]["obs"] > plain["calls"]["obs"]
    assert "events" not in plain and "events" not in PINNED["pair"]
