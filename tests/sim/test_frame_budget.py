"""The hosts' pinned Python-call budget (``scripts/frame_budget.py``).

Interpreter frames are most of a simulated instruction's host cost, and how
many the per-access path makes is exact for a fixed run. This test pins the
``repro`` calls per perfbench layer for a small ``simulate_pair`` run, a
small ``simulate(pinte=...)`` run and the same PInTE run with event tracing
on, so any added or removed call on that path shows up here. The first two
run with observation off and so pin what the hooks cost when nothing
observes; the third pins what tracing costs and how many events it records.
A fourth, an inline campaign of the 12-point PInTE sweep, pins what the
private-stream memo saves: one private stage replayed through twelve shared
stages. A fifth, a small cache-only replay under PInTE, pins the calls of
that host per trace record. After an intended change, re-pin with
``PYTHONPATH=src python scripts/frame_budget.py --update``.
"""

import json
import sys
from pathlib import Path

from collections import Counter

import pytest

from repro.config import scaled_config
from repro.sim.batch import run_job
from repro.trace.store import MemoryTraceStore

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
    assert frame_budget.work(measured) == frame_budget.work(PINNED[workload])
    assert measured["calls"] == PINNED[workload]["calls"], (
        "per-layer repro calls moved; if intended, re-pin with "
        "`PYTHONPATH=src python scripts/frame_budget.py --update`")
    assert measured.get("events") == PINNED[workload].get("events")


def test_budget_covers_the_per_access_layers():
    # Every timing run reaches the cache data path; only the PInTE runs the
    # engine. The cache-only replay has no private hierarchy and no DRAM.
    for name, counts in PINNED.items():
        layers = (("cache", "replacement", "pinte") if name == "replay" else
                  ("cache", "replacement", "hierarchy", "tracker", "dram"))
        for layer in layers:
            assert counts["calls"][layer] > 0, (name, layer)
    assert PINNED["pinte"]["calls"]["pinte"] > 0
    assert "pinte" not in PINNED["pair"]["calls"]
    assert "hierarchy" not in PINNED["replay"]["calls"]
    assert "dram" not in PINNED["replay"]["calls"]


def test_traced_run_records_events():
    # Same run, same instructions; tracing records events and costs obs
    # calls, while the untraced runs record none.
    traced, plain = PINNED["pinte-events"], PINNED["pinte"]
    assert traced["instructions"] == plain["instructions"]
    assert traced["events"] > 0
    assert traced["calls"]["obs"] > plain["calls"]["obs"]
    assert "events" not in plain and "events" not in PINNED["pair"]


def test_sweep_runs_one_private_stage_and_every_shared_stage():
    # The memoised sweep replays one private stage through 12 shared
    # stages: its engine, tracker, DRAM and replacement calls are exactly
    # those of the 12 runs alone (the private LRU levels keep no policy,
    # so only the LLC calls one), while the private levels run about once.
    config = scaled_config()
    traces = MemoryTraceStore()
    alone: Counter = Counter()
    for job in frame_budget.SWEEP_JOBS:
        _result, calls = frame_budget.profile_calls(
            lambda: [run_job(job, config, frame_budget.SWEEP_SCALE,
                             trace_store=traces)])
        alone.update(calls)
    sweep = PINNED["pinte-sweep"]["calls"]
    for layer in ("pinte", "tracker", "dram", "replacement"):
        assert sweep[layer] == alone[layer], layer
    runs = len(frame_budget.SWEEP_JOBS)
    assert sweep["branch"] < 2 * alone["branch"] / runs
    for layer in ("cache", "hierarchy"):
        assert sweep[layer] < alone[layer] * 2 / 3, layer
