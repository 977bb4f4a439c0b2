"""Pinned Python-call budget of the hosts, per unit of simulated work.

Runs five small fixed calls under the stdlib ``cProfile``:

* ``pair``: ``simulate_pair(470.lbm, 450.soplex)``, the 2nd-Trace host
  (two cores, the multicore scheduler, natural thefts);
* ``pinte``: ``simulate(470.lbm, pinte=PinteConfig(0.1))``, the PInTE host;
* ``pinte-events``: the same ``pinte`` run with event tracing on
  (``observe=Observation.with_events()``), which also pins the number of
  events it records;
* ``pinte-sweep``: an inline ``run_campaign`` of the 12-point
  ``PAPER_PINDUCE_SWEEP`` on 470.lbm, whose jobs replay one memoised
  private stage (``repro.sim.private``): its ``pinte``, ``tracker`` and
  ``dram`` calls are those of the 12 runs alone, its ``cache``,
  ``branch`` and ``replacement`` calls close to one run's private stage;
* ``replay``: ``simulate_cache_only(450.soplex, pinte=PinteConfig(0.1))``,
  the cache-only host (L2-sized filter, LLC, replacement and PInTE only).
  ``FastCacheResult`` has no instruction count, so its unit is trace
  records, not instructions;

and counts the calls of Python functions defined in the ``repro`` package,
folded into the layers of ``perfbench/layers.py``. A ``repro`` module in no
layer (``util/``, ``prefetch/``, ...) counts as ``other``. Comprehension
frames (``<listcomp>``, ``<dictcomp>``, ``<setcomp>``) are left out: Python
3.12 inlines them, so the counts agree on 3.10-3.12. Built-ins are not
counted. ``pair`` and ``pinte`` run with observation off, so their counts
are the cost of the hooks when nothing observes; ``pinte-events`` minus
``pinte`` is the cost of tracing. The simulation is deterministic, so the
counts are exact;
``tests/sim/test_frame_budget.py`` pins them against
``tests/golden/frame_budget.json``.

Usage::

    PYTHONPATH=src python scripts/frame_budget.py                # compare
    PYTHONPATH=src python scripts/frame_budget.py --update       # re-pin
    PYTHONPATH=src python scripts/frame_budget.py -o counts.json # save

Without ``--update`` the exit status is 1 when a count differs from the
pinned file. Re-pin only for an intended change to the per-access path,
and say in the change's description which counts moved and why.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import json
import os
import pstats
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

import repro
from repro.campaign import run_campaign
from repro.config import scaled_config
from repro.core import PAPER_PINDUCE_SWEEP, PinteConfig
from repro.obs import Observation
from repro.sim import ExperimentScale
from repro.sim.batch import Job
from repro.sim.fastcache import simulate_cache_only
from repro.sim.multicore import simulate_pair
from repro.sim.simulator import simulate
from repro.trace import build_trace, get_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
PINNED = REPO_ROOT / "tests" / "golden" / "frame_budget.json"


def _load_layers():
    """``perfbench/layers.py``, the one module-to-layer map."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", REPO_ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layer_of = _load_layers().layer_of

#: Frames Python 3.12 no longer creates (PEP 709), so never counted.
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
#: Simulated instructions per call: small enough for the tier-1 suite,
#: large enough that every layer of the per-access path runs.
PAIR_INSTRUCTIONS = 3_000
PINTE_INSTRUCTIONS = 5_000
SEED = 1
#: Each ``pinte-sweep`` job: warm-up + measured instructions.
SWEEP_SCALE = ExperimentScale(warmup_instructions=500, sim_instructions=1_500,
                              sample_interval=500, seed=SEED)
SWEEP_JOBS = tuple(Job("470.lbm", mode="pinte", p_induce=p)
                   for p in PAPER_PINDUCE_SWEEP)
#: Trace records of the ``replay`` call (its unit of work).
REPLAY_RECORDS = 5_000

_PACKAGE = str(Path(repro.__file__).resolve().parent) + os.sep


def _pair(config):
    primary = build_trace(get_workload("470.lbm"), PAIR_INSTRUCTIONS, SEED,
                          config.llc.size)
    secondary = build_trace(get_workload("450.soplex"), PAIR_INSTRUCTIONS,
                            SEED + 1, config.llc.size)
    return (lambda: [simulate_pair(primary, secondary, config,
                                   sim_instructions=PAIR_INSTRUCTIONS,
                                   seed=SEED, return_secondary=True)]), None


def _pinte(config, observe: Optional[Observation] = None):
    trace = build_trace(get_workload("470.lbm"), PINTE_INSTRUCTIONS, SEED,
                        config.llc.size)
    return (lambda: [simulate(trace, config, pinte=PinteConfig(0.1, seed=SEED),
                              sim_instructions=PINTE_INSTRUCTIONS, seed=SEED,
                              observe=observe)]), observe


def _pinte_events(config):
    return _pinte(config, Observation.with_events())


def _pinte_sweep(config):
    # The inline campaign serves every job's trace from its own memo.
    return (lambda: run_campaign(SWEEP_JOBS, config, SWEEP_SCALE,
                                 processes=1).results), None


def _replay(config):
    trace = build_trace(get_workload("450.soplex"), REPLAY_RECORDS, SEED,
                        config.llc.size)
    return (lambda: [simulate_cache_only(
        trace, config, pinte=PinteConfig(0.1, seed=SEED), seed=SEED)]), None


#: Each factory returns the call to profile (it returns a list of results)
#: and the observation it records into (None when observation is off).
WORKLOADS = {"pair": _pair, "pinte": _pinte, "pinte-events": _pinte_events,
             "pinte-sweep": _pinte_sweep, "replay": _replay}


def profile_calls(call):
    """``call()``'s result and its ``repro`` calls per layer."""
    profiler = cProfile.Profile()
    profiler.enable()
    result = call()
    profiler.disable()
    calls: Dict[str, int] = {}
    for (filename, _line, function), (_cc, ncalls, *_rest) in pstats.Stats(
            profiler).stats.items():
        if (function in INLINED
                or not os.path.realpath(filename).startswith(_PACKAGE)):
            continue
        layer = layer_of(filename)
        calls[layer] = calls.get(layer, 0) + ncalls
    return result, dict(sorted(calls.items()))


def measure(name: str) -> Dict[str, object]:
    """One workload's work (instructions of all cores, or trace records on
    the cache-only host), ``repro`` calls per layer and, when it traces
    events, the events recorded, from a fresh profiled call."""
    call, observe = WORKLOADS[name](scaled_config())
    results, calls = profile_calls(call)
    if name == "replay":
        counts = {"records": REPLAY_RECORDS * len(results), "calls": calls}
    else:
        instructions = sum(
            result.instructions
            + int(result.extra.get("secondary_instructions", 0))
            for result in results)
        counts = {"instructions": instructions, "calls": calls}
    if observe is not None:
        counts["events"] = observe.events.recorded
    return counts


def measure_all() -> Dict[str, Dict[str, object]]:
    """Every workload's counts, keyed by workload name."""
    return {name: measure(name) for name in WORKLOADS}


def work(counts: Dict[str, object]) -> Tuple[str, int]:
    """The unit a workload's calls are counted per, and how many it did."""
    unit = "records" if "records" in counts else "instructions"
    return unit, counts[unit]


def per_unit(counts: Dict[str, object]) -> Dict[str, float]:
    """Calls per unit of work, per layer and in ``total``."""
    _unit, done = work(counts)
    figures = {layer: calls / done
               for layer, calls in counts["calls"].items()}
    figures["total"] = sum(counts["calls"].values()) / done
    return figures


def _report(measured, pinned) -> bool:
    """Print measured vs pinned calls per unit of work; True when equal."""
    same = True
    for name, counts in measured.items():
        reference = pinned.get(name)
        unit, done = work(counts)
        print(f"{name}: {done} {unit}")
        if "events" in counts:
            before_events = (reference or {}).get("events")
            mark = "" if counts["events"] == before_events else "  (changed)"
            print(f"  {'events':12s} {counts['events']:8d} recorded"
                  f"  pinned {before_events}{mark}")
        now = per_unit(counts)
        before = per_unit(reference) if reference else {}
        for layer in sorted(set(now) | set(before)):
            mark = "" if now.get(layer) == before.get(layer) else "  (changed)"
            print(f"  {layer:12s} {now.get(layer, 0.0):8.3f}"
                  f" per {unit[:-1]}"
                  f"  pinned {before.get(layer, 0.0):8.3f}{mark}")
        same = same and counts == reference
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {PINNED.relative_to(REPO_ROOT)}")
    parser.add_argument("-o", "--output", type=Path,
                        help="also write the measured counts to this file")
    args = parser.parse_args(argv)
    measured = measure_all()
    text = json.dumps(measured, indent=1, sort_keys=True) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    same = _report(measured, pinned)
    if args.update:
        PINNED.write_text(text)
        print(f"wrote {PINNED.relative_to(REPO_ROOT)}")
        return 0
    if not same:
        print("calls differ from the pinned budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
