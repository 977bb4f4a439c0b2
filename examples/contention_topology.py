#!/usr/bin/env python3
"""Where does contention land? PInTE vs a real co-runner, spatially.

Runs the same victim under (a) PInTE and (b) a streaming co-runner with an
event trace attached, counts per LLC set the victim's blocks lost to
thefts (PInTE's ``theft`` events, and ``evict`` events with cause
``theft`` when the co-runner's fill displaced one) and prints the spatial
distribution of contention: coverage (sets touched), entropy (blanketing
vs targeting) and the hottest sets. This visualises the paper's design
point — PInTE triggers on the *victim's own accesses*, so induced thefts
track the victim's hot sets instead of blanketing the cache like
tune-able adversary workloads do.

Usage::

    python examples/contention_topology.py [victim] [adversary]
"""

import sys

from repro import PinteConfig, build_trace, get_workload, scaled_config
from repro.analysis.topology import TheftTopology
from repro.obs import Observation
from repro.sim import simulate_pair
from repro.sim.simulator import simulate

WARMUP, MEASURE = 4_000, 12_000


def describe(topology, label: str) -> None:
    print(f"\n{label}")
    print(f"  thefts recorded : {topology.total}")
    print(f"  set coverage    : {topology.coverage():.0%} of "
          f"{topology.n_sets} sets")
    print(f"  entropy         : {topology.entropy():.3f} "
          f"(1.0 = uniform blanket, 0 = single hot set)")
    buckets = topology.histogram(buckets=8)
    peak = max(buckets) or 1
    for index, count in enumerate(buckets):
        bar = "#" * int(30 * count / peak)
        print(f"  sets {index * topology.n_sets // 8:3d}-"
              f"{(index + 1) * topology.n_sets // 8 - 1:3d} |{bar} {count}")


def victim_topology(observe, n_sets: int) -> TheftTopology:
    """The victim's (core 0's) thefts among a finished run's events."""
    events = observe.events
    if events.dropped:
        print(f"  ({events.dropped} oldest events fell off the ring)")
    return TheftTopology.from_events(events.events(), n_sets, owner=0)


def main() -> None:
    victim_name = sys.argv[1] if len(sys.argv) > 1 else "450.soplex"
    adversary_name = sys.argv[2] if len(sys.argv) > 2 else "470.lbm"
    config = scaled_config()
    n_sets = config.llc.size // (config.llc.assoc * config.block_size)
    victim = build_trace(get_workload(victim_name), WARMUP + MEASURE, 1,
                         config.llc.size)
    adversary = build_trace(get_workload(adversary_name), WARMUP + MEASURE, 2,
                            config.llc.size)
    print(f"victim: {victim_name}  adversary: {adversary_name}  "
          f"LLC: {config.llc.size // 1024} KB / {n_sets} sets")

    observe = Observation.with_events()
    simulate(victim, config, pinte=PinteConfig(p_induce=0.3, seed=1),
             warmup_instructions=WARMUP, sim_instructions=MEASURE,
             observe=observe)
    describe(victim_topology(observe, n_sets),
             f"PInTE p=0.3 thefts of {victim_name}")

    observe = Observation.with_events()
    simulate_pair(victim, adversary, config, warmup_instructions=WARMUP,
                  sim_instructions=MEASURE, observe=observe)
    describe(victim_topology(observe, n_sets),
             f"2nd-Trace ({adversary_name}) thefts of {victim_name}")


if __name__ == "__main__":
    main()
