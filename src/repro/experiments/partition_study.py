"""Extension study: cache partitioning vs. theft contention.

The paper positions thefts as the direct signal of LLC contention and its
related work covers the partitioning schemes built to suppress them
(Section VII-d). This study closes the loop: run a victim/aggressor pair
under four LLC management schemes — unpartitioned sharing, static even way
partitioning, UCP, and CASHT-style theft-driven partitioning — and compare
thefts, per-workload weighted IPC, and system throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.throughput import throughput_report
from repro.experiments.reporting import format_table
from repro.sim import SimulationResult

#: Default victim/aggressor pair: an LLC-bound workload with real reuse vs a
#: streaming cache-flooder.
DEFAULT_PAIR = ("450.soplex", "470.lbm")
SCHEMES = ("shared", "static", "ucp", "casht")


@dataclass
class SchemeOutcome:
    """One scheme's per-core results and throughput summary."""

    scheme: str
    results: List[SimulationResult]
    throughput: Dict[str, float]
    #: Per-core weighted IPC: co-run IPC over the core's isolated IPC.
    weighted_ipcs: List[float]
    final_quotas: Dict[int, int] = field(default_factory=dict)

    @property
    def victim_thefts(self) -> int:
        return self.results[0].thefts_experienced

    def throughput_component(self, core: int) -> float:
        return self.weighted_ipcs[core]


@dataclass
class PartitionStudyResult:
    """Theft and throughput outcomes for every partitioning scheme."""
    workloads: Tuple[str, str]
    outcomes: Dict[str, SchemeOutcome]

    def outcome(self, scheme: str) -> SchemeOutcome:
        return self.outcomes[scheme]


def outcome_from_results(
    scheme: str,
    results: List[SimulationResult],
    isolations: List[SimulationResult],
    final_quotas: Dict[int, int],
) -> SchemeOutcome:
    """Build one scheme's outcome from its per-core and isolation results.

    Called by the artifact registry's aggregate phase, once per scheme.
    The results are the registry's shared campaign results, so they are
    only read.
    """
    return SchemeOutcome(
        scheme=scheme,
        results=results,
        throughput=throughput_report(results, isolations),
        weighted_ipcs=[shared.ipc / alone.ipc
                       for shared, alone in zip(results, isolations)],
        final_quotas=final_quotas,
    )


def format_report(result: PartitionStudyResult) -> str:
    """Render the partitioning comparison table."""
    victim_name, aggressor_name = result.workloads
    rows = []
    for scheme, outcome in result.outcomes.items():
        quotas = (f"{outcome.final_quotas.get(0)}/{outcome.final_quotas.get(1)}"
                  if outcome.final_quotas else "-")
        rows.append((
            scheme,
            outcome.victim_thefts,
            outcome.throughput_component(0),
            outcome.throughput_component(1),
            outcome.throughput["weighted_speedup"],
            outcome.throughput["fairness"],
            quotas,
        ))
    return format_table(
        ["Scheme", "victim thefts", "victim wIPC", "aggr. wIPC",
         "wSpeedup", "fairness", "quotas"],
        rows,
        title=(f"Partitioning study: {victim_name} (victim) vs "
               f"{aggressor_name} (aggressor)"),
    )
