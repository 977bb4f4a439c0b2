"""Workload characterisation: measure a model's behaviour class empirically.

The SPEC-like models in :mod:`repro.trace.spec_models` *declare* a behaviour
class; this module measures one from an isolation run (MPKI profile, AMAT
position relative to the cache latencies, memory intensity) so tests and
users can verify that a workload actually behaves as labelled on a given
machine — the same taxonomy the paper uses to explain its Table II error
structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineConfig
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate
from repro.trace.packed import PackedTrace
from repro.trace.spec_models import (
    CACHE_FRIENDLY,
    CORE_BOUND,
    DRAM_BOUND,
    LLC_BOUND,
)

#: A workload is memory-relevant at LLC only above this many LLC accesses
#: per kilo-instruction.
LLC_APKI_FLOOR = 1.0


@dataclass(frozen=True)
class WorkloadProfile:
    """Measured isolation-run fingerprint of one workload."""

    name: str
    ipc: float
    amat: float
    l1d_miss_rate: float
    l2_mpki: float
    llc_mpki: float
    llc_apki: float  # LLC accesses per kilo-instruction
    llc_miss_rate: float
    branch_accuracy: float
    occupancy: float

    def inferred_class(self, config: MachineConfig) -> str:
        """Empirical behaviour class on ``config``.

        Mirrors the paper's reading of Table II: rare LLC accesses mean
        core-bound; AMAT near DRAM latency with a high LLC miss rate means
        DRAM-bound; substantial LLC hit traffic with meaningful occupancy
        means LLC-bound; everything else is cache-friendly.
        """
        if self.llc_apki < LLC_APKI_FLOOR:
            return CORE_BOUND
        dram_floor = config.llc.latency + config.dram.row_hit_latency
        if self.llc_miss_rate > 0.8 and self.amat > dram_floor * 0.5:
            return DRAM_BOUND
        if self.occupancy > 0.25 or self.llc_miss_rate > 0.2:
            return LLC_BOUND
        return CACHE_FRIENDLY


def profile_from_result(result: SimulationResult) -> WorkloadProfile:
    """Build a profile from an existing isolation result."""
    instructions = max(1, result.instructions)
    return WorkloadProfile(
        name=result.trace_name,
        ipc=result.ipc,
        amat=result.amat,
        l1d_miss_rate=result.l1d_miss_rate,
        l2_mpki=result.l2_mpki,
        llc_mpki=result.llc_mpki,
        llc_apki=1000.0 * result.llc_accesses / instructions,
        llc_miss_rate=result.miss_rate,
        branch_accuracy=result.branch_accuracy,
        occupancy=result.occupancy,
    )


def characterize(trace: PackedTrace, config: MachineConfig,
                 warmup_instructions: int = 10_000,
                 sim_instructions: int = 30_000,
                 seed: int = 1) -> WorkloadProfile:
    """Run one isolation simulation and summarise it."""
    result = simulate(trace, config, warmup_instructions=warmup_instructions,
                      sim_instructions=sim_instructions, seed=seed)
    return profile_from_result(result)
