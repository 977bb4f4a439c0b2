"""Simulation hosts: single-core, PInTE, 2nd-Trace and multi-programmed."""

from repro.sim.characterize import (
    WorkloadProfile,
    characterize,
    profile_from_result,
)
from repro.sim.multicore import all_pairs, simulate_multiprogrammed, simulate_pair
from repro.sim.results import SAMPLE_METRICS, Sample, SimulationResult
from repro.sim.runner import (
    BENCH_SCALE,
    ExperimentScale,
    TEST_SCALE,
    TraceLibrary,
    adversary_panel,
)
from repro.sim.simulator import DEFAULT_SAMPLE_INTERVAL, simulate

__all__ = [
    "BENCH_SCALE",
    "DEFAULT_SAMPLE_INTERVAL",
    "ExperimentScale",
    "SAMPLE_METRICS",
    "Sample",
    "SimulationResult",
    "TEST_SCALE",
    "TraceLibrary",
    "WorkloadProfile",
    "adversary_panel",
    "all_pairs",
    "characterize",
    "profile_from_result",
    "simulate",
    "simulate_multiprogrammed",
    "simulate_pair",
]
