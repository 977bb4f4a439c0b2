"""repro — a full reproduction of *PInTE: Probabilistic Induction of Theft
Evictions* (Gomes, Chen & Hempstead, IISWC 2022).

The package bundles:

* the PInTE engine itself (:mod:`repro.core`) — probabilistic injection of
  inter-core "theft" evictions into a last-level cache;
* the simulation substrate it needs (:mod:`repro.cache`, :mod:`repro.cpu`,
  :mod:`repro.dram`, :mod:`repro.branch`, :mod:`repro.prefetch`,
  :mod:`repro.trace`) — a ChampSim-style trace-driven multi-core simulator
  written from scratch in Python;
* the drivers (:mod:`repro.sim`) for isolation, PInTE and 2nd-Trace runs;
* the analysis toolkit (:mod:`repro.analysis`) implementing the paper's
  equations (weighted IPC, relative error, KL divergence, CRG, C²AFE,
  sensitivity classes, change-in-occupancy);
* one experiment driver per paper table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro import (scaled_config, get_workload, build_trace,
                       simulate, PinteConfig)

    config = scaled_config()
    trace = build_trace(get_workload("470.lbm"), 50_000, seed=1,
                        llc_bytes=config.llc.size)
    isolation = simulate(trace, config, warmup_instructions=10_000)
    contended = simulate(trace, config, pinte=PinteConfig(p_induce=0.5),
                         warmup_instructions=10_000)
    print(contended.ipc / isolation.ipc)  # weighted IPC under contention
"""

from repro.analysis import (
    kl_divergence,
    relative_error,
    series_kl,
    weighted_ipc,
)
from repro.config import (
    CacheLevelConfig,
    CoreConfig,
    MachineConfig,
    scaled_config,
    skylake_config,
    xeon_config,
)
from repro.core import (
    PAPER_PINDUCE_SWEEP,
    ContentionCounters,
    ContentionTracker,
    PInTE,
    PinteConfig,
)
from repro.owners import SYSTEM_OWNER
from repro.sim import (
    BENCH_SCALE,
    ExperimentScale,
    SimulationResult,
    TEST_SCALE,
    TraceLibrary,
    simulate,
    simulate_pair,
)
from repro.trace import (
    SPEC_WORKLOADS,
    Trace,
    TraceRecord,
    WorkloadSpec,
    build_trace,
    get_workload,
    suite_names,
)

__version__ = "1.0.0"

__all__ = [
    "BENCH_SCALE",
    "CacheLevelConfig",
    "ContentionCounters",
    "ContentionTracker",
    "CoreConfig",
    "ExperimentScale",
    "MachineConfig",
    "PAPER_PINDUCE_SWEEP",
    "PInTE",
    "PinteConfig",
    "SPEC_WORKLOADS",
    "SYSTEM_OWNER",
    "SimulationResult",
    "TEST_SCALE",
    "Trace",
    "TraceLibrary",
    "TraceRecord",
    "WorkloadSpec",
    "build_trace",
    "get_workload",
    "kl_divergence",
    "relative_error",
    "scaled_config",
    "series_kl",
    "simulate",
    "simulate_pair",
    "skylake_config",
    "suite_names",
    "weighted_ipc",
    "xeon_config",
    "__version__",
]
