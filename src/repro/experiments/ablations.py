"""Ablation studies of PInTE's design choices (DESIGN.md Section 6).

Four ablations, each isolating one knob of the engine:

* **promote-invalid** — disable the Fig 2b "mocked theft" (promotion of
  already-invalid ways) and measure how the induced contention and the
  victim's response change.
* **max-evictions** — cap the per-trigger ``Blocks_evict`` draw below the
  associativity bound and sweep the cap.
* **trigger mode** — the paper's per-access trigger vs the periodic
  independent-module extension, on a core-bound and an LLC-bound workload.
* **dram-background** — PInTE alone vs PInTE + synthetic DRAM traffic on a
  DRAM-bound workload (the paper's suggested complement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.config import MachineConfig
from repro.core import PinteConfig
from repro.experiments.reporting import format_table
from repro.sim import ExperimentScale, SimulationResult, simulate
from repro.trace import build_trace, get_workload


@dataclass
class AblationResult:
    """One ablation: variant label -> result, plus the baselines."""

    name: str
    workload: str
    isolation: SimulationResult
    variants: Dict[str, SimulationResult] = field(default_factory=dict)

    def weighted_ipc(self, label: str) -> float:
        return self.variants[label].ipc / self.isolation.ipc

    def rows(self) -> List[tuple]:
        return [
            (label,
             self.weighted_ipc(label),
             result.miss_rate,
             result.contention_rate,
             result.interference_rate)
            for label, result in self.variants.items()
        ]


def _trace(workload: str, config: MachineConfig, scale: ExperimentScale):
    """``workload``'s trace at the scale's length and seed."""
    return build_trace(get_workload(workload), scale.trace_length,
                       scale.seed, config.llc.size)


def _run(trace, config, scale, pinte) -> SimulationResult:
    return simulate(trace, config, pinte=pinte,
                    warmup_instructions=scale.warmup_instructions,
                    sim_instructions=scale.sim_instructions,
                    sample_interval=scale.sample_interval, seed=scale.seed)


def run_promote_invalid_ablation(
    config: MachineConfig, scale: ExperimentScale,
    workload: str = "470.lbm", p_induce: float = 0.3,
) -> AblationResult:
    """Mocked thefts on vs off at the same ``P_induce``."""
    trace = _trace(workload, config, scale)
    result = AblationResult(
        name="promote_invalid", workload=workload,
        isolation=_run(trace, config, scale, None),
    )
    result.variants["promote-invalid ON (paper)"] = _run(
        trace, config, scale, PinteConfig(p_induce, seed=scale.seed))
    result.variants["promote-invalid OFF"] = _run(
        trace, config, scale,
        PinteConfig(p_induce, promote_invalid=False, seed=scale.seed))
    return result


def run_max_evictions_ablation(
    config: MachineConfig, scale: ExperimentScale,
    workload: str = "450.soplex", p_induce: float = 0.5,
    caps: Sequence[int] = (1, 2, 4, 8, 0),
) -> AblationResult:
    """Sweep the per-trigger eviction cap (0 = associativity, the paper)."""
    trace = _trace(workload, config, scale)
    result = AblationResult(
        name="max_evictions", workload=workload,
        isolation=_run(trace, config, scale, None),
    )
    for cap in caps:
        label = f"cap={cap or config.llc.assoc}" + ("" if cap else " (paper)")
        result.variants[label] = _run(
            trace, config, scale,
            PinteConfig(p_induce, max_evictions=cap, seed=scale.seed))
    return result


def run_trigger_mode_ablation(
    config: MachineConfig, scale: ExperimentScale,
    workloads: Sequence[str] = ("638.imagick", "470.lbm"),
    p_induce: float = 1.0, period_cycles: int = 200,
) -> List[AblationResult]:
    """Per-access vs periodic trigger on contrasting workload classes."""
    results = []
    for workload in workloads:
        trace = _trace(workload, config, scale)
        result = AblationResult(
            name="trigger_mode", workload=workload,
            isolation=_run(trace, config, scale, None),
        )
        result.variants["per-access (paper)"] = _run(
            trace, config, scale, PinteConfig(p_induce, seed=scale.seed))
        result.variants["periodic"] = _run(
            trace, config, scale,
            PinteConfig(p_induce, trigger="periodic",
                        period_cycles=period_cycles, seed=scale.seed))
        results.append(result)
    return results


def run_dram_background_ablation(
    config: MachineConfig, scale: ExperimentScale,
    workload: str = "429.mcf", p_induce: float = 0.3,
    rates: Sequence[float] = (0.0, 25.0, 50.0, 100.0),
) -> AblationResult:
    """PInTE with increasing synthetic DRAM pressure."""
    trace = _trace(workload, config, scale)
    result = AblationResult(
        name="dram_background", workload=workload,
        isolation=_run(trace, config, scale, None),
    )
    for rate in rates:
        label = f"{rate:g} req/kcycle" + (" (paper)" if rate == 0 else "")
        result.variants[label] = _run(
            trace, config, scale,
            PinteConfig(p_induce, dram_background_rpkc=rate, seed=scale.seed))
    return result


def format_report(result: AblationResult) -> str:
    """Render every ablation's table in one report."""
    return format_table(
        ["Variant", "wIPC", "MR", "contention", "interference"],
        result.rows(),
        title=(f"Ablation {result.name} on {result.workload} "
               f"(isolation IPC {result.isolation.ipc:.4f})"),
    )
