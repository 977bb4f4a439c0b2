"""PInTE configuration.

``P_induce`` is the probability, per LLC access, that the engine injects a
burst of contention into the accessed set (paper Section IV-C). The paper
sweeps 12 configurations per trace; :data:`PAPER_PINDUCE_SWEEP` reproduces a
12-point sweep spanning the same 0-100% contention range, including the
``7.5`` and ``70`` (percent) break-points called out in the Fig 11 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serde import ConfigSerde

#: 12 P_induce settings (probabilities), the paper's per-trace sweep size.
PAPER_PINDUCE_SWEEP = (
    0.01, 0.025, 0.05, 0.075, 0.10, 0.20, 0.30, 0.40, 0.50, 0.70, 0.85, 1.0,
)


#: Trigger modes: the paper's per-LLC-access hook, or the "independent
#: PInTE module" its Section IV-E2b sketches for core-bound workloads.
TRIGGER_PER_ACCESS = "per-access"
TRIGGER_PERIODIC = "periodic"
TRIGGER_MODES = (TRIGGER_PER_ACCESS, TRIGGER_PERIODIC)


@dataclass(frozen=True)
class PinteConfig(ConfigSerde):
    """Knobs for the PInTE engine.

    Attributes:
        p_induce: per-trigger-opportunity probability in [0, 1] (the Eq. 2
            threshold). In ``per-access`` mode an opportunity is one LLC
            demand access; in ``periodic`` mode it is one elapsed period.
        max_evictions: upper bound for the per-trigger eviction-count draw;
            defaults to the LLC associativity when 0 (the paper bounds
            ``Blocks_evict`` by associativity).
        promote_invalid: whether PROMOTE also runs on invalid blocks
            ("mocking a theft" by inserting on a previously invalidated
            block — Fig 2b). Disabling this is an ablation, not the paper's
            configuration.
        seed: RNG seed for the trigger/eviction-count streams.
        trigger: ``per-access`` (the paper's design) or ``periodic`` (the
            independent-module extension: fires every ``period_cycles``
            regardless of the workload's LLC activity, reaching core-bound
            workloads whose LLC accesses are too rare to trigger on).
        period_cycles: trigger-opportunity spacing for ``periodic`` mode.
        dram_background_rpkc: background DRAM requests per kilocycle injected
            into the shared channels — the "increasing DRAM access costs
            could complement this" extension for DRAM-bound workloads.
            0 disables the injector (the paper's configuration).
    """

    p_induce: float
    max_evictions: int = 0  # 0 means "use LLC associativity"
    promote_invalid: bool = True
    seed: int = 0
    trigger: str = TRIGGER_PER_ACCESS
    period_cycles: int = 1000
    dram_background_rpkc: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_induce <= 1.0:
            raise ValueError(f"p_induce must be in [0, 1], got {self.p_induce}")
        for name in ("max_evictions", "period_cycles"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.max_evictions < 0:
            raise ValueError("max_evictions must be non-negative")
        if self.trigger not in TRIGGER_MODES:
            raise ValueError(f"trigger must be one of {TRIGGER_MODES}, "
                             f"got {self.trigger!r}")
        if self.period_cycles <= 0:
            raise ValueError("period_cycles must be positive")
        if self.dram_background_rpkc < 0:
            raise ValueError("dram_background_rpkc must be non-negative")
