"""Machine configurations.

Three presets:

* :func:`skylake_config` — the paper's setup (Section III-A): Skylake-like,
  non-inclusive caches, 4 MB / 16-way LLC, 2-channel DRAM.
* :func:`scaled_config` — the same machine shrunk ~64x so the pure-Python
  simulator covers the paper's experiment matrix in minutes. Workload
  footprints are specified *relative to LLC capacity*
  (:class:`~repro.trace.spec_models.WorkloadSpec.footprint_factor`), so
  shrinking the machine preserves every workload's behaviour class.
* :func:`xeon_config` — the Fig 10 "real system" stand-in: bigger LLC with an
  RDT-style allocation cap and halved DRAM resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional

from repro.dram import DramConfig
from repro.serde import ConfigSerde

INCLUSION_POLICIES = ("non-inclusive", "inclusive", "exclusive")


@dataclass(frozen=True)
class CacheLevelConfig(ConfigSerde):
    """Geometry and policy for one cache level."""

    size: int
    assoc: int
    latency: int
    policy: str = "lru"
    prefetcher: str = "none"
    #: XOR-folded set indexing (real LLCs hash the index to de-skew
    #: power-of-two strides); off by default for transparent indexing.
    hash_index: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.latency <= 0:
            raise ValueError("cache size, associativity and latency must be positive")


#: Stores retire through a write buffer; their latency is overlapped far more
#: aggressively than loads.
STORE_OVERLAP = 8

#: The finest core clock tick: 1/65536 cycle.
MAX_TICKS_PER_CYCLE = 1 << 16


class TickTable(NamedTuple):
    """A core's costs in whole clock ticks, so its clock is exact in any
    summation order: ``per_cycle`` is lcm(issue_width, STORE_OVERLAP, the
    numerator of mlp); then one issue slot, one cycle of an overlapped
    load's and of a store's latency, and a branch flush. A stall that is
    not overlapped costs ``per_cycle`` per cycle."""

    per_cycle: int
    issue: int
    load: int
    store: int
    mispredict: int


@dataclass(frozen=True)
class CoreConfig(ConfigSerde):
    """Cycle-accounting core parameters. ``mlp`` counts as the decimal it
    is written as (``1.1`` is 11/10) in :attr:`tick_table`."""

    issue_width: int = 4
    mispredict_penalty: int = 15
    mlp: float = 4.0  # overlap factor for independent misses
    branch_predictor: str = "hashed_perceptron"

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ValueError("issue_width must be positive")
        if self.mlp < 1.0:
            raise ValueError("mlp must be >= 1 (1 = fully serialised)")
        if self.mispredict_penalty < 0:
            raise ValueError("mispredict_penalty must be non-negative")
        self.tick_table  # refuses a tick finer than the clock counts

    @cached_property
    def tick_table(self) -> TickTable:
        """This core's costs in clock ticks, derived once per config."""
        mlp = Fraction(str(self.mlp))
        per_cycle = lcm(self.issue_width, STORE_OVERLAP, mlp.numerator)
        if per_cycle > MAX_TICKS_PER_CYCLE:
            raise ValueError(
                f"mlp={self.mlp!r} ({mlp}) with issue_width="
                f"{self.issue_width} needs {per_cycle} clock ticks per "
                f"cycle; at most {MAX_TICKS_PER_CYCLE} are allowed")
        return TickTable(per_cycle, per_cycle // self.issue_width,
                         per_cycle * mlp.denominator // mlp.numerator,
                         per_cycle // STORE_OVERLAP,
                         per_cycle * self.mispredict_penalty)


@dataclass(frozen=True)
class MachineConfig(ConfigSerde):
    """Full machine: cache hierarchy + DRAM + core.

    Serializable via the :class:`~repro.serde.ConfigSerde` methods: the
    canonical dict carries a ``schema`` version tag and is what campaign
    job ids hash and manifests record (see :mod:`repro.configio`).
    """

    name: str
    block_size: int = 64
    l1i: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(32768, 8, 1))
    l1d: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(32768, 8, 4))
    l2: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(262144, 8, 12))
    llc: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(4194304, 16, 38, policy="rrip"))
    inclusion: str = "non-inclusive"
    dram: DramConfig = field(default_factory=DramConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    #: Optional RDT-style cap on how many LLC ways a workload may occupy
    #: (Fig 10 models a 10 MB allocation out of an 11 MB LLC).
    llc_way_allocation: Optional[int] = None

    def __post_init__(self) -> None:
        if self.inclusion not in INCLUSION_POLICIES:
            raise ValueError(
                f"inclusion must be one of {INCLUSION_POLICIES}, got {self.inclusion!r}"
            )
        if self.llc_way_allocation is not None and not (
            0 < self.llc_way_allocation <= self.llc.assoc
        ):
            raise ValueError("llc_way_allocation must be in (0, llc.assoc]")

    # -- convenience constructors for experiment sweeps ------------------------
    def with_llc_policy(self, policy: str) -> "MachineConfig":
        return replace(self, llc=replace(self.llc, policy=policy))

    def with_inclusion(self, inclusion: str) -> "MachineConfig":
        return replace(self, inclusion=inclusion)

    def with_prefetch_string(self, prefetch: str) -> "MachineConfig":
        from repro.prefetch import PREFETCHERS, prefetch_string_config

        l1i_pf, l1d_pf, l2_pf = prefetch_string_config(prefetch)
        # Validate each component's declared geometry constraints against
        # the level it would sit on; silently accepting an impossible
        # placement (an IP-stride table on a level with a handful of
        # blocks) would change the experiment without saying so.
        for level_name, pf_name in (("l1i", l1i_pf), ("l1d", l1d_pf),
                                    ("l2", l2_pf)):
            if pf_name == "none":
                continue
            spec = PREFETCHERS.spec(pf_name)
            min_blocks = spec.constraints.get("min_level_blocks", 0)
            level = getattr(self, level_name)
            blocks = level.size // self.block_size
            if min_blocks and blocks < min_blocks:
                raise ValueError(
                    f"prefetch string {prefetch!r} puts {pf_name} on "
                    f"{level_name}, but {level_name} holds only {blocks} "
                    f"blocks ({level.size} B / {self.block_size} B lines) "
                    f"and the {spec.kind} spec requires min_level_blocks "
                    f">= {min_blocks}")
        return replace(
            self,
            l1i=replace(self.l1i, prefetcher=l1i_pf),
            l1d=replace(self.l1d, prefetcher=l1d_pf),
            l2=replace(self.l2, prefetcher=l2_pf),
        )

    def with_branch_predictor(self, predictor: str) -> "MachineConfig":
        return replace(self, core=replace(self.core, branch_predictor=predictor))


def skylake_config() -> MachineConfig:
    """The paper's ChampSim model: Skylake, 4 MB/16-way non-inclusive LLC."""
    return MachineConfig(
        name="skylake",
        l1i=CacheLevelConfig(32 * 1024, 8, 1),
        l1d=CacheLevelConfig(32 * 1024, 8, 4),
        l2=CacheLevelConfig(256 * 1024, 8, 12, prefetcher="none"),
        llc=CacheLevelConfig(4 * 1024 * 1024, 16, 38, policy="rrip"),
        inclusion="non-inclusive",
        dram=DramConfig(channels=2),
    )


def scaled_config(prefetch: str = "000") -> MachineConfig:
    """The paper machine shrunk for tractable pure-Python experiments.

    Capacities are divided by 64 with associativities preserved (L1 8-way,
    L2 8-way, LLC 16-way), so set counts shrink but the replacement/theft
    mechanics are identical.
    """
    config = MachineConfig(
        name="scaled",
        l1i=CacheLevelConfig(1024, 8, 1),
        l1d=CacheLevelConfig(1024, 8, 4),
        l2=CacheLevelConfig(8192, 8, 12),
        llc=CacheLevelConfig(65536, 16, 38, policy="rrip"),
        inclusion="non-inclusive",
        dram=DramConfig(channels=2, banks_per_channel=4),
    )
    if prefetch != "000":
        config = config.with_prefetch_string(prefetch)
    return config


def xeon_config() -> MachineConfig:
    """Fig 10 stand-in for the Intel Xeon Silver 4110 server.

    Scaled like :func:`scaled_config` (divide capacities by 64): 11 MB LLC
    -> 176 KB at 11-way... rounded to a power-of-two-friendly 16-way 256 KB
    with a 10/11 way allocation cap mirroring the paper's Intel RDT split
    (10 MB workload / 1 MB system), and halved DRAM resources.
    """
    return MachineConfig(
        name="xeon",
        l1i=CacheLevelConfig(1024, 8, 1),
        l1d=CacheLevelConfig(1024, 8, 4),
        l2=CacheLevelConfig(16384, 16, 14),
        llc=CacheLevelConfig(262144, 16, 42, policy="rrip"),
        inclusion="non-inclusive",
        dram=DramConfig(channels=2, banks_per_channel=4).halved(),
        llc_way_allocation=14,  # ~10/11 of the LLC, RDT-style
    )
