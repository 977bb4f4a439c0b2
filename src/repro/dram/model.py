"""DRAM timing model.

Channel/bank organisation with open-row policy: a request's latency depends
on whether it hits the open row, and on how backed up its channel is. The
channel queue is the piece that lets the 2nd-Trace method create *off-chip*
contention that PInTE deliberately does not model — the source of the
DRAM-bound outliers in the paper's Table II and Fig 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.serde import ConfigSerde
from repro.util.bitops import ilog2


@dataclass(frozen=True)
class DramConfig(ConfigSerde):
    """Geometry and timing for the DRAM model (latencies in core cycles)."""

    channels: int = 2
    banks_per_channel: int = 8
    row_bytes: int = 8192
    row_hit_latency: int = 90
    row_miss_latency: int = 160
    row_conflict_latency: int = 190
    service_cycles: int = 18  # channel occupancy per request (bandwidth)
    #: All-bank refresh period in cycles (0 disables refresh modelling).
    refresh_interval_cycles: int = 0
    #: Cycles each refresh blocks the device (tRFC-like).
    refresh_cycles: int = 160

    def __post_init__(self) -> None:
        ilog2(self.channels)
        ilog2(self.banks_per_channel)
        ilog2(self.row_bytes)
        if min(self.row_hit_latency, self.row_miss_latency,
               self.row_conflict_latency, self.service_cycles) <= 0:
            raise ValueError("all DRAM latencies must be positive")
        if self.refresh_interval_cycles < 0 or self.refresh_cycles <= 0:
            raise ValueError("refresh parameters must be non-negative/positive")
        if (self.refresh_interval_cycles
                and self.refresh_cycles >= self.refresh_interval_cycles):
            raise ValueError("refresh window must be shorter than its period")

    def halved(self) -> "DramConfig":
        """Half the parallel resources (paper Fig 10: 'we halve key DRAM
        features to facilitate contention off-chip')."""
        return DramConfig(
            channels=max(1, self.channels // 2),
            banks_per_channel=max(1, self.banks_per_channel // 2),
            row_bytes=self.row_bytes,
            row_hit_latency=self.row_hit_latency,
            row_miss_latency=self.row_miss_latency,
            row_conflict_latency=self.row_conflict_latency,
            service_cycles=self.service_cycles * 2,
        )


class DramStats:
    """Access breakdown counters."""

    __slots__ = ("reads", "writes", "row_hits", "row_misses", "row_conflicts",
                 "queue_cycles", "total_latency", "refresh_stalls")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.queue_cycles = 0
        self.total_latency = 0
        self.refresh_stalls = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def average_latency(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.total_latency / self.accesses


class Dram:
    """Open-row DRAM with per-channel service queues.

    ``access`` takes the requester's current cycle so queueing delay reflects
    how busy the channel is at that time; in the multicore simulator both
    cores share one :class:`Dram`, which is how memory bandwidth contention
    emerges.
    """

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.stats = DramStats()
        n_banks = config.channels * config.banks_per_channel
        self._open_rows: List[int] = [-1] * n_banks
        self._refresh_epochs: List[int] = [0] * n_banks
        self._channel_busy_until: List[int] = [0] * config.channels
        self._channel_bits = ilog2(config.channels)
        self._bank_bits = ilog2(config.banks_per_channel)
        self._row_bits = ilog2(config.row_bytes)

    def _refresh_delay(self, bank: int, start: int) -> int:
        """Stall for an in-progress refresh (only called when refresh is
        modelled); refreshes also close open rows."""
        interval = self.config.refresh_interval_cycles
        epoch = start // interval
        if epoch > self._refresh_epochs[bank]:
            self._refresh_epochs[bank] = epoch
            self._open_rows[bank] = -1  # refresh closed the row buffer
        phase = start % interval
        if phase < self.config.refresh_cycles:
            self.stats.refresh_stalls += 1
            return self.config.refresh_cycles - phase
        return 0

    def access(self, address: int, cycle: int, is_write: bool = False) -> int:
        """Service one request arriving at ``cycle``; returns total latency."""
        config = self.config
        # Address -> channel, global bank index and row: channels interleave
        # at block granularity, banks on the block bits above the channel.
        block = address >> 6
        channel = block & (config.channels - 1)
        bank = channel * config.banks_per_channel + (
            (block >> self._channel_bits) & (config.banks_per_channel - 1))
        row = address >> self._row_bits
        refresh_delay = (self._refresh_delay(bank, cycle)
                         if config.refresh_interval_cycles else 0)
        cycle += refresh_delay
        open_row = self._open_rows[bank]
        if open_row == row:
            base = config.row_hit_latency
            self.stats.row_hits += 1
        elif open_row == -1:
            base = config.row_miss_latency
            self.stats.row_misses += 1
        else:
            base = config.row_conflict_latency
            self.stats.row_conflicts += 1
        self._open_rows[bank] = row

        start = max(cycle, self._channel_busy_until[channel])
        queue_delay = start - cycle
        self._channel_busy_until[channel] = start + config.service_cycles
        latency = refresh_delay + queue_delay + base
        self.stats.queue_cycles += queue_delay
        self.stats.total_latency += latency
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        return latency
