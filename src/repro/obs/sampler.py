"""Interval sampling, shared by every timing host.

The single-core and multi-programmed hosts both use this one
implementation. The *host* owns the sampling cadence: it calls
:meth:`IntervalSampler.sample` exactly once per elapsed interval of retired
instructions, then :meth:`IntervalSampler.finalize` once at the end of the
measured region.

``finalize`` fixes a long-standing tail-loss bug: runs whose length is not
a multiple of ``sample_interval`` used to silently drop the trailing
partial interval from ``SimulationResult.sample_series()``. The flush emits
one final (shorter) sample covering whatever retired since the last full
interval, so the samples always partition the measured region exactly.
"""

from __future__ import annotations

from repro.sim.results import Sample

__all__ = ["IntervalSampler"]


class IntervalSampler:
    """Collects interval-delta samples from a running core.

    The sampler never second-guesses the host's cadence — an earlier design
    double-gated emission (host modulo AND an internal instruction-delta
    re-check), which silently dropped or shifted samples whenever the two
    conditions disagreed.
    """

    def __init__(self, core, llc, owner: int, tracker, interval: int) -> None:
        self.core = core
        self.llc = llc
        self.owner = owner
        self.tracker = tracker
        self.interval = interval
        self.samples = []
        self._mark()

    def _state(self) -> dict:
        counters = self.tracker.counters(self.owner)
        return {
            "instructions": self.core.stats.instructions,
            "cycles": self.core.cycle,
            "mem_cycles": self.core.stats.mem_access_cycles,
            "mem_accesses": self.core.stats.mem_accesses,
            "llc_accesses": counters.llc_accesses,
            "llc_misses": counters.llc_misses,
            "thefts": counters.thefts_experienced,
            "interference": counters.interference_misses,
        }

    def _mark(self) -> None:
        self._last = self._state()

    def sample(self) -> None:
        """Emit one interval-delta sample (the caller owns the cadence)."""
        now = self._state()
        last = self._last
        instructions = now["instructions"] - last["instructions"]
        cycles = now["cycles"] - last["cycles"]
        accesses = now["llc_accesses"] - last["llc_accesses"]
        misses = now["llc_misses"] - last["llc_misses"]
        thefts = now["thefts"] - last["thefts"]
        interference = now["interference"] - last["interference"]
        mem_cycles = now["mem_cycles"] - last["mem_cycles"]
        mem_accesses = now["mem_accesses"] - last["mem_accesses"]
        self.samples.append(Sample(
            instructions=instructions,
            cycles=cycles,
            ipc=instructions / cycles if cycles else 0.0,
            llc_accesses=accesses,
            llc_misses=misses,
            miss_rate=misses / accesses if accesses else 0.0,
            amat=mem_cycles / mem_accesses if mem_accesses else 0.0,
            thefts=thefts,
            interference=interference,
            contention_rate=thefts / accesses if accesses else 0.0,
            interference_rate=interference / accesses if accesses else 0.0,
            occupancy=self.llc.occupancy(self.owner) / self.llc.capacity_blocks,
        ))
        self._last = now

    def finalize(self) -> None:
        """Flush the trailing partial interval, if any retired since the
        last full sample. Safe to call exactly once at end of measurement;
        a run that divides evenly emits nothing extra."""
        if self.core.stats.instructions > self._last["instructions"]:
            self.sample()
