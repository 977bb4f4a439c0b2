"""Fast cache-only simulation: a second host for the PInTE engine.

The paper notes PInTE "can be implemented in the shared cache of multi-core
simulators" — the engine only needs a replacement-stack API. This module
proves the point with a second, much lighter host: no core timing, no DRAM,
no private caches — just the LLC fed by the trace's memory accesses
(optionally filtered through an L2-sized filter). It cannot produce
IPC/AMAT, but it measures miss rates, theft/interference rates and reuse
histograms 5-10x faster than the full simulator, which makes it the right
tool for wide early-stage contention-rate sweeps.

The filter is a residency-only LRU filter
(:class:`~repro.cache.cache.LruFilter`): it answers hit or miss and keeps
no dirty bits, owners, statistics or replacement policy. It is exact: an
LRU cache that is filled after every miss and never invalidated holds
exactly the last ``assoc`` distinct blocks of each set, and which blocks
are resident is all this host reads from it.

This host is a thin composition over :mod:`repro.sim.session`:
:class:`~repro.sim.session.AccessReplayStepper` owns the inlined
access-replay loop and :func:`~repro.sim.session.drive` owns the warm-up /
stats-reset cadence — which is also what turned the silent
warm-up-longer-than-trace bug into a clear :class:`ValueError`.

``co_traces=`` replays additional owners against the same LLC
(round-robin, one LLC access per owner per round) — real multi-owner
contention at replay speed, with natural thefts recorded by the shared
:class:`~repro.core.counters.ContentionTracker`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import MachineConfig
from repro.core import PinteConfig
from repro.obs import Observation, collect_host_metrics
from repro.sim.session import (
    ADDRESS_SPACE_STRIDE,
    AccessReplayStepper,
    ReplayGroup,
    SessionBuilder,
    drive,
)
from repro.trace.packed import as_packed

__all__ = ["FastCacheResult", "fast_contention_sweep", "simulate_cache_only"]


@dataclass
class FastCacheResult:
    """What the cache-only host can measure."""

    trace_name: str
    p_induce: Optional[float]
    accesses: int
    misses: int
    thefts_experienced: int
    interference_misses: int
    reuse_histogram: List[int] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    #: Co-owner results of a multi-owner replay (empty for single-owner).
    co_results: List["FastCacheResult"] = field(default_factory=list)

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def contention_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.thefts_experienced / self.accesses

    @property
    def interference_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.interference_misses / self.accesses


def simulate_cache_only(
    trace,
    config: MachineConfig,
    pinte: Optional[PinteConfig] = None,
    warmup_accesses: int = 0,
    filter_cache: bool = True,
    seed: int = 0,
    observe: Optional[Observation] = None,
    co_traces=None,
) -> FastCacheResult:
    """Replay a trace's memory accesses through the LLC alone.

    ``filter_cache`` interposes an L2-sized LRU filter so only its misses
    reach the LLC — roughly the access stream the full hierarchy would
    deliver.
    ``warmup_accesses`` LLC accesses are replayed before statistics reset;
    a trace whose stream ends before completing the warm-up raises
    :class:`ValueError` (it used to silently return warm-up-contaminated
    statistics). ``observe`` works as in
    :func:`repro.sim.simulator.simulate`; this host has no core clock, so
    event timestamps count LLC accesses instead.
    ``trace`` may be a :class:`~repro.trace.packed.PackedTrace` or any
    record iterable.

    ``co_traces`` adds one owner per extra trace sharing the LLC: each
    primary LLC access is interleaved with one LLC access from every
    co-owner (their streams wrap, ChampSim-style, and are shifted into
    per-owner address spaces). Natural thefts between owners are recorded,
    and each co-owner's counters come back on ``co_results``.
    """
    packed = as_packed(trace)
    trace_name = getattr(trace, "name", "") or packed.name or "trace"
    co_traces = list(co_traces) if co_traces else []
    n_owners = 1 + len(co_traces)

    session = (SessionBuilder(config, seed=seed)
               .with_pinte(pinte)
               .with_observation(observe)
               .build_cache_only(n_owners, filter_cache=filter_cache))

    if n_owners == 1:
        stepper = AccessReplayStepper(session, packed, owner=0)
        if session.events is not None:
            # No core clock here: timestamp events with the live LLC
            # access count maintained by the stepper.
            session.events.clock = lambda: stepper.seen
        group = stepper
    else:
        shared_clock = [0]
        steppers = [AccessReplayStepper(session, packed, owner=0,
                                        shared_clock=shared_clock)]
        for owner, co_trace in enumerate(co_traces, 1):
            co_packed = as_packed(co_trace).offset(owner * ADDRESS_SPACE_STRIDE)
            steppers.append(AccessReplayStepper(
                session, co_packed, owner=owner, wrap=True,
                shared_clock=shared_clock))
        if session.events is not None:
            session.events.clock = lambda: shared_clock[0]
        group = ReplayGroup(steppers)

    outcome = drive(session, group, warmup=warmup_accesses, total=None)

    wall_seconds = time.perf_counter() - session.wall_start
    session.detach_events()
    if observe is not None:
        profiler = observe.profiler
        profiler.add_span("simulate", session.wall_start - profiler.origin,
                          wall_seconds)
        observe.registry = collect_host_metrics(
            observe.registry, llc=session.llc, tracker=session.tracker,
            engine=session.engine, events=session.events)

    llc = session.llc

    def owner_result(owner: int, name: str) -> FastCacheResult:
        counters = session.tracker.counters(owner)
        return FastCacheResult(
            trace_name=name,
            p_induce=pinte.p_induce if pinte else None,
            accesses=counters.llc_accesses,
            misses=counters.llc_misses,
            thefts_experienced=counters.thefts_experienced,
            interference_misses=counters.interference_misses,
            reuse_histogram=llc.owner_reuse_histogram(owner),
            wall_time_seconds=wall_seconds,
        )

    result = owner_result(0, trace_name)
    for owner, co_trace in enumerate(co_traces, 1):
        co_name = (getattr(co_trace, "name", "")
                   or f"co-runner-{owner}")
        result.co_results.append(owner_result(owner, co_name))
    return result


def fast_contention_sweep(
    trace,
    config: MachineConfig,
    p_values,
    warmup_accesses: int = 0,
    seed: int = 0,
) -> List[FastCacheResult]:
    """Sweep ``P_induce`` through the cache-only host (one result per p)."""
    return [
        simulate_cache_only(trace, config,
                            pinte=PinteConfig(p, seed=seed),
                            warmup_accesses=warmup_accesses, seed=seed)
        for p in p_values
    ]
