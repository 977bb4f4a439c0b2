"""Unified simulation-session core shared by every host.

The paper's whole argument is a comparison between simulation contexts
(Isolation vs PInTE vs 2nd-Trace), yet the three hosts used to hand-roll
their own setup -> warm-up -> stats-reset -> measured-loop -> sample ->
finalise pipelines, with silent feature asymmetries between them. This
module is the single authority all of them now compose::

    SessionBuilder ----> Session ----> Stepper ----> drive() ----> finish()
      (assemble           (shared       (execution     (warm-up /    (extras,
       LLC, DRAM,          resources     scheduler)     reset /       detach,
       tracker, cores,     + hooks)                     sampling /    observe)
       PInTE, events,                                   epochs)
       partitioner)

* :class:`SessionBuilder` assembles the shared resources once: LLC, DRAM,
  contention tracker, per-core hierarchies and cores, the PInTE engine with
  its per-access / periodic / background-DRAM hooks, partitioner install,
  and event-trace attachment.
* A **Stepper** advances the machine by a requested amount of work and owns
  nothing else. :class:`CoreStepper` is the cycle-synchronised
  furthest-behind scheduler of every timing host (one core is its
  degenerate schedule): it resumes each core's one retirement loop
  (``Core.retire``, which ``run(count, limit)`` also wraps) with a
  ``(count, limit)`` per step, with the live-clock hooks folded into the
  primary's limit. Each core's clock is current after every step; its
  cursor and statistics once the stepper's ``run`` returns, which is when
  :func:`drive` samples, resets and repartitions.
  :class:`AccessReplayStepper` is the cache-only
  access-replay loop (grouped by :class:`ReplayGroup` for multi-owner
  replay).
* :func:`drive` owns the one warm-up -> reset -> measured-region cadence:
  it breaks the measured region at sample and repartition-epoch boundaries
  so every host samples at exactly the same instruction counts the
  pre-refactor loops did.
* :func:`finish` attaches the phase/hook extras and fills the observation.

Because the three hosts are now thin compositions of these pieces, the
previously-blocked feature cross-product comes for free: PInTE on the
multi-programmed host (the hybrid *induced + real* contention context), a
partitioner on the single-core host, the live-clock hooks and event traces
on any number of cores, and multi-owner cache-only replay.

Every refactored path stays bit-identical to the seed implementations;
``tests/integration/test_golden_equivalence.py`` pins all 53 configs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache.cache import Cache, LruFilter
from repro.cache.hierarchy import MemoryHierarchy, SharedPort, build_llc
from repro.config import MachineConfig
from repro.core import ContentionTracker, PInTE, PinteConfig
from repro.core.extensions import BackgroundDramTraffic, PeriodicPinte
from repro.core.pinte_config import TRIGGER_PER_ACCESS
from repro.cpu import Core
from repro.cpu.replay import ReplayCore
from repro.dram import Dram
from repro.obs import Observation, collect_host_metrics
from repro.obs.events import observation_events
from repro.obs.sampler import IntervalSampler
from repro.owners import SYSTEM_OWNER
from repro.sim.results import SimulationResult
from repro.trace.packed import (
    FLAG_HAS_LOAD,
    FLAG_MEMORY,
    PackedTrace,
    as_packed,
)

__all__ = [
    "ADDRESS_SPACE_STRIDE",
    "DEFAULT_SAMPLE_INTERVAL",
    "AccessReplayStepper",
    "CoreStepper",
    "DriveOutcome",
    "ReplayGroup",
    "Session",
    "SessionBuilder",
    "core_stream",
    "drive",
    "finalise_result",
    "finish",
    "reset_stats",
]

#: Scaled stand-in for the paper's 10M-instruction sampling interval.
DEFAULT_SAMPLE_INTERVAL = 10_000

#: Address-space offset applied per core so traces never share data
#: (they still collide in cache sets, which is what contention is).
ADDRESS_SPACE_STRIDE = 1 << 44

#: "No instruction budget" for a co-runner the scheduler runs to a clock.
_UNBOUNDED = 1 << 62

#: A masked clock: later than every core's.
_NEVER = float("inf")


def core_stream(trace, core_id: int) -> PackedTrace:
    """A trace's columns in core ``core_id``'s address space (zero-copy
    for core 0)."""
    return as_packed(trace).offset(core_id * ADDRESS_SPACE_STRIDE)


def reset_stats(core: Core, hierarchy: SharedPort,
                tracker: ContentionTracker, owner: int) -> None:
    """Clear warm-up statistics while keeping all cache/predictor state."""
    core.reset_stats()
    hierarchy.reset_stats()
    # Replace the owner's contention counters in place.
    counters = tracker.counters(owner)
    for name in counters.__slots__:
        setattr(counters, name, 0)


def finalise_result(core: Core, tracker: ContentionTracker, owner: int,
                    start_cycle: int, sampler: IntervalSampler,
                    trace_name: str, mode: str, wall_start: float,
                    p_induce: Optional[float], co_runner: Optional[str],
                    seed: int) -> SimulationResult:
    """One core's :class:`SimulationResult` from the shared session state."""
    counters = tracker.counters(owner)
    cycles = core.cycle - start_cycle
    instructions = core.stats.instructions
    llc = core.hierarchy.llc
    private = core.private_counters()
    cpi_stack = {f"cpi_{component}": value
                 for component, value in core.stats.cpi_stack().items()}
    return SimulationResult(
        extra=cpi_stack,
        trace_name=trace_name,
        mode=mode,
        instructions=instructions,
        cycles=cycles,
        ipc=instructions / cycles if cycles else 0.0,
        miss_rate=(counters.llc_misses / counters.llc_accesses
                   if counters.llc_accesses else 0.0),
        amat=core.stats.amat,
        p_induce=p_induce,
        co_runner=co_runner,
        seed=seed,
        contention_rate=counters.contention_rate,
        interference_rate=counters.interference_rate,
        thefts_experienced=counters.thefts_experienced,
        thefts_caused=counters.thefts_caused,
        interference_misses=counters.interference_misses,
        llc_accesses=counters.llc_accesses,
        llc_misses=counters.llc_misses,
        llc_writeback_fills=llc.stats.writeback_fills,
        l2_misses=private.l2.misses,
        l2_accesses=private.l2.accesses,
        l1d_miss_rate=private.l1d.miss_rate,
        branch_accuracy=private.branch.accuracy,
        branch_mpki=(1000.0 * private.branch.mispredictions / instructions
                     if instructions else 0.0),
        prefetch_issued=private.prefetch_issued,
        prefetch_useful=private.prefetch_useful + llc.stats.prefetch_useful,
        reuse_histogram=llc.owner_reuse_histogram(owner),
        samples=sampler.samples,
        wall_time_seconds=time.perf_counter() - wall_start,
        occupancy=llc.occupancy(owner) / llc.capacity_blocks,
    )


@dataclass
class Session:
    """Shared resources for one run, assembled by :class:`SessionBuilder`.

    ``kind`` is ``"timing"`` (core-driven hosts) or ``"replay"`` (the
    cache-only host). The two kinds reset different statistics at the
    warm-up boundary — the replay host historically keeps its event trace
    and engine stats cumulative across the boundary, and that asymmetry is
    preserved exactly.
    """

    kind: str
    config: MachineConfig
    seed: int
    tracker: ContentionTracker
    llc: Cache
    observe: Optional[Observation] = None
    events: Optional[object] = None
    engine: Optional[PInTE] = None
    periodic: Optional[PeriodicPinte] = None
    background: Optional[BackgroundDramTraffic] = None
    partitioner: Optional[object] = None
    repartition_interval: int = 0
    dram: Optional[Dram] = None
    cores: List[Core] = field(default_factory=list)
    filters: List[Optional[LruFilter]] = field(default_factory=list)
    n_owners: int = 1
    wall_start: float = 0.0

    def reset_statistics(self) -> None:
        """End of warm-up: drop statistics, keep all cache/predictor state."""
        if self.kind == "timing":
            for owner, core in enumerate(self.cores):
                reset_stats(core, core.hierarchy, self.tracker, owner)
            if self.engine is not None:
                self.engine.stats = type(self.engine.stats)()
            # The live-clock hooks' counters are measured-region statistics.
            if self.periodic is not None:
                self.periodic.rounds = self.periodic.invalidations = 0
            if self.background is not None:
                self.background.requests = 0
            if self.events is not None:
                # Warm-up events go with the warm-up statistics, so the
                # trace's per-kind counts stay consistent with the metrics.
                self.events.clear()
        else:
            # Replay reset touches only what the cache-only host ever
            # measured: LLC hit/miss/access totals, reuse, and the owners'
            # contention counters. Engine stats and the event trace stay
            # cumulative, as they always have in this host.
            llc = self.llc
            llc.stats.hits = llc.stats.misses = llc.stats.accesses = 0
            llc.reuse_histogram = [0] * llc.assoc
            for owner in range(self.n_owners):
                llc.reuse_by_owner.pop(owner, None)
                counters = self.tracker.counters(owner)
                for name in counters.__slots__:
                    setattr(counters, name, 0)

    def detach_events(self) -> None:
        if self.events is not None:
            self.events.detach_all()


class SessionBuilder:
    """Assemble the shared resources of one simulation session.

    The builder is host-agnostic: :meth:`build_timing` produces the
    core-driven machine any number of the timing hosts share (one trace
    is the single-core host, two or more the 2nd-Trace host, either one
    with PInTE attached is the hybrid context), and :meth:`build_cache_only`
    produces the LLC-only replay machine.
    """

    def __init__(self, config: MachineConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self._pinte: Optional[PinteConfig] = None
        self._partitioner = None
        self._repartition_interval = 0
        self._observe: Optional[Observation] = None
        self._streams: Optional[list] = None

    def with_pinte(self, pinte: Optional[PinteConfig]) -> "SessionBuilder":
        self._pinte = pinte
        return self

    def with_partitioner(self, partitioner,
                         repartition_interval: int = 5_000) -> "SessionBuilder":
        self._partitioner = partitioner
        self._repartition_interval = repartition_interval
        return self

    def with_observation(self,
                         observe: Optional[Observation]) -> "SessionBuilder":
        self._observe = observe
        return self

    def with_private_streams(self, streams: Optional[list]
                             ) -> "SessionBuilder":
        """Replay these recorded private streams, one per core
        (:mod:`repro.sim.private`), instead of walking private caches."""
        self._streams = streams
        return self

    def build_timing(self, traces: List[PackedTrace]) -> Session:
        """The full timing machine: one core per packed trace (in its own
        address space, see :func:`core_stream`), hierarchies, shared
        LLC/DRAM.

        The PInTE engine (if configured) attaches to core 0's hierarchy —
        in the hybrid context the primary workload is the one under induced
        contention, exactly as in the single-core PInTE context. With
        private streams, each core is a
        :class:`~repro.cpu.replay.ReplayCore` on a bare
        :class:`~repro.cache.hierarchy.SharedPort`, replaying its stream's
        own trace; an observation sees the same LLC and engine either way.
        """
        config, seed = self.config, self.seed
        n_cores = len(traces)
        streams = self._streams
        if streams is not None:
            if len(streams) != n_cores:
                raise ValueError(
                    f"{len(streams)} private streams for {n_cores} cores")
            if config.inclusion != "non-inclusive":
                raise ValueError(
                    f"private streams replay only in a non-inclusive "
                    f"hierarchy, not {config.inclusion!r}")
        tracker = ContentionTracker()
        llc = build_llc(config, seed)
        dram = Dram(config.dram)
        registry: dict = {}
        port = MemoryHierarchy if streams is None else SharedPort
        hierarchies = [
            port(config, core_id, llc=llc, dram=dram, tracker=tracker,
                 registry=registry, seed=seed + core_id)
            for core_id in range(n_cores)
        ]
        partitioner = self._partitioner
        if partitioner is not None:
            partitioner.install(llc)
            for hierarchy in hierarchies:
                hierarchy.llc_access_hook = partitioner.on_llc_access
        if streams is None:
            cores = [Core(config.core, hierarchy, trace)
                     for hierarchy, trace in zip(hierarchies, traces)]
        else:
            cores = [ReplayCore(config, hierarchy, stream)
                     for hierarchy, stream in zip(hierarchies, streams)]
        engine = periodic = background = None
        pinte = self._pinte
        if pinte is not None:
            engine = PInTE(pinte, llc, tracker)
            per_access = pinte.trigger == TRIGGER_PER_ACCESS
            hierarchies[0].attach_pinte(engine, per_access=per_access)
            if not per_access:
                periodic = PeriodicPinte(engine, pinte.period_cycles)
            if pinte.dram_background_rpkc > 0:
                background = BackgroundDramTraffic(
                    hierarchies[0].dram, pinte.dram_background_rpkc,
                    seed=pinte.seed)
        events = observation_events(self._observe)
        if events is not None:
            events.attach(llc)
            if engine is not None:
                events.attach(engine)
            # The shared timeline: all core clocks stay aligned, so the
            # primary's clock is a faithful timestamp for every owner.
            primary = cores[0]
            events.clock = lambda: primary.cycle
        return Session(
            kind="timing", config=config, seed=seed, tracker=tracker,
            llc=llc, observe=self._observe, events=events, engine=engine,
            periodic=periodic, background=background,
            partitioner=partitioner,
            repartition_interval=self._repartition_interval, dram=dram,
            cores=cores, n_owners=n_cores,
            wall_start=time.perf_counter(),
        )

    def build_cache_only(self, n_owners: int = 1,
                         filter_cache: bool = True) -> Session:
        """The LLC-only replay machine of the cache-only host.

        Each owner gets a private L2-sized :class:`LruFilter` (when
        ``filter_cache``); the LLC, tracker and PInTE engine are shared.
        The filter tracks residency only: an LRU cache filled after every
        miss and never invalidated holds exactly the last ``assoc``
        distinct blocks of each set, and hit or miss is all the replay
        reads, so it passes the same accesses to the LLC as an LRU
        :class:`Cache` would. The LLC is deliberately built without the
        configured hash-index function — the historical behaviour of this
        host, kept bit-exact.
        """
        config, seed = self.config, self.seed
        tracker = ContentionTracker()
        llc = Cache("LLC", config.llc.size, config.llc.assoc,
                    config.block_size, latency=config.llc.latency,
                    policy=config.llc.policy, policy_seed=seed,
                    track_reuse=True)
        filters: List[Optional[LruFilter]] = [
            LruFilter(config.l2.size, config.l2.assoc, config.block_size)
            if filter_cache else None
            for _ in range(n_owners)
        ]
        engine = None
        if self._pinte is not None:
            engine = PInTE(self._pinte, llc, tracker)
        events = observation_events(self._observe)
        if events is not None:
            events.attach(llc)
            if engine is not None:
                events.attach(engine)
            # No core clock here; the replay stepper binds the clock to its
            # live LLC-access count once constructed.
        return Session(
            kind="replay", config=config, seed=seed, tracker=tracker,
            llc=llc, observe=self._observe, events=events, engine=engine,
            filters=filters, n_owners=n_owners,
            wall_start=time.perf_counter(),
        )


class CoreStepper:
    """Cycle-synchronised furthest-behind scheduling over n >= 1 cores.

    Each scheduling step runs the core whose clock is furthest behind
    (ties to the lowest id), so a fast core naturally retires more
    instructions per unit of shared time, exactly like hardware. The step
    is a batch: core ``a`` stays the first-minimal argmin exactly while
    its clock is below every lower-id core's and at most every higher-id
    core's, so it runs with ``limit=min(lower, upper + 1)`` (clocks are
    ints) and stops after the first instruction that breaks the bound.
    One core is the degenerate schedule: no bound, one step per request.

    Each :meth:`run` is one segment: a core's retirement loop
    (:meth:`~repro.cpu.core.Core.retire`) opens at its first step in the
    segment, is resumed with ``(count, limit)`` for every later one, and
    closes when the segment ends. So every core's ``cycle`` is current
    after each step, for the schedule, the hooks and the event clock;
    its cursor and statistics are current once :meth:`run` returns.

    The live-clock hooks (periodic PInTE, background DRAM) act only when
    the primary clock crosses their next threshold, so the thresholds fold
    into the primary's limit and the hooks tick after each primary step.
    With an event trace attached the primary's limit is ``0``: every step
    retires one instruction, so ``primary.cycle``, the event clock, is
    current at every access.
    """

    unit = "instructions"

    def __init__(self, session: Session) -> None:
        self.cores = session.cores
        self.periodic = session.periodic
        self.background = session.background
        self.traced = session.events is not None

    def run(self, count: int) -> int:
        """Schedule until the primary core has retired ``count`` instructions."""
        if count <= 0:
            return 0
        cores = self.cores
        primary = cores[0]
        periodic = self.periodic
        background = self.background
        traced = self.traced
        # The clocks, kept current in place; each step masks the stepping
        # core's own clock to find the bound the others set.
        clocks = [core.cycle for core in cores]
        loops = [None] * len(cores)
        retired = 0
        try:
            while retired < count:
                core_id = clocks.index(min(clocks))
                clocks[core_id] = _NEVER
                limit = min(clocks)
                if clocks.index(limit) > core_id:
                    limit += 1
                core = cores[core_id]
                if core_id:
                    steps = _UNBOUNDED
                else:
                    if traced:
                        limit = 0
                    if periodic is not None:
                        limit = min(limit, periodic._next_fire)
                    if background is not None:
                        limit = min(limit, background._next_issue)
                    steps = count - retired
                loop = loops[core_id]
                if loop is None:
                    loop = loops[core_id] = core.retire(steps, limit)
                    done = next(loop)
                else:
                    done = loop.send((steps, limit))
                clocks[core_id] = core.cycle
                if core_id:
                    continue
                retired += done
                if periodic is not None:
                    periodic.maybe_tick(primary.cycle, 0)
                if background is not None:
                    background.advance(primary.cycle)
        finally:
            for loop in loops:
                if loop is not None:
                    loop.close()
        return count


class AccessReplayStepper:
    """The cache-only host's access-replay loop for one owner's stream.

    Replays a packed trace's memory accesses through an optional L2-sized
    residency-only LRU filter into the shared LLC, with the single-owner
    contention accounting inlined (same arithmetic as
    ``ContentionTracker.record_access``/``record_refill``). Runs are
    resumable: ``run(limit)`` stops after ``limit`` LLC accesses and a
    later call continues from the same record — which is how the session
    layer splits warm-up from the measured region without perturbing a
    single cache decision.

    ``wrap`` restarts the stream when exhausted (co-owner streams,
    ChampSim-style); ``shared_clock`` is a one-slot list carrying the
    global LLC-access count when several owners share the LLC.
    """

    unit = "LLC accesses"

    def __init__(self, session: Session, packed: PackedTrace, owner: int = 0,
                 wrap: bool = False,
                 shared_clock: Optional[List[int]] = None) -> None:
        self.llc = session.llc
        self.tracker = session.tracker
        self.engine = session.engine
        self.events = session.events
        self.filter = session.filters[owner]
        self.owner = owner
        self.block_mask = ~(session.config.block_size - 1)
        self.loads = packed.loads
        self.stores = packed.stores
        self.flags = packed.flags
        self.n_records = len(packed)
        self.index = 0
        #: Completed LLC accesses (this owner); doubles as the event clock
        #: for single-owner replay.
        self.seen = 0
        self.wrap = wrap
        self.shared_clock = shared_clock
        self.record_thefts = session.n_owners > 1
        self.counters = session.tracker.counters(owner)
        self.stolen = session.tracker.stolen_blocks(owner)

    def run(self, limit: Optional[int] = None) -> int:
        """Replay until ``limit`` LLC accesses land (or the trace ends)."""
        done = self._scan(limit)
        if not self.wrap or limit is None:
            return done
        while done < limit and self.index >= self.n_records:
            self.index = 0
            got = self._scan(limit - done)
            if got == 0 and self.index >= self.n_records:
                break  # a full pass produced no LLC access; give up
            done += got
        return done

    def _scan(self, limit: Optional[int]) -> int:
        # Hot loop: every callable and container bound to a local; flag
        # bytes decide memory-ness so non-memory instructions cost one
        # byte read and a mask test.
        llc = self.llc
        llc_access = llc.access
        llc_fill = llc.fill
        llc_set_index = llc.set_index
        # Plain-modulo indexing (the default) is inlined as shift+mask.
        llc_hashed = llc.hash_index
        llc_offset_bits = llc._offset_bits
        llc_set_mask = llc._set_mask
        l2_access = self.filter.access if self.filter is not None else None
        engine = self.engine
        engine_tick = engine.on_llc_access if engine is not None else None
        record_theft = self.tracker.record_theft if self.record_thefts else None
        counters = self.counters
        stolen = self.stolen
        owner = self.owner
        block_mask = self.block_mask
        load_col = self.loads
        store_col = self.stores
        flags_col = self.flags
        n_records = self.n_records
        start = self.index
        if start >= n_records:
            return 0
        shared = self.shared_clock
        events_live = self.events is not None and shared is None
        seen = self.seen
        done = 0
        budget = -1 if limit is None else limit
        stopped_at = n_records
        view = flags_col if start == 0 else memoryview(flags_col)[start:]
        for index, flag in enumerate(view, start):
            if not flag & FLAG_MEMORY:
                continue
            if done == budget:
                stopped_at = index
                break
            if flag & FLAG_HAS_LOAD:
                address = load_col[index]
            else:  # store-only instruction
                address = store_col[index]
            block = address & block_mask
            if l2_access is not None and l2_access(block):
                continue
            if events_live:
                self.seen = seen  # live event clock for this access
            cycle = seen if shared is None else shared[0]
            hit = llc_access(block, False, owner)
            counters.llc_accesses += 1
            if not hit:
                counters.llc_misses += 1
                if block in stolen:
                    counters.interference_misses += 1
                    stolen.discard(block)
                evicted = llc_fill(block, owner)
                stolen.discard(block)
                if record_theft is not None and evicted is not None:
                    victim = evicted.owner
                    if victim != owner and victim != SYSTEM_OWNER:
                        record_theft(victim, owner, evicted.tag)
            if engine_tick is not None:
                engine_tick(llc_set_index(block) if llc_hashed
                            else (block >> llc_offset_bits) & llc_set_mask,
                            cycle, owner)
            seen += 1
            done += 1
            if shared is not None:
                shared[0] = cycle + 1
        self.index = stopped_at
        self.seen = seen
        return done


class ReplayGroup:
    """Round-robin multi-owner replay: one LLC access per owner per round.

    The primary stream drives termination; co-owner streams wrap. Between
    every primary LLC access each co-owner lands exactly one, so the shared
    LLC sees a strict interleaving — the replay-world analogue of the
    timing hosts' cycle-synchronised schedule.
    """

    unit = "LLC accesses"

    def __init__(self, steppers: List[AccessReplayStepper]) -> None:
        self.steppers = list(steppers)

    def run(self, limit: Optional[int] = None) -> int:
        primary = self.steppers[0]
        others = self.steppers[1:]
        done = 0
        while limit is None or done < limit:
            if primary.run(1) == 0:
                break
            done += 1
            for stepper in others:
                stepper.run(1)
        return done


@dataclass
class DriveOutcome:
    """What :func:`drive` hands back to the host's finalisation code."""

    sampler: Optional[IntervalSampler]
    start_cycles: List[int]
    executed: int
    warmup_seconds: float
    measure_start: float
    measure_seconds: float


def drive(session: Session, stepper, warmup: int, total: Optional[int],
          sample_interval: Optional[int] = None) -> DriveOutcome:
    """The one warm-up -> reset -> measured-region cadence every host shares.

    Runs ``warmup`` units of work (the stepper's ``unit``), resets the
    session's statistics, then runs ``total`` more — breaking the measured
    region at :class:`IntervalSampler` boundaries and (when a partitioner
    is installed) repartition-epoch boundaries, sampling before
    repartitioning when the two coincide. ``total=None`` replays to
    exhaustion (the cache-only host).

    Raises :class:`ValueError` when the stepper exhausts its input before
    completing the warm-up — previously the cache-only host silently
    returned warm-up-contaminated statistics in that case.
    """
    completed = stepper.run(warmup)
    if completed < warmup:
        session.detach_events()
        raise ValueError(
            f"trace exhausted during warm-up: only {completed} of "
            f"{warmup} warm-up {stepper.unit} completed")
    session.reset_statistics()
    start_cycles = [core.cycle for core in session.cores]
    warmup_seconds = time.perf_counter() - session.wall_start

    measure_start = time.perf_counter()
    sampler = None
    if sample_interval is not None and session.cores:
        sampler = IntervalSampler(session.cores[0], session.llc, 0,
                                  session.tracker, sample_interval)
    executed = 0
    if total is None:
        executed = stepper.run(None)
    else:
        # Sampling cadence: the executed count is the single authority —
        # exactly one sample per full interval, no matter how warm-up
        # aligned; repartition epochs land every ``repartition_interval``
        # measured units, after any coinciding sample.
        next_sample = sample_interval if sampler is not None else None
        partitioner = session.partitioner
        epoch = session.repartition_interval if partitioner is not None else None
        next_epoch = epoch
        while executed < total:
            bound = total
            if next_sample is not None and next_sample < bound:
                bound = next_sample
            if next_epoch is not None and next_epoch < bound:
                bound = next_epoch
            stepper.run(bound - executed)
            executed = bound
            if next_sample is not None and executed == next_sample:
                sampler.sample()
                next_sample += sample_interval
            if next_epoch is not None and executed == next_epoch:
                partitioner.epoch(session.llc, session.tracker)
                next_epoch += epoch
        if sampler is not None:
            sampler.finalize()
    measure_seconds = time.perf_counter() - measure_start
    return DriveOutcome(
        sampler=sampler, start_cycles=start_cycles, executed=executed,
        warmup_seconds=warmup_seconds, measure_start=measure_start,
        measure_seconds=measure_seconds,
    )


def finish(session: Session, outcome: DriveOutcome,
           results: List[SimulationResult]) -> None:
    """Common epilogue for the timing hosts.

    Attaches the phase and hook extras (engine/periodic/background land on
    the primary result), detaches the event trace, and fills the
    observation's profiler spans and metric registry.
    """
    for result in results:
        result.extra["phase_warmup_seconds"] = outcome.warmup_seconds
        result.extra["phase_simulate_seconds"] = outcome.measure_seconds
    primary = results[0]
    engine = session.engine
    if engine is not None:
        primary.extra["pinte_triggers"] = float(engine.stats.triggers)
        primary.extra["pinte_trigger_rate"] = engine.stats.trigger_rate
        primary.extra["pinte_invalidations"] = float(engine.stats.invalidations)
    if session.periodic is not None:
        primary.extra["pinte_periodic_rounds"] = float(session.periodic.rounds)
    if session.background is not None:
        primary.extra["dram_background_requests"] = float(
            session.background.requests)
    session.detach_events()
    observe = session.observe
    if observe is not None:
        profiler = observe.profiler
        origin = profiler.origin
        profiler.add_span("warmup", session.wall_start - origin,
                          outcome.warmup_seconds)
        profiler.add_span("simulate", outcome.measure_start - origin,
                          outcome.measure_seconds)
        observe.registry = collect_host_metrics(
            observe.registry, cores=tuple(session.cores), llc=session.llc,
            tracker=session.tracker, engine=engine, events=session.events,
            start_cycles=tuple(outcome.start_cycles))
