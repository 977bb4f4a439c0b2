"""Cycle-accounting core model.

Not an out-of-order pipeline simulator: a deliberately simple timing model in
the Sniper/interval-analysis spirit. Each instruction costs ``1/issue_width``
cycles; memory instructions add their hierarchy latency — fully serialised
when the access is *dependent* (pointer chasing), divided by the configured
memory-level-parallelism factor otherwise; branch mispredictions add a flush
penalty. This is enough to make IPC respond to cache contention the way the
paper's metrics need (IPC, MR, AMAT), while staying fast in pure Python.

The clock counts integer ticks: every cost is a whole number of them
(:attr:`repro.config.CoreConfig.tick_table`), so ``cycle``, which is
``ticks // tick_table.per_cycle``, is exact in any summation order.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.branch import make_predictor
from repro.branch.base import BranchStats
from repro.cache.cache import CacheStats
from repro.cache.hierarchy import MemoryHierarchy
from repro.config import CoreConfig, TickTable
from repro.trace.packed import (
    FLAG_BRANCH,
    FLAG_DEPENDENT,
    FLAG_HAS_LOAD,
    FLAG_HAS_STORE,
    FLAG_TAKEN,
    PackedTrace,
)

_NO_LIMIT = float("inf")


class CoreStats:
    """Retirement-side counters, including a CPI-stack breakdown.

    The stack components (base issue bandwidth, instruction fetch, load
    stalls, store stalls, branch flushes) sum to the core's total cycles, so
    ``cpi_stack()`` explains exactly where time went — the standard way to
    interpret why contention hurt a configuration. Stalls are counted in
    clock ticks (``tick_table``) and the base component is the instruction
    count's issue slots, so the components sum exactly to the ticks elapsed
    since the statistics were reset.
    """

    __slots__ = ("tick_table", "instructions", "loads", "stores", "branches",
                 "mem_access_cycles", "mem_accesses",
                 "fetch_stall_ticks", "load_stall_ticks",
                 "store_stall_ticks", "branch_stall_ticks")

    def __init__(self, tick_table: TickTable) -> None:
        self.tick_table = tick_table
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.mem_access_cycles = 0
        self.mem_accesses = 0
        self.fetch_stall_ticks = 0
        self.load_stall_ticks = 0
        self.store_stall_ticks = 0
        self.branch_stall_ticks = 0

    @property
    def amat(self) -> float:
        """Average memory access time over demand loads/stores (cycles)."""
        if self.mem_accesses == 0:
            return 0.0
        return self.mem_access_cycles / self.mem_accesses

    def cpi_stack(self) -> dict:
        """Per-instruction cycle breakdown; components sum to total CPI."""
        table = self.tick_table
        # One correctly rounded division per component.
        scale = (self.instructions or 1) * table.per_cycle
        return {"base": self.instructions * table.issue / scale,
                "fetch": self.fetch_stall_ticks / scale,
                "load": self.load_stall_ticks / scale,
                "store": self.store_stall_ticks / scale,
                "branch": self.branch_stall_ticks / scale}


class PrivateCounters(NamedTuple):
    """The private-side statistics a result reports for one core.

    A lockstep :class:`Core` reads them off its live caches and predictor;
    a replayed core (:mod:`repro.sim.private`) rebuilds them, each level
    as a :class:`~repro.cpu.replay.StreamStats`, from its private stream.
    """

    l1i: CacheStats
    l1d: CacheStats
    l2: CacheStats
    branch: BranchStats
    #: Prefetches issued since the core was built (never reset).
    prefetch_issued: int
    #: Demand hits on prefetched blocks in L1I, L1D and L2.
    prefetch_useful: int


class Core:
    """One core: retires its trace against its memory hierarchy.

    The core owns its trace columns and its cursor into them (``index``,
    the row the next instruction retires from). :meth:`retire` is the one
    retirement loop: a scheduler resumes it once per step, and :meth:`run`
    opens it for a single step. ``ticks`` is the exact elapsed time and
    ``cycle`` its whole cycles.
    """

    def __init__(self, config: CoreConfig, hierarchy: MemoryHierarchy,
                 trace: PackedTrace) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.trace = trace
        self.index = 0
        self.predictor = make_predictor(config.branch_predictor)
        self.stats = CoreStats(config.tick_table)
        self.cycle = 0
        self.ticks = 0
        self._last_fetch_block = -1

    @property
    def ipc(self) -> float:
        """Instructions per cycle so far."""
        if self.cycle == 0:
            return 0.0
        return self.stats.instructions / self.cycle

    def reset_stats(self) -> None:
        """Warm-up boundary: clear retirement and predictor statistics."""
        self.stats = CoreStats(self.config.tick_table)
        self.predictor.stats.reset()

    def private_counters(self) -> PrivateCounters:
        """This core's private-side statistics, read from the live state."""
        hierarchy = self.hierarchy
        return PrivateCounters(
            l1i=hierarchy.l1i.stats, l1d=hierarchy.l1d.stats,
            l2=hierarchy.l2.stats, branch=self.predictor.stats,
            prefetch_issued=hierarchy.prefetch_issued(),
            prefetch_useful=(hierarchy.l1i.stats.prefetch_useful
                             + hierarchy.l1d.stats.prefetch_useful
                             + hierarchy.l2.stats.prefetch_useful))

    def run(self, count: int, limit=_NO_LIMIT) -> int:
        """Retire up to ``count`` instructions from the core's trace,
        stopping early after one that leaves the clock at or past
        ``limit``; returns how many retired.

        The trace wraps at its end, ChampSim-style. A call whose clock is
        already at or past ``limit`` retires exactly one instruction. One
        step of :meth:`retire`, the one retirement loop, opened and closed
        for the call.
        """
        if count <= 0:
            return 0
        loop = self.retire(count, limit)
        retired = next(loop)
        loop.close()
        return retired

    def retire(self, count: int, limit=_NO_LIMIT):
        """The retirement loop, as a generator of steps.

        The first step is ``run(count, limit)``'s; each later step is sent
        as a ``(count, limit)`` tuple, with ``count >= 1``, and each yields
        how many instructions it retired. The loop binds the trace, the
        hierarchy, the tick table and the statistics into locals once,
        when it opens, so only the clock, ``self.cycle``, is current at
        every yield; the cursor, fetch state, ticks and statistics are
        written back when the loop closes. Nothing else may run or reset
        the core while a loop is open.
        """
        trace = self.trace
        pcs = trace.pcs
        loads = trace.loads
        stores = trace.stores
        flags = trace.flags
        n_records = len(flags)
        index = self.index
        stats = self.stats
        hierarchy = self.hierarchy
        fetch = hierarchy.fetch
        load = hierarchy.load
        store = hierarchy.store
        predictor_update = self.predictor.update
        per_cycle, issue_ticks, load_ticks, store_ticks, mispredict_ticks = (
            self.config.tick_table)
        l1i_latency = hierarchy.l1i.latency
        l1d_latency = hierarchy.l1d.latency
        last_fetch_block = self._last_fetch_block
        cycle = self.cycle
        ticks = self.ticks
        instructions = stats.instructions
        n_loads = stats.loads
        n_stores = stats.stores
        n_branches = stats.branches
        mem_access_cycles = stats.mem_access_cycles
        mem_accesses = stats.mem_accesses
        fetch_stall = stats.fetch_stall_ticks
        load_stall = stats.load_stall_ticks
        store_stall = stats.store_stall_ticks
        branch_stall = stats.branch_stall_ticks
        try:
            while True:
                if cycle >= limit:
                    count = 1
                retired = 0
                while True:
                    if index == n_records:
                        index = 0
                    start = index
                    stop = min(n_records, start + count - retired)
                    for index in range(start, stop):
                        flag = flags[index]
                        pc = pcs[index]
                        cost = issue_ticks
                        fetch_block = pc >> 6
                        if fetch_block != last_fetch_block:
                            last_fetch_block = fetch_block
                            fetch_latency = fetch(pc, cycle)
                            if fetch_latency > l1i_latency:
                                stall = ((fetch_latency - l1i_latency)
                                         * per_cycle)
                                cost += stall
                                fetch_stall += stall
                        if flag & FLAG_HAS_LOAD:
                            latency = load(pc, loads[index], cycle)
                            n_loads += 1
                            mem_accesses += 1
                            mem_access_cycles += latency
                            beyond_l1 = latency - l1d_latency
                            if beyond_l1 > 0:
                                if flag & FLAG_DEPENDENT:
                                    stall = beyond_l1 * per_cycle
                                else:
                                    stall = beyond_l1 * load_ticks
                                cost += stall
                                load_stall += stall
                        if flag & FLAG_HAS_STORE:
                            latency = store(pc, stores[index], cycle)
                            n_stores += 1
                            mem_accesses += 1
                            mem_access_cycles += latency
                            beyond_l1 = latency - l1d_latency
                            if beyond_l1 > 0:
                                stall = beyond_l1 * store_ticks
                                cost += stall
                                store_stall += stall
                        if flag & FLAG_BRANCH:
                            n_branches += 1
                            if not predictor_update(
                                    pc, bool(flag & FLAG_TAKEN)):
                                cost += mispredict_ticks
                                branch_stall += mispredict_ticks
                        ticks += cost
                        cycle = ticks // per_cycle
                        if cycle >= limit:
                            break
                    index += 1
                    retired += index - start
                    instructions += index - start
                    if retired == count or cycle >= limit:
                        break
                self.cycle = cycle
                count, limit = yield retired
        finally:
            self.index = index
            self._last_fetch_block = last_fetch_block
            self.ticks = ticks
            stats.instructions = instructions
            stats.loads = n_loads
            stats.stores = n_stores
            stats.branches = n_branches
            stats.mem_access_cycles = mem_access_cycles
            stats.mem_accesses = mem_accesses
            stats.fetch_stall_ticks = fetch_stall
            stats.load_stall_ticks = load_stall
            stats.store_stall_ticks = store_stall
            stats.branch_stall_ticks = branch_stall
