"""Cycle-accounting core model.

Not an out-of-order pipeline simulator: a deliberately simple timing model in
the Sniper/interval-analysis spirit. Each instruction costs ``1/issue_width``
cycles; memory instructions add their hierarchy latency — fully serialised
when the access is *dependent* (pointer chasing), divided by the configured
memory-level-parallelism factor otherwise; branch mispredictions add a flush
penalty. This is enough to make IPC respond to cache contention the way the
paper's metrics need (IPC, MR, AMAT), while staying fast in pure Python.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.branch import make_predictor
from repro.branch.base import BranchStats
from repro.cache.cache import CacheStats
from repro.cache.hierarchy import MemoryHierarchy
from repro.config import CoreConfig
from repro.trace.packed import (
    FLAG_BRANCH,
    FLAG_DEPENDENT,
    FLAG_HAS_LOAD,
    FLAG_HAS_STORE,
    FLAG_TAKEN,
    PackedTrace,
)

#: Stores retire through a write buffer; their latency is overlapped far more
#: aggressively than loads.
STORE_OVERLAP = 8.0

_NO_LIMIT = float("inf")


class CoreStats:
    """Retirement-side counters, including a CPI-stack breakdown.

    The stack components (base issue bandwidth, instruction fetch, load
    stalls, store stalls, branch flushes) sum to the core's total cycles, so
    ``cpi_stack()`` explains exactly where time went — the standard way to
    interpret why contention hurt a configuration.
    """

    __slots__ = ("instructions", "loads", "stores", "branches",
                 "mem_access_cycles", "mem_accesses",
                 "base_cycles", "fetch_stall_cycles", "load_stall_cycles",
                 "store_stall_cycles", "branch_stall_cycles")

    def __init__(self) -> None:
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.mem_access_cycles = 0
        self.mem_accesses = 0
        self.base_cycles = 0.0
        self.fetch_stall_cycles = 0.0
        self.load_stall_cycles = 0.0
        self.store_stall_cycles = 0.0
        self.branch_stall_cycles = 0.0

    @property
    def amat(self) -> float:
        """Average memory access time over demand loads/stores (cycles)."""
        if self.mem_accesses == 0:
            return 0.0
        return self.mem_access_cycles / self.mem_accesses

    def cpi_stack(self) -> dict:
        """Per-instruction cycle breakdown; components sum to total CPI."""
        if self.instructions == 0:
            return {"base": 0.0, "fetch": 0.0, "load": 0.0, "store": 0.0,
                    "branch": 0.0}
        n = self.instructions
        return {
            "base": self.base_cycles / n,
            "fetch": self.fetch_stall_cycles / n,
            "load": self.load_stall_cycles / n,
            "store": self.store_stall_cycles / n,
            "branch": self.branch_stall_cycles / n,
        }


class PrivateCounters(NamedTuple):
    """The private-side statistics a result reports for one core.

    A lockstep :class:`Core` reads them off its live caches and predictor;
    a replayed core (:mod:`repro.sim.private`) rebuilds them from its
    recorded private stream.
    """

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
    the row the next instruction retires from); :meth:`run` is the one way
    to retire instructions.
    """

    def __init__(self, config: CoreConfig, hierarchy: MemoryHierarchy,
                 trace: PackedTrace) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.trace = trace
        self.index = 0
        self.predictor = make_predictor(config.branch_predictor)
        self.stats = CoreStats()
        self.cycle = 0
        self._issue_cost = 1.0 / config.issue_width
        self._cycle_accumulator = 0.0
        self._last_fetch_block = -1
        # Per-instruction hot-path bindings (cache latencies and core knobs
        # are fixed for the life of a simulation).
        self._l1i_latency = hierarchy.l1i.latency
        self._l1d_latency = hierarchy.l1d.latency
        self._mlp = config.mlp
        self._mispredict_penalty = config.mispredict_penalty

    @property
    def ipc(self) -> float:
        """Instructions per cycle so far."""
        if self.cycle == 0:
            return 0.0
        return self.stats.instructions / self.cycle

    def reset_stats(self) -> None:
        """Warm-up boundary: clear retirement and predictor statistics."""
        self.stats = CoreStats()
        self.predictor.stats.reset()

    def private_counters(self) -> PrivateCounters:
        """This core's private-side statistics, read from the live state."""
        hierarchy = self.hierarchy
        return PrivateCounters(
            l1d=hierarchy.l1d.stats, l2=hierarchy.l2.stats,
            branch=self.predictor.stats,
            prefetch_issued=hierarchy.prefetch_issued(),
            prefetch_useful=(hierarchy.l1i.stats.prefetch_useful
                             + hierarchy.l1d.stats.prefetch_useful
                             + hierarchy.l2.stats.prefetch_useful))

    def run(self, count: int, limit=_NO_LIMIT) -> int:
        """Retire up to ``count`` instructions from the core's trace,
        stopping early after one that leaves the clock at or past
        ``limit``; returns how many retired.

        The trace wraps at its end, ChampSim-style. A call whose clock is
        already at or past ``limit`` retires exactly one instruction. The
        clock, fetch state and statistics live in locals for the call and
        are written back when it returns, so ``self.cycle`` is current
        between calls only: a caller that must read the clock after every
        instruction passes ``limit=0``.
        """
        if count <= 0:
            return 0
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
        issue_cost = self._issue_cost
        l1i_latency = self._l1i_latency
        l1d_latency = self._l1d_latency
        mlp = self._mlp
        mispredict_penalty = self._mispredict_penalty
        last_fetch_block = self._last_fetch_block
        cycle = self.cycle
        accumulator = self._cycle_accumulator
        instructions = stats.instructions
        n_loads = stats.loads
        n_stores = stats.stores
        n_branches = stats.branches
        mem_access_cycles = stats.mem_access_cycles
        mem_accesses = stats.mem_accesses
        base_cycles = stats.base_cycles
        fetch_stall_cycles = stats.fetch_stall_cycles
        load_stall_cycles = stats.load_stall_cycles
        store_stall_cycles = stats.store_stall_cycles
        branch_stall_cycles = stats.branch_stall_cycles
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
                cost = issue_cost
                base_cycles += issue_cost
                fetch_block = pc >> 6
                if fetch_block != last_fetch_block:
                    last_fetch_block = fetch_block
                    fetch_latency = fetch(pc, cycle)
                    if fetch_latency > l1i_latency:
                        stall = fetch_latency - l1i_latency
                        cost += stall
                        fetch_stall_cycles += stall
                if flag & FLAG_HAS_LOAD:
                    latency = load(pc, loads[index], cycle)
                    n_loads += 1
                    mem_accesses += 1
                    mem_access_cycles += latency
                    beyond_l1 = latency - l1d_latency
                    if beyond_l1 > 0:
                        if flag & FLAG_DEPENDENT:
                            stall = beyond_l1
                        else:
                            stall = beyond_l1 / mlp
                        cost += stall
                        load_stall_cycles += stall
                if flag & FLAG_HAS_STORE:
                    latency = store(pc, stores[index], cycle)
                    n_stores += 1
                    mem_accesses += 1
                    mem_access_cycles += latency
                    beyond_l1 = latency - l1d_latency
                    if beyond_l1 > 0:
                        stall = beyond_l1 / STORE_OVERLAP
                        cost += stall
                        store_stall_cycles += stall
                if flag & FLAG_BRANCH:
                    n_branches += 1
                    if not predictor_update(pc, bool(flag & FLAG_TAKEN)):
                        cost += mispredict_penalty
                        branch_stall_cycles += mispredict_penalty
                instructions += 1
                accumulator += cost
                whole = int(accumulator)
                if whole:
                    cycle += whole
                    accumulator -= whole
                    # Only here does the clock move, so only here can it
                    # reach the limit.
                    if cycle >= limit:
                        break
            index += 1
            retired += index - start
            if retired == count or cycle >= limit:
                break

        self.index = index
        self._last_fetch_block = last_fetch_block
        self.cycle = cycle
        self._cycle_accumulator = accumulator
        stats.instructions = instructions
        stats.loads = n_loads
        stats.stores = n_stores
        stats.branches = n_branches
        stats.mem_access_cycles = mem_access_cycles
        stats.mem_accesses = mem_accesses
        stats.base_cycles = base_cycles
        stats.fetch_stall_cycles = fetch_stall_cycles
        stats.load_stall_cycles = load_stall_cycles
        stats.store_stall_cycles = store_stall_cycles
        stats.branch_stall_cycles = branch_stall_cycles
        return retired
