"""The shared stage: a core that replays a recorded private stream.

In the paper's non-inclusive hierarchy the private levels never see the
shared side (LLC evictions and PInTE invalidations leave private copies
alone), so a core's L1I/L1D/L2, prefetchers and branch predictor can run
once, ahead of time, into a stream (:class:`repro.sim.private.PrivateStream`).
:class:`ReplayCore` is the other half: it walks the same trace, takes each
access's latency from the level the stream says served it, sends the
access's recorded LLC-side events through the core's
:class:`~repro.cache.hierarchy.SharedPort` at the right cycles, and charges
each instruction the same costs from the same integer tick table
(:attr:`repro.config.CoreConfig.tick_table`) as
:meth:`repro.cpu.core.Core.retire`. Ticks are exact, so results are
bit-identical to the lockstep walk.

Stream layout, per access (one list for fetches, one for loads and stores,
in program order): ``code = level | events << 2``, where ``level`` is 0
(L1 hit), 1 (L2 hit) or 2 (LLC demand) and ``events`` counts the access's
LLC-side events. Per branch: 1 when mispredicted. Per event, in order: the
block and ``offset << 3 | flags``, where ``offset`` is the event's cycle
offset from the instruction's start (the LLC lookup excluded) and the flags
name its kind and whether it follows the access's demand read (it then
also waits for the LLC lookup and the demand's DRAM time).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.branch.base import BranchStats
from repro.cpu.core import Core, CoreStats, PrivateCounters
from repro.trace.packed import (
    FLAG_BRANCH,
    FLAG_DEPENDENT,
    FLAG_HAS_LOAD,
    FLAG_HAS_STORE,
)

__all__ = [
    "EVENT_DEMAND",
    "EVENT_POST",
    "EVENT_PREFETCH",
    "EVENT_WRITEBACK",
    "ReplayCore",
    "StreamStats",
]

#: Event kinds (the low two bits of an event's info word).
EVENT_DEMAND = 0  # L2 demand miss: SharedPort.llc_read
EVENT_WRITEBACK = 1  # dirty L2 victim: SharedPort.llc_writeback
EVENT_PREFETCH = 2  # prefetch past the private levels: SharedPort.llc_prefetch
#: Set on events after the access's demand read.
EVENT_POST = 4
_KIND = 3

#: Instructions the private stage runs ahead per refill, past the stream's
#: first build, when a co-runner outlives its stream.
GROW_CHUNK = 512

_NO_LIMIT = float("inf")


class StreamStats(NamedTuple):
    """One private level as its stream knows it: demand accesses, misses."""

    accesses: int
    misses: int

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class ReplayCore:
    """A core whose private stage was recorded: replays it through a port.

    Stands in for :class:`~repro.cpu.core.Core` in a session: the same
    ``cycle``/``stats`` surface and the same :meth:`run` and
    :meth:`retire` contract, over the stream's own trace. Within an open
    loop only ``cycle`` is current; ``index``, ``position``, ``ticks``,
    the stream cursors, the statistics and ``stream.reached`` are current
    once the loop closes. Running past the stream's end grows the stream.
    """

    def __init__(self, machine, port, stream) -> None:
        config = machine.core
        self.config = config
        self.hierarchy = port
        self.stream = stream
        self.stats = CoreStats(config.tick_table)
        self.cycle = 0
        self.ticks = 0
        self.position = 0  # instructions replayed
        self._last_fetch_block = -1
        l1i, l1d, l2 = (machine.l1i.latency, machine.l1d.latency,
                        machine.l2.latency)
        # The lockstep walk's sums: l1, l1 + l2, (l1 + l2) + llc (+ DRAM).
        self._fetch_latency = (l1i, l1i + l2, l1i + l2 + port.llc_latency)
        self._data_latency = (l1d, l1d + l2, l1d + l2 + port.llc_latency)
        # Cursors into the stream: trace row (the next instruction's),
        # fetches, loads/stores, branches and events consumed so far.
        self.index = 0
        self._fetches = self._data = self._branches = self._events = 0
        #: The fetch/data/branch cursors at the warm-up reset.
        self._warm: Tuple[int, int, int] = (0, 0, 0)

    #: :meth:`repro.cpu.core.Core.run`'s contract, over the stream's trace.
    run = Core.run

    def retire(self, count: int, limit=_NO_LIMIT):
        """The replay loop, as a generator of steps:
        :meth:`repro.cpu.core.Core.retire`'s contract.

        Only the clock is current at every yield; the cursors, position,
        ticks, statistics and ``stream.reached`` are written back when the
        loop closes. Running past the stream's end grows the stream.
        """
        # Core.retire with each hierarchy call replaced by its recorded
        # level and events.
        stream = self.stream
        length = stream.length
        fetch_codes = stream.fetches.codes
        data_codes = stream.datas.codes
        mispredicts = stream.mispredicts
        shared = self._shared
        pcs = stream.packed.pcs
        flags = stream.packed.flags
        n_records = len(flags)
        fetch_latency = self._fetch_latency
        data_latency = self._data_latency
        fetch_llc = fetch_latency[2]
        data_llc = data_latency[2]
        l1i_latency = fetch_latency[0]
        l1d_latency = data_latency[0]
        per_cycle, issue_ticks, load_ticks, store_ticks, mispredict_ticks = (
            self.config.tick_table)
        position = self.position
        index = self.index
        fetched = self._fetches
        data = self._data
        branched = self._branches
        last_fetch_block = self._last_fetch_block
        cycle = self.cycle
        ticks = self.ticks
        stats = self.stats
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
                done = 0
                while done < count:
                    if position == length:
                        stream.grow(min(count - done, GROW_CHUNK))
                        # A regrown stream may have new columns.
                        length = stream.length
                        fetch_codes = stream.fetches.codes
                        data_codes = stream.datas.codes
                        mispredicts = stream.mispredicts
                    stop = min(count, done + length - position)
                    start = done
                    while done < stop:
                        flag = flags[index]
                        pc = pcs[index]
                        index += 1
                        if index == n_records:
                            index = 0
                        cost = issue_ticks
                        fetch_block = pc >> 6
                        if fetch_block != last_fetch_block:
                            last_fetch_block = fetch_block
                            code = fetch_codes[fetched]
                            fetched += 1
                            latency = fetch_latency[code & 3]
                            if code > 3:
                                latency += shared(code >> 2, cycle, fetch_llc)
                            if latency > l1i_latency:
                                stall = (latency - l1i_latency) * per_cycle
                                cost += stall
                                fetch_stall += stall
                        if flag & FLAG_HAS_LOAD:
                            code = data_codes[data]
                            data += 1
                            latency = data_latency[code & 3]
                            if code > 3:
                                latency += shared(code >> 2, cycle, data_llc)
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
                            code = data_codes[data]
                            data += 1
                            latency = data_latency[code & 3]
                            if code > 3:
                                latency += shared(code >> 2, cycle, data_llc)
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
                            if mispredicts[branched]:
                                cost += mispredict_ticks
                                branch_stall += mispredict_ticks
                            branched += 1
                        ticks += cost
                        cycle = ticks // per_cycle
                        done += 1
                        if cycle >= limit:
                            break
                    position += done - start
                    instructions += done - start
                    if cycle >= limit:
                        break
                self.cycle = cycle
                count, limit = yield done
        finally:
            self.position = position
            stream.reached = position
            self.index = index
            self._fetches = fetched
            self._data = data
            self._branches = branched
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

    def _shared(self, count: int, cycle: int, fixed: int) -> int:
        """Send one access's ``count`` events through the shared stage.

        ``cycle`` is the instruction's start and ``fixed`` the access's
        LLC-demand latency before DRAM. Returns the DRAM latency the
        access's demand read added (0 when it had none or hit). The PInTE
        engine fires after a demand read and everything that followed it,
        as at the end of the lockstep walk's L2-miss path.
        """
        stream = self.stream
        blocks = stream.ev_blocks
        infos = stream.ev_info
        port = self.hierarchy
        llc_latency = port.llc_latency
        extra = 0
        demand = None
        first = self._events
        self._events = first + count
        for event in range(first, first + count):
            info = infos[event]
            block = blocks[event]
            offset = info >> 3
            if info & EVENT_POST:
                at = cycle + ((offset + llc_latency) + extra)
            else:
                at = cycle + offset
            kind = info & _KIND
            if kind == EVENT_DEMAND:
                demand = block
                extra = port.llc_read(block, cycle + (offset + llc_latency))
            elif kind == EVENT_WRITEBACK:
                port.llc_writeback(block, at)
            else:
                port.llc_prefetch(block, at)
        if demand is not None and port.pinte is not None:
            port.pinte.on_llc_access(port.llc.set_index(demand),
                                     cycle + (fixed + extra), port.owner)
        return extra

    # ------------------------------------------------------------ statistics
    def reset_stats(self) -> None:
        """Warm-up boundary: clear retirement statistics and start the
        private counters from the stream's current cursors."""
        self.stats = CoreStats(self.config.tick_table)
        self._warm = (self._fetches, self._data, self._branches)

    def private_counters(self) -> PrivateCounters:
        """The private-side statistics the lockstep caches would hold."""
        stream = self.stream
        fetch_start, data_start, branch_start = self._warm
        fetch_l2, fetch_llc = stream.fetches.misses(fetch_start,
                                                    self._fetches)
        data_l2, data_llc = stream.datas.misses(data_start, self._data)
        branch = BranchStats()
        branch.lookups = self._branches - branch_start
        branch.mispredictions = stream.mispredicts.count(
            1, branch_start, self._branches)
        return PrivateCounters(
            l1i=StreamStats(self._fetches - fetch_start, fetch_l2),
            l1d=StreamStats(self._data - data_start, data_l2),
            l2=StreamStats(fetch_l2 + data_l2, fetch_llc + data_llc),
            branch=branch,
            prefetch_issued=(stream.fetches.issued(0, self._fetches)
                             + stream.datas.issued(0, self._data)),
            prefetch_useful=(
                stream.fetches.useful(fetch_start, self._fetches)
                + stream.datas.useful(data_start, self._data)))
