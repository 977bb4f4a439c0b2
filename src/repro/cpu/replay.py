"""The shared stage: a core that replays a recorded private stream.

In the paper's non-inclusive hierarchy the private levels never see the
shared side (LLC evictions and PInTE invalidations leave private copies
alone), so a core's L1I/L1D/L2, prefetchers and branch predictor can run
once, ahead of time, into a stream (:class:`repro.sim.private.PrivateStream`).
:class:`ReplayCore` is the other half: it walks the same trace, takes each
access's latency from the level the stream says served it, sends the
access's recorded LLC-side events through the core's
:class:`~repro.cache.hierarchy.SharedPort` at the right cycles, and redoes
:meth:`repro.cpu.core.Core.run`'s cycle and statistics arithmetic in the
same floating-point order. Results are bit-identical to the lockstep walk.

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

from typing import Tuple

from repro.branch.base import BranchStats
from repro.cache.cache import CacheStats
from repro.cpu.core import STORE_OVERLAP, CoreStats, PrivateCounters
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


class ReplayCore:
    """A core whose private stage was recorded: replays it through a port.

    Stands in for :class:`~repro.cpu.core.Core` in a session: the same
    ``cycle``/``stats`` surface and the same :meth:`run` contract, over
    the stream's own trace. Running past the stream's end grows the
    stream.
    """

    def __init__(self, machine, port, stream) -> None:
        config = machine.core
        self.config = config
        self.hierarchy = port
        self.stream = stream
        self.stats = CoreStats()
        self.cycle = 0
        self.position = 0  # instructions replayed
        self._issue_cost = 1.0 / config.issue_width
        self._cycle_accumulator = 0.0
        self._last_fetch_block = -1
        self._mlp = config.mlp
        self._mispredict_penalty = config.mispredict_penalty
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

    def run(self, count: int, limit=_NO_LIMIT) -> int:
        """Retire up to ``count`` instructions, stopping early after one
        that leaves the clock at or past ``limit``; returns how many.

        :meth:`repro.cpu.core.Core.run`'s contract, over the stream's
        trace; running past the stream's end grows the stream.
        """
        stream = self.stream
        done = 0
        while done < count:
            available = stream.length - self.position
            if available <= 0:
                stream.grow(min(count - done, GROW_CHUNK))
                continue
            ran = self._replay(min(count - done, available), limit)
            done += ran
            self.position += ran
            if self.cycle >= limit:
                break
        stream.reached = self.position
        return done

    def _replay(self, count: int, limit) -> int:
        # Core.run with each hierarchy call replaced by its
        # recorded level and events; every float operation is the same, in
        # the same order, so cycles and statistics are bit-identical.
        stream = self.stream
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
        issue_cost = self._issue_cost
        mlp = self._mlp
        mispredict_penalty = self._mispredict_penalty
        index = self.index
        fetched = self._fetches
        data = self._data
        branched = self._branches
        last_fetch_block = self._last_fetch_block
        cycle = self.cycle
        accumulator = self._cycle_accumulator
        stats = self.stats
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

        done = 0
        while done < count:
            flag = flags[index]
            pc = pcs[index]
            index += 1
            if index == n_records:
                index = 0
            cost = issue_cost
            base_cycles += issue_cost
            fetch_block = pc >> 6
            if fetch_block != last_fetch_block:
                last_fetch_block = fetch_block
                code = fetch_codes[fetched]
                fetched += 1
                latency = fetch_latency[code & 3]
                if code > 3:
                    latency += shared(code >> 2, cycle, fetch_llc)
                if latency > l1i_latency:
                    stall = latency - l1i_latency
                    cost += stall
                    fetch_stall_cycles += stall
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
                        stall = beyond_l1
                    else:
                        stall = beyond_l1 / mlp
                    cost += stall
                    load_stall_cycles += stall
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
                    stall = beyond_l1 / STORE_OVERLAP
                    cost += stall
                    store_stall_cycles += stall
            if flag & FLAG_BRANCH:
                n_branches += 1
                if mispredicts[branched]:
                    cost += mispredict_penalty
                    branch_stall_cycles += mispredict_penalty
                branched += 1
            instructions += 1
            accumulator += cost
            whole = int(accumulator)
            if whole:
                cycle += whole
                accumulator -= whole
            done += 1
            if cycle >= limit:
                break

        self.index = index
        self._fetches = fetched
        self._data = data
        self._branches = branched
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
        return done

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
        self.stats = CoreStats()
        self._warm = (self._fetches, self._data, self._branches)

    def private_counters(self) -> PrivateCounters:
        """The private-side statistics the lockstep caches would hold."""
        stream = self.stream
        fetch_start, data_start, branch_start = self._warm
        fetch_l2, fetch_llc = stream.fetches.misses(fetch_start,
                                                    self._fetches)
        data_l2, data_llc = stream.datas.misses(data_start, self._data)
        l1d = CacheStats()
        l1d.accesses = self._data - data_start
        l1d.misses = data_l2
        l2 = CacheStats()
        l2.accesses = fetch_l2 + data_l2
        l2.misses = fetch_llc + data_llc
        branch = BranchStats()
        branch.lookups = self._branches - branch_start
        branch.mispredictions = stream.mispredicts.count(
            1, branch_start, self._branches)
        return PrivateCounters(
            l1d=l1d, l2=l2, branch=branch,
            prefetch_issued=(stream.fetches.issued(0, self._fetches)
                             + stream.datas.issued(0, self._data)),
            prefetch_useful=(
                stream.fetches.useful(fetch_start, self._fetches)
                + stream.datas.useful(data_start, self._data)))
