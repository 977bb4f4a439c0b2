"""Private-stage streams: run each trace's private caches once, replay the rest.

In the paper's non-inclusive hierarchy nothing on the shared side ever
reaches a private cache: LLC hits, fills and evictions, PInTE
invalidations and DRAM timing leave L1I, L1D and L2 alone
(:mod:`repro.cache.hierarchy`: "LLC evictions leave private copies
alone"), and a prefetcher's private fills do not depend on whether its LLC
probe hit. So everything the private levels, their prefetchers and the
branch predictor do is a function of the trace, the core's address slot,
the private-side config and the policy seed — not of the LLC, PInTE, the
co-runners or the timing. The timing hosts' demand walk splits on that
line:

* the **private stage**, :class:`PrivateStream`, walks the trace columns
  as the lockstep core does (the same fetch blocks, loads, stores and
  branches, wrapping at the trace's end) through a
  :class:`~repro.cache.hierarchy.MemoryHierarchy` whose shared stage is a
  recorder: per access it keeps the level that served it, per branch
  whether it was mispredicted, and every LLC-side event (demand read,
  dirty L2 write-back, prefetch probe) with its cycle offset. It keeps no
  clock. A stream that wraps its trace (a co-runner, ChampSim-style)
  copies the columns of its last lap once its private state repeats at a
  lap start, since from then on every lap records the same;
* the **shared stage**, :class:`~repro.cpu.replay.ReplayCore`, replays a
  stream through the LLC, PInTE, the tracker, the partitioner and DRAM,
  charging the core's costs from the same integer tick table.

:class:`PrivateStreamMemo` keeps streams for the life of one
:func:`~repro.campaign.run_campaign` or
:func:`~repro.experiments.registry.execute_plan` call, so a 12-point PInTE
sweep runs its trace's private stage once, not 12 times, and replays are
bit-identical to the lockstep walk. Inclusive and exclusive hierarchies
break the independence and always walk in lockstep.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from types import SimpleNamespace
from typing import Dict, Hashable, Iterable, Tuple

from repro.branch import make_predictor, predictor_state
from repro.cache.cache import LruLevel
from repro.cache.hierarchy import MemoryHierarchy
from repro.config import MachineConfig
from repro.cpu.replay import (
    EVENT_DEMAND,
    EVENT_POST,
    EVENT_PREFETCH,
    EVENT_WRITEBACK,
)
from repro.sim.session import core_stream
from repro.trace.packed import (
    FLAG_BRANCH,
    FLAG_HAS_LOAD,
    FLAG_HAS_STORE,
    FLAG_TAKEN,
)

__all__ = [
    "PrivateStream",
    "PrivateStreamMemo",
    "private_key",
    "replays",
]


def replays(config: MachineConfig) -> bool:
    """Whether ``config``'s private stage may run apart from its LLC."""
    return config.inclusion == "non-inclusive"


def private_key(config: MachineConfig) -> str:
    """The private-side part of a stream key: what the private stage reads.

    A ``repr`` rather than the dataclasses themselves, so configs that are
    equal but typed differently (``4`` vs ``4.0``) never share a stream.
    """
    return repr((config.block_size, config.l1i, config.l1d, config.l2,
                 config.core))


class _AccessLog:
    """One access stream (fetches, or loads and stores) of a private stage."""

    __slots__ = ("codes", "issued_col", "useful_col")

    def __init__(self, prefetching: bool) -> None:
        self.codes = array("H")  # level | events << 2
        # Per access, when a prefetcher is configured: prefetches issued
        # and private demand hits on prefetched blocks.
        self.issued_col = array("H") if prefetching else None
        self.useful_col = array("H") if prefetching else None

    def misses(self, start: int, end: int) -> Tuple[int, int]:
        """Accesses in ``[start, end)`` that missed L1, and that missed L2."""
        levels = [code & 3 for code in self.codes[start:end]]
        return len(levels) - levels.count(0), levels.count(2)

    def issued(self, start: int, end: int) -> int:
        if self.issued_col is None:
            return 0
        return sum(self.issued_col[start:end])

    def useful(self, start: int, end: int) -> int:
        if self.useful_col is None:
            return 0
        return sum(self.useful_col[start:end])


#: Stands in for the LLC, DRAM and tracker a recorder never touches; its
#: zero latency makes the LLC lookup free in recorded cycle offsets.
_DETACHED = SimpleNamespace(latency=0)


class _Recorder(MemoryHierarchy):
    """The lockstep walk with its shared stage recorded instead of run.

    Every access runs at cycle 0, so the cycle a shared-stage call receives
    is its offset within the instruction; the LLC lookup counts as 0
    cycles, since the replay adds the replaying machine's own LLC latency.
    """

    def __init__(self, config: MachineConfig, owner: int, seed: int,
                 stream: "PrivateStream") -> None:
        super().__init__(config, owner, llc=_DETACHED, dram=_DETACHED,
                         tracker=_DETACHED, seed=seed)
        self.stream = stream
        self._after_demand = False
        self._prefetchers = [prefetcher for prefetcher in (
            self.l1i_prefetcher, self.l1d_prefetcher, self.l2_prefetcher)
            if prefetcher is not None]

    def _access(self, log: _AccessLog, l1, prefetcher, pc: int, block: int,
                is_write: bool) -> None:
        l2 = self.l2
        events = len(self.stream.ev_info)
        misses = l1.stats.misses + l2.stats.misses
        if log.issued_col is not None:
            issued, useful = self._prefetch_counts()
        self._after_demand = False
        self._demand(l1, prefetcher, pc, block, is_write, 0)
        level = l1.stats.misses + l2.stats.misses - misses
        log.codes.append(level | (len(self.stream.ev_info) - events) << 2)
        if log.issued_col is not None:
            issued_now, useful_now = self._prefetch_counts()
            log.issued_col.append(issued_now - issued)
            log.useful_col.append(useful_now - useful)

    def _prefetch_counts(self) -> Tuple[int, int]:
        return (sum(prefetcher.stats.issued
                    for prefetcher in self._prefetchers),
                self.l1i.stats.prefetch_useful
                + self.l1d.stats.prefetch_useful
                + self.l2.stats.prefetch_useful)

    # -- the shared stage, recorded ----------------------------------------
    def _event(self, block: int, cycle: int, kind: int) -> None:
        stream = self.stream
        stream.ev_blocks.append(block)
        stream.ev_info.append(
            cycle << 3 | (EVENT_POST if self._after_demand else 0) | kind)

    def llc_read(self, block: int, cycle: int) -> int:
        self._event(block, cycle, EVENT_DEMAND)
        self._after_demand = True
        return 0

    def llc_writeback(self, block: int, cycle: int) -> None:
        self._event(block, cycle, EVENT_WRITEBACK)

    def llc_prefetch(self, block: int, cycle: int) -> None:
        self._event(block, cycle, EVENT_PREFETCH)


class _Lap:
    """The lap a periodic stream copies: where it sits in each column,
    and per trace row the offsets into it at that row's start."""

    __slots__ = ("fetch", "data", "event", "fetch_at", "data_at",
                 "event_at", "branch_at", "branches", "mispredict")

    def __init__(self, stream: "PrivateStream",
                 mark: Tuple[int, int, int, int]) -> None:
        self.fetch, self.data, _, self.event = mark
        packed = stream.packed
        fetch_codes = stream.fetches.codes
        data_codes = stream.datas.codes
        fetches = accesses = events = 0
        self.fetch_at = fetch_at = array("q", [0])
        self.data_at = data_at = array("q", [0])
        self.event_at = event_at = array("q", [0])
        self.branch_at = branch_at = array("q", [0])
        #: Each branch row's (pc, taken), in lap order.
        self.branches = branches = []
        # The walk's fetch-block test, from the lap start's fetch block.
        last_fetch_block = stream._last_fetch_block
        for pc, flag in zip(packed.pcs, packed.flags):
            if pc >> 6 != last_fetch_block:
                last_fetch_block = pc >> 6
                events += fetch_codes[self.fetch + fetches] >> 2
                fetches += 1
            if flag & FLAG_HAS_LOAD:
                events += data_codes[self.data + accesses] >> 2
                accesses += 1
            if flag & FLAG_HAS_STORE:
                events += data_codes[self.data + accesses] >> 2
                accesses += 1
            if flag & FLAG_BRANCH:
                branches.append((pc, bool(flag & FLAG_TAKEN)))
            fetch_at.append(fetches)
            data_at.append(accesses)
            event_at.append(events)
            branch_at.append(len(branches))
        #: Where the copied mispredict lap starts, once the predictor's
        #: state repeats too; until then the predictor walks the branches.
        self.mispredict = None


def _copyable(stage: _Recorder) -> bool:
    """Whether a lap-start snapshot covers all of ``stage``'s private
    state: LRU levels and no prefetcher."""
    return not stage._prefetchers and all(
        isinstance(level, LruLevel)
        for level in (stage.l1i, stage.l1d, stage.l2))


class PrivateStream:
    """The recorded private stage of one core slot over one trace.

    Built lazily by the core replaying it: :meth:`grow` runs the private
    stage further, first up to ``target`` instructions (a primary core's
    whole budget) and then in chunks as a co-runner, whose length depends
    on timing, asks for more. A co-runner's private caches stay live for
    that, so an extended stream is exactly the stream a longer first build
    would have recorded. A primary (core 0) retires exactly its budget, so
    its caches and predictor are let go once the target is recorded; were
    it ever asked for more, the stage would rerun from the trace's start.
    ``seconds`` is the wall time spent building, read off
    ``time.monotonic`` so that a build leaves the ``perf_counter``
    readings a job takes for its own timing untouched.

    A stream that wraps its trace copies instead of walking once its state
    repeats. The walk is deterministic and reads the same rows every lap,
    so when the private state at a lap's start equals the state at the
    previous lap's start, every later lap records exactly what that lap
    did. At each wrap the stream compares a value snapshot of its caches
    (each LRU level's ordered sets with their flags, and the fetch block)
    with the previous wrap's; once they match, later laps copy that lap's
    access codes and events, cut at any row, and walk only the predictor
    over the lap's branches. The predictor's state (a deep value copy,
    :func:`~repro.branch.predictor_state`) repeats much later, if ever; it
    is snapshotted only at wraps where the last two laps mispredicted
    alike, and once it matches the mispredicts are copied too. Snapshots
    are dropped once their period is found. Copying needs snapshots that
    cover all private state, so a stream with a prefetcher or a non-LRU
    private level always walks. Either way every column, and ``length``,
    equal a plain walk's.
    """

    def __init__(self, config: MachineConfig, trace, core_id: int,
                 seed: int, target: int) -> None:
        self.packed = core_stream(trace, core_id)
        if not len(self.packed):
            raise ValueError(f"trace {self.packed.name!r} is empty")
        self.target = target
        self.seconds = 0.0
        #: Instructions the latest replaying core retired from this stream.
        self.reached = 0
        #: (length, seconds) after each build: what each prefix cost.
        self._costs = [(0, 0.0)]
        self._config = config
        self._core_id = core_id
        self._seed = seed
        self._start()

    def _start(self) -> None:
        """Empty columns and a fresh private stage at the trace's start."""
        config, seed = self._config, self._seed
        prefetching = any(level.prefetcher != "none"
                          for level in (config.l1i, config.l1d, config.l2))
        self.fetches = _AccessLog(prefetching)
        self.datas = _AccessLog(prefetching)
        self.mispredicts = bytearray()
        self.ev_blocks = array("q")
        self.ev_info = array("i")
        self.length = 0
        self._stage = _Recorder(config, self._core_id, seed, self)
        self._predictor = make_predictor(config.core.branch_predictor)
        #: The trace row the next instruction is read from; the trace's
        #: length at a lap's end.
        self._index = 0
        self._last_fetch_block = -1
        self._copyable = _copyable(self._stage)
        #: The last three lap starts' column lengths (fetch codes, data
        #: codes, mispredicts, events), latest last.
        self._marks = [(0, 0, 0, 0)]
        #: The previous lap start's cache and predictor snapshots.
        self._cache_state = self._predictor_state = None
        #: The lap later laps copy, once the cache state repeats.
        self._lap = None

    def grow(self, minimum: int) -> None:
        """Run the private stage over at least ``minimum`` more
        instructions, and at least up to the stream's target."""
        start = time.monotonic()
        count = max(minimum, self.target - self.length)
        if self._stage is None:
            # Re-recording the same prefix leaves every cursor valid.
            count += self.length
            self._start()
            self._costs = [(0, 0.0)]
        self._record(count)
        self.length += count
        if self._core_id == 0 and self.length >= self.target:
            self._stage = self._predictor = None
        self.seconds += time.monotonic() - start
        self._costs.append((self.length, self.seconds))

    def _record(self, count: int) -> None:
        """Record the next ``count`` instructions, one lap at a time:
        walked until the cache state repeats, copied after."""
        n_records = len(self.packed)
        while count:
            if self._index == n_records:
                # The next lap starts; a stream that stops at a lap's end
                # (a primary whose budget is its trace) never gets here.
                self._index = 0
                if self._copyable:
                    self._wrap()
            row = self._index
            self._index = end = min(n_records, row + count)
            if self._lap is None:
                self._walk(row, end)
            else:
                self._copy(row, end)
            count -= end - row

    def _walk(self, start: int, end: int) -> None:
        """Record the private stage of trace rows ``[start, end)``: the
        lockstep core's accesses, in its order, with no clock."""
        packed = self.packed
        flags = packed.flags
        stage = self._stage
        access = stage._access
        fetch = (self.fetches, stage.l1i, stage.l1i_prefetcher)
        data = (self.datas, stage.l1d, stage.l1d_prefetcher)
        mask = ~(self._config.block_size - 1)
        predictor_update = self._predictor.update
        mispredict = self.mispredicts.append
        last_fetch_block = self._last_fetch_block
        for index in range(start, end):
            flag = flags[index]
            pc = packed.pcs[index]
            # The lockstep core's fetch-block test.
            if pc >> 6 != last_fetch_block:
                last_fetch_block = pc >> 6
                access(*fetch, pc, pc & mask, False)
            if flag & FLAG_HAS_LOAD:
                access(*data, pc, packed.loads[index] & mask, False)
            if flag & FLAG_HAS_STORE:
                access(*data, pc, packed.stores[index] & mask, True)
            if flag & FLAG_BRANCH:
                mispredict(not predictor_update(pc, bool(flag & FLAG_TAKEN)))
        self._last_fetch_block = last_fetch_block

    def _copy(self, start: int, end: int) -> None:
        """Record trace rows ``[start, end)`` from the periodic lap: its
        columns copied, the predictor walked until it repeats too."""
        lap = self._lap
        for column, base, at in (
                (self.fetches.codes, lap.fetch, lap.fetch_at),
                (self.datas.codes, lap.data, lap.data_at),
                (self.ev_blocks, lap.event, lap.event_at),
                (self.ev_info, lap.event, lap.event_at)):
            column.extend(column[base + at[start]:base + at[end]])
        first, last = lap.branch_at[start], lap.branch_at[end]
        mispredicts = self.mispredicts
        if lap.mispredict is not None:
            mispredicts.extend(mispredicts[lap.mispredict + first:
                                           lap.mispredict + last])
        else:
            update = self._predictor.update
            mispredicts.extend([not update(pc, taken)
                                for pc, taken in lap.branches[first:last]])

    def _wrap(self) -> None:
        """At a lap start: look for the cache period, then the
        predictor's."""
        marks = self._marks
        marks.append((len(self.fetches.codes), len(self.datas.codes),
                      len(self.mispredicts), len(self.ev_info)))
        del marks[:-3]
        if self._lap is None:
            state = self._cache_snapshot()
            if state == self._cache_state:
                self._lap = _Lap(self, marks[-2])
                self._cache_state = None
            else:
                self._cache_state = state
            return
        if self._lap.mispredict is not None:
            return
        # Snapshot the predictor only after two laps that mispredicted
        # alike. Once its state repeats every lap mispredicts alike, so
        # this cheap test delays finding the period by two laps at most.
        mispredicts = self.mispredicts
        if (mispredicts[marks[0][2]:marks[1][2]]
                != mispredicts[marks[1][2]:marks[2][2]]):
            self._predictor_state = None
            return
        state = predictor_state(self._predictor)
        if state == self._predictor_state:
            self._lap.mispredict = marks[1][2]
            self._predictor_state = None
        else:
            self._predictor_state = state

    def _cache_snapshot(self) -> tuple:
        """The cache side's state by value: the fetch block and each LRU
        level's sets in recency order, with their flags."""
        stage = self._stage
        return (self._last_fetch_block, [
            tuple(blocks.items())
            for level in (stage.l1i, stage.l1d, stage.l2)
            for blocks in level._sets])

    def cost_of(self, instructions: int) -> float:
        """Build seconds of the stream's first ``instructions`` (linear
        within one build)."""
        costs = self._costs
        for (start, spent), (end, total) in zip(costs, costs[1:]):
            if instructions <= end:
                return spent + (total - spent) * (instructions - start) / (
                    end - start)
        return self.seconds


class PrivateStreamMemo:
    """Private streams by key, for the life of one campaign or plan.

    A key is ``(trace key, core slot, private_key(config), policy seed)``
    (:func:`repro.sim.batch.job_stream_keys`). Streams are freed after
    their last use in one of two ways: the owner calls :meth:`expect` for
    each key once per job that will read it and :meth:`release` after
    each such job (an inline campaign), or a pool worker is told which keys
    to :meth:`drop`. Nothing outlives the memo object.
    """

    def __init__(self) -> None:
        self._streams: Dict[Hashable, PrivateStream] = {}
        self._expected: Counter = Counter()

    def __len__(self) -> int:
        return len(self._streams)

    def stream(self, key: Hashable, config: MachineConfig, trace,
               core_id: int, seed: int, target: int) -> PrivateStream:
        """The stream under ``key``, started (empty) on first request."""
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = PrivateStream(
                config, trace, core_id, seed, target)
        return stream

    def expect(self, keys: Iterable[Hashable]) -> None:
        """Count one future use of each key."""
        self._expected.update(keys)

    def release(self, keys: Iterable[Hashable]) -> None:
        """One use of each key is over; free the streams nobody expects."""
        for key in keys:
            left = self._expected[key] - 1
            if left > 0:
                self._expected[key] = left
            else:
                del self._expected[key]
                self._streams.pop(key, None)

    def drop(self, keys: Iterable[Hashable]) -> None:
        """Free these streams now."""
        for key in keys:
            self._streams.pop(key, None)
