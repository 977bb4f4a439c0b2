"""Periodic private streams (``repro.sim.private``): copying equals walking.

Once a wrapped stream's cache state repeats at a lap start,
:class:`~repro.sim.private.PrivateStream` copies the last lap's access codes
and events instead of walking the caches, and once the predictor's state
repeats too it copies the mispredicts as well. Every column and ``length``
must equal a plain walk's after every ``grow``, whatever the predictor,
the private policy, the prefetchers, the core slot, the trace length and
the growth sequence. The plain walk is the same class with copying turned
off (``_copyable`` answers False), as it is for a prefetcher or a non-LRU
level.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import (
    PREDICTORS,
    BranchPredictor,
    make_predictor,
    predictor_state,
)
from repro.config import scaled_config
from repro.cpu.replay import GROW_CHUNK
from repro.sim import ExperimentScale
from repro.sim import private
from repro.sim.batch import Job, run_job
from repro.sim.private import PrivateStream, PrivateStreamMemo
from repro.trace import build_trace, get_workload
from repro.trace.packed import FLAG_BRANCH, FLAG_TAKEN
from tests.sim.test_private_memo import comparable

WORKLOADS = ("453.povray", "605.mcf", "470.lbm", "648.exchange2")


def machine(predictor: str, policy: str = "lru", prefetch: str = "000"):
    base = scaled_config(prefetch)
    return replace(
        base,
        l1i=replace(base.l1i, policy=policy),
        l1d=replace(base.l1d, policy=policy),
        l2=replace(base.l2, policy=policy),
        core=replace(base.core, branch_predictor=predictor))


def columns(stream: PrivateStream) -> tuple:
    """Everything a replaying core reads from a stream."""
    return (stream.length, stream.fetches.codes, stream.datas.codes,
            stream.fetches.issued_col, stream.fetches.useful_col,
            stream.datas.issued_col, stream.datas.useful_col,
            stream.mispredicts, stream.ev_blocks, stream.ev_info)


def walking(monkeypatch) -> None:
    """Turn copying off: every stream walks its caches, as before."""
    monkeypatch.setattr(private, "_copyable", lambda stage: False)


def grow_both(config, trace, core_id, target, grows):
    """A copying stream and a walking one, grown alike; equal after every
    ``grow``. Returns the copying stream."""
    copying = PrivateStream(config, trace, core_id, 7, target)
    with pytest.MonkeyPatch.context() as patch:
        walking(patch)
        walked = PrivateStream(config, trace, core_id, 7, target)
    for minimum in grows:
        copying.grow(minimum)
        with pytest.MonkeyPatch.context() as patch:
            walking(patch)
            walked.grow(minimum)
        assert columns(copying) == columns(walked)
    return copying


@st.composite
def growth(draw):
    """A trace length and a ``grow`` sequence over it: pieces shorter than
    a lap, several laps with a remainder, and the replay's chunk."""
    length = draw(st.integers(50, 2_000))
    piece = st.one_of(
        st.integers(1, length - 1),
        st.builds(lambda laps, rest: laps * length + rest,
                  st.integers(1, max(1, 6_000 // length)),
                  st.integers(0, length - 1)),
        st.just(GROW_CHUNK))
    return length, draw(st.lists(piece, min_size=1, max_size=12))


@settings(max_examples=40, deadline=None)
@given(predictor=st.sampled_from(sorted(PREDICTORS)),
       policy=st.sampled_from(("lru", "rrip")),
       prefetch=st.sampled_from(("000", "NN0")),
       core_id=st.integers(0, 2),
       workload=st.sampled_from(WORKLOADS),
       target=st.integers(0, 3_000),
       plan=growth())
def test_copied_stream_equals_the_plain_walk(predictor, policy, prefetch,
                                             core_id, workload, target, plan):
    length, grows = plan
    config = machine(predictor, policy, prefetch)
    trace = build_trace(get_workload(workload), length, 5, config.llc.size)
    stream = grow_both(config, trace, core_id, target, grows)
    if policy != "lru" or prefetch != "000":
        assert stream._lap is None and stream._cache_state is None


@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
def test_every_predictor_reaches_both_periods(predictor):
    # 60-row laps repeat quickly: after 120 laps the stream copies its
    # caches' columns and its mispredicts alike, and still equals a walk.
    config = machine(predictor)
    trace = build_trace(get_workload("453.povray"), 60, 3, config.llc.size)
    stream = grow_both(config, trace, 1, 200,
                       [200] + [GROW_CHUNK] * 14 + [60 * 3 + 7])
    assert stream.length // len(trace) >= 120
    assert stream._lap is not None and stream._lap.mispredict is not None
    # The snapshots are let go once their period is found.
    assert stream._cache_state is None and stream._predictor_state is None


@pytest.mark.parametrize("policy, prefetch", [("lru", "NN0"),
                                              ("rrip", "000"),
                                              ("lru", "00N")])
def test_prefetching_or_non_lru_stream_never_copies(policy, prefetch,
                                                    monkeypatch):
    config = machine("hashed_perceptron", policy, prefetch)
    trace = build_trace(get_workload("453.povray"), 60, 3, config.llc.size)
    monkeypatch.setattr(private, "_Lap", None)  # any copy would raise
    stream = PrivateStream(config, trace, 1, 7, 0)
    for _ in range(10):
        stream.grow(GROW_CHUNK)
    assert stream.length == 10 * GROW_CHUNK
    assert stream._lap is None and stream._cache_state is None


def test_cache_snapshot_covers_fetch_block_order_and_flags():
    # At every wrap the fetch block is the trace's last row's, so no stream
    # can show a snapshot that leaves it out; the snapshot must still hold
    # it, or it would not be the whole cache-side state.
    config = machine("bimodal")
    trace = build_trace(get_workload("605.mcf"), 300, 3, config.llc.size)
    stream = PrivateStream(config, trace, 1, 7, 0)
    stream.grow(450)
    before = stream._cache_snapshot()
    stream._last_fetch_block += 1
    assert stream._cache_snapshot() != before
    stream._last_fetch_block -= 1
    assert stream._cache_snapshot() == before
    blocks = next(blocks for blocks in stream._stage.l1d._sets
                  if len(blocks) > 1)
    oldest = next(iter(blocks))
    blocks[oldest] = blocks.pop(oldest)  # the same blocks, in a new order
    reordered = stream._cache_snapshot()
    assert reordered != before
    blocks[oldest] ^= 1  # a flipped dirty bit, the order kept
    assert stream._cache_snapshot() != reordered


def test_predictor_snapshot_is_a_deep_value_copy():
    # A tournament holds its components as objects: an update to either
    # must change the snapshot, and an equal fresh predictor must match.
    predictor = make_predictor("tournament")
    before = predictor_state(predictor)
    assert before == predictor_state(make_predictor("tournament"))
    predictor.update(0x400, False)
    assert predictor_state(predictor) != before
    assert before == predictor_state(make_predictor("tournament"))
    predictor.stats.lookups = 0  # statistics are not state
    predictor.stats.mispredictions = 0
    assert predictor_state(predictor) != before


def test_state_a_snapshot_cannot_copy_never_repeats():
    class Dicts(BranchPredictor):
        def __init__(self):
            super().__init__()
            self.table = {}

    class Slots(BranchPredictor):
        __slots__ = ("stats",)

    for predictor in (Dicts(), Slots()):
        assert predictor_state(predictor) != predictor_state(predictor)


@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
def test_predictor_snapshot_sees_every_update(predictor):
    trace = build_trace(get_workload("605.mcf"), 400, 2, 1 << 20)
    model = make_predictor(predictor)
    seen = {predictor_state(model)}
    for pc, flag in zip(trace.pcs, trace.flags):
        if flag & FLAG_BRANCH:
            model.update(pc, bool(flag & FLAG_TAKEN))
            seen.add(predictor_state(model))
    if predictor != "always_taken":
        assert len(seen) > 1


SCALE = ExperimentScale(warmup_instructions=100, sim_instructions=300,
                        sample_interval=70, seed=3)


@pytest.mark.parametrize("job", [
    Job("605.mcf", mode="pair", co_runner="453.povray"),
    Job("470.lbm", mode="multi", co_runners=("453.povray", "648.exchange2"),
        scheme="static", repartition_interval=100),
], ids=["pair", "multi"])
def test_jobs_with_wrapping_co_runners_equal_the_plain_walk(job,
                                                             monkeypatch):
    config = scaled_config()
    memo = PrivateStreamMemo()
    copied = run_job(job, config, SCALE, private_memo=memo)
    streams = list(memo._streams.values())
    laps = max(stream.length // len(stream.packed) for stream in streams)
    assert laps >= 20
    assert any(stream._lap is not None for stream in streams)
    assert copied.extra["phase_private_seconds"] >= 0
    for stream in streams:
        points = range(0, stream.length + 1, max(1, stream.length // 50))
        costs = [stream.cost_of(point) for point in points]
        assert costs == sorted(costs)
    walking(monkeypatch)
    walked_memo = PrivateStreamMemo()
    walked = run_job(job, config, SCALE, private_memo=walked_memo)
    assert all(stream._lap is None
               for stream in walked_memo._streams.values())
    assert walked.extra["phase_private_seconds"] >= 0
    assert comparable(copied) == comparable(walked)
