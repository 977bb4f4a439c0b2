"""Integer-tick core clocks: exact, shared by both retirement loops.

Every cost a core charges is a whole number of ticks
(:attr:`repro.config.CoreConfig.tick_table`), so the lockstep
:class:`~repro.cpu.core.Core` and the replaying
:class:`~repro.cpu.replay.ReplayCore` count the same time without copying
each other's arithmetic, and the CPI stack accounts for every tick.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    MAX_TICKS_PER_CYCLE,
    STORE_OVERLAP,
    CoreConfig,
    scaled_config,
)
from repro.core import PinteConfig
from repro.sim.private import PrivateStream
from repro.sim.session import SessionBuilder, core_stream
from repro.trace import build_trace, get_workload

SEED = 4
#: Instructions each core retires; the trace is shorter, so it wraps.
INSTRUCTIONS = 700
RECORDS = 450

CORES = st.builds(CoreConfig,
                  issue_width=st.integers(1, 8),
                  mlp=st.sampled_from((1, 1.5, 2.5, 3, 4, 6)),
                  mispredict_penalty=st.integers(0, 60))


def _core(core_config, workload, replayed):
    """A fresh single-core PInTE session's core, lockstep or replayed."""
    config = replace(scaled_config(), core=core_config)
    trace = build_trace(get_workload(workload), RECORDS, SEED,
                        config.llc.size)
    builder = SessionBuilder(config, seed=SEED).with_pinte(
        PinteConfig(0.2, seed=SEED))
    if replayed:
        # A short target: the stream re-records past it.
        builder.with_private_streams(
            [PrivateStream(config, trace, 0, SEED, INSTRUCTIONS // 3)])
    return builder.build_timing([core_stream(trace, 0)]).cores[0]


def _state(core):
    stats = core.stats
    return (core.cycle, core.ticks, core.index,
            tuple(getattr(stats, name) for name in type(stats).__slots__))


@settings(max_examples=25, deadline=None)
@given(core_config=CORES,
       workload=st.sampled_from(("470.lbm", "403.gcc", "435.gromacs")))
def test_lockstep_and_replay_count_the_same_ticks(core_config, workload):
    lockstep = _core(core_config, workload, replayed=False)
    replayed = _core(core_config, workload, replayed=True)
    for core in (lockstep, replayed):
        assert core.run(INSTRUCTIONS // 2) == INSTRUCTIONS // 2
        assert core.run(INSTRUCTIONS - INSTRUCTIONS // 2, core.cycle + 40)
    assert _state(lockstep) == _state(replayed)


@settings(max_examples=25, deadline=None)
@given(core_config=CORES,
       workload=st.sampled_from(("470.lbm", "403.gcc", "435.gromacs")),
       replayed=st.booleans())
def test_cpi_stack_sums_to_the_elapsed_ticks(core_config, workload,
                                             replayed):
    core = _core(core_config, workload, replayed)
    core.run(INSTRUCTIONS)
    table = core_config.tick_table
    stats = core.stats
    stack = {"base": Fraction(stats.instructions * table.issue,
                              table.per_cycle),
             **{name: Fraction(getattr(stats, f"{name}_stall_ticks"),
                               table.per_cycle)
                for name in ("fetch", "load", "store", "branch")}}
    assert sum(stack.values()) == Fraction(core.ticks, table.per_cycle)
    assert stack["base"] == Fraction(INSTRUCTIONS, core_config.issue_width)
    assert core.cycle == core.ticks // table.per_cycle
    # The reported CPI stack is each exact component over the count.
    assert stats.cpi_stack() == {name: float(cycles / INSTRUCTIONS)
                                 for name, cycles in stack.items()}


@given(core_config=CORES)
def test_every_cost_is_whole_ticks(core_config):
    table = core_config.tick_table
    assert table.per_cycle <= MAX_TICKS_PER_CYCLE
    assert table.issue * core_config.issue_width == table.per_cycle
    assert table.load * Fraction(str(core_config.mlp)) == table.per_cycle
    assert table.store * STORE_OVERLAP == table.per_cycle
    assert table.mispredict == (table.per_cycle
                                * core_config.mispredict_penalty)


def test_shipped_core_counts_eighths():
    assert scaled_config().core.tick_table == (8, 2, 2, 1, 120)


def test_too_fine_a_tick_is_refused():
    with pytest.raises(ValueError, match="mlp=1.0000001") as info:
        CoreConfig(mlp=1.0000001)
    assert str(MAX_TICKS_PER_CYCLE) in str(info.value)
    assert CoreConfig(mlp=1.1).tick_table.per_cycle == 88
