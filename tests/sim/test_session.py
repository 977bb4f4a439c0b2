"""Tests for the unified simulation-session core.

Every timing host retires instructions through one call,
``run(count, limit)``, on a :class:`~repro.cpu.core.Core` or a
:class:`~repro.cpu.replay.ReplayCore`; the scheduler splits a run into
calls wherever a co-runner's clock, a live-clock hook or an event trace
needs it. The contract tests below check that a split never shows: any
sequence of ``(count, limit)`` calls leaves a core exactly where one call
retiring the same instructions does. Hypothesis draws the splits.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import scaled_config
from repro.core import PinteConfig
from repro.sim import simulate
from repro.sim.multicore import simulate_multiprogrammed, simulate_pair
from repro.sim.private import PrivateStream
from repro.sim.session import SessionBuilder, core_stream
from repro.trace import build_trace, get_workload

WORKLOADS = ("470.lbm", "435.gromacs")
#: Short traces, so that runs wrap them.
RECORDS = 300
CORE_KINDS = ("Core", "ReplayCore")


def _core(kind, workload="470.lbm", pinte=None):
    """A fresh single-core session's core of ``kind`` over a short trace."""
    config = scaled_config()
    trace = build_trace(get_workload(workload), RECORDS, 3, config.llc.size)
    builder = SessionBuilder(config, seed=5).with_pinte(pinte)
    if kind == "ReplayCore":
        # Core slot 1: the stream grows in chunks as the core outruns it.
        builder.with_private_streams(
            [PrivateStream(config, trace, 1, 5, RECORDS // 2)])
    return builder.build_timing([core_stream(trace, 0)]).cores[0]


def _state(core):
    """Clock, ticks, cursor and every CoreStats slot."""
    stats = core.stats
    return (core.cycle, core.ticks, core.index,
            tuple(getattr(stats, name) for name in type(stats).__slots__))


#: One call: an instruction budget and a clock limit as an offset from the
#: clock at the call (None for no limit; a negative offset is a limit the
#: clock has already passed).
CALLS = st.lists(
    st.tuples(st.integers(0, 250),
              st.one_of(st.none(), st.integers(-20, 3_000))),
    min_size=1, max_size=12)


class TestRunContract:
    @pytest.mark.parametrize("kind", CORE_KINDS)
    @settings(max_examples=15, deadline=None)
    @given(calls=CALLS, workload=st.sampled_from(WORKLOADS),
           p_induce=st.sampled_from((None, 0.3)))
    def test_split_matches_one_call(self, kind, calls, workload, p_induce):
        pinte = PinteConfig(p_induce, seed=2) if p_induce else None
        split = _core(kind, workload, pinte)
        retired = 0
        for count, offset in calls:
            before = split.cycle
            if offset is None:
                done = split.run(count)
            else:
                limit = before + offset
                done = split.run(count, limit)
                if before >= limit:
                    assert done == min(count, 1)
                elif done < count:
                    assert split.cycle >= limit
            assert 0 <= done <= count
            if offset is None:
                assert done == count
            retired += done
        whole = _core(kind, workload, pinte)
        assert whole.run(retired) == retired
        assert _state(split) == _state(whole)
        assert split.stats.instructions == retired

    @pytest.mark.parametrize("kind", CORE_KINDS)
    def test_at_or_past_limit_retires_exactly_one(self, kind):
        # Most of gromacs's instructions leave the clock where it was, so
        # only the limit check at entry stops these calls after one.
        core = _core(kind, "435.gromacs")
        core.run(40)
        for step in range(60):
            limit = (core.cycle, core.cycle - 3, 0)[step % 3]
            instructions = core.stats.instructions
            assert core.run(100, limit) == 1
            assert core.stats.instructions == instructions + 1

    @pytest.mark.parametrize("kind", CORE_KINDS)
    def test_count_zero_retires_nothing(self, kind):
        core = _core(kind)
        core.run(25)
        before = _state(core)
        assert core.run(0) == 0
        assert core.run(0, 0) == 0
        assert _state(core) == before

    @pytest.mark.parametrize("kind", CORE_KINDS)
    def test_cursor_wraps_at_the_trace_end(self, kind):
        core = _core(kind)
        assert core.run(RECORDS + 7) == RECORDS + 7
        assert core.index == 7
        assert core.stats.instructions == RECORDS + 7


class TestSessionBuilder:
    def test_stream_count_must_match_cores(self, config, lbm_trace,
                                           gromacs_trace):
        stream = PrivateStream(config, lbm_trace, 0, 5, 100)
        builder = (SessionBuilder(config, seed=5)
                   .with_private_streams([stream]))
        with pytest.raises(ValueError, match="streams for"):
            builder.build_timing([core_stream(lbm_trace, 0),
                                  core_stream(gromacs_trace, 1)])


class TestHybridContext:
    """PInTE layered on real co-runner contention — the context the
    unified session core unlocked."""

    @pytest.fixture(scope="class")
    def hybrid(self, config, lbm_trace, gromacs_trace):
        return simulate_pair(lbm_trace, gromacs_trace, config,
                             warmup_instructions=1_000,
                             sim_instructions=4_000,
                             pinte=PinteConfig(0.4, seed=2))

    def test_mode_and_label(self, hybrid):
        assert hybrid.mode == "hybrid"
        assert hybrid.p_induce == 0.4
        assert hybrid.co_runner == "435.gromacs"
        assert hybrid.label() == "470.lbm+435.gromacs@pinte(0.4)"

    def test_engine_extras_on_primary(self, hybrid):
        assert hybrid.extra["pinte_triggers"] > 0

    def test_induced_contention_on_top_of_real(self, config, lbm_trace,
                                               gromacs_trace):
        plain = simulate_pair(lbm_trace, gromacs_trace, config,
                              warmup_instructions=1_000,
                              sim_instructions=4_000)
        hybrid = simulate_pair(lbm_trace, gromacs_trace, config,
                               warmup_instructions=1_000,
                               sim_instructions=4_000,
                               pinte=PinteConfig(0.6, seed=2))
        assert hybrid.thefts_experienced > plain.thefts_experienced

    def test_multiprogrammed_hybrid_marks_every_core(self, config, lbm_trace,
                                                     gromacs_trace,
                                                     povray_trace):
        results = simulate_multiprogrammed(
            [lbm_trace, gromacs_trace, povray_trace], config,
            warmup_instructions=500, sim_instructions=3_000,
            pinte=PinteConfig(0.3, seed=2))
        assert all(r.mode == "hybrid" for r in results)
        assert all(r.p_induce == 0.3 for r in results)

    def test_deterministic(self, config, lbm_trace, gromacs_trace):
        a = simulate_pair(lbm_trace, gromacs_trace, config,
                          sim_instructions=3_000,
                          pinte=PinteConfig(0.4, seed=9))
        b = simulate_pair(lbm_trace, gromacs_trace, config,
                          sim_instructions=3_000,
                          pinte=PinteConfig(0.4, seed=9))
        assert a.ipc == b.ipc
        assert a.thefts_experienced == b.thefts_experienced

    def test_hybrid_job_runs(self, config, tiny_scale):
        from repro.sim.batch import Job, run_job
        job = Job("470.lbm", mode="pair", co_runner="435.gromacs",
                  p_induce=0.4)
        result = run_job(job, config, tiny_scale)
        assert result.mode == "hybrid"
        assert result.p_induce == 0.4


class TestHookCountersSkipWarmup:
    """The periodic trigger's rounds and the background DRAM requests are
    statistics like any other: a run with warm-up W reports exactly what
    instructions W..W+N added to a cold run's counts."""

    EXTRAS = ("pinte_periodic_rounds", "dram_background_requests",
              "pinte_triggers")
    PINTE = PinteConfig(0.5, seed=3, trigger="periodic", period_cycles=200,
                        dram_background_rpkc=50)
    WARMUP, BUDGET = 1_500, 2_500

    @pytest.mark.parametrize("host", ["single-core", "hybrid"])
    def test_measured_region_only(self, host, config, lbm_trace,
                                  gromacs_trace):
        def extras(warmup, budget):
            if host == "single-core":
                result = simulate(lbm_trace, config, pinte=self.PINTE,
                                  warmup_instructions=warmup,
                                  sim_instructions=budget)
            else:
                result = simulate_pair(lbm_trace, gromacs_trace, config,
                                       pinte=self.PINTE,
                                       warmup_instructions=warmup,
                                       sim_instructions=budget)
            return result.extra

        measured = extras(self.WARMUP, self.BUDGET)
        head = extras(0, self.WARMUP)
        whole = extras(0, self.WARMUP + self.BUDGET)
        for name in self.EXTRAS:
            assert head[name] > 0, name  # the warm-up really counted some
            assert measured[name] == whole[name] - head[name], name
