"""Tests for the unified simulation-session core.

The session layer promises two things the hosts rely on:

* *parity* — blocked single-core execution and batched multicore
  scheduling are pure mechanical optimisations, bit-identical to their
  stepwise forms for every configuration where they are legal;
* *legality* — anything that needs a live per-instruction clock (the
  periodic PInTE trigger, background DRAM traffic, event timestamps)
  refuses the fast path loudly instead of silently drifting.

The parity checks are seeded property tests: random workload / policy /
PInTE / budget combinations, each run through both modes and compared on
every counter a scheduling change could disturb.
"""

import random

import pytest

from repro.config import scaled_config
from repro.core import PinteConfig
from repro.sim import simulate
from repro.sim.multicore import simulate_multiprogrammed, simulate_pair
from repro.sim.session import (
    MultiCoreStepper,
    SessionBuilder,
    SingleCoreStepper,
    drive,
)
from repro.trace import build_trace, get_workload
from repro.trace.packed import as_packed

WORKLOADS = ("470.lbm", "429.mcf", "435.gromacs")
POLICIES = ("lru", "rrip", "plru")


@pytest.fixture(scope="module")
def traces(config):
    return {name: build_trace(get_workload(name), 8_000, 11, config.llc.size)
            for name in WORKLOADS}


def _observables(session):
    """Every counter a scheduling change could disturb, all cores."""
    per_core = []
    for owner, (core, hierarchy) in enumerate(zip(session.cores,
                                                  session.hierarchies)):
        counters = session.tracker.counters(owner)
        per_core.append((
            core.cycle, core.stats.instructions,
            hierarchy.l1d.stats.misses, hierarchy.l2.stats.misses,
            counters.llc_accesses, counters.llc_misses,
            counters.thefts_experienced, counters.interference_misses,
        ))
    llc = session.llc
    engine = session.engine
    return (tuple(per_core), llc.stats.hits, llc.stats.misses,
            llc.stats.writebacks, tuple(llc.reuse_histogram),
            engine.stats.invalidations if engine else 0,
            engine._rng.draws if engine else 0)


class TestSingleCoreParity:
    def _run(self, config, trace, pinte, warmup, sim, blocked):
        session = (SessionBuilder(config, seed=5)
                   .with_pinte(pinte)
                   .build_timing(1))
        stepper = SingleCoreStepper(session, as_packed(trace),
                                    blocked=blocked)
        drive(session, stepper, warmup=warmup, total=sim,
              sample_interval=1_000)
        return _observables(session)

    def test_blocked_matches_stepwise_randomised(self, traces):
        """Seeded property test: random config combos, both modes agree."""
        rng = random.Random(0xB10C)
        for case in range(8):
            workload = rng.choice(WORKLOADS)
            policy = rng.choice(POLICIES)
            p = rng.choice((None, 0.1, 0.5))
            pinte = PinteConfig(p, seed=rng.randrange(100)) if p else None
            warmup = rng.choice((0, 500, 1_700))
            sim = rng.randrange(2_000, 6_000)
            config = scaled_config().with_llc_policy(policy)
            label = f"case {case}: {workload}/{policy}/p={p}/{warmup}+{sim}"
            blocked = self._run(config, traces[workload], pinte,
                                warmup, sim, blocked=True)
            stepwise = self._run(config, traces[workload], pinte,
                                 warmup, sim, blocked=False)
            assert blocked == stepwise, label

    def test_blocked_is_the_default_without_hooks(self, config, traces):
        session = SessionBuilder(config, seed=5).build_timing(1)
        stepper = SingleCoreStepper(session, as_packed(traces["470.lbm"]))
        assert stepper.blocked

    def test_periodic_hook_forces_stepwise(self, config, traces):
        pinte = PinteConfig(0.3, seed=1, trigger="periodic")
        session = (SessionBuilder(config, seed=5)
                   .with_pinte(pinte)
                   .build_timing(1))
        stepper = SingleCoreStepper(session, as_packed(traces["470.lbm"]))
        assert not stepper.blocked
        with pytest.raises(ValueError, match="live-clock hooks"):
            SingleCoreStepper(session, as_packed(traces["470.lbm"]),
                              blocked=True)

    def test_event_trace_forces_stepwise(self, config, traces):
        from repro.obs import Observation
        observe = Observation.with_events()
        session = (SessionBuilder(config, seed=5)
                   .with_observation(observe)
                   .build_timing(1))
        stepper = SingleCoreStepper(session, as_packed(traces["470.lbm"]))
        assert not stepper.blocked
        with pytest.raises(ValueError, match="event trace"):
            SingleCoreStepper(session, as_packed(traces["470.lbm"]),
                              blocked=True)
        session.detach_events()


class TestMultiCoreParity:
    def _run(self, config, streams, pinte, warmup, sim, batched,
             partitioner=False):
        builder = SessionBuilder(config, seed=5).with_pinte(pinte)
        if partitioner:
            from repro.cache.partition import make_partitioner
            n_ways = config.llc.assoc
            n_sets = config.llc.size // (n_ways * config.block_size)
            builder.with_partitioner(
                make_partitioner("ucp", n_sets, n_ways,
                                 owners=list(range(len(streams))),
                                 sampling=4),
                repartition_interval=2_000)
        session = builder.build_timing(len(streams))
        stepper = MultiCoreStepper(session, streams, batched=batched)
        drive(session, stepper, warmup=warmup, total=sim,
              sample_interval=1_000)
        return _observables(session)

    def test_batched_matches_stepwise_randomised(self, traces):
        """Random pair/triple mixes: the hoisted-min schedule is identical."""
        rng = random.Random(0x5E55)
        for case in range(6):
            names = rng.sample(WORKLOADS, rng.choice((2, 2, 3)))
            policy = rng.choice(POLICIES)
            p = rng.choice((None, 0.2))
            pinte = PinteConfig(p, seed=rng.randrange(100)) if p else None
            partitioner = rng.random() < 0.4
            warmup = rng.choice((0, 800))
            sim = rng.randrange(2_000, 5_000)
            config = scaled_config().with_llc_policy(policy)
            from repro.sim.session import ADDRESS_SPACE_STRIDE
            streams = [
                as_packed(traces[name]).offset(i * ADDRESS_SPACE_STRIDE)
                for i, name in enumerate(names)]
            label = f"case {case}: {names}/{policy}/p={p}/{warmup}+{sim}"
            batched = self._run(config, streams, pinte, warmup, sim,
                                batched=True, partitioner=partitioner)
            stepwise = self._run(config, streams, pinte, warmup, sim,
                                 batched=False, partitioner=partitioner)
            assert batched == stepwise, label

    def test_hooks_force_stepwise(self, config, traces):
        pinte = PinteConfig(0.3, seed=1, trigger="periodic")
        session = (SessionBuilder(config, seed=5)
                   .with_pinte(pinte)
                   .build_timing(2))
        streams = [as_packed(traces["470.lbm"]),
                   as_packed(traces["429.mcf"])]
        stepper = MultiCoreStepper(session, streams)
        assert not stepper.batched
        with pytest.raises(ValueError, match="live-clock hooks"):
            MultiCoreStepper(session, streams, batched=True)

    def test_stream_count_must_match_cores(self, config, traces):
        session = SessionBuilder(config, seed=5).build_timing(2)
        with pytest.raises(ValueError, match="streams for"):
            MultiCoreStepper(session, [as_packed(traces["470.lbm"])])


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
