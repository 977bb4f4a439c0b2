"""The core scheduler against a plainly written reference schedule.

:class:`~repro.sim.session.CoreStepper` resumes each core's retirement
loop (``retire``) once per step and writes a core's cursor and statistics
back only when its segment ends. :class:`ReferenceStepper` makes the same
furthest-behind schedule the plain way: every step reads every clock into
a fresh list and makes one whole ``run(count, limit)`` call, so a core's
state is current after every step. Hypothesis draws the machine (1 to 3
cores of either kind, with and without the live-clock hooks and an event
trace) and the split of the run into drive segments; after every segment
the two sessions must agree exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import scaled_config
from repro.core import PinteConfig
from repro.obs import Observation
from repro.sim.private import PrivateStream
from repro.sim.session import CoreStepper, SessionBuilder, core_stream
from repro.trace import build_trace, get_workload

WORKLOADS = ("470.lbm", "450.soplex", "435.gromacs")
#: Short traces, so that runs wrap them.
RECORDS = 400
SEED = 6
#: Periodic PInTE plus background DRAM traffic: both live-clock hooks.
HOOKS = PinteConfig(0.5, seed=3, trigger="periodic", period_cycles=90,
                    dram_background_rpkc=40)

_TRACES = {}


def _traces(n_cores):
    config = scaled_config()
    for core_id, name in enumerate(WORKLOADS[:n_cores]):
        if name not in _TRACES:
            _TRACES[name] = build_trace(get_workload(name), RECORDS,
                                        SEED + core_id, config.llc.size)
    return [_TRACES[name] for name in WORKLOADS[:n_cores]]


class ReferenceStepper:
    """The furthest-behind schedule, one ``run(count, limit)`` per step.

    Each step runs the first core whose clock is the lowest, bounded by
    the lowest clock of a lower-id core and one past the lowest of a
    higher-id core; the primary's bound also folds in the hooks' next
    thresholds, and is ``0`` under an event trace.
    """

    def __init__(self, session):
        self.cores = session.cores
        self.periodic = session.periodic
        self.background = session.background
        self.traced = session.events is not None

    def run(self, count):
        cores = self.cores
        primary = cores[0]
        retired = 0
        while retired < count:
            clocks = [core.cycle for core in cores]
            core_id = clocks.index(min(clocks))
            lower = clocks[:core_id]
            upper = clocks[core_id + 1:]
            limit = min([*lower, *(clock + 1 for clock in upper)],
                        default=float("inf"))
            if core_id:
                cores[core_id].run(1 << 62, limit)
                continue
            if self.traced:
                limit = 0
            if self.periodic is not None:
                limit = min(limit, self.periodic._next_fire)
            if self.background is not None:
                limit = min(limit, self.background._next_issue)
            retired += primary.run(count - retired, limit)
            if self.periodic is not None:
                self.periodic.maybe_tick(primary.cycle, 0)
            if self.background is not None:
                self.background.advance(primary.cycle)
        return max(count, 0)


def _session(kind, n_cores, hooks, traced, targets):
    config = scaled_config()
    traces = _traces(n_cores)
    builder = SessionBuilder(config, seed=SEED).with_pinte(
        HOOKS if hooks else None)
    if traced:
        builder.with_observation(Observation.with_events())
    if kind == "ReplayCore":
        # Short targets: every core outgrows its first stream build (the
        # primary's stream then re-records from the trace's start).
        builder.with_private_streams(
            [PrivateStream(config, trace, core_id, SEED + core_id, target)
             for core_id, (trace, target) in enumerate(zip(traces,
                                                            targets))])
    return builder.build_timing([core_stream(trace, core_id)
                                 for core_id, trace in enumerate(traces)])


def _state(session):
    """Every core's clock, ticks, cursor, statistics and stream
    reach; the tracker's counters; the hooks' and event trace's counts."""
    cores = tuple(
        (core.cycle, core.ticks, core.index,
         tuple(getattr(core.stats, name)
               for name in type(core.stats).__slots__),
         getattr(getattr(core, "stream", None), "reached", None))
        for core in session.cores)
    tracker = tuple(
        tuple(getattr(counters, name) for name in type(counters).__slots__)
        for counters in map(session.tracker.counters,
                            range(session.n_owners)))
    hooks = (getattr(session.periodic, "rounds", None),
             getattr(session.background, "requests", None))
    events = session.events
    trace = (None if events is None else
             (events.recorded, [tuple(event) for event in events.events()]))
    return cores, tracker, hooks, trace


#: Drive segments: an instruction budget, and whether the session's
#: statistics are reset after it, as at the end of a warm-up.
SEGMENTS = st.lists(st.tuples(st.integers(0, 260), st.booleans()),
                    min_size=1, max_size=5)


@pytest.mark.parametrize("kind", ("Core", "ReplayCore"))
@settings(max_examples=20, deadline=None)
@given(n_cores=st.integers(1, 3), hooks=st.booleans(), data=st.data(),
       segments=SEGMENTS,
       targets=st.lists(st.integers(1, 120), min_size=3, max_size=3))
def test_stepper_matches_reference(kind, n_cores, hooks, data, segments,
                                   targets):
    traced = data.draw(st.booleans(), label="traced")
    stepped = _session(kind, n_cores, hooks, traced, targets)
    reference = _session(kind, n_cores, hooks, traced, targets)
    stepper = CoreStepper(stepped)
    plain = ReferenceStepper(reference)
    for budget, reset in segments:
        assert stepper.run(budget) == plain.run(budget)
        stepped.llc.check_invariants()
        assert _state(stepped) == _state(reference)
        if reset:
            stepped.reset_statistics()
            reference.reset_statistics()


def test_replayed_cores_outgrow_their_streams():
    # The drawn stream targets are this short: both cores regrow their
    # streams, the primary's from the trace's start.
    session = _session("ReplayCore", 2, False, False, (10, 10, 10))
    assert CoreStepper(session).run(600) == 600
    primary, co_runner = session.cores
    assert primary.stream.reached == primary.position == 600
    assert co_runner.stream.reached == co_runner.position > 10
    assert co_runner.stream.length >= co_runner.position
